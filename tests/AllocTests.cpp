//===- AllocTests.cpp - Heap allocations of warm evaluation steps ----------===//
//
// A warm evaluation step costs its diagram work and nothing else: once a
// context has seen a call, calling it again with the same argument leases
// a pooled frame, finds every value it builds already interned and every
// closure in the closure table, and allocates nothing. This executable
// replaces the global operator new with a counting one to check that.
//
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "eval/Interp.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {
uint64_t Allocations = 0;

void *countedAlloc(std::size_t N) {
  ++Allocations;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace nv;

namespace {

ExprPtr parseChecked(const char *Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  EXPECT_TRUE(E && typeCheckExpr(E, Diags)) << Src << "\n" << Diags.str();
  return E;
}

/// Heap allocations made by \p Fn.
template <class Fn> uint64_t allocationsOf(Fn &&F) {
  uint64_t Before = Allocations;
  F();
  return Allocations - Before;
}

TEST(Allocations, CountingOperatorNewSeesAllocations) {
  EXPECT_EQ(allocationsOf([] { delete new int(1); }), 1u);
}

class WarmCompiledCall : public ::testing::TestWithParam<const char *> {};

/// The second call with the same argument returns the same interned
/// value and allocates nothing.
TEST_P(WarmCompiledCall, AllocatesNothing) {
  NvContext Ctx(4);
  ExprPtr E = parseChecked(GetParam());
  ASSERT_TRUE(E);
  Frame F;
  const Value *Fn = Compiler(Ctx).compile(E)(F);
  ASSERT_EQ(Fn->K, Value::Kind::Closure);
  const Value *Arg = Ctx.intV(5);
  const Value *First = Ctx.applyClosure(Fn, Arg);
  const Value *Second = nullptr;
  EXPECT_EQ(allocationsOf([&] { Second = Ctx.applyClosure(Fn, Arg); }), 0u);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(Ctx.framesLeased(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Bodies, WarmCompiledCall,
    ::testing::Values(
        "fun (x : int) -> (x, x + 1)",
        "fun (x : int) -> let r = {lp = x; med = 2} in "
        "  match (x, Some r) with "
        "  | (0, _) -> (r, None) "
        "  | (y, s) -> ({r with med = y + 1}, s)",
        // Calls through captured and freshly built closures: the closure
        // table answers the inner Fun.
        "fun (x : int) -> let g = fun (y : int) -> (y, x) in "
        "  let h = fun (f : int -> (int, int)) -> f (x + 1) in h g",
        "fun (x : int) -> let m : dict[int4, int] = createDict x in "
        "  (m[3u4 := x + 1][3u4], m[2u4])",
        "fun (x : int) -> let m : dict[int3, option[int]] = createDict "
        "(Some x) in (mapIte (fun k -> k > 3u3) "
        "  (fun v -> match v with | None -> None | Some y -> Some (y + 1)) "
        "  (fun v -> None) m)[6u3]"));

/// A saturated call of a curried function runs its innermost body in one
/// leased frame: once warm it allocates nothing and, its result already
/// interned, evaluates no Fun at all.
TEST(Allocations, WarmSaturatedCallBuildsNoClosure) {
  NvContext Ctx(4);
  ExprPtr E = parseChecked("fun (a : int) -> fun (b : int) -> fun (c : int) "
                           "-> (a + b, c)");
  ASSERT_TRUE(E);
  Frame F;
  const Value *Fn = Compiler(Ctx).compile(E)(F);
  const Value *Args[3] = {Ctx.intV(1), Ctx.intV(2), Ctx.intV(3)};
  const Value *First = Ctx.applyClosureN(Fn, Args, 3);
  uint64_t Created = Ctx.closuresCreated();
  const Value *Second = nullptr;
  EXPECT_EQ(allocationsOf([&] { Second = Ctx.applyClosureN(Fn, Args, 3); }),
            0u);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(Ctx.closuresCreated(), Created);
  EXPECT_EQ(Ctx.framesLeased(), 0u);
}

/// mapCombine's leaf callback, `f x y` through applyClosure2, likewise.
TEST(Allocations, WarmCombineLeafCallBuildsNoClosure) {
  NvContext Ctx(4);
  ExprPtr E = parseChecked("fun (x : option[int]) -> fun (y : option[int]) "
                           "-> match x, y with "
                           "  | _, None -> x | None, _ -> y "
                           "  | Some a, Some b -> if a <= b then x else y");
  ASSERT_TRUE(E);
  Frame F;
  const Value *Fn = Compiler(Ctx).compile(E)(F);
  const Value *X = Ctx.someV(Ctx.intV(4)), *Y = Ctx.someV(Ctx.intV(2));
  const Value *First = Ctx.applyClosure2(Fn, X, Y);
  uint64_t Created = Ctx.closuresCreated();
  const Value *Second = nullptr;
  EXPECT_EQ(allocationsOf([&] { Second = Ctx.applyClosure2(Fn, X, Y); }), 0u);
  EXPECT_EQ(First, Y);
  EXPECT_EQ(Second, Y);
  EXPECT_EQ(Ctx.closuresCreated(), Created);
  EXPECT_EQ(Ctx.framesLeased(), 0u);
}

TEST(Allocations, CachedPredicateAllocatesNothing) {
  NvContext Ctx(4);
  ExprPtr E = parseChecked(
      "fun (i : int3) -> fun (k : (int3, int3)) -> "
      "  (match k with | (a, b) -> a = i || b = i)");
  ASSERT_TRUE(E);
  Frame F;
  const Value *Outer = Compiler(Ctx).compile(E)(F);
  const Value *Pred = Ctx.applyClosure(Outer, Ctx.intV(2, 3));
  TypePtr KeyTy = Type::tupleTy({Type::intTy(3), Type::intTy(3)});
  BddManager::Ref First = Ctx.predToBdd(Pred, KeyTy);
  BddManager::Ref Second = 0;
  EXPECT_EQ(allocationsOf([&] { Second = Ctx.predToBdd(Pred, KeyTy); }), 0u);
  EXPECT_EQ(First, Second);
}

} // namespace
