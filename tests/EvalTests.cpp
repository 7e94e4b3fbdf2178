//===- EvalTests.cpp - Interpreter / map runtime / simulator tests ----------===//

#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "eval/Interp.h"
#include "eval/NvContext.h"
#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace nv;

namespace {

/// Parses, type-checks and interprets a closed expression.
const Value *evalStr(NvContext &Ctx, const std::string &Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  EXPECT_TRUE(E) << Diags.str();
  if (!E)
    return nullptr;
  TypePtr T = typeCheckExpr(E, Diags);
  EXPECT_TRUE(T) << "typecheck failed: " << Src << "\n" << Diags.str();
  if (!T)
    return nullptr;
  Interp I(Ctx);
  return I.eval(E.get(), nullptr);
}

std::string evalStrS(NvContext &Ctx, const std::string &Src) {
  const Value *V = evalStr(Ctx, Src);
  return V ? V->str() : "<error>";
}

TEST(Interp, Arithmetic) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "1 + 2"), "3");
  EXPECT_EQ(evalStrS(Ctx, "5 - 7"), "4294967294"); // 32-bit wrap
  EXPECT_EQ(evalStrS(Ctx, "255u8 + 1u8"), "0u8");  // width-8 wrap
  EXPECT_EQ(evalStrS(Ctx, "0u8 - 1u8"), "255u8");
  EXPECT_EQ(evalStrS(Ctx, "3 < 4"), "true");
  EXPECT_EQ(evalStrS(Ctx, "4 <= 3"), "false");
  EXPECT_EQ(evalStrS(Ctx, "4 >= 4"), "true");
}

TEST(Interp, Booleans) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "true && false"), "false");
  EXPECT_EQ(evalStrS(Ctx, "true || false"), "true");
  EXPECT_EQ(evalStrS(Ctx, "!true"), "false");
}

TEST(Interp, StructuralEqualityViaInterning) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "(1, true) = (1, true)"), "true");
  EXPECT_EQ(evalStrS(Ctx, "(1, true) = (2, true)"), "false");
  EXPECT_EQ(evalStrS(Ctx, "Some (1, 2) = Some (1, 2)"), "true");
  EXPECT_EQ(evalStrS(Ctx, "{lp = 1; med = 2} = {med = 2; lp = 1}"), "true");
  EXPECT_EQ(evalStrS(Ctx, "None = Some 1"), "false");
}

TEST(Interp, LetFunMatch) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "let x = 3 in x + x"), "6");
  EXPECT_EQ(evalStrS(Ctx, "let f (x : int) = x + 1 in f (f 1)"), "3");
  EXPECT_EQ(evalStrS(Ctx, "match Some 5 with | None -> 0 | Some v -> v"), "5");
  EXPECT_EQ(evalStrS(Ctx, "match (1, 2) with | (a, b) -> a + b"), "3");
  EXPECT_EQ(
      evalStrS(Ctx, "match Some (Some 2) with | Some (Some x) -> x | _ -> 0"),
      "2");
}

TEST(Interp, RecordsAndUpdates) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "{lp = 100; length = 3}.lp"), "100");
  EXPECT_EQ(
      evalStrS(Ctx, "let b = {lp = 100; length = 3} in "
                    "{b with length = b.length + 1}.length"),
      "4");
  EXPECT_EQ(evalStrS(Ctx, "match {lp = 9; med = 1} with | {lp = v} -> v"),
            "9");
}

TEST(Interp, ClosuresCapture) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "let y = 10 in let f (x : int) = x + y in "
                          "let y = 99 in f 1"),
            "11"); // lexical scoping
}

TEST(Interp, MapOperations) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "let m : dict[int8, int] = createDict 7 in m[3u8]"),
            "7");
  EXPECT_EQ(evalStrS(Ctx, "let m : dict[int8, int] = createDict 7 in "
                          "m[3u8 := 9][3u8]"),
            "9");
  EXPECT_EQ(evalStrS(Ctx, "let m : dict[int8, int] = createDict 7 in "
                          "m[3u8 := 9][4u8]"),
            "7");
  EXPECT_EQ(evalStrS(Ctx, "let m : set[int8] = {1u8, 2u8} in m[2u8]"), "true");
  EXPECT_EQ(evalStrS(Ctx, "let m : set[int8] = {1u8, 2u8} in m[3u8]"),
            "false");
}

TEST(Interp, MapHigherOrder) {
  NvContext Ctx(4);
  EXPECT_EQ(evalStrS(Ctx, "let m : dict[int8, int] = createDict 1 in "
                          "(map (fun v -> v + 10) m[2u8 := 5])[2u8]"),
            "15");
  EXPECT_EQ(evalStrS(Ctx, "let m : dict[int8, int] = createDict 1 in "
                          "(map (fun v -> v + 10) m[2u8 := 5])[9u8]"),
            "11");
  EXPECT_EQ(evalStrS(Ctx,
                     "let a : dict[int8, int] = (createDict 1)[2u8 := 5] in "
                     "let b : dict[int8, int] = (createDict 100)[3u8 := 7] in "
                     "(combine (fun x y -> x + y) a b)[2u8]"),
            "105");
}

TEST(Interp, MapEqualityIsCanonical) {
  NvContext Ctx(4);
  // Same contents built in different orders compare equal.
  EXPECT_EQ(evalStrS(Ctx, "let a : set[int8] = {1u8, 2u8} in "
                          "let b : set[int8] = {2u8, 1u8} in a = b"),
            "true");
  EXPECT_EQ(evalStrS(Ctx, "let a : set[int8] = {1u8} in "
                          "let b : set[int8] = {2u8} in a = b"),
            "false");
}

//===----------------------------------------------------------------------===//
// Closure table
//===----------------------------------------------------------------------===//

TEST(ClosureTable, OneCompiledClosurePerCapturedValues) {
  NvContext Ctx(4);
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString("fun (y : int) -> fun (x : int) -> x + y", Diags);
  ASSERT_TRUE(E && typeCheckExpr(E, Diags)) << Diags.str();
  Frame F;
  const Value *Outer = Compiler(Ctx).compile(E)(F);
  auto Inner = [&](const Value *Fn, uint64_t Y) {
    return Ctx.applyClosure(Fn, Ctx.intV(Y));
  };

  // Equal captured values: the same closure, so the same op-cache id.
  const Value *A = Inner(Outer, 1), *B = Inner(Outer, 1);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A->Closure->cacheKey(), B->Closure->cacheKey());
  // Different captured values: a different closure and id, each calling
  // with its own capture.
  const Value *D = Inner(Outer, 2);
  EXPECT_NE(A, D);
  EXPECT_NE(A->Closure->cacheKey(), D->Closure->cacheKey());
  EXPECT_EQ(Ctx.applyClosure(A, Ctx.intV(5))->I, 6u);
  EXPECT_EQ(Ctx.applyClosure(D, Ctx.intV(5))->I, 7u);
  EXPECT_EQ(Ctx.closures(), 3u); // Outer, y = 1, y = 2
  EXPECT_EQ(Ctx.closuresCreated(), 4u);

  // A second compilation of the same Fun (another evaluator on the same
  // context) shares the closures, and an interpreted closure over equal
  // captured values shares the id: ids keep one meaning per context.
  EXPECT_EQ(Inner(Compiler(Ctx).compile(E)(F), 1), A);
  Interp I(Ctx);
  const Value *IA = Inner(I.eval(E.get(), nullptr), 1);
  EXPECT_NE(IA, A);
  EXPECT_EQ(IA->Closure->cacheKey(), A->Closure->cacheKey());
  EXPECT_NE(Inner(I.eval(E.get(), nullptr), 2)->Closure->cacheKey(),
            A->Closure->cacheKey());
}

//===----------------------------------------------------------------------===//
// mapIte and symbolic predicates
//===----------------------------------------------------------------------===//

TEST(SymBdd, MapIteOnIntPredicate) {
  NvContext Ctx(4);
  // Fig. 11: increment where key > 3, drop (to None) elsewhere.
  const char *Src =
      "let m : dict[int3, option[int]] = createDict (Some 0) in "
      "mapIte (fun k -> k > 3u3) "
      "  (fun v -> match v with | None -> None | Some x -> Some (x + 1)) "
      "  (fun v -> None) m";
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  ASSERT_TRUE(E);
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Diags.str();
  Interp I(Ctx);
  const Value *M = I.eval(E.get(), nullptr);
  ASSERT_EQ(M->K, Value::Kind::Map);
  for (uint64_t K = 0; K < 8; ++K) {
    const Value *V = Ctx.mapGet(M, Ctx.intV(K, 3));
    if (K > 3) {
      ASSERT_TRUE(V->isSome()) << K;
      EXPECT_EQ(V->Inner->I, 1u) << K;
    } else {
      EXPECT_TRUE(V->isNone()) << K;
    }
  }
}

/// Property: predToBdd agrees with concretely applying the predicate, for
/// a family of predicates over int8 keys.
class PredBdd : public ::testing::TestWithParam<const char *> {};

TEST_P(PredBdd, MatchesConcreteEvaluation) {
  NvContext Ctx(4);
  std::string Src = GetParam();
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  ASSERT_TRUE(E) << Diags.str();
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Diags.str();
  Interp I(Ctx);
  const Value *Pred = I.eval(E.get(), nullptr);
  ASSERT_EQ(Pred->K, Value::Kind::Closure);

  TypePtr KeyTy = Type::intTy(8);
  BddManager::Ref Bdd = Ctx.predToBdd(Pred, KeyTy);
  for (uint64_t K = 0; K < 256; ++K) {
    const Value *Key = Ctx.intV(K, 8);
    std::vector<bool> Bits;
    Ctx.encodeValue(Key, KeyTy, Bits);
    bool FromBdd = Ctx.Mgr.get(Bdd, Bits) == Ctx.TrueV;
    bool Concrete = Ctx.applyClosure(Pred, Key)->isTrue();
    ASSERT_EQ(FromBdd, Concrete) << Src << " at key " << K;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, PredBdd,
    ::testing::Values(
        "fun (k : int8) -> k = 3u8",
        "fun (k : int8) -> k < 10u8",
        "fun (k : int8) -> k >= 200u8",
        "fun (k : int8) -> k = 3u8 || k = 250u8",
        "fun (k : int8) -> !(k <= 5u8) && k < 9u8",
        "fun (k : int8) -> k + 1u8 = 0u8",
        "fun (k : int8) -> k - 1u8 > k", // wraps only at 0
        "fun (k : int8) -> if k < 128u8 then k = 5u8 else k = 200u8",
        "fun (k : int8) -> let t = k + k in t = 4u8",
        "fun (k : int8) -> (match k = 7u8 with | true -> true | _ -> k = 9u8)",
        "fun (k : int8) -> (fun (j : int8) -> j > 250u8) k"));

/// A predicate over a compound key: \c Src is a closed expression of type
/// `KeyTy -> bool`, or `edge -> KeyTy -> bool` when \c TakesEdge (it is
/// applied to the edge 1n~2n first, as the fault-tolerance transform's
/// predicates capture their edge).
struct KeyedPred {
  const char *KeyTy;
  const char *Src;
  bool TakesEdge = false;
};

std::ostream &operator<<(std::ostream &OS, const KeyedPred &P) {
  return OS << P.Src;
}

class PredBddKeys : public ::testing::TestWithParam<KeyedPred> {};

/// predToBdd of \p Pred agrees with concrete application on every key.
void expectPredMatchesConcrete(NvContext &Ctx, const Value *Pred,
                               const TypePtr &KeyTy) {
  BddManager::Ref Bdd = Ctx.predToBdd(Pred, KeyTy);
  std::vector<const Value *> Keys = Ctx.enumerateType(KeyTy);
  ASSERT_GT(Keys.size(), 1u);
  for (const Value *Key : Keys) {
    std::vector<bool> Bits;
    Ctx.encodeValue(Key, KeyTy, Bits);
    bool FromBdd = Ctx.Mgr.get(Bdd, Bits) == Ctx.TrueV;
    bool Concrete = Ctx.applyClosure(Pred, Key)->isTrue();
    ASSERT_EQ(FromBdd, Concrete) << "at key " << Ctx.printValue(Key);
  }
}

TEST_P(PredBddKeys, MatchesConcreteEvaluationOnEveryKey) {
  const KeyedPred &C = GetParam();
  DiagnosticEngine Diags;
  TypePtr KeyTy = parseTypeString(C.KeyTy, Diags);
  ASSERT_TRUE(KeyTy) << Diags.str();
  ExprPtr E = parseExprString(C.Src, Diags);
  ASSERT_TRUE(E) << Diags.str();
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Diags.str();
  // Interpreted and compiled closures reach SymEval through different
  // capture lookups; separate contexts keep their predicate caches apart.
  for (bool Compiled : {false, true}) {
    SCOPED_TRACE(Compiled ? "compiled" : "interpreted");
    NvContext Ctx(5);
    Interp I(Ctx); // interpreted closures call back into it
    Frame F;
    const Value *Pred =
        Compiled ? Compiler(Ctx).compile(E)(F) : I.eval(E.get(), nullptr);
    if (C.TakesEdge)
      Pred = Ctx.applyClosure(Pred, Ctx.edgeV(1, 2));
    ASSERT_EQ(Pred->K, Value::Kind::Closure);
    expectPredMatchesConcrete(Ctx, Pred, KeyTy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompoundKeys, PredBddKeys,
    ::testing::Values(
        KeyedPred{"(int8, int8)", "fun (k : (int8, int8)) -> k.0 = k.1"},
        KeyedPred{"(int8, int8)",
                  "fun (k : (int8, int8)) -> (match k with | (a, b) -> "
                  "a + b < 7u8 || a - b >= 250u8)"},
        KeyedPred{"(int8, int8)",
                  "fun (k : (int8, int8)) -> k.0 <= 3u8 && k.1 > 100u8 && "
                  "k.0 <> k.1"},
        // The fault-tolerance transfer predicate's shape: a captured
        // curried closure applied to the key, the edge and a link index.
        KeyedPred{"(node, int3, int3)",
                  "fun (e : edge) -> let i = 5u3 in "
                  "let aff = fun (key : (node, int3, int3)) -> "
                  "  fun (e2 : edge) -> fun (j : int3) -> "
                  "  (match key with | (fn, k0, k1) -> "
                  "    ((k0 = j) || (k1 = j)) || "
                  "    (match e2 with | (u, v) -> (fn = u) || (fn = v))) in "
                  "fun (key : (node, int3, int3)) -> ((aff key) e) i",
                  true},
        KeyedPred{"(node, int3, int3)",
                  "fun (k : (node, int3, int3)) -> (match k with "
                  "| (n, 3u3, _) -> true | (2n, a, b) -> a < b | _ -> false)"},
        KeyedPred{"{a : int3; b : option[int2]}",
                  "fun (k : {a : int3; b : option[int2]}) -> "
                  "({k with a = k.a + 1u3}).a = 0u3 || "
                  "(match k.b with | Some 2u2 -> true | _ -> false)"},
        KeyedPred{"{a : int3; b : option[int2]}",
                  "fun (k : {a : int3; b : option[int2]}) -> "
                  "{k with b = None; a = 4u3} = {a = k.a; b = k.b}"},
        KeyedPred{"(int3, int3)",
                  "fun (k : (int3, int3)) -> (match (if k.0 < k.1 then "
                  "Some (k.1 - k.0) else None) with | None -> k.0 = 7u3 "
                  "| Some 1u3 -> true | Some d -> d > 4u3)"},
        KeyedPred{"(int3, int3)",
                  "fun (k : (int3, int3)) -> ((k.0 < k.1) = (k.1 > k.0)) && "
                  "((k.0 <= k.1) || (k.0 >= k.1)) && "
                  "!(k.0 = 2u3 && k.1 <> 5u3)"},
        KeyedPred{"(int3, int3)",
                  "fun (k : (int3, int3)) -> let t = (k.1, k.0) in "
                  "t.0 = k.1 && ({x = t.1; y = true} = {x = 6u3; y = true})"},
        KeyedPred{"option[int3]",
                  "fun (k : option[int3]) -> k = Some 3u3 || k = None"},
        KeyedPred{"int4", "fun (k : int4) -> let f = fun (x : int4) -> x + k "
                          "in f 1u4 = 0u4 || f k = 6u4"}));

/// Evaluation errors keep their EngineError, and a failed run leaves the
/// context's symbolic scratch usable.
TEST(SymBdd, ErrorsRaiseEvalErrorAndLeaveContextUsable) {
  NvContext Ctx(4);
  Interp I(Ctx);
  std::vector<ExprPtr> Exprs; // closures point into their source
  auto Closure = [&](const char *Src) {
    DiagnosticEngine Diags;
    ExprPtr E = parseExprString(Src, Diags);
    EXPECT_TRUE(E && typeCheckExpr(E, Diags)) << Diags.str();
    Exprs.push_back(E);
    return I.eval(E.get(), nullptr);
  };
  TypePtr KeyTy = Type::intTy(3);
  auto ExpectError = [&](const char *Src, const char *Msg) {
    try {
      Ctx.predToBdd(Closure(Src), KeyTy);
      ADD_FAILURE() << "no error from " << Src;
    } catch (const EngineError &E) {
      EXPECT_EQ(E.outcome().Status, RunStatus::EvalError);
      EXPECT_NE(std::string(E.what()).find(Msg), std::string::npos)
          << E.what();
    }
  };
  ExpectError("fun (k : int3) -> let m : dict[int3, bool] = createDict true "
              "in m[k]",
              "cannot appear inside a mapIte key predicate");
  ExpectError("fun (k : int3) -> (if k < 2u3 then (fun (x : int3) -> x = "
              "1u3) else (fun (x : int3) -> x = 2u3)) k",
              "cannot merge function values under a symbolic condition");
  expectPredMatchesConcrete(
      Ctx, Closure("fun (k : int3) -> (k, k) = (1u3, 1u3)"), KeyTy);
}

TEST(SymBdd, EdgeEqualityPredicate) {
  // The fault-tolerance transfer predicate: fun e' -> e = e'.
  NvContext Ctx(6);
  const char *Src = "fun (e : edge) -> fun (k : edge) -> e = k";
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  ASSERT_TRUE(E);
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Diags.str();
  Interp I(Ctx);
  const Value *Outer = I.eval(E.get(), nullptr);
  const Value *Pred = Ctx.applyClosure(Outer, Ctx.edgeV(2, 3));

  BddManager::Ref Bdd = Ctx.predToBdd(Pred, Type::edgeTy());
  for (uint32_t U = 0; U < 6; ++U)
    for (uint32_t V = 0; V < 6; ++V) {
      std::vector<bool> Bits;
      Ctx.encodeValue(Ctx.edgeV(U, V), Type::edgeTy(), Bits);
      bool FromBdd = Ctx.Mgr.get(Bdd, Bits) == Ctx.TrueV;
      EXPECT_EQ(FromBdd, U == 2 && V == 3) << U << "~" << V;
    }
}

TEST(SymBdd, OptionKeyPredicate) {
  NvContext Ctx(4);
  const char *Src =
      "fun (k : option[int4]) -> match k with | None -> true | Some v -> "
      "v > 2u4";
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  ASSERT_TRUE(E);
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Diags.str();
  Interp I(Ctx);
  const Value *Pred = I.eval(E.get(), nullptr);
  TypePtr KeyTy = Type::optionTy(Type::intTy(4));
  BddManager::Ref Bdd = Ctx.predToBdd(Pred, KeyTy);

  for (const Value *Key : Ctx.enumerateType(KeyTy)) {
    std::vector<bool> Bits;
    Ctx.encodeValue(Key, KeyTy, Bits);
    bool FromBdd = Ctx.Mgr.get(Bdd, Bits) == Ctx.TrueV;
    bool Concrete = Ctx.applyClosure(Pred, Key)->isTrue();
    EXPECT_EQ(FromBdd, Concrete) << Key->str();
  }
}

/// One mapIte instance: `mapIte Pred Then Else Map` with Map of MapTy.
struct MapIteCase {
  const char *MapTy, *Map, *Pred, *Then, *Else;
};

std::ostream &operator<<(std::ostream &OS, const MapIteCase &C) {
  return OS << "mapIte (" << C.Pred << ") (" << C.Then << ") (" << C.Else
            << ") (" << C.Map << ")";
}

class MapIteKeys : public ::testing::TestWithParam<MapIteCase> {};

/// Property: for every key k, mapIte(p, f, g, m)[k] = p(k) ? f(m[k]) :
/// g(m[k]), in both evaluators. The cases cover constant maps and
/// predicates, maps constant under part of the predicate, branch functions
/// that agree on some leaves, and compound keys.
TEST_P(MapIteKeys, EveryKeyIsThenOrElseOfItsLeaf) {
  const MapIteCase &C = GetParam();
  std::string Src = std::string("let m : ") + C.MapTy + " = " + C.Map +
                    " in let p = " + C.Pred + " in let f = " + C.Then +
                    " in let g = " + C.Else + " in (p, f, g, m, mapIte p f g m)";
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  ASSERT_TRUE(E) << Diags.str();
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Src << "\n" << Diags.str();
  for (bool Compiled : {false, true}) {
    SCOPED_TRACE(Compiled ? "compiled" : "interpreted");
    NvContext Ctx(5);
    Interp I(Ctx);
    Frame F;
    const Value *T =
        Compiled ? Compiler(Ctx).compile(E)(F) : I.eval(E.get(), nullptr);
    ASSERT_EQ(T->Elems.size(), 5u);
    const Value *P = T->Elems[0], *Fn = T->Elems[1], *G = T->Elems[2];
    const Value *M = T->Elems[3], *R = T->Elems[4];
    std::vector<const Value *> Keys = Ctx.enumerateType(M->KeyType);
    ASSERT_GT(Keys.size(), 1u);
    for (const Value *K : Keys) {
      const Value *Leaf = Ctx.mapGet(M, K);
      const Value *Want = Ctx.applyClosure(
          Ctx.applyClosure(P, K)->isTrue() ? Fn : G, Leaf);
      ASSERT_EQ(Ctx.mapGet(R, K), Want) << "at key " << Ctx.printValue(K);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Maps, MapIteKeys,
    ::testing::Values(
        // A constant map: the branches agree on its leaf, or they do not.
        MapIteCase{"dict[int3, option[int]]", "createDict None",
                   "fun (k : int3) -> k > 2u3",
                   "fun (v : option[int]) -> None",
                   "fun (v : option[int]) -> v"},
        MapIteCase{"dict[int3, option[int]]", "createDict None",
                   "fun (k : int3) -> k = 1u3 || k > 5u3",
                   "fun (v : option[int]) -> Some 1",
                   "fun (v : option[int]) -> v"},
        // Constant predicates.
        MapIteCase{"dict[int3, int]", "(createDict 0)[6u3 := 2]",
                   "fun (k : int3) -> true", "fun (v : int) -> v + 1",
                   "fun (v : int) -> v"},
        MapIteCase{"dict[int3, int]", "createDict 4",
                   "fun (k : int3) -> false", "fun (v : int) -> v + 1",
                   "fun (v : int) -> v + 2"},
        // The map is constant below the predicate's top test.
        MapIteCase{"dict[int4, int]", "(createDict 0)[13u4 := 7]",
                   "fun (k : int4) -> k < 8u4 && k <> 3u4",
                   "fun (v : int) -> v + 1", "fun (v : int) -> v"},
        // The branches agree on leaf 0 only.
        MapIteCase{"dict[int4, int]",
                   "((createDict 0)[1u4 := 3])[9u4 := 5]",
                   "fun (k : int4) -> k = 2u4 || k > 10u4 || k = 1u4",
                   "fun (v : int) -> if v = 0 then 0 else v + 1",
                   "fun (v : int) -> v"},
        // Compound keys.
        MapIteCase{"dict[(node, int3), option[int]]",
                   "(createDict None)[(2n, 3u3) := Some 4]",
                   "fun (k : (node, int3)) -> (match k with | (n, i) -> "
                   "n = 1n || i = 3u3)",
                   "fun (v : option[int]) -> (match v with | None -> Some 0 "
                   "| Some x -> Some (x + 1))",
                   "fun (v : option[int]) -> v"},
        MapIteCase{"dict[(int3, int3), option[int]]",
                   "((createDict None)[(1u3, 2u3) := Some 1])"
                   "[(4u3, 4u3) := Some 2]",
                   "fun (k : (int3, int3)) -> k.0 = 1u3 || k.1 = 4u3",
                   "fun (v : option[int]) -> None",
                   "fun (v : option[int]) -> (match v with | None -> None "
                   "| Some x -> Some (x + 10))"},
        MapIteCase{"dict[option[int3], bool]",
                   "(createDict false)[Some 5u3 := true]",
                   "fun (k : option[int3]) -> k = None || k = Some 2u3",
                   "fun (v : bool) -> !v", "fun (v : bool) -> v"},
        MapIteCase{"dict[{a : int2; b : bool}, int]",
                   "(createDict 1)[{a = 2u2; b = true} := 3]",
                   "fun (k : {a : int2; b : bool}) -> k.b && k.a <> 1u2",
                   "fun (v : int) -> v - 1", "fun (v : int) -> 1"}));

//===----------------------------------------------------------------------===//
// Encoding round trips
//===----------------------------------------------------------------------===//

class EncodingRoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(EncodingRoundTrip, DecodeInvertsEncode) {
  NvContext Ctx(5);
  DiagnosticEngine Diags;
  TypePtr Ty = parseTypeString(GetParam(), Diags);
  ASSERT_TRUE(Ty) << Diags.str();
  for (const Value *V : Ctx.enumerateType(Ty)) {
    std::vector<bool> Bits;
    Ctx.encodeValue(V, Ty, Bits);
    EXPECT_EQ(Bits.size(), Ctx.Layout.widthOf(Ty));
    size_t Pos = 0;
    EXPECT_EQ(Ctx.decodeValue(Bits, Pos, Ty), V) << V->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Types, EncodingRoundTrip,
                         ::testing::Values("bool", "int4", "node", "edge",
                                           "option[int3]", "(int2, bool)",
                                           "{a : int2; b : option[bool]}",
                                           "option[(node, int2)]"));

//===----------------------------------------------------------------------===//
// Whole-program evaluation and simulation
//===----------------------------------------------------------------------===//

const char *Fig2b = R"nv(
include bgp
let nodes = 5
let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}

symbolic route : attribute

let trans e x = transBgp e x
let merge u x y = mergeBgp u x y

let init (u : node) =
  match u with
  | 0n -> Some {length = 0; lp = 100; med = 80; comms = {}; origin = 0n}
  | 4n -> route
  | _ -> None

let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> if u <> 4n then b.origin = 0n else true
)nv";

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

TEST(Simulate, Fig2bNoHijackWhenPeerSilent) {
  Program P = parseAndCheck(Fig2b);
  NvContext Ctx(P.numNodes());
  // symbolic route defaults to None: node 4 announces nothing.
  InterpProgramEvaluator Eval(Ctx, P);
  SimResult R = simulate(P, Eval);
  ASSERT_TRUE(R.Converged);

  // Every node (including the silent peer, which learns the route back
  // from nodes 1 and 2) ends up routing to origin 0: the assert holds.
  auto Failed = checkAsserts(Eval, R);
  EXPECT_TRUE(Failed.empty());
  EXPECT_EQ(R.Labels[4]->Inner->Elems[4], Ctx.nodeV(0));
  for (uint32_t U : {0u, 1u, 2u, 3u}) {
    ASSERT_TRUE(R.Labels[U]->isSome()) << U;
    // origin is the last field in sorted label order
    // {comms, length, lp, med, origin}.
    EXPECT_EQ(R.Labels[U]->Inner->Elems[4], Ctx.nodeV(0)) << U;
  }
  // Path lengths: node 0 announces at 0; its neighbors see 1; node 3/4 two.
  EXPECT_EQ(R.Labels[0]->Inner->Elems[1]->I, 0u);
  EXPECT_EQ(R.Labels[1]->Inner->Elems[1]->I, 1u);
  EXPECT_EQ(R.Labels[2]->Inner->Elems[1]->I, 1u);
  EXPECT_EQ(R.Labels[3]->Inner->Elems[1]->I, 2u);
}

TEST(Simulate, Fig2bHijackWithBetterRoute) {
  Program P = parseAndCheck(Fig2b);
  NvContext Ctx(P.numNodes());

  // Node 4 announces a same-length route with a lower med: by the Fig. 2a
  // tie-breaking it beats node 0's route at nodes 1 and 2 (length 1 vs 1,
  // equal lp, med 10 < 80): traffic is hijacked.
  InterpProgramEvaluator Boot(Ctx, P);
  DiagnosticEngine Diags;
  ExprPtr RouteE = parseExprString(
      "let c : set[int] = {} in "
      "Some {length = 0; lp = 100; med = 10; comms = c; origin = 4n}",
      Diags);
  ASSERT_TRUE(RouteE);
  ASSERT_TRUE(typeCheckExpr(RouteE, Diags)) << Diags.str();
  const Value *Route = Boot.evalUnderGlobals(RouteE);

  InterpProgramEvaluator Eval(Ctx, P, {{"route", Route}});
  SimResult R = simulate(P, Eval);
  ASSERT_TRUE(R.Converged);
  auto Failed = checkAsserts(Eval, R);
  // Nodes 1 and 2 prefer the hijacker's route.
  EXPECT_EQ(R.Labels[1]->Inner->Elems[4], Ctx.nodeV(4));
  EXPECT_EQ(R.Labels[2]->Inner->Elems[4], Ctx.nodeV(4));
  EXPECT_FALSE(Failed.empty());
}

TEST(Simulate, ShortestPathHopCount) {
  // A 6-node line with a shortcut; attribute = option[int] hop count.
  const char *Src = R"nv(
let nodes = 6
let edges = {0n=1n;1n=2n;2n=3n;3n=4n;4n=5n;0n=4n}
let init (u : node) = match u with | 0n -> Some 0 | _ -> None
let trans (e : edge) (x : option[int]) =
  match x with | None -> None | Some d -> Some (d + 1)
let merge (u : node) (x : option[int]) (y : option[int]) =
  match x, y with
  | _, None -> x
  | None, _ -> y
  | Some a, Some b -> if a <= b then x else y
)nv";
  Program P = parseAndCheck(Src);
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  SimResult R = simulate(P, Eval);
  ASSERT_TRUE(R.Converged);
  int Expected[6] = {0, 1, 2, 2, 1, 2}; // 0-4 shortcut pulls 3,4,5 closer
  for (uint32_t U = 0; U < 6; ++U) {
    ASSERT_TRUE(R.Labels[U]->isSome());
    EXPECT_EQ(R.Labels[U]->Inner->I, static_cast<uint64_t>(Expected[U])) << U;
  }
}

TEST(Simulate, IncrementalAndFullMergeAgree) {
  Program P = parseAndCheck(Fig2b);
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator E1(Ctx, P);
  SimOptions Fast;
  SimResult R1 = simulate(P, E1, Fast);
  SimOptions Slow;
  Slow.IncrementalMerge = false;
  InterpProgramEvaluator E2(Ctx, P);
  SimResult R2 = simulate(P, E2, Slow);
  ASSERT_TRUE(R1.Converged && R2.Converged);
  EXPECT_EQ(R1.Labels, R2.Labels); // interned: pointer equality is semantic
}

TEST(Simulate, RequireTracksAssignment) {
  const char *Src = R"nv(
let nodes = 2
let edges = {0n=1n}
symbolic x : int
require x < 10
let init (u : node) = x
let trans (e : edge) (v : int) = v
let merge (u : node) (a : int) (b : int) = a
)nv";
  Program P = parseAndCheck(Src);
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Ok(Ctx, P, {{"x", Ctx.intV(5)}});
  EXPECT_TRUE(Ok.requiresHold());
  InterpProgramEvaluator Bad(Ctx, P, {{"x", Ctx.intV(50)}});
  EXPECT_FALSE(Bad.requiresHold());
}

TEST(Simulate, MapValuedAttributes) {
  // Attributes are whole dictionaries (the all-prefixes pattern): each of
  // two prefixes is announced by a different node; everyone learns both.
  const char *Src = R"nv(
let nodes = 3
let edges = {0n=1n;1n=2n}
type attribute = dict[int2, option[int]]

let init (u : node) =
  let base : attribute = createDict None in
  match u with
  | 0n -> base[0u2 := Some 0]
  | 2n -> base[1u2 := Some 0]
  | _ -> base

let trans (e : edge) (x : attribute) =
  map (fun v -> match v with | None -> None | Some d -> Some (d + 1)) x

let merge (u : node) (x : attribute) (y : attribute) =
  combine (fun a b ->
    match a, b with
    | _, None -> a
    | None, _ -> b
    | Some d1, Some d2 -> if d1 <= d2 then a else b) x y
)nv";
  Program P = parseAndCheck(Src);
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  SimResult R = simulate(P, Eval);
  ASSERT_TRUE(R.Converged);

  auto DistTo = [&](uint32_t U, uint64_t Prefix) -> const Value * {
    return Ctx.mapGet(R.Labels[U], Ctx.intV(Prefix, 2));
  };
  EXPECT_EQ(DistTo(0, 0)->Inner->I, 0u);
  EXPECT_EQ(DistTo(1, 0)->Inner->I, 1u);
  EXPECT_EQ(DistTo(2, 0)->Inner->I, 2u);
  EXPECT_EQ(DistTo(0, 1)->Inner->I, 2u);
  EXPECT_EQ(DistTo(2, 1)->Inner->I, 0u);
  // Unannounced prefixes stay None everywhere.
  EXPECT_TRUE(DistTo(1, 2)->isNone());
}

/// The leaf table hashes values by arena serial, so a simulation's
/// unique-table probe count does not depend on where the heap put its
/// values: two live contexts, with other allocations between them,
/// report the same count.
TEST(Simulate, LeafProbeCountsIgnoreHeapLayout) {
  // Every node announces 32 prefixes with distinct costs: a few hundred
  // distinct leaves, enough for the leaf table to see collisions.
  std::string Src = "let nodes = 6\n"
                    "let edges = {0n=1n;1n=2n;2n=3n;3n=4n;4n=5n;5n=0n}\n"
                    "type attribute = dict[int5, option[int16]]\n"
                    "let init (u : node) =\n"
                    "  let m : attribute = createDict None in\n"
                    "  match u with\n";
  for (unsigned U = 0; U < 6; ++U) {
    Src += "  | ";
    Src += std::to_string(U);
    Src += "n -> m";
    for (unsigned K = 0; K < 32; ++K) {
      Src += "[";
      Src += std::to_string(K);
      Src += "u5 := Some ";
      Src += std::to_string(1000 * U + 7 * K);
      Src += "u16]";
    }
    Src += "\n";
  }
  Src += "  | _ -> m\n"
         "let trans (e : edge) (x : attribute) =\n"
         "  map (fun v -> match v with | None -> None "
         "| Some d -> Some (d + 1u16)) x\n"
         "let merge (u : node) (x : attribute) (y : attribute) =\n"
         "  combine (fun a b -> match a, b with | _, None -> a | None, _ -> b\n"
         "    | Some c, Some d -> if c <= d then a else b) x y\n";
  Program P = parseAndCheck(Src);
  auto Run = [&](NvContext &Ctx) {
    CompiledProgramEvaluator Eval(Ctx, P);
    EXPECT_TRUE(simulate(P, Eval).Converged);
    return std::make_pair(Ctx.Mgr.uniqueProbes(), Ctx.Mgr.uniqueLookups());
  };
  NvContext A(P.numNodes());
  auto First = Run(A);
  std::vector<std::unique_ptr<char[]>> Ballast;
  for (size_t I = 1; I <= 64; ++I)
    Ballast.emplace_back(new char[I * 104]);
  NvContext B(P.numNodes());
  auto Second = Run(B);
  EXPECT_GT(First.first, 0u);
  EXPECT_EQ(First, Second);
}

//===----------------------------------------------------------------------===//
// Key memo (map get/set)
//===----------------------------------------------------------------------===//

/// Every key of \p M's key type (at most 8 bits here) with its value.
std::string mapDump(NvContext &Ctx, const Value *M) {
  std::string S;
  for (const Value *K : Ctx.enumerateType(M->KeyType))
    S += K->str() + "=" + Ctx.mapGet(M, K)->str() + ";";
  return S;
}

TEST(KeyMemo, RepeatedGetAndSetHitAtEveryKeyWidth) {
  // Keys of 1, 8 and 32 bits: a repeated set is answered from the memo
  // with the same map, and gets and sets agree with a context whose
  // caching (memo included) is off.
  NvContext Ctx(4), Off(4);
  Off.Mgr.setCachingEnabled(false);
  struct Width {
    TypePtr Ty;
    uint64_t A, B;
  };
  for (const Width &W : {Width{Type::boolTy(), 1, 0},
                         Width{Type::intTy(8), 200, 3},
                         Width{Type::intTy(32), 1, 0xFFFFFFFF}}) {
    unsigned Bits = resolve(W.Ty)->Kind == TypeKind::Bool ? 1 : W.Ty->Width;
    SCOPED_TRACE(std::to_string(Bits) + "-bit keys");
    auto Key = [&](NvContext &C, uint64_t X) {
      return Bits == 1 ? C.boolV(X) : C.intV(X, Bits);
    };
    auto Build = [&](NvContext &C) {
      const Value *M = C.mapCreate(W.Ty, C.intV(7));
      M = C.mapSet(M, Key(C, W.A), C.intV(1));
      M = C.mapSet(M, Key(C, W.B), C.intV(2));
      return C.mapSet(M, Key(C, W.A), C.intV(3));
    };
    uint64_t Hits0 = Ctx.Mgr.keyMemoHits();
    const Value *M = Build(Ctx);
    EXPECT_EQ(Build(Ctx), M);
    EXPECT_EQ(Ctx.Mgr.keyMemoHits() - Hits0, 3u);
    const Value *R = Build(Off);
    for (uint64_t X : {W.A, W.B, W.A ^ 1})
      EXPECT_EQ(Ctx.mapGet(M, Key(Ctx, X))->str(),
                Off.mapGet(R, Key(Off, X))->str());
    EXPECT_EQ(Ctx.printValue(M), Off.printValue(R));
  }
  EXPECT_EQ(Off.Mgr.keyMemoHits(), 0u);
}

TEST(KeyMemo, OneKeyUnderTwoKeyTypesStaysApart) {
  // None is one interned value in every option type, and a constant map's
  // root is one leaf whatever its key type; the memo keeps the sets of
  // None into a 2-bit and a 9-bit key type apart.
  NvContext Ctx(4);
  TypePtr Narrow = Type::optionTy(Type::boolTy());
  TypePtr Wide = Type::optionTy(Type::intTy(8));
  const Value *A = Ctx.mapSet(Ctx.mapCreate(Narrow, Ctx.FalseV), Ctx.NoneV,
                              Ctx.TrueV);
  const Value *B = Ctx.mapSet(Ctx.mapCreate(Wide, Ctx.FalseV), Ctx.NoneV,
                              Ctx.TrueV);
  EXPECT_EQ(A->KeyBits, 2u);
  EXPECT_EQ(B->KeyBits, 9u);
  EXPECT_NE(A->MapRoot, B->MapRoot);
  EXPECT_EQ(Ctx.mapGet(B, Ctx.someV(Ctx.intV(0, 8))), Ctx.FalseV);
  EXPECT_EQ(Ctx.mapGet(B, Ctx.NoneV), Ctx.TrueV);
  EXPECT_EQ(Ctx.mapGet(A, Ctx.someV(Ctx.FalseV)), Ctx.FalseV);
}

TEST(KeyMemo, CollectionEmptiesTheMemo) {
  // A set memoized before a collection names nodes the sweep freed: after
  // it, the same set must be rebuilt, not answered from the stale entry,
  // once new diagrams fill the freed Refs.
  NvContext Ctx(4), Off(4);
  Off.Mgr.setCachingEnabled(false);
  TypePtr Ty = Type::intTy(8);
  const Value *Empty = Ctx.mapCreate(Ty, Ctx.intV(0));
  Ctx.pinValue(Empty);
  // Garbage below the memoized set, so that the sweep compacts past it.
  for (uint64_t K = 0; K < 8; ++K)
    Ctx.mapSet(Empty, Ctx.intV(K, 8), Ctx.intV(100 + K));
  const Value *Key = Ctx.intV(5, 8), *Val = Ctx.intV(9);
  Ctx.mapSet(Empty, Key, Val);
  Ctx.Mgr.collectGarbage();
  for (uint64_t K = 0; K < 32; ++K)
    Ctx.pinValue(Ctx.mapSet(Empty, Ctx.intV(7 * K + 1, 8), Ctx.intV(K)));
  uint64_t Misses0 = Ctx.Mgr.keyMemoMisses();
  const Value *After = Ctx.mapSet(Empty, Key, Val);
  EXPECT_EQ(Ctx.Mgr.keyMemoMisses(), Misses0 + 1);
  const Value *Want = Off.mapSet(Off.mapCreate(Ty, Off.intV(0)),
                                 Off.intV(5, 8), Off.intV(9));
  EXPECT_EQ(mapDump(Ctx, After), mapDump(Off, Want));
}

/// A record attribute holding maps keyed by 1, 8 and 32 bits: trans sets
/// and reads each, merge prefers the shorter route.
const char *NestedMapProgram = R"nv(
let nodes = 5
let edges = {0n=1n;1n=2n;2n=3n;3n=4n;0n=4n;1n=3n}
type route = {len : int8; comms : dict[int, bool]; hops : dict[int8, bool];
              up : dict[bool, int8]}
type attribute = option[route]

let init (u : node) =
  match u with
  | 0n -> Some {len = 0u8; comms = createDict false; hops = createDict false;
                up = createDict 0u8}
  | _ -> None

let near (u : node) = match u with | 0n -> true | 1n -> true | _ -> false

let trans (e : edge) (x : attribute) =
  let (u, v) = e in
  match x with
  | None -> None
  | Some r ->
    let len = r.len + 1u8 in
    if r.comms[7] && r.hops[3u8] then None
    else
      let comms = if near u then r.comms[1 := true] else r.comms[7 := r.comms[1]] in
      let hops = r.hops[len := true] in
      let up = r.up[near v := r.up[near v] + 1u8] in
      Some {len = len; comms = comms; hops = hops; up = up}

let merge (u : node) (x : attribute) (y : attribute) =
  match x, y with
  | _, None -> x
  | None, _ -> y
  | Some a, Some b -> if a.len <= b.len then x else y
)nv";

/// NestedMapProgram's labels, each rendered with every map in it.
std::vector<std::string> nestedMapLabels(bool Native, bool MemoOff,
                                         bool GcStress) {
  Program P = parseAndCheck(NestedMapProgram);
  NvContext Ctx(P.numNodes());
  Ctx.Mgr.setCachingEnabled(!MemoOff);
  if (GcStress)
    Ctx.Mgr.setGcWatermark(1);
  auto Eval = makeProgramEvaluator(Ctx, P, Native);
  SimResult R = simulate(P, *Eval);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(Ctx.Mgr.keyMemoHits() > 0, !MemoOff);
  if (GcStress) {
    EXPECT_GT(Ctx.Mgr.gcStats().Collections, 0u);
  }
  std::vector<std::string> Out;
  for (const Value *L : R.Labels) {
    std::string S = L->isNone() ? "None" : "";
    if (!L->isNone())
      for (const Value *F : L->Inner->Elems)
        S += F->K == Value::Kind::Map ? Ctx.printValue(F) + " "
                                      : F->str() + " ";
    Out.push_back(S);
  }
  return Out;
}

TEST(KeyMemo, NestedMapsAgreeInBothEvaluatorsWithMemoOffAndUnderGc) {
  std::vector<std::string> Want = nestedMapLabels(false, true, false);
  EXPECT_NE(Want[2].find("1 := true"), std::string::npos) << Want[2];
  for (bool Native : {false, true})
    for (bool GcStress : {false, true}) {
      SCOPED_TRACE(std::string(Native ? "compiled" : "interpreted") +
                   (GcStress ? ", GC at every safe point" : ""));
      EXPECT_EQ(nestedMapLabels(Native, false, GcStress), Want);
      EXPECT_EQ(nestedMapLabels(Native, true, GcStress), Want);
    }
}

} // namespace
