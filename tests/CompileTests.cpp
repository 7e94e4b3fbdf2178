//===- CompileTests.cpp - Closure compiler vs interpreter agreement ---------===//
//
// The compiled ("native") evaluator must agree with the tree-walking
// interpreter on every expression and every simulated network.
//
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "eval/Interp.h"
#include "sim/Simulator.h"
#include "support/Governor.h"

#include <gtest/gtest.h>

using namespace nv;

namespace {

/// Type-checks a closed expression, evaluates it both ways and checks
/// agreement; returns the (shared) result rendering.
std::string evalBoth(NvContext &Ctx, const ExprPtr &E, const std::string &Src) {
  DiagnosticEngine Diags;
  TypePtr T = typeCheckExpr(E, Diags);
  EXPECT_TRUE(T) << Src << "\n" << Diags.str();
  if (!T)
    return "<type error>";

  Interp I(Ctx);
  const Value *VI = I.eval(E.get(), nullptr);

  Compiler C(Ctx);
  CExpr CE = C.compile(E);
  Frame F;
  const Value *VC = CE(F);

  EXPECT_EQ(VI, VC) << Src << ": interp=" << VI->str()
                    << " compiled=" << VC->str();
  return VI->str();
}

std::string evalBoth(NvContext &Ctx, const std::string &Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  EXPECT_TRUE(E) << Diags.str();
  if (!E)
    return "<parse error>";
  return evalBoth(Ctx, E, Src);
}

class InterpCompiledAgreement : public ::testing::TestWithParam<const char *> {
};

TEST_P(InterpCompiledAgreement, SameResult) {
  NvContext Ctx(8);
  evalBoth(Ctx, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, InterpCompiledAgreement,
    ::testing::Values(
        "1 + 2 - 1",
        "let x = 4 in x + x",
        "let f (x : int) (y : int) = x - y in f 10 3",
        "if 3 < 4 then Some 1 else None",
        "match (Some 3, None) with | (Some a, None) -> a | _ -> 0",
        "let r = {lp = 7; med = 2} in {r with med = r.lp}.med",
        "(1, (2, 3)).1.0",
        "let g (f : int -> int) = f 5 in g (fun x -> x + 1)",
        "let y = 3 in let f (x : int) = x + y in let y = 100 in f 1",
        "let m : dict[int4, int] = createDict 0 in (m[3u4 := 9])[3u4]",
        "let m : set[int4] = {1u4, 3u4} in (m[1u4], m[2u4])",
        "let m : dict[int4, int] = (createDict 1)[2u4 := 5] in "
        "(map (fun v -> v + 10) m)[2u4] + (map (fun v -> v + 10) m)[0u4]",
        "let a : dict[int4, int] = (createDict 1)[2u4 := 5] in "
        "let b : dict[int4, int] = (createDict 10)[3u4 := 70] in "
        "(combine (fun x y -> x + y) a b)[3u4]",
        "let m : dict[int4, option[int]] = createDict (Some 0) in "
        "(mapIte (fun k -> k > 3u4) "
        " (fun v -> match v with | None -> None | Some x -> Some (x + 1)) "
        " (fun v -> None) m)[9u4]",
        "match 2n with | 0n -> 10 | 2n -> 20 | _ -> 30",
        "let (a, b) = (4, 7) in a - b",
        // Tuples and record updates are built on top of the frame: binders
        // and closures inside their components must still find their slots.
        "let y = 5 in (let a = 1 in a + y, let b = 2 in (b, let c = b in c + y))",
        "let y = 5 in ((fun x -> x + y) 1, let w = 3 in (fun z -> z + w + y) 2)",
        "match (Some 1, (match 3 with | x -> (x, x + 1))) with "
        "| (Some a, (b, c)) -> a + b + c | _ -> 0",
        "let r = {lp = 7; med = 2; len = 1} in "
        "{r with med = let z = r.lp in z + 1; len = match r.med with | x -> x + 10}",
        "let r = {lp = 7; med = 2} in "
        "let f (s : {lp : int; med : int}) = {s with lp = let q = s.med in q} in "
        "(f r, f {r with med = 9})",
        // Application spines are one call: saturated calls of curried
        // functions, and partial applications kept and applied later.
        "let f (a : int) (b : int) (c : int) = a - b + c in f 10 3 4",
        "let f (a : int) (b : int) (c : int) (d : int) = (a - b, c - d) in "
        "f 10 3 9 2",
        "let f (a : int) (b : int) (c : int) = a - b + c in "
        "let g = f 10 in let h = g 3 in (g 1 2, h 4, f 1 2 3)",
        // Over-application through a body that returns a function.
        "let g (x : int) (y : int) = x + y in "
        "let h (x : int) (y : int) = x - y in "
        "let pick (c : bool) = if c then g else h in "
        "(pick true 5 2, pick false 5 2)",
        // A Fun chain broken by a let: the rest applies to the body's value.
        "let f (a : int) = let b = a + 1 in fun (c : int) -> "
        "  fun (d : int) -> a + b + c - d in f 1 2 3",
        // Arguments with binders and closures of their own, built above the
        // arguments already gathered.
        "let f (a : int) (b : int) (c : int) = a - b - c in let y = 2 in "
        "f (let z = 10 in z + y) (let w = 1 in w) (match y with | q -> q + y)",
        "let y = 5 in let ap (f : int -> int) (x : int) = f x in "
        "(ap (fun z -> z + y) (let t = 3 in t), ap ((fun a b -> a + b) 1) 2)",
        // Leading literal arms: the compiled match finds the arm in a
        // sorted table; the first of duplicate arms wins, and a miss tests
        // the remaining arms in order.
        "(match 5n with | 0n -> 10 | 3n -> 30 | 5n -> 50 | 7n -> 70 | _ -> 0, "
        " match 6n with | 0n -> 10 | 3n -> 30 | _ -> 99, "
        " match 0n with | 0n -> 1 | 7n -> 2)",
        "(match 200u8 with | 1u8 -> 1 | 200u8 -> 2 | 255u8 -> 3 | _ -> 4, "
        " match 9u4 with | 2u4 -> 1 | 9u4 -> 2 | x -> 3, "
        " match 70000 with | 3 -> 1 | 70000 -> 2 | _ -> 0, "
        " match 1u1 with | 0u1 -> 5 | 1u1 -> 6)",
        "(match 3 < 4 with | false -> 1 | true -> 2, "
        " match false with | true -> 1 | false -> 2 | true -> 3)",
        "(match 3n with | 3n -> 1 | 2n -> 2 | 3n -> 3 | _ -> 0, "
        " match 2 with | 1 -> 10 | 1 -> 11 | 2 -> 20 | 2 -> 21 | _ -> 0, "
        " match true with | true -> 1 | true -> 2 | false -> 3)",
        // A literal prefix then var, wildcard and record arms; literal arms
        // reach the frame's slots and capture from it.
        "let y = 5 in let z = 6 in "
        "(match 4n with | 0n -> y | 3n -> z | n -> if n = 4n then y + z else 0, "
        " match 9 with | 1 -> y | 2 -> z | _ -> y - z, "
        " match 3n with | 1n -> y | 3n -> z + y | n -> 0)",
        "let r = {lp = 3; med = 4} in "
        "match (r.med, r) with | (1, _) -> r | (2, _) -> {r with lp = 0} "
        "| (m, {lp = a; med = b}) -> {lp = b + m; med = a}",
        "let r = {lp = 3; med = 4} in "
        "(match r.med with | 1 -> r | 2 -> {r with lp = 0} "
        " | m -> (match {r with med = m + 1} with "
        "         | {lp = a; med = b} -> {lp = b; med = a}), "
        " match r.lp with | 3 -> {r with med = 0} | 4 -> r | _ -> r)",
        "let y = 2 in (match 2n with | 1n -> (fun (x : int) -> x) "
        "| 2n -> (fun (x : int) -> x + y) | _ -> (fun (x : int) -> 0)) 10"));

/// Edge literals have no surface syntax; the transforms build them.
TEST(Compiled, EdgeLiteralArmsAgreeWithInterpreter) {
  NvContext Ctx(8);
  for (auto [U, V] : {std::pair{0u, 1u}, {1u, 2u}, {2u, 1u}, {5u, 6u}}) {
    auto Arm = [](uint32_t A, uint32_t B, uint64_t R) {
      return MatchCase{Pattern::lit(Literal::edgeLit(A, B)),
                       Expr::intConst(R)};
    };
    std::vector<MatchCase> Cases = {Arm(0, 1, 1), Arm(1, 2, 2), Arm(0, 1, 3),
                                    Arm(2, 1, 4)};
    Cases.push_back({Pattern::tuple({Pattern::var("u"), Pattern::wild()}),
                     Expr::iff(Expr::oper(Op::Eq, {Expr::var("u"),
                                                   Expr::nodeConst(5)}),
                               Expr::intConst(5), Expr::intConst(6))});
    ExprPtr E = Expr::match(Expr::edgeConst(U, V), std::move(Cases));
    std::string Want = U == 0 ? "1" : U == 1 ? "2" : U == 2 ? "4" : "5";
    EXPECT_EQ(evalBoth(Ctx, E, "edge " + std::to_string(U) + "~" +
                                   std::to_string(V)),
              Want);
  }
}

/// A literal match that no arm covers raises an evaluation error in both
/// evaluators, with or without a table.
TEST(Compiled, InexhaustiveLiteralMatchRaisesInBoth) {
  for (const char *Src : {"match 4 with | 1 -> 1 | 2 -> 2 | 3 -> 3",
                          "match 4n with | 1n -> 1 | 2n -> 2",
                          "match 4 with | 1 -> 1"}) {
    SCOPED_TRACE(Src);
    DiagnosticEngine Diags;
    ExprPtr E = parseExprString(Src, Diags);
    ASSERT_TRUE(E && typeCheckExpr(E, Diags)) << Diags.str();
    NvContext Ctx(8);
    auto Raises = [](const std::function<void()> &Eval) {
      try {
        Eval();
      } catch (const EngineError &Err) {
        return Err.outcome().Status == RunStatus::EvalError &&
               Err.outcome().Detail.starts_with("inexhaustive match");
      }
      return false;
    };
    Interp I(Ctx);
    EXPECT_TRUE(Raises([&] { I.eval(E.get(), nullptr); }));
    CExpr CE = Compiler(Ctx).compile(E);
    Frame F;
    EXPECT_TRUE(Raises([&] { CE(F); }));
    EXPECT_TRUE(F.empty());
  }
}

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

TEST(Compiled, SimulationAgreesWithInterpreter) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Fig2b, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();

  NvContext Ctx(P->numNodes());
  InterpProgramEvaluator EI(Ctx, *P);
  SimResult RI = simulate(*P, EI);
  CompiledProgramEvaluator EC(Ctx, *P);
  SimResult RC = simulate(*P, EC);

  ASSERT_TRUE(RI.Converged && RC.Converged);
  EXPECT_EQ(RI.Labels, RC.Labels);
  EXPECT_EQ(checkAsserts(EI, RI), checkAsserts(EC, RC));
}

TEST(Compiled, MapAttributeSimulationAgrees) {
  const char *Src = R"nv(
let nodes = 4
let edges = {0n=1n;1n=2n;2n=3n;0n=3n}
type attribute = dict[int2, option[int8]]
let init (u : node) =
  let base : attribute = createDict None in
  match u with
  | 0n -> base[0u2 := Some 0u8]
  | 3n -> base[1u2 := Some 0u8]
  | _ -> base
let trans (e : edge) (x : attribute) =
  map (fun v -> match v with | None -> None | Some d -> Some (d + 1u8)) x
let merge (u : node) (x : attribute) (y : attribute) =
  combine (fun a b ->
    match a, b with
    | _, None -> a
    | None, _ -> b
    | Some d1, Some d2 -> if d1 <= d2 then a else b) x y
)nv";
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();

  NvContext Ctx(P->numNodes());
  InterpProgramEvaluator EI(Ctx, *P);
  CompiledProgramEvaluator EC(Ctx, *P);
  SimResult RI = simulate(*P, EI);
  SimResult RC = simulate(*P, EC);
  ASSERT_TRUE(RI.Converged && RC.Converged);
  EXPECT_EQ(RI.Labels, RC.Labels);
}

TEST(Compiled, SymbolicAssignmentRespected) {
  const char *Src = R"nv(
let nodes = 2
let edges = {0n=1n}
symbolic seed : int
let init (u : node) = seed
let trans (e : edge) (x : int) = x
let merge (u : node) (a : int) (b : int) = if a <= b then a else b
)nv";
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  NvContext Ctx(2);
  CompiledProgramEvaluator EC(Ctx, *P, {{"seed", Ctx.intV(42)}});
  SimResult R = simulate(*P, EC);
  EXPECT_EQ(R.Labels[0], Ctx.intV(42));
  EXPECT_EQ(R.Labels[1], Ctx.intV(42));
}

/// Both modes through makeProgramEvaluator: trans on a declared edge
/// caches and pins its partial application once; trans on a pair outside
/// the edge list is `trans e x` applied directly, neither cached nor
/// pinned.
class ProgramEvaluatorModes : public ::testing::TestWithParam<bool> {};

TEST_P(ProgramEvaluatorModes, TransOutsideTheEdgeListIsAppliedUncached) {
  const char *Src = R"nv(
let nodes = 3
let edges = {0n=1n;1n=2n}
let init (u : node) = if u = 0n then 0 else 100
let trans (e : edge) (x : int) =
  match e with | (u, v) -> if v = 0n then x + 10 else x + 1
let merge (u : node) (a : int) (b : int) = if a <= b then a else b
)nv";
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  NvContext Ctx(P->numNodes());
  InterpProgramEvaluator Boot(Ctx, *P);
  const Value *TransClo = envLookup(Boot.globals().get(), "trans");
  ASSERT_TRUE(TransClo);
  std::unique_ptr<ProgramEvaluator> Eval =
      makeProgramEvaluator(Ctx, *P, GetParam());
  const Value *A = Ctx.intV(5);
  auto Direct = [&](uint32_t U, uint32_t V) {
    return Ctx.applyClosure(Ctx.applyClosure(TransClo, Ctx.edgeV(U, V)), A);
  };

  // A declared edge: the first call caches and pins its partial, a repeat
  // builds and pins nothing.
  size_t PinCount = Ctx.pinnedValues().size();
  EXPECT_EQ(Eval->trans(1, 0, A), Direct(1, 0));
  EXPECT_EQ(Ctx.pinnedValues().size(), PinCount + 1);
  auto Pins = Ctx.pinnedValues();
  uint64_t Created = Ctx.closuresCreated();
  EXPECT_EQ(Eval->trans(1, 0, A), Ctx.intV(15));
  EXPECT_EQ(Ctx.closuresCreated(), Created);
  EXPECT_EQ(Ctx.pinnedValues(), Pins);

  // (2, 0) and (0, 2) are not edges: applied, never pinned.
  for (auto [U, V] : {std::pair<uint32_t, uint32_t>{2, 0}, {0, 2}}) {
    EXPECT_EQ(Eval->trans(U, V, A), Direct(U, V));
    EXPECT_EQ(Ctx.pinnedValues(), Pins);
    Created = Ctx.closuresCreated();
    EXPECT_EQ(Eval->trans(U, V, A), Ctx.intV(V == 0 ? 15 : 6));
    EXPECT_EQ(Ctx.pinnedValues(), Pins);
    // The compiled call `trans e x` builds no closure; the interpreter
    // builds `fun x` anew on every call, cached or not.
    EXPECT_EQ(Ctx.closuresCreated() - Created, GetParam() ? 0u : 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ProgramEvaluatorModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "Compiled" : "Interp";
                         });

TEST(Compiled, PredicateBddsWorkFromCompiledClosures) {
  // Symbolic evaluation (predToBdd) must also work when the predicate is a
  // CompiledClosure, via its sourceExpr/lookupFree hooks.
  NvContext Ctx(6);
  DiagnosticEngine Diags;
  ExprPtr E =
      parseExprString("fun (e : edge) -> fun (k : edge) -> e = k", Diags);
  ASSERT_TRUE(E);
  ASSERT_TRUE(typeCheckExpr(E, Diags)) << Diags.str();
  Compiler C(Ctx);
  CExpr CE = C.compile(E);
  Frame F;
  const Value *Outer = CE(F);
  const Value *Pred = Ctx.applyClosure(Outer, Ctx.edgeV(4, 1));

  BddManager::Ref Bdd = Ctx.predToBdd(Pred, Type::edgeTy());
  for (uint32_t U = 0; U < 6; ++U)
    for (uint32_t V = 0; V < 6; ++V) {
      std::vector<bool> Bits;
      Ctx.encodeValue(Ctx.edgeV(U, V), Type::edgeTy(), Bits);
      EXPECT_EQ(Ctx.Mgr.get(Bdd, Bits) == Ctx.TrueV, U == 4 && V == 1);
    }
}

/// A partial application kept as a value is the closure applying one
/// argument at a time builds: its id numbers the closure entries in
/// creation order (the outer Fun, f, then `f 1`), and combine's op-cache
/// tag is the first one the context hands out. The leaf calls `g x y`
/// run f's body without building a closure, so the interpreter's closure
/// over the same capture shares the id, the tag and the cached result.
TEST(Compiled, KeptPartialApplicationKeepsItsIdAndTag) {
  NvContext Ctx(4);
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(
      "fun (m : dict[int2, int]) -> "
      "  let f = fun (a : int) -> fun (b : int) -> fun (c : int) -> a + b + c in "
      "  let g = f 1 in (g, combine g m m)",
      Diags);
  ASSERT_TRUE(E && typeCheckExpr(E, Diags)) << Diags.str();
  const Value *M = Ctx.mapSet(Ctx.mapCreate(Type::intTy(2), Ctx.intV(3)),
                              Ctx.intV(1, 2), Ctx.intV(7));
  Frame F;
  const Value *R = Ctx.applyClosure(Compiler(Ctx).compile(E)(F), M);
  const Value *G = R->Elems[0];
  ASSERT_EQ(G->K, Value::Kind::Closure);
  EXPECT_EQ(G->Closure->cacheKey(), 3u);
  EXPECT_EQ(Ctx.opTag(NvContext::TagKindCombine, 3), 1u);
  EXPECT_EQ(Ctx.mapGet(R->Elems[1], Ctx.intV(1, 2)), Ctx.intV(15));
  EXPECT_EQ(Ctx.mapGet(R->Elems[1], Ctx.intV(0, 2)), Ctx.intV(7));
  EXPECT_EQ(Ctx.closures(), 3u);
  EXPECT_EQ(Ctx.closuresCreated(), 3u);

  Interp I(Ctx);
  const Value *RI = Ctx.applyClosure(I.eval(E.get(), nullptr), M);
  EXPECT_EQ(RI->Elems[0]->Closure->cacheKey(), 3u);
  EXPECT_EQ(RI->Elems[1], R->Elems[1]);
  EXPECT_EQ(Ctx.opTag(NvContext::TagKindCombine, 3), 1u);
}

/// Applying a non-function inside a spine, at its head or past the end of
/// a Fun chain, raises the error applying one argument at a time raises.
/// The expressions are not type-checked: the checker would reject them.
TEST(Compiled, NonFunctionInSpineRaisesTheSameError) {
  for (const char *Src :
       {"1 2 3", "(fun x -> x) 1 2", "(fun x -> fun y -> x) 1 2 3",
        "(fun x -> let y = x in fun z -> y) 4 5 6"}) {
    NvContext Ctx(4);
    DiagnosticEngine Diags;
    ExprPtr E = parseExprString(Src, Diags);
    ASSERT_TRUE(E) << Src << "\n" << Diags.str();
    auto ErrorOf = [&](auto &&Eval) -> std::string {
      try {
        Eval();
      } catch (const EngineError &Err) {
        EXPECT_EQ(Err.outcome().Status, RunStatus::EvalError);
        return Err.what();
      }
      return "<no error>";
    };
    Interp I(Ctx);
    std::string Interpreted = ErrorOf([&] { I.eval(E.get(), nullptr); });
    Frame F;
    std::string Compiled = ErrorOf([&] { Compiler(Ctx).compile(E)(F); });
    EXPECT_NE(Interpreted.find("applied a non-function value"),
              std::string::npos)
        << Src << ": " << Interpreted;
    EXPECT_EQ(Compiled, Interpreted) << Src;
    EXPECT_EQ(Ctx.framesLeased(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// Evaluation state across throws
//===----------------------------------------------------------------------===//

const char *Ring = R"nv(
let nodes = 4
let edges = {0n=1n;1n=2n;2n=3n;3n=0n}
type attribute = dict[int3, option[(int8, node)]]
let init (u : node) =
  let base : attribute = createDict None in
  match u with
  | 0n -> base[0u3 := Some (0u8, 0n)]
  | 2n -> mapIte (fun k -> k > 4u3) (fun v -> Some (0u8, 2n)) (fun v -> v) base
  | _ -> base
let trans (e : edge) (x : attribute) =
  let (u, v) = e in
  map (fun r -> match r with
    | None -> None
    | Some (d, o) -> if o = v then None else Some (d + 1u8, o)) x
let merge (u : node) (x : attribute) (y : attribute) =
  combine (fun a b ->
    match a, b with
    | _, None -> a
    | None, _ -> b
    | Some (d1, o1), Some (d2, o2) -> if d1 <= d2 then a else b) x y
)nv";

/// Simulates Ring natively on \p Ctx under \p Budget; labels rendered,
/// so that runs on different contexts compare.
std::vector<std::string> ringLabels(NvContext &Ctx, const Program &P,
                                    const RunBudget &Budget, RunStatus Want,
                                    const char *WantSite = nullptr) {
  CompiledProgramEvaluator EC(Ctx, P);
  SimOptions Opts;
  Opts.Budget = Budget;
  SimResult R = simulate(P, EC, Opts);
  EXPECT_EQ(R.Outcome.Status, Want) << R.Outcome.str();
  if (WantSite) {
    EXPECT_STREQ(R.Outcome.Site, WantSite);
  }
  std::vector<std::string> Out;
  for (const Value *L : R.Labels)
    Out.push_back(L ? Ctx.printValue(L) : "-");
  return Out;
}

/// A compiled closure that throws inside a map operation's leaf callback —
/// nested compiled calls hold leased frames at the throw — gives every
/// frame back, and the context simulates afterwards like a fresh one.
TEST(Compiled, ThrowsInsideMapLeavesReturnEveryFrame) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Ring, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  const RunBudget Default = SimOptions{}.Budget;
  NvContext Fresh(P->numNodes());
  const std::vector<std::string> Want =
      ringLabels(Fresh, *P, Default, RunStatus::Ok);

  NvContext Ctx(P->numNodes());
  // Only Some leaves are covered: the None leaves make the match throw
  // once mapIte calls the closure from inside apply2.
  ExprPtr E = parseExprString(
      "fun (m : dict[int3, option[int]]) -> "
      "  let g = fun (n : int) -> mapIte (fun k -> k > 3u3) "
      "    (fun v -> match v with | Some x -> Some (x + n)) (fun v -> v) m in "
      "  (g 1, g 2)",
      Diags);
  ASSERT_TRUE(E && typeCheckExpr(E, Diags)) << Diags.str();
  Frame F;
  const Value *Fn = Compiler(Ctx).compile(E)(F);
  const Value *M = Ctx.mapSet(
      Ctx.mapCreate(Type::intTy(3), Ctx.noneV()), Ctx.intV(5, 3),
      Ctx.someV(Ctx.intV(1)));
  try {
    Ctx.applyClosure(Fn, M);
    ADD_FAILURE() << "the inexhaustive match did not throw";
  } catch (const EngineError &Err) {
    EXPECT_EQ(Err.outcome().Status, RunStatus::EvalError);
  }
  EXPECT_EQ(Ctx.framesLeased(), 0u);

  // A live-node budget trips at an apply-cache miss, in the middle of an
  // apply2 the compiled code started. (Step budgets count simulator pops,
  // so they trip between applies; the simulator catches both.)
  RunBudget Nodes = Default;
  Nodes.MaxLiveNodes = Ctx.Mgr.numNodes() + 8;
  ringLabels(Ctx, *P, Nodes, RunStatus::NodeBudgetExceeded,
             "apply-cache-miss");
  EXPECT_EQ(Ctx.framesLeased(), 0u);
  RunBudget Steps = Default;
  Steps.MaxSteps = 2;
  ringLabels(Ctx, *P, Steps, RunStatus::StepBudgetExceeded);
  EXPECT_EQ(Ctx.framesLeased(), 0u);

  EXPECT_EQ(ringLabels(Ctx, *P, Default, RunStatus::Ok), Want);
  EXPECT_EQ(Ctx.framesLeased(), 0u);
}

/// The same, thrown from the innermost body of a saturated curried call:
/// callN has filled two inner frames when the match fails.
TEST(Compiled, ThrowsInsideCallChainReturnEveryFrame) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Ring, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  const RunBudget Default = SimOptions{}.Budget;
  NvContext Fresh(P->numNodes());
  const std::vector<std::string> Want =
      ringLabels(Fresh, *P, Default, RunStatus::Ok);

  NvContext Ctx(P->numNodes());
  ExprPtr E = parseExprString(
      "fun (m : dict[int3, option[int]]) -> "
      "  let f = fun (a : int) -> fun (v : option[int]) -> fun (c : int) -> "
      "    match v with | Some x -> Some (x + a + c) in "
      "  map (fun v -> f 1 v 2) m",
      Diags);
  ASSERT_TRUE(E && typeCheckExpr(E, Diags)) << Diags.str();
  Frame F;
  const Value *Fn = Compiler(Ctx).compile(E)(F);
  const Value *M = Ctx.mapSet(
      Ctx.mapCreate(Type::intTy(3), Ctx.noneV()), Ctx.intV(5, 3),
      Ctx.someV(Ctx.intV(1)));
  try {
    Ctx.applyClosure(Fn, M);
    ADD_FAILURE() << "the inexhaustive match did not throw";
  } catch (const EngineError &Err) {
    EXPECT_EQ(Err.outcome().Status, RunStatus::EvalError);
  }
  EXPECT_EQ(Ctx.framesLeased(), 0u);
  EXPECT_EQ(ringLabels(Ctx, *P, Default, RunStatus::Ok), Want);
  EXPECT_EQ(Ctx.framesLeased(), 0u);
}

} // namespace
