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

/// Evaluates a closed expression both ways and checks agreement; returns
/// the (shared) result rendering.
std::string evalBoth(NvContext &Ctx, const std::string &Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  EXPECT_TRUE(E) << Diags.str();
  if (!E)
    return "<parse error>";
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
        "(f r, f {r with med = 9})"));

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

} // namespace
