//===- GcTests.cpp - MTBDD garbage-collection tests --------------------------===//
//
// Stress tests of the mark-and-sweep collector: pinned state survives a
// sweep + remap with identical observable behaviour, the value arena's
// intern table is rebuilt under the remapped roots, a stress watermark
// (collect at every safe point) leaves every analysis bit-identical to a
// GC-off run at any pool size, the cross-scenario reuse loops return the
// node count to the pinned baseline after every scenario, and a context
// reused across analyses answers exactly as fresh ones do.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "bdd/Mtbdd.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/ProgramEvaluator.h"
#include "net/Generators.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <tuple>

using namespace nv;

namespace {

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Shortest-path routing with an all-nodes-reachable assertion (same
/// program family as ParallelTests, so violation lists are non-trivial).
std::string spProgram(uint32_t Nodes,
                      const std::vector<std::pair<int, int>> &Links) {
  std::string Edges;
  for (size_t I = 0; I < Links.size(); ++I) {
    if (I)
      Edges += ";";
    Edges += std::to_string(Links[I].first) + "n=" +
             std::to_string(Links[I].second) + "n";
  }
  return "let nodes = " + std::to_string(Nodes) +
         "\n"
         "let edges = {" +
         Edges +
         "}\n"
         "let init (u : node) = match u with | 0n -> Some 0 | _ -> None\n"
         "let trans (e : edge) (x : option[int]) =\n"
         "  match x with | None -> None | Some d -> Some (d + 1)\n"
         "let merge (u : node) (x : option[int]) (y : option[int]) =\n"
         "  match x, y with\n"
         "  | _, None -> x\n"
         "  | None, _ -> y\n"
         "  | Some a, Some b -> if a <= b then x else y\n"
         "let assert (u : node) (x : option[int]) =\n"
         "  match x with | None -> false | Some d -> true\n";
}

const std::vector<std::pair<int, int>> Line = {{0, 1}, {1, 2}, {2, 3}};

std::vector<std::tuple<std::string, uint32_t, std::string>>
violationKeys(const FtCheckResult &R) {
  std::vector<std::tuple<std::string, uint32_t, std::string>> Out;
  for (const FtViolation &V : R.Violations)
    Out.push_back({V.Scenario.str(), V.Node, V.Route->str()});
  return Out;
}

/// Scoped NV_GC_WATERMARK override: contexts created inside the scope pick
/// the value up in their BddManager constructor.
struct ScopedWatermarkEnv {
  explicit ScopedWatermarkEnv(const char *V) {
    setenv("NV_GC_WATERMARK", V, /*overwrite=*/1);
  }
  ~ScopedWatermarkEnv() { unsetenv("NV_GC_WATERMARK"); }
};

//===----------------------------------------------------------------------===//
// Pinned state survives sweep + remap
//===----------------------------------------------------------------------===//

TEST(Gc, PinnedLabelsSurviveSweepAndRemap) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();

  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, *Meta);
  SimResult R = simulate(*Meta, Eval);
  ASSERT_TRUE(R.Converged);

  // Pin every label, then snapshot observable behaviour.
  for (const Value *L : R.Labels)
    Ctx.pinValue(L);
  const Value *L1 = R.Labels[1];
  ASSERT_EQ(L1->K, Value::Kind::Map);
  unsigned Bits = L1->KeyBits;
  std::vector<bool> Key(Bits, false);
  const void *RouteBefore = Ctx.Mgr.get(L1->MapRoot, Key);
  std::vector<std::pair<std::vector<int8_t>, const void *>> CubesBefore;
  Ctx.Mgr.forEachCube(L1->MapRoot, Bits,
                      [&](const std::vector<int8_t> &C, const void *Leaf) {
                        CubesBefore.push_back({C, Leaf});
                      });
  std::string StrBefore = L1->str();

  // Allocate garbage, then sweep. The unpinned intermediate diagrams die;
  // the labels must not.
  uint64_t Collections0 = Ctx.Mgr.gcStats().Collections;
  size_t Reclaimed = Ctx.Mgr.collectGarbage();
  EXPECT_EQ(Ctx.Mgr.gcStats().Collections, Collections0 + 1);
  EXPECT_GT(Reclaimed, 0u);

  // Pointer-identical leaf payloads (interned values are stable), same
  // cubes, same rendering; set() still works on the remapped root.
  EXPECT_EQ(Ctx.Mgr.get(L1->MapRoot, Key), RouteBefore);
  std::vector<std::pair<std::vector<int8_t>, const void *>> CubesAfter;
  Ctx.Mgr.forEachCube(L1->MapRoot, Bits,
                      [&](const std::vector<int8_t> &C, const void *Leaf) {
                        CubesAfter.push_back({C, Leaf});
                      });
  EXPECT_EQ(CubesAfter, CubesBefore);
  EXPECT_EQ(L1->str(), StrBefore);

  BddManager::Ref Updated = Ctx.Mgr.set(L1->MapRoot, Key, RouteBefore);
  EXPECT_EQ(Updated, L1->MapRoot); // same key -> same payload is a no-op
  EXPECT_EQ(Ctx.Mgr.get(Updated, Key), RouteBefore);

  for (const Value *L : R.Labels)
    Ctx.unpinValue(L);
}

TEST(Gc, InternTableRebuildFindsSurvivorsAndDropsDeadMaps) {
  using Ref = BddManager::Ref;
  auto MapAt = [](Ref Root) {
    Value V;
    V.K = Value::Kind::Map;
    V.MapRoot = Root;
    V.KeyBits = 8;
    return V;
  };
  auto IntOf = [](uint64_t I) {
    Value V;
    V.K = Value::Kind::Int;
    V.I = I;
    return V;
  };
  // Enough values to grow the table from its initial size several times.
  constexpr Ref N = 1000;
  ValueArena A;
  std::vector<const Value *> Maps, Ints;
  for (Ref R = 0; R < N; ++R) {
    Maps.push_back(A.intern(MapAt(R)));
    Ints.push_back(A.intern(IntOf(R)));
  }
  ASSERT_EQ(A.interned(), 2 * size_t(N));

  // Even roots die; odd root R moves to R / 2, a root an even map used to
  // hold, so a stale entry would alias a survivor.
  std::vector<Ref> Remap(N, BddManager::InvalidRef);
  for (Ref R = 1; R < N; R += 2)
    Remap[R] = R / 2;
  A.remapMapRoots(Remap);
  EXPECT_EQ(A.interned(), N + size_t(N) / 2);

  auto IsDead = [&](const Value *V) {
    for (Ref R = 0; R < N; R += 2)
      if (Maps[R] == V)
        return true;
    return false;
  };
  for (Ref R = 0; R < N; ++R) {
    EXPECT_EQ(A.intern(IntOf(R)), Ints[R]);
    if (R % 2) {
      EXPECT_EQ(Maps[R]->MapRoot, R / 2);
      EXPECT_EQ(A.intern(MapAt(R / 2)), Maps[R]) << "survivor " << R;
    } else {
      EXPECT_EQ(Maps[R]->MapRoot, BddManager::InvalidRef);
    }
  }
  // Roots only dead maps held, and the dead maps' own InvalidRef root,
  // get fresh values.
  for (Ref R : {Ref(N / 2), Ref(N - 2), BddManager::InvalidRef}) {
    const Value *Fresh = A.intern(MapAt(R));
    EXPECT_FALSE(IsDead(Fresh)) << R;
    EXPECT_EQ(Fresh->MapRoot, R);
  }
}

//===----------------------------------------------------------------------===//
// Stress watermark: bit-identical results at any pool size
//===----------------------------------------------------------------------===//

TEST(Gc, StressWatermarkNaiveBitIdenticalAcrossPoolSizes) {
  Program P = parseAndCheck(spProgram(4, Line));

  // GC-off reference (default huge watermark; only the between-scenario
  // resets run).
  std::vector<std::tuple<std::string, uint32_t, std::string>> Ref;
  {
    NvContext Ctx(P.numNodes());
    Ctx.Mgr.setGcWatermark(0);
    InterpProgramEvaluator Eval(Ctx, P);
    Ref = violationKeys(naiveFaultTolerance(P, Eval, FtOptions{}, Ctx.noneV()));
    ASSERT_FALSE(Ref.empty());
  }

  // Stress: collect at every simulator safe point, serial and sharded.
  ScopedWatermarkEnv Env("1");
  {
    NvContext Ctx(P.numNodes());
    ASSERT_EQ(Ctx.Mgr.gcWatermark(), 1u);
    InterpProgramEvaluator Eval(Ctx, P);
    FtCheckResult R = naiveFaultTolerance(P, Eval, FtOptions{}, Ctx.noneV());
    EXPECT_EQ(violationKeys(R), Ref);
    EXPECT_GT(Ctx.Mgr.gcStats().Collections, 0u);
  }
  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    FtCheckResult R = naiveFaultToleranceParallel(P, FtOptions{}, Pool);
    EXPECT_EQ(violationKeys(R), Ref) << Threads << " threads";
  }
}

TEST(Gc, StressWatermarkMetaAnalysisBitIdentical) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;

  FtRunResult Off = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false,
                                      Diags);
  ASSERT_TRUE(Off.Converged) << Diags.str();

  ScopedWatermarkEnv Env("1");
  for (unsigned Threads : {1u, 2u, 8u}) {
    FtOptions Opts;
    Opts.Threads = Threads;
    FtRunResult On = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
    ASSERT_TRUE(On.Converged);
    // Same fixpoint trajectory (pop-for-pop) and same violation order.
    EXPECT_EQ(On.Stats.Pops, Off.Stats.Pops) << Threads;
    EXPECT_EQ(violationKeys(On.Check), violationKeys(Off.Check)) << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Cross-scenario reuse: node count returns to the pinned baseline
//===----------------------------------------------------------------------===//

TEST(Gc, NodeCountReturnsToPinnedBaselineBetweenScenarios) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();

  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, *Meta);

  // The first run fills the lazily-created pinned state (trans/merge
  // partial applications, predicate cache); afterwards every collected
  // run must land on exactly the same floor.
  size_t Baseline = 0;
  for (int Run = 0; Run < 3; ++Run) {
    SimResult R = simulate(*Meta, Eval);
    ASSERT_TRUE(R.Converged);
    EXPECT_GT(Ctx.Mgr.numNodes(), 2u);
    Ctx.resetBetweenRuns();
    if (Run == 0)
      Baseline = Ctx.Mgr.numNodes();
    else
      EXPECT_EQ(Ctx.Mgr.numNodes(), Baseline) << "run " << Run;
  }
  EXPECT_EQ(Ctx.Mgr.gcStats().FloorAfterLastGc, Baseline);
}

// One context reused across analyses (nv serve, fig13b, NaiveFailures):
// each run transforms a new meta-program, so Fun nodes of a freed program
// can be reallocated at the same addresses. The closure table must never
// hand a new run a closure or op-cache id of an old one.
TEST(Gc, ReusedContextMatchesFreshContexts) {
  DiagnosticEngine Diags;
  auto P = loadGenerated(generateFatSingle(4), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  NvContext Ctx(P->numNodes());
  size_t Violations = 0;
  for (int Round = 0; Round < 3; ++Round)
    for (unsigned Links : {1u, 2u, 3u})
      for (bool Node : {false, true}) {
        FtOptions Opts;
        Opts.LinkFailures = Links;
        Opts.NodeFailure = Node;
        FtRunResult Fresh =
            runFaultTolerance(*P, Opts, /*Compiled=*/true, Diags);
        FtRunResult Reused = runFaultTolerance(*P, Opts, /*Compiled=*/true,
                                               Diags, true, &Ctx);
        ASSERT_TRUE(Fresh.Converged && Reused.Converged) << Diags.str();
        EXPECT_EQ(Reused.Stats.Pops, Fresh.Stats.Pops);
        EXPECT_EQ(violationKeys(Reused.Check), violationKeys(Fresh.Check))
            << "round " << Round << ", " << Links << " links"
            << (Node ? " + node" : "");
        Violations += Fresh.Check.Violations.size();
      }
  EXPECT_GT(Violations, 0u);
}

//===----------------------------------------------------------------------===//
// Simulator MaxSteps diagnostic
//===----------------------------------------------------------------------===//

TEST(Simulator, MaxStepsExceededFilesDiagnostic) {
  Program P = parseAndCheck(spProgram(4, Line));
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);

  DiagnosticEngine Diags;
  SimOptions Opts;
  Opts.Budget.MaxSteps = 2; // the 4-node fixpoint needs more pops than this
  Opts.Diags = &Diags;
  SimResult R = simulate(P, Eval, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepBudgetExceeded);
  EXPECT_NE(Diags.str().find("did not converge"), std::string::npos)
      << Diags.str();

  // Without a sink the bound still stops the run, silently, with the same
  // structured outcome.
  SimOptions Quiet;
  Quiet.Budget.MaxSteps = 2;
  SimResult Q = simulate(P, Eval, Quiet);
  EXPECT_FALSE(Q.Converged);
  EXPECT_EQ(Q.Outcome.Status, RunStatus::StepBudgetExceeded);
}

} // namespace
