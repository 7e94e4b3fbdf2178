//===- GovernorTests.cpp - Run-governance layer tests ------------------------===//
//
// Tests of the Governor/RunBudget/CancelToken/FaultInject layer: budgets
// trip mid-run with structured outcomes instead of aborts, cancellation
// fans out across ThreadPool shards while untripped siblings stay
// bit-identical to an ungoverned run, deterministic fault injection skips
// exactly the governed job it hits, and the CLI exit-code mapping is
// stable.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "bdd/Mtbdd.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"
#include "smt/Verifier.h"
#include "support/Governor.h"
#include "support/Journal.h"
#include "support/ParseNumber.h"
#include "support/Resume.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <thread>
#include <tuple>

#include <unistd.h>

using namespace nv;

namespace {

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Shortest-path routing with an all-nodes-reachable assertion; the same
/// family GcTests/ParallelTests use, so naive fault tolerance has a
/// non-trivial violation list to compare.
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
    Out.push_back({V.Scenario.str(), V.Node, V.routeStr()});
  return Out;
}

/// Restores a clean process-global fault-injection state around each test
/// (a failed ASSERT must not leave a countdown armed for the next test).
struct FaultInjectGuard {
  ~FaultInjectGuard() { FaultInject::disarmAll(); }
};

//===----------------------------------------------------------------------===//
// Outcomes, exit codes, site names, spec parsing
//===----------------------------------------------------------------------===//

TEST(RunOutcome, StatusNamesAndResourceClassification) {
  EXPECT_STREQ(runStatusName(RunStatus::Ok), "ok");
  EXPECT_STREQ(runStatusName(RunStatus::DeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(runStatusName(RunStatus::FaultInjected), "fault-injected");

  // An overloaded daemon is a transient resource condition: retryable
  // (exit 3), like a tripped deadline and unlike a user error.
  EXPECT_STREQ(runStatusName(RunStatus::Overloaded), "overloaded");
  // A quarantined poison job is also a resource outcome (exit 3): the
  // input may be fine, the fleet just refused to keep dying on it.
  EXPECT_STREQ(runStatusName(RunStatus::Quarantined), "quarantined");

  for (RunStatus S : {RunStatus::DeadlineExceeded,
                      RunStatus::StepBudgetExceeded,
                      RunStatus::NodeBudgetExceeded,
                      RunStatus::HeapBudgetExceeded, RunStatus::Canceled,
                      RunStatus::FaultInjected, RunStatus::Overloaded,
                      RunStatus::Quarantined})
    EXPECT_TRUE(isResourceLimit(S)) << runStatusName(S);
  for (RunStatus S :
       {RunStatus::Ok, RunStatus::EvalError, RunStatus::InternalError})
    EXPECT_FALSE(isResourceLimit(S)) << runStatusName(S);
}

TEST(RunOutcome, StrAndExitCodeMapping) {
  EXPECT_EQ(RunOutcome{}.str(), "ok");
  RunOutcome O{RunStatus::DeadlineExceeded, "5 ms", "sim-pop"};
  EXPECT_EQ(O.str(), "deadline-exceeded@sim-pop: 5 ms");

  EXPECT_EQ(exitCodeForOutcome(RunOutcome{}), 0);
  EXPECT_EQ(exitCodeForOutcome(O), 3);
  EXPECT_EQ(exitCodeForOutcome(
                RunOutcome{RunStatus::Canceled, "", "solver-check"}),
            3);
  EXPECT_EQ(exitCodeForOutcome(RunOutcome{RunStatus::EvalError, "", ""}), 2);
  EXPECT_EQ(exitCodeForOutcome(RunOutcome{RunStatus::InternalError, "", ""}),
            4);
  EXPECT_EQ(exitCodeForOutcome(
                RunOutcome{RunStatus::Overloaded, "", "serve-accept"}),
            3);
}

TEST(GovSites, ServeAndFleetSitesAreArmable) {
  // The serve- and fleet-stage sites ride the same spec grammar as engine
  // sites, so chaos scripts can arm them by name.
  FaultInjectGuard Guard;
  for (const char *Name : {"serve-accept", "serve-enqueue", "serve-respond",
                           "fleet-spawn", "fleet-dispatch", "fleet-result"}) {
    GovSite S;
    ASSERT_TRUE(govSiteFromName(Name, S)) << Name;
    std::string Err;
    EXPECT_TRUE(FaultInject::armFromSpec(std::string(Name) + ":1", &Err))
        << Err;
    FaultInject::disarmAll();
  }
}

TEST(GovSites, NamesRoundTrip) {
  for (unsigned I = 0; I < NumGovSites; ++I) {
    GovSite S = static_cast<GovSite>(I), Back;
    ASSERT_TRUE(govSiteFromName(govSiteName(S), Back)) << govSiteName(S);
    EXPECT_EQ(Back, S);
  }
  GovSite Out;
  EXPECT_FALSE(govSiteFromName("bogus", Out));
  EXPECT_FALSE(govSiteFromName("", Out));
}

TEST(FaultInjectSpec, ParsesValidAndRejectsMalformed) {
  FaultInjectGuard Guard;
  std::string Err;
  EXPECT_TRUE(FaultInject::armFromSpec("sim-pop:3", &Err)) << Err;
  EXPECT_TRUE(FaultInject::armed());
  FaultInject::disarmAll();
  EXPECT_FALSE(FaultInject::armed());

  EXPECT_TRUE(FaultInject::armFromSpec("alloc:1,table-grow:5", &Err)) << Err;
  FaultInject::disarmAll();

  for (const char *Bad : {"bogus:1", "sim-pop", "sim-pop:", "sim-pop:zero",
                          "sim-pop:0", "sim-pop:1x", "alloc:2,bad"}) {
    Err.clear();
    EXPECT_FALSE(FaultInject::armFromSpec(Bad, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
    FaultInject::disarmAll();
  }
}

TEST(FaultInjectSpec, CountdownFiresExactlyOnce) {
  FaultInjectGuard Guard;
  FaultInject::arm(GovSite::SimPop, 3);
  FaultInject::hit(GovSite::SimPop);
  FaultInject::hit(GovSite::ApplyCacheMiss); // other sites unaffected
  FaultInject::hit(GovSite::SimPop);
  bool Fired = false;
  try {
    FaultInject::hit(GovSite::SimPop); // third hit: countdown reaches 0
  } catch (const EngineError &E) {
    Fired = true;
    EXPECT_EQ(E.outcome().Status, RunStatus::FaultInjected);
    EXPECT_STREQ(E.outcome().Site, "sim-pop");
  }
  EXPECT_TRUE(Fired);
  FaultInject::hit(GovSite::SimPop); // one-shot: no re-fire
}

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(CancelToken, HooksRunOnCancelAndOnLateRegistration) {
  CancelToken Tok;
  int Fired = 0;
  uint64_t Id = Tok.addInterruptHook([&] { ++Fired; });
  EXPECT_EQ(Fired, 0);
  Tok.requestCancel();
  EXPECT_TRUE(Tok.isCanceled());
  EXPECT_EQ(Fired, 1);

  // Registering against an already-canceled token fires immediately (the
  // guarded work must still be interrupted).
  int Late = 0;
  uint64_t LateId = Tok.addInterruptHook([&] { ++Late; });
  EXPECT_EQ(Late, 1);

  Tok.removeInterruptHook(Id);
  Tok.removeInterruptHook(LateId);
  Tok.reset();
  EXPECT_FALSE(Tok.isCanceled());
  Tok.requestCancel();
  EXPECT_EQ(Fired, 1); // removed hooks no longer run
  EXPECT_EQ(Late, 1);
}

//===----------------------------------------------------------------------===//
// Budget limits and strict numbers
//===----------------------------------------------------------------------===//

TEST(BudgetLimits, UnnamedLimitsKeepTheEngineDefaults) {
  RunBudget Sim = SimOptions{}.Budget;
  ASSERT_GT(Sim.MaxSteps, 0u);
  BudgetLimits OnlyDeadline;
  OnlyDeadline.DeadlineMs = 250;
  RunBudget B = Sim;
  OnlyDeadline.overlay(B);
  EXPECT_EQ(B.DeadlineMs, 250);
  EXPECT_EQ(B.MaxSteps, Sim.MaxSteps);
  EXPECT_EQ(B.MaxLiveNodes, Sim.MaxLiveNodes);

  BudgetLimits All{1.5, 7, 8, 9};
  RunBudget F = FtOptions{}.Budget;
  All.overlay(F);
  EXPECT_EQ(F.DeadlineMs, 1.5);
  EXPECT_EQ(F.MaxSteps, 7u);
  EXPECT_EQ(F.MaxLiveNodes, 8u);
  EXPECT_EQ(F.MaxHeapBytes, 9u);
}

TEST(ParseNumber, IntegersParseWholeOrNotAtAll) {
  unsigned U = 42;
  EXPECT_TRUE(parseInteger("0", U));
  EXPECT_EQ(U, 0u);
  EXPECT_TRUE(parseInteger("4294967295", U));
  EXPECT_EQ(U, 4294967295u);
  for (const char *Bad : {"", "abc", "-1", "3x", " 3", "+3", "0x10",
                          "4294967296", "99999999999999999999", "1.5"}) {
    U = 42;
    EXPECT_FALSE(parseInteger(Bad, U)) << Bad;
    EXPECT_EQ(U, 42u) << Bad;
  }
  uint64_t W = 0;
  EXPECT_TRUE(parseInteger("18446744073709551615", W));
  EXPECT_FALSE(parseInteger("18446744073709551616", W));
  EXPECT_FALSE(parseInteger("-1", W));
  int Signed = 0;
  EXPECT_TRUE(parseInteger("-1", Signed));
  EXPECT_EQ(Signed, -1);
  EXPECT_FALSE(parseInteger("2147483648", Signed));
}

TEST(ParseNumber, AnyBaseIntegersAreJustAsStrict) {
  uint64_t W = 42;
  EXPECT_TRUE(parseIntegerAnyBase("0x1F", W));
  EXPECT_EQ(W, 31u);
  EXPECT_TRUE(parseIntegerAnyBase("0X10", W));
  EXPECT_EQ(W, 16u);
  EXPECT_TRUE(parseIntegerAnyBase("017", W));
  EXPECT_EQ(W, 15u);
  EXPECT_TRUE(parseIntegerAnyBase("0", W));
  EXPECT_EQ(W, 0u);
  EXPECT_TRUE(parseIntegerAnyBase("250", W));
  EXPECT_EQ(W, 250u);
  EXPECT_TRUE(parseIntegerAnyBase("0xFFFFFFFFFFFFFFFF", W));
  EXPECT_EQ(W, UINT64_MAX);
  for (const char *Bad : {"", "abc", "-1", "3x", " 3", "+3", "0x", "0x-1",
                          "0xg", "08", "0x10000000000000000",
                          "18446744073709551616", "1.5"}) {
    W = 42;
    EXPECT_FALSE(parseIntegerAnyBase(Bad, W)) << Bad;
    EXPECT_EQ(W, 42u) << Bad;
  }
}

TEST(ParseNumber, NonNegativeNumbers) {
  double D = 7;
  EXPECT_TRUE(parseNonNegative("0.0001", D));
  EXPECT_EQ(D, 0.0001);
  EXPECT_TRUE(parseNonNegative("250", D));
  EXPECT_EQ(D, 250);
  for (const char *Bad :
       {"", "abc", "-1", "-0", "3x", "1e999", "inf", "nan", " 1", "+1"}) {
    D = 7;
    EXPECT_FALSE(parseNonNegative(Bad, D)) << Bad;
    EXPECT_EQ(D, 7) << Bad;
  }
}

TEST(ParseNumber, WholeJsonNumbers) {
  uint64_t V = 0;
  EXPECT_TRUE(wholeNumber(0, 10, V));
  EXPECT_TRUE(wholeNumber(10, 10, V));
  EXPECT_EQ(V, 10u);
  EXPECT_TRUE(wholeNumber(9007199254740992.0, UINT64_MAX, V));
  for (double Bad : {-1.0, 2.7, 11.0, 1e30, 18446744073709551616.0,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
    EXPECT_FALSE(wholeNumber(Bad, 10, V)) << Bad;
}

//===----------------------------------------------------------------------===//
// Governor scopes and safe points
//===----------------------------------------------------------------------===//

TEST(Governor, UnlimitedScopeArmsNothing) {
  EXPECT_EQ(Governor::current(), nullptr);
  {
    Governor::Scope Scope((RunBudget()));
    EXPECT_EQ(Governor::current(), nullptr);
    EXPECT_FALSE(Governor::pollsKernelSites());
  }
  Governor::pollSafePoint(GovSite::SimPop); // no governor: no-op, no throw
}

TEST(Governor, RemainingMsTracksTightestDeadline) {
  EXPECT_LT(Governor::remainingMs(), 0); // no deadline armed
  RunBudget Outer;
  Outer.DeadlineMs = 60000;
  Governor::Scope OuterScope(Outer);
  RunBudget Inner;
  Inner.DeadlineMs = 5000;
  Governor::Scope InnerScope(Inner);
  double Ms = Governor::remainingMs();
  EXPECT_GE(Ms, 0);
  EXPECT_LE(Ms, 5000);
}

TEST(Governor, DeadlineStopsSimulationWithStructuredOutcome) {
  Program P = parseAndCheck(spProgram(4, Line));
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);

  DiagnosticEngine Diags;
  SimOptions Opts;
  Opts.Budget.DeadlineMs = 0.0001; // expires before the first safe point
  Opts.Diags = &Diags;
  SimResult R = simulate(P, Eval, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::DeadlineExceeded);
  EXPECT_TRUE(R.Outcome.resourceLimit());
  EXPECT_NE(Diags.str().find("did not converge"), std::string::npos)
      << Diags.str();

  // The governed trip leaves the context usable: the same evaluator runs
  // to convergence once the deadline is lifted.
  SimResult Again = simulate(P, Eval);
  EXPECT_TRUE(Again.Converged);
  EXPECT_TRUE(Again.Outcome.ok());
}

TEST(Governor, OuterScopeGovernsInnerEngineRun) {
  Program P = parseAndCheck(spProgram(4, Line));
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);

  RunBudget Outer;
  Outer.DeadlineMs = 0.0001;
  Governor::Scope Scope(Outer);
  // simulate() itself runs with its default (step-only) budget; the outer
  // driver deadline still trips through the chain and is reported
  // structurally, not thrown across the API.
  SimResult R = simulate(P, Eval);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::DeadlineExceeded);
}

TEST(Governor, NodeBudgetTripsMetaSimulation) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtOptions Opts;
  Opts.Budget.MaxLiveNodes = 4; // far below what the Fig. 5 meta-sim needs
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::NodeBudgetExceeded);
  EXPECT_EQ(exitCodeForOutcome(R.Outcome), 3);
}

TEST(Governor, HeapWatermarkTripsMetaSimulation) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtOptions Opts;
  Opts.Budget.MaxHeapBytes = 1024; // below the manager's initial tables
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::HeapBudgetExceeded);
}

TEST(Governor, OpCacheGrowthIsAGovernedSafePoint) {
  // 40 leaves and every ordered pair of distinct leaves under bit 0: 1600
  // internal nodes, so the op cache doubles once (at the 1025th node) and
  // no other table grows. A heap watermark halfway between the fresh and
  // the grown footprint must trip at that table-grow safe point, before
  // the cache or the node store changes.
  static int Payloads[40];
  auto Build = [](BddManager &M) {
    std::vector<BddManager::Ref> Leaves, Out;
    for (int &P : Payloads)
      Leaves.push_back(M.leaf(&P));
    for (BddManager::Ref Lo : Leaves)
      for (BddManager::Ref Hi : Leaves)
        if (Lo != Hi)
          Out.push_back(M.mkNode(0, Lo, Hi));
    return Out;
  };

  BddManager Reference;
  const size_t Fresh = Reference.memoryBytes();
  const size_t FreshSlots = Reference.opCacheSlots();
  const std::vector<BddManager::Ref> Want = Build(Reference);
  ASSERT_EQ(Reference.opCacheSlots(), 2 * FreshSlots);
  const size_t Grown = Reference.memoryBytes();
  ASSERT_GT(Grown, Fresh);

  BddManager M;
  ASSERT_EQ(M.memoryBytes(), Fresh);
  {
    RunBudget B;
    B.MaxHeapBytes = Fresh + (Grown - Fresh) / 2;
    Governor::Scope Scope(B);
    try {
      Build(M);
      FAIL() << "op-cache growth did not trip the heap watermark";
    } catch (const EngineError &E) {
      EXPECT_EQ(E.outcome().Status, RunStatus::HeapBudgetExceeded);
      EXPECT_STREQ(E.outcome().Site, "table-grow");
    }
  }
  EXPECT_EQ(M.numNodes(), FreshSlots / 2);
  EXPECT_EQ(M.opCacheSlots(), FreshSlots);

  // Ungoverned, the same manager finishes the build with the same nodes
  // and answers an apply2 like the reference.
  EXPECT_EQ(Build(M), Want);
  EXPECT_EQ(M.opCacheSlots(), Reference.opCacheSlots());
  auto Pick = [](const void *A, const void *B) { return A < B ? B : A; };
  for (size_t I = 0; I + 1 < Want.size(); I += 97)
    EXPECT_EQ(M.apply2(Want[I], Want[I + 1], Pick, 1),
              Reference.apply2(Want[I], Want[I + 1], Pick, 1));
}

TEST(Governor, StepBudgetReportsThroughFtRun) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtOptions Opts;
  Opts.Budget.MaxSteps = 1;
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepBudgetExceeded);
}

// Kernel sites poll only when something in the chain can trip there. An
// outer driver's node budget and cancel token sit behind runFaultTolerance's
// own step-only scope, so gating on the innermost governor alone would let
// the meta-simulation run to convergence.
TEST(Governor, OuterNodeBudgetTripsBehindStepOnlyScope) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  CancelToken Tok;
  RunBudget Outer;
  Outer.MaxLiveNodes = 4;
  Outer.Cancel = &Tok;
  Governor::Scope OuterScope(Outer);
  EXPECT_TRUE(Governor::pollsKernelSites());
  FtOptions Opts;
  ASSERT_GT(Opts.Budget.MaxSteps, 0u);
  ASSERT_FALSE(Opts.Budget.MaxLiveNodes || Opts.Budget.MaxHeapBytes ||
               Opts.Budget.DeadlineMs > 0 || Opts.Budget.Cancel);
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/true, Diags);
  EXPECT_FALSE(R.Converged);
  ASSERT_EQ(R.Outcome.Status, RunStatus::NodeBudgetExceeded)
      << R.Outcome.str();
  EXPECT_TRUE(std::string(R.Outcome.Site) == "apply-cache-miss" ||
              std::string(R.Outcome.Site) == "table-grow")
      << R.Outcome.str();
}

TEST(Governor, StepOnlyScopeStillPollsArmedFaultInjection) {
  FaultInjectGuard Guard;
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  RunBudget StepOnly;
  StepOnly.MaxSteps = 1'000'000;
  Governor::Scope Scope(StepOnly);
  EXPECT_FALSE(Governor::pollsKernelSites());
  FaultInject::arm(GovSite::ApplyCacheMiss, 3);
  EXPECT_TRUE(Governor::pollsKernelSites());
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/true, Diags);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Outcome.Status, RunStatus::FaultInjected) << R.Outcome.str();
  EXPECT_STREQ(R.Outcome.Site, "apply-cache-miss");
}

TEST(Governor, KernelPollersCountEveryArmedScope) {
  CancelToken Tok;
  RunBudget Cancelable;
  Cancelable.Cancel = &Tok;
  RunBudget StepOnly;
  StepOnly.MaxSteps = 10;
  EXPECT_FALSE(Governor::pollsKernelSites());
  {
    Governor::Scope A(Cancelable);
    {
      Governor::Scope B(StepOnly);
      Governor::Scope C(Cancelable);
      EXPECT_TRUE(Governor::pollsKernelSites());
    }
    EXPECT_TRUE(Governor::pollsKernelSites()); // A is still armed
  }
  EXPECT_FALSE(Governor::pollsKernelSites());
}

//===----------------------------------------------------------------------===//
// SMT verifier under governance
//===----------------------------------------------------------------------===//

TEST(Governor, SmtDeadlineReportsResourceExhausted) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  VerifyOptions Opts;
  Opts.Budget.DeadlineMs = 0.0001;
  VerifyResult R = verifyProgram(P, Opts, Diags);
  EXPECT_EQ(R.Status, VerifyStatus::ResourceExhausted);
  EXPECT_TRUE(R.Outcome.resourceLimit()) << R.Outcome.str();
}

TEST(Governor, SmtCanceledTokenReportsResourceExhausted) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  CancelToken Tok;
  Tok.requestCancel();
  VerifyOptions Opts;
  Opts.Budget.Cancel = &Tok;
  VerifyResult R = verifyProgram(P, Opts, Diags);
  EXPECT_EQ(R.Status, VerifyStatus::ResourceExhausted);
  EXPECT_EQ(R.Outcome.Status, RunStatus::Canceled) << R.Outcome.str();
}

TEST(Governor, SmtUngovernedStillVerifies) {
  // The same program verifies normally without a budget (the governance
  // path does not perturb the verdict).
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  VerifyResult R = verifyProgram(P, VerifyOptions{}, Diags);
  EXPECT_EQ(R.Status, VerifyStatus::Verified) << Diags.str();
  EXPECT_TRUE(R.Outcome.ok());
}

//===----------------------------------------------------------------------===//
// Per-scenario confinement: sharded runs, cancellation fan-out
//===----------------------------------------------------------------------===//

TEST(Governor, PreCanceledTokenSkipsEveryScenarioSerial) {
  Program P = parseAndCheck(spProgram(4, Line));
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  CancelToken Tok;
  Tok.requestCancel();
  FtOptions Opts;
  Opts.Budget.Cancel = &Tok;
  FtCheckResult R = naiveFaultTolerance(P, Eval, Opts, Ctx.noneV());
  EXPECT_GT(R.ScenariosChecked, 0u);
  EXPECT_EQ(R.ScenariosSkipped, R.ScenariosChecked);
  EXPECT_EQ(R.Outcome.Status, RunStatus::Canceled);
  EXPECT_TRUE(R.Violations.empty());
}

TEST(Governor, CancellationFansOutAcrossThreadPoolShards) {
  Program P = parseAndCheck(spProgram(4, Line));
  CancelToken Tok;
  Tok.requestCancel();
  FtOptions Opts;
  Opts.Budget.Cancel = &Tok;
  for (unsigned Threads : {2u, 8u}) {
    ThreadPool Pool(Threads);
    FtCheckResult R = naiveFaultToleranceParallel(P, Opts, Pool);
    EXPECT_GT(R.ScenariosChecked, 0u) << Threads;
    EXPECT_EQ(R.ScenariosSkipped, R.ScenariosChecked) << Threads;
    EXPECT_EQ(R.Outcome.Status, RunStatus::Canceled) << Threads;
    EXPECT_TRUE(R.Violations.empty()) << Threads;
  }
}

TEST(Governor, UntrippedBudgetShardedRunIsBitIdentical) {
  Program P = parseAndCheck(spProgram(4, Line));

  std::vector<std::tuple<std::string, uint32_t, std::string>> Ref;
  {
    ThreadPool Pool(4);
    Ref = violationKeys(naiveFaultToleranceParallel(P, FtOptions{}, Pool));
    ASSERT_FALSE(Ref.empty());
  }

  // A generous budget (with a live but untriggered token) must not perturb
  // results at any pool size: same violations, same order, nothing skipped.
  CancelToken Tok;
  FtOptions Governed;
  Governed.Budget.DeadlineMs = 600000;
  Governed.Budget.MaxSteps = 100'000'000;
  Governed.Budget.MaxLiveNodes = 1u << 30;
  Governed.Budget.MaxHeapBytes = size_t(1) << 40;
  Governed.Budget.Cancel = &Tok;
  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    FtCheckResult R = naiveFaultToleranceParallel(P, Governed, Pool);
    EXPECT_EQ(R.ScenariosSkipped, 0u) << Threads;
    EXPECT_TRUE(R.Outcome.ok()) << Threads << ": " << R.Outcome.str();
    EXPECT_EQ(violationKeys(R), Ref) << Threads << " threads";
  }
}

TEST(Governor, InjectedFaultSkipsExactlyOneScenarioSerial) {
  FaultInjectGuard Guard;
  Program P = parseAndCheck(spProgram(4, Line));

  // Keys are extracted while the reference context is alive: the
  // violations' Route pointers are interned in it.
  uint64_t RefScenarios = 0;
  size_t RefViolations = 0;
  std::set<std::tuple<std::string, uint32_t, std::string>> RefSet;
  {
    NvContext RefCtx(P.numNodes());
    InterpProgramEvaluator RefEval(RefCtx, P);
    FtCheckResult Ref =
        naiveFaultTolerance(P, RefEval, FtOptions{}, RefCtx.noneV());
    ASSERT_EQ(Ref.ScenariosSkipped, 0u);
    ASSERT_FALSE(Ref.Violations.empty());
    RefScenarios = Ref.ScenariosChecked;
    RefViolations = Ref.Violations.size();
    auto RefKeys = violationKeys(Ref);
    RefSet.insert(RefKeys.begin(), RefKeys.end());
  }

  // The countdown lands mid-way through the scenario sweep; the fault is
  // one-shot, so exactly one scenario is skipped and every sibling result
  // survives verbatim.
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  FaultInject::arm(GovSite::SimPop, 10);
  FtCheckResult R = naiveFaultTolerance(P, Eval, FtOptions{}, Ctx.noneV());
  FaultInject::disarmAll();

  EXPECT_EQ(R.ScenariosChecked, RefScenarios);
  EXPECT_EQ(R.ScenariosSkipped, 1u);
  EXPECT_EQ(R.Outcome.Status, RunStatus::FaultInjected);
  EXPECT_STREQ(R.Outcome.Site, "sim-pop");
  EXPECT_LE(R.Violations.size(), RefViolations);
  for (const auto &K : violationKeys(R))
    EXPECT_TRUE(RefSet.count(K))
        << "violation not in the ungoverned reference: " << std::get<0>(K);
}

//===----------------------------------------------------------------------===//
// Graceful shutdown: signal-driven drain + checkpoint journal
//===----------------------------------------------------------------------===//

TEST(GracefulShutdownTest, SigintDrainsShardsAndJournalsCompletedJobsOnce) {
  // A sweep big enough (node failure x every link key on a 16-node line)
  // that the signal reliably lands mid-flight.
  std::vector<std::pair<int, int>> Long;
  for (int I = 0; I + 1 < 16; ++I)
    Long.push_back({I, I + 1});
  Program P = parseAndCheck(spProgram(16, Long));
  FtOptions Base;
  Base.NodeFailure = true;

  std::vector<std::tuple<std::string, uint32_t, std::string>> Ref;
  uint64_t RefScenarios = 0;
  {
    ThreadPool Pool(4);
    FtCheckResult R = naiveFaultToleranceParallel(P, Base, Pool);
    ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.str();
    Ref = violationKeys(R);
    RefScenarios = R.ScenariosChecked;
    ASSERT_GT(RefScenarios, 8u);
  }

  std::string Path = ::testing::TempDir() + "nv_governor_sigint_journal";
  std::remove(Path.c_str());
  RunBinding Binding;
  Binding.set("tool", "governor-tests");
  Binding.set("program", fnv1a64Hex(spProgram(16, Long)));

  // Interrupted run: deliver a real SIGINT (process-directed, like Ctrl-C)
  // once a few units have been journaled. GracefulShutdown must be
  // constructed before the pool and the runner thread so every thread
  // inherits the blocked mask and delivery funnels to the watcher.
  uint64_t Completed = 0;
  {
    CancelToken Tok;
    GracefulShutdown Shutdown(Tok);
    auto L = ResumeLog::open(Path, Binding);
    ASSERT_TRUE(L.Log) << L.Error;
    FtOptions Opts = Base;
    Opts.Budget.Cancel = &Tok;
    Opts.Resume = L.Log.get();
    ThreadPool Pool(4);
    FtCheckResult R;
    std::thread Runner(
        [&] { R = naiveFaultToleranceParallel(P, Opts, Pool); });
    while (L.Log->entryCount() < 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::kill(::getpid(), SIGINT);
    Runner.join();

    EXPECT_TRUE(Shutdown.triggered());
    EXPECT_EQ(Shutdown.signalNumber(), SIGINT);
    // In-flight jobs drained at their safe points: the run reports the
    // structured Canceled outcome instead of dying, every scenario is
    // accounted for, and at least one was cut short.
    ASSERT_EQ(R.Outcome.Status, RunStatus::Canceled) << R.Outcome.str();
    EXPECT_EQ(R.ScenariosChecked, RefScenarios);
    EXPECT_GT(R.ScenariosSkipped, 0u);
    Completed = R.ScenariosChecked - R.ScenariosSkipped;
    // Exactly the completed jobs were journaled — canceled ones never are.
    EXPECT_EQ(L.Log->entryCount(), Completed);
  }

  // On disk: one frame per completed job, all keys distinct.
  JournalRead JR = readJournal(Path);
  ASSERT_EQ(JR.St, JournalRead::State::Ok) << JR.Error;
  EXPECT_EQ(JR.Entries.size(), Completed);
  std::set<std::string> Keys;
  for (const std::string &E : JR.Entries) {
    UnitRecord Rec;
    ASSERT_TRUE(UnitRecord::parse(E, Rec));
    Keys.insert(Rec.Key);
  }
  EXPECT_EQ(Keys.size(), JR.Entries.size()) << "duplicate journal keys";

  // Resume without interruption: replays exactly the completed jobs, the
  // aggregate matches the uninterrupted reference, and the journal ends
  // with each scenario recorded exactly once.
  {
    auto L = ResumeLog::open(Path, Binding);
    ASSERT_TRUE(L.Log) << L.Error;
    EXPECT_EQ(L.Log->replayedCount(), Completed);
    FtOptions Opts = Base;
    Opts.Resume = L.Log.get();
    ThreadPool Pool(4);
    FtCheckResult R = naiveFaultToleranceParallel(P, Opts, Pool);
    EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.str();
    EXPECT_EQ(R.ScenariosChecked, RefScenarios);
    EXPECT_EQ(R.ScenariosReplayed, Completed);
    EXPECT_EQ(R.ScenariosSkipped, 0u);
    EXPECT_EQ(violationKeys(R), Ref);
  }
  JournalRead JR2 = readJournal(Path);
  ASSERT_EQ(JR2.St, JournalRead::State::Ok) << JR2.Error;
  EXPECT_EQ(JR2.Entries.size(), RefScenarios);
  Keys.clear();
  for (const std::string &E : JR2.Entries) {
    UnitRecord Rec;
    ASSERT_TRUE(UnitRecord::parse(E, Rec));
    Keys.insert(Rec.Key);
  }
  EXPECT_EQ(Keys.size(), JR2.Entries.size()) << "duplicate after resume";

  std::remove(Path.c_str());
}

// The CLI drivers destroy a GracefulShutdown on every exit: waking its
// watcher must not wait out a poll interval (a 100 ms one made each of
// these take 100 ms).
TEST(GracefulShutdownTest, DestructionWakesTheWatcherAtOnce) {
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < 10; ++I) {
    CancelToken Tok;
    GracefulShutdown Shutdown(Tok);
  }
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  EXPECT_LT(Ms, 500) << "10 constructions and destructions";
}

} // namespace
