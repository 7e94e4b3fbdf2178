//===- FaultToleranceTests.cpp - Fig. 5 meta-protocol tests -----------------===//
//
// The MTBDD fault-tolerance analysis is checked against the naive
// per-scenario simulation baseline: for every scenario, indexing the
// meta-program's converged dict must give exactly the label the scenario's
// own simulation computes.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "net/Generators.h"
#include "support/Journal.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <random>
#include <map>
#include <set>

using namespace nv;

namespace {

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Shortest-path routing on a configurable topology. The assertion fails
/// on a missing route, and on a present route where \p SomeOk (an NV
/// expression over the hop count d) is false.
std::string spProgram(uint32_t Nodes,
                      const std::vector<std::pair<int, int>> &Links,
                      const std::string &SomeOk = "true") {
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
         "  match x with | None -> false | Some d -> " +
         SomeOk + "\n";
}

/// Diamond: 0-1, 0-2, 1-3, 2-3 — survives any single link failure.
const std::vector<std::pair<int, int>> Diamond = {{0, 1}, {0, 2}, {1, 3},
                                                  {2, 3}};
/// Line: 0-1-2-3 — any link failure cuts reachability.
const std::vector<std::pair<int, int>> Line = {{0, 1}, {1, 2}, {2, 3}};

/// Oracle check: the meta-program's per-scenario routes, simulated by the
/// interpreter or the compiled evaluator, equal the naive per-scenario
/// simulation's routes, for every node and scenario.
void expectMatchesNaive(const Program &P, const FtOptions &Opts,
                        bool Compiled = false) {
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();

  NvContext Ctx(P.numNodes());
  std::unique_ptr<ProgramEvaluator> MetaEval =
      makeProgramEvaluator(Ctx, *Meta, Compiled);
  SimResult MetaR = simulate(*Meta, *MetaEval);
  ASSERT_TRUE(MetaR.Converged);

  InterpProgramEvaluator BaseEval(Ctx, P);
  for (const FtScenario &S : enumerateScenarios(P, Opts)) {
    SimResult NaiveR =
        simulateScenario(P, BaseEval, S, defaultDropValue(Ctx, P.AttrType));
    ASSERT_TRUE(NaiveR.Converged) << S.str();
    const Value *Key = scenarioKey(Ctx, S, Opts);
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      const Value *FromMeta = Ctx.mapGet(MetaR.Labels[U], Key);
      EXPECT_EQ(FromMeta, NaiveR.Labels[U])
          << "scenario " << S.str() << " node " << U << ": meta="
          << FromMeta->str() << " naive=" << NaiveR.Labels[U]->str();
    }
  }
}

void expectMatchesNaive(const std::string &Src, const FtOptions &Opts) {
  expectMatchesNaive(parseAndCheck(Src), Opts);
}

/// Steps \p Cur to the next non-decreasing sequence of link indices
/// below \p NumLinks, in lexicographic order; false after the last.
bool nextCombo(std::vector<uint32_t> &Cur, size_t NumLinks) {
  size_t Pos = Cur.size();
  while (Pos > 0 && Cur[Pos - 1] + 1 == NumLinks)
    --Pos;
  if (Pos == 0)
    return false;
  ++Cur[Pos - 1];
  std::fill(Cur.begin() + Pos, Cur.end(), Cur[Pos - 1]);
  return true;
}

/// The scenarios of \p P under \p Opts by an independent nested loop:
/// combinations of link indices with repetition (non-decreasing
/// sequences, lexicographic), inside a loop over the failed node.
std::vector<FtScenario> referenceScenarios(const Program &P,
                                           const FtOptions &Opts) {
  auto Links = P.links();
  unsigned K = Opts.LinkFailures, Bits = linkIndexBits(Links.size());
  std::vector<FtScenario> Combos;
  std::vector<uint32_t> Cur(K, 0);
  if (K == 0 || !Links.empty())
    do {
      FtScenario S;
      for (uint32_t I : Cur)
        S.Links.push_back({Links[I].first, Links[I].second, I, Bits});
      Combos.push_back(std::move(S));
    } while (nextCombo(Cur, Links.size()));
  if (!Opts.NodeFailure)
    return Combos;
  std::vector<FtScenario> Out;
  for (uint32_t U = 0; U < P.numNodes(); ++U)
    for (const FtScenario &Combo : Combos) {
      Out.push_back(Combo);
      Out.back().Node = U;
    }
  return Out;
}

/// One expected violation: scenario index and rendering, node, route.
struct RefViolation {
  size_t Index;
  std::string Scenario;
  uint32_t Node;
  const Value *Route;
};

/// The per-(scenario, node) lookup the checker's leaf walk replaces: encode
/// each interned scenario key, follow one MTBDD path per node, evaluate the
/// assert on the route found.
std::vector<RefViolation> referenceCheck(NvContext &Ctx, const Program &P,
                                         ProtocolEvaluator &BaseEval,
                                         const SimResult &Meta,
                                         const FtOptions &Opts) {
  std::vector<RefViolation> Out;
  auto Scenarios = referenceScenarios(P, Opts);
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const FtScenario &S = Scenarios[I];
    std::vector<bool> Bits;
    Ctx.encodeValue(scenarioKey(Ctx, S, Opts), Meta.Labels[0]->KeyType, Bits);
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      if (S.Node && *S.Node == U)
        continue;
      auto *Route = static_cast<const Value *>(
          Ctx.Mgr.get(Meta.Labels[U]->MapRoot, Bits));
      if (!BaseEval.assertAt(U, Route))
        Out.push_back({I, S.str(), U, Route});
    }
  }
  return Out;
}

/// \p R's violations against \p Want; each must point into the set that
/// \p R keeps.
void expectSameViolations(const FtCheckResult &R,
                          const std::vector<RefViolation> &Want,
                          const std::string &What) {
  const std::vector<FtViolation> &Got = R.Violations;
  ASSERT_TRUE(R.Scenarios) << What;
  for (const FtViolation &V : Got)
    ASSERT_EQ(V.Scenario.Set, R.Scenarios.get()) << What;
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Scenario.Index, Want[I].Index) << What << " #" << I;
    EXPECT_EQ(Got[I].Scenario.str(), Want[I].Scenario) << What << " #" << I;
    EXPECT_EQ(Got[I].Node, Want[I].Node) << What << " #" << I;
    EXPECT_EQ(Got[I].Route, Want[I].Route) << What << " #" << I;
  }
}

/// The checker against referenceCheck, serial and sharded, and sliced by
/// checkRange over windows of \p Window scenarios and by checkScenario.
void expectMatchesReference(const std::string &Src, FtOptions Opts,
                            uint64_t Window) {
  Program P = parseAndCheck(Src);
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  ASSERT_TRUE(MetaR.Converged);
  InterpProgramEvaluator BaseEval(Ctx, P);

  auto Want = referenceCheck(Ctx, P, BaseEval, MetaR, Opts);
  EXPECT_FALSE(Want.empty());
  expectSameViolations(checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts),
                       Want, "serial");
  ThreadPool Pool(3);
  expectSameViolations(
      checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts, &Pool), Want,
      "3 threads");

  // checkRange and checkScenario slice the full result.
  size_t NumScenarios = referenceScenarios(P, Opts).size();
  ASSERT_NE(NumScenarios % Window, 0u)
      << "the window must leave a partial last window";
  FtChecker Checker(Ctx, P, BaseEval, MetaR, Opts);
  FtCheckResult Full = checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts);
  auto Strs = [](const std::vector<FtViolation> &Vs) {
    std::vector<std::string> Out;
    for (const FtViolation &V : Vs)
      Out.push_back(std::to_string(V.Scenario.Index) + "@" +
                    std::to_string(V.Node) + "=" + V.routeStr());
    return Out;
  };
  std::vector<FtViolation> ByWindow, ByScenario;
  for (uint64_t B = 0; B < NumScenarios; B += Window)
    Checker.checkRange(B, std::min<uint64_t>(B + Window, NumScenarios),
                       ByWindow);
  for (size_t I = 0; I < NumScenarios; ++I)
    Checker.checkScenario(I, ByScenario);
  EXPECT_EQ(Strs(ByWindow), Strs(Full.Violations));
  EXPECT_EQ(Strs(ByScenario), Strs(Full.Violations));
  std::vector<FtViolation> Past;
  Checker.checkRange(NumScenarios, NumScenarios + 100, Past);
  EXPECT_TRUE(Past.empty());
}

/// Seven links listed out of node-id order (neither the pairs nor the list
/// are sorted), so key order (link index) differs from node-id order.
const std::vector<std::pair<int, int>> Shuffled = {
    {4, 5}, {3, 0}, {2, 1}, {5, 0}, {1, 4}, {3, 2}, {0, 1}};

TEST(FaultTolerance, LeafWalkMatchesPerScenarioLookup) {
  for (unsigned Links : {0u, 1u, 2u, 3u})
    for (bool Node : {false, true}) {
      if (!Links && !Node)
        continue;
      SCOPED_TRACE(std::to_string(Links) + " links" +
                   (Node ? " + node" : ""));
      FtOptions Opts;
      Opts.LinkFailures = Links;
      Opts.NodeFailure = Node;
      expectMatchesReference(spProgram(6, Shuffled, "d <= 2"), Opts, 5);
    }
}

TEST(FaultTolerance, LeafWalkMatchesPerScenarioLookupOnSparseTopology) {
  // 300 nodes, most of them isolated, which never have a route.
  FtOptions Opts;
  Opts.LinkFailures = 4;
  expectMatchesReference(
      spProgram(300,
                {{299, 3}, {0, 257}, {257, 3}, {3, 128}, {128, 0}, {299, 0},
                 {128, 257}},
                "d <= 1"),
      Opts, 64);
}

TEST(FaultTolerance, LeafWalkMatchesPerScenarioLookupOnWideKeys) {
  // The diamond's four links take 2 bits each: 33 of them give a 66-bit
  // key, so keys span two words. On the diamond the last field still
  // changes routes (0-1 alone reroutes node 1; with 2-3 it cuts it off).
  FtOptions Opts;
  Opts.LinkFailures = 33;
  expectMatchesReference(spProgram(4, Diamond, "d <= 2"), Opts, 64);
}

/// (scenario, node, route) of each violation, in result order.
std::vector<std::string> violationStrs(const FtCheckResult &R) {
  std::vector<std::string> Out;
  for (const FtViolation &V : R.Violations)
    Out.push_back(V.Scenario.str() + "@" + std::to_string(V.Node) + "=" +
                  V.routeStr());
  return Out;
}

/// A two-failure run with violations (28 scenarios of 6 nodes), and a
/// scratch journal for its one unit record.
class FtCheckpoint : public ::testing::Test {
protected:
  void SetUp() override {
    Opts.LinkFailures = 2;
    Binding.set("tool", "fault-tolerance-tests");
    std::remove(Path.c_str());
  }
  void TearDown() override { std::remove(Path.c_str()); }

  /// Runs the analysis as its one unit against the journal at Path.
  FtRunResult run(FtOptions Journaled) {
    auto L = ResumeLog::open(Path, Binding);
    EXPECT_TRUE(L.Log) << L.Error;
    Journaled.Resume = L.Log.get();
    DiagnosticEngine Diags;
    return runFtUnit(P, Journaled, /*Compiled=*/false, Diags);
  }

  std::vector<UnitRecord> journaled() {
    JournalRead JR = readJournal(Path);
    EXPECT_EQ(JR.St, JournalRead::State::Ok) << JR.Error;
    std::vector<UnitRecord> Out;
    for (const std::string &E : JR.Entries) {
      Out.emplace_back();
      EXPECT_TRUE(UnitRecord::parse(E, Out.back())) << E;
    }
    return Out;
  }

  Program P = parseAndCheck(spProgram(6, Shuffled, "d <= 2"));
  FtOptions Opts;
  std::string Path = ::testing::TempDir() + "nv_ft_checkpoint_journal";
  RunBinding Binding;
};

TEST_F(FtCheckpoint, JournaledRunReplaysWithoutSimulating) {
  DiagnosticEngine Diags;
  FtRunResult Ref = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  ASSERT_TRUE(Ref.Outcome.ok()) << Ref.Outcome.str();
  ASSERT_FALSE(Ref.Check.Violations.empty());
  ASSERT_EQ(Ref.Check.ScenariosChecked, 28u);

  FtRunResult First = run(Opts);
  ASSERT_TRUE(First.Outcome.ok()) << First.Outcome.str();
  EXPECT_GT(First.Stats.Pops, 0u);
  EXPECT_EQ(First.Check.ScenariosReplayed, 0u);
  EXPECT_EQ(violationStrs(First.Check), violationStrs(Ref.Check));

  // The journal holds the run's one record: the outcome fields, then one
  // "v" field per violation.
  UnitRecord Want;
  Want.Key = "f0";
  addOutcome(Want, RunOutcome(), 1);
  for (const FtViolation &V : Ref.Check.Violations)
    addViolationField(Want, V);
  std::vector<UnitRecord> Recs = journaled();
  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_EQ(Recs[0].render(), Want.render());

  FtRunResult Replayed = run(Opts);
  ASSERT_TRUE(Replayed.Outcome.ok()) << Replayed.Outcome.str();
  EXPECT_TRUE(Replayed.Converged);
  EXPECT_EQ(Replayed.Stats.Pops, 0u) << "a replayed run must not simulate";
  EXPECT_EQ(Replayed.Check.ScenariosChecked, Ref.Check.ScenariosChecked);
  EXPECT_EQ(Replayed.Check.ScenariosReplayed,
            Replayed.Check.ScenariosChecked);
  EXPECT_EQ(violationStrs(Replayed.Check), violationStrs(Ref.Check));
  EXPECT_EQ(journaled().size(), 1u);
}

TEST_F(FtCheckpoint, CanceledRunJournalsNothing) {
  CancelToken Tok;
  Tok.requestCancel();
  FtOptions Canceled = Opts;
  Canceled.Budget.Cancel = &Tok;
  FtRunResult R = run(Canceled);
  EXPECT_EQ(R.Outcome.Status, RunStatus::Canceled) << R.Outcome.str();
  EXPECT_EQ(R.Check.ScenariosChecked, 0u);
  EXPECT_TRUE(journaled().empty());
}

TEST_F(FtCheckpoint, MalformedReplayedRecordIsReported) {
  // Doctored "v" fields in the journaled record of scenarios [0, 28) of 6
  // nodes: no fields, a non-numeric or signed number, trailing garbage
  // after the index or the node, a node past the topology, a scenario
  // past the set.
  for (const char *Bad :
       {"not-a-violation", "x 3 None", "5x 3 None", "5 3x None", "-5 3 None",
        "5 +3 None", " 5 3 None", "5 6 None", "28 3 None",
        "99999999999999999999 3 None"}) {
    SCOPED_TRACE(Bad);
    std::remove(Path.c_str());
    {
      auto L = ResumeLog::open(Path, Binding);
      ASSERT_TRUE(L.Log) << L.Error;
      UnitRecord Rec;
      Rec.Key = "f0";
      addOutcome(Rec, RunOutcome(), 1);
      Rec.add("v", Bad);
      L.Log->recordDone(Rec);
    }
    FtRunResult R = run(Opts);
    EXPECT_EQ(R.Outcome.Status, RunStatus::EvalError) << R.Outcome.str();
    EXPECT_NE(R.Outcome.Detail.find("malformed unit record f0"),
              std::string::npos)
        << R.Outcome.str();
    EXPECT_EQ(R.Stats.Pops, 0u);
  }
}

TEST_F(FtCheckpoint, TrippedRunReplaysAsItsTrip) {
  // A run that trips is journaled with its outcome, like a skipped naive
  // scenario, and replays as that trip without simulating.
  FtOptions Tight = Opts;
  Tight.Budget.MaxSteps = 1;
  FtRunResult First = run(Tight);
  EXPECT_EQ(First.Outcome.Status, RunStatus::StepBudgetExceeded)
      << First.Outcome.str();
  std::vector<UnitRecord> Recs = journaled();
  ASSERT_EQ(Recs.size(), 1u);
  RunOutcome Recorded;
  unsigned Attempts = 0;
  ASSERT_TRUE(parseOutcome(Recs[0], Recorded, Attempts));
  EXPECT_EQ(Recorded.str(), First.Outcome.str());

  FtRunResult Replayed = run(Tight);
  EXPECT_EQ(Replayed.Outcome.str(), First.Outcome.str());
  EXPECT_EQ(Replayed.Stats.Pops, 0u);
  EXPECT_EQ(journaled().size(), 1u);
}

TEST_F(FtCheckpoint, RetryRunsTheWholeRunAgain) {
  // A one-shot fault in the meta-simulation fails the first attempt; the
  // retry re-runs transform, simulation and check, and its record says so.
  DiagnosticEngine Diags;
  FtRunResult Ref = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  ASSERT_TRUE(Ref.Outcome.ok()) << Ref.Outcome.str();
  FtOptions Retried = Opts;
  Retried.Retry.MaxAttempts = 2;
  FaultInject::arm(GovSite::SimPop, 10);
  FtRunResult R = run(Retried);
  FaultInject::disarmAll();
  ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.str();
  EXPECT_EQ(R.Check.RetriesPerformed, 1u);
  EXPECT_EQ(violationStrs(R.Check), violationStrs(Ref.Check));
  std::vector<UnitRecord> Recs = journaled();
  ASSERT_EQ(Recs.size(), 1u);
  ASSERT_TRUE(Recs[0].get("attempts"));
  EXPECT_EQ(*Recs[0].get("attempts"), "2");
}

/// Journals \p Records, with \p Doctor applied to them first, at a fresh
/// scratch journal \p Name, and returns the journal opened for a resume.
std::unique_ptr<ResumeLog> journalRecords(
    std::map<std::string, UnitRecord> Records,
    const std::function<void(std::map<std::string, UnitRecord> &)> &Doctor,
    const std::string &Name) {
  std::string Path = ::testing::TempDir() + Name;
  std::remove(Path.c_str());
  RunBinding Binding;
  Binding.set("tool", "fault-tolerance-tests");
  Doctor(Records);
  {
    auto L = ResumeLog::open(Path, Binding);
    EXPECT_TRUE(L.Log) << L.Error;
    for (const auto &[Key, Rec] : Records)
      L.Log->recordDone(Rec);
  }
  auto L = ResumeLog::open(Path, Binding);
  EXPECT_TRUE(L.Log) << L.Error;
  std::remove(Path.c_str()); // the open log keeps its file
  return std::move(L.Log);
}

/// Runs the naive fleet worker's unit body on every scenario, journals
/// the records with \p Doctor applied, and resumes the naive sweep from
/// them: every scenario is restored by the unit runner, as a fleet
/// coordinator's are. False when some record was malformed.
bool foldNaiveRecords(
    const Program &P, const FtOptions &Opts,
    const std::function<void(std::map<std::string, UnitRecord> &)> &Doctor,
    FtCheckResult &Out) {
  std::map<std::string, UnitRecord> Records;
  {
    NvContext Ctx(P.numNodes());
    InterpProgramEvaluator Eval(Ctx, P);
    const Value *Drop = Ctx.noneV();
    Ctx.pinValue(Drop);
    FtScenarioSet Set(P, Opts);
    for (size_t I = 0; I < Set.size(); ++I)
      Records[naiveScenarioKey(I)] =
          runNaiveScenarioRecord(P, Eval, Set, I, Drop, Opts);
  }
  auto Log = journalRecords(std::move(Records), Doctor, "nv_ft_fold_naive");
  FtOptions Resumed = Opts;
  Resumed.Resume = Log.get();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  Out = naiveFaultTolerance(P, Eval, Resumed, nullptr);
  EXPECT_EQ(Out.ScenariosReplayed, Out.ScenariosChecked);
  return Out.Outcome.ok();
}

/// The record a fleet worker sends for \p P's run: ftFleetWorker's one-job
/// hook serves unit f0 in this process and prints its record.
UnitRecord fleetRunRecord(const Program &P, const FtOptions &Opts) {
  ::setenv("NV_FLEET_ONE_JOB", "f0", 1);
  ::testing::internal::CaptureStdout();
  int Rc = ftFleetWorker(P, Opts, /*Native=*/false);
  std::string Text = ::testing::internal::GetCapturedStdout();
  ::unsetenv("NV_FLEET_ONE_JOB");
  EXPECT_EQ(Rc, 0);
  UnitRecord Rec;
  EXPECT_TRUE(UnitRecord::parse(Text, Rec)) << Text;
  return Rec;
}

/// Journals the fleet worker's record of \p P's run, with \p Doctor
/// applied, and restores it through runFtUnit, as a fleet coordinator
/// does, without simulating. False when the record was malformed.
bool foldRunRecord(
    const Program &P, const FtOptions &Opts,
    const std::function<void(std::map<std::string, UnitRecord> &)> &Doctor,
    FtCheckResult &Out) {
  auto Log = journalRecords({{"f0", fleetRunRecord(P, Opts)}}, Doctor,
                            "nv_ft_fold_run");
  FtOptions Resumed = Opts;
  Resumed.Resume = Log.get();
  DiagnosticEngine Diags;
  FtRunResult R = runFtUnit(P, Resumed, /*Compiled=*/false, Diags);
  EXPECT_EQ(R.Stats.Pops, 0u);
  Out = std::move(R.Check);
  EXPECT_EQ(Out.ScenariosReplayed, Out.ScenariosChecked);
  return Out.Outcome.ok();
}

TEST(FaultTolerance, DoctoredViolationFieldsFailAggregation) {
  // The line 0-1-2-3 at one link failure: scenarios 0..2.
  Program P = parseAndCheck(spProgram(4, Line));
  FtOptions Opts;
  auto Keep = [](std::map<std::string, UnitRecord> &) {};
  FtCheckResult Clean, NaiveClean;
  ASSERT_TRUE(foldRunRecord(P, Opts, Keep, Clean));
  ASSERT_TRUE(foldNaiveRecords(P, Opts, Keep, NaiveClean));
  EXPECT_EQ(violationStrs(Clean), violationStrs(NaiveClean));
  ASSERT_EQ(Clean.Violations.size(), 6u);

  // Each field lands in the run's record f0 (scenarios 0..2) and in
  // scenario s1's record; "1 3 None" is well formed for both.
  for (const char *Bad : {"x 3 None", "1x 3 None", "1 3x None", "1 4 None",
                          "-1 3 None", "1 3", "3 3 None", "1 99999999999 a"}) {
    SCOPED_TRACE(Bad);
    auto Add = [&](const char *Key) {
      return [&, Key](std::map<std::string, UnitRecord> &Rs) {
        Rs[Key].add("v", Bad);
      };
    };
    FtCheckResult Out;
    EXPECT_FALSE(foldRunRecord(P, Opts, Add("f0"), Out));
    FtCheckResult NaiveOut;
    EXPECT_FALSE(foldNaiveRecords(P, Opts, Add("s1"), NaiveOut));
  }
  // A naive record naming another scenario than its own.
  FtCheckResult Out;
  EXPECT_FALSE(foldNaiveRecords(
      P, Opts,
      [](std::map<std::string, UnitRecord> &Rs) {
        Rs["s1"].add("v", "0 3 None");
      },
      Out));
  FtCheckResult Good;
  EXPECT_TRUE(foldRunRecord(
      P, Opts,
      [](std::map<std::string, UnitRecord> &Rs) {
        Rs["f0"].add("v", "1 3 None");
      },
      Good));
  EXPECT_EQ(Good.Violations.size(), 7u);
}

TEST(FaultTolerance, ViolationTextSurvivesMoveReplayAndAggregation) {
  // Each result below outlives the checker, set and journal it came from;
  // its violations must still render as the reference's.
  Program P = parseAndCheck(spProgram(6, Shuffled, "d <= 2"));
  FtOptions Opts;
  Opts.LinkFailures = 2;
  Opts.NodeFailure = true;
  std::vector<std::string> Want;
  {
    DiagnosticEngine Diags;
    auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
    ASSERT_TRUE(Meta.has_value()) << Diags.str();
    NvContext Ctx(P.numNodes());
    InterpProgramEvaluator MetaEval(Ctx, *Meta);
    SimResult MetaR = simulate(*Meta, MetaEval);
    ASSERT_TRUE(MetaR.Converged);
    InterpProgramEvaluator BaseEval(Ctx, P);
    for (const RefViolation &V :
         referenceCheck(Ctx, P, BaseEval, MetaR, Opts))
      Want.push_back(V.Scenario + "@" + std::to_string(V.Node) + "=" +
                     V.Route->str());
  }
  ASSERT_FALSE(Want.empty());
  auto Expect = [&](const FtCheckResult &R, const char *What) {
    SCOPED_TRACE(What);
    ASSERT_TRUE(R.Scenarios);
    for (const FtViolation &V : R.Violations)
      ASSERT_EQ(V.Scenario.Set, R.Scenarios.get());
    EXPECT_EQ(violationStrs(R), Want);
  };

  FtCheckResult Moved;
  {
    DiagnosticEngine Diags;
    FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/true, Diags);
    ASSERT_TRUE(R.Converged) << Diags.str();
    Moved = std::move(R.Check);
  }
  Expect(Moved, "moved");

  std::string Path = ::testing::TempDir() + "nv_ft_violation_refs_journal";
  std::remove(Path.c_str());
  RunBinding Binding;
  Binding.set("tool", "fault-tolerance-tests");
  FtCheckResult Replayed;
  for (int Run = 0; Run < 2; ++Run) {
    // The first run journals its record, the second replays it.
    auto L = ResumeLog::open(Path, Binding);
    ASSERT_TRUE(L.Log) << L.Error;
    FtOptions Journaled = Opts;
    Journaled.Resume = L.Log.get();
    DiagnosticEngine Diags;
    FtRunResult R = runFtUnit(P, Journaled, false, Diags);
    ASSERT_TRUE(R.Converged) << Diags.str();
    EXPECT_EQ(R.Check.ScenariosReplayed, Run ? R.Check.ScenariosChecked : 0);
    Replayed = std::move(R.Check);
  }
  std::remove(Path.c_str());
  Expect(Replayed, "replayed");

  auto Keep = [](std::map<std::string, UnitRecord> &) {};
  FtCheckResult Folded;
  ASSERT_TRUE(foldRunRecord(P, Opts, Keep, Folded));
  Expect(FtCheckResult(std::move(Folded)), "fleet aggregate");
  FtCheckResult NaiveFolded;
  ASSERT_TRUE(foldNaiveRecords(P, Opts, Keep, NaiveFolded));
  Expect(FtCheckResult(std::move(NaiveFolded)), "naive fleet aggregate");
}

TEST(FaultTolerance, NaiveResumeReportsMalformedRecord) {
  Program P = parseAndCheck(spProgram(4, Line));
  std::string Path = ::testing::TempDir() + "nv_naive_malformed_journal";
  std::remove(Path.c_str());
  RunBinding Binding;
  Binding.set("tool", "fault-tolerance-tests");
  {
    auto L = ResumeLog::open(Path, Binding);
    ASSERT_TRUE(L.Log) << L.Error;
    UnitRecord Rec;
    Rec.Key = naiveScenarioKey(1);
    addOutcome(Rec, RunOutcome{}, 1);
    Rec.add("v", "1 3x None");
    L.Log->recordDone(Rec);
  }
  auto L = ResumeLog::open(Path, Binding);
  ASSERT_TRUE(L.Log) << L.Error;
  FtOptions Opts;
  Opts.Resume = L.Log.get();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  FtCheckResult R = naiveFaultTolerance(P, Eval, Opts, nullptr);
  EXPECT_EQ(R.Outcome.Status, RunStatus::EvalError) << R.Outcome.str();
  EXPECT_NE(R.Outcome.Detail.find("malformed unit record s1"),
            std::string::npos);
  EXPECT_EQ(R.ScenariosSkipped, 1u);
  EXPECT_EQ(R.ScenariosReplayed, 1u);
  L.Log.reset();
  std::remove(Path.c_str());
}

TEST(FaultTolerance, KeyFieldsAreMsbFirstInOrder) {
  // The check walks a label diagram with MTBDD variable = key bit: the
  // node field first, then each link field, each MSB first. 1500 nodes
  // take 11 bits. Link counts: 1 (a 1-bit field), 2^12 (every 12-bit code
  // is a link) and 5000 (13 bits, codes to spare).
  const uint32_t Nodes = 1500;
  NvContext Ctx(Nodes);
  unsigned NodeBits = Ctx.Layout.nodeBits();
  ASSERT_EQ(NodeBits, 11u);
  std::mt19937 Rng(7);
  std::uniform_int_distribution<uint32_t> Id(0, Nodes - 1);
  for (uint32_t NumLinks : {1u, 4096u, 5000u}) {
    unsigned Bits = linkIndexBits(NumLinks);
    std::uniform_int_distribution<uint32_t> Link(0, NumLinks - 1);
    for (unsigned Links : {1u, 2u, 3u, 6u})
      for (bool Node : {false, true}) {
        FtOptions Opts;
        Opts.LinkFailures = Links;
        Opts.NodeFailure = Node;
        std::vector<TypePtr> Parts;
        if (Node)
          Parts.push_back(Type::nodeTy());
        for (unsigned L = 0; L < Links; ++L)
          Parts.push_back(Type::intTy(Bits));
        TypePtr KeyTy = Parts.size() == 1 ? Parts[0] : Type::tupleTy(Parts);
        unsigned Width = scenarioKeyWidth(Opts, NodeBits, NumLinks);
        ASSERT_EQ(Width, Ctx.Layout.widthOf(KeyTy));
        for (int Trial = 0; Trial < 200; ++Trial) {
          FtScenario S;
          std::vector<std::pair<uint32_t, unsigned>> Fields; // value, bits
          if (Node) {
            S.Node = Id(Rng);
            Fields.push_back({*S.Node, NodeBits});
          }
          for (unsigned L = 0; L < Links; ++L) {
            S.Links.push_back({Id(Rng), Id(Rng), Link(Rng), Bits});
            Fields.push_back({uint32_t(S.Links.back().Index), Bits});
          }
          std::vector<bool> Got;
          Ctx.encodeValue(scenarioKey(Ctx, S, Opts), KeyTy, Got);
          ASSERT_EQ(Got.size(), Width);
          unsigned B = 0;
          for (auto [Value, FieldBits] : Fields)
            for (unsigned T = 0; T < FieldBits; ++T, ++B)
              ASSERT_EQ(Got[B], bool(Value >> (FieldBits - 1 - T) & 1))
                  << NumLinks << " links " << S.str() << " bit " << B;
        }
      }
  }
}

/// The scenario key type under \p Opts with \p Bits-wide link fields.
TypePtr scenarioKeyType(const FtOptions &Opts, unsigned Bits) {
  std::vector<TypePtr> Parts;
  if (Opts.NodeFailure)
    Parts.push_back(Type::nodeTy());
  for (unsigned L = 0; L < Opts.LinkFailures; ++L)
    Parts.push_back(Type::intTy(Bits));
  return Parts.size() == 1 ? Parts[0] : Type::tupleTy(Parts);
}

/// Every field of a decoded scenario, link indices included.
std::string scenarioFields(const FtScenario &S) {
  std::string Out = S.str();
  for (const FtLink &L : S.Links)
    Out += " #" + std::to_string(L.Index) + "/" + std::to_string(L.IndexBits);
  return Out;
}

/// The set against referenceScenarios: count, order, decoded links and
/// node, rendering, rank of each reference scenario, and key order (each
/// encoded key above the one before it).
void expectSetMatchesReference(const Program &P, const FtOptions &Opts) {
  FtScenarioSet Set(P, Opts);
  auto Want = referenceScenarios(P, Opts);
  auto Materialized = enumerateScenarios(P, Opts);
  ASSERT_EQ(Set.size(), Want.size());
  ASSERT_EQ(Materialized.size(), Want.size());
  EXPECT_EQ(Set.numNodes(), P.numNodes());
  NvContext Ctx(P.numNodes());
  TypePtr KeyTy = scenarioKeyType(Opts, linkIndexBits(P.links().size()));
  std::vector<bool> Prev;
  for (size_t I = 0; I < Set.size(); ++I) {
    FtScenario Got = Set[I];
    ASSERT_EQ(scenarioFields(Got), scenarioFields(Want[I])) << "#" << I;
    ASSERT_EQ(scenarioFields(Materialized[I]), scenarioFields(Want[I]))
        << "#" << I;
    EXPECT_EQ(Set.node(I), Want[I].Node) << "#" << I;
    EXPECT_EQ(Set.str(I), Want[I].str()) << "#" << I;
    std::vector<uint32_t> Indices;
    for (const FtLink &L : Want[I].Links)
      Indices.push_back(L.Index);
    ASSERT_EQ(Set.rank(Want[I].Node, Indices), I) << Want[I].str();
    std::vector<bool> Bits;
    Ctx.encodeValue(scenarioKey(Ctx, Got, Opts), KeyTy, Bits);
    if (I) {
      ASSERT_LT(Prev, Bits) << Want[I].str();
    }
    Prev = std::move(Bits);
  }
}

/// Windows of \p Set too large to enumerate: \p Window consecutive
/// indices from 0, from the end and from seeded starts, each one the
/// nested loop's successor of the one before, and rank inverting the
/// decoding.
void expectSetWindowsConsistent(const FtScenarioSet &Set, unsigned Seed,
                                uint64_t Window = 300) {
  ASSERT_GT(Set.size(), 0u);
  std::mt19937_64 Rng(Seed);
  std::vector<uint64_t> Starts = {0, Set.size() - std::min(Window, Set.size())};
  for (int K = 0; K < 8; ++K)
    Starts.push_back(Rng() % Set.size());
  for (uint64_t Start : Starts) {
    SCOPED_TRACE("window at " + std::to_string(Start));
    std::vector<uint32_t> Cur(Set.linkFields());
    Set.linkIndices(Start, Cur.data());
    std::optional<uint32_t> Node = Set.node(Start);
    if (Start == 0) {
      EXPECT_EQ(Cur, std::vector<uint32_t>(Set.linkFields(), 0));
      EXPECT_EQ(Node.value_or(0), 0u);
    }
    for (uint64_t I = Start; I < std::min(Start + Window, Set.size()); ++I) {
      std::vector<uint32_t> Got(Set.linkFields());
      Set.linkIndices(I, Got.data());
      ASSERT_EQ(Got, Cur) << "#" << I;
      ASSERT_EQ(Set.node(I), Node) << "#" << I;
      ASSERT_EQ(Set.rank(Node, Got), I);
      ASSERT_TRUE(std::is_sorted(Got.begin(), Got.end()));
      ASSERT_TRUE(Got.empty() || Got.back() < Set.numLinks());
      if (!nextCombo(Cur, Set.numLinks())) {
        std::fill(Cur.begin(), Cur.end(), 0);
        if (Node)
          ++*Node;
      }
    }
  }
}

/// A ring of \p N links on \p N nodes.
std::vector<std::pair<int, int>> ring(int N) {
  std::vector<std::pair<int, int>> Out;
  for (int I = 0; I < N; ++I)
    Out.push_back({I, (I + 1) % N});
  return Out;
}

TEST(FaultTolerance, ScenarioSetMatchesReferenceEnumeration) {
  struct Topology {
    const char *Name;
    uint32_t Nodes;
    std::vector<std::pair<int, int>> Links;
  };
  const std::vector<Topology> Topologies = {
      {"no links", 3, {}},
      {"one link", 2, {{0, 1}}},
      {"a link declared twice", 4, {{0, 1}, {1, 0}, {0, 2}, {2, 3}, {1, 3}}},
      {"shuffled", 6, Shuffled},
  };
  for (const Topology &T : Topologies) {
    Program P = parseAndCheck(spProgram(T.Nodes, T.Links));
    for (unsigned Links : {0u, 1u, 2u, 3u})
      for (bool Node : {false, true}) {
        if (!Links && !Node)
          continue;
        SCOPED_TRACE(std::string(T.Name) + ", f=" + std::to_string(Links) +
                     (Node ? " + node" : ""));
        FtOptions Opts;
        Opts.LinkFailures = Links;
        Opts.NodeFailure = Node;
        expectSetMatchesReference(P, Opts);
      }
  }
  {
    // 33 two-bit fields: 66-bit keys.
    SCOPED_TRACE("wide diamond");
    FtOptions Wide;
    Wide.LinkFailures = 33;
    expectSetMatchesReference(parseAndCheck(spProgram(4, Diamond)), Wide);
  }
  // 2^12 links: every 12-bit code is a link. One failure (and a node) is
  // enumerated whole; more, C(4097, 2) = 8.4M and C(4098, 3) = 1.1e10,
  // window by window.
  Program Big = parseAndCheck(spProgram(4096, ring(4096)));
  ASSERT_EQ(Big.links().size(), 4096u);
  for (unsigned Links : {0u, 1u, 2u, 3u})
    for (bool Node : {false, true}) {
      if (!Links && !Node)
        continue;
      SCOPED_TRACE("2^12 links, f=" + std::to_string(Links) +
                   (Node ? " + node" : ""));
      FtOptions Opts;
      Opts.LinkFailures = Links;
      Opts.NodeFailure = Node;
      if (Links + Node <= 1)
        expectSetMatchesReference(Big, Opts);
      else
        expectSetWindowsConsistent(FtScenarioSet(Big, Opts), Links);
    }
}

TEST(FaultTolerance, ScenarioSetPast32BitIndices) {
  // 300 links at five failures: C(304, 5) = 2.1e10 scenarios, indexed in
  // 64 bits and decoded without a key array.
  Program P = parseAndCheck(spProgram(300, ring(300)));
  FtOptions Opts;
  Opts.LinkFailures = 5;
  FtScenarioSet Set(P, Opts);
  ASSERT_EQ(Set.size(), 20932912560u);
  EXPECT_EQ(Set.str(Set.size() - 1), "{link 299-0; link 299-0; link 299-0; "
                                      "link 299-0; link 299-0}");
  EXPECT_EQ(Set.str(0), "{link 0-1; link 0-1; link 0-1; link 0-1; "
                        "link 0-1}");
  expectSetWindowsConsistent(Set, 11);
  Opts.NodeFailure = true;
  FtScenarioSet WithNode(P, Opts);
  ASSERT_EQ(WithNode.size(), 20932912560u * 300);
  EXPECT_EQ(WithNode.str(WithNode.size() - 1),
            "{node 299; link 299-0; link 299-0; link 299-0; link 299-0; "
            "link 299-0}");
  expectSetWindowsConsistent(WithNode, 12);
  DiagnosticEngine Fits;
  EXPECT_TRUE(makeFaultTolerantProgram(P, Opts, Fits)) << Fits.str();

  // A record of scenarios [2^33, 2^33 + 512) names them by 64-bit index;
  // one at the range's end or past the set is malformed.
  const uint64_t Begin = uint64_t(1) << 33, End = Begin + 512;
  auto Parse = [&](uint64_t Index, uint64_t B, uint64_t E) {
    UnitRecord R;
    R.add("v", std::to_string(Index) + " 3 None");
    std::vector<FtViolation> Out;
    bool Ok = parseViolationFields(R, Set, B, E, Out);
    EXPECT_EQ(Out.size(), Ok ? 1u : 0u);
    if (Ok) {
      EXPECT_EQ(Out[0].Scenario.Index, Index);
      EXPECT_EQ(Out[0].Scenario.str(), Set.str(Index));
    }
    return Ok;
  };
  EXPECT_TRUE(Parse(Begin + 7, Begin, End));
  EXPECT_TRUE(Parse(End - 1, Begin, End));
  EXPECT_FALSE(Parse(End, Begin, End));
  EXPECT_FALSE(Parse(Set.size(), Set.size() - 1, Set.size() + 1));
}

TEST(FaultTolerance, ScenarioCountPast64BitsIsAnError) {
  // 300 links: C(309, 10) = 1.9e18 combinations fit a uint64_t, but not
  // times 300 failed nodes; C(310, 11) = 5.3e19 does not fit at all.
  Program P = parseAndCheck(spProgram(300, ring(300)));
  FtOptions Opts;
  Opts.LinkFailures = 10;
  EXPECT_EQ(FtScenarioSet(P, Opts).size(), 1887629299319420580u);
  Opts.NodeFailure = true;
  EXPECT_THROW(FtScenarioSet(P, Opts), EngineError);
  DiagnosticEngine Diags;
  EXPECT_FALSE(makeFaultTolerantProgram(P, Opts, Diags));
  EXPECT_NE(Diags.str().find("counts scenarios in 64 bits"),
            std::string::npos)
      << Diags.str();
  Opts.NodeFailure = false;
  Opts.LinkFailures = 11;
  EXPECT_THROW(FtScenarioSet(P, Opts), EngineError);
}

TEST(FaultTolerance, KeyWidthIsLinkFieldsPlusNode) {
  // f fields of ceil(log2 |links|) bits (at least 1), plus NodeBits for a
  // node failure; the meta-program's key type agrees.
  for (auto [NumLinks, Bits] : std::vector<std::pair<int, unsigned>>{
           {1, 1}, {2, 1}, {6, 3}, {8, 3}, {9, 4}}) {
    std::vector<std::pair<int, int>> Ring;
    for (int I = 0; I < NumLinks; ++I)
      Ring.push_back({I, (I + 1) % 10});
    Program P = parseAndCheck(spProgram(10, Ring));
    EXPECT_EQ(linkIndexBits(NumLinks), Bits) << NumLinks;
    for (unsigned F : {0u, 1u, 2u, 3u})
      for (bool Node : {false, true}) {
        if (!F && !Node)
          continue;
        SCOPED_TRACE(std::to_string(NumLinks) + " links, f=" +
                     std::to_string(F) + (Node ? " + node" : ""));
        FtOptions Opts;
        Opts.LinkFailures = F;
        Opts.NodeFailure = Node;
        unsigned Want = F * Bits + (Node ? 4 : 0); // 10 nodes: 4 bits
        EXPECT_EQ(scenarioKeyWidth(Opts, 4, NumLinks), Want);
        DiagnosticEngine Diags;
        auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
        ASSERT_TRUE(Meta.has_value()) << Diags.str();
        NvContext Ctx(P.numNodes());
        InterpProgramEvaluator Eval(Ctx, *Meta);
        SimResult R = simulate(*Meta, Eval);
        ASSERT_TRUE(R.Converged);
        EXPECT_EQ(R.Labels[0]->KeyBits, Want);
      }
  }
}

/// Eight links on six nodes: every 3-bit link code names a link.
const std::vector<std::pair<int, int>> EightLinks = {
    {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {2, 5}, {1, 4}};

TEST(FaultTolerance, TwoLinksMatchesNaiveWithNoSpareCodes) {
  for (bool Node : {false, true}) {
    SCOPED_TRACE(Node ? "node" : "links only");
    FtOptions Opts;
    Opts.LinkFailures = 2;
    Opts.NodeFailure = Node;
    expectMatchesNaive(spProgram(6, EightLinks), Opts);
  }
}

TEST(FaultTolerance, LinkDeclaredTwiceMatchesNaive) {
  // 0-1 is declared in both orientations and 2-3 twice: each declaration
  // is its own scenario link, and failing either fails the link.
  for (bool Node : {false, true}) {
    SCOPED_TRACE(Node ? "node" : "links only");
    FtOptions Opts;
    Opts.LinkFailures = 2;
    Opts.NodeFailure = Node;
    expectMatchesNaive(
        spProgram(4, {{0, 1}, {1, 0}, {0, 2}, {2, 3}, {1, 3}, {2, 3}}), Opts);
  }
}

TEST(FaultTolerance, SingleLinkMatchesNaiveOnDiamond) {
  expectMatchesNaive(spProgram(4, Diamond), FtOptions{});
}

TEST(FaultTolerance, SingleLinkMatchesNaiveOnLine) {
  expectMatchesNaive(spProgram(4, Line), FtOptions{});
}

TEST(FaultTolerance, TwoLinksMatchesNaive) {
  FtOptions Opts;
  Opts.LinkFailures = 2;
  expectMatchesNaive(spProgram(4, Diamond), Opts);
}

TEST(FaultTolerance, NodeAndLinkMatchesNaive) {
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 1;
  expectMatchesNaive(spProgram(4, Diamond), Opts);
}

TEST(FaultTolerance, NodeOnlyMatchesNaive) {
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 0;
  expectMatchesNaive(spProgram(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}),
                     Opts);
}

TEST(FaultTolerance, DropValueIsDerivedFromTheAttributeType) {
  // Shortest paths per prefix, a dict of option routes: the shape the
  // route-map frontend emits.
  const char *DictSrc = R"nv(
type attribute = dict[int2, option[int]]
let nodes = 4
let edges = {0n=1n;0n=2n;1n=3n;2n=3n}
let init (u : node) : attribute =
  let m : attribute = createDict None in
  match u with | 0n -> m[1u2 := Some 0] | 3n -> m[2u2 := Some 0] | _ -> m
let trans (e : edge) (x : attribute) =
  map (fun (v : option[int]) ->
         match v with | None -> None | Some d -> Some (d + 1)) x
let merge (u : node) (x : attribute) (y : attribute) =
  combine (fun (a : option[int]) (b : option[int]) ->
             match a, b with
             | _, None -> a
             | None, _ -> b
             | Some p, Some q -> if p <= q then a else b) x y
let assert (u : node) (x : attribute) =
  match x[1u2] with | None -> false | Some d -> d < 2
)nv";
  std::string Error;
  EXPECT_EQ(printExpr(defaultDropExpr(
                parseAndCheck(spProgram(4, Line)).AttrType, Error)),
            "None");
  Program Dict = parseAndCheck(DictSrc);
  EXPECT_EQ(printExpr(defaultDropExpr(Dict.AttrType, Error)),
            "createDict None");
  for (bool Node : {false, true}) {
    SCOPED_TRACE(Node ? "node" : "links only");
    FtOptions Opts;
    Opts.NodeFailure = Node;
    expectMatchesNaive(DictSrc, Opts);
  }

  Program Int = parseAndCheck("let nodes = 2\nlet edges = {0n=1n}\n"
                              "let init (u : node) = 0\n"
                              "let trans (e : edge) (x : int) = x + 1\n"
                              "let merge (u : node) (x : int) (y : int) = x\n");
  EXPECT_EQ(defaultDropExpr(Int.AttrType, Error), nullptr);
  EXPECT_NE(Error.find("attribute type int"), std::string::npos) << Error;
  DiagnosticEngine Diags;
  EXPECT_FALSE(makeFaultTolerantProgram(Int, FtOptions{}, Diags));
  EXPECT_NE(Diags.str().find("attribute type int"), std::string::npos);
}

TEST(FaultTolerance, BgpPolicyMatchesNaive) {
  // The Fig. 2 BGP model (lp/med tie-breaking) under single link failure.
  const char *Src = R"nv(
include bgp
let nodes = 5
let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  match u with
  | 0n -> Some {length = 0; lp = 100; med = 80; comms = {}; origin = 0n}
  | _ -> None
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> b.origin = 0n
)nv";
  expectMatchesNaive(Src, FtOptions{});
}

TEST(FaultTolerance, DiamondSurvivesSingleFailure) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_TRUE(R.Check.holds());
  EXPECT_EQ(R.Check.ScenariosChecked, 4u);
}

TEST(FaultTolerance, LineViolatesSingleFailure) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_FALSE(R.Check.holds());
  // Failing link 1-2 cuts nodes 2 and 3; failing 2-3 cuts node 3; failing
  // 0-1 cuts 1, 2, 3.
  EXPECT_EQ(R.Check.Violations.size(), 6u);
}

TEST(FaultTolerance, DiamondDoesNotSurviveTwoFailures) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  FtOptions Opts;
  Opts.LinkFailures = 2;
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_FALSE(R.Check.holds());
}

TEST(FaultTolerance, CompiledEvaluatorAgrees) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  FtRunResult RI = runFaultTolerance(P, FtOptions{}, false, Diags);
  FtRunResult RC = runFaultTolerance(P, FtOptions{}, true, Diags);
  ASSERT_TRUE(RI.Converged && RC.Converged);
  EXPECT_EQ(RI.Check.holds(), RC.Check.holds());
  EXPECT_EQ(RI.Check.Violations.size(), RC.Check.Violations.size());
}

/// The meta-simulation's MTBDD work on a FAT8 at two link failures, in
/// op-cache lookups: mapIte answers an internal predicate node against a
/// map leaf from the leaf's two results instead of walking the predicate
/// (80,824 lookups before that rule, 59,763 with it).
TEST(FaultTolerance, FatTreeMetaSimulationOpCacheLookups) {
  DiagnosticEngine Diags;
  auto P = loadGenerated(generateFatSingle(8, 0), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  FtOptions Opts;
  Opts.LinkFailures = 2;
  NvContext Ctx(P->numNodes());
  FtRunResult R = runFaultTolerance(*P, Opts, /*UseCompiledEvaluator=*/true,
                                    Diags, /*CheckAsserts=*/true, &Ctx);
  ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.str();
  EXPECT_EQ(R.Stats.TransCalls, 860u);
  EXPECT_EQ(R.Check.ScenariosChecked, 32896u);
  EXPECT_LE(R.CacheHits + R.CacheMisses, 59763u);
}

/// Without a node field the transfer predicate captures only the edge's
/// link indices, so both directions of a link share one predicate closure
/// id and one predicate BDD. A node-failure key also reads the edge: one
/// predicate per directed edge, plus init's one per node.
TEST(FaultTolerance, OnePredicateBddPerLink) {
  DiagnosticEngine Diags;
  auto P = loadGenerated(generateFatSingle(4), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  const size_t Links = P->links().size(), Nodes = P->numNodes();
  for (bool Compiled : {false, true})
    for (unsigned F : {1u, 2u})
      for (bool Node : {false, true}) {
        FtOptions Opts;
        Opts.LinkFailures = F;
        Opts.NodeFailure = Node;
        NvContext Ctx(P->numNodes());
        FtRunResult R = runFaultTolerance(*P, Opts, Compiled, Diags,
                                          /*CheckAsserts=*/true, &Ctx);
        ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.str();
        EXPECT_EQ(Ctx.predicatesCached(), Node ? 2 * Links + Nodes : Links)
            << "links " << F << (Node ? " + node" : "")
            << (Compiled ? ", compiled" : ", interpreted");
      }
}

TEST(FaultTolerance, NodeFailureKeysMatchNaiveOnFatTree) {
  DiagnosticEngine Diags;
  auto P = loadGenerated(generateFatSingle(4), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  for (unsigned F : {0u, 1u}) {
    FtOptions Opts;
    Opts.LinkFailures = F;
    Opts.NodeFailure = true;
    expectMatchesNaive(*P, Opts, /*Compiled=*/true);
  }
}

TEST(FaultTolerance, SharingCollapsesScenarios) {
  // Fig. 4's insight: the number of distinct routes across scenarios is
  // far below the number of scenarios. On the diamond, node 3's dict over
  // 4+ scenarios holds at most 3 distinct routes.
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, *Meta);
  SimResult R = simulate(*Meta, Eval);
  ASSERT_TRUE(R.Converged);
  for (uint32_t U = 0; U < 4; ++U) {
    ASSERT_EQ(R.Labels[U]->K, Value::Kind::Map);
    EXPECT_LE(Ctx.Mgr.numDistinctLeaves(R.Labels[U]->MapRoot), 3u) << U;
  }
}

TEST(FaultTolerance, GeneratedProgramPrintsAndReparses) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  std::string Printed = printProgram(*Meta);
  DiagnosticEngine D2;
  auto Again = parseProgram(Printed, D2);
  ASSERT_TRUE(Again.has_value()) << D2.str() << "\n" << Printed;
  EXPECT_TRUE(typeCheck(*Again, D2)) << D2.str();
}

/// Every Expr node under \p P's declarations.
std::set<const Expr *> exprNodes(const Program &P) {
  std::set<const Expr *> Out;
  for (const DeclPtr &D : P.Decls)
    forEachExpr(D->Body, [&](const ExprPtr &E) { Out.insert(E.get()); });
  return Out;
}

TEST(FaultTolerance, MetaProgramSharesNoExprWithBase) {
  // The meta-program and the base are evaluated side by side (and by
  // different threads in serve and the naive baselines); freeVarsOf fills
  // each node's cache lazily, so no node may be shared.
  Program P = parseAndCheck(spProgram(4, Diamond));
  std::set<const Expr *> Base = exprNodes(P);
  for (auto [Links, Node] : {std::pair{1u, false}, {2u, false}, {1u, true},
                             {2u, true}, {0u, true}}) {
    FtOptions Opts;
    Opts.LinkFailures = Links;
    Opts.NodeFailure = Node;
    DiagnosticEngine Diags;
    auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
    ASSERT_TRUE(Meta) << Diags.str();
    std::set<const Expr *> MetaNodes = exprNodes(*Meta);
    ASSERT_GT(MetaNodes.size(), Base.size());
    for (const Expr *E : MetaNodes) {
      EXPECT_FALSE(Base.count(E)) << "shared node '" << E->Name << "'";
      EXPECT_TRUE(E->Ty) << "untyped meta node";
      EXPECT_FALSE(E->CachedFreeVars);
    }
  }
}

TEST(FaultTolerance, DropValueSourceIsParsedAndChecked) {
  // A caller's drop value may use the base program's lets.
  std::string Src = spProgram(4, Line) + "let noRoute = None\n";
  FtOptions Opts;
  Opts.DropValueSource = "noRoute";
  expectMatchesNaive(Src, Opts);

  Program P = parseAndCheck(Src);
  for (const char *Bad : {"createDict (", "Some", "5", "Some true",
                          "unknownName", "None None"}) {
    SCOPED_TRACE(Bad);
    Opts.DropValueSource = Bad;
    DiagnosticEngine Diags;
    EXPECT_FALSE(makeFaultTolerantProgram(P, Opts, Diags));
    EXPECT_TRUE(Diags.hasErrors());
  }
}

/// printProgram of the meta-program of every examples/nv/*.nv file, in
/// name order, at --links 1, --links 2, --node and --links 2 --node, each
/// headed "== <file> <flags>".
std::string examplesMetaPrograms() {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NV_SOURCE_DIR "/examples/nv"))
    if (Entry.path().extension() == ".nv")
      Files.push_back("examples/nv/" + Entry.path().filename().string());
  std::sort(Files.begin(), Files.end());
  struct Config {
    const char *Flags;
    unsigned Links;
    bool Node;
  };
  const Config Configs[] = {{"--links 1", 1, false},
                            {"--links 2", 2, false},
                            {"--node", 1, true},
                            {"--links 2 --node", 2, true}};
  std::string Out;
  for (const std::string &F : Files) {
    std::ifstream In(NV_SOURCE_DIR "/" + F);
    std::stringstream Text;
    Text << In.rdbuf();
    Program P = parseAndCheck(Text.str());
    for (const Config &C : Configs) {
      FtOptions Opts;
      Opts.LinkFailures = C.Links;
      Opts.NodeFailure = C.Node;
      DiagnosticEngine Diags;
      auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
      Out += "== " + F + " " + C.Flags + "\n";
      Out += Meta ? printProgram(*Meta) : "error: " + Diags.str() + "\n";
    }
  }
  return Out;
}

TEST(FaultTolerance, MetaProgramsMatchGolden) {
  // tests/golden/ft_meta.txt pins the meta-program the transform builds
  // for every example and failure configuration. A mismatch
  // writes the new text to ft_meta.actual.txt in the working directory;
  // replace the golden with it only for an intended change of the
  // meta-program, and say why in CHANGES.md.
  std::ifstream In(NV_SOURCE_DIR "/tests/golden/ft_meta.txt");
  ASSERT_TRUE(In) << "missing tests/golden/ft_meta.txt";
  std::stringstream Golden;
  Golden << In.rdbuf();
  std::string Actual = examplesMetaPrograms();
  if (Actual != Golden.str()) {
    std::ofstream("ft_meta.actual.txt") << Actual;
    FAIL() << "meta-programs differ from tests/golden/ft_meta.txt; see "
              "ft_meta.actual.txt";
  }
}

} // namespace
