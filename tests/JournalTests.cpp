//===- JournalTests.cpp - Checkpoint/resume journal tests --------------------===//
//
// Tests of the crash-resilience layer: the checksummed journal format
// (torn tails tolerated, interior corruption a hard error), run bindings
// (provenance-excluded matching), unit records, per-unit retry with
// budget escalation, and end-to-end resume of the sharded naive analysis
// — a resumed run's aggregate must be identical to an uninterrupted one.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/ProgramEvaluator.h"
#include "support/Governor.h"
#include "support/Journal.h"
#include "support/Resume.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <tuple>

using namespace nv;

namespace {

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "nv_journal_test_" + Name;
}

/// Reads a file's raw bytes.
std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spew(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Same shortest-path family GovernorTests uses; fault tolerance over a
/// line topology yields a deterministic non-empty violation list.
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

/// Violation identity that works for live and replayed violations alike.
std::vector<std::tuple<std::string, uint32_t, std::string>>
violationKeys(const FtCheckResult &R) {
  std::vector<std::tuple<std::string, uint32_t, std::string>> Out;
  for (const FtViolation &V : R.Violations)
    Out.push_back({V.Scenario.str(), V.Node, V.routeStr()});
  return Out;
}

struct FaultInjectGuard {
  ~FaultInjectGuard() { FaultInject::disarmAll(); }
};

//===----------------------------------------------------------------------===//
// Journal format
//===----------------------------------------------------------------------===//

TEST(Journal, RoundTripAndAppendAfterReopen) {
  std::string Path = tmpPath("roundtrip");
  std::remove(Path.c_str());

  EXPECT_EQ(readJournal(Path).St, JournalRead::State::NoFile);

  std::string Err;
  auto W = createJournal(Path, "k=v\n", Err);
  ASSERT_TRUE(W) << Err;
  EXPECT_TRUE(W->append("unit-a"));
  EXPECT_TRUE(W->append("unit-b"));
  W.reset();

  JournalRead R = readJournal(Path);
  ASSERT_EQ(R.St, JournalRead::State::Ok) << R.Error;
  EXPECT_EQ(R.Header, "k=v\n");
  ASSERT_EQ(R.Entries.size(), 2u);
  EXPECT_EQ(R.Entries[0], "unit-a");
  EXPECT_EQ(R.Entries[1], "unit-b");
  EXPECT_FALSE(R.TornTail);

  // Continue the journal where the scan left off.
  auto W2 = appendJournal(Path, R.ValidBytes, Err);
  ASSERT_TRUE(W2) << Err;
  EXPECT_TRUE(W2->append("unit-c"));
  W2.reset();
  JournalRead R2 = readJournal(Path);
  ASSERT_EQ(R2.St, JournalRead::State::Ok) << R2.Error;
  EXPECT_EQ(R2.Entries.size(), 3u);

  std::remove(Path.c_str());
}

TEST(Journal, TornTailDroppedAndTruncatedOnReopen) {
  std::string Path = tmpPath("torn");
  std::remove(Path.c_str());
  std::string Err;
  auto W = createJournal(Path, "h\n", Err);
  ASSERT_TRUE(W) << Err;
  EXPECT_TRUE(W->append("unit-a"));
  EXPECT_TRUE(W->append("unit-b"));
  W.reset();

  // Chop into the middle of the final frame: crash debris, not corruption.
  std::string Bytes = slurp(Path);
  spew(Path, Bytes.substr(0, Bytes.size() - 3));

  JournalRead R = readJournal(Path);
  ASSERT_EQ(R.St, JournalRead::State::Ok) << R.Error;
  EXPECT_TRUE(R.TornTail);
  ASSERT_EQ(R.Entries.size(), 1u);
  EXPECT_EQ(R.Entries[0], "unit-a");

  // The writer truncates the torn tail, so the re-recorded unit's frame
  // never lands after garbage.
  auto W2 = appendJournal(Path, R.ValidBytes, Err);
  ASSERT_TRUE(W2) << Err;
  EXPECT_TRUE(W2->append("unit-b"));
  W2.reset();
  JournalRead R2 = readJournal(Path);
  ASSERT_EQ(R2.St, JournalRead::State::Ok) << R2.Error;
  EXPECT_FALSE(R2.TornTail);
  ASSERT_EQ(R2.Entries.size(), 2u);
  EXPECT_EQ(R2.Entries[1], "unit-b");

  std::remove(Path.c_str());
}

TEST(Journal, CorruptInteriorChecksumIsHard) {
  std::string Path = tmpPath("corrupt");
  std::remove(Path.c_str());
  std::string Err;
  auto W = createJournal(Path, "h\n", Err);
  ASSERT_TRUE(W) << Err;
  EXPECT_TRUE(W->append("unit-a"));
  EXPECT_TRUE(W->append("unit-b"));
  W.reset();

  // Flip one payload byte of a mid-file frame: a complete frame whose
  // checksum no longer matches is interior damage, never "torn".
  std::string Bytes = slurp(Path);
  size_t Mid = 8 + 8 + 2 + 8 + 2; // magic, header frame, into unit-a
  ASSERT_LT(Mid, Bytes.size());
  Bytes[Mid] ^= 0x40;
  spew(Path, Bytes);

  JournalRead R = readJournal(Path);
  EXPECT_EQ(R.St, JournalRead::State::Corrupt);
  EXPECT_FALSE(R.Error.empty());

  std::remove(Path.c_str());
}

TEST(Journal, BadMagicIsCorrupt) {
  std::string Path = tmpPath("magic");
  spew(Path, "NOTAJRNL with some trailing bytes");
  JournalRead R = readJournal(Path);
  EXPECT_EQ(R.St, JournalRead::State::Corrupt);
  EXPECT_FALSE(R.Error.empty());
  std::remove(Path.c_str());
}

TEST(Journal, SecondWriterOnOneJournalFailsFast) {
  // Two coordinators pointed at one journal must not interleave frames:
  // the writer holds an exclusive flock for its lifetime, so the second
  // open fails fast with a clear error — in both the create and the
  // append flavors — and the journal stays intact.
  std::string Path = tmpPath("flock");
  std::remove(Path.c_str());

  std::string Err;
  auto W = createJournal(Path, "h\n", Err);
  ASSERT_TRUE(W) << Err;
  EXPECT_TRUE(W->append("unit-a"));

  std::string Err2;
  auto Clash = createJournal(Path, "h\n", Err2);
  EXPECT_FALSE(Clash);
  EXPECT_NE(Err2.find("lock"), std::string::npos) << Err2;

  JournalRead Mid = readJournal(Path); // reading is still fine
  ASSERT_EQ(Mid.St, JournalRead::State::Ok) << Mid.Error;
  std::string Err3;
  auto Clash2 = appendJournal(Path, Mid.ValidBytes, Err3);
  EXPECT_FALSE(Clash2);
  EXPECT_NE(Err3.find("lock"), std::string::npos) << Err3;

  // Releasing the first writer releases the lock; appending then works
  // and the first writer's frames survived the failed opens.
  W.reset();
  JournalRead R = readJournal(Path);
  ASSERT_EQ(R.St, JournalRead::State::Ok) << R.Error;
  ASSERT_EQ(R.Entries.size(), 1u);
  EXPECT_EQ(R.Entries[0], "unit-a");
  std::string Err4;
  auto W2 = appendJournal(Path, R.ValidBytes, Err4);
  ASSERT_TRUE(W2) << Err4;
  EXPECT_TRUE(W2->append("unit-b"));

  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Bindings and unit records
//===----------------------------------------------------------------------===//

TEST(RunBindingTest, ProvenanceLinesDoNotBind) {
  RunBinding A, B;
  A.set("tool", "nv");
  A.setInt("links", 2);
  A.setProvenance("threads", "16");
  B.set("tool", "nv");
  B.setInt("links", 2);
  B.setProvenance("threads", "1"); // different parallelism: still matches
  std::string Why;
  EXPECT_TRUE(RunBinding::matches(A.render(), B.render(), Why)) << Why;

  RunBinding C;
  C.set("tool", "nv");
  C.setInt("links", 3);
  EXPECT_FALSE(RunBinding::matches(A.render(), C.render(), Why));
  EXPECT_NE(Why.find("links"), std::string::npos) << Why;
}

TEST(UnitRecordTest, RenderParseRoundTripWithRepeatedKeys) {
  UnitRecord R;
  R.Key = "s17";
  R.add("status", "ok");
  R.add("v", "0 1 Some 2");
  R.add("v", "1 3 None");
  R.addInt("attempts", 2);

  UnitRecord Back;
  ASSERT_TRUE(UnitRecord::parse(R.render(), Back));
  EXPECT_EQ(Back.Key, "s17");
  ASSERT_NE(Back.get("status"), nullptr);
  EXPECT_EQ(*Back.get("status"), "ok");
  EXPECT_EQ(Back.all("v"),
            (std::vector<std::string>{"0 1 Some 2", "1 3 None"}));

  UnitRecord Bad;
  EXPECT_FALSE(UnitRecord::parse("", Bad));
  EXPECT_FALSE(UnitRecord::parse("key\nno-equals-line\n", Bad));
}

TEST(UnitRecordTest, OutcomeRoundTripRestoresStaticSiteName) {
  UnitRecord R;
  R.Key = "u";
  RunOutcome O{RunStatus::DeadlineExceeded, "5 ms", govSiteName(GovSite::SimPop)};
  addOutcome(R, O, 3);

  RunOutcome Back;
  unsigned Attempts = 0;
  ASSERT_TRUE(parseOutcome(R, Back, Attempts));
  EXPECT_EQ(Back.Status, RunStatus::DeadlineExceeded);
  EXPECT_EQ(Back.Detail, "5 ms");
  EXPECT_EQ(Attempts, 3u);
  // Pointer-stable: the replayed site IS the static name string.
  EXPECT_EQ(Back.Site, govSiteName(GovSite::SimPop));
}

TEST(GovernorNames, RunStatusRoundTrips) {
  for (RunStatus S :
       {RunStatus::Ok, RunStatus::DeadlineExceeded,
        RunStatus::StepBudgetExceeded, RunStatus::NodeBudgetExceeded,
        RunStatus::HeapBudgetExceeded, RunStatus::Canceled,
        RunStatus::FaultInjected, RunStatus::Overloaded,
        RunStatus::Quarantined, RunStatus::EvalError,
        RunStatus::InternalError}) {
    RunStatus Back;
    ASSERT_TRUE(runStatusFromName(runStatusName(S), Back)) << runStatusName(S);
    EXPECT_EQ(Back, S);
  }
  RunStatus Out;
  EXPECT_FALSE(runStatusFromName("bogus", Out));
}

//===----------------------------------------------------------------------===//
// Retry policy
//===----------------------------------------------------------------------===//

TEST(Retry, EscalateBudgetScalesOnlyFiniteLimits) {
  CancelToken Tok;
  RunBudget B;
  B.DeadlineMs = 100;
  B.MaxSteps = 1000;
  B.MaxLiveNodes = 0; // unlimited stays unlimited
  B.Cancel = &Tok;

  RunBudget E = escalateBudget(B, 2.0, 3); // third attempt: x4
  EXPECT_DOUBLE_EQ(E.DeadlineMs, 400);
  EXPECT_EQ(E.MaxSteps, 4000u);
  EXPECT_EQ(E.MaxLiveNodes, 0u);
  EXPECT_EQ(E.Cancel, &Tok); // escalation never drops the token

  RunBudget Same = escalateBudget(B, 2.0, 1); // first attempt: unscaled
  EXPECT_DOUBLE_EQ(Same.DeadlineMs, 100);
}

TEST(Retry, TransientClassification) {
  EXPECT_TRUE(isTransientOutcome(
      RunOutcome{RunStatus::DeadlineExceeded, "", ""}));
  EXPECT_TRUE(isTransientOutcome(
      RunOutcome{RunStatus::FaultInjected, "", ""}));
  EXPECT_FALSE(isTransientOutcome(RunOutcome{})); // ok
  EXPECT_FALSE(isTransientOutcome(
      RunOutcome{RunStatus::Canceled, "", ""})); // whole run stopping
  EXPECT_FALSE(isTransientOutcome(
      RunOutcome{RunStatus::EvalError, "", ""})); // deterministic
}

TEST(Retry, RetriesTransientUntilSuccess) {
  RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  RunBudget B;
  B.MaxSteps = 10;
  unsigned Attempts = 0;
  std::vector<uint64_t> SeenBudgets;
  RunOutcome O = runUnitWithRetry(B, Policy, Attempts,
                                  [&](const RunBudget &AB) -> RunOutcome {
    SeenBudgets.push_back(AB.MaxSteps);
    if (SeenBudgets.size() < 2)
      return RunOutcome{RunStatus::StepBudgetExceeded, "", ""};
    return RunOutcome{};
  });
  EXPECT_TRUE(O.ok());
  EXPECT_EQ(Attempts, 2u);
  ASSERT_EQ(SeenBudgets.size(), 2u);
  EXPECT_EQ(SeenBudgets[0], 10u);
  EXPECT_EQ(SeenBudgets[1], 20u); // escalated
}

TEST(Retry, GivesUpAfterMaxAttemptsAndNeverRetriesCancel) {
  RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  unsigned Attempts = 0;
  RunOutcome O = runUnitWithRetry({}, Policy, Attempts,
                                  [](const RunBudget &) -> RunOutcome {
    return RunOutcome{RunStatus::DeadlineExceeded, "", ""};
  });
  EXPECT_EQ(O.Status, RunStatus::DeadlineExceeded);
  EXPECT_EQ(Attempts, 3u);

  Attempts = 0;
  unsigned Calls = 0;
  O = runUnitWithRetry({}, Policy, Attempts,
                       [&](const RunBudget &) -> RunOutcome {
    ++Calls;
    return RunOutcome{RunStatus::Canceled, "", ""};
  });
  EXPECT_EQ(O.Status, RunStatus::Canceled);
  EXPECT_EQ(Calls, 1u); // cancellation is terminal
}

//===----------------------------------------------------------------------===//
// ResumeLog
//===----------------------------------------------------------------------===//

RunBinding testBinding() {
  RunBinding B;
  B.set("tool", "journal-tests");
  B.set("program", fnv1a64Hex("program text"));
  B.setProvenance("threads", "4");
  return B;
}

TEST(ResumeLogTest, FreshJournalRecordsThenReplays) {
  std::string Path = tmpPath("resume_fresh");
  std::remove(Path.c_str());

  {
    auto R = ResumeLog::open(Path, testBinding());
    ASSERT_TRUE(R.Log) << R.Error;
    EXPECT_EQ(R.Log->replayedCount(), 0u);
    UnitRecord U;
    U.Key = "s0";
    U.add("status", "ok");
    R.Log->recordDone(U);
    U.Key = "s1";
    R.Log->recordDone(U);
    EXPECT_EQ(R.Log->entryCount(), 2u);
  }

  auto R2 = ResumeLog::open(Path, testBinding());
  ASSERT_TRUE(R2.Log) << R2.Error;
  EXPECT_EQ(R2.Log->replayedCount(), 2u);
  UnitRecord Out;
  EXPECT_TRUE(R2.Log->replay("s0", Out));
  EXPECT_FALSE(R2.Log->replay("s2", Out));
  ASSERT_TRUE(R2.Log->replay("s1", Out));
  ASSERT_NE(Out.get("status"), nullptr);
  EXPECT_EQ(*Out.get("status"), "ok");

  std::remove(Path.c_str());
}

TEST(ResumeLogTest, BindingMismatchIsHardError) {
  std::string Path = tmpPath("resume_binding");
  std::remove(Path.c_str());
  { ASSERT_TRUE(ResumeLog::open(Path, testBinding()).Log); }

  RunBinding Other;
  Other.set("tool", "journal-tests");
  Other.set("program", fnv1a64Hex("DIFFERENT program text"));
  auto R = ResumeLog::open(Path, Other);
  EXPECT_FALSE(R.Log);
  EXPECT_TRUE(R.Hard);
  EXPECT_NE(R.Error.find("does not match"), std::string::npos) << R.Error;

  std::remove(Path.c_str());
}

TEST(ResumeLogTest, CorruptJournalIsHardError) {
  std::string Path = tmpPath("resume_corrupt");
  std::remove(Path.c_str());
  {
    auto R = ResumeLog::open(Path, testBinding());
    ASSERT_TRUE(R.Log);
    UnitRecord U;
    U.Key = "s0";
    R.Log->recordDone(U);
    U.Key = "s1";
    R.Log->recordDone(U);
  }
  std::string Bytes = slurp(Path);
  // Offset 20 is inside the header frame's payload (magic 8 + frame
  // length/checksum 8 + 4): a complete frame whose checksum fails.
  Bytes[20] ^= 0x01;
  spew(Path, Bytes);

  auto R = ResumeLog::open(Path, testBinding());
  EXPECT_FALSE(R.Log);
  EXPECT_TRUE(R.Hard);
  EXPECT_FALSE(R.Error.empty());

  std::remove(Path.c_str());
}

TEST(ResumeLogTest, TornTailToleratedAndUnitRerecorded) {
  std::string Path = tmpPath("resume_torn");
  std::remove(Path.c_str());
  {
    auto R = ResumeLog::open(Path, testBinding());
    ASSERT_TRUE(R.Log);
    UnitRecord U;
    U.Key = "s0";
    R.Log->recordDone(U);
    U.Key = "s1";
    R.Log->recordDone(U);
  }
  std::string Bytes = slurp(Path);
  spew(Path, Bytes.substr(0, Bytes.size() - 2)); // died mid-append

  auto R = ResumeLog::open(Path, testBinding());
  ASSERT_TRUE(R.Log) << R.Error;
  EXPECT_TRUE(R.Log->tornTailDropped());
  EXPECT_EQ(R.Log->replayedCount(), 1u); // s1's frame was torn: it re-runs
  UnitRecord Back;
  EXPECT_FALSE(R.Log->replay("s1", Back));
  UnitRecord U;
  U.Key = "s1";
  R.Log->recordDone(U);
  EXPECT_EQ(R.Log->entryCount(), 2u);

  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// End-to-end: sharded naive analysis under resume
//===----------------------------------------------------------------------===//

RunBinding naiveBinding() {
  RunBinding B;
  B.set("tool", "journal-tests-naive");
  B.set("program", fnv1a64Hex(spProgram(4, Line)));
  return B;
}

TEST(NaiveResume, InterruptedRunResumesIdenticalAtAnyThreadCount) {
  Program P = parseAndCheck(spProgram(4, Line));

  // Uninterrupted reference.
  std::vector<std::tuple<std::string, uint32_t, std::string>> Ref;
  uint64_t RefScenarios = 0;
  {
    ThreadPool Pool(2);
    FtCheckResult R = naiveFaultToleranceParallel(P, FtOptions{}, Pool);
    ASSERT_FALSE(R.Violations.empty());
    Ref = violationKeys(R);
    RefScenarios = R.ScenariosChecked;
  }

  // Fully journaled run.
  std::string Path = tmpPath("naive_resume");
  std::remove(Path.c_str());
  {
    auto L = ResumeLog::open(Path, naiveBinding());
    ASSERT_TRUE(L.Log) << L.Error;
    ThreadPool Pool(4);
    FtOptions Opts;
    Opts.Resume = L.Log.get();
    FtCheckResult R = naiveFaultToleranceParallel(P, Opts, Pool);
    EXPECT_EQ(violationKeys(R), Ref);
    EXPECT_EQ(R.ScenariosReplayed, 0u);
    EXPECT_EQ(L.Log->entryCount(), RefScenarios);
  }

  // Simulate an interruption: keep only the first half of the completed
  // units, then resume at a different thread count. The resumed aggregate
  // must be identical to the uninterrupted reference.
  JournalRead Full = readJournal(Path);
  ASSERT_EQ(Full.St, JournalRead::State::Ok) << Full.Error;
  ASSERT_EQ(Full.Entries.size(), RefScenarios);
  std::string Partial = tmpPath("naive_resume_partial");
  std::remove(Partial.c_str());
  {
    std::string Err;
    auto W = createJournal(Partial, Full.Header, Err);
    ASSERT_TRUE(W) << Err;
    for (size_t I = 0; I < Full.Entries.size() / 2; ++I)
      ASSERT_TRUE(W->append(Full.Entries[I]));
  }
  for (unsigned Threads : {1u, 4u}) {
    auto L = ResumeLog::open(Partial, naiveBinding());
    ASSERT_TRUE(L.Log) << L.Error;
    EXPECT_EQ(L.Log->replayedCount(), Full.Entries.size() / 2);
    ThreadPool Pool(Threads);
    FtOptions Opts;
    Opts.Resume = L.Log.get();
    FtCheckResult R = naiveFaultToleranceParallel(P, Opts, Pool);
    EXPECT_EQ(R.ScenariosChecked, RefScenarios) << Threads;
    EXPECT_EQ(R.ScenariosReplayed, Full.Entries.size() / 2) << Threads;
    EXPECT_EQ(R.ScenariosSkipped, 0u) << Threads;
    EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.str();
    EXPECT_EQ(violationKeys(R), Ref) << Threads << " threads";
    // Only the missing half was re-run and recorded; nothing duplicated.
    EXPECT_EQ(L.Log->entryCount(), RefScenarios) << Threads;
    std::remove(Partial.c_str());
    std::string Err;
    auto W = createJournal(Partial, Full.Header, Err);
    ASSERT_TRUE(W) << Err;
    for (size_t I = 0; I < Full.Entries.size() / 2; ++I)
      ASSERT_TRUE(W->append(Full.Entries[I]));
  }

  std::remove(Path.c_str());
  std::remove(Partial.c_str());
}

TEST(NaiveFleetRecords, WorkerRecordsAggregateIdenticalToInProcess) {
  // The fleet contract at the unit level: records produced by the worker's
  // unit body (runNaiveScenarioRecord, one fresh record per scenario) are
  // restored by the unit runner into exactly the aggregate the in-process
  // path computes — which is why `--workers N` merges are bit-identical to
  // `--workers 0` regardless of which worker ran what.
  Program P = parseAndCheck(spProgram(4, Line));
  FtOptions Opts;

  std::vector<std::tuple<std::string, uint32_t, std::string>> Ref;
  uint64_t RefScenarios = 0;
  {
    ThreadPool Pool(2);
    FtCheckResult R = naiveFaultToleranceParallel(P, Opts, Pool);
    ASSERT_FALSE(R.Violations.empty());
    Ref = violationKeys(R);
    RefScenarios = R.ScenariosChecked;
  }

  // "Workers": one evaluator producing every record, out of order, as a
  // fleet's results land; journaled as the coordinator journals them.
  std::string Path = tmpPath("naive_fleet_records");
  std::remove(Path.c_str());
  {
    NvContext Ctx(P.numNodes());
    InterpProgramEvaluator Eval(Ctx, P);
    const Value *Drop = Ctx.noneV();
    Ctx.pinValue(Drop);
    FtScenarioSet Scenarios(P, Opts);
    ASSERT_EQ(Scenarios.size(), RefScenarios);
    auto L = ResumeLog::open(Path, naiveBinding());
    ASSERT_TRUE(L.Log) << L.Error;
    // Scenario 0's record is lost: the runner must re-run exactly it.
    for (size_t I = Scenarios.size(); I-- > 1;)
      L.Log->recordDone(
          runNaiveScenarioRecord(P, Eval, Scenarios, I, Drop, Opts));
  }

  auto L = ResumeLog::open(Path, naiveBinding());
  ASSERT_TRUE(L.Log) << L.Error;
  Opts.Resume = L.Log.get();
  ThreadPool Pool(2);
  FtCheckResult Agg = naiveFaultToleranceParallel(P, Opts, Pool);
  EXPECT_EQ(Agg.ScenariosChecked, RefScenarios);
  EXPECT_EQ(Agg.ScenariosReplayed, RefScenarios - 1);
  EXPECT_EQ(Agg.ScenariosSkipped, 0u);
  EXPECT_TRUE(Agg.Outcome.ok()) << Agg.Outcome.str();
  EXPECT_EQ(violationKeys(Agg), Ref);
  EXPECT_EQ(L.Log->entryCount(), RefScenarios);
  std::remove(Path.c_str());
}

TEST(NaiveRetry, InjectedFaultRetriedThenSucceeds) {
  FaultInjectGuard Guard;
  Program P = parseAndCheck(spProgram(4, Line));

  std::vector<std::tuple<std::string, uint32_t, std::string>> Ref;
  {
    NvContext RefCtx(P.numNodes());
    InterpProgramEvaluator RefEval(RefCtx, P);
    FtCheckResult R =
        naiveFaultTolerance(P, RefEval, FtOptions{}, RefCtx.noneV());
    ASSERT_EQ(R.ScenariosSkipped, 0u);
    Ref = violationKeys(R);
  }

  // The injected fault is one-shot: the scenario it hits fails its first
  // attempt and succeeds on retry, so nothing is skipped and the final
  // report matches the fault-free reference exactly.
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  FaultInject::arm(GovSite::SimPop, 10);
  FtOptions Opts;
  Opts.Retry.MaxAttempts = 3;
  FtCheckResult R = naiveFaultTolerance(P, Eval, Opts, Ctx.noneV());
  FaultInject::disarmAll();

  EXPECT_EQ(R.ScenariosSkipped, 0u);
  EXPECT_EQ(R.RetriesPerformed, 1u);
  EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.str();
  EXPECT_EQ(violationKeys(R), Ref);
}

TEST(NaiveRetry, PersistentTransientGivesUpAndSkips) {
  Program P = parseAndCheck(spProgram(4, Line));
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);

  // A one-step budget trips every scenario on every attempt (escalation
  // disabled), so each scenario burns its retries and is skipped.
  FtOptions Opts;
  Opts.Budget.MaxSteps = 1;
  Opts.Retry.MaxAttempts = 2;
  Opts.Retry.BudgetScale = 1.0;
  FtCheckResult R = naiveFaultTolerance(P, Eval, Opts, Ctx.noneV());

  EXPECT_GT(R.ScenariosChecked, 0u);
  EXPECT_EQ(R.ScenariosSkipped, R.ScenariosChecked);
  EXPECT_EQ(R.RetriesPerformed, R.ScenariosChecked); // one retry each
  EXPECT_EQ(R.Outcome.Status, RunStatus::StepBudgetExceeded);
  EXPECT_TRUE(R.Violations.empty());
}

} // namespace
