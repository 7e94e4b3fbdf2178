//===- UnitsTests.cpp - The unit runner (support/Units.h) -----------------===//
//
// Tests of runUnits, the one replay -> retry -> journal -> fold path every
// sharded sweep runs on: journaled units are restored and never re-run, a
// canceled unit is never journaled and re-runs on resume, retries are
// counted, the fold is identical at any thread count, an interrupted run
// resumes to the uninterrupted aggregate, and the fleet executor's
// aggregate equals the in-process one, also for a sweep that starts at a
// unit other than 0.
//
// The sweep is synthetic: unit I's payload is a digest of I, some units
// trip a transient fault on their first attempt and some fail for good.
// Like fleet_tests, this binary is its own fleet worker: the coordinator
// re-execs it with `--units-worker N` (handled in main before gtest sees
// argv), so it registers with a custom main and links GTest::gtest only.
//
//===----------------------------------------------------------------------===//

#include "support/Journal.h"
#include "support/Subprocess.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>

using namespace nv;

namespace {

constexpr size_t NumUnits = 40;

/// Unit I's payload: a pure function of I, the same in every process.
std::string payload(size_t I) {
  return fnv1a64Hex("unit-" + std::to_string(I));
}

/// One synthetic sweep of units [Begin, Begin + N): slots, per-unit
/// attempt counters, and the worker that fills them. Unit I % 3 == 1 trips
/// a transient fault on its first attempt in a process; unit I % 5 == 4
/// fails for good.
struct Sweep {
  explicit Sweep(size_t N, ResumeLog *Journal = nullptr,
                 CancelToken *Cancel = nullptr, size_t Begin = 0)
      : Slots(Begin + N), Attempts(new std::atomic<unsigned>[Begin + N]) {
    for (size_t I = 0; I < Begin + N; ++I)
      Attempts[I] = 0;
    S.Begin = Begin;
    S.Count = N;
    S.Prefix = 'u';
    S.Budget.Cancel = Cancel;
    S.Retry.MaxAttempts = 2;
    S.Journal = Journal;
    S.Restore = [this](size_t I, const UnitRecord &Rec) {
      const std::string *P = Rec.get("p");
      if (!P)
        return false;
      Slots[I] = *P;
      return true;
    };
  }

  // The lambdas hold `this`.
  Sweep(const Sweep &) = delete;
  Sweep &operator=(const Sweep &) = delete;

  /// Called at the start of every attempt (tests use it to cancel).
  std::function<void(size_t I)> BeforeRun;

  UnitWorker worker() {
    UnitWorker W;
    W.Run = [this](size_t I) -> RunOutcome {
      unsigned A = ++Attempts[I];
      if (BeforeRun)
        BeforeRun(I);
      // A safe point: trips when the run was canceled.
      Governor::pollSafePoint(GovSite::SimPop);
      if (I % 3 == 1 && A == 1)
        throw EngineError({RunStatus::FaultInjected, "flaky first attempt",
                           "sim-pop"});
      if (I % 5 == 4)
        return {RunStatus::EvalError, "unit " + std::to_string(I) + " fails",
                ""};
      Slots[I] = payload(I);
      return {};
    };
    W.Render = [this](size_t I, unsigned A) {
      UnitRecord Rec;
      Rec.Key = unitKey('u', I);
      addOutcome(Rec, RunOutcome(), A);
      Rec.add("p", Slots[I]);
      return Rec;
    };
    return W;
  }

  UnitsResult run(const UnitExecutor &X = UnitExecutor()) {
    return runUnits(S, X, [this](const auto &Serve) {
      UnitWorker W = worker();
      Serve(W);
    });
  }

  /// Everything a caller folds: per-unit outcome and payload in unit
  /// order, then the first failure and the skipped count.
  std::string fold(const UnitsResult &R) const {
    std::string Out;
    for (size_t I = S.Begin; I < Slots.size(); ++I) {
      const RunOutcome &O = R.Units[I - S.Begin].Outcome;
      Out += O.str() + " " + (O.ok() ? Slots[I] : "") + "\n";
    }
    return Out + "first " + R.First.str() + ", skipped " +
           std::to_string(R.Skipped);
  }

  unsigned attempts(size_t I) const { return Attempts[I].load(); }

  UnitSweep S;
  std::vector<std::string> Slots;
  std::unique_ptr<std::atomic<unsigned>[]> Attempts;
};

/// The expected fold of an uninterrupted sweep of units [Begin, Begin + N).
std::string referenceFold(size_t N, size_t Begin = 0) {
  Sweep Ref(N, nullptr, nullptr, Begin);
  return Ref.fold(Ref.run());
}

size_t countIf(size_t N, bool (*Pred)(size_t)) {
  size_t C = 0;
  for (size_t I = 0; I < N; ++I)
    C += Pred(I);
  return C;
}
bool isFlaky(size_t I) { return I % 3 == 1; }
bool isFailing(size_t I) { return I % 5 == 4; }

/// A scratch journal, removed on destruction.
struct ScratchJournal {
  explicit ScratchJournal(const std::string &Name)
      : Path(::testing::TempDir() + "nv_units_test_" + Name) {
    std::remove(Path.c_str());
    Binding.set("tool", "units-tests");
  }
  ~ScratchJournal() { std::remove(Path.c_str()); }

  std::unique_ptr<ResumeLog> open() {
    auto L = ResumeLog::open(Path, Binding);
    EXPECT_TRUE(L.Log) << L.Error;
    return std::move(L.Log);
  }
  /// The journaled keys; fails the test on a duplicate.
  std::set<std::string> keys() const {
    JournalRead JR = readJournal(Path);
    EXPECT_EQ(JR.St, JournalRead::State::Ok) << JR.Error;
    std::set<std::string> Keys;
    for (const std::string &E : JR.Entries) {
      UnitRecord Rec;
      EXPECT_TRUE(UnitRecord::parse(E, Rec));
      EXPECT_TRUE(Keys.insert(Rec.Key).second) << "duplicate " << Rec.Key;
    }
    return Keys;
  }

  std::string Path;
  RunBinding Binding;
};

FleetOptions fleetOptions(unsigned Workers, size_t Begin = 0) {
  FleetOptions O;
  O.Workers = Workers;
  O.WorkerArgv = {getExecutablePath(), "--units-worker",
                  std::to_string(NumUnits), std::to_string(Begin)};
  O.HeartbeatMs = 25;
  O.BackoffBaseMs = 5;
  O.BackoffCapMs = 50;
  O.StragglerMinMs = 60000;
  O.QuarantineDir = ::testing::TempDir();
  O.Verbose = false;
  return O;
}

TEST(Units, RetriesAreCountedAndFailuresFoldInUnitOrder) {
  Sweep Sw(NumUnits);
  UnitsResult R = Sw.run();
  EXPECT_EQ(R.Retries, countIf(NumUnits, isFlaky));
  EXPECT_EQ(R.Skipped, countIf(NumUnits, isFailing));
  EXPECT_EQ(R.Replayed, 0u);
  EXPECT_EQ(R.First.Status, RunStatus::EvalError);
  EXPECT_EQ(R.First.Detail, "unit 4 fails");
  for (size_t I = 0; I < NumUnits; ++I) {
    EXPECT_EQ(Sw.attempts(I), isFlaky(I) ? 2u : 1u) << I;
    EXPECT_EQ(R.Units[I].Outcome.ok(), !isFailing(I)) << I;
  }

  // A transient trip that never clears burns every attempt and skips.
  Sweep Stuck(3);
  Stuck.S.Retry.MaxAttempts = 3;
  Stuck.BeforeRun = [](size_t) {
    throw EngineError({RunStatus::StepBudgetExceeded, "stuck", "sim-pop"});
  };
  UnitsResult RS = Stuck.run();
  EXPECT_EQ(RS.Retries, 6u);
  EXPECT_EQ(RS.Skipped, 3u);
  EXPECT_EQ(RS.First.Status, RunStatus::StepBudgetExceeded);
}

TEST(Units, FoldIsIdenticalAtAnyThreadCount) {
  std::string Ref = referenceFold(NumUnits);
  std::set<std::string> RefRecords;
  for (unsigned Threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ScratchJournal J("threads");
    auto Log = J.open();
    Sweep Sw(NumUnits, Log.get());
    ThreadPool Pool(Threads);
    UnitsResult R = Sw.run(Pool);
    EXPECT_EQ(Sw.fold(R), Ref);
    EXPECT_EQ(R.Retries, countIf(NumUnits, isFlaky));
    // The journal holds the same records, whatever ran where.
    std::set<std::string> Records;
    for (const std::string &E : readJournal(J.Path).Entries)
      Records.insert(E);
    EXPECT_EQ(Records.size(), NumUnits);
    if (RefRecords.empty())
      RefRecords = Records;
    EXPECT_EQ(Records, RefRecords);
  }
}

TEST(Units, JournaledUnitsAreRestoredNotRerun) {
  for (size_t Begin : {size_t(0), size_t(7)}) {
    SCOPED_TRACE("units from " + std::to_string(Begin));
    ScratchJournal J("restore");
    {
      auto Log = J.open();
      Sweep First(NumUnits, Log.get(), nullptr, Begin);
      First.run();
    }
    // The keys are those of units [Begin, Begin + NumUnits).
    std::set<std::string> Want;
    for (size_t I = Begin; I < Begin + NumUnits; ++I)
      Want.insert(unitKey('u', I));
    EXPECT_EQ(J.keys(), Want);

    auto Log = J.open();
    Sweep Sw(NumUnits, Log.get(), nullptr, Begin);
    ThreadPool Pool(4);
    UnitsResult R = Sw.run(Pool);
    EXPECT_EQ(R.Replayed, NumUnits);
    EXPECT_EQ(R.Retries, 0u); // retries of earlier runs are not re-counted
    for (size_t I = Begin; I < Begin + NumUnits; ++I) {
      EXPECT_EQ(Sw.attempts(I), 0u) << I;
      EXPECT_TRUE(R.Units[I - Begin].Replayed) << I;
    }
    // Failed units are durable skips too: restored with their outcome.
    EXPECT_EQ(Sw.fold(R), referenceFold(NumUnits, Begin));
    EXPECT_EQ(Log->entryCount(), NumUnits);
  }
}

TEST(Units, MalformedRecordIsAnEvalErrorOfItsUnit) {
  ScratchJournal J("malformed");
  {
    auto Log = J.open();
    UnitRecord Rec;
    Rec.Key = unitKey('u', 2);
    addOutcome(Rec, RunOutcome(), 1); // ok, but no payload
    Log->recordDone(Rec);
  }
  auto Log = J.open();
  Sweep Sw(NumUnits, Log.get());
  UnitsResult R = Sw.run();
  EXPECT_EQ(R.Units[2].Outcome.Status, RunStatus::EvalError);
  EXPECT_NE(R.Units[2].Outcome.Detail.find("malformed unit record u2 in " +
                                           J.Path),
            std::string::npos)
      << R.Units[2].Outcome.str();
  EXPECT_EQ(R.First.Status, RunStatus::EvalError);
  EXPECT_EQ(Sw.attempts(2), 0u);
}

TEST(Units, CanceledUnitIsNeverJournaledAndRerunsOnResume) {
  ScratchJournal J("cancel");
  constexpr size_t CancelAt = 11;
  {
    // Serial: units before CancelAt complete, CancelAt trips at its safe
    // point, and the units after it never start.
    CancelToken Tok;
    auto Log = J.open();
    Sweep Sw(NumUnits, Log.get(), &Tok);
    Sw.BeforeRun = [&](size_t I) {
      if (I == CancelAt)
        Tok.requestCancel();
    };
    UnitsResult R = Sw.run();
    EXPECT_EQ(R.Units[CancelAt].Outcome.Status, RunStatus::Canceled);
    EXPECT_EQ(R.First.Status, RunStatus::EvalError); // unit 4 came first
    for (size_t I = CancelAt + 1; I < NumUnits; ++I) {
      EXPECT_EQ(R.Units[I].Outcome.Status, RunStatus::Canceled) << I;
      EXPECT_EQ(Sw.attempts(I), 0u) << I;
    }
  }
  EXPECT_EQ(J.keys().size(), CancelAt);
  EXPECT_FALSE(J.keys().count(unitKey('u', CancelAt)));

  auto Log = J.open();
  Sweep Sw(NumUnits, Log.get());
  ThreadPool Pool(3);
  UnitsResult R = Sw.run(Pool);
  EXPECT_EQ(R.Replayed, CancelAt);
  EXPECT_EQ(Sw.attempts(CancelAt), isFlaky(CancelAt) ? 2u : 1u);
  EXPECT_EQ(Sw.fold(R), referenceFold(NumUnits));
  EXPECT_EQ(J.keys().size(), NumUnits);
}

TEST(Units, InterruptedThreadedRunResumesToTheUninterruptedAggregate) {
  ScratchJournal J("interrupt");
  {
    // Cancel once a dozen units have started, from whichever worker
    // thread gets there: in-flight units drain at their safe points.
    CancelToken Tok;
    auto Log = J.open();
    Sweep Sw(NumUnits, Log.get(), &Tok);
    std::atomic<unsigned> Started{0};
    Sw.BeforeRun = [&](size_t) {
      if (++Started == 12)
        Tok.requestCancel();
    };
    ThreadPool Pool(4);
    UnitsResult R = Sw.run(Pool);
    EXPECT_GT(R.Skipped, countIf(NumUnits, isFailing));
  }
  size_t Journaled = J.keys().size();
  EXPECT_GT(Journaled, 0u);
  EXPECT_LT(Journaled, NumUnits);

  for (unsigned Threads : {1u, 8u}) {
    // A second resume replays everything the first one completed.
    auto Log = J.open();
    Sweep Sw(NumUnits, Log.get());
    ThreadPool Pool(Threads);
    UnitsResult R = Sw.run(Pool);
    EXPECT_EQ(R.Replayed, Threads == 1 ? Journaled : NumUnits);
    EXPECT_EQ(Sw.fold(R), referenceFold(NumUnits)) << Threads;
  }
  EXPECT_EQ(J.keys().size(), NumUnits);
}

TEST(Units, FleetAggregateEqualsInProcess) {
  for (size_t Begin : {size_t(0), size_t(5)}) {
    SCOPED_TRACE("units from " + std::to_string(Begin));
    size_t Half = Begin + NumUnits / 2;
    ScratchJournal J("fleet");
    {
      // Half the units are journaled in process first; the fleet runs
      // only the rest, and journals each record as it lands.
      auto Log = J.open();
      CancelToken Tok;
      Sweep Sw(NumUnits, Log.get(), &Tok, Begin);
      Sw.BeforeRun = [&](size_t I) {
        if (I == Half)
          Tok.requestCancel();
      };
      Sw.run();
    }
    auto Log = J.open();
    Sweep Sw(NumUnits, Log.get(), nullptr, Begin);
    UnitExecutor X;
    X.Fleet = fleetOptions(3, Begin);
    uint64_t Jobs = 0;
    X.OnFleetDone = [&](const FleetResult &FR) {
      EXPECT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
      Jobs = FR.Stats.JobsCompleted;
    };
    UnitsResult R = Sw.run(X);
    EXPECT_EQ(Jobs, NumUnits - NumUnits / 2);
    EXPECT_EQ(R.Replayed, NumUnits / 2);
    // Retries happen in the workers and come back in the records.
    EXPECT_EQ(R.Retries, countIf(Begin + NumUnits, isFlaky) -
                             countIf(Half, isFlaky));
    EXPECT_EQ(Sw.fold(R), referenceFold(NumUnits, Begin));
    EXPECT_EQ(J.keys().size(), NumUnits);
  }
}

TEST(Units, FleetWorkerRejectsKeysOutsideItsSweep) {
  // The one-job hook runs the handler in this process, so the rejection
  // surfaces as the exception that would kill a worker.
  Sweep Sw(NumUnits, nullptr, nullptr, 5);
  UnitWorker W = Sw.worker();
  auto Serve = [&](const char *Key) {
    ::setenv("NV_FLEET_ONE_JOB", Key, 1);
    int Rc = -1;
    try {
      Rc = serveFleetUnits(Sw.S,
                           [&](size_t I) { return runUnitRecord(Sw.S, W, I); });
    } catch (const std::runtime_error &) {
    }
    ::unsetenv("NV_FLEET_ONE_JOB");
    return Rc;
  };
  EXPECT_EQ(Serve("u5"), 0);
  EXPECT_EQ(Serve(unitKey('u', 4 + NumUnits).c_str()), 0);
  EXPECT_EQ(Serve("u4"), -1);
  EXPECT_EQ(Serve(unitKey('u', 5 + NumUnits).c_str()), -1);
  EXPECT_EQ(Serve("x6"), -1);
  EXPECT_EQ(Sw.attempts(5), 1u);
}

TEST(Units, CanceledFleetLeavesUnitsCanceledAndUnjournaled) {
  ScratchJournal J("fleet_cancel");
  auto Log = J.open();
  CancelToken Tok;
  Tok.requestCancel();
  Sweep Sw(NumUnits, Log.get());
  UnitExecutor X;
  X.Fleet = fleetOptions(2);
  X.Fleet->Cancel = &Tok;
  // The fleet stops before its first job: no unit has a record, each one
  // takes the fleet's outcome, and nothing is journaled.
  UnitsResult R = Sw.run(X);
  EXPECT_EQ(R.First.Status, RunStatus::Canceled) << R.First.str();
  EXPECT_EQ(R.Skipped, NumUnits);
  for (const UnitResult &U : R.Units)
    EXPECT_EQ(U.Outcome.Status, RunStatus::Canceled);
  EXPECT_EQ(Log->entryCount(), 0u);
}

} // namespace

int main(int argc, char **argv) {
  // Worker half: the fleet re-execs this binary with the flag. Handled
  // before gtest so the flag never reaches InitGoogleTest.
  if (argc >= 4 && !std::strcmp(argv[1], "--units-worker")) {
    Sweep Sw(std::strtoull(argv[2], nullptr, 10), nullptr, nullptr,
             std::strtoull(argv[3], nullptr, 10));
    UnitWorker W = Sw.worker();
    return serveFleetUnits(Sw.S, [&](size_t I) {
      return runUnitRecord(Sw.S, W, I);
    });
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
