//===- FleetTests.cpp - Crash-isolated worker fleet tests --------------------===//
//
// Tests of the coordinator/worker execution layer (support/Fleet.h): fleet
// merges bit-identical at any worker count, SIGKILL mid-job requeues and
// completes, a silent (wedged) worker trips the heartbeat liveness timeout
// and respawns, and a job that keeps killing workers is quarantined with a
// runnable repro artifact instead of wedging the run.
//
// The test binary is its own worker: the coordinator re-execs it with
// `--fleet-worker-mode <echo|slow>` (handled in main before gtest sees
// argv), so no other binary needs to exist at test time. This file
// therefore registers with a custom main and links GTest::gtest only.
//
//===----------------------------------------------------------------------===//

#include "support/Fleet.h"
#include "support/Journal.h"
#include "support/Resume.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace nv;

namespace {

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "nv_fleet_test_" + Name;
}

/// Sets an environment variable for the spawned workers (children inherit
/// the coordinator's environment) and restores emptiness on scope exit so
/// tests cannot leak hooks into each other.
struct EnvGuard {
  std::string Name;
  EnvGuard(const char *N, const std::string &V) : Name(N) {
    ::setenv(N, V.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(Name.c_str()); }
};

/// Baseline options every test starts from: this binary as the worker,
/// tight timings (tests should take milliseconds, not the production
/// 10-second liveness window), and no stderr chatter.
FleetOptions testOptions(const char *Mode, unsigned Workers) {
  FleetOptions O;
  O.Workers = Workers;
  O.WorkerArgv = {getExecutablePath(), "--fleet-worker-mode", Mode};
  O.HeartbeatMs = 25;
  O.LivenessTimeoutMs = 5000;
  O.BackoffBaseMs = 5;
  O.BackoffCapMs = 50;
  O.PoisonThreshold = 100; // individual tests opt in to quarantine
  O.StragglerMinMs = 60000; // and to speculation
  O.QuarantineDir = ::testing::TempDir();
  O.Verbose = false;
  return O;
}

std::vector<FleetJob> makeJobs(const char *Prefix, size_t N,
                               const std::string &Spec = "") {
  std::vector<FleetJob> Jobs;
  for (size_t I = 0; I < N; ++I) {
    std::string Key = Prefix;
    Key += std::to_string(I);
    Jobs.push_back({Key, Spec});
  }
  return Jobs;
}

/// One canonical rendering of a whole fleet result — the merge identity
/// the bit-identical tests compare.
std::string renderResults(const FleetResult &FR) {
  std::string Out;
  for (const auto &[Key, Rec] : FR.Results)
    Out += Rec.render() + "\x1e";
  return Out;
}

//===----------------------------------------------------------------------===//
// Bit-identical merge
//===----------------------------------------------------------------------===//

TEST(FleetMerge, BitIdenticalAcrossWorkerCounts) {
  // The same 40 jobs at 1, 2, and 8 workers must merge to byte-identical
  // aggregates: records are pure functions of the job, and the result map
  // is keyed, so scheduling order cannot leak into the merge.
  std::vector<FleetJob> Jobs;
  for (size_t I = 0; I < 40; ++I) {
    std::string Suffix = std::to_string(I);
    Jobs.push_back({"k" + Suffix, "payload-" + Suffix});
  }

  std::string Reference;
  for (unsigned Workers : {1u, 2u, 8u}) {
    FleetResult FR = runFleet(testOptions("echo", Workers), Jobs);
    ASSERT_TRUE(FR.Outcome.ok()) << Workers << " workers: "
                                 << FR.Outcome.str();
    EXPECT_EQ(FR.Stats.JobsCompleted, 40u);
    EXPECT_EQ(FR.Results.size(), 40u);
    EXPECT_TRUE(FR.QuarantinedKeys.empty());
    std::string Rendered = renderResults(FR);
    if (Reference.empty())
      Reference = Rendered;
    else
      EXPECT_EQ(Rendered, Reference) << "merge differs at " << Workers
                                     << " workers";
  }
}

TEST(FleetMerge, ResultsFlowThroughOnResultExactlyOnce) {
  std::vector<FleetJob> Jobs = makeJobs("r", 10);
  std::mutex M;
  std::vector<std::string> Seen;
  FleetCallbacks CB;
  CB.OnResult = [&](const UnitRecord &Rec) {
    std::lock_guard<std::mutex> L(M);
    Seen.push_back(Rec.Key);
  };
  FleetResult FR = runFleet(testOptions("echo", 3), Jobs, CB);
  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(Seen.size(), 10u);
  std::sort(Seen.begin(), Seen.end());
  EXPECT_EQ(std::unique(Seen.begin(), Seen.end()), Seen.end());
}

TEST(FleetMerge, OversizedRecordFailsByNameWithoutKillingTheWorker) {
  // Job "big" echoes 64 MiB: its 'R' frame would pass the frame cap, which
  // the coordinator would read as a dead worker. The worker sends a
  // failed record naming the cap instead, and serves the next job.
  std::vector<FleetJob> Jobs = {{"big", "64MiB"}, {"small", "x"}};
  FleetResult FR = runFleet(testOptions("echo", 1), Jobs);
  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Stats.WorkerDeaths, 0u);
  RunOutcome O;
  unsigned Attempts = 0;
  ASSERT_TRUE(parseOutcome(FR.Results.at("big"), O, Attempts));
  EXPECT_EQ(O.Status, RunStatus::InternalError);
  EXPECT_NE(O.Detail.find("exceeds the fleet frame cap of 67108864 bytes"),
            std::string::npos)
      << O.str();
  EXPECT_EQ(FR.Results.at("big").get("echo"), nullptr);
  ASSERT_NE(FR.Results.at("small").get("echo"), nullptr);
  EXPECT_EQ(*FR.Results.at("small").get("echo"), "x");
}

//===----------------------------------------------------------------------===//
// Crash recovery
//===----------------------------------------------------------------------===//

TEST(FleetCrash, SigkillMidJobRequeuesAndCompletes) {
  // One worker, four 200ms jobs. SIGKILL the worker ~100ms after it
  // spawns — mid-first-job by construction — and the run must still
  // produce all four records: the in-flight job requeues, the worker
  // respawns, nothing is lost.
  std::vector<FleetJob> Jobs = makeJobs("s", 4, "200");

  std::mutex M;
  std::vector<pid_t> Pids;
  FleetCallbacks CB;
  CB.OnSpawn = [&](pid_t Pid, unsigned) {
    std::lock_guard<std::mutex> L(M);
    Pids.push_back(Pid);
  };
  std::atomic<bool> Done{false};
  std::thread Killer([&] {
    for (int I = 0; I < 2000 && !Done.load(); ++I) {
      {
        std::lock_guard<std::mutex> L(M);
        if (!Pids.empty())
          break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::lock_guard<std::mutex> L(M);
    if (!Pids.empty())
      ::kill(Pids.front(), SIGKILL);
  });

  FleetResult FR = runFleet(testOptions("slow", 1), Jobs, CB);
  Done.store(true);
  Killer.join();

  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Results.size(), 4u);
  EXPECT_TRUE(FR.QuarantinedKeys.empty());
  EXPECT_GE(FR.Stats.WorkerDeaths, 1u);
  EXPECT_GE(FR.Stats.JobsRequeued, 1u);
  EXPECT_GE(FR.Stats.Respawns, 1u);
  // The satellite contract: the last child exit reason is surfaced.
  EXPECT_EQ(FR.Stats.LastExit, "signal:" + std::to_string(SIGKILL));
}

TEST(FleetCrash, HeartbeatTimeoutRespawnsWedgedWorker) {
  // The wedge hook freezes whichever worker first picks up job "w3":
  // heartbeats stop, the handler hangs forever. The coordinator must
  // notice the silence (liveness timeout), SIGKILL the wedged worker,
  // and requeue — the latch file guarantees the respawned worker runs
  // the job normally, so the run completes with every record present.
  std::string Latch = tmpPath("wedge_latch");
  std::remove(Latch.c_str());
  EnvGuard G1("NV_FLEET_WEDGE_KEY", "w3");
  EnvGuard G2("NV_FLEET_WEDGE_ONCE_FILE", Latch);

  FleetOptions O = testOptions("echo", 2);
  O.LivenessTimeoutMs = 400;
  FleetResult FR = runFleet(O, makeJobs("w", 8));
  std::remove(Latch.c_str());

  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Results.size(), 8u);
  EXPECT_TRUE(FR.QuarantinedKeys.empty());
  EXPECT_GE(FR.Stats.HeartbeatTimeouts, 1u);
  EXPECT_GE(FR.Stats.WorkerDeaths, 1u);
  EXPECT_GE(FR.Stats.JobsRequeued, 1u);
}

//===----------------------------------------------------------------------===//
// Poison quarantine
//===----------------------------------------------------------------------===//

TEST(FleetPoison, QuarantinedAfterThresholdDeathsWithRepro) {
  EnvGuard G("NV_FLEET_POISON_KEY", "p3");

  FleetOptions O = testOptions("echo", 2);
  O.PoisonThreshold = 2;
  FleetResult FR = runFleet(O, makeJobs("p", 6));

  // The run COMPLETES: five healthy jobs plus one quarantined record.
  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Results.size(), 6u);
  ASSERT_EQ(FR.QuarantinedKeys.size(), 1u);
  EXPECT_EQ(FR.QuarantinedKeys[0], "p3");
  EXPECT_EQ(FR.Stats.Quarantined, 1u);
  EXPECT_EQ(FR.Stats.WorkerDeaths, 2u); // exactly PoisonThreshold deaths

  // The quarantined record carries the structured outcome the drivers map
  // to exit 3, plus a runnable repro script.
  const UnitRecord &Rec = FR.Results.at("p3");
  RunOutcome Outcome;
  unsigned Attempts = 1;
  ASSERT_TRUE(parseOutcome(Rec, Outcome, Attempts));
  EXPECT_EQ(Outcome.Status, RunStatus::Quarantined);
  EXPECT_EQ(Attempts, 2u);
  const std::string *Repro = Rec.get("repro");
  ASSERT_NE(Repro, nullptr);
  EXPECT_EQ(::access(Repro->c_str(), X_OK), 0) << *Repro;
  std::remove(Repro->c_str());

  // Healthy siblings are normal records, not quarantine debris.
  RunOutcome Sib;
  ASSERT_TRUE(parseOutcome(FR.Results.at("p0"), Sib, Attempts));
  EXPECT_TRUE(Sib.ok());
}

TEST(FleetPoison, ReproLandsInANewNestedDirectory) {
  EnvGuard G("NV_FLEET_POISON_KEY", "q1");

  FleetOptions O = testOptions("echo", 1);
  O.PoisonThreshold = 1;
  std::string Root =
      ::testing::TempDir() + "fleet-repro-" + std::to_string(::getpid());
  std::filesystem::remove_all(Root);
  O.QuarantineDir = Root + "/a/b";
  FleetResult FR = runFleet(O, makeJobs("q", 3));

  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  ASSERT_EQ(FR.QuarantinedKeys.size(), 1u);
  const std::string *Repro = FR.Results.at("q1").get("repro");
  ASSERT_NE(Repro, nullptr);
  EXPECT_EQ(*Repro, O.QuarantineDir + "/nv-quarantine-q1.sh");
  EXPECT_EQ(::access(Repro->c_str(), X_OK), 0) << *Repro;
  std::filesystem::remove_all(Root);
}

} // namespace

int main(int argc, char **argv) {
  // Worker half: the coordinator re-execs this binary with the mode flag.
  // Handled before gtest so the flag never reaches InitGoogleTest.
  if (argc >= 3 && !std::strcmp(argv[1], "--fleet-worker-mode")) {
    std::string Mode = argv[2];
    return runFleetWorker([&](const FleetJob &J) {
      if (Mode == "slow")
        ::usleep(static_cast<unsigned>(std::atoi(J.Spec.c_str())) * 1000u);
      UnitRecord Rec;
      Rec.Key = J.Key;
      Rec.add("status", "ok");
      // A deterministic pure function of the job — what makes the
      // bit-identical merge assertion meaningful. Spec "64MiB" echoes that
      // many bytes, a record past the frame cap.
      Rec.add("echo", J.Spec == "64MiB" ? std::string(64u << 20, 'x')
                                        : J.Spec);
      Rec.add("digest", fnv1a64Hex(J.Key + ":" + J.Spec));
      return Rec;
    });
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
