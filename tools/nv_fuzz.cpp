//===- nv_fuzz.cpp - Differential fuzzing driver ------------------------------===//
//
// Part of nv-cpp. The command-line front end of the differential fuzzer:
//
//   nv-fuzz --seed S --count N        run N seed-derived instances through
//                                     the cross-engine oracle
//   nv-fuzz --time-budget SECS        run until the wall-clock budget is
//                                     spent (nightly CI mode)
//   nv-fuzz --replay PATH             replay a corpus file or directory
//   nv-fuzz --emit SEED               print the corpus-format rendering of
//                                     one instance (corpus seeding)
//
// Options:
//   --minimize           shrink each divergence and write a corpus repro
//   --artifact-dir DIR   where minimized repros (and other run artifacts)
//                        are written (default tests/corpus; --corpus-dir
//                        is the older spelling of the same knob)
//   --resume PATH        campaign checkpoint journal: completed instances
//                        are replayed (divergence tallies included) and
//                        each newly completed instance is recorded durably
//   --workers N          campaign mode only: run instances on N crash-
//                        isolated worker subprocesses (support/Fleet.h).
//                        A crashing instance requeues; one that kills
//                        several workers is quarantined (recorded as
//                        skipped, with a runnable repro script in the
//                        artifact dir) instead of ending the campaign the
//                        way an escaped EngineError does in-process
//   --retry N            attempts per instance when an EngineError with a
//                        transient outcome escapes the oracle's per-leg
//                        catches; exhausted retries record the instance as
//                        skipped instead of killing the campaign
//   --threads N          thread count for the N-thread oracle legs
//   --no-smt/--no-ft/--no-naive   disable oracle legs
//   --json PATH          machine-readable summary
//
// SIGINT/SIGTERM trigger graceful shutdown: the in-flight instance drains
// through its engines' safe points, the journal keeps every completed
// instance, and the campaign exits with code 3.
//
// Determinism: instance i of a run is seed-derived via mixSeed(S, i) —
// the same --seed/--count always replays the same instances and reaches
// the same verdicts (--time-budget trades this for wall-clock coverage).
//
// Exit codes (shared scheme with the nv CLI):
//   0  all instances agree
//   1  divergence found
//   2  usage or I/O error
//   3  resource exhausted (an EngineError with a resource-limit outcome
//      escaped the oracle's per-leg catches, e.g. a fault injected before
//      any engine scope was armed)
//   4  internal error
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/InstanceGen.h"
#include "fuzz/Minimize.h"
#include "fuzz/Oracle.h"
#include "fuzz/Rng.h"
#include "support/Fleet.h"
#include "support/Governor.h"
#include "support/Json.h"
#include "support/ParseNumber.h"
#include "support/Resume.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

using namespace nv;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: nv-fuzz [--seed S] [--count N] [--start I] [--time-budget SECS]\n"
      "               [--minimize] [--artifact-dir DIR] [--threads N]\n"
      "               [--resume PATH] [--retry N] [--workers N]\n"
      "               [--no-smt] [--no-ft] [--no-naive] [--json PATH]\n"
      "       nv-fuzz --replay PATH   (corpus file or directory)\n"
      "       nv-fuzz --emit SEED     (print one instance in corpus form)\n");
  return 2;
}

struct FuzzCli {
  uint64_t Seed = 1;
  uint64_t Count = 100;
  uint64_t Start = 0;
  unsigned TimeBudgetSec = 0;
  bool Minimize = false;
  std::string ArtifactDir = "tests/corpus";
  std::string ReplayPath;
  std::string ResumePath;
  std::string JsonPath;
  unsigned Retry = 1;
  unsigned Workers = 0;    ///< Campaign fleet size (0 = in-process).
  bool FleetWorker = false; ///< Hidden: serve instances over fleet pipes.
  bool Emit = false;
  uint64_t EmitSeed = 0;
  OracleOptions Oracle;
};

std::optional<FuzzCli> parseCli(int argc, char **argv) {
  FuzzCli O;
  for (int I = 1; I < argc; ++I) {
    auto Arg = [&](const char *Name) { return !std::strcmp(argv[I], Name); };
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg("--seed")) {
      const char *V = Next();
      if (!V || !parseIntegerAnyBase(V, O.Seed))
        return std::nullopt;
    } else if (Arg("--count")) {
      const char *V = Next();
      if (!V || !parseIntegerAnyBase(V, O.Count))
        return std::nullopt;
    } else if (Arg("--start")) {
      // First instance index; lets nightly shards cover disjoint ranges
      // of the same base seed.
      const char *V = Next();
      if (!V || !parseIntegerAnyBase(V, O.Start))
        return std::nullopt;
    } else if (Arg("--time-budget")) {
      const char *V = Next();
      if (!V || !parseInteger(V, O.TimeBudgetSec))
        return std::nullopt;
    } else if (Arg("--threads")) {
      const char *V = Next();
      if (!V || !parseInteger(V, O.Oracle.Threads))
        return std::nullopt;
    } else if (Arg("--minimize")) {
      O.Minimize = true;
    } else if (Arg("--corpus-dir") || Arg("--artifact-dir")) {
      const char *V = Next();
      if (!V)
        return std::nullopt;
      O.ArtifactDir = V;
    } else if (Arg("--resume")) {
      const char *V = Next();
      if (!V)
        return std::nullopt;
      O.ResumePath = V;
    } else if (Arg("--retry")) {
      const char *V = Next();
      if (!V || !parseInteger(V, O.Retry))
        return std::nullopt;
    } else if (Arg("--workers")) {
      const char *V = Next();
      if (!V || !parseInteger(V, O.Workers))
        return std::nullopt;
    } else if (Arg("--fleet-worker")) {
      // Undocumented: the fleet coordinator re-execs this binary with the
      // flag to obtain workers (job pipe fd 3, result pipe fd 4).
      O.FleetWorker = true;
    } else if (Arg("--replay")) {
      const char *V = Next();
      if (!V)
        return std::nullopt;
      O.ReplayPath = V;
    } else if (Arg("--emit")) {
      const char *V = Next();
      if (!V || !parseIntegerAnyBase(V, O.EmitSeed))
        return std::nullopt;
      O.Emit = true;
    } else if (Arg("--json")) {
      const char *V = Next();
      if (!V)
        return std::nullopt;
      O.JsonPath = V;
    } else if (Arg("--no-smt")) {
      O.Oracle.EnableSmt = false;
    } else if (Arg("--no-ft")) {
      O.Oracle.EnableFt = false;
    } else if (Arg("--no-naive")) {
      O.Oracle.EnableNaive = false;
    } else if (Arg("--inject-bug-for-testing")) {
      // Undocumented: plants the deliberate engine bug the self-tests use
      // to prove the oracle catches and the minimizer shrinks divergences.
      O.Oracle.InjectBugForTesting = true;
    } else {
      return std::nullopt;
    }
  }
  if (std::getenv("NV_FUZZ_INJECT_BUG"))
    O.Oracle.InjectBugForTesting = true;
  return O;
}

struct RunTally {
  uint64_t Instances = 0;
  uint64_t Divergences = 0;
  uint64_t LegRuns = 0;
  uint64_t Skipped = 0;
  uint64_t Replayed = 0;
  uint64_t Retries = 0;
  std::vector<std::string> ReproFiles;
};

/// What one completed instance contributed — exactly the facts the
/// checkpoint journal needs to replay it without re-running any engine.
struct InstanceResult {
  bool Diverged = false;
  bool Skipped = false;
  uint64_t Legs = 0;
  unsigned Attempts = 1;
  std::string ReproFile;
};

/// The journal header: everything that determines per-instance verdicts.
/// Thread count and wall-clock budget are provenance — verdicts are
/// invariant under both, so an interrupted campaign may resume with
/// different parallelism.
RunBinding fuzzBinding(const FuzzCli &Cli, const char *Mode) {
  RunBinding B;
  B.set("tool", "nv-fuzz");
  B.set("mode", Mode);
  if (!std::strcmp(Mode, "campaign")) {
    B.setInt("seed", static_cast<long long>(Cli.Seed));
    B.setInt("start", static_cast<long long>(Cli.Start));
    if (Cli.TimeBudgetSec)
      B.set("count", "time-budget");
    else
      B.setInt("count", static_cast<long long>(Cli.Count));
  } else {
    B.set("replay-root", Cli.ReplayPath);
  }
  B.setInt("smt", Cli.Oracle.EnableSmt);
  B.setInt("ft", Cli.Oracle.EnableFt);
  B.setInt("naive", Cli.Oracle.EnableNaive);
  B.setInt("inject-bug", Cli.Oracle.InjectBugForTesting);
  B.setInt("retry", Cli.Retry);
  // Worker count is provenance, not binding: fleet and in-process
  // campaigns write identical instance records, so their journals are
  // interchangeable.
  B.setProvenance("workers", std::to_string(Cli.Workers));
  B.setProvenance("threads", std::to_string(Cli.Oracle.Threads));
  if (Cli.TimeBudgetSec)
    B.setProvenance("time-budget-sec", std::to_string(Cli.TimeBudgetSec));
  return B;
}

bool openFuzzResume(const FuzzCli &Cli, const char *Mode,
                    std::unique_ptr<ResumeLog> &Log, int &ExitCode) {
  if (Cli.ResumePath.empty())
    return true;
  ResumeLog::OpenResult R =
      ResumeLog::open(Cli.ResumePath, fuzzBinding(Cli, Mode));
  if (!R.Log) {
    std::fprintf(stderr, "nv-fuzz: %s\n", R.Error.c_str());
    ExitCode = 2;
    return false;
  }
  Log = std::move(R.Log);
  if (Log->tornTailDropped())
    std::fprintf(stderr,
                 "nv-fuzz: note: dropped a torn trailing journal entry "
                 "(interrupted mid-write); that instance will re-run\n");
  if (Log->replayedCount())
    std::printf("resuming from %s: %zu completed instance(s) replayed\n",
                Log->path().c_str(), Log->replayedCount());
  return true;
}

/// The canonical instance record — what the campaign journals and what a
/// fleet worker sends back over the result pipe (same shape, so fleet and
/// in-process journals are interchangeable).
UnitRecord makeInstanceRecord(const std::string &Key, const std::string &Name,
                              const InstanceResult &R) {
  UnitRecord Rec;
  Rec.Key = Key;
  Rec.add("name", Name);
  Rec.addInt("div", R.Diverged ? 1 : 0);
  Rec.addInt("skip", R.Skipped ? 1 : 0);
  Rec.addInt("legs", static_cast<long long>(R.Legs));
  Rec.addInt("attempts", R.Attempts);
  if (!R.ReproFile.empty())
    Rec.add("repro", R.ReproFile);
  return Rec;
}

void recordInstance(ResumeLog &Log, const std::string &Key,
                    const std::string &Name, const InstanceResult &R) {
  Log.recordDone(makeInstanceRecord(Key, Name, R));
}

/// Applies a journaled instance record to the tally as if the instance
/// had just run. Returns false if the record lacks the expected fields
/// (version drift) — the caller then re-runs the instance.
bool replayInstance(const UnitRecord &Rec, RunTally &T) {
  const std::string *Legs = Rec.get("legs");
  const std::string *Div = Rec.get("div");
  if (!Legs || !Div)
    return false;
  ++T.Instances;
  ++T.Replayed;
  T.LegRuns += std::strtoull(Legs->c_str(), nullptr, 10);
  if (const std::string *S = Rec.get("skip"); S && *S == "1")
    ++T.Skipped;
  if (*Div == "1") {
    ++T.Divergences;
    const std::string *Name = Rec.get("name");
    std::printf("DIVERGENCE %s (replayed from journal)\n",
                Name ? Name->c_str() : Rec.Key.c_str());
  }
  if (const std::string *Repro = Rec.get("repro"))
    T.ReproFiles.push_back(*Repro);
  return true;
}

/// Runs one instance through the oracle; on divergence optionally
/// minimizes and writes a corpus repro under the artifact directory.
/// An EngineError with a transient resource-limit outcome that escapes
/// the oracle's per-leg catches is retried up to --retry times; when the
/// retries are exhausted the instance is recorded as skipped (so a
/// persistently flaky unit cannot kill a long campaign). Returns false
/// on divergence.
bool runOne(const FuzzInstance &Inst, const FuzzCli &Cli, RunTally &T,
            InstanceResult &R) {
  DiagnosticEngine Diags;
  OracleVerdict V;
  unsigned MaxAttempts = Cli.Retry ? Cli.Retry : 1;
  for (unsigned Attempt = 1;; ++Attempt) {
    R.Attempts = Attempt;
    try {
      V = runOracle(Inst, Cli.Oracle, Diags);
      break;
    } catch (const EngineError &E) {
      if (!isTransientOutcome(E.outcome()))
        throw;
      if (Attempt < MaxAttempts) {
        ++T.Retries;
        continue;
      }
      if (MaxAttempts > 1) {
        // Retries exhausted on a transient failure: record durably as
        // skipped and let the campaign continue.
        R.Skipped = true;
        ++T.Instances;
        ++T.Skipped;
        std::printf("SKIP %s after %u attempt(s): %s\n", Inst.Name.c_str(),
                    Attempt, E.what());
        return true;
      }
      throw; // retry disabled: preserve the structural-exit behavior
    }
  }
  ++T.Instances;
  T.LegRuns += V.Runs.size();
  R.Legs = V.Runs.size();
  if (V.Ok)
    return true;

  ++T.Divergences;
  R.Diverged = true;
  std::printf("DIVERGENCE %s\n  %s\n", Inst.Name.c_str(),
              V.Mismatch.c_str());
  if (!Cli.Minimize)
    return false;

  MinimizeResult M = minimizeSpec(Inst.Spec, Cli.Oracle);
  std::printf("  minimized: n=%u e=%zu after %u oracle runs, %u moves\n",
              M.Final.NumNodes, M.Final.Edges.size(), M.OracleRuns,
              M.MovesApplied);
  std::error_code EC;
  std::filesystem::create_directories(Cli.ArtifactDir, EC);
  char SeedHex[32];
  std::snprintf(SeedHex, sizeof(SeedHex), "%016llx",
                static_cast<unsigned long long>(Inst.Spec.Seed));
  std::string Path = Cli.ArtifactDir + "/repro_" +
                     policyKindName(M.Final.Policy) + "_" + SeedHex + ".nv";
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  Out << corpusFileText(M.Instance, "minimized repro; diverged: " +
                                        M.Verdict.Mismatch.substr(0, 200));
  std::printf("  wrote %s\n", Path.c_str());
  T.ReproFiles.push_back(Path);
  R.ReproFile = Path;
  return false;
}

bool writeJson(const std::string &Path, const RunTally &T, double Ms) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  // No "replayed"/"retries" fields: a resumed run's summary must be
  // byte-identical to an uninterrupted one (modulo the _ms timing field).
  Out << "{\n  \"instances\": " << T.Instances
      << ",\n  \"divergences\": " << T.Divergences
      << ",\n  \"engine_runs\": " << T.LegRuns
      << ",\n  \"skipped\": " << T.Skipped << ",\n  \"elapsed_ms\": "
      << static_cast<uint64_t>(Ms) << ",\n  \"repros\": [";
  for (size_t I = 0; I < T.ReproFiles.size(); ++I)
    Out << (I ? ", " : "") << Json(T.ReproFiles[I]).dump();
  Out << "]\n}\n";
  return true;
}

//===----------------------------------------------------------------------===//
// Campaign worker fleet (--workers N / hidden --fleet-worker)
//===----------------------------------------------------------------------===//

/// The worker half: each job's spec is the instance seed in hex (keys stay
/// "i<I>", but the seed travels so the worker needs no --seed/--start
/// flags). Handler exceptions — an EngineError escaping the oracle's
/// per-leg catches — kill the worker on purpose: the coordinator requeues
/// the instance and, if it keeps killing workers, quarantines it with a
/// repro script instead of ending the campaign.
int fuzzFleetWorker(const FuzzCli &Cli) {
  return runFleetWorker([&](const FleetJob &J) -> UnitRecord {
    uint64_t Seed = std::strtoull(J.Spec.c_str(), nullptr, 16);
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Seed, Diags);
    if (Inst.NvSource.empty()) {
      // Mirror the in-process campaign: print the generator error, count
      // it as a divergence at the coordinator, and do NOT journal it
      // (generation is deterministic, so a resumed run re-counts it).
      std::printf("GENERATOR ERROR seed=0x%016llx:\n%s",
                  static_cast<unsigned long long>(Seed), Diags.str().c_str());
      UnitRecord Rec;
      Rec.Key = J.Key;
      Rec.addInt("gen_error", 1);
      return Rec;
    }
    RunTally T; // worker-local; the coordinator tallies from the record
    InstanceResult R;
    runOne(Inst, Cli, T, R);
    return makeInstanceRecord(J.Key, Inst.Name, R);
  });
}

/// The coordinator half of a fleet campaign: jobs are generated lazily
/// (so --time-budget works — the source dries up when the clock runs
/// out), journal-replayed instances are skipped at generation time, and
/// results are tallied and journaled as they land. Worker stdout is
/// inherited, so DIVERGENCE/SKIP/minimizer lines print exactly as they
/// do in-process (interleaved across workers).
int campaignFleet(FuzzCli &Cli, ResumeLog *Log, CancelToken &Cancel,
                  RunTally &T, Stopwatch &W) {
  FleetOptions FO;
  FO.Workers = Cli.Workers;
  FO.WorkerArgv = {getExecutablePath(), "--fleet-worker"};
  if (Cli.Oracle.Threads != 1) {
    FO.WorkerArgv.push_back("--threads");
    FO.WorkerArgv.push_back(std::to_string(Cli.Oracle.Threads));
  }
  if (!Cli.Oracle.EnableSmt)
    FO.WorkerArgv.push_back("--no-smt");
  if (!Cli.Oracle.EnableFt)
    FO.WorkerArgv.push_back("--no-ft");
  if (!Cli.Oracle.EnableNaive)
    FO.WorkerArgv.push_back("--no-naive");
  if (Cli.Oracle.InjectBugForTesting)
    FO.WorkerArgv.push_back("--inject-bug-for-testing");
  if (Cli.Minimize)
    FO.WorkerArgv.push_back("--minimize");
  if (Cli.Retry != 1) {
    FO.WorkerArgv.push_back("--retry");
    FO.WorkerArgv.push_back(std::to_string(Cli.Retry));
  }
  FO.WorkerArgv.push_back("--artifact-dir");
  FO.WorkerArgv.push_back(Cli.ArtifactDir);
  FO.QuarantineDir = Cli.ArtifactDir; // repro scripts live with the corpus
  FO.Cancel = &Cancel;
  applyFleetEnvOverrides(FO);

  uint64_t I = Cli.Start;
  auto Next = [&](FleetJob &J) {
    for (;;) {
      if (Cli.TimeBudgetSec) {
        if (W.elapsedMs() >= Cli.TimeBudgetSec * 1000.0)
          return false;
      } else if (I >= Cli.Start + Cli.Count) {
        return false;
      }
      uint64_t Idx = I++;
      std::string Key = "i";
      Key += std::to_string(Idx);
      if (Log) {
        UnitRecord Rec;
        if (Log->replay(Key, Rec) && replayInstance(Rec, T))
          continue; // already done in a previous run
      }
      char Hex[32];
      std::snprintf(Hex, sizeof(Hex), "%016llx",
                    static_cast<unsigned long long>(mixSeed(Cli.Seed, Idx)));
      J = {Key, Hex};
      return true;
    }
  };

  FleetCallbacks CB;
  CB.OnResult = [&](const UnitRecord &Rec) {
    if (Rec.get("gen_error")) {
      ++T.Divergences; // counted, never journaled (see fuzzFleetWorker)
      return;
    }
    RunOutcome O;
    unsigned Attempts = 1;
    if (parseOutcome(Rec, O, Attempts) && !O.ok()) {
      // A quarantined instance: journal it as a durable skip (plus the
      // repro script path), so any resume — fleet or in-process — replays
      // it as skipped instead of re-running the crasher.
      ++T.Instances;
      ++T.Skipped;
      InstanceResult R;
      R.Skipped = true;
      R.Attempts = Attempts;
      if (const std::string *Repro = Rec.get("repro")) {
        R.ReproFile = *Repro;
        T.ReproFiles.push_back(*Repro);
      }
      std::printf("SKIP %s: %s\n", Rec.Key.c_str(), O.str().c_str());
      if (Log)
        recordInstance(*Log, Rec.Key, Rec.Key, R);
      return;
    }
    // A normal instance record: tally exactly what replayInstance would,
    // minus the replayed count (the worker already printed any
    // DIVERGENCE/SKIP lines to the shared stdout).
    ++T.Instances;
    if (const std::string *S = Rec.get("skip"); S && *S == "1")
      ++T.Skipped;
    if (const std::string *Legs = Rec.get("legs"))
      T.LegRuns += std::strtoull(Legs->c_str(), nullptr, 10);
    if (const std::string *Div = Rec.get("div"); Div && *Div == "1")
      ++T.Divergences;
    if (const std::string *Repro = Rec.get("repro"))
      T.ReproFiles.push_back(*Repro);
    if (const std::string *A = Rec.get("attempts"))
      if (unsigned N = unsigned(std::strtoul(A->c_str(), nullptr, 10)); N > 1)
        T.Retries += N - 1;
    if (Log)
      Log->recordDone(Rec);
  };

  FleetResult FR = runFleetDynamic(FO, Next, CB);
  if (!FR.Outcome.ok() && FR.Outcome.Status != RunStatus::Canceled) {
    std::fprintf(stderr, "nv-fuzz: fleet run failed: %s\n",
                 FR.Outcome.str().c_str());
    return exitCodeForOutcome(FR.Outcome);
  }
  std::printf("fleet: %s\n", FR.Stats.str().c_str());
  return 0; // fuzzMain prints the summary and derives the exit code
}

int replay(FuzzCli &Cli) {
  std::vector<std::string> Files;
  if (std::filesystem::is_directory(Cli.ReplayPath))
    Files = listCorpusFiles(Cli.ReplayPath);
  else
    Files.push_back(Cli.ReplayPath);
  if (Files.empty()) {
    std::fprintf(stderr, "no corpus files under %s\n",
                 Cli.ReplayPath.c_str());
    return 2;
  }

  std::unique_ptr<ResumeLog> Log;
  int Ec = 0;
  if (!openFuzzResume(Cli, "replay", Log, Ec))
    return Ec;

  CancelToken Cancel;
  GracefulShutdown Shutdown(Cancel);
  Cli.Oracle.Cancel = &Cancel;

  RunTally T;
  Stopwatch W;
  bool AllOk = true;
  for (const std::string &F : Files) {
    if (Cancel.isCanceled())
      break;
    if (Log) {
      // Journal key for replay mode is the corpus file path itself.
      UnitRecord Rec;
      if (Log->replay(F, Rec) && replayInstance(Rec, T)) {
        const std::string *Div = Rec.get("div");
        bool Ok = !Div || *Div != "1";
        std::printf("%-60s %s\n", F.c_str(),
                    Ok ? "ok (journal)" : "DIVERGED (journal)");
        AllOk = AllOk && Ok;
        continue;
      }
    }
    auto Inst = loadCorpusFile(F);
    if (!Inst)
      return 2;
    InstanceResult R;
    bool Ok = runOne(*Inst, Cli, T, R);
    if (Cancel.isCanceled())
      break; // legs drained via cancellation: not a completed unit
    if (Log)
      recordInstance(*Log, F, Inst->Name, R);
    std::printf("%-60s %s\n", F.c_str(), Ok ? "ok" : "DIVERGED");
    AllOk = AllOk && Ok;
  }
  std::printf("replayed %llu corpus instances, %llu divergences\n",
              static_cast<unsigned long long>(T.Instances),
              static_cast<unsigned long long>(T.Divergences));
  if (!Cli.JsonPath.empty() && !writeJson(Cli.JsonPath, T, W.elapsedMs()))
    return 2;
  if (Shutdown.triggered()) {
    std::fprintf(stderr,
                 "nv-fuzz: replay interrupted; %zu completed instance(s) "
                 "journaled\n",
                 Log ? Log->entryCount() : size_t(0));
    return 3;
  }
  return AllOk ? 0 : 1;
}

int fuzzMain(int argc, char **argv) {
  auto Cli = parseCli(argc, argv);
  if (!Cli)
    return usage();

  if (Cli->FleetWorker)
    // Before any signal plumbing: the coordinator owns this process's
    // lifecycle (SIGTERM/SIGKILL), so dispositions stay at their defaults.
    return fuzzFleetWorker(*Cli);

  if (Cli->Emit) {
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Cli->EmitSeed, Diags);
    if (Inst.NvSource.empty()) {
      std::fprintf(stderr, "generator failed:\n%s", Diags.str().c_str());
      return 2;
    }
    std::printf("%s", corpusFileText(
                          Inst, "generator-produced regression instance")
                          .c_str());
    return 0;
  }
  if (!Cli->ReplayPath.empty())
    return replay(*Cli);

  std::unique_ptr<ResumeLog> Log;
  int Ec = 0;
  if (!openFuzzResume(*Cli, "campaign", Log, Ec))
    return Ec;

  CancelToken Cancel;
  GracefulShutdown Shutdown(Cancel);
  Cli->Oracle.Cancel = &Cancel;

  RunTally T;
  Stopwatch W;
  if (Cli->Workers > 0) {
    if (int FleetEc = campaignFleet(*Cli, Log.get(), Cancel, T, W))
      return FleetEc;
  } else
  for (uint64_t I = Cli->Start;; ++I) {
    if (Cancel.isCanceled())
      break;
    if (Cli->TimeBudgetSec) {
      if (W.elapsedMs() >= Cli->TimeBudgetSec * 1000.0)
        break;
    } else if (I >= Cli->Start + Cli->Count) {
      break;
    }
    std::string Key = "i";
    Key += std::to_string(I);
    if (Log) {
      UnitRecord Rec;
      if (Log->replay(Key, Rec) && replayInstance(Rec, T))
        continue;
    }
    uint64_t Seed = mixSeed(Cli->Seed, I);
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Seed, Diags);
    if (Inst.NvSource.empty()) {
      // Not journaled: generation is deterministic, so a resumed run
      // reproduces (and re-counts) the same generator error.
      std::printf("GENERATOR ERROR seed=0x%016llx:\n%s",
                  static_cast<unsigned long long>(Seed),
                  Diags.str().c_str());
      ++T.Divergences;
      continue;
    }
    InstanceResult R;
    runOne(Inst, *Cli, T, R);
    if (Cancel.isCanceled())
      break; // legs drained via cancellation: not a completed unit
    if (Log)
      recordInstance(*Log, Key, Inst.Name, R);
    if ((I + 1) % 100 == 0)
      std::printf("[%llu] %llu instances, %llu divergences, %.1fs\n",
                  static_cast<unsigned long long>(I + 1),
                  static_cast<unsigned long long>(T.Instances),
                  static_cast<unsigned long long>(T.Divergences),
                  W.elapsedMs() / 1000.0);
  }
  std::printf("%llu instances (%llu replayed, %llu skipped, %llu retries), "
              "%llu engine runs, %llu divergences, %.1fs\n",
              static_cast<unsigned long long>(T.Instances),
              static_cast<unsigned long long>(T.Replayed),
              static_cast<unsigned long long>(T.Skipped),
              static_cast<unsigned long long>(T.Retries),
              static_cast<unsigned long long>(T.LegRuns),
              static_cast<unsigned long long>(T.Divergences),
              W.elapsedMs() / 1000.0);
  if (!Cli->JsonPath.empty() && !writeJson(Cli->JsonPath, T, W.elapsedMs()))
    return 2;
  if (Shutdown.triggered()) {
    std::fprintf(stderr,
                 "nv-fuzz: campaign interrupted; %zu completed instance(s) "
                 "journaled\n",
                 Log ? Log->entryCount() : size_t(0));
    return 3;
  }
  return T.Divergences ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return fuzzMain(argc, argv);
  } catch (const EngineError &E) {
    // The oracle catches per-leg EngineErrors; one escaping here means it
    // fired outside any engine (e.g. an injected fault during instance
    // generation). Exit structurally rather than aborting.
    std::fprintf(stderr, "nv-fuzz: %s\n", E.what());
    return exitCodeForOutcome(E.outcome());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "nv-fuzz: internal error: %s\n", E.what());
    return 4;
  }
}
