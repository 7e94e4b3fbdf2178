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
//   --resume PATH        checkpoint journal: completed instances are
//                        replayed (divergence tallies included) and each
//                        newly completed instance is recorded durably
//   --workers N          run instances on N crash-isolated worker
//                        subprocesses (support/Fleet.h), which re-exec
//                        this binary with the same flags. A crashing
//                        instance requeues; one that kills several workers
//                        is quarantined (recorded as skipped, with a
//                        runnable repro script in the artifact dir)
//   --retry N            attempts per instance when an EngineError with a
//                        transient outcome escapes the oracle's per-leg
//                        catches; an instance whose last attempt still
//                        fails is recorded as skipped
//   --threads N          thread count for the N-thread oracle legs
//   --no-smt/--no-ft/--no-naive   disable oracle legs
//   --json PATH          machine-readable summary
//
// Every mode runs its instances as units of the unit runner
// (support/Units.h): campaign instance I is unit "i<I>", corpus file I (in
// sorted order) is unit "r<I>". The executor is this process or, with
// --workers, a fleet; the two write the same records, so a journal from
// either resumes on the other.
//
// SIGINT/SIGTERM trigger graceful shutdown: the in-flight instance drains
// through its engines' safe points, the journal keeps every completed
// instance, and the run exits with code 3.
//
// Determinism: instance i of a run is seed-derived via mixSeed(S, i) —
// the same --seed/--count always replays the same instances and reaches
// the same verdicts (--time-budget trades this for wall-clock coverage).
//
// Exit codes (shared scheme with the nv CLI):
//   0  all instances agree
//   1  divergence found (a generator error counts as one)
//   2  usage or I/O error
//   3  canceled by SIGINT/SIGTERM
//   4  internal error (the fleet could not keep workers alive, ...)
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/InstanceGen.h"
#include "fuzz/Minimize.h"
#include "fuzz/Oracle.h"
#include "fuzz/Rng.h"
#include "support/Governor.h"
#include "support/Journal.h"
#include "support/Json.h"
#include "support/ParseNumber.h"
#include "support/Subprocess.h"
#include "support/Timer.h"
#include "support/Units.h"

#include <algorithm>
#include <cstdint>
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
  unsigned Workers = 0;    ///< Fleet size (0 = in-process).
  bool FleetWorker = false; ///< Hidden: serve instances over fleet pipes.
  bool Emit = false;
  uint64_t EmitSeed = 0;
  OracleOptions Oracle;
  std::vector<std::string> Flags; ///< argv[1..], a fleet worker's flags.
};

std::optional<FuzzCli> parseCli(int argc, char **argv) {
  FuzzCli O;
  O.Flags.assign(argv + 1, argv + argc);
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

/// What one instance contributed: the fields of its unit record.
struct InstanceSlot {
  bool GenError = false; ///< The generator failed; nothing else is set.
  std::string Name;
  bool Diverged = false;
  uint64_t Legs = 0;
  std::string Repro;
};

bool replayMode(const FuzzCli &Cli) { return !Cli.ReplayPath.empty(); }

/// All of the run's units. Replay unit I ("r<I>") is the I-th corpus file;
/// campaign instance I ("i<I>") is generated from mixSeed(Seed, I), and a
/// time-budgeted campaign has no end. Each attempt is retried per --retry
/// and stops at \p Cancel.
UnitSweep fuzzSweep(const FuzzCli &Cli, size_t CorpusSize, ResumeLog *Log,
                    CancelToken *Cancel) {
  UnitSweep S;
  if (replayMode(Cli)) {
    S.Prefix = 'r';
    S.Count = CorpusSize;
  } else {
    S.Prefix = 'i';
    S.Begin = Cli.Start;
    S.Count = SIZE_MAX - Cli.Start;
    if (!Cli.TimeBudgetSec)
      S.Count = std::min<uint64_t>(Cli.Count, S.Count);
  }
  S.Budget.Cancel = Cancel;
  S.Retry.MaxAttempts = Cli.Retry;
  S.Journal = Log;
  return S;
}

/// The journal header: everything that determines per-instance verdicts.
/// Thread count, worker count and wall-clock budget are provenance —
/// verdicts are invariant under them, so an interrupted campaign may
/// resume with different parallelism, in process or on a fleet.
RunBinding fuzzBinding(const FuzzCli &Cli,
                       const std::vector<std::string> &Files) {
  RunBinding B;
  B.set("tool", "nv-fuzz");
  // Records carry the unit runner's outcome fields (format 1 had a skip
  // flag instead), so a format-1 journal is refused, not misread.
  B.setInt("record-format", 2);
  if (replayMode(Cli)) {
    B.set("mode", "replay");
    B.set("replay-root", Cli.ReplayPath);
    // Unit r<I> is the I-th file: another file list must not replay.
    std::string List;
    for (const std::string &F : Files)
      List += F + "\n";
    B.set("corpus", std::to_string(Files.size()) + " files, list " +
                        fnv1a64Hex(List));
  } else {
    B.set("mode", "campaign");
    B.setInt("seed", static_cast<long long>(Cli.Seed));
    B.setInt("start", static_cast<long long>(Cli.Start));
    if (Cli.TimeBudgetSec)
      B.set("count", "time-budget");
    else
      B.setInt("count", static_cast<long long>(Cli.Count));
  }
  B.setInt("smt", Cli.Oracle.EnableSmt);
  B.setInt("ft", Cli.Oracle.EnableFt);
  B.setInt("naive", Cli.Oracle.EnableNaive);
  B.setInt("inject-bug", Cli.Oracle.InjectBugForTesting);
  B.setInt("retry", Cli.Retry);
  B.setProvenance("workers", std::to_string(Cli.Workers));
  B.setProvenance("threads", std::to_string(Cli.Oracle.Threads));
  if (Cli.TimeBudgetSec)
    B.setProvenance("time-budget-sec", std::to_string(Cli.TimeBudgetSec));
  return B;
}

/// Shrinks a diverging instance and writes the corpus repro under the
/// artifact directory; returns its path ("" when it cannot be written).
std::string writeMinimizedRepro(const FuzzInstance &Inst, const FuzzCli &Cli) {
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
    return "";
  }
  Out << corpusFileText(M.Instance, "minimized repro; diverged: " +
                                        M.Verdict.Mismatch.substr(0, 200));
  std::printf("  wrote %s\n", Path.c_str());
  return Path;
}

/// A worker running unit I's instance through the oracle into Slot(I) and
/// printing its live lines (GENERATOR ERROR, DIVERGENCE, the minimizer's).
/// A divergence is an ok unit; so is a generator error, which recurs on
/// every run (generation is deterministic). An instance whose oracle was
/// canceled is Canceled, so it is not journaled and re-runs on resume.
UnitWorker instanceWorker(const FuzzCli &Cli,
                          const std::vector<FuzzInstance> &Corpus, char Prefix,
                          std::function<InstanceSlot &(size_t)> Slot) {
  UnitWorker W;
  W.Run = [&Cli, &Corpus, Slot](size_t I) -> RunOutcome {
    InstanceSlot &S = Slot(I);
    S = {};
    DiagnosticEngine Diags;
    FuzzInstance Inst;
    if (replayMode(Cli)) {
      Inst = Corpus[I];
    } else {
      uint64_t Seed = mixSeed(Cli.Seed, I);
      Inst = instanceFromSeed(Seed, Diags);
      if (Inst.NvSource.empty()) {
        std::printf("GENERATOR ERROR seed=0x%016llx:\n%s",
                    static_cast<unsigned long long>(Seed),
                    Diags.str().c_str());
        S.GenError = true;
        return {};
      }
    }
    OracleVerdict V = runOracle(Inst, Cli.Oracle, Diags);
    S.Name = Inst.Name;
    S.Legs = V.Runs.size();
    S.Diverged = !V.Ok;
    if (S.Diverged) {
      std::printf("DIVERGENCE %s\n  %s\n", Inst.Name.c_str(),
                  V.Mismatch.c_str());
      if (Cli.Minimize)
        S.Repro = writeMinimizedRepro(Inst, Cli);
    }
    // Canceled legs fingerprint as skips: the verdict is incomplete.
    if (Cli.Oracle.Cancel && Cli.Oracle.Cancel->isCanceled())
      return {RunStatus::Canceled, "cancellation requested", ""};
    return {};
  };
  W.Render = [Prefix, Slot](size_t I, unsigned Attempts) {
    const InstanceSlot &S = Slot(I);
    UnitRecord Rec;
    Rec.Key = unitKey(Prefix, I);
    addOutcome(Rec, RunOutcome(), Attempts);
    if (S.GenError) {
      Rec.addInt("gen_error", 1);
      return Rec;
    }
    Rec.add("name", S.Name);
    Rec.addInt("div", S.Diverged);
    Rec.addInt("legs", static_cast<long long>(S.Legs));
    if (!S.Repro.empty())
      Rec.add("repro", S.Repro);
    return Rec;
  };
  return W;
}

/// Restores an ok instance record into \p S; false when it is malformed.
bool restoreInstance(const UnitRecord &Rec, InstanceSlot &S) {
  S = {};
  if (const std::string *Gen = Rec.get("gen_error"))
    return S.GenError = *Gen == "1";
  const std::string *Name = Rec.get("name");
  const std::string *Div = Rec.get("div");
  const std::string *Legs = Rec.get("legs");
  unsigned D = 0;
  if (!Name || !Div || !Legs || !parseInteger(*Div, D) || D > 1 ||
      !parseInteger(*Legs, S.Legs))
    return false;
  S.Name = *Name;
  S.Diverged = D;
  if (const std::string *Repro = Rec.get("repro"))
    S.Repro = *Repro;
  return true;
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

/// The hidden --fleet-worker mode: serves the run's units over the fleet
/// pipes (see support/Fleet.h). Its argv is the coordinator's own flags,
/// so it derives every instance exactly as the coordinator would.
int fuzzFleetWorker(const FuzzCli &Cli,
                    const std::vector<FuzzInstance> &Corpus) {
  UnitSweep S = fuzzSweep(Cli, Corpus.size(), nullptr, nullptr);
  InstanceSlot Slot;
  UnitWorker W = instanceWorker(Cli, Corpus, S.Prefix,
                                [&](size_t) -> InstanceSlot & { return Slot; });
  return serveFleetUnits(S, [&](size_t I) { return runUnitRecord(S, W, I); });
}

/// Units per fleet worker in one round of a fleet run: enough to amortize
/// the round's worker spawns, few enough to stop near a time budget.
constexpr size_t FleetRoundPerWorker = 32;

/// Runs the campaign or corpus replay as rounds of unit-runner sweeps —
/// one instance per round in process, FleetRoundPerWorker per worker on a
/// fleet — folding each round into the tally in unit order, so memory is
/// bounded by the round and the time budget is checked between rounds.
int runSweep(FuzzCli &Cli, const std::vector<std::string> &Files,
             const std::vector<FuzzInstance> &Corpus) {
  std::unique_ptr<ResumeLog> Log;
  if (!Cli.ResumePath.empty()) {
    ResumeLog::OpenResult R =
        ResumeLog::open(Cli.ResumePath, fuzzBinding(Cli, Files));
    if (!R.Log) {
      std::fprintf(stderr, "nv-fuzz: %s\n", R.Error.c_str());
      return 2;
    }
    Log = std::move(R.Log);
    if (Log->tornTailDropped())
      std::fprintf(stderr,
                   "nv-fuzz: note: dropped a torn trailing journal entry "
                   "(interrupted mid-write); that instance will re-run\n");
    if (Log->replayedCount())
      std::printf("resuming from %s: %zu completed instance(s) replayed\n",
                  Log->path().c_str(), Log->replayedCount());
  }

  CancelToken Cancel;
  GracefulShutdown Shutdown(Cancel);
  Cli.Oracle.Cancel = &Cancel;
  const UnitSweep All = fuzzSweep(Cli, Corpus.size(), Log.get(), &Cancel);

  UnitExecutor X;
  FleetStats Fleet;
  RunOutcome FleetFailure;
  if (Cli.Workers) {
    FleetOptions FO;
    FO.Workers = Cli.Workers;
    FO.WorkerArgv = {getExecutablePath(), "--fleet-worker"};
    FO.WorkerArgv.insert(FO.WorkerArgv.end(), Cli.Flags.begin(),
                         Cli.Flags.end());
    FO.QuarantineDir = Cli.ArtifactDir; // repro scripts live with the corpus
    FO.Cancel = &Cancel;
    applyFleetEnvOverrides(FO);
    X.Fleet = std::move(FO);
    X.OnFleetDone = [&](const FleetResult &FR) {
      Fleet += FR.Stats;
      if (!FR.Outcome.ok() && FR.Outcome.Status != RunStatus::Canceled)
        FleetFailure = FR.Outcome;
    };
  }
  const size_t Round = Cli.Workers ? Cli.Workers * FleetRoundPerWorker : 1;

  RunTally T;
  Stopwatch W;
  // Adds unit I to the tally, printing the lines the run prints for it
  // beyond the worker's live ones. False at a canceled unit: it and the
  // units after it are not part of this run.
  auto Fold = [&](size_t I, const UnitResult &U, const InstanceSlot &S) {
    const char *Journal = U.Replayed ? " (replayed from journal)" : "";
    if (U.Outcome.Status == RunStatus::Canceled)
      return false;
    if (!U.Outcome.ok()) {
      ++T.Instances;
      ++T.Skipped;
      std::printf("SKIP %s: %s%s\n", unitKey(All.Prefix, I).c_str(),
                  U.Outcome.str().c_str(), Journal);
    } else if (S.GenError) {
      ++T.Divergences; // counted, but not an instance
      if (U.Replayed)
        std::printf("GENERATOR ERROR seed=0x%016llx%s\n",
                    static_cast<unsigned long long>(mixSeed(Cli.Seed, I)),
                    Journal);
    } else {
      ++T.Instances;
      T.LegRuns += S.Legs;
      T.Divergences += S.Diverged;
      if (S.Diverged && U.Replayed)
        std::printf("DIVERGENCE %s%s\n", S.Name.c_str(), Journal);
      if (!S.Repro.empty())
        T.ReproFiles.push_back(S.Repro);
    }
    if (replayMode(Cli))
      std::printf("%-60s %s%s\n", Files[I].c_str(),
                  !U.Outcome.ok() ? "skipped"
                  : S.Diverged    ? "DIVERGED"
                                  : "ok",
                  U.Replayed ? " (journal)" : "");
    else if ((I + 1) % 100 == 0)
      std::printf("[%llu] %llu instances, %llu divergences, %.1fs\n",
                  static_cast<unsigned long long>(I + 1),
                  static_cast<unsigned long long>(T.Instances),
                  static_cast<unsigned long long>(T.Divergences),
                  W.elapsedMs() / 1000.0);
    return true;
  };

  std::vector<InstanceSlot> Slots;
  for (size_t Done = 0; Done < All.Count && !Cancel.isCanceled();) {
    if (Cli.TimeBudgetSec && W.elapsedMs() >= Cli.TimeBudgetSec * 1000.0)
      break;
    UnitSweep S = All;
    S.Begin = All.Begin + Done;
    S.Count = std::min(Round, All.Count - Done);
    Slots.assign(S.Count, {});
    auto Slot = [&Slots, B = S.Begin](size_t I) -> InstanceSlot & {
      return Slots[I - B];
    };
    S.Restore = [Slot](size_t I, const UnitRecord &Rec) {
      return restoreInstance(Rec, Slot(I));
    };
    if (X.Fleet)
      std::fflush(stdout); // our lines first, then the workers'
    UnitsResult U = runUnits(S, X, [&](const auto &Serve) {
      UnitWorker Wk = instanceWorker(Cli, Corpus, S.Prefix, Slot);
      Serve(Wk);
    });
    if (!FleetFailure.ok()) {
      std::fprintf(stderr, "nv-fuzz: fleet run failed: %s\n",
                   FleetFailure.str().c_str());
      return exitCodeForOutcome(FleetFailure);
    }
    T.Replayed += U.Replayed;
    T.Retries += U.Retries;
    for (size_t K = 0; K < S.Count; ++K)
      if (!Fold(S.Begin + K, U.Units[K], Slots[K]))
        break;
    Done += S.Count;
  }

  if (replayMode(Cli))
    std::printf("replayed %llu corpus instances, %llu divergences\n",
                static_cast<unsigned long long>(T.Instances),
                static_cast<unsigned long long>(T.Divergences));
  else
    std::printf(
        "%llu instances (%llu replayed, %llu skipped, %llu retries), "
        "%llu engine runs, %llu divergences, %.1fs\n",
        static_cast<unsigned long long>(T.Instances),
        static_cast<unsigned long long>(T.Replayed),
        static_cast<unsigned long long>(T.Skipped),
        static_cast<unsigned long long>(T.Retries),
        static_cast<unsigned long long>(T.LegRuns),
        static_cast<unsigned long long>(T.Divergences),
        W.elapsedMs() / 1000.0);
  if (Cli.Workers)
    std::printf("fleet: %s\n", Fleet.str().c_str());
  if (!Cli.JsonPath.empty() && !writeJson(Cli.JsonPath, T, W.elapsedMs()))
    return 2;
  if (Shutdown.triggered()) {
    std::fprintf(stderr,
                 "nv-fuzz: %s interrupted; %zu completed instance(s) "
                 "journaled\n",
                 replayMode(Cli) ? "replay" : "campaign",
                 Log ? Log->entryCount() : size_t(0));
    return 3;
  }
  return T.Divergences ? 1 : 0;
}

int fuzzMain(int argc, char **argv) {
  auto Cli = parseCli(argc, argv);
  if (!Cli)
    return usage();

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

  std::vector<std::string> Files;
  std::vector<FuzzInstance> Corpus;
  if (replayMode(*Cli)) {
    if (std::filesystem::is_directory(Cli->ReplayPath))
      Files = listCorpusFiles(Cli->ReplayPath);
    else
      Files.push_back(Cli->ReplayPath);
    if (Files.empty()) {
      std::fprintf(stderr, "no corpus files under %s\n",
                   Cli->ReplayPath.c_str());
      return 2;
    }
    for (const std::string &F : Files) {
      std::optional<FuzzInstance> Inst = loadCorpusFile(F);
      if (!Inst)
        return 2;
      Corpus.push_back(std::move(*Inst));
    }
  }

  if (Cli->FleetWorker)
    // Before any signal plumbing: the coordinator owns this process's
    // lifecycle (SIGTERM/SIGKILL), so dispositions stay at their defaults.
    return fuzzFleetWorker(*Cli, Corpus);
  return runSweep(*Cli, Files, Corpus);
}

} // namespace

int main(int argc, char **argv) {
  try {
    return fuzzMain(argc, argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "nv-fuzz: internal error: %s\n", E.what());
    return 4;
  }
}
