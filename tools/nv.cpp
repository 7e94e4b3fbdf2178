//===- nv.cpp - The nv command-line driver ------------------------------------===//
//
// Part of nv-cpp. A command-line front end over the library:
//
//   nv check  FILE.nv                 parse + type check, print summary
//   nv print  FILE.nv                 pretty-print the parsed program
//   nv sim    FILE.nv [opts]          simulate to a stable state (Alg. 1)
//   nv verify FILE.nv [opts]          SMT-verify the assert over all
//                                     stable states / symbolic values
//   nv ft     FILE.nv [opts]          fault-tolerance meta-analysis (Fig. 5)
//   nv naive  FILE.nv [opts]          naive per-scenario failure sweep
//                                     (sharded, checkpointable)
//   nv journal FILE.journal           inspect a checkpoint journal
//   nv serve  SOCKET [opts]           long-lived verification daemon on a
//                                     Unix socket (newline-delimited JSON);
//                                     --threads N, --journal PATH (request
//                                     crash log), --max-sessions N
//   nv req    SOCKET [JSON...]        send request(s) to a daemon; with no
//                                     arguments, reads one request per
//                                     stdin line (scripted session); exits
//                                     with the last response's code
//
// Common options:
//   --native            use the closure-compiled evaluator (sim/ft)
//   --sym NAME=EXPR     bind a symbolic to a concrete NV expression (sim/ft)
//   --timeout SECS      SMT timeout (verify)
//   --baseline          MineSweeper-style encoder options (verify)
//   --links K           number of simultaneous link failures (ft/naive)
//   --node              also fail one node per scenario (ft/naive)
//   --threads N         worker threads for the sharded phases (ft/naive)
//   --deadline-ms MS    wall-clock budget for the run (sim/verify/ft/naive)
//   --node-budget N     MTBDD live-node budget (sim/ft/naive)
//   --max-steps N       simulator step (worklist-pop) budget (sim/ft/naive)
//   --resume PATH       checkpoint/resume journal (ft/naive): completed
//                       units replay, new completions append durably
//   --retry N           attempts per unit for transient trips (ft/naive)
//   --json PATH         machine-readable result (ft/naive)
//   --workers N         run the sharded units on N crash-isolated worker
//                       subprocesses (ft/naive; 0 = in-process, the
//                       default). A worker crash requeues its unit; a unit
//                       that kills several workers is quarantined with a
//                       runnable repro script and the run completes with
//                       exit code 3. Aggregates are bit-identical to
//                       --workers 0 for any N.
//   --chunk N           scenarios per check chunk (ft; default 512) — the
//                       journal/fleet unit of the assert check
//
// There is also a hidden `nv worker FILE --cmd <naive|ft> [opts]` verb:
// the fleet re-execs the current binary with that verb to obtain workers
// (job pipe on fd 3, result pipe on fd 4 — see support/Fleet.h).
//
// SIGINT/SIGTERM trigger graceful shutdown in sim/verify/ft/naive:
// in-flight jobs drain at their governor safe points, the journal is
// already durable per completed unit, and the exit code is 3.
//
// Exit codes:
//   0  success (property holds / command completed)
//   1  property falsified (failed assert, FT violations, counterexample)
//   2  user error (bad usage, parse/type/evaluation error, solver unknown,
//      corrupt or mismatched --resume journal)
//   3  resource exhausted (deadline, step/node budget, cancellation,
//      injected fault) — the run ended with a structured outcome, not a
//      verdict
//   4  internal error
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "serve/Supervisor.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "sim/Simulator.h"
#include "smt/Verifier.h"
#include "support/Fleet.h"
#include "support/Journal.h"
#include "support/Resume.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace nv;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nv <check|print|sim|verify|ft|naive|journal> FILE "
               "[options]\n"
               "       nv serve SOCKET [--threads N] [--journal PATH] "
               "[--max-sessions N]\n"
               "                [--max-inflight N] [--queue-depth N] "
               "[--heap-budget-mb N]\n"
               "                [--memo-cap N] [--idle-timeout-ms MS] "
               "[--max-line-bytes N]\n"
               "                [--supervise] [--restart-backoff-ms MS] "
               "[--restart-cap-ms MS]\n"
               "                [--max-restarts N]\n"
               "       nv req SOCKET [--timeout-ms MS] [--retries N] "
               "[JSON...]\n"
               "                (no JSON: one request per stdin line; "
               "exit 3 on timeout/overload)\n"
               "  --native  --sym NAME=EXPR  --timeout SECS  --baseline\n"
               "  --links K  --node  --threads N\n"
               "  --deadline-ms MS  --node-budget N  --max-steps N\n"
               "  --resume PATH  --retry N  --json PATH\n"
               "  --workers N (ft/naive: crash-isolated worker fleet; 0 = "
               "in-process)\n"
               "  --chunk N (ft: scenarios per check chunk, default 512)\n");
  return 2;
}

struct CliOptions {
  std::string Command;
  std::string File;
  bool Native = false;
  bool Baseline = false;
  bool NodeFailure = false;
  unsigned Links = 1;
  unsigned Threads = 1;
  unsigned TimeoutSec = 0;
  unsigned Retry = 1;
  unsigned Workers = 0;  ///< ft/naive: fleet size (0 = in-process).
  unsigned Chunk = FtOptions{}.CheckChunkSize; ///< ft: scenarios per chunk.
  std::string WorkerCmd; ///< hidden worker verb: which analysis to serve.
  double DeadlineMs = 0;
  uint64_t MaxSteps = 0;
  uint64_t NodeBudget = 0;
  std::string ResumePath;
  std::string JsonPath;
  CancelToken *Cancel = nullptr; ///< Set by main for the engine commands.
  std::vector<std::pair<std::string, std::string>> Syms;
  std::vector<std::string> Flags; ///< The option arguments, as given.

  /// Folds the governance flags into \p B (leaves unset knobs alone, so
  /// engine defaults like the simulator's step budget survive).
  void applyBudget(RunBudget &B) const {
    if (DeadlineMs > 0)
      B.DeadlineMs = DeadlineMs;
    if (MaxSteps > 0)
      B.MaxSteps = MaxSteps;
    if (NodeBudget > 0)
      B.MaxLiveNodes = static_cast<size_t>(NodeBudget);
    if (Cancel)
      B.Cancel = Cancel;
  }

  /// The journal binding of an ft/naive run: everything that changes the
  /// unit list or unit semantics. Thread count and file path are recorded
  /// as provenance only — results are thread-count-invariant by design,
  /// and the program content (not its path) is what binds.
  RunBinding binding(const std::string &ProgramText) const {
    RunBinding B;
    B.set("tool", "nv");
    B.set("command", Command);
    B.set("program", fnv1a64Hex(ProgramText));
    B.setInt("links", Links);
    B.setInt("node-failure", NodeFailure ? 1 : 0);
    B.setInt("native", Native ? 1 : 0);
    B.set("deadline-ms", std::to_string(DeadlineMs));
    B.setInt("max-steps", (long long)MaxSteps);
    B.setInt("node-budget", (long long)NodeBudget);
    B.setInt("retry", Retry);
    if (Command == "ft")
      B.setInt("chunk", Chunk); // chunking changes ft's unit list
    // Worker count deliberately does NOT bind: fleet and in-process runs
    // produce identical unit records, so their journals are interchangeable
    // (resume a crashed --workers 8 run with --workers 0, or vice versa).
    B.setProvenance("workers", std::to_string(Workers));
    B.setProvenance("threads", std::to_string(Threads));
    B.setProvenance("file", File);
    return B;
  }
};

/// Parses a whole decimal non-negative integer: "abc", "-1", "3x" and
/// out-of-range values are rejected, never read as 0 or wrapped.
bool parseUnsigned(const char *S, unsigned &Out) {
  const char *End = S + std::strlen(S);
  auto [Ptr, Ec] = std::from_chars(S, End, Out);
  return Ec == std::errc() && Ptr == End;
}

std::optional<CliOptions> parseCli(int argc, char **argv) {
  if (argc < 3)
    return std::nullopt;
  CliOptions O;
  O.Command = argv[1];
  O.File = argv[2];
  O.Flags.assign(argv + 3, argv + argc);
  for (int I = 3; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--native")) {
      O.Native = true;
    } else if (!std::strcmp(argv[I], "--baseline")) {
      O.Baseline = true;
    } else if (!std::strcmp(argv[I], "--node")) {
      O.NodeFailure = true;
    } else if (!std::strcmp(argv[I], "--links") && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], O.Links))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--threads") && I + 1 < argc) {
      O.Threads = static_cast<unsigned>(atoi(argv[++I]));
    } else if (!std::strcmp(argv[I], "--retry") && I + 1 < argc) {
      O.Retry = static_cast<unsigned>(atoi(argv[++I]));
    } else if (!std::strcmp(argv[I], "--workers") && I + 1 < argc) {
      O.Workers = static_cast<unsigned>(atoi(argv[++I]));
    } else if (!std::strcmp(argv[I], "--chunk") && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], O.Chunk) || O.Chunk == 0)
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--cmd") && I + 1 < argc) {
      O.WorkerCmd = argv[++I];
    } else if (!std::strcmp(argv[I], "--resume") && I + 1 < argc) {
      O.ResumePath = argv[++I];
    } else if (!std::strcmp(argv[I], "--json") && I + 1 < argc) {
      O.JsonPath = argv[++I];
    } else if (!std::strcmp(argv[I], "--timeout") && I + 1 < argc) {
      O.TimeoutSec = static_cast<unsigned>(atoi(argv[++I]));
    } else if (!std::strcmp(argv[I], "--deadline-ms") && I + 1 < argc) {
      O.DeadlineMs = atof(argv[++I]);
    } else if (!std::strcmp(argv[I], "--max-steps") && I + 1 < argc) {
      O.MaxSteps = strtoull(argv[++I], nullptr, 10);
    } else if (!std::strcmp(argv[I], "--node-budget") && I + 1 < argc) {
      O.NodeBudget = strtoull(argv[++I], nullptr, 10);
    } else if (!std::strcmp(argv[I], "--sym") && I + 1 < argc) {
      std::string Arg = argv[++I];
      size_t Eq = Arg.find('=');
      if (Eq == std::string::npos)
        return std::nullopt;
      O.Syms.emplace_back(Arg.substr(0, Eq), Arg.substr(Eq + 1));
    } else {
      return std::nullopt;
    }
  }
  return O;
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Resolves includes relative to the program's directory before falling
/// back to the built-in registry.
ParseOptions fileParseOptions(const std::string &Path) {
  std::string Dir = ".";
  size_t Slash = Path.rfind('/');
  if (Slash != std::string::npos)
    Dir = Path.substr(0, Slash);
  ParseOptions Opts;
  Opts.Resolver = [Dir](const std::string &Name) -> std::optional<std::string> {
    if (auto Src = readFile(Dir + "/" + Name + ".nv"))
      return Src;
    return std::nullopt;
  };
  return Opts;
}

SymbolicAssignment resolveSyms(NvContext &Ctx, const Program &P,
                               const CliOptions &O, bool &Ok) {
  SymbolicAssignment Out;
  Ok = true;
  InterpProgramEvaluator Boot(Ctx, P);
  for (const auto &[Name, Src] : O.Syms) {
    DiagnosticEngine Diags;
    ExprPtr E = parseExprString(Src, Diags);
    if (!E || !typeCheckExpr(E, Diags)) {
      std::fprintf(stderr, "bad --sym %s=%s:\n%s", Name.c_str(), Src.c_str(),
                   Diags.str().c_str());
      Ok = false;
      continue;
    }
    Out[Name] = Boot.evalUnderGlobals(E);
  }
  return Out;
}

int cmdSim(const Program &P, const CliOptions &O) {
  NvContext Ctx(P.numNodes());
  bool Ok = true;
  SymbolicAssignment Syms = resolveSyms(Ctx, P, O, Ok);
  if (!Ok)
    return 2;
  std::unique_ptr<ProtocolEvaluator> Eval;
  if (O.Native)
    Eval = std::make_unique<CompiledProgramEvaluator>(Ctx, P, Syms);
  else
    Eval = std::make_unique<InterpProgramEvaluator>(Ctx, P, Syms);
  if (!Eval->requiresHold())
    std::printf("warning: a require clause fails under this symbolic "
                "assignment\n");
  SimOptions SO;
  O.applyBudget(SO.Budget);
  SimResult R = simulate(P, *Eval, SO);
  if (!R.Converged) {
    std::printf("simulation did not converge (%llu steps): %s\n",
                static_cast<unsigned long long>(R.Stats.Pops),
                R.Outcome.str().c_str());
    return exitCodeForOutcome(R.Outcome);
  }
  for (uint32_t U = 0; U < P.numNodes(); ++U)
    std::printf("node %u: %s\n", U, Ctx.printValue(R.Labels[U]).c_str());
  if (P.assertDecl()) {
    auto Failed = checkAsserts(*Eval, R);
    if (Failed.empty()) {
      std::printf("assertion holds at every node\n");
    } else {
      std::printf("assertion FAILS at %zu node(s):", Failed.size());
      for (uint32_t U : Failed)
        std::printf(" %u", U);
      std::printf("\n");
      return 1;
    }
  }
  return 0;
}

int cmdVerify(const Program &P, const CliOptions &O) {
  DiagnosticEngine Diags;
  VerifyOptions Opts;
  Opts.TimeoutMs = O.TimeoutSec * 1000;
  O.applyBudget(Opts.Budget);
  if (O.Baseline) {
    Opts.Smt.ConstantFold = false;
    Opts.Smt.NameIntermediates = true;
    Opts.UseTacticPipeline = false;
  }
  VerifyResult R = verifyProgram(P, Opts, Diags);
  Diags.printToStderr();
  switch (R.Status) {
  case VerifyStatus::Verified:
    std::printf("verified (encode %.1fms, solve %.1fms, %llu assertions)\n",
                R.EncodeMs, R.SolveMs,
                static_cast<unsigned long long>(R.NumAssertions));
    return 0;
  case VerifyStatus::Falsified:
    std::printf("FALSIFIED (solve %.1fms); counterexample:\n%s", R.SolveMs,
                R.Counterexample.c_str());
    return 1;
  case VerifyStatus::Unknown:
    std::printf("unknown (solver incompleteness)\n");
    return 2;
  case VerifyStatus::ResourceExhausted:
    std::printf("resource exhausted: %s\n", R.Outcome.str().c_str());
    return 3;
  case VerifyStatus::EncodingError:
    return exitCodeForOutcome(R.Outcome);
  }
  return 4;
}

/// Opens the --resume journal, when one was requested, into \p Log and
/// \p Opts.Resume (bound to \p P's printed text). Returns false with
/// \p ExitCode set on failure: corruption or a binding mismatch is a user
/// error (2) per the exit-code table — never silently reused.
bool openResume(const CliOptions &O, const Program &P, FtOptions &Opts,
                std::unique_ptr<ResumeLog> &Log, int &ExitCode) {
  if (O.ResumePath.empty())
    return true;
  ResumeLog::OpenResult R =
      ResumeLog::open(O.ResumePath, O.binding(printProgram(P)));
  if (!R.Log) {
    std::fprintf(stderr, "nv: %s\n", R.Error.c_str());
    ExitCode = 2;
    return false;
  }
  Log = std::move(R.Log);
  Opts.Resume = Log.get();
  if (Log->tornTailDropped())
    std::fprintf(stderr,
                 "nv: note: %s ended mid-entry (interrupted write); the "
                 "torn entry was dropped and that unit re-runs\n",
                 Log->path().c_str());
  if (Log->replayedCount())
    std::printf("resuming from %s: %zu completed unit(s) replayed\n",
                Log->path().c_str(), Log->replayedCount());
  return true;
}

/// The ft/naive report tail: the first few violations, then the --json
/// record, then the exit code. Timing fields end in _ms so CI diffs can
/// strip exactly them; replayed/retry counts are excluded (provenance, not
/// payload).
int reportSweep(const CliOptions &O, const FtCheckResult &R,
                 const std::vector<std::pair<const char *, double>> &Ms) {
  for (size_t I = 0; I < std::min<size_t>(5, R.Violations.size()); ++I) {
    const FtViolation &V = R.Violations[I];
    std::printf("  %s: node %u selects %s\n", V.Scenario.str().c_str(),
                V.Node, V.routeStr().c_str());
  }
  if (!O.JsonPath.empty()) {
    std::ofstream Out(O.JsonPath);
    Out << "[\n  {\n"
        << "    \"bench\": \"" << O.Command << "\",\n"
        << "    \"network\": " << Json(O.File).dump() << ",\n"
        << "    \"links\": " << O.Links << ",\n"
        << "    \"node_failure\": " << (O.NodeFailure ? 1 : 0) << ",\n"
        << "    \"scenarios\": " << R.ScenariosChecked << ",\n"
        << "    \"skipped\": " << R.ScenariosSkipped << ",\n"
        << "    \"violations\": " << R.Violations.size() << ",\n"
        << "    \"violations_hash\": \"" << ftViolationsHash(R.Violations)
        << "\",\n"
        << "    \"outcome\": " << Json(R.Outcome.str()).dump();
    for (const auto &[Name, V] : Ms)
      Out << ",\n    \"" << Name << "\": " << V;
    Out << "\n  }\n]\n";
  }
  if (!R.Outcome.ok()) {
    // Skipped scenarios (budget trip, quarantined chunk, canceled check)
    // mean the sweep is incomplete: exit structurally, not with a verdict.
    std::printf("first non-ok outcome: %s\n", R.Outcome.str().c_str());
    if (int Code = exitCodeForOutcome(R.Outcome))
      return Code;
  }
  return R.holds() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Worker fleet (ft/naive --workers N)
//===----------------------------------------------------------------------===//

/// Builds ft/naive analysis options from the CLI flags. The fleet worker
/// MUST build these identically to the coordinator — unit semantics (and
/// so records) depend on them.
FtOptions ftOptionsFromCli(const CliOptions &O) {
  FtOptions Opts;
  Opts.LinkFailures = O.Links;
  Opts.NodeFailure = O.NodeFailure;
  O.applyBudget(Opts.Budget);
  Opts.Retry.MaxAttempts = O.Retry;
  Opts.CheckChunkSize = O.Chunk;
  Opts.Threads = O.Threads;
  return Opts;
}

/// The argv a fleet re-execs to obtain a worker: the hidden `worker` verb
/// plus the coordinator's own flags, so the worker parses exactly the
/// options its unit records depend on. It ignores the coordinator-side
/// ones (threads, journal, report, fleet size).
std::vector<std::string> fleetWorkerArgv(const CliOptions &O,
                                         const char *Cmd) {
  std::vector<std::string> A{getExecutablePath(), "worker", O.File, "--cmd",
                             Cmd};
  A.insert(A.end(), O.Flags.begin(), O.Flags.end());
  return A;
}

/// The hidden `nv worker FILE --cmd <naive|ft>` verb: serves that
/// analysis' job units over the fleet pipes (fd 3 jobs in, fd 4 results
/// out — see support/Fleet.h). Job handler exceptions kill the process by
/// design; the coordinator's requeue/quarantine machinery owns recovery.
int cmdWorker(const Program &P, const CliOptions &O) {
  FtOptions Opts = ftOptionsFromCli(O);

  if (O.WorkerCmd == "naive") {
    // One parse + evaluator + arena for the process lifetime; the handler
    // collects back to the pinned baseline between scenarios, mirroring
    // one persistent thread of naiveFaultToleranceParallel.
    FtScenarioSet Scenarios(P, Opts);
    NvContext Ctx(P.numNodes());
    InterpProgramEvaluator Eval(Ctx, P);
    const Value *Drop = defaultDropValue(Ctx, P.AttrType);
    Ctx.pinValue(Drop);
    return runFleetWorker([&](const FleetJob &J) -> UnitRecord {
      if (J.Key.size() < 2 || J.Key[0] != 's')
        throw std::runtime_error("naive worker: bad job key '" + J.Key + "'");
      size_t I = std::strtoull(J.Key.c_str() + 1, nullptr, 10);
      if (I >= Scenarios.size())
        throw std::runtime_error("naive worker: scenario " + J.Key +
                                 " out of range");
      return runNaiveScenarioRecord(P, Eval, Scenarios, I, Drop, Opts);
    });
  }

  if (O.WorkerCmd == "ft") {
    // The meta-simulation is rebuilt lazily on the first job — a spare
    // worker that never gets one costs nothing, and a respawned worker
    // only pays the cost when it actually has work. The coordinator ran
    // the same (deterministic) transform + simulation before spawning the
    // fleet, so a converged run is guaranteed here.
    std::optional<NvContext> Ctx;
    std::unique_ptr<PreparedFt> Prep;
    SimResult Sim;
    std::unique_ptr<FtChecker> Checker;
    auto Ensure = [&] {
      if (Checker)
        return;
      Governor::Scope Guard(Opts.Budget);
      DiagnosticEngine Diags;
      Ctx.emplace(P.numNodes());
      Prep = PreparedFt::create(*Ctx, P, Opts, O.Native, Diags);
      if (!Prep)
        throw std::runtime_error("ft worker: transform failed:\n" +
                                 Diags.str());
      Sim = Prep->simulate();
      if (!Sim.Converged)
        throw std::runtime_error("ft worker: meta-simulation did not "
                                 "converge: " +
                                 Sim.Outcome.str());
      Checker = std::make_unique<FtChecker>(*Ctx, P, Prep->baseEval(), Sim,
                                            Opts);
    };
    return runFleetWorker([&](const FleetJob &J) -> UnitRecord {
      if (J.Key.size() < 2 || J.Key[0] != 'c')
        throw std::runtime_error("ft worker: bad job key '" + J.Key + "'");
      Ensure();
      size_t C = std::strtoull(J.Key.c_str() + 1, nullptr, 10);
      if (C >= Checker->chunks().count())
        throw std::runtime_error("ft worker: chunk " + J.Key +
                                 " out of range");
      return Checker->checkChunk(C);
    });
  }

  std::fprintf(stderr, "nv: worker: unknown --cmd '%s'\n",
               O.WorkerCmd.c_str());
  return 2;
}

/// Shared fleet-coordinator plumbing for ft/naive: spawns the fleet over
/// \p Jobs (units already journaled are the caller's to exclude), journals
/// each result as it lands, surfaces quarantines, then hands \p Fold a
/// record lookup over the fleet's results and, after them, the journal.
/// Returns 0, or the exit code of a failed fleet run or fold.
int runUnitFleet(const CliOptions &O, const char *Cmd, ResumeLog *Log,
                 std::vector<FleetJob> Jobs,
                 const std::function<bool(const RecordLookup &)> &Fold) {
  FleetOptions FO;
  FO.Workers = O.Workers;
  FO.WorkerArgv = fleetWorkerArgv(O, Cmd);
  FO.Cancel = O.Cancel;
  applyFleetEnvOverrides(FO);
  FleetCallbacks CB;
  CB.OnResult = [&](const UnitRecord &Rec) {
    // Durable the moment it exists — a coordinator crash after this point
    // costs nothing; the journal replays the unit on resume.
    if (Log)
      Log->recordDone(Rec);
  };
  FleetResult FR = runFleet(FO, Jobs, CB);
  if (!FR.Outcome.ok()) {
    std::fprintf(stderr, "nv: fleet run failed: %s\n",
                 FR.Outcome.str().c_str());
    return exitCodeForOutcome(FR.Outcome);
  }
  for (const std::string &K : FR.QuarantinedKeys) {
    auto It = FR.Results.find(K);
    const std::string *Repro =
        It == FR.Results.end() ? nullptr : It->second.get("repro");
    std::printf("QUARANTINED unit %s (%s); repro: %s\n", K.c_str(),
                It == FR.Results.end()
                    ? "?"
                    : It->second.get("detail")
                          ? It->second.get("detail")->c_str()
                          : "?",
                Repro ? Repro->c_str() : "(none)");
  }
  std::printf("fleet: %s\n", FR.Stats.str().c_str());
  if (Fold([&](const std::string &Key, UnitRecord &Rec) {
        auto It = FR.Results.find(Key);
        if (It == FR.Results.end())
          return Log && Log->replay(Key, Rec);
        Rec = It->second;
        return true;
      }))
    return 0;
  std::fprintf(stderr, "nv: fleet aggregate is missing %s unit records\n",
               Cmd);
  return 4;
}

int cmdNaive(const Program &P, const CliOptions &O) {
  // Checked here so a fleet run fails once, not in every worker.
  std::string DropError;
  if (!defaultDropExpr(P.AttrType, DropError)) {
    std::fprintf(stderr, "nv: %s\n", DropError.c_str());
    return 2;
  }
  FtOptions Opts = ftOptionsFromCli(O);
  std::unique_ptr<ResumeLog> Log;
  int Ec = 0;
  if (!openResume(O, P, Opts, Log, Ec))
    return Ec;

  Stopwatch W;
  FtCheckResult R;
  if (O.Workers > 0) {
    // Fleet mode: scenarios run in crash-isolated worker subprocesses.
    // Workers return the same UnitRecords the in-process path journals, so
    // the aggregate below is bit-identical to --workers 0.
    auto Scenarios = std::make_shared<const FtScenarioSet>(P, Opts);
    std::vector<FleetJob> Jobs;
    for (size_t I = 0; I < Scenarios->size(); ++I) {
      std::string Key = naiveScenarioKey(I);
      if (Log && Log->isDone(Key))
        ++R.ScenariosReplayed;
      else
        Jobs.push_back({Key, ""});
    }
    if (int FleetEc =
            runUnitFleet(O, "naive", Log.get(), std::move(Jobs),
                         [&](const auto &Lookup) {
                           return aggregateNaiveScenarioRecords(Scenarios,
                                                                Lookup, R);
                         }))
      return FleetEc;
  } else {
    ThreadPool Pool(O.Threads);
    R = naiveFaultToleranceParallel(P, Opts, Pool);
  }
  double Ms = W.elapsedMs();

  std::printf("%llu scenarios checked (%llu replayed, %llu skipped, %llu "
              "retries), %zu violation(s) in %.1fms\n",
              (unsigned long long)R.ScenariosChecked,
              (unsigned long long)R.ScenariosReplayed,
              (unsigned long long)R.ScenariosSkipped,
              (unsigned long long)R.RetriesPerformed, R.Violations.size(), Ms);
  return reportSweep(O, R, {{"elapsed_ms", Ms}});
}

int cmdJournal(const std::string &Path) {
  JournalRead R = readJournal(Path);
  if (R.St == JournalRead::State::Corrupt) {
    std::fprintf(stderr, "nv: %s\n", R.Error.c_str());
    return 2;
  }
  if (R.St == JournalRead::State::NoFile) {
    std::fprintf(stderr, "nv: %s: no journal found\n", Path.c_str());
    return 2;
  }
  std::printf("journal: %s\nbinding:\n", Path.c_str());
  std::istringstream Header(R.Header);
  for (std::string Line; std::getline(Header, Line);)
    std::printf("  %s\n", Line.c_str());
  std::printf("entries: %zu%s\n", R.Entries.size(),
              R.TornTail ? " (+ one torn trailing entry, dropped)" : "");
  size_t Show = std::min<size_t>(R.Entries.size(), 10);
  for (size_t I = 0; I < Show; ++I) {
    UnitRecord Rec;
    if (UnitRecord::parse(R.Entries[I], Rec))
      std::printf("  %s\n", Rec.Key.c_str());
  }
  if (R.Entries.size() > Show)
    std::printf("  ... %zu more\n", R.Entries.size() - Show);
  // One greppable line for any journal flavor: unit count, a fingerprint
  // of the binding header, and whether a crash tore the tail.
  std::printf("summary: %zu unit(s), binding %s, torn tail: %s\n",
              R.Entries.size(), fnv1a64Hex(R.Header).c_str(),
              R.TornTail ? "dropped" : "clean");
  // Serve request-queue journals additionally get queue accounting: the
  // pending count is what a restarted daemon would replay.
  if (R.Header.find("tool=nv-serve") != std::string::npos) {
    std::vector<std::string> PendingIds;
    size_t Accepted = 0, Done = 0;
    for (const std::string &E : R.Entries) {
      UnitRecord Rec;
      if (!UnitRecord::parse(E, Rec))
        continue;
      const std::string *Event = Rec.get("event");
      if (!Event)
        continue;
      if (*Event == "accepted") {
        ++Accepted;
        PendingIds.push_back(Rec.Key);
      } else if (*Event == "done") {
        ++Done;
        auto It = std::find(PendingIds.begin(), PendingIds.end(), Rec.Key);
        if (It != PendingIds.end())
          PendingIds.erase(It);
      }
    }
    std::printf("serve queue: %zu accepted, %zu done, %zu pending",
                Accepted, Done, PendingIds.size());
    for (size_t I = 0; I < std::min<size_t>(5, PendingIds.size()); ++I)
      std::printf("%s%s", I ? " " : " (", PendingIds[I].c_str());
    if (!PendingIds.empty())
      std::printf(PendingIds.size() > 5 ? " ...)" : ")");
    std::printf("\n");
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// serve / req
//===----------------------------------------------------------------------===//

int runServeWorker(Server::Options Opts, uint64_t Generation) {
  Opts.Core.Generation = Generation;
  if (const char *E = std::getenv("NV_SERVE_LAST_EXIT"))
    Opts.Core.LastExit = E;
  Server::CreateResult Res = Server::create(Opts);
  if (!Res.Srv) {
    std::fprintf(stderr, "nv: %s\n", Res.Error.c_str());
    return Res.ExitCode;
  }
  if (size_t N = Res.Srv->core().replayedCount())
    std::fprintf(stderr, "nv-serve: replayed %zu journaled request(s)\n", N);
  std::fprintf(stderr, "nv-serve: listening on %s (%u threads)\n",
               Res.Srv->socketPath().c_str(),
               Res.Srv->core().pool().numThreads());
  // SIGINT/SIGTERM stop the accept loop; in-flight requests drain, the
  // socket is unlinked, and the exit code is 3 (canceled, not a verdict).
  // A client `shutdown` request exits 0.
  CancelToken Cancel;
  GracefulShutdown Shutdown(Cancel);
  return Res.Srv->run(&Cancel);
}

int cmdServe(int argc, char **argv) {
  Server::Options Opts;
  Opts.SocketPath = argv[2];
  bool Supervise = false;
  SupervisorOptions Sup;
  for (int I = 3; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--threads") && I + 1 < argc)
      Opts.Core.Threads = static_cast<unsigned>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--journal") && I + 1 < argc)
      Opts.Core.JournalPath = argv[++I];
    else if (!std::strcmp(argv[I], "--max-sessions") && I + 1 < argc)
      Opts.Core.MaxSessions = static_cast<size_t>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--max-inflight") && I + 1 < argc)
      Opts.Core.MaxInflight = static_cast<size_t>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--queue-depth") && I + 1 < argc)
      Opts.Core.QueueDepth = static_cast<size_t>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--heap-budget-mb") && I + 1 < argc)
      Opts.Core.HeapBudgetBytes =
          static_cast<size_t>(atoi(argv[++I])) * 1024 * 1024;
    else if (!std::strcmp(argv[I], "--memo-cap") && I + 1 < argc)
      Opts.Core.MemoEntryCap = static_cast<size_t>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--idle-timeout-ms") && I + 1 < argc)
      Opts.IdleTimeoutMs = static_cast<unsigned>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--max-line-bytes") && I + 1 < argc)
      Opts.MaxLineBytes = static_cast<size_t>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--supervise"))
      Supervise = true;
    else if (!std::strcmp(argv[I], "--restart-backoff-ms") && I + 1 < argc)
      Sup.BackoffBaseMs = static_cast<unsigned>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--restart-cap-ms") && I + 1 < argc)
      Sup.BackoffCapMs = static_cast<unsigned>(atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--max-restarts") && I + 1 < argc)
      Sup.MaxRestarts = atoi(argv[++I]);
    else
      return usage();
  }
  if (Supervise)
    // Forks before any thread exists; each worker child builds its own
    // Server, replaying the journal, so kill -9 mid-request loses no
    // accepted work.
    return superviseLoop(
        [&Opts](uint64_t Gen) { return runServeWorker(Opts, Gen); }, Sup);
  // Under an external supervisor the generation arrives via environment.
  uint64_t Gen = 0;
  if (const char *G = std::getenv("NV_SERVE_RESTARTS"))
    Gen = std::strtoull(G, nullptr, 10);
  return runServeWorker(Opts, Gen);
}

int cmdReq(int argc, char **argv) {
  ClientOptions CO;
  RetryOptions RO;
  int First = 3;
  for (; First < argc; ++First) {
    if (!std::strcmp(argv[First], "--timeout-ms") && First + 1 < argc) {
      // One deadline for both phases: a script that says 2000 means "give
      // up after 2s", whether the time goes to connecting or waiting.
      CO.ReadTimeoutMs = static_cast<unsigned>(atoi(argv[++First]));
      CO.ConnectTimeoutMs = CO.ReadTimeoutMs;
    } else if (!std::strcmp(argv[First], "--retries") && First + 1 < argc) {
      RO.MaxAttempts = static_cast<unsigned>(atoi(argv[++First])) + 1;
    } else {
      break; // first JSON argument
    }
  }
  ResilientClient Client(argv[2], CO, RO);
  int Last = 0;
  bool Ok = true;
  auto One = [&](const std::string &Line) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      return true; // blank separator lines in scripts are fine
    std::string Resp, Error;
    if (!Client.request(Line, Resp, Error)) {
      std::fprintf(stderr, "nv: %s\n", Error.c_str());
      if (!Resp.empty()) // e.g. the final overloaded response when the
        std::printf("%s\n", Resp.c_str()); // retry budget ran out
      // Exit 3 for deadline expiry and exhausted-overloaded retries (the
      // resource code, and transient to callers like RetryPolicy); 2 for
      // a hard transport failure.
      Last = Client.timedOut() || !Resp.empty() ? 3 : 2;
      return false;
    }
    std::printf("%s\n", Resp.c_str());
    std::fflush(stdout);
    Json J;
    std::string JErr;
    Last = Json::parse(Resp, J, JErr) ? static_cast<int>(J.getNumber("code", 4))
                                      : 4;
    return true;
  };
  if (argc > First) {
    for (int I = First; I < argc && Ok; ++I)
      Ok = One(argv[I]);
  } else {
    for (std::string Line; std::getline(std::cin, Line) && Ok;)
      Ok = One(Line);
  }
  return Last;
}

int cmdFt(const Program &P, const CliOptions &O) {
  DiagnosticEngine Diags;
  FtOptions Opts = ftOptionsFromCli(O);
  std::unique_ptr<ResumeLog> Log;
  int Ec = 0;
  if (!openResume(O, P, Opts, Log, Ec))
    return Ec;

  // Fleet mode: transform + meta-simulation stay in-process (one
  // deterministic fixpoint — there is nothing to shard), then the chunks
  // the journal lacks are checked on the worker fleet. Workers return the
  // same chunk records the checkpointed in-process check journals, and
  // both fold them through aggregateFtChunkRecords, so the aggregate is
  // bit-identical to --workers 0.
  FtRunResult R = runFaultTolerance(P, Opts, O.Native, Diags,
                                    /*CheckAsserts=*/O.Workers == 0);
  if (O.Workers > 0 && R.Outcome.ok() && R.Converged) {
    Stopwatch CW;
    auto Scenarios = std::make_shared<const FtScenarioSet>(P, Opts);
    std::vector<FleetJob> Jobs;
    for (size_t C : FtChunks(Scenarios->size(), Opts.CheckChunkSize)
                        .missing(Log.get(), R.Check.ScenariosReplayed))
      Jobs.push_back({FtChunks::key(C), ""});
    if (int FleetEc = runUnitFleet(
            O, "ft", Log.get(), std::move(Jobs), [&](const auto &Lookup) {
              return aggregateFtChunkRecords(Scenarios, Opts.CheckChunkSize,
                                             Lookup, R.Check);
            }))
      return FleetEc;
    R.CheckMs = CW.elapsedMs();
  }
  Diags.printToStderr();
  if (!R.Outcome.ok()) {
    std::printf("analysis stopped: %s\n", R.Outcome.str().c_str());
    return exitCodeForOutcome(R.Outcome);
  }
  if (!R.Converged) {
    std::printf("meta-simulation did not converge\n");
    return 1;
  }
  std::printf("transform %.1fms, simulate %.1fms, check %.1fms\n",
              R.TransformMs, R.SimulateMs, R.CheckMs);
  std::printf("%llu scenarios checked: ",
              static_cast<unsigned long long>(R.Check.ScenariosChecked));
  if (R.Check.holds())
    std::printf("property holds under every failure scenario\n");
  else
    std::printf("%zu violations; first few:\n", R.Check.Violations.size());
  return reportSweep(O, R.Check,
                     {{"transform_ms", R.TransformMs},
                      {"simulate_ms", R.SimulateMs},
                      {"check_ms", R.CheckMs}});
}

} // namespace

int main(int argc, char **argv) {
  // serve/req take a socket path, not a FILE, so they bypass parseCli.
  if (argc >= 3 && !std::strcmp(argv[1], "serve"))
    return cmdServe(argc, argv);
  if (argc >= 3 && !std::strcmp(argv[1], "req"))
    return cmdReq(argc, argv);
  auto O = parseCli(argc, argv);
  if (!O)
    return usage();

  if (O->Command == "journal")
    return cmdJournal(O->File);
  if (O->Command == "ft" || O->Command == "naive" || O->Command == "worker")
    if (std::string E = ftOptionsError(ftOptionsFromCli(*O)); !E.empty()) {
      std::fprintf(stderr, "nv: %s\n", E.c_str());
      return 2;
    }

  auto Src = readFile(O->File);
  if (!Src) {
    std::fprintf(stderr, "cannot read %s\n", O->File.c_str());
    return 2;
  }
  DiagnosticEngine Diags;
  auto P = parseProgram(*Src, Diags, fileParseOptions(O->File));
  if (!P) {
    Diags.printToStderr();
    return 2;
  }
  if (!typeCheck(*P, Diags)) {
    Diags.printToStderr();
    return 2;
  }

  if (O->Command == "check") {
    std::printf("%s: %zu declarations, %u nodes, %zu links\n",
                O->File.c_str(), P->Decls.size(), P->numNodes(),
                P->links().size());
    if (P->AttrType)
      std::printf("attribute type: %s\n", typeToString(P->AttrType).c_str());
    return 0;
  }
  if (O->Command == "print") {
    std::printf("%s", printProgram(*P).c_str());
    return 0;
  }
  if (O->Command == "worker") {
    // Fleet worker: dispatched BEFORE the GracefulShutdown block below so
    // signal dispositions stay at their defaults — the coordinator owns
    // this process's lifecycle (SIGTERM on cancel, SIGKILL on liveness
    // timeout), and a worker must die when told to, not drain.
    try {
      return cmdWorker(*P, *O);
    } catch (const EngineError &E) {
      std::fprintf(stderr, "nv worker: %s\n", E.what());
      return exitCodeForOutcome(E.outcome());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "nv worker: %s\n", E.what());
      return 4;
    }
  }
  try {
    // Signal-driven graceful shutdown for every engine command: the first
    // SIGINT/SIGTERM trips the shared CancelToken (threaded into each
    // engine's budget via applyBudget), jobs drain at safe points, and the
    // Canceled outcome exits with code 3. A second signal exits at once.
    CancelToken Cancel;
    GracefulShutdown Shutdown(Cancel);
    O->Cancel = &Cancel;
    if (O->Command == "sim")
      return cmdSim(*P, *O);
    if (O->Command == "verify")
      return cmdVerify(*P, *O);
    if (O->Command == "ft")
      return cmdFt(*P, *O);
    if (O->Command == "naive")
      return cmdNaive(*P, *O);
  } catch (const EngineError &E) {
    // An engine let a structured error escape its boundary (or a fault was
    // injected outside any engine's catch); still exit structurally.
    std::fprintf(stderr, "nv: %s\n", E.what());
    return exitCodeForOutcome(E.outcome());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "nv: internal error: %s\n", E.what());
    return 4;
  }
  return usage();
}
