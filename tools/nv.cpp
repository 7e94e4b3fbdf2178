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
//                       units replay, new completions append durably; a
//                       naive unit is one scenario, an ft run is one unit
//   --retry N           attempts per unit for transient trips (ft/naive)
//   --json PATH         machine-readable result (ft/naive)
//   --workers N         run the units on N crash-isolated worker
//                       subprocesses (ft/naive; 0 = in-process, the
//                       default; ft's one unit needs one worker). A worker
//                       crash requeues its unit; a unit that kills several
//                       workers is quarantined with a runnable repro script
//                       and the run completes with exit code 3. Aggregates
//                       are bit-identical to --workers 0 for any N.
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
#include "support/Json.h"
#include "serve/Server.h"
#include "serve/Supervisor.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "sim/Simulator.h"
#include "smt/Verifier.h"
#include "support/Fleet.h"
#include "support/Journal.h"
#include "support/ParseNumber.h"
#include "support/Resume.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <climits>
#include <cstdint>
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
               "in-process)\n");
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
  std::string WorkerCmd; ///< hidden worker verb: which analysis to serve.
  BudgetLimits Limits; ///< --deadline-ms, --max-steps, --node-budget.
  std::string ResumePath;
  std::string JsonPath;
  CancelToken *Cancel = nullptr; ///< Set by main for the engine commands.
  std::vector<std::pair<std::string, std::string>> Syms;
  std::vector<std::string> Flags; ///< The option arguments, as given.

  /// Folds the governance flags into \p B, an engine's default budget.
  void applyBudget(RunBudget &B) const {
    Limits.overlay(B);
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
    B.set("deadline-ms", std::to_string(Limits.DeadlineMs));
    B.setInt("max-steps", (long long)Limits.MaxSteps);
    B.setInt("node-budget", (long long)Limits.NodeBudget);
    B.setInt("retry", Retry);
    // Worker count deliberately does NOT bind: fleet and in-process runs
    // produce identical unit records, so their journals are interchangeable
    // (resume a crashed --workers 8 run with --workers 0, or vice versa).
    B.setProvenance("workers", std::to_string(Workers));
    B.setProvenance("threads", std::to_string(Threads));
    B.setProvenance("file", File);
    return B;
  }
};

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
      if (!parseInteger(argv[++I], O.Links))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--threads") && I + 1 < argc) {
      if (!parseInteger(argv[++I], O.Threads))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--retry") && I + 1 < argc) {
      if (!parseInteger(argv[++I], O.Retry))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--workers") && I + 1 < argc) {
      if (!parseInteger(argv[++I], O.Workers))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--cmd") && I + 1 < argc) {
      O.WorkerCmd = argv[++I];
    } else if (!std::strcmp(argv[I], "--resume") && I + 1 < argc) {
      O.ResumePath = argv[++I];
    } else if (!std::strcmp(argv[I], "--json") && I + 1 < argc) {
      O.JsonPath = argv[++I];
    } else if (!std::strcmp(argv[I], "--timeout") && I + 1 < argc) {
      if (!parseInteger(argv[++I], O.TimeoutSec))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--deadline-ms") && I + 1 < argc) {
      if (!parseNonNegative(argv[++I], O.Limits.DeadlineMs))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--max-steps") && I + 1 < argc) {
      if (!parseInteger(argv[++I], O.Limits.MaxSteps))
        return std::nullopt;
    } else if (!std::strcmp(argv[I], "--node-budget") && I + 1 < argc) {
      if (!parseInteger(argv[++I], O.Limits.NodeBudget))
        return std::nullopt;
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
  std::unique_ptr<ProtocolEvaluator> Eval =
      makeProgramEvaluator(Ctx, P, O.Native, Syms);
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
    // Skipped scenarios (budget trip, quarantined unit, canceled run)
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
/// analysis' units over the fleet pipes (fd 3 jobs in, fd 4 results out —
/// see support/Fleet.h). Job handler exceptions kill the process by
/// design; the coordinator's requeue/quarantine machinery owns recovery.
int cmdWorker(const Program &P, const CliOptions &O) {
  FtOptions Opts = ftOptionsFromCli(O);
  if (O.WorkerCmd == "naive")
    return naiveFleetWorker(P, Opts);
  if (O.WorkerCmd == "ft")
    return ftFleetWorker(P, Opts, O.Native);
  std::fprintf(stderr, "nv: worker: unknown --cmd '%s'\n",
               O.WorkerCmd.c_str());
  return 2;
}

/// The executor `--workers` picks for an ft/naive sweep: \p Pool's threads
/// (0 workers), or a fleet of `nv worker --cmd \p Cmd` subprocesses whose
/// quarantined units and stats are reported when it ends.
UnitExecutor executorFromCli(const CliOptions &O, const char *Cmd,
                             ThreadPool *Pool) {
  UnitExecutor X;
  X.Pool = Pool;
  if (O.Workers == 0)
    return X;
  FleetOptions FO;
  FO.Workers = O.Workers;
  FO.WorkerArgv = fleetWorkerArgv(O, Cmd);
  FO.Cancel = O.Cancel;
  applyFleetEnvOverrides(FO);
  X.Fleet = std::move(FO);
  X.OnFleetDone = [](const FleetResult &FR) {
    if (!FR.Outcome.ok()) {
      std::fprintf(stderr, "nv: fleet run failed: %s\n",
                   FR.Outcome.str().c_str());
      return;
    }
    for (const std::string &K : FR.QuarantinedKeys) {
      const UnitRecord &Rec = FR.Results.at(K);
      const std::string *Detail = Rec.get("detail");
      const std::string *Repro = Rec.get("repro");
      std::printf("QUARANTINED unit %s (%s); repro: %s\n", K.c_str(),
                  Detail ? Detail->c_str() : "?",
                  Repro ? Repro->c_str() : "(none)");
    }
    std::printf("fleet: %s\n", FR.Stats.str().c_str());
  };
  return X;
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
  std::optional<ThreadPool> Pool;
  if (O.Workers == 0)
    Pool.emplace(O.Threads);
  FtCheckResult R = naiveFaultToleranceParallel(
      P, Opts, executorFromCli(O, "naive", Pool ? &*Pool : nullptr));
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
  size_t HeapMb = 0;
  bool NumbersOk = true;
  for (int I = 3; I < argc; ++I) {
    // Every numeric flag parses strictly: "abc", "-1" or "3x" is a usage
    // error, never 0 or a wrapped-around count.
    auto Num = [&](auto &Out) {
      if (!parseInteger(argv[++I], Out))
        NumbersOk = false;
    };
    if (!std::strcmp(argv[I], "--threads") && I + 1 < argc)
      Num(Opts.Core.Threads);
    else if (!std::strcmp(argv[I], "--journal") && I + 1 < argc)
      Opts.Core.JournalPath = argv[++I];
    else if (!std::strcmp(argv[I], "--max-sessions") && I + 1 < argc)
      Num(Opts.Core.MaxSessions);
    else if (!std::strcmp(argv[I], "--max-inflight") && I + 1 < argc)
      Num(Opts.Core.MaxInflight);
    else if (!std::strcmp(argv[I], "--queue-depth") && I + 1 < argc)
      Num(Opts.Core.QueueDepth);
    else if (!std::strcmp(argv[I], "--heap-budget-mb") && I + 1 < argc)
      Num(HeapMb);
    else if (!std::strcmp(argv[I], "--memo-cap") && I + 1 < argc)
      Num(Opts.Core.MemoEntryCap);
    else if (!std::strcmp(argv[I], "--idle-timeout-ms") && I + 1 < argc)
      Num(Opts.IdleTimeoutMs);
    else if (!std::strcmp(argv[I], "--max-line-bytes") && I + 1 < argc)
      Num(Opts.MaxLineBytes);
    else if (!std::strcmp(argv[I], "--supervise"))
      Supervise = true;
    else if (!std::strcmp(argv[I], "--restart-backoff-ms") && I + 1 < argc)
      Num(Sup.BackoffBaseMs);
    else if (!std::strcmp(argv[I], "--restart-cap-ms") && I + 1 < argc)
      Num(Sup.BackoffCapMs);
    else if (!std::strcmp(argv[I], "--max-restarts") && I + 1 < argc)
      Num(Sup.MaxRestarts); // signed: -1 (the default) = unlimited
    else
      return usage();
  }
  if (!NumbersOk || HeapMb > (SIZE_MAX >> 20))
    return usage();
  Opts.Core.HeapBudgetBytes = HeapMb << 20;
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
      if (!parseInteger(argv[++First], CO.ReadTimeoutMs))
        return usage();
      CO.ConnectTimeoutMs = CO.ReadTimeoutMs;
    } else if (!std::strcmp(argv[First], "--retries") && First + 1 < argc) {
      unsigned Retries = 0;
      if (!parseInteger(argv[++First], Retries) || Retries == UINT_MAX)
        return usage();
      RO.MaxAttempts = Retries + 1;
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

  // The whole run is one unit: replayed from the journal, run here, or
  // run by a fleet worker, whose record is the one this process journals.
  Stopwatch W;
  FtRunResult R = runFtUnit(P, Opts, O.Native, Diags,
                            executorFromCli(O, "ft", nullptr));
  double Ms = W.elapsedMs();
  Diags.printToStderr();
  if (!R.Outcome.ok()) {
    std::printf("analysis stopped: %s\n", R.Outcome.str().c_str());
    return exitCodeForOutcome(R.Outcome);
  }
  std::printf("transform %.1fms, simulate %.1fms, check %.1fms (%.1fms "
              "elapsed)\n",
              R.TransformMs, R.SimulateMs, R.CheckMs, Ms);
  std::printf("%llu scenarios checked: ",
              static_cast<unsigned long long>(R.Check.ScenariosChecked));
  if (R.Check.holds())
    std::printf("property holds under every failure scenario\n");
  else
    std::printf("%zu violations; first few:\n", R.Check.Violations.size());
  return reportSweep(O, R.Check,
                     {{"transform_ms", R.TransformMs},
                      {"simulate_ms", R.SimulateMs},
                      {"check_ms", R.CheckMs},
                      {"elapsed_ms", Ms}});
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

  auto Src = readSourceFile(O->File);
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
