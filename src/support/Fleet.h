//===- Fleet.h - Crash-isolated worker fleet for sharded analyses -*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator/worker execution layer: farms a sharded analysis' job
/// units (naive scenarios, whole fault-tolerance runs, fuzz instances)
/// out to a pool of forked worker *subprocesses*, so a segfault, OOM kill,
/// or runaway job in any shard costs one worker — not the run. This is the
/// substrate fragment-parallel Kirigami verification is meant to run on
/// (ROADMAP).
///
/// Protocol. Workers are re-execs of the owning CLI (a hidden verb) with
/// a job pipe on fd 3 and a result pipe on fd 4. Both directions carry
/// the journal's frame shape — u32le length, u32le FNV-1a32 checksum,
/// payload — with a leading type byte: 'J' job (key '\n' spec), 'R'
/// result (a rendered Resume UnitRecord), 'H' heartbeat (current job
/// key), 'W' hello, 'Q' shutdown. A worker's result payload is the
/// *same* UnitRecord the in-process resume path journals for that unit,
/// which is what makes fleet aggregates bit-identical to `--workers 0`:
/// the unit runner (support/Units.h) journals records as they land and
/// restores them in deterministic unit order, as it replays a journal.
/// A record whose 'R' frame would pass the frame cap (64 MiB, the
/// journal's cap too) is replaced in the worker by a non-ok record of the
/// same key that names the cap, so the coordinator never reads an
/// oversized frame as a dead worker.
///
/// Robustness policy:
///  - Liveness: workers heartbeat every HeartbeatMs; a worker silent for
///    LivenessTimeoutMs is SIGKILLed and treated as crashed.
///  - Crash recovery: a worker death with a job in flight requeues the
///    job (front of queue) and respawns the worker after a capped
///    exponential backoff (nextRestartDelayMs, shared with nv serve's
///    supervisor). Completing a job resets the slot's failure count.
///  - Poison quarantine: a job whose worker dies PoisonThreshold times is
///    quarantined instead of retried forever — the run completes, the
///    job's record carries RunStatus::Quarantined (exit 3 at the driver),
///    and a runnable repro script lands in QuarantineDir.
///  - Stragglers: once the queue is drained, a running job slower than
///    StragglerFactor x the median completed duration (and past
///    StragglerMinMs) is speculatively re-executed on an idle worker;
///    the first result wins, and if both land they are byte-compared
///    (a mismatch is counted — it would mean shard nondeterminism).
///
/// Fault sites (NV_FAULT_INJECT): "fleet-spawn" fires in the coordinator
/// before forking a worker (degrades to a backoff retry); "fleet-dispatch"
/// fires in the worker on job receipt and is deliberately uncaught — the
/// worker dies with exit 3, exercising the requeue/respawn path;
/// "fleet-result" fires in the coordinator on result receipt (degrades to
/// drop-result + kill + requeue). Respawned workers get NV_FAULT_INJECT
/// stripped from their environment so one armed countdown behaves like
/// one process-wide countdown does in-process, instead of re-arming in
/// every generation and crash-looping into quarantine.
///
/// Test hooks (environment, read by runFleetWorker):
///   NV_FLEET_POISON_KEY        job key that abort()s the worker on
///                              dispatch — a deterministic crasher.
///   NV_FLEET_WEDGE_KEY         job key that wedges the worker (stops
///                              heartbeats, hangs) ...
///   NV_FLEET_WEDGE_ONCE_FILE   ... but only for whichever worker
///                              creates this latch file first, so the
///                              requeued job completes after the respawn.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_FLEET_H
#define NV_SUPPORT_FLEET_H

#include "support/Governor.h"
#include "support/Resume.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace nv {

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

/// One unit of work. Key is the unit's journal key ("s12", "c3", "i47");
/// Spec is an opaque payload for the worker (may be empty when the key
/// alone identifies the unit).
struct FleetJob {
  std::string Key;
  std::string Spec;
};

struct FleetOptions {
  unsigned Workers = 1;                ///< Pool size (subprocess count).
  std::vector<std::string> WorkerArgv; ///< Worker command; argv[0] = path.

  unsigned HeartbeatMs = 250;          ///< Worker beat period (exported to
                                       ///< workers as NV_FLEET_HEARTBEAT_MS).
  unsigned LivenessTimeoutMs = 10000;  ///< Silence that means "wedged".
  unsigned PoisonThreshold = 3;        ///< Worker deaths that quarantine a job.
  double StragglerFactor = 4.0;        ///< x median duration to speculate.
  unsigned StragglerMinMs = 2000;      ///< Floor before anything is a straggler.
  bool Speculate = true;               ///< Straggler re-execution on/off.
  unsigned BackoffBaseMs = 50;         ///< Respawn backoff base ...
  unsigned BackoffCapMs = 2000;        ///< ... and plateau.
  unsigned SpawnFailureCap = 100;      ///< Consecutive spawn failures with no
                                       ///< live worker before giving up.
  std::string QuarantineDir = ".";     ///< Where repro scripts land.
  CancelToken *Cancel = nullptr;       ///< Graceful-shutdown hookup.
  bool Verbose = true;                 ///< Lifecycle lines on stderr (chaos
                                       ///< CI greps "worker pid").
};

/// Applies NV_FLEET_* environment overrides (heartbeat/liveness/backoff/
/// poison-threshold/straggler knobs) on top of \p O. CLIs call this so
/// chaos scripts can tighten timings without new flags; tests configure
/// FleetOptions directly.
void applyFleetEnvOverrides(FleetOptions &O);

struct FleetStats {
  uint64_t JobsCompleted = 0;
  uint64_t JobsRequeued = 0;
  uint64_t WorkerDeaths = 0;        ///< Workers lost while the run was live.
  uint64_t Respawns = 0;
  uint64_t SpawnFailures = 0;
  uint64_t HeartbeatTimeouts = 0;   ///< Workers SIGKILLed for silence.
  uint64_t SpeculativeLaunches = 0;
  uint64_t SpeculativeWins = 0;     ///< Speculative copy finished first.
  uint64_t SpeculationMismatches = 0; ///< Duplicate results disagreed.
  uint64_t Quarantined = 0;
  std::string LastExit;             ///< describe() of the latest worker death.

  /// Adds \p O's counts (a later run of the same fleet options).
  FleetStats &operator+=(const FleetStats &O);
  /// One-line operator summary ("12 jobs, 2 deaths, ...").
  std::string str() const;
};

struct FleetResult {
  /// Ok when every job produced a record (quarantined jobs included —
  /// their records carry RunStatus::Quarantined); Canceled on a cancel
  /// drain; InternalError when the fleet could not keep workers alive.
  RunOutcome Outcome;
  /// One record per job key, quarantined jobs included.
  std::map<std::string, UnitRecord> Results;
  std::vector<std::string> QuarantinedKeys;
  FleetStats Stats;
};

struct FleetCallbacks {
  /// Invoked exactly once per job key, as results land (coordinator
  /// thread). Drivers journal here so completions are durable the moment
  /// they exist.
  std::function<void(const UnitRecord &)> OnResult;
  /// Invoked after each worker spawn; tests use it to aim SIGKILLs.
  std::function<void(pid_t Pid, unsigned Slot)> OnSpawn;
};

/// Runs \p Jobs to completion on a fleet of Opts.Workers subprocesses.
FleetResult runFleet(const FleetOptions &Opts, const std::vector<FleetJob> &Jobs,
                     const FleetCallbacks &CB = {});

//===----------------------------------------------------------------------===//
// Worker
//===----------------------------------------------------------------------===//

struct FleetWorkerOptions {
  int InFd = 3;  ///< Job pipe (read).
  int OutFd = 4; ///< Result/heartbeat pipe (write).
};

/// The worker half: reads jobs off InFd, runs \p Handler on each, writes
/// the record back, heartbeating from a side thread throughout. Returns 0
/// on a clean shutdown (EOF or 'Q'), 2 on a protocol error. Handler
/// exceptions (EngineError included) propagate — a worker is *supposed*
/// to die loudly on them; per-unit degradations belong inside the handler
/// as recorded outcomes, exactly as in the in-process resume path.
///
/// When NV_FLEET_ONE_JOB is set (quarantine repro scripts), the handler
/// runs once on that key (spec from NV_FLEET_ONE_JOB_SPEC), the record
/// prints to stdout, and no pipes are touched.
int runFleetWorker(const std::function<UnitRecord(const FleetJob &)> &Handler,
                   const FleetWorkerOptions &Opts = {});

} // namespace nv

#endif // NV_SUPPORT_FLEET_H
