//===- Units.h - One runner for every sharded sweep -------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runUnits: the one replay -> retry -> journal -> fold path of every sweep
/// of independent units (naive scenarios "s<I>", a whole fault-tolerance
/// run "f0", fuzz instances "i<I>", corpus files "r<I>"), run on threads
/// of this process or on a worker fleet. A journaled unit
/// is restored, never re-run. Every other unit runs each attempt in its
/// own Governor::Scope, transient trips retried (runUnitWithRetry); once
/// the run is canceled no unit starts. Every completion but a canceled one
/// is journaled (fleet records the moment they land), so a canceled unit
/// re-runs on resume. Records are rendered only for a journal or a fleet.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_UNITS_H
#define NV_SUPPORT_UNITS_H

#include "support/Fleet.h"
#include "support/Resume.h"
#include "support/ThreadPool.h"

#include <optional>

namespace nv {

/// The journal/fleet key of unit \p I ("s12").
std::string unitKey(char Prefix, size_t I);

struct UnitSweep {
  size_t Begin = 0; ///< Units [Begin, Begin + Count), keyed
  size_t Count = 0; ///< unitKey(Prefix, I).
  char Prefix = 'u';
  RunBudget Budget{}; ///< Per attempt, escalated by Retry.
  RetryPolicy Retry{};
  ResumeLog *Journal = nullptr;
  /// Restores unit I's slot from an ok record; false when malformed.
  std::function<bool(size_t I, const UnitRecord &Rec)> Restore{};
};

struct UnitWorker {
  /// One attempt at unit I into slot I, re-runnable; a thrown EngineError
  /// is its outcome.
  std::function<RunOutcome(size_t I)> Run;
  /// Unit I's record after an ok last attempt (a failed unit's record is
  /// its key and outcome).
  std::function<UnitRecord(size_t I, unsigned Attempts)> Render;
  /// Optional, after unit I's last attempt and record.
  std::function<void(size_t I, const RunOutcome &O)> Finish;
};

/// Builds an in-process worker's state on its thread and hands its
/// UnitWorker to Serve, which runs units until none is left.
using UnitWorkerSetup =
    std::function<void(const std::function<void(UnitWorker &)> &Serve)>;

/// Where pending units run: one worker per thread of Pool (the calling
/// thread when null), claiming units off a shared counter; or, with Fleet
/// set, one fleet job per unit, on at most one worker per pending unit.
struct UnitExecutor {
  ThreadPool *Pool = nullptr;
  std::optional<FleetOptions> Fleet;
  /// Called with the fleet's result before the fold.
  std::function<void(const FleetResult &)> OnFleetDone;

  UnitExecutor() = default;
  UnitExecutor(ThreadPool &P) : Pool(&P) {}
};

struct UnitResult {
  RunOutcome Outcome;
  bool Replayed = false;
};

struct UnitsResult {
  std::vector<UnitResult> Units; ///< In unit order: unit I at I - Begin.
  RunOutcome First;              ///< First non-ok outcome in unit order.
  uint64_t Replayed = 0; ///< Units restored from the journal.
  uint64_t Retries = 0;  ///< Extra attempts of the units run now.
  uint64_t Skipped = 0;  ///< Units whose outcome is not ok.
};

/// Runs \p S on \p X. A malformed record makes its unit an EvalError.
UnitsResult runUnits(const UnitSweep &S, const UnitExecutor &X,
                     const UnitWorkerSetup &Setup);

/// Unit \p I run on \p W as runUnits does, returning its record: the job
/// handler of a fleet worker.
UnitRecord runUnitRecord(const UnitSweep &S, UnitWorker &W, size_t I);

/// A fleet worker serving \p S's units, \p Handler returning unit I's
/// record (see runFleetWorker). A key outside [Begin, Begin + Count)
/// kills the worker.
int serveFleetUnits(const UnitSweep &S,
                    const std::function<UnitRecord(size_t I)> &Handler);

} // namespace nv

#endif // NV_SUPPORT_UNITS_H
