//===- Resume.h - Checkpoint/resume, retry, graceful shutdown ---*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-resilience layer on top of the Journal format: long sharded
/// runs (naive/Batfish/FT scenario sweeps, nv-fuzz campaigns) checkpoint
/// one journal entry per completed unit of work, so a run killed by a
/// crash, an OOM, a deadline, or Ctrl-C resumes from where it stopped
/// instead of restarting from zero.
///
/// Four pieces:
///
///  - RunBinding: the key=value description of a run's inputs (program
///    hash, topology/policy spec, engine config, thread count). It is the
///    journal's header frame; ResumeLog::open refuses to resume a journal
///    whose binding differs — a stale or mismatched journal is rejected,
///    never silently reused.
///
///  - ResumeLog: the journal handle. The unit runner (support/Units.h)
///    asks replay before running a unit, and recordDone (thread-safe)
///    after completing one. Replayed results make the resumed run's
///    aggregate output bit-identical to an uninterrupted run at any thread
///    count: recorded payloads carry everything the aggregate needs, and
///    the deterministic unit order does the rest.
///
///  - RetryPolicy / runUnitWithRetry: a unit that fails with a transient
///    resource-limit outcome (deadline, step/node budget, injected fault
///    — not cancellation) is retried with an escalated budget before
///    being durably recorded as skipped.
///
///  - GracefulShutdown: SIGINT/SIGTERM → CancelToken. In-flight jobs
///    drain at their governor safe points, completed units stay durable
///    in the journal, and the driver exits with the documented
///    resource-exhausted code (3). A second signal exits immediately.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_RESUME_H
#define NV_SUPPORT_RESUME_H

#include "support/Governor.h"
#include "support/Journal.h"

#include <atomic>
#include <csignal>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace nv {

//===----------------------------------------------------------------------===//
// RunBinding
//===----------------------------------------------------------------------===//

/// The inputs a journal is bound to, as ordered key=value lines. Two runs
/// with equal bindings perform the same units in the same order, so their
/// journals are interchangeable; anything that changes the unit list or
/// unit semantics (program, failure spec, budgets, retry policy) belongs
/// here. Thread count is recorded for provenance but deliberately does
/// NOT bind: PR 1's determinism bar makes results thread-count-invariant,
/// and resuming a 16-thread run on 1 thread must work.
class RunBinding {
public:
  void set(const std::string &Key, const std::string &Value);
  void setInt(const std::string &Key, long long Value);

  /// The header-frame text: "key=value\n" lines in insertion order,
  /// "provenance-only" keys (thread count, hostname-ish info) prefixed
  /// with '#' so equality ignores them.
  void setProvenance(const std::string &Key, const std::string &Value);

  std::string render() const;

  /// Compares the binding lines of two rendered headers, ignoring
  /// provenance ('#') lines. On mismatch fills \p Why with the first
  /// differing line pair.
  static bool matches(const std::string &HeaderA, const std::string &HeaderB,
                      std::string &Why);

private:
  std::vector<std::pair<std::string, std::string>> Lines;
};

//===----------------------------------------------------------------------===//
// Unit records
//===----------------------------------------------------------------------===//

/// Journal entry payloads are line-based records: the first line is the
/// unit key, each following line "k=v". Values must be single-line;
/// multi-line data (route strings never are) would need escaping this
/// format does not provide.
struct UnitRecord {
  std::string Key;
  std::vector<std::pair<std::string, std::string>> Fields;

  void add(const std::string &K, const std::string &V);
  void addInt(const std::string &K, long long V);
  /// First value for \p K, or "" (repeated keys are allowed; use all() for
  /// list-shaped fields like per-violation lines).
  const std::string *get(const std::string &K) const;
  std::vector<std::string> all(const std::string &K) const;

  std::string render() const;
  static bool parse(const std::string &Payload, UnitRecord &Out);
};

/// Serializes a RunOutcome (+ attempt count) into \p R under the keys
/// "status"/"site"/"detail"/"attempts".
void addOutcome(UnitRecord &R, const RunOutcome &O, unsigned Attempts);
/// Restores an outcome recorded by addOutcome; Site maps back to the
/// static site-name string so replayed outcomes compare identical to
/// live ones. Returns false on an unknown status name.
bool parseOutcome(const UnitRecord &R, RunOutcome &O, unsigned &Attempts);

//===----------------------------------------------------------------------===//
// ResumeLog
//===----------------------------------------------------------------------===//

/// A journal opened for a run. open() decides between three cases:
///
///  - no file (or torn header): fresh journal, zero replayed units;
///  - valid journal, binding matches: completed units load for replay and
///    new completions append (any torn tail is truncated first);
///  - corrupt interior or binding mismatch: open fails with Hard=true —
///    drivers report the message and exit 2 rather than risk resuming
///    against the wrong inputs.
class ResumeLog {
public:
  struct OpenResult {
    std::unique_ptr<ResumeLog> Log;
    std::string Error; ///< Set when Log is null.
    bool Hard = false; ///< Corruption/mismatch: exit 2, do not retry.
  };
  static OpenResult open(const std::string &Path, const RunBinding &Binding);

  /// True when \p Key completed in a previous run; fills \p Out.
  bool replay(const std::string &Key, UnitRecord &Out) const;

  /// Durably records a completed unit. Thread-safe; one frame + fdatasync
  /// per call. Journal I/O failure disables further writes (stderr warning
  /// once) but never fails the run — the journal is a recovery aid, not a
  /// correctness dependency.
  void recordDone(const UnitRecord &R);

  /// Units loaded from the journal at open.
  size_t replayedCount() const { return Replayed.size(); }
  /// Units loaded + units recorded by this process (each key counted once).
  size_t entryCount() const;
  bool tornTailDropped() const { return TornTail; }
  const std::string &path() const { return Path; }

private:
  ResumeLog() = default;

  std::string Path;
  bool TornTail = false;
  std::map<std::string, UnitRecord> Replayed;
  mutable std::mutex M;
  size_t NewlyRecorded = 0; ///< Guarded by M.
  std::unique_ptr<JournalWriter> Writer; ///< Guarded by M.
  bool WarnedBroken = false;             ///< Guarded by M.
};

//===----------------------------------------------------------------------===//
// RetryPolicy
//===----------------------------------------------------------------------===//

/// Per-unit retry for transient failures. A unit outcome is *transient*
/// when it is a resource limit other than cancellation (deadline, step/
/// node/heap budget, injected fault): the same unit may well succeed with
/// a bigger budget or without the injected fault. Cancellation is the
/// whole run stopping — never retried, never durably recorded, so the
/// unit re-runs on resume. EvalError/InternalError are deterministic and
/// retrying them would just repeat the failure.
struct RetryPolicy {
  /// Total attempts per unit (1 = retry disabled, the default — existing
  /// single-shot semantics are unchanged unless a driver opts in).
  unsigned MaxAttempts = 1;
  /// Budget escalation per retry: attempt k runs with every finite limit
  /// of the unit budget multiplied by BudgetScale^(k-1).
  double BudgetScale = 2.0;

  bool enabled() const { return MaxAttempts > 1; }
};

/// True when \p O is worth retrying under the policy above.
bool isTransientOutcome(const RunOutcome &O);

/// \p Budget with every finite limit scaled by \p Scale^(Attempt-1); the
/// CancelToken pointer is preserved (escalation never un-cancels a run).
RunBudget escalateBudget(const RunBudget &Budget, double Scale,
                         unsigned Attempt);

/// Runs \p Unit (called with the attempt's budget; must return the unit's
/// RunOutcome and be re-runnable from scratch) up to Policy.MaxAttempts
/// times, escalating the budget between attempts, until the outcome is ok
/// or non-transient. Returns the final outcome and fills \p AttemptsOut.
RunOutcome runUnitWithRetry(const RunBudget &Budget, const RetryPolicy &Policy,
                            unsigned &AttemptsOut,
                            const std::function<RunOutcome(const RunBudget &)> &Unit);

//===----------------------------------------------------------------------===//
// GracefulShutdown
//===----------------------------------------------------------------------===//

/// Signal-driven cancellation for the CLI drivers. Construction blocks
/// SIGINT/SIGTERM in the calling thread (threads spawned later inherit
/// the mask) and starts a watcher thread that waits for them; the first
/// signal trips the CancelToken — in-flight jobs drain at their next
/// governor safe point and the driver exits through the normal
/// Canceled-outcome path (exit 3). A second signal hard-exits(3)
/// immediately for runs wedged outside any safe point.
///
/// requestCancel() runs interrupt hooks under a mutex and is not
/// async-signal-safe, which is exactly why this is a sigwait-style
/// watcher thread and not a signal handler.
class GracefulShutdown {
public:
  explicit GracefulShutdown(CancelToken &Token);
  ~GracefulShutdown();
  GracefulShutdown(const GracefulShutdown &) = delete;
  GracefulShutdown &operator=(const GracefulShutdown &) = delete;

  /// The delivered signal number, or 0.
  int signalNumber() const { return Sig.load(std::memory_order_relaxed); }
  bool triggered() const { return signalNumber() != 0; }

private:
  CancelToken &Token;
  std::atomic<int> Sig{0};
  std::atomic<bool> Stop{false};
  sigset_t WaitSet{};
  sigset_t OldMask{};
  std::thread Watcher;
};

} // namespace nv

#endif // NV_SUPPORT_RESUME_H
