//===- Governor.h - Run governance: budgets, deadlines, cancellation -*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-governance layer. A production service cannot let one bad job
/// take the process down: non-terminating policies (paper footnote 2),
/// solver blow-ups, and MTBDD arena growth must all degrade into a
/// *structured, reportable* outcome instead of an abort or a hang.
///
/// Three pieces:
///
///  - RunBudget / Governor: a wall-clock deadline, a unified step budget
///    (subsuming the old ad-hoc SimOptions/FtOptions::MaxSteps pop
///    budgets), an MTBDD live-node budget, and an approximate heap
///    watermark, plus an optional shared CancelToken. Engines arm a
///    Governor::Scope at entry; cheap safe points — simulator worklist
///    pop, MTBDD apply-cache miss and table grow, evaluator allocation,
///    SMT encode loop, solver check — poll the thread-local governor
///    chain and throw EngineError when a budget trips. The three kernel
///    sites (apply-cache miss, table grow, allocation) poll only when
///    something can trip there (Governor::pollsKernelSites), so a run
///    governed by a step budget alone pays for it only at the pop. Safe
///    points sit only where engine state is consistent (before a
///    mutation), so unwinding leaves arenas and tables valid.
///
///  - EngineError / RunOutcome: the recoverable replacement for the old
///    user-triggerable fatalError aborts. Engines catch EngineError at
///    their boundary and surface a RunOutcome; sharded engines catch per
///    job, so one governed job's failure never poisons sibling shards.
///
///  - FaultInject: deterministic fault injection. NV_FAULT_INJECT=
///    "<site>:<countdown>[,<site>:<countdown>]" arms a countdown per safe-
///    point site; the countdown'th hit of that site throws EngineError
///    with RunStatus::FaultInjected. Tests and CI use it to prove every
///    degradation path recovers.
///
/// Threading: the governor chain is thread-local. A Scope governs the
/// arming thread only; sharded engines arm one Scope per job inside the
/// worker lambda (sharing the caller's CancelToken through the budget),
/// which is what confines a budget trip to the one governed job.
/// FaultInject countdowns are process-global atomics: the N'th hit
/// process-wide fires, whichever thread performs it.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_GOVERNOR_H
#define NV_SUPPORT_GOVERNOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace nv {

//===----------------------------------------------------------------------===//
// RunOutcome
//===----------------------------------------------------------------------===//

/// How a governed engine run ended. Everything except Ok is a graceful
/// degradation: the engine returned a structured result instead of
/// aborting the process.
enum class RunStatus : uint8_t {
  Ok = 0,
  DeadlineExceeded,   ///< RunBudget::DeadlineMs elapsed.
  StepBudgetExceeded, ///< RunBudget::MaxSteps work units consumed.
  NodeBudgetExceeded, ///< MTBDD live nodes exceeded RunBudget::MaxLiveNodes.
  HeapBudgetExceeded, ///< Approximate heap use exceeded RunBudget::MaxHeapBytes.
  Canceled,           ///< The run's CancelToken was triggered.
  FaultInjected,      ///< A deterministic NV_FAULT_INJECT countdown fired.
  Overloaded,         ///< Shed by serve admission control: the request was
                      ///< never run. Carries retry_after_ms in the serve
                      ///< response; a resource-limit (exit 3) outcome.
  Quarantined,        ///< A fleet poison job: it killed PoisonThreshold
                      ///< workers and was pulled from the queue with a repro
                      ///< artifact instead of being retried forever. A
                      ///< resource-limit (exit 3) outcome; never transient.
  EvalError,          ///< User-program-triggerable semantic error (the old
                      ///< recoverable fatalError class: inexhaustive match,
                      ///< unencodable type, non-function application, ...).
  InternalError,      ///< An nv-cpp bug surfaced recoverably.
};

/// Stable lowercase-kebab name ("deadline-exceeded", ...).
const char *runStatusName(RunStatus S);
/// Parses a runStatusName back; returns false on unknown names. Used when
/// deserializing journaled outcomes (Resume.h).
bool runStatusFromName(const std::string &Name, RunStatus &Out);

/// True for the budget/cancellation/fault statuses: the engine was told to
/// stop, nothing is semantically wrong with the input or the code. These
/// outcomes reduce to one canonical "skip" fingerprint in the differential
/// oracle and map to process exit code 3.
bool isResourceLimit(RunStatus S);

/// The structured result of a governed run.
struct RunOutcome {
  RunStatus Status = RunStatus::Ok;
  std::string Detail;     ///< Human-readable explanation (may be empty).
  const char *Site = "";  ///< Safe-point site that tripped ("" = n/a).

  bool ok() const { return Status == RunStatus::Ok; }
  bool resourceLimit() const { return isResourceLimit(Status); }

  /// "ok", or "<status>@<site>: <detail>".
  std::string str() const;
};

/// Maps an outcome to the documented process exit codes: 0 ok, 2 user
/// error (EvalError), 3 resource-exhausted (budgets, cancellation,
/// injected faults), 4 internal bug. (1, property-falsified, is not an
/// outcome — drivers return it from their own verdict.)
int exitCodeForOutcome(const RunOutcome &O);

//===----------------------------------------------------------------------===//
// EngineError
//===----------------------------------------------------------------------===//

/// Thrown at safe points (budget trips, cancellation, injected faults) and
/// by evalError() on user-triggerable semantic errors. Engines catch it at
/// their boundary and return the carried RunOutcome; sharded engines catch
/// per job. Never deliberately thrown across a library API boundary — a
/// propagating EngineError means an engine forgot its catch, and the CLI
/// top-level handler still turns it into a structured exit.
class EngineError : public std::exception {
public:
  explicit EngineError(RunOutcome O) : O(std::move(O)) {
    Rendered = this->O.str();
  }
  const RunOutcome &outcome() const { return O; }
  const char *what() const noexcept override { return Rendered.c_str(); }

private:
  RunOutcome O;
  std::string Rendered;
};

/// Throws EngineError{S, Detail, Site}.
[[noreturn]] void throwEngineError(RunStatus S, const char *Site,
                                   std::string Detail);

/// Recoverable replacement for fatalError on user-triggerable evaluation/
/// encoding paths: throws EngineError with RunStatus::EvalError.
[[noreturn]] void evalError(const std::string &Msg);

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

/// A shared cooperative-cancellation flag. Cheap to poll (one relaxed
/// atomic load); requestCancel() additionally runs registered interrupt
/// hooks so blocking work that cannot poll — a running z3::solver::check —
/// is interrupted too.
class CancelToken {
public:
  void requestCancel();
  bool isCanceled() const { return Flag.load(std::memory_order_relaxed); }
  /// Re-arms the token for a fresh run (hooks are kept).
  void reset() { Flag.store(false, std::memory_order_relaxed); }

  /// Registers \p Fn to run inside requestCancel(); returns an id for
  /// removeInterruptHook. Hooks must be safe to call from any thread and
  /// must not block (z3's context::interrupt qualifies). removeInterruptHook
  /// synchronizes with a concurrent requestCancel: after it returns the
  /// hook is guaranteed not to be running.
  uint64_t addInterruptHook(std::function<void()> Fn);
  void removeInterruptHook(uint64_t Id);

private:
  std::atomic<bool> Flag{false};
  std::mutex HooksM;
  std::vector<std::pair<uint64_t, std::function<void()>>> Hooks;
  uint64_t NextHookId = 1;
};

//===----------------------------------------------------------------------===//
// RunBudget
//===----------------------------------------------------------------------===//

/// Resource limits for one governed run (all 0 / null = unlimited).
struct RunBudget {
  /// Wall-clock deadline in milliseconds, measured from Scope arming.
  double DeadlineMs = 0;
  /// Unified step budget: one step per simulator worklist pop. Subsumes
  /// the old SimOptions::MaxSteps / FtOptions::MaxSteps pop budgets.
  uint64_t MaxSteps = 0;
  /// MTBDD live-node budget, checked at apply-cache-miss and table-grow
  /// safe points against the manager's node count.
  size_t MaxLiveNodes = 0;
  /// Approximate heap watermark in bytes (MTBDD nodes + tables + caches),
  /// checked at the same sites.
  size_t MaxHeapBytes = 0;
  /// Optional shared cancellation token, polled at every safe point.
  CancelToken *Cancel = nullptr;

  bool limited() const {
    return DeadlineMs > 0 || MaxSteps > 0 || MaxLiveNodes > 0 ||
           MaxHeapBytes > 0 || Cancel != nullptr;
  }
};

/// The budget limits a command line or request names (`--deadline-ms`,
/// `--max-steps`, `--node-budget`; serve's "deadline_ms", "max_steps",
/// "node_budget", "heap_budget"); 0 = not named.
struct BudgetLimits {
  double DeadlineMs = 0;
  uint64_t MaxSteps = 0;
  uint64_t NodeBudget = 0;
  uint64_t HeapBytes = 0;

  /// Overlays the named limits onto \p B, an engine's default budget. A
  /// limit not named keeps the default, so the simulator's and the
  /// fault-tolerance analysis' step budgets survive a run that names only
  /// a deadline.
  void overlay(RunBudget &B) const;
};

//===----------------------------------------------------------------------===//
// Safe-point sites
//===----------------------------------------------------------------------===//

/// The safe-point inventory. Each site is a point where engine state is
/// consistent and an EngineError may be thrown; the same ids name
/// NV_FAULT_INJECT injection sites.
enum class GovSite : uint8_t {
  SimPop = 0,     ///< "sim-pop": simulator worklist pop (counts one step).
  ApplyCacheMiss, ///< "apply-cache-miss": MTBDD op-cache miss, pre-recursion.
  TableGrow,      ///< "table-grow": MTBDD unique/leaf/op-cache growth.
  EvalAlloc,      ///< "alloc": value-arena interning of a new value.
  SmtEncode,      ///< "smt-encode": SMT per-node encode loop.
  SolverCheck,    ///< "solver-check": immediately before z3 solver.check().
  // Serve request-lifecycle sites (hit only by the nv serve daemon; no
  // engine state to keep consistent, they exist so chaos/fault CI can
  // fail each stage of the request path deterministically).
  ServeAccept,    ///< "serve-accept": request admission, before journaling.
  ServeEnqueue,   ///< "serve-enqueue": request dispatch onto the pool.
  ServeRespond,   ///< "serve-respond": response finalization, pre-journal-done.
  // Fleet job-lifecycle sites (hit by the coordinator/worker layer in
  // Fleet.cpp; they let chaos CI fail spawn, dispatch, and result
  // handling deterministically).
  FleetSpawn,     ///< "fleet-spawn": coordinator, before forking a worker.
  FleetDispatch,  ///< "fleet-dispatch": worker, on receiving a job, before
                  ///< running it (uncaught by design — firing it crashes
                  ///< the worker process, exercising requeue-and-respawn).
  FleetResult,    ///< "fleet-result": coordinator, on receiving a result
                  ///< frame, before recording it.
};
constexpr unsigned NumGovSites = 12;

const char *govSiteName(GovSite S);
/// Parses a site name; returns false on unknown names.
bool govSiteFromName(const std::string &Name, GovSite &Out);

//===----------------------------------------------------------------------===//
// FaultInject
//===----------------------------------------------------------------------===//

/// Deterministic fault injection: per-site atomic countdowns, armed from
/// the NV_FAULT_INJECT environment variable at process start (or
/// programmatically by tests). The N'th process-wide hit of an armed site
/// throws EngineError{FaultInjected}.
class FaultInject {
public:
  /// Arms \p Site to fire on its \p Countdown'th hit (1 = next hit).
  static void arm(GovSite Site, uint64_t Countdown);
  /// Disarms every site.
  static void disarmAll();
  /// Parses "<site>:<countdown>[,<site>:<countdown>]*" and arms the sites;
  /// returns false (arming nothing further) on a malformed spec.
  static bool armFromSpec(const std::string &Spec, std::string *ErrorOut);
  /// Reads NV_FAULT_INJECT; malformed specs abort (a mistyped injection
  /// spec silently injecting nothing would defeat the CI matrix).
  static void armFromEnv();

  /// True when any site is armed. One relaxed load; with a thread-local
  /// counter (Governor::pollsKernelSites) it is all a kernel site costs a
  /// run that nothing can trip there.
  static bool armed() { return AnyArmed.load(std::memory_order_relaxed); }

  /// Registers a hit of \p Site; throws when its countdown fires. Called
  /// through Governor::pollSafePoint, behind armed().
  static void hit(GovSite Site);

private:
  static std::atomic<bool> AnyArmed;
  static std::atomic<int64_t> Countdown[NumGovSites];
};

//===----------------------------------------------------------------------===//
// Governor
//===----------------------------------------------------------------------===//

/// Enforces one RunBudget over the current thread. Armed via Governor::
/// Scope; nested scopes form a chain and every safe point checks the whole
/// chain (innermost first), so an engine's own budget and an outer
/// driver's deadline compose.
class Governor {
public:
  /// RAII arming. A Scope with an unlimited budget arms nothing and costs
  /// nothing at safe points.
  class Scope {
  public:
    explicit Scope(const RunBudget &B);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Governor *G = nullptr;
  };

  /// The innermost governor armed on this thread, or null.
  static Governor *current() { return Head; }

  /// True when a poll at a kernel site (apply-cache-miss, table-grow,
  /// alloc) can trip on this thread: fault injection is armed, or some
  /// governor in the chain has a deadline, node budget, heap watermark or
  /// cancel token. A step budget counts only at sim-pop, so under a chain
  /// of step-only governors these sites cost this one test. Kernel sites
  /// branch on it before computing poll arguments; every other site polls
  /// unconditionally.
  static bool pollsKernelSites() {
    return KernelPollers != 0 || FaultInject::armed();
  }

  /// The safe-point check: fault injection first, then every governor in
  /// the chain. \p LiveNodes / \p HeapBytes carry the MTBDD manager's
  /// occupancy at MTBDD sites (0 elsewhere). Throws EngineError when a
  /// countdown or budget trips.
  static void pollSafePoint(GovSite Site, size_t LiveNodes = 0,
                            size_t HeapBytes = 0) {
    if (FaultInject::armed())
      FaultInject::hit(Site);
    for (Governor *G = Head; G; G = G->Prev)
      G->checkOne(Site, LiveNodes, HeapBytes);
  }

  /// Milliseconds until the tightest deadline in this thread's chain, or
  /// a negative value when no deadline is armed. Used to derive solver
  /// timeouts so z3 respects the run's deadline.
  static double remainingMs();

  /// The tightest heap watermark (RunBudget::MaxHeapBytes) in this
  /// thread's chain, or 0 when none is armed: for work that must refuse a
  /// large allocation before making it.
  static size_t heapWatermark();

  const RunBudget &budget() const { return B; }
  uint64_t stepsTaken() const { return Steps; }

private:
  friend class Scope;
  explicit Governor(const RunBudget &Budget);

  void checkOne(GovSite Site, size_t LiveNodes, size_t HeapBytes);
  [[noreturn]] void trip(RunStatus S, GovSite Site, std::string Detail);

  RunBudget B;
  Governor *Prev = nullptr;
  /// B can trip at a kernel site (counted in KernelPollers while armed).
  bool PollsKernel = false;
  std::chrono::steady_clock::time_point Deadline{};
  bool HasDeadline = false;
  uint64_t Steps = 0;
  /// Amortizes clock reads on the hot sites (apply-cache-miss, alloc);
  /// cold sites check the deadline on every poll.
  uint32_t DeadlineCountdown = 0;
  static constexpr uint32_t DeadlinePollEvery = 64;

  /// Defined here and constant-initialized, so every TU reads it with one
  /// thread-pointer-relative load and no TLS wrapper. (UBSan null-checks
  /// the address a wrapper computes, and once the linker relaxes that TLS
  /// access the check reads stale flags: a false report.)
  static inline constinit thread_local Governor *Head = nullptr;
  /// Armed governors in this thread's chain, outer ones included, whose
  /// budget can trip at a kernel site.
  static inline constinit thread_local uint32_t KernelPollers = 0;
};

} // namespace nv

#endif // NV_SUPPORT_GOVERNOR_H
