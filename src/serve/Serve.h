//===- Serve.h - Long-lived verification service core -----------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `nv serve` session and request manager, independent of any socket:
/// a ServeCore holds loaded networks resident (parsed AST, evaluators with
/// pinned closures, the MTBDD context) so one `load` followed by many
/// `verify`/`sim`/`ft` requests hits warm caches — the parse, typecheck,
/// Fig. 5 transform, closure compilation, and predicate-BDD work all
/// amortize across requests instead of being repaid per CLI invocation.
///
/// Requests are single-line JSON objects; responses are single-line JSON
/// with at least {"id", "ok", "code"} where "code" follows the CLI exit
/// taxonomy (0 ok, 1 property falsified, 2 user error, 3 resource
/// exhausted, 4 internal error). Verbs:
///
///   ping      liveness probe
///   load      {"session"?, "program"|"path"} -> resident session
///   unload    {"session"} drop a session
///   sim       {"session", "native"?, budgets...} Algorithm 1 run
///   verify    {"session", "timeout_ms"?, budgets...} SMT verification
///   ft        {"session", "links"?, "node"?, "native"?, budgets...}
///             Fig. 5 fault-tolerance analysis (the warm-path showcase:
///             the meta-program and its evaluators are cached per
///             (links, node, native) key, so repeat queries skip the
///             transform and go straight to the meta-simulation)
///   stats     pool occupancy, cache hit rates, GC counters, latencies
///   health    admission state: "ready" | "overloaded" | "draining"
///   shutdown  ask the daemon to exit cleanly
///
/// Overload: engine verbs (load/unload/sim/verify/ft) pass admission
/// control — when MaxInflight of them are executing and QueueDepth more
/// wait, a new one is shed with an immediate code-3 response carrying
/// "overloaded": true and a "retry_after_ms" backoff hint, and is never
/// journaled. Control verbs always get through. Under a configured heap
/// watermark the daemon degrades before rejecting: result memos, then
/// idle sessions (coldest first), are given back ahead of bouncing a
/// load. See DESIGN.md §8 "Overload & supervision".
///
/// Two cache layers serve the query verbs. The engine-artifact layer
/// (parsed AST, evaluators with pinned closures, the ft meta-program per
/// (links, node, native) key) makes a recompute warm: the transform and
/// closure builds are skipped, only the simulation/solve re-runs. Above
/// it, a per-session result memo answers an *identical* repeat query
/// from the cached response without running any engine — sound because
/// every engine is deterministic for a fixed program and options (the
/// warm/cold bit-identity the tests pin down). Only verdict responses
/// (code 0/1) memoize; errors and budget/cancellation trips always
/// re-run, and a reload replaces the session, caches included. Pass
/// "fresh": true on a query to force a recompute (it refreshes the memo).
///
/// Budget options (deadline_ms, max_steps, node_budget, heap_budget) arm
/// a per-request Governor scope, so one request tripping its budget — or
/// its client disconnecting, via the per-request CancelToken — never
/// perturbs concurrent requests or the daemon itself.
///
/// Concurrency model: requests dispatch onto the shared ThreadPool via
/// submit(); each session has a mutex (an NvContext is single-threaded),
/// so requests to the same session serialize while requests to different
/// sessions run in parallel.
///
/// Crash durability: with a journal path configured, every accepted
/// request is recorded before it runs and marked done when it finishes
/// (support/Journal.h frames). create() replays accepted-but-unfinished
/// requests from a previous process in acceptance order before serving.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SERVE_SERVE_H
#define NV_SERVE_SERVE_H

#include "support/Json.h"
#include "serve/RequestLog.h"
#include "support/Governor.h"
#include "support/ThreadPool.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace nv {

struct ServeSession;

struct ServeConfig {
  /// Worker threads for the request pool. 0 = NV_THREADS / hardware
  /// concurrency. Note a pool of one runs submit() inline, which makes
  /// every request synchronous — fine for tests, but disconnect
  /// cancellation needs a second thread to observe the hangup.
  unsigned Threads = 0;
  /// Resident-session cap; loading beyond it evicts the least recently
  /// used session (never the one just loaded).
  size_t MaxSessions = 8;
  /// Optional request-queue crash log (RequestLog.h). Empty = no journal.
  std::string JournalPath;

  /// Admission control. A submitted engine request (load/unload/sim/
  /// verify/ft) arriving when MaxInflight requests are already executing
  /// AND QueueDepth more are waiting is shed: an immediate code-3
  /// response with "overloaded": true and a "retry_after_ms" hint,
  /// never journaled, never queued. Control verbs (ping/stats/health/
  /// shutdown) are always admitted so a saturated daemon stays
  /// observable and stoppable. MaxInflight 0 = the pool's worker count
  /// (threads - 1: submitted tasks only run on workers).
  size_t MaxInflight = 0;
  size_t QueueDepth = 64;

  /// Soft MTBDD heap budget summed across all resident sessions (bytes,
  /// 0 = unlimited). A `load` arriving above the watermark first purges
  /// result memos, then evicts idle sessions coldest-first; only when
  /// nothing evictable remains (every other session is mid-request) is
  /// the load itself rejected with the overloaded response.
  size_t HeapBudgetBytes = 0;

  /// Per-session result-memo entry cap (oldest-entry eviction; 0 = off).
  size_t MemoEntryCap = 256;

  /// Supervisor restart generation (0 = first/unsupervised life),
  /// surfaced in stats so operators can see crash-restart churn.
  uint64_t Generation = 0;

  /// Why the previous supervised life ended ("signal:9", "code:4", ...;
  /// "" = first life). Set from NV_SERVE_LAST_EXIT and surfaced in the
  /// health verb, so operators see crash *causes*, not just the count.
  std::string LastExit;
};

class ServeCore {
public:
  struct CreateResult {
    std::unique_ptr<ServeCore> Core;
    std::string Error; ///< Set when Core is null.
    bool Hard = false; ///< Journal corruption/mismatch: exit 2.
  };

  /// Builds the core, opening the journal and synchronously replaying any
  /// pending requests from a previous process (their outcomes are
  /// journaled as usual; a replayed shutdown is drained without stopping
  /// the fresh daemon).
  static CreateResult create(const ServeConfig &Cfg);

  ~ServeCore();

  /// Completion handle for an asynchronous request.
  struct Pending {
    std::mutex M;
    std::condition_variable Cv;
    bool Done = false;
    Json Response;

    /// Blocks until the response is ready, then returns it.
    Json wait();
    /// Waits up to \p Ms milliseconds; false on timeout.
    bool waitFor(unsigned Ms);
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// Accepts one request line: journals acceptance, dispatches onto the
  /// pool, returns immediately. \p Cancel (optional) is polled at the
  /// request's engine safe points — trip it to abandon the request (it
  /// still completes, with a Canceled outcome, keeping session state and
  /// the journal consistent).
  PendingPtr submit(const std::string &Line,
                    std::shared_ptr<CancelToken> Cancel = nullptr);

  /// Synchronous convenience: accept, execute inline, return the response.
  Json executeLine(const std::string &Line, CancelToken *Cancel = nullptr);

  /// True once a shutdown request was executed; the socket layer's accept
  /// loop polls this.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_acquire);
  }

  /// The health verb's state machine, cheap enough to poll per request:
  /// "draining" once shutdown was requested, "overloaded" while admission
  /// would shed an engine verb arriving right now, else "ready".
  const char *healthState() const;

  /// True when an engine verb submitted now would be shed (MaxInflight
  /// requests executing and QueueDepth more already waiting).
  bool wouldShed() const;

  /// Pending requests replayed from the journal during create().
  size_t replayedCount() const { return Replayed; }

  ThreadPool &pool() { return Pool; }

  /// The stats verb's payload (also handy for tests).
  Json statsJson() const;

private:
  explicit ServeCore(const ServeConfig &Cfg);

  // Request lifecycle.
  Json run(const std::string &Id, const std::string &Line,
           CancelToken *Cancel, bool RecordAccepted);
  Json dispatch(const std::string &Id, const std::string &Line,
                CancelToken *Cancel);

  // Verb executors (Session mutex held where one is passed).
  Json doLoad(const Json &Req, const std::string &Id);
  Json doSim(ServeSession &S, const Json &Req, const std::string &Id,
             CancelToken *Cancel);
  Json doVerify(ServeSession &S, const Json &Req, const std::string &Id,
                CancelToken *Cancel);
  Json doFt(ServeSession &S, const Json &Req, const std::string &Id,
            CancelToken *Cancel);

  std::shared_ptr<ServeSession> findSession(const std::string &Name);
  void noteLatency(double Ms);

  /// The shed response: code 3, "overloaded": true, a retry_after_ms
  /// hint. Never journaled — a shed request was never accepted.
  Json shedResponse(const std::string &Id) const;
  /// Backoff hint for shed responses: recent mean latency scaled by queue
  /// occupancy per worker, clamped to [25, 5000] ms.
  unsigned retryAfterMsHint() const;
  /// Sum of every resident session's approximate MTBDD heap bytes.
  uint64_t residentBytesApprox() const;
  /// Degradation under pressure, called before an expensive load when a
  /// heap budget is configured: purge idle sessions' result memos, then
  /// evict idle sessions coldest-first, until the resident total drops
  /// under the budget or nothing evictable remains. \p Exempt (the
  /// session being (re)loaded) is never touched. Returns true if the
  /// total is under budget on exit.
  bool relievePressure(const std::string &Exempt);
  /// Oldest-entry memo eviction down to Cfg.MemoEntryCap (session mutex
  /// held by the caller).
  void capMemo(ServeSession &S);

  ServeConfig Cfg;
  std::unique_ptr<RequestLog> Log;
  std::chrono::steady_clock::time_point Start;
  std::atomic<bool> Shutdown{false};
  bool Replaying = false; ///< Only set during create(), before threads.
  size_t Replayed = 0;

  std::atomic<uint64_t> NextSeq{1};     ///< Request ids ("r<seq>").
  std::atomic<uint64_t> NextSession{1}; ///< Generated session names.

  mutable std::mutex SessionsM;
  std::map<std::string, std::shared_ptr<ServeSession>> Sessions;
  std::atomic<uint64_t> SessionsLoaded{0};
  std::atomic<uint64_t> SessionsEvicted{0};

  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> Active{0};
  std::array<std::atomic<uint64_t>, 5> ByCode{};

  /// Admission control. ReqActive/ReqQueued track *engine* requests only
  /// (control verbs are always admitted and excluded from the backlog);
  /// MaxInflightEff is Cfg.MaxInflight resolved against the pool size.
  size_t MaxInflightEff = 1;
  std::atomic<uint64_t> ReqActive{0};
  std::atomic<uint64_t> ReqQueued{0};
  std::atomic<uint64_t> Shed{0}; ///< Requests rejected by admission.
  /// Degradation counters: memo entries dropped (cap or pressure), idle
  /// sessions evicted by the heap watermark, loads rejected because
  /// nothing could be evicted.
  std::atomic<uint64_t> MemoEvicted{0};
  std::atomic<uint64_t> PressureEvicted{0};
  std::atomic<uint64_t> LoadsRejected{0};
  /// ft transform-cache hits/misses: a hit is a repeat (links, node,
  /// native) query on a session — the warm path the service exists for.
  std::atomic<uint64_t> FtWarmHits{0};
  std::atomic<uint64_t> FtWarmMisses{0};
  /// Result-memo hits/misses: a hit answers an identical repeat query
  /// from the session's response cache without running any engine.
  std::atomic<uint64_t> ResultHits{0};
  std::atomic<uint64_t> ResultMisses{0};

  /// Bounded ring of request latencies (accept -> response) for the
  /// stats verb's percentiles.
  mutable std::mutex LatM;
  std::vector<double> LatRing;
  size_t LatPos = 0;
  size_t LatCount = 0;

  /// Declared last so it is destroyed first: queued request tasks drain
  /// (inline, in the pool destructor) while every member they touch —
  /// sessions, journal, counters — is still alive.
  ThreadPool Pool;
};

/// Overlays a request's budget fields (deadline_ms, max_steps,
/// node_budget, heap_budget) onto \p B, an engine's default budget: a
/// field the request leaves out keeps the default, as on the command line.
/// Each field must be a number >= 0, and all but deadline_ms whole; false,
/// with \p Error naming the field, otherwise.
bool overlayRequestBudget(const Json &Req, RunBudget &B, std::string &Error);

} // namespace nv

#endif // NV_SERVE_SERVE_H
