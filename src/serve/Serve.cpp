//===- Serve.cpp - Long-lived verification service core -----------------------===//

#include "serve/Serve.h"

#include "analysis/FaultTolerance.h"
#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "sim/Simulator.h"
#include "smt/Verifier.h"
#include "support/Journal.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

using namespace nv;

//===----------------------------------------------------------------------===//
// ServeSession
//===----------------------------------------------------------------------===//

namespace nv {

/// One resident network. The context is declared before every cache that
/// holds values interned in it, so it is destroyed last.
struct ServeSession {
  std::string Name;
  std::string SourceHash; ///< fnv1a64 of the printed (canonical) program.
  Program Prog;
  std::unique_ptr<NvContext> Ctx;

  /// The prepared Fig. 5 pipeline per analysis variant. Its evaluators
  /// pin their globals and partial applications, so it stays valid across
  /// resetBetweenRuns() — this is what makes repeat ft queries warm.
  using FtKey = std::tuple<unsigned, bool, bool, std::string>;
  std::map<FtKey, std::unique_ptr<PreparedFt>> Ft;

  /// Cached sim evaluators, [0] interpreted / [1] compiled.
  std::unique_ptr<ProtocolEvaluator> SimEval[2];

  /// Memoized responses for verdict-producing requests (code 0/1), keyed
  /// by the canonicalized request options. Sound because every engine is
  /// deterministic for a fixed program and options (the warm/cold
  /// bit-identity the tests pin down); error and budget-tripped responses
  /// are never stored, and a reload replaces the whole session, caches
  /// included. Guarded by M.
  std::map<std::string, Json> Results;

  /// An NvContext is single-threaded: requests to one session serialize
  /// here while requests to different sessions run in parallel.
  std::mutex M;
  std::atomic<uint64_t> Requests{0};
  std::chrono::steady_clock::time_point LastUsed; ///< Guarded by SessionsM.

  /// Approximate MTBDD heap of this session, refreshed after load and
  /// after every engine request while M is held. An atomic snapshot so
  /// the pressure check can sum all sessions without taking any session
  /// mutex (a busy session just contributes its last-known size).
  std::atomic<uint64_t> BytesApprox{0};
};

} // namespace nv

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

namespace {

Json makeResp(const std::string &Id) {
  Json R = Json::object();
  R.set("id", Id);
  return R;
}

Json errResp(const std::string &Id, int Code, const std::string &Msg) {
  Json R = makeResp(Id);
  R.set("ok", false);
  R.set("code", Code);
  R.set("error", Msg);
  return R;
}

Json outcomeResp(const std::string &Id, const RunOutcome &O) {
  Json R = makeResp(Id);
  R.set("ok", false);
  R.set("code", exitCodeForOutcome(O));
  R.set("outcome", O.str());
  R.set("outcome_status", runStatusName(O.Status));
  return R;
}

/// Reads optional member \p Key of \p Req, a whole number that fits T,
/// into \p Out; false, with \p Error naming the field, for anything else.
template <class T>
bool readCount(const Json &Req, const char *Key, T &Out, std::string &Error) {
  const Json *V = Req.get(Key);
  uint64_t N = 0;
  if (V && !(V->isNumber() &&
             wholeNumber(V->number(), std::numeric_limits<T>::max(), N))) {
    Error = std::string("\"") + Key + "\" must be a whole number in [0, " +
            std::to_string(std::numeric_limits<T>::max()) + "]";
    return false;
  }
  if (V)
    Out = static_cast<T>(N);
  return true;
}

/// Canonical memo key for a query: every request member except the
/// non-semantic ones ("id", "fresh"), sorted, so key order on the wire
/// does not split the cache.
std::string memoKey(const Json &Req) {
  std::vector<std::pair<std::string, std::string>> KVs;
  for (const auto &[K, V] : Req.members())
    if (K != "id" && K != "fresh")
      KVs.emplace_back(K, V.dump());
  std::sort(KVs.begin(), KVs.end());
  std::string Out;
  for (const auto &[K, V] : KVs) {
    Out += K;
    Out += '=';
    Out += V;
    Out += ';';
  }
  return Out;
}

/// Engine verbs are subject to admission control and backlog accounting;
/// control verbs (ping/stats/health/shutdown) are always admitted so a
/// saturated daemon stays observable and stoppable.
bool isEngineVerb(const std::string &V) {
  return V == "load" || V == "unload" || V == "sim" || V == "verify" ||
         V == "ft";
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Idx = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Idx - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pending
//===----------------------------------------------------------------------===//

Json ServeCore::Pending::wait() {
  std::unique_lock<std::mutex> L(M);
  Cv.wait(L, [&] { return Done; });
  return Response;
}

bool ServeCore::Pending::waitFor(unsigned Ms) {
  std::unique_lock<std::mutex> L(M);
  return Cv.wait_for(L, std::chrono::milliseconds(Ms), [&] { return Done; });
}

//===----------------------------------------------------------------------===//
// Construction / replay
//===----------------------------------------------------------------------===//

ServeCore::ServeCore(const ServeConfig &CfgIn)
    : Cfg(CfgIn), Start(std::chrono::steady_clock::now()), LatRing(1024, 0),
      Pool(Cfg.Threads) {
  if (Cfg.MaxSessions == 0)
    Cfg.MaxSessions = 1;
  // Default MaxInflight to the pool's *worker* count (a pool of N spawns
  // N-1 workers; submitted tasks only run there), so the bound is
  // actually reachable and the queue-depth term can engage.
  MaxInflightEff = Cfg.MaxInflight ? Cfg.MaxInflight
                   : Pool.numThreads() > 1
                       ? Pool.numThreads() - 1
                       : 1;
}

ServeCore::~ServeCore() = default;

ServeCore::CreateResult ServeCore::create(const ServeConfig &Cfg) {
  CreateResult Res;
  std::unique_ptr<RequestLog> Log;
  std::vector<RequestLog::PendingRequest> Replay;
  if (!Cfg.JournalPath.empty()) {
    RequestLog::OpenResult O = RequestLog::open(Cfg.JournalPath);
    if (!O.Log) {
      Res.Error = O.Error;
      Res.Hard = O.Hard;
      return Res;
    }
    Log = std::move(O.Log);
    Replay = Log->pending();
  }
  std::unique_ptr<ServeCore> Core(new ServeCore(Cfg));
  Core->Log = std::move(Log);
  if (Core->Log)
    Core->NextSeq.store(Core->Log->nextSeq());
  // Replay accepted-but-unfinished requests in acceptance order, before
  // any new request can run. Synchronous: a replayed `load` must finish
  // before the replayed queries that depend on it.
  Core->Replaying = true;
  for (const RequestLog::PendingRequest &P : Replay) {
    Core->run(P.Id, P.Body, /*Cancel=*/nullptr, /*RecordAccepted=*/false);
    ++Core->Replayed;
  }
  Core->Replaying = false;
  Res.Core = std::move(Core);
  return Res;
}

//===----------------------------------------------------------------------===//
// Request lifecycle
//===----------------------------------------------------------------------===//

bool ServeCore::wouldShed() const {
  return ReqActive.load(std::memory_order_relaxed) >= MaxInflightEff &&
         ReqQueued.load(std::memory_order_relaxed) >= Cfg.QueueDepth;
}

const char *ServeCore::healthState() const {
  if (shutdownRequested())
    return "draining";
  if (wouldShed())
    return "overloaded";
  return "ready";
}

unsigned ServeCore::retryAfterMsHint() const {
  // Expected wait = mean recent request latency scaled by the backlog a
  // retry would land behind, spread over the workers. Clamped so a cold
  // daemon never hints 0 and a pathological one never hints minutes.
  double MeanMs = 0;
  {
    std::lock_guard<std::mutex> L(LatM);
    if (LatCount) {
      for (size_t I = 0; I < LatCount; ++I)
        MeanMs += LatRing[I];
      MeanMs /= static_cast<double>(LatCount);
    }
  }
  double Backlog = static_cast<double>(
      ReqQueued.load(std::memory_order_relaxed) + 1);
  double Hint = MeanMs * Backlog / static_cast<double>(Pool.numThreads());
  if (Hint < 25)
    Hint = 25;
  if (Hint > 5000)
    Hint = 5000;
  return static_cast<unsigned>(Hint);
}

Json ServeCore::shedResponse(const std::string &Id) const {
  Json R = makeResp(Id);
  R.set("ok", false);
  R.set("code", 3);
  R.set("overloaded", true);
  R.set("retry_after_ms", retryAfterMsHint());
  RunOutcome O{RunStatus::Overloaded,
               "request shed by admission control", "serve-accept"};
  R.set("outcome", O.str());
  R.set("outcome_status", runStatusName(RunStatus::Overloaded));
  R.set("error", "server overloaded; retry after the hinted backoff");
  return R;
}

ServeCore::PendingPtr ServeCore::submit(const std::string &Line,
                                        std::shared_ptr<CancelToken> Cancel) {
  auto P = std::make_shared<Pending>();
  std::string Id = "r";
  Id += std::to_string(NextSeq.fetch_add(1));
  auto Finish = [P](Json R) {
    {
      std::lock_guard<std::mutex> L(P->M);
      P->Response = std::move(R);
      P->Done = true;
    }
    P->Cv.notify_all();
  };

  // Admission control: engine verbs are shed when MaxInflight requests
  // are executing AND QueueDepth more already wait. Shed before
  // journaling — a shed request was never accepted, so it must never
  // replay (its consumed id is a harmless gap: nextSeq() derives from
  // journaled ids only). The line is parsed a second time in dispatch();
  // classification must not trust a cheaper sniff than dispatch uses.
  Json Req;
  std::string ParseErr;
  bool Engine = Json::parse(Line, Req, ParseErr) && Req.isObject() &&
                isEngineVerb(Req.getString("verb"));
  if (Engine && wouldShed()) {
    Shed.fetch_add(1, std::memory_order_relaxed);
    Finish(shedResponse(Id));
    return P;
  }
  // Fault site "serve-accept": admission passed but acceptance fails
  // before it is durable — the client gets a fault outcome and nothing
  // is journaled, exactly like a shed.
  try {
    FaultInject::hit(GovSite::ServeAccept);
  } catch (const EngineError &E) {
    Finish(outcomeResp(Id, E.outcome()));
    return P;
  }
  // Journal acceptance before queueing: a crash while the request waits
  // for a worker still replays it. Only engine verbs are journaled — the
  // journal replays accepted *work*, and a health probe is not work.
  if (Log && Engine)
    Log->recordAccepted(Id, Line);
  // Control verbs (ping/health/stats/shutdown and malformed lines) run
  // inline on the caller's thread: "always admitted" would be hollow if
  // a health probe still queued behind saturated workers. They are all
  // cheap and never take a session mutex for long.
  if (!Engine) {
    Finish(run(Id, Line, Cancel.get(), /*RecordAccepted=*/false));
    return P;
  }
  ReqQueued.fetch_add(1, std::memory_order_relaxed);
  Pool.submit([this, P, Id, Line, Cancel, Finish] {
    ReqQueued.fetch_sub(1, std::memory_order_relaxed);
    ReqActive.fetch_add(1, std::memory_order_relaxed);
    Json R = run(Id, Line, Cancel.get(), /*RecordAccepted=*/false);
    ReqActive.fetch_sub(1, std::memory_order_relaxed);
    Finish(std::move(R));
  });
  return P;
}

Json ServeCore::executeLine(const std::string &Line, CancelToken *Cancel) {
  std::string Id = "r";
  Id += std::to_string(NextSeq.fetch_add(1));
  return run(Id, Line, Cancel, /*RecordAccepted=*/true);
}

Json ServeCore::run(const std::string &Id, const std::string &Line,
                    CancelToken *Cancel, bool RecordAccepted) {
  Stopwatch W;
  // Only engine verbs touch the journal (they are the replayable work);
  // during replay everything journaled is retired with a done record,
  // which also drains control verbs journaled by older daemons.
  Json ReqSniff;
  std::string SniffErr;
  bool JournalIt =
      Log && (Replaying ||
              (Json::parse(Line, ReqSniff, SniffErr) && ReqSniff.isObject() &&
               isEngineVerb(ReqSniff.getString("verb"))));
  if (RecordAccepted && JournalIt)
    Log->recordAccepted(Id, Line);
  Accepted.fetch_add(1, std::memory_order_relaxed);
  Active.fetch_add(1, std::memory_order_relaxed);
  Json Resp;
  try {
    // Fault sites "serve-enqueue" (the worker picked the request up) and
    // "serve-respond" (response finalization, pre-journal-done). Both
    // fire inside the accounting envelope, so a tripped stage still
    // counts, journals done, and answers the client with a fault outcome.
    FaultInject::hit(GovSite::ServeEnqueue);
    Resp = dispatch(Id, Line, Cancel);
    FaultInject::hit(GovSite::ServeRespond);
  } catch (const EngineError &E) {
    // Verb executors catch at their boundary; this is the backstop for a
    // trip outside any executor (e.g. evaluator construction).
    Resp = outcomeResp(Id, E.outcome());
  } catch (const std::exception &E) {
    Resp = errResp(Id, 4, std::string("internal error: ") + E.what());
  }
  int Code = static_cast<int>(Resp.getNumber("code", 4));
  if (Code < 0 || Code > 4)
    Code = 4;
  ByCode[static_cast<size_t>(Code)].fetch_add(1, std::memory_order_relaxed);
  Active.fetch_sub(1, std::memory_order_relaxed);
  Completed.fetch_add(1, std::memory_order_relaxed);
  noteLatency(W.elapsedMs());
  if (JournalIt) {
    std::string Outc = Resp.getString("outcome");
    if (Outc.empty())
      Outc = Code == 0   ? "ok"
             : Code == 1 ? "falsified"
             : Code == 2 ? "user-error"
             : Code == 3 ? "resource"
                         : "internal";
    for (char &C : Outc) // journal field values are single-line
      if (C == '\n' || C == '\r')
        C = ' ';
    Log->recordDone(Id, Code, Outc);
  }
  return Resp;
}

std::shared_ptr<ServeSession> ServeCore::findSession(const std::string &Name) {
  std::lock_guard<std::mutex> L(SessionsM);
  auto It = Sessions.find(Name);
  if (It == Sessions.end())
    return nullptr;
  It->second->LastUsed = std::chrono::steady_clock::now();
  return It->second;
}

Json ServeCore::dispatch(const std::string &Id, const std::string &Line,
                         CancelToken *Cancel) {
  Json Req;
  std::string Err;
  if (!Json::parse(Line, Req, Err))
    return errResp(Id, 2, "bad request JSON: " + Err);
  if (!Req.isObject())
    return errResp(Id, 2, "request must be a JSON object");
  std::string Verb = Req.getString("verb");

  if (Verb == "ping") {
    Json R = makeResp(Id);
    R.set("ok", true);
    R.set("code", 0);
    R.set("verb", "ping");
    return R;
  }

  if (Verb == "shutdown") {
    Json R = makeResp(Id);
    R.set("ok", true);
    R.set("code", 0);
    // A shutdown replayed from the journal is drained (recorded done) but
    // must not stop the *fresh* daemon it is replaying into.
    if (!Replaying)
      Shutdown.store(true, std::memory_order_release);
    else
      R.set("replayed_noop", true);
    return R;
  }

  if (Verb == "health") {
    // Always admitted and always code 0: health reports the overload
    // state, it does not participate in it.
    Json R = makeResp(Id);
    R.set("ok", true);
    R.set("code", 0);
    R.set("state", healthState());
    R.set("engine_active", ReqActive.load(std::memory_order_relaxed));
    R.set("engine_queued", ReqQueued.load(std::memory_order_relaxed));
    R.set("max_inflight", static_cast<uint64_t>(MaxInflightEff));
    R.set("queue_depth", static_cast<uint64_t>(Cfg.QueueDepth));
    R.set("shed", Shed.load(std::memory_order_relaxed));
    R.set("generation", Cfg.Generation);
    R.set("last_exit", Cfg.LastExit.empty() ? "none" : Cfg.LastExit);
    return R;
  }

  if (Verb == "stats") {
    Json R = makeResp(Id);
    Json S = statsJson();
    for (const auto &[Key, V] : S.members())
      R.set(Key, V);
    return R;
  }

  if (Verb == "load")
    return doLoad(Req, Id);

  if (Verb == "unload") {
    std::string Name = Req.getString("session");
    std::lock_guard<std::mutex> L(SessionsM);
    auto It = Sessions.find(Name);
    if (It == Sessions.end())
      return errResp(Id, 2, "unknown session \"" + Name + "\"");
    Sessions.erase(It);
    Json R = makeResp(Id);
    R.set("ok", true);
    R.set("code", 0);
    R.set("session", Name);
    return R;
  }

  if (Verb == "sim" || Verb == "verify" || Verb == "ft") {
    std::string Name = Req.getString("session");
    std::shared_ptr<ServeSession> S = findSession(Name);
    if (!S)
      return errResp(Id, 2, "unknown session \"" + Name + "\"");
    std::lock_guard<std::mutex> L(S->M);
    S->Requests.fetch_add(1, std::memory_order_relaxed);

    // Result memo: a repeat of an identical verdict-producing query is
    // answered from the session's response cache ("fresh": true forces a
    // recompute, which also refreshes the cached copy).
    std::string Key = memoKey(Req);
    if (!Req.getBool("fresh")) {
      auto It = S->Results.find(Key);
      if (It != S->Results.end()) {
        ResultHits.fetch_add(1, std::memory_order_relaxed);
        Json R = It->second;
        R.set("id", Id);
        R.set("cached", true);
        return R;
      }
      ResultMisses.fetch_add(1, std::memory_order_relaxed);
    }

    Json R;
    if (Verb == "sim")
      R = doSim(*S, Req, Id, Cancel);
    else if (Verb == "verify")
      R = doVerify(*S, Req, Id, Cancel);
    else
      R = doFt(*S, Req, Id, Cancel);
    // Only verdicts memoize: errors and budget/cancellation trips must
    // re-run (codes 2-4 describe the request or the run, not the network).
    if (R.getNumber("code", 4) <= 1) {
      S->Results[Key] = R;
      capMemo(*S);
    }
    S->BytesApprox.store(S->Ctx->Mgr.memoryBytes(),
                         std::memory_order_relaxed);
    return R;
  }

  return errResp(Id, 2, Verb.empty() ? "request has no \"verb\""
                                     : "unknown verb \"" + Verb + "\"");
}

//===----------------------------------------------------------------------===//
// Degradation under pressure
//===----------------------------------------------------------------------===//

void ServeCore::capMemo(ServeSession &S) {
  if (!Cfg.MemoEntryCap)
    return;
  size_t Dropped = 0;
  // std::map iterates in key order, so this erases by key, not recency:
  // the cap is a size backstop against unbounded distinct-query streams,
  // not an LRU — identical repeats (the case the memo exists for) keep
  // hitting whichever entries remain.
  while (S.Results.size() > Cfg.MemoEntryCap) {
    S.Results.erase(S.Results.begin());
    ++Dropped;
  }
  if (Dropped)
    MemoEvicted.fetch_add(Dropped, std::memory_order_relaxed);
}

uint64_t ServeCore::residentBytesApprox() const {
  std::lock_guard<std::mutex> L(SessionsM);
  uint64_t Total = 0;
  for (const auto &[Name, S] : Sessions)
    Total += S->BytesApprox.load(std::memory_order_relaxed);
  return Total;
}

bool ServeCore::relievePressure(const std::string &Exempt) {
  if (!Cfg.HeapBudgetBytes ||
      residentBytesApprox() <= Cfg.HeapBudgetBytes)
    return true;

  // Stage 1: drop the result memos of every idle session (try_lock —
  // a busy session's caches are in use). Memos are small next to MTBDD
  // arenas, but they are the cheapest thing to give back and dropping
  // them never loses accepted work, only recomputes it.
  {
    std::lock_guard<std::mutex> L(SessionsM);
    for (auto &[Name, S] : Sessions) {
      if (Name == Exempt)
        continue;
      if (S->M.try_lock()) {
        MemoEvicted.fetch_add(S->Results.size(), std::memory_order_relaxed);
        S->Results.clear();
        S->M.unlock();
      }
    }
  }

  // Stage 2: evict idle sessions coldest-first until under budget. A
  // busy session is never evicted (its arena cannot be reclaimed while
  // a request runs inside it), and neither is the exempt session being
  // (re)loaded. In-flight holders of an evicted session's shared_ptr
  // finish normally; only the name becomes unresolvable.
  while (residentBytesApprox() > Cfg.HeapBudgetBytes) {
    std::lock_guard<std::mutex> L(SessionsM);
    auto Coldest = Sessions.end();
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It) {
      if (It->first == Exempt)
        continue;
      if (Coldest != Sessions.end() &&
          It->second->LastUsed >= Coldest->second->LastUsed)
        continue;
      if (It->second->M.try_lock()) {
        It->second->M.unlock(); // idle right now; SessionsM blocks lookups
        Coldest = It;
      }
    }
    if (Coldest == Sessions.end())
      return false; // everything left is busy or exempt
    Sessions.erase(Coldest);
    PressureEvicted.fetch_add(1, std::memory_order_relaxed);
    SessionsEvicted.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// load / unload
//===----------------------------------------------------------------------===//

bool nv::overlayRequestBudget(const Json &Req, RunBudget &B,
                              std::string &Error) {
  BudgetLimits L;
  if (const Json *D = Req.get("deadline_ms")) {
    L.DeadlineMs = D->isNumber() ? D->number() : -1;
    if (!(L.DeadlineMs >= 0) || !std::isfinite(L.DeadlineMs)) {
      Error = "\"deadline_ms\" must be a number >= 0";
      return false;
    }
  }
  if (!readCount(Req, "max_steps", L.MaxSteps, Error) ||
      !readCount(Req, "node_budget", L.NodeBudget, Error) ||
      !readCount(Req, "heap_budget", L.HeapBytes, Error))
    return false;
  L.overlay(B);
  return true;
}

Json ServeCore::doLoad(const Json &Req, const std::string &Id) {
  std::string Source = Req.getString("program");
  std::string Path = Req.getString("path");
  if (Source.empty() && Path.empty())
    return errResp(Id, 2, "load needs \"program\" (NV source) or \"path\"");

  // Degrade before rejecting: above the heap watermark, give back memos
  // and cold sessions first; only when nothing is evictable (every other
  // session is mid-request) does the load itself bounce. The rejection
  // is journaled like any accepted request — the outcome is overloaded,
  // which clients treat as transient.
  if (!relievePressure(Req.getString("session"))) {
    LoadsRejected.fetch_add(1, std::memory_order_relaxed);
    Json R = shedResponse(Id);
    R.set("heap_pressure", true);
    return R;
  }
  ParseOptions PO;
  if (Source.empty()) {
    auto Text = readSourceFile(Path);
    if (!Text)
      return errResp(Id, 2, "cannot read " + Path);
    Source = std::move(*Text);
    PO = fileParseOptions(Path);
  }
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Source, Diags, PO);
  if (!P)
    return errResp(Id, 2, "parse error: " + Diags.str());
  if (!typeCheck(*P, Diags))
    return errResp(Id, 2, "type error: " + Diags.str());

  auto S = std::make_shared<ServeSession>();
  std::string Name = Req.getString("session");
  S->Name = Name.empty() ? "s" + std::to_string(NextSession.fetch_add(1))
                         : Name;
  S->SourceHash = fnv1a64Hex(printProgram(*P));
  S->Prog = std::move(*P);
  S->Ctx = std::make_unique<NvContext>(S->Prog.numNodes());
  S->LastUsed = std::chrono::steady_clock::now();
  S->BytesApprox.store(S->Ctx->Mgr.memoryBytes(), std::memory_order_relaxed);

  size_t Evicted = 0;
  {
    std::lock_guard<std::mutex> L(SessionsM);
    Sessions[S->Name] = S; // Reloading an existing name replaces it.
    // LRU eviction, never of the session just loaded. In-flight requests
    // on an evicted session finish on their shared_ptr; only the name
    // becomes unresolvable.
    while (Sessions.size() > Cfg.MaxSessions) {
      auto Oldest = Sessions.end();
      for (auto It = Sessions.begin(); It != Sessions.end(); ++It) {
        if (It->second == S)
          continue;
        if (Oldest == Sessions.end() ||
            It->second->LastUsed < Oldest->second->LastUsed)
          Oldest = It;
      }
      if (Oldest == Sessions.end())
        break;
      Sessions.erase(Oldest);
      ++Evicted;
    }
  }
  SessionsLoaded.fetch_add(1, std::memory_order_relaxed);
  SessionsEvicted.fetch_add(Evicted, std::memory_order_relaxed);

  Json R = makeResp(Id);
  R.set("ok", true);
  R.set("code", 0);
  R.set("session", S->Name);
  R.set("nodes", S->Prog.numNodes());
  R.set("edges", static_cast<uint64_t>(S->Prog.links().size()));
  R.set("program_hash", S->SourceHash);
  if (Evicted)
    R.set("evicted", static_cast<uint64_t>(Evicted));
  return R;
}

//===----------------------------------------------------------------------===//
// sim
//===----------------------------------------------------------------------===//

Json ServeCore::doSim(ServeSession &S, const Json &Req, const std::string &Id,
                      CancelToken *Cancel) {
  bool Native = Req.getBool("native", false);
  try {
    S.Ctx->resetBetweenRuns();
    std::unique_ptr<ProtocolEvaluator> &Eval = S.SimEval[Native ? 1 : 0];
    if (!Eval)
      Eval = makeProgramEvaluator(*S.Ctx, S.Prog, Native);
    SimOptions SO; // simulate() governs itself
    std::string Error;
    if (!overlayRequestBudget(Req, SO.Budget, Error))
      return errResp(Id, 2, Error);
    SO.Budget.Cancel = Cancel;
    Stopwatch W;
    SimResult R = simulate(S.Prog, *Eval, SO);
    if (!R.Outcome.ok())
      return outcomeResp(Id, R.Outcome);
    Json Resp = makeResp(Id);
    Resp.set("converged", R.Converged);
    Resp.set("steps", R.Stats.Pops);
    Resp.set("simulate_ms", W.elapsedMs());
    Resp.set("require_holds", Eval->requiresHold());
    int Code = 0;
    if (!R.Converged) {
      Code = 1;
    } else if (S.Prog.assertDecl()) {
      std::vector<uint32_t> Failed = checkAsserts(*Eval, R);
      Json FailedJ = Json::array();
      for (uint32_t U : Failed)
        FailedJ.push(U);
      Resp.set("assert_failed", std::move(FailedJ));
      if (!Failed.empty())
        Code = 1;
    }
    if (Req.getBool("labels", false) && R.Converged) {
      Json Labels = Json::array();
      for (uint32_t U = 0; U < S.Prog.numNodes(); ++U)
        Labels.push(R.Labels[U] ? S.Ctx->printValue(R.Labels[U]) : "");
      Resp.set("labels", std::move(Labels));
    }
    Resp.set("ok", Code == 0);
    Resp.set("code", Code);
    return Resp;
  } catch (const EngineError &E) {
    return outcomeResp(Id, E.outcome());
  }
}

//===----------------------------------------------------------------------===//
// verify
//===----------------------------------------------------------------------===//

Json ServeCore::doVerify(ServeSession &S, const Json &Req,
                         const std::string &Id, CancelToken *Cancel) {
  VerifyOptions VO;
  std::string Error; // verifyProgram governs itself
  if (!readCount(Req, "timeout_ms", VO.TimeoutMs, Error) ||
      !overlayRequestBudget(Req, VO.Budget, Error))
    return errResp(Id, 2, Error);
  VO.Budget.Cancel = Cancel;
  DiagnosticEngine Diags;
  VerifyResult R = verifyProgram(S.Prog, VO, Diags);
  Json Resp = makeResp(Id);
  Resp.set("encode_ms", R.EncodeMs);
  Resp.set("solve_ms", R.SolveMs);
  Resp.set("assertions", R.NumAssertions);
  int Code;
  const char *Status;
  switch (R.Status) {
  case VerifyStatus::Verified:
    Status = "verified";
    Code = 0;
    break;
  case VerifyStatus::Falsified:
    Status = "falsified";
    Code = 1;
    Resp.set("counterexample", R.Counterexample);
    break;
  case VerifyStatus::Unknown:
    Status = "unknown";
    Code = 2;
    break;
  case VerifyStatus::ResourceExhausted:
    Status = "resource-exhausted";
    Code = 3;
    Resp.set("outcome", R.Outcome.str());
    break;
  case VerifyStatus::EncodingError:
  default:
    Status = "encoding-error";
    Code = exitCodeForOutcome(R.Outcome);
    Resp.set("outcome", R.Outcome.str());
    Resp.set("error", Diags.str());
    break;
  }
  Resp.set("status", Status);
  Resp.set("ok", Code == 0);
  Resp.set("code", Code);
  return Resp;
}

//===----------------------------------------------------------------------===//
// ft — the warm path
//===----------------------------------------------------------------------===//

Json ServeCore::doFt(ServeSession &S, const Json &Req, const std::string &Id,
                     CancelToken *Cancel) {
  FtOptions Opts;
  std::string Error;
  if (!readCount(Req, "links", Opts.LinkFailures, Error) ||
      !overlayRequestBudget(Req, Opts.Budget, Error))
    return errResp(Id, 2, Error);
  Opts.Budget.Cancel = Cancel;
  Opts.NodeFailure = Req.getBool("node", false);
  Opts.DropValueSource = Req.getString("drop_value", "");
  Opts.Threads = 1; // parallelism comes from concurrent requests
  bool Native = Req.getBool("native", false);
  if (std::string E = ftOptionsError(Opts); !E.empty())
    return errResp(Id, 2, E);

  // One governor spans preparation, simulation and check, as in
  // runFaultTolerance.
  Governor::Scope Guard(Opts.Budget);
  try {
    // Collect the PREVIOUS request's garbage down to the pinned baseline
    // (a cached PreparedFt pins what it needs, so it survives this).
    S.Ctx->resetBetweenRuns();

    ServeSession::FtKey Key{Opts.LinkFailures, Opts.NodeFailure, Native,
                            Opts.DropValueSource};
    auto It = S.Ft.find(Key);
    bool Warm = It != S.Ft.end();
    double TransformMs = 0;
    if (!Warm) {
      DiagnosticEngine Diags;
      Stopwatch W;
      auto Prep = PreparedFt::create(*S.Ctx, S.Prog, Opts, Native, Diags);
      TransformMs = W.elapsedMs();
      if (!Prep)
        return errResp(Id, 2, "fault-tolerance transform failed: " +
                                  Diags.str());
      It = S.Ft.emplace(Key, std::move(Prep)).first;
    }
    (Warm ? FtWarmHits : FtWarmMisses).fetch_add(1, std::memory_order_relaxed);

    FtRunResult R = It->second->run(Opts);
    if (!R.Outcome.ok())
      return outcomeResp(Id, R.Outcome);

    Json Resp = makeResp(Id);
    Resp.set("warm", Warm);
    Resp.set("converged", R.Converged);
    Resp.set("transform_ms", TransformMs);
    Resp.set("simulate_ms", R.SimulateMs);
    if (!R.Converged) {
      Resp.set("ok", false);
      Resp.set("code", 1);
      Resp.set("error", "meta-simulation did not converge");
      return Resp;
    }
    Resp.set("check_ms", R.CheckMs);
    const FtCheckResult &C = R.Check;
    if (!C.Outcome.ok())
      return outcomeResp(Id, C.Outcome);

    Resp.set("scenarios", C.ScenariosChecked);
    Resp.set("skipped", C.ScenariosSkipped);
    Resp.set("violations", static_cast<uint64_t>(C.Violations.size()));
    Resp.set("violations_hash", ftViolationsHash(C.Violations));
    Resp.set("cache_hits", R.CacheHits);
    Resp.set("cache_misses", R.CacheMisses);
    Resp.set("key_memo_hits", R.KeyMemoHits);
    Resp.set("key_memo_misses", R.KeyMemoMisses);
    Json Sample = Json::array();
    for (size_t I = 0; I < std::min<size_t>(5, C.Violations.size()); ++I) {
      const FtViolation &V = C.Violations[I];
      Json VJ = Json::object();
      VJ.set("scenario", V.Scenario.str());
      VJ.set("node", V.Node);
      VJ.set("route", V.routeStr());
      Sample.push(std::move(VJ));
    }
    if (!C.Violations.empty())
      Resp.set("first_violations", std::move(Sample));
    int Code = C.holds() ? 0 : 1;
    Resp.set("ok", Code == 0);
    Resp.set("code", Code);
    return Resp;
  } catch (const EngineError &E) {
    return outcomeResp(Id, E.outcome());
  }
}

//===----------------------------------------------------------------------===//
// stats
//===----------------------------------------------------------------------===//

void ServeCore::noteLatency(double Ms) {
  std::lock_guard<std::mutex> L(LatM);
  LatRing[LatPos] = Ms;
  LatPos = (LatPos + 1) % LatRing.size();
  if (LatCount < LatRing.size())
    ++LatCount;
}

Json ServeCore::statsJson() const {
  Json R = Json::object();
  R.set("ok", true);
  R.set("code", 0);
  R.set("uptime_ms", std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count());

  Json Reqs = Json::object();
  Reqs.set("accepted", Accepted.load(std::memory_order_relaxed));
  Reqs.set("completed", Completed.load(std::memory_order_relaxed));
  Reqs.set("active", Active.load(std::memory_order_relaxed));
  Reqs.set("replayed", static_cast<uint64_t>(Replayed));
  Json Codes = Json::array();
  for (const auto &C : ByCode)
    Codes.push(C.load(std::memory_order_relaxed));
  Reqs.set("by_code", std::move(Codes));
  R.set("requests", std::move(Reqs));

  R.set("health", healthState());
  R.set("generation", Cfg.Generation);
  R.set("last_exit", Cfg.LastExit.empty() ? "none" : Cfg.LastExit);

  Json Adm = Json::object();
  Adm.set("max_inflight", static_cast<uint64_t>(MaxInflightEff));
  Adm.set("queue_depth", static_cast<uint64_t>(Cfg.QueueDepth));
  Adm.set("engine_active", ReqActive.load(std::memory_order_relaxed));
  Adm.set("engine_queued", ReqQueued.load(std::memory_order_relaxed));
  Adm.set("shed", Shed.load(std::memory_order_relaxed));
  R.set("admission", std::move(Adm));

  Json Press = Json::object();
  Press.set("heap_budget_bytes", static_cast<uint64_t>(Cfg.HeapBudgetBytes));
  Press.set("resident_bytes", residentBytesApprox());
  Press.set("memo_evicted", MemoEvicted.load(std::memory_order_relaxed));
  Press.set("sessions_evicted",
            PressureEvicted.load(std::memory_order_relaxed));
  Press.set("loads_rejected", LoadsRejected.load(std::memory_order_relaxed));
  R.set("pressure", std::move(Press));

  {
    std::vector<double> Sorted;
    {
      std::lock_guard<std::mutex> L(LatM);
      Sorted.assign(LatRing.begin(),
                    LatRing.begin() + static_cast<long>(LatCount));
    }
    std::sort(Sorted.begin(), Sorted.end());
    Json Lat = Json::object();
    Lat.set("count", static_cast<uint64_t>(Sorted.size()));
    Lat.set("p50_ms", percentile(Sorted, 0.50));
    Lat.set("p90_ms", percentile(Sorted, 0.90));
    Lat.set("p99_ms", percentile(Sorted, 0.99));
    Lat.set("max_ms", Sorted.empty() ? 0.0 : Sorted.back());
    R.set("latency", std::move(Lat));
  }

  {
    ThreadPool::Stats PS = Pool.stats();
    Json PoolJ = Json::object();
    PoolJ.set("threads", Pool.numThreads());
    PoolJ.set("tasks_run", PS.TasksRun);
    PoolJ.set("async_submitted", PS.AsyncSubmitted);
    PoolJ.set("async_completed", PS.AsyncCompleted);
    PoolJ.set("async_queued", static_cast<uint64_t>(PS.AsyncQueued));
    PoolJ.set("async_active", static_cast<uint64_t>(PS.AsyncActive));
    PoolJ.set("parallel_for_calls", PS.ParallelForCalls);
    PoolJ.set("worker_idle_ms", PS.WorkerIdleMs);
    R.set("pool", std::move(PoolJ));
  }

  Json FtCache = Json::object();
  FtCache.set("hits", FtWarmHits.load(std::memory_order_relaxed));
  FtCache.set("misses", FtWarmMisses.load(std::memory_order_relaxed));
  R.set("ft_cache", std::move(FtCache));

  Json ResCache = Json::object();
  ResCache.set("hits", ResultHits.load(std::memory_order_relaxed));
  ResCache.set("misses", ResultMisses.load(std::memory_order_relaxed));
  R.set("result_cache", std::move(ResCache));

  Json SessJ = Json::array();
  {
    std::lock_guard<std::mutex> L(SessionsM);
    for (const auto &[Name, S] : Sessions) {
      Json E = Json::object();
      E.set("session", Name);
      E.set("nodes", S->Prog.numNodes());
      E.set("requests", S->Requests.load(std::memory_order_relaxed));
      // Manager counters are only safe to read with the session idle; a
      // busy session reports what its atomics allow and moves on.
      if (S->M.try_lock()) {
        E.set("ft_variants", static_cast<uint64_t>(S->Ft.size()));
        E.set("mtbdd_nodes", static_cast<uint64_t>(S->Ctx->Mgr.numNodes()));
        E.set("mtbdd_bytes",
              static_cast<uint64_t>(S->Ctx->Mgr.memoryBytes()));
        E.set("cache_hits", S->Ctx->Mgr.cacheHits());
        E.set("cache_misses", S->Ctx->Mgr.cacheMisses());
        E.set("key_memo_hits", S->Ctx->Mgr.keyMemoHits());
        E.set("key_memo_misses", S->Ctx->Mgr.keyMemoMisses());
        const BddManager::GcStats &G = S->Ctx->Mgr.gcStats();
        E.set("gc_collections", G.Collections);
        E.set("gc_reclaimed", G.NodesReclaimed);
        E.set("gc_peak_nodes", static_cast<uint64_t>(G.PeakNodes));
        S->M.unlock();
      } else {
        E.set("busy", true);
      }
      SessJ.push(std::move(E));
    }
  }
  R.set("sessions", std::move(SessJ));
  R.set("sessions_loaded", SessionsLoaded.load(std::memory_order_relaxed));
  R.set("sessions_evicted", SessionsEvicted.load(std::memory_order_relaxed));

  if (Log) {
    Json J = Json::object();
    J.set("path", Log->path());
    J.set("accepted_at_open", static_cast<uint64_t>(Log->acceptedCount()));
    J.set("done_at_open", static_cast<uint64_t>(Log->doneCount()));
    J.set("torn_tail_dropped", Log->tornTailDropped());
    R.set("journal", std::move(J));
  }
  return R;
}
