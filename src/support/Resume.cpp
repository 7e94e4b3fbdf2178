//===- Resume.cpp - Checkpoint/resume, retry, graceful shutdown -----------===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Resume.h"

#include <cstdio>
#include <ctime>

namespace nv {

//===----------------------------------------------------------------------===//
// RunBinding
//===----------------------------------------------------------------------===//

void RunBinding::set(const std::string &Key, const std::string &Value) {
  Lines.emplace_back(Key, Value);
}

void RunBinding::setInt(const std::string &Key, long long Value) {
  set(Key, std::to_string(Value));
}

void RunBinding::setProvenance(const std::string &Key,
                               const std::string &Value) {
  Lines.emplace_back("#" + Key, Value);
}

std::string RunBinding::render() const {
  std::string Out;
  for (const auto &[K, V] : Lines) {
    Out += K;
    Out += '=';
    Out += V;
    Out += '\n';
  }
  return Out;
}

static std::vector<std::string> bindingLines(const std::string &Header) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < Header.size()) {
    size_t Nl = Header.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Header.size();
    std::string Line = Header.substr(Pos, Nl - Pos);
    if (!Line.empty() && Line[0] != '#')
      Out.push_back(std::move(Line));
    Pos = Nl + 1;
  }
  return Out;
}

bool RunBinding::matches(const std::string &HeaderA, const std::string &HeaderB,
                         std::string &Why) {
  std::vector<std::string> A = bindingLines(HeaderA);
  std::vector<std::string> B = bindingLines(HeaderB);
  size_t N = std::max(A.size(), B.size());
  for (size_t I = 0; I < N; ++I) {
    const std::string *LA = I < A.size() ? &A[I] : nullptr;
    const std::string *LB = I < B.size() ? &B[I] : nullptr;
    if (!LA || !LB || *LA != *LB) {
      Why = "journal binding '" + (LA ? *LA : std::string("<missing>")) +
            "' vs current run '" + (LB ? *LB : std::string("<missing>")) + "'";
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// UnitRecord
//===----------------------------------------------------------------------===//

void UnitRecord::add(const std::string &K, const std::string &V) {
  Fields.emplace_back(K, V);
}

void UnitRecord::addInt(const std::string &K, long long V) {
  add(K, std::to_string(V));
}

const std::string *UnitRecord::get(const std::string &K) const {
  for (const auto &[FK, FV] : Fields)
    if (FK == K)
      return &FV;
  return nullptr;
}

std::vector<std::string> UnitRecord::all(const std::string &K) const {
  std::vector<std::string> Out;
  for (const auto &[FK, FV] : Fields)
    if (FK == K)
      Out.push_back(FV);
  return Out;
}

std::string UnitRecord::render() const {
  std::string Out = Key;
  Out += '\n';
  for (const auto &[K, V] : Fields) {
    Out += K;
    Out += '=';
    Out += V;
    Out += '\n';
  }
  return Out;
}

bool UnitRecord::parse(const std::string &Payload, UnitRecord &Out) {
  Out.Key.clear();
  Out.Fields.clear();
  size_t Pos = 0;
  bool First = true;
  while (Pos < Payload.size()) {
    size_t Nl = Payload.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Payload.size();
    std::string Line = Payload.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (First) {
      if (Line.empty())
        return false;
      Out.Key = std::move(Line);
      First = false;
      continue;
    }
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return false;
    Out.Fields.emplace_back(Line.substr(0, Eq), Line.substr(Eq + 1));
  }
  return !First;
}

void addOutcome(UnitRecord &R, const RunOutcome &O, unsigned Attempts) {
  R.add("status", runStatusName(O.Status));
  if (O.Site && O.Site[0])
    R.add("site", O.Site);
  if (!O.Detail.empty())
    R.add("detail", O.Detail);
  R.addInt("attempts", Attempts);
}

bool parseOutcome(const UnitRecord &R, RunOutcome &O, unsigned &Attempts) {
  O = RunOutcome();
  Attempts = 1;
  const std::string *Status = R.get("status");
  if (!Status || !runStatusFromName(*Status, O.Status))
    return false;
  if (const std::string *Site = R.get("site")) {
    GovSite S;
    // Map the recorded name back to the static string so replayed
    // outcomes are pointer-stable like live ones.
    if (govSiteFromName(*Site, S))
      O.Site = govSiteName(S);
  }
  if (const std::string *Detail = R.get("detail"))
    O.Detail = *Detail;
  if (const std::string *A = R.get("attempts"))
    Attempts = unsigned(std::strtoul(A->c_str(), nullptr, 10));
  if (Attempts == 0)
    Attempts = 1;
  return true;
}

//===----------------------------------------------------------------------===//
// ResumeLog
//===----------------------------------------------------------------------===//

ResumeLog::OpenResult ResumeLog::open(const std::string &Path,
                                      const RunBinding &Binding) {
  OpenResult Res;
  std::string Header = Binding.render();
  JournalRead R = readJournal(Path);

  if (R.St == JournalRead::State::Corrupt) {
    Res.Error = R.Error;
    Res.Hard = true;
    return Res;
  }

  std::unique_ptr<ResumeLog> Log(new ResumeLog());
  Log->Path = Path;
  std::string Error;

  if (R.St == JournalRead::State::NoFile) {
    Log->Writer = createJournal(Path, Header, Error);
    if (!Log->Writer) {
      Res.Error = Error;
      return Res;
    }
    Res.Log = std::move(Log);
    return Res;
  }

  std::string Why;
  if (!RunBinding::matches(R.Header, Header, Why)) {
    Res.Error = Path + ": journal does not match this run's inputs (" + Why +
                "); delete it or pass a different --resume path";
    Res.Hard = true;
    return Res;
  }

  for (const std::string &Payload : R.Entries) {
    UnitRecord Rec;
    if (!UnitRecord::parse(Payload, Rec)) {
      Res.Error = Path + ": journal entry " +
                  std::to_string(Log->Replayed.size()) +
                  " is not a unit record (journal is corrupt, not resumable)";
      Res.Hard = true;
      return Res;
    }
    Log->Replayed[Rec.Key] = std::move(Rec);
  }

  Log->TornTail = R.TornTail;
  Log->Writer = appendJournal(Path, R.ValidBytes, Error);
  if (!Log->Writer) {
    Res.Error = Error;
    return Res;
  }
  Res.Log = std::move(Log);
  return Res;
}

bool ResumeLog::replay(const std::string &Key, UnitRecord &Out) const {
  auto It = Replayed.find(Key);
  if (It == Replayed.end())
    return false;
  Out = It->second;
  return true;
}

void ResumeLog::recordDone(const UnitRecord &R) {
  std::string Payload = R.render();
  std::lock_guard<std::mutex> Lock(M);
  if (!Writer)
    return;
  if (!Writer->append(Payload)) {
    if (!WarnedBroken) {
      std::fprintf(stderr,
                   "nv: warning: journal write failed, checkpointing "
                   "disabled for the rest of this run: %s\n",
                   Writer->lastError().c_str());
      WarnedBroken = true;
    }
    Writer.reset();
    return;
  }
  ++NewlyRecorded;
}

size_t ResumeLog::entryCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Replayed.size() + NewlyRecorded;
}

//===----------------------------------------------------------------------===//
// RetryPolicy
//===----------------------------------------------------------------------===//

bool isTransientOutcome(const RunOutcome &O) {
  // Canceled means the whole run is stopping; Quarantined means the fleet
  // already exhausted its retry policy on the job — neither should be
  // retried by the per-unit policy.
  return O.resourceLimit() && O.Status != RunStatus::Canceled &&
         O.Status != RunStatus::Quarantined;
}

RunBudget escalateBudget(const RunBudget &Budget, double Scale,
                         unsigned Attempt) {
  RunBudget B = Budget;
  if (Attempt <= 1 || Scale <= 1.0)
    return B;
  double F = 1.0;
  for (unsigned I = 1; I < Attempt; ++I)
    F *= Scale;
  if (B.DeadlineMs > 0)
    B.DeadlineMs *= F;
  if (B.MaxSteps > 0)
    B.MaxSteps = uint64_t(double(B.MaxSteps) * F);
  if (B.MaxLiveNodes > 0)
    B.MaxLiveNodes = size_t(double(B.MaxLiveNodes) * F);
  if (B.MaxHeapBytes > 0)
    B.MaxHeapBytes = size_t(double(B.MaxHeapBytes) * F);
  return B;
}

RunOutcome
runUnitWithRetry(const RunBudget &Budget, const RetryPolicy &Policy,
                 unsigned &AttemptsOut,
                 const std::function<RunOutcome(const RunBudget &)> &Unit) {
  unsigned MaxAttempts = Policy.MaxAttempts ? Policy.MaxAttempts : 1;
  RunOutcome O;
  for (unsigned Attempt = 1;; ++Attempt) {
    O = Unit(escalateBudget(Budget, Policy.BudgetScale, Attempt));
    AttemptsOut = Attempt;
    if (O.ok() || !isTransientOutcome(O) || Attempt >= MaxAttempts)
      return O;
  }
}

//===----------------------------------------------------------------------===//
// GracefulShutdown
//===----------------------------------------------------------------------===//

GracefulShutdown::GracefulShutdown(CancelToken &Token) : Token(Token) {
  sigemptyset(&WaitSet);
  sigaddset(&WaitSet, SIGINT);
  sigaddset(&WaitSet, SIGTERM);
  // Block in this thread; threads created from here on (pool workers, the
  // watcher) inherit the mask, so delivery funnels to sigtimedwait below.
  pthread_sigmask(SIG_BLOCK, &WaitSet, &OldMask);
  Watcher = std::thread([this] {
    for (;;) {
      struct timespec Ts;
      Ts.tv_sec = 0;
      Ts.tv_nsec = 100 * 1000 * 1000; // 100ms stop-poll granularity
      int S = sigtimedwait(&WaitSet, nullptr, &Ts);
      if (S > 0) {
        int Expected = 0;
        if (Sig.compare_exchange_strong(Expected, S)) {
          std::fprintf(stderr,
                       "nv: received %s, draining in-flight jobs at safe "
                       "points (signal again to exit immediately)\n",
                       S == SIGINT ? "SIGINT" : "SIGTERM");
          this->Token.requestCancel();
        } else {
          // Second signal: the user insists. The journal is durable after
          // every recordDone, so nothing completed is lost.
          std::fprintf(stderr, "nv: second signal, exiting immediately\n");
          std::_Exit(3);
        }
      }
      if (Stop.load(std::memory_order_relaxed))
        return;
    }
  });
}

GracefulShutdown::~GracefulShutdown() {
  Stop.store(true, std::memory_order_relaxed);
  if (Watcher.joinable())
    Watcher.join();
  pthread_sigmask(SIG_SETMASK, &OldMask, nullptr);
}

} // namespace nv
