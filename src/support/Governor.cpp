//===- Governor.cpp - Run governance: budgets, deadlines, cancellation ------===//

#include "support/Governor.h"

#include "support/Fatal.h"

#include <cstdio>
#include <cstdlib>

using namespace nv;

//===----------------------------------------------------------------------===//
// RunOutcome
//===----------------------------------------------------------------------===//

const char *nv::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Ok:
    return "ok";
  case RunStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case RunStatus::StepBudgetExceeded:
    return "step-budget-exceeded";
  case RunStatus::NodeBudgetExceeded:
    return "node-budget-exceeded";
  case RunStatus::HeapBudgetExceeded:
    return "heap-budget-exceeded";
  case RunStatus::Canceled:
    return "canceled";
  case RunStatus::FaultInjected:
    return "fault-injected";
  case RunStatus::Overloaded:
    return "overloaded";
  case RunStatus::Quarantined:
    return "quarantined";
  case RunStatus::EvalError:
    return "eval-error";
  case RunStatus::InternalError:
    return "internal-error";
  }
  return "unknown";
}

bool nv::runStatusFromName(const std::string &Name, RunStatus &Out) {
  static constexpr RunStatus All[] = {
      RunStatus::Ok,           RunStatus::DeadlineExceeded,
      RunStatus::StepBudgetExceeded, RunStatus::NodeBudgetExceeded,
      RunStatus::HeapBudgetExceeded, RunStatus::Canceled,
      RunStatus::FaultInjected, RunStatus::Overloaded,
      RunStatus::Quarantined,   RunStatus::EvalError,
      RunStatus::InternalError};
  for (RunStatus S : All)
    if (Name == runStatusName(S)) {
      Out = S;
      return true;
    }
  return false;
}

bool nv::isResourceLimit(RunStatus S) {
  switch (S) {
  case RunStatus::DeadlineExceeded:
  case RunStatus::StepBudgetExceeded:
  case RunStatus::NodeBudgetExceeded:
  case RunStatus::HeapBudgetExceeded:
  case RunStatus::Canceled:
  case RunStatus::FaultInjected:
  case RunStatus::Overloaded:
  case RunStatus::Quarantined:
    return true;
  case RunStatus::Ok:
  case RunStatus::EvalError:
  case RunStatus::InternalError:
    return false;
  }
  return false;
}

std::string RunOutcome::str() const {
  if (ok())
    return "ok";
  std::string S = runStatusName(Status);
  if (Site && *Site)
    S += std::string("@") + Site;
  if (!Detail.empty())
    S += ": " + Detail;
  return S;
}

void BudgetLimits::overlay(RunBudget &B) const {
  if (DeadlineMs > 0)
    B.DeadlineMs = DeadlineMs;
  if (MaxSteps > 0)
    B.MaxSteps = MaxSteps;
  if (NodeBudget > 0)
    B.MaxLiveNodes = static_cast<size_t>(NodeBudget);
  if (HeapBytes > 0)
    B.MaxHeapBytes = static_cast<size_t>(HeapBytes);
}

int nv::exitCodeForOutcome(const RunOutcome &O) {
  if (O.ok())
    return 0;
  if (O.resourceLimit())
    return 3;
  return O.Status == RunStatus::EvalError ? 2 : 4;
}

void nv::throwEngineError(RunStatus S, const char *Site, std::string Detail) {
  throw EngineError(RunOutcome{S, std::move(Detail), Site});
}

void nv::evalError(const std::string &Msg) {
  throwEngineError(RunStatus::EvalError, "", Msg);
}

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

void CancelToken::requestCancel() {
  Flag.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(HooksM);
  for (auto &[Id, Fn] : Hooks)
    Fn();
}

uint64_t CancelToken::addInterruptHook(std::function<void()> Fn) {
  std::lock_guard<std::mutex> Lock(HooksM);
  uint64_t Id = NextHookId++;
  Hooks.emplace_back(Id, std::move(Fn));
  // A token canceled before the hook was registered must still interrupt
  // the work the hook guards.
  if (Flag.load(std::memory_order_relaxed))
    Hooks.back().second();
  return Id;
}

void CancelToken::removeInterruptHook(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(HooksM);
  for (size_t I = 0; I < Hooks.size(); ++I)
    if (Hooks[I].first == Id) {
      Hooks.erase(Hooks.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
}

//===----------------------------------------------------------------------===//
// Safe-point sites
//===----------------------------------------------------------------------===//

static const char *const SiteNames[NumGovSites] = {
    "sim-pop",      "apply-cache-miss", "table-grow",
    "alloc",        "smt-encode",       "solver-check",
    "serve-accept", "serve-enqueue",    "serve-respond",
    "fleet-spawn",  "fleet-dispatch",   "fleet-result",
};

const char *nv::govSiteName(GovSite S) {
  return SiteNames[static_cast<unsigned>(S)];
}

bool nv::govSiteFromName(const std::string &Name, GovSite &Out) {
  for (unsigned I = 0; I < NumGovSites; ++I)
    if (Name == SiteNames[I]) {
      Out = static_cast<GovSite>(I);
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// FaultInject
//===----------------------------------------------------------------------===//

std::atomic<bool> FaultInject::AnyArmed{false};
std::atomic<int64_t> FaultInject::Countdown[NumGovSites] = {};

void FaultInject::arm(GovSite Site, uint64_t N) {
  Countdown[static_cast<unsigned>(Site)].store(static_cast<int64_t>(N),
                                               std::memory_order_relaxed);
  AnyArmed.store(true, std::memory_order_relaxed);
}

void FaultInject::disarmAll() {
  for (auto &C : Countdown)
    C.store(0, std::memory_order_relaxed);
  AnyArmed.store(false, std::memory_order_relaxed);
}

bool FaultInject::armFromSpec(const std::string &Spec, std::string *ErrorOut) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Part = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;

    size_t Colon = Part.find(':');
    GovSite Site;
    char *End = nullptr;
    uint64_t N = Colon == std::string::npos
                     ? 0
                     : std::strtoull(Part.c_str() + Colon + 1, &End, 10);
    if (Colon == std::string::npos ||
        !govSiteFromName(Part.substr(0, Colon), Site) || N == 0 ||
        (End && *End != '\0')) {
      if (ErrorOut)
        *ErrorOut = "malformed NV_FAULT_INJECT entry '" + Part +
                    "' (expected <site>:<countdown> with site one of "
                    "sim-pop, apply-cache-miss, table-grow, alloc, "
                    "smt-encode, solver-check, serve-accept, "
                    "serve-enqueue, serve-respond, fleet-spawn, "
                    "fleet-dispatch, fleet-result)";
      return false;
    }
    arm(Site, N);
  }
  return true;
}

void FaultInject::armFromEnv() {
  const char *Spec = std::getenv("NV_FAULT_INJECT");
  if (!Spec || !*Spec)
    return;
  std::string Error;
  if (!armFromSpec(Spec, &Error))
    fatalError(Error);
}

void FaultInject::hit(GovSite Site) {
  auto &C = Countdown[static_cast<unsigned>(Site)];
  // Relaxed pre-check keeps disarmed sites cheap while another site is
  // armed; the fetch_sub makes exactly one hit observe the 1 -> 0 edge.
  if (C.load(std::memory_order_relaxed) <= 0)
    return;
  if (C.fetch_sub(1, std::memory_order_relaxed) == 1)
    throwEngineError(RunStatus::FaultInjected, govSiteName(Site),
                     "injected fault (NV_FAULT_INJECT)");
}

namespace {
/// Arms NV_FAULT_INJECT before main so every entry point — CLIs, tests,
/// bench drivers — honors the variable without per-tool plumbing.
const bool FaultInjectEnvArmed = (FaultInject::armFromEnv(), true);
} // namespace

//===----------------------------------------------------------------------===//
// Governor
//===----------------------------------------------------------------------===//

Governor::Governor(const RunBudget &Budget) : B(Budget) {
  if (B.DeadlineMs > 0) {
    HasDeadline = true;
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(B.DeadlineMs));
    DeadlineCountdown = 1; // first hot-site poll reads the clock
  }
  PollsKernel = HasDeadline || B.MaxLiveNodes > 0 || B.MaxHeapBytes > 0 ||
                B.Cancel != nullptr;
  KernelPollers += PollsKernel;
  Prev = Head;
  Head = this;
}

Governor::Scope::Scope(const RunBudget &Budget) {
  if (Budget.limited())
    G = new Governor(Budget);
}

Governor::Scope::~Scope() {
  if (G) {
    Head = G->Prev;
    KernelPollers -= G->PollsKernel;
    delete G;
  }
}

double Governor::remainingMs() {
  double Best = -1;
  auto Now = std::chrono::steady_clock::now();
  for (Governor *G = Head; G; G = G->Prev) {
    if (!G->HasDeadline)
      continue;
    double Ms =
        std::chrono::duration<double, std::milli>(G->Deadline - Now).count();
    if (Ms < 0)
      Ms = 0;
    if (Best < 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

void Governor::trip(RunStatus S, GovSite Site, std::string Detail) {
  throwEngineError(S, govSiteName(Site), std::move(Detail));
}

void Governor::checkOne(GovSite Site, size_t LiveNodes, size_t HeapBytes) {
  if (B.Cancel && B.Cancel->isCanceled())
    trip(RunStatus::Canceled, Site, "cancellation requested");
  if (Site == GovSite::SimPop && B.MaxSteps && ++Steps > B.MaxSteps)
    trip(RunStatus::StepBudgetExceeded, Site,
         "step budget of " + std::to_string(B.MaxSteps) + " exhausted");
  if (B.MaxLiveNodes && LiveNodes > B.MaxLiveNodes)
    trip(RunStatus::NodeBudgetExceeded, Site,
         std::to_string(LiveNodes) + " live MTBDD nodes exceed the budget of " +
             std::to_string(B.MaxLiveNodes));
  if (B.MaxHeapBytes && HeapBytes > B.MaxHeapBytes)
    trip(RunStatus::HeapBudgetExceeded, Site,
         std::to_string(HeapBytes) + " bytes exceed the watermark of " +
             std::to_string(B.MaxHeapBytes));
  if (HasDeadline) {
    // Hot sites amortize the clock read; everything else is infrequent
    // enough to check every time.
    bool Hot = Site == GovSite::ApplyCacheMiss || Site == GovSite::EvalAlloc;
    if (!Hot || --DeadlineCountdown == 0) {
      DeadlineCountdown = DeadlinePollEvery;
      if (std::chrono::steady_clock::now() >= Deadline)
        trip(RunStatus::DeadlineExceeded, Site,
             "deadline of " + std::to_string(B.DeadlineMs) + " ms exceeded");
    }
  }
}
