//===- Units.cpp - One runner for every sharded sweep ---------------------===//

#include "support/Units.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <stdexcept>

using namespace nv;

namespace {

UnitRecord outcomeRecord(const UnitSweep &S, size_t I, const RunOutcome &O,
                         unsigned Attempts) {
  UnitRecord Rec;
  Rec.Key = unitKey(S.Prefix, I);
  addOutcome(Rec, O, Attempts);
  return Rec;
}

/// Unit \p I's outcome, its slot restored from \p Rec (read from \p From).
RunOutcome restoreUnit(const UnitSweep &S, size_t I, const UnitRecord &Rec,
                       const std::string &From, unsigned &Attempts) {
  RunOutcome O;
  if (parseOutcome(Rec, O, Attempts) && (!O.ok() || S.Restore(I, Rec)))
    return O;
  return {RunStatus::EvalError,
          "malformed unit record " + Rec.Key + " in " + From, ""};
}

RunOutcome runUnit(const UnitSweep &S, UnitWorker &W, size_t I,
                   unsigned &Attempts) {
  return runUnitWithRetry(
      S.Budget, S.Retry, Attempts, [&](const RunBudget &B) -> RunOutcome {
        // Units without safe points (a check chunk) would otherwise run.
        if (B.Cancel && B.Cancel->isCanceled())
          return {RunStatus::Canceled, "cancellation requested", ""};
        Governor::Scope Guard(B);
        try {
          return W.Run(I);
        } catch (const EngineError &E) {
          return E.outcome();
        }
      });
}

void runOnFleet(const UnitSweep &S, const UnitExecutor &X,
                const std::vector<size_t> &Pending, UnitsResult &R) {
  std::vector<FleetJob> Jobs;
  for (size_t I : Pending)
    Jobs.push_back({unitKey(S.Prefix, I), ""});
  FleetCallbacks CB;
  CB.OnResult = [&](const UnitRecord &Rec) {
    if (S.Journal)
      S.Journal->recordDone(Rec);
  };
  // No more workers than units: a spare one would only start up.
  FleetOptions FO = *X.Fleet;
  FO.Workers = unsigned(std::min<size_t>(FO.Workers, Jobs.size()));
  FleetResult FR = runFleet(FO, Jobs, CB);
  if (X.OnFleetDone)
    X.OnFleetDone(FR);
  for (size_t I : Pending) {
    auto It = FR.Results.find(unitKey(S.Prefix, I));
    unsigned Attempts = 1;
    if (It != FR.Results.end())
      R.Units[I - S.Begin].Outcome =
          restoreUnit(S, I, It->second, "the worker fleet", Attempts);
    else // the fleet stopped first (cancellation, workers lost)
      R.Units[I - S.Begin].Outcome =
          FR.Outcome.ok() ? RunOutcome{RunStatus::InternalError,
                                       "no fleet record for a unit", ""}
                          : FR.Outcome;
    R.Retries += Attempts - 1;
  }
}

void runInProcess(const UnitSweep &S, const UnitExecutor &X,
                  const UnitWorkerSetup &Setup,
                  const std::vector<size_t> &Pending, UnitsResult &R) {
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Retries{0};
  auto Worker = [&](size_t) {
    Setup([&](UnitWorker &W) {
      for (size_t P = Next++; P < Pending.size(); P = Next++) {
        size_t I = Pending[P];
        unsigned Attempts = 1;
        RunOutcome O = runUnit(S, W, I, Attempts);
        Retries += Attempts - 1;
        if (S.Journal && O.Status != RunStatus::Canceled)
          S.Journal->recordDone(O.ok() ? W.Render(I, Attempts)
                                       : outcomeRecord(S, I, O, Attempts));
        if (W.Finish)
          W.Finish(I, O);
        R.Units[I - S.Begin].Outcome = std::move(O);
      }
    });
  };
  size_t Threads = X.Pool ? X.Pool->numThreads() : 1;
  size_t Workers = std::min(Pending.size(), Threads);
  if (X.Pool)
    X.Pool->parallelFor(Workers, Worker);
  else if (Workers)
    Worker(0);
  R.Retries += Retries;
}

} // namespace

std::string nv::unitKey(char Prefix, size_t I) {
  return Prefix + std::to_string(I);
}

UnitsResult nv::runUnits(const UnitSweep &S, const UnitExecutor &X,
                         const UnitWorkerSetup &Setup) {
  UnitsResult R;
  R.Units.resize(S.Count);
  std::vector<size_t> Pending;
  for (size_t I = S.Begin; I < S.Begin + S.Count; ++I) {
    UnitRecord Rec;
    unsigned Attempts = 1;
    if (S.Journal && S.Journal->replay(unitKey(S.Prefix, I), Rec))
      R.Units[I - S.Begin] = {
          restoreUnit(S, I, Rec, S.Journal->path(), Attempts), true};
    else
      Pending.push_back(I);
  }
  R.Replayed = S.Count - Pending.size();
  if (X.Fleet)
    runOnFleet(S, X, Pending, R);
  else
    runInProcess(S, X, Setup, Pending, R);
  for (const UnitResult &U : R.Units)
    if (!U.Outcome.ok() && R.Skipped++ == 0)
      R.First = U.Outcome;
  return R;
}

UnitRecord nv::runUnitRecord(const UnitSweep &S, UnitWorker &W, size_t I) {
  unsigned Attempts = 1;
  RunOutcome O = runUnit(S, W, I, Attempts);
  UnitRecord Rec =
      O.ok() ? W.Render(I, Attempts) : outcomeRecord(S, I, O, Attempts);
  if (W.Finish)
    W.Finish(I, O);
  return Rec;
}

int nv::serveFleetUnits(const UnitSweep &S,
                        const std::function<UnitRecord(size_t I)> &Handler) {
  return runFleetWorker([&](const FleetJob &J) {
    size_t I = 0;
    const char *End = J.Key.data() + J.Key.size();
    if (J.Key.size() < 2 || J.Key[0] != S.Prefix ||
        std::from_chars(J.Key.data() + 1, End, I).ptr != End ||
        I < S.Begin || I - S.Begin >= S.Count)
      throw std::runtime_error("fleet worker: no unit '" + J.Key + "'");
    return Handler(I);
  });
}
