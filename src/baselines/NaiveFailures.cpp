//===- NaiveFailures.cpp - Per-scenario failure simulation ------------------===//

#include "baselines/NaiveFailures.h"

#include <mutex>

using namespace nv;

SimResult nv::simulateScenario(const Program &P, ProtocolEvaluator &BaseEval,
                               const FtScenario &S, const Value *DropValue) {
  FailureInjectedEvaluator Eval(BaseEval, S, DropValue);
  return simulate(P, Eval);
}

namespace {

/// Simulates one scenario and appends its assertion violations to \p Out.
/// Returns the scenario's outcome: Ok, or why the fixpoint/assert run
/// ended early (the simulator reports trips through SimResult::Outcome;
/// assert evaluation may throw EngineError, which the unit runner turns
/// into the attempt's outcome).
RunOutcome checkOneScenario(const Program &P, ProtocolEvaluator &BaseEval,
                            const FtScenarioSet &Scenarios, size_t I,
                            const Value *DropValue,
                            std::vector<FtViolation> &Out) {
  FtScenario S = Scenarios[I];
  SimResult Sim = simulateScenario(P, BaseEval, S, DropValue);
  if (!Sim.Converged)
    return Sim.Outcome;
  for (uint32_t U = 0; U < Sim.Labels.size(); ++U) {
    if (S.Node && *S.Node == U)
      continue;
    if (!BaseEval.assertAt(U, Sim.Labels[U]))
      Out.push_back({{&Scenarios, uint32_t(I)}, U, Sim.Labels[U], {}});
  }
  return {};
}

UnitSweep scenarioSweep(const FtScenarioSet &Scenarios, const FtOptions &Opts) {
  return {.Count = Scenarios.size(), .Prefix = 's', .Budget = Opts.Budget,
          .Retry = Opts.Retry, .Journal = Opts.Resume};
}

using SlotFn = std::function<std::vector<FtViolation> &(size_t)>;

/// A worker simulating scenario I with \p Eval into Slot(I). Its record
/// (outcome, attempts, one "v" field per violation) is rendered from the
/// live routes, so every path writes byte-identical records. The arena is
/// collected after each scenario; with \p Keep, a checked scenario's
/// routes are pinned first (never unpinned: the result reaches them) and
/// a skipped one's partial violations dropped.
UnitWorker scenarioWorker(const Program &P, ProtocolEvaluator &Eval,
                          const FtScenarioSet &Scenarios, const Value *Drop,
                          SlotFn Slot, bool Keep) {
  UnitWorker W;
  W.Run = [&P, &Eval, &Scenarios, Drop, Slot](size_t I) {
    Slot(I).clear();
    return checkOneScenario(P, Eval, Scenarios, I, Drop, Slot(I));
  };
  W.Render = [Slot](size_t I, unsigned Attempts) {
    UnitRecord Rec;
    Rec.Key = naiveScenarioKey(I);
    addOutcome(Rec, RunOutcome(), Attempts);
    for (const FtViolation &V : Slot(I))
      addViolationField(Rec, V);
    return Rec;
  };
  W.Finish = [&Eval, Slot, Keep](size_t I, const RunOutcome &O) {
    if (Keep) {
      if (!O.ok())
        Slot(I).clear();
      for (const FtViolation &V : Slot(I))
        Eval.ctx().pinValue(V.Route);
    }
    Eval.ctx().resetBetweenRuns();
  };
  return W;
}

/// Runs the naive sweep on \p X, in-process workers made by \p MakeWorker
/// over the slots, and folds the slots in scenario order.
FtCheckResult
sweepScenarios(const Program &P, const FtOptions &Opts, const UnitExecutor &X,
               const std::function<void(const FtScenarioSet &, SlotFn,
                                        const std::function<void(
                                            UnitWorker &)> &)> &MakeWorker) {
  auto Scenarios = std::make_shared<const FtScenarioSet>(P, Opts);
  std::vector<std::vector<FtViolation>> Slots(Scenarios->size());
  UnitSweep S = scenarioSweep(*Scenarios, Opts);
  S.Restore = [&](size_t I, const UnitRecord &Rec) {
    return parseViolationFields(Rec, *Scenarios, I, I + 1, Slots[I]);
  };
  UnitsResult U = runUnits(S, X, [&](const auto &Serve) {
    MakeWorker(*Scenarios, [&](size_t I) -> auto & { return Slots[I]; },
               Serve);
  });
  FtCheckResult R;
  R.Scenarios = Scenarios;
  R.ScenariosChecked = Scenarios->size();
  R.ScenariosSkipped = U.Skipped;
  R.ScenariosReplayed = U.Replayed;
  R.RetriesPerformed = U.Retries;
  R.Outcome = U.First;
  for (size_t I = 0; I < Slots.size(); ++I)
    if (U.Units[I].Outcome.ok())
      R.Violations.insert(R.Violations.end(), Slots[I].begin(),
                          Slots[I].end());
  return R;
}

} // namespace

std::string nv::naiveScenarioKey(size_t I) { return unitKey('s', I); }

UnitRecord nv::runNaiveScenarioRecord(const Program &P,
                                      ProtocolEvaluator &BaseEval,
                                      const FtScenarioSet &Scenarios, size_t I,
                                      const Value *DropValue,
                                      const FtOptions &Opts) {
  std::vector<FtViolation> Vs;
  UnitWorker W = scenarioWorker(P, BaseEval, Scenarios, DropValue,
                                [&](size_t) -> auto & { return Vs; }, false);
  return runUnitRecord(scenarioSweep(Scenarios, Opts), W, I);
}

int nv::naiveFleetWorker(const Program &P, const FtOptions &Opts) {
  FtScenarioSet Scenarios(P, Opts);
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  const Value *Drop = defaultDropValue(Ctx, P.AttrType);
  Ctx.pinValue(Drop);
  return serveFleetUnits(scenarioSweep(Scenarios, Opts), [&](size_t I) {
    return runNaiveScenarioRecord(P, Eval, Scenarios, I, Drop, Opts);
  });
}

FtCheckResult nv::naiveFaultTolerance(const Program &P,
                                      ProtocolEvaluator &BaseEval,
                                      const FtOptions &Opts,
                                      const Value *DropValue) {
  NvContext &Ctx = BaseEval.ctx();
  if (!DropValue)
    DropValue = defaultDropValue(Ctx, P.AttrType);
  Ctx.pinValue(DropValue);
  FtCheckResult R = sweepScenarios(
      P, Opts, UnitExecutor(), [&](auto &Scenarios, SlotFn Slot, auto &Serve) {
        UnitWorker W =
            scenarioWorker(P, BaseEval, Scenarios, DropValue, Slot, true);
        Serve(W);
      });
  Ctx.unpinValue(DropValue);
  return R;
}

FtCheckResult nv::naiveFaultToleranceParallel(const Program &P,
                                              const FtOptions &Opts,
                                              const UnitExecutor &X) {
  std::mutex M;
  std::vector<std::shared_ptr<NvContext>> Ctxs;
  FtCheckResult R = sweepScenarios(
      P, Opts, X, [&](auto &Scenarios, SlotFn Slot, auto &Serve) {
        // Each worker takes its own typed copy of the program ONCE
        // (cloneProgram: AST nodes carry a lazily-filled free-variable
        // cache, so sharing them across threads would race) and builds
        // one evaluator over its own NvContext/BddManager arena.
        Program Local = cloneProgram(P);
        auto Ctx = std::make_shared<NvContext>(Local.numNodes());
        InterpProgramEvaluator Eval(*Ctx, Local);
        const Value *Drop = defaultDropValue(*Ctx, Local.AttrType);
        Ctx->pinValue(Drop);
        UnitWorker W = scenarioWorker(Local, Eval, Scenarios, Drop, Slot, true);
        Serve(W);
        std::lock_guard<std::mutex> Lock(M);
        Ctxs.push_back(std::move(Ctx));
      });
  R.RetainedContexts = std::move(Ctxs); // the routes live in these arenas
  return R;
}
