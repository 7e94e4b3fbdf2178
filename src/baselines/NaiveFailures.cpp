//===- NaiveFailures.cpp - Per-scenario failure simulation ------------------===//

#include "baselines/NaiveFailures.h"

#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "support/Fatal.h"

#include <atomic>

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
/// assert evaluation may throw EngineError, handled by the callers'
/// per-scenario catch).
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

/// Runs one scenario under its own governed scope: the per-scenario
/// budget confines a trip to this scenario (and this worker, in the
/// sharded path) — siblings are untouched. On a non-Ok outcome the
/// scenario's partial violations are discarded so skipped scenarios
/// contribute nothing, keeping results deterministic.
RunOutcome runOneScenarioGoverned(const Program &P,
                                  ProtocolEvaluator &BaseEval,
                                  const FtScenarioSet &Scenarios, size_t I,
                                  const Value *DropValue,
                                  const RunBudget &Budget,
                                  std::vector<FtViolation> &Out) {
  size_t From = Out.size();
  Governor::Scope Guard(Budget);
  RunOutcome O;
  try {
    O = checkOneScenario(P, BaseEval, Scenarios, I, DropValue, Out);
  } catch (const EngineError &E) {
    O = E.outcome();
  }
  if (!O.ok())
    Out.resize(From);
  return O;
}

/// Pins the routes of violations [From, Out.size()) so they outlive the
/// between-scenario collections. The pins are intentionally never released:
/// the routes are reachable from the returned FtCheckResult, so they are
/// roots of the context for as long as the result is consulted.
void pinNewViolations(NvContext &Ctx, std::vector<FtViolation> &Out,
                      size_t From) {
  for (size_t I = From; I < Out.size(); ++I)
    Ctx.pinValue(Out[I].Route);
}

/// Builds the canonical record of a completed scenario: its outcome, how
/// many attempts the retry policy spent, and its violations ([\p From,
/// \p To)). Every producer of scenario records — the serial and parallel
/// in-process paths (journaling) and the fleet worker (result frames) —
/// goes through here, which is what makes their records byte-identical.
UnitRecord makeScenarioRecord(size_t I, const RunOutcome &O, unsigned Attempts,
                              const FtViolation *From, const FtViolation *To) {
  UnitRecord Rec;
  Rec.Key = naiveScenarioKey(I);
  addOutcome(Rec, O, Attempts);
  for (const FtViolation *V = From; V != To; ++V)
    addViolationField(Rec, *V);
  return Rec;
}

/// Durably records one completed scenario.
void recordScenarioDone(ResumeLog &Log, size_t I, const RunOutcome &O,
                        unsigned Attempts, const FtViolation *From,
                        const FtViolation *To) {
  Log.recordDone(makeScenarioRecord(I, O, Attempts, From, To));
}

/// Restores the record of scenario \p I: outcome into \p OutcomeOut and
/// \p Attempts, violations (Route null, RouteText filled) appended to
/// \p ViolationsOut. False, nothing appended, for a malformed record.
bool replayScenarioRecord(const UnitRecord &Rec, const FtScenarioSet &Scenarios,
                          size_t I, RunOutcome &OutcomeOut, unsigned &Attempts,
                          std::vector<FtViolation> &ViolationsOut) {
  return parseOutcome(Rec, OutcomeOut, Attempts) &&
         parseViolationFields(Rec, Scenarios, I, I + 1, ViolationsOut);
}

/// Replays scenario \p I from \p Log when it holds a record; a malformed
/// record leaves the scenario skipped with an evaluation error.
bool replayFromLog(ResumeLog &Log, const FtScenarioSet &Scenarios, size_t I,
                   RunOutcome &OutcomeOut,
                   std::vector<FtViolation> &ViolationsOut) {
  UnitRecord Rec;
  if (!Log.replay(naiveScenarioKey(I), Rec))
    return false;
  unsigned Attempts = 1;
  if (!replayScenarioRecord(Rec, Scenarios, I, OutcomeOut, Attempts,
                            ViolationsOut))
    OutcomeOut = {RunStatus::EvalError,
                  "malformed scenario record in " + Log.path(), ""};
  return true;
}

} // namespace

std::string nv::naiveScenarioKey(size_t I) {
  std::string K = "s";
  K += std::to_string(I);
  return K;
}

UnitRecord nv::runNaiveScenarioRecord(const Program &P,
                                      ProtocolEvaluator &BaseEval,
                                      const FtScenarioSet &Scenarios, size_t I,
                                      const Value *DropValue,
                                      const FtOptions &Opts) {
  std::vector<FtViolation> Vs;
  unsigned Attempts = 1;
  RunOutcome O = runUnitWithRetry(
      Opts.Budget, Opts.Retry, Attempts, [&](const RunBudget &B) {
        return runOneScenarioGoverned(P, BaseEval, Scenarios, I, DropValue, B,
                                      Vs);
      });
  // Render the record (routeStr reads the live routes) BEFORE collecting
  // the scenario's garbage; nothing in Vs needs to survive the reset.
  UnitRecord Rec =
      makeScenarioRecord(I, O, Attempts, Vs.data(), Vs.data() + Vs.size());
  BaseEval.ctx().resetBetweenRuns();
  return Rec;
}

bool nv::aggregateNaiveScenarioRecords(
    const std::shared_ptr<const FtScenarioSet> &Scenarios,
    const RecordLookup &Lookup, FtCheckResult &Out) {
  Out.Scenarios = Scenarios;
  Out.ScenariosChecked = Scenarios->size();
  for (size_t I = 0; I < Scenarios->size(); ++I) {
    UnitRecord Rec;
    RunOutcome O;
    unsigned Attempts = 1;
    if (!Lookup(naiveScenarioKey(I), Rec) ||
        !replayScenarioRecord(Rec, *Scenarios, I, O, Attempts,
                              Out.Violations))
      return false;
    Out.RetriesPerformed += Attempts - 1;
    if (!O.ok()) {
      ++Out.ScenariosSkipped;
      if (Out.Outcome.ok())
        Out.Outcome = O;
    }
  }
  return true;
}

FtCheckResult nv::naiveFaultTolerance(const Program &P,
                                      ProtocolEvaluator &BaseEval,
                                      const FtOptions &Opts,
                                      const Value *DropValue) {
  FtCheckResult R;
  R.Scenarios = std::make_shared<const FtScenarioSet>(P, Opts);
  const FtScenarioSet &Scenarios = *R.Scenarios;
  NvContext &Ctx = BaseEval.ctx();
  if (!DropValue)
    DropValue = defaultDropValue(Ctx, P.AttrType);
  Ctx.pinValue(DropValue);
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    ++R.ScenariosChecked;
    if (Opts.Resume) {
      RunOutcome O;
      if (replayFromLog(*Opts.Resume, Scenarios, I, O, R.Violations)) {
        if (!O.ok()) {
          ++R.ScenariosSkipped;
          if (R.Outcome.ok())
            R.Outcome = O;
        }
        ++R.ScenariosReplayed;
        continue;
      }
    }
    size_t From = R.Violations.size();
    unsigned Attempts = 1;
    RunOutcome O = runUnitWithRetry(
        Opts.Budget, Opts.Retry, Attempts, [&](const RunBudget &B) {
          return runOneScenarioGoverned(P, BaseEval, Scenarios, I, DropValue,
                                        B, R.Violations);
        });
    R.RetriesPerformed += Attempts - 1;
    if (!O.ok()) {
      ++R.ScenariosSkipped;
      if (R.Outcome.ok())
        R.Outcome = O;
    }
    pinNewViolations(Ctx, R.Violations, From);
    // A canceled scenario is deliberately NOT journaled: cancellation is
    // the run stopping, not the scenario resolving, so it re-runs on
    // resume — which is what keeps resumed aggregates identical to an
    // uninterrupted run.
    if (Opts.Resume && O.Status != RunStatus::Canceled)
      recordScenarioDone(*Opts.Resume, I, O, Attempts,
                         R.Violations.data() + From,
                         R.Violations.data() + R.Violations.size());
    // Collect the scenario's fixpoint garbage back down to the pinned
    // baseline (evaluator globals + partials, drop value, violations).
    Ctx.resetBetweenRuns();
  }
  Ctx.unpinValue(DropValue);
  return R;
}

FtCheckResult nv::naiveFaultToleranceParallel(
    const Program &P, const FtOptions &Opts, ThreadPool &Pool,
    const std::function<const Value *(NvContext &)> &MakeDrop) {
  FtCheckResult R;
  R.Scenarios = std::make_shared<const FtScenarioSet>(P, Opts);
  const FtScenarioSet &Scenarios = *R.Scenarios;
  if (Scenarios.size() == 0)
    return R;

  // One persistent worker per pool thread. Each worker re-parses the
  // program ONCE (AST nodes carry a lazily-filled free-variable cache, so
  // sharing them across threads would race), builds one evaluator over its
  // own NvContext/BddManager arena, then claims scenarios dynamically off
  // a shared counter and garbage-collects its arena back to the pinned
  // baseline between scenarios — instead of the old scheme of building
  // (and throwing away) a fresh parse + arena per contiguous chunk.
  std::string Src = printProgram(P);

  // Violations land in per-scenario slots and are concatenated in scenario
  // order below, so the logical result is identical for any pool size and
  // any dynamic interleaving (route pointers live in the per-worker arenas
  // retained by the result).
  std::vector<std::vector<FtViolation>> PerScenario(Scenarios.size());
  std::vector<RunOutcome> PerOutcome(Scenarios.size());

  // Resume: journaled scenarios are restored up front and never enter the
  // worklist, so workers only claim pending ones. The per-scenario slots
  // make replayed and live results indistinguishable to the aggregation.
  std::vector<size_t> Pending;
  Pending.reserve(Scenarios.size());
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    if (Opts.Resume &&
        replayFromLog(*Opts.Resume, Scenarios, I, PerOutcome[I],
                      PerScenario[I])) {
      ++R.ScenariosReplayed;
      continue;
    }
    Pending.push_back(I);
  }

  size_t Workers = std::min(Pending.size(), (size_t)Pool.numThreads());
  std::vector<std::shared_ptr<NvContext>> Ctxs(Workers);
  std::atomic<size_t> NextPending{0};
  std::atomic<uint64_t> Retries{0};

  if (Workers > 0)
    Pool.parallelFor(Workers, [&](size_t W) {
      DiagnosticEngine Diags;
      auto Local = parseProgram(Src, Diags);
      if (!Local || !typeCheck(*Local, Diags))
        fatalError("internal: naive-baseline worker failed to re-parse the "
                   "program:\n" +
                   Diags.str());
      auto Ctx = std::make_shared<NvContext>(Local->numNodes());
      InterpProgramEvaluator BaseEval(*Ctx, *Local);
      const Value *Drop = MakeDrop ? MakeDrop(*Ctx)
                                   : defaultDropValue(*Ctx, Local->AttrType);
      Ctx->pinValue(Drop);
      for (size_t PI = NextPending.fetch_add(1); PI < Pending.size();
           PI = NextPending.fetch_add(1)) {
        size_t I = Pending[PI];
        // Each scenario is governed in its own scope on this worker thread
        // (the thread-local governor chain does not cross the pool), so a
        // budget trip or injected fault skips exactly this scenario;
        // sibling scenarios on this and other workers proceed and their
        // results are bit-identical to an ungoverned run. Transient trips
        // retry with an escalated budget before counting as skipped.
        unsigned Attempts = 1;
        PerOutcome[I] = runUnitWithRetry(
            Opts.Budget, Opts.Retry, Attempts, [&](const RunBudget &B) {
              return runOneScenarioGoverned(*Local, BaseEval, Scenarios, I,
                                            Drop, B, PerScenario[I]);
            });
        if (Attempts > 1)
          Retries.fetch_add(Attempts - 1, std::memory_order_relaxed);
        pinNewViolations(*Ctx, PerScenario[I], 0);
        // Canceled scenarios are not journaled (see naiveFaultTolerance):
        // they re-run on resume. recordDone is thread-safe.
        if (Opts.Resume && PerOutcome[I].Status != RunStatus::Canceled)
          recordScenarioDone(*Opts.Resume, I, PerOutcome[I], Attempts,
                             PerScenario[I].data(),
                             PerScenario[I].data() + PerScenario[I].size());
        Ctx->resetBetweenRuns();
      }
      Ctxs[W] = std::move(Ctx);
    });

  R.ScenariosChecked = Scenarios.size();
  R.RetriesPerformed = Retries.load(std::memory_order_relaxed);
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    if (!PerOutcome[I].ok()) {
      ++R.ScenariosSkipped;
      if (R.Outcome.ok())
        R.Outcome = PerOutcome[I]; // first in scenario order: deterministic
    }
    R.Violations.insert(R.Violations.end(), PerScenario[I].begin(),
                        PerScenario[I].end());
  }
  for (auto &C : Ctxs)
    R.RetainedContexts.push_back(std::move(C));
  return R;
}
