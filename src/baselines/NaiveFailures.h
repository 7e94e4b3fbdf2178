//===- NaiveFailures.h - Per-scenario failure simulation --------*- C++ -*-===//
//
// Part of nv-cpp. The baseline the paper's fault-tolerance analysis is
// compared against (Sec. 2.7): "independently trying out all failure
// scenarios". Each scenario re-simulates the base program with a failure-
// injecting wrapper around the transfer function. Also used as the
// correctness oracle for the MTBDD meta-protocol in tests.
//
//===----------------------------------------------------------------------===//

#ifndef NV_BASELINES_NAIVEFAILURES_H
#define NV_BASELINES_NAIVEFAILURES_H

#include "analysis/FaultTolerance.h"
#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"
#include "support/Units.h"

namespace nv {

/// Wraps a base evaluator, dropping routes over failed links and around a
/// failed node (init of the failed node is dropped as well).
class FailureInjectedEvaluator : public ProtocolEvaluator {
public:
  FailureInjectedEvaluator(ProtocolEvaluator &Base, const FtScenario &S,
                           const Value *DropValue)
      : Base(Base), S(S), Drop(DropValue) {}

  NvContext &ctx() override { return Base.ctx(); }
  const Value *init(uint32_t U) override {
    if (S.Node && *S.Node == U)
      return Drop;
    return Base.init(U);
  }
  const Value *trans(uint32_t U, uint32_t V, const Value *A) override {
    if (affects(U, V))
      return Drop;
    return Base.trans(U, V, A);
  }
  const Value *merge(uint32_t U, const Value *A, const Value *B) override {
    return Base.merge(U, A, B);
  }
  bool hasAssert() const override { return Base.hasAssert(); }
  bool assertAt(uint32_t U, const Value *A) override {
    return Base.assertAt(U, A);
  }
  bool requiresHold() const override { return Base.requiresHold(); }

private:
  ProtocolEvaluator &Base;
  FtScenario S;
  const Value *Drop;

  bool affects(uint32_t U, uint32_t V) const {
    if (S.Node && (*S.Node == U || *S.Node == V))
      return true;
    for (const FtLink &L : S.Links)
      if ((L.U == U && L.V == V) || (L.U == V && L.V == U))
        return true;
    return false;
  }
};

/// Simulates the base program under one failure scenario.
SimResult simulateScenario(const Program &P, ProtocolEvaluator &BaseEval,
                           const FtScenario &S, const Value *DropValue);

/// The naive exhaustive analysis: one simulation per scenario, run through
/// the unit runner (support/Units.h) on the calling thread with the
/// caller's evaluator. Returns the violations found plus the number of
/// scenarios simulated (for the Fig. 13a baseline timing).
///
/// Garbage-collects BaseEval's arena back to its pinned baseline after
/// each scenario (violation routes are pinned first, so the result stays
/// valid). Unpinned values the caller holds across this call do not
/// survive those collections — re-derive them afterwards if needed.
/// A null \p DropValue is derived from the attribute type
/// (defaultDropValue). With Opts.Resume, a journaled scenario is restored
/// instead; a malformed record makes it skipped with an evaluation error
/// (both naive entry points).
FtCheckResult naiveFaultTolerance(const Program &P,
                                  ProtocolEvaluator &BaseEval,
                                  const FtOptions &Opts,
                                  const Value *DropValue);

/// The stable journal/fleet key of scenario \p I ("s<I>").
std::string naiveScenarioKey(size_t I);

/// Runs scenario \p I end to end — own governed scope, transient-retry —
/// and returns the same UnitRecord the in-process paths journal for it
/// (outcome + attempts + one "v" field per violation). This is the fleet
/// worker's unit body: BaseEval's arena is collected back to its pinned
/// baseline before returning, so one evaluator serves many jobs.
UnitRecord runNaiveScenarioRecord(const Program &P, ProtocolEvaluator &BaseEval,
                                  const FtScenarioSet &Scenarios, size_t I,
                                  const Value *DropValue,
                                  const FtOptions &Opts);

/// The fleet worker of the naive sweep (`nv worker --cmd naive`): serves
/// scenario jobs with runNaiveScenarioRecord over one evaluator until the
/// coordinator shuts it down; returns the worker's exit code.
int naiveFleetWorker(const Program &P, const FtOptions &Opts);

/// The sharded naive analysis on \p X: one persistent worker per pool
/// thread, or the fleet's worker subprocesses. Each in-process worker takes
/// its own cloneProgram copy of the program once, into its own NvContext/
/// BddManager arena (hash-consing stays lock-free and no AST node, whose
/// free-variable cache is lazily filled, is shared across threads), claims
/// scenarios dynamically off a shared counter, and garbage-collects its
/// arena back to the pinned evaluator baseline between scenarios.
/// Violations land in per-scenario slots and are concatenated in scenario
/// order, so the logical result is identical for any pool or fleet size
/// (in process, route pointers live in per-worker arenas retained by the
/// result; fleet and journal violations carry their route text).
FtCheckResult naiveFaultToleranceParallel(const Program &P,
                                          const FtOptions &Opts,
                                          const UnitExecutor &X);

} // namespace nv

#endif // NV_BASELINES_NAIVEFAILURES_H
