//===- BatfishSim.cpp - Batfish-style per-prefix simulation ------------------===//

#include "baselines/BatfishSim.h"

#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"
#include "support/Units.h"

using namespace nv;

namespace {

/// Result of one per-prefix run, stored in a destination-indexed slot so
/// aggregation order (and thus the result) is identical for any pool size.
struct PerPrefix {
  bool Converged = false;
  RunOutcome Outcome;
  uint64_t Pops = 0;
  uint64_t ValuesAllocated = 0;
  std::vector<int64_t> Row;
};

void runOnePrefix(const Program &Prog, uint32_t Dest,
                  const std::function<int64_t(const Value *)> &Extract,
                  PerPrefix &Out) {
  try {
    // Fresh context per prefix: no value sharing across destinations.
    NvContext Ctx(Prog.numNodes());
    InterpProgramEvaluator Eval(Ctx, Prog, {{"dest", Ctx.nodeV(Dest)}});
    SimOptions Opts;
    Opts.IncrementalMerge = false; // full re-merge, Batfish-style
    SimResult Sim = simulate(Prog, Eval, Opts);
    Out.Converged = Sim.Converged;
    Out.Outcome = Sim.Outcome;
    Out.Pops = Sim.Stats.Pops;
    Out.ValuesAllocated = Ctx.Arena.size();
    if (Extract) {
      Out.Row.reserve(Sim.Labels.size());
      for (const Value *L : Sim.Labels)
        Out.Row.push_back(L ? Extract(L) : 0);
    }
  } catch (const EngineError &E) {
    // Evaluator construction or assert/extract evaluation tripped outside
    // the simulator's own catch.
    Out.Converged = false;
    Out.Outcome = E.outcome();
    Out.Row.clear();
  }
}

} // namespace

BatfishResult nv::batfishAllPrefixes(
    const Program &ParamProgram, const std::vector<uint32_t> &Destinations,
    const std::function<int64_t(const Value *)> &Extract, ThreadPool *Pool) {
  std::vector<PerPrefix> Per(Destinations.size());
  // One persistent worker per pool thread (the calling thread without a
  // pool): each takes its own typed copy of the program ONCE
  // (cloneProgram: no AST node, whose free-variable cache is lazily
  // filled, is shared across threads) and claims destinations off the
  // unit runner's shared counter. Per-prefix contexts preserve Batfish's
  // no-sharing cost model — and keep per-prefix allocation counts
  // independent of the pool size.
  UnitExecutor X;
  X.Pool = Pool;
  runUnits({.Count = Destinations.size(), .Prefix = 'p'}, X, [&](const auto &Serve) {
    Program Local = cloneProgram(ParamProgram);
    UnitWorker W;
    W.Run = [&](size_t I) {
      runOnePrefix(Local, Destinations[I], Extract, Per[I]);
      return Per[I].Outcome;
    };
    Serve(W);
  });

  BatfishResult R;
  for (PerPrefix &P : Per) {
    R.Converged &= P.Converged;
    ++R.PrefixesSimulated;
    if (!P.Outcome.ok()) {
      ++R.PrefixesSkipped;
      if (R.Outcome.ok())
        R.Outcome = P.Outcome; // first in destination order: deterministic
    }
    R.TotalPops += P.Pops;
    R.TotalValuesAllocated += P.ValuesAllocated;
    if (Extract)
      R.Labels.push_back(std::move(P.Row));
  }
  return R;
}
