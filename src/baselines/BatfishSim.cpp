//===- BatfishSim.cpp - Batfish-style per-prefix simulation ------------------===//

#include "baselines/BatfishSim.h"

#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"

#include <atomic>
#include <cstdlib>

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
                  const RunBudget &JobBudget, PerPrefix &Out) {
  // Per-prefix governance on the thread that runs the prefix: a trip
  // skips exactly this prefix and leaves siblings bit-identical to an
  // ungoverned run (per-prefix state is fully isolated anyway).
  Governor::Scope Guard(JobBudget);
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

/// Journal key of destination index \p I (the destination list is part of
/// the run binding, so the index is stable).
std::string prefixKeyStr(size_t I) {
  std::string K = "p";
  K += std::to_string(I);
  return K;
}

/// Serializes one completed prefix into a journal record. Pops/allocation
/// counts and the extracted row are recorded so a replayed prefix
/// contributes exactly what the live run did.
void recordPrefixDone(ResumeLog &Log, size_t I, const PerPrefix &P,
                      unsigned Attempts, bool HasExtract) {
  UnitRecord Rec;
  Rec.Key = prefixKeyStr(I);
  addOutcome(Rec, P.Outcome, Attempts);
  Rec.addInt("conv", P.Converged ? 1 : 0);
  Rec.addInt("pops", (long long)P.Pops);
  Rec.addInt("values", (long long)P.ValuesAllocated);
  if (HasExtract) {
    std::string Row;
    for (size_t J = 0; J < P.Row.size(); ++J) {
      if (J)
        Row += ',';
      Row += std::to_string(P.Row[J]);
    }
    Rec.add("row", Row);
  }
  Log.recordDone(Rec);
}

bool replayPrefixRecord(const UnitRecord &Rec, PerPrefix &Out) {
  unsigned Attempts = 1;
  if (!parseOutcome(Rec, Out.Outcome, Attempts))
    return false;
  const std::string *Conv = Rec.get("conv");
  const std::string *Pops = Rec.get("pops");
  const std::string *Values = Rec.get("values");
  if (!Conv || !Pops || !Values)
    return false;
  Out.Converged = *Conv == "1";
  Out.Pops = std::strtoull(Pops->c_str(), nullptr, 10);
  Out.ValuesAllocated = std::strtoull(Values->c_str(), nullptr, 10);
  if (const std::string *Row = Rec.get("row")) {
    Out.Row.clear();
    if (!Row->empty()) {
      size_t Pos = 0;
      while (Pos <= Row->size()) {
        size_t Comma = Row->find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Row->size();
        Out.Row.push_back(std::strtoll(Row->c_str() + Pos, nullptr, 10));
        Pos = Comma + 1;
      }
    }
  }
  return true;
}

} // namespace

BatfishResult nv::batfishAllPrefixes(
    const Program &ParamProgram, const std::vector<uint32_t> &Destinations,
    const std::function<int64_t(const Value *)> &Extract, ThreadPool *Pool,
    const RunBudget &JobBudget, ResumeLog *Resume, const RetryPolicy &Retry) {
  std::vector<PerPrefix> Per(Destinations.size());
  BatfishResult R;

  // Resume: restore journaled prefixes into their slots; only the rest
  // enter the (serial or sharded) worklist.
  std::vector<size_t> Pending;
  Pending.reserve(Destinations.size());
  for (size_t I = 0; I < Destinations.size(); ++I) {
    if (Resume) {
      UnitRecord Rec;
      if (Resume->replay(prefixKeyStr(I), Rec) &&
          replayPrefixRecord(Rec, Per[I])) {
        ++R.PrefixesReplayed;
        continue;
      }
    }
    Pending.push_back(I);
  }

  std::atomic<uint64_t> Retries{0};
  // One governed, retried, journaled prefix — shared by both paths.
  auto RunOne = [&](const Program &Prog, size_t I) {
    unsigned Attempts = 1;
    runUnitWithRetry(JobBudget, Retry, Attempts, [&](const RunBudget &B) {
      Per[I] = PerPrefix();
      runOnePrefix(Prog, Destinations[I], Extract, B, Per[I]);
      return Per[I].Outcome;
    });
    if (Attempts > 1)
      Retries.fetch_add(Attempts - 1, std::memory_order_relaxed);
    // Canceled prefixes are not journaled: they re-run on resume, which is
    // what keeps resumed aggregates identical to uninterrupted runs.
    if (Resume && Per[I].Outcome.Status != RunStatus::Canceled)
      recordPrefixDone(*Resume, I, Per[I], Attempts, Extract != nullptr);
  };

  if (!Pool || Pool->numThreads() <= 1 || Pending.size() <= 1) {
    for (size_t I : Pending)
      RunOne(ParamProgram, I);
  } else {
    // One persistent worker per pool thread: each takes its own typed copy
    // of the program ONCE (cloneProgram: no AST node, whose free-variable
    // cache is lazily filled, is shared across threads) and claims
    // destinations dynamically off a shared counter. Per-prefix contexts
    // stay as in the serial path, preserving Batfish's no-sharing cost
    // model — and keeping per-prefix allocation counts independent of the
    // pool size.
    size_t Workers =
        std::min(Pending.size(), static_cast<size_t>(Pool->numThreads()));
    std::atomic<size_t> NextPending{0};
    Pool->parallelFor(Workers, [&](size_t) {
      Program Local = cloneProgram(ParamProgram);
      for (size_t PI = NextPending.fetch_add(1); PI < Pending.size();
           PI = NextPending.fetch_add(1))
        RunOne(Local, Pending[PI]);
    });
  }

  R.RetriesPerformed = Retries.load(std::memory_order_relaxed);
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
