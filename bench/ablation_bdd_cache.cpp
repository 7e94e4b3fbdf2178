//===- ablation_bdd_cache.cpp - MTBDD operation-cache ablation ---------------===//
//
// Sec. 5.1: "To amortize the cost of these operations we cache them".
// Measures the fault-tolerance meta-simulation with the MTBDD operation
// cache enabled vs disabled (google-benchmark). Each iteration builds a
// fresh NvContext, so the timings include allocating the cache at its
// initial size and growing it with the node store; op_cache_slots reports
// the size it reached.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "eval/Compile.h"
#include "net/Generators.h"

#include <benchmark/benchmark.h>

using namespace nv;

namespace {

struct Fixture {
  Program Meta;
  static Fixture &forK(unsigned K) {
    static std::map<unsigned, Fixture> Cache;
    auto It = Cache.find(K);
    if (It != Cache.end())
      return It->second;
    DiagnosticEngine Diags;
    auto P = loadGenerated(generateSpSingle(K), Diags);
    auto M = makeFaultTolerantProgram(*P, FtOptions{}, Diags);
    Fixture F{*M};
    return Cache.emplace(K, std::move(F)).first->second;
  }
};

void BM_FaultToleranceSim(benchmark::State &State) {
  unsigned K = static_cast<unsigned>(State.range(0));
  bool CacheOn = State.range(1) != 0;
  Fixture &F = Fixture::forK(K);
  for (auto _ : State) {
    NvContext Ctx(F.Meta.numNodes());
    Ctx.Mgr.setCachingEnabled(CacheOn);
    CompiledProgramEvaluator Eval(Ctx, F.Meta);
    SimResult R = simulate(F.Meta, Eval);
    benchmark::DoNotOptimize(R.Converged);
    State.counters["cache_hits"] =
        static_cast<double>(Ctx.Mgr.cacheHits());
    State.counters["cache_misses"] =
        static_cast<double>(Ctx.Mgr.cacheMisses());
    State.counters["op_cache_slots"] =
        static_cast<double>(Ctx.Mgr.opCacheSlots());
  }
}

} // namespace

BENCHMARK(BM_FaultToleranceSim)
    ->ArgNames({"k", "cache"})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({6, 1})
    ->Args({6, 0})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
