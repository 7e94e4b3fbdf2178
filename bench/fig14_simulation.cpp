//===- fig14_simulation.cpp - Fig. 14: all-prefixes simulation ---------------===//
//
// Reproduces Fig. 14: time to solve the all-prefixes routing problem with
//   NV              — MTBDD simulator, interpreted evaluator,
//   NV-native       — closure-compiled evaluator, compilation excluded,
//   NV-native-total — compilation included,
//   Batfish         — the per-prefix baseline (plain values, full merges,
//                     fresh state per prefix).
//
// Expected shape: NV an order of magnitude faster than the per-prefix
// baseline with a much flatter growth curve, and far smaller memory
// (values allocated) because the RIB MTBDDs share across prefixes.
//
//===----------------------------------------------------------------------===//

#include "baselines/BatfishSim.h"
#include "bench/BenchUtil.h"
#include "eval/Compile.h"
#include "sim/Simulator.h"
#include "net/Generators.h"
#include "support/Timer.h"

#include <optional>

using namespace nv;
using namespace nvbench;

int main(int argc, char **argv) {
  Args A = Args::parse(argc, argv);
  std::vector<unsigned> Ks = A.Paper   ? std::vector<unsigned>{20, 24, 28, 32}
                             : A.Smoke ? std::vector<unsigned>{4, 8}
                                       : std::vector<unsigned>{4, 8, 12, 16};

  std::optional<ThreadPool> Pool;
  if (A.Threads > 1)
    Pool.emplace(A.Threads);

  std::printf("Fig. 14 — all-prefixes simulation time (s) and memory "
              "(interned values); Batfish baseline sharded over %u "
              "thread(s).\n\n",
              A.Threads);
  Table T({"network", "nodes", "prefixes", "NV (s)", "NV-native (s)",
           "NV-native-total (s)", "Batfish (s)", "NV values",
           "Batfish values"});
  JsonReport J;

  for (unsigned K : Ks) {
    DiagnosticEngine Diags;
    auto All = loadGenerated(generateSpAllPrefixes(K), Diags);
    auto Param = loadGenerated(generateSpSingleParam(K), Diags);
    if (!All || !Param) {
      Diags.printToStderr();
      return 1;
    }
    FatTree FT(K);
    auto Leaves = FT.leaves();

    // NV interpreted.
    Stopwatch W;
    NvContext CtxI(All->numNodes());
    InterpProgramEvaluator EI(CtxI, *All);
    SimResult RI = simulate(*All, EI);
    double NvMs = W.elapsedMs();

    // NV native: compile, then simulate.
    NvContext CtxC(All->numNodes());
    W.restart();
    CompiledProgramEvaluator EC(CtxC, *All);
    double CompileMs = W.elapsedMs();
    W.restart();
    SimResult RC = simulate(*All, EC);
    double NativeMs = W.elapsedMs();

    // Batfish-style per-prefix baseline, sharded over the pool.
    W.restart();
    BatfishResult BF =
        batfishAllPrefixes(*Param, Leaves, nullptr, Pool ? &*Pool : nullptr);
    double BatfishMs = W.elapsedMs();

    // Governance outcome: a non-"ok" record is emitted (and the row
    // skipped) rather than aborting the whole sweep, so trajectory runs
    // under a budget still produce comparable JSON for the sizes that
    // finished; bench_compare.py drops the non-ok entries.
    std::string Outcome = !RI.Outcome.ok()   ? RI.Outcome.str()
                          : !RC.Outcome.ok() ? RC.Outcome.str()
                          : !BF.Outcome.ok() ? BF.Outcome.str()
                                             : "ok";
    if (!RI.Converged || !RC.Converged || !BF.Converged) {
      std::printf("divergence at k=%u (%s)!\n", K, Outcome.c_str());
      J.begin("fig14")
          .field("network", "Fat" + std::to_string(K))
          .field("outcome", Outcome == "ok" ? "not-converged" : Outcome);
      continue;
    }
    T.row({"Fat" + std::to_string(K), std::to_string(All->numNodes()),
           std::to_string(Leaves.size()), sec(NvMs), sec(NativeMs),
           sec(NativeMs + CompileMs), sec(BatfishMs),
           std::to_string(CtxC.Arena.size()),
           std::to_string(BF.TotalValuesAllocated)});

    uint64_t Lookups = CtxC.Mgr.cacheHits() + CtxC.Mgr.cacheMisses();
    J.begin("fig14")
        .field("network", "Fat" + std::to_string(K))
        .field("outcome", "ok")
        .field("nodes", static_cast<uint64_t>(All->numNodes()))
        .field("prefixes", static_cast<uint64_t>(Leaves.size()))
        .field("threads", A.Threads)
        .field("nv_ms", NvMs)
        .field("nv_native_ms", NativeMs)
        .field("batfish_ms", BatfishMs)
        .field("pops", BF.TotalPops)
        .field("cache_hit_rate",
               Lookups ? static_cast<double>(CtxC.Mgr.cacheHits()) / Lookups
                       : 0.0)
        .field("closures_created", CtxC.closuresCreated())
        .field("closures", CtxC.closures());
  }
  T.print();
  if (Pool)
    printPoolStats(*Pool);
  if (!J.writeTo(A.JsonPath))
    return 1;
  return 0;
}
