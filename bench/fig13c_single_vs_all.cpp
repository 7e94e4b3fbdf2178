//===- fig13c_single_vs_all.cpp - Fig. 13c: single- vs all-prefixes ----------===//
//
// Reproduces Fig. 13c: total time (including compilation) to run the
// single-link fault-tolerance analysis over every announced prefix, either
// one prefix at a time (re-instantiating a `symbolic dest` program per
// prefix) or all prefixes simultaneously (the attribute is lifted to
// dict[link index, dict[prefix, route]]), with the interpreted and the
// closure-compiled ("native") evaluators. The Single modes shard the
// prefix list over --threads workers (per-prefix runs are independent).
//
// Expected shape: Single-Native fastest (uniform per-scenario routes,
// amortized compilation), All-Interp slowest; single-prefix beats
// all-prefixes by a small factor (the paper reports 3-7x).
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "bench/BenchUtil.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "net/Generators.h"
#include "support/Timer.h"

#include <atomic>
#include <optional>

using namespace nv;
using namespace nvbench;

namespace {

/// Runs the single-destination analysis for one leaf in a shard-persistent
/// context: the arena is garbage-collected back to its pinned baseline
/// first, so MTBDD/arena tables no longer grow monotonically across the
/// 32+ per-destination runs. Returns false on divergence.
bool runOneLeaf(const Program &Meta, NvContext &Ctx, uint32_t Dest,
                bool Native) {
  Ctx.resetBetweenRuns();
  SymbolicAssignment Sym{{"dest", Ctx.nodeV(Dest)}};
  std::unique_ptr<ProtocolEvaluator> Eval;
  if (Native)
    Eval = std::make_unique<CompiledProgramEvaluator>(Ctx, Meta, Sym);
  else
    Eval = std::make_unique<InterpProgramEvaluator>(Ctx, Meta, Sym);
  SimResult R = simulate(Meta, *Eval);
  return R.Converged;
}

/// FT over each prefix separately: one meta-program with a symbolic dest,
/// instantiated per leaf. With a pool, one persistent worker per thread
/// takes its own typed copy of the program once (cloneProgram; AST
/// free-variable caches fill lazily, so programs are not shared across
/// threads), then claims leaves dynamically and reuses its context across
/// them.
double singleMode(const Program &Meta, const std::vector<uint32_t> &Leaves,
                  bool Native, ThreadPool *Pool) {
  Stopwatch W;
  if (!Pool || Pool->numThreads() <= 1 || Leaves.size() <= 1) {
    NvContext Ctx(Meta.numNodes());
    for (uint32_t Dest : Leaves)
      if (!runOneLeaf(Meta, Ctx, Dest, Native))
        return -1;
    return W.elapsedMs();
  }
  size_t Workers =
      std::min(Leaves.size(), static_cast<size_t>(Pool->numThreads()));
  std::atomic<size_t> Next{0};
  std::atomic<bool> Ok{true};
  Pool->parallelFor(Workers, [&](size_t) {
    Program Local = cloneProgram(Meta);
    NvContext Ctx(Local.numNodes());
    for (size_t I = Next.fetch_add(1); I < Leaves.size();
         I = Next.fetch_add(1))
      if (!runOneLeaf(Local, Ctx, Leaves[I], Native))
        Ok.store(false);
  });
  return Ok.load() ? W.elapsedMs() : -1;
}

double allMode(const Program &Meta, bool Native) {
  Stopwatch W;
  NvContext Ctx(Meta.numNodes());
  std::unique_ptr<ProtocolEvaluator> Eval;
  if (Native)
    Eval = std::make_unique<CompiledProgramEvaluator>(Ctx, Meta);
  else
    Eval = std::make_unique<InterpProgramEvaluator>(Ctx, Meta);
  SimResult R = simulate(Meta, *Eval);
  return R.Converged ? W.elapsedMs() : -1;
}

} // namespace

int main(int argc, char **argv) {
  Args A = Args::parse(argc, argv);
  unsigned K = A.Paper ? 16 : 8;
  FatTree FT(K);
  auto Leaves = FT.leaves();

  std::optional<ThreadPool> Pool;
  if (A.Threads > 1)
    Pool.emplace(A.Threads);
  ThreadPool *PoolPtr = Pool ? &*Pool : nullptr;

  std::printf("Fig. 13c — fault tolerance over all %zu prefixes of SP%u/"
              "FAT%u:\nper-prefix (Single, %u thread(s)) vs simultaneous "
              "(All), interpreted vs native. Total time (s).\n\n",
              Leaves.size(), K, K, A.Threads);
  Table T({"network", "Single-Native", "Single-Interp", "All-Native",
           "All-Interp"});
  JsonReport J;

  for (bool Fat : {false, true}) {
    DiagnosticEngine Diags;
    auto Param = loadGenerated(
        Fat ? generateFatSingleParam(K) : generateSpSingleParam(K), Diags);
    auto All = loadGenerated(
        Fat ? generateFatAllPrefixes(K) : generateSpAllPrefixes(K), Diags);
    if (!Param || !All) {
      Diags.printToStderr();
      return 1;
    }
    FtOptions Opts; // 1 link failure
    auto MetaSingle = makeFaultTolerantProgram(*Param, Opts, Diags);
    FtOptions AllOpts;
    AllOpts.DropValueSource = "createDict None"; // drop = empty RIB
    auto MetaAll = makeFaultTolerantProgram(*All, AllOpts, Diags);
    if (!MetaSingle || !MetaAll) {
      Diags.printToStderr();
      return 1;
    }

    double SN = singleMode(*MetaSingle, Leaves, true, PoolPtr);
    double SI = singleMode(*MetaSingle, Leaves, false, PoolPtr);
    double AN = allMode(*MetaAll, true);
    double AI = allMode(*MetaAll, false);
    auto Cell = [](double V) { return V < 0 ? std::string("diverged")
                                            : sec(V); };
    std::string Name = Fat ? "FAT" + std::to_string(K)
                           : "SP" + std::to_string(K);
    T.row({Name, Cell(SN), Cell(SI), Cell(AN), Cell(AI)});

    J.begin("fig13c")
        .field("network", Name)
        .field("outcome", (SN < 0 || SI < 0 || AN < 0 || AI < 0)
                              ? "not-converged"
                              : "ok")
        .field("nodes", static_cast<uint64_t>(Param->numNodes()))
        .field("prefixes", static_cast<uint64_t>(Leaves.size()))
        .field("threads", A.Threads)
        .field("single_native_ms", SN)
        .field("single_interp_ms", SI)
        .field("all_native_ms", AN)
        .field("all_interp_ms", AI);
  }
  T.print();
  if (Pool)
    printPoolStats(*Pool);
  if (!J.writeTo(A.JsonPath))
    return 1;
  return 0;
}
