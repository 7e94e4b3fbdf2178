//===- fig13a_fault_tolerance.cpp - Fig. 13a: single-link fault tolerance ----===//
//
// Reproduces Fig. 13a: total time to check single-link fault tolerance of
// the reachability property, comparing
//   NV-BDD  — the Fig. 5 meta-protocol over MTBDDs (one simulation for all
//             scenarios, compiled evaluator),
//   Naive   — one simulation per failure scenario (Sec. 2.7's strawman);
//             sharded over --threads workers, each with its own arena,
//   NV-SMT  — symbolic failure booleans through NV's optimizing encoder,
//   MS      — the same symbolic failures through the MineSweeper-style
//             baseline encoder.
//
// Expected shape: the SMT approaches deteriorate quickly with failures in
// the state space (MS first); NV-BDD stays in the seconds range and beats
// the naive baseline even when the latter is parallelized.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "analysis/SymbolicFailures.h"
#include "baselines/NaiveFailures.h"
#include "bench/BenchUtil.h"
#include "net/Generators.h"
#include "smt/Verifier.h"
#include "support/Timer.h"

using namespace nv;
using namespace nvbench;

int main(int argc, char **argv) {
  Args A = Args::parse(argc, argv);
  struct Net {
    std::string Name;
    std::string Src;
  };
  std::vector<Net> Nets;
  std::vector<unsigned> Ks = A.Paper ? std::vector<unsigned>{8, 10, 12}
                                     : std::vector<unsigned>{4, 6, 8};
  for (unsigned K : Ks)
    Nets.push_back({"SP" + std::to_string(K), generateSpSingle(K)});
  Nets.push_back({A.Paper ? "FAT12" : "FAT8",
                  generateFatSingle(A.Paper ? 12 : 8)});

  std::optional<ThreadPool> Pool;
  if (A.Threads > 1)
    Pool.emplace(A.Threads);

  std::printf("Fig. 13a — single-link fault tolerance, total time (ms).\n"
              "Timeout %us per SMT solve; %u worker thread(s).\n\n",
              A.TimeoutSec, A.Threads);
  Table T({"network", "nodes/links", "NV-BDD (ms)", "Naive (ms)",
           "NV-SMT (ms)", "MS (ms)"});
  JsonReport J;

  for (const Net &N : Nets) {
    DiagnosticEngine Diags;
    auto P = loadGenerated(N.Src, Diags);
    if (!P) {
      Diags.printToStderr();
      return 1;
    }

    // NV-BDD: meta-protocol, compiled, all scenarios at once + check
    // (the check's per-node descents are sharded over the pool).
    FtOptions FtOpts;
    FtOpts.Threads = A.Threads;
    Stopwatch W;
    FtRunResult Bdd = runFaultTolerance(*P, FtOpts, true, Diags);
    double BddMs = W.elapsedMs();
    std::string BddCell =
        Bdd.Converged ? ms(BddMs) + (Bdd.Check.holds() ? "" : " (cex!)")
                      : "diverged";

    // Naive: one simulation per scenario; the scenarios are sharded over
    // the pool, each worker with one cloneProgram copy + arena.
    W.restart();
    FtCheckResult Naive;
    if (Pool) {
      Naive = naiveFaultToleranceParallel(*P, FtOptions{}, *Pool);
    } else {
      NvContext Ctx(P->numNodes());
      InterpProgramEvaluator Eval(Ctx, *P);
      Naive = naiveFaultTolerance(*P, Eval, FtOptions{}, Ctx.noneV());
    }
    double NaiveMs = W.elapsedMs();
    std::string NaiveCell = ms(NaiveMs) + (Naive.holds() ? "" : " (cex!)");

    // NV-SMT / MS: one symbolic failure per link, bounded by 1.
    auto SymP = makeSymbolicFailureProgram(*P, 1, Diags);
    auto SolveCell = [&](bool Baseline) -> std::string {
      if (!SymP)
        return "error";
      VerifyOptions Opts;
      Opts.TimeoutMs = A.TimeoutSec * 1000;
      if (Baseline) {
        Opts.Smt.ConstantFold = false;
        Opts.Smt.NameIntermediates = true;
        Opts.UseTacticPipeline = false;
      }
      Stopwatch WS;
      VerifyResult R = verifyProgram(*SymP, Opts, Diags);
      if (R.Status == VerifyStatus::ResourceExhausted ||
          R.Status == VerifyStatus::Unknown) {
        std::string TO = ">";
        TO += std::to_string(A.TimeoutSec);
        TO += "s T/O";
        return TO;
      }
      return ms(WS.elapsedMs()) +
             (R.Status == VerifyStatus::Verified ? "" : " (cex!)");
    };
    std::string NvSmt = SolveCell(false);
    std::string Ms2 = SolveCell(true);

    T.row({N.Name,
           std::to_string(P->numNodes()) + "/" +
               std::to_string(P->links().size()),
           BddCell, NaiveCell, NvSmt, Ms2});

    uint64_t Lookups = Bdd.CacheHits + Bdd.CacheMisses;
    // Governance outcome of the measured runs: a non-"ok" record carries a
    // budget/cancellation/fault verdict and is excluded from trajectory
    // comparison by tools/ci/bench_compare.py.
    std::string Outcome = !Bdd.Outcome.ok()     ? Bdd.Outcome.str()
                          : !Naive.Outcome.ok() ? Naive.Outcome.str()
                                                : "ok";
    J.begin("fig13a")
        .field("network", N.Name)
        .field("outcome", Outcome)
        .field("nodes", static_cast<uint64_t>(P->numNodes()))
        .field("links", static_cast<uint64_t>(P->links().size()))
        .field("threads", A.Threads)
        .field("nv_bdd_ms", BddMs)
        .field("naive_ms", NaiveMs)
        .field("pops", Bdd.Stats.Pops)
        .field("cache_hit_rate",
               Lookups ? static_cast<double>(Bdd.CacheHits) / Lookups : 0.0)
        .field("scenarios", Naive.ScenariosChecked);
  }
  T.print();
  if (Pool)
    printPoolStats(*Pool);
  if (!J.writeTo(A.JsonPath))
    return 1;
  return 0;
}
