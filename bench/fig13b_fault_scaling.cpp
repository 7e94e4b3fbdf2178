//===- fig13b_fault_scaling.cpp - Fig. 13b: fault-tolerance scaling ----------===//
//
// Reproduces Fig. 13b: simulation time of the MTBDD fault-tolerance
// analysis (compilation excluded) as the network size and the bound on
// link failures grow, on symmetric fat trees and the asymmetric
// USCarrier-style WAN. Each run also checks the assertion under every
// scenario; the JSON record carries the check's time, scenario count and
// violations.
//
// Expected shape: fat trees scale gracefully (scenario classes collapse
// via MTBDD sharing); USCarrier degrades faster as failures increase
// because its routes vary wildly across scenarios (Sec. 6.3).
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "bench/BenchUtil.h"
#include "net/Generators.h"
#include "support/ParseNumber.h"

#include <cstring>

using namespace nv;
using namespace nvbench;

/// The value of `--cell K:F` (only the fat tree FatK at F link failures,
/// e.g. 20:3), or null without one.
const char *cellFlag(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--cell"))
      return I + 1 < argc ? argv[I + 1] : "";
  return nullptr;
}

bool parseCell(std::string_view V, unsigned &K, unsigned &F) {
  size_t Colon = V.find(':');
  return Colon != V.npos && parseInteger(V.substr(0, Colon), K) &&
         parseInteger(V.substr(Colon + 1), F) && K >= 2 && K % 2 == 0 &&
         F >= 1 && F <= 3;
}

int main(int argc, char **argv) {
  Args A = Args::parse(argc, argv);
  struct Net {
    std::string Name;
    std::string Src;
    unsigned MaxFailures;
  };
  std::vector<Net> Nets;
  unsigned CellK = 0, MinFailures = 1;
  if (const char *Cell = cellFlag(argc, argv)) {
    if (!parseCell(Cell, CellK, MinFailures)) {
      std::fprintf(stderr, "--cell wants K:F, an even fat-tree arity K and "
                           "1 to 3 link failures F\n");
      return 2;
    }
    Nets.push_back({"Fat" + std::to_string(CellK), generateSpSingle(CellK),
                    MinFailures});
  } else {
    std::vector<unsigned> Ks = A.Paper ? std::vector<unsigned>{12, 16, 20, 28}
                               : A.Smoke ? std::vector<unsigned>{4}
                                         : std::vector<unsigned>{4, 6, 8};
    for (unsigned K : Ks)
      Nets.push_back({"Fat" + std::to_string(K), generateSpSingle(K),
                      A.Smoke ? 2u : 3u});
    // The WAN is asymmetric: multi-failure scenarios share little, so the
    // default stops at 2 failures (use --paper for 3, as in the figure).
    Nets.push_back({"USCarrier", generateUsCarrier(),
                    A.Paper ? 3u : A.Smoke ? 1u : 2u});
  }

  std::printf("Fig. 13b — fault-tolerance simulation time (s) vs number of "
              "link failures\n(compilation excluded).\n\n");
  Table T({"network", "nodes/links", "1-link (s)", "2-links (s)",
           "3-links (s)"});
  JsonReport J;

  for (const Net &N : Nets) {
    DiagnosticEngine Diags;
    auto P = loadGenerated(N.Src, Diags);
    if (!P) {
      Diags.printToStderr();
      return 1;
    }
    std::vector<std::string> Cells = {
        N.Name, std::to_string(P->numNodes()) + "/" +
                    std::to_string(P->links().size())};
    // One context per network, reused across failure budgets: each run
    // garbage-collects the previous one's diagrams instead of rebuilding
    // the arena (the cross-scenario reuse the memory-system overhaul buys).
    NvContext Ctx(P->numNodes());
    for (unsigned F = 1; F <= 3; ++F) {
      if (F < MinFailures || F > N.MaxFailures) {
        Cells.push_back("(skipped)");
        continue;
      }
      FtOptions Opts;
      Opts.LinkFailures = F;
      uint64_t Created0 = Ctx.closuresCreated(), Closures0 = Ctx.closures();
      FtRunResult R = runFaultTolerance(*P, Opts, /*Compiled=*/true, Diags,
                                        /*CheckAsserts=*/true, &Ctx);
      // A run that stopped (budget, transform or evaluation error) names
      // why; only a meta-simulation that ran out of steps diverged.
      Cells.push_back(!R.Outcome.ok() ? R.Outcome.str()
                      : R.Converged   ? sec(R.SimulateMs)
                                      : "diverged");

      uint64_t Lookups = R.CacheHits + R.CacheMisses;
      BddManager::GcStats Gc = Ctx.Mgr.gcStats();
      J.begin("fig13b")
          .field("network", N.Name)
          .field("outcome", R.Outcome.ok() ? "ok" : R.Outcome.str())
          .field("nodes", static_cast<uint64_t>(P->numNodes()))
          .field("links", static_cast<uint64_t>(P->links().size()))
          .field("failures", static_cast<uint64_t>(F))
          .field("simulate_ms", R.SimulateMs)
          .field("check_ms", R.CheckMs)
          .field("scenarios", R.Check.ScenariosChecked)
          .field("violations",
                 static_cast<uint64_t>(R.Check.Violations.size()))
          .field("pops", R.Stats.Pops)
          .field("cache_hit_rate",
                 Lookups ? static_cast<double>(R.CacheHits) / Lookups : 0.0)
          .field("memory_bytes", static_cast<uint64_t>(Ctx.Mgr.memoryBytes()))
          .field("peak_nodes", static_cast<uint64_t>(Gc.PeakNodes))
          .field("gc_collections", Gc.Collections)
          .field("gc_nodes_reclaimed", Gc.NodesReclaimed)
          .field("closures_created", Ctx.closuresCreated() - Created0)
          .field("closures", Ctx.closures() - Closures0);
    }
    T.row(Cells);
  }
  T.print();
  if (!J.writeTo(A.JsonPath))
    return 1;
  return 0;
}
