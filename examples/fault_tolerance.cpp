//===- fault_tolerance.cpp - Fig. 4/5: all failures in one simulation --------===//
//
// Runs the paper's fault-tolerance meta-protocol on a FatTree: one
// simulation computes the routes of every single-link-failure scenario at
// once, and the MTBDD sharing exposes Fig. 4's insight — failures inside a
// pod do not affect routes outside it, so the number of distinct routes
// per node stays tiny compared to the number of scenarios.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "eval/Compile.h"
#include "net/Generators.h"
#include "support/Timer.h"

#include <cstdio>

using namespace nv;

int main(int argc, char **argv) {
  unsigned K = argc > 1 ? static_cast<unsigned>(atoi(argv[1])) : 4;
  printf("== Fault tolerance on SP(%u): every link failure at once ==\n\n",
         K);

  DiagnosticEngine Diags;
  auto P = loadGenerated(generateSpSingle(K), Diags);
  if (!P) {
    Diags.printToStderr();
    return 1;
  }
  size_t NumLinks = P->links().size();
  printf("Network: %u nodes, %zu links => %zu single-link scenarios\n",
         P->numNodes(), NumLinks, NumLinks);

  // --- The meta-protocol: dict[link index, route] ------------------------
  FtOptions Opts; // one link failure
  FtRunResult R = runFaultTolerance(*P, Opts, /*Compiled=*/true, Diags);
  if (!R.Converged) {
    Diags.printToStderr();
    return 1;
  }
  printf("\nMeta-protocol (Fig. 5) simulation: transform %.1fms, "
         "simulate %.1fms, check %.1fms\n",
         R.TransformMs, R.SimulateMs, R.CheckMs);
  printf("Property %s across %llu scenarios (%zu violations)\n",
         R.Check.holds() ? "HOLDS" : "FAILS",
         static_cast<unsigned long long>(R.Check.ScenariosChecked),
         R.Check.Violations.size());

  // --- Fig. 4: MTBDD sharing collapses equivalent scenarios ---------------
  auto Meta = makeFaultTolerantProgram(*P, Opts, Diags);
  NvContext Ctx(P->numNodes());
  CompiledProgramEvaluator Eval(Ctx, *Meta);
  SimResult Sim = simulate(*Meta, Eval);
  printf("\nDistinct routes per node across all %zu scenarios "
         "(Fig. 4's pod locality):\n", NumLinks);
  size_t MaxDistinct = 0;
  for (uint32_t U = 0; U < P->numNodes(); ++U)
    MaxDistinct = std::max(
        MaxDistinct, Ctx.Mgr.numDistinctLeaves(Sim.Labels[U]->MapRoot));
  for (uint32_t U = 0; U < std::min<uint32_t>(4, P->numNodes()); ++U)
    printf("  node %u: %zu distinct routes\n", U,
           Ctx.Mgr.numDistinctLeaves(Sim.Labels[U]->MapRoot));
  printf("  ... maximum over all nodes: %zu (out of %zu scenarios)\n",
         MaxDistinct, NumLinks);

  // --- Baseline: one simulation per scenario ------------------------------
  Stopwatch W;
  InterpProgramEvaluator Base(Ctx, *P);
  FtCheckResult Naive = naiveFaultTolerance(*P, Base, Opts, Ctx.noneV());
  printf("\nNaive baseline (re-simulate per scenario): %.1fms for %llu "
         "simulations — same verdict: %s\n",
         W.elapsedMs(),
         static_cast<unsigned long long>(Naive.ScenariosChecked),
         Naive.holds() == R.Check.holds() ? "yes" : "NO (bug!)");

  // --- Two simultaneous failures -------------------------------------------
  FtOptions Two;
  Two.LinkFailures = 2;
  Stopwatch W2;
  FtRunResult R2 = runFaultTolerance(*P, Two, true, Diags);
  printf("\nTwo simultaneous link failures (%llu scenarios): %.1fms, "
         "property %s (%zu violations)\n",
         static_cast<unsigned long long>(R2.Check.ScenariosChecked),
         W2.elapsedMs(), R2.Check.holds() ? "HOLDS" : "FAILS",
         R2.Check.Violations.size());
  if (!R2.Check.Violations.empty()) {
    const FtViolation &V = R2.Check.Violations.front();
    printf("  e.g. scenario %s cuts off node %u\n", V.Scenario.str().c_str(),
           V.Node);
  }
  return 0;
}
