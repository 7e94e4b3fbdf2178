//===- fleet_overhead.cpp - Crash isolation tax of the worker fleet ----------===//
//
// Measures what `--workers N` costs: the same per-scenario naive units
// run (a) in-process, serially, through the canonical record producer,
// (b) on a 1-worker fleet — same serial schedule plus fork/exec, frame
// encode/decode, heartbeats, and pipe hops, so the difference divided by
// the job count is the per-job dispatch overhead — and (c) on a
// --threads-wide fleet, showing the isolation tax is bought back by
// parallelism. The CI bench-smoke stage tracks inproc_ms and fleet_ms in
// BENCH_2.json via bench_compare.py.
//
// The binary is its own fleet worker (re-exec'd with --fleet-worker K L,
// regenerating the identical network from the same generator seed), so
// the benchmark needs no other binary at run time.
//
//===----------------------------------------------------------------------===//

#include "baselines/NaiveFailures.h"
#include "bench/BenchUtil.h"
#include "core/Parser.h"
#include "net/Generators.h"
#include "support/Fleet.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <cstring>

using namespace nv;
using namespace nvbench;

namespace {

/// Parses + type-checks the generated source and builds the bits every
/// mode shares: scenarios, one evaluator, the pinned drop value.
struct NaiveSetup {
  std::optional<Program> P;
  std::unique_ptr<NvContext> Ctx;
  std::unique_ptr<InterpProgramEvaluator> Eval;
  const Value *Drop = nullptr;
  std::optional<FtScenarioSet> Scenarios;

  bool init(const std::string &Src, const FtOptions &Opts) {
    DiagnosticEngine Diags;
    P = loadGenerated(Src, Diags);
    if (!P) {
      Diags.printToStderr();
      return false;
    }
    Ctx = std::make_unique<NvContext>(P->numNodes());
    Eval = std::make_unique<InterpProgramEvaluator>(*Ctx, *P);
    Drop = Ctx->noneV();
    Ctx->pinValue(Drop);
    Scenarios.emplace(*P, Opts);
    return true;
  }
};

/// Worker half: regenerate the same network, serve scenario jobs.
int fleetWorker(unsigned K, unsigned Links) {
  FtOptions Opts;
  Opts.LinkFailures = Links;
  NaiveSetup S;
  if (!S.init(generateSpSingle(K), Opts))
    return 2;
  return naiveFleetWorker(*S.P, Opts);
}

} // namespace

int main(int argc, char **argv) {
  if (argc >= 4 && !std::strcmp(argv[1], "--fleet-worker"))
    return fleetWorker(static_cast<unsigned>(atoi(argv[2])),
                       static_cast<unsigned>(atoi(argv[3])));

  Args A = Args::parse(argc, argv);
  // (fat-tree K, link failures). Past Fat4 the default fails one link:
  // Fat6 at two is 5,886 jobs per mode, minutes of work.
  struct Network {
    unsigned K, Links;
  };
  std::vector<Network> Nets =
      A.Paper   ? std::vector<Network>{{8, 2}, {12, 2}}
      : A.Smoke ? std::vector<Network>{{4, 2}}
                : std::vector<Network>{{4, 2}, {6, 1}, {8, 1}};
  unsigned ParWorkers = A.Threads > 1 ? A.Threads : 4;

  std::printf("Fleet overhead — naive per-scenario units in-process vs on "
              "crash-isolated workers\n(--workers 1 isolates the dispatch "
              "tax; --workers %u shows it bought back).\n\n",
              ParWorkers);
  Table T({"network", "jobs", "in-process (s)", "fleet 1w (s)",
           "fleet " + std::to_string(ParWorkers) + "w (s)",
           "dispatch/job (ms)"});
  JsonReport J;

  for (auto [K, Links] : Nets) {
    FtOptions Opts;
    Opts.LinkFailures = Links;
    NaiveSetup S;
    if (!S.init(generateSpSingle(K), Opts))
      return 1;
    std::string Name = "Fat" + std::to_string(K);
    size_t Jobs = S.Scenarios->size();

    // (a) In-process serial: the floor the fleet is measured against.
    Stopwatch W;
    for (size_t I = 0; I < Jobs; ++I)
      (void)runNaiveScenarioRecord(*S.P, *S.Eval, *S.Scenarios, I, S.Drop,
                                   Opts);
    double InprocMs = W.elapsedMs();

    std::vector<FleetJob> JobList;
    for (size_t I = 0; I < Jobs; ++I)
      JobList.push_back({naiveScenarioKey(I), ""});
    FleetOptions FO;
    FO.WorkerArgv = {getExecutablePath(), "--fleet-worker",
                     std::to_string(K), std::to_string(Links)};
    FO.Verbose = false;

    // (b) 1-worker fleet: same serial schedule + the whole isolation tax.
    FO.Workers = 1;
    W.restart();
    FleetResult F1 = runFleet(FO, JobList);
    double Fleet1Ms = W.elapsedMs();

    // (c) the workers the crash isolation was bought alongside.
    FO.Workers = ParWorkers;
    W.restart();
    FleetResult FN = runFleet(FO, JobList);
    double FleetNMs = W.elapsedMs();

    if (!F1.Outcome.ok() || !FN.Outcome.ok() ||
        F1.Results.size() != Jobs || FN.Results.size() != Jobs) {
      std::fprintf(stderr, "fleet run degraded: %s / %s\n",
                   F1.Outcome.str().c_str(), FN.Outcome.str().c_str());
      return 1;
    }

    double DispatchMs = Jobs ? (Fleet1Ms - InprocMs) / double(Jobs) : 0;
    char Disp[32];
    std::snprintf(Disp, sizeof(Disp), "%.3f", DispatchMs);
    T.row({Name, std::to_string(Jobs), sec(InprocMs), sec(Fleet1Ms),
           sec(FleetNMs), Disp});

    J.begin("fleet_overhead")
        .field("network", Name)
        .field("outcome", "ok")
        .field("links", static_cast<uint64_t>(Links))
        .field("jobs", static_cast<uint64_t>(Jobs))
        .field("workers", static_cast<uint64_t>(ParWorkers))
        .field("inproc_ms", InprocMs)
        .field("fleet_ms", Fleet1Ms)
        .field("fleet_par_ms", FleetNMs)
        .field("dispatch_ms_per_job", DispatchMs);
  }
  T.print();
  if (!J.writeTo(A.JsonPath))
    return 1;
  return 0;
}
