//===- serve_latency.cpp - Cold CLI pipeline vs warm serve session -----------===//
//
// Measures what `nv serve` exists to buy: the latency of a repeat
// fault-tolerance query against a resident session versus the cold cost
// of the same query as a one-shot CLI-style invocation that repays the
// whole pipeline every time. Both warm layers are reported — the memoized
// repeat (an identical query answered from the session's result cache,
// the daemon's steady-state repeat latency) and the "fresh" recompute
// (cached transform/evaluators, but the meta-simulation re-runs).
//
// The CI bench-smoke stage runs this with --smoke --min-speedup N and
// fails the build when warm repeats stop being at least N times faster
// than cold runs — the regression gate for the service's reason to exist.
//
// Extra flags (beyond the standard BenchUtil set):
//   --min-speedup X   exit 1 unless every network's warm speedup >= X
//   --repeats N       warm repeats per network (default 10)
//   --saturate        overload mode instead: 8 closed-loop submitters
//                     against a 2-worker core with MaxInflight 2 /
//                     QueueDepth 4 (capacity 6 < offered 8, so admission
//                     must shed). Emits shed_rate and accepted_p99_ms;
//                     exits 1 if nothing was shed, anything shed was
//                     journal-visible, or no request was accepted.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "bench/BenchUtil.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "net/Generators.h"
#include "serve/Serve.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

using namespace nv;
using namespace nvbench;

namespace {

/// serve_latency's own flags, for the usage text.
const char *const ServeLatencyFlags =
    " [--min-speedup X] [--repeats N] [--saturate]";

double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

double percentileOf(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Idx = P * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(Idx);
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Idx - static_cast<double>(Lo));
}

/// Saturation mode: drive a deliberately small core (2 workers,
/// MaxInflight 2, QueueDepth 4) with 8 closed-loop submitters. Offered
/// concurrency 8 > capacity 6, so admission control must shed; what the
/// gate pins down is that it sheds *cleanly* — overloaded responses with
/// a retry_after_ms hint, accepted requests finishing with a bounded
/// p99, and nothing shed ever reaching the journal.
int runSaturate(const Args &A) {
  ServeConfig Cfg;
  Cfg.Threads = 3; // 2 workers run requests; see MaxInflight default
  Cfg.MaxInflight = 2;
  Cfg.QueueDepth = 4;
  auto Res = ServeCore::create(Cfg);
  if (!Res.Core) {
    std::fprintf(stderr, "serve core: %s\n", Res.Error.c_str());
    return 1;
  }
  ServeCore &Core = *Res.Core;
  Json LoadReq = Json::object();
  LoadReq.set("verb", "load");
  LoadReq.set("session", "bench");
  LoadReq.set("program", generateSpSingle(4));
  if (Core.executeLine(LoadReq.dump()).getNumber("code", -1) != 0) {
    std::fprintf(stderr, "saturate: load failed\n");
    return 1;
  }
  // "fresh" on every query so the result memo cannot absorb the load.
  const std::string Line =
      "{\"verb\":\"ft\",\"session\":\"bench\",\"links\":1,\"fresh\":true}";

  const unsigned Submitters = 8;
  const unsigned PerThread = A.Smoke ? 15 : 40;
  std::atomic<uint64_t> Shed{0}, AcceptedOk{0}, Failed{0};
  std::atomic<uint64_t> RetryHints{0};
  std::mutex LatM;
  std::vector<double> AcceptedMs;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Submitters; ++T)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I < PerThread; ++I) {
        Stopwatch W;
        Json R = Core.submit(Line)->wait();
        double Ms = W.elapsedMs();
        if (R.getBool("overloaded")) {
          Shed.fetch_add(1, std::memory_order_relaxed);
          if (R.getNumber("retry_after_ms", 0) > 0)
            RetryHints.fetch_add(1, std::memory_order_relaxed);
        } else if (R.getNumber("code", -1) <= 1) {
          AcceptedOk.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> L(LatM);
          AcceptedMs.push_back(Ms);
        } else {
          Failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  uint64_t Offered = static_cast<uint64_t>(Submitters) * PerThread;
  double ShedRate = static_cast<double>(Shed) / static_cast<double>(Offered);
  double P99 = percentileOf(AcceptedMs, 0.99);
  double P50 = percentileOf(AcceptedMs, 0.50);

  Table T({"offered", "accepted", "shed", "shed rate", "p50 (ms)",
           "p99 (ms)"});
  char RateBuf[32];
  std::snprintf(RateBuf, sizeof(RateBuf), "%.1f%%", 100 * ShedRate);
  T.row({std::to_string(Offered), std::to_string(AcceptedOk.load()),
         std::to_string(Shed.load()), RateBuf, ms(P50), ms(P99)});
  T.print();

  JsonReport J;
  J.begin("serve_saturation")
      .field("network", std::string("Fat4"))
      .field("offered", Offered)
      .field("accepted", AcceptedOk.load())
      .field("shed", Shed.load())
      .field("shed_rate", ShedRate)
      .field("accepted_p50_ms", P50)
      .field("accepted_p99_ms", P99);
  if (!J.writeTo(A.JsonPath))
    return 1;

  if (Failed.load()) {
    std::fprintf(stderr, "saturate: %llu requests failed outright\n",
                 static_cast<unsigned long long>(Failed.load()));
    return 1;
  }
  if (Shed.load() == 0 || AcceptedOk.load() == 0) {
    std::fprintf(stderr,
                 "saturate: expected both shedding and accepted work "
                 "(shed %llu, accepted %llu)\n",
                 static_cast<unsigned long long>(Shed.load()),
                 static_cast<unsigned long long>(AcceptedOk.load()));
    return 1;
  }
  if (RetryHints.load() != Shed.load()) {
    std::fprintf(stderr,
                 "saturate: %llu shed responses missing retry_after_ms\n",
                 static_cast<unsigned long long>(Shed.load() -
                                                 RetryHints.load()));
    return 1;
  }
  std::printf("\nsaturation gate: shed cleanly with retry hints, "
              "accepted p99 %.1f ms\n", P99);
  return 0;
}

/// One cold query: everything a fresh `nv ft` process does after argv
/// parsing — parse, typecheck, transform, build evaluators, simulate,
/// check. Returns the wall time, or a negative value on failure.
double coldQuery(const std::string &Src, unsigned LinkFailures) {
  Stopwatch W;
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  if (!P || !typeCheck(*P, Diags))
    return -1;
  FtOptions Opts;
  Opts.LinkFailures = LinkFailures;
  FtRunResult R = runFaultTolerance(*P, Opts, /*Compiled=*/false, Diags);
  if (!R.Outcome.ok() || !R.Converged)
    return -1;
  return W.elapsedMs();
}

} // namespace

int main(int argc, char **argv) {
  Args A = Args::parse(argc, argv, ServeLatencyFlags);
  double MinSpeedup = 0;
  unsigned Repeats = 10;
  bool Saturate = false;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--min-speedup") && I + 1 < argc) {
      if (!parseNonNegative(argv[++I], MinSpeedup))
        usageError(argv[0], argv[I - 1], argv[I], ServeLatencyFlags);
    } else if (!std::strcmp(argv[I], "--repeats") && I + 1 < argc) {
      Repeats = unsignedArg(argv, ++I, ServeLatencyFlags);
    } else if (!std::strcmp(argv[I], "--saturate")) {
      Saturate = true;
    }
  }
  if (Saturate)
    return runSaturate(A);

  struct Net {
    std::string Name;
    std::string Src;
    unsigned LinkFailures;
  };
  std::vector<Net> Nets;
  std::vector<unsigned> Ks = A.Paper   ? std::vector<unsigned>{8, 12, 16}
                             : A.Smoke ? std::vector<unsigned>{4}
                                       : std::vector<unsigned>{4, 6, 8};
  for (unsigned K : Ks)
    Nets.push_back({"Fat" + std::to_string(K), generateSpSingle(K),
                    A.Smoke ? 1u : 2u});

  std::printf("serve latency — cold one-shot pipeline vs warm resident "
              "session (ft query).\n\n");
  Table T({"network", "cold (ms)", "recompute (ms)", "repeat (ms)", "speedup"});
  JsonReport J;
  bool GateOk = true;

  for (const Net &N : Nets) {
    // Cold: a fresh pipeline per iteration, like one CLI invocation.
    std::vector<double> ColdMs;
    for (unsigned I = 0; I < 3; ++I) {
      double Ms = coldQuery(N.Src, N.LinkFailures);
      if (Ms < 0) {
        std::fprintf(stderr, "%s: cold query failed\n", N.Name.c_str());
        return 1;
      }
      ColdMs.push_back(Ms);
    }

    // Warm: load once into a serve session, then repeat the same query.
    ServeConfig Cfg;
    Cfg.Threads = 1;
    auto Res = ServeCore::create(Cfg);
    if (!Res.Core) {
      std::fprintf(stderr, "serve core: %s\n", Res.Error.c_str());
      return 1;
    }
    Json LoadReq = Json::object();
    LoadReq.set("verb", "load");
    LoadReq.set("session", "bench");
    LoadReq.set("program", N.Src);
    Json Load = Res.Core->executeLine(LoadReq.dump());
    std::string FtLine = "{\"verb\":\"ft\",\"session\":\"bench\",\"links\":" +
                         std::to_string(N.LinkFailures) + "}";
    Json First = Res.Core->executeLine(FtLine); // the session's cold miss
    if (Load.getNumber("code", -1) != 0 || First.getNumber("code", -1) > 1) {
      std::fprintf(stderr, "%s: serve setup failed: %s / %s\n", N.Name.c_str(),
                   Load.dump().c_str(), First.dump().c_str());
      return 1;
    }
    std::string FreshLine = FtLine;
    FreshLine.insert(FreshLine.size() - 1, ",\"fresh\":true");
    std::vector<double> RecomputeMs, RepeatMs;
    for (unsigned I = 0; I < Repeats; ++I) {
      Stopwatch W;
      Json R = Res.Core->executeLine(FreshLine);
      double Ms = W.elapsedMs();
      if (R.getNumber("code", -1) > 1 || !R.getBool("warm")) {
        std::fprintf(stderr, "%s: warm recompute went cold: %s\n",
                     N.Name.c_str(), R.dump().c_str());
        return 1;
      }
      RecomputeMs.push_back(Ms);

      W.restart();
      Json C = Res.Core->executeLine(FtLine);
      Ms = W.elapsedMs();
      if (C.getNumber("code", -1) > 1 || !C.getBool("cached")) {
        std::fprintf(stderr, "%s: repeat missed the result memo: %s\n",
                     N.Name.c_str(), C.dump().c_str());
        return 1;
      }
      RepeatMs.push_back(Ms);
    }

    double Cold = median(ColdMs), Recompute = median(RecomputeMs),
           Repeat = median(RepeatMs);
    double Speedup = Repeat > 0 ? Cold / Repeat : 0;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0fx", Speedup);
    T.row({N.Name, ms(Cold), ms(Recompute), ms(Repeat), Buf});
    J.begin("serve_latency")
        .field("network", N.Name)
        .field("link_failures", static_cast<uint64_t>(N.LinkFailures))
        .field("cold_ms", Cold)
        .field("warm_recompute_ms", Recompute)
        .field("warm_repeat_ms", Repeat)
        .field("speedup", Speedup);
    if (MinSpeedup > 0 && Speedup < MinSpeedup) {
      std::fprintf(stderr,
                   "%s: warm-repeat speedup %.1fx below the --min-speedup "
                   "%.1fx gate (cold %.2fms, repeat %.2fms)\n",
                   N.Name.c_str(), Speedup, MinSpeedup, Cold, Repeat);
      GateOk = false;
    }
  }

  T.print();
  if (!J.writeTo(A.JsonPath))
    return 1;
  if (!GateOk)
    return 1;
  if (MinSpeedup > 0)
    std::printf("\nwarm-speedup gate (>= %.1fx): ok\n", MinSpeedup);
  return 0;
}
