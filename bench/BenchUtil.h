//===- BenchUtil.h - Shared benchmark harness helpers -----------*- C++ -*-===//
//
// Part of nv-cpp. Table formatting and argument handling shared by the
// figure-reproduction benchmark drivers. Every driver accepts:
//   --paper      run the paper's exact network sizes
//   --smoke      run the smallest configuration only (seconds; used by the
//                CI bench-smoke regression gate)
//   --timeout S  per-solve SMT timeout in seconds (default 60)
//   --threads N  worker threads for the sharded analyses (default: the
//                NV_THREADS environment variable if set, else 1)
//   --json PATH  also write machine-readable results (one JSON array)
//   --gc-watermark N  MTBDD garbage-collection watermark in nodes for all
//                contexts the run creates (exported as NV_GC_WATERMARK;
//                0 disables collection, 1 collects at every safe point)
// and prints one aligned table matching the figure's rows/series. A
// --timeout, --threads or --gc-watermark value that is not an unsigned
// decimal ("abc", "3x", "-1"), or one of the four value-taking flags
// last on the command line without its value, exits 2 with the usage
// text.
//
//===----------------------------------------------------------------------===//

#ifndef NV_BENCH_BENCHUTIL_H
#define NV_BENCH_BENCHUTIL_H

#include "support/Json.h"
#include "support/ParseNumber.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace nvbench {

/// Prints \p Flag's bad \p Value and the usage text, then exits 2.
/// \p Extra lists the benchmark's own flags.
[[noreturn]] inline void usageError(const char *Prog, const char *Flag,
                                    const char *Value,
                                    const char *Extra = "") {
  std::fprintf(stderr,
               "%s: invalid value for %s: '%s'\n"
               "usage: %s [--paper] [--smoke] [--timeout S] [--threads N] "
               "[--json PATH] [--gc-watermark N]%s\n",
               Prog, Flag, Value, Prog, Extra);
  std::exit(2);
}

/// argv[I] as an unsigned decimal, or the usage error for argv[I - 1].
inline unsigned unsignedArg(char **argv, int I, const char *Extra = "") {
  unsigned V = 0;
  if (!nv::parseInteger(argv[I], V))
    usageError(argv[0], argv[I - 1], argv[I], Extra);
  return V;
}

struct Args {
  bool Paper = false;
  bool Smoke = false;
  unsigned TimeoutSec = 60;
  unsigned Threads = 1;
  std::string JsonPath;

  /// \p Extra lists the benchmark's own flags for the usage text.
  static Args parse(int argc, char **argv, const char *Extra = "") {
    Args A;
    if (const char *Env = std::getenv("NV_THREADS")) {
      int N = std::atoi(Env);
      if (N >= 1)
        A.Threads = static_cast<unsigned>(N);
    }
    for (int I = 1; I < argc; ++I) {
      auto Valued = [&](const char *Flag) {
        if (std::strcmp(argv[I], Flag))
          return false;
        if (I + 1 == argc)
          usageError(argv[0], Flag, "", Extra);
        ++I;
        return true;
      };
      if (!std::strcmp(argv[I], "--paper"))
        A.Paper = true;
      else if (!std::strcmp(argv[I], "--smoke"))
        A.Smoke = true;
      else if (Valued("--timeout"))
        A.TimeoutSec = unsignedArg(argv, I, Extra);
      else if (Valued("--threads"))
        A.Threads = unsignedArg(argv, I, Extra);
      else if (Valued("--json"))
        A.JsonPath = argv[I];
      else if (Valued("--gc-watermark")) {
        // Managers read NV_GC_WATERMARK at construction, so exporting it
        // reaches every context the benchmark creates (including the ones
        // built internally by the analyses).
        uint64_t N = 0;
        if (!nv::parseInteger(argv[I], N))
          usageError(argv[0], argv[I - 1], argv[I], Extra);
        setenv("NV_GC_WATERMARK", argv[I], /*overwrite=*/1);
      }
    }
    if (A.Threads == 0)
      A.Threads = nv::ThreadPool::defaultThreadCount();
    return A;
  }
};

/// Collects one flat JSON object per measurement and writes them as an
/// array, for BENCH_*.json trajectory tracking. Keys must not need escaping
/// (they are plain identifiers); string values are escaped.
class JsonReport {
public:
  /// Starts a new record; returns *this for chaining field() calls.
  JsonReport &begin(const std::string &Bench) {
    Records.emplace_back();
    return field("bench", Bench);
  }
  JsonReport &field(const std::string &Key, const std::string &V) {
    Records.back().push_back({Key, nv::Json(V).dump()});
    return *this;
  }
  JsonReport &field(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", V);
    Records.back().push_back({Key, Buf});
    return *this;
  }
  JsonReport &field(const std::string &Key, uint64_t V) {
    Records.back().push_back({Key, std::to_string(V)});
    return *this;
  }
  JsonReport &field(const std::string &Key, unsigned V) {
    return field(Key, static_cast<uint64_t>(V));
  }

  /// Writes the array to \p Path; no-op when Path is empty. Returns false
  /// (with a message on stderr) when the file cannot be written.
  bool writeTo(const std::string &Path) const {
    if (Path.empty())
      return true;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return false;
    }
    std::fprintf(F, "[\n");
    for (size_t R = 0; R < Records.size(); ++R) {
      std::fprintf(F, "  {");
      for (size_t I = 0; I < Records[R].size(); ++I)
        std::fprintf(F, "%s\"%s\": %s", I ? ", " : "",
                     Records[R][I].first.c_str(),
                     Records[R][I].second.c_str());
      std::fprintf(F, "}%s\n", R + 1 < Records.size() ? "," : "");
    }
    std::fprintf(F, "]\n");
    std::fclose(F);
    return true;
  }

private:
  std::vector<std::vector<std::pair<std::string, std::string>>> Records;
};

/// Prints the pool's work/idle counters (the "ThreadPool-stats" line of
/// the bench drivers).
inline void printPoolStats(const nv::ThreadPool &Pool) {
  nv::ThreadPool::Stats S = Pool.stats();
  std::printf("\n[threadpool] threads=%u parallel_for=%llu tasks=%llu "
              "worker_idle_ms=%.1f\n",
              Pool.numThreads(),
              static_cast<unsigned long long>(S.ParallelForCalls),
              static_cast<unsigned long long>(S.TasksRun), S.WorkerIdleMs);
}

/// Fixed-width table printer.
class Table {
public:
  explicit Table(std::vector<std::string> Headers)
      : Headers(std::move(Headers)) {}

  void row(std::vector<std::string> Cells) { Rows.push_back(std::move(Cells)); }

  void print() const {
    std::vector<size_t> W(Headers.size());
    for (size_t I = 0; I < Headers.size(); ++I)
      W[I] = Headers[I].size();
    for (const auto &R : Rows)
      for (size_t I = 0; I < R.size() && I < W.size(); ++I)
        W[I] = std::max(W[I], R[I].size());
    auto Line = [&](const std::vector<std::string> &Cells) {
      for (size_t I = 0; I < W.size(); ++I)
        std::printf("%-*s  ", static_cast<int>(W[I]),
                    I < Cells.size() ? Cells[I].c_str() : "");
      std::printf("\n");
    };
    Line(Headers);
    for (size_t I = 0; I < W.size(); ++I)
      std::printf("%s  ", std::string(W[I], '-').c_str());
    std::printf("\n");
    for (const auto &R : Rows)
      Line(R);
  }

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

inline std::string ms(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f", V);
  return Buf;
}

inline std::string sec(double Ms) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", Ms / 1000.0);
  return Buf;
}

} // namespace nvbench

#endif // NV_BENCH_BENCHUTIL_H
