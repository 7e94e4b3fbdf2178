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
// and prints one aligned table matching the figure's rows/series.
//
//===----------------------------------------------------------------------===//

#ifndef NV_BENCH_BENCHUTIL_H
#define NV_BENCH_BENCHUTIL_H

#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace nvbench {

struct Args {
  bool Paper = false;
  bool Smoke = false;
  unsigned TimeoutSec = 60;
  unsigned Threads = 1;
  std::string JsonPath;

  static Args parse(int argc, char **argv) {
    Args A;
    if (const char *Env = std::getenv("NV_THREADS")) {
      int N = std::atoi(Env);
      if (N >= 1)
        A.Threads = static_cast<unsigned>(N);
    }
    for (int I = 1; I < argc; ++I) {
      if (!std::strcmp(argv[I], "--paper"))
        A.Paper = true;
      else if (!std::strcmp(argv[I], "--smoke"))
        A.Smoke = true;
      else if (!std::strcmp(argv[I], "--timeout") && I + 1 < argc)
        A.TimeoutSec = static_cast<unsigned>(atoi(argv[++I]));
      else if (!std::strcmp(argv[I], "--threads") && I + 1 < argc)
        A.Threads = static_cast<unsigned>(atoi(argv[++I]));
      else if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
        A.JsonPath = argv[++I];
      else if (!std::strcmp(argv[I], "--gc-watermark") && I + 1 < argc)
        // Managers read NV_GC_WATERMARK at construction, so exporting it
        // reaches every context the benchmark creates (including the ones
        // built internally by the analyses).
        setenv("NV_GC_WATERMARK", argv[++I], /*overwrite=*/1);
    }
    if (A.Threads == 0)
      A.Threads = nv::ThreadPool::defaultThreadCount();
    return A;
  }
};

/// Collects one flat JSON object per measurement and writes them as an
/// array, for BENCH_*.json trajectory tracking. Keys/strings must not need
/// escaping (benchmark and network names are plain identifiers).
class JsonReport {
public:
  /// Starts a new record; returns *this for chaining field() calls.
  JsonReport &begin(const std::string &Bench) {
    Records.emplace_back();
    return field("bench", Bench);
  }
  JsonReport &field(const std::string &Key, const std::string &V) {
    Records.back().push_back({Key, "\"" + V + "\""});
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
