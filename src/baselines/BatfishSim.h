//===- BatfishSim.h - Batfish-style per-prefix simulation -------*- C++ -*-===//
//
// Part of nv-cpp. The simulator baseline of Sec. 6.4: Batfish-style
// all-prefixes analysis, re-implemented in C++ following its published
// architecture — each destination prefix is simulated independently with
// an environment-lookup interpreter over plain (non-MTBDD) route values
// and full re-merges, with no cross-prefix sharing or bulk processing.
// The absolute times differ from the Java tool; the shape (per-prefix
// duplication vs NV's bulk MTBDD processing) is what Fig. 14 compares.
//
//===----------------------------------------------------------------------===//

#ifndef NV_BASELINES_BATFISHSIM_H
#define NV_BASELINES_BATFISHSIM_H

#include "core/Ast.h"
#include "eval/Value.h"
#include "support/Diagnostics.h"
#include "support/Governor.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace nv {

struct BatfishResult {
  bool Converged = true;
  uint64_t PrefixesSimulated = 0;
  /// Prefixes whose run ended early (the simulator's step budget,
  /// injected fault, evaluation error); skipped prefixes contribute empty
  /// Labels rows and clear Converged. Outcome records the first non-ok
  /// per-prefix outcome in destination order.
  uint64_t PrefixesSkipped = 0;
  RunOutcome Outcome;
  uint64_t TotalPops = 0;
  /// Memory proxy: total interned values allocated across per-prefix runs
  /// (no sharing between prefixes, mirroring per-prefix RIB duplication).
  uint64_t TotalValuesAllocated = 0;
  /// Extracted per-prefix, per-node metrics (see the Extract parameter);
  /// values cannot outlive their per-prefix context, so only extracted
  /// numbers are returned.
  std::vector<std::vector<int64_t>> Labels;
};

/// Runs the all-prefixes problem one prefix at a time over the
/// parameterized single-destination program \p ParamProgram (which must
/// declare `symbolic dest : node`), announcing each of \p Destinations in
/// turn. A fresh evaluation context per prefix models Batfish's per-prefix
/// state.
/// \p Extract (optional) maps each converged label to a number recorded in
/// BatfishResult::Labels (e.g. a hop count); labels themselves die with the
/// per-prefix context. It may run concurrently and must be a pure function
/// of its argument.
/// \p Pool (optional) shards the destination list; per-prefix state stays
/// isolated exactly as in the serial run, and the per-destination results
/// are aggregated in destination order, so output is identical for any
/// pool size. Each prefix's simulation keeps the simulator's default step
/// budget.
BatfishResult batfishAllPrefixes(
    const Program &ParamProgram, const std::vector<uint32_t> &Destinations,
    const std::function<int64_t(const Value *)> &Extract = nullptr,
    ThreadPool *Pool = nullptr);

} // namespace nv

#endif // NV_BASELINES_BATFISHSIM_H
