//===- FaultTolerance.h - Fig. 5 fault-tolerance meta-protocol --*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's novel fault-tolerance analysis (Sec. 2.7, Fig. 5): an
/// NV-to-NV transform that lifts a protocol's attribute A to
/// dict[K, A], where each key of K is one failure scenario. The transfer
/// function uses mapIte to drop the route in exactly the scenarios whose
/// failed links (or node) affect the edge being traversed; merge becomes a
/// pointwise combine. One simulation then computes the routes of *every*
/// scenario at once, with MTBDD sharing collapsing scenarios that behave
/// alike (Fig. 4's pod locality).
///
/// Scenario keys name each failed link by its index in Program::links(),
/// an int field W = ceil(log2 |links|) bits wide (at least 1):
///   LinkFailures = 1, no node:  K = intW
///   LinkFailures = k:           K = (intW, ..., intW)   (k components)
///   NodeFailure  = true:        K = (node, intW, ...)
/// The meta-program carries its own edge-to-index table (__ft_link, a
/// match over both orientations of every link), so trans compares each
/// key field with one concrete index.
///
/// A key containing the same link twice models a smaller failure set, so
/// the key space covers "at most k failures". Indices past the last link
/// behave like the failure-free scenario and share leaves.
///
/// A scenario is its index in an FtScenarioSet: one packed key per
/// scenario, in key order (the node field first, then non-decreasing link
/// indices, each MSB first), decoded only when a scenario is printed or
/// simulated on its own. A violation names its scenario by reference (set
/// and index), and FtCheckResult keeps the set alive. Journal and fleet
/// records name scenarios by index too.
///
/// One pipeline runs it: PreparedFt holds the meta-program and its
/// evaluators, built once per context and options, and simulates then
/// checks (FtChecker) per run. runFaultTolerance, `nv serve` sessions and
/// fleet workers all use it. The journaled and fleet-sharded check works
/// in FtChunks, run and folded by checkFtChunks.
///
//===----------------------------------------------------------------------===//

#ifndef NV_ANALYSIS_FAULTTOLERANCE_H
#define NV_ANALYSIS_FAULTTOLERANCE_H

#include "core/Ast.h"
#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"
#include "support/Resume.h"
#include "support/ThreadPool.h"
#include "support/Units.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>

namespace nv {

struct FtOptions {
  unsigned LinkFailures = 1; ///< Link components in the scenario key.
  bool NodeFailure = false;  ///< Also fail one node per scenario.
  /// NV source of the "dropped route" value: one expression, which may use
  /// the base program's lets and `v`, the route it replaces. Empty:
  /// derived from the attribute type (defaultDropExpr), None for Fig. 5's
  /// option routes.
  std::string DropValueSource;
  /// Worker threads for the assert check's per-node descents (1 =
  /// serial; 0 = NV_THREADS / hardware concurrency). The meta-simulation
  /// itself is one fixpoint and stays single-threaded.
  unsigned Threads = 1;
  /// Resource budget for the whole analysis (transform, meta-simulation,
  /// assert check). Budget.MaxSteps bounds the meta-simulation's pops:
  /// non-monotone policies (e.g. BGP community filters) can oscillate
  /// under some failure scenarios, and an oscillating meta-sim grows
  /// fresh MTBDD leaves every round — bound it and report Converged =
  /// false instead of diverging. Subsumes the old MaxSteps field; a
  /// deadline, MTBDD node budget, heap watermark, or shared CancelToken
  /// compose the same way.
  RunBudget Budget{/*DeadlineMs=*/0, /*MaxSteps=*/100'000'000};
  /// Per-scenario retry for transient trips (deadline, step/node budget,
  /// injected fault): each retry re-runs the scenario with the budget's
  /// finite limits escalated. Default MaxAttempts=1 keeps single-shot
  /// semantics.
  RetryPolicy Retry;
  /// Scenarios per check chunk in the checkpointed and fleet-sharded
  /// paths: chunks are the journal/fleet unit of the assert check ("c<C>"
  /// keys), so this changes the unit list and binds in the journal.
  unsigned CheckChunkSize = 512;
  /// Optional checkpoint/resume journal. When set, scenarios completed in
  /// a previous run are replayed instead of re-simulated, and each newly
  /// completed scenario (or scenario chunk, in checkFaultTolerance) is
  /// durably recorded. Canceled scenarios are never recorded, so they
  /// re-run on resume. The caller owns binding validation (ResumeLog::
  /// open rejects mismatched journals).
  ResumeLog *Resume = nullptr;
};

/// The transform's one precondition on \p Opts: every scenario fails
/// something (LinkFailures >= 1, or NodeFailure). Returns the user-facing
/// error, empty when \p Opts satisfies it.
std::string ftOptionsError(const FtOptions &Opts);

/// The route a failed link or node carries when the caller names none:
/// `None` for an option[..] attribute, `createDict <drop of V>` for
/// dict[K, V]. Returns it as an untyped expression, or null with \p Error
/// naming the type when the attribute is neither.
ExprPtr defaultDropExpr(const TypePtr &AttrTy, std::string &Error);

/// The value of defaultDropExpr(\p AttrTy) in \p Ctx; an eval error for
/// an attribute type without one.
const Value *defaultDropValue(NvContext &Ctx, const TypePtr &AttrTy);

/// Builds the fault-tolerant meta-program: the input's init/trans/merge
/// (and assert) are renamed to __base_* and wrapped per Fig. 5. The result
/// is a typed copy of \p P (renameSemanticDecls: it shares no Expr node
/// with \p P, so the two can be evaluated on different threads) followed
/// by the generated declarations, built as AST; only those are
/// type-checked (typeCheckAppended). Null on failure (diagnostics filed),
/// e.g. for a DropValueSource that does not parse or has the wrong type.
/// \p P must already be type-checked (AttrType set).
std::optional<Program> makeFaultTolerantProgram(const Program &P,
                                                const FtOptions &Opts,
                                                DiagnosticEngine &Diags);

/// Upper bound on the links of a fault-tolerance analysis: an index must
/// fit FtLink::Index.
constexpr size_t MaxFtLinks = size_t(1) << 26;

/// Upper bound on the scenarios of one analysis. A scenario's index is
/// its identity (FtScenarioRef, journal and fleet keys, the check's hit
/// arrays), and it is a uint32_t.
constexpr uint64_t MaxFtScenarios = UINT32_MAX;

/// One failed link: its endpoints as declared, and its position in
/// Program::links(), which the scenario key encodes in an IndexBits-wide
/// int field.
struct FtLink {
  uint32_t U, V;
  uint32_t Index : 26;
  uint32_t IndexBits : 6;
};
static_assert(sizeof(FtLink) == 12);

/// One concrete failure scenario, decoded: what the per-scenario naive
/// baselines inject.
struct FtScenario {
  std::vector<FtLink> Links; ///< LinkFailures entries.
  std::optional<uint32_t> Node;

  std::string str() const;
};

/// Bits of one link field of a scenario key: ceil(log2 NumLinks), at
/// least 1.
unsigned linkIndexBits(size_t NumLinks);

/// Bit width of a scenario key: the failed node's NodeBits when
/// NodeFailure is set, then one linkIndexBits(NumLinks) field per link.
unsigned scenarioKeyWidth(const FtOptions &Opts, unsigned NodeBits,
                          size_t NumLinks);

/// Writes the bits of a scenario key straight from its failed node (when
/// \p Node is set) and its link indices, without interning anything: bit
/// for bit what encodeValue(scenarioKey(...)) produces (node first, then
/// each link index, each MSB first). \p Words receives ceil(width / 64)
/// words, packed MSB first: key bit 0 is bit 63 of Words[0], so comparing
/// the words as unsigned integers orders keys lexicographically by bit.
void packScenarioKey(std::optional<uint32_t> Node, unsigned NodeBits,
                     std::span<const uint32_t> LinkIndices, unsigned LinkBits,
                     uint64_t *Words);

/// Every scenario of an analysis, by index. Built once from (program,
/// options): the links table and one packed key per scenario
/// (packScenarioKey), in one exactly-sized array in key order, which is
/// the enumeration order: the node field first, then non-decreasing link
/// indices (combinations with repetition, covering "at most k" failures),
/// each MSB first. That is C(|links| + k - 1, k) scenarios (k =
/// LinkFailures; none when k > 0 and there are no links), times the node
/// count with NodeFailure. A scenario is its index; operator[] and str()
/// decode its key on demand.
class FtScenarioSet {
public:
  /// An EngineError (evalError) when \p P has more scenarios than
  /// MaxFtScenarios or more links than MaxFtLinks.
  FtScenarioSet(const Program &P, const FtOptions &Opts);

  size_t size() const { return Count; }
  uint32_t numNodes() const { return NumNodes; }

  /// Scenario \p I's packed key.
  std::span<const uint64_t> key(size_t I) const {
    return {Keys.get() + I * Words, Words};
  }
  /// Bit \p B of scenario \p I's key.
  bool bit(size_t I, unsigned B) const {
    return (Keys[I * Words + B / 64] >> (63 - B % 64)) & 1;
  }
  /// The first bit at which the keys of scenarios \p I <= \p J differ
  /// (~0u if none). Every key between them shares the bits before it.
  unsigned firstDiff(size_t I, size_t J) const;

  /// Scenario \p I's failed node (NodeFailure only).
  std::optional<uint32_t> node(size_t I) const {
    if (!NodeFailure)
      return std::nullopt;
    return uint32_t(I / Combos);
  }
  /// Scenario \p I, decoded.
  FtScenario operator[](size_t I) const;
  /// Scenario \p I's rendering: (*this)[I].str(), without building it.
  std::string str(size_t I) const;

private:
  /// Link field \p F of scenario \p I's key.
  uint32_t linkIndex(size_t I, unsigned F) const;

  std::vector<std::pair<uint32_t, uint32_t>> Links;
  uint32_t NumNodes;
  bool NodeFailure;
  unsigned LinkFields, NodeBits, LinkBits;
  size_t Combos = 0, Count = 0, Words = 0;
  std::unique_ptr<uint64_t[]> Keys;
};

/// Materializes every scenario of \p P under \p Opts, in key order:
/// FtScenarioSet's scenarios, decoded.
std::vector<FtScenario> enumerateScenarios(const Program &P,
                                           const FtOptions &Opts);

/// The dict key value of a scenario.
const Value *scenarioKey(NvContext &Ctx, const FtScenario &S,
                         const FtOptions &Opts);

/// A scenario by reference: its index in a set that the holder keeps
/// alive (FtCheckResult::Scenarios).
struct FtScenarioRef {
  const FtScenarioSet *Set = nullptr;
  uint32_t Index = 0;

  std::string str() const { return Set->str(Index); }
};
static_assert(sizeof(FtScenarioRef) == 16);

struct FtViolation {
  FtScenarioRef Scenario;
  uint32_t Node;
  const Value *Route; ///< The route selected under the scenario; null when
                      ///< the violation was replayed from a journal.
  /// The route's rendering, recorded at completion time. Journal replay
  /// reconstructs violations from text (the originating arena is gone), so
  /// reporting must go through routeStr(), which is identical for live and
  /// replayed violations.
  std::string RouteText;

  std::string routeStr() const;
};

/// Serializes one violation into \p R as a "v" field
/// ("<scenarioIdx> <node> <routeText>").
void addViolationField(UnitRecord &R, const FtViolation &V);
/// Parses every "v" field of \p R, the record of scenarios [\p Begin,
/// \p End) of \p Set, and appends the violations to \p Out (Route null,
/// RouteText filled, Scenario pointing into \p Set). Returns false, \p Out
/// unchanged, at a malformed field: an index or node that is not a
/// decimal number followed by one space, an index outside the record's
/// scenarios, or a node id past the set's node count.
bool parseViolationFields(const UnitRecord &R, const FtScenarioSet &Set,
                          size_t Begin, size_t End,
                          std::vector<FtViolation> &Out);

struct FtCheckResult {
  uint64_t ScenariosChecked = 0;
  /// Scenarios whose run ended early (budget trip, cancellation, injected
  /// fault, evaluation error) in the per-scenario baselines. A skipped
  /// scenario contributes no violations; the first non-ok outcome in
  /// scenario order is recorded in Outcome, so the report is deterministic
  /// for any thread count.
  uint64_t ScenariosSkipped = 0;
  /// Scenarios (or scenario chunks' worth of scenarios) replayed from a
  /// resume journal instead of re-simulated. Counted inside
  /// ScenariosChecked, so aggregate counts match an uninterrupted run.
  uint64_t ScenariosReplayed = 0;
  /// Extra attempts spent by the retry policy across all scenarios.
  uint64_t RetriesPerformed = 0;
  RunOutcome Outcome;
  std::vector<FtViolation> Violations;
  /// The scenarios Violations point into (FtScenarioRef): held here so a
  /// violation's scenario outlives the checker, and the result can be
  /// moved, as RetainedContexts does for Route.
  std::shared_ptr<const FtScenarioSet> Scenarios;
  /// Keeps evaluation contexts alive so Violation::Route pointers interned
  /// in them stay valid: per-worker arenas for the parallel naive baseline,
  /// and the internally-owned context for runFaultTolerance (empty when a
  /// caller-provided context already owns the values).
  std::vector<std::shared_ptr<NvContext>> RetainedContexts;
  bool holds() const { return Violations.empty(); }
};

/// The chunk layout of the checkpointed and fleet-sharded assert check:
/// chunk C covers scenarios [begin(C), end(C)), keyed "c<C>" in journals
/// and fleet jobs. A ChunkSize of 0 means the FtOptions default.
class FtChunks {
public:
  FtChunks(size_t NumScenarios, unsigned ChunkSize);

  size_t count() const { return (NumScenarios + Size - 1) / Size; }
  size_t begin(size_t C) const { return C * Size; }
  size_t end(size_t C) const {
    return std::min(begin(C) + Size, NumScenarios);
  }
  static std::string key(size_t C);

private:
  size_t NumScenarios, Size;
};

/// FNV-1a 64 hex fingerprint of violations in result order: identical for
/// live and replayed violations (routeStr), so `nv ft/naive --json` and
/// `nv serve` results diff directly.
std::string ftViolationsHash(const std::vector<FtViolation> &Vs);

/// Checks the base program's assert under every scenario against the
/// converged dict labels of the meta-program. The failed node (if any) is
/// exempt from its own assertion. Violations come out in (scenario, node)
/// order, each pointing into the result's Scenarios. The work is
/// FtChecker's; see there for the algorithm. \p Pool shards its per-node
/// descents. Output is identical for any pool size, including the
/// violation order.
FtCheckResult checkFaultTolerance(NvContext &Ctx, const Program &BaseProgram,
                                  ProtocolEvaluator &BaseEval,
                                  const SimResult &MetaResult,
                                  const FtOptions &Opts,
                                  ThreadPool *Pool = nullptr);

/// The assert-check engine underneath checkFaultTolerance. Construction
/// answers every scenario at once:
///  1. evaluate the assert once per (node, distinct leaf), by a
///     visited-set walk over each label diagram's reachable nodes that
///     also marks which nodes lead to a failing leaf;
///  2. enumerate the scenarios into an FtScenarioSet, whose packed keys
///     are in key order, so keys sharing a prefix are already contiguous;
///  3. for each node whose label has a failing leaf, descend that part
///     of its diagram once over the keys: a key range is split
///     where its keys first differ, bits they all share are followed
///     without splitting, a leaf answers the whole range, and
///     subdiagrams without failing leaves are never entered;
///  4. order the hits by (scenario, node).
/// Step 3 only reads step 1's copies and the keys, so it shards
/// over \p Pool with per-node outputs merged in node order. It relies on
/// the MTBDD variable index being the key bit position.
///
/// checkScenario and checkChunk then read slices of that result.
/// checkChunk returns the chunk's canonical UnitRecord ("c<C>", status,
/// one "v" field per violation). The checkpointed in-process check
/// journals these records and fleet workers send the *same* records over
/// the result pipe (checkFtChunks), which is what makes `--workers N`
/// aggregates bit-identical to `--workers 0`.
class FtChecker {
public:
  /// \p MetaResult must be converged with dict labels; both it and
  /// \p Ctx/\p BaseEval must outlive the checker.
  FtChecker(NvContext &Ctx, const Program &BaseProgram,
            ProtocolEvaluator &BaseEval, const SimResult &MetaResult,
            const FtOptions &Opts, ThreadPool *Pool = nullptr);
  ~FtChecker();

  /// The checked scenarios, which every violation points into.
  const std::shared_ptr<const FtScenarioSet> &scenarios() const;
  const FtChunks &chunks() const;
  /// The number of violations over all scenarios.
  size_t numViolations() const;

  /// The record of chunk \p C's scenarios.
  UnitRecord checkChunk(size_t C) const;

  /// Appends scenario \p I's violations in node order (thread-safe;
  /// read-only).
  void checkScenario(size_t I, std::vector<FtViolation> &Out) const;

private:
  struct ImplTy;
  std::unique_ptr<ImplTy> Impl;
};

/// The chunked assert check on the unit runner (support/Units.h): chunk
/// C is unit "c<C>". Journaled chunks (Opts.Resume) are restored; the rest
/// are sliced from \p Checker in process, or checked on \p X's fleet by
/// ftFleetWorker, whose records carry the same violations
/// (FtChecker::checkChunk). Folded in chunk order: violations in scenario
/// order, a non-ok chunk (e.g. a quarantined poison chunk) counted as
/// skipped scenarios, a canceled chunk as not checked, the first non-ok
/// outcome kept. \p Checker may be null when \p X is a fleet.
FtCheckResult
checkFtChunks(const std::shared_ptr<const FtScenarioSet> &Scenarios,
              const FtOptions &Opts, const UnitExecutor &X,
              const FtChecker *Checker = nullptr);

/// The fleet worker of the chunked check (`nv worker --cmd ft`): rebuilds
/// the meta-simulation on its first job and serves chunk records until
/// the coordinator shuts it down; returns the worker's exit code.
int ftFleetWorker(const Program &P, const FtOptions &Opts, bool Native);

/// The result of one fault-tolerance run.
struct FtRunResult {
  bool Converged = false;
  FtCheckResult Check;
  SimStats Stats;
  double TransformMs = 0, SimulateMs = 0, CheckMs = 0;
  /// MTBDD operation-cache statistics of the meta-simulation's manager.
  uint64_t CacheHits = 0, CacheMisses = 0;
  /// How the run ended: Ok, a budget/cancellation/fault trip (Converged
  /// false, phases completed so far are reported), or an evaluation error.
  RunOutcome Outcome;
};

/// The Fig. 5 pipeline, prepared once and run any number of times: the
/// meta-program, its evaluator (interpreted or compiled) and the
/// interpreted base evaluator, in a caller-owned context. The evaluators
/// pin what they hold, so it survives NvContext::resetBetweenRuns() —
/// `nv serve` caches one per analysis variant. runFaultTolerance, serve
/// and the fleet worker all run the analysis through it.
class PreparedFt {
public:
  /// Transforms \p Base and builds the evaluators in \p Ctx (both must
  /// outlive the result). Null, diagnostics filed, if the transform fails.
  static std::unique_ptr<PreparedFt> create(NvContext &Ctx,
                                            const Program &Base,
                                            const FtOptions &Opts,
                                            bool UseCompiledEvaluator,
                                            DiagnosticEngine &Diags);
  // The meta evaluator holds the address of Meta.
  PreparedFt(const PreparedFt &) = delete;
  PreparedFt &operator=(const PreparedFt &) = delete;

  /// The meta-simulation, governed by the caller's scope only.
  SimResult simulate();
  /// Simulates, then (when converged and \p CheckAsserts) runs
  /// checkFaultTolerance with a pool of Opts.Threads. \p Opts names the
  /// scenario space it was created for; budget, threads, chunking and
  /// journal are per run. Fills all but TransformMs; a trip becomes the
  /// Outcome, completed phases keeping their timings and stats.
  FtRunResult run(const FtOptions &Opts, bool CheckAsserts = true);
  /// The interpreted base evaluator, for an FtChecker over simulate().
  ProtocolEvaluator &baseEval() { return BaseEval; }

private:
  PreparedFt(NvContext &Ctx, const Program &Base, Program MetaProgram,
             bool UseCompiledEvaluator);

  NvContext &Ctx;
  const Program &Base;
  Program Meta;
  std::unique_ptr<ProtocolEvaluator> MetaEval;
  InterpProgramEvaluator BaseEval;
};

/// Convenience driver: transform, simulate (interpreted or compiled), and
/// check, through a PreparedFt. Null base assert means only convergence
/// is checked. One governor (Opts.Budget) spans all three phases.
///
/// \p ReuseCtx (optional) runs the analysis in a caller-owned context
/// instead of a fresh one — e.g. one context per network reused across
/// failure budgets. The context is garbage-collected down to its pinned
/// baseline at the START of each run, so one run's result (violation
/// routes, cache stats) stays valid until the next call with the same
/// context. Cache hit/miss counts are reported as per-run deltas either
/// way.
FtRunResult runFaultTolerance(const Program &P, const FtOptions &Opts,
                              bool UseCompiledEvaluator,
                              DiagnosticEngine &Diags,
                              bool CheckAsserts = true,
                              NvContext *ReuseCtx = nullptr);

} // namespace nv

#endif // NV_ANALYSIS_FAULTTOLERANCE_H
