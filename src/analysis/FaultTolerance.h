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
/// A scenario is its 64-bit index in an FtScenarioSet, which holds no
/// keys: the index ranks the key in key order (the node field first, then
/// non-decreasing link indices, each MSB first) and is unranked only when a
/// scenario is printed or simulated on its own. A violation names its
/// scenario by reference (set and index), and FtCheckResult keeps the set
/// alive. Journal and fleet records name scenarios by index too.
///
/// One pipeline runs it: PreparedFt holds the meta-program and its
/// evaluators, built once per context and options, and simulates then
/// checks (FtChecker) per run. runFaultTolerance, `nv serve` sessions and
/// fleet workers all use it. For the journal and the fleet, a whole run is
/// one unit of the unit runner, "f0" (runFtUnit, ftFleetWorker): the
/// durable unit carries its own simulation.
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
  /// Worker threads for the assert check's per-node walks (1 =
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
  /// Optional checkpoint/resume journal of the naive sweep (one unit per
  /// scenario) and of runFtUnit (one unit per run). When set, units
  /// completed in a previous run are replayed instead of re-run, and each
  /// newly completed unit is durably recorded. Canceled units are never
  /// recorded, so they re-run on resume. The caller owns binding
  /// validation (ResumeLog::open rejects mismatched journals).
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

/// Every scenario of an analysis, by index, in key order: the failed node
/// first (with NodeFailure), then the link indices as a non-decreasing
/// sequence (combinations with repetition, covering "at most k"
/// failures), each field compared MSB first. That is C(|links| + k - 1, k)
/// link combinations (k = LinkFailures; none when k > 0 and there are no
/// links), times the node count with NodeFailure.
///
/// The set stores only these counts and the links table. An index and a
/// scenario convert both ways in the combinatorial number system for
/// multisets: rank() sums binomials over the fields, the accessors unrank
/// I field by field. Binomials are computed arithmetically in 128 bits, so
/// nothing is sized by the scenario count.
class FtScenarioSet {
public:
  /// An EngineError (evalError) when \p P has more links than MaxFtLinks
  /// or more scenarios than a uint64_t counts.
  FtScenarioSet(const Program &P, const FtOptions &Opts);

  uint64_t size() const { return Count; }
  uint32_t numNodes() const { return NumNodes; }
  size_t numLinks() const { return Links.size(); }
  unsigned linkFields() const { return LinkFields; }
  bool nodeFailure() const { return NodeFailure; }
  /// The link combinations per failed node: scenario I fails node
  /// I / combos() (NodeFailure only).
  uint64_t combos() const { return Combos; }

  /// The index of the scenario that fails \p Node (NodeFailure only) and
  /// the links \p LinkIndices: linkFields() non-decreasing indices, each
  /// below numLinks().
  uint64_t rank(std::optional<uint32_t> Node,
                std::span<const uint32_t> LinkIndices) const;

  /// Scenario \p I's failed node (NodeFailure only).
  std::optional<uint32_t> node(uint64_t I) const {
    if (!NodeFailure)
      return std::nullopt;
    return uint32_t(I / Combos);
  }
  /// Scenario \p I's link indices: linkFields() entries into \p Out.
  void linkIndices(uint64_t I, uint32_t *Out) const;
  /// Scenario \p I, decoded.
  FtScenario operator[](uint64_t I) const;
  /// Scenario \p I's rendering: (*this)[I].str(), without building it.
  std::string str(uint64_t I) const;

private:
  std::vector<std::pair<uint32_t, uint32_t>> Links;
  uint32_t NumNodes;
  bool NodeFailure;
  unsigned LinkFields, LinkBits;
  uint64_t Combos = 0, Count = 0;
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
  uint64_t Index = 0;

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
                          uint64_t Begin, uint64_t End,
                          std::vector<FtViolation> &Out);

struct FtCheckResult {
  uint64_t ScenariosChecked = 0;
  /// Scenarios whose run ended early (budget trip, cancellation, injected
  /// fault, evaluation error) in the per-scenario baselines. A skipped
  /// scenario contributes no violations; the first non-ok outcome in
  /// scenario order is recorded in Outcome, so the report is deterministic
  /// for any thread count.
  uint64_t ScenariosSkipped = 0;
  /// Scenarios replayed from a resume journal instead of re-simulated
  /// (all of them, for a replayed fault-tolerance run). Counted inside
  /// ScenariosChecked, so aggregate counts match an uninterrupted run.
  uint64_t ScenariosReplayed = 0;
  /// Extra attempts spent by the retry policy across all units.
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

/// FNV-1a 64 hex fingerprint of violations in result order: identical for
/// live and replayed violations (routeStr), so `nv ft/naive --json` and
/// `nv serve` results diff directly.
std::string ftViolationsHash(const std::vector<FtViolation> &Vs);

/// Checks the base program's assert under every scenario against the
/// converged dict labels of the meta-program. The failed node (if any) is
/// exempt from its own assertion. Violations come out in (scenario, node)
/// order, each pointing into the result's Scenarios. The work is
/// FtChecker's; see there for the algorithm. \p Pool shards its per-node
/// walks. Output is identical for any pool size, including the
/// violation order.
FtCheckResult checkFaultTolerance(NvContext &Ctx, const Program &BaseProgram,
                                  ProtocolEvaluator &BaseEval,
                                  const SimResult &MetaResult,
                                  const FtOptions &Opts,
                                  ThreadPool *Pool = nullptr);

/// The assert-check engine underneath checkFaultTolerance. Construction
/// answers every scenario at once, in time and memory that follow the
/// failing diagrams and the violations, not the scenario count:
///  1. evaluate the assert once per (node, distinct leaf), by a
///     visited-set walk over each label diagram's reachable nodes that
///     keeps only the part leading to a failing leaf;
///  2. for each node with such a part, walk it together with the key bits,
///     MSB first, visiting only prefixes of canonical keys (every field
///     below its bound, link fields non-decreasing). Below a failing leaf
///     the canonical completions of the prefix are one index range,
///     emitted whole; a failed node's own block is cut out of it;
///  3. merge the per-node ranges by (scenario, node) into the sorted hits.
/// Step 2 only reads step 1's copies and the set, so it shards over
/// \p Pool. It relies on the MTBDD variable index being the key bit
/// position.
///
/// checkScenario and checkRange then read binary-searched slices of the
/// hits.
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
  /// The number of violations over all scenarios.
  size_t numViolations() const;

  /// Appends scenario \p I's violations in node order (thread-safe;
  /// read-only).
  void checkScenario(uint64_t I, std::vector<FtViolation> &Out) const {
    checkRange(I, I + 1, Out);
  }
  /// Appends the violations of scenarios [\p Begin, \p End) in
  /// (scenario, node) order (thread-safe; read-only).
  void checkRange(uint64_t Begin, uint64_t End,
                  std::vector<FtViolation> &Out) const;

private:
  struct ImplTy;
  std::unique_ptr<ImplTy> Impl;
};

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
  /// scenario space it was created for; budget and threads are per run.
  /// Fills all but TransformMs; a trip becomes the Outcome, completed
  /// phases keeping their timings and stats.
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
/// Opts.Resume is not read: runFtUnit journals a run.
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

/// A fault-tolerance run as the one unit "f0" of the unit runner
/// (support/Units.h) on \p X: runFaultTolerance on this thread, or on
/// \p X's fleet by ftFleetWorker. The unit's record is its outcome
/// fields, then one "v" field per violation (addViolationField). With
/// Opts.Resume, a journaled record is restored instead, without a
/// simulation, and a completed run is journaled; a run that tripped is
/// journaled too, and replays as that trip. Opts.Budget and Opts.Retry
/// govern each attempt. A run that ran here returns runFaultTolerance's
/// result; a restored one only its check (Converged, Check, Outcome),
/// with zero timings and stats. ScenariosReplayed counts every scenario
/// of a replayed run. \p Diags holds the last attempt's diagnostics.
FtRunResult runFtUnit(const Program &P, const FtOptions &Opts,
                      bool UseCompiledEvaluator, DiagnosticEngine &Diags,
                      const UnitExecutor &X = UnitExecutor());

/// The fleet worker of runFtUnit (`nv worker --cmd ft`): serves unit f0
/// through runUnitRecord until the coordinator shuts it down, writing each
/// run's diagnostics to stderr; returns the worker's exit code.
int ftFleetWorker(const Program &P, const FtOptions &Opts, bool Native);

} // namespace nv

#endif // NV_ANALYSIS_FAULTTOLERANCE_H
