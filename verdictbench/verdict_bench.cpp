//===- verdict_bench.cpp - Closed-loop verdict benchmark --------*- C++ -*-===//
//
// Part of nv-cpp. The repository's end-to-end benchmark: one process, one
// thread, one verdict in flight at a time. A verdict goes from input text
// (NV source, or a Cisco-style config for route-map instances) to a
// checked verdict, including teardown of every context it built — what a
// user of `nv ft` / `nv sim` waits for. Each layer is timed from outside,
// around calls to its public functions; no engine code is instrumented.
//
// Workloads (see README.md for why each was chosen):
//   ft-wan      fault tolerance, <= 1 link failure, USCarrier-style WANs
//   ft-fat      fault tolerance, <= 2 link failures, FAT(8) with every node
//               asserted, destination cycling over the 32 ToRs
//   corpus-mix  fuzz-generator instances over all six policy families:
//               frontend, parse, typecheck, simulate + asserts, then FT
//               with <= 1 link failure where the family allows it
//
// Each workload's inputs are a fixed pool listed, with their known
// answers, in answers/<workload>.tsv; the answers come from the
// interpreter and the naive per-scenario sweep, never from the native
// MTBDD path timed here (--regen-answers rebuilds them). The workload seed
// fixes the order in which a run walks the pool, in whole passes. Time
// metrics are scaled by the host's speed, measured by a calibration
// kernel between verdicts (see Calibrator).
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "frontend/Config.h"
#include "frontend/Translate.h"
#include "fuzz/InstanceGen.h"
#include "fuzz/Rng.h"
#include "net/Generators.h"
#include "sim/Simulator.h"
#include "support/Journal.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace nv;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Per-verdict measurements
//===----------------------------------------------------------------------===//

/// Everything recorded about one verdict: layer times (summed over the
/// layer's spans in the verdict) and counters read at layer boundaries.
enum Field {
  ParseMs,
  TypecheckMs,
  TranslateMs,
  TransformMs,
  BuildMs,
  SimulateMs,
  CheckAssertsMs,
  CheckMs,
  AnswerCheckMs,
  TeardownMs,
  Pops,
  TransCalls,
  MergeCalls,
  CacheLookups,
  CacheHits,
  UniqueLookups,
  UniqueProbes,
  PeakNodes,
  MemoryBytes,
  GcCollections,
  Scenarios,
  Violations,
  NumFields
};
constexpr Field FirstCounter = Pops;

/// Span names, indexed by the time fields above.
const char *const SpanNames[] = {
    "core.parse",       "core.typecheck",   "frontend.translate",
    "analysis.transform", "eval.build",     "sim.simulate",
    "sim.check_asserts", "analysis.check",  "harness.answer_check",
    "eval.teardown"};
static_assert(sizeof(SpanNames) / sizeof(SpanNames[0]) == FirstCounter);
/// Counter names (the verdict log's columns), indexed from FirstCounter.
const char *const CounterNames[] = {
    "pops",           "trans_calls",   "merge_calls",  "op_cache_lookups",
    "op_cache_hits",  "unique_lookups", "unique_probes", "peak_nodes",
    "memory_bytes",   "gc_collections", "scenarios",    "violations"};
static_assert(sizeof(CounterNames) / sizeof(CounterNames[0]) ==
              NumFields - FirstCounter);

struct VerdictRecord {
  size_t Input = 0;
  double Ms = 0;
  bool Ok = true;
  bool Traced = false;
  double F[NumFields] = {};
  bool Ran[NumFields] = {}; ///< Time fields: the layer ran in this verdict.
};

/// In-memory span recorder; written out as Chrome trace-event JSON at exit.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t BeginUs, DurNs;
    uint32_t Verdict;
  };

  bool On = false;
  uint32_t Verdict = 0;
  std::vector<Span> Spans;
  /// Verdicts whose spans are kept for the trace file: the first few
  /// thousand are plenty to browse, and keep the file small.
  static constexpr uint32_t MaxFileVerdicts = 2000;

  void record(const char *Name, Clock::time_point B, Clock::time_point E) {
    if (Verdict >= MaxFileVerdicts)
      return;
    Spans.push_back(
        {Name,
         std::chrono::duration_cast<std::chrono::microseconds>(B - Epoch)
             .count(),
         std::chrono::duration_cast<std::chrono::nanoseconds>(E - B).count(),
         Verdict});
  }

  bool write(const std::string &Path, const std::string &Workload) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    OS << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
       << Workload << "\"},\"traceEvents\":[\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const char *Dot = std::strchr(S.Name, '.');
      std::string Cat = Dot ? std::string(S.Name, Dot) : S.Name;
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "%.3f", S.DurNs / 1000.0);
      OS << (I ? ",\n" : "") << "{\"name\":\"" << S.Name << "\",\"cat\":\""
         << Cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << S.BeginUs
         << ",\"dur\":" << Buf << ",\"args\":{\"verdict\":" << S.Verdict
         << (std::strcmp(S.Name, "verdict") ? ",\"parent\":\"verdict\"" : "")
         << "}}";
    }
    OS << "\n]}\n";
    return bool(OS);
  }

private:
  Clock::time_point Epoch = Clock::now();
};

Tracer TheTracer;

/// Runs \p Body as one span of field \p F of \p R. With tracing off this
/// is a plain call, so end-to-end runs pay no per-layer clock reads --
/// except for the answer check, which is always timed because verdict
/// times exclude it (it is the benchmark's own work, not the user's wait).
template <class Fn> auto timed(VerdictRecord &R, Field F, Fn &&Body) {
  if (!TheTracer.On && F != AnswerCheckMs)
    return Body();
  struct Closer {
    VerdictRecord &R;
    Field F;
    Clock::time_point B = Clock::now();
    ~Closer() {
      auto E = Clock::now();
      R.F[F] += msBetween(B, E);
      R.Ran[F] = true;
      if (TheTracer.On)
        TheTracer.record(SpanNames[F], B, E);
    }
  } C{R, F};
  return Body();
}

/// Streaming FNV-1a 64, equal to fnv1a64Hex over the concatenated pieces.
struct Fnv {
  uint64_t H = 14695981039346656037ull;
  void add(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
    return Buf;
  }
};

/// The known answer of a fault-tolerance check: scenario and violation
/// counts, the hash of the violation list in scenario order (the
/// `nv ft --json` violations_hash format) and, where checked, the hash of
/// every node's route under every scenario ("-" when not checked).
struct FtAnswer {
  uint64_t Scenarios = 0, Violations = 0;
  std::string Hash, Routes = "-";
  bool operator==(const FtAnswer &) const = default;
  std::string str() const {
    return std::to_string(Scenarios) + "\t" + std::to_string(Violations) +
           "\t" + Hash + "\t" + Routes;
  }
};

/// Renders each distinct route once: routes are few and shared.
class RouteText {
public:
  const std::string &of(const Value *V) {
    auto It = Memo.find(V);
    if (It == Memo.end())
      It = Memo.emplace(V, V->str()).first;
    return It->second;
  }

private:
  std::unordered_map<const Value *, std::string> Memo;
};

/// Violations hash of one scenario's violating (node, route) pairs.
void addViolation(Fnv &H, const std::string &Scenario, uint32_t Node,
                  const std::string &Route) {
  H.add(Scenario);
  H.add("@" + std::to_string(Node) + "=");
  H.add(Route);
  H.add("\n");
}

FtAnswer violationAnswer(const FtCheckResult &C) {
  FtAnswer A;
  A.Scenarios = C.ScenariosChecked;
  A.Violations = C.Violations.size();
  Fnv H;
  RouteText Text;
  for (const FtViolation &V : C.Violations)
    addViolation(H, V.Scenario.str(), V.Node,
                 V.Route ? Text.of(V.Route) : V.RouteText);
  A.Hash = H.hex();
  return A;
}

/// The MTBDD key bits of every scenario's dict key, in enumeration order.
std::vector<std::vector<bool>>
scenarioKeyBits(NvContext &Ctx, const SimResult &Meta,
                const std::vector<FtScenario> &Scs, const FtOptions &Opts) {
  std::vector<std::vector<bool>> Bits(Scs.size());
  const TypePtr &KeyTy = Meta.Labels[0]->KeyType;
  for (size_t I = 0; I < Scs.size(); ++I)
    Ctx.encodeValue(scenarioKey(Ctx, Scs[I], Opts), KeyTy, Bits[I]);
  return Bits;
}

const Value *metaRoute(NvContext &Ctx, const SimResult &Meta, uint32_t U,
                       const std::vector<bool> &Bits) {
  return static_cast<const Value *>(
      Ctx.Mgr.get(Meta.Labels[U]->MapRoot, Bits));
}

/// Hash of every node's route under every scenario (scenario-major), read
/// from the meta-simulation's dict labels.
std::string routesHash(NvContext &Ctx, const Program &P, const SimResult &Meta,
                       const FtOptions &Opts) {
  auto Scs = enumerateScenarios(P, Opts);
  auto Bits = scenarioKeyBits(Ctx, Meta, Scs, Opts);
  Fnv H;
  RouteText Text;
  for (size_t I = 0; I < Scs.size(); ++I)
    for (uint32_t U = 0; U < Meta.Labels.size(); ++U) {
      H.add(Text.of(metaRoute(Ctx, Meta, U, Bits[I])));
      H.add("\n");
    }
  return H.hex();
}

std::string assertStr(const std::vector<uint32_t> *Failed) {
  if (!Failed)
    return "none";
  if (Failed->empty())
    return "ok";
  std::string S;
  for (uint32_t U : *Failed) {
    if (!S.empty())
      S += ',';
    S += std::to_string(U);
  }
  return S;
}

/// Canonical fingerprint of a converged simulation (the differential
/// oracle's format): every node's printed label, then the assert result.
std::string simFingerprint(NvContext &Ctx, const SimResult &R,
                           const std::vector<uint32_t> *Failed) {
  std::string FP = "conv=1";
  for (const Value *L : R.Labels) {
    FP += ';';
    FP += Ctx.printValue(L);
  }
  return FP + ";assert=" + assertStr(Failed);
}

//===----------------------------------------------------------------------===//
// Inputs and known answers
//===----------------------------------------------------------------------===//

struct Input {
  std::string Id;     ///< Pool key: USCarrier seed, ToR index, fuzz seed.
  std::string Family; ///< corpus-mix: policy family.
  std::string Text;   ///< NV source, or the config text for route-map cfgs.
  bool IsConfig = false;
  std::string AssertSuffix; ///< Appended to the translated NV source.
  bool RunFt = true;
  FtOptions Ft;
  // Known answers.
  std::string LabelHash, Assert; ///< corpus-mix simulation answer.
  FtAnswer FtExpected;
};

enum class Workload { FtWan, FtFat, CorpusMix };

std::optional<Workload> parseWorkload(const std::string &S) {
  if (S == "ft-wan")
    return Workload::FtWan;
  if (S == "ft-fat")
    return Workload::FtFat;
  if (S == "corpus-mix")
    return Workload::CorpusMix;
  return std::nullopt;
}

constexpr unsigned FatK = 8;
constexpr unsigned FatTors = FatK * FatK / 2;
constexpr unsigned WanPool = 16;
constexpr unsigned CorpusPool = 512;
/// The fuzz seed stream corpus-mix instances are drawn from.
constexpr uint64_t CorpusStream = 0x5eedc0de2020ull;

/// Mirrors the generator's destination prefix for route-map instances
/// (10.<dest>.0/24), whose reachability assert follows the translation.
Prefix corpusDestPrefix(uint32_t Dest) {
  Prefix P;
  P.Addr = (10u << 24) | ((Dest & 0xFF) << 8);
  P.Len = 24;
  return P;
}

/// Fills \p In from its pool key. Returns false when the generator fails.
bool makeInput(Workload W, const std::string &Id, Input &In) {
  In.Id = Id;
  uint64_t Key = std::strtoull(Id.c_str(), nullptr, 0);
  switch (W) {
  case Workload::FtWan:
    In.Text = generateUsCarrier(static_cast<uint32_t>(Key));
    In.Ft.LinkFailures = 1;
    return true;
  case Workload::FtFat:
    In.Text = generateFatSingle(FatK, static_cast<unsigned>(Key),
                                /*AssertTorsOnly=*/false);
    In.Ft.LinkFailures = 2;
    return true;
  case Workload::CorpusMix: {
    DiagnosticEngine Diags;
    FuzzInstance I = instanceFromSeed(Key, Diags);
    if (I.NvSource.empty())
      return false;
    In.Family = policyKindName(I.Spec.Policy);
    In.IsConfig = !I.ConfigText.empty();
    In.Text = In.IsConfig ? I.ConfigText : I.NvSource;
    if (In.IsConfig)
      In.AssertSuffix = nvAssertReachable(corpusDestPrefix(I.Spec.Dest));
    In.RunFt = I.FtComparable;
    In.Ft.LinkFailures = 1;
    return true;
  }
  }
  return false;
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> Out;
  std::stringstream SS(Line);
  std::string Cell;
  while (std::getline(SS, Cell, '\t'))
    Out.push_back(Cell);
  return Out;
}

/// Reads the pool and its answers. Line formats (tab-separated):
///   ft-wan / ft-fat: id scenarios violations violations_hash routes_hash
///   corpus-mix:      id family label_hash assert ft(0|1) scenarios
///                    violations violations_hash routes_hash
bool loadPool(Workload W, const std::string &Path, std::vector<Input> &Out,
              std::string &Err) {
  std::ifstream IS(Path);
  if (!IS) {
    Err = "cannot read answers file " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    auto C = splitTabs(Line);
    size_t Ft = W == Workload::CorpusMix ? 5 : 1;
    if (C.size() != Ft + 4) {
      Err = "malformed answers line: " + Line;
      return false;
    }
    Input In;
    if (!makeInput(W, C[0], In)) {
      Err = "generator failed for input " + C[0];
      return false;
    }
    if (W == Workload::CorpusMix) {
      if (C[1] != In.Family) {
        Err = "family mismatch for input " + C[0];
        return false;
      }
      In.LabelHash = C[2];
      In.Assert = C[3];
      In.RunFt = C[4] == "1";
    }
    In.FtExpected.Scenarios = std::strtoull(C[Ft].c_str(), nullptr, 10);
    In.FtExpected.Violations = std::strtoull(C[Ft + 1].c_str(), nullptr, 10);
    In.FtExpected.Hash = C[Ft + 2];
    In.FtExpected.Routes = C[Ft + 3];
    Out.push_back(std::move(In));
  }
  if (Out.empty()) {
    Err = "answers file " + Path + " lists no inputs";
    return false;
  }
  return true;
}

/// The run's walk order over the pool: a Fisher-Yates shuffle keyed by the
/// workload seed (a pure function of the seed and the pool size).
std::vector<size_t> seededOrder(uint64_t Seed, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  FuzzRng R(Seed ^ 0x76657264696374ull);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

//===----------------------------------------------------------------------===//
// One verdict
//===----------------------------------------------------------------------===//

void readBddCounters(const NvContext &Ctx, VerdictRecord &R) {
  const BddManager &M = Ctx.Mgr;
  R.F[CacheLookups] += double(M.cacheHits() + M.cacheMisses());
  R.F[CacheHits] += double(M.cacheHits());
  R.F[UniqueLookups] += double(M.uniqueLookups());
  R.F[UniqueProbes] += double(M.uniqueProbes());
  R.F[PeakNodes] = std::max(R.F[PeakNodes], double(M.gcStats().PeakNodes));
  R.F[MemoryBytes] = std::max(R.F[MemoryBytes], double(M.memoryBytes()));
  R.F[GcCollections] += double(M.gcStats().Collections);
}

void addSimStats(const SimStats &S, VerdictRecord &R) {
  R.F[Pops] += double(S.Pops);
  R.F[TransCalls] += double(S.TransCalls);
  R.F[MergeCalls] += double(S.MergeCalls);
}

std::unique_ptr<ProtocolEvaluator> makeEvaluator(NvContext &Ctx,
                                                 const Program &P,
                                                 bool Native) {
  if (Native)
    return std::make_unique<CompiledProgramEvaluator>(Ctx, P);
  return std::make_unique<InterpProgramEvaluator>(Ctx, P);
}

/// Looks at a finished fault-tolerance leg before its teardown (answer
/// generation cross-checks it there).
using FtInspector = std::function<bool(NvContext &, const SimResult &Meta,
                                       const FtCheckResult &)>;

/// The fault-tolerance leg, step for step what runFaultTolerance does with
/// one check thread, each step a span. Fills \p Got with the leg's answer
/// (the routes hash only when \p WantRoutes). False on a non-ok outcome.
bool ftLeg(const Program &P, const FtOptions &Opts, bool Native,
           bool WantRoutes, VerdictRecord &R, FtAnswer &Got, std::string &Why,
           const FtInspector &Inspect = {}) {
  DiagnosticEngine Diags;
  Governor::Scope Guard(Opts.Budget);
  auto Meta = timed(R, TransformMs,
                    [&] { return makeFaultTolerantProgram(P, Opts, Diags); });
  if (!Meta) {
    Why = "transform failed: " + Diags.str();
    return false;
  }
  std::unique_ptr<NvContext> Ctx;
  std::unique_ptr<ProtocolEvaluator> Eval;
  timed(R, BuildMs, [&] {
    Ctx = std::make_unique<NvContext>(P.numNodes());
    Eval = makeEvaluator(*Ctx, *Meta, Native);
  });
  // Governed by the outer scope only, as in runFaultTolerance.
  SimOptions SO;
  SO.Budget = RunBudget{};
  SimResult Sim =
      timed(R, SimulateMs, [&] { return simulate(*Meta, *Eval, SO); });
  addSimStats(Sim.Stats, R);
  bool Ok = Sim.Converged && Sim.Outcome.ok();
  if (!Ok)
    Why = "meta-simulation: " + Sim.Outcome.str();
  std::unique_ptr<InterpProgramEvaluator> BaseEval;
  FtCheckResult Check;
  if (Ok) {
    timed(R, CheckMs, [&] {
      BaseEval = std::make_unique<InterpProgramEvaluator>(*Ctx, P);
      Check = checkFaultTolerance(*Ctx, P, *BaseEval, Sim, Opts);
    });
    R.F[Scenarios] += double(Check.ScenariosChecked);
    R.F[Violations] += double(Check.Violations.size());
    if (!Check.Outcome.ok()) {
      Ok = false;
      Why = "check: " + Check.Outcome.str();
    }
  }
  readBddCounters(*Ctx, R);
  if (Ok)
    timed(R, AnswerCheckMs, [&] {
      Got = violationAnswer(Check);
      if (WantRoutes)
        Got.Routes = routesHash(*Ctx, P, Sim, Opts);
    });
  if (Ok && Inspect && !Inspect(*Ctx, Sim, Check)) {
    Ok = false;
    Why = "cross-check failed";
  }
  timed(R, TeardownMs, [&] {
    Check = FtCheckResult{};
    BaseEval.reset();
    Eval.reset();
    Sim = SimResult{};
    Ctx.reset();
    Meta.reset();
  });
  return Ok;
}

/// The simulation leg (`nv sim`): simulate + checkAsserts. Fills the label
/// fingerprint hash and the assert result.
bool simLeg(const Program &P, bool Native, VerdictRecord &R,
            std::string &Hash, std::string &Assert, std::string &Why) {
  std::unique_ptr<NvContext> Ctx;
  std::unique_ptr<ProtocolEvaluator> Eval;
  timed(R, BuildMs, [&] {
    Ctx = std::make_unique<NvContext>(P.numNodes());
    Eval = makeEvaluator(*Ctx, P, Native);
  });
  SimResult Sim = timed(R, SimulateMs, [&] { return simulate(P, *Eval); });
  addSimStats(Sim.Stats, R);
  bool Ok = Sim.Converged && Sim.Outcome.ok();
  if (!Ok)
    Why = "simulation: " + Sim.Outcome.str();
  if (Ok) {
    std::optional<std::vector<uint32_t>> Failed;
    if (Eval->hasAssert())
      Failed =
          timed(R, CheckAssertsMs, [&] { return checkAsserts(*Eval, Sim); });
    const auto *F = Failed ? &*Failed : nullptr;
    timed(R, AnswerCheckMs, [&] {
      Hash = fnv1a64Hex(simFingerprint(*Ctx, Sim, F));
      Assert = assertStr(F);
    });
  }
  readBddCounters(*Ctx, R);
  timed(R, TeardownMs, [&] {
    Sim = SimResult{};
    Eval.reset();
    Ctx.reset();
  });
  return Ok;
}

/// The verdict's first layers: the frontend (route-map configs), parse
/// and typecheck. Null, with \p Why set, on failure.
std::optional<Program> loadProgram(const Input &In, VerdictRecord &R,
                                   std::string &Why) {
  DiagnosticEngine Diags;
  std::string Source;
  if (In.IsConfig) {
    bool Translated = timed(R, TranslateMs, [&] {
      auto Net = parseConfigs(In.Text, Diags);
      if (!Net)
        return false;
      auto T = translateConfigs(*Net, Diags);
      if (!T)
        return false;
      Source = T->NvSource + In.AssertSuffix;
      return true;
    });
    if (!Translated) {
      Why = "frontend: " + Diags.str();
      return std::nullopt;
    }
  }
  const std::string &Text = In.IsConfig ? Source : In.Text;
  auto P = timed(R, ParseMs, [&] { return parseProgram(Text, Diags); });
  if (!P || !timed(R, TypecheckMs, [&] { return typeCheck(*P, Diags); })) {
    Why = "parse/typecheck: " + Diags.str();
    return std::nullopt;
  }
  return P;
}

/// One verdict from input text, with the native evaluator. Every context
/// is built and torn down inside it, so nothing carries over between
/// verdicts.
bool runVerdict(Workload W, const Input &In, VerdictRecord &R,
                std::string &Why) {
  try {
    auto P = loadProgram(In, R, Why);
    if (!P)
      return false;
    bool Ok = true;
    if (W == Workload::CorpusMix) {
      std::string Hash, Assert;
      Ok = simLeg(*P, /*Native=*/true, R, Hash, Assert, Why);
      if (Ok && (Hash != In.LabelHash || Assert != In.Assert)) {
        Ok = false;
        Why = "sim answer " + Hash + "/" + Assert + " != expected " +
              In.LabelHash + "/" + In.Assert;
      }
    }
    if (Ok && In.RunFt) {
      FtAnswer Got;
      Ok = ftLeg(*P, In.Ft, /*Native=*/true, In.FtExpected.Routes != "-", R,
                 Got, Why);
      if (Ok && !(Got == In.FtExpected)) {
        Ok = false;
        Why = "ft answer " + Got.str() + " != expected " + In.FtExpected.str();
      }
    }
    timed(R, TeardownMs, [&] { P.reset(); });
    return Ok;
  } catch (const EngineError &E) {
    Why = "engine error: " + E.outcome().str();
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Answer generation (independent engines only)
//===----------------------------------------------------------------------===//

/// The naive sweep: one interpreted simulation per scenario, giving both
/// the violations and every node's route under every scenario.
bool naiveSweep(const Program &P, const FtOptions &Opts, FtAnswer &A) {
  Governor::Scope Guard(Opts.Budget);
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  Fnv Vio, Routes;
  auto Scs = enumerateScenarios(P, Opts);
  A = FtAnswer{};
  A.Scenarios = Scs.size();
  for (const FtScenario &S : Scs) {
    SimResult Sim = simulateScenario(P, Eval, S, Ctx.noneV());
    if (!Sim.Converged)
      return false;
    std::string Name = S.str();
    for (uint32_t U = 0; U < Sim.Labels.size(); ++U) {
      std::string Route = Sim.Labels[U]->str();
      Routes.add(Route);
      Routes.add("\n");
      if (!Eval.assertAt(U, Sim.Labels[U])) {
        addViolation(Vio, Name, U, Route);
        ++A.Violations;
      }
    }
    Ctx.resetBetweenRuns();
  }
  A.Hash = Vio.hex();
  A.Routes = Routes.hex();
  return true;
}

/// ft-fat's cross-check: the full naive sweep over 32,896 scenarios takes
/// hours, so a seeded sample of scenarios is re-simulated one by one and
/// every node's route and assert result compared with the meta-simulation.
FtInspector sampleCheck(const Program &P, const FtOptions &Opts,
                        uint64_t Seed, unsigned Samples) {
  return [&P, &Opts, Seed, Samples](NvContext &MetaCtx, const SimResult &Meta,
                                    const FtCheckResult &Check) {
    auto Scs = enumerateScenarios(P, Opts);
    std::unordered_map<std::string, std::vector<uint32_t>> Violating;
    for (const FtViolation &V : Check.Violations)
      Violating[V.Scenario.str()].push_back(V.Node);
    NvContext Ctx(P.numNodes());
    InterpProgramEvaluator Eval(Ctx, P);
    FuzzRng Rng(Seed);
    for (unsigned K = 0; K < Samples; ++K) {
      size_t I = Rng.below(Scs.size());
      std::vector<FtScenario> One{Scs[I]};
      auto Bits = scenarioKeyBits(MetaCtx, Meta, One, Opts);
      SimResult Sim = simulateScenario(P, Eval, Scs[I], Ctx.noneV());
      if (!Sim.Converged)
        return false;
      std::vector<uint32_t> Failing;
      for (uint32_t U = 0; U < Sim.Labels.size(); ++U) {
        if (Sim.Labels[U]->str() != metaRoute(MetaCtx, Meta, U, Bits[0])->str())
          return false;
        if (!Eval.assertAt(U, Sim.Labels[U]))
          Failing.push_back(U);
      }
      if (Failing != Violating[Scs[I].str()])
        return false;
      Ctx.resetBetweenRuns();
    }
    return true;
  };
}

/// The answer line of one fault-tolerance input, or "" when the engines
/// fail or disagree.
std::string ftAnswerLine(Workload W, const std::string &Id, const Program &P,
                         const FtOptions &Opts) {
  VerdictRecord Unused;
  std::string Why;
  FtAnswer Interp;
  if (W == Workload::FtFat) {
    if (!ftLeg(P, Opts, /*Native=*/false, /*WantRoutes=*/false, Unused,
               Interp, Why, sampleCheck(P, Opts, 0xfa7, 48)))
      return "";
    return Interp.str();
  }
  FtAnswer Naive;
  if (!naiveSweep(P, Opts, Naive) ||
      !ftLeg(P, Opts, /*Native=*/false, /*WantRoutes=*/true, Unused, Interp,
             Why))
    return "";
  if (!(Naive == Interp)) {
    std::fprintf(stderr, "input %s: naive %s != interpreted %s\n", Id.c_str(),
                 Naive.str().c_str(), Interp.str().c_str());
    return "";
  }
  return Naive.str();
}

int regenAnswers(Workload W, const std::string &Name, const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  const char *FtCols =
      "scenarios\tviolations\tviolations_hash\troutes_hash\n";
  if (W == Workload::CorpusMix) {
    OS << "# corpus-mix known answers: instanceFromSeed(id), the first "
       << CorpusPool
       << " seeds of a fixed\n# stream on which every engine converges. "
          "Simulation answer = interpreter\n# (label fingerprint hash, "
          "assert result). FT answer (ft=1: <= 1 link failure)\n# = naive "
          "per-scenario sweep, equal to the interpreted meta-simulation.\n"
          "# id\tfamily\tlabel_hash\tassert\tft\t"
       << FtCols;
  } else {
    OS << (W == Workload::FtWan
               ? "# ft-wan known answers: generateUsCarrier(id), <= 1 link "
                 "failure. Answer = naive\n# per-scenario sweep, equal to "
                 "the interpreted meta-simulation.\n"
               : "# ft-fat known answers: generateFatSingle(8, id, every "
                 "node asserted), <= 2 link\n# failures. Answer = "
                 "interpreted meta-simulation, cross-checked on a seeded\n# "
                 "sample of 48 naive per-scenario simulations per input.\n")
       << "# id\t" << FtCols;
    unsigned N = W == Workload::FtWan ? WanPool : FatTors;
    for (unsigned I = 0; I < N; ++I) {
      std::string Id = std::to_string(W == Workload::FtWan ? 2020 + I : I);
      Input In;
      VerdictRecord Unused;
      std::string Why;
      makeInput(W, Id, In);
      auto P = loadProgram(In, Unused, Why);
      std::string L = P ? ftAnswerLine(W, Id, *P, In.Ft) : "";
      if (L.empty()) {
        std::fprintf(stderr, "input %s: no answer\n", Id.c_str());
        return 1;
      }
      OS << Id << "\t" << L << "\n";
      std::fprintf(stderr, "%s %s\t%s\n", Name.c_str(), Id.c_str(), L.c_str());
    }
    return OS ? 0 : 1;
  }

  // corpus-mix: walk the seed stream, keeping instances on which every
  // engine converges (some record-bgp instances oscillate under failures).
  FuzzRng Stream(CorpusStream);
  unsigned Kept = 0, Skipped = 0;
  while (Kept < CorpusPool) {
    char IdBuf[32];
    std::snprintf(IdBuf, sizeof(IdBuf), "0x%016llx",
                  (unsigned long long)Stream.next());
    Input In;
    VerdictRecord Unused;
    std::string Hash, Assert, Why;
    std::optional<Program> P;
    if (makeInput(W, IdBuf, In))
      P = loadProgram(In, Unused, Why);
    if (!P || !simLeg(*P, /*Native=*/false, Unused, Hash, Assert, Why)) {
      ++Skipped;
      continue;
    }
    std::string Line =
        std::string(IdBuf) + "\t" + In.Family + "\t" + Hash + "\t" + Assert;
    if (In.RunFt && P->assertDecl()) {
      // Bound the engines so an oscillating instance is detected (and left
      // out of the pool) instead of running for hours.
      In.Ft.Budget.MaxSteps = 1'000'000;
      std::string L = ftAnswerLine(W, IdBuf, *P, In.Ft);
      if (L.empty()) {
        ++Skipped;
        continue;
      }
      Line += "\t1\t" + L;
    } else {
      Line += "\t0\t0\t0\t-\t-";
    }
    OS << Line << "\n";
    ++Kept;
  }
  std::fprintf(stderr, "corpus-mix: kept %u instances, skipped %u\n", Kept,
               Skipped);
  return OS ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Options {
  std::string WorkloadName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string AnswersDir = "verdictbench/answers";
  std::string TraceFile;
  std::string VerdictLog;
  unsigned Passes = 0; ///< Exact number of timed passes (0 = by time).
  bool Regen = false;
  bool ListInputs = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: verdict_bench --workload ft-wan|ft-fat|corpus-mix "
               "[--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--answers DIR] [--trace-file PATH] [--passes N] "
               "[--verdict-log PATH]\n"
               "       verdict_bench --workload W --regen-answers "
               "[--answers DIR]\n"
               "       verdict_bench --workload W --list-inputs --seed N\n");
  return 2;
}

std::optional<Options> parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--regen-answers") {
      O.Regen = true;
    } else if (A == "--list-inputs") {
      O.ListInputs = true;
    } else if (!(V = Next())) {
      return std::nullopt;
    } else if (A == "--workload") {
      O.WorkloadName = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 0);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::atoi(V) != 0;
    } else if (A == "--answers") {
      O.AnswersDir = V;
    } else if (A == "--trace-file") {
      O.TraceFile = V;
    } else if (A == "--passes") {
      O.Passes = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--verdict-log") {
      O.VerdictLog = V;
    } else {
      return std::nullopt;
    }
  }
  if (O.WorkloadName.empty() || !(O.Seconds > 0))
    return std::nullopt;
  return O;
}

/// statistics.median: the mean of the two middle values for even sizes.
double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The nearest-rank p90 of sorted values.
double p90(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(std::ceil(0.9 * V.size())) - 1;
  return V[Idx];
}

/// Peak RSS of this process image: VmHWM. getrusage's ru_maxrss would also
/// count the image the process was exec'd from (run.py's Python), which
/// is larger than the whole corpus-mix working set.
double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024; // kB
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // KiB on Linux
}

/// A verdict beyond the p90 needs at least ten samples past it.
constexpr size_t MinVerdicts = 100;
/// Hard stop for the timed loop, well inside a run's time limit.
constexpr double MaxLoopSeconds = 140;
constexpr unsigned SetupRepeats = 7;

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// Host-speed calibration. The benchmark runs on a VM whose memory system
/// (last-level cache, memory bandwidth) is shared with other tenants; for
/// stretches of seconds to minutes it serves the memory-heavy verdicts up
/// to 1.8x slower, with CPU time tracking wall time (no steal). A fixed,
/// memory-heavy kernel of the benchmark's own, timed between verdicts,
/// slows down with them: across ten 55 s runs, its median correlated
/// with the unscaled p50 at 0.96 on ft-fat and 0.82 on corpus-mix.
/// Time metrics are scaled by CalibrationRefMs / (the kernel's local
/// median), i.e. reported in milliseconds of a host on which the kernel
/// takes CalibrationRefMs. The kernel shares no code with the program, so
/// a change to the program moves the scaled times as it moves wall time.
/// Its buffers are allocated and touched once, before set-up, and never
/// freed, so it leaves the allocator's state and the peak RSS growth of
/// the verdicts alone.
class Calibrator {
  std::vector<uint64_t> Buf = std::vector<uint64_t>(1 << 19);  // 4 MiB
  std::vector<uint64_t> Slots = std::vector<uint64_t>(1 << 18); // 2 MiB

public:
  /// The kernel's median on this benchmark's reference host, a 4-vCPU
  /// Intel Xeon VM, over runs in its quiet periods.
  static constexpr double CalibrationRefMs = 3.0;

  Calibrator() { run(); }

  size_t bytes() const { return (Buf.size() + Slots.size()) * 8; }

  /// One kernel run, in ms: clear 6 MiB, fill an open-addressing table to
  /// about a quarter, probe it, and scatter read-modify-writes over 4 MiB.
  double run() {
    auto B = Clock::now();
    std::fill(Buf.begin(), Buf.end(), 0);
    std::fill(Slots.begin(), Slots.end(), 0);
    uint64_t X = 0x9E3779B97F4A7C15ull, Acc = 0;
    auto next = [&X] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    size_t SlotMask = Slots.size() - 1, BufMask = Buf.size() - 1;
    auto slot = [&](uint64_t Key) {
      size_t I = (Key * 0xBF58476D1CE4E5B9ull >> 20) & SlotMask;
      while (Slots[I] && Slots[I] != Key)
        I = (I + 1) & SlotMask;
      return I;
    };
    for (int K = 0; K < 60000; ++K) {
      uint64_t Key = next() | 1;
      Slots[slot(Key)] = Key;
    }
    for (int K = 0; K < 120000; ++K) {
      uint64_t Key = next() | 1;
      Acc += Slots[slot(Key)];
      Buf[Key & BufMask] += Acc;
    }
    Sink = Acc + Buf[Acc & BufMask];
    return msBetween(B, Clock::now());
  }

private:
  static inline volatile uint64_t Sink = 0;
};

/// Kernel runs during the timed loop: At is the index of the verdict that
/// followed the run.
struct CalSample {
  size_t At;
  double Ms;
};

/// Minimum loop wall time between two kernel runs.
constexpr double CalEveryMs = 100;
/// Kernel runs a verdict's scale is taken from: the nearest in sequence.
constexpr size_t CalWindow = 5;

/// The scale of each of \p N verdicts: CalibrationRefMs over the median of
/// the CalWindow kernel runs nearest to it.
std::vector<double> verdictScales(const std::vector<CalSample> &Cal,
                                  size_t N) {
  std::vector<double> Scale(N, 1);
  if (Cal.empty())
    return Scale;
  size_t W = std::min(CalWindow, Cal.size()), Next = 0;
  for (size_t I = 0; I < N; ++I) {
    while (Next < Cal.size() && Cal[Next].At <= I)
      ++Next;
    // Samples [Next - 3, Next + 2): three before the verdict, two after.
    size_t Lo = Next >= 3 ? Next - 3 : 0;
    Lo = std::min(Lo, Cal.size() - W);
    std::vector<double> V;
    for (size_t K = Lo; K < Lo + W; ++K)
      V.push_back(Cal[K].Ms);
    Scale[I] = Calibrator::CalibrationRefMs / median(V);
  }
  return Scale;
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Calibrator Cal;
  auto MainStart = Clock::now();
  auto O = parseArgs(Argc, Argv);
  if (!O)
    return usage();
  auto W = parseWorkload(O->WorkloadName);
  if (!W)
    return usage();
  std::string AnswersPath = O->AnswersDir + "/" + O->WorkloadName + ".tsv";
  if (O->Regen)
    return regenAnswers(*W, O->WorkloadName, AnswersPath);

  // Set-up: build the input pool from its keys, load the known answers,
  // fix the seeded order and warm up. Repeated so setup_s is a median,
  // not one short shot; the last repetition's inputs are the ones timed.
  std::vector<Input> Pool;
  std::vector<size_t> Order;
  std::vector<double> SetupS, SetupCalMs;
  size_t WarmFailed = 0, WarmAttempted = 0;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    auto T0 = Rep == 0 ? MainStart : Clock::now();
    Pool.clear();
    std::string Err;
    if (!loadPool(*W, AnswersPath, Pool, Err)) {
      std::fprintf(stderr, "verdict_bench: %s\n", Err.c_str());
      return 1;
    }
    Order = seededOrder(O->Seed, Pool.size());
    if (O->ListInputs)
      break;
    // Warm-up on the pool's first inputs (seed-independent, so set-up
    // time does not depend on the seed): 1/32 of a pass, at least one.
    size_t Warm = std::max<size_t>(1, Pool.size() / 32);
    for (size_t I = 0; I < Warm; ++I) {
      VerdictRecord R;
      std::string Why;
      ++WarmAttempted;
      if (!runVerdict(*W, Pool[I], R, Why)) {
        ++WarmFailed;
        std::fprintf(stderr, "warm-up verdict %s failed: %s\n",
                     Pool[I].Id.c_str(), Why.c_str());
      }
    }
    SetupS.push_back(
        std::chrono::duration<double>(Clock::now() - T0).count());
    SetupCalMs.push_back(Cal.run());
  }

  if (O->ListInputs) {
    for (size_t I : Order)
      std::printf("%s\t%s\t%s\n", Pool[I].Id.c_str(),
                  fnv1a64Hex(Pool[I].Text).c_str(), Pool[I].Family.c_str());
    return 0;
  }

  // Timed closed loop, in whole passes over the seeded order, ending at
  // the pass boundary nearest to --seconds. With --trace 1, passes
  // alternate traced / untraced so the tracing overhead is measured within
  // the run. Per-verdict times are always kept; full records (layer times,
  // counters) only when the traced run or the verdict log needs them, so
  // the harness's own memory stays out of peak_rss_mb.
  bool KeepRecords = O->Trace || !O->VerdictLog.empty();
  std::vector<VerdictRecord> Records;
  std::vector<double> Ms;
  size_t Failed = 0;
  std::vector<CalSample> CalRuns;
  double PeakMb = 0;
  auto LoopStart = Clock::now();
  auto LastCal = LoopStart - std::chrono::seconds(1);
  double Elapsed = 0;
  for (unsigned Pass = 0;; ++Pass) {
    double PassS = Pass ? Elapsed / Pass : 0;
    if (O->Passes ? Pass >= O->Passes
                  : (Elapsed + PassS / 2 >= O->Seconds &&
                     Ms.size() >= MinVerdicts) ||
                        Elapsed >= MaxLoopSeconds)
      break;
    TheTracer.On = O->Trace && (O->Passes || Pass % 2 == 0);
    for (size_t I : Order) {
      if (msBetween(LastCal, Clock::now()) >= CalEveryMs) {
        CalRuns.push_back({Ms.size(), Cal.run()});
        LastCal = Clock::now();
      }
      VerdictRecord R;
      R.Input = I;
      R.Traced = TheTracer.On;
      std::string Why;
      auto B = Clock::now();
      R.Ok = runVerdict(*W, Pool[I], R, Why);
      auto E = Clock::now();
      R.Ms = msBetween(B, E) - R.F[AnswerCheckMs];
      if (R.Traced) {
        TheTracer.record("verdict", B, E);
        ++TheTracer.Verdict;
      }
      if (!R.Ok) {
        ++Failed;
        std::fprintf(stderr, "verdict %s failed: %s\n", Pool[I].Id.c_str(),
                     Why.c_str());
      }
      Ms.push_back(R.Ms);
      if (KeepRecords)
        Records.push_back(R);
    }
    Elapsed = std::chrono::duration<double>(Clock::now() - LoopStart).count();
    // Peak RSS of the set-ups and one pass over the pool, without the
    // calibration buffers. Later passes repeat the same inputs; reading
    // at the end would let the allocator's rare late growth decide.
    if (Pass == 0)
      PeakMb = peakRssMb() - Cal.bytes() / 1048576.0;
  }
  TheTracer.On = false;
  CalRuns.push_back({Ms.size(), Cal.run()});
  std::vector<double> Scale = verdictScales(CalRuns, Ms.size());
  std::vector<double> ScaledMs(Ms.size());
  for (size_t I = 0; I < Ms.size(); ++I)
    ScaledMs[I] = Ms[I] * Scale[I];

  if (!O->VerdictLog.empty()) {
    std::ofstream VL(O->VerdictLog);
    VL << "input\tok";
    for (int F = FirstCounter; F < NumFields; ++F)
      VL << "\t" << CounterNames[F - FirstCounter];
    VL << "\n";
    for (const VerdictRecord &R : Records) {
      VL << Pool[R.Input].Id << "\t" << R.Ok;
      for (int F = FirstCounter; F < NumFields; ++F)
        VL << "\t" << std::llround(R.F[F]);
      VL << "\n";
    }
  }

  size_t Attempted = Ms.size() + WarmAttempted;
  bool Correct = Failed == 0 && WarmFailed == 0 && !Ms.empty();
  std::vector<Metric> Out;
  if (!O->Trace) {
    Out.push_back({"verdict_ms_p50", "ms", median(ScaledMs)});
    Out.push_back({"verdict_ms_p90", "ms", p90(ScaledMs)});
    // Over the time spent in verdicts: the loop's wall time without the
    // answer checks (verdict times exclude them) and the kernel runs.
    double VerdictS = 0;
    for (double V : ScaledMs)
      VerdictS += V / 1000;
    Out.push_back({"verdicts_per_s", "1/s",
                   double(Ms.size() - Failed) / VerdictS});
    Out.push_back({"peak_rss_mb", "MB", PeakMb});
    Out.push_back({"setup_s", "s",
                   median(SetupS) * Calibrator::CalibrationRefMs /
                       median(SetupCalMs)});
    printResult(Correct, Attempted, Failed + WarmFailed, Out);
    return 0;
  }

  // Per-layer: per-verdict medians over the traced verdicts.
  std::vector<const VerdictRecord *> Traced;
  std::vector<double> TracedMs, UntracedMs;
  for (size_t I = 0; I < Records.size(); ++I) {
    const VerdictRecord &R = Records[I];
    (R.Traced ? TracedMs : UntracedMs).push_back(ScaledMs[I]);
    if (R.Traced)
      Traced.push_back(&R);
  }
  auto med = [&](auto Of) {
    std::vector<double> V;
    for (const VerdictRecord *R : Traced)
      V.push_back(Of(*R));
    return median(V);
  };
  // A layer time is the median over the verdicts that ran the layer (only
  // route-map instances translate, only some corpus instances run FT).
  auto field = [&](Field F) {
    if (F >= FirstCounter)
      return med([F](const VerdictRecord &R) { return R.F[F]; });
    std::vector<double> V;
    for (const VerdictRecord *R : Traced)
      if (R->Ran[F])
        V.push_back(R->F[F]);
    return median(V);
  };
  // Time inside the named layer spans (the answer check is excluded from
  // verdict times, so from this sum too).
  auto layers = [](const VerdictRecord &R) {
    double S = 0;
    for (int F = 0; F < FirstCounter; ++F)
      S += F == AnswerCheckMs ? 0 : R.F[F];
    return S;
  };
  Out = {
      {"core.parse_ms", "ms", field(ParseMs)},
      {"core.typecheck_ms", "ms", field(TypecheckMs)},
      {"frontend.translate_ms", "ms", field(TranslateMs)},
      {"analysis.transform_ms", "ms", field(TransformMs)},
      {"eval.build_ms", "ms", field(BuildMs)},
      {"eval.teardown_ms", "ms", field(TeardownMs)},
      {"sim.simulate_ms", "ms", field(SimulateMs)},
      {"sim.check_asserts_ms", "ms", field(CheckAssertsMs)},
      {"sim.pops", "count", field(Pops)},
      {"sim.trans_calls", "count", field(TransCalls)},
      {"sim.merge_calls", "count", field(MergeCalls)},
      {"bdd.op_cache_lookups", "count", field(CacheLookups)},
      {"bdd.op_cache_hit_ratio", "ratio", med([](const VerdictRecord &R) {
         return R.F[CacheLookups] ? R.F[CacheHits] / R.F[CacheLookups] : 0;
       })},
      {"bdd.unique_lookups", "count", field(UniqueLookups)},
      {"bdd.unique_probes_per_lookup", "ratio",
       med([](const VerdictRecord &R) {
         return R.F[UniqueLookups] ? R.F[UniqueProbes] / R.F[UniqueLookups]
                                   : 0;
       })},
      {"bdd.peak_nodes", "count", field(PeakNodes)},
      {"bdd.memory_mb", "MB",
       med([](const VerdictRecord &R) { return R.F[MemoryBytes] / 1048576; })},
      {"bdd.gc_collections", "count", field(GcCollections)},
      {"analysis.check_ms", "ms", field(CheckMs)},
      {"analysis.scenarios", "count", field(Scenarios)},
      {"analysis.violations", "count", field(Violations)},
      {"harness.answer_check_ms", "ms", field(AnswerCheckMs)},
      {"harness.self_ms", "ms",
       med([&](const VerdictRecord &R) { return R.Ms - layers(R); })},
      {"harness.layer_coverage", "ratio", med([&](const VerdictRecord &R) {
         return R.Ms > 0 ? layers(R) / R.Ms : 0;
       })},
      {"harness.trace_overhead_ms", "ms",
       UntracedMs.empty() ? 0 : median(TracedMs) - median(UntracedMs)},
      {"harness.calibration_ms", "ms", [&] {
         std::vector<double> V;
         for (const CalSample &C : CalRuns)
           V.push_back(C.Ms);
         return median(V);
       }()},
  };
  if (!O->TraceFile.empty() &&
      !TheTracer.write(O->TraceFile, O->WorkloadName)) {
    std::fprintf(stderr, "verdict_bench: cannot write %s\n",
                 O->TraceFile.c_str());
    return 1;
  }
  printResult(Correct, Attempted, Failed + WarmFailed, Out);
  return 0;
}
