//===- Oracle.cpp - Cross-engine differential oracle ---------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "sim/Simulator.h"
#include "smt/Verifier.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace nv;

std::string OracleVerdict::divergingEngines() const {
  size_t Bar = Mismatch.find(" vs ");
  return Bar == std::string::npos ? "" : Mismatch;
}

namespace {

/// The one canonical fingerprint for every resource-limit ending. A budget
/// trip, deadline, cancellation, or injected fault is a scheduling
/// accident, not a semantic result — different legs can trip at different
/// points (a process-global fault countdown fires in exactly one leg), so
/// these runs are excluded from cross-engine comparison wholesale rather
/// than compared against each other.
constexpr const char *SkipFingerprint = "skip:resource-limit";

/// Fingerprint of a run that ended early. Resource limits collapse to the
/// canonical skip fingerprint; semantic errors keep their status name (and
/// only the status name — detail strings may mention leg-specific state):
/// they are deterministic, so engines must agree on them.
std::string outcomeFingerprint(const RunOutcome &O) {
  if (O.resourceLimit())
    return SkipFingerprint;
  return std::string("error:") + runStatusName(O.Status);
}

bool isSkipFingerprint(const std::string &FP) {
  return FP.rfind("skip:", 0) == 0;
}

/// One simulator run under a chosen evaluator and GC watermark, reduced
/// to a canonical fingerprint: convergence, every node's label (printed
/// from the canonical diagram), and the assert verdict.
std::string simFingerprint(const Program &P, bool UseCompiled,
                           size_t Watermark, const OracleOptions &Opts) {
  try {
    NvContext Ctx(P.numNodes());
    Ctx.Mgr.setGcWatermark(Watermark);
    std::unique_ptr<ProtocolEvaluator> Eval;
    if (UseCompiled)
      Eval = std::make_unique<CompiledProgramEvaluator>(Ctx, P);
    else
      Eval = std::make_unique<InterpProgramEvaluator>(Ctx, P);

    SimOptions SO;
    SO.Budget.MaxSteps = Opts.MaxSteps;
    SO.Budget.Cancel = Opts.Cancel;
    SimResult R = simulate(P, *Eval, SO);
    if (!R.Converged)
      return outcomeFingerprint(R.Outcome);

    std::string FP = "conv=1";
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      FP += ';';
      FP += Ctx.printValue(R.Labels[U]);
    }
    if (Eval->hasAssert()) {
      auto Failed = checkAsserts(*Eval, R);
      FP += ";assert=";
      if (Failed.empty())
        FP += "ok";
      else
        for (size_t I = 0; I < Failed.size(); ++I) {
          if (I)
            FP += ',';
          FP += std::to_string(Failed[I]);
        }
    } else {
      FP += ";assert=none";
    }
    return FP;
  } catch (const EngineError &E) {
    // Evaluator construction or assert evaluation tripped outside the
    // simulator's own catch (e.g. an injected allocation fault).
    return outcomeFingerprint(E.outcome());
  }
}

/// Canonical fingerprint of a fault-tolerance check result: scenario
/// count plus the sorted violation set (scenario, node, selected route).
/// A non-Ok run outcome reduces to its outcome fingerprint instead.
std::string ftFingerprint(const FtCheckResult &Check,
                          const RunOutcome &Outcome) {
  if (!Outcome.ok())
    return outcomeFingerprint(Outcome);
  std::vector<std::string> Lines;
  for (const FtViolation &V : Check.Violations)
    Lines.push_back(V.Scenario.str() + "@" + std::to_string(V.Node) + "=" +
                    V.routeStr());
  std::sort(Lines.begin(), Lines.end());
  std::string FP = "conv=1;scenarios=" + std::to_string(Check.ScenariosChecked);
  for (const std::string &L : Lines)
    FP += ";" + L;
  return FP;
}

/// Extracts the assert verdict portion of a sim fingerprint.
bool simAssertHolds(const std::string &FP) {
  return FP.find(";assert=ok") != std::string::npos ||
         FP.find(";assert=none") != std::string::npos;
}

} // namespace

OracleVerdict nv::runOracle(const FuzzInstance &Inst,
                            const OracleOptions &Opts,
                            DiagnosticEngine &Diags) {
  OracleVerdict V;
  if (Inst.NvSource.empty()) {
    V.Mismatch = "generator produced no source (internal bug)";
    return V;
  }

  auto P = parseProgram(Inst.NvSource, Diags);
  if (!P || !typeCheck(*P, Diags)) {
    V.Mismatch = "generated program failed to parse/typecheck: " + Diags.str();
    return V;
  }

  uint32_t Nodes = P->numNodes();
  uint32_t Links = static_cast<uint32_t>(P->links().size());
  unsigned NThreads = Opts.Threads ? Opts.Threads
                                   : ThreadPool::defaultThreadCount();
  if (NThreads < 2)
    NThreads = 2;

  // -- Simulation legs ------------------------------------------------------
  struct SimLeg {
    const char *Name;
    bool Compiled;
    size_t Watermark;
  };
  const SimLeg SimLegs[] = {
      {"interp-wm0", false, 0},
      {"interp-wm1", false, 1},
      {"native-wm0", true, 0},
      {"native-wm1", true, 1},
  };
  for (const SimLeg &L : SimLegs) {
    std::string FP = simFingerprint(*P, L.Compiled, L.Watermark, Opts);
    // The planted bug: the compiled evaluator at watermark 1 silently
    // reports the opposite assert verdict on sp-option instances with at
    // least 6 edges. Exists solely so tests can prove the oracle catches
    // a divergence and the minimizer shrinks it to the 6-edge floor.
    // Corpus-loaded instances carry only the seed and family in Spec, so
    // fall back to the parsed program's link count for the edge floor.
    size_t EdgeCount = Inst.Spec.Edges.empty() ? Links : Inst.Spec.Edges.size();
    if (Opts.InjectBugForTesting && L.Compiled && L.Watermark == 1 &&
        Inst.Spec.Policy == PolicyKind::SpOption && EdgeCount >= 6) {
      size_t A = FP.find(";assert=");
      if (A != std::string::npos)
        FP = FP.substr(0, A) + (simAssertHolds(FP) ? ";assert=999"
                                                   : ";assert=ok");
    }
    V.Runs.push_back({L.Name, FP});
  }
  // Reference = the first non-skip sim leg; skip legs (resource trips,
  // injected faults) are excluded from comparison entirely. Copy, not
  // reference: later push_backs reallocate V.Runs.
  std::string SimFP;
  std::string SimRefEngine;
  for (size_t I = 0; I < V.Runs.size(); ++I) {
    const EngineRun &R = V.Runs[I];
    if (isSkipFingerprint(R.Fingerprint))
      continue;
    if (SimRefEngine.empty()) {
      SimRefEngine = R.Engine;
      SimFP = R.Fingerprint;
    } else if (R.Fingerprint != SimFP && V.Mismatch.empty()) {
      V.Mismatch = SimRefEngine + " vs " + R.Engine + ": " + SimFP +
                   " != " + R.Fingerprint;
    }
  }

  bool HasAssert = P->assertDecl() != nullptr;

  // -- Fault-tolerance MTBDD legs -------------------------------------------
  std::string FtFP;
  std::string FtRefEngine;
  if (Opts.EnableFt && Inst.FtComparable && HasAssert &&
      Nodes <= Opts.FtMaxNodes && Links <= Opts.FtMaxLinks) {
    struct FtLeg {
      const char *Name;
      bool Compiled;
      unsigned Threads;
      size_t Watermark;
    };
    const FtLeg FtLegs[] = {
        {"ft-interp-t1-wm0", false, 1, 0},
        {"ft-interp-tN-wm1", false, NThreads, 1},
        {"ft-native-t1-wm1", true, 1, 1},
        {"ft-native-tN-wm0", true, NThreads, 0},
    };
    for (const FtLeg &L : FtLegs) {
      std::string FP;
      try {
        FtOptions FO;
        FO.LinkFailures = 1;
        FO.Threads = L.Threads;
        FO.Budget.MaxSteps = Opts.FtMaxSteps;
        FO.Budget.Cancel = Opts.Cancel;
        NvContext Ctx(P->numNodes());
        Ctx.Mgr.setGcWatermark(L.Watermark);
        FtRunResult R = runFaultTolerance(*P, FO, L.Compiled, Diags,
                                          /*CheckAsserts=*/true, &Ctx);
        FP = ftFingerprint(R.Check, R.Outcome);
      } catch (const EngineError &E) {
        FP = outcomeFingerprint(E.outcome()); // e.g. injected context-setup fault
      }
      V.Runs.push_back({L.Name, FP});
      if (isSkipFingerprint(FP))
        continue;
      if (FtRefEngine.empty()) {
        FtRefEngine = L.Name;
        FtFP = FP;
      } else if (FP != FtFP && V.Mismatch.empty()) {
        V.Mismatch = FtRefEngine + " vs " + L.Name + ": " + FtFP + " != " + FP;
      }
    }
  }

  // -- Naive per-scenario enumerator ----------------------------------------
  // Gated on a non-skip FT reference: when every FT leg hit a resource
  // limit (step budget, deadline, injected fault) there is nothing
  // trustworthy to compare the enumerator against — and on a
  // budget-limited instance the enumerator would be the hang the budget
  // existed to prevent.
  if (Opts.EnableNaive && !FtRefEngine.empty() &&
      Nodes <= Opts.NaiveMaxNodes && Links <= Opts.NaiveMaxLinks) {
    std::string FP;
    try {
      FtOptions FO;
      FO.LinkFailures = 1;
      FO.Budget.Cancel = Opts.Cancel;
      NvContext Ctx(P->numNodes());
      InterpProgramEvaluator Eval(Ctx, *P);
      FtCheckResult NR = naiveFaultTolerance(*P, Eval, FO, Ctx.noneV());
      FP = ftFingerprint(NR, NR.Outcome);
    } catch (const EngineError &E) {
      FP = outcomeFingerprint(E.outcome());
    }
    V.Runs.push_back({"naive", FP});
    if (!isSkipFingerprint(FP) && FP != FtFP && V.Mismatch.empty())
      V.Mismatch = FtRefEngine + " vs naive: " + FtFP + " != " + FP;
  }

  // -- Multi-failure keys: two links and a node -----------------------------
  // The legs above fail one link. This native leg covers the f=2 and node
  // fields of the scenario key, against the naive enumerator at the same
  // options; the cap keeps the enumerator's scenarios x nodes small.
  constexpr uint32_t F2MaxNodes = 6, F2MaxLinks = 8;
  if (Opts.EnableFt && Opts.EnableNaive && Inst.FtComparable && HasAssert &&
      Nodes <= F2MaxNodes && Links <= F2MaxLinks) {
    FtOptions FO;
    FO.LinkFailures = 2;
    FO.NodeFailure = true;
    FO.Budget.Cancel = Opts.Cancel;
    std::string FP;
    try {
      FtOptions Governed = FO;
      Governed.Budget.MaxSteps = Opts.FtMaxSteps;
      FtRunResult R = runFaultTolerance(*P, Governed, /*Compiled=*/true, Diags);
      FP = ftFingerprint(R.Check, R.Outcome);
    } catch (const EngineError &E) {
      FP = outcomeFingerprint(E.outcome());
    }
    V.Runs.push_back({"ft-f2-node", FP});
    if (!isSkipFingerprint(FP)) {
      std::string NaiveFP;
      try {
        NvContext Ctx(P->numNodes());
        InterpProgramEvaluator Eval(Ctx, *P);
        FtCheckResult NR = naiveFaultTolerance(*P, Eval, FO, Ctx.noneV());
        NaiveFP = ftFingerprint(NR, NR.Outcome);
      } catch (const EngineError &E) {
        NaiveFP = outcomeFingerprint(E.outcome());
      }
      V.Runs.push_back({"naive-f2-node", NaiveFP});
      if (!isSkipFingerprint(NaiveFP) && NaiveFP != FP && V.Mismatch.empty())
        V.Mismatch = "ft-f2-node vs naive-f2-node: " + FP + " != " + NaiveFP;
    }
  }

  // -- SMT stable-state verifier --------------------------------------------
  if (Opts.EnableSmt && Inst.SmtComparable && HasAssert &&
      Nodes <= Opts.SmtMaxNodes && Links <= Opts.SmtMaxLinks) {
    VerifyOptions VO;
    VO.TimeoutMs = Opts.SmtTimeoutMs;
    VO.Budget.Cancel = Opts.Cancel;
    DiagnosticEngine SmtDiags;
    VerifyResult R = verifyProgram(*P, VO, SmtDiags);
    if (R.Status == VerifyStatus::ResourceExhausted) {
      // Solver timeout / cancellation / injected fault: a skip, never a
      // divergence (generalizes the old special-cased timeout handling).
      V.Runs.push_back({"smt", SkipFingerprint});
    } else {
      const char *Verdict = R.Status == VerifyStatus::Verified    ? "holds"
                            : R.Status == VerifyStatus::Falsified ? "fails"
                            : R.Status == VerifyStatus::Unknown   ? "unknown"
                                                                  : "error";
      V.Runs.push_back({"smt", std::string("assert=") + Verdict});
      if (R.Status == VerifyStatus::EncodingError && V.Mismatch.empty())
        V.Mismatch = "smt: encoding error on an SMT-comparable instance: " +
                     SmtDiags.str();
      // These families are strictly monotone with selective merges, so the
      // stable state is unique and the two verdicts must coincide. Unknown
      // (genuine incompleteness) is recorded but not a divergence; the
      // comparison also needs a non-skip sim reference to compare against.
      if ((R.Status == VerifyStatus::Verified ||
           R.Status == VerifyStatus::Falsified) &&
          !SimRefEngine.empty()) {
        bool SmtHolds = R.Status == VerifyStatus::Verified;
        if (SmtHolds != simAssertHolds(SimFP) && V.Mismatch.empty())
          V.Mismatch = SimRefEngine + " vs smt: sim assert " +
                       (simAssertHolds(SimFP) ? "ok" : "fail") + " != smt " +
                       Verdict;
      }
    }
  }

  V.Ok = V.Mismatch.empty();
  return V;
}
