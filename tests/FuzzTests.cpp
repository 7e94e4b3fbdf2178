//===- FuzzTests.cpp - Differential fuzzer self-tests --------------------------===//
//
// Part of nv-cpp. Tests for the nv-fuzz subsystem: generator determinism
// and validity, the cross-engine oracle, the planted-bug detection path,
// the greedy minimizer, and the corpus format. The committed regression
// corpus under tests/corpus/ is replayed through the full oracle (the
// directory is baked in as NV_CORPUS_DIR at configure time).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/InstanceGen.h"
#include "fuzz/Minimize.h"
#include "fuzz/Oracle.h"
#include "fuzz/Rng.h"

#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "support/Governor.h"

#include <gtest/gtest.h>

#include <set>

using namespace nv;

namespace {

/// Oracle options sized for unit tests: full engine matrix, but modest
/// SMT timeout so a wedged solver can't hang the suite.
OracleOptions testOracleOptions() {
  OracleOptions O;
  O.SmtTimeoutMs = 10000;
  return O;
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(FuzzRng, DeterministicAndWellDistributed) {
  FuzzRng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());

  // below()/range() stay in bounds and hit every bucket eventually.
  FuzzRng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    uint64_t V = R.below(5);
    ASSERT_LT(V, 5u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
  for (int I = 0; I < 100; ++I) {
    uint64_t V = R.range(3, 9);
    ASSERT_GE(V, 3u);
    ASSERT_LE(V, 9u);
  }
}

TEST(FuzzRng, MixSeedSeparatesInstances) {
  std::set<uint64_t> Derived;
  for (uint64_t I = 0; I < 1000; ++I)
    Derived.insert(mixSeed(42, I));
  EXPECT_EQ(Derived.size(), 1000u);
  EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
  EXPECT_NE(mixSeed(42, 7), mixSeed(43, 7));
}

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGen, SpecAndRenderAreDeterministic) {
  for (uint64_t Seed : {1ull, 99ull, 0xdeadbeefull, ~0ull}) {
    FuzzSpec S1 = specFromSeed(Seed), S2 = specFromSeed(Seed);
    EXPECT_EQ(S1, S2);
    DiagnosticEngine D1, D2;
    FuzzInstance I1 = renderSpec(S1, D1), I2 = renderSpec(S2, D2);
    EXPECT_EQ(I1.NvSource, I2.NvSource);
    EXPECT_EQ(I1.ConfigText, I2.ConfigText);
    EXPECT_EQ(I1.Name, I2.Name);
  }
}

TEST(FuzzGen, EverySeedYieldsAWellTypedProgram) {
  unsigned PerFamily[6] = {};
  for (uint64_t Seed = 0; Seed < 150; ++Seed) {
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Seed, Diags);
    ASSERT_FALSE(Inst.NvSource.empty())
        << "seed " << Seed << ": " << Diags.str();
    auto P = parseProgram(Inst.NvSource, Diags);
    ASSERT_TRUE(P) << "seed " << Seed << ":\n"
                   << Inst.NvSource << "\n"
                   << Diags.str();
    ASSERT_TRUE(typeCheck(*P, Diags)) << "seed " << Seed << ":\n"
                                      << Inst.NvSource << "\n"
                                      << Diags.str();
    EXPECT_EQ(P->numNodes(), Inst.Spec.NumNodes);
    EXPECT_EQ(P->links().size(), Inst.Spec.Edges.size());
    ++PerFamily[static_cast<int>(Inst.Spec.Policy)];

    // Edge list invariants the minimizer relies on.
    const auto &E = Inst.Spec.Edges;
    ASSERT_FALSE(E.empty());
    for (size_t I = 0; I < E.size(); ++I) {
      EXPECT_LT(E[I].first, E[I].second);
      EXPECT_LT(E[I].second, Inst.Spec.NumNodes);
      if (I) {
        EXPECT_LT(E[I - 1], E[I]);
      }
    }
    EXPECT_LT(Inst.Spec.Dest, Inst.Spec.NumNodes);
  }
  // 150 seeds must exercise every policy family.
  for (int F = 0; F < 6; ++F)
    EXPECT_GT(PerFamily[F], 0u) << "family " << F << " never generated";
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(FuzzOracle, BatchOfSeedsAgreesAcrossEngines) {
  OracleOptions Opts = testOracleOptions();
  for (uint64_t I = 0; I < 25; ++I) {
    uint64_t Seed = mixSeed(7, I);
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Seed, Diags);
    ASSERT_FALSE(Inst.NvSource.empty()) << Diags.str();
    OracleVerdict V = runOracle(Inst, Opts, Diags);
    EXPECT_TRUE(V.Ok) << Inst.Name << ": " << V.Mismatch << "\n"
                      << Inst.NvSource;
    // The four simulation legs always run.
    EXPECT_GE(V.Runs.size(), 4u);
  }
}

TEST(FuzzOracle, VerdictListsEngines) {
  DiagnosticEngine Diags;
  FuzzInstance Inst = instanceFromSeed(2, Diags); // sp-option (see corpus)
  OracleOptions Opts = testOracleOptions();
  OracleVerdict V = runOracle(Inst, Opts, Diags);
  ASSERT_TRUE(V.Ok);
  std::set<std::string> Names;
  for (const EngineRun &R : V.Runs)
    Names.insert(R.Engine);
  EXPECT_TRUE(Names.count("interp-wm0"));
  EXPECT_TRUE(Names.count("interp-wm1"));
  EXPECT_TRUE(Names.count("native-wm0"));
  EXPECT_TRUE(Names.count("native-wm1"));
}

TEST(FuzzOracle, SmallInstancesRunTheTwoLinkNodeLegs) {
  // Up to 6 nodes and 8 links, the oracle also compares the native
  // meta-simulation at two link failures plus a node with the naive
  // enumerator at the same options.
  OracleOptions Opts = testOracleOptions();
  int Checked = 0;
  for (uint64_t I = 0; I < 200 && Checked < 3; ++I) {
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(mixSeed(3, I), Diags);
    if (!Inst.FtComparable || Inst.Spec.NumNodes > 6 ||
        Inst.Spec.Edges.size() > 8 ||
        Inst.NvSource.find("let assert") == std::string::npos)
      continue;
    OracleVerdict V = runOracle(Inst, Opts, Diags);
    EXPECT_TRUE(V.Ok) << Inst.Name << ": " << V.Mismatch;
    std::set<std::string> Names;
    for (const EngineRun &R : V.Runs)
      Names.insert(R.Engine);
    EXPECT_TRUE(Names.count("ft-f2-node")) << Inst.Name;
    EXPECT_TRUE(Names.count("naive-f2-node")) << Inst.Name;
    ++Checked;
  }
  EXPECT_EQ(Checked, 3);
}

/// Finds an sp-option instance with more than the planted 6-edge floor,
/// so minimization has real work to do.
static FuzzInstance findShrinkableSpOption(uint64_t &SeedOut) {
  for (uint64_t I = 0;; ++I) {
    uint64_t Seed = mixSeed(1, I);
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Seed, Diags);
    if (Inst.Spec.Policy == PolicyKind::SpOption &&
        Inst.Spec.Edges.size() > 6) {
      SeedOut = Seed;
      return Inst;
    }
  }
}

TEST(FuzzOracle, PlantedBugIsCaught) {
  uint64_t Seed = 0;
  FuzzInstance Inst = findShrinkableSpOption(Seed);
  DiagnosticEngine Diags;

  OracleOptions Clean = testOracleOptions();
  OracleVerdict VClean = runOracle(Inst, Clean, Diags);
  EXPECT_TRUE(VClean.Ok) << VClean.Mismatch;

  OracleOptions Buggy = Clean;
  Buggy.InjectBugForTesting = true;
  OracleVerdict VBug = runOracle(Inst, Buggy, Diags);
  ASSERT_FALSE(VBug.Ok) << "planted bug not detected on " << Inst.Name;
  EXPECT_NE(VBug.Mismatch.find("native-wm1"), std::string::npos)
      << VBug.Mismatch;
}

//===----------------------------------------------------------------------===//
// Fault-injection matrix
//===----------------------------------------------------------------------===//

/// Every safe-point site, armed at several countdowns, against the full
/// oracle matrix: the injected fault must degrade the one leg it hits into
/// the canonical skip fingerprint (or miss entirely when the site is never
/// reached), never abort the process and never register as a divergence.
TEST(FuzzFaultInject, EverySiteDegradesToSkipNeverDivergence) {
  DiagnosticEngine Diags;
  FuzzInstance Inst = instanceFromSeed(2, Diags); // sp-option, FT+SMT legs
  ASSERT_FALSE(Inst.NvSource.empty()) << Diags.str();
  OracleOptions Opts = testOracleOptions();

  for (unsigned S = 0; S < NumGovSites; ++S) {
    for (uint64_t Countdown : {uint64_t(1), uint64_t(25)}) {
      GovSite Site = static_cast<GovSite>(S);
      FaultInject::arm(Site, Countdown);
      DiagnosticEngine D;
      OracleVerdict V = runOracle(Inst, Opts, D);
      FaultInject::disarmAll();
      EXPECT_TRUE(V.Ok) << govSiteName(Site) << ":" << Countdown << " — "
                        << V.Mismatch;
      EXPECT_GE(V.Runs.size(), 4u) << govSiteName(Site);
    }
  }
}

/// An immediate fault on the hottest site skips (at least) the first sim
/// leg with the canonical fingerprint; later legs — where the one-shot
/// countdown has already fired — run normally and still agree.
TEST(FuzzFaultInject, ImmediateFaultYieldsCanonicalSkipFingerprint) {
  DiagnosticEngine Diags;
  FuzzInstance Inst = instanceFromSeed(2, Diags);
  ASSERT_FALSE(Inst.NvSource.empty()) << Diags.str();
  OracleOptions Opts = testOracleOptions();

  FaultInject::arm(GovSite::SimPop, 1);
  OracleVerdict V = runOracle(Inst, Opts, Diags);
  FaultInject::disarmAll();

  EXPECT_TRUE(V.Ok) << V.Mismatch;
  bool SawSkip = false, SawNonSkip = false;
  for (const EngineRun &R : V.Runs) {
    if (R.Fingerprint == "skip:resource-limit")
      SawSkip = true;
    else
      SawNonSkip = true;
  }
  EXPECT_TRUE(SawSkip) << "no leg was skipped despite sim-pop:1";
  EXPECT_TRUE(SawNonSkip) << "every leg skipped: one-shot countdown re-fired?";
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(FuzzMinimize, ShrinkCandidatesAreValidSpecs) {
  FuzzSpec S = specFromSeed(12); // sp-option on a FatTree: many edges.
  for (const FuzzSpec &C : shrinkCandidates(S)) {
    DiagnosticEngine Diags;
    FuzzInstance Inst = renderSpec(C, Diags);
    ASSERT_FALSE(Inst.NvSource.empty()) << Diags.str();
    auto P = parseProgram(Inst.NvSource, Diags);
    ASSERT_TRUE(P) << Inst.NvSource << Diags.str();
    EXPECT_TRUE(typeCheck(*P, Diags)) << Inst.NvSource << Diags.str();
  }
}

TEST(FuzzMinimize, ShrinksPlantedBugToEdgeFloor) {
  uint64_t Seed = 0;
  FuzzInstance Inst = findShrinkableSpOption(Seed);
  ASSERT_GT(Inst.Spec.Edges.size(), 6u);

  OracleOptions Buggy = testOracleOptions();
  Buggy.InjectBugForTesting = true;
  MinimizeResult M = minimizeSpec(Inst.Spec, Buggy);

  // The planted bug fires iff edges >= 6, so a 1-minimal repro has
  // exactly 6 edges and still diverges.
  EXPECT_EQ(M.Final.Edges.size(), 6u);
  EXPECT_GT(M.MovesApplied, 0u);
  EXPECT_FALSE(M.Verdict.Ok);

  // The repro is gone once the bug is switched off (it is a repro of the
  // planted bug, not a latent real one).
  DiagnosticEngine Diags;
  OracleOptions Clean = testOracleOptions();
  OracleVerdict VClean = runOracle(M.Instance, Clean, Diags);
  EXPECT_TRUE(VClean.Ok) << VClean.Mismatch;
}

TEST(FuzzMinimize, NonDivergingSpecIsReturnedUnchanged) {
  FuzzSpec S = specFromSeed(2);
  OracleOptions Opts = testOracleOptions();
  MinimizeResult M = minimizeSpec(S, Opts);
  EXPECT_EQ(M.Final, S);
  EXPECT_EQ(M.MovesApplied, 0u);
  EXPECT_TRUE(M.Verdict.Ok);
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

TEST(FuzzCorpus, RoundTripsHeaderAndSource) {
  DiagnosticEngine Diags;
  FuzzInstance Inst = instanceFromSeed(3, Diags); // tuple-lex
  std::string Text = corpusFileText(Inst, "round-trip test");
  auto Back = parseCorpusText(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Spec.Seed, Inst.Spec.Seed);
  EXPECT_EQ(Back->Spec.Policy, Inst.Spec.Policy);
  EXPECT_EQ(Back->SmtComparable, Inst.SmtComparable);
  EXPECT_EQ(Back->FtComparable, Inst.FtComparable);

  // The corpus file *is* a valid NV program (header is an NV comment).
  auto P = parseProgram(Back->NvSource, Diags);
  ASSERT_TRUE(P) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
}

TEST(FuzzCorpus, RejectsFilesWithoutHeader) {
  EXPECT_FALSE(parseCorpusText("let nodes = 2\nlet edges = {0n=1n}\n"));
  EXPECT_FALSE(parseCorpusText(""));
}

#ifdef NV_CORPUS_DIR
TEST(FuzzCorpus, CommittedCorpusReplaysClean) {
  std::vector<std::string> Files = listCorpusFiles(NV_CORPUS_DIR);
  ASSERT_GE(Files.size(), 10u)
      << "regression corpus missing from " << NV_CORPUS_DIR;
  OracleOptions Opts = testOracleOptions();
  for (const std::string &F : Files) {
    auto Inst = loadCorpusFile(F);
    ASSERT_TRUE(Inst.has_value()) << F;
    DiagnosticEngine Diags;
    OracleVerdict V = runOracle(*Inst, Opts, Diags);
    EXPECT_TRUE(V.Ok) << F << ": " << V.Mismatch;
  }
}
#endif

} // namespace
