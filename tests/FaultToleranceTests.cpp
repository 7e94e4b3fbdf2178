//===- FaultToleranceTests.cpp - Fig. 5 meta-protocol tests -----------------===//
//
// The MTBDD fault-tolerance analysis is checked against the naive
// per-scenario simulation baseline: for every scenario, indexing the
// meta-program's converged dict must give exactly the label the scenario's
// own simulation computes.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "support/Journal.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>

using namespace nv;

namespace {

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Shortest-path routing on a configurable topology. The assertion fails
/// on a missing route, and on a present route where \p SomeOk (an NV
/// expression over the hop count d) is false.
std::string spProgram(uint32_t Nodes,
                      const std::vector<std::pair<int, int>> &Links,
                      const std::string &SomeOk = "true") {
  std::string Edges;
  for (size_t I = 0; I < Links.size(); ++I) {
    if (I)
      Edges += ";";
    Edges += std::to_string(Links[I].first) + "n=" +
             std::to_string(Links[I].second) + "n";
  }
  return "let nodes = " + std::to_string(Nodes) +
         "\n"
         "let edges = {" +
         Edges +
         "}\n"
         "let init (u : node) = match u with | 0n -> Some 0 | _ -> None\n"
         "let trans (e : edge) (x : option[int]) =\n"
         "  match x with | None -> None | Some d -> Some (d + 1)\n"
         "let merge (u : node) (x : option[int]) (y : option[int]) =\n"
         "  match x, y with\n"
         "  | _, None -> x\n"
         "  | None, _ -> y\n"
         "  | Some a, Some b -> if a <= b then x else y\n"
         "let assert (u : node) (x : option[int]) =\n"
         "  match x with | None -> false | Some d -> " +
         SomeOk + "\n";
}

/// Diamond: 0-1, 0-2, 1-3, 2-3 — survives any single link failure.
const std::vector<std::pair<int, int>> Diamond = {{0, 1}, {0, 2}, {1, 3},
                                                  {2, 3}};
/// Line: 0-1-2-3 — any link failure cuts reachability.
const std::vector<std::pair<int, int>> Line = {{0, 1}, {1, 2}, {2, 3}};

/// Oracle check: the meta-program's per-scenario routes equal the naive
/// per-scenario simulation's routes, for every node and scenario.
void expectMatchesNaive(const std::string &Src, const FtOptions &Opts) {
  Program P = parseAndCheck(Src);
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();

  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  ASSERT_TRUE(MetaR.Converged);

  InterpProgramEvaluator BaseEval(Ctx, P);
  for (const FtScenario &S : enumerateScenarios(P, Opts)) {
    SimResult NaiveR =
        simulateScenario(P, BaseEval, S, defaultDropValue(Ctx, P.AttrType));
    ASSERT_TRUE(NaiveR.Converged) << S.str();
    const Value *Key = scenarioKey(Ctx, S, Opts);
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      const Value *FromMeta = Ctx.mapGet(MetaR.Labels[U], Key);
      EXPECT_EQ(FromMeta, NaiveR.Labels[U])
          << "scenario " << S.str() << " node " << U << ": meta="
          << FromMeta->str() << " naive=" << NaiveR.Labels[U]->str();
    }
  }
}

/// The per-(scenario, node) lookup the checker's descent replaces: encode
/// each interned scenario key, follow one MTBDD path per node, evaluate the
/// assert on the route found. Returns (scenario index, violation) pairs.
std::vector<std::pair<size_t, FtViolation>>
referenceCheck(NvContext &Ctx, const Program &P, ProtocolEvaluator &BaseEval,
               const SimResult &Meta, const FtOptions &Opts) {
  std::vector<std::pair<size_t, FtViolation>> Out;
  auto Scenarios = enumerateScenarios(P, Opts);
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const FtScenario &S = Scenarios[I];
    std::vector<bool> Bits;
    Ctx.encodeValue(scenarioKey(Ctx, S, Opts), Meta.Labels[0]->KeyType, Bits);
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      if (S.Node && *S.Node == U)
        continue;
      auto *Route = static_cast<const Value *>(
          Ctx.Mgr.get(Meta.Labels[U]->MapRoot, Bits));
      if (!BaseEval.assertAt(U, Route))
        Out.push_back({I, {S, U, Route, {}}});
    }
  }
  return Out;
}

void expectSameViolations(
    const std::vector<FtViolation> &Got,
    const std::vector<std::pair<size_t, FtViolation>> &Want,
    const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Scenario.str(), Want[I].second.Scenario.str())
        << What << " #" << I;
    EXPECT_EQ(Got[I].Node, Want[I].second.Node) << What << " #" << I;
    EXPECT_EQ(Got[I].Route, Want[I].second.Route) << What << " #" << I;
  }
}

/// The checker against referenceCheck: unchunked (serial and sharded), and
/// chunk by chunk, where every record must equal the matching slice of the
/// reference.
void expectMatchesReference(const std::string &Src, FtOptions Opts) {
  Program P = parseAndCheck(Src);
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  ASSERT_TRUE(MetaR.Converged);
  InterpProgramEvaluator BaseEval(Ctx, P);

  auto Want = referenceCheck(Ctx, P, BaseEval, MetaR, Opts);
  EXPECT_FALSE(Want.empty());
  expectSameViolations(
      checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts).Violations, Want,
      "serial");
  ThreadPool Pool(3);
  expectSameViolations(
      checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts, &Pool).Violations,
      Want, "3 threads");

  size_t NumScenarios = enumerateScenarios(P, Opts).size();
  ASSERT_NE(NumScenarios % Opts.CheckChunkSize, 0u)
      << "the chunk size must leave a partial last chunk";
  FtChecker Checker(Ctx, P, BaseEval, MetaR, Opts);
  ASSERT_EQ(Checker.chunks().count(),
            (NumScenarios + Opts.CheckChunkSize - 1) / Opts.CheckChunkSize);
  for (size_t C = 0; C < Checker.chunks().count(); ++C) {
    UnitRecord Expected;
    Expected.Key = FtChunks::key(C);
    Expected.add("status", "ok");
    for (const auto &[I, V] : Want)
      if (I / Opts.CheckChunkSize == C)
        addViolationField(Expected, I, V);
    EXPECT_EQ(Checker.checkChunk(C).render(), Expected.render())
        << "chunk " << C;
  }
}

/// Seven links listed out of node-id order (neither the pairs nor the list
/// are sorted), so key order (link index) differs from node-id order.
const std::vector<std::pair<int, int>> Shuffled = {
    {4, 5}, {3, 0}, {2, 1}, {5, 0}, {1, 4}, {3, 2}, {0, 1}};

TEST(FaultTolerance, DescentMatchesPerScenarioLookup) {
  for (unsigned Links : {1u, 2u, 3u})
    for (bool Node : {false, true}) {
      SCOPED_TRACE(std::to_string(Links) + " links" +
                   (Node ? " + node" : ""));
      FtOptions Opts;
      Opts.LinkFailures = Links;
      Opts.NodeFailure = Node;
      Opts.CheckChunkSize = 5;
      expectMatchesReference(spProgram(6, Shuffled, "d <= 2"), Opts);
    }
}

TEST(FaultTolerance, DescentMatchesPerScenarioLookupOnSparseTopology) {
  // 300 nodes, most of them isolated, which never have a route.
  FtOptions Opts;
  Opts.LinkFailures = 4;
  Opts.CheckChunkSize = 64;
  expectMatchesReference(
      spProgram(300,
                {{299, 3}, {0, 257}, {257, 3}, {3, 128}, {128, 0}, {299, 0},
                 {128, 257}},
                "d <= 1"),
      Opts);
}

TEST(FaultTolerance, DescentMatchesPerScenarioLookupOnWideKeys) {
  // The diamond's four links take 2 bits each: 33 of them give a 66-bit
  // key, so keys span two words. On the diamond the last field still
  // changes routes (0-1 alone reroutes node 1; with 2-3 it cuts it off).
  FtOptions Opts;
  Opts.LinkFailures = 33;
  Opts.CheckChunkSize = 64;
  expectMatchesReference(spProgram(4, Diamond, "d <= 2"), Opts);
}

/// (scenario, node, route) of each violation, in result order.
std::vector<std::string> violationStrs(const FtCheckResult &R) {
  std::vector<std::string> Out;
  for (const FtViolation &V : R.Violations)
    Out.push_back(V.Scenario.str() + "@" + std::to_string(V.Node) + "=" +
                  V.routeStr());
  return Out;
}

/// A converged meta-simulation whose chunk size leaves a partial last
/// chunk, and a scratch journal for the checkpointed check.
class FtCheckpoint : public ::testing::Test {
protected:
  static FtOptions options() {
    FtOptions Opts;
    Opts.LinkFailures = 2;
    Opts.CheckChunkSize = 5;
    return Opts;
  }

  void SetUp() override {
    ASSERT_TRUE(Meta.has_value()) << Diags.str();
    ASSERT_TRUE(MetaR.Converged);
    Binding.set("tool", "fault-tolerance-tests");
    std::remove(Path.c_str());
  }
  void TearDown() override { std::remove(Path.c_str()); }

  /// Runs the checkpointed check against the journal at Path.
  FtCheckResult resume(FtOptions Resumed = options()) {
    auto L = ResumeLog::open(Path, Binding);
    EXPECT_TRUE(L.Log) << L.Error;
    Resumed.Resume = L.Log.get();
    return checkFaultTolerance(Ctx, P, BaseEval, MetaR, Resumed);
  }

  Program P = parseAndCheck(spProgram(6, Shuffled, "d <= 2"));
  FtOptions Opts = options();
  DiagnosticEngine Diags;
  std::optional<Program> Meta = makeFaultTolerantProgram(P, Opts, Diags);
  NvContext Ctx{P.numNodes()};
  InterpProgramEvaluator MetaEval{Ctx, *Meta};
  SimResult MetaR = simulate(*Meta, MetaEval);
  InterpProgramEvaluator BaseEval{Ctx, P};
  std::string Path = ::testing::TempDir() + "nv_ft_checkpoint_journal";
  RunBinding Binding;
};

TEST_F(FtCheckpoint, ResumesFromChunkRecords) {
  // Some chunks' records are journaled up front, as a fleet worker would
  // send them; the checkpointed check must replay those, check the rest,
  // and agree with a run without a journal.
  FtCheckResult Ref = checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts);
  ASSERT_FALSE(Ref.Violations.empty());
  size_t NumScenarios = Ref.ScenariosChecked;
  ASSERT_NE(NumScenarios % Opts.CheckChunkSize, 0u)
      << "the chunk size must leave a partial last chunk";
  size_t NumChunks =
      (NumScenarios + Opts.CheckChunkSize - 1) / Opts.CheckChunkSize;
  ASSERT_GE(NumChunks, 4u);

  // The first, a middle and the (partial) last chunk are prefilled.
  std::vector<size_t> Prefilled = {0, 2, NumChunks - 1};
  uint64_t PrefilledScenarios = 0;
  {
    auto L = ResumeLog::open(Path, Binding);
    ASSERT_TRUE(L.Log) << L.Error;
    FtChecker Checker(Ctx, P, BaseEval, MetaR, Opts);
    for (size_t C : Prefilled) {
      L.Log->recordDone(Checker.checkChunk(C));
      PrefilledScenarios +=
          std::min(NumScenarios, (C + 1) * Opts.CheckChunkSize) -
          C * Opts.CheckChunkSize;
    }
  }

  FtCheckResult R = resume();
  EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.str();
  EXPECT_EQ(R.ScenariosChecked, Ref.ScenariosChecked);
  EXPECT_EQ(R.ScenariosReplayed, PrefilledScenarios);
  EXPECT_EQ(violationStrs(R), violationStrs(Ref));

  // The journal now holds every chunk exactly once.
  JournalRead JR = readJournal(Path);
  ASSERT_EQ(JR.St, JournalRead::State::Ok) << JR.Error;
  std::set<std::string> Keys;
  for (const std::string &E : JR.Entries) {
    UnitRecord Rec;
    ASSERT_TRUE(UnitRecord::parse(E, Rec));
    Keys.insert(Rec.Key);
  }
  EXPECT_EQ(JR.Entries.size(), NumChunks);
  std::set<std::string> Want;
  for (size_t C = 0; C < NumChunks; ++C)
    Want.insert(FtChunks::key(C));
  EXPECT_EQ(Keys, Want);
}

TEST_F(FtCheckpoint, CancelStopsBetweenChunksAndRecordsNothing) {
  CancelToken Tok;
  Tok.requestCancel();
  FtOptions Canceled = Opts;
  Canceled.Budget.Cancel = &Tok;
  FtCheckResult R = resume(Canceled);
  EXPECT_EQ(R.Outcome.Status, RunStatus::Canceled) << R.Outcome.str();
  EXPECT_EQ(R.ScenariosChecked, 0u);
  EXPECT_TRUE(readJournal(Path).Entries.empty());
}

TEST_F(FtCheckpoint, MalformedReplayedRecordIsReported) {
  {
    auto L = ResumeLog::open(Path, Binding);
    ASSERT_TRUE(L.Log) << L.Error;
    UnitRecord Bad;
    Bad.Key = "c1";
    Bad.add("status", "ok");
    Bad.add("v", "not-a-violation");
    L.Log->recordDone(Bad);
  }
  FtCheckResult R = resume();
  EXPECT_EQ(R.Outcome.Status, RunStatus::EvalError) << R.Outcome.str();
}

TEST(FaultTolerance, PackedKeyEqualsEncodedValue) {
  // 1500 nodes take 11 bits. Link counts: 1 (a 1-bit field), 2^12 (every
  // 12-bit code is a link) and 5000 (13 bits, codes to spare). Six
  // 13-bit links after a node are 89 bits, so fields straddle words.
  const uint32_t Nodes = 1500;
  NvContext Ctx(Nodes);
  unsigned NodeBits = Ctx.Layout.nodeBits();
  ASSERT_EQ(NodeBits, 11u);
  std::mt19937 Rng(7);
  std::uniform_int_distribution<uint32_t> Id(0, Nodes - 1);
  for (uint32_t NumLinks : {1u, 4096u, 5000u}) {
    unsigned Bits = linkIndexBits(NumLinks);
    std::uniform_int_distribution<uint32_t> Link(0, NumLinks - 1);
    for (unsigned Links : {1u, 2u, 3u, 6u})
      for (bool Node : {false, true}) {
        FtOptions Opts;
        Opts.LinkFailures = Links;
        Opts.NodeFailure = Node;
        std::vector<TypePtr> Parts;
        if (Node)
          Parts.push_back(Type::nodeTy());
        for (unsigned L = 0; L < Links; ++L)
          Parts.push_back(Type::intTy(Bits));
        TypePtr KeyTy = Parts.size() == 1 ? Parts[0] : Type::tupleTy(Parts);
        unsigned Width = scenarioKeyWidth(Opts, NodeBits, NumLinks);
        ASSERT_EQ(Width, Ctx.Layout.widthOf(KeyTy));
        for (int Trial = 0; Trial < 200; ++Trial) {
          FtScenario S;
          if (Node)
            S.Node = Id(Rng);
          for (unsigned L = 0; L < Links; ++L)
            S.Links.push_back({Id(Rng), Id(Rng), Link(Rng), Bits});
          std::vector<bool> Want;
          Ctx.encodeValue(scenarioKey(Ctx, S, Opts), KeyTy, Want);
          ASSERT_EQ(Want.size(), Width);
          std::vector<uint64_t> Words((Width + 63) / 64, ~uint64_t(0));
          packScenarioKey(S, Opts, NodeBits, Words.data());
          for (unsigned B = 0; B < Width; ++B)
            ASSERT_EQ(bool((Words[B / 64] >> (63 - B % 64)) & 1), Want[B])
                << NumLinks << " links " << S.str() << " bit " << B;
          // Padding past the key stays zero, so packed keys compare as keys.
          if (Width % 64) {
            EXPECT_EQ(Words.back() << (Width % 64), 0u) << S.str();
          }
        }
      }
  }
}

TEST(FaultTolerance, KeyWidthIsLinkFieldsPlusNode) {
  // f fields of ceil(log2 |links|) bits (at least 1), plus NodeBits for a
  // node failure; the meta-program's key type agrees.
  for (auto [NumLinks, Bits] : std::vector<std::pair<int, unsigned>>{
           {1, 1}, {2, 1}, {6, 3}, {8, 3}, {9, 4}}) {
    std::vector<std::pair<int, int>> Ring;
    for (int I = 0; I < NumLinks; ++I)
      Ring.push_back({I, (I + 1) % 10});
    Program P = parseAndCheck(spProgram(10, Ring));
    EXPECT_EQ(linkIndexBits(NumLinks), Bits) << NumLinks;
    for (unsigned F : {0u, 1u, 2u, 3u})
      for (bool Node : {false, true}) {
        if (!F && !Node)
          continue;
        SCOPED_TRACE(std::to_string(NumLinks) + " links, f=" +
                     std::to_string(F) + (Node ? " + node" : ""));
        FtOptions Opts;
        Opts.LinkFailures = F;
        Opts.NodeFailure = Node;
        unsigned Want = F * Bits + (Node ? 4 : 0); // 10 nodes: 4 bits
        EXPECT_EQ(scenarioKeyWidth(Opts, 4, NumLinks), Want);
        DiagnosticEngine Diags;
        auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
        ASSERT_TRUE(Meta.has_value()) << Diags.str();
        NvContext Ctx(P.numNodes());
        InterpProgramEvaluator Eval(Ctx, *Meta);
        SimResult R = simulate(*Meta, Eval);
        ASSERT_TRUE(R.Converged);
        EXPECT_EQ(R.Labels[0]->KeyBits, Want);
      }
  }
}

/// Eight links on six nodes: every 3-bit link code names a link.
const std::vector<std::pair<int, int>> EightLinks = {
    {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {2, 5}, {1, 4}};

TEST(FaultTolerance, TwoLinksMatchesNaiveWithNoSpareCodes) {
  for (bool Node : {false, true}) {
    SCOPED_TRACE(Node ? "node" : "links only");
    FtOptions Opts;
    Opts.LinkFailures = 2;
    Opts.NodeFailure = Node;
    expectMatchesNaive(spProgram(6, EightLinks), Opts);
  }
}

TEST(FaultTolerance, LinkDeclaredTwiceMatchesNaive) {
  // 0-1 is declared in both orientations and 2-3 twice: each declaration
  // is its own scenario link, and failing either fails the link.
  for (bool Node : {false, true}) {
    SCOPED_TRACE(Node ? "node" : "links only");
    FtOptions Opts;
    Opts.LinkFailures = 2;
    Opts.NodeFailure = Node;
    expectMatchesNaive(
        spProgram(4, {{0, 1}, {1, 0}, {0, 2}, {2, 3}, {1, 3}, {2, 3}}), Opts);
  }
}

TEST(FaultTolerance, SingleLinkMatchesNaiveOnDiamond) {
  expectMatchesNaive(spProgram(4, Diamond), FtOptions{});
}

TEST(FaultTolerance, SingleLinkMatchesNaiveOnLine) {
  expectMatchesNaive(spProgram(4, Line), FtOptions{});
}

TEST(FaultTolerance, TwoLinksMatchesNaive) {
  FtOptions Opts;
  Opts.LinkFailures = 2;
  expectMatchesNaive(spProgram(4, Diamond), Opts);
}

TEST(FaultTolerance, NodeAndLinkMatchesNaive) {
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 1;
  expectMatchesNaive(spProgram(4, Diamond), Opts);
}

TEST(FaultTolerance, NodeOnlyMatchesNaive) {
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 0;
  expectMatchesNaive(spProgram(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}),
                     Opts);
}

TEST(FaultTolerance, DropValueIsDerivedFromTheAttributeType) {
  // Shortest paths per prefix, a dict of option routes: the shape the
  // route-map frontend emits.
  const char *DictSrc = R"nv(
type attribute = dict[int2, option[int]]
let nodes = 4
let edges = {0n=1n;0n=2n;1n=3n;2n=3n}
let init (u : node) : attribute =
  let m : attribute = createDict None in
  match u with | 0n -> m[1u2 := Some 0] | 3n -> m[2u2 := Some 0] | _ -> m
let trans (e : edge) (x : attribute) =
  map (fun (v : option[int]) ->
         match v with | None -> None | Some d -> Some (d + 1)) x
let merge (u : node) (x : attribute) (y : attribute) =
  combine (fun (a : option[int]) (b : option[int]) ->
             match a, b with
             | _, None -> a
             | None, _ -> b
             | Some p, Some q -> if p <= q then a else b) x y
let assert (u : node) (x : attribute) =
  match x[1u2] with | None -> false | Some d -> d < 2
)nv";
  std::string Error;
  EXPECT_EQ(defaultDropSource(parseAndCheck(spProgram(4, Line)).AttrType,
                              Error),
            "None");
  Program Dict = parseAndCheck(DictSrc);
  EXPECT_EQ(defaultDropSource(Dict.AttrType, Error), "createDict (None)");
  for (bool Node : {false, true}) {
    SCOPED_TRACE(Node ? "node" : "links only");
    FtOptions Opts;
    Opts.NodeFailure = Node;
    expectMatchesNaive(DictSrc, Opts);
  }

  Program Int = parseAndCheck("let nodes = 2\nlet edges = {0n=1n}\n"
                              "let init (u : node) = 0\n"
                              "let trans (e : edge) (x : int) = x + 1\n"
                              "let merge (u : node) (x : int) (y : int) = x\n");
  EXPECT_EQ(defaultDropSource(Int.AttrType, Error), "");
  EXPECT_NE(Error.find("attribute type int"), std::string::npos) << Error;
  DiagnosticEngine Diags;
  EXPECT_FALSE(makeFaultTolerantProgram(Int, FtOptions{}, Diags));
  EXPECT_NE(Diags.str().find("attribute type int"), std::string::npos);
}

TEST(FaultTolerance, BgpPolicyMatchesNaive) {
  // The Fig. 2 BGP model (lp/med tie-breaking) under single link failure.
  const char *Src = R"nv(
include bgp
let nodes = 5
let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  match u with
  | 0n -> Some {length = 0; lp = 100; med = 80; comms = {}; origin = 0n}
  | _ -> None
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> b.origin = 0n
)nv";
  expectMatchesNaive(Src, FtOptions{});
}

TEST(FaultTolerance, DiamondSurvivesSingleFailure) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_TRUE(R.Check.holds());
  EXPECT_EQ(R.Check.ScenariosChecked, 4u);
}

TEST(FaultTolerance, LineViolatesSingleFailure) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_FALSE(R.Check.holds());
  // Failing link 1-2 cuts nodes 2 and 3; failing 2-3 cuts node 3; failing
  // 0-1 cuts 1, 2, 3.
  EXPECT_EQ(R.Check.Violations.size(), 6u);
}

TEST(FaultTolerance, DiamondDoesNotSurviveTwoFailures) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  FtOptions Opts;
  Opts.LinkFailures = 2;
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_FALSE(R.Check.holds());
}

TEST(FaultTolerance, CompiledEvaluatorAgrees) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  FtRunResult RI = runFaultTolerance(P, FtOptions{}, false, Diags);
  FtRunResult RC = runFaultTolerance(P, FtOptions{}, true, Diags);
  ASSERT_TRUE(RI.Converged && RC.Converged);
  EXPECT_EQ(RI.Check.holds(), RC.Check.holds());
  EXPECT_EQ(RI.Check.Violations.size(), RC.Check.Violations.size());
}

TEST(FaultTolerance, SharingCollapsesScenarios) {
  // Fig. 4's insight: the number of distinct routes across scenarios is
  // far below the number of scenarios. On the diamond, node 3's dict over
  // 4+ scenarios holds at most 3 distinct routes.
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, *Meta);
  SimResult R = simulate(*Meta, Eval);
  ASSERT_TRUE(R.Converged);
  for (uint32_t U = 0; U < 4; ++U) {
    ASSERT_EQ(R.Labels[U]->K, Value::Kind::Map);
    EXPECT_LE(Ctx.Mgr.numDistinctLeaves(R.Labels[U]->MapRoot), 3u) << U;
  }
}

TEST(FaultTolerance, GeneratedProgramPrintsAndReparses) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  std::string Printed = printProgram(*Meta);
  DiagnosticEngine D2;
  auto Again = parseProgram(Printed, D2);
  ASSERT_TRUE(Again.has_value()) << D2.str() << "\n" << Printed;
  EXPECT_TRUE(typeCheck(*Again, D2)) << D2.str();
}

} // namespace
