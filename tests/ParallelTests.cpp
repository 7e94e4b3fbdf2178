//===- ParallelTests.cpp - sharded-analysis determinism tests ----------------===//
//
// The parallel analyses must be bit-for-bit deterministic: the naive
// baseline, the Batfish baseline and the meta-protocol's assert check all
// promise output identical to their serial runs for any pool size. Also
// pins the two serial-kernel overhauls the shards run on: the
// direct-mapped (lossy) MTBDD op cache stays correct under eviction and
// grows with the node store without losing entries, and the simulator's
// flat receive table computes the same fixpoint as the
// synchronous-iteration oracle on a random topology.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/BatfishSim.h"
#include "baselines/NaiveFailures.h"
#include "bdd/Mtbdd.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "net/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <tuple>

using namespace nv;

namespace {

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Shortest-path routing with an all-nodes-reachable assertion.
std::string spProgram(uint32_t Nodes,
                      const std::vector<std::pair<int, int>> &Links) {
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
         "  match x with | None -> false | Some d -> true\n";
}

/// Line 0-1-2-3: every single-link failure breaks reachability, so the
/// naive/meta analyses report a non-trivial violation list whose order we
/// can compare across pool sizes.
const std::vector<std::pair<int, int>> Line = {{0, 1}, {1, 2}, {2, 3}};

/// Comparable projection of a violation list (routes by string: parallel
/// shards intern them in different arenas).
std::vector<std::tuple<std::string, uint32_t, std::string>>
violationKeys(const FtCheckResult &R) {
  std::vector<std::tuple<std::string, uint32_t, std::string>> Out;
  for (const FtViolation &V : R.Violations)
    Out.push_back({V.Scenario.str(), V.Node, V.Route->str()});
  return Out;
}

//===----------------------------------------------------------------------===//
// Naive baseline: serial vs sharded
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, NaiveBaselineIdenticalAcrossPoolSizes) {
  Program P = parseAndCheck(spProgram(4, Line));

  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  FtCheckResult Serial = naiveFaultTolerance(P, Eval, FtOptions{}, Ctx.noneV());
  EXPECT_EQ(Serial.ScenariosChecked, 3u);
  EXPECT_FALSE(Serial.holds());
  auto SerialKeys = violationKeys(Serial);

  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    FtCheckResult Par = naiveFaultToleranceParallel(P, FtOptions{}, Pool);
    EXPECT_EQ(Par.ScenariosChecked, Serial.ScenariosChecked) << Threads;
    EXPECT_EQ(violationKeys(Par), SerialKeys) << Threads << " threads";
    // Route pointers must stay valid: their arenas ride along.
    for (const FtViolation &V : Par.Violations)
      EXPECT_FALSE(V.Route->str().empty());
  }
}

//===----------------------------------------------------------------------===//
// Batfish baseline: serial vs sharded
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, BatfishBaselineIdenticalAcrossPoolSizes) {
  DiagnosticEngine Diags;
  auto Param = loadGenerated(generateSpSingleParam(4), Diags);
  ASSERT_TRUE(Param.has_value()) << Diags.str();
  auto Leaves = FatTree(4).leaves();
  ASSERT_GT(Leaves.size(), 1u);

  // Hop count of the selected route; pure in its argument.
  auto Extract = [](const Value *V) -> int64_t {
    return V->isSome() ? static_cast<int64_t>(V->Inner->I) : -1;
  };

  BatfishResult Serial = batfishAllPrefixes(*Param, Leaves, Extract);
  ASSERT_TRUE(Serial.Converged);
  EXPECT_EQ(Serial.PrefixesSimulated, Leaves.size());

  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool Pool(Threads);
    BatfishResult Par = batfishAllPrefixes(*Param, Leaves, Extract, &Pool);
    EXPECT_EQ(Par.Converged, Serial.Converged);
    EXPECT_EQ(Par.PrefixesSimulated, Serial.PrefixesSimulated);
    EXPECT_EQ(Par.TotalPops, Serial.TotalPops) << Threads;
    EXPECT_EQ(Par.TotalValuesAllocated, Serial.TotalValuesAllocated)
        << Threads;
    EXPECT_EQ(Par.Labels, Serial.Labels) << Threads << " threads";
  }
}

//===----------------------------------------------------------------------===//
// Meta-protocol assert check: serial vs sharded indexing
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, FtCheckIdenticalAcrossPoolSizes) {
  Program P = parseAndCheck(spProgram(4, Line));
  FtOptions Opts;
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();

  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  ASSERT_TRUE(MetaR.Converged);
  InterpProgramEvaluator BaseEval(Ctx, P);

  FtCheckResult Serial =
      checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts, nullptr);
  EXPECT_EQ(Serial.Violations.size(), 6u);

  for (unsigned Threads : {2u, 8u}) {
    ThreadPool Pool(Threads);
    FtCheckResult Par =
        checkFaultTolerance(Ctx, P, BaseEval, MetaR, Opts, &Pool);
    ASSERT_EQ(Par.Violations.size(), Serial.Violations.size()) << Threads;
    for (size_t I = 0; I < Par.Violations.size(); ++I) {
      EXPECT_EQ(Par.Violations[I].Scenario.str(),
                Serial.Violations[I].Scenario.str());
      EXPECT_EQ(Par.Violations[I].Node, Serial.Violations[I].Node);
      // Same context on both sides: even the interned route pointers match.
      EXPECT_EQ(Par.Violations[I].Route, Serial.Violations[I].Route);
    }
  }
}

TEST(ParallelDeterminism, RunFaultToleranceThreadsOptionAgrees) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtOptions Serial1;
  FtRunResult A = runFaultTolerance(P, Serial1, /*Compiled=*/false, Diags);
  FtOptions Par;
  Par.Threads = 4;
  FtRunResult B = runFaultTolerance(P, Par, /*Compiled=*/false, Diags);
  ASSERT_TRUE(A.Converged && B.Converged);
  ASSERT_EQ(A.Check.Violations.size(), B.Check.Violations.size());
  for (size_t I = 0; I < A.Check.Violations.size(); ++I) {
    EXPECT_EQ(A.Check.Violations[I].Scenario.str(),
              B.Check.Violations[I].Scenario.str());
    EXPECT_EQ(A.Check.Violations[I].Node, B.Check.Violations[I].Node);
  }
}

//===----------------------------------------------------------------------===//
// Direct-mapped op cache: eviction and growth never change results
//===----------------------------------------------------------------------===//

TEST(OpCache, SlotsRoundUpToPowerOfTwo) {
  EXPECT_EQ(BddManager(1).opCacheSlots(), 16u);
  EXPECT_EQ(BddManager(16).opCacheSlots(), 16u);
  EXPECT_EQ(BddManager(17).opCacheSlots(), 32u);
  // The argument is the cap; a fresh manager starts at min(cap, 2^11).
  EXPECT_EQ(BddManager::InitialOpCacheSlots, size_t(1) << 11);
  EXPECT_EQ(BddManager().opCacheSlots(),
            std::min(BddManager::MaxOpCacheSlots,
                     BddManager::InitialOpCacheSlots));
}

/// Random map over \p Bits key bits with \p Updates keyed updates.
BddManager::Ref randomMap(BddManager &M, unsigned Bits, int Updates,
                          const int *Payloads, unsigned NumPayloads,
                          std::mt19937 &Rng) {
  BddManager::Ref R = M.leaf(&Payloads[0]);
  for (int S = 0; S < Updates; ++S) {
    std::vector<bool> Key(Bits);
    for (unsigned B = 0; B < Bits; ++B)
      Key[B] = Rng() & 1;
    R = M.set(R, Key, &Payloads[Rng() % NumPayloads]);
  }
  return R;
}

/// Builds random 12-bit maps until \p M holds at least \p Target nodes
/// (overshooting by at most one map). set() never touches the op cache,
/// so only growth can change it.
void growNodeStore(BddManager &M, size_t Target, std::mt19937 &Rng) {
  static int Payloads[97];
  while (M.numNodes() < Target)
    randomMap(M, 12, 16, Payloads, 97, Rng);
}

/// The slot count a manager that never collected must have at \p Nodes
/// nodes: the smallest power of two >= 2 * Nodes, at least the initial
/// size, at most the cap.
size_t expectedOpCacheSlots(size_t Nodes, size_t Cap) {
  size_t Slots = std::min(Cap, BddManager::InitialOpCacheSlots);
  while (Slots < Cap && Slots < 2 * Nodes)
    Slots <<= 1;
  return Slots;
}

TEST(OpCache, GrowsToTwiceTheNodeCountUpToTheCap) {
  std::mt19937 Rng(11);
  for (size_t Cap : {size_t(1) << 11, size_t(1) << 13,
                     BddManager::MaxOpCacheSlots}) {
    BddManager M(Cap);
    for (size_t Target = 1; Target < 9000; Target += 97) {
      growNodeStore(M, Target, Rng);
      const size_t Slots = M.opCacheSlots();
      EXPECT_EQ(Slots, expectedOpCacheSlots(M.numNodes(), Cap))
          << "cap " << Cap << ", " << M.numNodes() << " nodes";
      EXPECT_LE(Slots, Cap);
      EXPECT_GE(Slots, std::min(Cap, 2 * M.numNodes()));
    }
  }
}

TEST(OpCache, SixteenSlotCapNeverGrows) {
  std::mt19937 Rng(12);
  for (size_t Cap : {1u, 16u}) {
    BddManager M(Cap);
    for (size_t Target = 1; Target < 5000; Target += 499) {
      growNodeStore(M, Target, Rng);
      EXPECT_EQ(M.opCacheSlots(), 16u) << M.numNodes() << " nodes";
    }
  }
}

TEST(OpCache, EntriesSurviveGrowth) {
  static int Payloads[16];
  std::mt19937 Rng(5);
  BddManager M;
  std::vector<BddManager::Ref> Maps;
  for (int I = 0; I < 8; ++I)
    Maps.push_back(randomMap(M, 6, 6, Payloads, 16, Rng));
  auto Max = [](const void *A, const void *B) { return A > B ? A : B; };
  const uint64_t Tag = M.freshOpTag();
  auto Round = [&]() {
    std::vector<BddManager::Ref> Out;
    for (size_t I = 0; I + 1 < Maps.size(); ++I)
      Out.push_back(M.apply2(Maps[I], Maps[I + 1], Max, Tag));
    return Out;
  };
  const std::vector<BddManager::Ref> First = Round();
  // Precondition: every top-level entry is still cached, so a repeat is
  // all hits and leaves the cache as it was.
  uint64_t Misses = M.cacheMisses();
  ASSERT_EQ(Round(), First);
  ASSERT_EQ(M.cacheMisses(), Misses);

  // Two doublings: about three quarters of the entries change slot.
  const size_t Slots = M.opCacheSlots();
  growNodeStore(M, Slots + 1, Rng);
  ASSERT_EQ(M.opCacheSlots(), 4 * Slots);

  EXPECT_EQ(Round(), First);
  EXPECT_EQ(M.cacheMisses(), Misses);
}

TEST(OpCache, GrowthMidApplyAgreesWithTinyAndUncached) {
  // Operands stay under the first growth threshold (1024 nodes); the
  // apply2 that combines them creates enough nodes to grow the cache
  // while its recursion still has entries in flight.
  static int Payloads[64];
  const unsigned Bits = 12;
  auto Run = [&](BddManager &M) {
    std::mt19937 Rng(9);
    BddManager::Ref X = randomMap(M, Bits, 40, Payloads, 64, Rng);
    BddManager::Ref Y = randomMap(M, Bits, 40, Payloads, 64, Rng);
    auto Mix = [](const void *A, const void *B) {
      auto IA = static_cast<const int *>(A) - Payloads;
      auto IB = static_cast<const int *>(B) - Payloads;
      return static_cast<const void *>(&Payloads[(IA * 7 + IB) % 64]);
    };
    const size_t NodesBefore = M.numNodes(), SlotsBefore = M.opCacheSlots();
    BddManager::Ref Z = M.apply2(X, Y, Mix, M.freshOpTag());
    std::vector<const void *> Keys;
    M.forEachKey(Z, Bits, [&](const std::vector<bool> &, const void *L) {
      Keys.push_back(L);
    });
    return std::make_tuple(Keys, NodesBefore, SlotsBefore, M.numNodes(),
                           M.opCacheSlots());
  };

  BddManager Growing, Tiny(16), Uncached;
  Uncached.setCachingEnabled(false);
  auto [Keys, NodesBefore, SlotsBefore, NodesAfter, SlotsAfter] =
      Run(Growing);
  ASSERT_LT(NodesBefore, 1024u);
  ASSERT_GT(NodesAfter, 1024u);
  ASSERT_EQ(SlotsBefore, BddManager::InitialOpCacheSlots);
  ASSERT_GT(SlotsAfter, SlotsBefore);
  EXPECT_EQ(Keys, std::get<0>(Run(Tiny)));
  EXPECT_EQ(Keys, std::get<0>(Run(Uncached)));
  EXPECT_GT(Growing.cacheHits(), 0u);
}

TEST(OpCache, EvictionUnderTinyCacheStaysCorrect) {
  // 16-slot cache + dozens of live (Tag, A, B) triples: most lookups
  // collide and entries get overwritten constantly. Every result must
  // still equal the uncached recomputation (hash-consing makes equal
  // diagrams identical refs within one manager).
  static int Payloads[64];
  BddManager M(1); // 16 slots
  ASSERT_EQ(M.opCacheSlots(), 16u);

  const unsigned Bits = 5;
  std::mt19937 Rng(7);
  auto RandomMap = [&]() {
    BddManager::Ref R = M.leaf(&Payloads[0]);
    for (int S = 0; S < 8; ++S) {
      std::vector<bool> Key(Bits);
      for (unsigned B = 0; B < Bits; ++B)
        Key[B] = Rng() & 1;
      R = M.set(R, Key, &Payloads[Rng() % 64]);
    }
    return R;
  };

  auto Min = [](const void *A, const void *B) {
    return A < B ? A : B; // arbitrary but deterministic on interned leaves
  };

  std::vector<BddManager::Ref> Maps;
  for (int I = 0; I < 12; ++I)
    Maps.push_back(RandomMap());

  // Round 1: cached, with heavy eviction across 3 distinct tags.
  uint64_t Tags[3] = {M.freshOpTag(), M.freshOpTag(), M.freshOpTag()};
  std::vector<BddManager::Ref> Cached;
  for (size_t I = 0; I < Maps.size(); ++I)
    for (size_t K = 0; K < Maps.size(); ++K)
      Cached.push_back(M.apply2(Maps[I], Maps[K], Min, Tags[(I + K) % 3]));
  EXPECT_GT(M.cacheMisses(), 0u);

  // Round 2: caching off — ground truth.
  M.clearCaches();
  M.setCachingEnabled(false);
  size_t Idx = 0;
  for (size_t I = 0; I < Maps.size(); ++I)
    for (size_t K = 0; K < Maps.size(); ++K)
      EXPECT_EQ(Cached[Idx++],
                M.apply2(Maps[I], Maps[K], Min, Tags[(I + K) % 3]))
          << "pair " << I << "," << K;
}

TEST(OpCache, TinyCacheAgreesWithDefaultCache) {
  // The same op sequence on a 16-slot and a default-size manager must
  // produce structurally identical diagrams (compared via forEachKey).
  static int Payloads[8];
  auto Run = [&](BddManager &M, std::vector<std::vector<const void *>> &Out) {
    const unsigned Bits = 3;
    auto Add = [](const void *A, const void *B) {
      return A > B ? A : B;
    };
    BddManager::Ref X = M.leaf(&Payloads[0]);
    BddManager::Ref Y = M.leaf(&Payloads[1]);
    for (int S = 0; S < 6; ++S) {
      std::vector<bool> Key(Bits);
      for (unsigned B = 0; B < Bits; ++B)
        Key[B] = (S >> B) & 1;
      X = M.set(X, Key, &Payloads[(S + 2) % 8]);
      Y = M.set(Y, Key, &Payloads[(S * 3) % 8]);
    }
    BddManager::Ref Z = M.apply2(X, Y, Add, M.freshOpTag());
    Z = M.map1(Z, [](const void *L) { return L; }, M.freshOpTag());
    std::vector<const void *> Row;
    M.forEachKey(Z, Bits, [&](const std::vector<bool> &, const void *L) {
      Row.push_back(L);
    });
    Out.push_back(Row);
  };
  std::vector<std::vector<const void *>> Tiny, Default;
  BddManager MT(1), MD;
  Run(MT, Tiny);
  Run(MD, Default);
  EXPECT_EQ(Tiny, Default);
}

//===----------------------------------------------------------------------===//
// Flat receive table: fixpoint matches BFS oracle on a random topology
//===----------------------------------------------------------------------===//

TEST(FlatReceiveTable, MatchesBfsOracleOnRandomTopology) {
  // Random connected graph: a random spanning tree plus extra edges,
  // fixed seed. The shortest-path program's fixpoint must equal BFS
  // hop counts from node 0, under both merge strategies (the incremental
  // path and the full re-merge path scan the receive table differently).
  const uint32_t N = 14;
  std::mt19937 Rng(42);
  std::vector<std::pair<int, int>> Links;
  for (uint32_t V = 1; V < N; ++V)
    Links.push_back({static_cast<int>(Rng() % V), static_cast<int>(V)});
  for (int Extra = 0; Extra < 10; ++Extra) {
    uint32_t A = Rng() % N, B = Rng() % N;
    if (A == B)
      continue;
    auto E = std::make_pair(static_cast<int>(std::min(A, B)),
                            static_cast<int>(std::max(A, B)));
    bool Dup = false;
    for (auto &L : Links)
      Dup |= L == E;
    if (!Dup)
      Links.push_back(E);
  }

  // BFS oracle over the undirected topology.
  std::vector<int64_t> Dist(N, -1);
  Dist[0] = 0;
  std::deque<uint32_t> Q{0};
  while (!Q.empty()) {
    uint32_t U = Q.front();
    Q.pop_front();
    for (auto &[A, B] : Links) {
      uint32_t X = static_cast<uint32_t>(A), Y = static_cast<uint32_t>(B);
      uint32_t V;
      if (X == U)
        V = Y;
      else if (Y == U)
        V = X;
      else
        continue;
      if (Dist[V] < 0) {
        Dist[V] = Dist[U] + 1;
        Q.push_back(V);
      }
    }
  }

  Program P = parseAndCheck(spProgram(N, Links));
  for (bool Incremental : {true, false}) {
    NvContext Ctx(P.numNodes());
    InterpProgramEvaluator Eval(Ctx, P);
    SimOptions Opts;
    Opts.IncrementalMerge = Incremental;
    SimResult R = simulate(P, Eval, Opts);
    ASSERT_TRUE(R.Converged) << "incremental=" << Incremental;
    ASSERT_EQ(R.Labels.size(), N);
    for (uint32_t U = 0; U < N; ++U) {
      ASSERT_TRUE(Dist[U] >= 0) << "graph not connected at " << U;
      ASSERT_TRUE(R.Labels[U]->isSome()) << U;
      EXPECT_EQ(static_cast<int64_t>(R.Labels[U]->Inner->I), Dist[U])
          << "node " << U << " incremental=" << Incremental;
    }
  }
}

TEST(FlatReceiveTable, BothMergeStrategiesAgreeOnStats) {
  // Same fixpoint regardless of strategy; the flat table must not change
  // the order full re-merges fold senders in (ascending sender id, the
  // old std::map order), so label pointers agree within one context.
  //
  // Chain 0-1-2-3-4 plus shortcut 0-4: node 3 first learns the 3-hop
  // chain route, then the 2-hop route through the shortcut, so it re-sends
  // an *improved* route over an already-written slot — the only situation
  // that exercises the full re-merge scan (line 18).
  Program P = parseAndCheck(
      spProgram(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}));
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, P);
  SimOptions Inc, Full;
  Full.IncrementalMerge = false;
  SimResult A = simulate(P, Eval, Inc);
  SimResult B = simulate(P, Eval, Full);
  ASSERT_TRUE(A.Converged && B.Converged);
  EXPECT_EQ(A.Labels, B.Labels);
  EXPECT_GT(B.Stats.FullMerges, 0u);
}

} // namespace
