//===- BddTests.cpp - MTBDD substrate tests ---------------------------------===//
//
// Property tests of the MTBDD package against brute-force enumeration over
// all keys, plus canonicity and cache-behaviour checks.
//
//===----------------------------------------------------------------------===//

#include "bdd/Mtbdd.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace nv;

namespace {

/// Interned integer payloads for leaf values.
const void *payload(int V) {
  static std::map<int, std::unique_ptr<int>> Pool;
  auto &P = Pool[V];
  if (!P)
    P = std::make_unique<int>(V);
  return P.get();
}

int payloadValue(const void *P) { return *static_cast<const int *>(P); }

std::vector<bool> keyBits(uint64_t K, unsigned NumBits) {
  std::vector<bool> Bits(NumBits);
  for (unsigned I = 0; I < NumBits; ++I)
    Bits[I] = (K >> (NumBits - 1 - I)) & 1;
  return Bits;
}

TEST(Mtbdd, LeavesAreCanonical) {
  BddManager M;
  EXPECT_EQ(M.leaf(payload(1)), M.leaf(payload(1)));
  EXPECT_NE(M.leaf(payload(1)), M.leaf(payload(2)));
}

TEST(Mtbdd, MkNodeReduces) {
  BddManager M;
  BddManager::Ref L = M.leaf(payload(7));
  EXPECT_EQ(M.mkNode(0, L, L), L);
  BddManager::Ref A = M.mkNode(1, M.leaf(payload(1)), M.leaf(payload(2)));
  EXPECT_EQ(M.mkNode(1, M.leaf(payload(1)), M.leaf(payload(2))), A);
}

TEST(Mtbdd, CreateIsTotal) {
  BddManager M;
  BddManager::Ref Map = M.leaf(payload(42));
  for (uint64_t K = 0; K < 16; ++K)
    EXPECT_EQ(payloadValue(M.get(Map, keyBits(K, 4))), 42);
}

TEST(Mtbdd, SetThenGet) {
  BddManager M;
  BddManager::Ref Map = M.leaf(payload(0));
  Map = M.set(Map, keyBits(5, 4), payload(55));
  Map = M.set(Map, keyBits(9, 4), payload(99));
  for (uint64_t K = 0; K < 16; ++K) {
    int Expected = K == 5 ? 55 : K == 9 ? 99 : 0;
    EXPECT_EQ(payloadValue(M.get(Map, keyBits(K, 4))), Expected) << K;
  }
}

/// Property: a random sequence of sets agrees with a std::map reference,
/// and re-building the same contents in any order yields the same root
/// (canonicity).
class MtbddRandomSets : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(MtbddRandomSets, MatchesReferenceAndIsCanonical) {
  auto [NumBits, Seed] = GetParam();
  std::mt19937 Rng(Seed);
  uint64_t Space = uint64_t(1) << NumBits;

  BddManager M;
  BddManager::Ref Map = M.leaf(payload(-1));
  std::map<uint64_t, int> Ref;

  for (int I = 0; I < 100; ++I) {
    uint64_t K = Rng() % Space;
    int V = static_cast<int>(Rng() % 5);
    Map = M.set(Map, keyBits(K, NumBits), payload(V));
    Ref[K] = V;
  }
  for (uint64_t K = 0; K < Space; ++K) {
    int Expected = Ref.count(K) ? Ref[K] : -1;
    ASSERT_EQ(payloadValue(M.get(Map, keyBits(K, NumBits))), Expected);
  }

  // Rebuild in shuffled key order: same final contents => same root.
  std::vector<std::pair<uint64_t, int>> Entries(Ref.begin(), Ref.end());
  std::shuffle(Entries.begin(), Entries.end(), Rng);
  BddManager::Ref Map2 = M.leaf(payload(-1));
  for (const auto &[K, V] : Entries)
    Map2 = M.set(Map2, keyBits(K, NumBits), payload(V));
  EXPECT_EQ(Map, Map2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MtbddRandomSets,
    ::testing::Combine(::testing::Values(4, 6, 8, 10),
                       ::testing::Values(1, 2, 3)));

TEST(Mtbdd, Map1AppliesOncePerDistinctLeaf) {
  BddManager M;
  BddManager::Ref Map = M.leaf(payload(0));
  // Two distinct non-default leaves over an 8-bit key space.
  for (uint64_t K = 0; K < 64; ++K)
    Map = M.set(Map, keyBits(K, 8), payload(1));
  Map = M.set(Map, keyBits(200, 8), payload(2));

  int Calls = 0;
  uint64_t Tag = M.freshOpTag();
  BddManager::Ref Out = M.map1(
      Map,
      [&](const void *P) {
        ++Calls;
        return payload(payloadValue(P) + 10);
      },
      Tag);
  EXPECT_EQ(Calls, 3); // leaves 0, 1, 2 — not 256 keys
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(3, 8))), 11);
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(200, 8))), 12);
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(250, 8))), 10);
}

TEST(Mtbdd, Apply2MatchesBruteForce) {
  const unsigned Bits = 6;
  std::mt19937 Rng(7);
  BddManager M;
  BddManager::Ref A = M.leaf(payload(0));
  BddManager::Ref B = M.leaf(payload(1));
  for (int I = 0; I < 40; ++I) {
    A = M.set(A, keyBits(Rng() % 64, Bits), payload(int(Rng() % 4)));
    B = M.set(B, keyBits(Rng() % 64, Bits), payload(int(Rng() % 4)));
  }
  BddManager::Ref Out = M.apply2(
      A, B,
      [&](const void *X, const void *Y) {
        return payload(payloadValue(X) * 10 + payloadValue(Y));
      },
      M.freshOpTag());
  for (uint64_t K = 0; K < 64; ++K) {
    auto KB = keyBits(K, Bits);
    EXPECT_EQ(payloadValue(M.get(Out, KB)),
              payloadValue(M.get(A, KB)) * 10 + payloadValue(M.get(B, KB)));
  }
}

//===----------------------------------------------------------------------===//
// Boolean diagrams
//===----------------------------------------------------------------------===//

class BoolOps : public ::testing::TestWithParam<int> {};

TEST_P(BoolOps, MatchTruthTablesOnRandomDiagrams) {
  const unsigned Bits = 5;
  std::mt19937 Rng(GetParam());
  static const bool TrueP = true, FalseP = false;
  BddManager M;
  M.setBoolPayloads(&TrueP, &FalseP);

  auto RandomBdd = [&]() {
    BddManager::Ref R = (Rng() & 1) ? M.trueBdd() : M.falseBdd();
    for (int I = 0; I < 10; ++I) {
      BddManager::Ref V = M.bitVar(Rng() % Bits);
      switch (Rng() % 3) {
      case 0:
        R = M.bddAnd(R, V);
        break;
      case 1:
        R = M.bddOr(R, V);
        break;
      default:
        R = M.bddXor(R, V);
        break;
      }
    }
    return R;
  };
  auto Holds = [&](BddManager::Ref R, uint64_t K) {
    return M.get(R, keyBits(K, Bits)) == &TrueP;
  };

  BddManager::Ref A = RandomBdd(), B = RandomBdd(), C = RandomBdd();
  BddManager::Ref NotA = M.bddNot(A);
  BddManager::Ref AndAB = M.bddAnd(A, B);
  BddManager::Ref OrAB = M.bddOr(A, B);
  BddManager::Ref XorAB = M.bddXor(A, B);
  BddManager::Ref IteABC = M.bddIte(A, B, C);
  for (uint64_t K = 0; K < 32; ++K) {
    ASSERT_EQ(Holds(NotA, K), !Holds(A, K));
    ASSERT_EQ(Holds(AndAB, K), Holds(A, K) && Holds(B, K));
    ASSERT_EQ(Holds(OrAB, K), Holds(A, K) || Holds(B, K));
    ASSERT_EQ(Holds(XorAB, K), Holds(A, K) != Holds(B, K));
    ASSERT_EQ(Holds(IteABC, K), Holds(A, K) ? Holds(B, K) : Holds(C, K));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoolOps, ::testing::Range(1, 9));

TEST(Mtbdd, MtbddIteSelectsPerKey) {
  static const bool TrueP = true, FalseP = false;
  BddManager M;
  M.setBoolPayloads(&TrueP, &FalseP);
  // Predicate: bit 0 set (keys >= 8 over 4 bits).
  BddManager::Ref Pred = M.bitVar(0);
  BddManager::Ref T = M.leaf(payload(100));
  BddManager::Ref E = M.leaf(payload(200));
  E = M.set(E, keyBits(2, 4), payload(222));
  BddManager::Ref Out = M.mtbddIte(Pred, T, E);
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(9, 4))), 100);
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(2, 4))), 222);
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(3, 4))), 200);
}

TEST(Mtbdd, CacheMakesRepeatedOpsFree) {
  BddManager M;
  BddManager::Ref Map = M.leaf(payload(0));
  for (uint64_t K = 0; K < 30; ++K)
    Map = M.set(Map, keyBits(K * 7 % 256, 8), payload(int(K % 6)));

  uint64_t Tag = M.freshOpTag();
  int Calls = 0;
  auto Fn = [&](const void *P) {
    ++Calls;
    return payload(payloadValue(P) + 1);
  };
  BddManager::Ref R1 = M.map1(Map, Fn, Tag);
  int CallsFirst = Calls;
  BddManager::Ref R2 = M.map1(Map, Fn, Tag);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(Calls, CallsFirst) << "second run must be fully cached";
  EXPECT_GT(M.cacheHits(), 0u);
}

TEST(Mtbdd, DisablingCacheStillCorrect) {
  BddManager M;
  M.setCachingEnabled(false);
  BddManager::Ref Map = M.leaf(payload(0));
  Map = M.set(Map, keyBits(3, 4), payload(5));
  BddManager::Ref Out =
      M.map1(Map, [&](const void *P) { return payload(payloadValue(P) * 2); },
             M.freshOpTag());
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(3, 4))), 10);
  EXPECT_EQ(payloadValue(M.get(Out, keyBits(4, 4))), 0);
  EXPECT_EQ(M.cacheHits(), 0u);
}

TEST(Mtbdd, DistinctLeavesAndCubes) {
  BddManager M;
  BddManager::Ref Map = M.leaf(payload(0));
  Map = M.set(Map, keyBits(1, 4), payload(1));
  Map = M.set(Map, keyBits(2, 4), payload(1));
  EXPECT_EQ(M.numDistinctLeaves(Map), 2u);

  // Cubes must tile the key space consistently with get().
  std::map<uint64_t, int> FromCubes;
  M.forEachCube(Map, 4, [&](const std::vector<int8_t> &Cube, const void *P) {
    for (uint64_t K = 0; K < 16; ++K) {
      bool Matches = true;
      for (unsigned I = 0; I < 4 && Matches; ++I) {
        bool Bit = (K >> (3 - I)) & 1;
        if (Cube[I] >= 0 && Cube[I] != static_cast<int8_t>(Bit))
          Matches = false;
      }
      if (Matches) {
        ASSERT_FALSE(FromCubes.count(K)) << "cubes must not overlap";
        FromCubes[K] = payloadValue(P);
      }
    }
  });
  ASSERT_EQ(FromCubes.size(), 16u);
  for (uint64_t K = 0; K < 16; ++K)
    EXPECT_EQ(FromCubes[K], payloadValue(M.get(Map, keyBits(K, 4))));
}

TEST(Mtbdd, OpenAddressedTablesGrowAndStayCanonical) {
  // Push both hash-consing tables through several capacity doublings and
  // check canonicity and lookups against a brute-force oracle throughout.
  BddManager M;
  size_t LeafCap0 = M.leafCapacity();
  size_t UniqueCap0 = M.uniqueCapacity();

  // Leaves: enough distinct payloads to force multiple leaf-table grows.
  std::vector<BddManager::Ref> Leaves;
  const int NumLeaves = 5000;
  for (int I = 0; I < NumLeaves; ++I)
    Leaves.push_back(M.leaf(payload(I)));
  EXPECT_GT(M.leafCapacity(), LeafCap0);
  for (int I = 0; I < NumLeaves; ++I) {
    EXPECT_EQ(M.leaf(payload(I)), Leaves[I]);
    EXPECT_EQ(payloadValue(M.leafPayload(Leaves[I])), I);
  }

  // Internal nodes: a 13-bit map with a near-unique payload per key builds
  // ~2^14 internal nodes, several unique-table grows past the default
  // 2^13 capacity. The std::map oracle checks every key after the dust
  // settles.
  const unsigned Bits = 13;
  std::map<uint64_t, int> Oracle;
  BddManager::Ref Map = M.leaf(payload(-1));
  std::mt19937_64 Rng(7);
  for (uint64_t K = 0; K < (1u << Bits); ++K) {
    int V = static_cast<int>(Rng() % 4093);
    Oracle[K] = V;
    Map = M.set(Map, keyBits(K, Bits), payload(V));
  }
  EXPECT_GT(M.uniqueCapacity(), UniqueCap0);
  for (uint64_t K = 0; K < (1u << Bits); ++K)
    EXPECT_EQ(payloadValue(M.get(Map, keyBits(K, Bits))), Oracle[K]);

  // Re-interning existing nodes is pure lookup: hits rise, no growth.
  uint64_t Hits0 = M.uniqueHits();
  size_t Nodes0 = M.numNodes();
  BddManager::Ref Again = M.leaf(payload(3));
  const BddManager::Node N = M.node(Map);
  EXPECT_EQ(M.mkNode(N.Var, N.Lo, N.Hi), Map);
  EXPECT_EQ(Again, Leaves[3]);
  EXPECT_GT(M.uniqueHits(), Hits0);
  EXPECT_EQ(M.numNodes(), Nodes0);
  EXPECT_GE(M.uniqueLookups(), M.uniqueHits());
}

TEST(Mtbdd, UniqueTableCountersTrackLoad) {
  BddManager M;
  uint64_t Lookups0 = M.uniqueLookups();
  BddManager::Ref A = M.mkNode(0, M.leaf(payload(1)), M.leaf(payload(2)));
  uint64_t MissLookups = M.uniqueLookups();
  EXPECT_GT(MissLookups, Lookups0);
  uint64_t Hits1 = M.uniqueHits();
  // Identical request: every probe is now a hit.
  EXPECT_EQ(M.mkNode(0, M.leaf(payload(1)), M.leaf(payload(2))), A);
  EXPECT_EQ(M.uniqueHits(), Hits1 + 3); // two leaves + one internal node
}

TEST(Mtbdd, ConsecutiveHiChildrenDoNotCluster) {
  // Nodes that share (Var, Lo) and differ only in a consecutive Hi child,
  // the shape a dict over a key field builds. A hash that adds Hi last
  // without mixing it sends them to consecutive slots, where the runs of
  // different Lo children pile into each other.
  BddManager M;
  std::vector<BddManager::Ref> Leaves;
  for (int I = 0; I < 4096; ++I)
    Leaves.push_back(M.leaf(payload(I)));
  uint64_t Lookups0 = M.uniqueLookups(), Probes0 = M.uniqueProbes();
  // Build the nodes, then find each again, as an apply does.
  std::vector<BddManager::Ref> Built;
  for (int Pass = 0; Pass < 2; ++Pass) {
    size_t I = 0;
    for (uint32_t Var = 0; Var < 2; ++Var)
      for (int Lo = 0; Lo < 8; ++Lo)
        for (int Hi = 8; Hi < 4096; ++Hi, ++I) {
          BddManager::Ref R = M.mkNode(Var, Leaves[Lo], Leaves[Hi]);
          if (Pass == 0)
            Built.push_back(R);
          else
            ASSERT_EQ(R, Built[I]);
        }
  }
  uint64_t Lookups = M.uniqueLookups() - Lookups0;
  ASSERT_GT(Lookups, 0u);
  EXPECT_LT(double(M.uniqueProbes() - Probes0) / double(Lookups), 2.0);
}

TEST(Mtbdd, SharingKeepsDiagramsSmall) {
  // The fault-tolerance insight (Sec. 2.7): many keys, few distinct
  // values => node count stays near the number of distinct values times
  // the key width, far below the key-space size.
  BddManager M;
  BddManager::Ref Map = M.leaf(payload(0));
  const unsigned Bits = 16;
  // 2^16 keys, but only 3 distinct values laid out in large runs.
  for (uint64_t K = 0; K < 8; ++K)
    Map = M.set(Map, keyBits(K, Bits), payload(int(K % 3)));
  EXPECT_LT(M.numReachableNodes(Map), 64u);
}

} // namespace
