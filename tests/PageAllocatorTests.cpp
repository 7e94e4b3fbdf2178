//===- PageAllocatorTests.cpp - Parked page mappings ------------------------===//
//
// Tests of support/PageAllocator.h: a released mapping is parked on its
// thread and handed back to the next allocation of the same size there,
// the caps unmap what does not fit, no other thread ever receives a parked
// mapping, and an MTBDD context rebuilt on reused pages counts and answers
// exactly as the first one on fresh pages.
//
// Each test runs its body on a new thread, so it starts with an empty
// parked list whatever ran before it.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "bdd/Mtbdd.h"
#include "net/Generators.h"
#include "support/PageAllocator.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace nv;

namespace {

const size_t Page = size_t(::sysconf(_SC_PAGESIZE));

template <class Fn> void onNewThread(Fn Body) {
  std::thread T(Body);
  T.join();
}

/// True while [P, P + Bytes) is mapped.
bool isMapped(void *P, size_t Bytes) {
  std::vector<unsigned char> Residency((Bytes + Page - 1) / Page);
  return ::mincore(P, Bytes, Residency.data()) == 0 || errno != ENOMEM;
}

TEST(PageAllocator, SameSizeTakesTheParkedMappingBack) {
  onNewThread([] {
    PageAllocator<char> A;
    const size_t Bytes = 37 * Page;
    char *P = A.allocate(Bytes);
    P[0] = 'x';
    P[Bytes - 1] = 'y';
    A.deallocate(P, Bytes);
    EXPECT_TRUE(isMapped(P, Bytes)) << "a parked mapping stays mapped";

    // A fresh mapping would read zeros: the marks show it is the same one.
    char *Q = A.allocate(Bytes);
    EXPECT_EQ(Q, P);
    EXPECT_EQ(Q[0], 'x');
    EXPECT_EQ(Q[Bytes - 1], 'y');

    // Another size does not take it.
    A.deallocate(Q, Bytes);
    char *R = A.allocate(Bytes + Page);
    EXPECT_NE(R, P);
    EXPECT_EQ(R[0], 0);
    A.deallocate(R, Bytes + Page);
  });
}

TEST(PageAllocator, MappingOverTheByteCapIsUnmappedOnRelease) {
  onNewThread([] {
    PageAllocator<char> A;
    const size_t Bytes = MaxParkedBytes + Page;
    char *P = A.allocate(Bytes);
    P[0] = 'x';
    A.deallocate(P, Bytes);
    EXPECT_FALSE(isMapped(P, Bytes));
    char *Q = A.allocate(Bytes);
    EXPECT_EQ(Q[0], 0);
    A.deallocate(Q, Bytes);
  });
}

TEST(PageAllocator, ParkingPastTheCapsUnmapsTheOldest) {
  onNewThread([] {
    PageAllocator<char> A;
    // One more mapping than the list holds: the first one released goes.
    const size_t Small = PageAllocator<char>::MinMappedBytes;
    static_assert((MaxParkedMappings + 1) *
                      PageAllocator<char>::MinMappedBytes <
                  MaxParkedBytes);
    std::vector<char *> Ps;
    for (size_t I = 0; I <= MaxParkedMappings; ++I)
      Ps.push_back(A.allocate(Small));
    for (char *P : Ps)
      A.deallocate(P, Small);
    EXPECT_FALSE(isMapped(Ps[0], Small));
    for (size_t I = 1; I < Ps.size(); ++I)
      EXPECT_TRUE(isMapped(Ps[I], Small)) << I;

    // Two mappings that together pass the byte cap: parking the second
    // unmaps the first.
    const size_t Big = MaxParkedBytes / 2 + Page;
    char *B1 = A.allocate(Big);
    char *B2 = A.allocate(Big);
    A.deallocate(B1, Big);
    EXPECT_TRUE(isMapped(B1, Big));
    A.deallocate(B2, Big);
    EXPECT_FALSE(isMapped(B1, Big));
    EXPECT_TRUE(isMapped(B2, Big));
  });
}

TEST(PageAllocator, AnotherThreadNeverReceivesAParkedMapping) {
  onNewThread([] {
    PageAllocator<char> A;
    const size_t Bytes = 41 * Page;
    char *P = A.allocate(Bytes);
    P[0] = 'x';
    A.deallocate(P, Bytes);

    onNewThread([&] {
      char *Q = A.allocate(Bytes);
      EXPECT_NE(Q, P);
      EXPECT_EQ(Q[0], 0);
      A.deallocate(Q, Bytes);
    });

    // Still parked here, and still this thread's.
    char *R = A.allocate(Bytes);
    EXPECT_EQ(R, P);
    EXPECT_EQ(R[0], 'x');
    A.deallocate(R, Bytes);
  });
}

TEST(PageAllocator, ThreadExitUnmapsItsParkedMappings) {
  const size_t Bytes = 43 * Page;
  char *P = nullptr;
  onNewThread([&] {
    PageAllocator<char> A;
    P = A.allocate(Bytes);
    A.deallocate(P, Bytes);
    EXPECT_TRUE(isMapped(P, Bytes));
  });
  EXPECT_FALSE(isMapped(P, Bytes));
}

/// What a verdict's context reports: the MTBDD counters, table sizes and
/// the answer.
struct ContextRun {
  uint64_t CacheHits, CacheMisses, UniqueLookups, UniqueHits, UniqueProbes;
  size_t PeakNodes, Nodes, MemoryBytes, OpCacheSlots, UniqueCap, LeafCap;
  uint64_t Pops;
  std::vector<std::tuple<std::string, uint32_t, std::string>> Violations;

  auto key() const {
    return std::tie(CacheHits, CacheMisses, UniqueLookups, UniqueHits,
                    UniqueProbes, PeakNodes, Nodes, MemoryBytes, OpCacheSlots,
                    UniqueCap, LeafCap, Pops, Violations);
  }
};

// Every buffer a context maps (on FAT(8) the grown node store, the op
// cache's reservation and the checker's hit vectors) is parked at teardown
// and reused by the next context on the thread, which must not see any of
// the old contents.
TEST(PageAllocator, ContextRebuiltOnReusedPagesIsBitIdentical) {
  DiagnosticEngine Diags;
  auto P = loadGenerated(generateFatSingle(8, 0, /*AssertTorsOnly=*/false),
                         Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  FtOptions Opts;
  Opts.LinkFailures = 2;
  std::vector<ContextRun> Runs;
  onNewThread([&] {
    for (int Round = 0; Round < 3; ++Round) {
      NvContext Ctx(P->numNodes());
      FtRunResult R = runFaultTolerance(*P, Opts, /*Compiled=*/true, Diags,
                                        true, &Ctx);
      ASSERT_TRUE(R.Converged) << R.Outcome.str();
      const BddManager &M = Ctx.Mgr;
      ContextRun Run{M.cacheHits(),         M.cacheMisses(),
                     M.uniqueLookups(),     M.uniqueHits(),
                     M.uniqueProbes(),      M.gcStats().PeakNodes,
                     M.numNodes(),          M.memoryBytes(),
                     M.opCacheSlots(),      M.uniqueCapacity(),
                     M.leafCapacity(),      R.Stats.Pops,
                     {}};
      for (const FtViolation &V : R.Check.Violations)
        Run.Violations.push_back({V.Scenario.str(), V.Node, V.routeStr()});
      Runs.push_back(std::move(Run));
    }
  });
  ASSERT_EQ(Runs.size(), 3u);
  // The run grows every table past its first size and finds the violations
  // the verdict benchmark's ft-fat workload does.
  EXPECT_EQ(Runs[0].PeakNodes, 7977u);
  EXPECT_EQ(Runs[0].OpCacheSlots, size_t(1) << 14);
  EXPECT_EQ(Runs[0].Violations.size(), 16368u);
  for (int Round = 1; Round < 3; ++Round)
    EXPECT_TRUE(Runs[Round].key() == Runs[0].key()) << "round " << Round;
}

} // namespace
