//===- Mtbdd.h - Hash-consed multi-terminal BDDs ----------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch multi-terminal BDD package (the paper used CUDD). NV
/// total maps are represented as MTBDDs over the bit-encoding of the key
/// type (Sec. 5.1, Fig. 11): leaves hold interned values (opaque pointers
/// here), internal nodes test one key bit. Nodes are hash-consed, so
/// structural equality is pointer (Ref) equality, and apply/map results are
/// memoized so each operation runs once per *distinct* leaf (or leaf pair).
///
/// Variable order: bit 0 is the most significant key bit and sits at the
/// top of the diagram, matching Fig. 11.
///
/// Hot-path representation choices (this file is the kernel every analysis
/// shard runs):
///  - map1/apply2 are templates dispatched on the callback's static type,
///    so per-node visits cost a direct (usually inlined) call instead of a
///    std::function virtual dispatch;
///  - the operation cache is a CUDD-style direct-mapped array: lookups are
///    one probe, inserts overwrite (lossy). Losing an entry only costs a
///    recomputation, never correctness. Like CUDD's, it grows with the node
///    store: it starts at InitialOpCacheSlots and doubles (keeping every
///    live entry) whenever a new node would leave fewer than two slots per
///    node, up to the cap given at construction; the first doubling
///    reserves the cap (mapped pages, see support/PageAllocator.h), so
///    later ones grow in place. Growth depends only on the node count, so
///    cache statistics stay deterministic;
///  - the unique (hash-consing) tables are open-addressed, power-of-two
///    sized, linear-probe arrays of Refs: the key (Var, Lo, Hi) or leaf
///    payload is read back from the node store, so a probe touches one
///    cache line of slots plus the candidate node — no bucket chains. The
///    tables never hold tombstones: growth and garbage collection rebuild
///    them wholesale.
///
/// Memory management: nodes are reclaimed by an explicit mark-and-sweep
/// collector. Roots are (a) pinned Refs (`pin`/`unpin`, or a scoped
/// `RootSet`), (b) the canonical true/false leaves, and (c) whatever
/// registered `GcRootProvider`s report (the evaluation context reports its
/// predicate cache and pinned values; the simulator reports its label and
/// received-route tables). Leaf payloads may themselves reference diagrams
/// (dict-of-dict values); a registered payload tracer surfaces those inner
/// roots during marking. The sweep compacts the node store in place
/// preserving relative Ref order, rebuilds the unique tables, and hands
/// every provider the old-Ref -> new-Ref remap table.
///
/// Collections run only at explicit safe points — `collectGarbage()`,
/// `reset()`, or `maybeCollectAtSafePoint()` (which triggers once node
/// growth since the last collection exceeds the watermark). map1/apply2
/// never collect internally, so callers may hold raw Refs across any
/// sequence of operations between safe points.
///
/// A BddManager is single-threaded by design: parallel analyses give each
/// worker its own manager arena (see support/ThreadPool.h) so hash-consing
/// needs no locks. Concurrent *reads* (get, forEachCube) of a manager that
/// no thread is mutating are safe.
///
//===----------------------------------------------------------------------===//

#ifndef NV_BDD_MTBDD_H
#define NV_BDD_MTBDD_H

#include "support/Governor.h"
#include "support/PageAllocator.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace nv {

/// Owns all MTBDD nodes, the unique (hash-consing) tables and the
/// operation caches. Leaves carry opaque `const void *` payloads; callers
/// must intern payloads so that payload equality is pointer equality.
class BddManager {
public:
  using Ref = uint32_t;
  static constexpr uint32_t LeafVar = 0xFFFFFFFFu;
  /// Sentinel for "no node": empty unique-table slots, remap entries of
  /// collected nodes. Never a valid node index.
  static constexpr Ref InvalidRef = 0xFFFFFFFFu;

  /// Default cap on the direct-mapped operation cache. 2^17 entries * 24
  /// bytes = 3 MiB, reached once a manager holds 2^16 nodes.
  static constexpr size_t MaxOpCacheSlots = size_t(1) << 17;
  /// Slots a fresh manager starts with (48 KiB), or the cap if smaller.
  static constexpr size_t InitialOpCacheSlots = size_t(1) << 11;

  /// Default GC watermark: collect once this many nodes have been
  /// allocated since the last collection. Sized so that the benchmark
  /// networks never trigger it mid-run (GC cost there is paid only at the
  /// explicit reset() between scenarios) while production-scale runs stay
  /// bounded. Overridable via NV_GC_WATERMARK (0 disables the trigger).
  static constexpr size_t DefaultGcWatermark = size_t(1) << 22;

  struct Node {
    uint32_t Var;          ///< Bit index tested, or LeafVar for leaves.
    Ref Lo = 0;            ///< Subtree when the bit is 0 (dashed edge).
    Ref Hi = 0;            ///< Subtree when the bit is 1 (solid edge).
    const void *Leaf = nullptr; ///< Leaf payload (LeafVar nodes only).
  };

  /// \p OpCacheSlots caps the direct-mapped operation cache (rounded up
  /// to a power of two, at least 16). The cache starts at
  /// min(cap, InitialOpCacheSlots) and grows toward the cap as nodes are
  /// created; a cap of 16 or less never grows, which tests use to stress
  /// eviction.
  explicit BddManager(size_t OpCacheSlots = MaxOpCacheSlots);

  /// Returns the canonical leaf holding \p Payload.
  Ref leaf(const void *Payload);

  /// Returns the canonical internal node (Var, Lo, Hi), applying the
  /// standard reduction Lo == Hi ==> Lo.
  Ref mkNode(uint32_t Var, Ref Lo, Ref Hi);

  bool isLeaf(Ref R) const { return Nodes[R].Var == LeafVar; }
  const void *leafPayload(Ref R) const { return Nodes[R].Leaf; }
  const Node &node(Ref R) const { return Nodes[R]; }

  /// Total number of live nodes in the manager.
  size_t numNodes() const { return Nodes.size(); }

  /// Allocates a fresh tag for memoizing a semantic operation. Operations
  /// keyed by the same tag must be the same mathematical function.
  uint64_t freshOpTag() { return NextOpTag++; }

  /// Applies \p Fn (any callable `const void *(const void *)`) to every
  /// leaf. \p Tag memoizes across calls (pass the same tag for the same
  /// Fn to share work between invocations). Template dispatch: the
  /// callback is invoked directly per distinct node, with no
  /// std::function indirection.
  template <typename UnaryFn> Ref map1(Ref A, UnaryFn &&Fn, uint64_t Tag) {
    return map1Rec(A, Fn, Tag);
  }

  /// Shannon-aligned binary apply: recurses over both diagrams and calls
  /// \p Fn (any callable `const void *(const void *, const void *)`) once
  /// per distinct pair of leaves. This single primitive implements NV's
  /// combine (Fn = merge) and mapIte (A = predicate diagram with boolean
  /// payloads, Fn dispatches on the predicate leaf).
  ///
  /// A callable that also has `bool terminal(Ref A, Ref B, Ref &Out)` may
  /// answer a pair without recursing (a constant operand of a boolean
  /// operation, or A == B): apply2 asks it at every pair before the cache.
  /// Map operations' callables have no such hook, since a closure leaf
  /// decides nothing about a whole subdiagram before it is applied.
  ///
  /// A callable whose A is always a boolean diagram (mapIte's predicate)
  /// declares `static constexpr bool PredicateFirst = true`. At a missed
  /// pair of an internal A and a leaf B, apply2 then applies Fn to B's
  /// payload once per boolean leaf (a reduced, non-constant A reaches
  /// both, so the recursion would too) and answers with that leaf when
  /// the two agree, or with mtbddIte(A, ...) of them, instead of walking
  /// A against B pair by pair.
  template <typename BinaryFn>
  Ref apply2(Ref A, Ref B, BinaryFn &&Fn, uint64_t Tag) {
    return apply2Rec(A, B, Fn, Tag);
  }

  /// Follows the path \p KeyBits (KeyBits[i] = value of bit i) to a leaf.
  /// Bits beyond the diagram's depth are ignored (the diagram is total).
  const void *get(Ref M, const std::vector<bool> &KeyBits) const;

  /// Returns the diagram equal to \p M except that the single key at
  /// \p KeyBits maps to \p Payload. \p NumBits is the key type's width
  /// (KeyBits.size() == NumBits).
  Ref set(Ref M, const std::vector<bool> &KeyBits, const void *Payload);

  //===--------------------------------------------------------------------===//
  // Boolean diagrams (predicates over keys)
  //===--------------------------------------------------------------------===//
  //
  // Predicates are ordinary MTBDDs whose payloads are the two canonical
  // pointers passed to setBoolPayloads (typically interned true/false
  // values). The boolean operations below are memoized internally.

  /// Registers the canonical payloads used by boolean diagrams.
  void setBoolPayloads(const void *TruePayload, const void *FalsePayload);

  Ref trueBdd() const { return TrueRef; }
  Ref falseBdd() const { return FalseRef; }
  bool isTrueLeaf(Ref R) const {
    return isLeaf(R) && leafPayload(R) == TruePayload;
  }

  /// Diagram testing a single bit: bit ? true : false.
  Ref bitVar(uint32_t Var);

  Ref bddNot(Ref A);
  Ref bddAnd(Ref A, Ref B);
  Ref bddOr(Ref A, Ref B);
  Ref bddXor(Ref A, Ref B);
  Ref bddXnor(Ref A, Ref B) { return bddNot(bddXor(A, B)); }
  /// if C then T else E, all boolean diagrams.
  Ref bddIte(Ref C, Ref T, Ref E);

  /// Per-bit merge of arbitrary MTBDDs: picks T's leaf where C holds and
  /// E's leaf elsewhere. C must be a boolean diagram.
  Ref mtbddIte(Ref C, Ref T, Ref E);

  /// True when the boolean diagram is satisfiable (not constant-false).
  bool satisfiable(Ref A) const { return A != FalseRef; }

  //===--------------------------------------------------------------------===//
  // Garbage collection
  //===--------------------------------------------------------------------===//

  /// Pins \p R as a GC root (reference-counted; unpin once per pin).
  void pin(Ref R) { ++Pins[R]; }
  void unpin(Ref R);

  /// A scoped set of pinned roots. Refs added survive collection and are
  /// rewritten in place when a collection remaps the node store, so the
  /// set stays valid across GC; everything is released on destruction.
  class RootSet {
  public:
    explicit RootSet(BddManager &M);
    ~RootSet();
    RootSet(const RootSet &) = delete;
    RootSet &operator=(const RootSet &) = delete;

    void add(Ref R) { Refs.push_back(R); }
    void clear() { Refs.clear(); }
    const std::vector<Ref> &refs() const { return Refs; }
    Ref operator[](size_t I) const { return Refs[I]; }
    size_t size() const { return Refs.size(); }

  private:
    friend class BddManager;
    BddManager &Mgr;
    std::vector<Ref> Refs;
  };

  /// External holders of Refs (caches, label tables) participate in GC
  /// through this interface: they contribute roots before marking and are
  /// told how Refs moved after the sweep.
  class GcRootProvider {
  public:
    virtual ~GcRootProvider() = default;
    /// Called once per collection before any marking (reset per-GC state).
    virtual void gcBegin() {}
    /// Appends every Ref the provider needs kept alive.
    virtual void appendRoots(std::vector<Ref> &Out) = 0;
    /// Called after the sweep: Remap[old] is the new Ref of a surviving
    /// node, or InvalidRef for a collected one. Roots always survive.
    virtual void notifyRemap(const std::vector<Ref> &Remap) { (void)Remap; }
  };

  void addRootProvider(GcRootProvider *P) { Providers.push_back(P); }
  void removeRootProvider(GcRootProvider *P);

  /// Leaf payloads may themselves reference diagrams in this manager
  /// (dict-of-dict values). The tracer is invoked for every marked leaf
  /// payload and appends any inner roots it finds.
  using PayloadTracerFn = void (*)(void *Cookie, const void *Payload,
                                   std::vector<Ref> &Out);
  void setPayloadTracer(PayloadTracerFn Fn, void *Cookie) {
    Tracer = Fn;
    TracerCookie = Cookie;
  }

  /// Hashes leaf payloads for the leaf table. Without one a payload hashes
  /// by its address, which makes the table's probe counts depend on the
  /// heap layout; a hash of something the payload's owner numbers
  /// deterministically keeps them reproducible. Set before the first leaf.
  using PayloadHashFn = uint64_t (*)(const void *Payload);
  void setPayloadHash(PayloadHashFn Fn) {
    assert(LeafCount == 0 && "payload hash set after the first leaf");
    PayloadHash = Fn;
  }

  /// Mark-and-sweep: keeps everything reachable from the roots, compacts
  /// the node store (preserving relative Ref order), rebuilds the unique
  /// tables, empties the operation cache (keeping its size), and notifies
  /// every provider of the remap. Returns the number of nodes reclaimed.
  /// Callers must not hold un-rooted Refs across this call.
  size_t collectGarbage();

  /// Collects iff the watermark is enabled and node growth since the last
  /// collection exceeds it. Call only at safe points (no un-rooted Refs
  /// live). Returns true when a collection ran.
  bool maybeCollectAtSafePoint();

  /// Safe point between scenarios: drops the operation cache and collects
  /// back down to the pinned/provider roots.
  void reset();

  /// Allocation budget between collections; 0 disables the watermark
  /// trigger (explicit collectGarbage/reset still work). 1 collects at
  /// every safe point (stress mode).
  void setGcWatermark(size_t W) { GcWatermark = W; }
  size_t gcWatermark() const { return GcWatermark; }

  struct GcStats {
    uint64_t Collections = 0;    ///< collectGarbage runs.
    uint64_t NodesReclaimed = 0; ///< Total nodes swept across all runs.
    size_t PeakNodes = 0;        ///< High-watermark of numNodes().
    size_t FloorAfterLastGc = 0; ///< numNodes() after the last collection.
  };
  const GcStats &gcStats() const { return Gc; }

  //===--------------------------------------------------------------------===//
  // Inspection
  //===--------------------------------------------------------------------===//

  /// Number of distinct leaves reachable from \p R.
  size_t numDistinctLeaves(Ref R) const;

  /// Number of nodes (internal + leaf) reachable from \p R.
  size_t numReachableNodes(Ref R) const;

  /// Enumerates all complete key assignments over \p NumBits bits together
  /// with their leaf payloads. Exponential in NumBits; testing/debugging
  /// only.
  void forEachKey(Ref R, unsigned NumBits,
                  const std::function<void(const std::vector<bool> &,
                                           const void *)> &Fn) const;

  /// Visits each maximal uniform cube as (bit assignment template, leaf):
  /// entries of the template are 0, 1 or -1 (don't care). One visit per
  /// root-to-leaf path, so shared subdiagrams are walked once per path
  /// into them: the cost can be exponential in the diagram size. To visit
  /// each node or distinct leaf once, walk the reachable nodes with a
  /// visited set instead.
  void forEachCube(Ref R, unsigned NumBits,
                   const std::function<void(const std::vector<int8_t> &,
                                            const void *)> &Fn) const;

  /// Empties the operation cache, keeping its size (unique tables are
  /// kept).
  void clearCaches();

  /// Approximate bytes used by nodes and tables.
  size_t memoryBytes() const;

  /// Cache statistics (for the cache ablation bench).
  uint64_t cacheHits() const { return CacheHits; }
  uint64_t cacheMisses() const { return CacheMisses; }

  /// Current number of direct-mapped operation-cache slots.
  size_t opCacheSlots() const { return OpCache.size(); }

  /// Disables operation caching (for the cache ablation bench).
  void setCachingEnabled(bool On) { CachingEnabled = On; }

  /// Unique/leaf-table statistics: lookups, hits (existing node returned),
  /// and collision probe steps beyond the home slot.
  uint64_t uniqueLookups() const { return UniqueLookups; }
  uint64_t uniqueHits() const { return UniqueHits; }
  uint64_t uniqueProbes() const { return UniqueProbes; }
  size_t uniqueCapacity() const { return UniqueSlots.size(); }
  size_t leafCapacity() const { return LeafSlots.size(); }

private:
  /// One direct-mapped operation-cache slot. Tag == 0 marks an empty slot
  /// (real tags start at 1; the reserved boolean tags are huge).
  struct OpEntry {
    uint64_t Tag = 0;
    Ref A = 0, B = 0;
    Ref Result = 0;
  };

  /// The node store, the tables and the op cache are mapped pages once
  /// they reach 128 KiB (support/PageAllocator.h): the untouched tail of a
  /// reservation costs no resident memory, and a context built after
  /// another on the same thread reuses its buffers without faulting pages
  /// in again.
  template <class T> using PageVector = std::vector<T, PageAllocator<T>>;

  PageVector<Node> Nodes;
  /// Open-addressed hash-consing tables: slots hold Refs into Nodes (the
  /// key — (Var, Lo, Hi) or leaf payload — is read back from the node).
  /// InvalidRef marks an empty slot. Power-of-two sized, linear probing,
  /// grown by wholesale rebuild at 3/4 load; no tombstones ever.
  PageVector<Ref> UniqueSlots;
  size_t UniqueMask = 0;
  size_t UniqueCount = 0; ///< Internal nodes in UniqueSlots.
  PageVector<Ref> LeafSlots;
  size_t LeafMask = 0;
  size_t LeafCount = 0; ///< Leaves in LeafSlots.

  /// Power-of-two sized, lossy.
  PageVector<OpEntry> OpCache;
  size_t OpCacheMask = 0;
  size_t OpCacheCap = 0; ///< Power of two; OpCache never grows past it.

  const void *TruePayload = nullptr;
  const void *FalsePayload = nullptr;
  Ref TrueRef = 0;
  Ref FalseRef = 0;
  uint64_t NextOpTag = 1;

  // GC state.
  std::unordered_map<Ref, uint32_t> Pins; ///< Ref -> pin count.
  std::vector<RootSet *> RootSets;
  std::vector<GcRootProvider *> Providers;
  PayloadTracerFn Tracer = nullptr;
  void *TracerCookie = nullptr;
  PayloadHashFn PayloadHash = nullptr;
  size_t GcWatermark = DefaultGcWatermark;
  GcStats Gc;

  // Reserved internal tags for boolean operations.
  enum : uint64_t {
    TagNot = 0xF000000000000001ull,
    TagAnd = 0xF000000000000002ull,
    TagOr = 0xF000000000000003ull,
    TagXor = 0xF000000000000004ull,
    TagIte = 0xF000000000000005ull, // combined pairwise
  };

  bool CachingEnabled = true;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t UniqueLookups = 0;
  uint64_t UniqueHits = 0;
  uint64_t UniqueProbes = 0;

  /// The unique table's and the op cache's hash. The final multiply mixes
  /// the last operand too: without it, triples that differ only there
  /// (e.g. consecutive Hi) land in consecutive linear-probe slots.
  static size_t mix3(uint64_t A, uint64_t B, uint64_t C) {
    uint64_t H = A;
    H = H * 0x9E3779B97F4A7C15ull + B;
    H = H * 0x9E3779B97F4A7C15ull + C;
    H *= 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(H ^ (H >> 32));
  }
  static size_t hashTriple(uint32_t Var, Ref Lo, Ref Hi) {
    return mix3(Var, Lo, Hi);
  }
  size_t hashPayload(const void *P) const {
    uint64_t H = PayloadHash ? PayloadHash(P) : reinterpret_cast<uint64_t>(P);
    H *= 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(H ^ (H >> 32));
  }

  void growUnique();
  void growLeaf();
  /// Doubles the operation cache, keeping every live entry.
  void growOpCache();
  /// Called before a new node is stored: grows the operation cache so it
  /// keeps at least two slots per node, up to the cap.
  void growOpCacheForNewNode() {
    if (OpCache.size() < OpCacheCap && OpCache.size() < 2 * (Nodes.size() + 1))
      growOpCache();
  }
  /// Rebuilds both tables from the node store (after a sweep).
  void rebuildTables();

  static size_t opHash(uint64_t Tag, Ref A, Ref B) { return mix3(Tag, A, B); }

  bool cacheLookup(uint64_t Tag, Ref A, Ref B, Ref &Out) {
    if (!CachingEnabled) {
      ++CacheMisses;
      return false;
    }
    const OpEntry &E = OpCache[opHash(Tag, A, B) & OpCacheMask];
    if (E.Tag == Tag && E.A == A && E.B == B) {
      ++CacheHits;
      Out = E.Result;
      return true;
    }
    ++CacheMisses;
    return false;
  }

  void cacheInsert(uint64_t Tag, Ref A, Ref B, Ref Result) {
    if (CachingEnabled)
      OpCache[opHash(Tag, A, B) & OpCacheMask] = OpEntry{Tag, A, B, Result};
  }

  /// Safe point on the operation-cache miss path (and at table growth):
  /// checks the governed node budget / heap watermark / deadline /
  /// cancellation and fault injection. Sits before any recursion or table
  /// mutation, so a throw leaves the manager fully consistent. A growing
  /// table passes the bytes it is about to add as \p GrowBytes, so a heap
  /// watermark trips before the growth instead of after it. A run that
  /// nothing can trip here (no governor, or a step budget alone) pays one
  /// flag test, and memoryBytes() is computed only for a poll.
  void pollSafePoint(GovSite Site, size_t GrowBytes = 0) const {
    if (Governor::pollsKernelSites())
      Governor::pollSafePoint(Site, Nodes.size(), memoryBytes() + GrowBytes);
  }

  template <typename UnaryFn> Ref map1Rec(Ref A, UnaryFn &Fn, uint64_t Tag) {
    Ref Cached;
    if (cacheLookup(Tag, A, LeafVar, Cached))
      return Cached;
    pollSafePoint(GovSite::ApplyCacheMiss);
    Ref Result;
    if (isLeaf(A)) {
      Result = leaf(Fn(leafPayload(A)));
    } else {
      const Node N = Nodes[A];
      Ref Lo = map1Rec(N.Lo, Fn, Tag);
      Ref Hi = map1Rec(N.Hi, Fn, Tag);
      Result = mkNode(N.Var, Lo, Hi);
    }
    cacheInsert(Tag, A, LeafVar, Result);
    return Result;
  }

  template <typename BinaryFn> static constexpr bool predicateFirst() {
    return requires {
      requires std::remove_cvref_t<BinaryFn>::PredicateFirst;
    };
  }

  template <typename BinaryFn>
  Ref apply2Rec(Ref A, Ref B, BinaryFn &Fn, uint64_t Tag) {
    Ref Cached;
    if constexpr (requires { Fn.terminal(A, B, Cached); })
      if (Fn.terminal(A, B, Cached))
        return Cached;
    if (cacheLookup(Tag, A, B, Cached))
      return Cached;
    pollSafePoint(GovSite::ApplyCacheMiss);
    Ref Result;
    if (isLeaf(A) && isLeaf(B)) {
      Result = leaf(Fn(leafPayload(A), leafPayload(B)));
    } else if (predicateFirst<BinaryFn>() && isLeaf(B)) {
      // The leaf on A's all-Lo path is the one the recursion meets first,
      // so Fn raises the same error first.
      Ref First = A;
      while (!isLeaf(First))
        First = Nodes[First].Lo;
      Ref R1 = apply2Rec(First, B, Fn, Tag);
      Ref R2 = apply2Rec(First == TrueRef ? FalseRef : TrueRef, B, Fn, Tag);
      Result = R1 == R2            ? R1
               : First == TrueRef ? mtbddIte(A, R1, R2)
                                  : mtbddIte(A, R2, R1);
    } else {
      // Recurse on the topmost variable of either operand.
      uint32_t VarA = Nodes[A].Var; // LeafVar sorts below every real var
      uint32_t VarB = Nodes[B].Var;
      uint32_t Var = VarA < VarB ? VarA : VarB;
      Ref ALo = A, AHi = A, BLo = B, BHi = B;
      if (VarA == Var) {
        ALo = Nodes[A].Lo;
        AHi = Nodes[A].Hi;
      }
      if (VarB == Var) {
        BLo = Nodes[B].Lo;
        BHi = Nodes[B].Hi;
      }
      Ref Lo = apply2Rec(ALo, BLo, Fn, Tag);
      Ref Hi = apply2Rec(AHi, BHi, Fn, Tag);
      Result = mkNode(Var, Lo, Hi);
    }
    cacheInsert(Tag, A, B, Result);
    return Result;
  }

  Ref setRec(Ref M, const std::vector<bool> &KeyBits, unsigned Depth,
             const void *Payload);
  Ref iteRec(Ref C, Ref T, Ref E, uint64_t Tag);
};

} // namespace nv

#endif // NV_BDD_MTBDD_H
