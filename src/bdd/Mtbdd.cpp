//===- Mtbdd.cpp - Hash-consed multi-terminal BDDs --------------------------===//

#include <cassert>
#include "bdd/Mtbdd.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>

using namespace nv;

static size_t watermarkFromEnv() {
  if (const char *E = std::getenv("NV_GC_WATERMARK"))
    return static_cast<size_t>(std::strtoull(E, nullptr, 10));
  return BddManager::DefaultGcWatermark;
}

BddManager::BddManager(size_t OpCacheSlots) {
  Nodes.reserve(1 << 12);
  OpCacheCap = 16;
  while (OpCacheCap < OpCacheSlots)
    OpCacheCap <<= 1;
  OpCache.assign(std::min(OpCacheCap, InitialOpCacheSlots), OpEntry{});
  OpCacheMask = OpCache.size() - 1;
  UniqueSlots.assign(size_t(1) << 13, InvalidRef);
  UniqueMask = UniqueSlots.size() - 1;
  LeafSlots.assign(size_t(1) << 10, InvalidRef);
  LeafMask = LeafSlots.size() - 1;
  GcWatermark = watermarkFromEnv();
}

//===----------------------------------------------------------------------===//
// Open-addressed hash-consing tables
//===----------------------------------------------------------------------===//

void BddManager::growUnique() {
  // Safe point before the table is touched: a throw here leaves the old
  // table intact and no node allocated (callers grow before inserting).
  pollSafePoint(GovSite::TableGrow, UniqueSlots.size() * sizeof(Ref));
  PageVector<Ref> Old = std::move(UniqueSlots);
  UniqueSlots.assign(Old.size() * 2, InvalidRef);
  UniqueMask = UniqueSlots.size() - 1;
  for (Ref S : Old) {
    if (S == InvalidRef)
      continue;
    const Node &N = Nodes[S];
    size_t H = hashTriple(N.Var, N.Lo, N.Hi) & UniqueMask;
    while (UniqueSlots[H] != InvalidRef)
      H = (H + 1) & UniqueMask;
    UniqueSlots[H] = S;
  }
}

void BddManager::growLeaf() {
  pollSafePoint(GovSite::TableGrow, LeafSlots.size() * sizeof(Ref));
  PageVector<Ref> Old = std::move(LeafSlots);
  LeafSlots.assign(Old.size() * 2, InvalidRef);
  LeafMask = LeafSlots.size() - 1;
  for (Ref S : Old) {
    if (S == InvalidRef)
      continue;
    size_t H = hashPayload(Nodes[S].Leaf) & LeafMask;
    while (LeafSlots[H] != InvalidRef)
      H = (H + 1) & LeafMask;
    LeafSlots[H] = S;
  }
}

void BddManager::growOpCache() {
  const size_t OldSlots = OpCache.size();
  pollSafePoint(GovSite::TableGrow, OldSlots * sizeof(OpEntry));
  // The first growth reserves up to the cap (address space, touched only
  // as the cache grows into it), so later doublings stay in place: no new
  // buffer, no copy. A manager that never grows reserves nothing.
  OpCache.reserve(OpCacheCap);
  OpCache.resize(OldSlots * 2);
  OpCacheMask = OpCache.size() - 1;
  // Doubling adds one hash bit: an entry either stays in its slot or moves
  // up by OldSlots, so no two live entries collide and none is lost.
  for (size_t I = 0; I < OldSlots; ++I) {
    OpEntry &E = OpCache[I];
    if (E.Tag != 0 && (opHash(E.Tag, E.A, E.B) & OldSlots)) {
      OpCache[I + OldSlots] = E;
      E = OpEntry{};
    }
  }
}

void BddManager::rebuildTables() {
  size_t UniqueCap = UniqueSlots.size();
  while (UniqueCap > (size_t(1) << 13) && UniqueCount * 4 < UniqueCap)
    UniqueCap >>= 1; // shrink after big sweeps, keeping load under 1/2
  size_t LeafCap = LeafSlots.size();
  while (LeafCap > (size_t(1) << 10) && LeafCount * 4 < LeafCap)
    LeafCap >>= 1;
  UniqueSlots.assign(UniqueCap, InvalidRef);
  UniqueMask = UniqueCap - 1;
  LeafSlots.assign(LeafCap, InvalidRef);
  LeafMask = LeafCap - 1;
  for (Ref R = 0; R < Nodes.size(); ++R) {
    const Node &N = Nodes[R];
    if (N.Var == LeafVar) {
      size_t H = hashPayload(N.Leaf) & LeafMask;
      while (LeafSlots[H] != InvalidRef)
        H = (H + 1) & LeafMask;
      LeafSlots[H] = R;
    } else {
      size_t H = hashTriple(N.Var, N.Lo, N.Hi) & UniqueMask;
      while (UniqueSlots[H] != InvalidRef)
        H = (H + 1) & UniqueMask;
      UniqueSlots[H] = R;
    }
  }
}

BddManager::Ref BddManager::leaf(const void *Payload) {
  if ((LeafCount + 1) * 4 > LeafSlots.size() * 3)
    growLeaf();
  ++UniqueLookups;
  size_t H = hashPayload(Payload) & LeafMask;
  while (true) {
    Ref S = LeafSlots[H];
    if (S == InvalidRef)
      break;
    if (Nodes[S].Leaf == Payload) {
      ++UniqueHits;
      return S;
    }
    ++UniqueProbes;
    H = (H + 1) & LeafMask;
  }
  growOpCacheForNewNode();
  Ref R = static_cast<Ref>(Nodes.size());
  Nodes.push_back(Node{LeafVar, 0, 0, Payload});
  LeafSlots[H] = R;
  ++LeafCount;
  if (Nodes.size() > Gc.PeakNodes)
    Gc.PeakNodes = Nodes.size();
  return R;
}

BddManager::Ref BddManager::mkNode(uint32_t Var, Ref Lo, Ref Hi) {
  if (Lo == Hi)
    return Lo;
  assert(Var < LeafVar && "internal nodes must test a real bit");
  assert((isLeaf(Lo) || Nodes[Lo].Var > Var) && "variable order violated");
  assert((isLeaf(Hi) || Nodes[Hi].Var > Var) && "variable order violated");
  if ((UniqueCount + 1) * 4 > UniqueSlots.size() * 3)
    growUnique();
  ++UniqueLookups;
  size_t H = hashTriple(Var, Lo, Hi) & UniqueMask;
  while (true) {
    Ref S = UniqueSlots[H];
    if (S == InvalidRef)
      break;
    const Node &N = Nodes[S];
    if (N.Var == Var && N.Lo == Lo && N.Hi == Hi) {
      ++UniqueHits;
      return S;
    }
    ++UniqueProbes;
    H = (H + 1) & UniqueMask;
  }
  growOpCacheForNewNode();
  Ref R = static_cast<Ref>(Nodes.size());
  Nodes.push_back(Node{Var, Lo, Hi, nullptr});
  UniqueSlots[H] = R;
  ++UniqueCount;
  if (Nodes.size() > Gc.PeakNodes)
    Gc.PeakNodes = Nodes.size();
  return R;
}

BddManager::Ref BddManager::getLeaf(Ref M,
                                    const std::vector<bool> &KeyBits) const {
  Ref R = M;
  while (!isLeaf(R)) {
    const Node &N = Nodes[R];
    assert(N.Var < KeyBits.size() && "key narrower than the diagram");
    R = KeyBits[N.Var] ? N.Hi : N.Lo;
  }
  return R;
}

const void *BddManager::get(Ref M, const std::vector<bool> &KeyBits) const {
  return leafPayload(getLeaf(M, KeyBits));
}

BddManager::Ref BddManager::setRec(Ref M, const std::vector<bool> &KeyBits,
                                   unsigned Depth, const void *Payload) {
  if (Depth == KeyBits.size()) {
    assert(isLeaf(M) && "diagram deeper than the key width");
    return leaf(Payload);
  }
  Ref Lo = M, Hi = M;
  uint32_t Var = Depth;
  if (!isLeaf(M) && Nodes[M].Var == Depth) {
    Lo = Nodes[M].Lo;
    Hi = Nodes[M].Hi;
  }
  if (KeyBits[Depth])
    return mkNode(Var, Lo, setRec(Hi, KeyBits, Depth + 1, Payload));
  return mkNode(Var, setRec(Lo, KeyBits, Depth + 1, Payload), Hi);
}

BddManager::Ref BddManager::set(Ref M, const std::vector<bool> &KeyBits,
                                const void *Payload) {
  return setRec(M, KeyBits, 0, Payload);
}

//===----------------------------------------------------------------------===//
// Garbage collection
//===----------------------------------------------------------------------===//

BddManager::RootSet::RootSet(BddManager &M) : Mgr(M) {
  Mgr.RootSets.push_back(this);
}

BddManager::RootSet::~RootSet() {
  auto &RS = Mgr.RootSets;
  RS.erase(std::find(RS.begin(), RS.end(), this));
}

void BddManager::unpin(Ref R) {
  auto It = Pins.find(R);
  assert(It != Pins.end() && "unpin without a matching pin");
  if (--It->second == 0)
    Pins.erase(It);
}

void BddManager::removeRootProvider(GcRootProvider *P) {
  auto It = std::find(Providers.begin(), Providers.end(), P);
  if (It != Providers.end())
    Providers.erase(It);
}

size_t BddManager::collectGarbage() {
  const size_t Before = Nodes.size();

  // Gather roots. Providers run in registration order; the evaluation
  // context (registered first) resets its per-GC visited set in gcBegin.
  for (GcRootProvider *P : Providers)
    P->gcBegin();
  std::vector<Ref> Work;
  if (TruePayload) {
    Work.push_back(TrueRef);
    Work.push_back(FalseRef);
  }
  for (const auto &[R, Count] : Pins)
    Work.push_back(R);
  for (const RootSet *RS : RootSets)
    Work.insert(Work.end(), RS->Refs.begin(), RS->Refs.end());
  for (GcRootProvider *P : Providers)
    P->appendRoots(Work);

  // Mark. Leaf payloads may reference further diagrams (dict-of-dict):
  // the tracer surfaces those inner roots, which join the work stack.
  std::vector<uint8_t> Marked(Before, 0);
  std::vector<Ref> TracerOut;
  while (!Work.empty()) {
    Ref R = Work.back();
    Work.pop_back();
    assert(R < Before && "root past the node store");
    if (Marked[R])
      continue;
    Marked[R] = 1;
    const Node &N = Nodes[R];
    if (N.Var == LeafVar) {
      if (Tracer) {
        TracerOut.clear();
        Tracer(TracerCookie, N.Leaf, TracerOut);
        Work.insert(Work.end(), TracerOut.begin(), TracerOut.end());
      }
    } else {
      Work.push_back(N.Lo);
      Work.push_back(N.Hi);
    }
  }

  // Sweep: in-place order-preserving compaction. Children always precede
  // parents in the store (hash-consing creates bottom-up), so a forward
  // scan can rewrite Lo/Hi through the remap as it goes. Preserving
  // relative Ref order keeps Ref-comparison canonicalization (bddAnd's
  // operand swap) deterministic across collections.
  std::vector<Ref> Remap(Before, InvalidRef);
  size_t Next = 0;
  UniqueCount = 0;
  LeafCount = 0;
  for (size_t I = 0; I < Before; ++I) {
    if (!Marked[I])
      continue;
    Remap[I] = static_cast<Ref>(Next);
    Node N = Nodes[I];
    if (N.Var != LeafVar) {
      N.Lo = Remap[N.Lo];
      N.Hi = Remap[N.Hi];
      assert(N.Lo != InvalidRef && N.Hi != InvalidRef &&
             "marked node with unmarked child");
      ++UniqueCount;
    } else {
      ++LeafCount;
    }
    Nodes[Next++] = N;
  }
  size_t Reclaimed = Before - Next;
  Nodes.resize(Next);

  rebuildTables();

  // Remap every internal Ref holder.
  if (TruePayload) {
    TrueRef = Remap[TrueRef];
    FalseRef = Remap[FalseRef];
  }
  if (!Pins.empty()) {
    std::unordered_map<Ref, uint32_t> NewPins;
    NewPins.reserve(Pins.size());
    for (const auto &[R, Count] : Pins)
      NewPins.emplace(Remap[R], Count);
    Pins = std::move(NewPins);
  }
  for (RootSet *RS : RootSets)
    for (Ref &R : RS->Refs)
      R = Remap[R];

  // The operation cache holds stale Refs on both sides; drop it.
  clearCaches();

  for (GcRootProvider *P : Providers)
    P->notifyRemap(Remap);

  ++Gc.Collections;
  Gc.NodesReclaimed += Reclaimed;
  Gc.FloorAfterLastGc = Nodes.size();
  return Reclaimed;
}

bool BddManager::maybeCollectAtSafePoint() {
  if (GcWatermark == 0 || Nodes.size() < Gc.FloorAfterLastGc + GcWatermark)
    return false;
  collectGarbage();
  return true;
}

void BddManager::reset() {
  collectGarbage();
}

//===----------------------------------------------------------------------===//
// Boolean diagrams
//===----------------------------------------------------------------------===//

void BddManager::setBoolPayloads(const void *TruePayloadIn,
                                 const void *FalsePayloadIn) {
  TruePayload = TruePayloadIn;
  FalsePayload = FalsePayloadIn;
  TrueRef = leaf(TruePayload);
  FalseRef = leaf(FalsePayload);
}

BddManager::Ref BddManager::bitVar(uint32_t Var) {
  assert(TruePayload && "setBoolPayloads must run first");
  return mkNode(Var, FalseRef, TrueRef);
}

BddManager::Ref BddManager::bddNot(Ref A) {
  return map1(
      A,
      [this](const void *P) {
        return P == TruePayload ? FalsePayload : TruePayload;
      },
      TagNot);
}

namespace {

/// The leaf rule of a boolean apply2, plus its terminal cases: pairs with
/// a constant operand, or equal operands, are answered without recursing.
/// Inside a recursion these are what stop an AND of a literal onto a chain
/// after one step instead of walking the chain.
struct BoolOp {
  using Ref = BddManager::Ref;
  enum Kind { And, Or, Xor } K;
  Ref T, F;
  const void *TP, *FP;

  const void *operator()(const void *X, const void *Y) const {
    bool A = X == TP, B = Y == TP;
    bool R = K == And ? A && B : K == Or ? A || B : A != B;
    return R ? TP : FP;
  }

  bool terminal(Ref A, Ref B, Ref &Out) const {
    switch (K) {
    case And:
      if (A == F || B == F)
        Out = F;
      else if (A == T || A == B)
        Out = B;
      else if (B == T)
        Out = A;
      else
        return false;
      return true;
    case Or:
      if (A == T || B == T)
        Out = T;
      else if (A == F || A == B)
        Out = B;
      else if (B == F)
        Out = A;
      else
        return false;
      return true;
    case Xor:
      if (A == F)
        Out = B;
      else if (B == F)
        Out = A;
      else if (A == B)
        Out = F;
      else
        return false;
      return true;
    }
    return false;
  }
};

BoolOp boolOp(const BddManager &M, BoolOp::Kind K) {
  return {K, M.trueBdd(), M.falseBdd(), M.leafPayload(M.trueBdd()),
          M.leafPayload(M.falseBdd())};
}

} // namespace

// The operations commute: the smaller Ref goes first, so (A, B) and
// (B, A) share one op-cache entry.

BddManager::Ref BddManager::bddAnd(Ref A, Ref B) {
  return apply2(std::min(A, B), std::max(A, B), boolOp(*this, BoolOp::And),
                TagAnd);
}

BddManager::Ref BddManager::bddOr(Ref A, Ref B) {
  return apply2(std::min(A, B), std::max(A, B), boolOp(*this, BoolOp::Or),
                TagOr);
}

BddManager::Ref BddManager::bddXor(Ref A, Ref B) {
  return apply2(std::min(A, B), std::max(A, B), boolOp(*this, BoolOp::Xor),
                TagXor);
}

BddManager::Ref BddManager::bddIte(Ref C, Ref T, Ref E) {
  return bddOr(bddAnd(C, T), bddAnd(bddNot(C), E));
}

BddManager::Ref BddManager::iteRec(Ref C, Ref T, Ref E, uint64_t Tag) {
  if (C == TrueRef)
    return T;
  if (C == FalseRef)
    return E;
  if (T == E)
    return T;
  Ref Cached;
  if (cacheLookup(Tag, C, T, Cached))
    return Cached;
  uint32_t Var = LeafVar;
  for (Ref R : {C, T, E})
    if (!isLeaf(R) && Nodes[R].Var < Var)
      Var = Nodes[R].Var;
  assert(Var != LeafVar && "C must be non-constant here");
  auto Branch = [&](Ref R, bool Hi) {
    if (!isLeaf(R) && Nodes[R].Var == Var)
      return Hi ? Nodes[R].Hi : Nodes[R].Lo;
    return R;
  };
  Ref Lo = iteRec(Branch(C, false), Branch(T, false), Branch(E, false), Tag);
  Ref Hi = iteRec(Branch(C, true), Branch(T, true), Branch(E, true), Tag);
  Ref Result = mkNode(Var, Lo, Hi);
  cacheInsert(Tag, C, T, Result);
  return Result;
}

BddManager::Ref BddManager::mtbddIte(Ref C, Ref T, Ref E) {
  // Encode E into the tag so the (Tag, C, T) cache key identifies the
  // ternary operation uniquely.
  uint64_t Tag = 0xE000000000000000ull + E;
  return iteRec(C, T, E, Tag);
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

size_t BddManager::numDistinctLeaves(Ref R) const {
  std::unordered_set<Ref> Seen;
  std::unordered_set<const void *> LeavesSeen;
  std::vector<Ref> Stack{R};
  while (!Stack.empty()) {
    Ref N = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(N).second)
      continue;
    if (isLeaf(N)) {
      LeavesSeen.insert(leafPayload(N));
      continue;
    }
    Stack.push_back(Nodes[N].Lo);
    Stack.push_back(Nodes[N].Hi);
  }
  return LeavesSeen.size();
}

size_t BddManager::numReachableNodes(Ref R) const {
  std::unordered_set<Ref> Seen;
  std::vector<Ref> Stack{R};
  while (!Stack.empty()) {
    Ref N = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(N).second)
      continue;
    if (isLeaf(N))
      continue;
    Stack.push_back(Nodes[N].Lo);
    Stack.push_back(Nodes[N].Hi);
  }
  return Seen.size();
}

void BddManager::forEachKey(
    Ref R, unsigned NumBits,
    const std::function<void(const std::vector<bool> &, const void *)> &Fn)
    const {
  std::vector<bool> Bits(NumBits, false);
  uint64_t Total = NumBits >= 64 ? 0 : (uint64_t(1) << NumBits);
  if (NumBits >= 26)
    evalError("forEachKey over " + std::to_string(NumBits) +
              " bits is too large to enumerate");
  for (uint64_t K = 0; K < Total; ++K) {
    for (unsigned I = 0; I < NumBits; ++I)
      Bits[I] = (K >> (NumBits - 1 - I)) & 1; // bit 0 is the MSB
    Fn(Bits, get(R, Bits));
  }
}

void BddManager::forEachCube(
    Ref R, unsigned NumBits,
    const std::function<void(const std::vector<int8_t> &, const void *)> &Fn)
    const {
  std::vector<int8_t> Tmpl(NumBits, -1);
  std::function<void(Ref)> Rec = [&](Ref N) {
    if (isLeaf(N)) {
      Fn(Tmpl, leafPayload(N));
      return;
    }
    uint32_t Var = Nodes[N].Var;
    Tmpl[Var] = 0;
    Rec(Nodes[N].Lo);
    Tmpl[Var] = 1;
    Rec(Nodes[N].Hi);
    Tmpl[Var] = -1;
  };
  Rec(R);
}

void BddManager::clearCaches() {
  std::fill(OpCache.begin(), OpCache.end(), OpEntry{});
  std::fill(KeyMemo.begin(), KeyMemo.end(), KeyEntry{});
}

size_t BddManager::memoryBytes() const {
  return Nodes.capacity() * sizeof(Node) +
         UniqueSlots.size() * sizeof(Ref) + LeafSlots.size() * sizeof(Ref) +
         OpCache.size() * sizeof(OpEntry) + KeyMemo.size() * sizeof(KeyEntry) +
         Pins.size() * (sizeof(Ref) + sizeof(uint32_t) + 16);
}
