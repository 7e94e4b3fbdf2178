//===- NvContext.h - Shared evaluation context ------------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared state of one analysis run: the MTBDD manager, the value
/// interning arena, the bit layout for the concrete topology, the closure
/// table that makes closures canonical and gives them the ids used to
/// memoize MTBDD operations across simulator iterations, and the map
/// runtime implementing Fig. 7's operations over MTBDDs (Sec. 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef NV_EVAL_NVCONTEXT_H
#define NV_EVAL_NVCONTEXT_H

#include "bdd/BitLayout.h"
#include "bdd/Mtbdd.h"
#include "core/Ast.h"
#include "eval/Value.h"
#include "support/PtrTable.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

namespace nv {

/// Runtime frame of compiled code: slot-indexed values (captured values,
/// then the parameter, then locals), used as a stack.
using Frame = std::vector<const Value *>;

/// Shared evaluation state. One NvContext per analysis — or, since the
/// MTBDD memory overhaul, one per analysis *shard*, reused across
/// scenarios: resetBetweenRuns() garbage-collects the diagram store back
/// to the pinned baseline (predicate cache, pinned globals) instead of
/// forcing callers to re-parse the program to get a fresh arena.
///
/// The context is the manager's primary GcRootProvider: it reports the
/// predicate-BDD cache and every pinned value (pinValue/unpinValue walk
/// tuples, options, closures' captured environments, and map roots), and
/// it serves as the payload tracer that surfaces diagram roots buried in
/// dict-of-dict leaf values during marking. After a sweep it remaps the
/// predicate cache and the value arena's map roots.
class NvContext : public BddManager::GcRootProvider {
public:
  explicit NvContext(uint32_t NumNodes);
  ~NvContext() override;

  BddManager Mgr;
  BitLayout Layout;
  ValueArena Arena;

  const Value *TrueV = nullptr;
  const Value *FalseV = nullptr;
  const Value *NoneV = nullptr;

  //===--------------------------------------------------------------------===//
  // Value factories (canonical pointers)
  //===--------------------------------------------------------------------===//

  const Value *boolV(bool B) { return B ? TrueV : FalseV; }
  const Value *intV(uint64_t I, unsigned Width = 32);
  const Value *nodeV(uint32_t N);
  const Value *edgeV(uint32_t U, uint32_t V);
  const Value *tupleV(const Value *const *Elems, size_t N);
  const Value *tupleV(const std::vector<const Value *> &Elems) {
    return tupleV(Elems.data(), Elems.size());
  }
  const Value *someV(const Value *Inner);
  const Value *noneV() { return NoneV; }
  const Value *mapV(BddManager::Ref Root, const TypePtr &KeyType);
  /// Stores a new closure value (closures are not interned).
  const Value *closureV(std::shared_ptr<ClosureData> C);
  const Value *valueOfLiteral(const Literal &L);

  /// Applies an NV function value to an argument.
  static const Value *applyClosure(const Value *Fn, const Value *Arg);
  /// Applies \p Fn to \p Args[0..N), N >= 1: `Fn a1 ... an` in one call.
  static const Value *applyClosureN(const Value *Fn, const Value *const *Args,
                                    size_t N);
  static const Value *applyClosure2(const Value *Fn, const Value *A,
                                    const Value *B) {
    const Value *Args[2] = {A, B};
    return applyClosureN(Fn, Args, 2);
  }

  /// A frame leased from the context's pool for one compiled-closure call.
  /// The frame goes back to the pool, capacity kept, when the lease ends,
  /// also when evaluation throws; a warm call allocates nothing.
  class FrameLease {
  public:
    explicit FrameLease(NvContext &Ctx) : Ctx(Ctx) {
      if (Ctx.FramePool.empty()) {
        // Room for every frame in existence, so that returning one in the
        // destructor never allocates.
        Ctx.FramePool.reserve(Ctx.FramesLeased + 1);
        F.reserve(16);
      } else {
        F = std::move(Ctx.FramePool.back());
        Ctx.FramePool.pop_back();
      }
      ++Ctx.FramesLeased;
    }
    ~FrameLease() {
      F.clear();
      Ctx.FramePool.push_back(std::move(F));
      --Ctx.FramesLeased;
    }
    FrameLease(const FrameLease &) = delete;
    FrameLease &operator=(const FrameLease &) = delete;

    Frame &operator*() { return F; }

  private:
    NvContext &Ctx;
    Frame F;
  };

  /// Frames currently leased: zero whenever no compiled call is running.
  size_t framesLeased() const { return FramesLeased; }

  //===--------------------------------------------------------------------===//
  // Bit encoding of finite values (Sec. 5.1)
  //===--------------------------------------------------------------------===//

  /// Appends the MSB-first bit encoding of \p V (of finite type \p Ty).
  void encodeValue(const Value *V, const TypePtr &Ty, std::vector<bool> &Out) {
    forEachBit(V, Ty.get(), [&](bool B) { Out.push_back(B); });
  }

  /// Calls \p Emit(bool) on each bit of \p V's encoding, MSB first.
  template <class EmitFn>
  void forEachBit(const Value *V, const Type *RawTy, EmitFn &&Emit) {
    const Type *Ty = resolve(RawTy);
    auto EmitUInt = [&](uint64_t X, unsigned W) {
      for (unsigned I = W; I-- > 0;)
        Emit(((X >> I) & 1) != 0);
    };
    switch (Ty->Kind) {
    case TypeKind::Bool:
      Emit(V->B);
      return;
    case TypeKind::Int:
      EmitUInt(V->I, Ty->Width);
      return;
    case TypeKind::Node:
      EmitUInt(V->N, Layout.nodeBits());
      return;
    case TypeKind::Edge:
      EmitUInt(V->N, Layout.nodeBits());
      EmitUInt(V->N2, Layout.nodeBits());
      return;
    case TypeKind::Option:
      Emit(V->Inner != nullptr);
      if (V->Inner)
        forEachBit(V->Inner, Ty->Elems[0].get(), Emit);
      else
        EmitUInt(0, Layout.widthOf(Ty->Elems[0].get()));
      return;
    case TypeKind::Tuple:
    case TypeKind::Record:
      for (size_t I = 0; I < Ty->Elems.size(); ++I)
        forEachBit(V->Elems[I], Ty->Elems[I].get(), Emit);
      return;
    case TypeKind::Dict:
    case TypeKind::Arrow:
    case TypeKind::Var:
      break;
    }
    encodeError(Ty);
  }

  /// Decodes a value of type \p Ty starting at \p Pos (advanced past it).
  const Value *decodeValue(const std::vector<bool> &Bits, size_t &Pos,
                           const TypePtr &Ty);

  /// The canonical default value of a concrete type: false / 0 / 0n /
  /// (0n,0n) / None / tuple of defaults / constant map of defaults.
  const Value *defaultValue(const TypePtr &Ty);

  /// Enumerates every value of a small finite type (tests, frontends).
  std::vector<const Value *> enumerateType(const TypePtr &Ty);

  //===--------------------------------------------------------------------===//
  // Map runtime (Fig. 7 over MTBDDs)
  //===--------------------------------------------------------------------===//

  const Value *mapCreate(const TypePtr &KeyTy, const Value *Default);
  const Value *mapGet(const Value *M, const Value *Key);
  const Value *mapSet(const Value *M, const Value *Key, const Value *V);
  const Value *mapMap(const Value *Fn, const Value *M);
  const Value *mapCombine(const Value *Fn, const Value *A, const Value *B);
  const Value *mapIte(const Value *Pred, const Value *FnThen,
                      const Value *FnElse, const Value *M);

  /// Renders a map's contents as cubes (testing/debugging).
  std::string printValue(const Value *V);

  //===--------------------------------------------------------------------===//
  // Closure identity and operation tags
  //===--------------------------------------------------------------------===//

  /// One closure identity: the Fun expression a closure was built from and
  /// the values it captured, in freeVarsOf(Src) order.
  struct ClosureEntry {
    const Expr *Src = nullptr;
    /// Src's free-variable list, held so that it outlives Src: a Fun
    /// allocated later at a freed Src's address has a different list, so
    /// it never matches this entry (nor reuses its id).
    std::shared_ptr<const std::vector<std::string>> FreeVars;
    std::vector<const Value *> Captured;
    /// Canonical id: equal (Src, Captured) get equal ids, which makes
    /// MTBDD operation caching effective across simulator iterations.
    uint64_t Id = 0;
    /// The canonical compiled closure, once one is built (interpreted
    /// closures only take the id).
    const Value *Closure = nullptr;
  };

  /// The entry of (\p Src, \p Captured[0..N)), created with a fresh id on
  /// first use. Entries live as long as the context.
  ClosureEntry &closureEntry(const Expr *Src, const Value *const *Captured,
                             size_t N);

  /// The canonical closure of \p Src over \p Captured[0..N): the existing
  /// one, or \p Make(entry)'s, stored and recorded in the entry.
  template <class MakeFn>
  const Value *canonicalClosure(const Expr *Src, const Value *const *Captured,
                                size_t N, MakeFn &&Make) {
    ClosureEntry &E = closureEntry(Src, Captured, N);
    if (E.Closure) {
      ++ClosureHits;
      return E.Closure;
    }
    return E.Closure = closureV(Make(static_cast<const ClosureEntry &>(E)));
  }

  /// Closure values evaluation asked for: every Fun evaluation, including
  /// those the closure table answered with an existing closure.
  uint64_t closuresCreated() const { return Closures + ClosureHits; }
  /// Closure values stored in the arena (distinct closures).
  uint64_t closures() const { return Closures; }
  /// Every pinned value with its pin count.
  const std::unordered_map<const Value *, uint32_t> &pinnedValues() const {
    return PinnedValues;
  }

  /// The map operations' tag kinds; K1 (and K2, for mapIte's else branch)
  /// are the closures' ids.
  enum TagKind : uint64_t {
    TagKindMap = 1,
    TagKindCombine = 2,
    TagKindIte = 3,
  };

  /// A stable MTBDD operation tag for the semantic operation identified by
  /// (Kind, K1, K2): same inputs, same tag.
  uint64_t opTag(uint64_t Kind, uint64_t K1, uint64_t K2 = 0);

  /// Builds (and caches) the predicate BDD of an NV function over the bit
  /// encoding of its key-typed parameter, by symbolic evaluation of the
  /// closure body (implemented in SymBdd.cpp).
  BddManager::Ref predToBdd(const Value *Pred, const TypePtr &KeyTy);
  /// Predicate BDDs built so far: one per distinct predicate closure id.
  size_t predicatesCached() const { return PredCache.size(); }
  /// Storage symbolic evaluation reuses across predToBdd runs (opaque;
  /// defined in SymBdd.cpp).
  struct SymScratch;

  //===--------------------------------------------------------------------===//
  // Memory management (GC roots and scenario reuse)
  //===--------------------------------------------------------------------===//

  /// Pins \p V (reference-counted): every diagram reachable from it —
  /// through tuples, options, closure captures, and map roots — survives
  /// garbage collection. Evaluators pin their globals and partial
  /// applications; analyses pin values they retain across scenarios.
  void pinValue(const Value *V);
  void unpinValue(const Value *V);

  /// Appends the diagram roots reachable from \p V to \p Out, deduplicated
  /// against the per-collection visited set (cleared in gcBegin).
  void collectValueRoots(const Value *V, std::vector<BddManager::Ref> &Out);

  /// Safe point between scenarios: garbage-collects the diagram store back
  /// to the pinned baseline (predicate cache, pinned values). The program,
  /// layout, interned scalars, closure table and op tags all persist, so the
  /// next scenario skips parsing/typechecking/compilation entirely.
  void resetBetweenRuns();

  // BddManager::GcRootProvider:
  void gcBegin() override;
  void appendRoots(std::vector<BddManager::Ref> &Out) override;
  void notifyRemap(const std::vector<BddManager::Ref> &Remap) override;

private:
  struct OpTagKey {
    uint64_t Kind, K1, K2;
    bool operator==(const OpTagKey &O) const {
      return Kind == O.Kind && K1 == O.K1 && K2 == O.K2;
    }
  };
  struct OpTagKeyHash {
    size_t operator()(const OpTagKey &K) const {
      uint64_t H = K.Kind;
      H = (H ^ K.K1) * 0x9E3779B97F4A7C15ull;
      H = (H ^ K.K2) * 0x9E3779B97F4A7C15ull;
      return static_cast<size_t>(H ^ (H >> 32));
    }
  };

  [[noreturn]] static void encodeError(const Type *Ty);
  /// \p Key's bits under \p M's key type, in KeyBits.
  const std::vector<bool> &keyBits(const Value *M, const Value *Key);

  std::vector<Frame> FramePool;
  size_t FramesLeased = 0;
  /// Scratch key bits of mapGet/mapSet.
  std::vector<bool> KeyBits;

  struct SymScratchDeleter {
    void operator()(SymScratch *S) const;
  };
  std::unique_ptr<SymScratch, SymScratchDeleter> Sym;

  std::deque<ClosureEntry> ClosureEntries;
  PtrTable<ClosureEntry> ClosureTable;
  uint64_t Closures = 0, ClosureHits = 0;
  std::unordered_map<OpTagKey, uint64_t, OpTagKeyHash> OpTags;
  std::unordered_map<uint64_t, BddManager::Ref> PredCache;

  std::unordered_map<const Value *, uint32_t> PinnedValues;
  /// Values already walked during the current collection (root gathering
  /// and leaf-payload tracing share it; cleared in gcBegin).
  std::unordered_set<const Value *> GcSeen;

  static void tracePayload(void *Cookie, const void *Payload,
                           std::vector<BddManager::Ref> &Out);
};

/// Free variables of an expression (memoized per Expr node identity),
/// sorted and deduplicated. Used to compute closure capture sets.
const std::vector<std::string> &freeVarsOf(const Expr *E);

} // namespace nv

#endif // NV_EVAL_NVCONTEXT_H
