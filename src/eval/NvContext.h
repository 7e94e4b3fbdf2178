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
#include <unordered_map>
#include <unordered_set>

namespace nv {

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
  const Value *tupleV(std::vector<const Value *> Elems);
  const Value *someV(const Value *Inner);
  const Value *noneV() { return NoneV; }
  const Value *mapV(BddManager::Ref Root, TypePtr KeyType);
  /// Stores a new closure value (closures are not interned).
  const Value *closureV(std::shared_ptr<ClosureData> C);
  const Value *valueOfLiteral(const Literal &L);

  /// Applies an NV function value to an argument.
  const Value *applyClosure(const Value *Fn, const Value *Arg);

  //===--------------------------------------------------------------------===//
  // Bit encoding of finite values (Sec. 5.1)
  //===--------------------------------------------------------------------===//

  /// Appends the MSB-first bit encoding of \p V (of finite type \p Ty).
  void encodeValue(const Value *V, const TypePtr &Ty, std::vector<bool> &Out);

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

  /// A stable MTBDD operation tag for the semantic operation identified by
  /// (Kind, K1, K2): same inputs, same tag.
  uint64_t opTag(uint64_t Kind, uint64_t K1, uint64_t K2 = 0);

  /// Builds (and caches) the predicate BDD of an NV function over the bit
  /// encoding of its key-typed parameter, by symbolic evaluation of the
  /// closure body (implemented in SymBdd.cpp).
  BddManager::Ref predToBdd(const Value *Pred, const TypePtr &KeyTy);

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
