//===- Value.h - NV runtime values ------------------------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable, interned runtime values. Interning makes structural equality
/// pointer equality, which is what lets MTBDD leaves (Sec. 5.1) share and
/// compare in O(1). Map values embed the canonical MTBDD root; closure
/// values carry an abstract callable plus enough source information to
/// evaluate them symbolically over key bits (the mapIte predicate path).
///
/// Every value lives in its context's ValueArena until the context dies.
/// Non-closure values are hash-consed through the arena's open-addressed
/// intern table. Closures never enter it: NvContext's closure table makes
/// compiled closures canonical per (Fun, captured values) before they are
/// built, and the arena only stores them.
///
//===----------------------------------------------------------------------===//

#ifndef NV_EVAL_VALUE_H
#define NV_EVAL_VALUE_H

#include "bdd/Mtbdd.h"
#include "core/Type.h"
#include "support/PtrTable.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace nv {

class Value;
struct Expr;

/// An abstract NV function value. Implemented by the tree-walking
/// interpreter and by the closure compiler; the map runtime and simulator
/// only see this interface.
class ClosureData {
public:
  virtual ~ClosureData();

  /// Applies the closure to one argument.
  virtual const Value *call(const Value *Arg) const = 0;

  /// A stable identity for MTBDD operation caching: two closures with the
  /// same key must denote the same function. Computed from the source
  /// expression identity and the captured environment values.
  virtual uint64_t cacheKey() const = 0;

  /// The Fun expression this closure was built from (for symbolic
  /// evaluation of predicates over map keys).
  virtual const Expr *sourceExpr() const = 0;

  /// Looks up a captured (free) variable by name; null when absent.
  virtual const Value *lookupFree(const std::string &Name) const = 0;

protected:
  ClosureData() = default;
};

/// An immutable NV value. Construct only through ValueArena (or the
/// NvContext convenience factories) so pointers are canonical.
class Value {
public:
  enum class Kind : uint8_t {
    Bool,
    Int,
    Node,
    Edge,
    Tuple, ///< Also used for record values (fields in sorted-label order).
    Option,
    Map,
    Closure,
  };

  Kind K = Kind::Bool;
  bool B = false;
  uint64_t I = 0;      ///< Int payload (truncated to Width bits).
  unsigned Width = 32; ///< Int width.
  uint32_t N = 0;      ///< Node id; Edge source.
  uint32_t N2 = 0;     ///< Edge target.
  /// Position in the arena's storage order: a deterministic identity that
  /// MTBDD leaf tables hash by instead of the address.
  uint32_t Serial = 0;
  std::vector<const Value *> Elems; ///< Tuple components.
  const Value *Inner = nullptr;     ///< Option payload (null = None).
  BddManager::Ref MapRoot = 0;      ///< Map: canonical MTBDD root.
  unsigned KeyBits = 0;             ///< Map: key bit width.
  TypePtr KeyType;                  ///< Map: key type (for printing/get).
  std::shared_ptr<ClosureData> Closure;

  bool isBool() const { return K == Kind::Bool; }
  bool isTrue() const { return K == Kind::Bool && B; }
  bool isNone() const { return K == Kind::Option && !Inner; }
  bool isSome() const { return K == Kind::Option && Inner; }

  /// Structural hash; maps hash by canonical root. Closures have none:
  /// they are canonical by construction and never interned.
  uint64_t hash() const;
  /// hash() of a tuple with components \p Elems[0..N).
  static uint64_t tupleHash(const Value *const *Elems, size_t N);
  /// Structural equality consistent with hash() (not for closures).
  bool equals(const Value &O) const;

  /// Renders the value (maps print as "<map:N leaves>" without a context;
  /// NvContext::printValue gives full map contents).
  std::string str() const;
};

/// Hash-consing arena for values. Pointers returned by intern() are
/// canonical: equal values get equal pointers.
class ValueArena {
public:
  /// The canonical copy of \p V (not a closure).
  const Value *intern(Value &&V);
  /// The canonical tuple of \p Elems[0..N), read in place: a vector is
  /// built only when the tuple is new.
  const Value *internTuple(const Value *const *Elems, size_t N);
  /// Stores \p V without interning: closures are canonical by construction
  /// (NvContext's closure table).
  const Value *store(Value &&V);
  size_t size() const { return Storage.size(); }
  /// Values in the intern table (everything stored but closures and
  /// collected maps).
  size_t interned() const { return Table.size(); }

  /// GC support: rewrites every map value's MapRoot through \p Remap
  /// (Remap[old] == BddManager::InvalidRef marks a collected root) and
  /// rebuilds the intern table, live maps under their new root. Dead maps
  /// get an InvalidRef root and do not re-enter the table. They keep their
  /// storage (outstanding pointers stay valid) but intern() never returns
  /// them again, so a later map that reuses the same Ref index gets a fresh
  /// canonical value instead of aliasing a corpse.
  void remapMapRoots(const std::vector<BddManager::Ref> &Remap);

private:
  std::deque<Value> Storage;
  PtrTable<Value> Table;

  Value *append(Value &&V);
};

} // namespace nv

#endif // NV_EVAL_VALUE_H
