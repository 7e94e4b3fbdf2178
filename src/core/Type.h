//===- Type.h - NV types ----------------------------------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NV type language of Fig. 6: sized integers, booleans, nodes, edges,
/// options, tuples, records, total dictionaries, arrows, and unification
/// variables used by the type checker.
///
//===----------------------------------------------------------------------===//

#ifndef NV_CORE_TYPE_H
#define NV_CORE_TYPE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nv {

enum class TypeKind : uint8_t {
  Bool,
  Int,    ///< intN, N-bit unsigned wrap-around arithmetic (default N=32)
  Node,   ///< topology node; finite given a concrete topology
  Edge,   ///< topology edge, destructurable as a (node, node) pair
  Option, ///< option[T]
  Tuple,  ///< (T1, ..., Tn), n >= 2
  Record, ///< { l1 : T1; ...; ln : Tn }, labels stored sorted
  Dict,   ///< dict[K, V], a total map; set[K] is sugar for dict[K, bool]
  Arrow,  ///< T1 -> T2
  Var,    ///< unification variable (type checking only)
};

class Type;
using TypePtr = std::shared_ptr<Type>;

/// An NV type. Types are immutable after type checking; during inference,
/// TypeKind::Var nodes act as union-find cells via \c Instance.
class Type {
public:
  TypeKind Kind;

  /// Int: bit width (1..64).
  unsigned Width = 32;

  /// Children: Option -> {elem}; Tuple -> elems; Record -> field types
  /// (parallel to Labels); Dict -> {key, value}; Arrow -> {param, result}.
  std::vector<TypePtr> Elems;

  /// Record labels, sorted ascending; parallel to Elems.
  std::vector<std::string> Labels;

  /// Var: identity and union-find link (null when unbound).
  int VarId = -1;
  TypePtr Instance;

  explicit Type(TypeKind K) : Kind(K) {}

  // Shared constructors for base types; compound types get fresh nodes.
  static TypePtr boolTy();
  static TypePtr intTy(unsigned Width = 32);
  static TypePtr nodeTy();
  static TypePtr edgeTy();
  static TypePtr optionTy(TypePtr Elem);
  static TypePtr tupleTy(std::vector<TypePtr> Elems);
  static TypePtr recordTy(std::vector<std::string> Labels,
                          std::vector<TypePtr> Elems);
  static TypePtr dictTy(TypePtr Key, TypePtr Value);
  static TypePtr setTy(TypePtr Key) { return dictTy(std::move(Key), boolTy()); }
  static TypePtr arrowTy(TypePtr Param, TypePtr Result);
  static TypePtr varTy();

  /// Index of record label \p L, or -1 when absent.
  int labelIndex(const std::string &L) const;
};

/// Follows Instance links of bound unification variables to the
/// representative type. Never returns a bound Var. The result refers to
/// \p T itself or to an Instance link it reaches, so it lives as long as
/// \p T's pointee does: bind it by reference only when \p T is not a
/// temporary, and copy it when the caller rebinds an Instance.
const TypePtr &resolve(const TypePtr &T);
/// resolve() on a borrowed pointer: no reference count is touched.
inline const Type *resolve(const Type *T) {
  while (T && T->Kind == TypeKind::Var && T->Instance)
    T = T->Instance.get();
  return T;
}

/// Structural type equality after resolving unification variables.
bool typeEquals(const TypePtr &A, const TypePtr &B);

/// Renders a type in NV surface syntax (e.g. "dict[(int,int5), option[bool]]").
std::string typeToString(const TypePtr &T);
std::string typeToString(const Type *T);

/// True when the type contains no arrow, dict, or unresolved variable, i.e.
/// it can be encoded as a fixed-size bit vector (usable as a dict key or as
/// an SMT-translatable message component).
bool isFiniteType(const TypePtr &T);

/// True when the type contains no arrow or unresolved variable (dicts
/// allowed). Routing messages must satisfy this.
bool isConcreteType(const TypePtr &T);

/// True when the type contains no unresolved variable at all (arrows and
/// dicts allowed) — i.e. it prints as parseable surface syntax.
bool isClosedType(const TypePtr &T);

} // namespace nv

#endif // NV_CORE_TYPE_H
