//===- BitLayout.h - Bit encoding of finite NV types ------------*- C++ -*-===//
//
// Part of nv-cpp. Finite NV types are encoded as fixed-width bit vectors
// for use as MTBDD keys (Sec. 5.1): ints bitwise (MSB first), nodes with
// ceil(log2(numNodes)) bits, edges as two node fields, options as a tag
// bit followed by the payload, tuples/records by concatenation.
//
//===----------------------------------------------------------------------===//

#ifndef NV_BDD_BITLAYOUT_H
#define NV_BDD_BITLAYOUT_H

#include "core/Type.h"
#include "support/Governor.h"

namespace nv {

/// Computes bit widths of finite types for a concrete topology.
class BitLayout {
public:
  explicit BitLayout(uint32_t NumNodes) : NumNodes(NumNodes) {
    NodeBits = 1;
    while ((uint64_t(1) << NodeBits) < NumNodes)
      ++NodeBits;
  }

  uint32_t numNodes() const { return NumNodes; }
  unsigned nodeBits() const { return NodeBits; }

  /// Bit width of a finite type. Raises a recoverable EngineError on
  /// non-finite types (callers check isFiniteType first; map keys are
  /// validated by the type checker).
  unsigned widthOf(const TypePtr &T) const { return widthOf(T.get()); }
  unsigned widthOf(const Type *RawT) const {
    const Type *T = resolve(RawT);
    switch (T->Kind) {
    case TypeKind::Bool:
      return 1;
    case TypeKind::Int:
      return T->Width;
    case TypeKind::Node:
      return NodeBits;
    case TypeKind::Edge:
      return 2 * NodeBits;
    case TypeKind::Option: {
      return 1 + widthOf(T->Elems[0].get());
    }
    case TypeKind::Tuple:
    case TypeKind::Record: {
      unsigned W = 0;
      for (const TypePtr &E : T->Elems)
        W += widthOf(E.get());
      return W;
    }
    case TypeKind::Dict:
    case TypeKind::Arrow:
    case TypeKind::Var:
      break;
    }
    evalError("type " + typeToString(T) + " has no bit encoding");
  }

private:
  uint32_t NumNodes;
  unsigned NodeBits;
};

} // namespace nv

#endif // NV_BDD_BITLAYOUT_H
