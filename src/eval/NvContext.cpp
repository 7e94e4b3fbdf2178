//===- NvContext.cpp - Shared evaluation context ----------------------------===//

#include <cassert>
#include "eval/NvContext.h"

#include "support/Fatal.h"
#include "support/Governor.h"

#include <algorithm>
#include <string_view>

using namespace nv;

NvContext::NvContext(uint32_t NumNodes) : Layout(NumNodes) {
  Value T;
  T.K = Value::Kind::Bool;
  T.B = true;
  TrueV = Arena.intern(std::move(T));
  Value F;
  F.K = Value::Kind::Bool;
  F.B = false;
  FalseV = Arena.intern(std::move(F));
  Value N;
  N.K = Value::Kind::Option;
  N.Inner = nullptr;
  NoneV = Arena.intern(std::move(N));
  // Leaves hash by arena serial, not address: the leaf table's probe
  // counts then repeat from one process to the next.
  Mgr.setPayloadHash([](const void *P) -> uint64_t {
    return static_cast<const Value *>(P)->Serial;
  });
  Mgr.setBoolPayloads(TrueV, FalseV);
  // Registered first so gcBegin clears the shared visited set before any
  // other provider (e.g. the simulator's label roots) walks values.
  Mgr.addRootProvider(this);
  Mgr.setPayloadTracer(&NvContext::tracePayload, this);
}

NvContext::~NvContext() { Mgr.removeRootProvider(this); }

//===----------------------------------------------------------------------===//
// Memory management
//===----------------------------------------------------------------------===//

void NvContext::pinValue(const Value *V) { ++PinnedValues[V]; }

void NvContext::unpinValue(const Value *V) {
  auto It = PinnedValues.find(V);
  assert(It != PinnedValues.end() && "unpinValue without a matching pin");
  if (--It->second == 0)
    PinnedValues.erase(It);
}

void NvContext::collectValueRoots(const Value *V,
                                  std::vector<BddManager::Ref> &Out) {
  if (!V || !GcSeen.insert(V).second)
    return;
  switch (V->K) {
  case Value::Kind::Map:
    // Inner diagrams buried in this map's *leaves* (dict-of-dict) are
    // surfaced by the payload tracer while the marker walks the diagram.
    if (V->MapRoot != BddManager::InvalidRef)
      Out.push_back(V->MapRoot);
    return;
  case Value::Kind::Tuple:
    for (const Value *E : V->Elems)
      collectValueRoots(E, Out);
    return;
  case Value::Kind::Option:
    collectValueRoots(V->Inner, Out);
    return;
  case Value::Kind::Closure: {
    // A closure keeps alive whatever it captured: walk the free variables
    // of its source expression through the capture environment.
    const Expr *Src = V->Closure->sourceExpr();
    if (!Src)
      return;
    for (const std::string &Name : freeVarsOf(Src))
      collectValueRoots(V->Closure->lookupFree(Name), Out);
    return;
  }
  case Value::Kind::Bool:
  case Value::Kind::Int:
  case Value::Kind::Node:
  case Value::Kind::Edge:
    return;
  }
}

void NvContext::gcBegin() { GcSeen.clear(); }

void NvContext::appendRoots(std::vector<BddManager::Ref> &Out) {
  for (const auto &[Key, R] : PredCache)
    Out.push_back(R);
  for (const auto &[V, Count] : PinnedValues)
    collectValueRoots(V, Out);
}

void NvContext::notifyRemap(const std::vector<BddManager::Ref> &Remap) {
  for (auto &[Key, R] : PredCache) {
    R = Remap[R];
    assert(R != BddManager::InvalidRef && "predicate cache entry collected");
  }
  Arena.remapMapRoots(Remap);
}

void NvContext::tracePayload(void *Cookie, const void *Payload,
                             std::vector<BddManager::Ref> &Out) {
  static_cast<NvContext *>(Cookie)->collectValueRoots(
      static_cast<const Value *>(Payload), Out);
}

void NvContext::resetBetweenRuns() { Mgr.reset(); }

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

const Value *NvContext::intV(uint64_t I, unsigned Width) {
  Value V;
  V.K = Value::Kind::Int;
  V.Width = Width;
  V.I = Width >= 64 ? I : (I & ((uint64_t(1) << Width) - 1));
  return Arena.intern(std::move(V));
}

const Value *NvContext::nodeV(uint32_t N) {
  Value V;
  V.K = Value::Kind::Node;
  V.N = N;
  return Arena.intern(std::move(V));
}

const Value *NvContext::edgeV(uint32_t U, uint32_t W) {
  Value V;
  V.K = Value::Kind::Edge;
  V.N = U;
  V.N2 = W;
  return Arena.intern(std::move(V));
}

const Value *NvContext::tupleV(const Value *const *Elems, size_t N) {
  return Arena.internTuple(Elems, N);
}

const Value *NvContext::someV(const Value *Inner) {
  Value V;
  V.K = Value::Kind::Option;
  V.Inner = Inner;
  return Arena.intern(std::move(V));
}

const Value *NvContext::mapV(BddManager::Ref Root, const TypePtr &KeyType) {
  Value V;
  V.K = Value::Kind::Map;
  V.MapRoot = Root;
  V.KeyType = KeyType;
  V.KeyBits = Layout.widthOf(KeyType);
  return Arena.intern(std::move(V));
}

const Value *NvContext::closureV(std::shared_ptr<ClosureData> C) {
  Value V;
  V.K = Value::Kind::Closure;
  V.Closure = std::move(C);
  ++Closures;
  return Arena.store(std::move(V));
}

const Value *NvContext::valueOfLiteral(const Literal &L) {
  switch (L.Kind) {
  case LiteralKind::Bool:
    return boolV(L.BoolVal);
  case LiteralKind::Int:
    return intV(L.IntVal, L.Width);
  case LiteralKind::Node:
    return nodeV(L.NodeVal);
  case LiteralKind::Edge:
    return edgeV(L.NodeVal, L.NodeVal2);
  }
  nv_unreachable("covered switch");
}

const Value *NvContext::applyClosure(const Value *Fn, const Value *Arg) {
  if (Fn->K != Value::Kind::Closure)
    evalError("applied a non-function value: " + Fn->str());
  return Fn->Closure->call(Arg);
}

const Value *NvContext::applyClosureN(const Value *Fn,
                                      const Value *const *Args, size_t N) {
  if (Fn->K != Value::Kind::Closure)
    evalError("applied a non-function value: " + Fn->str());
  return Fn->Closure->callN(Args, N);
}

const Value *ClosureData::callN(const Value *const *Args, size_t N) const {
  const Value *R = call(Args[0]);
  for (size_t I = 1; I < N; ++I)
    R = NvContext::applyClosure(R, Args[I]);
  return R;
}

//===----------------------------------------------------------------------===//
// Bit encoding
//===----------------------------------------------------------------------===//

void NvContext::encodeError(const Type *Ty) {
  evalError("cannot bit-encode a value of type " + typeToString(Ty));
}

const Value *NvContext::decodeValue(const std::vector<bool> &Bits, size_t &Pos,
                                    const TypePtr &RawTy) {
  const TypePtr &Ty = resolve(RawTy);
  switch (Ty->Kind) {
  case TypeKind::Bool:
    return boolV(Bits[Pos++]);
  case TypeKind::Int: {
    uint64_t I = 0;
    for (unsigned B = 0; B < Ty->Width; ++B)
      I = (I << 1) | (Bits[Pos++] ? 1 : 0);
    return intV(I, Ty->Width);
  }
  case TypeKind::Node: {
    uint32_t N = 0;
    for (unsigned B = 0; B < Layout.nodeBits(); ++B)
      N = (N << 1) | (Bits[Pos++] ? 1 : 0);
    return nodeV(N);
  }
  case TypeKind::Edge: {
    uint32_t U = 0, W = 0;
    for (unsigned B = 0; B < Layout.nodeBits(); ++B)
      U = (U << 1) | (Bits[Pos++] ? 1 : 0);
    for (unsigned B = 0; B < Layout.nodeBits(); ++B)
      W = (W << 1) | (Bits[Pos++] ? 1 : 0);
    return edgeV(U, W);
  }
  case TypeKind::Option: {
    bool Tag = Bits[Pos++];
    if (!Tag) {
      Pos += Layout.widthOf(Ty->Elems[0]);
      return NoneV;
    }
    return someV(decodeValue(Bits, Pos, Ty->Elems[0]));
  }
  case TypeKind::Tuple:
  case TypeKind::Record: {
    std::vector<const Value *> Elems;
    Elems.reserve(Ty->Elems.size());
    for (const TypePtr &E : Ty->Elems)
      Elems.push_back(decodeValue(Bits, Pos, E));
    return tupleV(std::move(Elems));
  }
  case TypeKind::Dict:
  case TypeKind::Arrow:
  case TypeKind::Var:
    break;
  }
  evalError("cannot decode a value of type " + typeToString(Ty));
}

const Value *NvContext::defaultValue(const TypePtr &RawTy) {
  const TypePtr &Ty = resolve(RawTy);
  switch (Ty->Kind) {
  case TypeKind::Bool:
    return FalseV;
  case TypeKind::Int:
    return intV(0, Ty->Width);
  case TypeKind::Node:
    return nodeV(0);
  case TypeKind::Edge:
    return edgeV(0, 0);
  case TypeKind::Option:
    return NoneV;
  case TypeKind::Tuple:
  case TypeKind::Record: {
    std::vector<const Value *> Elems;
    for (const TypePtr &E : Ty->Elems)
      Elems.push_back(defaultValue(E));
    return tupleV(std::move(Elems));
  }
  case TypeKind::Dict:
    return mapCreate(Ty->Elems[0], defaultValue(Ty->Elems[1]));
  case TypeKind::Arrow:
  case TypeKind::Var:
    break;
  }
  evalError("type " + typeToString(Ty) + " has no default value");
}

std::vector<const Value *> NvContext::enumerateType(const TypePtr &RawTy) {
  const TypePtr &Ty = resolve(RawTy);
  unsigned W = Layout.widthOf(Ty);
  if (W > 22)
    evalError("enumerateType over " + std::to_string(W) +
              " bits is too large");
  std::vector<const Value *> Out;
  std::vector<bool> Bits(W, false);
  for (uint64_t K = 0; K < (uint64_t(1) << W); ++K) {
    for (unsigned I = 0; I < W; ++I)
      Bits[I] = (K >> (W - 1 - I)) & 1;
    size_t Pos = 0;
    const Value *V = decodeValue(Bits, Pos, Ty);
    // Bit patterns are not always injective (None payload bits, node ids
    // above the topology size): deduplicate and drop phantoms.
    if (Ty->Kind == TypeKind::Node && V->N >= Layout.numNodes())
      continue;
    if (Ty->Kind == TypeKind::Edge &&
        (V->N >= Layout.numNodes() || V->N2 >= Layout.numNodes()))
      continue;
    if (std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(V);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Map runtime
//===----------------------------------------------------------------------===//

const Value *NvContext::mapCreate(const TypePtr &KeyTy, const Value *Default) {
  return mapV(Mgr.leaf(Default), resolve(KeyTy));
}

const Value *NvContext::mapGet(const Value *M, const Value *Key) {
  assert(M->K == Value::Kind::Map && "get on a non-map");
  KeyBits.clear();
  encodeValue(Key, M->KeyType, KeyBits);
  return static_cast<const Value *>(Mgr.get(M->MapRoot, KeyBits));
}

const Value *NvContext::mapSet(const Value *M, const Value *Key,
                               const Value *V) {
  assert(M->K == Value::Kind::Map && "set on a non-map");
  KeyBits.clear();
  encodeValue(Key, M->KeyType, KeyBits);
  return mapV(Mgr.set(M->MapRoot, KeyBits, V), M->KeyType);
}

const Value *NvContext::mapMap(const Value *Fn, const Value *M) {
  assert(M->K == Value::Kind::Map && "map on a non-map");
  uint64_t Tag = opTag(TagKindMap, Fn->Closure->cacheKey());
  BddManager::Ref R = Mgr.map1(
      M->MapRoot,
      [&](const void *Leaf) {
        return applyClosure(Fn, static_cast<const Value *>(Leaf));
      },
      Tag);
  return mapV(R, M->KeyType);
}

const Value *NvContext::mapCombine(const Value *Fn, const Value *A,
                                   const Value *B) {
  assert(A->K == Value::Kind::Map && B->K == Value::Kind::Map &&
         "combine on non-maps");
  assert(A->KeyBits == B->KeyBits && "combine over mismatched key types");
  uint64_t Tag = opTag(TagKindCombine, Fn->Closure->cacheKey());
  BddManager::Ref R = Mgr.apply2(
      A->MapRoot, B->MapRoot,
      [&](const void *X, const void *Y) {
        return applyClosure2(Fn, static_cast<const Value *>(X),
                             static_cast<const Value *>(Y));
      },
      Tag);
  return mapV(R, A->KeyType);
}

namespace {

/// mapIte's leaf rule: the then-function where the predicate holds, the
/// else-function elsewhere. Its first operand is always a predicate.
struct IteLeaf {
  static constexpr bool PredicateFirst = true;
  const Value *TrueV, *FnThen, *FnElse;
  const void *operator()(const void *P, const void *Leaf) const {
    return NvContext::applyClosure(P == TrueV ? FnThen : FnElse,
                                   static_cast<const Value *>(Leaf));
  }
};

} // namespace

const Value *NvContext::mapIte(const Value *Pred, const Value *FnThen,
                               const Value *FnElse, const Value *M) {
  assert(M->K == Value::Kind::Map && "mapIte on a non-map");
  BddManager::Ref PredBdd = predToBdd(Pred, M->KeyType);
  uint64_t Tag = opTag(TagKindIte, FnThen->Closure->cacheKey(),
                       FnElse->Closure->cacheKey());
  BddManager::Ref R = Mgr.apply2(PredBdd, M->MapRoot,
                                 IteLeaf{TrueV, FnThen, FnElse}, Tag);
  return mapV(R, M->KeyType);
}

std::string NvContext::printValue(const Value *V) {
  switch (V->K) {
  case Value::Kind::Map: {
    std::string S = "[";
    bool First = true;
    Mgr.forEachCube(V->MapRoot, V->KeyBits,
                    [&](const std::vector<int8_t> &Cube, const void *Leaf) {
                      if (!First)
                        S += "; ";
                      First = false;
                      for (int8_t B : Cube)
                        S += B < 0 ? '*' : static_cast<char>('0' + B);
                      S += " := ";
                      S += printValue(static_cast<const Value *>(Leaf));
                    });
    return S + "]";
  }
  case Value::Kind::Tuple: {
    std::string S = "(";
    for (size_t I = 0; I < V->Elems.size(); ++I) {
      if (I)
        S += ", ";
      S += printValue(V->Elems[I]);
    }
    return S + ")";
  }
  case Value::Kind::Option:
    return V->Inner ? "Some " + printValue(V->Inner) : "None";
  default:
    return V->str();
  }
}

//===----------------------------------------------------------------------===//
// Closure identity and operation tags
//===----------------------------------------------------------------------===//

NvContext::ClosureEntry &
NvContext::closureEntry(const Expr *Src, const Value *const *Captured,
                        size_t N) {
  const std::vector<std::string> *FreeVars = &freeVarsOf(Src);
  uint64_t H = reinterpret_cast<uint64_t>(Src) * 0x9E3779B97F4A7C15ull;
  for (size_t I = 0; I < N; ++I)
    H = (H ^ reinterpret_cast<uint64_t>(Captured[I])) * 0x9E3779B97F4A7C15ull;
  H ^= H >> 32;
  ClosureEntry *E = ClosureTable.find(H, [&](const ClosureEntry &O) {
    return O.Src == Src && O.FreeVars.get() == FreeVars &&
           std::equal(Captured, Captured + N, O.Captured.begin(),
                      O.Captured.end());
  });
  if (E)
    return *E;
  E = &ClosureEntries.emplace_back();
  E->Src = Src;
  E->FreeVars = Src->CachedFreeVars;
  E->Captured.assign(Captured, Captured + N);
  E->Id = ClosureEntries.size();
  ClosureTable.insert(H, E);
  return *E;
}

uint64_t NvContext::opTag(uint64_t Kind, uint64_t K1, uint64_t K2) {
  OpTagKey Key{Kind, K1, K2};
  auto It = OpTags.find(Key);
  if (It != OpTags.end())
    return It->second;
  uint64_t Tag = Mgr.freshOpTag();
  OpTags.emplace(Key, Tag);
  return Tag;
}

//===----------------------------------------------------------------------===//
// Free variables
//===----------------------------------------------------------------------===//

namespace {

/// One free-variable walk. Binders in scope form a stack (leaving a scope
/// truncates it to its mark), and free occurrences collect in one list,
/// sorted and deduplicated once.
struct FreeVarWalk {
  std::vector<std::string_view> Bound, Free;

  void walk(const Expr *E) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::Var:
      if (std::find(Bound.begin(), Bound.end(), E->Name) == Bound.end())
        Free.push_back(E->Name);
      return;
    case ExprKind::Let:
      walk(E->Args[0].get());
      Bound.push_back(E->Name);
      walk(E->Args[1].get());
      Bound.pop_back();
      return;
    case ExprKind::Fun:
      Bound.push_back(E->Name);
      walk(E->Args[0].get());
      Bound.pop_back();
      return;
    case ExprKind::Match:
      walk(E->Args[0].get());
      for (const MatchCase &C : E->Cases) {
        size_t Mark = Bound.size();
        C.Pat->boundVars(Bound);
        walk(C.Body.get());
        Bound.resize(Mark);
      }
      return;
    default:
      for (const ExprPtr &A : E->Args)
        walk(A.get());
      return;
    }
  }
};

} // namespace

const std::vector<std::string> &nv::freeVarsOf(const Expr *E) {
  if (!E->CachedFreeVars) {
    FreeVarWalk W;
    W.walk(E);
    std::sort(W.Free.begin(), W.Free.end());
    W.Free.erase(std::unique(W.Free.begin(), W.Free.end()), W.Free.end());
    E->CachedFreeVars = std::make_shared<const std::vector<std::string>>(
        W.Free.begin(), W.Free.end());
  }
  return *E->CachedFreeVars;
}
