//===- Value.cpp - NV runtime values ---------------------------------------===//

#include "eval/Value.h"

#include "support/Fatal.h"
#include "support/Governor.h"

#include <algorithm>
#include <cassert>

using namespace nv;

ClosureData::~ClosureData() = default;

static uint64_t hashCombine(uint64_t H, uint64_t V) {
  return (H ^ V) * 0x9E3779B97F4A7C15ull;
}

static uint64_t kindSeed(Value::Kind K) {
  return hashCombine(0x243F6A8885A308D3ull, static_cast<uint64_t>(K));
}

uint64_t Value::tupleHash(const Value *const *Elems, size_t N) {
  uint64_t H = kindSeed(Kind::Tuple);
  for (size_t I = 0; I < N; ++I)
    H = hashCombine(H, reinterpret_cast<uint64_t>(Elems[I]));
  return H ^ (H >> 32);
}

uint64_t Value::hash() const {
  uint64_t H = kindSeed(K);
  switch (K) {
  case Kind::Bool:
    H = hashCombine(H, B ? 1 : 0);
    break;
  case Kind::Int:
    H = hashCombine(hashCombine(H, I), Width);
    break;
  case Kind::Node:
    H = hashCombine(H, N);
    break;
  case Kind::Edge:
    H = hashCombine(hashCombine(H, N), N2);
    break;
  case Kind::Tuple:
    return tupleHash(Elems.data(), Elems.size());
  case Kind::Option:
    H = hashCombine(H, reinterpret_cast<uint64_t>(Inner));
    break;
  case Kind::Map:
    H = hashCombine(hashCombine(H, MapRoot), KeyBits);
    break;
  case Kind::Closure:
    nv_unreachable("closures are not interned");
  }
  // The intern table indexes by the low bits; fold the high ones in.
  return H ^ (H >> 32);
}

bool Value::equals(const Value &O) const {
  if (K != O.K)
    return false;
  switch (K) {
  case Kind::Bool:
    return B == O.B;
  case Kind::Int:
    return I == O.I && Width == O.Width;
  case Kind::Node:
    return N == O.N;
  case Kind::Edge:
    return N == O.N && N2 == O.N2;
  case Kind::Tuple:
    // Components are themselves interned: pointer comparison suffices.
    return Elems == O.Elems;
  case Kind::Option:
    return Inner == O.Inner;
  case Kind::Map:
    return MapRoot == O.MapRoot && KeyBits == O.KeyBits;
  case Kind::Closure:
    nv_unreachable("closures are not interned");
  }
  nv_unreachable("covered switch");
}

std::string Value::str() const {
  switch (K) {
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Int:
    if (Width == 32)
      return std::to_string(I);
    return std::to_string(I) + "u" + std::to_string(Width);
  case Kind::Node:
    return std::to_string(N) + "n";
  case Kind::Edge:
    return std::to_string(N) + "n~" + std::to_string(N2) + "n";
  case Kind::Tuple: {
    std::string S = "(";
    for (size_t I2 = 0; I2 < Elems.size(); ++I2) {
      if (I2)
        S += ", ";
      S += Elems[I2]->str();
    }
    return S + ")";
  }
  case Kind::Option:
    return Inner ? "Some " + Inner->str() : "None";
  case Kind::Map:
    return "<map:" + std::to_string(KeyBits) + " key bits>";
  case Kind::Closure:
    return "<closure>";
  }
  nv_unreachable("covered switch");
}

void ValueArena::remapMapRoots(const std::vector<BddManager::Ref> &Remap) {
  // Map values hash by (MapRoot, KeyBits), so the table is rebuilt with
  // every root already rewritten: re-inserting entry by entry could
  // transiently alias a survivor with a dead value whose stale root happens
  // to equal the survivor's new one. Every live map is in the table.
  Table.rebuild([&](Value &V, uint64_t &H) {
    if (V.K != Value::Kind::Map)
      return true;
    assert(V.MapRoot < Remap.size() && "map root past the remap table");
    V.MapRoot = Remap[V.MapRoot];
    H = V.hash();
    return V.MapRoot != BddManager::InvalidRef;
  });
}

Value *ValueArena::append(Value &&V) {
  // Safe point before the arena grows: hits stay free, and a throw here
  // leaves the arena and table untouched.
  if (Governor::active())
    Governor::pollSafePoint(GovSite::EvalAlloc);
  V.Serial = static_cast<uint32_t>(Storage.size());
  Storage.push_back(std::move(V));
  return &Storage.back();
}

const Value *ValueArena::intern(Value &&V) {
  uint64_t H = V.hash();
  if (Value *Hit = Table.find(H, [&](const Value &O) { return O.equals(V); }))
    return Hit;
  Value *P = append(std::move(V));
  Table.insert(H, P);
  return P;
}

const Value *ValueArena::internTuple(const Value *const *Elems, size_t N) {
  uint64_t H = Value::tupleHash(Elems, N);
  if (Value *Hit = Table.find(H, [&](const Value &O) {
        return O.K == Value::Kind::Tuple &&
               std::equal(Elems, Elems + N, O.Elems.begin(), O.Elems.end());
      }))
    return Hit;
  Value V;
  V.K = Value::Kind::Tuple;
  V.Elems.assign(Elems, Elems + N);
  Value *P = append(std::move(V));
  Table.insert(H, P);
  return P;
}

const Value *ValueArena::store(Value &&V) { return append(std::move(V)); }
