//===- Type.cpp - NV types ------------------------------------------------===//

#include "core/Type.h"

#include "support/Fatal.h"

#include <atomic>

using namespace nv;

TypePtr Type::boolTy() {
  static TypePtr T = std::make_shared<Type>(TypeKind::Bool);
  return T;
}

TypePtr Type::intTy(unsigned Width) {
  if (Width == 0 || Width > 64)
    fatalError("int width must be between 1 and 64, got " +
               std::to_string(Width));
  auto T = std::make_shared<Type>(TypeKind::Int);
  T->Width = Width;
  return T;
}

TypePtr Type::nodeTy() {
  static TypePtr T = std::make_shared<Type>(TypeKind::Node);
  return T;
}

TypePtr Type::edgeTy() {
  static TypePtr T = std::make_shared<Type>(TypeKind::Edge);
  return T;
}

TypePtr Type::optionTy(TypePtr Elem) {
  auto T = std::make_shared<Type>(TypeKind::Option);
  T->Elems.push_back(std::move(Elem));
  return T;
}

TypePtr Type::tupleTy(std::vector<TypePtr> Elems) {
  if (Elems.size() < 2)
    fatalError("tuple types need at least two components");
  auto T = std::make_shared<Type>(TypeKind::Tuple);
  T->Elems = std::move(Elems);
  return T;
}

TypePtr Type::recordTy(std::vector<std::string> Labels,
                       std::vector<TypePtr> Elems) {
  if (Labels.size() != Elems.size() || Labels.empty())
    fatalError("malformed record type");
  auto T = std::make_shared<Type>(TypeKind::Record);
  T->Labels = std::move(Labels);
  T->Elems = std::move(Elems);
  return T;
}

TypePtr Type::dictTy(TypePtr Key, TypePtr Value) {
  auto T = std::make_shared<Type>(TypeKind::Dict);
  T->Elems.push_back(std::move(Key));
  T->Elems.push_back(std::move(Value));
  return T;
}

TypePtr Type::arrowTy(TypePtr Param, TypePtr Result) {
  auto T = std::make_shared<Type>(TypeKind::Arrow);
  T->Elems.push_back(std::move(Param));
  T->Elems.push_back(std::move(Result));
  return T;
}

TypePtr Type::varTy() {
  static std::atomic<int> NextVarId{0};
  auto T = std::make_shared<Type>(TypeKind::Var);
  T->VarId = NextVarId++;
  return T;
}

int Type::labelIndex(const std::string &L) const {
  for (size_t I = 0; I < Labels.size(); ++I)
    if (Labels[I] == L)
      return static_cast<int>(I);
  return -1;
}

const TypePtr &nv::resolve(const TypePtr &T) {
  const TypePtr *P = &T;
  while (*P && (*P)->Kind == TypeKind::Var && (*P)->Instance)
    P = &(*P)->Instance;
  return *P;
}

bool nv::typeEquals(const TypePtr &RawA, const TypePtr &RawB) {
  const TypePtr &A = resolve(RawA);
  const TypePtr &B = resolve(RawB);
  if (A.get() == B.get())
    return true;
  if (!A || !B || A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case TypeKind::Bool:
  case TypeKind::Node:
  case TypeKind::Edge:
    return true;
  case TypeKind::Int:
    return A->Width == B->Width;
  case TypeKind::Var:
    return A->VarId == B->VarId;
  case TypeKind::Record:
    if (A->Labels != B->Labels)
      return false;
    [[fallthrough]];
  case TypeKind::Option:
  case TypeKind::Tuple:
  case TypeKind::Dict:
  case TypeKind::Arrow: {
    if (A->Elems.size() != B->Elems.size())
      return false;
    for (size_t I = 0; I < A->Elems.size(); ++I)
      if (!typeEquals(A->Elems[I], B->Elems[I]))
        return false;
    return true;
  }
  }
  nv_unreachable("covered switch");
}

std::string nv::typeToString(const TypePtr &T) {
  return typeToString(T.get());
}

std::string nv::typeToString(const Type *RawT) {
  const Type *T = resolve(RawT);
  if (!T)
    return "<null>";
  switch (T->Kind) {
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Int:
    return T->Width == 32 ? "int" : ("int" + std::to_string(T->Width));
  case TypeKind::Node:
    return "node";
  case TypeKind::Edge:
    return "edge";
  case TypeKind::Option:
    return "option[" + typeToString(T->Elems[0]) + "]";
  case TypeKind::Tuple: {
    std::string S = "(";
    for (size_t I = 0; I < T->Elems.size(); ++I) {
      if (I)
        S += ", ";
      S += typeToString(T->Elems[I]);
    }
    return S + ")";
  }
  case TypeKind::Record: {
    std::string S = "{";
    for (size_t I = 0; I < T->Elems.size(); ++I) {
      if (I)
        S += "; ";
      S += T->Labels[I] + " : " + typeToString(T->Elems[I]);
    }
    return S + "}";
  }
  case TypeKind::Dict:
    if (resolve(T->Elems[1])->Kind == TypeKind::Bool)
      return "set[" + typeToString(T->Elems[0]) + "]";
    return "dict[" + typeToString(T->Elems[0]) + ", " +
           typeToString(T->Elems[1]) + "]";
  case TypeKind::Arrow:
    return typeToString(T->Elems[0]) + " -> " + typeToString(T->Elems[1]);
  case TypeKind::Var:
    return "'a" + std::to_string(T->VarId);
  }
  nv_unreachable("covered switch");
}

bool nv::isFiniteType(const TypePtr &RawT) {
  const TypePtr &T = resolve(RawT);
  if (!T)
    return false;
  switch (T->Kind) {
  case TypeKind::Bool:
  case TypeKind::Int:
  case TypeKind::Node:
  case TypeKind::Edge:
    return true;
  case TypeKind::Option:
  case TypeKind::Tuple:
  case TypeKind::Record:
    for (const TypePtr &E : T->Elems)
      if (!isFiniteType(E))
        return false;
    return true;
  case TypeKind::Dict:
  case TypeKind::Arrow:
  case TypeKind::Var:
    return false;
  }
  nv_unreachable("covered switch");
}

bool nv::isClosedType(const TypePtr &RawT) {
  const TypePtr &T = resolve(RawT);
  if (!T)
    return false;
  if (T->Kind == TypeKind::Var)
    return false;
  for (const TypePtr &E : T->Elems)
    if (!isClosedType(E))
      return false;
  return true;
}

bool nv::isConcreteType(const TypePtr &RawT) {
  const TypePtr &T = resolve(RawT);
  if (!T)
    return false;
  switch (T->Kind) {
  case TypeKind::Bool:
  case TypeKind::Int:
  case TypeKind::Node:
  case TypeKind::Edge:
    return true;
  case TypeKind::Option:
  case TypeKind::Tuple:
  case TypeKind::Record:
  case TypeKind::Dict:
    for (const TypePtr &E : T->Elems)
      if (!isConcreteType(E))
        return false;
    return true;
  case TypeKind::Arrow:
  case TypeKind::Var:
    return false;
  }
  nv_unreachable("covered switch");
}
