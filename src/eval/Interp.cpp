//===- Interp.cpp - Tree-walking NV interpreter ------------------------------===//

#include <cassert>
#include "eval/Interp.h"

#include "core/Printer.h"
#include "support/Fatal.h"
#include "support/Governor.h"

using namespace nv;

EnvPtr nv::envBind(EnvPtr Env, std::string Name, const Value *V) {
  auto N = std::make_shared<EnvNode>();
  N->Parent = std::move(Env);
  N->Name = std::move(Name);
  N->V = V;
  return N;
}

const Value *nv::envLookup(const EnvNode *Env, const std::string &Name) {
  for (const EnvNode *N = Env; N; N = N->Parent.get())
    if (N->Name == Name)
      return N->V;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// InterpClosure
//===----------------------------------------------------------------------===//

const Value *InterpClosure::call(const Value *Arg) const {
  return I.eval(Fn->Args[0].get(), envBind(Env, Fn->Name, Arg));
}

uint64_t InterpClosure::cacheKey() const {
  if (Key)
    return Key;
  std::vector<const Value *> Captured;
  for (const std::string &Name : freeVarsOf(Fn)) {
    const Value *V = envLookup(Env.get(), Name);
    Captured.push_back(V); // null for globals resolved elsewhere is fine
  }
  Key = I.ctx().closureEntry(Fn, Captured.data(), Captured.size()).Id;
  return Key;
}

//===----------------------------------------------------------------------===//
// Pattern matching
//===----------------------------------------------------------------------===//

bool Interp::matchPattern(const Pattern *P, const Value *V, const TypePtr &RawTy,
                          EnvPtr &Env) {
  const TypePtr &Ty = resolve(RawTy);
  switch (P->Kind) {
  case PatternKind::Wild:
    return true;
  case PatternKind::Var:
    Env = envBind(Env, P->Name, V);
    return true;
  case PatternKind::Lit:
    return V == Ctx.valueOfLiteral(P->Lit);
  case PatternKind::None:
    return V->isNone();
  case PatternKind::Some:
    if (!V->isSome())
      return false;
    return matchPattern(P->Elems[0].get(), V->Inner, Ty->Elems[0], Env);
  case PatternKind::Tuple: {
    if (V->K == Value::Kind::Edge) {
      assert(P->Elems.size() == 2 && "edge patterns are pairs");
      return matchPattern(P->Elems[0].get(), Ctx.nodeV(V->N), Type::nodeTy(),
                          Env) &&
             matchPattern(P->Elems[1].get(), Ctx.nodeV(V->N2), Type::nodeTy(),
                          Env);
    }
    assert(V->K == Value::Kind::Tuple && "tuple pattern on non-tuple");
    if (P->Elems.size() != V->Elems.size())
      evalError("tuple pattern arity mismatch");
    for (size_t I = 0; I < P->Elems.size(); ++I)
      if (!matchPattern(P->Elems[I].get(), V->Elems[I], Ty->Elems[I], Env))
        return false;
    return true;
  }
  case PatternKind::Record: {
    assert(Ty->Kind == TypeKind::Record && "record pattern needs record type");
    for (size_t I = 0; I < P->Labels.size(); ++I) {
      int Idx = Ty->labelIndex(P->Labels[I]);
      assert(Idx >= 0 && "label checked by the type checker");
      if (!matchPattern(P->Elems[I].get(), V->Elems[Idx], Ty->Elems[Idx], Env))
        return false;
    }
    return true;
  }
  }
  nv_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

const Value *Interp::eval(const Expr *E, const EnvPtr &Env) {
  switch (E->Kind) {
  case ExprKind::Const:
    return Ctx.valueOfLiteral(E->Lit);
  case ExprKind::Var: {
    const Value *V = envLookup(Env.get(), E->Name);
    if (!V)
      evalError("unbound variable at runtime: " + E->Name);
    return V;
  }
  case ExprKind::Let: {
    const Value *Init = eval(E->Args[0].get(), Env);
    return eval(E->Args[1].get(), envBind(Env, E->Name, Init));
  }
  case ExprKind::Fun:
    return Ctx.closureV(std::make_shared<InterpClosure>(*this, E, Env));
  case ExprKind::App: {
    const Value *Fn = eval(E->Args[0].get(), Env);
    const Value *Arg = eval(E->Args[1].get(), Env);
    return Ctx.applyClosure(Fn, Arg);
  }
  case ExprKind::If: {
    const Value *C = eval(E->Args[0].get(), Env);
    return eval(E->Args[C->B ? 1 : 2].get(), Env);
  }
  case ExprKind::Match: {
    const Value *Scrut = eval(E->Args[0].get(), Env);
    const TypePtr &ScrutTy = E->Args[0]->Ty;
    for (const MatchCase &C : E->Cases) {
      EnvPtr CaseEnv = Env;
      if (matchPattern(C.Pat.get(), Scrut, ScrutTy, CaseEnv))
        return eval(C.Body.get(), CaseEnv);
    }
    evalError("inexhaustive match on " + Scrut->str() + " in " +
              printExpr(std::make_shared<Expr>(*E)));
  }
  case ExprKind::Oper:
    return evalOper(E, Env);
  case ExprKind::Tuple: {
    std::vector<const Value *> Elems;
    Elems.reserve(E->Args.size());
    for (const ExprPtr &A : E->Args)
      Elems.push_back(eval(A.get(), Env));
    return Ctx.tupleV(std::move(Elems));
  }
  case ExprKind::Proj: {
    const Value *V = eval(E->Args[0].get(), Env);
    assert(E->Index < V->Elems.size() && "projection out of range");
    return V->Elems[E->Index];
  }
  case ExprKind::Record: {
    // Parser stores fields in sorted-label order, matching the type.
    std::vector<const Value *> Elems;
    Elems.reserve(E->Args.size());
    for (const ExprPtr &A : E->Args)
      Elems.push_back(eval(A.get(), Env));
    return Ctx.tupleV(std::move(Elems));
  }
  case ExprKind::RecordUpdate: {
    const Value *Base = eval(E->Args[0].get(), Env);
    const TypePtr &BaseTy = resolve(E->Args[0]->Ty);
    assert(BaseTy->Kind == TypeKind::Record && "update on non-record");
    std::vector<const Value *> Elems = Base->Elems;
    for (size_t I = 0; I < E->Labels.size(); ++I) {
      int Idx = BaseTy->labelIndex(E->Labels[I]);
      assert(Idx >= 0 && "label checked by the type checker");
      Elems[Idx] = eval(E->Args[I + 1].get(), Env);
    }
    return Ctx.tupleV(std::move(Elems));
  }
  case ExprKind::Field: {
    const Value *V = eval(E->Args[0].get(), Env);
    const TypePtr &Ty = resolve(E->Args[0]->Ty);
    assert(Ty->Kind == TypeKind::Record && "field access on non-record");
    int Idx = Ty->labelIndex(E->Name);
    assert(Idx >= 0 && "label checked by the type checker");
    return V->Elems[Idx];
  }
  case ExprKind::Some:
    return Ctx.someV(eval(E->Args[0].get(), Env));
  case ExprKind::None:
    return Ctx.noneV();
  }
  nv_unreachable("covered switch");
}

const Value *Interp::evalOper(const Expr *E, const EnvPtr &Env) {
  Op O = E->OpCode;
  switch (O) {
  case Op::And: {
    const Value *L = eval(E->Args[0].get(), Env);
    if (!L->B)
      return Ctx.FalseV;
    return eval(E->Args[1].get(), Env);
  }
  case Op::Or: {
    const Value *L = eval(E->Args[0].get(), Env);
    if (L->B)
      return Ctx.TrueV;
    return eval(E->Args[1].get(), Env);
  }
  case Op::Not:
    return Ctx.boolV(!eval(E->Args[0].get(), Env)->B);
  case Op::Eq:
    // Interned values: structural equality is pointer equality.
    return Ctx.boolV(eval(E->Args[0].get(), Env) ==
                     eval(E->Args[1].get(), Env));
  case Op::Neq:
    return Ctx.boolV(eval(E->Args[0].get(), Env) !=
                     eval(E->Args[1].get(), Env));
  case Op::Add:
  case Op::Sub: {
    const Value *L = eval(E->Args[0].get(), Env);
    const Value *R = eval(E->Args[1].get(), Env);
    uint64_t Raw = O == Op::Add ? L->I + R->I : L->I - R->I;
    return Ctx.intV(Raw, L->Width);
  }
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge: {
    const Value *L = eval(E->Args[0].get(), Env);
    const Value *R = eval(E->Args[1].get(), Env);
    bool Result = O == Op::Lt   ? L->I < R->I
                  : O == Op::Le ? L->I <= R->I
                  : O == Op::Gt ? L->I > R->I
                                : L->I >= R->I;
    return Ctx.boolV(Result);
  }
  case Op::MCreate: {
    const TypePtr &DictTy = resolve(E->Ty);
    assert(DictTy->Kind == TypeKind::Dict && "createDict type");
    if (!isFiniteType(DictTy->Elems[0]))
      evalError("createDict key type " + typeToString(DictTy->Elems[0]) +
                " is not finite; annotate the map's key type");
    return Ctx.mapCreate(DictTy->Elems[0], eval(E->Args[0].get(), Env));
  }
  case Op::MGet:
    return Ctx.mapGet(eval(E->Args[0].get(), Env),
                      eval(E->Args[1].get(), Env));
  case Op::MSet:
    return Ctx.mapSet(eval(E->Args[0].get(), Env),
                      eval(E->Args[1].get(), Env),
                      eval(E->Args[2].get(), Env));
  case Op::MMap:
    return Ctx.mapMap(eval(E->Args[0].get(), Env),
                      eval(E->Args[1].get(), Env));
  case Op::MMapIte:
    return Ctx.mapIte(eval(E->Args[0].get(), Env),
                      eval(E->Args[1].get(), Env),
                      eval(E->Args[2].get(), Env),
                      eval(E->Args[3].get(), Env));
  case Op::MCombine:
    return Ctx.mapCombine(eval(E->Args[0].get(), Env),
                          eval(E->Args[1].get(), Env),
                          eval(E->Args[2].get(), Env));
  }
  nv_unreachable("covered switch");
}
