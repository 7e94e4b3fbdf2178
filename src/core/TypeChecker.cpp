//===- TypeChecker.cpp - NV type inference ---------------------------------===//

#include "core/TypeChecker.h"

#include "support/Fatal.h"

#include <cassert>
#include <map>
#include <set>

using namespace nv;

namespace {

/// A type scheme: a type plus the unification-variable ids quantified over
/// (only produced for top-level lets).
struct Scheme {
  TypePtr Ty;
  std::vector<int> Quantified;
};

class CheckerImpl {
public:
  CheckerImpl(DiagnosticEngine &Diags) : Diags(Diags) {}

  bool checkProgram(Program &P, size_t First) {
    NumNodes = P.numNodes();
    HasTopology = NumNodes > 0;

    for (size_t I = 0; I < P.Decls.size(); ++I) {
      if (I < First)
        seedDecl(*P.Decls[I]);
      else
        checkDecl(P.Decls[I]);
    }

    // Tie the Fig. 8 signatures to the attribute type.
    TypePtr Attr = Type::varTy();
    bool SawAny = false;
    if (const Decl *D = P.initDecl()) {
      SawAny = true;
      constrainGlobal("init", Type::arrowTy(Type::nodeTy(), Attr), D->Loc);
    }
    if (const Decl *D = P.transDecl()) {
      SawAny = true;
      constrainGlobal(
          "trans", Type::arrowTy(Type::edgeTy(), Type::arrowTy(Attr, Attr)),
          D->Loc);
    }
    if (const Decl *D = P.mergeDecl()) {
      SawAny = true;
      constrainGlobal(
          "merge",
          Type::arrowTy(Type::nodeTy(),
                        Type::arrowTy(Attr, Type::arrowTy(Attr, Attr))),
          D->Loc);
    }
    if (const Decl *D = P.assertDecl())
      constrainGlobal(
          "assert",
          Type::arrowTy(Type::nodeTy(), Type::arrowTy(Attr, Type::boolTy())),
          D->Loc);

    if (SawAny) {
      TypePtr Zonked = zonk(Attr);
      if (!isConcreteType(Zonked))
        Diags.error({}, "attribute type " + typeToString(Zonked) +
                            " is not concrete; routing messages must have a "
                            "concrete first-order type");
      else
        P.AttrType = Zonked;
    }

    if (Diags.hasErrors())
      return false;

    // Zonk the new expression types in place for downstream consumers.
    for (size_t I = First; I < P.Decls.size(); ++I)
      if (P.Decls[I]->Body)
        zonkExpr(P.Decls[I]->Body);
    return true;
  }

  TypePtr checkClosedExpr(const ExprPtr &E) {
    TypePtr T = infer(E);
    flushDeferredInts();
    if (Diags.hasErrors())
      return nullptr;
    zonkExpr(E);
    return zonk(T);
  }

private:
  DiagnosticEngine &Diags;
  std::vector<std::map<std::string, Scheme>> Scopes{1};
  uint32_t NumNodes = 0;
  bool HasTopology = false;

  //===--------------------------------------------------------------------===//
  // Environment
  //===--------------------------------------------------------------------===//

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  void bind(const std::string &Name, TypePtr T) {
    Scopes.back()[Name] = Scheme{std::move(T), {}};
  }

  void bindScheme(const std::string &Name, Scheme S) {
    Scopes.back()[Name] = std::move(S);
  }

  const Scheme *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto F = It->find(Name);
      if (F != It->end())
        return &F->second;
    }
    return nullptr;
  }

  void constrainGlobal(const std::string &Name, TypePtr Expected,
                       SourceLoc Loc) {
    const Scheme *S = lookup(Name);
    if (!S)
      return;
    // The required declarations are used monomorphically: instantiate and
    // unify with the expected shape.
    unify(instantiate(*S), Expected, Loc);
  }

  //===--------------------------------------------------------------------===//
  // Unification
  //===--------------------------------------------------------------------===//

  bool occurs(int VarId, const TypePtr &RawT) {
    const TypePtr &T = resolve(RawT);
    if (T->Kind == TypeKind::Var)
      return T->VarId == VarId;
    for (const TypePtr &E : T->Elems)
      if (occurs(VarId, E))
        return true;
    return false;
  }

  void typeError(SourceLoc Loc, const TypePtr &A, const TypePtr &B) {
    Diags.error(Loc, "type mismatch: " + typeToString(A) + " vs " +
                         typeToString(B));
  }

  bool unify(const TypePtr &RawA, const TypePtr &RawB, SourceLoc Loc) {
    // By reference: binding A's Instance writes through A's pointee, never
    // the slot A or B was read from (A is unbound, so B's chain avoids it).
    const TypePtr &A = resolve(RawA);
    const TypePtr &B = resolve(RawB);
    if (A.get() == B.get())
      return true;
    if (A->Kind == TypeKind::Var) {
      if (occurs(A->VarId, B)) {
        Diags.error(Loc, "occurs check failed (recursive type)");
        return false;
      }
      A->Instance = B;
      return true;
    }
    if (B->Kind == TypeKind::Var)
      return unify(B, A, Loc);
    if (A->Kind != B->Kind) {
      typeError(Loc, A, B);
      return false;
    }
    switch (A->Kind) {
    case TypeKind::Bool:
    case TypeKind::Node:
    case TypeKind::Edge:
      return true;
    case TypeKind::Int:
      if (A->Width != B->Width) {
        typeError(Loc, A, B);
        return false;
      }
      return true;
    case TypeKind::Record:
      if (A->Labels != B->Labels) {
        typeError(Loc, A, B);
        return false;
      }
      [[fallthrough]];
    case TypeKind::Option:
    case TypeKind::Tuple:
    case TypeKind::Dict:
    case TypeKind::Arrow: {
      if (A->Elems.size() != B->Elems.size()) {
        typeError(Loc, A, B);
        return false;
      }
      bool Ok = true;
      for (size_t I = 0; I < A->Elems.size(); ++I)
        Ok &= unify(A->Elems[I], B->Elems[I], Loc);
      return Ok;
    }
    case TypeKind::Var:
      break;
    }
    nv_unreachable("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Schemes
  //===--------------------------------------------------------------------===//

  TypePtr instantiate(const Scheme &S) {
    if (S.Quantified.empty())
      return S.Ty;
    std::map<int, TypePtr> Fresh;
    for (int Id : S.Quantified)
      Fresh[Id] = Type::varTy();
    return substitute(S.Ty, Fresh);
  }

  TypePtr substitute(const TypePtr &RawT, const std::map<int, TypePtr> &Sub) {
    TypePtr T = resolve(RawT);
    if (T->Kind == TypeKind::Var) {
      auto It = Sub.find(T->VarId);
      return It == Sub.end() ? T : It->second;
    }
    if (T->Elems.empty())
      return T;
    auto Copy = std::make_shared<Type>(*T);
    for (TypePtr &E : Copy->Elems)
      E = substitute(E, Sub);
    return Copy;
  }

  void freeVars(const TypePtr &RawT, std::set<int> &Out) {
    const TypePtr &T = resolve(RawT);
    if (T->Kind == TypeKind::Var) {
      Out.insert(T->VarId);
      return;
    }
    for (const TypePtr &E : T->Elems)
      freeVars(E, Out);
  }

  /// Collects variables occurring in dictionary-key positions: these stay
  /// "weak" (not quantified) so that the declaration body's key type is
  /// resolved by its first use — a createDict must evaluate at one
  /// concrete key type.
  void dictKeyVars(const TypePtr &RawT, std::set<int> &Out) {
    const TypePtr &T = resolve(RawT);
    if (T->Kind == TypeKind::Dict)
      freeVars(T->Elems[0], Out);
    for (const TypePtr &E : T->Elems)
      dictKeyVars(E, Out);
  }

  Scheme generalize(const TypePtr &T) {
    // Top-level environment types are closed except for unification
    // variables; quantify them all except weak (dict-key) variables.
    std::set<int> Vars, Weak;
    freeVars(T, Vars);
    dictKeyVars(T, Weak);
    Scheme S;
    S.Ty = T;
    for (int V : Vars)
      if (!Weak.count(V))
        S.Quantified.push_back(V);
    return S;
  }

  //===--------------------------------------------------------------------===//
  // Inference
  //===--------------------------------------------------------------------===//

  TypePtr litType(const Literal &L, SourceLoc Loc) {
    if (HasTopology) {
      if (L.Kind == LiteralKind::Node && L.NodeVal >= NumNodes)
        Diags.error(Loc, "node literal " + std::to_string(L.NodeVal) +
                             "n out of range (nodes = " +
                             std::to_string(NumNodes) + ")");
      if (L.Kind == LiteralKind::Edge &&
          (L.NodeVal >= NumNodes || L.NodeVal2 >= NumNodes))
        Diags.error(Loc, "edge literal out of range");
    }
    return L.type();
  }

  TypePtr inferPattern(const PatternPtr &P, TypePtr Scrut) {
    switch (P->Kind) {
    case PatternKind::Wild:
      return Scrut;
    case PatternKind::Var:
      bind(P->Name, Scrut);
      return Scrut;
    case PatternKind::Lit:
      unify(Scrut, litType(P->Lit, P->Loc), P->Loc);
      return Scrut;
    case PatternKind::None:
      unify(Scrut, Type::optionTy(Type::varTy()), P->Loc);
      return Scrut;
    case PatternKind::Some: {
      TypePtr Inner = Type::varTy();
      unify(Scrut, Type::optionTy(Inner), P->Loc);
      inferPattern(P->Elems[0], Inner);
      return Scrut;
    }
    case PatternKind::Tuple: {
      TypePtr R = resolve(Scrut);
      // Edges destructure as (node, node).
      if (R->Kind == TypeKind::Edge) {
        if (P->Elems.size() != 2) {
          Diags.error(P->Loc, "edge patterns have exactly two components");
          return Scrut;
        }
        inferPattern(P->Elems[0], Type::nodeTy());
        inferPattern(P->Elems[1], Type::nodeTy());
        return Scrut;
      }
      std::vector<TypePtr> Elems;
      for (size_t I = 0; I < P->Elems.size(); ++I)
        Elems.push_back(Type::varTy());
      unify(Scrut, Type::tupleTy(Elems), P->Loc);
      for (size_t I = 0; I < P->Elems.size(); ++I)
        inferPattern(P->Elems[I], Elems[I]);
      return Scrut;
    }
    case PatternKind::Record: {
      TypePtr R = resolve(Scrut);
      if (R->Kind != TypeKind::Record) {
        Diags.error(P->Loc, "cannot determine the record type matched here; "
                            "add a type annotation");
        return Scrut;
      }
      for (size_t I = 0; I < P->Labels.size(); ++I) {
        int Idx = R->labelIndex(P->Labels[I]);
        if (Idx < 0) {
          Diags.error(P->Loc, "record type " + typeToString(R) +
                                  " has no field '" + P->Labels[I] + "'");
          continue;
        }
        inferPattern(P->Elems[I], R->Elems[Idx]);
      }
      return Scrut;
    }
    }
    nv_unreachable("covered switch");
  }

  TypePtr infer(const ExprPtr &E) {
    TypePtr T = inferImpl(E);
    E->Ty = T;
    return T;
  }

  TypePtr inferImpl(const ExprPtr &E) {
    switch (E->Kind) {
    case ExprKind::Const:
      return litType(E->Lit, E->Loc);
    case ExprKind::Var: {
      const Scheme *S = lookup(E->Name);
      if (!S) {
        Diags.error(E->Loc, "unbound variable '" + E->Name + "'");
        return Type::varTy();
      }
      return instantiate(*S);
    }
    case ExprKind::Let: {
      TypePtr Init = infer(E->Args[0]);
      if (E->Annot)
        unify(Init, E->Annot, E->Loc);
      pushScope();
      bind(E->Name, Init);
      TypePtr Body = infer(E->Args[1]);
      popScope();
      return Body;
    }
    case ExprKind::Fun: {
      TypePtr Param = E->Annot ? E->Annot : Type::varTy();
      pushScope();
      bind(E->Name, Param);
      TypePtr Body = infer(E->Args[0]);
      popScope();
      return Type::arrowTy(Param, Body);
    }
    case ExprKind::App: {
      TypePtr Fn = infer(E->Args[0]);
      TypePtr Arg = infer(E->Args[1]);
      TypePtr Res = Type::varTy();
      unify(Fn, Type::arrowTy(Arg, Res), E->Loc);
      return Res;
    }
    case ExprKind::If: {
      unify(infer(E->Args[0]), Type::boolTy(), E->Args[0]->Loc);
      TypePtr T = infer(E->Args[1]);
      unify(T, infer(E->Args[2]), E->Loc);
      return T;
    }
    case ExprKind::Match: {
      TypePtr Scrut = infer(E->Args[0]);
      TypePtr Res = Type::varTy();
      for (const MatchCase &C : E->Cases) {
        pushScope();
        inferPattern(C.Pat, Scrut);
        unify(Res, infer(C.Body), C.Body->Loc);
        popScope();
      }
      return Res;
    }
    case ExprKind::Oper:
      return inferOper(E);
    case ExprKind::Tuple: {
      std::vector<TypePtr> Elems;
      for (const ExprPtr &A : E->Args)
        Elems.push_back(infer(A));
      return Type::tupleTy(std::move(Elems));
    }
    case ExprKind::Proj: {
      TypePtr T = resolve(infer(E->Args[0]));
      if (T->Kind != TypeKind::Tuple) {
        Diags.error(E->Loc, "projection target is not a tuple: " +
                                typeToString(T));
        return Type::varTy();
      }
      if (E->Index >= T->Elems.size()) {
        Diags.error(E->Loc, "tuple projection index out of range");
        return Type::varTy();
      }
      return T->Elems[E->Index];
    }
    case ExprKind::Record: {
      std::vector<TypePtr> Elems;
      for (const ExprPtr &A : E->Args)
        Elems.push_back(infer(A));
      return Type::recordTy(E->Labels, std::move(Elems));
    }
    case ExprKind::RecordUpdate: {
      TypePtr Base = resolve(infer(E->Args[0]));
      if (Base->Kind != TypeKind::Record) {
        Diags.error(E->Loc, "record update target is not a record: " +
                                typeToString(Base));
        return Type::varTy();
      }
      for (size_t I = 0; I < E->Labels.size(); ++I) {
        int Idx = Base->labelIndex(E->Labels[I]);
        if (Idx < 0) {
          Diags.error(E->Loc, "record type " + typeToString(Base) +
                                  " has no field '" + E->Labels[I] + "'");
          continue;
        }
        unify(infer(E->Args[I + 1]), Base->Elems[Idx], E->Args[I + 1]->Loc);
      }
      return Base;
    }
    case ExprKind::Field: {
      TypePtr T = resolve(infer(E->Args[0]));
      if (T->Kind != TypeKind::Record) {
        Diags.error(E->Loc,
                    "cannot determine the record type of this field access; "
                    "add a type annotation (got " +
                        typeToString(T) + ")");
        return Type::varTy();
      }
      int Idx = T->labelIndex(E->Name);
      if (Idx < 0) {
        Diags.error(E->Loc, "record type " + typeToString(T) +
                                " has no field '" + E->Name + "'");
        return Type::varTy();
      }
      return T->Elems[Idx];
    }
    case ExprKind::Some:
      return Type::optionTy(infer(E->Args[0]));
    case ExprKind::None:
      return Type::optionTy(Type::varTy());
    }
    nv_unreachable("covered switch");
  }

  TypePtr inferOper(const ExprPtr &E) {
    switch (E->OpCode) {
    case Op::And:
    case Op::Or:
      unify(infer(E->Args[0]), Type::boolTy(), E->Args[0]->Loc);
      unify(infer(E->Args[1]), Type::boolTy(), E->Args[1]->Loc);
      return Type::boolTy();
    case Op::Not:
      unify(infer(E->Args[0]), Type::boolTy(), E->Args[0]->Loc);
      return Type::boolTy();
    case Op::Eq:
    case Op::Neq:
      unify(infer(E->Args[0]), infer(E->Args[1]), E->Loc);
      return Type::boolTy();
    case Op::Add:
    case Op::Sub: {
      TypePtr T = infer(E->Args[0]);
      unify(T, infer(E->Args[1]), E->Loc);
      deferIntCheck(T, E->Loc);
      return T;
    }
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      TypePtr T = infer(E->Args[0]);
      unify(T, infer(E->Args[1]), E->Loc);
      deferIntCheck(T, E->Loc);
      return Type::boolTy();
    }
    case Op::MCreate: {
      TypePtr V = infer(E->Args[0]);
      return Type::dictTy(Type::varTy(), V);
    }
    case Op::MGet: {
      TypePtr K = Type::varTy();
      TypePtr V = Type::varTy();
      unify(infer(E->Args[0]), Type::dictTy(K, V), E->Loc);
      unify(infer(E->Args[1]), K, E->Args[1]->Loc);
      return V;
    }
    case Op::MSet: {
      TypePtr K = Type::varTy();
      TypePtr V = Type::varTy();
      TypePtr M = Type::dictTy(K, V);
      unify(infer(E->Args[0]), M, E->Loc);
      unify(infer(E->Args[1]), K, E->Args[1]->Loc);
      unify(infer(E->Args[2]), V, E->Args[2]->Loc);
      return M;
    }
    case Op::MMap: {
      TypePtr K = Type::varTy();
      TypePtr V = Type::varTy();
      TypePtr V2 = Type::varTy();
      unify(infer(E->Args[0]), Type::arrowTy(V, V2), E->Args[0]->Loc);
      unify(infer(E->Args[1]), Type::dictTy(K, V), E->Args[1]->Loc);
      return Type::dictTy(K, V2);
    }
    case Op::MMapIte: {
      TypePtr K = Type::varTy();
      TypePtr V = Type::varTy();
      TypePtr V2 = Type::varTy();
      unify(infer(E->Args[0]), Type::arrowTy(K, Type::boolTy()),
            E->Args[0]->Loc);
      unify(infer(E->Args[1]), Type::arrowTy(V, V2), E->Args[1]->Loc);
      unify(infer(E->Args[2]), Type::arrowTy(V, V2), E->Args[2]->Loc);
      unify(infer(E->Args[3]), Type::dictTy(K, V), E->Args[3]->Loc);
      return Type::dictTy(K, V2);
    }
    case Op::MCombine: {
      TypePtr K = Type::varTy();
      TypePtr V1 = Type::varTy();
      TypePtr V2 = Type::varTy();
      TypePtr V3 = Type::varTy();
      unify(infer(E->Args[0]),
            Type::arrowTy(V1, Type::arrowTy(V2, V3)), E->Args[0]->Loc);
      unify(infer(E->Args[1]), Type::dictTy(K, V1), E->Args[1]->Loc);
      unify(infer(E->Args[2]), Type::dictTy(K, V2), E->Args[2]->Loc);
      return Type::dictTy(K, V3);
    }
    }
    nv_unreachable("covered switch");
  }

  /// Arithmetic/comparison operands must be integers, but their width may
  /// not be known yet (e.g. a combine lambda checked before unifying with
  /// the dict's value type). Defer the check; unresolved operands default
  /// to 32 bits at the end of the enclosing declaration.
  std::vector<std::pair<TypePtr, SourceLoc>> DeferredInts;

  void deferIntCheck(TypePtr T, SourceLoc Loc) {
    DeferredInts.emplace_back(std::move(T), Loc);
  }

  void flushDeferredInts() {
    for (auto &[T, Loc] : DeferredInts) {
      TypePtr R = resolve(T);
      if (R->Kind == TypeKind::Var)
        unify(R, Type::intTy(32), Loc);
      else if (R->Kind != TypeKind::Int)
        Diags.error(Loc, "arithmetic/comparison operands must be integers, "
                         "got " +
                             typeToString(R));
    }
    DeferredInts.clear();
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  void checkDecl(const DeclPtr &D) {
    switch (D->Kind) {
    case DeclKind::Let: {
      TypePtr T = infer(D->Body);
      if (D->Ty) {
        // The surface annotation names the result after ParamCount arrows:
        // `let f x y : R = e` constrains f : 'a -> 'b -> R.
        TypePtr Expected = D->Ty;
        for (unsigned I = 0; I < D->ParamCount; ++I)
          Expected = Type::arrowTy(Type::varTy(), Expected);
        unify(T, Expected, D->Loc);
      }
      // Resolve pending integer-width defaults before generalizing so that
      // quantified variables cannot escape an int constraint.
      flushDeferredInts();
      bindScheme(D->Name, generalize(T));
      return;
    }
    case DeclKind::Symbolic: {
      TypePtr T = D->Ty ? D->Ty : Type::varTy();
      if (D->Body)
        unify(infer(D->Body), T, D->Loc);
      flushDeferredInts();
      TypePtr Z = zonk(T);
      if (!isConcreteType(Z))
        Diags.error(D->Loc, "symbolic '" + D->Name +
                                "' must have a concrete type, got " +
                                typeToString(Z));
      D->Ty = Z;
      bind(D->Name, Z);
      return;
    }
    case DeclKind::Require:
      unify(infer(D->Body), Type::boolTy(), D->Loc);
      flushDeferredInts();
      return;
    case DeclKind::TypeAlias:
    case DeclKind::Nodes:
      return;
    case DeclKind::Edges: {
      for (const auto &[U, V] : D->EdgeList)
        if (HasTopology && (U >= NumNodes || V >= NumNodes))
          Diags.error(D->Loc, "edge " + std::to_string(U) + "n=" +
                                  std::to_string(V) +
                                  "n references an undeclared node");
      return;
    }
    }
    nv_unreachable("covered switch");
  }

  /// Binds a declaration of the already-checked prefix without checking
  /// it again: a let at its generalized type, a symbolic at its type.
  void seedDecl(const Decl &D) {
    if (D.Kind == DeclKind::Symbolic) {
      bind(D.Name, D.Ty);
    } else if (D.Kind == DeclKind::Let) {
      assert(D.Body->Ty && "typeCheckAppended: prefix is not type-checked");
      TypePtr T = zonk(D.Body->Ty);
      std::set<int> Vars;
      freeVars(T, Vars);
      if (Vars.empty()) {
        bindScheme(D.Name, Scheme{T, {}});
        return;
      }
      // Fresh variables, so that uses in the new decls bind only those
      // (the prefix's types stay as they are).
      std::map<int, TypePtr> Fresh;
      for (int V : Vars)
        Fresh[V] = Type::varTy();
      bindScheme(D.Name, generalize(substitute(T, Fresh)));
    }
  }

  //===--------------------------------------------------------------------===//
  // Zonking
  //===--------------------------------------------------------------------===//

  /// zonk that rewrites compound types in place instead of copying them.
  /// Only types this check made hold a bound variable (a prefix's types
  /// are zonked, and seedDecl keeps their variables unbound), so nothing
  /// else is written.
  static TypePtr zonkInPlace(const TypePtr &RawT) {
    const TypePtr &T = resolve(RawT);
    if (T)
      for (TypePtr &E : T->Elems)
        if (TypePtr Z = zonkInPlace(E); Z.get() != E.get())
          E = std::move(Z);
    return T;
  }

  void zonkExpr(const ExprPtr &E) {
    forEachExpr(E, [](const ExprPtr &Sub) {
      if (Sub->Ty)
        Sub->Ty = zonkInPlace(Sub->Ty);
      if (Sub->Annot)
        Sub->Annot = zonkInPlace(Sub->Annot);
    });
  }
};

} // namespace

TypePtr nv::zonk(const TypePtr &RawT) {
  TypePtr T = resolve(RawT);
  if (!T || T->Elems.empty())
    return T;
  // Copied only once a component changes: a zonked type comes back as is.
  TypePtr Copy;
  for (size_t I = 0; I < T->Elems.size(); ++I) {
    TypePtr Z = zonk(T->Elems[I]);
    if (Z.get() == T->Elems[I].get())
      continue;
    if (!Copy)
      Copy = std::make_shared<Type>(*T);
    Copy->Elems[I] = std::move(Z);
  }
  return Copy ? Copy : T;
}

bool nv::typeCheck(Program &P, DiagnosticEngine &Diags) {
  return typeCheckAppended(P, 0, Diags);
}

bool nv::typeCheckAppended(Program &P, size_t First, DiagnosticEngine &Diags) {
  return CheckerImpl(Diags).checkProgram(P, First);
}

TypePtr nv::typeCheckExpr(const ExprPtr &E, DiagnosticEngine &Diags) {
  return CheckerImpl(Diags).checkClosedExpr(E);
}
