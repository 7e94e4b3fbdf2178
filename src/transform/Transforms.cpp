//===- Transforms.cpp - NV-to-NV program transformations --------------------===//

#include "transform/Transforms.h"

#include "core/TypeChecker.h"
#include "support/Fatal.h"
#include "support/Governor.h"

#include <atomic>
#include <set>

using namespace nv;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

std::string freshName(const std::string &Base) {
  static std::atomic<uint64_t> Counter{0};
  return Base + "$" + std::to_string(Counter++);
}

ExprPtr shallowCopy(const ExprPtr &E) { return std::make_shared<Expr>(*E); }

/// Occurrences of free variable \p Name in \p E.
size_t countOccurrences(const ExprPtr &E, const std::string &Name) {
  if (!E)
    return 0;
  switch (E->Kind) {
  case ExprKind::Var:
    return E->Name == Name ? 1 : 0;
  case ExprKind::Let: {
    size_t N = countOccurrences(E->Args[0], Name);
    if (E->Name != Name)
      N += countOccurrences(E->Args[1], Name);
    return N;
  }
  case ExprKind::Fun:
    return E->Name == Name ? 0 : countOccurrences(E->Args[0], Name);
  case ExprKind::Match: {
    size_t N = countOccurrences(E->Args[0], Name);
    for (const MatchCase &C : E->Cases) {
      std::vector<std::string> Bound;
      C.Pat->boundVars(Bound);
      bool Shadowed = false;
      for (const std::string &B : Bound)
        Shadowed |= B == Name;
      if (!Shadowed)
        N += countOccurrences(C.Body, Name);
    }
    return N;
  }
  default: {
    size_t N = 0;
    for (const ExprPtr &A : E->Args)
      N += countOccurrences(A, Name);
    return N;
  }
  }
}

bool isFreeIn(const ExprPtr &E, const std::string &Name) {
  return countOccurrences(E, Name) > 0;
}

/// Renames the variables bound by \p P to fresh names, in place in a
/// cloned pattern; records the renamings.
PatternPtr freshenPattern(const PatternPtr &P,
                          std::map<std::string, ExprPtr> &Renames) {
  auto Copy = std::make_shared<Pattern>(*P);
  if (Copy->Kind == PatternKind::Var) {
    std::string NewName = freshName(Copy->Name);
    Renames[Copy->Name] = Expr::var(NewName);
    Copy->Name = NewName;
    return Copy;
  }
  for (PatternPtr &Sub : Copy->Elems)
    Sub = freshenPattern(Sub, Renames);
  return Copy;
}

} // namespace

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

ExprPtr nv::substituteAll(const ExprPtr &E,
                          const std::map<std::string, ExprPtr> &Subst) {
  if (!E || Subst.empty())
    return E;
  switch (E->Kind) {
  case ExprKind::Var: {
    auto It = Subst.find(E->Name);
    return It == Subst.end() ? E : It->second;
  }
  case ExprKind::Const:
  case ExprKind::None:
    return E;
  case ExprKind::Let: {
    ExprPtr Init = substituteAll(E->Args[0], Subst);
    std::map<std::string, ExprPtr> BodySubst = Subst;
    BodySubst.erase(E->Name);
    std::string Binder = E->Name;
    ExprPtr Body = E->Args[1];
    // Avoid capturing a free variable of any replacement.
    for (const auto &[_, R] : BodySubst) {
      if (isFreeIn(R, Binder)) {
        std::string NewName = freshName(Binder);
        Body = substituteAll(Body, {{Binder, Expr::var(NewName)}});
        Binder = NewName;
        break;
      }
    }
    if (BodySubst.empty() && Init.get() == E->Args[0].get() &&
        Binder == E->Name)
      return E;
    ExprPtr Copy = shallowCopy(E);
    Copy->Name = Binder;
    Copy->Args[0] = Init;
    Copy->Args[1] = substituteAll(Body, BodySubst);
    return Copy;
  }
  case ExprKind::Fun: {
    std::map<std::string, ExprPtr> BodySubst = Subst;
    BodySubst.erase(E->Name);
    std::string Binder = E->Name;
    ExprPtr Body = E->Args[0];
    for (const auto &[_, R] : BodySubst) {
      if (isFreeIn(R, Binder)) {
        std::string NewName = freshName(Binder);
        Body = substituteAll(Body, {{Binder, Expr::var(NewName)}});
        Binder = NewName;
        break;
      }
    }
    if (BodySubst.empty() && Binder == E->Name)
      return E;
    ExprPtr Copy = shallowCopy(E);
    Copy->Name = Binder;
    Copy->Args[0] = substituteAll(Body, BodySubst);
    Copy->CachedFreeVars = nullptr;
    return Copy;
  }
  case ExprKind::Match: {
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = substituteAll(E->Args[0], Subst);
    for (MatchCase &C : Copy->Cases) {
      std::vector<std::string> Bound;
      C.Pat->boundVars(Bound);
      std::map<std::string, ExprPtr> BodySubst = Subst;
      for (const std::string &B : Bound)
        BodySubst.erase(B);
      // Rename pattern binders that would capture replacement variables.
      bool NeedsFreshen = false;
      for (const std::string &B : Bound)
        for (const auto &[_, R] : BodySubst)
          NeedsFreshen |= isFreeIn(R, B);
      if (NeedsFreshen) {
        std::map<std::string, ExprPtr> Renames;
        C.Pat = freshenPattern(C.Pat, Renames);
        C.Body = substituteAll(C.Body, Renames);
      }
      C.Body = substituteAll(C.Body, BodySubst);
    }
    return Copy;
  }
  default: {
    ExprPtr Copy = shallowCopy(E);
    for (ExprPtr &A : Copy->Args)
      A = substituteAll(A, Subst);
    return Copy;
  }
  }
}

ExprPtr nv::substitute(const ExprPtr &E, const std::string &Name,
                       const ExprPtr &Replacement) {
  return substituteAll(E, {{Name, Replacement}});
}

//===----------------------------------------------------------------------===//
// Alpha renaming
//===----------------------------------------------------------------------===//

namespace {

PatternPtr renamePattern(const PatternPtr &P,
                         std::map<std::string, std::string> &Renames,
                         uint64_t &Counter) {
  auto Copy = std::make_shared<Pattern>(*P);
  if (Copy->Kind == PatternKind::Var) {
    std::string NewName = Copy->Name + "$" + std::to_string(Counter++);
    Renames[Copy->Name] = NewName;
    Copy->Name = NewName;
    return Copy;
  }
  for (PatternPtr &Sub : Copy->Elems)
    Sub = renamePattern(Sub, Renames, Counter);
  return Copy;
}

ExprPtr alphaRec(const ExprPtr &E, std::map<std::string, std::string> Renames,
                 uint64_t &Counter) {
  if (!E)
    return E;
  switch (E->Kind) {
  case ExprKind::Var: {
    auto It = Renames.find(E->Name);
    if (It == Renames.end())
      return E;
    ExprPtr Copy = shallowCopy(E);
    Copy->Name = It->second;
    return Copy;
  }
  case ExprKind::Const:
  case ExprKind::None:
    return E;
  case ExprKind::Let: {
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = alphaRec(E->Args[0], Renames, Counter);
    std::string NewName = E->Name + "$" + std::to_string(Counter++);
    Renames[E->Name] = NewName;
    Copy->Name = NewName;
    Copy->Args[1] = alphaRec(E->Args[1], Renames, Counter);
    return Copy;
  }
  case ExprKind::Fun: {
    ExprPtr Copy = shallowCopy(E);
    std::string NewName = E->Name + "$" + std::to_string(Counter++);
    Renames[E->Name] = NewName;
    Copy->Name = NewName;
    Copy->Args[0] = alphaRec(E->Args[0], Renames, Counter);
    Copy->CachedFreeVars = nullptr;
    return Copy;
  }
  case ExprKind::Match: {
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = alphaRec(E->Args[0], Renames, Counter);
    for (MatchCase &C : Copy->Cases) {
      std::map<std::string, std::string> CaseRenames = Renames;
      C.Pat = renamePattern(C.Pat, CaseRenames, Counter);
      C.Body = alphaRec(C.Body, CaseRenames, Counter);
    }
    return Copy;
  }
  default: {
    ExprPtr Copy = shallowCopy(E);
    for (ExprPtr &A : Copy->Args)
      A = alphaRec(A, Renames, Counter);
    return Copy;
  }
  }
}

} // namespace

ExprPtr nv::alphaRename(const ExprPtr &E, uint64_t &Counter) {
  return alphaRec(E, {}, Counter);
}

Program nv::alphaRenameProgram(const Program &P, uint64_t &Counter) {
  Program Out = P;
  for (DeclPtr &D : Out.Decls) {
    if (!D->Body)
      continue;
    auto Copy = std::make_shared<Decl>(*D);
    Copy->Body = alphaRename(D->Body, Counter);
    D = Copy;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Partial evaluation
//===----------------------------------------------------------------------===//

namespace {

/// True when duplicating \p E is free (substitution without a let).
bool isDuplicable(const ExprPtr &E) {
  switch (E->Kind) {
  case ExprKind::Const:
  case ExprKind::Var:
  case ExprKind::None:
  case ExprKind::Fun:
    return true;
  case ExprKind::Some:
  case ExprKind::Tuple:
  case ExprKind::Record: {
    for (const ExprPtr &A : E->Args)
      if (!isDuplicable(A))
        return false;
    return true;
  }
  default:
    return false;
  }
}

enum class MatchVerdict { Match, NoMatch, Unknown };

/// Decides whether the syntactic shape of \p E matches \p P.
MatchVerdict tryStaticMatch(const PatternPtr &P, const ExprPtr &E,
                            std::map<std::string, ExprPtr> &Bindings) {
  switch (P->Kind) {
  case PatternKind::Wild:
    return MatchVerdict::Match;
  case PatternKind::Var:
    Bindings[P->Name] = E;
    return MatchVerdict::Match;
  case PatternKind::Lit:
    if (E->Kind != ExprKind::Const)
      return MatchVerdict::Unknown;
    return E->Lit.equals(P->Lit) ? MatchVerdict::Match : MatchVerdict::NoMatch;
  case PatternKind::None:
    if (E->Kind == ExprKind::None)
      return MatchVerdict::Match;
    if (E->Kind == ExprKind::Some)
      return MatchVerdict::NoMatch;
    return MatchVerdict::Unknown;
  case PatternKind::Some:
    if (E->Kind == ExprKind::None)
      return MatchVerdict::NoMatch;
    if (E->Kind == ExprKind::Some)
      return tryStaticMatch(P->Elems[0], E->Args[0], Bindings);
    return MatchVerdict::Unknown;
  case PatternKind::Tuple: {
    // Tuples, and edge constants destructured as node pairs.
    if (E->Kind == ExprKind::Const && E->Lit.Kind == LiteralKind::Edge &&
        P->Elems.size() == 2) {
      ExprPtr U = Expr::nodeConst(E->Lit.NodeVal, E->Loc);
      ExprPtr V = Expr::nodeConst(E->Lit.NodeVal2, E->Loc);
      MatchVerdict M1 = tryStaticMatch(P->Elems[0], U, Bindings);
      if (M1 == MatchVerdict::NoMatch)
        return M1;
      MatchVerdict M2 = tryStaticMatch(P->Elems[1], V, Bindings);
      if (M2 == MatchVerdict::NoMatch)
        return M2;
      return M1 == MatchVerdict::Match && M2 == MatchVerdict::Match
                 ? MatchVerdict::Match
                 : MatchVerdict::Unknown;
    }
    if (E->Kind != ExprKind::Tuple || E->Args.size() != P->Elems.size())
      return MatchVerdict::Unknown;
    MatchVerdict Acc = MatchVerdict::Match;
    for (size_t I = 0; I < P->Elems.size(); ++I) {
      MatchVerdict M = tryStaticMatch(P->Elems[I], E->Args[I], Bindings);
      if (M == MatchVerdict::NoMatch)
        return M;
      if (M == MatchVerdict::Unknown)
        Acc = MatchVerdict::Unknown;
    }
    return Acc;
  }
  case PatternKind::Record: {
    if (E->Kind != ExprKind::Record)
      return MatchVerdict::Unknown;
    MatchVerdict Acc = MatchVerdict::Match;
    for (size_t I = 0; I < P->Labels.size(); ++I) {
      int Idx = -1;
      for (size_t J = 0; J < E->Labels.size(); ++J)
        if (E->Labels[J] == P->Labels[I])
          Idx = static_cast<int>(J);
      if (Idx < 0)
        return MatchVerdict::Unknown;
      MatchVerdict M = tryStaticMatch(P->Elems[I], E->Args[Idx], Bindings);
      if (M == MatchVerdict::NoMatch)
        return M;
      if (M == MatchVerdict::Unknown)
        Acc = MatchVerdict::Unknown;
    }
    return Acc;
  }
  }
  nv_unreachable("covered switch");
}

uint64_t truncWidth(uint64_t V, unsigned W) {
  return W >= 64 ? V : (V & ((uint64_t(1) << W) - 1));
}

/// Folds an operator over constant literals; null when not foldable.
ExprPtr foldOper(const ExprPtr &E) {
  Op O = E->OpCode;
  const auto &A = E->Args;
  auto isConst = [](const ExprPtr &X) { return X->Kind == ExprKind::Const; };
  auto boolOf = [](const ExprPtr &X) { return X->Lit.BoolVal; };

  switch (O) {
  case Op::And:
    if (isConst(A[0]))
      return boolOf(A[0]) ? A[1] : Expr::boolConst(false, E->Loc);
    if (isConst(A[1]) && boolOf(A[1]))
      return A[0];
    return nullptr;
  case Op::Or:
    if (isConst(A[0]))
      return boolOf(A[0]) ? Expr::boolConst(true, E->Loc) : A[1];
    if (isConst(A[1]) && !boolOf(A[1]))
      return A[0];
    return nullptr;
  case Op::Not:
    if (isConst(A[0]))
      return Expr::boolConst(!boolOf(A[0]), E->Loc);
    return nullptr;
  case Op::Eq:
  case Op::Neq: {
    // NV is pure and total: syntactically identical operands are equal.
    bool KnownEqual = exprEquals(A[0], A[1]);
    if (KnownEqual)
      return Expr::boolConst(O == Op::Eq, E->Loc);
    if (isConst(A[0]) && isConst(A[1])) {
      bool Eq = A[0]->Lit.equals(A[1]->Lit);
      return Expr::boolConst(O == Op::Eq ? Eq : !Eq, E->Loc);
    }
    // Distinct constructors can never be equal.
    auto Ctor = [](const ExprPtr &X) -> int {
      switch (X->Kind) {
      case ExprKind::None:
        return 1;
      case ExprKind::Some:
        return 2;
      default:
        return 0;
      }
    };
    if (Ctor(A[0]) && Ctor(A[1]) && Ctor(A[0]) != Ctor(A[1]))
      return Expr::boolConst(O == Op::Neq, E->Loc);
    return nullptr;
  }
  case Op::Add:
  case Op::Sub: {
    if (!isConst(A[0]) || !isConst(A[1]))
      return nullptr;
    unsigned W = A[0]->Lit.Width;
    uint64_t R = O == Op::Add ? A[0]->Lit.IntVal + A[1]->Lit.IntVal
                              : A[0]->Lit.IntVal - A[1]->Lit.IntVal;
    return Expr::intConst(truncWidth(R, W), W, E->Loc);
  }
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge: {
    if (!isConst(A[0]) || !isConst(A[1]))
      return nullptr;
    uint64_t L = A[0]->Lit.IntVal, R = A[1]->Lit.IntVal;
    bool B = O == Op::Lt ? L < R : O == Op::Le ? L <= R : O == Op::Gt ? L > R
                                                                      : L >= R;
    return Expr::boolConst(B, E->Loc);
  }
  default:
    return nullptr;
  }
}

} // namespace

ExprPtr nv::partialEval(const ExprPtr &E) {
  if (!E)
    return E;
  switch (E->Kind) {
  case ExprKind::Const:
  case ExprKind::Var:
  case ExprKind::None:
    return E;
  case ExprKind::Let: {
    ExprPtr Init = partialEval(E->Args[0]);
    size_t Uses = countOccurrences(E->Args[1], E->Name);
    if (Uses == 0)
      return partialEval(E->Args[1]); // pure language: dead let
    if (Uses == 1 || isDuplicable(Init))
      return partialEval(substitute(E->Args[1], E->Name, Init));
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = Init;
    Copy->Args[1] = partialEval(E->Args[1]);
    return Copy;
  }
  case ExprKind::Fun: {
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = partialEval(E->Args[0]);
    Copy->CachedFreeVars = nullptr;
    return Copy;
  }
  case ExprKind::App: {
    ExprPtr Fn = partialEval(E->Args[0]);
    ExprPtr Arg = partialEval(E->Args[1]);
    if (Fn->Kind == ExprKind::Fun) {
      size_t Uses = countOccurrences(Fn->Args[0], Fn->Name);
      if (Uses == 0)
        return partialEval(Fn->Args[0]);
      if (Uses == 1 || isDuplicable(Arg))
        return partialEval(substitute(Fn->Args[0], Fn->Name, Arg));
      std::string Tmp = freshName(Fn->Name);
      return Expr::let(Tmp, Arg,
                       partialEval(substitute(Fn->Args[0], Fn->Name,
                                              Expr::var(Tmp))),
                       nullptr, E->Loc);
    }
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = Fn;
    Copy->Args[1] = Arg;
    return Copy;
  }
  case ExprKind::If: {
    ExprPtr Cond = partialEval(E->Args[0]);
    if (Cond->Kind == ExprKind::Const)
      return partialEval(E->Args[Cond->Lit.BoolVal ? 1 : 2]);
    ExprPtr Then = partialEval(E->Args[1]);
    ExprPtr Else = partialEval(E->Args[2]);
    if (exprEquals(Then, Else))
      return Then;
    // if c then true else false  ==>  c
    if (Then->Kind == ExprKind::Const && Else->Kind == ExprKind::Const &&
        Then->Lit.Kind == LiteralKind::Bool &&
        Else->Lit.Kind == LiteralKind::Bool) {
      if (Then->Lit.BoolVal && !Else->Lit.BoolVal)
        return Cond;
      if (!Then->Lit.BoolVal && Else->Lit.BoolVal)
        return partialEval(Expr::oper(Op::Not, {Cond}, E->Loc));
    }
    ExprPtr Copy = shallowCopy(E);
    Copy->Args = {Cond, Then, Else};
    return Copy;
  }
  case ExprKind::Match: {
    ExprPtr Scrut = partialEval(E->Args[0]);
    std::vector<MatchCase> Residual;
    for (const MatchCase &C : E->Cases) {
      std::map<std::string, ExprPtr> Bindings;
      MatchVerdict V = tryStaticMatch(C.Pat, Scrut, Bindings);
      if (V == MatchVerdict::NoMatch)
        continue; // this case can never fire
      if (V == MatchVerdict::Match && Residual.empty()) {
        // First reachable case matches statically: commit to it. Bind
        // non-duplicable scrutinee parts through lets.
        ExprPtr Body = C.Body;
        std::map<std::string, ExprPtr> Direct;
        for (auto &[Name, Bound] : Bindings) {
          if (isDuplicable(Bound) ||
              countOccurrences(Body, Name) <= 1) {
            Direct[Name] = Bound;
          } else {
            std::string Tmp = freshName(Name);
            Body = Expr::let(Tmp, Bound,
                             substitute(Body, Name, Expr::var(Tmp)));
            // Note: binding through the let; nothing to substitute now.
          }
        }
        return partialEval(substituteAll(Body, Direct));
      }
      Residual.push_back({C.Pat, partialEval(C.Body)});
      if (V == MatchVerdict::Match)
        break; // later cases are unreachable
    }
    if (Residual.empty())
      evalError("partial evaluation found an inexhaustive match");
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = Scrut;
    Copy->Cases = std::move(Residual);
    return Copy;
  }
  case ExprKind::Oper: {
    ExprPtr Copy = shallowCopy(E);
    for (ExprPtr &A : Copy->Args)
      A = partialEval(A);
    if (ExprPtr Folded = foldOper(Copy))
      return Folded;
    return Copy;
  }
  case ExprKind::Tuple:
  case ExprKind::Record:
  case ExprKind::Some: {
    ExprPtr Copy = shallowCopy(E);
    for (ExprPtr &A : Copy->Args)
      A = partialEval(A);
    return Copy;
  }
  case ExprKind::Proj: {
    ExprPtr Sub = partialEval(E->Args[0]);
    if (Sub->Kind == ExprKind::Tuple && E->Index < Sub->Args.size())
      return Sub->Args[E->Index];
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = Sub;
    return Copy;
  }
  case ExprKind::Field: {
    ExprPtr Sub = partialEval(E->Args[0]);
    if (Sub->Kind == ExprKind::Record) {
      for (size_t I = 0; I < Sub->Labels.size(); ++I)
        if (Sub->Labels[I] == E->Name)
          return Sub->Args[I];
    }
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = Sub;
    return Copy;
  }
  case ExprKind::RecordUpdate: {
    ExprPtr Base = partialEval(E->Args[0]);
    if (Base->Kind == ExprKind::Record) {
      ExprPtr Copy = shallowCopy(Base);
      for (size_t I = 0; I < E->Labels.size(); ++I) {
        for (size_t J = 0; J < Copy->Labels.size(); ++J)
          if (Copy->Labels[J] == E->Labels[I])
            Copy->Args[J] = partialEval(E->Args[I + 1]);
      }
      return Copy;
    }
    ExprPtr Copy = shallowCopy(E);
    Copy->Args[0] = Base;
    for (size_t I = 1; I < Copy->Args.size(); ++I)
      Copy->Args[I] = partialEval(E->Args[I]);
    return Copy;
  }
  }
  nv_unreachable("covered switch");
}

Program nv::partialEvalProgram(const Program &P) {
  uint64_t Counter = 0;
  Program Renamed = alphaRenameProgram(P, Counter);

  std::map<std::string, ExprPtr> Globals;
  static const std::set<std::string> Semantic = {"init", "trans", "merge",
                                                 "assert"};
  Program Out;
  Out.AttrType = P.AttrType;
  for (const DeclPtr &D : Renamed.Decls) {
    switch (D->Kind) {
    case DeclKind::Let: {
      ExprPtr Body = partialEval(substituteAll(D->Body, Globals));
      Globals[D->Name] = Body;
      if (Semantic.count(D->Name)) {
        auto Copy = std::make_shared<Decl>(*D);
        Copy->Body = Body;
        Out.Decls.push_back(Copy);
      }
      break;
    }
    case DeclKind::Require: {
      auto Copy = std::make_shared<Decl>(*D);
      Copy->Body = partialEval(substituteAll(D->Body, Globals));
      Out.Decls.push_back(Copy);
      break;
    }
    case DeclKind::Symbolic: {
      auto Copy = std::make_shared<Decl>(*D);
      if (Copy->Body)
        Copy->Body = partialEval(substituteAll(Copy->Body, Globals));
      Out.Decls.push_back(Copy);
      break;
    }
    case DeclKind::TypeAlias:
    case DeclKind::Nodes:
    case DeclKind::Edges:
      Out.Decls.push_back(D);
      break;
    }
  }
  return Out;
}

Program nv::renameSemanticDecls(const Program &P) {
  Program Out = cloneProgram(P, {{"init", "__base_init"},
                                 {"trans", "__base_trans"},
                                 {"merge", "__base_merge"},
                                 {"assert", "__base_assert"}});
  for (const DeclPtr &D : Out.Decls) {
    // Pin the declaration to its inferred type (when the input was type
    // checked and the type is concrete). Without this, re-parsing the
    // printed program can re-generalize, leaving e.g. an empty set
    // literal's key type polymorphic and unevaluable.
    if (D->Kind == DeclKind::Let && D->Body->Ty) {
      TypePtr T = zonk(D->Body->Ty);
      if (isClosedType(T)) {
        D->Ty = T;
        D->ParamCount = 0;
      }
    }
  }
  return Out;
}

size_t nv::exprSize(const ExprPtr &E) {
  if (!E)
    return 0;
  size_t N = 1;
  for (const ExprPtr &A : E->Args)
    N += exprSize(A);
  for (const MatchCase &C : E->Cases)
    N += exprSize(C.Body);
  return N;
}

size_t nv::programSize(const Program &P) {
  size_t N = 0;
  for (const DeclPtr &D : P.Decls)
    N += exprSize(D->Body);
  return N;
}
