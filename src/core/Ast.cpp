//===- Ast.cpp - NV abstract syntax ---------------------------------------===//

#include "core/Ast.h"

#include "support/Fatal.h"

#include <algorithm>
#include <span>

using namespace nv;

//===----------------------------------------------------------------------===//
// Literal
//===----------------------------------------------------------------------===//

static uint64_t truncToWidth(uint64_t V, unsigned Width) {
  if (Width >= 64)
    return V;
  return V & ((uint64_t(1) << Width) - 1);
}

Literal Literal::boolLit(bool B) {
  Literal L;
  L.Kind = LiteralKind::Bool;
  L.BoolVal = B;
  return L;
}

Literal Literal::intLit(uint64_t V, unsigned Width) {
  Literal L;
  L.Kind = LiteralKind::Int;
  L.Width = Width;
  L.IntVal = truncToWidth(V, Width);
  return L;
}

Literal Literal::nodeLit(uint32_t N) {
  Literal L;
  L.Kind = LiteralKind::Node;
  L.NodeVal = N;
  return L;
}

Literal Literal::edgeLit(uint32_t U, uint32_t V) {
  Literal L;
  L.Kind = LiteralKind::Edge;
  L.NodeVal = U;
  L.NodeVal2 = V;
  return L;
}

TypePtr Literal::type() const {
  switch (Kind) {
  case LiteralKind::Bool:
    return Type::boolTy();
  case LiteralKind::Int:
    return Type::intTy(Width);
  case LiteralKind::Node:
    return Type::nodeTy();
  case LiteralKind::Edge:
    return Type::edgeTy();
  }
  nv_unreachable("covered switch");
}

bool Literal::equals(const Literal &O) const {
  if (Kind != O.Kind)
    return false;
  switch (Kind) {
  case LiteralKind::Bool:
    return BoolVal == O.BoolVal;
  case LiteralKind::Int:
    return Width == O.Width && IntVal == O.IntVal;
  case LiteralKind::Node:
    return NodeVal == O.NodeVal;
  case LiteralKind::Edge:
    return NodeVal == O.NodeVal && NodeVal2 == O.NodeVal2;
  }
  nv_unreachable("covered switch");
}

std::string Literal::str() const {
  switch (Kind) {
  case LiteralKind::Bool:
    return BoolVal ? "true" : "false";
  case LiteralKind::Int:
    if (Width == 32)
      return std::to_string(IntVal);
    return std::to_string(IntVal) + "u" + std::to_string(Width);
  case LiteralKind::Node:
    return std::to_string(NodeVal) + "n";
  case LiteralKind::Edge:
    return std::to_string(NodeVal) + "~" + std::to_string(NodeVal2);
  }
  nv_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

unsigned nv::opArity(Op O) {
  switch (O) {
  case Op::Not:
  case Op::MCreate:
    return 1;
  case Op::And:
  case Op::Or:
  case Op::Eq:
  case Op::Neq:
  case Op::Add:
  case Op::Sub:
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
  case Op::MGet:
    return 2;
  case Op::MSet:
  case Op::MCombine:
    return 3;
  case Op::MMapIte:
    return 4;
  case Op::MMap:
    return 2;
  }
  nv_unreachable("covered switch");
}

std::string nv::opToString(Op O) {
  switch (O) {
  case Op::And:
    return "&&";
  case Op::Or:
    return "||";
  case Op::Not:
    return "!";
  case Op::Eq:
    return "=";
  case Op::Neq:
    return "<>";
  case Op::Add:
    return "+";
  case Op::Sub:
    return "-";
  case Op::Lt:
    return "<";
  case Op::Le:
    return "<=";
  case Op::Gt:
    return ">";
  case Op::Ge:
    return ">=";
  case Op::MCreate:
    return "createDict";
  case Op::MGet:
    return "get";
  case Op::MSet:
    return "set";
  case Op::MMap:
    return "map";
  case Op::MMapIte:
    return "mapIte";
  case Op::MCombine:
    return "combine";
  }
  nv_unreachable("covered switch");
}

bool nv::isMapOp(Op O) {
  switch (O) {
  case Op::MCreate:
  case Op::MGet:
  case Op::MSet:
  case Op::MMap:
  case Op::MMapIte:
  case Op::MCombine:
    return true;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Pattern factories
//===----------------------------------------------------------------------===//

PatternPtr Pattern::wild(SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::Wild;
  P->Loc = Loc;
  return P;
}

PatternPtr Pattern::var(std::string Name, SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::Var;
  P->Name = std::move(Name);
  P->Loc = Loc;
  return P;
}

PatternPtr Pattern::lit(Literal L, SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::Lit;
  P->Lit = L;
  P->Loc = Loc;
  return P;
}

PatternPtr Pattern::none(SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::None;
  P->Loc = Loc;
  return P;
}

PatternPtr Pattern::some(PatternPtr Inner, SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::Some;
  P->Elems.push_back(std::move(Inner));
  P->Loc = Loc;
  return P;
}

PatternPtr Pattern::tuple(std::vector<PatternPtr> Ps, SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::Tuple;
  P->Elems = std::move(Ps);
  P->Loc = Loc;
  return P;
}

PatternPtr Pattern::record(std::vector<std::string> Labels,
                           std::vector<PatternPtr> Ps, SourceLoc Loc) {
  auto P = std::make_shared<Pattern>();
  P->Kind = PatternKind::Record;
  P->Labels = std::move(Labels);
  P->Elems = std::move(Ps);
  P->Loc = Loc;
  return P;
}

std::string Pattern::str() const {
  switch (Kind) {
  case PatternKind::Wild:
    return "_";
  case PatternKind::Var:
    return Name;
  case PatternKind::Lit:
    return Lit.str();
  case PatternKind::None:
    return "None";
  case PatternKind::Some:
    return "Some " + Elems[0]->str();
  case PatternKind::Tuple: {
    std::string S = "(";
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        S += ", ";
      S += Elems[I]->str();
    }
    return S + ")";
  }
  case PatternKind::Record: {
    std::string S = "{";
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        S += "; ";
      S += Labels[I] + " = " + Elems[I]->str();
    }
    return S + "}";
  }
  }
  nv_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Expression factories
//===----------------------------------------------------------------------===//

static ExprPtr mk(ExprKind K, SourceLoc Loc) {
  auto E = std::make_shared<Expr>();
  E->Kind = K;
  E->Loc = Loc;
  return E;
}

ExprPtr Expr::constant(Literal L, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Const, Loc);
  E->Lit = L;
  return E;
}

ExprPtr Expr::boolConst(bool B, SourceLoc Loc) {
  return constant(Literal::boolLit(B), Loc);
}

ExprPtr Expr::intConst(uint64_t V, unsigned Width, SourceLoc Loc) {
  return constant(Literal::intLit(V, Width), Loc);
}

ExprPtr Expr::nodeConst(uint32_t N, SourceLoc Loc) {
  return constant(Literal::nodeLit(N), Loc);
}

ExprPtr Expr::edgeConst(uint32_t U, uint32_t V, SourceLoc Loc) {
  return constant(Literal::edgeLit(U, V), Loc);
}

ExprPtr Expr::var(std::string Name, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Var, Loc);
  E->Name = std::move(Name);
  return E;
}

ExprPtr Expr::let(std::string Name, ExprPtr Init, ExprPtr Body, TypePtr Annot,
                  SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Let, Loc);
  E->Name = std::move(Name);
  E->Args = {std::move(Init), std::move(Body)};
  E->Annot = std::move(Annot);
  return E;
}

ExprPtr Expr::fun(std::string Param, ExprPtr Body, TypePtr Annot,
                  SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Fun, Loc);
  E->Name = std::move(Param);
  E->Args = {std::move(Body)};
  E->Annot = std::move(Annot);
  return E;
}

ExprPtr Expr::app(ExprPtr Fn, ExprPtr Arg, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::App, Loc);
  E->Args = {std::move(Fn), std::move(Arg)};
  return E;
}

ExprPtr Expr::iff(ExprPtr Cond, ExprPtr Then, ExprPtr Else, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::If, Loc);
  E->Args = {std::move(Cond), std::move(Then), std::move(Else)};
  return E;
}

ExprPtr Expr::match(ExprPtr Scrut, std::vector<MatchCase> Cases,
                    SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Match, Loc);
  E->Args = {std::move(Scrut)};
  E->Cases = std::move(Cases);
  return E;
}

ExprPtr Expr::oper(Op O, std::vector<ExprPtr> Args, SourceLoc Loc) {
  if (Args.size() != opArity(O))
    fatalError("operator " + opToString(O) + " expects " +
               std::to_string(opArity(O)) + " operands, got " +
               std::to_string(Args.size()));
  ExprPtr E = mk(ExprKind::Oper, Loc);
  E->OpCode = O;
  E->Args = std::move(Args);
  return E;
}

ExprPtr Expr::tuple(std::vector<ExprPtr> Elems, SourceLoc Loc) {
  if (Elems.size() < 2)
    fatalError("tuples need at least two components");
  ExprPtr E = mk(ExprKind::Tuple, Loc);
  E->Args = std::move(Elems);
  return E;
}

ExprPtr Expr::proj(ExprPtr Operand, unsigned Index, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Proj, Loc);
  E->Args = {std::move(Operand)};
  E->Index = Index;
  return E;
}

ExprPtr Expr::record(std::vector<std::string> Labels, std::vector<ExprPtr> Elems,
                     SourceLoc Loc) {
  if (Labels.size() != Elems.size())
    fatalError("record literal label/value mismatch");
  ExprPtr E = mk(ExprKind::Record, Loc);
  E->Labels = std::move(Labels);
  E->Args = std::move(Elems);
  return E;
}

ExprPtr Expr::recordUpdate(ExprPtr Base, std::vector<std::string> Labels,
                           std::vector<ExprPtr> Elems, SourceLoc Loc) {
  if (Labels.size() != Elems.size())
    fatalError("record update label/value mismatch");
  ExprPtr E = mk(ExprKind::RecordUpdate, Loc);
  E->Labels = std::move(Labels);
  E->Args.push_back(std::move(Base));
  for (ExprPtr &V : Elems)
    E->Args.push_back(std::move(V));
  return E;
}

ExprPtr Expr::field(ExprPtr Operand, std::string Label, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Field, Loc);
  E->Args = {std::move(Operand)};
  E->Name = std::move(Label);
  return E;
}

ExprPtr Expr::some(ExprPtr Operand, SourceLoc Loc) {
  ExprPtr E = mk(ExprKind::Some, Loc);
  E->Args = {std::move(Operand)};
  return E;
}

ExprPtr Expr::none(SourceLoc Loc) { return mk(ExprKind::None, Loc); }

ExprPtr Expr::apps(ExprPtr Fn, std::vector<ExprPtr> CallArgs) {
  ExprPtr E = std::move(Fn);
  for (ExprPtr &A : CallArgs)
    E = app(std::move(E), std::move(A));
  return E;
}

ExprPtr Expr::funs(const std::vector<std::string> &Params, ExprPtr Body) {
  ExprPtr E = std::move(Body);
  for (auto It = Params.rbegin(); It != Params.rend(); ++It)
    E = fun(*It, std::move(E));
  return E;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

static DeclPtr mkDecl(DeclKind K, SourceLoc Loc) {
  auto D = std::make_shared<Decl>();
  D->Kind = K;
  D->Loc = Loc;
  return D;
}

DeclPtr Decl::letDecl(std::string Name, ExprPtr Body, SourceLoc Loc) {
  DeclPtr D = mkDecl(DeclKind::Let, Loc);
  D->Name = std::move(Name);
  D->Body = std::move(Body);
  return D;
}

DeclPtr Decl::symbolicDecl(std::string Name, TypePtr Ty, ExprPtr Default,
                           SourceLoc Loc) {
  DeclPtr D = mkDecl(DeclKind::Symbolic, Loc);
  D->Name = std::move(Name);
  D->Ty = std::move(Ty);
  D->Body = std::move(Default);
  return D;
}

DeclPtr Decl::requireDecl(ExprPtr Body, SourceLoc Loc) {
  DeclPtr D = mkDecl(DeclKind::Require, Loc);
  D->Body = std::move(Body);
  return D;
}

DeclPtr Decl::typeAlias(std::string Name, TypePtr Ty, SourceLoc Loc) {
  DeclPtr D = mkDecl(DeclKind::TypeAlias, Loc);
  D->Name = std::move(Name);
  D->Ty = std::move(Ty);
  return D;
}

DeclPtr Decl::nodesDecl(uint32_t N, SourceLoc Loc) {
  DeclPtr D = mkDecl(DeclKind::Nodes, Loc);
  D->NodeCount = N;
  return D;
}

DeclPtr Decl::edgesDecl(std::vector<std::pair<uint32_t, uint32_t>> Edges,
                        SourceLoc Loc) {
  DeclPtr D = mkDecl(DeclKind::Edges, Loc);
  D->EdgeList = std::move(Edges);
  return D;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

uint32_t Program::numNodes() const {
  for (const DeclPtr &D : Decls)
    if (D->Kind == DeclKind::Nodes)
      return D->NodeCount;
  return 0;
}

std::vector<std::pair<uint32_t, uint32_t>> Program::links() const {
  for (const DeclPtr &D : Decls)
    if (D->Kind == DeclKind::Edges)
      return D->EdgeList;
  return {};
}

std::vector<std::pair<uint32_t, uint32_t>> Program::directedEdges() const {
  std::vector<std::pair<uint32_t, uint32_t>> Out;
  for (const auto &[U, V] : links()) {
    Out.emplace_back(U, V);
    Out.emplace_back(V, U);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

const Decl *Program::findLet(const std::string &Name) const {
  for (const DeclPtr &D : Decls)
    if (D->Kind == DeclKind::Let && D->Name == Name)
      return D.get();
  return nullptr;
}

std::vector<const Decl *> Program::symbolics() const {
  std::vector<const Decl *> Out;
  for (const DeclPtr &D : Decls)
    if (D->Kind == DeclKind::Symbolic)
      Out.push_back(D.get());
  return Out;
}

std::vector<const Decl *> Program::requires_() const {
  std::vector<const Decl *> Out;
  for (const DeclPtr &D : Decls)
    if (D->Kind == DeclKind::Require)
      Out.push_back(D.get());
  return Out;
}

//===----------------------------------------------------------------------===//
// Traversal helpers
//===----------------------------------------------------------------------===//

void nv::forEachExpr(const ExprPtr &E,
                     const std::function<void(const ExprPtr &)> &Fn) {
  if (!E)
    return;
  Fn(E);
  for (const ExprPtr &A : E->Args)
    forEachExpr(A, Fn);
  for (const MatchCase &C : E->Cases)
    forEachExpr(C.Body, Fn);
}

namespace {

/// cloneExpr, renaming free references to the names in Renames.
class Cloner {
public:
  explicit Cloner(const std::map<std::string, std::string> &Renames)
      : Renames(Renames) {}

  ExprPtr clone(const ExprPtr &E) {
    if (!E)
      return nullptr;
    // Field by field: copying the node would also read CachedFreeVars,
    // which another thread may be filling.
    auto C = std::make_shared<Expr>();
    C->Kind = E->Kind;
    C->Loc = E->Loc;
    C->Ty = E->Ty;
    C->Lit = E->Lit;
    C->Name = E->Name;
    C->OpCode = E->OpCode;
    C->Labels = E->Labels;
    C->Index = E->Index;
    C->Annot = E->Annot;
    C->Args.reserve(E->Args.size());
    switch (E->Kind) {
    case ExprKind::Var:
      if (auto It = Renames.find(E->Name);
          It != Renames.end() && std::find(Shadowed.begin(), Shadowed.end(),
                                           E->Name) == Shadowed.end())
        C->Name = It->second;
      break;
    case ExprKind::Let:
      C->Args.push_back(clone(E->Args[0]));
      C->Args.push_back(cloneUnder({&E->Name, 1}, E->Args[1]));
      break;
    case ExprKind::Fun:
      C->Args.push_back(cloneUnder({&E->Name, 1}, E->Args[0]));
      break;
    case ExprKind::Match: {
      C->Args.push_back(clone(E->Args[0]));
      C->Cases.reserve(E->Cases.size());
      std::vector<std::string> Bound;
      for (const MatchCase &MC : E->Cases) {
        Bound.clear();
        MC.Pat->boundVars(Bound);
        C->Cases.push_back({MC.Pat, cloneUnder(Bound, MC.Body)});
      }
      break;
    }
    default:
      for (const ExprPtr &A : E->Args)
        C->Args.push_back(clone(A));
    }
    return C;
  }

private:
  const std::map<std::string, std::string> &Renames;
  /// The local binders in scope that shadow a renamed name.
  std::vector<std::string> Shadowed;

  ExprPtr cloneUnder(std::span<const std::string> Binders,
                     const ExprPtr &Body) {
    size_t Mark = Shadowed.size();
    for (const std::string &B : Binders)
      if (Renames.count(B))
        Shadowed.push_back(B);
    ExprPtr C = clone(Body);
    Shadowed.resize(Mark);
    return C;
  }
};

} // namespace

ExprPtr nv::cloneExpr(const ExprPtr &E) { return Cloner({}).clone(E); }

Program nv::cloneProgram(const Program &P,
                         const std::map<std::string, std::string> &Renames) {
  Cloner C(Renames);
  Program Out;
  Out.AttrType = P.AttrType;
  Out.Decls.reserve(P.Decls.size());
  for (const DeclPtr &D : P.Decls) {
    auto Copy = std::make_shared<Decl>(*D);
    Copy->Body = C.clone(D->Body);
    if (auto It = Renames.find(D->Name);
        D->Kind == DeclKind::Let && It != Renames.end())
      Copy->Name = It->second;
    Out.Decls.push_back(std::move(Copy));
  }
  return Out;
}

static bool patternEquals(const PatternPtr &A, const PatternPtr &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B || A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case PatternKind::Wild:
  case PatternKind::None:
    return true;
  case PatternKind::Var:
    return A->Name == B->Name;
  case PatternKind::Lit:
    return A->Lit.equals(B->Lit);
  case PatternKind::Some:
  case PatternKind::Tuple:
  case PatternKind::Record: {
    if (A->Labels != B->Labels || A->Elems.size() != B->Elems.size())
      return false;
    for (size_t I = 0; I < A->Elems.size(); ++I)
      if (!patternEquals(A->Elems[I], B->Elems[I]))
        return false;
    return true;
  }
  }
  nv_unreachable("covered switch");
}

bool nv::exprEquals(const ExprPtr &A, const ExprPtr &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B || A->Kind != B->Kind)
    return false;
  if (A->Name != B->Name || A->Index != B->Index || A->Labels != B->Labels)
    return false;
  if (A->Kind == ExprKind::Const && !A->Lit.equals(B->Lit))
    return false;
  if (A->Kind == ExprKind::Oper && A->OpCode != B->OpCode)
    return false;
  if (A->Args.size() != B->Args.size() || A->Cases.size() != B->Cases.size())
    return false;
  for (size_t I = 0; I < A->Args.size(); ++I)
    if (!exprEquals(A->Args[I], B->Args[I]))
      return false;
  for (size_t I = 0; I < A->Cases.size(); ++I) {
    if (!patternEquals(A->Cases[I].Pat, B->Cases[I].Pat))
      return false;
    if (!exprEquals(A->Cases[I].Body, B->Cases[I].Body))
      return false;
  }
  return true;
}
