//===- Ast.h - NV abstract syntax -------------------------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NV abstract syntax of Fig. 6: expressions, patterns, declarations and
/// whole programs. Nodes are kind-tagged (no RTTI) and shared via
/// shared_ptr so NV-to-NV transforms can rewrite functionally while sharing
/// unchanged subtrees.
///
//===----------------------------------------------------------------------===//

#ifndef NV_CORE_AST_H
#define NV_CORE_AST_H

#include "core/Type.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace nv {

//===----------------------------------------------------------------------===//
// Literals
//===----------------------------------------------------------------------===//

enum class LiteralKind : uint8_t { Bool, Int, Node, Edge };

/// A first-order constant embedded in the syntax: true/false, sized integer
/// (e.g. 5u8), node (e.g. 3n), or edge (a directed node pair).
struct Literal {
  LiteralKind Kind = LiteralKind::Bool;
  bool BoolVal = false;
  uint64_t IntVal = 0;   ///< Int: value, already truncated to Width bits.
  unsigned Width = 32;   ///< Int: bit width.
  uint32_t NodeVal = 0;  ///< Node: id; Edge: source id.
  uint32_t NodeVal2 = 0; ///< Edge: target id.

  static Literal boolLit(bool B);
  static Literal intLit(uint64_t V, unsigned Width = 32);
  static Literal nodeLit(uint32_t N);
  static Literal edgeLit(uint32_t U, uint32_t V);

  TypePtr type() const;
  bool equals(const Literal &O) const;
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

/// Primitive operators, including the dictionary operations of Fig. 7.
enum class Op : uint8_t {
  // Boolean.
  And, // e1 && e2
  Or,  // e1 || e2
  Not, // !e
  // Polymorphic structural (in)equality on non-function values.
  Eq,
  Neq,
  // Sized-integer arithmetic (wrap-around) and comparisons.
  Add,
  Sub,
  Lt,
  Le,
  Gt,
  Ge,
  // Dictionary operations (Fig. 7). Args are listed in NV argument order:
  //   MCreate  default                 : createDict d
  //   MGet     map, key                : m[k]
  //   MSet     map, key, value         : m[k := v]
  //   MMap     fn, map                 : map f m
  //   MMapIte  pred, fnThen, fnElse, m : mapIte p f g m
  //   MCombine fn, map1, map2          : combine f m1 m2
  MCreate,
  MGet,
  MSet,
  MMap,
  MMapIte,
  MCombine,
};

/// Number of operands each Op expects.
unsigned opArity(Op O);
/// Surface spelling (for printing / diagnostics).
std::string opToString(Op O);
/// True for MCreate..MCombine.
bool isMapOp(Op O);

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

enum class PatternKind : uint8_t {
  Wild,   // _
  Var,    // x
  Lit,    // true / 3 / 2n
  None,   // None
  Some,   // Some p
  Tuple,  // (p1, ..., pn); also destructures edge values as (node, node)
  Record, // { l1 = p1; ...; ln = pn }
};

struct Pattern;
using PatternPtr = std::shared_ptr<Pattern>;

struct Pattern {
  PatternKind Kind = PatternKind::Wild;
  SourceLoc Loc;
  std::string Name;                ///< Var binder.
  Literal Lit;                     ///< Lit payload.
  std::vector<PatternPtr> Elems;   ///< Some (1), Tuple, Record children.
  std::vector<std::string> Labels; ///< Record, sorted, parallel to Elems.

  static PatternPtr wild(SourceLoc Loc = {});
  static PatternPtr var(std::string Name, SourceLoc Loc = {});
  static PatternPtr lit(Literal L, SourceLoc Loc = {});
  static PatternPtr none(SourceLoc Loc = {});
  static PatternPtr some(PatternPtr P, SourceLoc Loc = {});
  static PatternPtr tuple(std::vector<PatternPtr> Ps, SourceLoc Loc = {});
  static PatternPtr record(std::vector<std::string> Labels,
                           std::vector<PatternPtr> Ps, SourceLoc Loc = {});

  /// Appends the variables bound by this pattern, in left-to-right order,
  /// to \p Out (a vector of std::string or std::string_view).
  template <typename StringVec> void boundVars(StringVec &Out) const {
    if (Kind == PatternKind::Var)
      Out.push_back(Name);
    for (const PatternPtr &E : Elems) // empty but for Some, Tuple, Record
      E->boundVars(Out);
  }
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  Const,        // literal
  Var,          // x
  Let,          // let x = e1 in e2
  Fun,          // fun (x : ty) -> e      (curried; multi-param is sugar)
  App,          // e1 e2
  If,           // if e1 then e2 else e3
  Match,        // match e with | p1 -> e1 ...
  Oper,         // primitive operator application (full arity)
  Tuple,        // (e1, ..., en)
  Proj,         // e.N  -- tuple projection by index (post-desugaring)
  Record,       // { l1 = e1; ...; ln = en }
  RecordUpdate, // { e with l1 = e1; ... }
  Field,        // e.l  -- record field access
  Some,         // Some e
  None,         // None
};

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct MatchCase {
  PatternPtr Pat;
  ExprPtr Body;
};

/// A single NV expression node. One struct covers all kinds; unused fields
/// stay empty. Children live in Args with kind-specific layout:
///   Let: {Init, Body}  Fun: {Body}  App: {Fn, Arg}  If: {Cond, Then, Else}
///   Match: {Scrutinee} (cases in Cases)  Oper: operands in NV order
///   Tuple/Record: components  RecordUpdate: {Base, new field values}
///   Proj/Field/Some: {Operand}
struct Expr {
  ExprKind Kind = ExprKind::None;
  SourceLoc Loc;
  TypePtr Ty; ///< Filled in by the type checker.

  Literal Lit;                     ///< Const.
  std::string Name;                ///< Var / Let binder / Fun param / Field.
  Op OpCode = Op::And;             ///< Oper.
  std::vector<ExprPtr> Args;       ///< Children (see layout above).
  std::vector<MatchCase> Cases;    ///< Match.
  std::vector<std::string> Labels; ///< Record / RecordUpdate, sorted.
  unsigned Index = 0;              ///< Proj.
  TypePtr Annot;                   ///< Optional annotation (Fun/Let binder).

  /// Lazily computed free-variable set (see freeVarsOf in NvContext.h).
  /// Stored on the node so the cache cannot outlive the AST.
  mutable std::shared_ptr<const std::vector<std::string>> CachedFreeVars;

  // Factories.
  static ExprPtr constant(Literal L, SourceLoc Loc = {});
  static ExprPtr boolConst(bool B, SourceLoc Loc = {});
  static ExprPtr intConst(uint64_t V, unsigned Width = 32, SourceLoc Loc = {});
  static ExprPtr nodeConst(uint32_t N, SourceLoc Loc = {});
  static ExprPtr edgeConst(uint32_t U, uint32_t V, SourceLoc Loc = {});
  static ExprPtr var(std::string Name, SourceLoc Loc = {});
  static ExprPtr let(std::string Name, ExprPtr Init, ExprPtr Body,
                     TypePtr Annot = nullptr, SourceLoc Loc = {});
  static ExprPtr fun(std::string Param, ExprPtr Body, TypePtr Annot = nullptr,
                     SourceLoc Loc = {});
  static ExprPtr app(ExprPtr Fn, ExprPtr Arg, SourceLoc Loc = {});
  static ExprPtr iff(ExprPtr Cond, ExprPtr Then, ExprPtr Else,
                     SourceLoc Loc = {});
  static ExprPtr match(ExprPtr Scrut, std::vector<MatchCase> Cases,
                       SourceLoc Loc = {});
  static ExprPtr oper(Op O, std::vector<ExprPtr> Args, SourceLoc Loc = {});
  static ExprPtr tuple(std::vector<ExprPtr> Elems, SourceLoc Loc = {});
  static ExprPtr proj(ExprPtr Operand, unsigned Index, SourceLoc Loc = {});
  static ExprPtr record(std::vector<std::string> Labels,
                        std::vector<ExprPtr> Elems, SourceLoc Loc = {});
  static ExprPtr recordUpdate(ExprPtr Base, std::vector<std::string> Labels,
                              std::vector<ExprPtr> Elems, SourceLoc Loc = {});
  static ExprPtr field(ExprPtr Operand, std::string Label, SourceLoc Loc = {});
  static ExprPtr some(ExprPtr Operand, SourceLoc Loc = {});
  static ExprPtr none(SourceLoc Loc = {});

  /// Convenience: builds nested App nodes, f a1 a2 ... an.
  static ExprPtr apps(ExprPtr Fn, std::vector<ExprPtr> CallArgs);
  /// Convenience: builds nested Fun nodes over \p Params.
  static ExprPtr funs(const std::vector<std::string> &Params, ExprPtr Body);
};

//===----------------------------------------------------------------------===//
// Declarations and programs
//===----------------------------------------------------------------------===//

enum class DeclKind : uint8_t {
  Let,       // let x = e          (includes init/trans/merge/assert)
  Symbolic,  // symbolic x : ty  |  symbolic x = e (typed by e, default value)
  Require,   // require e
  TypeAlias, // type t = ty
  Nodes,     // let nodes = N
  Edges,     // let edges = { u1=v1; ... }
};

struct Decl;
using DeclPtr = std::shared_ptr<Decl>;

struct Decl {
  DeclKind Kind = DeclKind::Let;
  SourceLoc Loc;
  std::string Name;  ///< Let / Symbolic / TypeAlias.
  TypePtr Ty;        ///< Symbolic/Let annotation or TypeAlias target.
  /// Let: number of parameters the surface declaration had; Ty (when set)
  /// annotates the result after that many arrows.
  unsigned ParamCount = 0;
  ExprPtr Body;      ///< Let / Require / Symbolic default.
  uint32_t NodeCount = 0;
  std::vector<std::pair<uint32_t, uint32_t>> EdgeList; ///< As written.

  static DeclPtr letDecl(std::string Name, ExprPtr Body, SourceLoc Loc = {});
  static DeclPtr symbolicDecl(std::string Name, TypePtr Ty, ExprPtr Default,
                              SourceLoc Loc = {});
  static DeclPtr requireDecl(ExprPtr Body, SourceLoc Loc = {});
  static DeclPtr typeAlias(std::string Name, TypePtr Ty, SourceLoc Loc = {});
  static DeclPtr nodesDecl(uint32_t N, SourceLoc Loc = {});
  static DeclPtr edgesDecl(std::vector<std::pair<uint32_t, uint32_t>> Edges,
                           SourceLoc Loc = {});
};

/// A parsed (and possibly type-checked) NV program.
///
/// The routing semantics of the program is given by the required
/// declarations of Fig. 8: nodes, edges, init, trans, merge, and optionally
/// assert, plus any symbolic/require declarations.
struct Program {
  std::vector<DeclPtr> Decls;

  /// Set by the type checker: the message/attribute type alpha.
  TypePtr AttrType;

  uint32_t numNodes() const;

  /// Links exactly as declared (each link is an undirected adjacency).
  std::vector<std::pair<uint32_t, uint32_t>> links() const;

  /// Directed edges over which `trans` runs: both orientations of every
  /// declared link, deduplicated, sorted.
  std::vector<std::pair<uint32_t, uint32_t>> directedEdges() const;

  /// First Let declaration named \p Name, or null.
  const Decl *findLet(const std::string &Name) const;
  /// All symbolic declarations in order.
  std::vector<const Decl *> symbolics() const;
  /// All require declarations in order.
  std::vector<const Decl *> requires_() const;

  const Decl *initDecl() const { return findLet("init"); }
  const Decl *transDecl() const { return findLet("trans"); }
  const Decl *mergeDecl() const { return findLet("merge"); }
  const Decl *assertDecl() const { return findLet("assert"); }
};

//===----------------------------------------------------------------------===//
// Generic traversal helpers
//===----------------------------------------------------------------------===//

/// Calls \p Fn on every sub-expression of \p E (including \p E), pre-order.
void forEachExpr(const ExprPtr &E, const std::function<void(const ExprPtr &)> &Fn);

/// A deep copy of \p E: every Expr node is fresh, so the copy can be
/// evaluated on another thread than the original (freeVarsOf fills
/// Expr::CachedFreeVars lazily, which makes shared nodes race). Types and
/// patterns, immutable once checked, are shared; Ty is kept and
/// CachedFreeVars starts empty.
ExprPtr cloneExpr(const ExprPtr &E);

/// A deep copy of \p P (cloneExpr on every body; fresh Decl objects) that
/// keeps AttrType. A Let declaration named in \p Renames takes its new name,
/// and so does every reference to it that no local binder shadows.
Program cloneProgram(const Program &P,
                     const std::map<std::string, std::string> &Renames = {});

/// Structural equality of expressions (alpha-sensitive; literals, names and
/// shapes must match). Used by tests and by partial evaluation.
bool exprEquals(const ExprPtr &A, const ExprPtr &B);

} // namespace nv

#endif // NV_CORE_AST_H
