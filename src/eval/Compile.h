//===- Compile.h - Closure compilation ("native" mode) ----------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native-execution substitute for the paper's NV-to-OCaml compiler
/// (Sec. 5.1). NV expressions are compiled once into a tree of C++
/// closures: variables become frame-slot indices resolved at compile time,
/// record labels become precomputed field offsets, patterns become
/// pre-compiled matchers, and a match's leading literal arms become one
/// lookup table. The simulator then executes compiled code with
/// no name lookups, no environment allocation and no AST dispatch —
/// amortizing the one-time compilation cost across simulator iterations,
/// exactly the axis Fig. 13c/14 measure. Map leaves still cross between
/// interned values and the compiled representation, reproducing the
/// embed/unembed overhead the paper discusses.
///
//===----------------------------------------------------------------------===//

#ifndef NV_EVAL_COMPILE_H
#define NV_EVAL_COMPILE_H

#include "core/Ast.h"
#include "eval/ProgramEvaluator.h"

namespace nv {

/// A compiled expression: evaluates against a frame, leaving its size
/// unchanged.
using CExpr = std::function<const Value *(Frame &)>;

/// The compiled code of one Fun expression, shared by its Fun node and
/// every closure built from it.
struct FunCode {
  const Expr *Src = nullptr;
  /// Slots of Src's free variables (freeVarsOf order) in the frame the Fun
  /// is evaluated in.
  std::vector<int> FreeSlots;
  /// The body, compiled against [free vars..., param].
  CExpr Body;
  /// The body's code when the body is itself a Fun (a curried function);
  /// its FreeSlots index the frame Body runs in.
  std::shared_ptr<const FunCode> Inner;
};

/// Compiles expressions against a lexical scope of named slots.
class Compiler {
public:
  explicit Compiler(NvContext &Ctx) : Ctx(Ctx) {}

  /// Compiles \p E against the current scope. Expressions must be
  /// type-checked.
  CExpr compile(const ExprPtr &E);

  /// Appends a named slot to the scope (top-level declarations).
  void pushGlobal(const std::string &Name) { Scope.push_back(Name); }

  size_t scopeSize() const { return Scope.size(); }

private:
  NvContext &Ctx;
  std::vector<std::string> Scope;

  int slotOf(const std::string &Name) const;
  CExpr compileOper(const ExprPtr &E);
  std::shared_ptr<const FunCode> compileFun(const ExprPtr &E);
  /// The Fun node of \p Code: builds (or finds) its canonical closure.
  CExpr funNode(std::shared_ptr<const FunCode> Code);
  /// Compiles a pattern match attempt: pushes bindings onto the frame on
  /// success (caller resets the frame on failure). Extends Scope with the
  /// pattern's bound variables.
  std::function<bool(const Value *, Frame &)>
  compilePattern(const PatternPtr &P, const TypePtr &Ty);
};

/// Closure-compiled program evaluator (the "NV-native" series of Fig. 13c
/// and Fig. 14). Compilation happens in the constructor; construction time
/// is the analog of the paper's OCaml compile time.
class CompiledProgramEvaluator : public ProgramEvaluator {
public:
  CompiledProgramEvaluator(NvContext &Ctx, const Program &P,
                           const SymbolicAssignment &Sym = {});
};

} // namespace nv

#endif // NV_EVAL_COMPILE_H
