//===- ProgramEvaluator.h - Protocol semantics interface --------*- C++ -*-===//
//
// Part of nv-cpp. The simulator (Algorithm 1) consumes the init/trans/
// merge/assert functions of a program through this interface; it is
// implemented by ProgramEvaluator, whose declarations are evaluated by the
// tree-walking interpreter here or by the closure compiler in Compile.h
// (the "native" mode of Sec. 5.1).
//
//===----------------------------------------------------------------------===//

#ifndef NV_EVAL_PROGRAMEVALUATOR_H
#define NV_EVAL_PROGRAMEVALUATOR_H

#include "core/Ast.h"
#include "eval/Interp.h"
#include "eval/NvContext.h"

#include <functional>
#include <map>
#include <memory>

namespace nv {

/// Concrete values substituted for symbolic declarations before running a
/// normalization-based analysis (Sec. 3: "prior to execution, symbolic
/// values are fixed to concrete ones").
using SymbolicAssignment = std::map<std::string, const Value *>;

/// The routing semantics of one NV program, as evaluated functions.
class ProtocolEvaluator {
public:
  virtual ~ProtocolEvaluator();

  virtual NvContext &ctx() = 0;
  virtual const Value *init(uint32_t U) = 0;
  virtual const Value *trans(uint32_t U, uint32_t V, const Value *A) = 0;
  virtual const Value *merge(uint32_t U, const Value *A, const Value *B) = 0;
  virtual bool hasAssert() const = 0;
  /// Evaluates the assert declaration at node \p U (true when absent).
  virtual bool assertAt(uint32_t U, const Value *A) = 0;

  /// True when every require clause held under the symbolic assignment.
  virtual bool requiresHold() const = 0;
};

/// The one concrete ProtocolEvaluator, shared by the interpreted and the
/// compiled mode: the entry-point closures, the require verdict, the GC
/// pins and the partial-application tables. The modes differ only in how
/// a subclass constructor evaluates the declarations (declare()).
class ProgramEvaluator : public ProtocolEvaluator {
public:
  ~ProgramEvaluator() override;

  NvContext &ctx() override { return Ctx; }
  const Value *init(uint32_t U) override;
  const Value *trans(uint32_t U, uint32_t V, const Value *A) override;
  const Value *merge(uint32_t U, const Value *A, const Value *B) override;
  bool hasAssert() const override { return AssertClo != nullptr; }
  bool assertAt(uint32_t U, const Value *A) override;
  bool requiresHold() const override { return RequiresOk; }

protected:
  /// Sizes the partial tables for \p P's nodes and directed edges.
  ProgramEvaluator(NvContext &Ctx, const Program &P);

  /// Evaluates every top-level declaration in order: a let's body, or a
  /// symbolic's value from \p Sym (falling back to the declaration's
  /// default expression, then to the type's default value), goes through
  /// \p Eval and is bound by \p Bind; a require's body is evaluated into
  /// requiresHold(). Then finds init/trans/merge/assert and pins every
  /// global. Called once, from the subclass constructor: the base
  /// constructor cannot reach the subclass's evaluator.
  void declare(const Program &P, const SymbolicAssignment &Sym,
               const std::function<const Value *(const ExprPtr &)> &Eval,
               const std::function<void(const std::string &, const Value *)>
                   &Bind);

  NvContext &Ctx;

private:
  const Value *InitClo = nullptr;
  const Value *TransClo = nullptr;
  const Value *MergeClo = nullptr;
  const Value *AssertClo = nullptr;
  bool RequiresOk = true;

  // Partial applications, built on first use: trans and merge are applied
  // to the same edge/node every simulator round. merge/assert partials are
  // indexed by node; trans partials form a CSR table over the directed
  // edges, whose row U spans TransRow[U]..TransRow[U+1] of TransDst (the
  // edges' targets) and TransPartial. A call outside the tables is applied
  // uncached.
  std::vector<const Value *> MergePartial, AssertPartial;
  std::vector<uint32_t> TransRow, TransDst;
  std::vector<const Value *> TransPartial;

  // GC root discipline: globals and cached partial applications outlive
  // any single safe point, so they are pinned for the evaluator's
  // lifetime and released in the destructor.
  std::vector<const Value *> Pinned;
  const Value *pinned(const Value *V) {
    Ctx.pinValue(V);
    Pinned.push_back(V);
    return V;
  }
  /// \p Slot's partial application, `Clo Arg()` on first use.
  template <class ArgFn>
  const Value *partial(const Value *&Slot, const Value *Clo, ArgFn &&Arg) {
    if (!Slot)
      Slot = pinned(NvContext::applyClosure(Clo, Arg()));
    return Slot;
  }
};

/// Interpreter-backed evaluator (the paper's interpreted simulation mode).
class InterpProgramEvaluator : public ProgramEvaluator {
public:
  InterpProgramEvaluator(NvContext &Ctx, const Program &P,
                         const SymbolicAssignment &Sym = {});

  /// The global environment (testing convenience).
  const EnvPtr &globals() const { return Globals; }
  /// Evaluates an expression under the globals (testing convenience).
  const Value *evalUnderGlobals(const ExprPtr &E);

private:
  Interp I;
  EnvPtr Globals;
};

/// The interpreted (\p Native false) or closure-compiled (true) evaluator
/// of \p P.
std::unique_ptr<ProgramEvaluator>
makeProgramEvaluator(NvContext &Ctx, const Program &P, bool Native,
                     const SymbolicAssignment &Sym = {});

} // namespace nv

#endif // NV_EVAL_PROGRAMEVALUATOR_H
