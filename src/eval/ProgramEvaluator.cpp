//===- ProgramEvaluator.cpp - Protocol semantics interface -----------------===//

#include "eval/ProgramEvaluator.h"

#include "support/Governor.h"

using namespace nv;

ProtocolEvaluator::~ProtocolEvaluator() = default;

InterpProgramEvaluator::InterpProgramEvaluator(NvContext &Ctx,
                                               const Program &P,
                                               const SymbolicAssignment &Sym)
    : Ctx(Ctx), I(Ctx) {
  for (const DeclPtr &D : P.Decls) {
    switch (D->Kind) {
    case DeclKind::Let:
      Globals = envBind(Globals, D->Name, I.eval(D->Body.get(), Globals));
      break;
    case DeclKind::Symbolic: {
      const Value *V = nullptr;
      auto It = Sym.find(D->Name);
      if (It != Sym.end())
        V = It->second;
      else if (D->Body)
        V = I.eval(D->Body.get(), Globals);
      else
        V = Ctx.defaultValue(D->Ty);
      Globals = envBind(Globals, D->Name, V);
      break;
    }
    case DeclKind::Require: {
      const Value *V = I.eval(D->Body.get(), Globals);
      RequiresOk &= V->isTrue();
      break;
    }
    case DeclKind::TypeAlias:
    case DeclKind::Nodes:
    case DeclKind::Edges:
      break;
    }
  }
  InitClo = envLookup(Globals.get(), "init");
  TransClo = envLookup(Globals.get(), "trans");
  MergeClo = envLookup(Globals.get(), "merge");
  AssertClo = envLookup(Globals.get(), "assert");
  if (!InitClo || !TransClo || !MergeClo)
    evalError("program is missing init/trans/merge declarations");
  // Root the whole global environment: anything a later scenario can
  // reach through init/trans/merge/assert must survive collections.
  for (const EnvNode *N = Globals.get(); N; N = N->Parent.get())
    pinned(N->V);
}

InterpProgramEvaluator::~InterpProgramEvaluator() {
  for (const Value *V : Pinned)
    Ctx.unpinValue(V);
}

const Value *InterpProgramEvaluator::init(uint32_t U) {
  return Ctx.applyClosure(InitClo, Ctx.nodeV(U));
}

const Value *InterpProgramEvaluator::trans(uint32_t U, uint32_t V,
                                           const Value *A) {
  auto Key = std::make_pair(U, V);
  auto It = TransPartial.find(Key);
  const Value *Partial;
  if (It != TransPartial.end()) {
    Partial = It->second;
  } else {
    Partial = pinned(Ctx.applyClosure(TransClo, Ctx.edgeV(U, V)));
    TransPartial.emplace(Key, Partial);
  }
  return Ctx.applyClosure(Partial, A);
}

const Value *InterpProgramEvaluator::merge(uint32_t U, const Value *A,
                                           const Value *B) {
  auto It = MergePartial.find(U);
  const Value *Partial;
  if (It != MergePartial.end()) {
    Partial = It->second;
  } else {
    Partial = pinned(Ctx.applyClosure(MergeClo, Ctx.nodeV(U)));
    MergePartial.emplace(U, Partial);
  }
  return Ctx.applyClosure2(Partial, A, B);
}

bool InterpProgramEvaluator::assertAt(uint32_t U, const Value *A) {
  if (!AssertClo)
    return true;
  auto It = AssertPartial.find(U);
  const Value *Partial;
  if (It != AssertPartial.end()) {
    Partial = It->second;
  } else {
    Partial = pinned(Ctx.applyClosure(AssertClo, Ctx.nodeV(U)));
    AssertPartial.emplace(U, Partial);
  }
  return Ctx.applyClosure(Partial, A)->isTrue();
}

const Value *InterpProgramEvaluator::evalUnderGlobals(const ExprPtr &E) {
  return I.eval(E.get(), Globals);
}
