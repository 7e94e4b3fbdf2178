//===- ProgramEvaluator.cpp - Protocol semantics interface -----------------===//

#include "eval/ProgramEvaluator.h"

#include "eval/Compile.h"
#include "support/Governor.h"

#include <algorithm>

using namespace nv;

ProtocolEvaluator::~ProtocolEvaluator() = default;

ProgramEvaluator::ProgramEvaluator(NvContext &Ctx, const Program &P)
    : Ctx(Ctx) {
  std::vector<std::pair<uint32_t, uint32_t>> Edges = P.directedEdges();
  uint32_t Nodes = P.numNodes();
  for (const auto &[U, V] : Edges)
    Nodes = std::max(Nodes, std::max(U, V) + 1);
  MergePartial.assign(Nodes, nullptr);
  AssertPartial.assign(Nodes, nullptr);
  // directedEdges() is sorted by source, so each row is contiguous.
  TransRow.assign(Nodes + 1, 0);
  for (const auto &[U, V] : Edges) {
    ++TransRow[U + 1];
    TransDst.push_back(V);
  }
  for (uint32_t U = 0; U < Nodes; ++U)
    TransRow[U + 1] += TransRow[U];
  TransPartial.assign(Edges.size(), nullptr);
}

void ProgramEvaluator::declare(
    const Program &P, const SymbolicAssignment &Sym,
    const std::function<const Value *(const ExprPtr &)> &Eval,
    const std::function<void(const std::string &, const Value *)> &Bind) {
  for (const DeclPtr &D : P.Decls) {
    const Value *V = nullptr;
    switch (D->Kind) {
    case DeclKind::Let:
      V = Eval(D->Body);
      break;
    case DeclKind::Symbolic: {
      auto It = Sym.find(D->Name);
      if (It != Sym.end())
        V = It->second;
      else if (D->Body)
        V = Eval(D->Body);
      else
        V = Ctx.defaultValue(D->Ty);
      break;
    }
    case DeclKind::Require:
      RequiresOk &= Eval(D->Body)->isTrue();
      continue;
    case DeclKind::TypeAlias:
    case DeclKind::Nodes:
    case DeclKind::Edges:
      continue;
    }
    Bind(D->Name, V);
    // Root every global: anything a later scenario can reach through
    // init/trans/merge/assert must survive collections.
    pinned(V);
    if (D->Name == "init")
      InitClo = V;
    else if (D->Name == "trans")
      TransClo = V;
    else if (D->Name == "merge")
      MergeClo = V;
    else if (D->Name == "assert")
      AssertClo = V;
  }
  if (!InitClo || !TransClo || !MergeClo)
    evalError("program is missing init/trans/merge declarations");
}

ProgramEvaluator::~ProgramEvaluator() {
  for (const Value *V : Pinned)
    Ctx.unpinValue(V);
}

const Value *ProgramEvaluator::init(uint32_t U) {
  return NvContext::applyClosure(InitClo, Ctx.nodeV(U));
}

const Value *ProgramEvaluator::trans(uint32_t U, uint32_t V, const Value *A) {
  auto Edge = [&] { return Ctx.edgeV(U, V); };
  if (U + 1 < TransRow.size())
    for (uint32_t I = TransRow[U], E = TransRow[U + 1]; I < E; ++I)
      if (TransDst[I] == V)
        return NvContext::applyClosure(
            partial(TransPartial[I], TransClo, Edge), A);
  return NvContext::applyClosure2(TransClo, Edge(), A);
}

const Value *ProgramEvaluator::merge(uint32_t U, const Value *A,
                                     const Value *B) {
  auto Node = [&] { return Ctx.nodeV(U); };
  if (U < MergePartial.size())
    return NvContext::applyClosure2(partial(MergePartial[U], MergeClo, Node),
                                    A, B);
  const Value *Args[3] = {Node(), A, B};
  return NvContext::applyClosureN(MergeClo, Args, 3);
}

bool ProgramEvaluator::assertAt(uint32_t U, const Value *A) {
  if (!AssertClo)
    return true;
  auto Node = [&] { return Ctx.nodeV(U); };
  if (U < AssertPartial.size())
    return NvContext::applyClosure(partial(AssertPartial[U], AssertClo, Node),
                                   A)
        ->isTrue();
  return NvContext::applyClosure2(AssertClo, Node(), A)->isTrue();
}

InterpProgramEvaluator::InterpProgramEvaluator(NvContext &Ctx,
                                               const Program &P,
                                               const SymbolicAssignment &Sym)
    : ProgramEvaluator(Ctx, P), I(Ctx) {
  declare(
      P, Sym, [&](const ExprPtr &E) { return I.eval(E.get(), Globals); },
      [&](const std::string &Name, const Value *V) {
        Globals = envBind(Globals, Name, V);
      });
}

const Value *InterpProgramEvaluator::evalUnderGlobals(const ExprPtr &E) {
  return I.eval(E.get(), Globals);
}

std::unique_ptr<ProgramEvaluator>
nv::makeProgramEvaluator(NvContext &Ctx, const Program &P, bool Native,
                         const SymbolicAssignment &Sym) {
  if (Native)
    return std::make_unique<CompiledProgramEvaluator>(Ctx, P, Sym);
  return std::make_unique<InterpProgramEvaluator>(Ctx, P, Sym);
}
