//===- Compile.cpp - Closure compilation ("native" mode) --------------------===//

#include "eval/Compile.h"

#include "support/Fatal.h"
#include "support/Governor.h"

#include <cassert>

using namespace nv;

namespace {

/// A compiled closure: pre-compiled body plus its closure-table entry,
/// which holds the captured free-variable values. Calling copies the
/// capture into a frame leased from the context's pool and pushes the
/// argument — no environment search and, once the pool is warm, no
/// allocation at runtime. The entry is the context's, so it outlives the
/// closure value.
class CompiledClosure : public ClosureData {
public:
  CompiledClosure(NvContext &Ctx, const NvContext::ClosureEntry &E,
                  std::shared_ptr<const CExpr> Body)
      : Ctx(Ctx), E(E), Body(std::move(Body)) {}

  const Value *call(const Value *Arg) const override {
    NvContext::FrameLease Lease(Ctx);
    Frame &F = *Lease;
    F.assign(E.Captured.begin(), E.Captured.end());
    F.push_back(Arg);
    return (*Body)(F);
  }

  uint64_t cacheKey() const override { return E.Id; }

  const Expr *sourceExpr() const override { return E.Src; }

  const Value *lookupFree(const std::string &Name) const override {
    for (size_t I = 0; I < E.FreeVars->size(); ++I)
      if ((*E.FreeVars)[I] == Name)
        return E.Captured[I];
    return nullptr;
  }

private:
  NvContext &Ctx;
  const NvContext::ClosureEntry &E;
  std::shared_ptr<const CExpr> Body;
};

} // namespace

int Compiler::slotOf(const std::string &Name) const {
  for (size_t I = Scope.size(); I-- > 0;)
    if (Scope[I] == Name)
      return static_cast<int>(I);
  return -1;
}

std::function<bool(const Value *, Frame &)>
Compiler::compilePattern(const PatternPtr &P, const TypePtr &RawTy) {
  const TypePtr &Ty = resolve(RawTy);
  switch (P->Kind) {
  case PatternKind::Wild:
    return [](const Value *, Frame &) { return true; };
  case PatternKind::Var: {
    Scope.push_back(P->Name);
    return [](const Value *V, Frame &F) {
      F.push_back(V);
      return true;
    };
  }
  case PatternKind::Lit: {
    const Value *L = Ctx.valueOfLiteral(P->Lit);
    return [L](const Value *V, Frame &) { return V == L; };
  }
  case PatternKind::None:
    return [](const Value *V, Frame &) { return V->isNone(); };
  case PatternKind::Some: {
    auto Inner = compilePattern(P->Elems[0], Ty->Elems[0]);
    return [Inner](const Value *V, Frame &F) {
      return V->isSome() && Inner(V->Inner, F);
    };
  }
  case PatternKind::Tuple: {
    if (Ty->Kind == TypeKind::Edge) {
      assert(P->Elems.size() == 2 && "edge patterns are pairs");
      auto P1 = compilePattern(P->Elems[0], Type::nodeTy());
      auto P2 = compilePattern(P->Elems[1], Type::nodeTy());
      NvContext *C = &Ctx;
      return [P1, P2, C](const Value *V, Frame &F) {
        return P1(C->nodeV(V->N), F) && P2(C->nodeV(V->N2), F);
      };
    }
    std::vector<std::function<bool(const Value *, Frame &)>> Subs;
    for (size_t I = 0; I < P->Elems.size(); ++I)
      Subs.push_back(compilePattern(P->Elems[I], Ty->Elems[I]));
    return [Subs](const Value *V, Frame &F) {
      for (size_t I = 0; I < Subs.size(); ++I)
        if (!Subs[I](V->Elems[I], F))
          return false;
      return true;
    };
  }
  case PatternKind::Record: {
    assert(Ty->Kind == TypeKind::Record && "record pattern type");
    std::vector<std::pair<int, std::function<bool(const Value *, Frame &)>>>
        Subs;
    for (size_t I = 0; I < P->Labels.size(); ++I) {
      int Idx = Ty->labelIndex(P->Labels[I]);
      assert(Idx >= 0 && "label checked by the type checker");
      Subs.emplace_back(Idx, compilePattern(P->Elems[I], Ty->Elems[Idx]));
    }
    return [Subs](const Value *V, Frame &F) {
      for (const auto &[Idx, Sub] : Subs)
        if (!Sub(V->Elems[Idx], F))
          return false;
      return true;
    };
  }
  }
  nv_unreachable("covered switch");
}

CExpr Compiler::compile(const ExprPtr &E) {
  switch (E->Kind) {
  case ExprKind::Const: {
    const Value *V = Ctx.valueOfLiteral(E->Lit);
    return [V](Frame &) { return V; };
  }
  case ExprKind::Var: {
    int Slot = slotOf(E->Name);
    if (Slot < 0)
      evalError("compile: unbound variable " + E->Name);
    return [Slot](Frame &F) { return F[Slot]; };
  }
  case ExprKind::Let: {
    CExpr Init = compile(E->Args[0]);
    Scope.push_back(E->Name);
    CExpr Body = compile(E->Args[1]);
    Scope.pop_back();
    return [Init, Body](Frame &F) {
      F.push_back(Init(F));
      const Value *V = Body(F);
      F.pop_back();
      return V;
    };
  }
  case ExprKind::Fun: {
    // Compile the body once against [free vars..., param]. Each runtime
    // evaluation looks its captured free values up in the closure table
    // and builds a closure only for a new combination.
    const std::vector<std::string> &FreeNames = freeVarsOf(E.get());
    std::vector<int> FreeSlots;
    for (const std::string &Name : FreeNames) {
      int Slot = slotOf(Name);
      if (Slot < 0)
        evalError("compile: unbound free variable " + Name);
      FreeSlots.push_back(Slot);
    }
    std::vector<std::string> Saved = std::move(Scope);
    Scope = FreeNames;
    Scope.push_back(E->Name);
    auto Body = std::make_shared<const CExpr>(compile(E->Args[0]));
    Scope = std::move(Saved);

    NvContext *C = &Ctx;
    const Expr *Src = E.get();
    return [C, Src, FreeSlots, Body](Frame &F) {
      // The captured values are gathered on top of the frame, which saves
      // an allocation when the table already has the closure.
      size_t Mark = F.size();
      for (int Slot : FreeSlots) {
        const Value *V = F[Slot];
        F.push_back(V);
      }
      const Value *Clo = C->canonicalClosure(
          Src, F.data() + Mark, FreeSlots.size(),
          [&](const NvContext::ClosureEntry &Entry) {
            return std::make_shared<CompiledClosure>(*C, Entry, Body);
          });
      F.resize(Mark);
      return Clo;
    };
  }
  case ExprKind::App: {
    CExpr Fn = compile(E->Args[0]);
    CExpr Arg = compile(E->Args[1]);
    NvContext *C = &Ctx;
    return [C, Fn, Arg](Frame &F) { return C->applyClosure(Fn(F), Arg(F)); };
  }
  case ExprKind::If: {
    CExpr Cond = compile(E->Args[0]);
    CExpr Then = compile(E->Args[1]);
    CExpr Else = compile(E->Args[2]);
    return [Cond, Then, Else](Frame &F) {
      return Cond(F)->B ? Then(F) : Else(F);
    };
  }
  case ExprKind::Match: {
    CExpr Scrut = compile(E->Args[0]);
    TypePtr ScrutTy = E->Args[0]->Ty;
    struct Case {
      std::function<bool(const Value *, Frame &)> Match;
      CExpr Body;
    };
    auto Cases = std::make_shared<std::vector<Case>>();
    for (const MatchCase &C : E->Cases) {
      size_t Mark = Scope.size();
      auto M = compilePattern(C.Pat, ScrutTy);
      CExpr B = compile(C.Body);
      Scope.resize(Mark);
      Cases->push_back({std::move(M), std::move(B)});
    }
    return [Scrut, Cases](Frame &F) -> const Value * {
      const Value *V = Scrut(F);
      size_t Mark = F.size();
      for (const Case &C : *Cases) {
        if (C.Match(V, F)) {
          const Value *R = C.Body(F);
          F.resize(Mark);
          return R;
        }
        F.resize(Mark);
      }
      evalError("inexhaustive match at runtime (compiled)");
    };
  }
  case ExprKind::Oper:
    return compileOper(E);
  case ExprKind::Tuple:
  case ExprKind::Record: {
    // Components are gathered on top of the frame and interned in place.
    // Each is compiled with a nameless slot per component before it, so a
    // binder inside it gets the frame position it will have at runtime.
    auto Subs = std::make_shared<std::vector<CExpr>>();
    size_t ScopeMark = Scope.size();
    for (const ExprPtr &A : E->Args) {
      Subs->push_back(compile(A));
      Scope.emplace_back();
    }
    Scope.resize(ScopeMark);
    NvContext *C = &Ctx;
    return [C, Subs](Frame &F) {
      size_t Mark = F.size();
      for (const CExpr &S : *Subs) {
        const Value *V = S(F);
        F.push_back(V);
      }
      const Value *T = C->tupleV(F.data() + Mark, Subs->size());
      F.resize(Mark);
      return T;
    };
  }
  case ExprKind::Proj: {
    CExpr Sub = compile(E->Args[0]);
    unsigned Idx = E->Index;
    return [Sub, Idx](Frame &F) { return Sub(F)->Elems[Idx]; };
  }
  case ExprKind::RecordUpdate: {
    CExpr Base = compile(E->Args[0]);
    const TypePtr &BaseTy = resolve(E->Args[0]->Ty);
    // The updated record is built on top of the frame: the new values are
    // compiled above one nameless slot per field (see Tuple).
    size_t ScopeMark = Scope.size();
    Scope.resize(ScopeMark + BaseTy->Elems.size());
    auto Updates = std::make_shared<std::vector<std::pair<int, CExpr>>>();
    for (size_t I = 0; I < E->Labels.size(); ++I) {
      int Idx = BaseTy->labelIndex(E->Labels[I]);
      assert(Idx >= 0 && "label checked by the type checker");
      Updates->emplace_back(Idx, compile(E->Args[I + 1]));
    }
    Scope.resize(ScopeMark);
    NvContext *C = &Ctx;
    return [C, Base, Updates](Frame &F) {
      const Value *B = Base(F);
      size_t Mark = F.size();
      F.insert(F.end(), B->Elems.begin(), B->Elems.end());
      for (const auto &[Idx, Sub] : *Updates) {
        const Value *V = Sub(F);
        F[Mark + Idx] = V;
      }
      const Value *R = C->tupleV(F.data() + Mark, B->Elems.size());
      F.resize(Mark);
      return R;
    };
  }
  case ExprKind::Field: {
    CExpr Sub = compile(E->Args[0]);
    const TypePtr &Ty = resolve(E->Args[0]->Ty);
    int Idx = Ty->labelIndex(E->Name);
    assert(Idx >= 0 && "label checked by the type checker");
    return [Sub, Idx](Frame &F) { return Sub(F)->Elems[Idx]; };
  }
  case ExprKind::Some: {
    CExpr Sub = compile(E->Args[0]);
    NvContext *C = &Ctx;
    return [C, Sub](Frame &F) { return C->someV(Sub(F)); };
  }
  case ExprKind::None: {
    const Value *N = Ctx.noneV();
    return [N](Frame &) { return N; };
  }
  }
  nv_unreachable("covered switch");
}

CExpr Compiler::compileOper(const ExprPtr &E) {
  NvContext *C = &Ctx;
  std::vector<CExpr> A;
  for (const ExprPtr &Arg : E->Args)
    A.push_back(compile(Arg));
  switch (E->OpCode) {
  case Op::And:
    return [C, A](Frame &F) {
      return A[0](F)->B ? A[1](F) : C->FalseV;
    };
  case Op::Or:
    return [C, A](Frame &F) { return A[0](F)->B ? C->TrueV : A[1](F); };
  case Op::Not:
    return [C, A](Frame &F) { return C->boolV(!A[0](F)->B); };
  case Op::Eq:
    return [C, A](Frame &F) { return C->boolV(A[0](F) == A[1](F)); };
  case Op::Neq:
    return [C, A](Frame &F) { return C->boolV(A[0](F) != A[1](F)); };
  case Op::Add:
    return [C, A](Frame &F) {
      const Value *L = A[0](F), *R = A[1](F);
      return C->intV(L->I + R->I, L->Width);
    };
  case Op::Sub:
    return [C, A](Frame &F) {
      const Value *L = A[0](F), *R = A[1](F);
      return C->intV(L->I - R->I, L->Width);
    };
  case Op::Lt:
    return [C, A](Frame &F) { return C->boolV(A[0](F)->I < A[1](F)->I); };
  case Op::Le:
    return [C, A](Frame &F) { return C->boolV(A[0](F)->I <= A[1](F)->I); };
  case Op::Gt:
    return [C, A](Frame &F) { return C->boolV(A[0](F)->I > A[1](F)->I); };
  case Op::Ge:
    return [C, A](Frame &F) { return C->boolV(A[0](F)->I >= A[1](F)->I); };
  case Op::MCreate: {
    const TypePtr &DictTy = resolve(E->Ty);
    assert(DictTy->Kind == TypeKind::Dict && "createDict type");
    if (!isFiniteType(DictTy->Elems[0]))
      evalError("createDict key type " + typeToString(DictTy->Elems[0]) +
                " is not finite; annotate the map's key type");
    TypePtr KeyTy = DictTy->Elems[0];
    return [C, A, KeyTy](Frame &F) { return C->mapCreate(KeyTy, A[0](F)); };
  }
  case Op::MGet:
    return [C, A](Frame &F) { return C->mapGet(A[0](F), A[1](F)); };
  case Op::MSet:
    return [C, A](Frame &F) { return C->mapSet(A[0](F), A[1](F), A[2](F)); };
  case Op::MMap:
    return [C, A](Frame &F) { return C->mapMap(A[0](F), A[1](F)); };
  case Op::MMapIte:
    return [C, A](Frame &F) {
      return C->mapIte(A[0](F), A[1](F), A[2](F), A[3](F));
    };
  case Op::MCombine:
    return [C, A](Frame &F) {
      return C->mapCombine(A[0](F), A[1](F), A[2](F));
    };
  }
  nv_unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// CompiledProgramEvaluator
//===----------------------------------------------------------------------===//

CompiledProgramEvaluator::CompiledProgramEvaluator(NvContext &Ctx,
                                                   const Program &P,
                                                   const SymbolicAssignment &Sym)
    : Ctx(Ctx) {
  Compiler C(Ctx);
  std::vector<std::string> Names;
  for (const DeclPtr &D : P.Decls) {
    switch (D->Kind) {
    case DeclKind::Let: {
      CExpr Body = C.compile(D->Body);
      Globals.push_back(Body(Globals));
      C.pushGlobal(D->Name);
      Names.push_back(D->Name);
      break;
    }
    case DeclKind::Symbolic: {
      const Value *V = nullptr;
      auto It = Sym.find(D->Name);
      if (It != Sym.end()) {
        V = It->second;
      } else if (D->Body) {
        CExpr Body = C.compile(D->Body);
        V = Body(Globals);
      } else {
        V = Ctx.defaultValue(D->Ty);
      }
      Globals.push_back(V);
      C.pushGlobal(D->Name);
      Names.push_back(D->Name);
      break;
    }
    case DeclKind::Require: {
      CExpr Body = C.compile(D->Body);
      RequiresOk &= Body(Globals)->isTrue();
      break;
    }
    case DeclKind::TypeAlias:
    case DeclKind::Nodes:
    case DeclKind::Edges:
      break;
    }
  }

  auto Find = [&](const char *Name) -> const Value * {
    for (size_t I = Names.size(); I-- > 0;)
      if (Names[I] == Name)
        return Globals[I];
    return nullptr;
  };
  InitClo = Find("init");
  TransClo = Find("trans");
  MergeClo = Find("merge");
  AssertClo = Find("assert");
  if (!InitClo || !TransClo || !MergeClo)
    evalError("program is missing init/trans/merge declarations");
  // Root the globals frame: compiled closures capture interned constants
  // only through these slots (scalar literals aside), so pinning the frame
  // keeps every diagram a scenario can reach alive across collections.
  for (const Value *V : Globals)
    pinned(V);
}

CompiledProgramEvaluator::~CompiledProgramEvaluator() {
  for (const Value *V : Pinned)
    Ctx.unpinValue(V);
}

const Value *CompiledProgramEvaluator::init(uint32_t U) {
  return Ctx.applyClosure(InitClo, Ctx.nodeV(U));
}

const Value *CompiledProgramEvaluator::trans(uint32_t U, uint32_t V,
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

const Value *CompiledProgramEvaluator::merge(uint32_t U, const Value *A,
                                             const Value *B) {
  auto It = MergePartial.find(U);
  const Value *Partial;
  if (It != MergePartial.end()) {
    Partial = It->second;
  } else {
    Partial = pinned(Ctx.applyClosure(MergeClo, Ctx.nodeV(U)));
    MergePartial.emplace(U, Partial);
  }
  return Ctx.applyClosure(Ctx.applyClosure(Partial, A), B);
}

bool CompiledProgramEvaluator::assertAt(uint32_t U, const Value *A) {
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
