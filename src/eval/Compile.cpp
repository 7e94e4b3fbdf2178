//===- Compile.cpp - Closure compilation ("native" mode) --------------------===//

#include "eval/Compile.h"

#include "support/Fatal.h"
#include "support/Governor.h"

#include <cassert>

using namespace nv;

namespace {

/// A compiled closure: its Fun's code plus its closure-table entry, which
/// holds the captured free-variable values. Calling copies the capture
/// into a frame leased from the context's pool and pushes the argument —
/// no environment search and, once the pool is warm, no allocation at
/// runtime. The entry is the context's, so it outlives the closure value.
class CompiledClosure : public ClosureData {
public:
  CompiledClosure(NvContext &Ctx, const NvContext::ClosureEntry &E,
                  std::shared_ptr<const FunCode> Code)
      : Ctx(Ctx), E(E), Code(std::move(Code)) {}

  const Value *call(const Value *Arg) const override { return callN(&Arg, 1); }

  /// Walks the Inner chain of a curried body, one parameter per argument:
  /// each inner frame is filled from the slots of the frame around it, so
  /// no closure is built for an intermediate application. Arguments past
  /// the chain's end apply to the body's result.
  const Value *callN(const Value *const *Args, size_t N) const override {
    const FunCode *C = Code.get();
    size_t I = 1;
    const Value *R;
    {
      NvContext::FrameLease Lease(Ctx);
      Frame &F = *Lease;
      F.assign(E.Captured.begin(), E.Captured.end());
      F.push_back(Args[0]);
      for (; I < N && C->Inner; ++I) {
        C = C->Inner.get();
        size_t Mark = F.size();
        for (int Slot : C->FreeSlots) {
          const Value *V = F[Slot];
          F.push_back(V);
        }
        F.push_back(Args[I]);
        F.erase(F.begin(), F.begin() + Mark);
      }
      R = C->Body(F);
    }
    return I == N ? R : NvContext::applyClosureN(R, Args + I, N - I);
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
  std::shared_ptr<const FunCode> Code;
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
  case ExprKind::Fun:
    return funNode(compileFun(E));
  case ExprKind::App: {
    // A spine `f a1 ... an` is one call: the head, then the arguments left
    // to right, gathered on top of the frame (each compiled above one
    // nameless slot per argument before it, as in Tuple).
    std::vector<const ExprPtr *> ArgExprs;
    const ExprPtr *Head = &E;
    for (; (*Head)->Kind == ExprKind::App; Head = &(*Head)->Args[0])
      ArgExprs.push_back(&(*Head)->Args[1]);
    CExpr Fn = compile(*Head);
    auto Args = std::make_shared<std::vector<CExpr>>();
    size_t ScopeMark = Scope.size();
    for (auto It = ArgExprs.rbegin(); It != ArgExprs.rend(); ++It) {
      Args->push_back(compile(**It));
      Scope.emplace_back();
    }
    Scope.resize(ScopeMark);
    return [Fn, Args](Frame &F) {
      const Value *Head = Fn(F);
      size_t Mark = F.size();
      for (const CExpr &A : *Args) {
        const Value *V = A(F);
        F.push_back(V);
      }
      const Value *R =
          NvContext::applyClosureN(Head, F.data() + Mark, Args->size());
      F.resize(Mark);
      return R;
    };
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

std::shared_ptr<const FunCode> Compiler::compileFun(const ExprPtr &E) {
  // The body is compiled once against [free vars..., param]; a body that
  // is itself a Fun keeps its code as Inner, for callN's chain walk.
  auto Code = std::make_shared<FunCode>();
  Code->Src = E.get();
  const std::vector<std::string> &FreeNames = freeVarsOf(E.get());
  for (const std::string &Name : FreeNames) {
    int Slot = slotOf(Name);
    if (Slot < 0)
      evalError("compile: unbound free variable " + Name);
    Code->FreeSlots.push_back(Slot);
  }
  std::vector<std::string> Saved = std::move(Scope);
  Scope = FreeNames;
  Scope.push_back(E->Name);
  const ExprPtr &Body = E->Args[0];
  if (Body->Kind == ExprKind::Fun) {
    Code->Inner = compileFun(Body);
    Code->Body = funNode(Code->Inner);
  } else {
    Code->Body = compile(Body);
  }
  Scope = std::move(Saved);
  return Code;
}

CExpr Compiler::funNode(std::shared_ptr<const FunCode> Code) {
  // Each evaluation looks its captured free values up in the closure
  // table and builds a closure only for a new combination. The values are
  // gathered on top of the frame, which saves an allocation when the
  // table already has the closure.
  NvContext *C = &Ctx;
  return [C, Code = std::move(Code)](Frame &F) {
    size_t Mark = F.size();
    for (int Slot : Code->FreeSlots) {
      const Value *V = F[Slot];
      F.push_back(V);
    }
    const Value *Clo = C->canonicalClosure(
        Code->Src, F.data() + Mark, Code->FreeSlots.size(),
        [&](const NvContext::ClosureEntry &Entry) {
          return std::make_shared<CompiledClosure>(*C, Entry, Code);
        });
    F.resize(Mark);
    return Clo;
  };
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
    : ProgramEvaluator(Ctx, P) {
  // The globals frame lives only through construction: compiled closures
  // capture their values, and the base pins them.
  Compiler C(Ctx);
  Frame Globals;
  declare(
      P, Sym, [&](const ExprPtr &E) { return C.compile(E)(Globals); },
      [&](const std::string &Name, const Value *V) {
        Globals.push_back(V);
        C.pushGlobal(Name);
      });
}
