//===- SymBdd.cpp - Symbolic evaluation of predicates into BDDs ------------===//
//
// Implements NvContext::predToBdd: evaluates an NV function symbolically
// over the bit encoding of its key-typed parameter, producing a boolean
// decision diagram (the predicate argument of mapIte, Fig. 11b). This is
// the analogue of real NV's BddFunc module.
//
// Every finite-typed intermediate is a vector of boolean BDDs (MSB first).
// NV's totality (no recursion) guarantees termination: both branches of a
// symbolic conditional can always be evaluated and merged per bit.
//
// Symbolic values are plain data over storage the context keeps from one
// run to the next, so a warm run allocates nothing:
//  - a bit vector is a span of one bit arena; bits are never rewritten
//    once a value owns them, so a variable lookup, a projection or a
//    pattern binding shares its span instead of copying it;
//  - a symbolic Fun's captured locals are a range of a capture arena;
//  - types are borrowed, resolved `const Type *`.
//
//===----------------------------------------------------------------------===//

#include "eval/NvContext.h"
#include "support/Fatal.h"
#include "support/Governor.h"

#include <cassert>

using namespace nv;

namespace {

using Ref = BddManager::Ref;

/// A symbolic value: either a bit vector of BDDs (finite types) or a
/// function (concrete closure, or a Fun over symbolic locals).
struct SymVal {
  const Type *Ty = nullptr; ///< Resolved.
  uint32_t Off = 0, Len = 0; ///< Bits: the arena's [Off, Off + Len).
  // Function representations (mutually exclusive with bits):
  const Value *Fn = nullptr;    ///< A concrete NV closure.
  const Expr *FnExpr = nullptr; ///< A Fun evaluated symbolically...
  uint32_t EnvOff = 0, EnvLen = 0; ///< ...over these captured locals...
  const ClosureData *FnFree = nullptr; ///< ...and this concrete closure.

  bool isFun() const { return Fn || FnExpr; }
};

struct Local {
  const std::string *Name;
  SymVal V;
};

/// A tuple component, or a match arm and the condition it is taken under.
struct Part {
  Ref Cond;
  SymVal V;
};

} // namespace

struct NvContext::SymScratch {
  std::vector<Ref> Bits;
  /// Bound names, innermost last; a function body sees [FrameBase, end).
  std::vector<Local> Locals;
  /// Captured locals of symbolic Funs, append-only during a run.
  std::vector<Local> Captures;
  /// Tuple components and match arms awaiting their combination.
  std::vector<Part> Parts;

  void clear() {
    Bits.clear();
    Locals.clear();
    Captures.clear();
    Parts.clear();
  }
};

void NvContext::SymScratchDeleter::operator()(SymScratch *S) const {
  delete S;
}

namespace {

class SymEval {
public:
  SymEval(NvContext &Ctx, NvContext::SymScratch &S)
      : Ctx(Ctx), Mgr(Ctx.Mgr), S(S) {
    S.clear();
  }

  /// Evaluates the closure applied to a fully-symbolic key parameter.
  Ref run(const ClosureData *Clo, const TypePtr &KeyTy) {
    const Expr *Fn = Clo->sourceExpr();
    if (!Fn || Fn->Kind != ExprKind::Fun)
      evalError("mapIte predicate has no NV source to evaluate symbolically");
    SymVal Key = fresh(resolve(KeyTy.get()));
    for (unsigned I = 0, W = Ctx.Layout.widthOf(Key.Ty); I < W; ++I)
      push(Key, Mgr.bitVar(I));
    SymVal R = call(*Fn, 0, 0, Clo, Key);
    if (R.Len != 1)
      evalError("mapIte predicate did not evaluate to a boolean");
    return bit(R, 0);
  }

private:
  NvContext &Ctx;
  BddManager &Mgr;
  NvContext::SymScratch &S;
  /// First local the current function body sees.
  size_t FrameBase = 0;
  // The shared base types (Type's own statics keep them alive).
  const Type *BoolTy = Type::boolTy().get();
  const Type *NodeTy = Type::nodeTy().get();

  Ref constBit(bool B) { return B ? Mgr.trueBdd() : Mgr.falseBdd(); }
  bool isConst(Ref R) { return R == Mgr.trueBdd() || R == Mgr.falseBdd(); }

  Ref bit(const SymVal &V, unsigned I) const { return S.Bits[V.Off + I]; }

  /// An empty bit vector of type \p Ty at the arena's end; push() grows it.
  SymVal fresh(const Type *Ty) {
    SymVal V;
    V.Ty = Ty;
    V.Off = static_cast<uint32_t>(S.Bits.size());
    return V;
  }
  void push(SymVal &V, Ref R) {
    assert(V.Off + V.Len == S.Bits.size() && "only the newest value grows");
    S.Bits.push_back(R);
    ++V.Len;
  }
  /// Appends \p Src's bits to \p V (a copy; \p Src keeps its own span).
  void append(SymVal &V, const SymVal &Src) {
    for (unsigned I = 0; I < Src.Len; ++I)
      push(V, bit(Src, I));
  }

  SymVal boolSym(Ref R) {
    SymVal V = fresh(BoolTy);
    push(V, R);
    return V;
  }

  /// Lifts a concrete value: a closure stays a function, anything else
  /// becomes a constant bit vector.
  SymVal lift(const Value *V, const Type *Ty) {
    if (V->K == Value::Kind::Closure) {
      SymVal F;
      F.Ty = resolve(Ty);
      F.Fn = V;
      return F;
    }
    SymVal Out = fresh(resolve(Ty));
    Ctx.forEachBit(V, Ty, [&](bool B) { push(Out, constBit(B)); });
    return Out;
  }

  /// Element \p Idx of a tuple/record value: a subspan, nothing copied.
  SymVal field(const SymVal &V, size_t Idx) {
    unsigned Off = 0;
    for (size_t I = 0; I < Idx; ++I)
      Off += Ctx.Layout.widthOf(V.Ty->Elems[I].get());
    return slice(V, Off, V.Ty->Elems[Idx].get());
  }

  SymVal slice(const SymVal &V, unsigned Off, const Type *Ty) {
    SymVal Out;
    Out.Ty = resolve(Ty);
    Out.Off = V.Off + Off;
    Out.Len = Ctx.Layout.widthOf(Out.Ty);
    return Out;
  }

  bool allConst(const SymVal &V) {
    for (unsigned I = 0; I < V.Len; ++I)
      if (!isConst(bit(V, I)))
        return false;
    return true;
  }

  /// A == B, conjoined from the last bit up: the diagram of the bits below
  /// exists before a higher bit is ANDed on. Against a constant side each
  /// conjunct is a literal, and the AND's terminal cases stop it after one
  /// step instead of walking the chain.
  Ref eqBits(const SymVal &A, const SymVal &B) {
    if (A.Len != B.Len)
      evalError("symbolic equality over mismatched widths");
    const SymVal *X = &A, *C = &B;
    if (allConst(A))
      std::swap(X, C);
    bool ConstSide = allConst(*C);
    Ref R = Mgr.trueBdd();
    for (unsigned I = A.Len; I-- > 0;) {
      Ref Xi = bit(*X, I), Ci = bit(*C, I);
      Ref Eq = ConstSide ? (Ci == Mgr.trueBdd() ? Xi : Mgr.bddNot(Xi))
                         : Mgr.bddXnor(Xi, Ci);
      R = Mgr.bddAnd(Eq, R);
    }
    return R;
  }

  /// Unsigned comparison over MSB-first bits: returns (lt, eq).
  std::pair<Ref, Ref> compareBits(const SymVal &A, const SymVal &B) {
    Ref Lt = Mgr.falseBdd();
    Ref Eq = Mgr.trueBdd();
    for (unsigned I = 0; I < A.Len; ++I) {
      Ref Ai = bit(A, I), Bi = bit(B, I);
      Lt = Mgr.bddOr(Lt, Mgr.bddAnd(Eq, Mgr.bddAnd(Mgr.bddNot(Ai), Bi)));
      Eq = Mgr.bddAnd(Eq, Mgr.bddXnor(Ai, Bi));
    }
    return {Lt, Eq};
  }

  /// Ripple add/sub over MSB-first bit vectors (wrap-around). The sum is
  /// computed LSB first, so it is written in place into a fresh span.
  SymVal addSub(const SymVal &A, const SymVal &B, bool Subtract) {
    SymVal Out = fresh(A.Ty);
    for (unsigned I = 0; I < A.Len; ++I)
      push(Out, Mgr.falseBdd());
    Ref Carry = Subtract ? Mgr.trueBdd() : Mgr.falseBdd();
    for (unsigned I = A.Len; I-- > 0;) {
      Ref Ai = bit(A, I);
      Ref Bi = Subtract ? Mgr.bddNot(bit(B, I)) : bit(B, I);
      Ref AxB = Mgr.bddXor(Ai, Bi);
      S.Bits[Out.Off + I] = Mgr.bddXor(AxB, Carry);
      Carry = Mgr.bddOr(Mgr.bddAnd(Ai, Bi), Mgr.bddAnd(Carry, AxB));
    }
    return Out;
  }

  SymVal mergeIte(Ref Cond, const SymVal &T, const SymVal &E) {
    if (T.isFun() || E.isFun())
      evalError("cannot merge function values under a symbolic condition");
    if (T.Len != E.Len)
      evalError("symbolic ite over mismatched widths");
    SymVal Out = fresh(T.Ty);
    for (unsigned I = 0; I < T.Len; ++I)
      push(Out, Mgr.bddIte(Cond, bit(T, I), bit(E, I)));
    return Out;
  }

  const SymVal *lookupLocal(const std::string &Name) const {
    for (size_t I = S.Locals.size(); I-- > FrameBase;)
      if (*S.Locals[I].Name == Name)
        return &S.Locals[I].V;
    return nullptr;
  }

  void bind(const std::string &Name, const SymVal &V) {
    S.Locals.push_back({&Name, V});
  }

  /// Evaluates \p Fn's body in a new frame: the captured locals
  /// [EnvOff, EnvOff + EnvLen), then the parameter bound to \p Arg.
  SymVal call(const Expr &Fn, uint32_t EnvOff, uint32_t EnvLen,
              const ClosureData *Free, const SymVal &Arg) {
    size_t SavedBase = FrameBase;
    FrameBase = S.Locals.size();
    for (uint32_t I = 0; I < EnvLen; ++I) {
      Local L = S.Captures[EnvOff + I];
      S.Locals.push_back(L);
    }
    bind(Fn.Name, Arg);
    SymVal R = eval(Fn.Args[0].get(), Free);
    S.Locals.resize(FrameBase);
    FrameBase = SavedBase;
    return R;
  }

  /// Pattern match against a symbolic scrutinee: returns the match
  /// condition and binds the pattern's variables.
  Ref matchSym(const Pattern *P, const SymVal &Scrut) {
    switch (P->Kind) {
    case PatternKind::Wild:
      return Mgr.trueBdd();
    case PatternKind::Var:
      bind(P->Name, Scrut);
      return Mgr.trueBdd();
    case PatternKind::Lit:
      return eqBits(Scrut, lift(Ctx.valueOfLiteral(P->Lit), Scrut.Ty));
    case PatternKind::None:
      return Mgr.bddNot(bit(Scrut, 0));
    case PatternKind::Some: {
      SymVal Payload = slice(Scrut, 1, Scrut.Ty->Elems[0].get());
      return Mgr.bddAnd(bit(Scrut, 0), matchSym(P->Elems[0].get(), Payload));
    }
    case PatternKind::Tuple: {
      if (Scrut.Ty->Kind == TypeKind::Edge) {
        unsigned NB = Ctx.Layout.nodeBits();
        Ref C1 = matchSym(P->Elems[0].get(), slice(Scrut, 0, NodeTy));
        Ref C2 = matchSym(P->Elems[1].get(), slice(Scrut, NB, NodeTy));
        return Mgr.bddAnd(C1, C2);
      }
      Ref C = Mgr.trueBdd();
      for (size_t I = 0; I < P->Elems.size(); ++I)
        C = Mgr.bddAnd(C, matchSym(P->Elems[I].get(), field(Scrut, I)));
      return C;
    }
    case PatternKind::Record: {
      Ref C = Mgr.trueBdd();
      for (size_t I = 0; I < P->Labels.size(); ++I) {
        int Idx = Scrut.Ty->labelIndex(P->Labels[I]);
        C = Mgr.bddAnd(C, matchSym(P->Elems[I].get(),
                                   field(Scrut, static_cast<size_t>(Idx))));
      }
      return C;
    }
    }
    nv_unreachable("covered switch");
  }

  SymVal eval(const Expr *E, const ClosureData *Free) {
    switch (E->Kind) {
    case ExprKind::Const:
      return lift(Ctx.valueOfLiteral(E->Lit), E->Ty.get());
    case ExprKind::Var: {
      if (const SymVal *L = lookupLocal(E->Name))
        return *L;
      const Value *V = Free ? Free->lookupFree(E->Name) : nullptr;
      if (!V)
        evalError("unbound variable in symbolic evaluation: " + E->Name);
      return lift(V, E->Ty.get());
    }
    case ExprKind::Let: {
      SymVal Init = eval(E->Args[0].get(), Free);
      bind(E->Name, Init);
      SymVal R = eval(E->Args[1].get(), Free);
      S.Locals.pop_back();
      return R;
    }
    case ExprKind::Fun: {
      SymVal F;
      F.Ty = resolve(E->Ty.get());
      F.FnExpr = E;
      F.EnvOff = static_cast<uint32_t>(S.Captures.size());
      F.EnvLen = static_cast<uint32_t>(S.Locals.size() - FrameBase);
      S.Captures.insert(S.Captures.end(), S.Locals.begin() + FrameBase,
                        S.Locals.end());
      F.FnFree = Free;
      return F;
    }
    case ExprKind::App: {
      SymVal FnV = eval(E->Args[0].get(), Free);
      SymVal Arg = eval(E->Args[1].get(), Free);
      return applySym(FnV, Arg);
    }
    case ExprKind::If: {
      Ref Cond = evalBool(E->Args[0].get(), Free);
      if (Cond == Mgr.trueBdd())
        return eval(E->Args[1].get(), Free);
      if (Cond == Mgr.falseBdd())
        return eval(E->Args[2].get(), Free);
      SymVal T = eval(E->Args[1].get(), Free);
      SymVal El = eval(E->Args[2].get(), Free);
      return mergeIte(Cond, T, El);
    }
    case ExprKind::Match: {
      SymVal Scrut = eval(E->Args[0].get(), Free);
      // Evaluate each case body under its bindings; fold so the first
      // matching case wins and the final case is the default.
      size_t Mark = S.Parts.size();
      for (const MatchCase &C : E->Cases) {
        size_t LocalsMark = S.Locals.size();
        Ref Cond = matchSym(C.Pat.get(), Scrut);
        if (Cond == Mgr.falseBdd()) {
          S.Locals.resize(LocalsMark);
          continue;
        }
        SymVal Body = eval(C.Body.get(), Free);
        S.Locals.resize(LocalsMark);
        S.Parts.push_back({Cond, Body});
        if (Cond == Mgr.trueBdd())
          break;
      }
      if (S.Parts.size() == Mark)
        evalError("symbolic match with no reachable cases");
      SymVal R = S.Parts.back().V;
      for (size_t I = S.Parts.size() - 1; I-- > Mark;)
        R = mergeIte(S.Parts[I].Cond, S.Parts[I].V, R);
      S.Parts.resize(Mark);
      return R;
    }
    case ExprKind::Oper:
      return evalOper(E, Free);
    case ExprKind::Tuple:
    case ExprKind::Record: {
      size_t Mark = S.Parts.size();
      for (const ExprPtr &A : E->Args) {
        SymVal V = eval(A.get(), Free);
        S.Parts.push_back({Mgr.trueBdd(), V});
      }
      SymVal Out = fresh(resolve(E->Ty.get()));
      for (size_t I = Mark; I < S.Parts.size(); ++I)
        append(Out, S.Parts[I].V);
      S.Parts.resize(Mark);
      return Out;
    }
    case ExprKind::Proj:
      return field(eval(E->Args[0].get(), Free), E->Index);
    case ExprKind::RecordUpdate: {
      SymVal Base = eval(E->Args[0].get(), Free);
      SymVal Out = fresh(Base.Ty);
      append(Out, Base);
      for (size_t I = 0; I < E->Labels.size(); ++I) {
        SymVal Dst = field(Out, Base.Ty->labelIndex(E->Labels[I]));
        SymVal V = eval(E->Args[I + 1].get(), Free);
        for (unsigned B = 0; B < Dst.Len; ++B)
          S.Bits[Dst.Off + B] = bit(V, B);
      }
      return Out;
    }
    case ExprKind::Field: {
      SymVal V = eval(E->Args[0].get(), Free);
      return field(V, V.Ty->labelIndex(E->Name));
    }
    case ExprKind::Some: {
      SymVal Inner = eval(E->Args[0].get(), Free);
      SymVal Out = fresh(resolve(E->Ty.get()));
      push(Out, Mgr.trueBdd());
      append(Out, Inner);
      return Out;
    }
    case ExprKind::None: {
      SymVal Out = fresh(resolve(E->Ty.get()));
      unsigned W = Ctx.Layout.widthOf(Out.Ty);
      for (unsigned I = 0; I < W; ++I)
        push(Out, Mgr.falseBdd());
      return Out;
    }
    }
    nv_unreachable("covered switch");
  }

  SymVal applySym(const SymVal &FnV, const SymVal &Arg) {
    if (FnV.Fn) {
      const ClosureData *Clo = FnV.Fn->Closure.get();
      const Expr *Fn = Clo->sourceExpr();
      if (!Fn || Fn->Kind != ExprKind::Fun)
        evalError("cannot symbolically apply an opaque closure");
      return call(*Fn, 0, 0, Clo, Arg);
    }
    if (FnV.FnExpr)
      return call(*FnV.FnExpr, FnV.EnvOff, FnV.EnvLen, FnV.FnFree, Arg);
    evalError("symbolic application of a non-function");
  }

  Ref evalBool(const Expr *E, const ClosureData *Free) {
    return bit(eval(E, Free), 0);
  }

  SymVal evalOper(const Expr *E, const ClosureData *Free) {
    Op O = E->OpCode;
    if (isMapOp(O))
      evalError("map operation '" + opToString(O) +
                "' cannot appear inside a mapIte key predicate");
    switch (O) {
    case Op::And: {
      Ref A = evalBool(E->Args[0].get(), Free);
      return boolSym(Mgr.bddAnd(A, evalBool(E->Args[1].get(), Free)));
    }
    case Op::Or: {
      Ref A = evalBool(E->Args[0].get(), Free);
      return boolSym(Mgr.bddOr(A, evalBool(E->Args[1].get(), Free)));
    }
    case Op::Not:
      return boolSym(Mgr.bddNot(evalBool(E->Args[0].get(), Free)));
    case Op::Eq:
    case Op::Neq: {
      SymVal A = eval(E->Args[0].get(), Free);
      SymVal B = eval(E->Args[1].get(), Free);
      Ref R = eqBits(A, B);
      return boolSym(O == Op::Eq ? R : Mgr.bddNot(R));
    }
    case Op::Add:
    case Op::Sub: {
      SymVal A = eval(E->Args[0].get(), Free);
      SymVal B = eval(E->Args[1].get(), Free);
      return addSub(A, B, O == Op::Sub);
    }
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      SymVal A = eval(E->Args[0].get(), Free);
      SymVal B = eval(E->Args[1].get(), Free);
      auto [Lt, Eq] = compareBits(A, B);
      switch (O) {
      case Op::Lt:
        return boolSym(Lt);
      case Op::Le:
        return boolSym(Mgr.bddOr(Lt, Eq));
      case Op::Gt:
        return boolSym(Mgr.bddNot(Mgr.bddOr(Lt, Eq)));
      default:
        return boolSym(Mgr.bddNot(Lt));
      }
    }
    default:
      break;
    }
    nv_unreachable("handled all non-map operators");
  }
};

} // namespace

BddManager::Ref NvContext::predToBdd(const Value *Pred, const TypePtr &KeyTy) {
  uint64_t Key = Pred->Closure->cacheKey();
  auto It = PredCache.find(Key);
  if (It != PredCache.end())
    return It->second;
  if (!Sym)
    Sym.reset(new SymScratch);
  BddManager::Ref R = SymEval(*this, *Sym).run(Pred->Closure.get(), KeyTy);
  PredCache.emplace(Key, R);
  return R;
}
