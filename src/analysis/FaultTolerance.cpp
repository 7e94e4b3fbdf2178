//===- FaultTolerance.cpp - Fig. 5 fault-tolerance meta-protocol ------------===//

#include "analysis/FaultTolerance.h"

#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "support/Journal.h"
#include "support/PageAllocator.h"
#include "support/Timer.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <unordered_map>

using namespace nv;

namespace {

/// \p Base for rank 0, then Base1, Base2, ...
std::string ranked(const std::string &Base, size_t R) {
  return R ? Base + std::to_string(R) : Base;
}

/// `let Name (p1 : T1) ... (pn : Tn) [: Result] = Body`, as the parser
/// builds it.
DeclPtr funDecl(std::string Name,
                const std::vector<std::pair<std::string, TypePtr>> &Params,
                ExprPtr Body, TypePtr Result = nullptr) {
  for (auto It = Params.rbegin(); It != Params.rend(); ++It)
    Body = Expr::fun(It->first, std::move(Body), It->second);
  DeclPtr D = Decl::letDecl(std::move(Name), std::move(Body));
  D->Ty = std::move(Result);
  D->ParamCount = unsigned(Params.size());
  return D;
}

/// `let (p1, ..., pn) = Init in Body`: a one-case match.
ExprPtr letTuple(ExprPtr Init, const std::vector<std::string> &Names,
                 ExprPtr Body) {
  std::vector<PatternPtr> Ps;
  for (const std::string &N : Names)
    Ps.push_back(Pattern::var(N));
  PatternPtr Pat = Ps.size() == 1 ? Ps[0] : Pattern::tuple(std::move(Ps));
  return Expr::match(std::move(Init), {{std::move(Pat), std::move(Body)}});
}

ExprPtr orElse(ExprPtr A, ExprPtr B) {
  return A ? Expr::oper(Op::Or, {std::move(A), std::move(B)}) : B;
}

ExprPtr eq(const std::string &A, const std::string &B) {
  return Expr::oper(Op::Eq, {Expr::var(A), Expr::var(B)});
}

/// The edge-to-link-index table over \p Links: one `__ft_link<R>`
/// declaration per duplicate rank R (a link declared m times has m
/// indices; rank R names its R-th, or its last when it has fewer). Each
/// matches the edge's first endpoint, then its second, covering both
/// orientations of every link. Every node's type is known (edge -> intW),
/// so the table is built typed and needs no check.
std::vector<DeclPtr> linkTableDecls(
    const std::vector<std::pair<uint32_t, uint32_t>> &Links, unsigned Bits) {
  // (first endpoint, second endpoint, link index) for both orientations,
  // sorted: the runs of equal endpoints hold each edge's indices in order.
  std::vector<std::array<uint32_t, 3>> Ends;
  Ends.reserve(2 * Links.size());
  for (uint32_t I = 0; I < Links.size(); ++I) {
    auto [U, V] = Links[I];
    Ends.push_back({U, V, I});
    if (U != V)
      Ends.push_back({V, U, I});
  }
  std::sort(Ends.begin(), Ends.end());
  auto SameEdge = [&](size_t I, size_t J) {
    return Ends[I][0] == Ends[J][0] && Ends[I][1] == Ends[J][1];
  };
  size_t Ranks = 1;
  for (size_t I = 1, Run = 1; I < Ends.size(); ++I)
    Ranks = std::max(Ranks, Run = SameEdge(I - 1, I) ? Run + 1 : 1);

  TypePtr IntTy = Type::intTy(Bits);
  auto Typed = [](ExprPtr E, TypePtr T) {
    E->Ty = std::move(T);
    return E;
  };
  auto Index = [&](uint32_t I) {
    return Typed(Expr::intConst(I, Bits), IntTy);
  };
  // Patterns hold no state, so each node's is made once.
  std::vector<PatternPtr> NodePats(Ends.empty() ? 0 : Ends.back()[0] + 1);
  PatternPtr Wild = Pattern::wild();
  auto Arm = [&](uint32_t Node, ExprPtr Body) {
    PatternPtr &Pat = NodePats[Node];
    if (!Pat)
      Pat = Pattern::lit(Literal::nodeLit(Node));
    return MatchCase{Pat, std::move(Body)};
  };
  auto Match = [&](const char *Node, std::vector<MatchCase> Arms) {
    // Trans only sees topology edges, so the fallback is never taken.
    Arms.push_back({Wild, Index(0)});
    return Typed(Expr::match(Typed(Expr::var(Node), Type::nodeTy()),
                             std::move(Arms)),
                 IntTy);
  };
  std::vector<DeclPtr> Out;
  for (size_t R = 0; R < Ranks; ++R) {
    std::vector<MatchCase> ByFirst;
    for (size_t I = 0; I < Ends.size();) {
      uint32_t A = Ends[I][0];
      std::vector<MatchCase> BySecond;
      while (I < Ends.size() && Ends[I][0] == A) {
        size_t J = I + 1;
        while (J < Ends.size() && SameEdge(I, J))
          ++J;
        uint32_t Link = Ends[std::min(I + R, J - 1)][2];
        BySecond.push_back(Arm(Ends[I][1], Index(Link)));
        I = J;
      }
      ByFirst.push_back(Arm(A, Match("eb", std::move(BySecond))));
    }
    ExprPtr Body =
        Typed(letTuple(Typed(Expr::var("e"), Type::edgeTy()), {"ea", "eb"},
                       Match("ea", std::move(ByFirst))),
              IntTy);
    DeclPtr D = funDecl(ranked("__ft_link", R), {{"e", Type::edgeTy()}},
                        std::move(Body), IntTy);
    D->Body->Ty = Type::arrowTy(Type::edgeTy(), IntTy);
    Out.push_back(std::move(D));
  }
  return Out;
}

/// The names the scenario key's components are bound to: the failed node
/// (when one fails), then one per link.
struct KeyBinders {
  std::string Node;
  std::vector<std::string> Links;

  explicit KeyBinders(const FtOptions &Opts) {
    if (Opts.NodeFailure)
      Node = "__fn";
    for (unsigned I = 0; I < Opts.LinkFailures; ++I)
      Links.push_back("__k" + std::to_string(I));
    if (!Opts.NodeFailure && Opts.LinkFailures == 1)
      Links[0] = "key"; // the key is the link index itself
  }

  /// `let (<components>) = key in Body`; just Body for a bare link key.
  ExprPtr bind(ExprPtr Body) const {
    if (Node.empty() && Links.size() == 1)
      return Body;
    std::vector<std::string> Names;
    if (!Node.empty())
      Names.push_back(Node);
    Names.insert(Names.end(), Links.begin(), Links.end());
    return letTuple(Expr::var("key"), Names, std::move(Body));
  }
};

/// The non-decreasing sequences of \p M values below \p N, C(N + M - 1,
/// M); empty past UINT64_MAX. Each partial product C(N - 1 + I, I) is exact
/// and never exceeds the result, so 128 bits hold every step up to the
/// check.
std::optional<uint64_t> multisets(uint64_t N, uint64_t M) {
  if (N <= 1)
    return M ? N : 1;
  unsigned __int128 C = 1;
  for (uint64_t I = 1; I <= M; ++I)
    if ((C = C * (N - 1 + I) / I) > UINT64_MAX)
      return std::nullopt;
  return uint64_t(C);
}

/// multisets(N, M) where the caller knows it fits: any count of sequences
/// no longer than a set's link fields is at most its combos(). One or two
/// fields, the common case, take closed forms.
inline uint64_t multisetsIn(uint64_t N, uint64_t M) {
  if (M <= 2)
    return M == 0 ? 1 : M == 1 ? N : N * (N + 1) / 2;
  return *multisets(N, M);
}

/// The scenarios of \p NumLinks links and \p NumNodes nodes under \p Opts,
/// and in \p Combos the link combinations per failed node; empty past
/// UINT64_MAX.
std::optional<uint64_t> countScenarios(size_t NumLinks, uint32_t NumNodes,
                                       const FtOptions &Opts,
                                       uint64_t &Combos) {
  std::optional<uint64_t> C = multisets(NumLinks, Opts.LinkFailures);
  if (!C)
    return std::nullopt;
  Combos = *C;
  uint64_t Count = Combos;
  if (Opts.NodeFailure && __builtin_mul_overflow(Combos, NumNodes, &Count))
    return std::nullopt;
  return Count;
}

/// Why \p NumLinks links and \p NumNodes nodes under \p Opts are past
/// what an analysis indexes; empty when they are not.
std::string scenarioSpaceError(size_t NumLinks, uint32_t NumNodes,
                               const FtOptions &Opts) {
  uint64_t Combos;
  if (NumLinks > MaxFtLinks)
    return "fault-tolerance analysis supports at most " +
           std::to_string(MaxFtLinks) + " links";
  if (!countScenarios(NumLinks, NumNodes, Opts, Combos))
    return "fault-tolerance analysis counts scenarios in 64 bits; " +
           std::to_string(NumLinks) + " links at " +
           std::to_string(Opts.LinkFailures) + " failures" +
           (Opts.NodeFailure ? " and " + std::to_string(NumNodes) + " nodes"
                             : std::string()) +
           " give more";
  return "";
}

} // namespace

std::string nv::ftOptionsError(const FtOptions &Opts) {
  if (Opts.LinkFailures == 0 && !Opts.NodeFailure)
    return "fault-tolerance analysis needs at least one failure per "
           "scenario (links >= 1, or a node failure)";
  return "";
}

namespace {

ExprPtr dropExpr(const TypePtr &RawTy) {
  TypePtr Ty = resolve(RawTy);
  if (Ty->Kind == TypeKind::Option)
    return Expr::none();
  if (Ty->Kind != TypeKind::Dict)
    return nullptr;
  ExprPtr Inner = dropExpr(Ty->Elems[1]);
  return Inner ? Expr::oper(Op::MCreate, {Inner}) : nullptr;
}

} // namespace

ExprPtr nv::defaultDropExpr(const TypePtr &AttrTy, std::string &Error) {
  ExprPtr E = dropExpr(AttrTy);
  if (!E)
    Error = "no drop value for attribute type " + typeToString(AttrTy) +
            ": one is derived only for option[..] attributes and dicts "
            "whose values have one";
  return E;
}

const Value *nv::defaultDropValue(NvContext &Ctx, const TypePtr &AttrTy) {
  std::string Error;
  if (!defaultDropExpr(AttrTy, Error))
    evalError(Error);
  TypePtr Ty = resolve(AttrTy);
  if (Ty->Kind == TypeKind::Option)
    return Ctx.noneV();
  return Ctx.mapCreate(Ty->Elems[0], defaultDropValue(Ctx, Ty->Elems[1]));
}

std::optional<Program> nv::makeFaultTolerantProgram(const Program &P,
                                                    const FtOptions &Opts,
                                                    DiagnosticEngine &Diags) {
  if (!P.AttrType) {
    Diags.error({}, "fault-tolerance transform requires a type-checked "
                    "program (missing attribute type)");
    return std::nullopt;
  }
  if (std::string E = ftOptionsError(Opts); !E.empty()) {
    Diags.error({}, E);
    return std::nullopt;
  }

  auto Links = P.links();
  size_t NumLinks = Links.size();
  if (std::string E = scenarioSpaceError(NumLinks, P.numNodes(), Opts);
      !E.empty()) {
    Diags.error({}, E);
    return std::nullopt;
  }

  // The drop value; each use below takes its own copy.
  ExprPtr Drop;
  if (Opts.DropValueSource.empty()) {
    std::string Error;
    Drop = defaultDropExpr(P.AttrType, Error);
    if (!Drop)
      Diags.error({}, Error);
  } else if (!(Drop = parseExprString(Opts.DropValueSource, Diags))) {
    Diags.error({}, "cannot parse the drop value '" + Opts.DropValueSource +
                        "'");
  }
  if (!Drop)
    return std::nullopt;

  // The base program, typed as it is, with init/trans/merge/assert renamed
  // to __base_*, then the typed link table; only the declarations after
  // those are checked.
  Program Out = renameSemanticDecls(P);

  unsigned Bits = linkIndexBits(NumLinks);
  TypePtr LinkTy = Type::intTy(Bits);
  TypePtr K = LinkTy;
  if (Opts.NodeFailure || Opts.LinkFailures != 1) {
    std::vector<TypePtr> Parts;
    if (Opts.NodeFailure)
      Parts.push_back(Type::nodeTy());
    Parts.insert(Parts.end(), Opts.LinkFailures, LinkTy);
    K = Parts.size() == 1 ? Parts[0] : Type::tupleTy(std::move(Parts));
  }
  TypePtr DictTy = Type::dictTy(K, P.AttrType);
  KeyBinders Key(Opts);

  // Which link index (or indices, for a link declared more than once)
  // does directed edge e belong to? Bound once per trans call as __i<R>.
  size_t Ranks = 0;
  if (Opts.LinkFailures > 0) {
    std::vector<DeclPtr> Table = linkTableDecls(Links, Bits);
    Ranks = Table.size();
    Out.Decls.insert(Out.Decls.end(), Table.begin(), Table.end());
  }
  size_t First = Out.Decls.size();

  // Predicate over keys: scenario affects edge e, whose link indices are
  // the __i parameters (failed link, or failed node adjacent to e). Only a
  // key with a node field reads e: without one, both directions of a link
  // share one predicate closure, so one predicate BDD.
  {
    std::vector<std::pair<std::string, TypePtr>> Params = {{"key", K}};
    if (!Key.Node.empty())
      Params.emplace_back("e", Type::edgeTy());
    for (size_t R = 0; R < Ranks; ++R)
      Params.emplace_back(ranked("__i", R), LinkTy);
    ExprPtr Cond;
    for (const std::string &L : Key.Links)
      for (size_t R = 0; R < Ranks; ++R)
        Cond = orElse(std::move(Cond), eq(L, ranked("__i", R)));
    if (!Key.Node.empty())
      Cond = orElse(std::move(Cond),
                    letTuple(Expr::var("e"), {"eu", "ev"},
                             orElse(eq(Key.Node, "eu"), eq(Key.Node, "ev"))));
    Out.Decls.push_back(funDecl("__ft_affects", Params, Key.bind(Cond)));
  }

  auto App = [](const std::string &Fn, std::vector<ExprPtr> Args) {
    return Expr::apps(Expr::var(Fn), std::move(Args));
  };
  auto Lambda = [](const std::string &X, TypePtr T, ExprPtr Body) {
    return Expr::fun(X, std::move(Body), std::move(T));
  };
  auto DropFn = [&] { return Lambda("v", P.AttrType, cloneExpr(Drop)); };

  // init: one copy of the base route per scenario; with node failures the
  // failed node originates nothing.
  ExprPtr Init = Expr::oper(
      Op::MCreate, {App("__base_init", {Expr::var("u")})});
  if (!Key.Node.empty())
    Init = Expr::oper(Op::MMapIte,
                      {Lambda("key", K, Key.bind(eq(Key.Node, "u"))),
                       DropFn(), Lambda("v", P.AttrType, Expr::var("v")),
                       std::move(Init)});
  Out.Decls.push_back(
      funDecl("init", {{"u", Type::nodeTy()}}, std::move(Init), DictTy));

  // trans: Fig. 5's transFail, generalized to multi-failure keys. The
  // link indices, predicate, drop and transfer functions are bound outside
  // `fun x`, so the evaluator's cached partial application `trans e`
  // builds them once per edge.
  std::vector<ExprPtr> AffectsArgs = {Expr::var("key")};
  if (!Key.Node.empty())
    AffectsArgs.push_back(Expr::var("e"));
  for (size_t R = 0; R < Ranks; ++R)
    AffectsArgs.push_back(Expr::var(ranked("__i", R)));
  ExprPtr Trans = Lambda(
      "x", DictTy,
      Expr::oper(Op::MMapIte, {Expr::var("__ft_pred"), Expr::var("__ft_drop"),
                               Expr::var("__ft_trans"), Expr::var("x")}));
  Trans = Expr::let(
      "__ft_pred",
      Lambda("key", K, App("__ft_affects", std::move(AffectsArgs))),
      Expr::let("__ft_drop", DropFn(),
                Expr::let("__ft_trans",
                          Lambda("v", P.AttrType,
                                 App("__base_trans",
                                     {Expr::var("e"), Expr::var("v")})),
                          std::move(Trans))));
  for (size_t R = Ranks; R-- > 0;)
    Trans = Expr::let(ranked("__i", R),
                      App(ranked("__ft_link", R), {Expr::var("e")}),
                      std::move(Trans));
  Out.Decls.push_back(
      funDecl("trans", {{"e", Type::edgeTy()}}, std::move(Trans)));

  // merge: Fig. 5's mergeFail. The base merge of `u` is bound outside
  // `fun x`, so the cached partial application `merge u` builds it once
  // per node.
  Out.Decls.push_back(funDecl(
      "merge", {{"u", Type::nodeTy()}},
      Expr::let("__ft_merge", App("__base_merge", {Expr::var("u")}),
                Lambda("x", DictTy,
                       Lambda("y", DictTy,
                              Expr::oper(Op::MCombine,
                                         {Expr::var("__ft_merge"),
                                          Expr::var("x"),
                                          Expr::var("y")}))))));

  if (!typeCheckAppended(Out, First, Diags))
    return std::nullopt;
  return Out;
}

std::string FtViolation::routeStr() const {
  return Route ? Route->str() : RouteText;
}

void nv::addViolationField(UnitRecord &R, const FtViolation &V) {
  std::string Text = V.routeStr();
  // Journal records are line-based; route renderings are single-line today,
  // and this keeps the record well-formed if one ever is not.
  for (char &C : Text)
    if (C == '\n')
      C = ' ';
  R.add("v", std::to_string(V.Scenario.Index) + " " + std::to_string(V.Node) +
                 " " + Text);
}

std::string nv::ftViolationsHash(const std::vector<FtViolation> &Vs) {
  std::string Blob;
  for (const FtViolation &V : Vs)
    Blob += V.Scenario.str() + "@" + std::to_string(V.Node) + "=" +
            V.routeStr() + "\n";
  return fnv1a64Hex(Blob);
}

namespace {

/// The decimal number V[Begin, End): digits only, no sign or space.
bool parseDecimal(const std::string &V, size_t Begin, size_t End,
                  uint64_t &Out) {
  const char *First = V.data() + Begin, *Last = V.data() + End;
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return First != Last && Ec == std::errc() && Ptr == Last;
}

} // namespace

bool nv::parseViolationFields(const UnitRecord &R, const FtScenarioSet &Set,
                              uint64_t Begin, uint64_t End,
                              std::vector<FtViolation> &Out) {
  size_t From = Out.size();
  for (const std::string &V : R.all("v")) {
    size_t Sp1 = V.find(' ');
    size_t Sp2 = Sp1 == std::string::npos ? Sp1 : V.find(' ', Sp1 + 1);
    uint64_t Idx = 0, Node = 0;
    if (Sp2 == std::string::npos || !parseDecimal(V, 0, Sp1, Idx) ||
        !parseDecimal(V, Sp1 + 1, Sp2, Node) || Idx < Begin || Idx >= End ||
        Idx >= Set.size() || Node >= Set.numNodes()) {
      Out.resize(From);
      return false;
    }
    Out.push_back({{&Set, Idx}, uint32_t(Node), nullptr,
                   V.substr(Sp2 + 1)});
  }
  return true;
}

namespace {

/// "{node N; link U-V; ...}" over \p NumLinks links, \p At(F) giving link
/// F's endpoints.
template <typename LinkAtFn>
std::string scenarioStr(std::optional<uint32_t> Node, size_t NumLinks,
                        LinkAtFn At) {
  std::string S = "{";
  if (Node)
    S += "node " + std::to_string(*Node) + (NumLinks ? "; " : "");
  for (size_t F = 0; F < NumLinks; ++F) {
    auto [U, V] = At(F);
    if (F)
      S += "; ";
    S += "link " + std::to_string(U) + "-" + std::to_string(V);
  }
  return S + "}";
}

} // namespace

std::string FtScenario::str() const {
  return scenarioStr(Node, Links.size(), [&](size_t F) {
    return std::pair{Links[F].U, Links[F].V};
  });
}

FtScenarioSet::FtScenarioSet(const Program &P, const FtOptions &Opts)
    : Links(P.links()), NumNodes(P.numNodes()),
      NodeFailure(Opts.NodeFailure), LinkFields(Opts.LinkFailures),
      LinkBits(linkIndexBits(Links.size())) {
  if (std::string E = scenarioSpaceError(Links.size(), NumNodes, Opts);
      !E.empty())
    evalError(E);
  Count = *countScenarios(Links.size(), NumNodes, Opts, Combos);
}

// Field F's sequences with every value at least V number
// multisets(L - V, k - F) (L links, k fields), so the combinations whose
// field F lies in [A, B), given the fields before it, number
// multisets(L - A, k - F) - multisets(L - B, k - F).

uint64_t FtScenarioSet::rank(std::optional<uint32_t> Node,
                             std::span<const uint32_t> LinkIndices) const {
  assert(LinkIndices.size() == LinkFields && "one index per link field");
  uint64_t L = Links.size(), R = NodeFailure ? uint64_t(*Node) * Combos : 0;
  uint32_t Lo = 0;
  for (unsigned F = 0; F < LinkFields; ++F) {
    uint32_t K = LinkIndices[F];
    assert(Lo <= K && K < L && "link indices must be canonical");
    R += multisetsIn(L - Lo, LinkFields - F) -
         multisetsIn(L - K, LinkFields - F);
    Lo = K;
  }
  return R;
}

void FtScenarioSet::linkIndices(uint64_t I, uint32_t *Out) const {
  uint64_t L = Links.size(), C = NodeFailure ? I % Combos : I;
  uint32_t Lo = 0;
  for (unsigned F = 0; F < LinkFields; ++F) {
    unsigned M = LinkFields - F;
    if (M == 1) { // multisets(L - V, 1) = L - V
      Out[F] = Lo + uint32_t(C);
      return;
    }
    // The largest K in [Lo, L) with multisets(L - K, M) >= All - C: the
    // combinations before field F = K, given Lo, number at most C.
    uint64_t All = multisetsIn(L - Lo, M), Need = All - C;
    uint32_t K = Lo, Hi = uint32_t(L - 1);
    if (M == 2) { // the least N = L - K with N(N + 1) / 2 >= Need
      uint64_t N = uint64_t((std::sqrt(8.0 * double(Need) + 1) - 1) / 2);
      while (N * (N + 1) / 2 < Need)
        ++N;
      while (N > 1 && (N - 1) * N / 2 >= Need)
        --N;
      K = Hi = uint32_t(L - N);
    }
    while (K < Hi) {
      uint32_t Mid = K + (Hi - K + 1) / 2;
      if (multisetsIn(L - Mid, M) >= Need)
        K = Mid;
      else
        Hi = Mid - 1;
    }
    C -= All - multisetsIn(L - K, M);
    Out[F] = Lo = K;
  }
}

FtScenario FtScenarioSet::operator[](uint64_t I) const {
  FtScenario S;
  S.Node = node(I);
  std::vector<uint32_t> Ks(LinkFields);
  linkIndices(I, Ks.data());
  S.Links.reserve(LinkFields);
  for (uint32_t X : Ks)
    S.Links.push_back({Links[X].first, Links[X].second, X, LinkBits});
  return S;
}

std::string FtScenarioSet::str(uint64_t I) const {
  // Decoded on the stack for the usual few link fields.
  std::array<uint32_t, 8> Small;
  std::vector<uint32_t> Large(LinkFields > Small.size() ? LinkFields : 0);
  uint32_t *Ks = Large.empty() ? Small.data() : Large.data();
  linkIndices(I, Ks);
  return scenarioStr(node(I), LinkFields,
                     [&](size_t F) { return Links[Ks[F]]; });
}

std::vector<FtScenario> nv::enumerateScenarios(const Program &P,
                                               const FtOptions &Opts) {
  FtScenarioSet Set(P, Opts);
  std::vector<FtScenario> Out;
  Out.reserve(Set.size());
  for (uint64_t I = 0; I < Set.size(); ++I)
    Out.push_back(Set[I]);
  return Out;
}

const Value *nv::scenarioKey(NvContext &Ctx, const FtScenario &S,
                             const FtOptions &Opts) {
  std::vector<const Value *> Parts;
  if (Opts.NodeFailure)
    Parts.push_back(Ctx.nodeV(S.Node.value_or(0)));
  for (const FtLink &L : S.Links)
    Parts.push_back(Ctx.intV(L.Index, L.IndexBits));
  if (Parts.size() == 1)
    return Parts[0];
  return Ctx.tupleV(std::move(Parts));
}

unsigned nv::linkIndexBits(size_t NumLinks) {
  return std::max(1u, unsigned(std::bit_width(NumLinks - (NumLinks > 0))));
}

unsigned nv::scenarioKeyWidth(const FtOptions &Opts, unsigned NodeBits,
                              size_t NumLinks) {
  return (Opts.NodeFailure ? NodeBits : 0) +
         linkIndexBits(NumLinks) * Opts.LinkFailures;
}

//===----------------------------------------------------------------------===//
// FtChecker
//===----------------------------------------------------------------------===//

namespace {

using Ref = BddManager::Ref;

/// The part of one node's label diagram that leads to a failing leaf,
/// copied into a flat array: subdiagrams without a failing leaf are cut
/// (None), so a walk never enters them.
struct FailingPart {
  static constexpr uint32_t None = ~0u;
  struct Node {
    uint32_t Var; ///< BddManager::LeafVar for a failing leaf.
    uint32_t Lo, Hi;
    const Value *Route; ///< The failing leaf's route.
  };
  std::vector<Node> Nodes;
  uint32_t Root = None;

  /// Visited-set walk over the nodes reachable from \p Label's diagram,
  /// evaluating \p U's assert once per distinct leaf (lo before hi, so
  /// leaves are met in cube order).
  FailingPart(const BddManager &Mgr, ProtocolEvaluator &BaseEval, uint32_t U,
              Ref Label) {
    std::unordered_map<Ref, uint32_t> Seen;
    std::function<uint32_t(Ref)> Walk = [&](Ref R) {
      if (auto It = Seen.find(R); It != Seen.end())
        return It->second;
      // Copied, not referenced: evaluating an assert may grow the store.
      BddManager::Node Nd = Mgr.node(R);
      uint32_t Id = None;
      if (Nd.Var == BddManager::LeafVar) {
        const Value *Route = static_cast<const Value *>(Nd.Leaf);
        if (!BaseEval.assertAt(U, Route)) {
          Id = uint32_t(Nodes.size());
          Nodes.push_back({Nd.Var, None, None, Route});
        }
      } else {
        uint32_t Lo = Walk(Nd.Lo), Hi = Walk(Nd.Hi);
        if (Lo != None || Hi != None) {
          Id = uint32_t(Nodes.size());
          Nodes.push_back({Nd.Var, Lo, Hi, nullptr});
        }
      }
      Seen.emplace(R, Id);
      return Id;
    };
    Root = Walk(Label);
  }
};

/// One run of a node's failing scenarios: [First, Last] select Route.
struct HitRange {
  uint64_t First, Last;
  const Value *Route;
};

/// The walk of one node's failing part together with the key bits, MSB
/// first (see FtChecker). The key's fields are the failed node (with
/// NodeFailure), then the link indices. Per field the walk carries two
/// flags: Tight, the prefix equals the field's maximum's (so the field
/// stays below its bound), and Eq, the prefix equals the previous link
/// field's (so link fields never decrease). Only bits those allow are
/// taken, so every prefix walked has a canonical completion.
///
/// The last field is walked once per part node, not once per arrival: a
/// node met at that field's first bit answers from its Tail, the values
/// below the bound that reach a failing leaf, and each arrival clips the
/// Tail at its lower bound (the previous field's value). A scenario's rank
/// grows by one per step of the last field, so each clipped interval is
/// one index range.
class LeafWalk {
public:
  LeafWalk(const FtScenarioSet &Set, unsigned NodeBits, uint32_t U,
           const FailingPart &Part, std::vector<HitRange> &Out)
      : Set(Set), U(U), Part(Part), Out(Out),
        TailOf(Part.Nodes.size(), {FailingPart::None, 0}) {
    unsigned Fields = Set.nodeFailure() + Set.linkFields();
    auto AddField = [&](unsigned Width, uint32_t Max, bool AfterLink) {
      unsigned F = unsigned(Bound.size());
      Bound.push_back(Max);
      // A field with no lower bound compares with the always-zero slot.
      LowerBound.push_back(AfterLink ? F - 1 : Fields);
      for (unsigned T = Width; T-- > 0;) {
        FieldOf.push_back(F);
        ShiftOf.push_back(T);
      }
    };
    if (Set.nodeFailure())
      AddField(NodeBits, Set.numNodes() - 1, false);
    for (unsigned F = 0; F < Set.linkFields(); ++F)
      AddField(linkIndexBits(Set.numLinks()), uint32_t(Set.numLinks() - 1),
               F > 0);
    Val.assign(Fields + 1, 0);
    Least.resize(Fields);
    Greatest.resize(Fields);
    TailBit = unsigned(std::find(FieldOf.begin(), FieldOf.end(), Fields - 1) -
                       FieldOf.begin());
  }

  void run() { walk(Part.Root, 0, true, true); }

private:
  /// From diagram node \p Id with key bit \p B next. Val holds the bits
  /// before B in place and zeros from B on; the walk may leave bits from
  /// B on set.
  void walk(uint32_t Id, unsigned B, bool Tight, bool Eq) {
    for (;;) {
      const FailingPart::Node &Nd = Part.Nodes[Id];
      if (Nd.Var == BddManager::LeafVar) {
        emit(B, Tight, Eq, Nd.Route);
        return;
      }
      if (B == TailBit) {
        // A field starts with both flags set.
        assert(Tight && Eq && "the last field starts unconstrained");
        emitTail(Id);
        return;
      }
      assert(Nd.Var >= B && B < FieldOf.size() && "diagram tests a key bit");
      unsigned F = FieldOf[B], S = ShiftOf[B];
      bool MaxBit = Bound[F] >> S & 1, LbBit = Val[LowerBound[F]] >> S & 1;
      // A node testing a later bit serves both values of this one.
      uint32_t Lo = Nd.Var == B ? Nd.Lo : Id, Hi = Nd.Var == B ? Nd.Hi : Id;
      bool Take0 = Lo != FailingPart::None && !(Eq && LbBit);
      bool Take1 = Hi != FailingPart::None && !(Tight && !MaxBit);
      // After a field's last bit the next field starts with both flags.
      bool Last = S == 0;
      if (!Take0 && !Take1)
        return;
      if (Take0 && Take1) {
        walk(Lo, B + 1, Last || (Tight && !MaxBit), Last || (Eq && !LbBit));
        // Clear what that walk set after bit B.
        Val[F] &= ~((uint32_t(1) << S) - 1);
        std::fill(Val.begin() + F + 1, Val.end() - 1, 0);
      } else if (Take0) {
        Tight = Last || (Tight && !MaxBit);
        Eq = Last || (Eq && !LbBit);
        Id = Lo;
        ++B;
        continue;
      }
      // Bit B is 1: the only child to take, or the second one.
      Val[F] |= uint32_t(1) << S;
      Tight = Last || (Tight && MaxBit);
      Eq = Last || (Eq && LbBit);
      Id = Hi;
      ++B;
    }
  }

  /// Emits the canonical completions of the prefix before bit \p B, which
  /// are one index range between its least and its greatest completion,
  /// less the walked node's own failure block.
  void emit(unsigned B, bool Tight, bool Eq, const Value *Route) {
    unsigned Fields = unsigned(Bound.size());
    unsigned F = B < FieldOf.size() ? FieldOf[B] : Fields;
    for (unsigned G = 0; G < Fields; ++G) {
      if (G < F) {
        Least[G] = Greatest[G] = Val[G];
      } else if (G == F) {
        uint32_t Free = (uint32_t(2) << ShiftOf[B]) - 1;
        Least[G] = Eq ? Val[LowerBound[G]] : Val[G];
        Greatest[G] = Tight ? Bound[G] : Val[G] | Free;
      } else {
        Least[G] = LowerBound[G] < Fields ? Least[G - 1] : 0;
        Greatest[G] = Bound[G];
      }
    }
    emitRange(rank(Least), rank(Greatest), Route);
  }

  /// Emits the completions of the prefix before the last field through
  /// part node \p Id: its Tail, clipped at the field's lower bound.
  void emitTail(uint32_t Id) {
    auto [Begin, End] = tail(Id);
    unsigned F = unsigned(Bound.size()) - 1;
    uint32_t Lb = Val[LowerBound[F]];
    auto It = std::partition_point(
        Tails.begin() + Begin, Tails.begin() + End,
        [Lb](const TailRange &T) { return T.Hi < Lb; });
    if (It == Tails.begin() + End)
      return;
    std::copy(Val.begin(), Val.begin() + F, Least.begin());
    Least[F] = Lb;
    uint64_t AtLb = rank(Least);
    for (; It != Tails.begin() + End; ++It) {
      uint32_t Lo = std::max(It->Lo, Lb);
      uint64_t First = AtLb + (Lo - Lb);
      emitRange(First, First + (It->Hi - Lo), It->Route);
    }
  }

  /// Part node \p Id's Tail, as [Begin, End) in Tails: computed by the
  /// first arrival, read by the rest.
  std::pair<uint32_t, uint32_t> tail(uint32_t Id) {
    std::pair<uint32_t, uint32_t> &T = TailOf[Id];
    if (T.first == FailingPart::None) {
      TailBegin = uint32_t(Tails.size());
      walkTail(Id, TailBit, true, 0);
      T = {TailBegin, uint32_t(Tails.size())};
    }
    return T;
  }

  /// Appends to Tails the last field's values that lead from part node
  /// \p Id, with bit \p B next and \p V the bits before it, to a failing
  /// leaf: walk's descent with the Tight flag alone, in value order.
  void walkTail(uint32_t Id, unsigned B, bool Tight, uint32_t V) {
    uint32_t Max = Bound.back();
    for (;;) {
      const FailingPart::Node &Nd = Part.Nodes[Id];
      if (Nd.Var == BddManager::LeafVar) {
        uint32_t Hi = Tight ? Max
                      : B < FieldOf.size()
                          ? V | ((uint32_t(2) << ShiftOf[B]) - 1)
                          : V;
        if (Tails.size() > TailBegin && Tails.back().Hi + 1 == V &&
            Tails.back().Route == Nd.Route)
          Tails.back().Hi = Hi;
        else
          Tails.push_back({V, Hi, Nd.Route});
        return;
      }
      unsigned S = ShiftOf[B];
      bool MaxBit = Max >> S & 1;
      uint32_t Lo = Nd.Var == B ? Nd.Lo : Id, Hi = Nd.Var == B ? Nd.Hi : Id;
      bool Take0 = Lo != FailingPart::None;
      bool Take1 = Hi != FailingPart::None && !(Tight && !MaxBit);
      if (!Take1) {
        if (!Take0)
          return;
        Tight = Tight && !MaxBit;
        Id = Lo;
        ++B;
        continue;
      }
      if (Take0)
        walkTail(Lo, B + 1, Tight && !MaxBit, V);
      V |= uint32_t(1) << S;
      Tight = Tight && MaxBit;
      Id = Hi;
      ++B;
    }
  }

  /// Emits [First, Last] less the walked node's own failure block.
  void emitRange(uint64_t First, uint64_t Last, const Value *Route) {
    if (Set.nodeFailure()) {
      uint64_t Own = uint64_t(U) * Set.combos(), OwnEnd = Own + Set.combos();
      if (First < Own)
        push(First, std::min(Last, Own - 1), Route);
      if (Last >= OwnEnd)
        push(std::max(First, OwnEnd), Last, Route);
    } else {
      push(First, Last, Route);
    }
  }

  uint64_t rank(const std::vector<uint32_t> &Key) const {
    bool Node = Set.nodeFailure();
    return Set.rank(Node ? std::optional(Key[0]) : std::nullopt,
                    std::span(Key).subspan(Node));
  }

  void push(uint64_t First, uint64_t Last, const Value *Route) {
    if (!Out.empty() && Out.back().Last + 1 == First &&
        Out.back().Route == Route)
      Out.back().Last = Last;
    else
      Out.push_back({First, Last, Route});
  }

  const FtScenarioSet &Set;
  uint32_t U;
  const FailingPart &Part;
  std::vector<HitRange> &Out;
  /// Per key bit: its field, and its shift within the field's value.
  std::vector<uint32_t> FieldOf, ShiftOf;
  /// Per field: its largest value, and the Val slot bounding it below.
  std::vector<uint32_t> Bound, LowerBound;
  /// The prefix's field values, then a slot that stays zero.
  std::vector<uint32_t> Val;
  /// emit's least and greatest completions.
  std::vector<uint32_t> Least, Greatest;
  /// The last field's first bit.
  unsigned TailBit;
  /// Last-field values [Lo, Hi] that reach failing leaf Route.
  struct TailRange {
    uint32_t Lo, Hi;
    const Value *Route;
  };
  /// Every computed Tail, each sorted by value, adjacent intervals with
  /// one route joined.
  std::vector<TailRange> Tails;
  /// Per part node: its Tail in Tails, or None before its first arrival.
  std::vector<std::pair<uint32_t, uint32_t>> TailOf;
  /// Where the Tail being computed starts.
  uint32_t TailBegin = 0;
};

/// The heap-budget outcome of \p Count violations that were counted but
/// not listed, because \p Why.
RunOutcome unlisted(uint64_t Count, const std::string &Why) {
  return {RunStatus::HeapBudgetExceeded,
          std::to_string(Count) + " violations counted; listing them " + Why,
          ""};
}

} // namespace

struct FtChecker::ImplTy {
  std::shared_ptr<const FtScenarioSet> Scenarios;
  /// Roots the meta labels' diagrams for the checker's lifetime: the
  /// assert pre-pass interns fresh values, and if a collection fires the
  /// label roots must survive it.
  BddManager::RootSet MetaRoots;
  /// Every violation, sorted by (scenario, node).
  struct Hit {
    uint64_t Index;
    uint32_t Node;
    const Value *Route;
  };
  /// Mapped pages, like the MTBDD buffers: the next checker on this
  /// thread reuses them (support/PageAllocator.h).
  using HitVector = std::vector<Hit, PageAllocator<Hit>>;
  HitVector Hits;
  /// Every violation, counted before any is listed.
  uint64_t Count = 0;
  /// Ok, or why Hits stays empty: listing Count violations would pass the
  /// heap watermark, or failed to allocate.
  RunOutcome Listing;
  /// What a listed violation holds: its hit, and the FtViolation a caller
  /// copies it into.
  static constexpr size_t ListedBytes = sizeof(Hit) + sizeof(FtViolation);

  ImplTy(NvContext &Ctx, const Program &BaseProgram,
         ProtocolEvaluator &BaseEval, const SimResult &Meta,
         const FtOptions &Opts, ThreadPool *Pool)
      : Scenarios(std::make_shared<const FtScenarioSet>(BaseProgram, Opts)),
        MetaRoots(Ctx.Mgr) {
    const FtScenarioSet &Set = *Scenarios;
    uint32_t N = BaseProgram.numNodes();
    if (Set.size() == 0 || N == 0)
      return;
    for (uint32_t U = 0; U < N; ++U) {
      assert(Meta.Labels[U]->K == Value::Kind::Map &&
             "meta-labels must be dicts");
      MetaRoots.add(Meta.Labels[U]->MapRoot);
    }
    unsigned NodeBits = Ctx.Layout.nodeBits();
    assert(scenarioKeyWidth(Opts, NodeBits, Set.numLinks()) ==
               Meta.Labels[0]->KeyBits &&
           "scenario key width mismatch");

    // Serial pre-pass: evaluate the assert once per (node, distinct leaf)
    // — far fewer evaluations than once per (node, scenario), since MTBDD
    // sharing keeps the number of distinct routes per node tiny (Fig. 4).
    // The interpreter and the value arena are only touched here, which is
    // what makes the sharded walks below safe.
    std::vector<FailingPart> Parts;
    Parts.reserve(N);
    for (uint32_t U = 0; U < N; ++U)
      Parts.emplace_back(Ctx.Mgr, BaseEval, U, Meta.Labels[U]->MapRoot);

    // One walk per label diagram, each reading only its own failing part
    // and the set, so the nodes shard over the pool. Each node's ranges
    // come out in index order.
    std::vector<std::vector<HitRange>> PerNode(N);
    auto Walk = [&](size_t U) {
      if (Parts[U].Root != FailingPart::None)
        LeafWalk(Set, NodeBits, uint32_t(U), Parts[U], PerNode[U]).run();
    };
    if (Pool && Pool->numThreads() > 1)
      Pool->parallelFor(N, Walk);
    else
      for (uint32_t U = 0; U < N; ++U)
        Walk(U);
    for (const std::vector<HitRange> &Rs : PerNode)
      for (const HitRange &R : Rs)
        Count += R.Last - R.First + 1;
    size_t Limit = Governor::heapWatermark(), Bytes;
    if (Limit && (__builtin_mul_overflow(Count, ListedBytes, &Bytes) ||
                  Ctx.Mgr.memoryBytes() + Bytes > Limit)) {
      Listing = unlisted(Count, "needs more than the heap watermark of " +
                                    std::to_string(Limit) + " bytes");
      return;
    }
    try {
      merge(PerNode);
    } catch (const std::bad_alloc &) {
      HitVector().swap(Hits);
      Listing = unlisted(Count, "failed to allocate");
    }
  }

  /// Orders the per-node ranges' hits by (scenario, node): laid out node
  /// by node, each node's in scenario order, then stably sorted by
  /// scenario a byte at a time (LSD radix), which keeps the node order
  /// among a scenario's hits. Work and memory follow the hits.
  void merge(const std::vector<std::vector<HitRange>> &PerNode) {
    Hits.reserve(Count);
    for (uint32_t U = 0; U < PerNode.size(); ++U)
      for (const HitRange &R : PerNode[U])
        for (uint64_t I = R.First; I <= R.Last; ++I)
          Hits.push_back({I, U, R.Route});
    HitVector Into(Count);
    unsigned KeyBits = unsigned(std::bit_width(Scenarios->size() - 1));
    for (unsigned Shift = 0; Shift < KeyBits; Shift += 8) {
      std::array<size_t, 257> At{};
      for (const Hit &H : Hits)
        ++At[(H.Index >> Shift & 255) + 1];
      if (std::ranges::count(At, Count))
        continue; // one digit throughout: already in order
      for (size_t D = 1; D < At.size(); ++D)
        At[D] += At[D - 1];
      for (const Hit &H : Hits)
        Into[At[H.Index >> Shift & 255]++] = H;
      Hits.swap(Into);
    }
  }

  /// The hits of scenarios [Begin, End).
  std::span<const Hit> slice(uint64_t Begin, uint64_t End) const {
    auto ByIndex = [](const Hit &H, uint64_t I) { return H.Index < I; };
    auto B = std::lower_bound(Hits.begin(), Hits.end(), Begin, ByIndex);
    return {B, std::lower_bound(B, Hits.end(), End, ByIndex)};
  }

  FtViolation violation(const Hit &H) const {
    return {{Scenarios.get(), H.Index}, H.Node, H.Route, {}};
  }
};

FtChecker::FtChecker(NvContext &Ctx, const Program &BaseProgram,
                     ProtocolEvaluator &BaseEval, const SimResult &MetaResult,
                     const FtOptions &Opts, ThreadPool *Pool)
    : Impl(std::make_unique<ImplTy>(Ctx, BaseProgram, BaseEval, MetaResult,
                                    Opts, Pool)) {}

FtChecker::~FtChecker() = default;

const std::shared_ptr<const FtScenarioSet> &FtChecker::scenarios() const {
  return Impl->Scenarios;
}

uint64_t FtChecker::numViolations() const { return Impl->Count; }

const RunOutcome &FtChecker::listing() const { return Impl->Listing; }

void FtChecker::checkRange(uint64_t Begin, uint64_t End,
                           std::vector<FtViolation> &Out) const {
  for (const ImplTy::Hit &H : Impl->slice(Begin, End))
    Out.push_back(Impl->violation(H));
}

FtCheckResult nv::checkFaultTolerance(NvContext &Ctx,
                                      const Program &BaseProgram,
                                      ProtocolEvaluator &BaseEval,
                                      const SimResult &MetaResult,
                                      const FtOptions &Opts,
                                      ThreadPool *Pool) {
  FtChecker Checker(Ctx, BaseProgram, BaseEval, MetaResult, Opts, Pool);
  const auto &Scenarios = Checker.scenarios();
  FtCheckResult R;
  R.Scenarios = Scenarios;
  R.ScenariosChecked = Scenarios->size();
  R.Outcome = Checker.listing();
  if (R.Outcome.ok()) {
    try {
      R.Violations.reserve(Checker.numViolations());
    } catch (const std::bad_alloc &) {
      R.Outcome = unlisted(Checker.numViolations(), "failed to allocate");
    }
  }
  if (!R.Outcome.ok()) {
    R.UnlistedViolations = Checker.numViolations();
    return R;
  }
  Checker.checkRange(0, Scenarios->size(), R.Violations);
  return R;
}

//===----------------------------------------------------------------------===//
// PreparedFt
//===----------------------------------------------------------------------===//

std::unique_ptr<PreparedFt>
PreparedFt::create(NvContext &Ctx, const Program &Base, const FtOptions &Opts,
                   bool UseCompiledEvaluator, DiagnosticEngine &Diags) {
  auto Meta = makeFaultTolerantProgram(Base, Opts, Diags);
  return std::unique_ptr<PreparedFt>(
      Meta ? new PreparedFt(Ctx, Base, std::move(*Meta), UseCompiledEvaluator)
           : nullptr);
}

PreparedFt::PreparedFt(NvContext &Ctx, const Program &Base,
                       Program MetaProgram, bool UseCompiledEvaluator)
    : Ctx(Ctx), Base(Base), Meta(std::move(MetaProgram)),
      MetaEval(makeProgramEvaluator(Ctx, Meta, UseCompiledEvaluator)),
      BaseEval(Ctx, Base) {}

SimResult PreparedFt::simulate() {
  SimOptions SO;
  SO.Budget = RunBudget{}; // governed by the caller's scope instead
  return nv::simulate(Meta, *MetaEval, SO);
}

FtRunResult PreparedFt::run(const FtOptions &Opts, bool CheckAsserts) {
  FtRunResult Out;
  // Deltas, not totals: a reused manager's counters span earlier runs.
  uint64_t Hits0 = Ctx.Mgr.cacheHits(), Misses0 = Ctx.Mgr.cacheMisses();
  uint64_t KeyHits0 = Ctx.Mgr.keyMemoHits(),
           KeyMisses0 = Ctx.Mgr.keyMemoMisses();
  try {
    Stopwatch W;
    SimResult R = simulate();
    Out.SimulateMs = W.elapsedMs();
    Out.Converged = R.Converged;
    Out.Outcome = R.Outcome;
    Out.Stats = R.Stats;
    Out.CacheHits = Ctx.Mgr.cacheHits() - Hits0;
    Out.CacheMisses = Ctx.Mgr.cacheMisses() - Misses0;
    Out.KeyMemoHits = Ctx.Mgr.keyMemoHits() - KeyHits0;
    Out.KeyMemoMisses = Ctx.Mgr.keyMemoMisses() - KeyMisses0;
    if (R.Converged && CheckAsserts) {
      W.restart();
      ThreadPool Pool(Opts.Threads); // one thread spawns no worker
      Out.Check = checkFaultTolerance(Ctx, Base, BaseEval, R, Opts, &Pool);
      Out.CheckMs = W.elapsedMs();
      if (!Out.Check.Outcome.ok())
        Out.Outcome = Out.Check.Outcome;
    }
  } catch (const EngineError &E) {
    // A trip outside the simulator's own catch (e.g. the assert check).
    Out.Outcome = E.outcome();
  }
  return Out;
}

FtRunResult nv::runFaultTolerance(const Program &P, const FtOptions &Opts,
                                  bool UseCompiledEvaluator,
                                  DiagnosticEngine &Diags, bool CheckAsserts,
                                  NvContext *ReuseCtx) {
  FtRunResult Out;
  // One governor spans the whole analysis: the step budget counts the
  // meta-simulation's pops, and a deadline/cancellation also covers the
  // transform and the assert-check phases.
  Governor::Scope Guard(Opts.Budget);
  // Reuse mode collects the PREVIOUS run's garbage down to the caller's
  // pinned baseline now, at the start — so the previous FtRunResult's
  // route pointers stay valid until the next call on the same context.
  std::shared_ptr<NvContext> OwnCtx;
  bool Stopped = false; // tripped outside the simulator's own catch
  try {
    if (ReuseCtx)
      ReuseCtx->resetBetweenRuns();
    else
      OwnCtx = std::make_shared<NvContext>(P.numNodes());
    Stopwatch W;
    auto Prep = PreparedFt::create(ReuseCtx ? *ReuseCtx : *OwnCtx, P, Opts,
                                   UseCompiledEvaluator, Diags);
    double TransformMs = W.elapsedMs();
    if (Prep) {
      Out = Prep->run(Opts, CheckAsserts);
      // Converged yet stopped: the assert check tripped.
      Stopped = Out.Converged && !Out.Outcome.ok();
    } else {
      Out.Outcome = {RunStatus::EvalError, "fault-tolerance transform failed",
                     ""};
    }
    Out.TransformMs = TransformMs;
  } catch (const EngineError &E) {
    // A trip while preparing: context setup or evaluator construction.
    Out.Outcome = E.outcome();
    Stopped = true;
  }
  if (Stopped)
    Diags.error({}, "fault-tolerance analysis stopped: " + Out.Outcome.str());
  // Keep an owned context alive so Violation::Route pointers in the
  // returned result do not dangle.
  if (OwnCtx)
    Out.Check.RetainedContexts.push_back(std::move(OwnCtx));
  return Out;
}

namespace {

/// A fault-tolerance run's one unit, "f0".
UnitSweep ftSweep(const FtOptions &Opts) {
  return {.Count = 1, .Prefix = 'f', .Budget = Opts.Budget,
          .Retry = Opts.Retry, .Journal = Opts.Resume};
}

/// The worker of unit f0: runFaultTolerance into \p Slot, its diagnostics
/// into \p Diags, each attempt governed by the runner's scope alone. Its
/// record is the outcome fields and one "v" field per violation.
UnitWorker ftUnitWorker(const Program &P, const FtOptions &Opts, bool Native,
                        DiagnosticEngine &Diags, FtRunResult &Slot) {
  UnitWorker W;
  W.Run = [&P, &Opts, Native, &Diags, &Slot](size_t) {
    FtOptions Attempt = Opts;
    Attempt.Budget = RunBudget{};
    Attempt.Resume = nullptr;
    Diags.clear();
    Slot = runFaultTolerance(P, Attempt, Native, Diags);
    return Slot.Outcome;
  };
  W.Render = [&Slot](size_t I, unsigned Attempts) {
    UnitRecord Rec;
    Rec.Key = unitKey('f', I);
    addOutcome(Rec, RunOutcome(), Attempts);
    for (const FtViolation &V : Slot.Check.Violations)
      addViolationField(Rec, V);
    return Rec;
  };
  return W;
}

} // namespace

FtRunResult nv::runFtUnit(const Program &P, const FtOptions &Opts,
                          bool UseCompiledEvaluator, DiagnosticEngine &Diags,
                          const UnitExecutor &X) {
  FtRunResult Out;
  UnitSweep S = ftSweep(Opts);
  S.Restore = [&](size_t, const UnitRecord &Rec) {
    auto Scenarios = std::make_shared<const FtScenarioSet>(P, Opts);
    if (!parseViolationFields(Rec, *Scenarios, 0, Scenarios->size(),
                              Out.Check.Violations))
      return false;
    Out.Converged = true;
    Out.Check.ScenariosChecked = Scenarios->size();
    Out.Check.Scenarios = std::move(Scenarios);
    return true;
  };
  UnitsResult U = runUnits(S, X, [&](const auto &Serve) {
    UnitWorker W = ftUnitWorker(P, Opts, UseCompiledEvaluator, Diags, Out);
    Serve(W);
  });
  Out.Outcome = Out.Check.Outcome = U.First;
  Out.Check.RetriesPerformed = U.Retries;
  if (U.Replayed)
    Out.Check.ScenariosReplayed = Out.Check.ScenariosChecked;
  return Out;
}

int nv::ftFleetWorker(const Program &P, const FtOptions &Opts, bool Native) {
  DiagnosticEngine Diags;
  FtRunResult Slot;
  UnitSweep S = ftSweep(Opts);
  UnitWorker W = ftUnitWorker(P, Opts, Native, Diags, Slot);
  return serveFleetUnits(S, [&](size_t I) {
    UnitRecord Rec = runUnitRecord(S, W, I);
    Diags.printToStderr();
    return Rec;
  });
}
