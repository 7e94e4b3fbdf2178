//===- FaultTolerance.cpp - Fig. 5 fault-tolerance meta-protocol ------------===//

#include "analysis/FaultTolerance.h"

#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "support/Journal.h"
#include "support/Timer.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <map>
#include <memory>
#include <ranges>
#include <stdexcept>
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

/// C(NumLinks + K - 1, K) link combinations with repetition (K =
/// LinkFailures), times NumNodes with a node failure; empty past
/// MaxFtScenarios. \p Combos receives the combinations.
std::optional<uint32_t> countScenarios(size_t NumLinks, uint32_t NumNodes,
                                       const FtOptions &Opts,
                                       uint64_t &Combos) {
  unsigned K = Opts.LinkFailures;
  Combos = K > 0 && NumLinks == 0 ? 0 : 1;
  // C(M + I, I) = C(M + I - 1, I - 1) * (M + I) / I, exactly, and it
  // never decreases with I, so the first value past the limit ends it.
  if (K > 0 && NumLinks > 1)
    for (uint64_t I = 1, M = NumLinks - 1; I <= K; ++I) {
      Combos = uint64_t((unsigned __int128)Combos * (M + I) / I);
      if (Combos > MaxFtScenarios)
        return std::nullopt;
    }
  uint64_t Count = Combos * (Opts.NodeFailure ? NumNodes : 1);
  if (Count > MaxFtScenarios)
    return std::nullopt;
  return uint32_t(Count);
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
    return "fault-tolerance analysis supports at most " +
           std::to_string(MaxFtScenarios) + " scenarios; " +
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
  // the __i parameters (failed link, or failed node adjacent to e).
  {
    std::vector<std::pair<std::string, TypePtr>> Params = {
        {"key", K}, {"e", Type::edgeTy()}};
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

  // trans: Fig. 5's transFail, generalized to multi-failure keys.
  std::vector<ExprPtr> AffectsArgs = {Expr::var("key"), Expr::var("e")};
  for (size_t R = 0; R < Ranks; ++R)
    AffectsArgs.push_back(Expr::var(ranked("__i", R)));
  ExprPtr Trans = Expr::oper(
      Op::MMapIte,
      {Lambda("key", K, App("__ft_affects", std::move(AffectsArgs))),
       DropFn(),
       Lambda("v", P.AttrType,
              App("__base_trans", {Expr::var("e"), Expr::var("v")})),
       Expr::var("x")});
  for (size_t R = Ranks; R-- > 0;)
    Trans = Expr::let(ranked("__i", R),
                      App(ranked("__ft_link", R), {Expr::var("e")}),
                      std::move(Trans));
  Out.Decls.push_back(funDecl(
      "trans", {{"e", Type::edgeTy()}, {"x", DictTy}}, std::move(Trans)));

  // merge: Fig. 5's mergeFail.
  Out.Decls.push_back(funDecl(
      "merge", {{"u", Type::nodeTy()}, {"x", DictTy}, {"y", DictTy}},
      Expr::oper(Op::MCombine, {App("__base_merge", {Expr::var("u")}),
                                Expr::var("x"), Expr::var("y")})));

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
                              size_t Begin, size_t End,
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
    Out.push_back({{&Set, uint32_t(Idx)}, uint32_t(Node), nullptr,
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
      NodeBits(BitLayout(NumNodes).nodeBits()),
      LinkBits(linkIndexBits(Links.size())) {
  if (std::string E = scenarioSpaceError(Links.size(), NumNodes, Opts);
      !E.empty())
    evalError(E);
  Count = *countScenarios(Links.size(), NumNodes, Opts, Combos);
  Words = (scenarioKeyWidth(Opts, NodeBits, Links.size()) + 63) / 64;
  Keys = std::make_unique_for_overwrite<uint64_t[]>(Count * Words);

  // Per node (when one fails), the combinations of link indices with
  // repetition: the non-decreasing sequences Cur, in lexicographic order.
  uint64_t *Out = Keys.get();
  std::vector<uint32_t> Cur(LinkFields);
  for (uint32_t U = 0; U < (NodeFailure ? NumNodes : 1); ++U) {
    std::fill(Cur.begin(), Cur.end(), 0);
    for (uint64_t C = 0; C < Combos; ++C) {
      packScenarioKey(NodeFailure ? std::optional(U) : std::nullopt, NodeBits,
                      Cur, LinkBits, Out);
      Out += Words;
      unsigned Pos = LinkFields;
      while (Pos > 0 && Cur[Pos - 1] + 1 == Links.size())
        --Pos;
      if (Pos == 0)
        break;
      ++Cur[Pos - 1];
      std::fill(Cur.begin() + Pos, Cur.end(), Cur[Pos - 1]);
    }
  }
  assert(Out == Keys.get() + Count * Words && "scenario count mismatch");
}

unsigned FtScenarioSet::firstDiff(size_t I, size_t J) const {
  for (size_t K = 0; K < Words; ++K)
    if (uint64_t X = Keys[I * Words + K] ^ Keys[J * Words + K])
      return unsigned(K * 64 + std::countl_zero(X));
  return ~0u;
}

uint32_t FtScenarioSet::linkIndex(size_t I, unsigned F) const {
  unsigned Pos = (NodeFailure ? NodeBits : 0) + F * LinkBits;
  size_t W = I * Words + Pos / 64;
  // A field is at most 26 bits wide, so it spans at most two words.
  unsigned __int128 Window = (unsigned __int128)Keys[W] << 64;
  if (Pos / 64 + 1 < Words)
    Window |= Keys[W + 1];
  return uint32_t(Window >> (128 - Pos % 64 - LinkBits)) &
         ((uint32_t(1) << LinkBits) - 1);
}

FtScenario FtScenarioSet::operator[](size_t I) const {
  FtScenario S;
  S.Node = node(I);
  S.Links.reserve(LinkFields);
  for (unsigned F = 0; F < LinkFields; ++F) {
    uint32_t X = linkIndex(I, F);
    S.Links.push_back({Links[X].first, Links[X].second, X, LinkBits});
  }
  return S;
}

std::string FtScenarioSet::str(size_t I) const {
  return scenarioStr(node(I), LinkFields,
                     [&](size_t F) { return Links[linkIndex(I, F)]; });
}

std::vector<FtScenario> nv::enumerateScenarios(const Program &P,
                                               const FtOptions &Opts) {
  FtScenarioSet Set(P, Opts);
  std::vector<FtScenario> Out;
  Out.reserve(Set.size());
  for (size_t I = 0; I < Set.size(); ++I)
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

void nv::packScenarioKey(std::optional<uint32_t> Node, unsigned NodeBits,
                         std::span<const uint32_t> LinkIndices,
                         unsigned LinkBits, uint64_t *Words) {
  // Acc holds the Fill < 64 bits not yet written. A field is at most 32
  // bits wide, so it completes at most one word.
  uint64_t Acc = 0;
  unsigned Fill = 0;
  auto Put = [&](uint64_t X, unsigned Bits) {
    if (Fill + Bits < 64) {
      Acc = Acc << Bits | X;
      Fill += Bits;
      return;
    }
    unsigned Rest = Fill + Bits - 64; // X's bits for the next word
    *Words++ = Acc << (64 - Fill) | X >> Rest;
    Acc = X & ((uint64_t(1) << Rest) - 1);
    Fill = Rest;
  };
  if (Node)
    Put(*Node, NodeBits);
  for (uint32_t L : LinkIndices)
    Put(L, LinkBits);
  if (Fill)
    *Words = Acc << (64 - Fill);
}

//===----------------------------------------------------------------------===//
// FtChecker
//===----------------------------------------------------------------------===//

namespace {

using Ref = BddManager::Ref;

/// The part of one node's label diagram that leads to a failing leaf,
/// copied into a flat array: subdiagrams without a failing leaf are cut
/// (None), so a descent never enters them.
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

  /// Maps the keys [Lo, Hi) through node \p Id and appends a
  /// (scenario, route) hit for every key that lands on a failing leaf.
  void descend(const FtScenarioSet &Keys, uint32_t Id, size_t Lo, size_t Hi,
               std::vector<std::pair<uint32_t, const Value *>> &Out) const {
    // Follow the diagram down through the bits the whole range agrees on.
    unsigned D = Keys.firstDiff(Lo, Hi - 1);
    while (Nodes[Id].Var < D) { // LeafVar is above any key bit
      const Node &Nd = Nodes[Id];
      Id = Keys.bit(Lo, Nd.Var) ? Nd.Hi : Nd.Lo;
      if (Id == None)
        return;
    }
    const Node &Nd = Nodes[Id];
    if (Nd.Var == BddManager::LeafVar) {
      for (size_t I = Lo; I < Hi; ++I)
        Out.emplace_back(uint32_t(I), Nd.Route);
      return;
    }
    // Split the range at bit D; a node testing a later bit serves both
    // halves.
    auto Range = std::views::iota(Lo, Hi);
    size_t Mid = Lo + (std::ranges::partition_point(
                           Range, [&](size_t I) { return !Keys.bit(I, D); }) -
                       Range.begin());
    uint32_t LoId = Id, HiId = Id;
    if (Nd.Var == D) {
      LoId = Nd.Lo;
      HiId = Nd.Hi;
    }
    if (LoId != None)
      descend(Keys, LoId, Lo, Mid, Out);
    if (HiId != None)
      descend(Keys, HiId, Mid, Hi, Out);
  }
};

} // namespace

struct FtChecker::ImplTy {
  std::shared_ptr<const FtScenarioSet> Scenarios;
  FtChunks Chunks;
  /// Roots the meta labels' diagrams for the checker's lifetime: the
  /// assert pre-pass interns fresh values, and if a collection fires the
  /// label roots must survive it.
  BddManager::RootSet MetaRoots;
  /// Every violation, sorted by (scenario, node): scenario I's are
  /// Hits[Offsets[I], Offsets[I + 1]).
  struct Hit {
    uint32_t Node;
    const Value *Route;
  };
  std::vector<Hit> Hits;
  std::vector<size_t> Offsets;

  ImplTy(NvContext &Ctx, const Program &BaseProgram,
         ProtocolEvaluator &BaseEval, const SimResult &Meta,
         const FtOptions &Opts, ThreadPool *Pool)
      : Scenarios(std::make_shared<const FtScenarioSet>(BaseProgram, Opts)),
        Chunks(Scenarios->size(), Opts.CheckChunkSize), MetaRoots(Ctx.Mgr) {
    const FtScenarioSet &Keys = *Scenarios;
    uint32_t N = BaseProgram.numNodes();
    Offsets.assign(Keys.size() + 1, 0);
    if (Keys.size() == 0 || N == 0)
      return;
    for (uint32_t U = 0; U < N; ++U) {
      assert(Meta.Labels[U]->K == Value::Kind::Map &&
             "meta-labels must be dicts");
      MetaRoots.add(Meta.Labels[U]->MapRoot);
    }

    // Serial pre-pass: evaluate the assert once per (node, distinct leaf)
    // — far fewer evaluations than once per (node, scenario), since MTBDD
    // sharing keeps the number of distinct routes per node tiny (Fig. 4).
    // The interpreter and the value arena are only touched here, which is
    // what makes the sharded descents below safe.
    std::vector<FailingPart> Parts;
    Parts.reserve(N);
    for (uint32_t U = 0; U < N; ++U)
      Parts.emplace_back(Ctx.Mgr, BaseEval, U, Meta.Labels[U]->MapRoot);

    // The set's keys were packed straight from node ids and link indices
    // (no interning), already in key order.
    assert(scenarioKeyWidth(Opts, Ctx.Layout.nodeBits(),
                            BaseProgram.links().size()) ==
               Meta.Labels[0]->KeyBits &&
           "scenario key width mismatch");
    for (size_t I = 1; I < Keys.size(); ++I) {
      // At the first bit where neighbours differ, the earlier key has a 0.
      [[maybe_unused]] unsigned D = Keys.firstDiff(I - 1, I);
      assert((D == ~0u || !Keys.bit(I - 1, D)) &&
             "scenarios must come out in key order");
    }

    // One descent per label diagram, each reading only its own failing
    // part and the keys, so the nodes shard over the pool.
    std::vector<std::vector<std::pair<uint32_t, const Value *>>> PerNode(N);
    auto Descend = [&](size_t U) {
      if (Parts[U].Root != FailingPart::None)
        Parts[U].descend(Keys, Parts[U].Root, 0, Keys.size(), PerNode[U]);
    };
    if (Pool && Pool->numThreads() > 1)
      Pool->parallelFor(N, Descend);
    else
      for (uint32_t U = 0; U < N; ++U)
        Descend(U);

    // Counting sort by scenario, in place: Offsets[S] counts scenario S's
    // hits, then (prefix sums) marks their end. Each node holds at most
    // one hit per scenario, so filling the slots back to front with the
    // nodes in reverse leaves them in node order and Offsets[S] at their
    // start. A failed node asserts nothing.
    auto Exempt = [&](uint32_t S, uint32_t U) { return Keys.node(S) == U; };
    for (uint32_t U = 0; U < N; ++U)
      for (const auto &[S, Route] : PerNode[U])
        if (!Exempt(S, U))
          ++Offsets[S];
    for (size_t I = 1; I <= Keys.size(); ++I)
      Offsets[I] += Offsets[I - 1];
    Hits.resize(Offsets.back());
    for (uint32_t U = N; U-- > 0;)
      for (const auto &[S, Route] : PerNode[U])
        if (!Exempt(S, U))
          Hits[--Offsets[S]] = {U, Route};
  }

  FtViolation violation(size_t I, size_t H) const {
    return {{Scenarios.get(), uint32_t(I)}, Hits[H].Node, Hits[H].Route, {}};
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

const FtChunks &FtChecker::chunks() const { return Impl->Chunks; }

size_t FtChecker::numViolations() const { return Impl->Hits.size(); }

void FtChecker::checkScenario(size_t I, std::vector<FtViolation> &Out) const {
  for (size_t H = Impl->Offsets[I]; H < Impl->Offsets[I + 1]; ++H)
    Out.push_back(Impl->violation(I, H));
}

UnitRecord FtChecker::checkChunk(size_t C) const {
  UnitRecord Rec;
  Rec.Key = FtChunks::key(C);
  Rec.add("status", "ok");
  for (size_t I = Impl->Chunks.begin(C); I < Impl->Chunks.end(C); ++I)
    for (size_t H = Impl->Offsets[I]; H < Impl->Offsets[I + 1]; ++H)
      addViolationField(Rec, Impl->violation(I, H));
  return Rec;
}

FtChunks::FtChunks(size_t NumScenarios, unsigned ChunkSize)
    : NumScenarios(NumScenarios),
      Size(ChunkSize ? ChunkSize : FtOptions{}.CheckChunkSize) {}

std::string FtChunks::key(size_t C) { return unitKey('c', C); }

namespace {

/// The chunked check's units: one per chunk, keyed "c<C>".
UnitSweep chunkSweep(const FtChunks &Chunks, const FtOptions &Opts) {
  return {.Count = Chunks.count(), .Prefix = 'c', .Budget = Opts.Budget,
          .Retry = Opts.Retry, .Journal = Opts.Resume};
}

} // namespace

FtCheckResult
nv::checkFtChunks(const std::shared_ptr<const FtScenarioSet> &Scenarios,
                  const FtOptions &Opts, const UnitExecutor &X,
                  const FtChecker *Checker) {
  FtChunks Chunks(Scenarios->size(), Opts.CheckChunkSize);
  std::vector<std::vector<FtViolation>> Slots(Chunks.count());
  UnitSweep S = chunkSweep(Chunks, Opts);
  S.Restore = [&](size_t C, const UnitRecord &Rec) {
    return parseViolationFields(Rec, *Scenarios, Chunks.begin(C),
                                Chunks.end(C), Slots[C]);
  };
  UnitsResult U = runUnits(S, X, [&](const auto &Serve) {
    UnitWorker W;
    W.Run = [&](size_t C) {
      Slots[C].clear();
      for (size_t I = Chunks.begin(C); I < Chunks.end(C); ++I)
        Checker->checkScenario(I, Slots[C]);
      return RunOutcome();
    };
    W.Render = [&](size_t C, unsigned) { return Checker->checkChunk(C); };
    Serve(W);
  });

  // Fold in chunk order. A skipped chunk (e.g. a quarantined poison
  // chunk) contributes no violations, like a skipped naive scenario; a
  // canceled chunk was never checked.
  FtCheckResult R;
  R.Scenarios = Scenarios;
  R.RetriesPerformed = U.Retries;
  R.Outcome = U.First;
  for (size_t C = 0; C < Chunks.count(); ++C) {
    const UnitResult &Unit = U.Units[C];
    size_t N = Chunks.end(C) - Chunks.begin(C);
    if (Unit.Replayed)
      R.ScenariosReplayed += N;
    if (Unit.Outcome.Status == RunStatus::Canceled)
      continue;
    R.ScenariosChecked += N;
    if (!Unit.Outcome.ok())
      R.ScenariosSkipped += N;
    R.Violations.insert(R.Violations.end(), Slots[C].begin(), Slots[C].end());
  }
  return R;
}

int nv::ftFleetWorker(const Program &P, const FtOptions &Opts, bool Native) {
  // The meta-simulation is rebuilt lazily on the first job — a spare
  // worker that never gets one costs nothing, and a respawned worker only
  // pays the cost when it actually has work. The coordinator ran the same
  // (deterministic) transform + simulation before spawning the fleet, so
  // a converged run is guaranteed here.
  std::optional<NvContext> Ctx;
  std::unique_ptr<PreparedFt> Prep;
  SimResult Sim;
  std::unique_ptr<FtChecker> Checker;
  FtChunks Chunks(FtScenarioSet(P, Opts).size(), Opts.CheckChunkSize);
  return serveFleetUnits(chunkSweep(Chunks, Opts), [&](size_t C) {
    if (!Checker) {
      Governor::Scope Guard(Opts.Budget);
      DiagnosticEngine Diags;
      Ctx.emplace(P.numNodes());
      Prep = PreparedFt::create(*Ctx, P, Opts, Native, Diags);
      if (!Prep)
        throw std::runtime_error("ft worker: transform failed:\n" +
                                 Diags.str());
      Sim = Prep->simulate();
      if (!Sim.Converged)
        throw std::runtime_error("ft worker: meta-simulation did not "
                                 "converge: " +
                                 Sim.Outcome.str());
      Checker = std::make_unique<FtChecker>(*Ctx, P, Prep->baseEval(), Sim,
                                            Opts);
    }
    return Checker->checkChunk(C);
  });
}

FtCheckResult nv::checkFaultTolerance(NvContext &Ctx,
                                      const Program &BaseProgram,
                                      ProtocolEvaluator &BaseEval,
                                      const SimResult &MetaResult,
                                      const FtOptions &Opts,
                                      ThreadPool *Pool) {
  FtChecker Checker(Ctx, BaseProgram, BaseEval, MetaResult, Opts, Pool);
  const auto &Scenarios = Checker.scenarios();
  // Checkpointed mode: the check is journaled in fixed chunks (one entry
  // per chunk keeps journal traffic sane at fig13 scales), sliced from
  // the checker's result on the calling thread.
  if (Opts.Resume)
    return checkFtChunks(Scenarios, Opts, UnitExecutor(), &Checker);
  FtCheckResult R;
  R.Scenarios = Scenarios;
  R.ScenariosChecked = Scenarios->size();
  R.Violations.reserve(Checker.numViolations());
  for (size_t I = 0; I < Scenarios->size(); ++I)
    Checker.checkScenario(I, R.Violations);
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
      MetaEval(UseCompiledEvaluator
                   ? std::unique_ptr<ProtocolEvaluator>(
                         std::make_unique<CompiledProgramEvaluator>(Ctx, Meta))
                   : std::make_unique<InterpProgramEvaluator>(Ctx, Meta)),
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
  try {
    Stopwatch W;
    SimResult R = simulate();
    Out.SimulateMs = W.elapsedMs();
    Out.Converged = R.Converged;
    Out.Outcome = R.Outcome;
    Out.Stats = R.Stats;
    Out.CacheHits = Ctx.Mgr.cacheHits() - Hits0;
    Out.CacheMisses = Ctx.Mgr.cacheMisses() - Misses0;
    if (R.Converged && CheckAsserts) {
      W.restart();
      ThreadPool Pool(Opts.Threads); // one thread spawns no worker
      Out.Check = checkFaultTolerance(Ctx, Base, BaseEval, R, Opts, &Pool);
      Out.CheckMs = W.elapsedMs();
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
