//===- FaultTolerance.cpp - Fig. 5 fault-tolerance meta-protocol ------------===//

#include "analysis/FaultTolerance.h"

#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "support/Journal.h"
#include "support/Timer.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <map>
#include <memory>
#include <ranges>
#include <unordered_map>

using namespace nv;

namespace {

/// NV source of the scenario key type, with \p LinkTy per link field.
std::string keyTypeSource(const FtOptions &Opts, const std::string &LinkTy) {
  unsigned Components = Opts.LinkFailures + (Opts.NodeFailure ? 1 : 0);
  if (Components == 1 && !Opts.NodeFailure)
    return LinkTy;
  std::string S = "(";
  bool First = true;
  if (Opts.NodeFailure) {
    S += "node";
    First = false;
  }
  for (unsigned I = 0; I < Opts.LinkFailures; ++I) {
    if (!First)
      S += ", ";
    S += LinkTy;
    First = false;
  }
  return S + ")";
}

/// \p Base for rank 0, then Base1, Base2, ...
std::string ranked(const std::string &Base, size_t R) {
  return R ? Base + std::to_string(R) : Base;
}

/// NV source of the edge-to-link-index table: one `__ft_link<R>` function
/// per duplicate rank R (a link declared m times has m indices; rank R
/// names its R-th, or its last when it has fewer). Each matches the
/// edge's first endpoint, then its second, covering both orientations of
/// every link. \p Ranks receives the number of functions.
std::string linkTableSource(const Program &P, unsigned Bits, size_t &Ranks) {
  auto Links = P.links();
  std::map<uint32_t, std::map<uint32_t, std::vector<uint32_t>>> ByEnd;
  for (uint32_t I = 0; I < Links.size(); ++I) {
    auto [U, V] = Links[I];
    ByEnd[U][V].push_back(I);
    if (U != V)
      ByEnd[V][U].push_back(I);
  }
  Ranks = 1;
  for (const auto &[A, Ends] : ByEnd)
    for (const auto &[B, Is] : Ends)
      Ranks = std::max(Ranks, Is.size());
  std::string Int = std::to_string(Bits);
  // Trans only sees topology edges, so the fallback is never taken.
  std::string Fallback = "| _ -> 0u" + Int;
  std::string Src;
  for (size_t R = 0; R < Ranks; ++R) {
    Src += "\nlet " + ranked("__ft_link", R) + " (e : edge) : int" + Int +
           " =\n  let (ea, eb) = e in\n  match ea with\n";
    for (const auto &[A, Ends] : ByEnd) {
      Src += "  | " + std::to_string(A) + "n -> (match eb with";
      for (const auto &[B, Is] : Ends)
        Src += " | " + std::to_string(B) + "n -> " +
               std::to_string(Is[std::min(R, Is.size() - 1)]) + "u" + Int;
      Src += " " + Fallback + ")\n";
    }
    Src += "  " + Fallback + "\n";
  }
  return Src;
}

/// Destructures `key` into named components; returns the binder prelude
/// ("let (n, k0, k1) = key in ") and the component names.
std::string keyBinders(const FtOptions &Opts, std::string &NodeName,
                       std::vector<std::string> &LinkNames) {
  NodeName.clear();
  LinkNames.clear();
  for (unsigned I = 0; I < Opts.LinkFailures; ++I)
    LinkNames.push_back("__k" + std::to_string(I));
  if (!Opts.NodeFailure && Opts.LinkFailures == 1) {
    LinkNames[0] = "key";
    return "";
  }
  std::string Binder = "let (";
  bool First = true;
  if (Opts.NodeFailure) {
    NodeName = "__fn";
    Binder += NodeName;
    First = false;
  }
  for (const std::string &L : LinkNames) {
    if (!First)
      Binder += ", ";
    Binder += L;
    First = false;
  }
  return Binder + ") = key in ";
}

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

std::string dropSource(const TypePtr &RawTy) {
  TypePtr Ty = resolve(RawTy);
  if (Ty->Kind == TypeKind::Option)
    return "None";
  if (Ty->Kind != TypeKind::Dict)
    return "";
  std::string Inner = dropSource(Ty->Elems[1]);
  return Inner.empty() ? "" : "createDict (" + Inner + ")";
}

} // namespace

std::string nv::defaultDropSource(const TypePtr &AttrTy, std::string &Error) {
  std::string S = dropSource(AttrTy);
  if (S.empty())
    Error = "no drop value for attribute type " + typeToString(AttrTy) +
            ": one is derived only for option[..] attributes and dicts "
            "whose values have one";
  return S;
}

const Value *nv::defaultDropValue(NvContext &Ctx, const TypePtr &AttrTy) {
  std::string Error;
  if (defaultDropSource(AttrTy, Error).empty())
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

  size_t NumLinks = P.links().size();
  if (std::string E = scenarioSpaceError(NumLinks, P.numNodes(), Opts);
      !E.empty()) {
    Diags.error({}, E);
    return std::nullopt;
  }

  Program Base = renameSemanticDecls(P);
  std::string Src = printProgram(Base);

  unsigned Bits = linkIndexBits(NumLinks);
  std::string LinkTy = "int" + std::to_string(Bits);
  std::string K = keyTypeSource(Opts, LinkTy);
  std::string A = typeToString(P.AttrType);
  std::string Drop = Opts.DropValueSource;
  if (Drop.empty()) {
    std::string Error;
    Drop = defaultDropSource(P.AttrType, Error);
    if (Drop.empty()) {
      Diags.error({}, Error);
      return std::nullopt;
    }
  }

  std::string NodeName;
  std::vector<std::string> LinkNames;
  std::string Binders = keyBinders(Opts, NodeName, LinkNames);

  // Which link index (or indices, for a link declared more than once)
  // does directed edge e belong to? Bound once per trans call as __i<R>.
  size_t Ranks = 0;
  if (Opts.LinkFailures > 0)
    Src += linkTableSource(P, Bits, Ranks);
  std::string IdxParams, IdxArgs, IdxLets;
  for (size_t R = 0; R < Ranks; ++R) {
    std::string I = ranked("__i", R);
    IdxParams += " (" + I + " : " + LinkTy + ")";
    IdxArgs += " " + I;
    IdxLets += "  let " + I + " = " + ranked("__ft_link", R) + " e in\n";
  }

  // Predicate over keys: scenario affects edge e, whose link indices are
  // the __i parameters (failed link, or failed node adjacent to e).
  Src += "\nlet __ft_affects (key : " + K + ") (e : edge)" + IdxParams +
         " =\n  " + Binders;
  {
    std::string Cond;
    for (const std::string &L : LinkNames)
      for (size_t R = 0; R < Ranks; ++R) {
        if (!Cond.empty())
          Cond += " || ";
        Cond += L + " = " + ranked("__i", R);
      }
    if (!NodeName.empty()) {
      if (!Cond.empty())
        Cond += " || ";
      Cond += "(let (eu, ev) = e in " + NodeName + " = eu || " + NodeName +
              " = ev)";
    }
    Src += Cond + "\n";
  }

  // init: one copy of the base route per scenario; with node failures the
  // failed node originates nothing.
  if (NodeName.empty()) {
    Src += "\nlet init (u : node) : dict[" + K + ", " + A +
           "] = createDict (__base_init u)\n";
  } else {
    Src += "\nlet init (u : node) : dict[" + K + ", " + A + "] =\n"
           "  mapIte (fun (key : " + K + ") -> " + Binders + NodeName +
           " = u)\n"
           "         (fun (v : " + A + ") -> " + Drop + ")\n"
           "         (fun (v : " + A + ") -> v)\n"
           "         (createDict (__base_init u))\n";
  }

  // trans: Fig. 5's transFail, generalized to multi-failure keys.
  Src += "\nlet trans (e : edge) (x : dict[" + K + ", " + A + "]) =\n" +
         IdxLets + "  mapIte (fun (key : " + K + ") -> __ft_affects key e" +
         IdxArgs + ")\n"
         "         (fun (v : " + A + ") -> " + Drop + ")\n"
         "         (fun (v : " + A + ") -> __base_trans e v)\n"
         "         x\n";

  // merge: Fig. 5's mergeFail.
  Src += "\nlet merge (u : node) (x : dict[" + K + ", " + A +
         "]) (y : dict[" + K + ", " + A + "]) =\n"
         "  combine (__base_merge u) x y\n";

  auto Out = parseProgram(Src, Diags);
  if (!Out) {
    Diags.error({}, "internal: generated fault-tolerance program failed to "
                    "parse");
    return std::nullopt;
  }
  if (!typeCheck(*Out, Diags))
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

std::string FtChunks::key(size_t C) {
  std::string K = "c";
  K += std::to_string(C);
  return K;
}

std::vector<size_t> FtChunks::missing(const ResumeLog *Log,
                                      uint64_t &Replayed) const {
  std::vector<size_t> Out;
  Replayed = 0;
  for (size_t C = 0; C < count(); ++C) {
    if (Log && Log->isDone(key(C)))
      Replayed += end(C) - begin(C);
    else
      Out.push_back(C);
  }
  return Out;
}

bool nv::aggregateFtChunkRecords(
    const std::shared_ptr<const FtScenarioSet> &Scenarios, unsigned ChunkSize,
    const RecordLookup &Lookup, FtCheckResult &Out) {
  Out.Scenarios = Scenarios;
  FtChunks Chunks(Scenarios->size(), ChunkSize);
  for (size_t C = 0; C < Chunks.count(); ++C) {
    UnitRecord Rec;
    RunOutcome O;
    unsigned Attempts = 1;
    if (!Lookup(FtChunks::key(C), Rec) || !parseOutcome(Rec, O, Attempts) ||
        (O.ok() && !parseViolationFields(Rec, *Scenarios, Chunks.begin(C),
                                         Chunks.end(C), Out.Violations)))
      return false;
    Out.ScenariosChecked += Chunks.end(C) - Chunks.begin(C);
    if (!O.ok()) {
      // A quarantined (or otherwise skipped) chunk contributes no
      // violations — exactly like a skipped scenario in the naive paths.
      Out.ScenariosSkipped += Chunks.end(C) - Chunks.begin(C);
      if (Out.Outcome.ok())
        Out.Outcome = O;
    }
  }
  return true;
}

FtCheckResult nv::checkFaultTolerance(NvContext &Ctx,
                                      const Program &BaseProgram,
                                      ProtocolEvaluator &BaseEval,
                                      const SimResult &MetaResult,
                                      const FtOptions &Opts,
                                      ThreadPool *Pool) {
  FtCheckResult R;
  FtChecker Checker(Ctx, BaseProgram, BaseEval, MetaResult, Opts, Pool);
  const auto &Scenarios = Checker.scenarios();
  R.Scenarios = Scenarios;
  if (!Opts.Resume) {
    R.ScenariosChecked = Scenarios->size();
    R.Violations.reserve(Checker.numViolations());
    for (size_t I = 0; I < Scenarios->size(); ++I)
      Checker.checkScenario(I, R.Violations);
    return R;
  }

  // Checkpointed mode: the check is journaled in fixed chunks (one entry
  // per chunk keeps journal traffic sane at fig13 scales). The chunks the
  // journal lacks are sliced from the checker's result and recorded in
  // order, then journal and fresh records fold as a fleet run's do.
  // Cancellation stops between chunks; the fold ends at the first
  // unrecorded one, which re-runs on resume.
  ResumeLog &Log = *Opts.Resume;
  std::map<std::string, UnitRecord> Fresh;
  for (size_t C : Checker.chunks().missing(&Log, R.ScenariosReplayed)) {
    if (Opts.Budget.Cancel && Opts.Budget.Cancel->isCanceled())
      break;
    UnitRecord Rec = Checker.checkChunk(C);
    Log.recordDone(Rec);
    Fresh.emplace(Rec.Key, std::move(Rec));
  }
  bool Missing = false;
  auto Lookup = [&](const std::string &Key, UnitRecord &Rec) {
    if (auto It = Fresh.find(Key); It != Fresh.end()) {
      Rec = std::move(It->second);
      return true;
    }
    Missing = !Log.replay(Key, Rec);
    return !Missing;
  };
  if (!aggregateFtChunkRecords(Scenarios, Opts.CheckChunkSize, Lookup, R))
    R.Outcome = {Missing ? RunStatus::Canceled : RunStatus::EvalError,
                 Missing ? "fault-tolerance check canceled"
                         : "malformed chunk record in " + Log.path(),
                 ""};
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
