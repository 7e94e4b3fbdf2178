//===- InstanceGen.cpp - Random NV instance generator -------------------------===//

#include "fuzz/InstanceGen.h"

#include "frontend/Config.h"
#include "frontend/Translate.h"
#include "fuzz/Rng.h"
#include "net/Topology.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace nv;

const char *nv::topoKindName(TopoKind K) {
  switch (K) {
  case TopoKind::FatTree:
    return "fattree";
  case TopoKind::Wan:
    return "wan";
  case TopoKind::Ring:
    return "ring";
  case TopoKind::Chord:
    return "chord";
  }
  return "?";
}

const char *nv::policyKindName(PolicyKind K) {
  switch (K) {
  case PolicyKind::SpOption:
    return "sp-option";
  case PolicyKind::SpWeights:
    return "sp-weights";
  case PolicyKind::TupleLex:
    return "tuple-lex";
  case PolicyKind::RecordBgp:
    return "record-bgp";
  case PolicyKind::DictReach:
    return "dict-reach";
  case PolicyKind::RouteMapCfg:
    return "route-map-cfg";
  }
  return "?";
}

namespace {

using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

EdgeList normalized(EdgeList E) {
  for (auto &[A, B] : E)
    if (A > B)
      std::swap(A, B);
  std::sort(E.begin(), E.end());
  E.erase(std::unique(E.begin(), E.end()), E.end());
  E.erase(std::remove_if(E.begin(), E.end(),
                         [](const auto &L) { return L.first == L.second; }),
          E.end());
  return E;
}

//===----------------------------------------------------------------------===//
// Topology builders
//===----------------------------------------------------------------------===//

EdgeList wanEdges(FuzzRng &R, uint32_t N) {
  EdgeList E;
  // Usually a random spanning tree plus extras (connected); sometimes a
  // pure G(n,m) draw that may leave nodes unreachable — verdict-relevant
  // asserts must still agree across engines on disconnected inputs.
  if (R.chance(75)) {
    for (uint32_t U = 1; U < N; ++U)
      E.push_back({static_cast<uint32_t>(R.below(U)), U});
  }
  uint32_t Extra = static_cast<uint32_t>(R.range(1, N / 2 + 2));
  for (uint32_t I = 0; I < Extra; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    if (A != B)
      E.push_back({A, B});
  }
  return E;
}

EdgeList ringEdges(uint32_t N) {
  EdgeList E;
  for (uint32_t U = 0; U < N; ++U)
    E.push_back({U, (U + 1) % N});
  return E;
}

EdgeList chordEdges(FuzzRng &R, uint32_t N) {
  EdgeList E = ringEdges(N);
  uint32_t Chords = N / 3;
  for (uint32_t I = 0; I < Chords; ++I) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t Span = static_cast<uint32_t>(R.range(2, N - 2));
    E.push_back({A, (A + Span) % N});
  }
  return E;
}

std::string nodeLit(uint32_t U) { return std::to_string(U) + "n"; }

std::string topoDecls(const FuzzSpec &S) {
  Topology T;
  T.NumNodes = S.NumNodes;
  T.Links = S.Edges;
  return T.toNvDecls();
}

//===----------------------------------------------------------------------===//
// Policy renderers
//===----------------------------------------------------------------------===//

std::string optionIntMerge(const char *Ty) {
  return std::string("let merge (u : node) (x : ") + Ty + ") (y : " + Ty +
         ") =\n"
         "  match x, y with\n"
         "  | _, None -> x\n"
         "  | None, _ -> y\n"
         "  | Some a, Some b -> if a <= b then x else y\n";
}

std::string spAssert(const FuzzSpec &S) {
  std::string Body = S.AssertBound
                         ? "Some d -> d <= " + std::to_string(S.AssertBound)
                         : "Some d -> true";
  return "let assert (u : node) (x : option[int]) =\n"
         "  match x with | None -> false | " + Body + "\n";
}

std::string renderSpOption(const FuzzSpec &S) {
  std::string Step =
      S.HopCap ? "if d + 1 > " + std::to_string(S.HopCap) +
                     " then None else Some (d + 1)"
               : "Some (d + 1)";
  return topoDecls(S) +
         "let init (u : node) = match u with | " + nodeLit(S.Dest) +
         " -> Some 0 | _ -> None\n"
         "let trans (e : edge) (x : option[int]) =\n"
         "  match x with | None -> None | Some d -> " + Step + "\n" +
         optionIntMerge("option[int]") + spAssert(S);
}

std::string renderSpWeights(const FuzzSpec &S) {
  std::string Cost = "let costOf (u : node) (v : node) =\n  match u, v with\n";
  for (size_t I = 0; I < S.Edges.size(); ++I) {
    auto [A, B] = S.Edges[I];
    std::string C = std::to_string(S.EdgeCosts[I]);
    Cost += "  | " + nodeLit(A) + ", " + nodeLit(B) + " -> " + C + "\n";
    Cost += "  | " + nodeLit(B) + ", " + nodeLit(A) + " -> " + C + "\n";
  }
  Cost += "  | _, _ -> 1\n";
  return topoDecls(S) + Cost +
         "let init (u : node) = match u with | " + nodeLit(S.Dest) +
         " -> Some 0 | _ -> None\n"
         "let trans (e : edge) (x : option[int]) =\n"
         "  let (u, v) = e in\n"
         "  match x with | None -> None | Some d -> Some (d + costOf u v)\n" +
         optionIntMerge("option[int]") + spAssert(S);
}

std::string renderTupleLex(const FuzzSpec &S) {
  std::string Bound =
      S.AssertBound ? "Some p -> (let (a, b) = p in a <= " +
                          std::to_string(S.AssertBound) + ")"
                    : "Some p -> true";
  return topoDecls(S) +
         "let init (u : node) = match u with | " + nodeLit(S.Dest) +
         " -> Some (0, 0) | _ -> None\n"
         "let trans (e : edge) (x : option[(int, int)]) =\n"
         "  match x with\n"
         "  | None -> None\n"
         "  | Some p -> let (a, b) = p in Some (a + " +
         std::to_string(S.StrideA) + ", b + " + std::to_string(S.StrideB) +
         ")\n"
         "let merge (u : node) (x : option[(int, int)]) "
         "(y : option[(int, int)]) =\n"
         "  match x, y with\n"
         "  | _, None -> x\n"
         "  | None, _ -> y\n"
         "  | Some p1, Some p2 ->\n"
         "    let (a1, b1) = p1 in\n"
         "    let (a2, b2) = p2 in\n"
         "    if a1 < a2 then x\n"
         "    else if a2 < a1 then y\n"
         "    else if b1 <= b2 then x else y\n"
         "let assert (u : node) (x : option[(int, int)]) =\n"
         "  match x with | None -> false | " + Bound + "\n";
}

/// Per-node table function `let NAME (u : node) = match u with ...`.
std::string nodeTable(const std::string &Name,
                      const std::vector<uint32_t> &Vals,
                      const std::string &Default) {
  std::string S = "let " + Name + " (u : node) =\n  match u with\n";
  for (uint32_t U = 0; U < Vals.size(); ++U)
    S += "  | " + nodeLit(U) + " -> " + std::to_string(Vals[U]) + "\n";
  return S + "  | _ -> " + Default + "\n";
}

std::string nodeFlags(const std::string &Name,
                      const std::vector<uint8_t> &Flags) {
  std::string S = "let " + Name + " (u : node) =\n  match u with\n";
  for (uint32_t U = 0; U < Flags.size(); ++U)
    if (Flags[U])
      S += "  | " + nodeLit(U) + " -> true\n";
  return S + "  | _ -> false\n";
}

std::string renderRecordBgp(const FuzzSpec &S) {
  std::string D = nodeLit(S.Dest);
  return "include bgp\n" + topoDecls(S) +
         nodeTable("medOf", S.Meds, "0") + nodeFlags("isHubN", S.Hubs) +
         nodeFlags("isFilterN", S.FilterNodes) +
         "let trans (e : edge) (x : attribute) =\n"
         "  let (u, v) = e in\n"
         "  match transBgp e x with\n"
         "  | None -> None\n"
         "  | Some b ->\n"
         "    if isFilterN v && b.comms[7] then None\n"
         "    else\n"
         "      let t = if isHubN u then {b with comms = b.comms[7 := true]} "
         "else b in\n"
         "      Some {t with med = medOf v}\n"
         "let merge u x y = mergeBgp u x y\n"
         "let init (u : node) =\n"
         "  match u with\n"
         "  | " + D + " -> Some {length = 0; lp = 100; med = 0; comms = {}; "
         "origin = " + D + "}\n"
         "  | _ -> None\n"
         "let assert (u : node) (x : attribute) =\n"
         "  match x with | None -> false | Some b -> true\n";
}

std::string renderDictReach(const FuzzSpec &S) {
  std::string Src = topoDecls(S);
  Src += "type attribute = dict[int16, option[int16]]\n";
  Src += "let init (u : node) =\n"
         "  let base : attribute = createDict None in\n"
         "  match u with\n";
  for (size_t I = 0; I < S.Announcers.size(); ++I)
    Src += "  | " + nodeLit(S.Announcers[I]) + " -> base[" +
           std::to_string(I) + "u16 := Some 0u16]\n";
  Src += "  | _ -> base\n";
  Src += "let trans (e : edge) (x : attribute) =\n"
         "  map (fun w -> match w with | None -> None "
         "| Some d -> Some (d + 1u16)) x\n"
         "let merge (u : node) (x : attribute) (y : attribute) =\n"
         "  combine (fun a b ->\n"
         "    match a, b with\n"
         "    | _, None -> a\n"
         "    | None, _ -> b\n"
         "    | Some d1, Some d2 -> if d1 <= d2 then a else b) x y\n"
         "let assert (u : node) (x : attribute) =\n"
         "  match x[0u16] with | None -> false | Some d -> true\n";
  return Src;
}

//===----------------------------------------------------------------------===//
// RouteMapCfg: vendor configuration text + frontend translation
//===----------------------------------------------------------------------===//

std::string routerName(uint32_t U) {
  std::string S = "R";
  S += std::to_string(U);
  return S;
}

Prefix destPrefix(const FuzzSpec &S) {
  Prefix P;
  P.Addr = (10u << 24) | ((S.Dest & 0xFF) << 8);
  P.Len = 24;
  return P;
}

std::string prefixText(uint32_t Router) {
  return "10.0." + std::to_string(Router & 0xFF) + ".0/24";
}

std::string renderConfigText(const FuzzSpec &S) {
  // Interface-neighbor lists per router (symmetric, sorted by the
  // normalized edge order, so the text is a pure function of the spec).
  std::vector<std::vector<uint32_t>> Nbrs(S.NumNodes);
  for (auto [A, B] : S.Edges) {
    Nbrs[A].push_back(B);
    Nbrs[B].push_back(A);
  }
  for (auto &V : Nbrs) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  }

  static const uint32_t CommVals[] = {55, 77};

  std::string Cfg;
  for (uint32_t U = 0; U < S.NumNodes; ++U) {
    Cfg += "router " + routerName(U) + "\n";
    for (uint32_t V : Nbrs[U])
      Cfg += "interface neighbor " + routerName(V) + "\n";
    if (U == S.Dest || (U > 0 && U <= S.ExtraOrigins && U != S.Dest))
      Cfg += "ip route " + prefixText(U) + "\n";

    // Route-map attachments of this router, with the lists they match on.
    std::string Maps, Lists, BgpNbrs;
    std::set<std::string> Declared;
    unsigned MapIdx = 0;
    for (const RmSpec &RM : S.RouteMaps) {
      if (RM.Router != U || Nbrs[U].empty())
        continue;
      uint32_t Peer = Nbrs[U][RM.NeighborIdx % Nbrs[U].size()];
      std::string MapName = "RM" + std::to_string(U) + "_" +
                            std::to_string(MapIdx++);
      BgpNbrs += "neighbor " + routerName(Peer) + " route-map " + MapName +
                 (RM.In ? " in\n" : " out\n");
      int Seq = 10;
      for (const RmClauseSpec &C : RM.Clauses) {
        Maps += "route-map " + MapName + (C.Permit ? " permit " : " deny ") +
                std::to_string(Seq) + "\n";
        Seq += 10;
        if (C.MatchComm) {
          std::string L = "cl" + std::to_string(C.MatchComm);
          if (Declared.insert(L).second)
            Lists += "ip community-list " + L + " permit " +
                     std::to_string(CommVals[(C.MatchComm - 1) % 2]) + "\n";
          Maps += "match community " + L + "\n";
        }
        if (C.MatchPfx) {
          std::string L = "pl" + std::to_string(C.MatchPfx);
          if (Declared.insert(L).second)
            Lists += "ip prefix-list " + L + " permit " +
                     prefixText(C.MatchPfx == 1 ? S.Dest : 0) + "\n";
          Maps += "match ip address prefix-list " + L + "\n";
        }
        if (C.SetComm)
          Maps += "set community " +
                  std::to_string(CommVals[(C.SetComm - 1) % 2]) + "\n";
        if (C.SetMetric)
          Maps += "set metric " + std::to_string(C.SetMetric) + "\n";
      }
    }
    if (!BgpNbrs.empty())
      Cfg += "router bgp " + std::to_string(U + 1) + "\n" + BgpNbrs;
    Cfg += Lists + Maps;
  }
  return Cfg;
}

std::string renderRouteMapCfg(const FuzzSpec &S, DiagnosticEngine &Diags,
                              std::string &ConfigOut) {
  ConfigOut = renderConfigText(S);
  auto Net = parseConfigs(ConfigOut, Diags);
  if (!Net)
    return "";
  auto T = translateConfigs(*Net, Diags);
  if (!T)
    return "";
  return T->NvSource + nvAssertReachable(destPrefix(S));
}

} // namespace

//===----------------------------------------------------------------------===//
// Seed expansion
//===----------------------------------------------------------------------===//

FuzzSpec nv::specFromSeed(uint64_t Seed) {
  FuzzRng R(Seed);
  FuzzSpec S;
  S.Seed = Seed;

  uint64_t P = R.below(100);
  S.Policy = P < 25   ? PolicyKind::SpOption
             : P < 40 ? PolicyKind::SpWeights
             : P < 55 ? PolicyKind::TupleLex
             : P < 70 ? PolicyKind::RecordBgp
             : P < 85 ? PolicyKind::DictReach
                      : PolicyKind::RouteMapCfg;

  // RouteMapCfg stays off FatTree (20-router configs translate to large
  // RIB programs; WAN/ring/chord keep the frontend leg fast).
  bool AllowFat = S.Policy != PolicyKind::RouteMapCfg && R.chance(15);
  if (AllowFat) {
    S.Topo = TopoKind::FatTree;
    FatTree FT(4);
    S.NumNodes = FT.numNodes();
    S.Edges = normalized(FT.topology().Links);
  } else {
    uint64_t T = R.below(3);
    if (T == 0) {
      S.Topo = TopoKind::Wan;
      S.NumNodes = static_cast<uint32_t>(R.range(4, 12));
      S.Edges = normalized(wanEdges(R, S.NumNodes));
    } else if (T == 1) {
      S.Topo = TopoKind::Ring;
      S.NumNodes = static_cast<uint32_t>(R.range(3, 10));
      S.Edges = normalized(ringEdges(S.NumNodes));
    } else {
      S.Topo = TopoKind::Chord;
      S.NumNodes = static_cast<uint32_t>(R.range(6, 12));
      S.Edges = normalized(chordEdges(R, S.NumNodes));
    }
  }
  if (S.Edges.empty())
    S.Edges.push_back({0, 1 % std::max<uint32_t>(S.NumNodes, 2)});
  if (S.NumNodes < 2)
    S.NumNodes = 2;
  S.Dest = static_cast<uint32_t>(R.below(S.NumNodes));

  switch (S.Policy) {
  case PolicyKind::SpOption:
    if (R.chance(40))
      S.HopCap = static_cast<uint32_t>(R.range(1, S.NumNodes));
    if (R.chance(50))
      S.AssertBound = static_cast<uint32_t>(R.range(1, S.NumNodes + 2));
    break;
  case PolicyKind::SpWeights:
    for (size_t I = 0; I < S.Edges.size(); ++I)
      S.EdgeCosts.push_back(static_cast<uint32_t>(R.range(1, 9)));
    if (R.chance(40))
      S.AssertBound = static_cast<uint32_t>(R.range(1, 4 * S.NumNodes));
    break;
  case PolicyKind::TupleLex:
    S.StrideA = static_cast<uint32_t>(R.range(1, 3));
    S.StrideB = static_cast<uint32_t>(R.range(0, 4));
    if (R.chance(50))
      S.AssertBound = static_cast<uint32_t>(R.range(1, 3 * S.NumNodes));
    break;
  case PolicyKind::RecordBgp:
    for (uint32_t U = 0; U < S.NumNodes; ++U) {
      S.Meds.push_back(static_cast<uint32_t>(R.range(10, 99)));
      S.Hubs.push_back(R.chance(20) ? 1 : 0);
      S.FilterNodes.push_back(R.chance(15) ? 1 : 0);
    }
    break;
  case PolicyKind::DictReach: {
    uint32_t N = static_cast<uint32_t>(R.range(1, 4));
    std::set<uint32_t> Seen;
    S.Announcers.push_back(S.Dest); // prefix 0: the assert's target
    Seen.insert(S.Dest);
    for (uint32_t I = 1; I < N; ++I) {
      uint32_t A = static_cast<uint32_t>(R.below(S.NumNodes));
      if (Seen.insert(A).second)
        S.Announcers.push_back(A);
    }
    break;
  }
  case PolicyKind::RouteMapCfg: {
    S.ExtraOrigins = static_cast<uint32_t>(R.below(2));
    uint32_t NumMaps = static_cast<uint32_t>(R.range(0, 3));
    for (uint32_t I = 0; I < NumMaps; ++I) {
      RmSpec RM;
      RM.Router = static_cast<uint32_t>(R.below(S.NumNodes));
      RM.NeighborIdx = static_cast<uint32_t>(R.below(4));
      RM.In = R.chance(50);
      uint32_t NumClauses = static_cast<uint32_t>(R.range(1, 3));
      for (uint32_t C = 0; C < NumClauses; ++C) {
        RmClauseSpec Cl;
        Cl.Permit = !R.chance(25);
        if (R.chance(50))
          Cl.MatchComm = static_cast<uint8_t>(R.range(1, 2));
        if (R.chance(30))
          Cl.MatchPfx = static_cast<uint8_t>(R.range(1, 2));
        if (R.chance(40))
          Cl.SetComm = static_cast<uint8_t>(R.range(1, 2));
        if (R.chance(40))
          Cl.SetMetric = static_cast<uint8_t>(R.range(1, 50));
        RM.Clauses.push_back(Cl);
      }
      S.RouteMaps.push_back(RM);
    }
    break;
  }
  }
  return S;
}

FuzzInstance nv::renderSpec(const FuzzSpec &Spec, DiagnosticEngine &Diags) {
  FuzzInstance I;
  I.Spec = Spec;

  char SeedHex[32];
  std::snprintf(SeedHex, sizeof(SeedHex), "0x%016llx",
                static_cast<unsigned long long>(Spec.Seed));
  I.Name = std::string(policyKindName(Spec.Policy)) + "/" +
           topoKindName(Spec.Topo) + " n=" + std::to_string(Spec.NumNodes) +
           " e=" + std::to_string(Spec.Edges.size()) + " seed=" + SeedHex;

  switch (Spec.Policy) {
  case PolicyKind::SpOption:
    I.NvSource = renderSpOption(Spec);
    break;
  case PolicyKind::SpWeights:
    I.NvSource = renderSpWeights(Spec);
    break;
  case PolicyKind::TupleLex:
    I.NvSource = renderTupleLex(Spec);
    break;
  case PolicyKind::RecordBgp:
    I.NvSource = renderRecordBgp(Spec);
    break;
  case PolicyKind::DictReach:
    I.NvSource = renderDictReach(Spec);
    break;
  case PolicyKind::RouteMapCfg:
    I.NvSource = renderRouteMapCfg(Spec, Diags, I.ConfigText);
    break;
  }

  // Strictly monotone + selective policies have a unique stable state, so
  // the simulator's verdict and the SMT verifier's must coincide. The
  // others either use MTBDD dict attributes (outside the encodable
  // fragment) or lack a uniqueness argument (med tie-breaking).
  I.SmtComparable = Spec.Policy == PolicyKind::SpOption ||
                    Spec.Policy == PolicyKind::SpWeights ||
                    Spec.Policy == PolicyKind::TupleLex;
  // The FT legs cover the option-attribute families. The dict families
  // (drop value createDict (None)) are not wired into them yet.
  I.FtComparable = Spec.Policy == PolicyKind::SpOption ||
                   Spec.Policy == PolicyKind::SpWeights ||
                   Spec.Policy == PolicyKind::TupleLex ||
                   Spec.Policy == PolicyKind::RecordBgp;
  return I;
}

FuzzInstance nv::instanceFromSeed(uint64_t Seed, DiagnosticEngine &Diags) {
  return renderSpec(specFromSeed(Seed), Diags);
}
