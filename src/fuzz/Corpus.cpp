//===- Corpus.cpp - Regression corpus reader/writer ----------------------------===//

#include "fuzz/Corpus.h"

#include "core/Parser.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

using namespace nv;

std::string nv::corpusFileText(const FuzzInstance &Inst,
                               const std::string &Note) {
  char SeedHex[32];
  std::snprintf(SeedHex, sizeof(SeedHex), "0x%016llx",
                static_cast<unsigned long long>(Inst.Spec.Seed));
  std::string Oracle = "sim";
  if (Inst.FtComparable)
    Oracle += " ft naive";
  if (Inst.SmtComparable)
    Oracle += " smt";
  std::string S = "(* nv-fuzz corpus v1\n";
  S += "   seed: " + std::string(SeedHex) + "\n";
  S += "   family: " + std::string(policyKindName(Inst.Spec.Policy)) + "\n";
  S += "   topo: " + std::string(topoKindName(Inst.Spec.Topo)) +
       " n=" + std::to_string(Inst.Spec.NumNodes) +
       " e=" + std::to_string(Inst.Spec.Edges.size()) + "\n";
  S += "   oracle: " + Oracle + "\n";
  if (!Note.empty())
    S += "   note: " + Note + "\n";
  S += "*)\n" + Inst.NvSource;
  return S;
}

std::optional<FuzzInstance> nv::parseCorpusText(const std::string &Text) {
  if (Text.rfind("(* nv-fuzz corpus", 0) != 0)
    return std::nullopt;

  FuzzInstance I;
  I.NvSource = Text;

  std::istringstream In(Text);
  std::string Line;
  std::string Family, Oracle;
  while (std::getline(In, Line) && Line.find("*)") == std::string::npos) {
    auto Value = [&](const char *Key) -> std::optional<std::string> {
      size_t At = Line.find(Key);
      if (At == std::string::npos)
        return std::nullopt;
      std::string V = Line.substr(At + std::strlen(Key));
      while (!V.empty() && (V.front() == ' ' || V.front() == '\t'))
        V.erase(V.begin());
      while (!V.empty() && (V.back() == '\r' || V.back() == ' '))
        V.pop_back();
      return V;
    };
    if (auto V = Value("seed:"))
      I.Spec.Seed = std::strtoull(V->c_str(), nullptr, 0);
    else if (auto V = Value("family:"))
      Family = *V;
    else if (auto V = Value("oracle:"))
      Oracle = *V;
  }

  static const std::pair<const char *, PolicyKind> Families[] = {
      {"sp-option", PolicyKind::SpOption},
      {"sp-weights", PolicyKind::SpWeights},
      {"tuple-lex", PolicyKind::TupleLex},
      {"record-bgp", PolicyKind::RecordBgp},
      {"dict-reach", PolicyKind::DictReach},
      {"route-map-cfg", PolicyKind::RouteMapCfg},
  };
  for (const auto &[Name, Kind] : Families)
    if (Family == Name)
      I.Spec.Policy = Kind;

  I.Name = "corpus " + Family + " seed=" + std::to_string(I.Spec.Seed);
  I.FtComparable = Oracle.find("ft") != std::string::npos;
  I.SmtComparable = Oracle.find("smt") != std::string::npos;
  return I;
}

std::optional<FuzzInstance> nv::loadCorpusFile(const std::string &Path) {
  std::optional<std::string> Text = readSourceFile(Path);
  if (!Text) {
    std::fprintf(stderr, "cannot read corpus file %s\n", Path.c_str());
    return std::nullopt;
  }
  auto I = parseCorpusText(*Text);
  if (!I)
    std::fprintf(stderr, "%s: missing nv-fuzz corpus header\n", Path.c_str());
  else
    I->Name += " (" + Path + ")";
  return I;
}

std::vector<std::string> nv::listCorpusFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC))
    if (Entry.is_regular_file() && Entry.path().extension() == ".nv")
      Out.push_back(Entry.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}
