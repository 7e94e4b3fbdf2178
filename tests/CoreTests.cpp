//===- CoreTests.cpp - Lexer/parser/typechecker/printer tests -------------===//

#include "core/Lexer.h"
#include "core/Parser.h"
#include "core/Printer.h"
#include "core/Stdlib.h"
#include "core/TypeChecker.h"

#include <gtest/gtest.h>

using namespace nv;

namespace {

ExprPtr parseE(const std::string &Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  EXPECT_TRUE(E) << "parse failed for: " << Src << "\n" << Diags.str();
  return E;
}

TypePtr parseT(const std::string &Src) {
  DiagnosticEngine Diags;
  TypePtr T = parseTypeString(Src, Diags);
  EXPECT_TRUE(T) << "type parse failed for: " << Src << "\n" << Diags.str();
  return T;
}

std::optional<Program> parseP(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << "program parse failed:\n" << Diags.str();
  return P;
}

/// The working example of Fig. 2b.
const char *Fig2b = R"nv(
include bgp
let nodes = 5
let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}

symbolic route : attribute

let trans e x = transBgp e x

let merge u x y = mergeBgp u x y

let init (u : node) =
  match u with
  | 0n -> Some {length = 0; lp = 100; med = 80; comms = {}; origin = 0n}
  | 4n -> route
  | _ -> None

let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> if u <> 4n then b.origin = 0n else true
)nv";

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, BasicTokens) {
  DiagnosticEngine Diags;
  auto Toks = lex("let x = 5u8 + 3 in x <> 2n", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 11u);
  EXPECT_TRUE(Toks[0].isIdent("let"));
  EXPECT_EQ(Toks[3].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[3].IntVal, 5u);
  EXPECT_EQ(Toks[3].Width, 8u);
  EXPECT_EQ(Toks[5].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[5].Width, 32u);
  EXPECT_EQ(Toks[8].Kind, TokKind::Neq);
  EXPECT_EQ(Toks[9].Kind, TokKind::NodeLit);
  EXPECT_EQ(Toks[9].IntVal, 2u);
  EXPECT_EQ(Toks[10].Kind, TokKind::Eof);
}

TEST(Lexer, CommentsNestAndLineCommentsWork) {
  DiagnosticEngine Diags;
  auto Toks = lex("(* outer (* inner *) still *) x // trailing\ny", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_TRUE(Toks[0].isIdent("x"));
  EXPECT_TRUE(Toks[1].isIdent("y"));
}

TEST(Lexer, TracksLocations) {
  DiagnosticEngine Diags;
  auto Toks = lex("a\n  b", Diags);
  EXPECT_EQ(Toks[0].Loc.Line, 1);
  EXPECT_EQ(Toks[1].Loc.Line, 2);
  EXPECT_EQ(Toks[1].Loc.Col, 3);
}

TEST(Lexer, ReportsUnterminatedComment) {
  DiagnosticEngine Diags;
  lex("(* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, OperatorTokens) {
  DiagnosticEngine Diags;
  auto Toks = lex(":= -> || && <= >= ! |", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Toks[0].Kind, TokKind::Assign);
  EXPECT_EQ(Toks[1].Kind, TokKind::Arrow);
  EXPECT_EQ(Toks[2].Kind, TokKind::OrOr);
  EXPECT_EQ(Toks[3].Kind, TokKind::AndAnd);
  EXPECT_EQ(Toks[4].Kind, TokKind::Le);
  EXPECT_EQ(Toks[5].Kind, TokKind::Ge);
  EXPECT_EQ(Toks[6].Kind, TokKind::Bang);
  EXPECT_EQ(Toks[7].Kind, TokKind::Bar);
}

//===----------------------------------------------------------------------===//
// Type parsing
//===----------------------------------------------------------------------===//

TEST(TypeParse, BaseTypes) {
  EXPECT_EQ(typeToString(parseT("bool")), "bool");
  EXPECT_EQ(typeToString(parseT("int")), "int");
  EXPECT_EQ(typeToString(parseT("int8")), "int8");
  EXPECT_EQ(typeToString(parseT("node")), "node");
  EXPECT_EQ(typeToString(parseT("edge")), "edge");
}

TEST(TypeParse, Compound) {
  EXPECT_EQ(typeToString(parseT("option[int]")), "option[int]");
  EXPECT_EQ(typeToString(parseT("set[int]")), "set[int]");
  EXPECT_EQ(typeToString(parseT("dict[edge, option[bool]]")),
            "dict[edge, option[bool]]");
  EXPECT_EQ(typeToString(parseT("(int, int5)")), "(int, int5)");
  EXPECT_EQ(typeToString(parseT("int -> bool -> int")), "int -> bool -> int");
}

TEST(TypeParse, RecordSortsLabels) {
  TypePtr T = parseT("{lp : int; length : int}");
  ASSERT_EQ(T->Labels.size(), 2u);
  EXPECT_EQ(T->Labels[0], "length");
  EXPECT_EQ(T->Labels[1], "lp");
}

TEST(TypeParse, SetIsDictToBool) {
  TypePtr T = parseT("set[node]");
  ASSERT_EQ(T->Kind, TypeKind::Dict);
  EXPECT_EQ(resolve(T->Elems[1])->Kind, TypeKind::Bool);
}

//===----------------------------------------------------------------------===//
// Expression parsing
//===----------------------------------------------------------------------===//

TEST(Parser, Precedence) {
  // + binds tighter than <, which binds tighter than &&, then ||.
  ExprPtr E = parseE("a + 1 < b && c || d");
  ASSERT_EQ(E->Kind, ExprKind::Oper);
  EXPECT_EQ(E->OpCode, Op::Or);
  EXPECT_EQ(E->Args[0]->OpCode, Op::And);
  EXPECT_EQ(E->Args[0]->Args[0]->OpCode, Op::Lt);
  EXPECT_EQ(E->Args[0]->Args[0]->Args[0]->OpCode, Op::Add);
}

TEST(Parser, ApplicationIsLeftAssociative) {
  ExprPtr E = parseE("f a b");
  ASSERT_EQ(E->Kind, ExprKind::App);
  EXPECT_EQ(E->Args[0]->Kind, ExprKind::App);
  EXPECT_EQ(E->Args[0]->Args[0]->Name, "f");
}

TEST(Parser, MapGetSetSugar) {
  ExprPtr Get = parseE("m[3]");
  ASSERT_EQ(Get->Kind, ExprKind::Oper);
  EXPECT_EQ(Get->OpCode, Op::MGet);
  ExprPtr Set = parseE("m[3 := true]");
  EXPECT_EQ(Set->OpCode, Op::MSet);
}

TEST(Parser, SetLiteralDesugarsToCreateAndSet) {
  ExprPtr E = parseE("{1, 2}");
  ASSERT_EQ(E->Kind, ExprKind::Oper);
  EXPECT_EQ(E->OpCode, Op::MSet);
  EXPECT_EQ(E->Args[0]->OpCode, Op::MSet);
  EXPECT_EQ(E->Args[0]->Args[0]->OpCode, Op::MCreate);
}

TEST(Parser, EmptySetLiteral) {
  ExprPtr E = parseE("{}");
  ASSERT_EQ(E->Kind, ExprKind::Oper);
  EXPECT_EQ(E->OpCode, Op::MCreate);
}

TEST(Parser, RecordLiteralAndUpdate) {
  ExprPtr R = parseE("{lp = 100; length = 0}");
  ASSERT_EQ(R->Kind, ExprKind::Record);
  // Labels are sorted.
  EXPECT_EQ(R->Labels[0], "length");
  ExprPtr U = parseE("{b with length = b.length + 1}");
  ASSERT_EQ(U->Kind, ExprKind::RecordUpdate);
  EXPECT_EQ(U->Labels[0], "length");
}

TEST(Parser, MatchWithTupleScrutinee) {
  ExprPtr E = parseE("match x, y with | _, None -> true | None, _ -> false "
                     "| Some a, Some b -> a = b");
  ASSERT_EQ(E->Kind, ExprKind::Match);
  EXPECT_EQ(E->Args[0]->Kind, ExprKind::Tuple);
  ASSERT_EQ(E->Cases.size(), 3u);
  EXPECT_EQ(E->Cases[0].Pat->Kind, PatternKind::Tuple);
}

TEST(Parser, DestructuringLet) {
  ExprPtr E = parseE("let (u, v) = e in u");
  ASSERT_EQ(E->Kind, ExprKind::Match);
  ASSERT_EQ(E->Cases.size(), 1u);
  EXPECT_EQ(E->Cases[0].Pat->Kind, PatternKind::Tuple);
}

TEST(Parser, PrimitivesRequireFullApplication) {
  DiagnosticEngine Diags;
  EXPECT_EQ(parseExprString("map f", Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, MapPrimitives) {
  ExprPtr E = parseE("mapIte (fun k -> k = 3) (fun v -> v + 1) (fun v -> v) m");
  ASSERT_EQ(E->Kind, ExprKind::Oper);
  EXPECT_EQ(E->OpCode, Op::MMapIte);
  EXPECT_EQ(E->Args.size(), 4u);
  ExprPtr C = parseE("combine f m1 m2");
  EXPECT_EQ(C->OpCode, Op::MCombine);
}

TEST(Parser, SomeBindsTighterThanApplication) {
  // `f Some x` applies f to (Some x)? No: Some is an operand on its own.
  ExprPtr E = parseE("Some (1, 2)");
  ASSERT_EQ(E->Kind, ExprKind::Some);
  EXPECT_EQ(E->Args[0]->Kind, ExprKind::Tuple);
}

TEST(Parser, IfChains) {
  ExprPtr E = parseE("if a then 1 else if b then 2 else 3");
  ASSERT_EQ(E->Kind, ExprKind::If);
  EXPECT_EQ(E->Args[2]->Kind, ExprKind::If);
}

TEST(Parser, LetFunctionSugar) {
  ExprPtr E = parseE("let f (x : int) y = x + y in f 1 2");
  ASSERT_EQ(E->Kind, ExprKind::Let);
  EXPECT_EQ(E->Args[0]->Kind, ExprKind::Fun);
  EXPECT_EQ(E->Args[0]->Args[0]->Kind, ExprKind::Fun);
}

//===----------------------------------------------------------------------===//
// Program parsing
//===----------------------------------------------------------------------===//

TEST(ProgramParse, Fig2b) {
  auto P = parseP(Fig2b);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->numNodes(), 5u);
  EXPECT_EQ(P->links().size(), 6u);
  EXPECT_EQ(P->directedEdges().size(), 12u);
  EXPECT_NE(P->initDecl(), nullptr);
  EXPECT_NE(P->transDecl(), nullptr);
  EXPECT_NE(P->mergeDecl(), nullptr);
  EXPECT_NE(P->assertDecl(), nullptr);
  EXPECT_EQ(P->symbolics().size(), 1u);
}

TEST(ProgramParse, UnknownIncludeFails) {
  DiagnosticEngine Diags;
  auto P = parseProgram("include nosuchmodel", Diags);
  EXPECT_FALSE(P.has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ProgramParse, CustomIncludeResolver) {
  DiagnosticEngine Diags;
  ParseOptions Opts;
  Opts.Resolver = [](const std::string &Name) -> std::optional<std::string> {
    if (Name == "mine")
      return std::string("let helper (x : int) = x + 1");
    return std::nullopt;
  };
  auto P = parseProgram("include mine\nlet v = helper 1", Diags, Opts);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  EXPECT_NE(P->findLet("helper"), nullptr);
}

TEST(ProgramParse, BuiltinModelsAllParse) {
  for (const char *Name : {"bgp", "bgpTrace", "rip", "ospf"}) {
    DiagnosticEngine Diags;
    auto P = parseProgram(std::string("include ") + Name, Diags);
    EXPECT_TRUE(P.has_value()) << Name << ":\n" << Diags.str();
  }
}

//===----------------------------------------------------------------------===//
// Printer round trips
//===----------------------------------------------------------------------===//

TEST(Printer, ExprRoundTrip) {
  const char *Cases[] = {
      "if a then 1 else 2",
      "let x = 1 in x + 2",
      "match o with | None -> 0 | Some v -> v",
      "{length = 0; lp = 100}",
      "{b with lp = 200}",
      "m[3 := true][4]",
      "map (fun v -> v + 1) m",
      "combine (fun a b -> a) m1 m2",
      "Some (1, true)",
      "fun (x : int) -> x",
  };
  for (const char *Src : Cases) {
    ExprPtr E1 = parseE(Src);
    std::string Printed = printExpr(E1);
    DiagnosticEngine Diags;
    ExprPtr E2 = parseExprString(Printed, Diags);
    ASSERT_TRUE(E2) << "reparse failed for: " << Printed;
    EXPECT_TRUE(exprEquals(E1, E2)) << Src << " vs " << Printed;
  }
}

TEST(Printer, ProgramRoundTrip) {
  auto P1 = parseP(Fig2b);
  ASSERT_TRUE(P1);
  std::string Printed = printProgram(*P1);
  DiagnosticEngine Diags;
  auto P2 = parseProgram(Printed, Diags);
  ASSERT_TRUE(P2.has_value()) << Diags.str() << "\n" << Printed;
  EXPECT_EQ(P2->numNodes(), P1->numNodes());
  EXPECT_EQ(P2->links(), P1->links());
}

//===----------------------------------------------------------------------===//
// Type checking
//===----------------------------------------------------------------------===//

TypePtr typeOf(const std::string &Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  EXPECT_TRUE(E) << Diags.str();
  if (!E)
    return nullptr;
  TypePtr T = typeCheckExpr(E, Diags);
  EXPECT_TRUE(T) << "typecheck failed for: " << Src << "\n" << Diags.str();
  return T;
}

bool illTyped(const std::string &Src) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Src, Diags);
  if (!E)
    return true;
  return typeCheckExpr(E, Diags) == nullptr;
}

TEST(TypeCheck, Basics) {
  EXPECT_EQ(typeToString(typeOf("1 + 2")), "int");
  EXPECT_EQ(typeToString(typeOf("1u8 + 2u8")), "int8");
  EXPECT_EQ(typeToString(typeOf("1 < 2")), "bool");
  EXPECT_EQ(typeToString(typeOf("if true then 1 else 2")), "int");
  EXPECT_EQ(typeToString(typeOf("Some 3")), "option[int]");
  EXPECT_EQ(typeToString(typeOf("(1, true)")), "(int, bool)");
}

TEST(TypeCheck, WidthMismatchRejected) {
  EXPECT_TRUE(illTyped("1u8 + 2u16"));
  EXPECT_TRUE(illTyped("1u8 = 1"));
}

TEST(TypeCheck, BranchMismatchRejected) {
  EXPECT_TRUE(illTyped("if true then 1 else false"));
  EXPECT_TRUE(illTyped("if 1 then 2 else 3"));
}

TEST(TypeCheck, MatchOnOption) {
  EXPECT_EQ(typeToString(typeOf("match Some 1 with | None -> 0 | Some v -> v")),
            "int");
}

TEST(TypeCheck, RecordFieldAccess) {
  EXPECT_EQ(typeToString(typeOf("{lp = 100; length = 0}.lp")), "int");
  EXPECT_TRUE(illTyped("{lp = 100}.nosuch"));
}

TEST(TypeCheck, MapOps) {
  EXPECT_EQ(typeToString(typeOf("(createDict 0)[true]")), "int");
  EXPECT_EQ(typeToString(
                typeOf("let m : dict[int, int] = createDict 1 in "
                       "map (fun v -> v = 0) m")),
            "set[int]");
  EXPECT_EQ(typeToString(
                typeOf("let m : set[int8] = {1u8} in "
                       "combine (fun a b -> a && b) m m")),
            "set[int8]");
  // An unconstrained createDict key stays polymorphic.
  EXPECT_EQ(resolve(typeOf("createDict 0")->Elems[0])->Kind, TypeKind::Var);
}

TEST(TypeCheck, SetLiteral) {
  EXPECT_EQ(typeToString(typeOf("{1, 2, 3}")), "set[int]");
}

TEST(TypeCheck, LambdasAndLets) {
  EXPECT_EQ(typeToString(typeOf("let f = fun (x : int) -> x + 1 in f 2")),
            "int");
  EXPECT_TRUE(illTyped("let f = fun (x : int) -> x in f true"));
  EXPECT_TRUE(illTyped("nosuchvar"));
}

TEST(TypeCheck, Fig2bProgram) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Fig2b, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  ASSERT_TRUE(P->AttrType);
  // attribute = option[bgp record]
  TypePtr Attr = P->AttrType;
  ASSERT_EQ(Attr->Kind, TypeKind::Option);
  EXPECT_EQ(resolve(Attr->Elems[0])->Kind, TypeKind::Record);
}

TEST(TypeCheck, NodeLiteralOutOfRangeRejected) {
  DiagnosticEngine Diags;
  auto P = parseProgram("let nodes = 2\nlet edges = {0n=1n}\n"
                        "let init (u : node) = u = 7n\n"
                        "let trans (e : edge) (x : bool) = x\n"
                        "let merge (u : node) (x : bool) (y : bool) = x",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  EXPECT_FALSE(typeCheck(*P, Diags));
}

TEST(TypeCheck, SymbolicMustBeConcrete) {
  DiagnosticEngine Diags;
  auto P = parseProgram("symbolic f : int -> int", Diags);
  ASSERT_TRUE(P.has_value());
  EXPECT_FALSE(typeCheck(*P, Diags));
}

TEST(TypeCheck, RequireMustBeBool) {
  DiagnosticEngine Diags;
  auto P = parseProgram("symbolic x : int\nrequire x + 1", Diags);
  ASSERT_TRUE(P.has_value());
  EXPECT_FALSE(typeCheck(*P, Diags));
}

TEST(TypeCheck, TopLevelLetPolymorphism) {
  DiagnosticEngine Diags;
  auto P = parseProgram(
      "let id x = x\nlet a = id 1\nlet b = id true", Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
}

TEST(TypeCheck, BuiltinModelsTypeCheck) {
  for (const char *Name : {"bgp", "bgpTrace", "rip", "ospf"}) {
    DiagnosticEngine Diags;
    auto P = parseProgram(std::string("include ") + Name, Diags);
    ASSERT_TRUE(P.has_value()) << Name;
    EXPECT_TRUE(typeCheck(*P, Diags)) << Name << ":\n" << Diags.str();
  }
}

TEST(TypeCheck, EdgeDestructuring) {
  EXPECT_EQ(typeToString(typeOf("fun (e : edge) -> let (u, v) = e in u")),
            "edge -> node");
}

//===----------------------------------------------------------------------===//
// cloneProgram
//===----------------------------------------------------------------------===//

TEST(CloneProgram, DeepCopyKeepsTypes) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Fig2b, Diags);
  ASSERT_TRUE(P && typeCheck(*P, Diags)) << Diags.str();
  Program C = cloneProgram(*P);
  EXPECT_EQ(printProgram(C), printProgram(*P));
  EXPECT_EQ(C.AttrType, P->AttrType);
  ASSERT_EQ(C.Decls.size(), P->Decls.size());
  for (size_t I = 0; I < P->Decls.size(); ++I) {
    EXPECT_NE(C.Decls[I], P->Decls[I]);
    std::vector<Expr *> Orig, Copy;
    forEachExpr(P->Decls[I]->Body,
                [&](const ExprPtr &E) { Orig.push_back(E.get()); });
    forEachExpr(C.Decls[I]->Body,
                [&](const ExprPtr &E) { Copy.push_back(E.get()); });
    ASSERT_EQ(Orig.size(), Copy.size());
    for (size_t J = 0; J < Orig.size(); ++J) {
      EXPECT_NE(Orig[J], Copy[J]);
      EXPECT_EQ(Orig[J]->Ty, Copy[J]->Ty);
      EXPECT_EQ(Orig[J]->Loc.Line, Copy[J]->Loc.Line);
      EXPECT_FALSE(Copy[J]->CachedFreeVars);
    }
  }
}

TEST(CloneProgram, RenamesOnlyUnshadowedReferences) {
  auto P = parseP("let init (u : node) = 1\n"
                  "let f (init : int) = init\n"
                  "let g = let init = init 0n in init\n"
                  "let h = match 3 with | init -> init\n"
                  "let k = (fun x -> init x) 0n\n");
  ASSERT_TRUE(P);
  Program C = cloneProgram(*P, {{"init", "base"}});
  EXPECT_EQ(printProgram(C), "let base = fun (u : node) -> 1\n"
                             "let f = fun (init : int) -> init\n"
                             "let g = let init = base 0n in init\n"
                             "let h = (match 3 with | init -> init)\n"
                             "let k = (fun x -> base x) 0n\n");
}

//===----------------------------------------------------------------------===//
// typeCheckAppended
//===----------------------------------------------------------------------===//

/// \p Base, type-checked, followed by the unchecked declarations of
/// \p Extra; \p First receives the index of the first of those.
Program withAppended(const std::string &Base, const std::string &Extra,
                     size_t &First) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Base, Diags);
  EXPECT_TRUE(P && typeCheck(*P, Diags)) << Diags.str();
  auto More = parseProgram(Extra, Diags);
  EXPECT_TRUE(More) << Diags.str();
  First = P->Decls.size();
  P->Decls.insert(P->Decls.end(), More->Decls.begin(), More->Decls.end());
  return std::move(*P);
}

TypePtr letType(const Program &P, const std::string &Name) {
  const Decl *D = P.findLet(Name);
  EXPECT_TRUE(D && D->Body->Ty) << Name;
  return D ? D->Body->Ty : nullptr;
}

TEST(TypeCheckAppended, PolymorphicPrefixLetAtTwoTypes) {
  size_t First;
  Program P = withAppended("let id x = x\nlet twice f x = f (f x)",
                           "let a = id 3u8\n"
                           "let b = twice id true\n"
                           "let c = twice (fun (n : int) -> n + 1) (id 1)",
                           First);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheckAppended(P, First, Diags)) << Diags.str();
  EXPECT_EQ(typeToString(letType(P, "a")), "int8");
  EXPECT_EQ(typeToString(letType(P, "b")), "bool");
  EXPECT_EQ(typeToString(letType(P, "c")), "int");
}

TEST(TypeCheckAppended, SymbolicInPrefix) {
  size_t First;
  Program P = withAppended("let nodes = 2\nsymbolic s : int5\n"
                           "let f (x : int5) = x + s",
                           "let g = f s + 1u5", First);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheckAppended(P, First, Diags)) << Diags.str();
  EXPECT_EQ(typeToString(letType(P, "g")), "int5");

  Program Bad = withAppended("symbolic s : int5", "let h = if s then 1 else 2",
                             First);
  EXPECT_FALSE(typeCheckAppended(Bad, First, Diags));
}

TEST(TypeCheckAppended, AppendedDropCallsPrefixLet) {
  // As a fault-tolerance drop value may: `noRoute` is polymorphic and
  // `empty`'s dict key stays a weak variable in the prefix.
  size_t First;
  Program P = withAppended(
      "let nodes = 2\nlet edges = {0n=1n}\n"
      "let noRoute = None\nlet empty = createDict noRoute\n"
      "let __base_init (u : node) : dict[int2, option[int]] = empty",
      "let init (u : node) = __base_init u\n"
      "let trans (e : edge) (x : dict[int2, option[int]]) =\n"
      "  map (fun (v : option[int]) -> noRoute) x\n"
      "let merge (u : node) (x : dict[int2, option[int]]) y = x\n"
      "let drop = (fun (v : option[bool]) -> noRoute) (Some true)",
      First);
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheckAppended(P, First, Diags)) << Diags.str();
  ASSERT_TRUE(P.AttrType);
  EXPECT_EQ(typeToString(P.AttrType), "dict[int2, option[int]]");
  // The drop value is as polymorphic as `noRoute`.
  TypePtr Drop = resolve(letType(P, "drop"));
  ASSERT_EQ(Drop->Kind, TypeKind::Option);
  EXPECT_EQ(resolve(Drop->Elems[0])->Kind, TypeKind::Var);
}

TEST(TypeCheckAppended, IllTypedAppendedDeclIsRejected) {
  size_t First;
  Program P = withAppended("let one = 1", "let bad = one + true", First);
  DiagnosticEngine Diags;
  EXPECT_FALSE(typeCheckAppended(P, First, Diags));
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("type mismatch"), std::string::npos)
      << Diags.str();
}

TEST(TypeCheckAppended, PrefixTypesAreLeftUntouched) {
  size_t First;
  Program P = withAppended("let id x = x\nlet empty = createDict false\n"
                           "symbolic s : int",
                           "let a = id s\nlet k = empty[3u4]", First);
  // Every prefix node's type pointer, and what it prints as.
  std::vector<std::pair<Expr *, std::pair<Type *, std::string>>> Before;
  for (size_t I = 0; I < First; ++I)
    forEachExpr(P.Decls[I]->Body, [&](const ExprPtr &E) {
      Before.push_back({E.get(), {E->Ty.get(), typeToString(E->Ty)}});
    });
  ASSERT_FALSE(Before.empty());
  DiagnosticEngine Diags;
  ASSERT_TRUE(typeCheckAppended(P, First, Diags)) << Diags.str();
  EXPECT_EQ(typeToString(letType(P, "k")), "bool");
  size_t J = 0;
  for (size_t I = 0; I < First; ++I)
    forEachExpr(P.Decls[I]->Body, [&](const ExprPtr &E) {
      ASSERT_LT(J, Before.size());
      EXPECT_EQ(E.get(), Before[J].first);
      EXPECT_EQ(E->Ty.get(), Before[J].second.first);
      // `empty`'s weak key variable was bound by `k` only in a copy.
      EXPECT_EQ(typeToString(E->Ty), Before[J].second.second);
      ++J;
    });
  EXPECT_EQ(J, Before.size());
}

TEST(TypeCheckAppended, WholeProgramAsPrefix) {
  // Seeded from its own checked declarations, a program gets the attribute
  // type its full check gave it.
  DiagnosticEngine Diags;
  auto Ref = parseProgram(Fig2b, Diags);
  ASSERT_TRUE(Ref && typeCheck(*Ref, Diags)) << Diags.str();
  for (size_t First : {size_t(0), size_t(1)}) {
    auto P = parseProgram(Fig2b, Diags);
    ASSERT_TRUE(P) << Diags.str();
    if (First) {
      // Check everything, then again with the whole program as prefix.
      ASSERT_TRUE(typeCheck(*P, Diags)) << Diags.str();
      P->AttrType = nullptr;
      First = P->Decls.size();
    }
    ASSERT_TRUE(typeCheckAppended(*P, First, Diags)) << Diags.str();
    ASSERT_TRUE(P->AttrType);
    EXPECT_TRUE(typeEquals(P->AttrType, Ref->AttrType))
        << typeToString(P->AttrType);
  }
}

} // namespace
