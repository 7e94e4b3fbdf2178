//===- Parser.cpp - NV parser ---------------------------------------------===//
//
// A recursive-descent parser for NV. Grammar sketch (see the paper's Fig. 6
// and the examples of Sec. 2):
//
//   program  := decl*
//   decl     := 'include' (ident | string)
//             | 'type' ident '=' type
//             | 'symbolic' ident ':' type ('=' expr)?
//             | 'require' expr
//             | 'let' 'nodes' '=' INT
//             | 'let' 'edges' '=' '{' (NODE '=' NODE (';' NODE '=' NODE)*)? '}'
//             | 'let' ident param* (':' type)? '=' expr
//   expr     := let-in | fun | if | match | orExpr
//   orExpr   := andExpr ('||' andExpr)*
//   andExpr  := cmpExpr ('&&' cmpExpr)*
//   cmpExpr  := addExpr (('='|'<>'|'<'|'<='|'>'|'>=') addExpr)?
//   addExpr  := appExpr (('+'|'-') appExpr)*
//   appExpr  := unary+                       (left-assoc application)
//   unary    := 'Some' unary | '!' unary | postfix
//   postfix  := atom ('.' field | '[' e ']' | '[' e ':=' e ']')*
//   atom     := literal | ident | 'None' | '(' expr (',' expr)* ')' | brace
//   brace    := '{' '}'                      (empty set)
//             | '{' l '=' e (';' l '=' e)* '}'      (record)
//             | '{' e 'with' l '=' e (';' ...)* '}' (record update)
//             | '{' e (',' e)* '}'                  (set literal)
//
// `map f m`, `mapIte p f g m`, `combine f m1 m2`, `createDict d` are
// keyword-headed primitive applications and must be fully applied.
//
//===----------------------------------------------------------------------===//

#include "core/Parser.h"

#include "core/Lexer.h"
#include "core/Stdlib.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

using namespace nv;

namespace {

bool isReservedIdent(const std::string &S) {
  static const std::set<std::string> Reserved = {
      "let",   "in",    "fun",      "if",      "then",       "else",
      "match", "with",  "type",     "symbolic", "require",   "include",
      "true",  "false", "None",     "Some",     "createDict", "map",
      "mapIte", "combine"};
  return Reserved.count(S) > 0;
}

class ParserImpl {
public:
  ParserImpl(std::vector<Token> Toks, DiagnosticEngine &Diags,
             const ParseOptions &Opts)
      : Toks(std::move(Toks)), Diags(Diags), Opts(Opts) {}

  std::optional<Program> parseProgramToplevel() {
    Program P;
    while (!at(TokKind::Eof)) {
      if (!parseDecl(P.Decls))
        return std::nullopt;
    }
    if (Diags.hasErrors())
      return std::nullopt;
    return P;
  }

  ExprPtr parseOneExpr() {
    ExprPtr E = parseExpr();
    if (!at(TokKind::Eof))
      error("expected end of input, found " + cur().describe());
    if (Diags.hasErrors())
      return nullptr;
    return E;
  }

  TypePtr parseOneType() {
    TypePtr T = parseType();
    if (!at(TokKind::Eof))
      error("expected end of input, found " + cur().describe());
    if (Diags.hasErrors())
      return nullptr;
    return T;
  }

private:
  std::vector<Token> Toks;
  DiagnosticEngine &Diags;
  const ParseOptions &Opts;
  size_t Pos = 0;
  std::vector<std::pair<std::string, TypePtr>> Aliases;
  std::set<std::string> Included;

  //===--------------------------------------------------------------------===//
  // Token helpers
  //===--------------------------------------------------------------------===//

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Off = 1) const {
    size_t I = Pos + Off;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return cur().Kind == K; }
  bool atIdent(const char *S) const { return cur().isIdent(S); }

  Token take() {
    Token T = cur();
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }

  void error(const std::string &Msg) { Diags.error(cur().Loc, Msg); }

  bool expect(TokKind K, const char *What) {
    if (at(K)) {
      take();
      return true;
    }
    error(std::string("expected ") + What + ", found " + cur().describe());
    return false;
  }

  std::string expectIdent(const char *What) {
    if (at(TokKind::Ident) && !isReservedIdent(cur().Text))
      return take().Text;
    error(std::string("expected ") + What + ", found " + cur().describe());
    return "";
  }

  /// Skips to the next plausible declaration start for error recovery.
  void recoverToDecl() {
    while (!at(TokKind::Eof)) {
      if (atIdent("let") || atIdent("type") || atIdent("symbolic") ||
          atIdent("require") || atIdent("include"))
        return;
      take();
    }
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  TypePtr lookupAlias(const std::string &Name) const {
    for (auto It = Aliases.rbegin(); It != Aliases.rend(); ++It)
      if (It->first == Name)
        return It->second;
    return nullptr;
  }

  /// Recognizes int, int8, int32, ... spellings.
  static std::optional<unsigned> intTypeWidth(const std::string &S) {
    if (S == "int")
      return 32;
    if (S.size() > 3 && S.compare(0, 3, "int") == 0) {
      unsigned W = 0;
      for (size_t I = 3; I < S.size(); ++I) {
        if (!std::isdigit(static_cast<unsigned char>(S[I])))
          return std::nullopt;
        W = W * 10 + static_cast<unsigned>(S[I] - '0');
      }
      if (W >= 1 && W <= 64)
        return W;
    }
    return std::nullopt;
  }

  TypePtr parseType() {
    TypePtr L = parseTypeAtom();
    if (!L)
      return nullptr;
    if (at(TokKind::Arrow)) {
      take();
      TypePtr R = parseType();
      if (!R)
        return nullptr;
      return Type::arrowTy(L, R);
    }
    return L;
  }

  TypePtr parseTypeAtom() {
    SourceLoc Loc = cur().Loc;
    if (at(TokKind::Ident)) {
      std::string Name = cur().Text;
      if (Name == "bool") {
        take();
        return Type::boolTy();
      }
      if (auto W = intTypeWidth(Name)) {
        take();
        return Type::intTy(*W);
      }
      if (Name == "node") {
        take();
        return Type::nodeTy();
      }
      if (Name == "edge") {
        take();
        return Type::edgeTy();
      }
      if (Name == "option") {
        take();
        if (!expect(TokKind::LBracket, "'[' after option"))
          return nullptr;
        TypePtr E = parseType();
        if (!E || !expect(TokKind::RBracket, "']'"))
          return nullptr;
        return Type::optionTy(E);
      }
      if (Name == "set") {
        take();
        if (!expect(TokKind::LBracket, "'[' after set"))
          return nullptr;
        TypePtr K = parseType();
        if (!K || !expect(TokKind::RBracket, "']'"))
          return nullptr;
        return Type::setTy(K);
      }
      if (Name == "dict") {
        take();
        if (!expect(TokKind::LBracket, "'[' after dict"))
          return nullptr;
        TypePtr K = parseType();
        if (!K || !expect(TokKind::Comma, "','"))
          return nullptr;
        TypePtr V = parseType();
        if (!V || !expect(TokKind::RBracket, "']'"))
          return nullptr;
        return Type::dictTy(K, V);
      }
      if (TypePtr Alias = lookupAlias(Name)) {
        take();
        return Alias;
      }
      Diags.error(Loc, "unknown type name '" + Name + "'");
      take();
      return nullptr;
    }
    if (at(TokKind::LParen)) {
      take();
      std::vector<TypePtr> Elems;
      TypePtr T = parseType();
      if (!T)
        return nullptr;
      Elems.push_back(T);
      while (at(TokKind::Comma)) {
        take();
        TypePtr N = parseType();
        if (!N)
          return nullptr;
        Elems.push_back(N);
      }
      if (!expect(TokKind::RParen, "')'"))
        return nullptr;
      if (Elems.size() == 1)
        return Elems[0];
      return Type::tupleTy(std::move(Elems));
    }
    if (at(TokKind::LBrace)) {
      take();
      std::vector<std::string> Labels;
      std::vector<TypePtr> Elems;
      for (;;) {
        std::string L = expectIdent("record field label");
        if (L.empty())
          return nullptr;
        if (!expect(TokKind::Colon, "':' in record type"))
          return nullptr;
        TypePtr T = parseType();
        if (!T)
          return nullptr;
        Labels.push_back(L);
        Elems.push_back(T);
        if (at(TokKind::Semi)) {
          take();
          if (at(TokKind::RBrace))
            break; // trailing semicolon
          continue;
        }
        break;
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return nullptr;
      sortRecord(Labels, Elems);
      return Type::recordTy(std::move(Labels), std::move(Elems));
    }
    error("expected a type, found " + cur().describe());
    return nullptr;
  }

  template <typename T>
  static void sortRecord(std::vector<std::string> &Labels,
                         std::vector<T> &Elems) {
    std::vector<size_t> Idx(Labels.size());
    for (size_t I = 0; I < Idx.size(); ++I)
      Idx[I] = I;
    std::sort(Idx.begin(), Idx.end(), [&](size_t A, size_t B) {
      return Labels[A] < Labels[B];
    });
    std::vector<std::string> L2;
    std::vector<T> E2;
    for (size_t I : Idx) {
      L2.push_back(Labels[I]);
      E2.push_back(Elems[I]);
    }
    Labels = std::move(L2);
    Elems = std::move(E2);
  }

  //===--------------------------------------------------------------------===//
  // Patterns
  //===--------------------------------------------------------------------===//

  PatternPtr parsePattern() {
    PatternPtr P = parsePatternNoComma();
    if (!P)
      return nullptr;
    if (!at(TokKind::Comma))
      return P;
    std::vector<PatternPtr> Elems = {P};
    while (at(TokKind::Comma)) {
      take();
      PatternPtr Q = parsePatternNoComma();
      if (!Q)
        return nullptr;
      Elems.push_back(Q);
    }
    return Pattern::tuple(std::move(Elems), Elems[0]->Loc);
  }

  PatternPtr parsePatternNoComma() {
    SourceLoc Loc = cur().Loc;
    if (atIdent("Some")) {
      take();
      PatternPtr Inner = parsePatternNoComma();
      if (!Inner)
        return nullptr;
      return Pattern::some(Inner, Loc);
    }
    return parsePatternAtom();
  }

  PatternPtr parsePatternAtom() {
    SourceLoc Loc = cur().Loc;
    if (at(TokKind::Underscore)) {
      take();
      return Pattern::wild(Loc);
    }
    if (atIdent("None")) {
      take();
      return Pattern::none(Loc);
    }
    if (atIdent("true") || atIdent("false")) {
      bool B = take().Text == "true";
      return Pattern::lit(Literal::boolLit(B), Loc);
    }
    if (at(TokKind::IntLit)) {
      Token T = take();
      return Pattern::lit(Literal::intLit(T.IntVal, T.Width), Loc);
    }
    if (at(TokKind::NodeLit)) {
      Token T = take();
      return Pattern::lit(Literal::nodeLit(static_cast<uint32_t>(T.IntVal)),
                          Loc);
    }
    if (at(TokKind::Ident) && !isReservedIdent(cur().Text))
      return Pattern::var(take().Text, Loc);
    if (at(TokKind::LParen)) {
      take();
      PatternPtr P = parsePattern();
      if (!P || !expect(TokKind::RParen, "')'"))
        return nullptr;
      return P;
    }
    if (at(TokKind::LBrace)) {
      take();
      std::vector<std::string> Labels;
      std::vector<PatternPtr> Elems;
      for (;;) {
        std::string L = expectIdent("record field label");
        if (L.empty())
          return nullptr;
        if (!expect(TokKind::Eq, "'=' in record pattern"))
          return nullptr;
        PatternPtr P = parsePatternNoComma();
        if (!P)
          return nullptr;
        Labels.push_back(L);
        Elems.push_back(P);
        if (at(TokKind::Semi)) {
          take();
          if (at(TokKind::RBrace))
            break;
          continue;
        }
        break;
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return nullptr;
      sortRecord(Labels, Elems);
      return Pattern::record(std::move(Labels), std::move(Elems), Loc);
    }
    error("expected a pattern, found " + cur().describe());
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  ExprPtr parseExpr() {
    SourceLoc Loc = cur().Loc;
    if (atIdent("let"))
      return parseLetIn();
    if (atIdent("fun"))
      return parseFun();
    if (atIdent("if")) {
      take();
      ExprPtr C = parseExpr();
      if (!C)
        return nullptr;
      if (!atIdent("then")) {
        error("expected 'then'");
        return nullptr;
      }
      take();
      ExprPtr T = parseExpr();
      if (!T)
        return nullptr;
      if (!atIdent("else")) {
        error("expected 'else'");
        return nullptr;
      }
      take();
      ExprPtr E = parseExpr();
      if (!E)
        return nullptr;
      return Expr::iff(C, T, E, Loc);
    }
    if (atIdent("match"))
      return parseMatch();
    return parseOr();
  }

  ExprPtr parseLetIn() {
    SourceLoc Loc = take().Loc; // 'let'
    // Either `let x ... = e in e` or a destructuring `let (p, q) = e in e`.
    if (at(TokKind::LParen) &&
        !(peek().Kind == TokKind::Ident && peek(2).Kind == TokKind::Colon)) {
      // Destructuring let: sugar for a single-case match.
      PatternPtr P = parsePatternAtom();
      if (!P)
        return nullptr;
      if (!expect(TokKind::Eq, "'='"))
        return nullptr;
      ExprPtr Init = parseExpr();
      if (!Init)
        return nullptr;
      if (!atIdent("in")) {
        error("expected 'in'");
        return nullptr;
      }
      take();
      ExprPtr Body = parseExpr();
      if (!Body)
        return nullptr;
      return Expr::match(Init, {{P, Body}}, Loc);
    }
    std::string Name = expectIdent("binder");
    if (Name.empty())
      return nullptr;
    // Parameters make this a local function definition.
    std::vector<std::pair<std::string, TypePtr>> Params;
    if (!parseParams(Params))
      return nullptr;
    TypePtr Annot;
    if (at(TokKind::Colon)) {
      take();
      Annot = parseType();
      if (!Annot)
        return nullptr;
    }
    if (!expect(TokKind::Eq, "'='"))
      return nullptr;
    ExprPtr Init = parseExpr();
    if (!Init)
      return nullptr;
    Init = wrapParams(Params, Init);
    if (!atIdent("in")) {
      error("expected 'in'");
      return nullptr;
    }
    take();
    ExprPtr Body = parseExpr();
    if (!Body)
      return nullptr;
    return Expr::let(Name, Init, Body, Params.empty() ? Annot : nullptr, Loc);
  }

  ExprPtr parseFun() {
    SourceLoc Loc = take().Loc; // 'fun'
    std::vector<std::pair<std::string, TypePtr>> Params;
    if (!parseParams(Params))
      return nullptr;
    if (Params.empty()) {
      error("expected at least one parameter after 'fun'");
      return nullptr;
    }
    if (!expect(TokKind::Arrow, "'->'"))
      return nullptr;
    ExprPtr Body = parseExpr();
    if (!Body)
      return nullptr;
    return wrapParams(Params, Body, Loc);
  }

  /// Parses zero or more `x` / `(x : ty)` / `(x y : ty)` parameters.
  bool parseParams(std::vector<std::pair<std::string, TypePtr>> &Out) {
    for (;;) {
      if (at(TokKind::Ident) && !isReservedIdent(cur().Text) &&
          (peek().Kind == TokKind::Ident || peek().Kind == TokKind::Colon ||
           peek().Kind == TokKind::Arrow || peek().Kind == TokKind::Eq ||
           peek().Kind == TokKind::LParen)) {
        // A bare parameter name: only in binder position (decl/fun), where
        // the caller knows an '=' or '->' terminates the list.
        Out.emplace_back(take().Text, nullptr);
        continue;
      }
      if (at(TokKind::LParen) && peek().Kind == TokKind::Ident &&
          !isReservedIdent(peek().Text) &&
          (peek(2).Kind == TokKind::Colon || peek(2).Kind == TokKind::Ident)) {
        take(); // '('
        std::vector<std::string> Names;
        while (at(TokKind::Ident) && !isReservedIdent(cur().Text))
          Names.push_back(take().Text);
        TypePtr T;
        if (at(TokKind::Colon)) {
          take();
          T = parseType();
          if (!T)
            return false;
        }
        if (!expect(TokKind::RParen, "')'"))
          return false;
        for (const std::string &N : Names)
          Out.emplace_back(N, T);
        continue;
      }
      return true;
    }
  }

  static ExprPtr wrapParams(const std::vector<std::pair<std::string, TypePtr>> &Params,
                            ExprPtr Body, SourceLoc Loc = {}) {
    for (auto It = Params.rbegin(); It != Params.rend(); ++It)
      Body = Expr::fun(It->first, Body, It->second, Loc);
    return Body;
  }

  ExprPtr parseMatch() {
    SourceLoc Loc = take().Loc; // 'match'
    // Scrutinee may be a comma list: `match x, y with`.
    std::vector<ExprPtr> Scruts;
    ExprPtr S = parseOr();
    if (!S)
      return nullptr;
    Scruts.push_back(S);
    while (at(TokKind::Comma)) {
      take();
      ExprPtr N = parseOr();
      if (!N)
        return nullptr;
      Scruts.push_back(N);
    }
    if (!atIdent("with")) {
      error("expected 'with'");
      return nullptr;
    }
    take();
    ExprPtr Scrut =
        Scruts.size() == 1 ? Scruts[0] : Expr::tuple(std::move(Scruts), Loc);
    std::vector<MatchCase> Cases;
    if (at(TokKind::Bar))
      take();
    for (;;) {
      PatternPtr P = parsePattern();
      if (!P)
        return nullptr;
      if (!expect(TokKind::Arrow, "'->'"))
        return nullptr;
      ExprPtr Body = parseExpr();
      if (!Body)
        return nullptr;
      Cases.push_back({P, Body});
      if (at(TokKind::Bar)) {
        take();
        continue;
      }
      break;
    }
    return Expr::match(Scrut, std::move(Cases), Loc);
  }

  ExprPtr parseOr() {
    ExprPtr L = parseAnd();
    if (!L)
      return nullptr;
    while (at(TokKind::OrOr)) {
      SourceLoc Loc = take().Loc;
      ExprPtr R = parseAnd();
      if (!R)
        return nullptr;
      L = Expr::oper(Op::Or, {L, R}, Loc);
    }
    return L;
  }

  ExprPtr parseAnd() {
    ExprPtr L = parseCmp();
    if (!L)
      return nullptr;
    while (at(TokKind::AndAnd)) {
      SourceLoc Loc = take().Loc;
      ExprPtr R = parseCmp();
      if (!R)
        return nullptr;
      L = Expr::oper(Op::And, {L, R}, Loc);
    }
    return L;
  }

  ExprPtr parseCmp() {
    ExprPtr L = parseAdd();
    if (!L)
      return nullptr;
    Op O;
    switch (cur().Kind) {
    case TokKind::Eq:
      O = Op::Eq;
      break;
    case TokKind::Neq:
      O = Op::Neq;
      break;
    case TokKind::Lt:
      O = Op::Lt;
      break;
    case TokKind::Le:
      O = Op::Le;
      break;
    case TokKind::Gt:
      O = Op::Gt;
      break;
    case TokKind::Ge:
      O = Op::Ge;
      break;
    default:
      return L;
    }
    SourceLoc Loc = take().Loc;
    ExprPtr R = parseAdd();
    if (!R)
      return nullptr;
    return Expr::oper(O, {L, R}, Loc);
  }

  ExprPtr parseAdd() {
    ExprPtr L = parseApp();
    if (!L)
      return nullptr;
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      Op O = at(TokKind::Plus) ? Op::Add : Op::Sub;
      SourceLoc Loc = take().Loc;
      ExprPtr R = parseApp();
      if (!R)
        return nullptr;
      L = Expr::oper(O, {L, R}, Loc);
    }
    return L;
  }

  /// True when the current token can begin an application operand.
  bool startsOperand() const {
    switch (cur().Kind) {
    case TokKind::IntLit:
    case TokKind::NodeLit:
    case TokKind::LParen:
    case TokKind::LBrace:
    case TokKind::Bang:
      return true;
    case TokKind::Ident: {
      const std::string &S = cur().Text;
      if (S == "true" || S == "false" || S == "None" || S == "Some")
        return true;
      return !isReservedIdent(S);
    }
    default:
      return false;
    }
  }

  ExprPtr parseApp() {
    SourceLoc Loc = cur().Loc;
    // Keyword-headed primitives (must be fully applied).
    if (atIdent("createDict"))
      return parsePrimitive(Op::MCreate, Loc);
    if (atIdent("map"))
      return parsePrimitive(Op::MMap, Loc);
    if (atIdent("mapIte"))
      return parsePrimitive(Op::MMapIte, Loc);
    if (atIdent("combine"))
      return parsePrimitive(Op::MCombine, Loc);

    ExprPtr Head = parseUnary();
    if (!Head)
      return nullptr;
    while (startsOperand()) {
      ExprPtr Arg = parseUnary();
      if (!Arg)
        return nullptr;
      Head = Expr::app(Head, Arg, Loc);
    }
    return Head;
  }

  ExprPtr parsePrimitive(Op O, SourceLoc Loc) {
    std::string Name = take().Text;
    std::vector<ExprPtr> Args;
    for (unsigned I = 0, N = opArity(O); I < N; ++I) {
      if (!startsOperand()) {
        error("primitive '" + Name + "' expects " + std::to_string(N) +
              " arguments");
        return nullptr;
      }
      ExprPtr A = parseUnary();
      if (!A)
        return nullptr;
      Args.push_back(A);
    }
    // Surface order matches Fig. 7: map f m, mapIte p f g m, combine f a b.
    // Internal operand order for Oper nodes is identical.
    return Expr::oper(O, std::move(Args), Loc);
  }

  ExprPtr parseUnary() {
    SourceLoc Loc = cur().Loc;
    if (atIdent("Some")) {
      take();
      ExprPtr Inner = parseUnary();
      if (!Inner)
        return nullptr;
      return Expr::some(Inner, Loc);
    }
    if (at(TokKind::Bang)) {
      take();
      ExprPtr Inner = parseUnary();
      if (!Inner)
        return nullptr;
      return Expr::oper(Op::Not, {Inner}, Loc);
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parseAtom();
    if (!E)
      return nullptr;
    for (;;) {
      if (at(TokKind::Dot)) {
        SourceLoc Loc = take().Loc;
        if (at(TokKind::IntLit)) {
          Token T = take();
          E = Expr::proj(E, static_cast<unsigned>(T.IntVal), Loc);
          continue;
        }
        std::string L = expectIdent("field label");
        if (L.empty())
          return nullptr;
        E = Expr::field(E, L, Loc);
        continue;
      }
      if (at(TokKind::LBracket)) {
        SourceLoc Loc = take().Loc;
        ExprPtr K = parseExpr();
        if (!K)
          return nullptr;
        if (at(TokKind::Assign)) {
          take();
          ExprPtr V = parseExpr();
          if (!V)
            return nullptr;
          if (!expect(TokKind::RBracket, "']'"))
            return nullptr;
          E = Expr::oper(Op::MSet, {E, K, V}, Loc);
          continue;
        }
        if (!expect(TokKind::RBracket, "']'"))
          return nullptr;
        E = Expr::oper(Op::MGet, {E, K}, Loc);
        continue;
      }
      return E;
    }
  }

  ExprPtr parseAtom() {
    SourceLoc Loc = cur().Loc;
    if (at(TokKind::IntLit)) {
      Token T = take();
      return Expr::intConst(T.IntVal, T.Width, Loc);
    }
    if (at(TokKind::NodeLit)) {
      Token T = take();
      return Expr::nodeConst(static_cast<uint32_t>(T.IntVal), Loc);
    }
    if (atIdent("true") || atIdent("false"))
      return Expr::boolConst(take().Text == "true", Loc);
    if (atIdent("None")) {
      take();
      return Expr::none(Loc);
    }
    if (at(TokKind::Ident) && !isReservedIdent(cur().Text))
      return Expr::var(take().Text, Loc);
    if (at(TokKind::LParen)) {
      take();
      ExprPtr E = parseExpr();
      if (!E)
        return nullptr;
      if (at(TokKind::Comma)) {
        std::vector<ExprPtr> Elems = {E};
        while (at(TokKind::Comma)) {
          take();
          ExprPtr N = parseExpr();
          if (!N)
            return nullptr;
          Elems.push_back(N);
        }
        if (!expect(TokKind::RParen, "')'"))
          return nullptr;
        return Expr::tuple(std::move(Elems), Loc);
      }
      if (!expect(TokKind::RParen, "')'"))
        return nullptr;
      return E;
    }
    if (at(TokKind::LBrace))
      return parseBrace();
    error("expected an expression, found " + cur().describe());
    return nullptr;
  }

  ExprPtr parseBrace() {
    SourceLoc Loc = take().Loc; // '{'
    // Empty set.
    if (at(TokKind::RBrace)) {
      take();
      return Expr::oper(Op::MCreate, {Expr::boolConst(false, Loc)}, Loc);
    }
    // Record literal: starts with `label =` (and not `label with`).
    if (at(TokKind::Ident) && !isReservedIdent(cur().Text) &&
        peek().Kind == TokKind::Eq) {
      std::vector<std::string> Labels;
      std::vector<ExprPtr> Elems;
      for (;;) {
        std::string L = expectIdent("record field label");
        if (L.empty())
          return nullptr;
        if (!expect(TokKind::Eq, "'='"))
          return nullptr;
        ExprPtr V = parseExpr();
        if (!V)
          return nullptr;
        Labels.push_back(L);
        Elems.push_back(V);
        if (at(TokKind::Semi)) {
          take();
          if (at(TokKind::RBrace))
            break;
          continue;
        }
        break;
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return nullptr;
      sortRecord(Labels, Elems);
      return Expr::record(std::move(Labels), std::move(Elems), Loc);
    }
    // Either a record update `{e with ...}` or a set literal `{e, ...}`.
    ExprPtr First = parseExpr();
    if (!First)
      return nullptr;
    if (atIdent("with")) {
      take();
      std::vector<std::string> Labels;
      std::vector<ExprPtr> Elems;
      for (;;) {
        std::string L = expectIdent("record field label");
        if (L.empty())
          return nullptr;
        if (!expect(TokKind::Eq, "'='"))
          return nullptr;
        ExprPtr V = parseExpr();
        if (!V)
          return nullptr;
        Labels.push_back(L);
        Elems.push_back(V);
        if (at(TokKind::Semi)) {
          take();
          if (at(TokKind::RBrace))
            break;
          continue;
        }
        break;
      }
      if (!expect(TokKind::RBrace, "'}'"))
        return nullptr;
      sortRecord(Labels, Elems);
      return Expr::recordUpdate(First, std::move(Labels), std::move(Elems),
                                Loc);
    }
    // Set literal: desugars to createDict false + per-element set-to-true.
    std::vector<ExprPtr> Elems = {First};
    while (at(TokKind::Comma)) {
      take();
      ExprPtr N = parseExpr();
      if (!N)
        return nullptr;
      Elems.push_back(N);
    }
    if (!expect(TokKind::RBrace, "'}'"))
      return nullptr;
    ExprPtr S = Expr::oper(Op::MCreate, {Expr::boolConst(false, Loc)}, Loc);
    for (ExprPtr &K : Elems)
      S = Expr::oper(Op::MSet, {S, K, Expr::boolConst(true, Loc)}, Loc);
    return S;
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  bool parseDecl(std::vector<DeclPtr> &Out) {
    SourceLoc Loc = cur().Loc;
    if (atIdent("include")) {
      take();
      std::string Name;
      if (at(TokKind::String))
        Name = take().Text;
      else
        Name = expectIdent("include name");
      if (Name.empty()) {
        recoverToDecl();
        return !Diags.hasErrors();
      }
      return spliceInclude(Name, Loc, Out);
    }
    if (atIdent("type")) {
      take();
      std::string Name = expectIdent("type name");
      if (Name.empty() || !expect(TokKind::Eq, "'='")) {
        recoverToDecl();
        return false;
      }
      TypePtr T = parseType();
      if (!T) {
        recoverToDecl();
        return false;
      }
      Aliases.emplace_back(Name, T);
      Out.push_back(Decl::typeAlias(Name, T, Loc));
      return true;
    }
    if (atIdent("symbolic")) {
      take();
      std::string Name = expectIdent("symbolic name");
      if (Name.empty()) {
        recoverToDecl();
        return false;
      }
      TypePtr T;
      ExprPtr Default;
      if (at(TokKind::Colon)) {
        take();
        T = parseType();
        if (!T) {
          recoverToDecl();
          return false;
        }
      }
      if (at(TokKind::Eq)) {
        take();
        Default = parseExpr();
        if (!Default) {
          recoverToDecl();
          return false;
        }
      }
      if (!T && !Default) {
        Diags.error(Loc, "symbolic '" + Name +
                             "' needs a type annotation or a default value");
        return false;
      }
      Out.push_back(Decl::symbolicDecl(Name, T, Default, Loc));
      return true;
    }
    if (atIdent("require")) {
      take();
      ExprPtr E = parseExpr();
      if (!E) {
        recoverToDecl();
        return false;
      }
      Out.push_back(Decl::requireDecl(E, Loc));
      return true;
    }
    if (atIdent("let")) {
      take();
      // `let nodes = N`
      if (atIdent("nodes")) {
        take();
        if (!expect(TokKind::Eq, "'='"))
          return false;
        if (!at(TokKind::IntLit)) {
          error("expected a node count");
          return false;
        }
        Token T = take();
        Out.push_back(Decl::nodesDecl(static_cast<uint32_t>(T.IntVal), Loc));
        return true;
      }
      // `let edges = { 0n=1n; ... }`
      if (atIdent("edges")) {
        take();
        if (!expect(TokKind::Eq, "'='") || !expect(TokKind::LBrace, "'{'"))
          return false;
        std::vector<std::pair<uint32_t, uint32_t>> Edges;
        while (!at(TokKind::RBrace)) {
          if (!at(TokKind::NodeLit)) {
            error("expected a node literal in edge list");
            return false;
          }
          uint32_t U = static_cast<uint32_t>(take().IntVal);
          if (!expect(TokKind::Eq, "'=' in edge"))
            return false;
          if (!at(TokKind::NodeLit)) {
            error("expected a node literal in edge list");
            return false;
          }
          uint32_t V = static_cast<uint32_t>(take().IntVal);
          Edges.emplace_back(U, V);
          if (at(TokKind::Semi)) {
            take();
            continue;
          }
          break;
        }
        if (!expect(TokKind::RBrace, "'}'"))
          return false;
        Out.push_back(Decl::edgesDecl(std::move(Edges), Loc));
        return true;
      }
      std::string Name = expectIdent("binder");
      if (Name.empty()) {
        recoverToDecl();
        return false;
      }
      std::vector<std::pair<std::string, TypePtr>> Params;
      if (!parseParams(Params)) {
        recoverToDecl();
        return false;
      }
      TypePtr Annot;
      if (at(TokKind::Colon)) {
        take();
        Annot = parseType();
        if (!Annot) {
          recoverToDecl();
          return false;
        }
      }
      if (!expect(TokKind::Eq, "'='")) {
        recoverToDecl();
        return false;
      }
      ExprPtr Body = parseExpr();
      if (!Body) {
        recoverToDecl();
        return false;
      }
      Body = wrapParams(Params, Body, Loc);
      DeclPtr D = Decl::letDecl(Name, Body, Loc);
      D->Ty = Annot;
      D->ParamCount = static_cast<unsigned>(Params.size());
      Out.push_back(D);
      return true;
    }
    error("expected a declaration, found " + cur().describe());
    recoverToDecl();
    if (at(TokKind::Eof))
      return false;
    take();
    return false;
  }

  bool spliceInclude(const std::string &Name, SourceLoc Loc,
                     std::vector<DeclPtr> &Out) {
    if (Included.count(Name))
      return true; // idempotent includes
    Included.insert(Name);
    std::optional<std::string> Src;
    if (Opts.Resolver)
      Src = Opts.Resolver(Name);
    if (!Src)
      Src = builtinInclude(Name);
    if (!Src) {
      Diags.error(Loc, "cannot resolve include '" + Name + "'");
      return false;
    }
    std::vector<Token> Inner = lex(*Src, Diags);
    if (Diags.hasErrors())
      return false;
    // Splice: parse the included token stream with the same alias scope.
    std::vector<Token> Saved = std::move(Toks);
    size_t SavedPos = Pos;
    Toks = std::move(Inner);
    Pos = 0;
    bool Ok = true;
    while (!at(TokKind::Eof) && Ok)
      Ok = parseDecl(Out);
    Toks = std::move(Saved);
    Pos = SavedPos;
    return Ok && !Diags.hasErrors();
  }
};

} // namespace

std::optional<std::string> nv::readSourceFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

ParseOptions nv::fileParseOptions(const std::string &Path) {
  size_t Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  ParseOptions Opts;
  Opts.Resolver = [Dir](const std::string &Name) {
    return readSourceFile(Dir + "/" + Name + ".nv");
  };
  return Opts;
}

std::optional<Program> nv::parseProgram(const std::string &Source,
                                        DiagnosticEngine &Diags,
                                        const ParseOptions &Opts) {
  std::vector<Token> Toks = lex(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  return ParserImpl(std::move(Toks), Diags, Opts).parseProgramToplevel();
}

ExprPtr nv::parseExprString(const std::string &Source,
                            DiagnosticEngine &Diags) {
  std::vector<Token> Toks = lex(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  ParseOptions Opts;
  return ParserImpl(std::move(Toks), Diags, Opts).parseOneExpr();
}

TypePtr nv::parseTypeString(const std::string &Source,
                            DiagnosticEngine &Diags) {
  std::vector<Token> Toks = lex(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  ParseOptions Opts;
  return ParserImpl(std::move(Toks), Diags, Opts).parseOneType();
}
