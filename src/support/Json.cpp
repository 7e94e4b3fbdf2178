//===- Json.cpp - Minimal JSON value, parser, and writer ----------------------===//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace nv;

void Json::set(const std::string &Key, Json V) {
  for (auto &M : Members) {
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  }
  Members.emplace_back(Key, std::move(V));
}

const Json *Json::get(const std::string &Key) const {
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

std::string Json::getString(const std::string &Key,
                            const std::string &Default) const {
  const Json *V = get(Key);
  return V && V->isString() ? V->str() : Default;
}

double Json::getNumber(const std::string &Key, double Default) const {
  const Json *V = get(Key);
  return V && V->isNumber() ? V->number() : Default;
}

bool Json::getBool(const std::string &Key, bool Default) const {
  const Json *V = get(Key);
  return V && V->isBool() ? V->boolean() : Default;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void dumpString(const std::string &S, std::string &Out) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
}

void dumpNumber(double D, std::string &Out) {
  // Integers (the common case: counts, exit codes, node ids) render
  // without a fractional part so responses are stable and greppable.
  if (std::isfinite(D) && D == std::floor(D) && std::fabs(D) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(D));
    Out += Buf;
    return;
  }
  if (!std::isfinite(D)) { // JSON has no inf/nan; null is the least-bad.
    Out += "null";
    return;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", D);
  Out += Buf;
}

void dumpValue(const Json &J, std::string &Out) {
  switch (J.kind()) {
  case Json::Kind::Null:
    Out += "null";
    break;
  case Json::Kind::Bool:
    Out += J.boolean() ? "true" : "false";
    break;
  case Json::Kind::Number:
    dumpNumber(J.number(), Out);
    break;
  case Json::Kind::String:
    dumpString(J.str(), Out);
    break;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &E : J.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(E, Out);
    }
    Out += ']';
    break;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, V] : J.members()) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(Key, Out);
      Out += ':';
      dumpValue(V, Out);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpValue(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &T) : Text(T) {}

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected ") + Word);
    Pos += Len;
    return true;
  }

  void appendUtf8(uint32_t Cp, std::string &Out) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool hex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Cp = 0;
        if (!hex4(Cp))
          return false;
        // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          if (Text.compare(Pos, 2, "\\u") != 0)
            return fail("lone high surrogate");
          Pos += 2;
          uint32_t Low = 0;
          if (!hex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("bad low surrogate");
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Low - 0xDC00);
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          return fail("lone low surrogate");
        }
        appendUtf8(Cp, Out);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Json &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected number");
    char *End = nullptr;
    std::string Tok = Text.substr(Start, Pos - Start);
    double D = std::strtod(Tok.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    Out = Json(D);
    return true;
  }

  bool parseValue(Json &Out, unsigned Depth) {
    if (Depth > 64)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out = Json::object();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (!consume(':'))
          return false;
        Json V;
        if (!parseValue(V, Depth + 1))
          return false;
        Out.set(Key, std::move(V));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        return consume('}');
      }
    }
    if (C == '[') {
      ++Pos;
      Out = Json::array();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        Json V;
        if (!parseValue(V, Depth + 1))
          return false;
        Out.push(std::move(V));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        return consume(']');
      }
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json(std::move(S));
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return false;
      Out = Json(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return false;
      Out = Json(false);
      return true;
    }
    if (C == 'n') {
      if (!literal("null"))
        return false;
      Out = Json();
      return true;
    }
    return parseNumber(Out);
  }
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string &Error) {
  Parser P(Text);
  Json V;
  if (!P.parseValue(V, 0)) {
    Error = P.Error;
    Out = Json();
    return false;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    Error = "trailing garbage at offset " + std::to_string(P.Pos);
    Out = Json();
    return false;
  }
  Out = std::move(V);
  return true;
}
