//===- Json.h - Minimal JSON value, parser, and writer ----------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON implementation: the serve protocol's
/// codec (newline-delimited JSON over a local socket), and the string
/// escaping of the reports nv-fuzz and the benchmarks write.
/// Deliberately minimal: one value type, recursive-descent parsing with
/// positions in error messages, and compact single-line serialization (the
/// wire format is one request or response per line, so the writer never
/// emits newlines).
///
/// Objects preserve insertion order (responses render deterministically,
/// which the CI assertions and journal byte-comparisons rely on) and
/// lookup is linear — protocol objects have at most a dozen keys.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_JSON_H
#define NV_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace nv {

class Json {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Json() : K(Kind::Null) {}
  Json(std::nullptr_t) : K(Kind::Null) {}
  Json(bool B) : K(Kind::Bool), BoolV(B) {}
  Json(double D) : K(Kind::Number), NumV(D) {}
  Json(int I) : K(Kind::Number), NumV(I) {}
  Json(unsigned I) : K(Kind::Number), NumV(I) {}
  Json(int64_t I) : K(Kind::Number), NumV(static_cast<double>(I)) {}
  Json(uint64_t I) : K(Kind::Number), NumV(static_cast<double>(I)) {}
  Json(const char *S) : K(Kind::String), StrV(S) {}
  Json(std::string S) : K(Kind::String), StrV(std::move(S)) {}

  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolean() const { return BoolV; }
  double number() const { return NumV; }
  const std::string &str() const { return StrV; }
  const std::vector<Json> &items() const { return Items; }
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  /// Array append (value must be an Array).
  void push(Json V) { Items.push_back(std::move(V)); }
  /// Object set: replaces an existing key, appends otherwise.
  void set(const std::string &Key, Json V);
  /// Member lookup; null when absent or not an object.
  const Json *get(const std::string &Key) const;

  //===--------------------------------------------------------------------===//
  // Typed accessors with defaults (the request-option idiom)
  //===--------------------------------------------------------------------===//

  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;
  double getNumber(const std::string &Key, double Default = 0) const;
  bool getBool(const std::string &Key, bool Default = false) const;

  /// Compact single-line serialization.
  std::string dump() const;

  /// Parses exactly one JSON value from \p Text (surrounding whitespace
  /// allowed, trailing garbage rejected). On failure returns null and sets
  /// \p Error with a byte offset.
  static bool parse(const std::string &Text, Json &Out, std::string &Error);

private:
  Kind K;
  bool BoolV = false;
  double NumV = 0;
  std::string StrV;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Members;
};

} // namespace nv

#endif // NV_SUPPORT_JSON_H
