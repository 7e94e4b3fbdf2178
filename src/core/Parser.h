//===- Parser.h - NV parser -------------------------------------*- C++ -*-===//
//
// Part of nv-cpp. Parses NV surface syntax into the AST of Ast.h.
//
//===----------------------------------------------------------------------===//

#ifndef NV_CORE_PARSER_H
#define NV_CORE_PARSER_H

#include "core/Ast.h"
#include "support/Diagnostics.h"

#include <functional>
#include <optional>
#include <string>

namespace nv {

/// Resolves `include name` directives to NV source text; returns
/// std::nullopt when the name is unknown.
using IncludeResolver =
    std::function<std::optional<std::string>(const std::string &)>;

struct ParseOptions {
  /// Tried first; when it fails (or is unset) the built-in standard-model
  /// registry (core/Stdlib.h) is consulted.
  IncludeResolver Resolver;
};

/// The text of the file at \p Path, or std::nullopt when it cannot be read.
std::optional<std::string> readSourceFile(const std::string &Path);

/// Options for parsing the program file at \p Path: its `include`
/// directives resolve next to the file before the built-in registry.
ParseOptions fileParseOptions(const std::string &Path);

/// Parses a whole NV program. Returns std::nullopt (after filing
/// diagnostics) when the source is malformed.
std::optional<Program> parseProgram(const std::string &Source,
                                    DiagnosticEngine &Diags,
                                    const ParseOptions &Opts = {});

/// Parses a single expression (testing convenience). Null on error.
ExprPtr parseExprString(const std::string &Source, DiagnosticEngine &Diags);

/// Parses a single type (testing convenience). Null on error.
TypePtr parseTypeString(const std::string &Source, DiagnosticEngine &Diags);

} // namespace nv

#endif // NV_CORE_PARSER_H
