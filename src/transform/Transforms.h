//===- Transforms.h - NV-to-NV program transformations ----------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source-to-source transformations over NV (Sec. 5.2): capture-avoiding
/// substitution, alpha-renaming to unique binders, top-level inlining and
/// partial evaluation. Analyses compose these — the fault-tolerance
/// meta-protocol (analysis/FaultTolerance.h) is itself an NV-to-NV
/// transform built on top.
///
/// Transforms operate on parsed (not necessarily type-checked) syntax and
/// return fresh trees sharing unchanged subtrees; callers re-run typeCheck
/// on transformed programs before evaluation or encoding.
///
//===----------------------------------------------------------------------===//

#ifndef NV_TRANSFORM_TRANSFORMS_H
#define NV_TRANSFORM_TRANSFORMS_H

#include "core/Ast.h"

#include <map>
#include <string>

namespace nv {

/// Substitutes \p Replacement for free occurrences of \p Name in \p E.
/// Capture-avoiding: binders shadowing Name stop the substitution, and
/// binders that would capture free variables of Replacement are renamed.
ExprPtr substitute(const ExprPtr &E, const std::string &Name,
                   const ExprPtr &Replacement);

/// Applies several substitutions simultaneously.
ExprPtr substituteAll(const ExprPtr &E,
                      const std::map<std::string, ExprPtr> &Subst);

/// Renames every binder in \p E to a fresh unique name ("x$17"). \p Counter
/// persists across calls so names stay unique program-wide.
ExprPtr alphaRename(const ExprPtr &E, uint64_t &Counter);

/// Renames binders in every declaration of \p P.
Program alphaRenameProgram(const Program &P, uint64_t &Counter);

/// Partial evaluation (Sec. 5.2 "Partial Evaluation"): beta-reduces
/// applications of known functions, folds operators over literals, resolves
/// conditionals and matches with statically-known scrutinees, projects
/// known tuples/records, and drops dead lets. The paper uses this pass to
/// "normalize away most of the clutter introduced by language abstractions
/// and transformations". Input must be alpha-renamed (unique binders).
ExprPtr partialEval(const ExprPtr &E);

/// Partially evaluates a whole program: inlines top-level lets into the
/// init/trans/merge/assert/require declarations and partially evaluates
/// the results, leaving a program whose semantic declarations are
/// self-contained. Symbolic declarations are kept as free variables.
Program partialEvalProgram(const Program &P);

/// Renames the init/trans/merge/assert declarations of \p P to
/// `__base_<name>` (adjusting references in every declaration body), so a
/// meta-protocol can wrap them. The returned program has no
/// init/trans/merge/assert declarations of its own. It is a cloneProgram
/// copy, sharing no Expr node with \p P, and every Let whose inferred type
/// is closed is pinned to it (Decl::Ty, ParamCount 0).
Program renameSemanticDecls(const Program &P);

/// Counts AST nodes (testing/bench metric for transformation size).
size_t exprSize(const ExprPtr &E);
size_t programSize(const Program &P);

} // namespace nv

#endif // NV_TRANSFORM_TRANSFORMS_H
