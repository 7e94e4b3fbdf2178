//===- TypeChecker.h - NV type inference ------------------------*- C++ -*-===//
//
// Part of nv-cpp. Hindley-Milner style inference for NV with sized
// integers, records, options, tuples and total dictionaries.
// Let-polymorphism is granted at top-level declarations (Sec. 3); routing
// messages must end up with a concrete type.
//
//===----------------------------------------------------------------------===//

#ifndef NV_CORE_TYPECHECKER_H
#define NV_CORE_TYPECHECKER_H

#include "core/Ast.h"
#include "support/Diagnostics.h"

#include <cstddef>

namespace nv {

/// Type-checks a whole program in place: fills Expr::Ty on every node,
/// resolves the attribute type into Program::AttrType (from the signatures
/// of init/trans/merge of Fig. 8), validates symbolic/require declarations,
/// and checks node literals against the declared topology.
///
/// \returns true on success; diagnostics are filed otherwise.
bool typeCheck(Program &P, DiagnosticEngine &Diags);

/// Type-checks the declarations P.Decls[\p First..] appended to an
/// already type-checked prefix, which is not checked again: each prefix
/// let enters the environment at the generalization of its zonked body
/// type (with fresh type variables, so the prefix's own types are never
/// bound), each prefix symbolic at its type. Then the new declarations are
/// checked as typeCheck would, Program::AttrType is derived from init/
/// trans/merge/assert wherever they are declared, and only the new
/// declarations' types are zonked. typeCheck(P) is typeCheckAppended(P, 0).
///
/// \returns true on success; diagnostics are filed otherwise.
bool typeCheckAppended(Program &P, size_t First, DiagnosticEngine &Diags);

/// Type-checks a closed expression (testing convenience). Returns the
/// zonked type, or null after filing diagnostics.
TypePtr typeCheckExpr(const ExprPtr &E, DiagnosticEngine &Diags);

/// Resolves bound unification variables deeply, producing a type with no
/// bound Var nodes (unbound Vars are kept and denote polymorphism).
TypePtr zonk(const TypePtr &T);

} // namespace nv

#endif // NV_CORE_TYPECHECKER_H
