#ifndef RODIN_EXEC_VM_COMPILER_H_
#define RODIN_EXEC_VM_COMPILER_H_

#include <optional>
#include <vector>

#include "exec/row.h"
#include "exec/vm/bytecode.h"
#include "plan/pt.h"
#include "query/expr.h"

namespace rodin::vm {

/// Compiles `pred` into a boolean program (terminal kRetBool) evaluated
/// against rows of `schema`, replicating EvalPred's semantics exactly:
/// And/Or short-circuit left to right, Compare materializes both sides
/// fully then applies exists-semantics, a bare VarPath is "any value is
/// bool true", a bare literal is "is bool true", a bare arithmetic
/// expression is false.
///
/// Returns nullopt when the expression cannot be compiled (unresolvable
/// variable path, register file or operand-width overflow on pathological
/// shapes); callers fall back to the interpreter, which is always correct.
/// Never returns an invalid chunk: every emitted chunk passes Validate().
std::optional<BytecodeChunk> CompilePredicate(const ExprPtr& pred,
                                              const RowSchema& schema);

/// Compiles `expr` into a multi-value program (terminal kRetValues) with
/// EvalMulti's semantics: literals yield themselves, paths fan out through
/// collections and drop nulls, arithmetic is a cross product, boolean kinds
/// yield a single Bool.
std::optional<BytecodeChunk> CompileMulti(const ExprPtr& expr,
                                          const RowSchema& schema);

/// Compiles a projection list into one program (terminal kRetProj) that
/// leaves column k's values in v[k]. The caller applies the odometer
/// cross-product over the registers, as ProjOp does for interpreted eval.
std::optional<BytecodeChunk> CompileProjection(const std::vector<OutCol>& proj,
                                               const RowSchema& schema);

}  // namespace rodin::vm

#endif  // RODIN_EXEC_VM_COMPILER_H_
