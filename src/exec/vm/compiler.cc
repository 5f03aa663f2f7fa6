#include "exec/vm/compiler.h"

#include <utility>

#include "common/check.h"
#include "exec/eval_core.h"

namespace rodin::vm {

namespace {

/// Register-file ceiling: register operands are 8 bits wide, and realistic
/// operator expressions use a handful of registers. An expression that
/// overflows this falls back to the interpreter.
constexpr int kMaxRegs = 255;
/// Constant-pool / path-table / jump-target ceiling (16-bit operands).
constexpr size_t kMaxPoolEntries = kNoPath;  // 0xffff is the no-path sentinel

/// Flips a comparison so that CompareValues(Flipped(op), b, a) ==
/// CompareValues(op, a, b) under the Value total order. Lets the fused
/// column-vs-constant compare normalize "literal op path" to "path
/// flipped-op literal".
CompareOp Flipped(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
  }
  return op;
}

/// Emits one expression tree into a chunk, mirroring EvalPred / EvalMulti
/// node for node so the compiled program performs page charges and method
/// invocations at identical points in identical order. Registers are
/// stack-allocated: children evaluate into temporaries released afterwards,
/// high-water marks become the chunk's register-file sizes.
class Compiler {
 public:
  Compiler(const RowSchema& schema, BytecodeChunk* chunk)
      : schema_(schema), chunk_(chunk) {
    chunk_->num_cols = static_cast<uint16_t>(schema.cols.size());
  }

  bool ok() const { return ok_; }

  int AllocV() {
    if (next_v_ >= kMaxRegs) ok_ = false;
    const int r = next_v_++;
    if (next_v_ > chunk_->num_value_regs) {
      chunk_->num_value_regs = static_cast<uint8_t>(next_v_);
    }
    return r;
  }
  void FreeV(int r) { next_v_ = r; }

  int AllocB() {
    if (next_b_ >= kMaxRegs) ok_ = false;
    const int r = next_b_++;
    if (next_b_ > chunk_->num_bool_regs) {
      chunk_->num_bool_regs = static_cast<uint8_t>(next_b_);
    }
    return r;
  }
  void FreeB(int r) { next_b_ = r; }

  size_t Emit(OpCode op, int a = 0, int b = 0, int c = 0, uint32_t d = 0,
              uint32_t e = 0) {
    if (code().size() >= kMaxPoolEntries) ok_ = false;
    Instr in;
    in.op = op;
    in.a = static_cast<uint8_t>(a);
    in.b = static_cast<uint8_t>(b);
    in.c = static_cast<uint8_t>(c);
    in.d = static_cast<uint16_t>(d);
    in.e = static_cast<uint16_t>(e);
    code().push_back(in);
    return code().size() - 1;
  }

  void PatchJump(size_t at) {
    code()[at].d = static_cast<uint16_t>(code().size());
  }

  uint16_t InternConst(const Value& v) {
    if (chunk_->consts.size() >= kMaxPoolEntries) ok_ = false;
    return chunk_->AddConst(v);
  }

  uint16_t InternPath(const std::vector<std::string>& p) {
    if (chunk_->paths.size() >= kMaxPoolEntries) ok_ = false;
    return chunk_->AddPath(p);
  }

  /// Resolves a kVarPath against the schema. False (→ interpreter fallback,
  /// which RODIN_CHECKs the same resolution) when unresolvable or the
  /// column exceeds the operand width.
  bool Resolve(const Expr& e, int* col, std::vector<std::string>* rest) {
    if (!schema_.ResolveVarPath(e.var(), e.path(), col, rest)) return false;
    return *col >= 0 && *col <= 0xff;
  }

  /// EvalPred equivalent: leaves the boolean result in b[dst].
  void EmitPred(const ExprPtr& pred, int dst) {
    if (!ok_) return;
    if (pred == nullptr) {
      Emit(OpCode::kLoadBool, dst, 0, 0, 1);
      return;
    }
    switch (pred->kind()) {
      case ExprKind::kAnd: {
        std::vector<size_t> exits;
        const auto& cs = pred->children();
        if (cs.empty()) {
          Emit(OpCode::kLoadBool, dst, 0, 0, 1);
          return;
        }
        for (size_t i = 0; i < cs.size(); ++i) {
          EmitPred(cs[i], dst);
          if (i + 1 < cs.size()) {
            exits.push_back(Emit(OpCode::kJumpIfFalse, dst));
          }
        }
        for (size_t at : exits) PatchJump(at);
        return;
      }
      case ExprKind::kOr: {
        std::vector<size_t> exits;
        const auto& cs = pred->children();
        if (cs.empty()) {
          Emit(OpCode::kLoadBool, dst, 0, 0, 0);
          return;
        }
        for (size_t i = 0; i < cs.size(); ++i) {
          EmitPred(cs[i], dst);
          if (i + 1 < cs.size()) {
            exits.push_back(Emit(OpCode::kJumpIfTrue, dst));
          }
        }
        for (size_t at : exits) PatchJump(at);
        return;
      }
      case ExprKind::kNot:
        EmitPred(pred->children()[0], dst);
        Emit(OpCode::kNot, dst, dst);
        return;
      case ExprKind::kCompare: {
        const ExprPtr& l = pred->children()[0];
        const ExprPtr& r = pred->children()[1];
        // Fused fast path: column/path against a constant. The literal side
        // has no evaluation effects, so normalizing "literal op path" to
        // "path flipped-op literal" preserves the interpreted charge order
        // (the path side is still materialized in full before comparing).
        int col = -1;
        std::vector<std::string> rest;
        if (l->kind() == ExprKind::kVarPath &&
            r->kind() == ExprKind::kLiteral && Resolve(*l, &col, &rest)) {
          EmitCmpColConst(dst, pred->compare_op(), col, rest, r->literal());
          return;
        }
        if (r->kind() == ExprKind::kVarPath &&
            l->kind() == ExprKind::kLiteral && Resolve(*r, &col, &rest)) {
          EmitCmpColConst(dst, Flipped(pred->compare_op()), col, rest,
                          l->literal());
          return;
        }
        // General form: materialize both sides fully (left first, exactly
        // like EvalPred), then the exists-semantics comparison.
        const int va = AllocV();
        EmitMulti(l, va);
        const int vb = AllocV();
        EmitMulti(r, vb);
        Emit(OpCode::kCompare, dst, va, vb,
             static_cast<uint32_t>(pred->compare_op()));
        FreeV(vb);
        FreeV(va);
        return;
      }
      case ExprKind::kLiteral:
        Emit(OpCode::kLoadBool, dst, 0, 0,
             pred->literal().is_bool() && pred->literal().AsBool() ? 1 : 0);
        return;
      case ExprKind::kArith:
        // A bare arithmetic expression is not a predicate (EvalPred returns
        // false without evaluating the operands).
        Emit(OpCode::kLoadBool, dst, 0, 0, 0);
        return;
      case ExprKind::kVarPath: {
        const int v = AllocV();
        EmitMulti(pred, v);
        Emit(OpCode::kAnyTrue, dst, v);
        FreeV(v);
        return;
      }
    }
    ok_ = false;
  }

  /// EvalMulti equivalent: leaves the value list in v[dst].
  void EmitMulti(const ExprPtr& expr, int dst) {
    if (!ok_) return;
    if (expr == nullptr) {
      ok_ = false;  // EvalMulti(null) is empty; no operator compiles this
      return;
    }
    switch (expr->kind()) {
      case ExprKind::kLiteral:
        Emit(OpCode::kLoadConst, dst, 0, 0, InternConst(expr->literal()));
        return;
      case ExprKind::kVarPath: {
        int col = -1;
        std::vector<std::string> rest;
        if (!Resolve(*expr, &col, &rest)) {
          ok_ = false;
          return;
        }
        if (rest.empty()) {
          Emit(OpCode::kLoadColumn, dst, 0, 0, static_cast<uint32_t>(col));
        } else {
          Emit(OpCode::kNavigate, dst, 0, 0, static_cast<uint32_t>(col),
               InternPath(rest));
        }
        return;
      }
      case ExprKind::kArith: {
        const int va = AllocV();
        EmitMulti(expr->children()[0], va);
        const int vb = AllocV();
        EmitMulti(expr->children()[1], vb);
        Emit(OpCode::kArith, dst, va, vb,
             static_cast<uint32_t>(expr->arith_op()));
        FreeV(vb);
        FreeV(va);
        return;
      }
      case ExprKind::kCompare:
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kNot: {
        const int b = AllocB();
        EmitPred(expr, b);
        Emit(OpCode::kBoolValue, dst, b);
        FreeB(b);
        return;
      }
    }
    ok_ = false;
  }

 private:
  void EmitCmpColConst(int dst, CompareOp op, int col,
                       const std::vector<std::string>& rest,
                       const Value& literal) {
    Emit(OpCode::kCmpColConst, dst, static_cast<int>(op), col,
         InternConst(literal), rest.empty() ? kNoPath : InternPath(rest));
  }

  std::vector<Instr>& code() { return chunk_->code; }

  const RowSchema& schema_;
  BytecodeChunk* chunk_;
  bool ok_ = true;
  int next_v_ = 0;
  int next_b_ = 0;
};

std::optional<BytecodeChunk> Finish(BytecodeChunk chunk, bool ok) {
  if (!ok) return std::nullopt;
  const Status s = chunk.Validate();
  RODIN_CHECK(s.ok(), "compiler emitted an invalid chunk");
  return chunk;
}

}  // namespace

std::optional<BytecodeChunk> CompilePredicate(const ExprPtr& pred,
                                              const RowSchema& schema) {
  BytecodeChunk chunk;
  Compiler c(schema, &chunk);
  const int b = c.AllocB();
  c.EmitPred(pred, b);
  c.Emit(OpCode::kRetBool, b);
  return Finish(std::move(chunk), c.ok());
}

std::optional<BytecodeChunk> CompileMulti(const ExprPtr& expr,
                                          const RowSchema& schema) {
  if (expr == nullptr) return std::nullopt;
  BytecodeChunk chunk;
  Compiler c(schema, &chunk);
  const int v = c.AllocV();
  c.EmitMulti(expr, v);
  c.Emit(OpCode::kRetValues, v);
  return Finish(std::move(chunk), c.ok());
}

std::optional<BytecodeChunk> CompileProjection(const std::vector<OutCol>& proj,
                                               const RowSchema& schema) {
  if (proj.empty() || proj.size() > 0xff) return std::nullopt;
  BytecodeChunk chunk;
  Compiler c(schema, &chunk);
  // Column k's values land in v[k]; kRetProj announces the register range.
  for (size_t k = 0; k < proj.size(); ++k) {
    const int v = c.AllocV();
    RODIN_CHECK(v == static_cast<int>(k), "projection register layout");
  }
  for (size_t k = 0; k < proj.size(); ++k) {
    c.EmitMulti(proj[k].expr, static_cast<int>(k));
  }
  c.Emit(OpCode::kRetProj, 0, 0, 0, static_cast<uint32_t>(proj.size()));
  return Finish(std::move(chunk), c.ok());
}

}  // namespace rodin::vm
