// Unit tests for the bytecode VM (src/exec/vm/): every opcode executes at
// least once (proved by the debug opcode-hit counter, not by reading the
// compiler's output), the constant pool and path table deduplicate,
// disassembly is deterministic and complete, malformed chunks are rejected
// with kInternal, and EXPLAIN carries the disassembly.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/music_gen.h"
#include "exec/eval_core.h"
#include "exec/executor.h"
#include "exec/vm/bytecode.h"
#include "exec/vm/compiler.h"
#include "exec/vm/vm.h"

namespace rodin {
namespace {

class VmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 24;
    config.lineage_depth = 5;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
    schema_.cols = {{"x", g_.schema->FindClass("Composer")}};
    const Database::ScanSource src =
        g_.db->ResolveScan(EntityRef{"Composer", 0, 0});
    for (uint32_t slot : *src.slots) {
      rows_.push_back(Row{Value::Ref(Oid{src.base_class, slot})});
    }
  }

  EvalContext Ctx(vm::VmScratch* scratch) {
    EvalContext ctx;
    ctx.db = g_.db.get();
    ctx.charger = &g_.db->buffer_pool();
    ctx.predicate_evals = &predicate_evals_;
    ctx.method_calls = &method_calls_;
    ctx.method_cost_fp = &method_cost_fp_;
    ctx.vm = scratch;
    return ctx;
  }

  GeneratedDb g_;
  RowSchema schema_;
  std::vector<Row> rows_;
  uint64_t predicate_evals_ = 0;
  uint64_t method_calls_ = 0;
  uint64_t method_cost_fp_ = 0;
};

// --- Opcode coverage --------------------------------------------------------

TEST_F(VmTest, EveryOpcodeExecutes) {
  std::array<uint64_t, vm::kNumOpCodes> hits{};
  vm::VmScratch scratch;
  scratch.opcode_hits = &hits;

  // Three programs that together cover the whole ISA.
  //
  // Predicate: And(path < lit, Or(lit-pred, Not(path-vs-path cmp)), bare
  // varpath) — fused compare, jumps both ways, general compare, AnyTrue,
  // LoadBool, Not, RetBool.
  const ExprPtr pred = Expr::And([] {
    std::vector<ExprPtr> kids;
    kids.push_back(Expr::Cmp(CompareOp::kLt, Expr::Path("x", {"birthyear"}),
                             Expr::Lit(Value::Int(1700))));
    std::vector<ExprPtr> or_kids;
    or_kids.push_back(Expr::Lit(Value::Bool(false)));
    or_kids.push_back(Expr::Not(Expr::Cmp(CompareOp::kEq,
                                          Expr::Path("x", {"name"}),
                                          Expr::Path("x", {"master", "name"}))));
    kids.push_back(Expr::Or(std::move(or_kids)));
    kids.push_back(Expr::Path("x", {}));  // bare varpath-as-predicate
    return kids;
  }());
  const auto pred_chunk = vm::CompilePredicate(pred, schema_);
  ASSERT_TRUE(pred_chunk.has_value());

  // Value program: arith over a navigated path and a literal (operands must
  // be numeric — AsNumber asserts otherwise, in both engines).
  const ExprPtr value = Expr::Arith(ArithOp::kAdd,
                                    Expr::Path("x", {"birthyear"}),
                                    Expr::Lit(Value::Int(2)));
  const auto value_chunk = vm::CompileMulti(value, schema_);
  ASSERT_TRUE(value_chunk.has_value());

  // Projection: raw column (LoadColumn), constant, navigation, and a
  // predicate in value position (BoolValue) — RetProj.
  std::vector<OutCol> proj;
  proj.push_back(OutCol{"obj", Expr::Path("x", {})});
  proj.push_back(OutCol{"k", Expr::Lit(Value::Int(7))});
  proj.push_back(OutCol{"n", Expr::Path("x", {"name"})});
  proj.push_back(OutCol{"b", Expr::Cmp(CompareOp::kGe,
                                       Expr::Path("x", {"birthyear"}),
                                       Expr::Lit(Value::Int(1650)))});
  const auto proj_chunk = vm::CompileProjection(proj, schema_);
  ASSERT_TRUE(proj_chunk.has_value());

  EvalContext ctx = Ctx(&scratch);
  for (const Row& row : rows_) {
    (void)vm::RunPred(*pred_chunk, &ctx, row, &scratch);
    (void)vm::RunMulti(*value_chunk, &ctx, row, &scratch);
    (void)vm::RunProj(*proj_chunk, &ctx, row, &scratch);
  }

  for (size_t op = 0; op < vm::kNumOpCodes; ++op) {
    EXPECT_GT(hits[op], 0u) << "opcode never executed: "
                            << vm::OpCodeName(static_cast<vm::OpCode>(op));
  }
  EXPECT_EQ(scratch.rows, rows_.size() * 3);
}

// --- Constant pool and path table dedup -------------------------------------

TEST_F(VmTest, ConstantPoolDedup) {
  vm::BytecodeChunk chunk;
  const uint16_t a = chunk.AddConst(Value::Int(42));
  const uint16_t b = chunk.AddConst(Value::Str("harpsichord"));
  const uint16_t c = chunk.AddConst(Value::Int(42));
  const uint16_t d = chunk.AddConst(Value::Str("harpsichord"));
  EXPECT_EQ(a, c);
  EXPECT_EQ(b, d);
  EXPECT_EQ(chunk.consts.size(), 2u);

  const uint16_t p1 = chunk.AddPath({"works", "title"});
  const uint16_t p2 = chunk.AddPath({"works", "title"});
  const uint16_t p3 = chunk.AddPath({"works"});
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_EQ(chunk.paths.size(), 2u);

  // The compiler inherits the dedup: the same literal and path used twice
  // land once in the pools.
  std::vector<ExprPtr> kids;
  kids.push_back(Expr::Cmp(CompareOp::kGe, Expr::Path("x", {"birthyear"}),
                           Expr::Lit(Value::Int(1650))));
  kids.push_back(Expr::Cmp(CompareOp::kNe, Expr::Path("x", {"birthyear"}),
                           Expr::Lit(Value::Int(1650))));
  const auto compiled =
      vm::CompilePredicate(Expr::And(std::move(kids)), schema_);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(compiled->consts.size(), 1u);
  EXPECT_EQ(compiled->paths.size(), 1u);
}

// --- Disassembler -----------------------------------------------------------

TEST_F(VmTest, DisassemblerCompleteAndDeterministic) {
  const ExprPtr pred = Expr::And([] {
    std::vector<ExprPtr> kids;
    kids.push_back(Expr::Cmp(CompareOp::kEq,
                             Expr::Path("x", {"works", "instruments", "iname"}),
                             Expr::Lit(Value::Str("harpsichord"))));
    kids.push_back(Expr::Cmp(CompareOp::kLt, Expr::Path("x", {"birthyear"}),
                             Expr::Lit(Value::Int(1700))));
    return kids;
  }());
  const auto chunk = vm::CompilePredicate(pred, schema_);
  ASSERT_TRUE(chunk.has_value());

  const std::string listing = chunk->Disassemble();
  EXPECT_EQ(listing, chunk->Disassemble());  // deterministic

  // One header line plus exactly one line per instruction.
  size_t lines = 0;
  for (char ch : listing) lines += (ch == '\n') ? 1 : 0;
  EXPECT_EQ(lines, chunk->code.size() + 1);

  // Every instruction's opcode name appears.
  for (const vm::Instr& instr : chunk->code) {
    EXPECT_NE(listing.find(vm::OpCodeName(instr.op)), std::string::npos)
        << vm::OpCodeName(instr.op);
  }
  // Operands render symbolically: the literal and the path both show up.
  EXPECT_NE(listing.find("harpsichord"), std::string::npos);
  EXPECT_NE(listing.find("1700"), std::string::npos);
}

// --- Malformed chunks -------------------------------------------------------

vm::BytecodeChunk MinimalPredChunk() {
  vm::BytecodeChunk chunk;
  chunk.num_bool_regs = 1;
  chunk.num_cols = 1;
  chunk.code.push_back({vm::OpCode::kLoadBool, 0, 0, 0, 1, 0});
  chunk.code.push_back({vm::OpCode::kRetBool, 0, 0, 0, 0, 0});
  return chunk;
}

TEST_F(VmTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(MinimalPredChunk().Validate().ok());
  const auto compiled = vm::CompilePredicate(
      Expr::Cmp(CompareOp::kEq, Expr::Path("x", {"name"}),
                Expr::Lit(Value::Str("composer_1"))),
      schema_);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_TRUE(compiled->Validate().ok());
}

TEST_F(VmTest, ValidateRejectsMalformed) {
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    chunk.code[1].a = 9;  // bool register out of range
    const Status s = chunk.Validate();
    EXPECT_EQ(s.code, Status::Code::kInternal) << s.ToString();
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    chunk.code.pop_back();  // no terminal return
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Jump past the end of the chunk.
    chunk.code.insert(chunk.code.begin() + 1,
                      {vm::OpCode::kJumpIfFalse, 0, 0, 0, 99, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Constant-pool index with an empty pool.
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kLoadConst, 0, 0, 0, 0, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Column operand beyond the compiled row width.
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kLoadColumn, 0, 0, 0, 5, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Path-table index out of range on a navigation.
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kNavigate, 0, 0, 0, 0, 3});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk;  // empty program
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
}

// --- Fallback on pathological shapes ----------------------------------------

TEST_F(VmTest, UnresolvablePathFallsBackToInterpreter) {
  // "y" is not a column of the schema: the compiler must decline (and the
  // engine then interprets), never emit a bad chunk.
  EXPECT_FALSE(vm::CompilePredicate(
                   Expr::Cmp(CompareOp::kEq, Expr::Path("y", {"name"}),
                             Expr::Lit(Value::Str("a"))),
                   schema_)
                   .has_value());
  EXPECT_FALSE(vm::CompileMulti(Expr::Path("y", {}), schema_).has_value());
}

// --- EXPLAIN carries the disassembly ----------------------------------------

TEST_F(VmTest, ExplainIncludesDisassembly) {
  Session session(g_.db.get());
  const std::string text =
      "select [n: x.name] from x in Composer where x.birthyear < 1700";

  const ExplainResult ex = session.Explain(text);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  EXPECT_FALSE(ex.vm_disassembly.empty());
  EXPECT_NE(ex.ToString().find("bytecode (compiled eval):"),
            std::string::npos);
  EXPECT_NE(ex.vm_disassembly.find("RetBool"), std::string::npos);
}

}  // namespace
}  // namespace rodin
