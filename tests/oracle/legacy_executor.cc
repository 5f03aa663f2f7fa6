#include "oracle/legacy_executor.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/eval_core.h"

namespace rodin {

LegacyExecutor::LegacyExecutor(Database* db, CostParams params)
    : db_(db), params_(params) {
  RODIN_CHECK(db != nullptr, "null database");
  RODIN_CHECK(db->finalized(), "executor needs a finalized database");
  start_misses_ = db_->buffer_pool().stats().misses;
}

double LegacyExecutor::MeasuredCost() const {
  return MeasuredCostSince(db_->buffer_pool(), start_misses_, counters_,
                           params_);
}

void LegacyExecutor::ResetMeasurement(bool clear_buffer) {
  counters_ = ExecCounters{};
  method_cost_fp_ = 0;
  if (clear_buffer) {
    db_->buffer_pool().Clear();
  } else {
    db_->buffer_pool().ResetStats();
  }
  start_misses_ = db_->buffer_pool().stats().misses;
}

Table LegacyExecutor::Execute(const PTNode& plan) {
  BufferPool::ActiveFetchScope fetch_scope(&db_->buffer_pool());
  Table out = Eval(plan);
  counters_.rows_produced += out.rows.size();
  counters_.method_cost = MethodCostFromFp(method_cost_fp_);
  return out;
}

// Expression evaluation and counting go through eval_core with an
// EvalContext wired directly at this evaluator's counters and the buffer
// pool, so every charge lands in evaluation order.

Table LegacyExecutor::EvalEntity(const PTNode& node) {
  Table out;
  out.schema.cols = node.cols;
  db_->ScanEntity(node.entity, [&](Oid oid, const std::vector<Value>&) {
    out.rows.push_back({Value::Ref(oid)});
  });
  return out;
}

Table LegacyExecutor::EvalDelta(const PTNode& node) {
  auto it = deltas_.find(node.fix_name);
  RODIN_CHECK(it != deltas_.end(), "delta referenced outside its fixpoint");
  const Table* delta = it->second.first;
  ChargeTempScan(it->second.second, &db_->buffer_pool());
  Table out;
  out.schema.cols = node.cols;
  RODIN_CHECK(delta->schema.cols.size() == node.cols.size(),
              "delta column arity mismatch");
  out.rows = delta->rows;
  return out;
}

Table LegacyExecutor::EvalSel(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
  const PTNode& child = *node.children[0];
  Table out;
  out.schema.cols = node.cols;

  if (node.sel_access != SelAccess::kSeqScan) {
    RODIN_CHECK(child.kind == PTKind::kEntity, "index access needs entity");
    RODIN_CHECK(node.sel_index != nullptr, "index access without an index");
    Value literal;
    bool path_left = true;
    RODIN_CHECK(node.sel_index_pred != nullptr &&
                    SplitProbe(*node.sel_index_pred, &literal, &path_left),
                "malformed index probe predicate");
    std::vector<uint64_t> payloads;
    if (node.sel_access == SelAccess::kIndexEq) {
      payloads = node.sel_index->Lookup(literal, &db_->buffer_pool());
    } else {
      // One-sided range: orient by operator and which side the path is on.
      const CompareOp op = node.sel_index_pred->compare_op();
      const bool upper = path_left ? (op == CompareOp::kLt || op == CompareOp::kLe)
                                   : (op == CompareOp::kGt || op == CompareOp::kGe);
      const bool strict = op == CompareOp::kLt || op == CompareOp::kGt;
      if (upper) {
        payloads = node.sel_index->RangeLookup(Value::Null(), false, literal,
                                               strict, &db_->buffer_pool());
      } else {
        payloads = node.sel_index->RangeLookup(literal, strict, Value::Null(),
                                               false, &db_->buffer_pool());
      }
    }
    for (uint64_t p : payloads) {
      const Oid oid = db_->PayloadToOid(child.entity.extent, p);
      db_->ChargeRecordAccess(oid, {});
      Row row = {Value::Ref(oid)};
      ++counters_.predicate_evals;
      if (EvalPred(&ec, out.schema, row, node.pred)) {
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  if (child.kind == PTKind::kEntity) {
    // Fused scan + filter: one pass over the extent (Figure 5's Sel(C)).
    db_->ScanEntity(child.entity, [&](Oid oid, const std::vector<Value>&) {
      Row row = {Value::Ref(oid)};
      ++counters_.predicate_evals;
      if (EvalPred(&ec, out.schema, row, node.pred)) {
        out.rows.push_back(std::move(row));
      }
    });
    return out;
  }

  Table input = Eval(child);
  for (Row& row : input.rows) {
    ++counters_.predicate_evals;
    if (EvalPred(&ec, input.schema, row, node.pred)) {
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Table LegacyExecutor::EvalProj(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
  Table input = Eval(*node.children[0]);
  Table out;
  out.schema.cols = node.cols;
  for (const Row& row : input.rows) {
    // Cartesian product of the (possibly multi-valued) projections.
    std::vector<std::vector<Value>> cols;
    bool any_empty = false;
    for (const OutCol& c : node.proj) {
      cols.push_back(EvalMulti(&ec, input.schema, row, c.expr));
      if (cols.back().empty()) any_empty = true;
    }
    if (any_empty) continue;
    std::vector<size_t> idx(cols.size(), 0);
    bool done = false;
    while (!done) {
      Row r;
      r.reserve(cols.size());
      for (size_t i = 0; i < cols.size(); ++i) r.push_back(cols[i][idx[i]]);
      out.rows.push_back(std::move(r));
      // Odometer increment, rightmost column fastest.
      size_t k = cols.size();
      while (true) {
        if (k == 0) {
          done = true;
          break;
        }
        --k;
        if (++idx[k] < cols[k].size()) break;
        idx[k] = 0;
      }
    }
  }
  if (node.dedup) out.Dedup();
  return out;
}

Table LegacyExecutor::EvalEJ(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
  const PTNode& left_node = *node.children[0];
  const PTNode& right_node = *node.children[1];
  Table left = Eval(left_node);
  Table out;
  out.schema.cols = node.cols;

  if (node.algo == JoinAlgo::kIndexJoin) {
    RODIN_CHECK(right_node.kind == PTKind::kEntity,
                "index join needs an entity inner");
    RODIN_CHECK(node.join_index != nullptr, "index join without an index");
    ExprPtr residual_pred;
    const ExprPtr probe =
        ExtractIndexProbe(node, right_node.binding, &residual_pred);
    RODIN_CHECK(probe != nullptr, "index join probe not found in predicate");

    for (const Row& lrow : left.rows) {
      const std::vector<Value> keys = EvalMulti(&ec, left.schema, lrow, probe);
      for (const Value& key : keys) {
        const std::vector<uint64_t> payloads =
            node.join_index->Lookup(key, &db_->buffer_pool());
        for (uint64_t p : payloads) {
          const Oid oid = db_->PayloadToOid(right_node.entity.extent, p);
          db_->ChargeRecordAccess(oid, {});
          Row row = lrow;
          row.push_back(Value::Ref(oid));
          ++counters_.predicate_evals;
          if (EvalPred(&ec, out.schema, row, residual_pred)) {
            out.rows.push_back(std::move(row));
          }
        }
      }
    }
    return out;
  }

  // Nested loop. The inner is evaluated once; re-scans of an entity inner
  // charge its pages per outer row (buffer hits when it fits).
  Table right = Eval(right_node);
  const bool inner_entity =
      right_node.kind == PTKind::kEntity || right_node.kind == PTKind::kDelta;
  TempFile temp;
  std::vector<PageId> inner_pages;
  if (inner_entity && right_node.kind == PTKind::kEntity) {
    const Extent* e = db_->FindExtent(right_node.entity.extent);
    inner_pages = e->ScanPages(right_node.entity.vfrag, right_node.entity.hfrag);
  } else if (!inner_entity) {
    temp = AllocateTempFile(db_, right.rows.size(), right.schema.cols.size());
  }

  bool first_outer = true;
  for (const Row& lrow : left.rows) {
    if (!first_outer) {
      // Re-scan charge for the inner.
      if (!inner_pages.empty()) {
        for (PageId p : inner_pages) db_->buffer_pool().Fetch(p);
      } else if (temp.pages > 0) {
        ChargeTempScan(temp, &db_->buffer_pool());
      }
      // Delta inners are charged by EvalDelta once; re-scans of the delta
      // temp are charged here through deltas_.
      if (right_node.kind == PTKind::kDelta) {
        auto it = deltas_.find(right_node.fix_name);
        if (it != deltas_.end()) {
          ChargeTempScan(it->second.second, &db_->buffer_pool());
        }
      }
    }
    first_outer = false;
    for (const Row& rrow : right.rows) {
      Row row = lrow;
      row.insert(row.end(), rrow.begin(), rrow.end());
      ++counters_.predicate_evals;
      if (EvalPred(&ec, out.schema, row, node.pred)) {
        out.rows.push_back(std::move(row));
      }
    }
  }
  return out;
}

Table LegacyExecutor::EvalIJ(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
  Table input = Eval(*node.children[0]);
  Table out;
  out.schema.cols = node.cols;
  int col = -1;
  std::vector<std::string> rest;
  RODIN_CHECK(input.schema.ResolveVarPath(node.src_var, {node.attr}, &col, &rest),
              "IJ source unresolvable at runtime");
  for (const Row& row : input.rows) {
    std::vector<Value> targets;
    if (rest.empty()) {
      // Dotted column: the reference is already materialized in the row.
      ExpandValue(row[col], &targets);
    } else {
      Navigate(&ec, row[col], {node.attr}, 0, &targets);
    }
    for (const Value& t : targets) {
      if (!t.is_ref()) continue;
      db_->ChargeRecordAccess(t.AsRef(), {});
      Row r = row;
      r.push_back(t);
      out.rows.push_back(std::move(r));
    }
  }
  return out;
}

Table LegacyExecutor::EvalPIJ(const PTNode& node) {
  Table input = Eval(*node.children[0]);
  Table out;
  out.schema.cols = node.cols;
  const int col = input.schema.IndexOf(node.src_var);
  RODIN_CHECK(col >= 0, "PIJ source column missing at runtime");
  for (const Row& row : input.rows) {
    if (!row[col].is_ref()) continue;
    const auto entries =
        node.path_index->Lookup(row[col].AsRef(), &db_->buffer_pool());
    for (const std::vector<Oid>* entry : entries) {
      Row r = row;
      for (size_t i = 0; i < node.path_out_vars.size(); ++i) {
        if (!node.path_out_vars[i].empty()) {
          r.push_back(Value::Ref((*entry)[i + 1]));
        }
      }
      out.rows.push_back(std::move(r));
    }
  }
  return out;
}

Table LegacyExecutor::EvalUnion(const PTNode& node) {
  Table out;
  out.schema.cols = node.cols;
  for (const auto& c : node.children) {
    Table t = Eval(*c);
    for (Row& r : t.rows) out.rows.push_back(std::move(r));
  }
  out.Dedup();
  return out;
}

Table LegacyExecutor::EvalFix(const PTNode& node) {
  const bool cacheable = !HasForeignDelta(node, node.fix_name);
  std::string key;
  if (cacheable) {
    key = node.Fingerprint();
    auto it = fix_cache_.find(key);
    if (it != fix_cache_.end()) {
      ChargeTempScan(it->second.temp, &db_->buffer_pool());
      return it->second.result;
    }
  }
  Table base = Eval(*node.children[0]);
  base.Dedup();

  Table result;
  result.schema.cols = node.cols;
  result.rows = base.rows;

  std::set<Row, bool (*)(const Row&, const Row&)> seen(&Table::RowLess);
  for (const Row& r : base.rows) seen.insert(r);

  // Semi-naive: feed only the last iteration's new tuples into the
  // recursive arm. Naive mode feeds the whole accumulated result each
  // round (re-deriving everything) — the evaluation strategy Figure 5's
  // cost formula improves on.
  Table delta = base;
  bool progress = true;
  while (progress && !result.rows.empty()) {
    ++counters_.fix_iterations;
    const Table& input = node.naive_fix ? result : delta;
    if (!node.naive_fix && delta.rows.empty()) break;
    const TempFile temp =
        AllocateTempFile(db_, input.rows.size(), input.schema.cols.size());
    deltas_[node.fix_name] = {&input, temp};
    Table produced = Eval(*node.children[1]);
    deltas_.erase(node.fix_name);

    Table next;
    next.schema = result.schema;
    for (Row& r : produced.rows) {
      if (seen.insert(r).second) {
        result.rows.push_back(r);
        next.rows.push_back(std::move(r));
      }
    }
    progress = !next.rows.empty();
    delta = std::move(next);
  }
  if (cacheable) {
    fix_cache_[key] = {result, AllocateTempFile(db_, result.rows.size(),
                                                result.schema.cols.size())};
  }
  return result;
}

Table LegacyExecutor::Eval(const PTNode& node) {
  switch (node.kind) {
    case PTKind::kEntity:
      return EvalEntity(node);
    case PTKind::kDelta:
      return EvalDelta(node);
    case PTKind::kSel:
      return EvalSel(node);
    case PTKind::kProj:
      return EvalProj(node);
    case PTKind::kEJ:
      return EvalEJ(node);
    case PTKind::kIJ:
      return EvalIJ(node);
    case PTKind::kPIJ:
      return EvalPIJ(node);
    case PTKind::kUnion:
      return EvalUnion(node);
    case PTKind::kFix:
      return EvalFix(node);
  }
  return Table{};
}

}  // namespace rodin
