// Layer probes and helpers shared by the workloads.
#include <map>

#include "datagen/music_gen.h"
#include "optimizer/baseline.h"
#include "query/parser.h"
#include "workloads.h"

namespace rodin_bench {

using rodin::ExplainNode;
using rodin::ExplainResult;
using rodin::QueryOptions;
using rodin::Row;

namespace {

/// Self time of every operator kind in an executed plan: the node's
/// inclusive micros minus its children's, summed per kind.
void SelfTimes(const ExplainNode& node, std::map<std::string, double>* out) {
  double self = node.measured.micros;
  for (const ExplainNode& c : node.children) {
    self -= c.measured.micros;
    SelfTimes(c, out);
  }
  (*out)[node.label.substr(0, node.label.find(' '))] += self;
}

const char* const kStages[] = {"rewrite", "translate", "generatePT",
                               "transformPT"};
const char* const kOperators[] = {"Fix",  "EJ",    "IJ",     "PIJ",  "Sel",
                                  "Proj", "Union", "Entity", "Delta"};

}  // namespace

bool Drain(rodin::ResultCursor* cursor, std::vector<Row>* rows) {
  rodin::RowBatch batch;
  while (cursor->Next(&batch)) {
    for (Row& r : batch.rows) rows->push_back(std::move(r));
  }
  return cursor->ok();
}

rodin::Status Fig3Canary() {
  rodin::MusicConfig config;
  config.seed = 42;
  config.num_composers = 300;
  rodin::GeneratedDb db =
      rodin::GenerateMusicDb(config, rodin::PaperMusicPhysical());
  rodin::Session session(db.db.get(), rodin::CostBasedOptions(42));
  rodin::ResultCursor cursor = session.Query(kFig3Text);
  std::vector<Row> rows;
  if (!Drain(&cursor, &rows)) return cursor.status();
  if (rows.size() != 54) {
    return rodin::Status::Error(
        rodin::Status::Code::kInternal,
        "fig3 at seed 42 returned " + std::to_string(rows.size()) +
            " rows, expected 54");
  }
  return rodin::Status::Ok();
}

void ProbeLayers(rodin::Session* session, const std::vector<std::string>& texts,
                 size_t start, int reps, SpanRecorder* spans, Report* r) {
  std::vector<double> parse_us, acquire_us, optimize_us, qerror;
  std::map<std::string, std::vector<double>> stage_us, self_us;
  double plans = 0, pushed = 0, optimized = 0;
  const size_t n = texts.size();
  uint64_t request = uint64_t{1} << 40;  // apart from the window's requests
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < n; ++k, ++request) {
      uint64_t s = spans->Begin("query.parse", 0, request);
      const rodin::ParseResult parsed =
          rodin::ParseQuery(texts[(start + k) % n], session->db().schema());
      parse_us.push_back(spans->End(s));
      if (!parsed.ok()) continue;
      // A handle over the parsed graph: the same plan-cache key as the
      // workload's own requests, so acquisition hits or misses as they do.
      rodin::PreparedQuery pq = session->Prepare(parsed.graph);
      QueryOptions explain_only;
      explain_only.explain_only = true;
      s = spans->Begin("api.plan_acquire", 0, request);
      const ExplainResult acquired = pq.Explain(explain_only);
      acquire_us.push_back(spans->End(s));

      s = spans->Begin("optimizer.optimize", 0, request);
      const rodin::OptimizeResult opt = session->Optimize(parsed.graph);
      optimize_us.push_back(spans->End(s));
      if (opt.ok()) {
        for (const rodin::StageReport& st : opt.stages) {
          stage_us[st.stage].push_back(st.micros);
        }
        plans += static_cast<double>(opt.plans_explored);
        pushed += (opt.pushed_sel || opt.pushed_join) ? 1 : 0;
        ++optimized;
      }

      s = spans->Begin("exec.explain_analyze", 0, request);
      const ExplainResult ex = pq.Explain();
      spans->End(s);
      if (!ex.ok()) continue;
      if (ex.est_cost > 0 && ex.measured_cost > 0) {
        qerror.push_back(std::max(ex.est_cost / ex.measured_cost,
                                  ex.measured_cost / ex.est_cost));
      }
      std::map<std::string, double> self;
      SelfTimes(ex.plan, &self);
      for (const char* op : kOperators) self_us[op].push_back(self[op]);
    }
  }
  r->Add("query.parse_us", Quantile(parse_us, 0.5), "us");
  r->Add("api.plan_acquire_us", Quantile(acquire_us, 0.5), "us");
  r->Add("optimizer.optimize_us", Quantile(optimize_us, 0.5), "us");
  for (const char* st : kStages) {
    r->Add(std::string("optimizer.") + st + "_us", Quantile(stage_us[st], 0.5),
           "us");
  }
  r->Add("optimizer.plans_explored", optimized > 0 ? plans / optimized : 0,
         "count");
  r->Add("optimizer.push_ratio", optimized > 0 ? pushed / optimized : 0,
         "ratio");
  r->Add("cost.root_qerror", Quantile(qerror, 0.5), "ratio");
  for (const char* op : kOperators) {
    r->Add(std::string("exec.self_us.") + op, Quantile(self_us[op], 0.5), "us");
  }
}

void WriteSpans(const RunConfig& cfg, const SpanRecorder& spans, Report* r) {
  const std::string path = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".trace.json";
  r->notes.push_back(spans.Write(path) ? "spans: " + path
                                       : "spans: could not write " + path);
}

}  // namespace rodin_bench
