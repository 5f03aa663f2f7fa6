// The two embedded workloads: `fig3` (the paper's prepared Figure 3 query
// on a warm plan cache, execution-bound) and `adhoc_plans` (a cycle of
// distinct recursive texts longer than the plan cache, planning-bound).
// Both run one closed-loop client against a Session with default options.
// The traced run of `adhoc_plans` ends with the served burst (served.cc).
#include "workloads.h"

#include <memory>
#include <random>

#include "datagen/music_gen.h"
#include "optimizer/baseline.h"
#include "query/parser.h"

namespace rodin_bench {

using rodin::PreparedQuery;
using rodin::ResultCursor;
using rodin::Row;
using rodin::Session;

namespace {

// The recursive Influencer view of the paper's Figure 3 and its select
// head; the workloads append the where clause.
constexpr char kInfluencerHead[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
)";

}  // namespace

// As in examples/queries/fig3_harpsichord.esql; kept here so the
// benchmark's input cannot change under it.
const std::string kFig3Text =
    std::string(kInfluencerHead) +
    "where j.master.works.instruments.iname = \"harpsichord\" and j.gen >= 6\n";

namespace {

const char* const kInstruments[] = {"harpsichord", "flute",   "violin",
                                    "cello",       "oboe",    "organ",
                                    "viola",       "trumpet", "horn",
                                    "bassoon",     "timpani", "lute"};

/// The music database at the generator's default lineage depth (8).
rodin::GeneratedDb MakeMusic(uint64_t seed, uint32_t composers) {
  rodin::MusicConfig config;
  config.seed = seed;
  config.num_composers = composers;
  return rodin::GenerateMusicDb(config, rodin::PaperMusicPhysical());
}

/// The ad hoc stream: the Figure 3 text for each of 12 instruments and 6
/// generation thresholds, and 24 unselective birthyear variants where
/// pushing the selection loses, in an order drawn from the seed. 96
/// distinct texts cycle through a 64-entry plan cache, so every request
/// misses.
std::vector<std::string> AdhocTexts(uint64_t seed) {
  std::vector<std::string> texts;
  for (const char* instrument : kInstruments) {
    for (int gen = 1; gen <= 6; ++gen) {
      texts.push_back(std::string(kInfluencerHead) +
                      "where j.master.works.instruments.iname = \"" +
                      instrument + "\" and j.gen >= " + std::to_string(gen) +
                      "\n");
    }
  }
  for (int year = 1000; year < 1600; year += 50) {
    for (int gen = 1; gen <= 2; ++gen) {
      texts.push_back(std::string(kInfluencerHead) +
                      "where j.master.birthyear > " + std::to_string(year) +
                      " and j.gen >= " + std::to_string(gen) + "\n");
    }
  }
  std::mt19937_64 rng(seed);
  for (size_t i = texts.size() - 1; i > 0; --i) {
    std::swap(texts[i], texts[rng() % (i + 1)]);
  }
  return texts;
}

/// One embedded workload instance: database, session and the oracle.
struct Embedded {
  rodin::GeneratedDb db;
  std::unique_ptr<Session> session;
  std::vector<std::string> texts;
  std::vector<PreparedQuery> prepared;  // empty: texts are run ad hoc
  std::vector<Answer> oracle;           // one per text
};

/// Datagen, statistics, the oracle pass over every text (which also warms
/// the plan cache and lazy state) and, for a prepared workload, one more
/// warm request per text.
rodin::Status SetUp(const RunConfig& cfg, Embedded* w) {
  const bool fig3 = cfg.workload == "fig3";
  // Both run on the reproduction's seed-42 data (for fig3, the database the
  // canary pins), so the work is the same at every seed. On fig3 the seed
  // drives the optimizer's randomized search, which settles on the same
  // plan at every seed. On adhoc_plans it drives only the order of the
  // stream: the search keeps its default seed, because the planning work it
  // does differs by seed (74.8 to 88.8 plans explored per text over seeds
  // 1-8) and the workload measures planning.
  w->db = MakeMusic(42, fig3 ? 300 : 20);
  w->session = std::make_unique<Session>(
      w->db.db.get(), fig3 ? rodin::CostBasedOptions(cfg.seed)
                           : rodin::CostBasedOptions());
  w->texts = fig3 ? std::vector<std::string>{kFig3Text} : AdhocTexts(cfg.seed);
  for (const std::string& text : w->texts) {
    if (fig3) w->prepared.push_back(w->session->Prepare(text));
    ResultCursor cursor = fig3 ? w->prepared.back().Query()
                               : w->session->Query(text);
    std::vector<Row> rows;
    if (!Drain(&cursor, &rows)) return cursor.status();
    w->oracle.push_back(Digest(rows));
  }
  for (PreparedQuery& pq : w->prepared) {
    ResultCursor cursor = pq.Query();
    std::vector<Row> rows;
    if (!Drain(&cursor, &rows)) return cursor.status();
  }
  return rodin::Status::Ok();
}

/// Figures summed over the reads of the measured window.
struct ReadTotals {
  std::vector<double> plain_ms;   // untraced reads
  std::vector<double> traced_ms;  // traced reads (trace mode only)
  std::vector<double> execute_us;
  double measured_cost = 0;
  uint64_t reads = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t predicate_evals = 0;
  uint64_t rows_produced = 0;
  uint64_t fix_iterations = 0;
  uint64_t page_fetches = 0;
  uint64_t pool_hits = 0;
};

void Account(const Embedded& w, size_t idx, const ResultCursor& cursor,
             bool ok, const std::vector<Row>& rows, ReadTotals* t) {
  ++t->reads;
  // Nothing refuses an embedded read, so an error is a wrong answer too.
  if (!ok || Digest(rows) != w.oracle[idx]) {
    ++t->failed;
    ++t->wrong;
    if (!ok) return;
  }
  t->measured_cost += cursor.measured_cost();
  t->predicate_evals += cursor.counters().predicate_evals;
  t->rows_produced += cursor.counters().rows_produced;
  t->fix_iterations += cursor.counters().fix_iterations;
  // A non-shared session resets the pool's counters when a run starts, so
  // after the drain they are this read's.
  const auto& pool = w.db.db->buffer_pool().stats();
  t->page_fetches += pool.fetches;
  t->pool_hits += pool.hits;
}

/// Length of the served burst in the adhoc_plans traced run.
constexpr double kServedBurstSeconds = 8;

}  // namespace

Report RunEmbedded(const RunConfig& cfg) {
  Report r;
  std::vector<double> setup_s;
  std::unique_ptr<Embedded> instance;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    instance.reset();  // the session goes before its database
    instance = std::make_unique<Embedded>();
    const Clock::time_point t0 = Clock::now();
    const rodin::Status st = SetUp(cfg, instance.get());
    setup_s.push_back(MicrosSince(t0) / 1e6);
    if (!st.ok()) {
      r.setup_error = "set-up query failed: " + st.message;
      return r;
    }
  }

  Embedded& w = *instance;
  SpanRecorder spans;
  const rodin::PlanCacheStats cache0 = w.session->plan_cache().stats();
  ReadTotals t;
  const size_t n = w.texts.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(cfg.seconds * 1e6));
  size_t i = 0;
  for (; Clock::now() < end; ++i) {
    const size_t idx = i % n;
    const bool traced = cfg.trace && i % 2 == 1;
    std::vector<Row> rows;
    const Clock::time_point t_read = Clock::now();
    ResultCursor cursor;
    bool ok = false;
    if (!traced) {
      cursor = w.prepared.empty() ? w.session->Query(w.texts[idx])
                                  : w.prepared[idx].Query();
      ok = Drain(&cursor, &rows);
      t.plain_ms.push_back(MicrosSince(t_read) / 1e3);
    } else {
      const uint64_t root = spans.Begin("read", 0, i);
      if (w.prepared.empty()) {
        uint64_t s = spans.Begin("query.parse", root, i);
        const rodin::ParseResult parsed =
            rodin::ParseQuery(w.texts[idx], w.db.db->schema());
        spans.End(s);
        s = spans.Begin("api.plan_acquire", root, i);
        cursor = parsed.ok() ? w.session->Query(parsed.graph)
                             : ResultCursor(parsed.status);
        spans.End(s);
      } else {
        const uint64_t s = spans.Begin("api.plan_acquire", root, i);
        cursor = w.prepared[idx].Query();
        spans.End(s);
      }
      const uint64_t s = spans.Begin("exec.execute", root, i);
      ok = Drain(&cursor, &rows);
      t.execute_us.push_back(spans.End(s));
      spans.End(root);
      t.traced_ms.push_back(MicrosSince(t_read) / 1e3);
    }
    Account(w, idx, cursor, ok, rows, &t);
  }
  const double elapsed_s = MicrosSince(start) / 1e6;
  const rodin::PlanCacheStats cache1 = w.session->plan_cache().stats();

  r.attempted = t.reads;
  r.failed = t.failed;
  r.wrong = t.wrong;
  const double reads = static_cast<double>(std::max<uint64_t>(t.reads, 1));
  if (!cfg.trace) {
    r.Add("setup_s", Quantile(setup_s, 0.5), "s");
    r.Add("read_p90_ms", Quantile(t.plain_ms, 0.9), "ms");
    r.Add("ok_ratio", static_cast<double>(t.reads - t.failed) / reads, "ratio");
    r.Add("measured_cost", t.measured_cost / reads, "cost");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    r.stamp.push_back({"samples", static_cast<double>(t.plain_ms.size())});
    // Printed but not bounded: both mix the host's fast and slow phases in
    // proportions that change from run to run (see the README).
    r.stamp.push_back({"read_qps", static_cast<double>(t.reads) / elapsed_s});
    r.stamp.push_back({"read_p50_ms", Quantile(t.plain_ms, 0.5)});
    return r;
  }

  ProbeLayers(w.session.get(), w.texts, i % n, w.prepared.empty() ? 1 : 5,
              &spans, &r);
  const double lookups = static_cast<double>(cache1.hits - cache0.hits) +
                         static_cast<double>(cache1.misses - cache0.misses);
  r.Add("api.plan_cache_hit_ratio",
        lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                    : 0,
        "ratio");
  r.Add("api.plan_cache_invalidations",
        static_cast<double>(cache1.invalidations - cache0.invalidations),
        "count");
  r.Add("exec.execute_us", Quantile(t.execute_us, 0.5), "us");
  r.Add("exec.predicate_evals", static_cast<double>(t.predicate_evals) / reads,
        "count");
  r.Add("exec.rows_produced", static_cast<double>(t.rows_produced) / reads,
        "count");
  r.Add("exec.fix_iterations", static_cast<double>(t.fix_iterations) / reads,
        "count");
  r.Add("storage.page_fetches", static_cast<double>(t.page_fetches) / reads,
        "count");
  r.Add("storage.pool_hit_ratio",
        t.page_fetches > 0 ? static_cast<double>(t.pool_hits) /
                                 static_cast<double>(t.page_fetches)
                           : 0,
        "ratio");
  if (w.prepared.empty()) {
    ServedBurst(cfg, kServedBurstSeconds, &spans, &r);
  } else {
    for (const MetricName& m : kServedOnlyMetrics) {
      r.AddMissing(m.name, m.unit,
                   "fig3 makes no writes and does not use the server; the "
                   "served burst of the adhoc_plans traced run measures it");
    }
  }
  const double p50_plain = Quantile(t.plain_ms, 0.5);
  r.Add("trace.overhead_ratio",
        p50_plain > 0 ? Quantile(t.traced_ms, 0.5) / p50_plain - 1 : 0,
        "ratio");
  WriteSpans(cfg, spans, &r);
  return r;
}

}  // namespace rodin_bench
