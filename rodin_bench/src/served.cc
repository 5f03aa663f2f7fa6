// The served 90r10w burst of the `adhoc_plans` traced run: rodin_serve's
// Server in-process on a loopback ephemeral port over a 200-composer music
// engine. Three closed-loop reader connections send QUERY frames drawn from
// 16 point lookups; one writer connection runs single-op MUTATE+COMMIT
// transactions on Composition.title, which no read touches, open loop at a
// fixed rate. It measures the server and txn layers, which neither
// embedded workload reaches. Its timings swing too far with the host's load
// to carry an end-to-end bound, so it is not a workload of its own.
#include <random>
#include <thread>

#include "api/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace rodin_bench {

using rodin::Row;
using rodin::Status;
using rodin::server::Client;
using rodin::server::ClientResult;

namespace {

constexpr int kReaders = 3;
constexpr size_t kLookups = 16;
constexpr uint32_t kComposers = 200;
/// The writer's schedule, fixed so that every commit of the program gets the
/// same offered write load. A single writer saturates near 250 writes/s
/// here (each commit is refused while any reader cursor is live and
/// retried), so the rate stays well below that.
constexpr double kWritesPerSecond = 100;
/// Commit refusals (a live reader cursor, kConflict) are retried after this
/// pause, at most kMaxCommitAttempts times.
constexpr auto kCommitBackoff = std::chrono::microseconds(50);
constexpr int kMaxCommitAttempts = 10000;

/// The 16 point lookups, over seeded composers: half project a column of
/// the composer, half follow its master reference.
std::vector<std::string> LookupTexts(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> ids(kComposers);
  for (uint32_t i = 0; i < kComposers; ++i) ids[i] = i;
  std::vector<std::string> texts;
  for (size_t k = 0; k < kLookups; ++k) {
    std::swap(ids[k], ids[k + rng() % (kComposers - k)]);
    // The music generator names composer i "composer_i", except that the
    // last composer of the first lineage (depth 8) is "Bach".
    const std::string name =
        ids[k] == 7 ? "Bach" : "composer_" + std::to_string(ids[k]);
    texts.push_back(k % 2 == 0
                        ? "select [n: x.name, b: x.birthyear] from x in "
                          "Composer where x.name = \"" + name + "\""
                        : "select [n: x.name, m: x.master.name] from x in "
                          "Composer where x.name = \"" + name + "\"");
  }
  return texts;
}

/// One served instance. Members are destroyed in reverse order: clients
/// hang up, then the server stops, then the engine goes.
struct Served {
  std::unique_ptr<rodin::EngineHandle> engine;
  std::unique_ptr<rodin::server::Server> server;
  std::vector<Client> readers;
  Client writer;
  std::vector<std::string> texts;
  std::vector<Answer> oracle;
};

struct WriteOutcome {
  bool ok = false;
  uint64_t conflicts = 0;
  uint64_t commit_attempts = 0;
  double commit_us = 0;  // the successful COMMIT round trip
};

/// One write: stage the update, then commit, retrying refusals.
WriteOutcome Write(Client* client, uint64_t k, uint32_t slot) {
  WriteOutcome out;
  rodin::MutationBatch batch;
  // Slot-only target: the server resolves slot `slot` of the extent.
  batch.Update("Composition", rodin::Oid{UINT32_MAX, slot},
               {{"title", rodin::Value::Str("bench-" + std::to_string(k))}});
  if (!client->Mutate(batch).ok()) return out;
  for (int attempt = 0; attempt < kMaxCommitAttempts; ++attempt) {
    ++out.commit_attempts;
    const Clock::time_point t = Clock::now();
    const Status st = client->Commit();
    if (st.ok()) {
      out.commit_us = MicrosSince(t);
      out.ok = true;
      return out;
    }
    if (!st.retryable()) return out;
    if (st.code == Status::Code::kConflict) ++out.conflicts;
    std::this_thread::sleep_for(kCommitBackoff);
  }
  return out;
}

Status SetUp(const RunConfig& cfg, Served* w) {
  rodin::EngineOptions options;
  options.size = kComposers;
  options.seed = 42;  // the seed picks the lookups, not the data or plans
  Status st;
  w->engine = rodin::EngineHandle::Create(options, &st);
  if (w->engine == nullptr) return st;
  w->texts = LookupTexts(cfg.seed);
  {
    std::unique_ptr<rodin::Session> session = w->engine->NewSession();
    for (const std::string& text : w->texts) {
      rodin::ResultCursor cursor = session->Query(text);
      std::vector<Row> rows;
      if (!Drain(&cursor, &rows)) return cursor.status();
      w->oracle.push_back(Digest(rows));
    }
  }
  rodin::server::ServerOptions server_options;
  server_options.workers = 4;
  w->server = rodin::server::Server::Start(w->engine.get(), server_options, &st);
  if (w->server == nullptr) return st;
  w->readers.resize(kReaders);
  for (Client& c : w->readers) {
    st = c.Connect("127.0.0.1", w->server->port());
    if (!st.ok()) return st;
  }
  st = w->writer.Connect("127.0.0.1", w->server->port());
  if (!st.ok()) return st;
  // Warm-up: one write, then every lookup once per reader, so the plan
  // cache holds the lookups under the current stats version.
  if (!Write(&w->writer, 0, 0).ok) {
    return Status::Error(Status::Code::kInternal, "warm-up write failed");
  }
  for (Client& c : w->readers) {
    for (const std::string& text : w->texts) {
      const ClientResult res = c.Query(text);
      if (!res.ok()) return res.status;
    }
  }
  return Status::Ok();
}

/// What one reader thread saw.
struct ReaderTotals {
  std::vector<double> plain_ms;
  uint64_t reads = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t shed = 0;
};

void ReadLoop(const RunConfig& cfg, Served* w, int reader,
              Clock::time_point end, SpanRecorder* spans, ReaderTotals* t) {
  std::mt19937_64 rng(cfg.seed * 7919 + static_cast<uint64_t>(reader));
  Client& client = w->readers[reader];
  for (uint64_t k = 0; Clock::now() < end; ++k) {
    const size_t idx = rng() % w->texts.size();
    const uint64_t request = (static_cast<uint64_t>(reader) << 32) | k;
    const uint64_t span = spans->Begin("served.read", 0, request);
    const ClientResult res = client.Query(w->texts[idx]);
    t->plain_ms.push_back(spans->End(span) / 1e3);
    ++t->reads;
    if (!res.ok()) {
      ++t->failed;
      if (res.status.code == Status::Code::kOverloaded) ++t->shed;
      continue;
    }
    if (Digest(res.rows) != w->oracle[idx]) {
      ++t->failed;
      ++t->wrong;
    }
  }
}

/// What the paced writer saw.
struct WriterTotals {
  std::vector<double> write_ms;  // from when each write was due
  std::vector<double> late_ms;   // how late each write was sent
  std::vector<double> commit_us;
  uint64_t writes = 0;
  uint64_t failed = 0;
  uint64_t conflicts = 0;
  uint64_t commit_attempts = 0;
  uint64_t commits_ok = 0;
};

void WriteLoop(const RunConfig& cfg, Served* w, Clock::time_point start,
               Clock::time_point end, SpanRecorder* spans, WriterTotals* t) {
  std::mt19937_64 rng(cfg.seed * 104729 + 1);
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due =
        start + std::chrono::microseconds(static_cast<int64_t>(
                    1e6 * (static_cast<double>(k) + 0.5) / kWritesPerSecond));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    t->late_ms.push_back(MicrosSince(due) / 1e3);
    const uint64_t request = (uint64_t{kReaders} << 32) | k;
    const uint64_t span = spans->Begin("served.write", 0, request);
    const WriteOutcome out =
        Write(&w->writer, k, static_cast<uint32_t>(rng() % kComposers));
    spans->End(span);
    t->write_ms.push_back(MicrosSince(due) / 1e3);
    ++t->writes;
    t->conflicts += out.conflicts;
    t->commit_attempts += out.commit_attempts;
    if (out.ok) {
      ++t->commits_ok;
      t->commit_us.push_back(out.commit_us);
    } else {
      ++t->failed;
    }
  }
}

/// With the load stopped: each lookup served and embedded, interleaved, on
/// the same engine. The embedded side is a shared-database session like
/// the server's own, so the difference is the server's work (wire,
/// admission, session pool, row encoding).
void ProbeServer(Served* w, SpanRecorder* spans, Report* r) {
  std::unique_ptr<rodin::Session> session = w->engine->NewSession();
  session->set_shared_db(true);
  std::vector<double> served_us, embedded_us;
  uint64_t request = uint64_t{1} << 41;
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t idx = 0; idx < w->texts.size(); ++idx, ++request) {
      uint64_t s = spans->Begin("server.probe_served", 0, request);
      const ClientResult res = w->readers[0].Query(w->texts[idx]);
      served_us.push_back(spans->End(s));
      if (!res.ok()) continue;
      s = spans->Begin("server.probe_embedded", 0, request);
      rodin::ResultCursor cursor = session->Query(w->texts[idx]);
      std::vector<Row> rows;
      Drain(&cursor, &rows);
      embedded_us.push_back(spans->End(s));
    }
  }
  r->Add("server.overhead_us",
         Quantile(served_us, 0.5) - Quantile(embedded_us, 0.5), "us");
}

}  // namespace

void ServedBurst(const RunConfig& cfg, double seconds, SpanRecorder* spans,
                 Report* r) {
  Served w;
  const Status st = SetUp(cfg, &w);
  if (!st.ok()) {
    r->setup_error = "served set-up failed: " + st.message;
    return;
  }
  std::vector<ReaderTotals> readers(kReaders);
  WriterTotals writer;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kReaders; ++i) {
      threads.emplace_back(ReadLoop, std::cref(cfg), &w, i, end, spans,
                           &readers[i]);
    }
    threads.emplace_back(WriteLoop, std::cref(cfg), &w, start, end, spans,
                         &writer);
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s = MicrosSince(start) / 1e6;

  ReaderTotals all;
  for (const ReaderTotals& t : readers) {
    all.plain_ms.insert(all.plain_ms.end(), t.plain_ms.begin(), t.plain_ms.end());
    all.reads += t.reads;
    all.failed += t.failed;
    all.wrong += t.wrong;
    all.shed += t.shed;
  }
  r->attempted += all.reads + writer.writes;
  r->failed += all.failed + writer.failed;
  r->wrong += all.wrong;
  const double reads = static_cast<double>(std::max<uint64_t>(all.reads, 1));
  const double writes = static_cast<double>(std::max<uint64_t>(writer.writes, 1));
  r->stamp.push_back({"served_read_qps",
                      static_cast<double>(all.reads) / elapsed_s});
  r->stamp.push_back({"served_read_p50_ms", Quantile(all.plain_ms, 0.5)});
  r->stamp.push_back({"served_writes", static_cast<double>(writer.writes)});
  r->stamp.push_back({"writer_late_p50_ms", Quantile(writer.late_ms, 0.5)});
  r->stamp.push_back({"writer_late_max_ms", Quantile(writer.late_ms, 1.0)});

  ProbeServer(&w, spans, r);
  r->Add("write_p50_ms", Quantile(writer.write_ms, 0.5), "ms");
  r->Add("write_p90_ms", Quantile(writer.write_ms, 0.9), "ms");
  r->Add("txn.commit_us", Quantile(writer.commit_us, 0.5), "us");
  r->Add("txn.conflict_retries_per_write",
         static_cast<double>(writer.conflicts) / writes, "count");
  r->Add("txn.commit_ok_ratio",
         writer.commit_attempts > 0
             ? static_cast<double>(writer.commits_ok) /
                   static_cast<double>(writer.commit_attempts)
             : 0,
         "ratio");
  r->Add("server.shed_ratio", static_cast<double>(all.shed) / reads, "ratio");
}

}  // namespace rodin_bench
