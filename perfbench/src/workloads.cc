#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/logging.h"
#include "common/status.h"
#include "core/nous.h"
#include "durability/fs_util.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "qa/path_search.h"
#include "qa/query_engine.h"
#include "query_mix.h"
#include "spans.h"
#include "text/srl.h"

namespace nous {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  void Problem(const std::string& what) {
    problems_.push_back(what);
    std::cout << "CHECK FAILED: " << what << "\n";
  }
  bool correct() const { return problems_.empty(); }

  size_t attempted = 0;
  size_t failed = 0;

  /// The human-readable table, then the machine-readable RESULT line.
  void Print() const {
    std::cout << "\n-- metrics (name value unit samples) --\n";
    for (const Metric& m : metrics_) {
      std::cout << "  " << std::left << std::setw(36) << m.name << " "
                << std::setprecision(6) << m.value << " " << m.unit
                << "  n=" << m.samples << "\n";
    }
    std::cout << "attempted " << attempted << " failed " << failed
              << " correct " << (correct() ? "true" : "false") << "\n";
    std::ostringstream json;
    json << std::setprecision(17);
    json << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      // JSON has no infinity; a percentile that reached a failed
      // operation's +inf sample reads as 1e9 (the run is already
      // marked failed).
      double v = std::isfinite(m.value) ? m.value : 1e9;
      json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples
           << "}";
    }
    json << "}}";
    std::cout << "RESULT " << json.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

// ---------------------------------------------------------------------
// Operation records

/// One acknowledged (or failed) ingest call of the timed phase.
struct CommitSample {
  double latency_ms = 0;
  size_t docs = 0;
  double done_s = 0;  // completion, seconds since the phase started
  bool ok = true;
};

struct QuerySample {
  QueryClass cls = QueryClass::kEntity;
  double latency_us = 0;
  double done_s = -1;  // completion, seconds since the phase started
  bool ok = true;
};

/// query_mix's metrics are taken over the operations completed in the
/// kFastWindows share of the timed phase's kWindowSeconds windows that
/// have the highest query rate.
constexpr double kWindowSeconds = 1.0;
constexpr double kFastWindows = 0.25;

/// PipelineStats at one instant of the timed phase (traced runs).
struct StatsPoint {
  double at_s = 0;
  PipelineStats stats;
};

PipelineStats StatsOf(const Nous& nous) {
  ReaderMutexLock lock(nous.kg_mutex());
  return nous.stats();
}

std::map<std::string, MetricsRegistry::HistogramRow> HistogramsByName() {
  std::map<std::string, MetricsRegistry::HistogramRow> out;
  for (auto& row : MetricsRegistry::Global().HistogramRows()) {
    out[row.name] = row;
  }
  return out;
}

uint64_t CounterValue(const std::string& name) {
  uint64_t total = 0;
  for (const auto& row : MetricsRegistry::Global().CounterRows()) {
    if (row.name == name) total += row.value;
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Queries per second of reader time: the answer checks, which run
/// between queries, are left out.
double ReaderRate(const std::vector<QuerySample>& queries) {
  double busy_s = 0;
  for (const QuerySample& q : queries) busy_s += q.latency_us * 1e-6;
  return Ratio(static_cast<double>(kReaders * queries.size()), busy_s);
}

/// Whether `answer` is a good answer of class `cls`: entity and
/// trending answers are non-empty. Beam search is not exhaustive: as
/// hubs gain edges a two-hop path can fall out of the beam, so an
/// explain answer with no path is still an answer, counted in
/// `empty_explains` rather than failed.
bool AnswerOk(QueryClass cls, const Answer& answer,
              std::atomic<size_t>* empty_explains) {
  switch (cls) {
    case QueryClass::kEntity:
      return !answer.facts.empty();
    case QueryClass::kExplain:
      if (answer.paths.empty()) ++*empty_explains;
      return true;
    case QueryClass::kTrending:
      return !answer.hot_entities.empty();
    case QueryClass::kPattern:
      return true;
  }
  return true;
}

// ---------------------------------------------------------------------
// The run

class Run {
 public:
  explicit Run(const RunArgs& args)
      : args_(args),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        spec_(SpecFor(args.workload, nproc_)),
        base_dir_(args.dir + "/base"),
        work_dir_(args.dir + "/work"),
        fixture_(MakeFixture(spec_, args.seed)),
        main_log_(args.trace, 0) {}

  int Prepare();
  int Measure();

 private:
  void PrintHeader() const;
  /// spec_.bringups restarted servers, each followed by the query probe
  /// on stream_build; the last one is left running.
  void BringUp();
  /// One restarted server: a fresh Nous over the curated KB, then
  /// Recover() on a fresh copy of the base state. Returns its seconds.
  double BringUpOnce();
  /// Resets the counters a timed phase is measured by.
  void BeginTimedPhase();
  /// Counts commits_ as attempted (and failed) operations and returns
  /// the documents they acknowledged.
  size_t TallyCommits();
  /// stream_build: passes over the same articles, each on a freshly
  /// recovered instance. Returns the seconds of the timed phase.
  double StreamBuild();
  /// One pass: spec_.pass_docs timed articles, then Finalize(). Appends
  /// each operation's seconds to `op_s`.
  void StreamPass(std::vector<double>* op_s);
  /// The query mix's lists, one per reader, for a KG.
  std::vector<std::vector<MixQuery>> MixLists(
      const PropertyGraph& graph) const;
  /// query_mix: closed-loop readers ask the mix through Nous::Ask for
  /// `seconds` while an open-loop writer commits beside them.
  void ServeQueries(double seconds);
  /// stream_build's query probe: `rounds` rounds of probe_list_, from
  /// one thread, uncached through QueryEngine on the current snapshot.
  void ProbeRounds(size_t rounds);
  /// Turns the probe's rounds into queries_ and query_rate_.
  void FoldProbe();
  /// Traced runs: PipelineStats every 50 ms until `done`.
  void SampleStatsUntil(Clock::time_point t0, const std::atomic<bool>& done);
  /// Documents acknowledged per second: of a pass at its operations'
  /// fastest on stream_build, else of the timed phase.
  double DocsPerSecond(size_t docs, double phase_s) const {
    if (args_.workload == Workload::kStreamBuild) {
      return Ratio(static_cast<double>(docs), fast_pass_s_);
    }
    return Ratio(static_cast<double>(docs), phase_s);
  }
  void ReportEndToEnd(double phase_s, size_t docs);
  /// query_mix: the operations of the fast windows (see kFastWindows).
  struct FastSamples {
    std::vector<QuerySample> queries;
    std::vector<CommitSample> commits;
    std::vector<double> window_rates;  // of every window, in order
    std::vector<size_t> chosen;        // the fast windows, fastest first
  };
  FastSamples FastWindows() const;
  void ReportLayers(double phase_s, size_t docs);
  void ReplayLayers();
  void CheckCorrectness(size_t docs);

  SpanLog* NewLog() {
    logs_.push_back(std::make_unique<SpanLog>(
        args_.trace, static_cast<uint32_t>(logs_.size() + 1)));
    return logs_.back().get();
  }
  std::vector<const SpanLog*> AllLogs() const {
    std::vector<const SpanLog*> all = {&main_log_};
    for (const auto& log : logs_) all.push_back(log.get());
    return all;
  }

  const RunArgs& args_;
  const size_t nproc_;
  const WorkloadSpec spec_;
  const std::string base_dir_;
  const std::string work_dir_;
  const Fixture fixture_;
  std::unique_ptr<Nous> nous_;
  Report report_;

  SpanLog main_log_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::atomic<uint64_t> next_op_{1};

  // Bring-up.
  std::vector<double> bringup_s_;
  Nous::RecoveryStats recovery_;
  double recover_load_s_ = 0;

  // Timed phase.
  PipelineStats stats_before_;
  PipelineStats stats_after_;
  uint64_t publishes_before_ = 0;
  uint64_t publishes_ = 0;  // snapshots published by the timed phase
  std::vector<CommitSample> commits_;
  std::vector<double> writer_late_ms_;
  size_t writer_next_ = 0;  // the writer's next timed article
  std::vector<QuerySample> queries_;
  /// Served answers rendered against an uncached execution, and how
  /// many of them differed.
  size_t answers_checked_ = 0;
  size_t answers_mismatched_ = 0;
  std::atomic<size_t> empty_explains_{0};
  std::vector<MixQuery> probe_list_;
  std::vector<double> probe_us_;  // round after round of probe_list_
  std::vector<StatsPoint> stats_points_;
  double query_phase_s_ = 0;
  /// Queries per second of reader time, the answer checks' time left out.
  double query_rate_ = 0;
  double finalize_s_ = 0;
  /// stream_build: a pass at each operation's fastest over the passes.
  size_t passes_ = 0;
  double fast_pass_s_ = 0;
  std::vector<double> fast_commit_ms_;
  uint64_t peak_rss_ = 0;
  std::map<std::string, MetricsRegistry::HistogramRow> hist_;
  uint64_t wal_bytes_ = 0;
  std::vector<MixQuery> replay_queries_;
  std::shared_ptr<const KgSnapshot> first_snapshot_;
};

void Run::PrintHeader() const {
  std::cout << "== nous perfbench: " << WorkloadName(args_.workload)
            << " ==\n"
            << "nproc " << nproc_ << "  git " << args_.git_sha << "  seed "
            << args_.seed << "  seconds " << args_.seconds << "  trace "
            << (args_.trace ? 1 : 0) << "\n"
            << "pipeline threads " << spec_.pipeline_threads
            << "  shards 1  fsync interval  modeled fsync delay none\n"
            << "world events " << spec_.world_events
            << " (3 sources, default noise)\nbase " << spec_.base_checkpointed
            << " articles checkpointed"
            << (spec_.finalize_base ? " after Finalize" : "") << " + "
            << spec_.base_tail << " in a WAL tail of " << kBaseBatch
            << "-article batches\n"
            << "timed stream: ";
  if (args_.workload == Workload::kStreamBuild) {
    std::cout << "passes of the same " << spec_.pass_docs
              << " articles, each on a fresh bring-up, for " << args_.seconds
              << " s (at least 2), Checkpoint() every "
              << spec_.checkpoint_every << " commits, Finalize() closing "
              << "each; every operation counted at its fastest pass";
  } else {
    std::cout << "the base's " << fixture_.timed.size()
              << " articles, re-sent in a cycle";
  }
  std::cout << ", " << spec_.commit_batch << " per commit; bring-ups "
            << spec_.bringups << " before the timed phase"
            << (args_.trace ? "" : " and as many after it");
  if (spec_.writer_hz > 0) {
    std::cout << "\nqueries: " << kReaders
              << " readers via Nous::Ask beside a writer of "
              << spec_.writer_batch << " articles at " << spec_.writer_hz
              << " commits/s (open loop), after an unsampled "
              << spec_.warmup_seconds << " s warm-up\n";
  } else {
    std::cout << "\nqueries: none in the timed phase; a probe after each "
              << "bring-up: " << spec_.probe_rounds
              << " rounds of the mix from 1 thread, uncached QueryEngine on "
              << "the recovered KG, each query at its fastest round\n";
  }
}

int Run::Prepare() {
  WipeDurableDir(base_dir_);
  Nous nous(&fixture_.kb, OptionsFor(spec_, base_dir_));
  NOUS_CHECK_OK(nous.EnableDurability());
  auto ingest = [&](size_t from, size_t to, size_t batch_size) {
    std::vector<Article> batch;
    for (size_t i = from; i < to; i += batch_size) {
      batch.assign(fixture_.base.begin() + i,
                   fixture_.base.begin() + std::min(to, i + batch_size));
      NOUS_CHECK_OK(nous.IngestBatch(batch));
    }
  };
  const size_t checkpointed =
      std::min(spec_.base_checkpointed, fixture_.base.size());
  ingest(0, checkpointed, kBaseBatch);
  if (spec_.finalize_base) {
    nous.Finalize();  // checkpoints in durable mode
  } else {
    NOUS_CHECK_OK(nous.Checkpoint());
  }
  ingest(checkpointed, fixture_.base.size(), kBaseBatch);
  std::cout << "prepared " << WorkloadName(args_.workload) << " base state: "
            << fixture_.base.size() << " articles, last seq "
            << nous.last_durable_seq() << "\n";
  return 0;
}

double Run::BringUpOnce() {
  nous_.reset();
  CopyDurableDir(base_dir_, work_dir_);
  MetricsRegistry::Global().ResetAll();
  SpanLog::Scope span(&main_log_, "Nous::Recover", next_op_++, 0);
  Clock::time_point t0 = Clock::now();
  nous_ = std::make_unique<Nous>(&fixture_.kb, OptionsFor(spec_, work_dir_));
  Result<Nous::RecoveryStats> recovered = nous_->Recover();
  NOUS_CHECK_OK(recovered.status());
  while (nous_->snapshot() == nullptr ||
         nous_->snapshot()->version() != nous_->durable_kg_version()) {
    std::this_thread::yield();
  }
  const double seconds = SecondsSince(t0);
  recovery_ = *recovered;
  recover_load_s_ =
      HistogramsByName()["nous_recover_latency_seconds"].p50;
  ++report_.attempted;
  return seconds;
}

void Run::BringUp() {
  for (size_t i = 0; i < spec_.bringups; ++i) {
    bringup_s_.push_back(BringUpOnce());
    if (spec_.probe_rounds > 0) ProbeRounds(spec_.probe_rounds);
  }
}

void Run::BeginTimedPhase() {
  MetricsRegistry::Global().ResetAll();
  stats_before_ = StatsOf(*nous_);
  publishes_before_ = nous_->pipeline().snapshot_store().publish_count();
  stats_points_.clear();
  if (args_.trace) first_snapshot_ = nous_->snapshot();
}

size_t Run::TallyCommits() {
  size_t docs = 0;
  for (const CommitSample& c : commits_) {
    ++report_.attempted;
    if (c.ok) {
      docs += c.docs;
    } else {
      ++report_.failed;
    }
  }
  return docs;
}

void Run::SampleStatsUntil(Clock::time_point t0,
                           const std::atomic<bool>& done) {
  while (!done.load(std::memory_order_acquire)) {
    if (args_.trace) {
      stats_points_.push_back({SecondsSince(t0), StatsOf(*nous_)});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void Run::StreamPass(std::vector<double>* op_s) {
  const std::vector<Article>& timed = fixture_.timed;
  const size_t end = std::min(timed.size(), spec_.pass_docs);
  Clock::time_point t0 = Clock::now();
  std::vector<Article> batch;
  size_t batches = 0;
  for (size_t next = 0; next < end; next += batch.size()) {
    batch.assign(timed.begin() + next,
                 timed.begin() + std::min(end, next + spec_.commit_batch));
    uint64_t op = next_op_++;
    Clock::time_point start = Clock::now();
    Status status;
    {
      SpanLog::Scope span(&main_log_, "Nous::IngestBatch", op, 0);
      status = nous_->IngestBatch(batch);
    }
    CommitSample sample;
    sample.latency_ms = SecondsSince(start) * 1e3;
    sample.docs = batch.size();
    sample.done_s = SecondsSince(t0);
    sample.ok = status.ok();
    commits_.push_back(sample);
    op_s->push_back(sample.ok ? sample.latency_ms * 1e-3 : FailedSample());
    if (args_.trace) stats_points_.push_back({sample.done_s, StatsOf(*nous_)});
    if (spec_.checkpoint_every > 0 &&
        ++batches % spec_.checkpoint_every == 0) {
      SpanLog::Scope span(&main_log_, "Nous::Checkpoint", next_op_++, 0);
      ++report_.attempted;
      Clock::time_point c0 = Clock::now();
      const bool ok = nous_->Checkpoint().ok();
      op_s->push_back(ok ? SecondsSince(c0) : FailedSample());
      if (!ok) ++report_.failed;
    }
  }
  SpanLog::Scope span(&main_log_, "Nous::Finalize", next_op_++, 0);
  Clock::time_point start = Clock::now();
  nous_->Finalize();
  finalize_s_ = SecondsSince(start);
  op_s->push_back(finalize_s_);
}

double Run::StreamBuild() {
  // Every pass replays the same articles on a fresh copy of the same
  // base state, so operation i does the same work in each. The host
  // runs at one of two speeds for seconds at a time; counting each
  // operation at its fastest pass reports the pipeline's cost at the
  // fast one, whatever share of the run the slow spells took. The last
  // pass's instance is the one the run checks and reports layers of.
  Clock::time_point t0 = Clock::now();
  std::vector<double> op_s;  // pass after pass, the same length each
  double last_pass_s = 0;
  for (passes_ = 0; passes_ < 2 || SecondsSince(t0) + last_pass_s <=
                                         static_cast<double>(args_.seconds);
       ++passes_) {
    TallyCommits();
    commits_.clear();
    bringup_s_.push_back(BringUpOnce());
    BeginTimedPhase();
    Clock::time_point p0 = Clock::now();
    StreamPass(&op_s);
    last_pass_s = SecondsSince(p0);
  }
  const std::vector<double> fastest =
      FastestPerPosition(op_s, op_s.size() / passes_);
  fast_pass_s_ = 0;
  for (double s : fastest) fast_pass_s_ += s;
  // Operation positions of one pass: commits, with a checkpoint after
  // every checkpoint_every of them, then the closing Finalize().
  fast_commit_ms_.clear();
  for (size_t i = 0, batches = 0; i + 1 < fastest.size(); ++i) {
    fast_commit_ms_.push_back(fastest[i] * 1e3);
    if (spec_.checkpoint_every > 0 &&
        ++batches % spec_.checkpoint_every == 0) {
      ++i;  // the checkpoint after this commit
    }
  }
  return SecondsSince(t0);
}

std::vector<std::vector<MixQuery>> Run::MixLists(
    const PropertyGraph& graph) const {
  // Targets and each reader's multiset of queries come from a fixed
  // seed, like bench_query_serving's mix, so every run asks the same
  // questions; the run seed only shuffles their order.
  constexpr uint64_t kMixSeed = 17;
  QueryTargets targets = FindQueryTargets(graph, kMixSeed, 64);
  NOUS_CHECK(!targets.entities.empty()) << "no resolvable entities";
  std::vector<std::vector<MixQuery>> lists;
  for (size_t r = 0; r < kReaders; ++r) {
    lists.push_back(GenerateQueries(targets, 1024, kMixSeed + r));
    std::shuffle(lists.back().begin(), lists.back().end(),
                 Rng(args_.seed * 31 + r));
  }
  return lists;
}

void Run::ServeQueries(double seconds) {
  std::vector<std::vector<MixQuery>> lists =
      MixLists(nous_->snapshot()->graph());
  replay_queries_ = lists[0];
  const size_t readers = lists.size();
  std::vector<std::vector<QuerySample>> per_reader(readers);
  std::vector<size_t> checked(readers, 0), mismatched(readers, 0);
  std::vector<SpanLog*> logs;
  for (size_t r = 0; r < readers; ++r) logs.push_back(NewLog());
  SpanLog* writer_log = NewLog();
  std::atomic<bool> done{false};
  Clock::time_point t0 = Clock::now();

  // One query through Nous (cache, latest snapshot); traced runs split
  // it into ParseQuery and Nous::Execute.
  auto ask = [&](SpanLog* log, const std::string& text,
                 std::shared_ptr<const KgSnapshot>* snap) -> Result<Answer> {
    if (!log->enabled()) return nous_->Ask(text, snap);
    uint64_t op = next_op_++;
    SpanLog::Scope root(log, "Nous::Ask", op, 0);
    Result<Query> parsed = Status::Internal("unset");
    {
      SpanLog::Scope span(log, "ParseQuery", op, root.id());
      parsed = ParseQuery(text);
    }
    if (!parsed.ok()) return parsed.status();
    SpanLog::Scope span(log, "Nous::Execute", op, root.id());
    return nous_->Execute(*parsed, snap);
  };

  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      const std::vector<MixQuery>& list = lists[r];
      std::vector<QuerySample>& out = per_reader[r];
      for (size_t j = 0; SecondsSince(t0) < seconds; ++j) {
        const MixQuery& mq = list[j % list.size()];
        // Every 97th answer is checked against an uncached run on the
        // snapshot it was served from.
        const bool check = j % 97 == 0;
        std::shared_ptr<const KgSnapshot> snap;
        Clock::time_point start = Clock::now();
        Result<Answer> answer = ask(logs[r], mq.text, check ? &snap : nullptr);
        QuerySample sample;
        sample.cls = mq.cls;
        sample.latency_us = SecondsSince(start) * 1e6;
        sample.done_s = SecondsSince(t0);
        sample.ok = answer.ok() && AnswerOk(mq.cls, *answer, &empty_explains_);
        if (!sample.ok) sample.latency_us = FailedSample();
        out.push_back(sample);
        if (check && answer.ok() && snap != nullptr) {
          // After the sample's latency is taken, and left out of the
          // reader's time; the snapshot is let go before the next query.
          const QueryEngine uncached(&snap->graph(), snap->patterns(),
                                     nous_->options().query);
          Result<Answer> fresh = uncached.Execute(*ParseQuery(mq.text));
          ++checked[r];
          if (!fresh.ok() ||
              fresh->Render(snap->graph()) != answer->Render(snap->graph())) {
            ++mismatched[r];
          }
        }
      }
    });
  }
  // The open-loop writer: a commit of spec_.writer_batch articles every
  // 1/writer_hz seconds, each publishing a snapshot.
  std::thread writer([&] {
    const std::vector<Article>& timed = fixture_.timed;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / spec_.writer_hz));
    std::vector<Article> batch;
    size_t& next = writer_next_;
    for (size_t k = 0;; ++k) {
      Clock::time_point scheduled = t0 + period * static_cast<int64_t>(k);
      if (std::chrono::duration<double>(scheduled - t0).count() >= seconds) {
        return;
      }
      std::this_thread::sleep_until(scheduled);
      writer_late_ms_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count());
      // The writer cycles through the timed articles, as
      // bench_query_serving's writer cycles through its fixture's.
      batch.clear();
      for (size_t i = 0; i < spec_.writer_batch; ++i) {
        batch.push_back(timed[next++ % timed.size()]);
      }
      Status status;
      {
        SpanLog::Scope span(writer_log, "Nous::IngestBatch", next_op_++, 0);
        status = nous_->IngestBatch(batch);
      }
      CommitSample sample;
      // Open loop: latency counts from the scheduled send time, so a
      // stall also charges the commits queued behind it.
      sample.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count();
      sample.docs = batch.size();
      sample.done_s = SecondsSince(t0);
      sample.ok = status.ok();
      commits_.push_back(sample);
    }
  });
  std::thread sampler([&] { SampleStatsUntil(t0, done); });
  for (auto& t : threads) t.join();
  writer.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  query_phase_s_ = SecondsSince(t0);
  for (size_t r = 0; r < readers; ++r) {
    answers_checked_ += checked[r];
    answers_mismatched_ += mismatched[r];
    for (const QuerySample& q : per_reader[r]) {
      ++report_.attempted;
      if (!q.ok) ++report_.failed;
    }
    queries_.insert(queries_.end(), per_reader[r].begin(),
                    per_reader[r].end());
  }
  query_rate_ = ReaderRate(FastWindows().queries);
}

Run::FastSamples Run::FastWindows() const {
  FastSamples fast;
  const auto queries = ByWindow(queries_, kWindowSeconds, query_phase_s_);
  const auto commits = ByWindow(commits_, kWindowSeconds, query_phase_s_);
  for (const auto& window : queries) {
    fast.window_rates.push_back(ReaderRate(window));
  }
  std::vector<size_t>& order = fast.chosen;
  for (size_t w = 0; w < queries.size(); ++w) order.push_back(w);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return fast.window_rates[a] > fast.window_rates[b];
  });
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::llround(kFastWindows * order.size())));
  if (order.size() > keep) order.resize(keep);
  for (size_t w : order) {
    fast.queries.insert(fast.queries.end(), queries[w].begin(),
                        queries[w].end());
    fast.commits.insert(fast.commits.end(), commits[w].begin(),
                        commits[w].end());
  }
  return fast;
}

void Run::ProbeRounds(size_t rounds) {
  std::shared_ptr<const KgSnapshot> snap = nous_->snapshot();
  if (probe_list_.empty()) {
    // One thread asks every reader's questions, so no two probe
    // queries contend with each other.
    for (const auto& list : MixLists(snap->graph())) {
      probe_list_.insert(probe_list_.end(), list.begin(), list.end());
    }
    replay_queries_ = probe_list_;
  }
  const QueryEngine engine(&snap->graph(), snap->patterns(),
                           nous_->options().query);
  for (size_t round = 0; round < rounds; ++round) {
    for (const MixQuery& mq : probe_list_) {
      Clock::time_point start = Clock::now();
      Result<Query> query = ParseQuery(mq.text);
      Result<Answer> answer = query.status();
      if (query.ok()) answer = engine.Execute(*query);
      double latency_us = SecondsSince(start) * 1e6;
      ++report_.attempted;
      if (!answer.ok() || !AnswerOk(mq.cls, *answer, &empty_explains_)) {
        ++report_.failed;
        latency_us = FailedSample();
      }
      probe_us_.push_back(latency_us);
    }
  }
}

void Run::FoldProbe() {
  // Each question counts once, at its fastest round: the engine's cost
  // on the recovered KG, without the stalls and slow spells of a shared
  // host. The rate is the list asked once at those costs.
  std::vector<double> fastest =
      FastestPerPosition(probe_us_, probe_list_.size());
  double busy_s = 0;
  for (size_t i = 0; i < fastest.size(); ++i) {
    QuerySample sample;
    sample.cls = probe_list_[i % probe_list_.size()].cls;
    sample.latency_us = fastest[i];
    sample.ok = std::isfinite(fastest[i]);
    queries_.push_back(sample);
    busy_s += fastest[i] * 1e-6;
  }
  query_rate_ = Ratio(static_cast<double>(fastest.size()), busy_s);
}

/// Latency percentiles of one sample set, printed with the percentile
/// rule's verdict (the highest percentile with >= 10 samples beyond).
void PrintLatency(const std::string& what, const std::vector<double>& values,
                  const std::string& unit) {
  double tail = TailQuantileFor(values.size());
  std::cout << "  " << what << ": n=" << values.size()
            << " p50=" << Quantile(values, 0.5) << unit
            << " p90=" << Quantile(values, 0.9) << unit
            << " p95=" << Quantile(values, 0.95) << unit
            << " p98=" << Quantile(values, 0.98) << unit
            << " p99=" << Quantile(values, 0.99) << unit
            << " p99.9=" << Quantile(values, 0.999) << unit
            << "  (tail rule: p" << tail * 100 << " = "
            << Quantile(values, tail) << unit << ")\n";
}

void Run::ReportEndToEnd(double commit_phase_s, size_t docs) {
  // The host's speed swings by up to 2x in spells of seconds, so a
  // figure over a whole phase follows the share of it spent slow. The
  // metrics are taken at the host's fast speed instead: stream_build
  // counts each operation at its fastest pass (and each probe query at
  // its fastest round); query_mix, whose served queries do not repeat
  // the same work, keeps the operations of its fastest windows.
  std::vector<double> commit_ms = fast_commit_ms_;
  std::vector<QuerySample> queries = queries_;
  std::cout << "\n-- samples --\n";
  if (args_.workload == Workload::kQueryMix) {
    FastSamples fast = FastWindows();
    std::cout << "  queries/s of each " << kWindowSeconds << " s window:";
    for (double r : fast.window_rates) std::cout << " " << r;
    std::cout << "\n  kept (the fastest " << kFastWindows * 100 << "%):";
    for (size_t w : fast.chosen) std::cout << " " << w;
    std::cout << "\n";
    for (const CommitSample& c : fast.commits) {
      commit_ms.push_back(c.ok ? c.latency_ms : FailedSample());
    }
    queries = std::move(fast.queries);
  }
  std::vector<double> all_us;
  std::vector<double> class_us[kNumQueryClasses];
  for (const QuerySample& q : queries) {
    all_us.push_back(q.latency_us);
    class_us[static_cast<size_t>(q.cls)].push_back(q.latency_us);
  }
  std::cout << "  bring-ups:";
  for (double s : bringup_s_) std::cout << " " << s << "s";
  std::cout << "\n";
  if (args_.workload == Workload::kStreamBuild) {
    std::cout << "  passes: " << passes_ << "; a pass at each operation's "
              << "fastest: " << fast_pass_s_ << "s\n";
  }
  PrintLatency("commit", commit_ms, "ms");
  PrintLatency("query (all classes)", all_us, "us");
  for (size_t c = 0; c < kNumQueryClasses; ++c) {
    PrintLatency(std::string("query ") +
                     QueryClassName(static_cast<QueryClass>(c)),
                 class_us[c], "us");
  }

  report_.Add("setup_s", Median(bringup_s_), "s", bringup_s_.size());
  report_.Add("docs_per_s", DocsPerSecond(docs, commit_phase_s), "1/s", docs);
  report_.Add("peak_rss_mb", static_cast<double>(peak_rss_) / (1 << 20), "MB",
              1);
  report_.Add("commit_p50_ms", Quantile(commit_ms, 0.5), "ms",
              commit_ms.size());
  report_.Add("queries_per_s", query_rate_, "1/s", all_us.size());
  report_.Add("query_p50_us", Quantile(all_us, 0.5), "us", all_us.size());
  report_.Add("query_p99_us", Quantile(all_us, 0.99), "us", all_us.size());
  for (QueryClass c :
       {QueryClass::kEntity, QueryClass::kExplain, QueryClass::kTrending}) {
    const auto& v = class_us[static_cast<size_t>(c)];
    report_.Add(std::string(QueryClassName(c)) + "_p50_us", Quantile(v, 0.5),
                "us", v.size());
  }
}

/// Uncached replays of the layers the served path hides: extraction
/// of timed documents, QueryEngine::Execute and PathSearch::FindPaths
/// on the final snapshot. Traced runs only.
void Run::ReplayLayers() {
  std::shared_ptr<const KgSnapshot> snap = nous_->snapshot();
  const Nous::Options& options = nous_->options();
  uint64_t op = next_op_++;
  OpenIeConfig extraction = options.pipeline.extraction;
  if (options.pipeline.negation_retracts) extraction.drop_negated = false;
  SrlExtractor srl(&nous_->pipeline().lexicon(), &nous_->pipeline().ner(),
                   extraction);
  size_t frames = 0;
  const size_t docs = std::min<size_t>(256, fixture_.timed.size());
  for (size_t i = 0; i < docs; ++i) {
    const Article& a = fixture_.timed[i];
    SpanLog::Scope span(&main_log_, "SrlExtractor::Extract", op, 0);
    frames += srl.Extract(a.text, a.date).size();
  }
  report_.Add("text.frames_per_doc",
              Ratio(static_cast<double>(frames), static_cast<double>(docs)),
              "count", docs);

  QueryEngine engine(&snap->graph(), snap->patterns(), options.query);
  PathSearch search(&snap->graph(), options.query.path_search);
  size_t explains = 0, paths = 0;
  // Replays per class: path searches cost milliseconds, the rest
  // microseconds.
  const size_t limit[kNumQueryClasses] = {200, 32, 32, 32};
  size_t per_class[kNumQueryClasses] = {};
  for (const MixQuery& mq : replay_queries_) {
    size_t& n = per_class[static_cast<size_t>(mq.cls)];
    if (n >= limit[static_cast<size_t>(mq.cls)]) continue;
    ++n;
    Result<Query> q = ParseQuery(mq.text);
    if (!q.ok()) continue;
    static const char* kSpanNames[kNumQueryClasses] = {
        "QueryEngine::Execute/entity", "QueryEngine::Execute/explain",
        "QueryEngine::Execute/trending", "QueryEngine::Execute/pattern"};
    {
      SpanLog::Scope span(&main_log_,
                          kSpanNames[static_cast<size_t>(mq.cls)], op, 0);
      (void)engine.Execute(*q);
    }
    if (mq.cls != QueryClass::kExplain) continue;
    auto s = snap->graph().FindVertexFolded(q->entity_a);
    auto t = snap->graph().FindVertexFolded(q->entity_b);
    if (!s || !t) continue;
    PredicateId via = kInvalidPredicate;
    if (auto p = snap->graph().predicates().Lookup(q->predicate)) via = *p;
    SpanLog::Scope span(&main_log_, "PathSearch::FindPaths", op, 0);
    paths += search.FindPaths(*s, *t, via).size();
    ++explains;
  }
  report_.Add("qa.paths_per_explain",
              Ratio(static_cast<double>(paths), static_cast<double>(explains)),
              "count", explains);
}

void Run::ReportLayers(double phase_s, size_t docs) {
  auto summary = Summarize(AllLogs());
  auto span_us = [&](const std::string& name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.p50_s * 1e6;
  };
  auto hist = [&](const std::string& stage) {
    return hist_["nous_" + stage + "_latency_seconds"];
  };
  const PipelineStats& after = stats_after_;
  const PipelineStats& b = stats_before_;
  const double d_docs = static_cast<double>(after.documents - b.documents);
  const double triples =
      static_cast<double>((after.mapped_triples - b.mapped_triples) +
                          (after.unmapped_kept - b.unmapped_kept) +
                          (after.dropped_unmapped - b.dropped_unmapped));
  const double scored =
      static_cast<double>((after.mapped_triples - b.mapped_triples) +
                          (after.unmapped_kept - b.unmapped_kept));
  const double linked =
      static_cast<double>(after.linked_to_existing - b.linked_to_existing);
  const double created =
      static_cast<double>(after.new_entities - b.new_entities);

  // Stream quartiles, by documents: q1 = the first quarter of the
  // timed documents, q4 = the last.
  auto quartile_us = [&](double PipelineStats::*field, bool last) {
    if (stats_points_.size() < 2) return 0.0;
    std::vector<StatsPoint> pts = stats_points_;
    pts.insert(pts.begin(), {0, b});
    const double total = static_cast<double>(pts.back().stats.documents -
                                              b.documents);
    auto at = [&](double share) {
      for (const StatsPoint& p : pts) {
        if (static_cast<double>(p.stats.documents - b.documents) >=
            share * total) {
          return p.stats;
        }
      }
      return pts.back().stats;
    };
    PipelineStats from = last ? at(0.75) : pts.front().stats;
    PipelineStats to = last ? pts.back().stats : at(0.25);
    return Ratio((to.*field - from.*field) * 1e6,
                 static_cast<double>(to.documents - from.documents));
  };
  auto commit_quartile_us = [&](bool last) {
    size_t n = commits_.size();
    if (n == 0) return 0.0;
    size_t from = last ? n - std::max<size_t>(1, n / 4) : 0;
    size_t to = last ? n : std::max<size_t>(1, n / 4);
    double ms = 0, d = 0;
    for (size_t i = from; i < to; ++i) {
      ms += commits_[i].latency_ms;
      d += static_cast<double>(commits_[i].docs);
    }
    return Ratio(ms * 1e3, d);
  };
  std::vector<double> commit_ms;
  for (const CommitSample& c : commits_) commit_ms.push_back(c.latency_ms);
  const double commits = static_cast<double>(commits_.size());

  report_.Add("linker.link_us_per_doc",
              Ratio((after.link_seconds - b.link_seconds) * 1e6, d_docs), "us",
              docs);
  report_.Add("linker.new_entity_ratio", Ratio(created, created + linked),
              "ratio", static_cast<size_t>(created + linked));
  report_.Add("mapping.map_us_per_triple",
              Ratio((after.map_seconds - b.map_seconds) * 1e6, triples), "us",
              static_cast<size_t>(triples));
  report_.Add("mapping.mapped_ratio",
              Ratio(static_cast<double>(after.mapped_triples -
                                        b.mapped_triples),
                    triples),
              "ratio", static_cast<size_t>(triples));
  report_.Add("embed.score_us_per_triple",
              Ratio((after.score_seconds - b.score_seconds) * 1e6, scored),
              "us", static_cast<size_t>(scored));
  report_.Add("embed.refresh_count",
              static_cast<double>(hist("embed_refresh").count), "count", 1);
  report_.Add("embed.refresh_p50_ms", hist("embed_refresh").p50 * 1e3, "ms",
              hist("embed_refresh").count);
  report_.Add("mining.mine_us_per_doc",
              Ratio((after.mine_seconds - b.mine_seconds) * 1e6, d_docs), "us",
              docs);
  const double mine_q1 = quartile_us(&PipelineStats::mine_seconds, false);
  const double mine_q4 = quartile_us(&PipelineStats::mine_seconds, true);
  report_.Add("mining.mine_us_per_doc_q1", mine_q1, "us", docs / 4);
  report_.Add("mining.mine_us_per_doc_q4", mine_q4, "us", docs / 4);
  report_.Add("mining.growth_ratio", Ratio(mine_q4, mine_q1), "ratio", 1);
  {
    ReaderMutexLock lock(nous_->kg_mutex());
    const StreamingMiner* miner = nous_->miner();
    report_.Add("mining.live_embeddings",
                miner ? static_cast<double>(miner->num_live_embeddings()) : 0,
                "count", 1);
    report_.Add("mining.tracked_patterns",
                miner ? static_cast<double>(miner->num_tracked_patterns())
                      : 0,
                "count", 1);
  }
  report_.Add("topic.finalize_s", finalize_s_, "s", finalize_s_ > 0 ? 1 : 0);
  {
    // Sizes of the live KG; footprint of the snapshot served when the
    // timed phase began, still held: its private bytes are what one
    // long-lived reader retains beyond the live graph.
    std::shared_ptr<const KgSnapshot> snap = nous_->snapshot();
    CowFootprint fp = first_snapshot_->graph().Footprint();
    report_.Add("graph.vertices",
                static_cast<double>(snap->graph().NumVertices()), "count", 1);
    report_.Add("graph.edges", static_cast<double>(snap->graph().NumEdges()),
                "count", 1);
    report_.Add("graph.snapshot_shared_bytes",
                static_cast<double>(fp.shared_bytes), "bytes", 1);
    report_.Add("graph.snapshot_private_bytes",
                static_cast<double>(fp.private_bytes), "bytes", 1);
  }
  report_.Add("core.ingest_us_per_doc_q1", commit_quartile_us(false), "us",
              commits_.size() / 4);
  report_.Add("core.ingest_us_per_doc_q4", commit_quartile_us(true), "us",
              commits_.size() / 4);
  report_.Add("core.accept_ratio",
              Ratio(static_cast<double>(after.accepted_triples -
                                        b.accepted_triples),
                    static_cast<double>(after.extractions - b.extractions)),
              "ratio", after.extractions - b.extractions);
  report_.Add("core.publish_p50_us", hist("snapshot_publish").p50 * 1e6, "us",
              hist("snapshot_publish").count);
  report_.Add("core.publish_p99_us", hist("snapshot_publish").p99 * 1e6, "us",
              hist("snapshot_publish").count);
  report_.Add(
      "core.publishes_per_commit",
      Ratio(static_cast<double>(publishes_), commits),
      "ratio", commits_.size());
  report_.Add("core.writer_late_p50_ms", Median(writer_late_ms_), "ms",
              writer_late_ms_.size());

  const auto append = hist("wal_append");
  const auto fsync = hist("wal_fsync");
  const auto apply = hist("ingest_batch");
  report_.Add("durability.wal_append_p50_us", append.p50 * 1e6, "us",
              append.count);
  report_.Add("durability.fsync_p50_ms", fsync.p50 * 1e3, "ms", fsync.count);
  // Counts the fsyncs of the WAL resets that checkpoints do, too.
  report_.Add("durability.fsyncs_per_commit",
              Ratio(static_cast<double>(fsync.count), commits), "ratio",
              commits_.size());
  report_.Add("durability.wal_bytes_per_doc",
              Ratio(static_cast<double>(wal_bytes_), static_cast<double>(docs)),
              "bytes", docs);
  // Waiting = commit latency minus the commit's own WAL append (which
  // holds the fsync, when the policy syncs) and apply time, as their
  // per-commit means over the timed phase.
  const double own_ms = Ratio((append.sum + apply.sum) * 1e3, commits);
  report_.Add("durability.commit_wait_p50_ms",
              std::max(0.0, Quantile(commit_ms, 0.5) - own_ms), "ms",
              commits_.size());
  report_.Add("durability.checkpoint_ms", hist("checkpoint").p50 * 1e3, "ms",
              hist("checkpoint").count);
  report_.Add("durability.recover_replayed_batches",
              static_cast<double>(recovery_.replayed_batches), "count", 1);
  report_.Add("durability.recover_load_s", recover_load_s_, "s",
              bringup_s_.size());

  if (const QueryCache* cache = nous_->query_cache()) {
    QueryCache::Stats cs = cache->stats();
    report_.Add("qa.cache_hit_ratio",
                Ratio(static_cast<double>(cs.hits),
                      static_cast<double>(cs.hits + cs.misses)),
                "ratio", cs.hits + cs.misses);
  }
  report_.Add("qa.parse_us", span_us("ParseQuery"), "us",
              summary["ParseQuery"].count);
  ReplayLayers();
  summary = Summarize(AllLogs());
  report_.Add("text.extract_us_per_doc", span_us("SrlExtractor::Extract"),
              "us", summary["SrlExtractor::Extract"].count);
  report_.Add("qa.engine_entity_us", span_us("QueryEngine::Execute/entity"),
              "us", summary["QueryEngine::Execute/entity"].count);
  report_.Add("qa.engine_explain_us", span_us("QueryEngine::Execute/explain"),
              "us", summary["QueryEngine::Execute/explain"].count);
  report_.Add("qa.engine_trending_us",
              span_us("QueryEngine::Execute/trending"), "us",
              summary["QueryEngine::Execute/trending"].count);
  report_.Add("qa.path_search_p50_us", span_us("PathSearch::FindPaths"),
              "us", summary["PathSearch::FindPaths"].count);
  // The traced run's headline rate; run.py sets it against the
  // untraced run's to report the tracing overhead.
  report_.Add("trace.rate",
              args_.workload == Workload::kQueryMix
                  ? query_rate_
                  : DocsPerSecond(docs, phase_s),
              "1/s", docs);
  size_t spans = 0;
  for (const SpanLog* log : AllLogs()) spans += log->spans().size();
  report_.Add("trace.spans", static_cast<double>(spans), "count", spans);

  std::cout << "\n-- benchmark spans (name count total_ms self_ms p50_us) --\n";
  for (const auto& [name, s] : summary) {
    std::cout << "  " << std::left << std::setw(32) << name << " "
              << s.count << " " << s.total_s * 1e3 << " " << s.self_s * 1e3
              << " " << s.p50_s * 1e6 << "\n";
  }
  std::ofstream out(args_.dir + "/spans.tsv");
  WriteSpans(AllLogs(), out);
  std::cout << "spans written to " << args_.dir << "/spans.tsv\n";
}

void Run::CheckCorrectness(size_t docs) {
  // Every document of the timed phase the pipeline counted was acked.
  const PipelineStats& after = stats_after_;
  if (after.documents - stats_before_.documents != docs) {
    report_.Problem("pipeline counted " +
                    std::to_string(after.documents - stats_before_.documents) +
                    " documents, " + std::to_string(docs) + " were acked");
  }
  // Sampled served answers rendered exactly like an uncached execution
  // on the snapshot they were served from (checked by the readers).
  std::cout << "explain answers with no path: " << empty_explains_.load()
            << "\n";
  std::cout << "answer check: " << answers_checked_ << " served answers, "
            << answers_mismatched_ << " differ from uncached execution\n";
  if (answers_mismatched_ > 0) {
    report_.Problem(std::to_string(answers_mismatched_) +
                    " served answers differ from uncached execution");
  }
  if (args_.workload == Workload::kQueryMix && answers_checked_ == 0) {
    report_.Problem("no served answer was checked");
  }

  // Every acked commit survives: a fresh instance recovered from the
  // same directory holds the same graph bytes.
  std::string live;
  {
    ReaderMutexLock lock(nous_->kg_mutex());
    live = GraphBytes(nous_->graph());
  }
  nous_.reset();
  Nous recovered(&fixture_.kb, OptionsFor(spec_, work_dir_));
  ++report_.attempted;
  Result<Nous::RecoveryStats> stats = recovered.Recover();
  if (!stats.ok()) {
    ++report_.failed;
    report_.Problem("recover after the run: " + stats.status().ToString());
    return;
  }
  std::string replayed;
  {
    ReaderMutexLock lock(recovered.kg_mutex());
    replayed = GraphBytes(recovered.graph());
  }
  std::cout << "kg digest " << std::hex << Fnv1a(live) << std::dec << " ("
            << live.size() << " graph bytes); recovered "
            << std::hex << Fnv1a(replayed) << std::dec << " after replaying "
            << stats->replayed_batches << " WAL batches\n";
  if (live != replayed) {
    report_.Problem("recovered graph bytes differ from the live instance");
  }
}

int Run::Measure() {
  NOUS_CHECK(FileExists(base_dir_ + "/checkpoint.nous"))
      << "no prepared base state in " << base_dir_;
  PrintHeader();
  BringUp();

  if (spec_.warmup_seconds > 0) {
    // Served warm-up, not sampled. Its operations count as attempted.
    ServeQueries(spec_.warmup_seconds);
    for (const CommitSample& c : commits_) {
      ++report_.attempted;
      if (!c.ok) ++report_.failed;
    }
    TallyCommits();
    commits_.clear();
    queries_.clear();
    writer_late_ms_.clear();
    stats_points_.clear();
    logs_.clear();
    query_phase_s_ = 0;
  }
  double commit_phase_s = 0;
  switch (args_.workload) {
    case Workload::kStreamBuild:
      commit_phase_s = StreamBuild();
      break;
    case Workload::kQueryMix:
      BeginTimedPhase();
      ServeQueries(args_.seconds);
      commit_phase_s = query_phase_s_;
      break;
  }
  // On stream_build, the last pass's: the layers are reported of it.
  const size_t docs = TallyCommits();
  hist_ = HistogramsByName();
  wal_bytes_ = CounterValue("nous_wal_bytes_total");
  stats_after_ = StatsOf(*nous_);
  publishes_ =
      nous_->pipeline().snapshot_store().publish_count() - publishes_before_;
  peak_rss_ = PeakRssBytes();
  if (args_.trace) ReportLayers(commit_phase_s, docs);
  CheckCorrectness(docs);
  if (!args_.trace) {
    // As many bring-ups (and probe rounds) again after the run, so that
    // their medians span the run rather than one moment of a shared
    // host.
    BringUp();
    if (spec_.probe_rounds > 0) FoldProbe();
    ReportEndToEnd(commit_phase_s, docs);
  }
  report_.Print();
  return report_.correct() && report_.failed == 0 ? 0 : 1;
}

}  // namespace

int PrepareBaseState(const RunArgs& args) { return Run(args).Prepare(); }

int MeasureRun(const RunArgs& args) { return Run(args).Measure(); }

}  // namespace perfbench
}  // namespace nous
