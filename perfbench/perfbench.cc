// The repository benchmark. One invocation runs one workload for a fixed
// host-time budget and prints a single JSON line with its metrics; see
// perfbench/README.md for the workloads, the metrics and which layer each
// one belongs to, and perfbench/run.py for the command that builds and
// runs this binary.
//
//   spardl_perfbench --workload large_p_fattree|paper_flat_p14|
//                               train_overlap_fattree
//                    --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// The binary only calls the library's public entry points
// (TopologySpec::Parse/Build, PlanPlacement, Cluster, CreateAlgorithm,
// ProfileGradientGenerator::Generate, SparseAllReduce::RunOnSparse,
// TrainDistributed and the obs/ exporters) and times those calls. The
// charge engine is picked by the topology string ("...+event") and the
// execution backend by SPARDL_EXEC_BACKEND=fiber, so every worker runs as
// a fiber on this one thread.
//
// A run times repeated set-ups first, then runs a sequence of rounds.
// Each round sets the workload up from scratch and runs the same seeded
// updates, so every round of one seed must produce the same simulated
// results: the round digest (returned gradients, every worker's
// CommStats and the makespan) is compared across rounds.
// With --trace 1, rounds alternate between untraced and traced; traced
// rounds turn on Cluster::EnableTracing and record host-time spans
// around the library calls, from which the per-layer metrics are taken.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "dl/data.h"
#include "dl/grad_profile.h"
#include "dl/loss.h"
#include "dl/trainer.h"
#include "obs/analysis.h"
#include "obs/exporters.h"
#include "simnet/cluster.h"
#include "sparse/sparse_vector.h"
#include "sparse/topk.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"
#include "train_util.h"

namespace {

using namespace spardl;  // NOLINT
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Host-time spans.

/// Spans recorded around the library calls this file makes: name, start,
/// end (host seconds since the log was created) and the enclosing span.
/// Kept in memory and written out at exit. Spans only wrap calls that
/// never block on another worker (Generate, probes, exporters, setup) or
/// whole Cluster::Run / TrainDistributed calls: under fibers a span around
/// a blocking collective would also cover other workers' time.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Spans are recorded only while enabled (between rounds only).
  void set_enabled(bool enabled) {
    SPARDL_CHECK(open_.empty());
    enabled_ = enabled;
  }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int Open(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Now(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    if (id < 0) return;
    SPARDL_CHECK(!open_.empty() && open_.back() == id)
        << "span '" << spans_[static_cast<size_t>(id)].name
        << "' closed out of order";
    spans_[static_cast<size_t>(id)].end = Now();
    open_.pop_back();
  }

  double Seconds(int id) const {
    const Span& span = spans_[static_cast<size_t>(id)];
    return span.end - span.start;
  }

  /// Summed duration of `id`'s direct children named `name` (all direct
  /// children when `name` is null).
  double ChildSeconds(int id, const char* name) const {
    double total = 0.0;
    for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.parent != id) continue;
      if (name == nullptr || std::strcmp(span.name, name) == 0) {
        total += span.end - span.start;
      }
    }
    return total;
  }

  /// A span's self time: its duration minus what its children cover.
  double SelfSeconds(int id) const {
    return Seconds(id) - ChildSeconds(id, nullptr);
  }

  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"unit\": \"s\", \"spans\": [",
                 workload.c_str(), seed);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s\n{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d}",
                   i == 0 ? "" : ",", i, span.name, span.start, span.end,
                   span.parent);
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
  }

 private:
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.Open(name)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Runs `fn` inside a span named `name` and returns its host seconds.
template <typename Fn>
double Timed(SpanLog& log, const char* name, Fn&& fn) {
  const auto start = Clock::now();
  {
    ScopedSpan span(log, name);
    fn();
  }
  return SecondsBetween(start, Clock::now());
}

// ---------------------------------------------------------------------------
// Process counters and digests.

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double ctx_switches = 0.0;
  double max_rss_mb = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  SPARDL_CHECK_EQ(getrusage(RUSAGE_SELF, &ru), 0);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage usage;
  usage.user_s = seconds(ru.ru_utime);
  usage.sys_s = seconds(ru.ru_stime);
  usage.minor_faults = static_cast<double>(ru.ru_minflt);
  usage.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  usage.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return usage;
}

/// 64-bit word-at-a-time hash of the simulated outputs. Doubles are hashed
/// by bit pattern, so any change to a simulated statistic changes it.
class Digest {
 public:
  void AddBytes(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    while (bytes >= 8) {
      uint64_t word = 0;
      std::memcpy(&word, p, 8);
      Mix(word);
      p += 8;
      bytes -= 8;
    }
    uint64_t tail = 0;
    if (bytes > 0) std::memcpy(&tail, p, bytes);
    Mix(tail ^ (static_cast<uint64_t>(bytes) << 56));
  }

  template <typename T>
  void Add(const T& value) {
    AddBytes(&value, sizeof(value));
  }

  void Add(const SparseVector& v) {
    Add(v.size());
    AddBytes(v.indices().data(), v.size() * sizeof(GradIndex));
    AddBytes(v.values().data(), v.size() * sizeof(float));
  }

  void Add(const CommStats& stats) {
    Add(stats.messages_sent);
    Add(stats.words_sent);
    Add(stats.messages_received);
    Add(stats.words_received);
    Add(stats.comm_seconds);
    Add(stats.compute_seconds);
    for (double seconds : stats.phase_seconds) Add(seconds);
  }

  uint64_t value() const { return state_; }

 private:
  void Mix(uint64_t word) {
    state_ ^= word + 0x9e3779b97f4a7c15ULL + (state_ << 6) + (state_ >> 2);
    state_ *= 0xff51afd7ed558ccdULL;
    state_ ^= state_ >> 33;
  }

  uint64_t state_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Round results.

/// Every sample a run takes, by metric name; a metric's value is the
/// median of its samples.
using Samples = std::map<std::string, std::vector<double>>;

double Median(std::vector<double> values) {
  SPARDL_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

struct RoundOutcome {
  int attempted = 0;
  int failed = 0;
  uint64_t digest = 0;
};

/// Records one measured library call (a Cluster::Run or TrainDistributed
/// call covering `updates` updates) into the host-time samples: untraced
/// calls feed the end-to-end and process metrics, traced calls the
/// tracing-overhead comparison.
void RecordHostCall(bool traced, double wall_s, const Usage& before,
                    const Usage& after, int updates, Samples& samples) {
  const double per = 1.0 / updates;
  const double cpu_s =
      after.user_s - before.user_s + after.sys_s - before.sys_s;
  std::fprintf(stderr, "%s call: %d updates, wall %.4f s, cpu %.4f s\n",
               traced ? "traced" : "untraced", updates, wall_s, cpu_s);
  if (traced) {
    samples["host_traced"].push_back(wall_s * per);
    return;
  }
  samples["host_s_per_update"].push_back(wall_s * per);
  samples["proc.cpu_user_s"].push_back((after.user_s - before.user_s) * per);
  samples["proc.cpu_sys_s"].push_back((after.sys_s - before.sys_s) * per);
  samples["proc.minor_faults"].push_back(
      (after.minor_faults - before.minor_faults) * per);
  samples["proc.ctx_switches"].push_back(
      (after.ctx_switches - before.ctx_switches) * per);
  samples["carrier.wall_s"].push_back(wall_s);
  samples["carrier.cpu_s"].push_back(cpu_s);
}

/// Simulated counters of the measured window, per update.
void RecordSimCounters(const Cluster& cluster, int updates,
                       Samples& samples) {
  const double per = 1.0 / updates;
  const RunMetrics metrics = CollectRunMetrics(cluster, "spardl");
  double link_hops = 0.0;
  double max_queue = 0.0;
  for (const RunMetrics::Link& link : metrics.links) {
    link_hops += static_cast<double>(link.messages);
    max_queue = std::max(max_queue, link.max_queue_seconds);
  }
  samples["simnet.messages_max"].push_back(
      static_cast<double>(cluster.MaxMessagesReceived()) * per);
  samples["simnet.words_max"].push_back(
      static_cast<double>(cluster.MaxWordsReceived()) * per);
  samples["simnet.flows"].push_back(
      static_cast<double>(metrics.total.messages_sent) * per);
  samples["des.link_hops"].push_back(link_hops * per);
  samples["des.busiest_link_util"].push_back(
      metrics.links.empty() ? 0.0 : metrics.links[0].utilization);
  samples["des.max_queue_s"].push_back(max_queue);
}

void AddClusterDigest(const Cluster& cluster, Digest& digest) {
  for (int r = 0; r < cluster.size(); ++r) digest.Add(cluster.WorkerStats(r));
  digest.Add(cluster.MaxSimSeconds());
}

/// The simulated critical path by phase (per update; the phases tile the
/// makespan) and the observability exporters' own host cost. Returns
/// false when the path does not sum to the makespan.
bool RecordTracedAnalysis(const Cluster& cluster, int updates, SpanLog& log,
                          Samples& samples) {
  CriticalPathReport report;
  samples["obs.critical_path_s"].push_back(
      Timed(log, "obs.critical_path",
            [&] { report = ExtractCriticalPath(cluster); }));
  samples["obs.export_s"].push_back(Timed(log, "obs.export", [&] {
    std::vector<RunMetrics> runs = {CollectRunMetrics(cluster, "spardl")};
    runs[0].analysis_json =
        AnalysisJson(report, EstimateWhatIfs(report, cluster));
    const std::string metrics_json = RunMetricsJson(runs);
    const std::string trace_json = ChromeTraceJson(cluster);
    SPARDL_CHECK(!metrics_json.empty() && !trace_json.empty());
  }));
  struct PhaseMetric {
    Phase phase;
    const char* name;
  };
  static constexpr PhaseMetric kPhaseMetrics[] = {
      {Phase::kSparsify, "core.phase.sparsify_s"},
      {Phase::kSrs, "core.phase.srs_s"},
      {Phase::kSag, "core.phase.sag_s"},
      {Phase::kAllGather, "core.phase.allgather_s"},
      {Phase::kResidual, "core.phase.residual_s"},
      {Phase::kCollective, "core.phase.collective_s"},
      {Phase::kBucket, "dl.phase.bucket_s"},
      {Phase::kCompute, "dl.phase.compute_s"},
      {Phase::kBarrier, "simnet.phase.barrier_s"},
      {Phase::kOverlapIdle, "simnet.phase.overlap_idle_s"},
      {Phase::kUntagged, "simnet.phase.untagged_s"},
  };
  double covered = 0.0;
  for (const PhaseMetric& m : kPhaseMetrics) {
    const double seconds = report.by_phase[static_cast<size_t>(m.phase)];
    covered += seconds;
    samples[m.name].push_back(seconds / updates);
  }
  const double makespan = cluster.MaxSimSeconds();
  const bool ok = report.identity_ok && report.makespan == makespan &&
                  std::abs(covered - makespan) <= 1e-9 * makespan;
  if (!ok) {
    std::fprintf(stderr,
                 "critical path does not tile the makespan: identity %d, "
                 "phases %.17g vs makespan %.17g\n",
                 report.identity_ok ? 1 : 0, covered, makespan);
  }
  return ok;
}

/// Host cost of the sparse kernels on two of the workload's own inputs:
/// TopKSparse(a, k) and MergeSum(a, b), each repeated until it has run
/// for a few milliseconds; the median call is recorded.
void ProbeSparseKernels(const SparseVector& a, const SparseVector& b,
                        size_t k, SpanLog& log, Samples& samples) {
  auto probe = [&](const char* span, const char* metric, auto&& call) {
    std::vector<double> calls;
    double total = 0.0;
    while (calls.size() < 5 || (total < 0.02 && calls.size() < 1000)) {
      calls.push_back(Timed(log, span, call));
      total += calls.back();
    }
    samples[metric].push_back(Median(std::move(calls)));
  };
  SparseVector out;
  probe("sparse.topk", "sparse.topk_s_per_call",
        [&] { TopKSparse(a, std::min(k, a.size()), &out); });
  probe("sparse.merge", "sparse.merge_s_per_call",
        [&] { MergeSum(a, b, &out); });
}

// ---------------------------------------------------------------------------
// Workloads.

void Record(Samples* layer, const char* name, double value) {
  if (layer != nullptr) (*layer)[name].push_back(value);
}

/// setup_s is measured before the first round, while every run's process
/// is in the same state. The workload is set up in 1 + kSetUpBatches
/// batches, each of its fixed number of set-ups (sized so a batch takes
/// about 15 ms). The first batch warms the allocator and the caches and is
/// not timed; every other batch gives one sample, its mean set-up time. A
/// batch's set-ups are torn down after its clock stops. Set-ups after a
/// round are not timed: the updates leave the allocator holding hundreds
/// of megabytes, which makes later large_p_fattree set-ups 2.5-3 times
/// faster.
constexpr int kSetUpBatches = 15;

/// `set_up(layer)` sets the workload up once and returns what it built;
/// the timed set-ups pass `layer` on, so traced runs take the per-layer
/// set-up metrics from them.
template <typename SetUp>
void TimeSetUps(int batch, Samples* layer, Samples& samples,
                SetUp&& set_up) {
  for (int b = 0; b <= kSetUpBatches; ++b) {
    Samples* timed_layer = b == 0 ? nullptr : layer;
    std::vector<decltype(set_up(layer))> held;
    held.reserve(static_cast<size_t>(batch));
    const auto start = Clock::now();
    for (int i = 0; i < batch; ++i) held.push_back(set_up(timed_layer));
    const double seconds = SecondsBetween(start, Clock::now());
    if (b > 0) samples["setup_s"].push_back(seconds / batch);
  }
}

TopologySpec BuildTopology(const char* text, int workers, SpanLog& log,
                           Samples* layer) {
  TopologySpec spec;
  Record(layer, "topo.build_s", Timed(log, "topo.build", [&] {
           auto parsed = TopologySpec::Parse(text, workers);
           SPARDL_CHECK(parsed.ok()) << parsed.status().ToString();
           auto built = (*parsed).Build();
           SPARDL_CHECK(built.ok()) << built.status().ToString();
           spec = *parsed;
         }));
  return spec;
}

TeamPlacement PlanTeams(const TopologySpec& spec, int workers, int teams,
                        SpanLog& log, Samples* layer) {
  TeamPlacement placement;
  Record(layer, "topo.placement_s", Timed(log, "topo.placement", [&] {
           auto planned = PlanPlacement(spec, workers, teams,
                                        PlacementPolicy::kContiguous);
           SPARDL_CHECK(planned.ok()) << planned.status().ToString();
           placement = std::move(*planned);
         }));
  return placement;
}

std::unique_ptr<Cluster> MakeCluster(const TopologySpec& spec, SpanLog& log,
                                     Samples* layer) {
  std::unique_ptr<Cluster> cluster;
  Record(layer, "simnet.cluster_ctor_s",
         Timed(log, "simnet.cluster_ctor",
               [&] { cluster = std::make_unique<Cluster>(spec); }));
  return cluster;
}

/// SparDL on synthetic candidate gradients (the per-update-time benches'
/// set-up): one warm-up update, then ResetClocksAndStats and the measured
/// updates.
struct PerUpdateWorkload {
  const char* topology;
  int workers;
  size_t n;
  double k_ratio;
  int teams;
};

constexpr int kWarmupUpdates = 1;
constexpr int kMeasuredUpdates = 3;
constexpr double kCandidateFactor = 1.5;

struct PerUpdateSetUp {
  size_t k = 0;
  size_t candidates_per_worker = 0;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<SparseAllReduce>> algos;
  std::optional<ProfileGradientGenerator> generator;
};

std::unique_ptr<PerUpdateSetUp> SetUpPerUpdate(const PerUpdateWorkload& w,
                                               uint64_t seed, SpanLog& log,
                                               Samples* layer) {
  auto setup = std::make_unique<PerUpdateSetUp>();
  setup->k = std::max<size_t>(
      1, static_cast<size_t>(w.k_ratio * static_cast<double>(w.n)));
  setup->candidates_per_worker =
      static_cast<size_t>(kCandidateFactor * static_cast<double>(setup->k));
  const TopologySpec spec = BuildTopology(w.topology, w.workers, log, layer);
  AlgorithmConfig config;
  config.n = w.n;
  config.k = setup->k;
  config.num_workers = w.workers;
  config.num_teams = w.teams;
  // RunOnSparse touches no dense residual buffer (see SparseAllReduce).
  config.residual_mode = ResidualMode::kNone;
  config.placement = PlanTeams(spec, w.workers, w.teams, log, layer);
  setup->cluster = MakeCluster(spec, log, layer);
  setup->algos.resize(static_cast<size_t>(w.workers));
  Record(layer, "core.create_s", Timed(log, "core.create", [&] {
           for (auto& algo : setup->algos) {
             auto created = CreateAlgorithm("spardl", config);
             SPARDL_CHECK(created.ok()) << created.status().ToString();
             algo = std::move(*created);
           }
         }));
  Record(layer, "dl.setup_s", Timed(log, "dl.setup", [&] {
           setup->generator.emplace(w.n, seed);
         }));
  return setup;
}

RoundOutcome RunPerUpdateRound(const PerUpdateWorkload& w, uint64_t seed,
                               bool traced, SpanLog& log, Samples& samples) {
  const std::unique_ptr<PerUpdateSetUp> setup =
      SetUpPerUpdate(w, seed, log, /*layer=*/nullptr);
  Cluster& cluster = *setup->cluster;
  if (traced) cluster.EnableTracing();

  RoundOutcome outcome;
  Digest digest;
  std::vector<uint64_t> global_hash(static_cast<size_t>(w.workers));
  for (int iter = 0; iter < kWarmupUpdates + kMeasuredUpdates; ++iter) {
    if (iter == kWarmupUpdates) cluster.ResetClocksAndStats();
    const Usage before = ReadUsage();
    const auto start = Clock::now();
    const int run_span = log.Open("simnet.run");
    const Status status = cluster.Run([&](Comm& comm) {
      const auto rank = static_cast<size_t>(comm.rank());
      SparseVector candidates;
      {
        ScopedSpan span(log, "dl.generate");
        candidates = setup->generator->Generate(
            comm.rank(), iter, setup->candidates_per_worker);
      }
      const SparseVector global =
          setup->algos[rank]->RunOnSparse(comm, candidates);
      {
        ScopedSpan span(log, "check.hash");
        Digest h;
        h.Add(global);
        global_hash[rank] = h.value();
      }
      comm.MarkIteration();
      comm.BarrierSyncClocks();
    });
    log.Close(run_span);
    RecordHostCall(traced, SecondsBetween(start, Clock::now()), before,
                   ReadUsage(), 1, samples);
    if (traced) {
      samples["dl.generate_s"].push_back(
          log.ChildSeconds(run_span, "dl.generate"));
      samples["simnet.run_s"].push_back(log.SelfSeconds(run_span));
    }

    ++outcome.attempted;
    // SparseAllReduce's post-condition: every worker returns the same
    // global gradient.
    const bool consistent =
        std::all_of(global_hash.begin(), global_hash.end(),
                    [&](uint64_t h) { return h == global_hash[0]; });
    if (!status.ok() || !consistent) {
      ++outcome.failed;
      std::fprintf(stderr, "update %d failed: %s\n", iter,
                   status.ok() ? "workers returned different gradients"
                               : status.ToString().c_str());
    }
    digest.Add(global_hash[0]);
  }

  AddClusterDigest(cluster, digest);
  outcome.digest = digest.value();
  const double makespan = cluster.MaxSimSeconds();
  samples["sim_s_per_update"].push_back(makespan / kMeasuredUpdates);
  // Candidate gradients carry no accuracy target. The makespan of the
  // measured updates stands in (3 x sim_s_per_update; no new information).
  samples["sim_s_to_target"].push_back(makespan);
  RecordSimCounters(cluster, kMeasuredUpdates, samples);

  if (traced) {
    if (!RecordTracedAnalysis(cluster, kMeasuredUpdates, log, samples)) {
      ++outcome.failed;
    }
    const SparseVector a = setup->generator->Generate(
        0, kWarmupUpdates, setup->candidates_per_worker);
    const SparseVector b = setup->generator->Generate(
        1, kWarmupUpdates, setup->candidates_per_worker);
    ProbeSparseKernels(a, b, setup->k, log, samples);
    samples["dl.fwd_bwd_s_per_batch"].push_back(0.0);  // no model here
  }
  return outcome;
}

/// The full SparDL training loop on the deep overlap case: bucketed,
/// priority-ordered gradient sync on a contended fat-tree. A round trains
/// kTrainSeeds times, each on its own data and model seed derived from the
/// workload seed, because time to accuracy varies from seed to seed by
/// about 18% (quartile spread over seeds 0-100); the round reports the
/// mean.
constexpr const char* kTrainTopology = "fattree:4x8+event";
constexpr int kTrainWorkers = 8;
constexpr double kTrainKRatio = 0.05;
constexpr int kTrainSeeds = 6;
// Test accuracy is evaluated every kTrainItersPerEpoch iterations on
// kTestBatch held-out samples. Over seeds 0-100 the target was reached
// after 55 iterations at the median and 70 at most. A target of 0.99 sits
// at this case's accuracy ceiling: one of those seeds took 95 iterations.
constexpr int kTrainItersPerEpoch = 5;
constexpr int kTrainEpochs = 18;
constexpr size_t kTestBatch = 1024;
constexpr double kTargetAccuracy = 0.98;
// The case's own rate (0.08 with momentum 0.9) diverges to NaN under
// bucketed sync on some seeds (6 and 13 of 1-25); 0.05 converged on all
// of seeds 0-100.
constexpr double kTrainLearningRate = 0.05;

struct TrainSetUp {
  TeamPlacement placement;
  std::unique_ptr<Cluster> cluster;
  TrainingCaseSpec train_case;
  TrainerConfig config;
  size_t n = 0;
  std::vector<uint64_t> seeds;
  std::vector<std::unique_ptr<Dataset>> datasets;  // one per seed
};

std::unique_ptr<TrainSetUp> SetUpTrain(uint64_t seed, SpanLog& log,
                                       Samples* layer) {
  auto setup = std::make_unique<TrainSetUp>();
  const TopologySpec spec =
      BuildTopology(kTrainTopology, kTrainWorkers, log, layer);
  setup->placement = PlanTeams(spec, kTrainWorkers, /*teams=*/1, log, layer);
  setup->cluster = MakeCluster(spec, log, layer);
  Record(layer, "dl.setup_s", Timed(log, "dl.setup", [&] {
           setup->train_case = bench::MakeDeepOverlapCase();
           TrainerConfig& config = setup->config;
           config = setup->train_case.default_config;
           config.sgd.learning_rate = kTrainLearningRate;
           config.iterations_per_epoch = kTrainItersPerEpoch;
           config.epochs = kTrainEpochs;
           config.test_batch_size = kTestBatch;
           config.sync_mode = GradSyncMode::kBucketedPriority;
           for (int i = 0; i < kTrainSeeds; ++i) {
             const uint64_t train_seed = seed * kTrainSeeds + i;
             setup->seeds.push_back(train_seed);
             // The case's own dataset shape, with a seed of the workload
             // in place of its fixed data seed.
             setup->datasets.push_back(
                 MakeSyntheticClassification(96, 10, 1.6f, train_seed));
           }
           setup->n = setup->train_case.model_factory(setup->seeds[0])
                          ->num_params();
         }));
  return setup;
}

/// Simulated seconds at which test accuracy first reaches the target,
/// interpolated linearly between the evaluation before the crossing and
/// the one at it.
std::optional<double> SimSecondsToTarget(
    const std::vector<EpochRecord>& epochs) {
  double prev_accuracy = 0.0;
  double prev_seconds = 0.0;
  for (const EpochRecord& e : epochs) {
    if (e.test_metric >= kTargetAccuracy) {
      const double fraction = (kTargetAccuracy - prev_accuracy) /
                              (e.test_metric - prev_accuracy);
      return prev_seconds +
             fraction * (e.sim_seconds_cumulative - prev_seconds);
    }
    prev_accuracy = e.test_metric;
    prev_seconds = e.sim_seconds_cumulative;
  }
  return std::nullopt;
}

RoundOutcome RunTrainRound(uint64_t seed, bool traced, SpanLog& log,
                           Samples& samples) {
  const std::unique_ptr<TrainSetUp> setup =
      SetUpTrain(seed, log, /*layer=*/nullptr);
  Cluster& cluster = *setup->cluster;
  if (traced) cluster.EnableTracing();

  // TrainDistributed calls this once per worker and bucket, inside its
  // run; the call never blocks, so its span is a child of the run's.
  const AlgorithmFactory algorithm_factory = [&](size_t bucket_n) {
    ScopedSpan span(log, "core.create");
    AlgorithmConfig algo_config;
    algo_config.n = bucket_n;
    algo_config.k = std::max<size_t>(
        1, static_cast<size_t>(kTrainKRatio * static_cast<double>(bucket_n)));
    algo_config.num_workers = kTrainWorkers;
    algo_config.placement = setup->placement;
    auto created = CreateAlgorithm("spardl", algo_config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    return std::move(*created);
  };

  RoundOutcome outcome;
  Digest digest;
  double sim_to_target_sum = 0.0;
  const int updates = kTrainEpochs * kTrainItersPerEpoch;
  for (int i = 0; i < kTrainSeeds; ++i) {
    TrainerConfig config = setup->config;
    config.model_seed = setup->seeds[static_cast<size_t>(i)];
    const Usage before = ReadUsage();
    const auto start = Clock::now();
    const int run_span = log.Open("simnet.run");
    const TrainResult result = TrainDistributed(
        cluster, *setup->datasets[static_cast<size_t>(i)],
        setup->train_case.model_factory, algorithm_factory, config);
    log.Close(run_span);
    RecordHostCall(traced, SecondsBetween(start, Clock::now()), before,
                   ReadUsage(), updates, samples);
    if (traced) {
      samples["core.create_s"].push_back(
          log.ChildSeconds(run_span, "core.create"));
      samples["simnet.run_s"].push_back(log.SelfSeconds(run_span) / updates);
      samples["dl.generate_s"].push_back(0.0);  // no candidate generation
    }

    ++outcome.attempted;
    digest.Add(result.final_param_checksum);
    for (const EpochRecord& e : result.epochs) {
      digest.Add(e.train_loss);
      digest.Add(e.test_metric);
      digest.Add(e.sim_seconds_cumulative);
      digest.Add(e.comm_seconds_epoch);
      digest.Add(e.compute_seconds_epoch);
    }
    AddClusterDigest(cluster, digest);
    const std::optional<double> sim_to_target =
        SimSecondsToTarget(result.epochs);
    if (!result.replicas_consistent || !sim_to_target) {
      ++outcome.failed;
      std::fprintf(stderr, "training on seed %" PRIu64 " failed: %s\n",
                   config.model_seed,
                   std::isnan(result.final_param_checksum)
                       ? "parameters diverged to NaN"
                   : !result.replicas_consistent
                       ? "replicas diverged"
                       : "test accuracy never reached the target");
    }
    sim_to_target_sum += sim_to_target.value_or(0.0);
    samples["sim_s_per_update"].push_back(cluster.MaxSimSeconds() / updates);
    RecordSimCounters(cluster, updates, samples);
    if (traced && !RecordTracedAnalysis(cluster, updates, log, samples)) {
      ++outcome.failed;
    }
  }
  outcome.digest = digest.value();
  samples["sim_s_to_target"].push_back(sim_to_target_sum / kTrainSeeds);

  if (traced) {
    // Forward+backward of one worker's batch, and the sparse kernels on
    // the gradients two workers' batches produce.
    const Dataset& dataset = *setup->datasets[0];
    std::unique_ptr<Model> model =
        setup->train_case.model_factory(setup->seeds[0]);
    std::vector<SparseVector> grads;
    for (int worker = 0; worker < 2; ++worker) {
      const Batch batch =
          dataset.TrainBatch(worker, 0, setup->config.batch_size);
      std::vector<double> calls;
      for (int rep = 0; rep < 20; ++rep) {
        calls.push_back(Timed(log, "dl.fwd_bwd", [&] {
          model->ZeroGrads();
          const Matrix outputs = model->Forward(batch.inputs);
          const LossResult loss = SoftmaxCrossEntropy(outputs, batch.labels);
          model->Backward(loss.grad);
        }));
      }
      if (worker == 0) {
        samples["dl.fwd_bwd_s_per_batch"].push_back(Median(std::move(calls)));
      }
      grads.push_back(SparseVector::FromDense(model->grads()));
    }
    ProbeSparseKernels(
        grads[0], grads[1],
        static_cast<size_t>(kTrainKRatio * static_cast<double>(setup->n)), log,
        samples);
  }
  return outcome;
}

struct Workload {
  const char* name;
  std::optional<PerUpdateWorkload> per_update;  // unset: the training loop
  int setup_batch;  // set-ups per timed batch; see TimeSetUps
};

const Workload kWorkloads[] = {
    // SparDL d=1 at P=1024 on an oversubscribed 2-core fat-tree: the
    // SparDL row of `bench_fig12_scalability --workers 1024`.
    {"large_p_fattree",
     PerUpdateWorkload{"fattree:8x4x2+event", 1024, 4'000'000, 0.001, 1},
     1},
    // SparDL d=2 (SRS over 7 workers, then R-SAG) at the paper's P=14 on
    // the LSTM-PTB profile, flat crossbar.
    {"paper_flat_p14",
     PerUpdateWorkload{"flat", 14, 66'000'000, 0.01, 2}, 500},
    {"train_overlap_fattree", std::nullopt, 75},
};

// ---------------------------------------------------------------------------
// Output.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"host_s_per_update", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_s_per_update", "sim_s"},
    {"sim_s_to_target", "sim_s"},
    {"ok_fraction", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"topo.build_s", "s"},
    {"topo.placement_s", "s"},
    {"simnet.cluster_ctor_s", "s"},
    {"core.create_s", "s"},
    {"dl.setup_s", "s"},
    {"dl.generate_s", "s"},
    {"simnet.run_s", "s"},
    {"sparse.topk_s_per_call", "s"},
    {"sparse.merge_s_per_call", "s"},
    {"dl.fwd_bwd_s_per_batch", "s"},
    {"simnet.messages_max", "count"},
    {"simnet.words_max", "words"},
    {"simnet.flows", "count"},
    {"des.link_hops", "count"},
    {"des.busiest_link_util", "ratio"},
    {"des.max_queue_s", "sim_s"},
    {"core.phase.sparsify_s", "sim_s"},
    {"core.phase.srs_s", "sim_s"},
    {"core.phase.sag_s", "sim_s"},
    {"core.phase.allgather_s", "sim_s"},
    {"core.phase.residual_s", "sim_s"},
    {"core.phase.collective_s", "sim_s"},
    {"dl.phase.bucket_s", "sim_s"},
    {"dl.phase.compute_s", "sim_s"},
    {"simnet.phase.barrier_s", "sim_s"},
    {"simnet.phase.overlap_idle_s", "sim_s"},
    {"simnet.phase.untagged_s", "sim_s"},
    {"proc.cpu_user_s", "s"},
    {"proc.cpu_sys_s", "s"},
    {"proc.minor_faults", "count"},
    {"proc.ctx_switches", "count"},
    {"obs.trace_overhead_s", "s"},
    {"obs.export_s", "s"},
    {"obs.critical_path_s", "s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void DieUsage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: spardl_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) DieUsage("missing flag value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) {
        DieUsage("--seconds wants a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        DieUsage("--trace wants 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      DieUsage("unknown flag");
    }
  }
  if (!have_seed) DieUsage("--seed wants a non-negative integer");
  if (args.seconds <= 0.0) DieUsage("--seconds is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) DieUsage("unknown --workload");
  // Every worker runs as a fiber on this thread; read once, before the
  // first Cluster is built.
  setenv("SPARDL_EXEC_BACKEND", "fiber", /*overwrite=*/1);

  SpanLog log;
  Samples samples;
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::optional<uint64_t> digest;
  {
    // With tracing, the set-ups also give the per-layer set-up metrics.
    Samples* layer = args.trace ? &samples : nullptr;
    log.set_enabled(args.trace);
    if (workload->per_update) {
      TimeSetUps(workload->setup_batch, layer, samples, [&](Samples* l) {
        return SetUpPerUpdate(*workload->per_update, args.seed, log, l);
      });
    } else {
      TimeSetUps(workload->setup_batch, layer, samples, [&](Samples* l) {
        return SetUpTrain(args.seed, log, l);
      });
    }
  }
  // Rounds run until the one ending nearest the time budget. With
  // tracing, rounds alternate untraced/traced so one run yields both sides
  // of the tracing-overhead comparison.
  const auto run_start = Clock::now();
  for (int round = 0;; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    log.set_enabled(traced);
    const auto round_start = Clock::now();
    const RoundOutcome outcome =
        workload->per_update
            ? RunPerUpdateRound(*workload->per_update, args.seed, traced, log,
                                samples)
            : RunTrainRound(args.seed, traced, log, samples);
    const double elapsed = SecondsBetween(run_start, Clock::now());
    const double last = SecondsBetween(round_start, Clock::now());
    const bool done = elapsed + 0.5 * last >= args.seconds &&
                      (!args.trace || round >= 1);
    attempted += outcome.attempted;
    failed += outcome.failed;
    if (!digest) digest = outcome.digest;
    if (outcome.digest != *digest) {
      std::fprintf(stderr,
                   "round %d: simulated results differ from round 0 "
                   "(digest %016" PRIx64 " vs %016" PRIx64 ")\n",
                   round, outcome.digest, *digest);
      failed += outcome.attempted - outcome.failed;
    }
    if (done) break;
  }
  log.set_enabled(false);
  // One carrier thread: CPU time cannot outrun wall time. More means the
  // workers ran on threads.
  const double wall = std::accumulate(samples["carrier.wall_s"].begin(),
                                      samples["carrier.wall_s"].end(), 0.0);
  const double cpu = std::accumulate(samples["carrier.cpu_s"].begin(),
                                     samples["carrier.cpu_s"].end(), 0.0);
  if (cpu > 1.1 * wall + 0.05) {
    std::fprintf(stderr,
                 "CPU time %.3fs exceeds wall time %.3fs: the workers did "
                 "not run on one carrier thread\n",
                 cpu, wall);
    correct = false;
  }
  if (failed > 0) correct = false;

  std::map<std::string, double> values;
  for (const auto& [name, list] : samples) values[name] = Median(list);
  values["peak_rss_mb"] = ReadUsage().max_rss_mb;
  values["ok_fraction"] =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  if (args.trace) {
    values["obs.trace_overhead_s"] =
        values["host_traced"] - values["host_s_per_update"];
  }

  std::fprintf(stderr,
               "per untraced update: cpu_user %.4f s, cpu_sys %.4f s, "
               "minor_faults %.0f, ctx_switches %.1f; peak_rss %.1f MB\n",
               values["proc.cpu_user_s"], values["proc.cpu_sys_s"],
               values["proc.minor_faults"], values["proc.ctx_switches"],
               values["peak_rss_mb"]);
  std::fprintf(stderr, "perfbench digest %s seed %" PRIu64 " %016" PRIx64
               "\n", workload->name, args.seed, *digest);
  if (args.trace && !args.spans_out.empty() &&
      !log.WriteJson(args.spans_out, workload->name, args.seed)) {
    std::fprintf(stderr, "failed to write spans to %s\n",
                 args.spans_out.c_str());
    return 1;
  }

  const std::span<const MetricDef> printed =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  std::string metrics;
  for (const MetricDef& m : printed) {
    auto it = values.find(m.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "metric %s was not measured\n", m.name);
      return 1;
    }
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, it->second, m.unit);
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}
