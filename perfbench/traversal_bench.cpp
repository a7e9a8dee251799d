// End-to-end traversal benchmark: BFS on the real storage backend
// (O_DIRECT + io_uring), measured from outside the engines.
//
//   perfbench_traversal --workload NAME --seed N --seconds S --trace 0|1
//                       --workdir DIR [--trace-file FILE]
//
// One run sets the workload's graph up several times (generate,
// partition, build the transposed view, open the role devices) and
// reports the median set-up time; builds the in-memory CSR the results
// are checked against; runs one untimed warm-up traversal; then calls
// the engine on fresh Graph500 roots until S seconds have passed. Every
// query's states are memcmp'd against inmem::run from the same root.
//
// --trace 0 reports the end-to-end metrics: median seconds per engine
// call, TEPS, set-up seconds and the traversal's peak RSS growth.
// --trace 1 runs each root twice, untraced and then with a
// metrics::Collector attached, and reports per-layer metrics from the
// traced calls plus the tracing overhead; the spans recorded at the
// benchmark's call boundaries go to FILE as Chrome trace-event JSON.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/stopwatch.hpp"
#include "engine/api.hpp"
#include "engine/batch.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "inmem/engine.hpp"
#include "metrics/collector.hpp"
#include "storage/device.hpp"
#include "storage/storage_plan.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace io = fbfs::io;
namespace graph = fbfs::graph;
namespace engine = fbfs::engine;
namespace metrics = fbfs::metrics;
using fbfs::Config;
using fbfs::Stopwatch;

// ------------------------------------------------------------ workloads

// Every workload traverses a Graph500 R-MAT graph (edge factor 16).
// Scale 18 keeps three set-ups plus the measured window of a run well
// inside the benchmark's time budget.
constexpr std::uint32_t kRmatScale = 18;

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// Threads that compute the in-memory references of a batch.
constexpr unsigned kReferenceThreads = 4;

// Seed streams derived from --seed.
constexpr std::uint64_t kGraphStream = 1;
constexpr std::uint64_t kRootStream = 2;

// Every workload: the real backend at its default queue depth, four
// engine threads, eight partitions.
constexpr const char* kCommonConfig =
    "storage.backend = real\n"
    "engine.num_threads = 4\n"
    "engine.partition_count = 8\n";
// The FastBFS preset: gated trimming plus direction switching.
constexpr const char* kFastBfsConfig =
    "core.trim_min_dead_fraction = 0.25\n"
    "core.direction = auto\n";

struct Workload {
  const char* name;
  engine::Kind kind;
  bool batch;           // one engine::run_batch call per batch.max_width roots
  std::string config;   // appended to kCommonConfig
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"rmat-query", engine::Kind::kCore, false,
       std::string(kFastBfsConfig) +
           "updates.codec = raw\nupdates.sieve = false\n"},
      {"rmat-batch64", engine::Kind::kCore, true,
       std::string(kFastBfsConfig) +
           "updates.codec = auto\nupdates.sieve = true\nbatch.max_width = 64\n"},
      {"rmat-xstream", engine::Kind::kXstream, false,
       "updates.codec = raw\nupdates.sieve = false\n"},
  };
  return all;
}

// ---------------------------------------------------------------- set-up

constexpr std::array<io::Role, io::kNumRoles> kRoles = {
    io::Role::kEdges, io::Role::kState, io::Role::kUpdates, io::Role::kStay};

/// One set-up graph: the files on disk, the generator's out-degrees and
/// the four role devices the engine runs on.
struct Graph {
  std::unique_ptr<io::Device> setup_edges;  // generation + partitioning
  graph::GraphMeta meta;
  graph::PartitionedGraph pg;
  std::vector<std::uint32_t> out_degree;
  std::array<std::unique_ptr<io::Device>, io::kNumRoles> devices;

  io::StoragePlan plan() const {
    return io::StoragePlan::single(*devices[0])
        .assign(io::Role::kState, *devices[1])
        .assign(io::Role::kUpdates, *devices[2])
        .assign(io::Role::kStay, *devices[3]);
  }
};

struct SetupTimes {
  double generate = 0.0;
  double partition = 0.0;
  double transpose = 0.0;
  double open = 0.0;
  double total() const { return generate + partition + transpose + open; }
};

/// Times a stage and records it as a span under "setup".
template <typename Fn>
double timed_stage(Tracer& tracer, const char* name, Fn&& fn) {
  const double start = tracer.now_us();
  Stopwatch clock;
  fn();
  const double seconds = clock.seconds();
  tracer.add({name, "setup", start, seconds * 1e6, ""});
  return seconds;
}

SetupTimes set_up(const Config& config, std::uint64_t seed,
                  std::uint32_t partitions, const std::string& root,
                  Tracer& tracer, Graph& g) {
  // Devices carry the SSD model only so IoStats can show the model's
  // predicted busy time beside the measured one; the real backend
  // never sleeps.
  const io::DeviceModel model = io::DeviceModel::ssd();
  const graph::RmatSource source(graph::RmatParams{
      .scale = kRmatScale,
      .edge_factor = 16,
      .seed = derive_seed(seed, kGraphStream)});
  SetupTimes t;
  t.generate = timed_stage(tracer, "setup.generate", [&] {
    g.setup_edges = std::make_unique<io::Device>(
        root + "/edges", model,
        io::backend_options_from_config(config, io::Role::kEdges));
    g.out_degree.assign(source.num_vertices(), 0);
    g.meta = graph::write_generated(
        *g.setup_edges, "graph", source.num_vertices(), source.seed(),
        source.undirected(), [&](const graph::EdgeSink& sink) {
          source.generate([&](const graph::Edge& e) {
            ++g.out_degree[e.src];
            sink(e);
          });
        });
  });
  t.partition = timed_stage(tracer, "setup.partition", [&] {
    g.pg = graph::partition_edge_list(*g.setup_edges, g.meta, partitions);
  });
  t.transpose = timed_stage(tracer, "setup.transpose", [&] {
    graph::build_transposed_view(io::StoragePlan::single(*g.setup_edges),
                                 g.pg);
  });
  t.open = timed_stage(tracer, "setup.open_devices", [&] {
    for (std::size_t r = 0; r < io::kNumRoles; ++r) {
      g.devices[r] = std::make_unique<io::Device>(
          root + "/" + io::to_string(kRoles[r]), model,
          io::backend_options_from_config(config, kRoles[r]));
    }
  });
  return t;
}

// ---------------------------------------------------------- engine calls

/// Run-level counters the engine returns beside its states.
struct EngineTotals {
  std::uint32_t trims_started = 0;
  std::uint32_t trims_committed = 0;
  std::uint32_t trims_cancelled = 0;
  std::uint64_t stay_edges_written = 0;
};

struct CallResult {
  double seconds = 0.0;
  double start_us = 0.0;
  bool threw = false;
  std::string error;
  std::vector<std::vector<BfsProgram::State>> per_query;
  EngineTotals totals;
  double cpu_seconds = 0.0;
  std::optional<std::uint64_t> peak_rss_kib;  // VmHWM of this call
  std::array<io::IoStatsSnapshot, io::kNumRoles> io{};  // per-role deltas
  std::array<std::array<std::uint64_t, metrics::LatencyHistogram::kNumBuckets>,
             io::kNumRoles>
      read_latency_buckets{};  // per-role bucket deltas
};

template <typename Result>
EngineTotals totals_of(const Result& r) {
  return {r.trims_started, r.trims_committed, r.trims_cancelled,
          r.stay_edges_written};
}

struct Bench {
  const Workload* workload = nullptr;
  engine::Options options;
  engine::BatchOptions batch;
  Graph* graph = nullptr;
};

std::array<std::uint64_t, metrics::LatencyHistogram::kNumBuckets> buckets_of(
    const metrics::LatencyHistogram& h) {
  std::array<std::uint64_t, metrics::LatencyHistogram::kNumBuckets> out{};
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = h.bucket_count(b);
  return out;
}

/// One engine call — engine::run for a single root, engine::run_batch
/// for a batch — with the process and device counters around it.
CallResult call_engine(const Bench& b, std::span<const VertexId> roots,
                       metrics::Collector* collector, const Tracer& tracer) {
  CallResult r;
  const io::StoragePlan plan = b.graph->plan();
  std::array<io::IoStatsSnapshot, io::kNumRoles> io_before;
  for (std::size_t i = 0; i < io::kNumRoles; ++i) {
    io_before[i] = b.graph->devices[i]->stats().snapshot();
    r.read_latency_buckets[i] = buckets_of(b.graph->devices[i]->read_latency());
  }
  // Hand memory freed by earlier calls back to the kernel first, so
  // this call's growth is its own footprint, not what the allocator
  // happened to keep.
  malloc_trim(0);
  const bool rss_reset = rss::reset_peak();
  engine::Options options = b.options;
  options.collector = collector;
  const double cpu_before = process_cpu_seconds();
  r.start_us = tracer.now_us();
  Stopwatch clock;
  try {
    if (b.workload->batch) {
      engine::BatchRunResult out = engine::run_batch(
          b.workload->kind, b.graph->pg, plan, roots, options, b.batch);
      r.seconds = clock.seconds();
      r.per_query = std::move(out.per_query);
      for (const auto& t : out.traversals) {
        const EngineTotals part = totals_of(t);
        r.totals.trims_started += part.trims_started;
        r.totals.trims_committed += part.trims_committed;
        r.totals.trims_cancelled += part.trims_cancelled;
        r.totals.stay_edges_written += part.stay_edges_written;
      }
    } else {
      engine::RunResult<BfsProgram> out =
          engine::run(b.workload->kind, b.graph->pg, plan,
                      BfsProgram{.root = roots[0]}, options);
      r.seconds = clock.seconds();
      r.totals = totals_of(out);
      r.per_query.push_back(std::move(out.states));
    }
  } catch (const io::IoError& e) {
    r.seconds = clock.seconds();
    r.threw = true;
    r.error = e.what();
  }
  r.cpu_seconds = process_cpu_seconds() - cpu_before;
  if (rss_reset) r.peak_rss_kib = rss::status_kib("VmHWM");
  for (std::size_t i = 0; i < io::kNumRoles; ++i) {
    r.io[i] = b.graph->devices[i]->stats().snapshot().delta(io_before[i]);
    const auto after = buckets_of(b.graph->devices[i]->read_latency());
    for (std::size_t k = 0; k < after.size(); ++k) {
      r.read_latency_buckets[i][k] = after[k] - r.read_latency_buckets[i][k];
    }
  }
  return r;
}

/// In-memory reference states (and their inmem::run seconds) for every
/// root, computed on up to kReferenceThreads threads.
struct References {
  std::vector<std::vector<BfsProgram::State>> states;
  std::vector<double> seconds;
};

References reference_states(const graph::Csr& csr,
                            std::span<const VertexId> roots) {
  References refs;
  refs.states.resize(roots.size());
  refs.seconds.resize(roots.size());
  const auto work = [&](std::size_t first, std::size_t stride) {
    for (std::size_t i = first; i < roots.size(); i += stride) {
      Stopwatch clock;
      refs.states[i] =
          fbfs::inmem::run(csr, BfsProgram{.root = roots[i]}).states;
      refs.seconds[i] = clock.seconds();
    }
  };
  const std::size_t threads =
      std::min<std::size_t>(kReferenceThreads, roots.size());
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work, t, threads);
    work(0, threads);
  }
  return refs;
}

// ------------------------------------------------------ per-layer metrics

/// Wall seconds the engine attributed to its rounds.
double round_seconds(const metrics::RunStats& rs) {
  double seconds = 0.0;
  for (const metrics::IterationMetrics& row : rs.iterations) {
    seconds += row.stats.seconds;
  }
  return seconds;
}

/// Modelled bytes of the side the direction model chose, over the
/// bytes the round actually moved on its input and update streams.
double direction_model_ratio(const metrics::RunStats& rs) {
  double modelled = 0.0;
  double measured = 0.0;
  for (const metrics::IterationMetrics& row : rs.iterations) {
    const metrics::IterationStats& s = row.stats;
    if (s.modelled_topdown_bytes <= 0.0 && s.modelled_bottomup_bytes <= 0.0) {
      continue;
    }
    modelled += s.bottomup ? s.modelled_bottomup_bytes
                           : s.modelled_topdown_bytes;
    measured += static_cast<double>(
        s.role_io(io::Role::kEdges).bytes_read +
        s.role_io(io::Role::kStay).bytes_read +
        s.role_io(io::Role::kUpdates).bytes_moved());
  }
  return measured > 0.0 ? modelled / measured : 0.0;
}

void add_layer_metrics(MetricSet& m, const metrics::RunStats& rs,
                       const CallResult& call) {
  const auto count = [&](const std::string& name, double v) {
    m.add(name, "count", v);
  };
  const auto secs = [&](const std::string& name, double v) {
    m.add(name, "s", v);
  };
  double scatter = 0.0;
  double gather = 0.0;
  std::uint64_t skipped = 0;
  for (const metrics::IterationMetrics& row : rs.iterations) {
    scatter += row.stats.scatter_seconds;
    gather += row.stats.gather_seconds;
    skipped += row.stats.partitions_skipped;
  }
  count("engine.rounds", static_cast<double>(rs.iterations.size()));
  secs("engine.scatter_s", scatter);
  secs("engine.gather_s", gather);
  secs("engine.unattributed_s", call.seconds - round_seconds(rs));
  // Apply never runs for BFS programs and trim resolution never runs
  // on the untrimmed baseline, so only their counts are reported
  // (a time that is zero by construction measures nothing).
  for (const auto& [phase, name] :
       {std::pair{metrics::Phase::kScatter, "scatter"},
        std::pair{metrics::Phase::kShuffleFlush, "shuffle_flush"},
        std::pair{metrics::Phase::kGather, "gather"},
        std::pair{metrics::Phase::kTrimResolve, "trim_resolve"}}) {
    const metrics::LatencyHistogram h = rs.phase_total(phase);
    if (phase != metrics::Phase::kTrimResolve) {
      secs(std::string("engine.phase.") + name + "_s",
           static_cast<double>(h.sum()) * 1e-9);
    }
    count(std::string("engine.phase.") + name + "_count",
          static_cast<double>(h.count()));
  }
  count("engine.partitions_skipped", static_cast<double>(skipped));
  const double emitted = static_cast<double>(rs.updates_emitted());
  const double sieved = static_cast<double>(rs.updates_sieved());
  count("engine.updates_emitted", emitted);
  count("engine.updates_sieved", sieved);
  // Share of the updates scatter produced that the sieve dropped
  // (emitted counts the ones that reached the shuffle writers).
  m.add("engine.sieve_ratio", "ratio",
        emitted + sieved > 0.0 ? sieved / (emitted + sieved) : 0.0);
  count("engine.edges_scanned", static_cast<double>(rs.edges_scanned()));

  count("core.bottomup_rounds", static_cast<double>(rs.bottomup_rounds()));
  count("core.edges_probed", static_cast<double>(rs.edges_probed()));
  m.add("core.edge_bytes_skipped", "B",
        static_cast<double>(rs.edge_bytes_skipped()));
  m.add("core.direction_model_ratio", "ratio", direction_model_ratio(rs));
  count("core.trims_started", call.totals.trims_started);
  count("core.trims_committed", call.totals.trims_committed);
  count("core.trims_cancelled", call.totals.trims_cancelled);
  count("core.stay_edges_written",
        static_cast<double>(call.totals.stay_edges_written));

  std::array<std::uint64_t, metrics::LatencyHistogram::kNumBuckets> reads{};
  for (std::size_t i = 0; i < io::kNumRoles; ++i) {
    const std::string role = std::string("storage.") + io::to_string(kRoles[i]);
    const io::IoStatsSnapshot& d = call.io[i];
    m.add(role + ".bytes_read", "B", static_cast<double>(d.bytes_read));
    m.add(role + ".bytes_written", "B", static_cast<double>(d.bytes_written));
    count(role + ".read_ops", static_cast<double>(d.read_ops));
    count(role + ".write_ops", static_cast<double>(d.write_ops));
    // The stay device is idle on the untrimmed baseline; its traffic
    // shows in the byte and op counts above.
    if (kRoles[i] != io::Role::kStay) {
      secs(role + ".busy_s", static_cast<double>(d.busy_ns) * 1e-9);
      secs(role + ".model_busy_s", static_cast<double>(d.model_busy_ns) * 1e-9);
    }
    for (std::size_t k = 0; k < reads.size(); ++k) {
      reads[k] += call.read_latency_buckets[i][k];
    }
  }
  m.add("storage.read_latency_us_p50", "us",
        bucket_quantile_ns(reads, 0.50) * 1e-3);
  m.add("storage.read_latency_us_p99", "us",
        bucket_quantile_ns(reads, 0.99) * 1e-3);
  m.add("storage.iowait", "ratio", rs.modelled_iowait());
  const std::array<std::uint64_t, 3> codec = rs.update_codec_bytes();
  m.add("codec.raw_bytes", "B", static_cast<double>(codec[0]));
  m.add("codec.bitmap_bytes", "B", static_cast<double>(codec[1]));
  m.add("codec.varint_bytes", "B", static_cast<double>(codec[2]));

  secs("process.cpu_s", call.cpu_seconds);
  m.add("process.cpu_util", "ratio",
        call.seconds > 0.0 ? call.cpu_seconds / call.seconds : 0.0);
}

/// Span arguments of one engine call: its queries, the per-role device
/// deltas and (traced calls) the RunStats totals.
std::string call_span_args(std::uint64_t first_query,
                           std::span<const VertexId> roots,
                           const CallResult& call,
                           const metrics::RunStats* rs) {
  JsonObject args;
  args.integer("first_query", first_query)
      .integer("queries", roots.size())
      .integer("root", roots[0])
      .boolean("traced", rs != nullptr)
      .boolean("io_error", call.threw)
      .integer("peak_rss_kib", call.peak_rss_kib.value_or(0))
      .number("cpu_s", call.cpu_seconds);
  for (std::size_t i = 0; i < io::kNumRoles; ++i) {
    const io::IoStatsSnapshot& d = call.io[i];
    args.raw(io::to_string(kRoles[i]),
             JsonObject()
                 .integer("bytes_read", d.bytes_read)
                 .integer("bytes_written", d.bytes_written)
                 .integer("read_ops", d.read_ops)
                 .integer("write_ops", d.write_ops)
                 .integer("busy_ns", d.busy_ns)
                 .integer("model_busy_ns", d.model_busy_ns)
                 .str());
  }
  if (rs != nullptr) {
    args.raw("run_stats",
             JsonObject()
                 .integer("rounds", rs->iterations.size())
                 .number("round_seconds", round_seconds(*rs))
                 .integer("edges_scanned", rs->edges_scanned())
                 .integer("updates_emitted", rs->updates_emitted())
                 .integer("updates_sieved", rs->updates_sieved())
                 .integer("bottomup_rounds", rs->bottomup_rounds())
                 .integer("device_bytes_read", rs->device_bytes_read())
                 .integer("device_bytes_written", rs->device_bytes_written())
                 .str());
  }
  return args.str();
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string trace_file;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--trace-file") {
      a.trace_file = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.workdir.empty() ||
      !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return a;
}

void say(const std::string& line) { std::cout << "# " << line << "\n"; }

int run(const Args& args) {
  const auto it = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload& w) { return args.workload == w.name; });
  if (it == workloads().end()) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const Workload& w = *it;
  const Config config = Config::parse_string(std::string(kCommonConfig) + w.config);
  Bench bench;
  bench.workload = &w;
  bench.options = engine::options_from_config(config, w.kind);
  bench.batch = engine::batch_options_from_config(config);
  const std::uint32_t partitions =
      engine::partition_count_from_config(config, w.kind, 8);
  const std::size_t queries_per_call = w.batch ? bench.batch.max_width : 1;

  Tracer tracer(args.trace);
  MetricSet e2e;
  MetricSet layer;
  QueryTally tally;

  // ---- set-up, repeated; the last graph is the one traversed.
  const fs::path graph_dir = fs::path(args.workdir) / "graph";
  Graph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    g = Graph{};
    fs::remove_all(graph_dir);
    const double start = tracer.now_us();
    const SetupTimes t = set_up(config, args.seed, partitions,
                                graph_dir.string(), tracer, g);
    tracer.add({"setup", "setup", start, t.total() * 1e6,
                JsonObject().integer("repeat", i).str()});
    e2e.add("setup_s", "s", t.total());
    layer.add("setup.generate_s", "s", t.generate);
    layer.add("setup.partition_s", "s", t.partition);
    layer.add("setup.transpose_s", "s", t.transpose);
  }
  bench.graph = &g;
  say("workload " + std::string(w.name) + ": " + g.meta.name + " V=" +
      std::to_string(g.meta.num_vertices) + " E=" +
      std::to_string(g.meta.num_edges) + " P=" + std::to_string(partitions) +
      " T=" + std::to_string(bench.options.num_threads) + " engine=" +
      engine::to_string(w.kind) + " queries/call=" +
      std::to_string(queries_per_call));
  for (std::size_t i = 0; i < io::kNumRoles; ++i) {
    const std::string desc = g.devices[i]->backend_description();
    say(std::string("backend ") + io::to_string(kRoles[i]) + ": " + desc);
    if (desc.find("direct") == std::string::npos ||
        desc.find("uring") == std::string::npos) {
      const std::string warning =
          std::string("WARNING: the ") + io::to_string(kRoles[i]) +
          " device fell back to " + desc +
          "; this run measures a different I/O path than O_DIRECT + io_uring";
      say(warning);
      std::cerr << warning << "\n";
    }
  }

  // ---- the in-memory reference graph (not part of setup_s).
  graph::Csr csr;
  {
    const double start = tracer.now_us();
    Stopwatch clock;
    csr = graph::build_csr(*g.setup_edges, g.meta);
    layer.add("inmem.reference_s", "s", clock.seconds());
    tracer.add({"inmem.build_csr", "reference", start, clock.seconds() * 1e6, ""});
  }
  for (VertexId v = 0; v < g.out_degree.size(); ++v) {
    FB_CHECK_EQ(csr.out_degree(v), g.out_degree[v]);
  }

  RootSampler sampler(g.out_degree, derive_seed(args.seed, kRootStream));
  std::uint64_t next_query = 0;
  // The traversal phase's memory: VmHWM over the engine calls (the
  // mark is reset before each, so the reference checks in between do
  // not count) minus the RSS held when the phase starts.
  malloc_trim(0);
  const std::optional<std::uint64_t> phase_rss_kib = rss::status_kib("VmRSS");
  std::optional<std::uint64_t> phase_peak_kib;
  bool rss_available = phase_rss_kib.has_value();
  std::uint64_t traversed = 0;
  double traversal_seconds = 0.0;
  std::vector<double> plain_seconds;
  std::vector<double> inmem_seconds;

  // Runs one call's queries through the engine (and, traced, once more
  // with a Collector) and checks every result against inmem.
  const auto one_call = [&](bool warmup) -> double {
    const std::vector<VertexId> roots = sampler.next(queries_per_call);
    const std::uint64_t first = next_query;
    next_query += roots.size();

    std::vector<CallResult> calls;
    calls.push_back(call_engine(bench, roots, nullptr, tracer));
    tracer.add({warmup ? "warmup" : "engine.call", "engine",
                calls[0].start_us, calls[0].seconds * 1e6,
                call_span_args(first, roots, calls[0], nullptr)});
    if (args.trace && !warmup) {
      metrics::Collector collector;
      calls.push_back(call_engine(bench, roots, &collector, tracer));
      const metrics::RunStats& rs = collector.run_stats();
      tracer.add({"engine.call", "engine", calls[1].start_us,
                  calls[1].seconds * 1e6,
                  call_span_args(first, roots, calls[1], &rs)});
      if (!calls[1].threw) add_layer_metrics(layer, rs, calls[1]);
    }

    const double check_start = tracer.now_us();
    const References refs = reference_states(csr, roots);
    std::uint64_t edges = 0;
    for (std::size_t q = 0; q < roots.size(); ++q) {
      edges += traversed_edges(refs.states[q], g.out_degree);
      inmem_seconds.push_back(refs.seconds[q]);
    }
    for (const CallResult& c : calls) {
      if (c.threw) {
        say("query " + std::to_string(first) + ": IoError: " + c.error);
        tally.count_errors(roots.size());
        continue;
      }
      for (std::size_t q = 0; q < roots.size(); ++q) {
        if (!tally.check(c.per_query[q], refs.states[q])) {
          say("query " + std::to_string(first + q) + " (root " +
              std::to_string(roots[q]) + ") differs from inmem");
        }
      }
    }
    tracer.add({"reference.check", "reference", check_start,
                tracer.now_us() - check_start,
                JsonObject()
                    .integer("first_query", first)
                    .integer("queries", roots.size())
                    .str()});

    const CallResult& plain = calls[0];
    if (plain.peak_rss_kib) {
      phase_peak_kib = std::max(phase_peak_kib.value_or(0), *plain.peak_rss_kib);
    } else {
      rss_available = false;
    }
    if (!warmup && !plain.threw) {
      plain_seconds.push_back(plain.seconds);
      traversed += edges;
      traversal_seconds += plain.seconds;
    }
    return plain.seconds;
  };

  layer.add("setup.warmup_s", "s", one_call(/*warmup=*/true));
  Stopwatch window;
  while (plain_seconds.empty() || window.seconds() < args.seconds) {
    one_call(/*warmup=*/false);
    if (plain_seconds.empty() && tally.failed == tally.attempted) break;
  }

  // ---- report.
  e2e.add("traversal_s_p50", "s", median(plain_seconds));
  e2e.add("teps", "edges/s", teps(traversed, traversal_seconds));
  if (rss_available && phase_peak_kib) {
    e2e.add("peak_rss_mib", "MiB",
            static_cast<double>(*phase_peak_kib - std::min(*phase_peak_kib,
                                                           *phase_rss_kib)) /
                1024.0);
  } else {
    say("peak_rss_mib unavailable: /proc/self/clear_refs refused the "
        "VmHWM reset");
  }
  say("traversal_s_p50 over n=" + std::to_string(plain_seconds.size()) +
      " engine calls (" + std::to_string(plain_seconds.size() * queries_per_call) +
      " queries, " + std::to_string(traversed) + " traversed edges)");
  layer.add("inmem.query_s_p50", "s", median(inmem_seconds));
  if (args.trace) {
    // Tracing overhead, from the traced and untraced engine-call spans.
    std::vector<double> traced_us;
    std::vector<double> plain_us;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.name != "engine.call") continue;
      (s.args_json.find("\"traced\": true") != std::string::npos ? traced_us
                                                                  : plain_us)
          .push_back(s.duration_us);
    }
    layer.add("trace.overhead_s", "s",
              (median(traced_us) - median(plain_us)) * 1e-6);
  }
  for (std::size_t i = 0; i < io::kNumRoles; ++i) {
    const metrics::LatencyHistogram h = g.devices[i]->read_latency();
    say(std::string("read latency ") + io::to_string(kRoles[i]) + ": n=" +
        std::to_string(h.count()) + " p50=" +
        format_number(static_cast<double>(h.percentile(0.5)) * 1e-3) +
        "us p99=" +
        format_number(static_cast<double>(h.percentile(0.99)) * 1e-3) + "us");
  }

  const MetricSet& reported = args.trace ? layer : e2e;
  const std::optional<std::string> bad = reported.invalid_name();
  if (bad) say("invalid metric name " + *bad);
  for (const MetricSet::Entry& e : reported.entries()) {
    say(e.name + " = " + format_number(e.value) + " " + e.unit + " (median of " +
        std::to_string(e.samples) + ")");
  }
  if (args.trace && !args.trace_file.empty()) {
    std::ofstream(args.trace_file) << tracer.to_json();
    say("trace written to " + args.trace_file);
  }

  g = Graph{};
  fs::remove_all(graph_dir);
  std::cout << JsonObject()
                   .boolean("correct", tally.failed == 0 && !bad)
                   .integer("attempted", tally.attempted)
                   .integer("failed", tally.failed)
                   .raw("metrics", reported.to_json())
                   .str()
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: " << argv[0]
              << " --workload NAME --seed N --seconds S --trace 0|1"
                 " --workdir DIR [--trace-file FILE]\n";
    return 2;
  }
  return perfbench::run(*args);
}
