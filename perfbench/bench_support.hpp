// Helpers of the end-to-end traversal benchmark that carry no engine
// dependency, so the benchmark's own tests can pin them on hand-built
// inputs: the Graph500 root sample, traversed-edge counting and TEPS,
// the reference check, metric naming, the process memory probe, the
// span recorder and the JSON emitters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "graph/program.hpp"

namespace perfbench {

using fbfs::graph::BfsProgram;
using fbfs::graph::VertexId;

/// Mixes the benchmark seed with a stream tag, so the generator and the
/// root sample draw from unrelated streams of one `--seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Graph500 search keys: roots drawn uniformly, with replacement, from
/// the vertices whose out-degree is at least 1. The same (degrees,
/// seed) pair always yields the same sequence.
class RootSampler {
 public:
  RootSampler(std::span<const std::uint32_t> out_degree, std::uint64_t seed);

  VertexId next();
  std::vector<VertexId> next(std::size_t count);
  std::size_t eligible() const { return eligible_.size(); }

 private:
  std::vector<VertexId> eligible_;
  fbfs::Rng rng_;
};

/// Graph500 traversed edges of one query: the out-edges of every vertex
/// the reference run reached.
std::uint64_t traversed_edges(std::span<const BfsProgram::State> reference,
                              std::span<const std::uint32_t> out_degree);

/// Traversed edges per second; 0 when no time was measured.
double teps(std::uint64_t traversed, double seconds);

/// Byte-for-byte equality of an engine's states with the reference.
bool states_match(std::span<const BfsProgram::State> got,
                  std::span<const BfsProgram::State> want);

/// Queries attempted and failed over a run. A query fails when its
/// engine call threw or its states differ from the reference.
struct QueryTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one query and returns whether it passed.
  bool check(std::span<const BfsProgram::State> got,
             std::span<const BfsProgram::State> want);
  void count_errors(std::uint64_t queries) {
    attempted += queries;
    failed += queries;
  }
};

/// Metric names are made of [A-Za-z0-9_.-], start with a letter or a
/// digit and are at most 64 characters long.
bool valid_metric_name(std::string_view name);

/// Quantile p of a log2-bucketed latency histogram given as bucket
/// counts (bucket b spans [2^(b-1), 2^b) ns, bucket 0 holds 0),
/// interpolated linearly by rank inside the bucket that holds it. 0 for
/// an empty histogram.
double bucket_quantile_ns(std::span<const std::uint64_t> buckets, double p);

/// Median of the samples (mean of the middle two for an even count);
/// 0 for none.
double median(std::vector<double> samples);

/// Process memory from /proc/self: the VmHWM peak mark and its reset.
namespace rss {
/// Resets VmHWM to the current RSS by writing "5" to
/// /proc/self/clear_refs. False when the kernel refuses.
bool reset_peak();
/// A "Vm*:" field of /proc/self/status in KiB, e.g. "VmRSS".
std::optional<std::uint64_t> status_kib(std::string_view field);
}  // namespace rss

/// Seconds of CPU (user + system) the process has used so far.
double process_cpu_seconds();

/// Spans recorded at the benchmark's own call boundaries, written out
/// as Chrome trace-event JSON (chrome://tracing, Perfetto). A disabled
/// recorder keeps nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string category;
    double start_us = 0.0;
    double duration_us = 0.0;
    std::string args_json;  // a JSON object, or empty
  };

  explicit Tracer(bool enabled);

  /// Microseconds since the recorder was made.
  double now_us() const;
  void add(Span span);
  const std::vector<Span>& spans() const { return spans_; }

  /// {"traceEvents": [...]} with one complete ("X") event per span.
  std::string to_json() const;

 private:
  bool enabled_;
  double origin_ns_;
  std::vector<Span> spans_;
};

/// Builds one flat JSON object: {"k": v, ...}. Numbers keep all their
/// digits (%.17g).
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& string(std::string_view key, std::string_view value);
  /// `json` must already be valid JSON.
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

std::string json_quote(std::string_view text);
std::string format_number(double value);

/// Metric samples keyed by name, reported as the median of each name's
/// samples, in first-recorded order.
class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  /// Checks every name (valid_metric_name); the first bad one, if any.
  std::optional<std::string> invalid_name() const;

  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;  // median of the samples
    std::size_t samples = 0;
  };
  std::vector<Entry> entries() const;

  /// {"name": {"value": v, "unit": u}, ...}
  std::string to_json() const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };
  std::vector<Series> series_;
};

}  // namespace perfbench
