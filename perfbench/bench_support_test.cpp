// The benchmark's own tests: TEPS on a hand-built graph, the seeded
// root sample, metric names, the reference check, the latency quantile
// and the peak-RSS probe. Plain asserts that stay on in every build;
// exit code 0 means every check passed.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "graph/csr.hpp"
#include "inmem/engine.hpp"

namespace {

using namespace perfbench;  // NOLINT(build/namespaces)
using fbfs::graph::Edge;

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

// 0 -> 1 -> 3 -> 1, 0 -> 2, and 4 -> 0 out of reach of root 0.
const std::vector<Edge> kEdges = {{0, 1}, {0, 2}, {1, 3}, {3, 1}, {4, 0}};
const std::vector<std::uint32_t> kOutDegree = {2, 1, 0, 1, 1};

std::vector<BfsProgram::State> reference_from(VertexId root) {
  const fbfs::graph::Csr csr(kOutDegree.size(), kEdges);
  return fbfs::inmem::run(csr, BfsProgram{.root = root}).states;
}

void traversed_edges_and_teps_on_a_hand_built_graph() {
  // Root 0 reaches {0, 1, 2, 3}: out-degrees 2 + 1 + 0 + 1.
  EXPECT(traversed_edges(reference_from(0), kOutDegree) == 4);
  // Root 4 reaches everything: all five edges.
  EXPECT(traversed_edges(reference_from(4), kOutDegree) == 5);
  // Root 2 has no out-edge and reaches only itself.
  EXPECT(traversed_edges(reference_from(2), kOutDegree) == 0);
  EXPECT(teps(4, 0.5) == 8.0);
  EXPECT(teps(4, 0.0) == 0.0);
}

void root_sample_is_seeded_and_skips_sinks() {
  const std::vector<std::uint32_t> degrees = {3, 0, 1, 0, 7, 2, 0, 1};
  const std::set<VertexId> eligible = {0, 2, 4, 5, 7};
  RootSampler a(degrees, 42);
  RootSampler b(degrees, 42);
  RootSampler c(degrees, 43);
  EXPECT(a.eligible() == eligible.size());
  const std::vector<VertexId> first = a.next(64);
  EXPECT(first == b.next(64));
  EXPECT(first != c.next(64));
  std::set<VertexId> seen(first.begin(), first.end());
  EXPECT(seen == eligible);  // 64 uniform draws over 5 keys hit each
  EXPECT(derive_seed(1, 1) != derive_seed(1, 2));
  EXPECT(derive_seed(1, 1) != derive_seed(2, 1));
  EXPECT(derive_seed(7, 3) == derive_seed(7, 3));
}

void metric_names_are_checked() {
  for (const char* ok : {"teps", "setup_s", "traversal_s_p50",
                         "storage.edges.bytes_read", "engine.phase.gather_s",
                         "codec.raw_bytes", "9lives", "a-b"}) {
    EXPECT(valid_metric_name(ok));
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "a/b", "a:b",
                          "quote\""}) {
    EXPECT(!valid_metric_name(bad));
  }
  EXPECT(valid_metric_name(std::string(64, 'm')));
  EXPECT(!valid_metric_name(std::string(65, 'm')));

  MetricSet set;
  set.add("engine.rounds", "count", 3);
  set.add("engine.rounds", "count", 1);
  set.add("engine.rounds", "count", 2);
  EXPECT(!set.invalid_name());
  EXPECT(set.entries().size() == 1 && set.entries()[0].value == 2.0 &&
         set.entries()[0].samples == 3);
  EXPECT(set.to_json() ==
         "{\"engine.rounds\": {\"value\": 2, \"unit\": \"count\"}}");
  set.add("bad name", "s", 1.0);
  EXPECT(set.invalid_name() == std::optional<std::string>("bad name"));
}

void a_reference_mismatch_counts_as_a_failure() {
  const std::vector<BfsProgram::State> want = reference_from(0);
  QueryTally tally;
  EXPECT(tally.check(want, want));
  std::vector<BfsProgram::State> wrong = want;
  wrong[3].level += 1;
  EXPECT(!tally.check(wrong, want));
  const std::vector<BfsProgram::State> short_result(want.begin(),
                                                    want.end() - 1);
  EXPECT(!tally.check(short_result, want));
  EXPECT(tally.attempted == 3 && tally.failed == 2);
  tally.count_errors(64);  // a batch whose engine call threw
  EXPECT(tally.attempted == 67 && tally.failed == 66);
}

void latency_quantiles_interpolate_inside_a_bucket() {
  std::vector<std::uint64_t> buckets(65, 0);
  EXPECT(bucket_quantile_ns(buckets, 0.5) == 0.0);
  buckets[11] = 4;  // four samples in [1024, 2048) ns
  EXPECT(bucket_quantile_ns(buckets, 0.5) == 1024.0 + 512.0);
  EXPECT(bucket_quantile_ns(buckets, 1.0) == 2048.0);
  buckets[21] = 4;  // four more in [2^20, 2^21)
  EXPECT(bucket_quantile_ns(buckets, 0.25) == 1024.0 + 512.0);
  EXPECT(bucket_quantile_ns(buckets, 0.99) > 1048576.0);
  EXPECT(median({3.0, 1.0, 2.0, 10.0}) == 2.5);
}

void peak_rss_reset_tracks_new_allocations() {
  if (!rss::reset_peak()) {
    std::puts("skip: /proc/self/clear_refs refused the VmHWM reset");
    return;
  }
  const auto before = rss::status_kib("VmRSS");
  {
    std::vector<char> block(64 << 20, 1);  // touched 64 MiB
    EXPECT(block.back() == 1);
  }
  const auto peak = rss::status_kib("VmHWM");
  EXPECT(before.has_value() && peak.has_value() &&
         *peak >= *before + 60 * 1024);
  // The reset lowers the mark to the current RSS.
  EXPECT(rss::reset_peak());
  const auto hwm = rss::status_kib("VmHWM");
  const auto now = rss::status_kib("VmRSS");
  EXPECT(hwm.has_value() && now.has_value() && *hwm <= *now + 1024);
}

void trace_events_are_complete_spans() {
  Tracer off(false);
  off.add({"x", "y", 0.0, 1.0, ""});
  EXPECT(off.spans().empty());
  Tracer on(true);
  on.add({"engine.call", "engine", 1.5, 2.25,
          JsonObject().integer("first_query", 7).str()});
  const std::string json = on.to_json();
  EXPECT(json.find("\"traceEvents\"") != std::string::npos);
  EXPECT(json.find("\"ph\": \"X\"") != std::string::npos);
  EXPECT(json.find("\"args\": {\"first_query\": 7}") != std::string::npos);
  EXPECT(json_quote("a\"b\n") == "\"a\\\"b\\u000a\"");
}

}  // namespace

int main() {
  traversed_edges_and_teps_on_a_hand_built_graph();
  root_sample_is_seeded_and_skips_sinks();
  metric_names_are_checked();
  a_reference_mismatch_counts_as_a_failure();
  latency_quantiles_interpolate_inside_a_bucket();
  peak_rss_reset_tracks_new_allocations();
  trace_events_are_complete_spans();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("all perfbench support checks passed");
  return EXIT_SUCCESS;
}
