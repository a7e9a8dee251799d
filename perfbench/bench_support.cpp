#include "bench_support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ull);
  return fbfs::splitmix64_next(state);
}

RootSampler::RootSampler(std::span<const std::uint32_t> out_degree,
                         std::uint64_t seed)
    : rng_(seed) {
  for (VertexId v = 0; v < out_degree.size(); ++v) {
    if (out_degree[v] >= 1) eligible_.push_back(v);
  }
}

VertexId RootSampler::next() {
  return eligible_[rng_.next_below(eligible_.size())];
}

std::vector<VertexId> RootSampler::next(std::size_t count) {
  std::vector<VertexId> roots(count);
  for (VertexId& root : roots) root = next();
  return roots;
}

std::uint64_t traversed_edges(std::span<const BfsProgram::State> reference,
                              std::span<const std::uint32_t> out_degree) {
  std::uint64_t edges = 0;
  for (std::size_t v = 0; v < reference.size(); ++v) {
    if (reference[v].level != fbfs::graph::kUnreachedLevel) {
      edges += out_degree[v];
    }
  }
  return edges;
}

double teps(std::uint64_t traversed, double seconds) {
  return seconds > 0.0 ? static_cast<double>(traversed) / seconds : 0.0;
}

bool states_match(std::span<const BfsProgram::State> got,
                  std::span<const BfsProgram::State> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(),
                     got.size() * sizeof(BfsProgram::State)) == 0;
}

bool QueryTally::check(std::span<const BfsProgram::State> got,
                       std::span<const BfsProgram::State> want) {
  ++attempted;
  const bool ok = states_match(got, want);
  if (!ok) ++failed;
  return ok;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double bucket_quantile_ns(std::span<const std::uint64_t> buckets, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double next = seen + static_cast<double>(buckets[b]);
    if (next >= rank) {
      if (b == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo + lo * (rank - seen) / static_cast<double>(buckets[b]);
    }
    seen = next;
  }
  return 0.0;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : (samples[mid - 1] + samples[mid]) / 2.0;
}

namespace rss {

bool reset_peak() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::optional<std::uint64_t> status_kib(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      std::uint64_t kib = 0;
      if (std::sscanf(line.c_str() + field.size() + 1, " %" SCNu64, &kib) ==
          1) {
        return kib;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace rss

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(steady_ns()) {}

double Tracer::now_us() const { return (steady_ns() - origin_ns_) / 1e3; }

void Tracer::add(Span span) {
  if (enabled_) spans_.push_back(std::move(span));
}

std::string Tracer::to_json() const {
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject event;
    event.string("name", s.name)
        .string("cat", s.category)
        .string("ph", "X")
        .number("ts", s.start_us)
        .number("dur", s.duration_us)
        .integer("pid", 1)
        .integer("tid", 1);
    if (!s.args_json.empty()) event.raw("args", s.args_json);
    out += (i == 0 ? "\n" : ",\n") + event.str();
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_quote(key) + ": ";
}

JsonObject& JsonObject::number(std::string_view k, double value) {
  key(k);
  body_ += format_number(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::string(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_quote(value);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

void MetricSet::add(const std::string& name, const std::string& unit,
                    double value) {
  for (Series& s : series_) {
    if (s.name == name) {
      s.samples.push_back(value);
      return;
    }
  }
  series_.push_back({name, unit, {value}});
}

std::optional<std::string> MetricSet::invalid_name() const {
  for (const Series& s : series_) {
    if (!valid_metric_name(s.name)) return s.name;
  }
  return std::nullopt;
}

std::vector<MetricSet::Entry> MetricSet::entries() const {
  std::vector<Entry> out;
  for (const Series& s : series_) {
    out.push_back({s.name, s.unit, median(s.samples), s.samples.size()});
  }
  return out;
}

std::string MetricSet::to_json() const {
  JsonObject metrics;
  for (const Entry& e : entries()) {
    metrics.raw(e.name,
                JsonObject().number("value", e.value).string("unit", e.unit).str());
  }
  return metrics.str();
}

}  // namespace perfbench
