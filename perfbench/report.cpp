#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "mrs/common/stats.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

/// Shortest decimal that reads back as exactly `v`.
std::string exact(double v) {
  char buf[32];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name '" + name + "'");
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const auto& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("duplicate metric " + name);
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + exact(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

std::optional<TailPercentile> tail_percentile(
    const std::vector<double>& samples, std::size_t min_beyond) {
  // Quantiles in per-mille so the count above each is exact integer
  // arithmetic: floor(n * (1 - q)).
  static constexpr std::size_t kPerMille[] = {999, 990, 900, 500};
  const std::size_t n = samples.size();
  for (std::size_t pm : kPerMille) {
    const std::size_t beyond = n * (1000 - pm) / 1000;
    if (beyond >= min_beyond && beyond > 0) {
      const double q = static_cast<double>(pm) / 1000.0;
      return TailPercentile{q, mrs::percentile(samples, q), n, beyond};
    }
  }
  return std::nullopt;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  return mrs::percentile(v, 0.5);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double self_time(const std::vector<Span>& spans, std::size_t index) {
  const Span& s = spans.at(index);
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans) {
    if (c.parent == static_cast<int>(index)) {
      const double lo = std::max(c.start, s.start);
      const double hi = std::min(c.end, s.end);
      if (hi > lo) kids.emplace_back(lo, hi);
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = s.start;  // children cover [s.start, reach) so far
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return (s.end - s.start) - covered;
}

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(steady_ns()) {}

double SpanRecorder::now() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

std::size_t SpanRecorder::open(const std::string& name) {
  const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
  spans_.push_back({name, now(), 0.0, parent});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanRecorder::close(std::size_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  stack_.pop_back();
  spans_[id].end = now();
  return spans_[id].end - spans_[id].start;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"parent\": " << s.parent << ", \"start_s\": " << exact(s.start)
        << ", \"end_s\": " << exact(s.end)
        << ", \"dur_s\": " << exact(s.end - s.start)
        << ", \"self_s\": " << exact(self_time(spans_, i)) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

}  // namespace perfbench
