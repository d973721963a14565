#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Samples::quantile(double p) const {
  return perfbench::quantile(corrected, p);
}
double Samples::raw_quantile(double p) const {
  return perfbench::quantile(raw, p);
}

HostSpeed::HostSpeed() : table_(std::size_t{1} << 19, 0) {
  run_kernel();  // warm-up: the first pass runs on cold caches
}

void HostSpeed::sample() { ms_.push_back(run_kernel()); }

double HostSpeed::run_kernel() {
  const auto t0 = Clock::now();
  std::uint64_t x[8];
  for (int j = 0; j < 8; ++j) x[j] = 0x9e3779b97f4a7c15ULL + j;
  for (int i = 0; i < (1 << 19); ++i) {
    for (std::uint64_t& v : x) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
  }
  std::uint64_t y = x[0] ^ x[7];
  const std::size_t mask = table_.size() - 1;
  for (int i = 0; i < (1 << 20); ++i) {
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    table_[y & mask] += y;
  }
  const double ms = ms_since(t0);
  sink_ += table_[x[3] & mask];
  return ms;
}

double HostSpeed::factor_now() const {
  const std::size_t n = ms_.size();
  if (n < 3) return kNominalMs / ms_.back();
  return kNominalMs / median({ms_[n - 1], ms_[n - 2], ms_[n - 3]});
}

int Tracer::begin(const char* name) {
  SpanRecord r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request_;
  r.start_ms = ms_since(origin_);
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = ms_since(origin_);
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  return out;
}

std::vector<double> Tracer::per_request(const std::string& name) const {
  std::map<std::int64_t, double> sums;
  for (const SpanRecord& s : spans_)
    if (s.name == name) sums[s.request] += s.end_ms - s.start_ms;
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [req, ms] : sums) out.push_back(ms);
  return out;
}

const Tracer::Accum& Tracer::accum(const std::string& name) const {
  static const Accum kEmpty;
  const auto it = accum_.find(name);
  return it == accum_.end() ? kEmpty : it->second;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.4f, "
                  "\"end_ms\": %.4f, \"parent\": %d, \"request\": %lld}",
                  i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                  static_cast<long long>(s.request));
    out << "  " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"accumulators\": {";
  bool first = true;
  for (const auto& [name, a] : accum_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"ms\": " << a.ms
        << ", \"count\": " << a.count << "}";
    first = false;
  }
  out << "}}\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, Kind kind, double raw) {
  metrics_.push_back({name, Metric{value, unit, kind, raw}});
}

void Report::failed_op(const std::string& what) {
  ++failed_;
  std::printf("failed operation: %s\n", what.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::print(double factor, double ref_median_ms) const {
  std::printf("host speed: reference %.4f ms (nominal %.4f ms), factor %.5f\n",
              ref_median_ms, HostSpeed::kNominalMs, factor);
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    double v = m.value;
    double raw = m.value;
    if (m.kind == Kind::kTime) v *= factor;
    if (m.kind == Kind::kCorrected) raw = m.raw;
    static const char* const kNote[] = {"", "  (run's median factor)",
                                        "  (per-sample factor)"};
    std::printf("metric %-34s %14.6g %-6s raw %14.6g%s\n", name.c_str(), v,
                m.unit.c_str(), raw, kNote[static_cast<int>(m.kind)]);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_histogram(const std::string& name, const std::vector<double>& ms) {
  if (ms.empty()) return;
  // Buckets of width 2^(1/4): fine enough to show separate modes.
  std::map<int, int> buckets;
  for (const double v : ms)
    ++buckets[static_cast<int>(std::floor(4.0 * std::log2(std::max(v, 1e-6))))];
  std::printf("histogram %s (n=%zu, ms lower bound:count):", name.c_str(),
              ms.size());
  for (const auto& [b, c] : buckets)
    std::printf(" %.3g:%d", std::exp2(b / 4.0), c);
  std::printf("\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
