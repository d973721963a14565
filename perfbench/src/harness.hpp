// harness.hpp -- timing, host-speed correction, tracing and reporting shared
// by the three benchmark sections.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

// Nearest-rank quantile (p in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Bitwise equality of two solution vectors.
inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Host speed drifts by ~10% between processes and by up to ~1.7x within one,
// in bursts of a few seconds.  The bursts slow throughput-bound and
// cache-bound work (a busy neighbour sharing the physical core) far more
// than a single dependent register chain, so the fixed reference kernel is
// eight independent register-only xorshift chains plus random
// read-modify-writes over a 4 MB table.  Over 200 interleaved samples its
// log time correlates 0.75-0.8 with the general_lp solve set's (a single
// xorshift chain: 0.3).  It is sampled before every round.  Each timed
// sample is scaled by kNominalMs / (the reference time around its round:
// factor_now()), so a burst slows a sample and its reference alike.  The
// set-up time is scaled by the mean factor of the samples taken just before
// and just after it; per-layer times by kNominalMs / (median reference time
// of the run).
class HostSpeed {
 public:
  // Median reference time on the machine the benchmark was calibrated on
  // (4-vCPU VM, Release build).  A constant, so corrected figures stay
  // comparable across commits and runs.
  static constexpr double kNominalMs = 6.4;

  HostSpeed();
  void sample();
  double median_ms() const { return median(ms_); }
  double factor() const { return kNominalMs / median_ms(); }
  // The factor of the latest samples: the median of the last three, which
  // follows a burst within about a second but damps the kernel's own jitter.
  double factor_now() const;
  // The factor of sample `i` alone.
  double factor_of(std::size_t i) const { return kNominalMs / ms_[i]; }

 private:
  double run_kernel();

  std::vector<std::uint64_t> table_;
  std::vector<double> ms_;
  std::uint64_t sink_ = 0;
};

// Timings of one kind of operation: raw, and each scaled by the host-speed
// factor of its round.
struct Samples {
  std::vector<double> raw, corrected;
  void add(double ms, double factor) {
    raw.push_back(ms);
    corrected.push_back(ms * factor);
  }
  double quantile(double p) const;  // of the corrected samples
  double raw_quantile(double p) const;
  std::size_t size() const { return raw.size(); }
};

// In-memory trace: spans with parents (one request id per operation) plus
// accumulators for boundaries crossed too often to keep one span each.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::int64_t request = 0;
  };
  struct Accum {
    double ms = 0.0;
    std::int64_t count = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  int begin(const char* name);
  void end(int span);
  void new_request() { ++request_; }
  void accumulate(const std::string& name, double ms) {
    Accum& a = accum_[name];
    a.ms += ms;
    ++a.count;
  }

  // Durations of every span called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;
  // Summed durations of the spans called `name`, one value per request
  // that has any.
  std::vector<double> per_request(const std::string& name) const;
  const Accum& accum(const std::string& name) const;

  // Writes every span and accumulator as JSON (inside the checkout).
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::int64_t request_ = 0;
  std::map<std::string, Accum> accum_;
};

// RAII span.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// Metrics, operation counts and correctness findings of one run.
class Report {
 public:
  enum class Kind { kPlain, kTime, kCorrected };

  // kPlain values (counts, bytes, memory) are printed as given.  kTime
  // values are multiplied by the run's median host-speed factor when
  // printed.  kCorrected values were corrected per sample already; `raw` is
  // printed beside them.
  void metric(const std::string& name, double value, const std::string& unit,
              Kind kind = Kind::kPlain, double raw = 0.0);
  void attempted(std::int64_t n = 1) { attempted_ += n; }
  void failed_op(const std::string& what);
  // Records a failed correctness check; the run then reports correct=false.
  void check(bool ok, const std::string& what);

  // Prints the raw values and the correction, then the result line.
  void print(double factor, double ref_median_ms) const;
  bool correct() const { return failures_.empty(); }

 private:
  struct Metric {
    double value;
    std::string unit;
    Kind kind;
    double raw;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Prints a one-line histogram (quarter-octave buckets) of host-corrected
// latencies `ms`.
void print_histogram(const std::string& name, const std::vector<double>& ms);

// Peak resident memory of this process, MB.
double peak_rss_mb();

}  // namespace perfbench
