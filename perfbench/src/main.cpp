// perfbench -- end-to-end benchmark of locmm (see ../README.md).
//
//   perfbench --workload <general_lp|serve_churn|distributed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every run sets up and measures all three sections, so every run reports
// every metric; the workload gives its own section 40% of the measuring time
// and each other section 30%.  The last line of stdout is the result object.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sections.hpp"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"general_lp", "serve_churn",
                                      "distributed"};
constexpr double kOwnShare = 0.4;
constexpr double kOtherShare = 0.3;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <general_lp|serve_churn|"
               "distributed> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

void dynamic_metrics(Report& report, const DynamicTally& d) {
  const double n = d.applies > 0 ? static_cast<double>(d.applies) : 1.0;
  auto per_edit = [&](const char* name, std::int64_t v) {
    report.metric(name, static_cast<double>(v) / n, "count");
  };
  per_edit("dynamic.agents_dirty", d.agents_dirty);
  per_edit("dynamic.region_nodes", d.region_nodes);
  per_edit("dynamic.classes_invalidated", d.classes_invalidated);
  per_edit("dynamic.class_cache_hits", d.class_cache_hits);
  per_edit("dynamic.evals", d.evals);
  per_edit("dynamic.warm_t_reused", d.warm_t_reused);
  per_edit("dynamic.cone_t_recomputed", d.cone_t_recomputed);
}

// Runs rounds of the sections, one at a time and interleaved, until `seconds`
// have passed and every section has made its minimum number of rounds.  The
// next round goes to the section furthest below its share of the time, so
// every section's samples spread over the whole run and a burst of host
// slowness hits all of them alike.  Returns the rounds run per section.
template <typename Fn>
std::vector<int> schedule(std::vector<std::unique_ptr<Section>>& sections,
                          int own, double seconds, HostSpeed& host, Fn body) {
  const std::size_t n = sections.size();
  std::vector<int> rounds(n, 0);
  std::vector<double> spent(n, 0.0);
  const auto t0 = Clock::now();
  for (;;) {
    bool short_of_min = false;
    for (std::size_t s = 0; s < n; ++s)
      short_of_min = short_of_min || rounds[s] < sections[s]->min_rounds();
    if (!short_of_min && ms_since(t0) >= 1e3 * seconds) break;
    std::size_t next = n;
    double lag = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (short_of_min && rounds[s] >= sections[s]->min_rounds() &&
          ms_since(t0) >= 1e3 * seconds)
        continue;
      const double share =
          static_cast<int>(s) == own ? kOwnShare : kOtherShare;
      if (next == n || spent[s] / share < lag) {
        next = s;
        lag = spent[s] / share;
      }
    }
    host.sample();
    const auto a = Clock::now();
    body(*sections[next]);
    spent[next] += ms_since(a);
    ++rounds[next];
  }
  return rounds;
}

int run(int argc, char** argv) {
  const auto start = Clock::now();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else return usage();
  }
  int own = -1;
  for (int w = 0; w < 3; ++w)
    if (workload == kWorkloads[w]) own = w;
  if (own < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();

  HostSpeed host;
  host.sample();
  Report report;
  std::vector<std::unique_ptr<Section>> sections;
  sections.push_back(make_general_lp(seed, report, host));
  sections.push_back(make_serve_churn(seed, report, host));
  sections.push_back(make_distributed(seed, report, host));
  const double setup_s = ms_since(start) / 1e3;
  host.sample();
  const double setup_factor = (host.factor_of(0) + host.factor_of(1)) / 2;

  Tracer tracer;
  DynamicTally tally;
  double untraced_ms = 0.0, traced_ms = 0.0;
  if (trace == 0) {
    schedule(sections, own, seconds, host, [](Section& s) { s.round(); });
  } else {
    // Half the time untraced, then the same rounds again traced.
    for (auto& s : sections) s->start_trace();
    const std::vector<int> rounds = schedule(
        sections, own, seconds / 2, host, [](Section& s) { s.round(); });
    for (auto& s : sections) untraced_ms += s->op_ms();
    for (std::size_t s = 0; s < sections.size(); ++s) {
      for (int r = 0; r < rounds[s]; ++r) {
        host.sample();
        sections[s]->traced_round(tracer, tally);
      }
      for (const char* root : sections[s]->root_spans())
        for (const double ms : tracer.durations(root)) traced_ms += ms;
    }
  }
  const double measured_s = ms_since(start) / 1e3 - setup_s;
  for (auto& s : sections) s->finish(trace == 1 ? &tracer : nullptr);
  std::printf("phases: setup %.2f s, measuring %.2f s, checks %.2f s\n",
              setup_s, measured_s, ms_since(start) / 1e3 - setup_s - measured_s);

  if (trace == 0) {
    report.metric("setup_s", setup_s * setup_factor, "s",
                  Report::Kind::kCorrected, setup_s);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    dynamic_metrics(report, tally);
    report.metric("support.ref_kernel_ms", host.median_ms(), "ms");
    report.metric("support.traced_wall_ratio",
                  traced_ms / untraced_ms, "ratio");
    std::printf("tracing overhead: traced %.1f ms vs untraced %.1f ms for the "
                "same operations\n",
                traced_ms, untraced_ms);
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace_" + workload + "_" +
                             std::to_string(seed) + ".json";
    tracer.write_json(path);
    std::printf("spans written to %s\n", path.c_str());
  }
  report.print(host.factor(), host.median_ms());
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
