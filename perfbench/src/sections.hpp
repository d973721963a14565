// sections.hpp -- the three benchmark sections.  Every run sets all three up
// and measures all three, their rounds interleaved; the workload only decides
// how the measuring time is shared between them (main.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dynamic/incremental_solver.hpp"
#include "harness.hpp"
#include "lp/instance.hpp"

namespace perfbench {

// Per-update counters of every IncrementalSolver::apply a traced run makes
// (the resolver mirror of general_lp and the tenant mirrors of serve_churn).
struct DynamicTally {
  std::int64_t applies = 0;
  std::int64_t agents_dirty = 0;
  std::int64_t region_nodes = 0;
  std::int64_t classes_invalidated = 0;
  std::int64_t class_cache_hits = 0;
  std::int64_t evals = 0;
  std::int64_t warm_t_reused = 0;
  std::int64_t cone_t_recomputed = 0;

  void add(const locmm::IncrementalSolver::UpdateStats& u) {
    ++applies;
    agents_dirty += u.agents_dirty;
    region_nodes += u.region_nodes;
    classes_invalidated += u.classes_invalidated;
    class_cache_hits += u.class_cache_hits;
    evals += u.evals;
    warm_t_reused += u.warm_t_reused;
    cone_t_recomputed += u.cone_t_recomputed;
  }
};

class Section {
 public:
  virtual ~Section() = default;
  // One untraced round of the section's operations, each timed.
  virtual void round() = 0;
  // Rounds every run makes at least (enough samples for its percentiles).
  virtual int min_rounds() const = 0;
  // Total time of the operations timed by round() so far, ms.
  virtual double op_ms() const = 0;
  // Traced runs: called once before the untraced rounds (mirrors that
  // must see every operation are built here), then traced_round() repeats
  // round()'s operations with every call into a layer wrapped in a span.
  virtual void start_trace() {}
  virtual void traced_round(Tracer& tracer, DynamicTally& tally) = 0;
  // Root span names of traced_round(), one per operation of round().
  virtual std::vector<const char*> root_spans() const = 0;
  // Correctness checks, then the section's metrics: end-to-end ones after
  // round()s, per-layer ones (read from `tracer`) after traced_round()s.
  virtual void finish(const Tracer* tracer) = 0;
};

// Sections read the host-speed factor of the current round from `host`.
std::unique_ptr<Section> make_general_lp(std::uint64_t seed, Report& report,
                                         const HostSpeed& host);
std::unique_ptr<Section> make_serve_churn(std::uint64_t seed, Report& report,
                                          const HostSpeed& host);
std::unique_ptr<Section> make_distributed(std::uint64_t seed, Report& report,
                                          const HostSpeed& host);

// A natively special cycle wheel (layered_instance, width 1, 2 agents per
// layer) of `agents` agents with seeded constraint coefficients in
// [0.5, 2].
locmm::MaxMinInstance seeded_wheel(std::int32_t agents, std::uint64_t seed);

}  // namespace perfbench
