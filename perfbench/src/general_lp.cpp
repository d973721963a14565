// general_lp -- solve_local (engine C) on general max-min LPs that need the
// whole §4 pipeline, each solve run at 1 and at 2 threads, plus a
// LocalResolver stream of link-quality coefficient edits to the sensor
// field (paper §1.3).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/g_recursion.hpp"
#include "core/smoothing.hpp"
#include "core/solver_api.hpp"
#include "core/special_form.hpp"
#include "core/upper_bound.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "lp/maxmin_solver.hpp"
#include "sections.hpp"
#include "support/prng.hpp"
#include "transform/transform.hpp"

namespace perfbench {
namespace {

using namespace locmm;

constexpr std::int32_t kR = 3;
// 1000 sensors give ~1300 agents: the largest sensor field the dense simplex
// certifies in a few seconds, so every run checks the ratio against omega*.
constexpr std::int32_t kSensors = 1000;
constexpr std::int32_t kSinks = 333;
constexpr std::int32_t kRandomAgents = 2500;
constexpr std::int32_t kTorusSide = 32;
constexpr int kEditsPerRound = 20;
// 16 rounds = 320 edits, well over ten samples beyond p90.
constexpr int kMinRounds = 16;

struct Input {
  const char* name;
  MaxMinInstance inst;
  std::vector<double> x;  // first 1-thread solve; every later solve must match
  double guarantee = 0.0;
};

struct Evaluation {
  double max_row = 0.0;
  double min_x = 0.0;
  double omega = 0.0;
};

// Ax, x >= 0 and omega recomputed from the instance rows, apart from the
// solver.
Evaluation evaluate(const MaxMinInstance& inst, const std::vector<double>& x) {
  Evaluation e;
  e.min_x = x.empty() ? 0.0 : *std::min_element(x.begin(), x.end());
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i) {
    double s = 0.0;
    for (const Entry& en : inst.constraint_row(i))
      s += en.coeff * x[static_cast<std::size_t>(en.agent)];
    e.max_row = std::max(e.max_row, s);
  }
  e.omega = std::numeric_limits<double>::infinity();
  for (ObjectiveId k = 0; k < inst.num_objectives(); ++k) {
    double s = 0.0;
    for (const Entry& en : inst.objective_row(k))
      s += en.coeff * x[static_cast<std::size_t>(en.agent)];
    e.omega = std::min(e.omega, s);
  }
  return e;
}

bool feasible(const MaxMinInstance& inst, const std::vector<double>& x,
              Evaluation* out) {
  if (x.size() != static_cast<std::size_t>(inst.num_agents())) return false;
  *out = evaluate(inst, x);
  return out->max_row <= 1.0 + 1e-9 && out->min_x >= 0.0;
}

// omega* of a unit-coefficient torus, derived from the rows: x = 1/2 is
// feasible with utility L, and summing all constraint rows against all
// objective rows bounds every feasible utility by U = lambda |I| / |K|,
// lambda = max_v (sum_k c_kv) / (sum_i a_iv).  Returns omega* when L == U.
std::optional<double> torus_optimum(const MaxMinInstance& inst) {
  const std::vector<double> half(static_cast<std::size_t>(inst.num_agents()),
                                 0.5);
  const Evaluation e = evaluate(inst, half);
  if (e.max_row > 1.0) return std::nullopt;
  double lambda = 0.0;
  for (AgentId v = 0; v < inst.num_agents(); ++v) {
    double a = 0.0, c = 0.0;
    for (const Incidence& in : inst.agent_constraints(v)) a += in.coeff;
    for (const Incidence& in : inst.agent_objectives(v)) c += in.coeff;
    lambda = std::max(lambda, c / a);
  }
  const double upper = lambda * inst.num_constraints() / inst.num_objectives();
  if (upper != e.omega) return std::nullopt;
  return upper;
}

class GeneralLp final : public Section {
 public:
  GeneralLp(std::uint64_t seed, Report& report, const HostSpeed& host)
      : report_(report), host_(host), rng_(seed ^ 0x6e65726c70ULL) {
    SensorParams sp;
    sp.num_sensors = kSensors;
    sp.num_sinks = kSinks;
    sp.max_sensors_per_sink = 4;
    sp.range = std::sqrt(3.0 / kSensors);
    inputs_.push_back({"sensor", sensor_instance(sp, rng_.next()), {}});
    RandomGeneralParams rp;
    rp.num_agents = kRandomAgents;
    inputs_.push_back({"random", random_general(rp, rng_.next()), {}});
    GridParams gp;
    gp.rows = kTorusSide;
    gp.cols = kTorusSide;
    inputs_.push_back({"torus", grid_instance(gp, rng_.next()), {}});

    for (Input& in : inputs_) {
      const LocalSolution s1 = solve_local(in.inst, params(1));
      const LocalSolution s2 = solve_local(in.inst, params(2));
      report_.check(same_bits(s1.x, s2.x),
                    std::string("general_lp: 1-thread and 2-thread solves of ") +
                        in.name + " differ");
      in.x = s1.x;
      in.guarantee = s1.guarantee;
    }
    resolver_ = std::make_unique<LocalResolver>(sensor(), params(1));
    client_ = sensor();
  }

  void round() override {
    for (const std::size_t threads : {1, 2}) {
      double set_ms = 0.0;
      for (const Input& in : inputs_) {
        const auto a = Clock::now();
        const LocalSolution s = solve_local(in.inst, params(threads));
        set_ms += ms_since(a);
        report_.attempted();
        check_solve(in, s.x, threads);
      }
      (threads == 1 ? solve_1t_ : solve_2t_).add(set_ms, host_.factor_now());
      op_ms_ += set_ms;
    }
    for (int e = 0; e < kEditsPerRound; ++e) {
      const InstanceDelta d = next_edit();
      const auto a = Clock::now();
      resolver_->resolve(d);
      const double ms = ms_since(a);
      edit_ms_.add(ms, host_.factor_now());
      op_ms_ += ms;
      report_.attempted();
    }
  }

  int min_rounds() const override { return kMinRounds; }
  double op_ms() const override { return op_ms_; }
  std::vector<const char*> root_spans() const override {
    return {"solve.1t", "solve.2t", "resolve"};
  }

  void traced_round(Tracer& tracer, DynamicTally& tally) override {
    if (!mirror_) {
      // The resolver's path, rebuilt from public calls on a mirror of the
      // current instance: check_applicable -> map_delta -> to_special_form
      // -> diff_instances -> IncrementalSolver::apply -> map_back.
      mirror_ = std::make_unique<Mirror>();
      mirror_->inst = client_;
      mirror_->pipe = to_special_form(mirror_->inst);
      mirror_->inc = std::make_unique<IncrementalSolver>(mirror_->pipe.special,
                                                         mirror_opt());
    }
    for (const std::size_t threads : {1, 2}) {
      tracer.new_request();
      for (const Input& in : inputs_) {
        std::vector<double> x;
        {
          Span root(tracer, threads == 1 ? "solve.1t" : "solve.2t");
          x = composed_solve(in.inst, threads, tracer);
        }
        report_.attempted();
        check_solve(in, x, threads);
      }
    }
    for (int e = 0; e < kEditsPerRound; ++e) {
      const InstanceDelta d = next_edit();
      tracer.new_request();
      std::vector<double> x;
      {
        Span root(tracer, "resolve");
        x = mirror_resolve(d, tracer, tally);
      }
      report_.attempted();
      resolver_->resolve(d);
      report_.check(same_bits(x, resolver_->solution().x),
                    "general_lp: public-call mirror of resolve() differs "
                    "from LocalResolver");
    }
  }

  void finish(const Tracer* tracer) override {
    check_outputs();
    if (tracer == nullptr) {
      auto timing = [&](const char* name, const Samples& s, double p) {
        report_.metric(name, s.quantile(p), "ms", Report::Kind::kCorrected,
                       s.raw_quantile(p));
      };
      timing("solve_ms_1t", solve_1t_, 0.5);
      timing("solve_ms_2t", solve_2t_, 0.5);
      timing("edit_p50_ms", edit_ms_, 0.5);
      timing("edit_p90_ms", edit_ms_, 0.9);
      std::printf("general_lp: %zu solve sets per thread count, %zu edits\n",
                  solve_1t_.size(), edit_ms_.size());
      print_histogram("general_lp.solve_set_1t", solve_1t_.corrected);
      print_histogram("general_lp.solve_set_2t", solve_2t_.corrected);
      print_histogram("general_lp.resolve", edit_ms_.corrected);
      return;
    }
    const Tracer& t = *tracer;
    auto per_set = [&](const char* name) { return median(t.per_request(name)); };
    report_.metric("transform.pipeline_ms", per_set("transform.pipeline"), "ms",
                   Report::Kind::kTime);
    report_.metric("transform.map_back_ms", per_set("transform.map_back"), "ms",
                   Report::Kind::kTime);
    report_.metric("core.sf_build_ms", per_set("core.sf_build"), "ms",
                   Report::Kind::kTime);
    report_.metric("core.output_ms", per_set("core.output"), "ms",
                   Report::Kind::kTime);
    for (const char* th : {"1t", "2t"}) {
      for (const char* phase : {"t", "smooth", "g"}) {
        const std::string span = std::string("core.") + phase + "." + th;
        report_.metric(std::string("core.") + phase + "_ms." + th,
                       per_set(span.c_str()), "ms", Report::Kind::kTime);
      }
    }
    const double sets = static_cast<double>(t.per_request("solve.1t").size() +
                                            t.per_request("solve.2t").size());
    auto per_solve_set = [&](const std::atomic<std::int64_t>& c) {
      return static_cast<double>(c.load()) / sets;
    };
    report_.metric("core.f_evals", per_solve_set(stats_.f_evals), "count");
    report_.metric("core.g_evals", per_solve_set(stats_.g_evals), "count");
    report_.metric("core.t_searches", per_solve_set(stats_.t_searches),
                   "count");
    report_.metric("core.t_checks", per_solve_set(stats_.t_checks), "count");
    report_.metric("core.omega_sweeps", per_solve_set(stats_.omega_sweeps),
                   "count");
    double special_agents = 0.0;
    for (const Input& in : inputs_)
      special_agents += to_special_form(in.inst).special.num_agents();
    report_.metric("core.special_agents", special_agents, "count");

    report_.metric("lp.check_applicable_us",
                   1e3 * median(t.durations("lp.check_applicable")), "us",
                   Report::Kind::kTime);
    report_.metric("transform.map_delta_us",
                   1e3 * median(t.durations("transform.map_delta")), "us",
                   Report::Kind::kTime);
    report_.metric("transform.repipeline_ms",
                   median(t.durations("transform.repipeline")), "ms",
                   Report::Kind::kTime);
    report_.metric("lp.diff_ms", median(t.durations("lp.diff")), "ms",
                   Report::Kind::kTime);
    report_.metric("transform.fast_path_edits",
                   static_cast<double>(fast_path_edits_), "count");
    report_.metric("transform.resolve_edits",
                   static_cast<double>(resolve_edits_), "count");
    report_.metric("dynamic.apply_ms", median(t.durations("dynamic.apply")),
                   "ms", Report::Kind::kTime);
  }

 private:
  LocalParams params(std::size_t threads) const {
    LocalParams p;
    p.R = kR;
    p.threads = threads;
    return p;
  }
  const MaxMinInstance& sensor() const { return inputs_[0].inst; }

  // solve_local's engine-C path as its public phases, one span each.
  std::vector<double> composed_solve(const MaxMinInstance& inst,
                                     std::size_t threads, Tracer& tracer) {
    const bool one = threads == 1;
    const std::int32_t r = kR - 2;
    TSearchOptions opt;
    opt.stats = &stats_;
    Pipeline pipeline;
    {
      Span s(tracer, "transform.pipeline");
      pipeline = to_special_form(inst);
    }
    std::optional<SpecialFormInstance> sf;
    {
      Span s(tracer, "core.sf_build");
      sf.emplace(pipeline.special);
    }
    std::vector<double> t, sm, xs;
    GTables g;
    {
      Span s(tracer, one ? "core.t.1t" : "core.t.2t");
      t = compute_t_all(*sf, r, opt, threads);
    }
    {
      Span s(tracer, one ? "core.smooth.1t" : "core.smooth.2t");
      sm = smooth_min(*sf, t, r, threads);
    }
    {
      Span s(tracer, one ? "core.g.1t" : "core.g.2t");
      g = compute_g(*sf, sm, r, threads, opt.stats);
    }
    {
      Span s(tracer, "core.output");
      xs = output_x(g, r);
    }
    Span s(tracer, "transform.map_back");
    return pipeline.map_back(xs);
  }

  static IncrementalSolver::Options mirror_opt() {
    IncrementalSolver::Options o;
    o.R = kR;
    return o;
  }

  std::vector<double> mirror_resolve(const InstanceDelta& d, Tracer& tracer,
                                     DynamicTally& tally) {
    Mirror& m = *mirror_;
    {
      Span s(tracer, "lp.check_applicable");
      report_.check(d.check_applicable(m.inst).empty(),
                    "general_lp: generated edit not applicable");
    }
    std::optional<MappedDelta> mapped;
    {
      Span s(tracer, "transform.map_delta");
      mapped = m.pipe.id_map.map_delta(d, m.inst);
    }
    ++resolve_edits_;
    if (mapped.has_value()) {
      ++fast_path_edits_;
      {
        Span s(tracer, "dynamic.apply");
        m.inc->apply(mapped->special);
      }
      m.inst.apply(d);
      m.pipe.special.apply(mapped->special);
      m.pipe.id_map.apply_gamma_updates(*mapped);
    } else {
      m.inst.apply(d);
      Pipeline next;
      {
        Span s(tracer, "transform.repipeline");
        next = to_special_form(m.inst);
      }
      std::optional<InstanceDelta> sd;
      {
        Span s(tracer, "lp.diff");
        sd = diff_instances(m.pipe.special, next.special);
      }
      m.pipe = std::move(next);
      if (sd.has_value()) {
        Span s(tracer, "dynamic.apply");
        m.inc->apply(*sd);
      } else {
        Span s(tracer, "dynamic.reinit");
        m.inc = std::make_unique<IncrementalSolver>(m.pipe.special,
                                                    mirror_opt());
      }
    }
    tally.add(m.inc->last_update());
    Span s(tracer, "transform.resolve_map_back");
    return m.pipe.map_back(m.inc->x());
  }

  void check_solve(const Input& in, const std::vector<double>& x,
                   std::size_t threads) {
    if (!same_bits(x, in.x)) {
      report_.check(false, std::string("general_lp: ") + in.name + " at " +
                               std::to_string(threads) +
                               " threads differs from its first 1-thread solve");
    }
  }

  // Link-quality drift: one sink-assignment energy coefficient of the
  // sensor field moves by a factor in [0.8, 1.25].
  InstanceDelta next_edit() {
    const auto i = static_cast<ConstraintId>(
        rng_.below(static_cast<std::uint64_t>(client_.num_constraints())));
    const auto row = client_.constraint_row(i);
    const Entry e = row[rng_.below(row.size())];
    InstanceDelta d;
    d.set_constraint_coeff(i, e.agent, e.coeff * rng_.uniform(0.8, 1.25));
    client_.apply(d);
    return d;
  }

  void check_outputs() {
    for (const Input& in : inputs_) {
      Evaluation e;
      const bool ok = feasible(in.inst, in.x, &e);
      report_.check(ok, std::string("general_lp: infeasible solution of ") +
                            in.name);
      if (!ok) continue;
      std::optional<double> opt;
      if (std::string(in.name) == "torus") {
        opt = torus_optimum(in.inst);
        report_.check(opt.has_value(),
                      "general_lp: torus optimum bounds do not meet");
      } else if (std::string(in.name) == "sensor") {
        const MaxMinLpResult lp = solve_lp_optimum(in.inst);
        const bool certified = lp.status == LpStatus::kOptimal &&
                               check_certificate(in.inst, lp).ok();
        report_.check(certified, "general_lp: simplex optimum not certified");
        if (certified) opt = lp.omega;
      }
      if (!opt.has_value()) continue;
      std::printf("general_lp: %s omega %.6g, omega* %.6g, ratio %.4f, "
                  "guarantee %.4f\n",
                  in.name, e.omega, *opt, *opt / e.omega, in.guarantee);
      report_.check(e.omega * in.guarantee >= *opt * (1.0 - 1e-9),
                    std::string("general_lp: ratio bound violated on ") +
                        in.name);
      report_.check(e.omega <= *opt * (1.0 + 1e-9),
                    std::string("general_lp: utility above the optimum on ") +
                        in.name);
    }

    // The resolver after the whole edit stream against a from-scratch
    // engine-L solve of the instance the client built by applying the same
    // edits.  (solve_local with kLocalViews materialises every radius-17
    // view and does not finish on this field; LocalResolver's cold solve
    // is the graph-backed engine-L evaluation.)
    const LocalResolver fresh(client_, params(1));
    report_.check(same_bits(fresh.solution().x, resolver_->solution().x),
                  "general_lp: resolver output differs from a from-scratch "
                  "solve of the edited instance");
    Evaluation e;
    report_.check(feasible(client_, resolver_->solution().x, &e),
                  "general_lp: resolver output infeasible");
  }

  Report& report_;
  const HostSpeed& host_;
  Rng rng_;
  std::vector<Input> inputs_;
  std::unique_ptr<LocalResolver> resolver_;
  MaxMinInstance client_;  // the client's copy: initial field + every edit
  struct Mirror {
    MaxMinInstance inst;
    Pipeline pipe;
    std::unique_ptr<IncrementalSolver> inc;
  };
  std::unique_ptr<Mirror> mirror_;
  Samples solve_1t_, solve_2t_, edit_ms_;
  double op_ms_ = 0.0;
  TSearchStats stats_;
  std::int64_t fast_path_edits_ = 0;
  std::int64_t resolve_edits_ = 0;
};

}  // namespace

std::unique_ptr<Section> make_general_lp(std::uint64_t seed, Report& report,
                                         const HostSpeed& host) {
  return std::make_unique<GeneralLp>(seed, report, host);
}

}  // namespace perfbench
