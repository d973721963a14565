// serve_churn -- SolverService in a closed loop (submit, drain, then a few
// query_x reads) over tenants of natively special, sparse families at R=4,
// one client thread.  Batches mix 1-3 coefficient edits with structural
// remove-and-re-add batches.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/special_form.hpp"
#include "core/view_solver.hpp"
#include "gen/generators.hpp"
#include "sections.hpp"
#include "serve/solver_service.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using namespace locmm;

constexpr std::int32_t kR = 4;
constexpr std::int32_t kAgentsPerTenant = 2000;
constexpr int kQueriesPerBatch = 3;
// 10 rounds of 100 batches: at least ten samples beyond p99.
constexpr int kMinRounds = 10;

enum class Family { kWheel, kTorus, kCirculant };

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

// One round: 100 batches in a seeded order.  Per-batch latency clusters by
// family (wheel ~0.3 ms, paired torus ~1.1 ms, circulant ~10 ms at 2000
// agents), so the mix is weighted to put both reported percentiles inside
// one cluster: p50 among the torus batches (ranks 30-98), p99 in the middle
// of the circulant ones (ranks 98-100).  Circulant batches are all
// structural because its coefficient batches form a second, faster mode.
struct SlotKind {
  Family family;
  bool structural;
  int count;
};
constexpr SlotKind kRoundMix[] = {
    {Family::kWheel, false, 15},  {Family::kWheel, true, 15},
    {Family::kTorus, false, 34},  {Family::kTorus, true, 34},
    {Family::kCirculant, true, 2},
};

struct Tenant {
  std::string name;
  std::unique_ptr<SpecialFormInstance> client;  // initial instance + every
                                                // accepted batch
  std::int64_t accepted = 0;
  std::unique_ptr<IncrementalSolver> mirror;  // traced runs only
};

class ServeChurn final : public Section {
 public:
  ServeChurn(std::uint64_t seed, Report& report, const HostSpeed& host)
      : report_(report), host_(host), rng_(seed ^ 0x7365727665ULL) {
    std::vector<std::pair<std::string, MaxMinInstance>> insts;
    insts.emplace_back("wheel", seeded_wheel(kAgentsPerTenant, rng_.next()));
    insts.emplace_back(
        "torus", special_grid_instance({.rows = 4,
                                        .cols = kAgentsPerTenant / 4,
                                        .coeff_lo = 0.5,
                                        .coeff_hi = 2.0},
                                       rng_.next()));
    insts.emplace_back("circulant",
                       circulant_special_instance(
                           {.num_objectives = kAgentsPerTenant / 3,
                            .delta_k = 3,
                            .stride = 5,
                            .coeff_lo = 0.5,
                            .coeff_hi = 2.0},
                           rng_.next()));
    TenantOptions opt;
    opt.R = kR;
    for (auto& [name, inst] : insts) {
      const auto a = Clock::now();
      const ServeStatus st = service_.create_tenant(name, inst, opt);
      create_ms_ += ms_since(a);
      report_.check(st.ok(), "serve_churn: create_tenant " + name + ": " +
                                 st.message);
      Tenant t;
      t.name = name;
      t.client = std::make_unique<SpecialFormInstance>(inst);
      tenants_.push_back(std::move(t));
    }
  }

  void round() override {
    for (const auto& [family, structural] : round_order())
      batch(family, structural, nullptr);
  }

  int min_rounds() const override { return kMinRounds; }
  double op_ms() const override { return sum(batch_ms_.raw); }
  std::vector<const char*> root_spans() const override { return {"batch"}; }

  void start_trace() override {
    IncrementalSolver::Options iopt;
    iopt.R = kR;
    for (Tenant& t : tenants_)
      t.mirror = std::make_unique<IncrementalSolver>(t.client->instance(), iopt);
  }

  void traced_round(Tracer& tracer, DynamicTally& tally) override {
    tally_ = &tally;
    for (const auto& [family, structural] : round_order())
      batch(family, structural, &tracer);
  }

  void finish(const Tracer* tracer) override {
    check_outputs();
    if (tracer == nullptr) {
      for (const auto& [name, p] :
           {std::pair{"batch_p50_ms", 0.5}, {"batch_p99_ms", 0.99}})
        report_.metric(name, batch_ms_.quantile(p), "ms",
                       Report::Kind::kCorrected, batch_ms_.raw_quantile(p));
      const auto edits = static_cast<double>(committed_edits_);
      report_.metric("edits_per_s", edits / (sum(batch_ms_.corrected) / 1e3),
                     "1/s", Report::Kind::kCorrected,
                     edits / (sum(batch_ms_.raw) / 1e3));
      std::printf("serve_churn: %zu batches, %lld edits committed\n",
                  batch_ms_.size(), static_cast<long long>(committed_edits_));
      print_histogram("serve_churn.batch", batch_ms_.corrected);
      return;
    }
    const Tracer& t = *tracer;
    report_.metric("serve.submit_us", 1e3 * median(t.durations("serve.submit")),
                   "us", Report::Kind::kTime);
    report_.metric("serve.drain_ms", median(t.durations("serve.drain")), "ms",
                   Report::Kind::kTime);
    report_.metric("serve.query_us", 1e3 * median(t.durations("serve.query")),
                   "us", Report::Kind::kTime);
    TenantStats total;
    for (const Tenant& tn : tenants_) {
      TenantStats st;
      service_.stats(tn.name, &st);
      total.accepted += st.accepted;
      total.coalesced += st.coalesced;
    }
    report_.metric("serve.accepted", static_cast<double>(total.accepted),
                   "count");
    report_.metric("serve.coalesced", static_cast<double>(total.coalesced),
                   "count");
    report_.metric("serve.create_tenant_ms", create_ms_, "ms",
                   Report::Kind::kTime);
    report_.metric("dynamic.apply_ms.coeff",
                   median(t.durations("dynamic.apply.coeff")), "ms",
                   Report::Kind::kTime);
    report_.metric("dynamic.apply_ms.structural",
                   median(t.durations("dynamic.apply.structural")), "ms",
                   Report::Kind::kTime);
  }

 private:
  std::vector<std::pair<Family, bool>> round_order() {
    std::vector<std::pair<Family, bool>> order;
    for (const SlotKind& k : kRoundMix)
      for (int i = 0; i < k.count; ++i) order.emplace_back(k.family, k.structural);
    shuffle(order.begin(), order.end(), rng_);
    return order;
  }

  // 1-3 coefficient edits around one agent: its constraints (both ends)
  // and its objective siblings' constraints.
  InstanceDelta coeff_batch(const SpecialFormInstance& sf) {
    const auto v = static_cast<AgentId>(
        rng_.below(static_cast<std::uint64_t>(sf.num_agents())));
    std::vector<std::pair<ConstraintId, AgentId>> edges;
    for (const ConstraintArc& a : sf.arcs(v)) {
      edges.emplace_back(a.id, v);
      edges.emplace_back(a.id, a.partner);
    }
    for (const AgentId w : sf.siblings(v))
      for (const ConstraintArc& a : sf.arcs(w)) edges.emplace_back(a.id, w);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    InstanceDelta d;
    const int n = 1 + static_cast<int>(rng_.below(3));
    for (int e = 0; e < n && !edges.empty(); ++e) {
      const std::size_t j = rng_.below(edges.size());
      d.set_constraint_coeff(edges[j].first, edges[j].second,
                             rng_.uniform(0.5, 2.0));
      edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(j));
    }
    return d;
  }

  // One agent leaves one of its constraints and rejoins it with a new
  // coefficient (it takes the row's last port).
  InstanceDelta structural_batch(const SpecialFormInstance& sf) {
    const auto v = static_cast<AgentId>(
        rng_.below(static_cast<std::uint64_t>(sf.num_agents())));
    const auto arcs = sf.arcs(v);
    const ConstraintArc a = arcs[rng_.below(arcs.size())];
    InstanceDelta d;
    d.remove_from_constraint(a.id, v);
    d.add_to_constraint(a.id, v, rng_.uniform(0.5, 2.0));
    return d;
  }

  void batch(Family family, bool structural, Tracer* tracer) {
    Tenant& t = tenants_[static_cast<std::size_t>(family)];
    const InstanceDelta d =
        structural ? structural_batch(*t.client) : coeff_batch(*t.client);
    ServeStatus sub, drn;
    if (tracer != nullptr) {
      tracer->new_request();
      Span root(*tracer, "batch");
      {
        Span s(*tracer, "serve.submit");
        sub = service_.submit(t.name, d);
      }
      Span s(*tracer, "serve.drain");
      drn = service_.drain(t.name);
    } else {
      const auto a = Clock::now();
      sub = service_.submit(t.name, d);
      drn = service_.drain(t.name);
      batch_ms_.add(ms_since(a), host_.factor_now());
    }
    report_.attempted();
    if (!sub.ok() || !drn.ok()) {
      report_.failed_op("serve_churn: " + t.name + ": " + sub.message +
                        drn.message);
      return;
    }
    ++t.accepted;
    committed_edits_ += static_cast<std::int64_t>(d.size());
    t.client->apply(d);
    if (t.mirror) {
      if (tracer != nullptr) {
        Span s(*tracer, structural ? "dynamic.apply.structural"
                                   : "dynamic.apply.coeff");
        t.mirror->apply(d);
      } else {
        t.mirror->apply(d);
      }
      if (tracer != nullptr) tally_->add(t.mirror->last_update());
    }
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      const auto v = static_cast<AgentId>(
          rng_.below(static_cast<std::uint64_t>(t.client->num_agents())));
      QueryResult qr;
      ServeStatus st;
      if (tracer != nullptr) {
        Span s(*tracer, "serve.query");
        st = service_.query_x(t.name, v, &qr);
      } else {
        st = service_.query_x(t.name, v, &qr);
      }
      report_.check(st.ok() && !qr.stale,
                    "serve_churn: query after drain failed or stale");
    }
  }

  void check_outputs() {
    for (const Tenant& t : tenants_) {
      TenantStats st;
      report_.check(service_.stats(t.name, &st).ok() &&
                        st.accepted == t.accepted,
                    "serve_churn: " + t.name +
                        ": client's accepted count differs from "
                        "TenantStats::accepted");
      // The reference solve of the client's rebuilt instance.  The wheel's
      // views are thin, so it gets the literal per-view engine-L solve;
      // the torus and circulant views are too fat for that (10.8 s and
      // > 60 s at 2000 agents), so they get a cold graph-backed engine-L
      // solve, which never runs the dirty-ball path being timed.
      const MaxMinInstance& inst = t.client->instance();
      std::vector<double> ref;
      if (t.name == "wheel") {
        ref = solve_special_local_views(inst, kR);
      } else {
        IncrementalSolver::Options iopt;
        iopt.R = kR;
        ref = IncrementalSolver(inst, iopt).x();
      }
      std::vector<double> served(ref.size());
      bool fresh = true;
      for (AgentId v = 0; v < inst.num_agents(); ++v) {
        QueryResult qr;
        fresh = fresh && service_.query_x(t.name, v, &qr).ok() && !qr.stale;
        served[static_cast<std::size_t>(v)] = qr.value;
      }
      report_.check(fresh, "serve_churn: " + t.name + ": stale final read");
      report_.check(same_bits(served, ref),
                    "serve_churn: " + t.name +
                        ": served solution differs from the reference solve");
      if (t.mirror)
        report_.check(same_bits(t.mirror->x(), ref),
                      "serve_churn: " + t.name + ": mirror solver differs");
    }
  }

  Report& report_;
  const HostSpeed& host_;
  Rng rng_;
  SolverService service_;
  std::vector<Tenant> tenants_;
  double create_ms_ = 0.0;
  Samples batch_ms_;
  std::int64_t committed_edits_ = 0;
  DynamicTally* tally_ = nullptr;
};

}  // namespace

std::unique_ptr<Section> make_serve_churn(std::uint64_t seed, Report& report,
                                          const HostSpeed& host) {
  return std::make_unique<ServeChurn>(seed, report, host);
}

}  // namespace perfbench
