// distributed -- engines S and M in-process over SyncNetwork, every message
// passed through the real wire codec, on a natively special cycle wheel at
// R=3, 1 thread.  Forked-rank runs (socket and shared-memory transports) are
// timed in the traced run only: their timings vary 17-47% between processes.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/local_solver.hpp"
#include "core/special_form.hpp"
#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "dist/transport.hpp"
#include "dist/wire.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "lp/delta.hpp"
#include "sections.hpp"
#include "support/prng.hpp"

namespace perfbench {

using namespace locmm;

MaxMinInstance seeded_wheel(std::int32_t agents, std::uint64_t seed) {
  MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = agents / 2, .width = 1, .twist = 0});
  Rng rng(seed);
  InstanceDelta d;
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i)
    for (const Entry& e : inst.constraint_row(i))
      d.set_constraint_coeff(i, e.agent, rng.uniform(0.5, 2.0));
  inst.apply(d);
  return inst;
}

namespace {

constexpr std::int32_t kR = 3;
constexpr std::int32_t kAgents = 2000;
constexpr int kMinRounds = 10;
constexpr int kForkedReps = 3;

enum class Engine { kS, kM };

// Where a traced engine run's program time went (ms), plus codec totals.
struct WireTally {
  std::int64_t bytes = 0;
  bool decode_ok = true;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double gather_ms = 0.0;   // program time in view-gathering rounds
  double stream_ms = 0.0;   // engine S: program time in the scalar phases
  double eval_ms = 0.0;     // engine M: agents' final-round view evaluation
};

// Wraps one engine program: every outgoing message is encoded to its wire
// frame and the frame decoded back before delivery -- the round trip a byte
// transport makes.  With `timed`, program and codec time are accumulated by
// phase.
class WireProgram final : public AgentNodeProgram {
 public:
  WireProgram(std::unique_ptr<AgentNodeProgram> inner, Engine engine,
              WireTally& tally, bool timed)
      : inner_(std::move(inner)), engine_(engine), tally_(tally),
        timed_(timed) {}

  void init(const LocalInput& input) override {
    agent_ = input.type == NodeType::kAgent;
    inner_->init(input);
  }

  std::vector<Message> send(std::int32_t round) override {
    if (!timed_) {
      std::vector<Message> out = inner_->send(round);
      for (Message& m : out) round_trip(m);
      return out;
    }
    const auto a = Clock::now();
    std::vector<Message> out = inner_->send(round);
    program_time(round, ms_since(a), false);
    for (Message& m : out) {
      const auto b = Clock::now();
      const Clock::time_point encoded = round_trip(m);
      tally_.encode_ms += ms_between(b, encoded);
      tally_.decode_ms += ms_since(encoded);
    }
    return out;
  }

  void receive(std::int32_t round, std::span<const Message> inbox) override {
    if (!timed_) {
      inner_->receive(round, inbox);
      return;
    }
    const auto a = Clock::now();
    inner_->receive(round, inbox);
    program_time(round, ms_since(a), true);
  }

  bool halted() const override { return inner_->halted(); }
  double x() const override { return inner_->x(); }

 private:
  // Encodes `m` to its frame and replaces it by the decoded frame; returns
  // when encoding ended.
  Clock::time_point round_trip(Message& m) {
    if (m.kind == Message::Kind::kNone) return Clock::now();
    frame_.clear();
    append_message_frame(m, frame_);
    const auto encoded = timed_ ? Clock::now() : Clock::time_point{};
    tally_.bytes += static_cast<std::int64_t>(frame_.size());
    Message decoded;
    if (decode_message_frame(frame_, decoded) != WireDecodeStatus::kOk)
      tally_.decode_ok = false;
    m = std::move(decoded);
    return encoded;
  }

  void program_time(std::int32_t round, double ms, bool receiving) {
    if (engine_ == Engine::kS) {
      // Phase 1 gathers the radius-(4r+3) view; the rest streams scalars.
      (round <= 4 * (kR - 2) + 3 ? tally_.gather_ms : tally_.stream_ms) += ms;
    } else if (receiving && agent_ && round == view_radius(kR)) {
      tally_.eval_ms += ms;  // assembles the view and evaluates it
    } else {
      tally_.gather_ms += ms;
    }
  }

  std::unique_ptr<AgentNodeProgram> inner_;
  Engine engine_;
  WireTally& tally_;
  bool timed_;
  bool agent_ = false;
  std::vector<std::uint8_t> frame_;
};

struct EngineRun {
  std::vector<double> x;
  RunStats stats;
  WireTally wire;
};

EngineRun run_engine(const MaxMinInstance& inst, Engine engine, bool timed) {
  EngineRun run;
  const CommGraph g(inst);
  SyncNetwork net(g, 1);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::unique_ptr<AgentNodeProgram> inner;
    if (engine == Engine::kS)
      inner = make_streaming_program(kR);
    else
      inner = std::make_unique<GatherProgram>(view_radius(kR), kR,
                                              TSearchOptions{});
    programs.push_back(std::make_unique<WireProgram>(std::move(inner), engine,
                                                     run.wire, timed));
  }
  run.stats = net.run(programs);
  run.x.resize(static_cast<std::size_t>(inst.num_agents()));
  for (AgentId v = 0; v < inst.num_agents(); ++v)
    run.x[static_cast<std::size_t>(v)] =
        static_cast<const WireProgram&>(
            *programs[static_cast<std::size_t>(g.agent_node(v))])
            .x();
  return run;
}

double children_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return 1e3 * (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                           ru.ru_stime.tv_usec));
}

class Distributed final : public Section {
 public:
  Distributed(std::uint64_t seed, Report& report, const HostSpeed& host)
      : report_(report), host_(host),
        inst_(seeded_wheel(kAgents, seed ^ 0x64697374ULL)) {
    x_c_ = solve_special_centralized(SpecialFormInstance(inst_), kR).x;
    x_l_ = solve_special_local_views(inst_, kR);
    for (const Engine e : {Engine::kS, Engine::kM}) {
      const EngineRun run = run_engine(inst_, e, false);
      check_run(e, run);
      (e == Engine::kS ? bytes_s_ : bytes_m_) = run.wire.bytes;
    }
  }

  void round() override {
    for (const Engine e : {Engine::kS, Engine::kM}) {
      const auto a = Clock::now();
      const EngineRun run = run_engine(inst_, e, false);
      const double ms = ms_since(a);
      (e == Engine::kS ? engine_s_ : engine_m_).add(ms, host_.factor_now());
      op_ms_ += ms;
      report_.attempted();
      check_run(e, run);
    }
  }

  int min_rounds() const override { return kMinRounds; }
  double op_ms() const override { return op_ms_; }
  std::vector<const char*> root_spans() const override {
    return {"engine_s", "engine_m"};
  }

  void traced_round(Tracer& tracer, DynamicTally&) override {
    for (const Engine e : {Engine::kS, Engine::kM}) {
      tracer.new_request();
      EngineRun run;
      {
        Span root(tracer, e == Engine::kS ? "engine_s" : "engine_m");
        run = run_engine(inst_, e, true);
      }
      report_.attempted();
      check_run(e, run);
      const std::string p = e == Engine::kS ? ".s" : ".m";
      tracer.accumulate("dist.encode" + p, run.wire.encode_ms);
      tracer.accumulate("dist.decode" + p, run.wire.decode_ms);
      tracer.accumulate("dist.gather" + p, run.wire.gather_ms);
      tracer.accumulate("dist.stream" + p, run.wire.stream_ms);
      tracer.accumulate("core.view_eval" + p, run.wire.eval_ms);
      (e == Engine::kS ? stats_s_ : stats_m_) = run.stats;
    }
  }

  void finish(const Tracer* tracer) override {
    if (tracer == nullptr) {
      report_.metric("engine_s_ms", engine_s_.quantile(0.5), "ms",
                     Report::Kind::kCorrected, engine_s_.raw_quantile(0.5));
      report_.metric("engine_m_ms", engine_m_.quantile(0.5), "ms",
                     Report::Kind::kCorrected, engine_m_.raw_quantile(0.5));
      report_.metric("wire_bytes_s", static_cast<double>(bytes_s_), "bytes");
      report_.metric("wire_bytes_m", static_cast<double>(bytes_m_), "bytes");
      std::printf("distributed: %zu solves per engine\n", engine_s_.size());
      print_histogram("distributed.engine_s", engine_s_.corrected);
      print_histogram("distributed.engine_m", engine_m_.corrected);
      return;
    }
    forked_ranks();
    const Tracer& t = *tracer;
    auto per_solve = [&](const std::string& name) {
      const Tracer::Accum& a = t.accum(name);
      return a.count == 0 ? 0.0 : a.ms / static_cast<double>(a.count);
    };
    const double wall_s = median(t.durations("engine_s"));
    const double wall_m = median(t.durations("engine_m"));
    report_.metric("dist.stream_ms", per_solve("dist.stream.s"), "ms",
                   Report::Kind::kTime);
    report_.metric("dist.gather_ms", per_solve("dist.gather.m"), "ms",
                   Report::Kind::kTime);
    report_.metric("core.view_eval_ms", per_solve("core.view_eval.m"), "ms",
                   Report::Kind::kTime);
    report_.metric("dist.encode_ms", per_solve("dist.encode.m"), "ms",
                   Report::Kind::kTime);
    report_.metric("dist.decode_ms", per_solve("dist.decode.m"), "ms",
                   Report::Kind::kTime);
    // What the engines' program and codec time leaves of the wall: the
    // SyncNetwork's round loop, delivery and CommGraph build.
    report_.metric("dist.schedule_ms.s",
                   wall_s - per_solve("dist.gather.s") -
                       per_solve("dist.stream.s") - per_solve("dist.encode.s") -
                       per_solve("dist.decode.s"),
                   "ms", Report::Kind::kTime);
    report_.metric("dist.schedule_ms.m",
                   wall_m - per_solve("dist.gather.m") -
                       per_solve("core.view_eval.m") -
                       per_solve("dist.encode.m") - per_solve("dist.decode.m"),
                   "ms", Report::Kind::kTime);
    for (const auto& [p, st] : {std::pair{"s", &stats_s_}, {"m", &stats_m_}}) {
      report_.metric(std::string("dist.rounds.") + p, st->rounds, "count");
      report_.metric(std::string("dist.messages.") + p,
                     static_cast<double>(st->messages), "count");
      report_.metric(std::string("dist.max_message_bytes.") + p,
                     static_cast<double>(st->max_message_bytes), "bytes");
    }
    for (const auto& [name, v] : forked_) report_.metric(name, v, "ms");
  }

 private:
  // Engine S must reproduce engine C bitwise.  Engine M evaluates its
  // gathered views with engine L's evaluator, which on asymmetric
  // coefficients agrees with engine C only to the last bit or so; it must
  // reproduce engine L (solve_special_local_views) bitwise and engine C to
  // 1e-12.
  void check_run(Engine e, const EngineRun& run) {
    const char* name = e == Engine::kS ? "engine S" : "engine M";
    report_.check(run.wire.decode_ok,
                  std::string("distributed: ") + name + " frame failed to decode");
    report_.check(run.wire.bytes == run.stats.bytes,
                  std::string("distributed: ") + name +
                      " encoded bytes differ from RunStats::bytes");
    check_x(e, run.x, name);
  }

  void check_x(Engine e, const std::vector<double>& x, const std::string& what) {
    if (e == Engine::kS) {
      if (!same_bits(x, x_c_))
        report_.check(false, "distributed: " + what + " differs from engine C");
      return;
    }
    if (!same_bits(x, x_l_))
      report_.check(false, "distributed: " + what + " differs from engine L");
    bool close = x.size() == x_c_.size();
    for (std::size_t i = 0; close && i < x.size(); ++i)
      close = std::abs(x[i] - x_c_[i]) <= 1e-12;
    if (!close)
      report_.check(false, "distributed: " + what + " is not within 1e-12 of "
                           "engine C");
  }

  // Engines S and M on 2 forked ranks over each transport.  Outputs and byte
  // totals must equal the in-process runs'.  Rank CPU (RUSAGE_CHILDREN) is
  // taken around the engine-S solves.
  void forked_ranks() {
    for (const auto& [tname, kind] :
         {std::pair{"socket", TransportKind::kSocket},
          std::pair{"shm", TransportKind::kSharedMemory}}) {
      DistOptions dist;
      dist.transport = kind;
      dist.ranks = 2;
      for (const Engine e : {Engine::kS, Engine::kM}) {
        std::vector<double> wall;
        double cpu = 0.0;
        for (int rep = 0; rep < kForkedReps; ++rep) {
          const double cpu0 = children_cpu_ms();
          const auto a = Clock::now();
          std::vector<double> x;
          RunStats st;
          if (e == Engine::kS) {
            StreamingRunResult r =
                solve_special_streaming(inst_, kR, {}, 1, nullptr, dist);
            x = std::move(r.x);
            st = r.stats;
          } else {
            MessageRunResult r =
                solve_special_message_passing(inst_, kR, {}, 1, nullptr, dist);
            x = std::move(r.x);
            st = r.stats;
          }
          wall.push_back(ms_since(a));
          cpu += children_cpu_ms() - cpu0;
          report_.attempted();
          const std::int64_t bytes = e == Engine::kS ? bytes_s_ : bytes_m_;
          report_.check(st.bytes == bytes,
                        std::string("distributed: forked ") + tname +
                            " byte total differs from the in-process one");
          check_x(e, x, std::string("forked ") + tname + " run");
        }
        const std::string suffix = e == Engine::kS ? ".s" : ".m";
        forked_.emplace_back(std::string("dist.") + tname + "_ms" + suffix,
                             median(wall));
        if (e == Engine::kS)
          forked_.emplace_back(std::string("dist.rank_cpu_ms.") + tname,
                               cpu / kForkedReps);
      }
    }
  }

  Report& report_;
  const HostSpeed& host_;
  MaxMinInstance inst_;
  std::vector<double> x_c_, x_l_;  // engine C and engine L references
  std::int64_t bytes_s_ = 0, bytes_m_ = 0;
  Samples engine_s_, engine_m_;
  double op_ms_ = 0.0;
  RunStats stats_s_, stats_m_;
  std::vector<std::pair<std::string, double>> forked_;
};

}  // namespace

std::unique_ptr<Section> make_distributed(std::uint64_t seed, Report& report,
                                          const HostSpeed& host) {
  return std::make_unique<Distributed>(seed, report, host);
}

}  // namespace perfbench
