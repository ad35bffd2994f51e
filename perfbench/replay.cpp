// commuter-replay: the sim::Scenario commuter rush at 100k objects on a
// 4x4 unsharded leaf grid, replayed over SimNetwork on one thread in
// virtual time, no sockets. The benchmark's own loop drives the rounds
// (sim::drive_scenario builds its own transport, which a decorator cannot
// wrap). Per round:
//   * the round's sightings leave the gateway in per-agent batches of
//     ReplaySpec::batch (the gateway coalescing of drive_scenario); each
//     batch runs to idle, and each of its sightings is charged the batch's
//     wall time (update latency);
//   * lone single-sighting UpdateReqs follow, each run to idle (light
//     update latency: nothing to amortise over);
//   * seeded pos/range/NN probes, each run to idle (query latency).
// Every repeat rebuilds the deployment from scratch (set-up time), and the
// trace CRC (every delivered datagram) and answer CRC must repeat exactly.
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/sim_network.hpp"
#include "sim/scenario.hpp"
#include "util/crc32.hpp"
#include "wire/messages.hpp"

namespace pb {

namespace {

using trace::now_ns;

constexpr NodeId kGateway{901};
constexpr NodeId kProbe{902};

struct RepeatResult {
  double setup_s = 0;
  double timed_s = 0;
  std::uint64_t ops = 0;
  // Per round: the replay thread's CPU time, answer checks excluded.
  std::vector<double> round_cpu_s;
  std::vector<double> update_us, lone_us;
  std::array<std::vector<double>, kOpKinds> probe_us;
  std::uint32_t trace_crc = 0;
  std::uint32_t answer_crc = 0;
  std::uint64_t failed = 0;     // probe answers missing or wrong
  // Layer counts over the timed replay.
  std::uint64_t messages = 0, bytes = 0, msgs_handled = 0;
  std::uint64_t sub_res_pinned = 0, sub_res_copied = 0, pending_timeouts = 0;
  std::uint64_t decode_errors = 0, sightings_expired = 0, store_sightings = 0;
  std::uint64_t delivered = 0;
  std::uint64_t range_results = 0;  // objects answered by range probes
  std::uint64_t nn_results = 0;     // nearest + near set of NN probes
  double check_ns = 0;     // wall time of the answer checks (not timed)
  double idle_ns = 0;      // wall time inside run_until_idle
  double handler_ns = 0;   // root-span (handler) time inside it (traced)
};

class Replay {
 public:
  Replay(const ReplayInputs& in, std::uint64_t seed, bool traced)
      : in_(in), spec_(replay_spec()), seed_(seed), traced_(traced) {}

  RepeatResult run() {
    RepeatResult res;
    const std::int64_t t0 = now_ns();
    net::SimNetwork::Options nopts;
    nopts.seed = seed_;
    net::SimNetwork sim(nopts);
    std::unique_ptr<trace::TimingTransport> timing;
    net::Transport* net = &sim;
    core::Deployment::Config cfg;
    if (traced_) {
      timing = std::make_unique<trace::TimingTransport>(sim, std::unordered_set<std::uint32_t>{});
      net = timing.get();
      cfg.index_factory = trace::timing_index_factory();
    }
    const locs::sim::ScenarioParams sp;
    const core::HierarchySpec topo = core::HierarchyBuilder::grid(sp.area, 4, 4, 1);
    core::Deployment dep(*net, sim.clock(), topo, cfg);
    std::vector<NodeId> leaves = dep.leaf_ids();
    std::sort(leaves.begin(), leaves.end(),
              [](NodeId a, NodeId b) { return a.value < b.value; });

    sim.set_tracer([&res](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
      res.trace_crc = crc32(&at, sizeof at, res.trace_crc);
      res.trace_crc = crc32(&from.value, sizeof from.value, res.trace_crc);
      res.trace_crc = crc32(&to.value, sizeof to.value, res.trace_crc);
      res.trace_crc = crc32(b.data(), b.size(), res.trace_crc);
    });

    const std::size_t n = spec_.objects;
    agent_.assign(n, 0);
    acc_.assign(n, 0.0);
    last_.assign(in_.initial.begin(), in_.initial.end());
    registered_ = 0;
    net->attach(kGateway, net::DatagramHandler([this](const net::Datagram& dg) {
      on_gateway(dg.data(), dg.size());
    }));
    net->attach(kProbe, net::DatagramHandler([this, &res](const net::Datagram& dg) {
      on_probe(dg.data(), dg.size(), res);
    }));

    // Set-up: build + register every object, until all are acknowledged.
    for (std::size_t i = 0; i < n; ++i) {
      wire::RegisterReq req;
      req.s = core::Sighting{ObjectId{i + 1}, 0, in_.initial[i], kSensorAcc};
      req.acc_range = {kAccDesired, kAccMinimum};
      req.reg_inst = kGateway;
      req.req_id = i + 1;
      net::send_message(*net, kGateway, dep.entry_leaf_for(in_.initial[i]), req);
      if ((i & 0xfff) == 0xfff) sim.run_until_idle();
    }
    sim.run_until_idle();
    dep.tick_all(sim.now());
    res.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    if (registered_ != n) {
      std::fprintf(stderr, "replay: %zu of %zu registrations acknowledged\n", registered_, n);
      res.failed += n - registered_;
    }

    if (traced_) trace::set_enabled(true);
    const core::LocationServer::Stats before = dep.total_stats();
    const std::uint64_t msgs0 = sim.messages_sent(), bytes0 = sim.bytes_sent();
    const auto run_idle = [&]() {
      const std::uint64_t h0 = traced_ ? trace::thread_toplevel_ns() : 0;
      const std::int64_t a = now_ns();
      res.delivered += sim.run_until_idle();
      const std::int64_t b = now_ns();
      res.idle_ns += static_cast<double>(b - a);
      if (traced_) res.handler_ns += static_cast<double>(trace::thread_toplevel_ns() - h0);
      return static_cast<double>(b - a) / 1000.0;
    };

    const std::int64_t start = now_ns();
    std::unordered_map<std::uint32_t, wire::BatchedUpdateReq> open;
    for (int r = 0; r < spec_.rounds; ++r) {
      const std::int64_t cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
      std::int64_t check_cpu = 0;
      const auto flush = [&](std::uint32_t agent, wire::BatchedUpdateReq& batch) {
        const std::int64_t a = now_ns();
        net::send_message(*net, kGateway, NodeId{agent}, batch);
        const std::size_t k = batch.count;
        batch.clear();
        run_idle();
        const double us = static_cast<double>(now_ns() - a) / 1000.0;
        res.update_us.insert(res.update_us.end(), k, us);
      };
      for (const Sight& s : in_.rounds[static_cast<std::size_t>(r)]) {
        last_[s.obj] = s.p;
        const std::uint32_t agent = agent_[s.obj];
        wire::BatchedUpdateReq& batch = open[agent];
        batch.append(core::Sighting{ObjectId{s.obj + 1ULL}, 0, s.p, kSensorAcc});
        if (batch.count >= spec_.batch) flush(agent, batch);
      }
      std::vector<std::uint32_t> agents;
      for (auto& [agent, batch] : open) {
        if (!batch.empty()) agents.push_back(agent);
      }
      std::sort(agents.begin(), agents.end());
      for (std::uint32_t agent : agents) flush(agent, open[agent]);
      res.ops += in_.rounds[static_cast<std::size_t>(r)].size();

      for (const Sight& s : in_.lone[static_cast<std::size_t>(r)]) {
        last_[s.obj] = s.p;
        const std::int64_t a = now_ns();
        wire::UpdateReq m;
        m.s = core::Sighting{ObjectId{s.obj + 1ULL}, 0, s.p, kSensorAcc};
        net::send_message(*net, kGateway, NodeId{agent_[s.obj]}, m);
        run_idle();
        res.lone_us.push_back(static_cast<double>(now_ns() - a) / 1000.0);
      }
      res.ops += in_.lone[static_cast<std::size_t>(r)].size();
      dep.tick_all(sim.now());
      run_idle();

      std::uint64_t req = static_cast<std::uint64_t>(r) << 32;
      for (const Probe& pr : in_.probes[static_cast<std::size_t>(r)]) {
        probe_ = &pr;
        answered_ = false;
        ++req;
        const std::int64_t a = now_ns();
        switch (pr.kind) {
          case OpKind::kPos:
            net::send_message(*net, kProbe, leaves[req % leaves.size()],
                              wire::PosQueryReq{ObjectId{pr.obj + 1ULL}, req});
            break;
          case OpKind::kRange: {
            wire::RangeQueryReq m;
            m.area = geo::Polygon::from_rect(
                geo::Rect::from_center(pr.p, spec_.range_half, spec_.range_half));
            m.req_acc = kReqAcc;
            m.req_overlap = kReqOverlap;
            m.req_id = req;
            net::send_message(*net, kProbe, dep.entry_leaf_for(pr.p), m);
            break;
          }
          case OpKind::kNN: {
            wire::NNQueryReq m;
            m.p = pr.p;
            m.req_acc = kReqAcc;
            m.near_qual = kNearQual;
            m.req_id = req;
            net::send_message(*net, kProbe, dep.entry_leaf_for(pr.p), m);
            break;
          }
          case OpKind::kUpdate:
            break;
        }
        run_idle();
        res.probe_us[static_cast<int>(pr.kind)].push_back(
            static_cast<double>(now_ns() - a) / 1000.0);
        const std::int64_t c = now_ns();
        const std::int64_t cc = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
        if (!answer_ok(pr)) ++res.failed;
        check_cpu += cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cc;
        res.check_ns += static_cast<double>(now_ns() - c);
      }
      res.ops += in_.probes[static_cast<std::size_t>(r)].size();
      res.round_cpu_s.push_back(
          static_cast<double>(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0 - check_cpu) / 1e9);
    }
    res.timed_s = (static_cast<double>(now_ns() - start) - res.check_ns) / 1e9;
    trace::set_enabled(false);

    const core::LocationServer::Stats after = dep.total_stats();
    res.messages = sim.messages_sent() - msgs0;
    res.bytes = sim.bytes_sent() - bytes0;
    res.msgs_handled = after.msgs_handled - before.msgs_handled;
    res.sub_res_pinned = after.sub_res_pinned - before.sub_res_pinned;
    res.sub_res_copied = after.sub_res_copied - before.sub_res_copied;
    res.pending_timeouts = after.pending_timeouts - before.pending_timeouts;
    res.decode_errors = after.decode_errors - before.decode_errors;
    res.sightings_expired = after.sightings_expired - before.sightings_expired;
    for (NodeId leaf : leaves) {
      if (const store::SightingDb* db = dep.server(leaf).sightings()) {
        res.store_sightings += db->size();
      }
    }
    net->detach(kGateway);
    net->detach(kProbe);
    sim.set_tracer(nullptr);
    probe_ = nullptr;
    return res;
  }

 private:
  void on_gateway(const std::uint8_t* data, std::size_t len) {
    if (!wire::decode_envelope_into(rx_, data, len).is_ok()) return;
    const wire::Message& msg = rx_.msg;
    const auto obj_of = [this](ObjectId oid) -> std::size_t {
      return oid.value >= 1 && oid.value <= spec_.objects ? oid.value - 1 : SIZE_MAX;
    };
    if (const auto* rr = std::get_if<wire::RegisterRes>(&msg)) {
      const std::size_t obj = rr->req_id - 1;
      if (obj < spec_.objects) {
        agent_[obj] = rr->agent.value;
        acc_[obj] = rr->offered_acc;
        ++registered_;
      }
    } else if (const auto* ch = std::get_if<wire::AgentChanged>(&msg)) {
      const std::size_t obj = obj_of(ch->oid);
      if (obj != SIZE_MAX && ch->new_agent.valid()) {
        agent_[obj] = ch->new_agent.value;
        acc_[obj] = ch->offered_acc;
      }
    } else if (const auto* ack = std::get_if<wire::UpdateAck>(&msg)) {
      const std::size_t obj = obj_of(ack->oid);
      if (obj != SIZE_MAX) acc_[obj] = ack->offered_acc;
    } else if (const auto* back = std::get_if<wire::BatchedUpdateAck>(&msg)) {
      wire::BatchedUpdateAck::Cursor cur = back->acks();
      ObjectId oid;
      double acc = 0;
      while (cur.next(oid, acc)) {
        const std::size_t obj = obj_of(oid);
        if (obj != SIZE_MAX) acc_[obj] = acc;
      }
    }
  }

  void on_probe(const std::uint8_t* data, std::size_t len, RepeatResult& res) {
    if (!wire::decode_envelope_into(rx_, data, len).is_ok() || probe_ == nullptr) return;
    std::uint32_t& crc = res.answer_crc;
    const auto fold = [&crc](const auto& v) { crc = crc32(&v, sizeof v, crc); };
    const auto fold_ld = [&](const core::LocationDescriptor& ld) {
      fold(ld.pos.x);
      fold(ld.pos.y);
      fold(ld.acc);
    };
    if (const auto* pr = std::get_if<wire::PosQueryRes>(&rx_.msg)) {
      fold(pr->req_id);
      fold(pr->found);
      fold_ld(pr->ld);
      // Quiesced replay: the answer is the object's last sighting, exactly.
      const std::size_t obj = probe_->obj;
      answered_ = pr->found && pr->ld.pos.x == last_[obj].x &&
                  pr->ld.pos.y == last_[obj].y && pr->ld.acc == acc_[obj];
    } else if (const auto* rr = std::get_if<wire::RangeQueryRes>(&rx_.msg)) {
      std::vector<core::ObjectResult> v = rr->results.to_vector();
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) { return a.oid < b.oid; });
      fold(rr->req_id);
      fold(rr->complete);
      for (const auto& r : v) {
        fold(r.oid.value);
        fold_ld(r.ld);
      }
      answered_ = rr->complete;
      res.range_results += v.size();
      range_got_ = std::move(v);
    } else if (const auto* nr = std::get_if<wire::NNQueryRes>(&rx_.msg)) {
      fold(nr->req_id);
      fold(nr->found);
      fold(nr->nearest.oid.value);
      fold_ld(nr->nearest.ld);
      answered_ = nr->found;
      nn_oid_ = nr->nearest.oid.value;
      nn_ld_ = nr->nearest.ld;
      res.nn_results += (nr->found ? 1 : 0) + nr->near_set.count;
    }
  }

  bool same(std::size_t obj, const core::LocationDescriptor& ld) const {
    return ld.pos.x == last_[obj].x && ld.pos.y == last_[obj].y && ld.acc == acc_[obj];
  }

  /// Checks the last probe's answer against the replay's own record of last
  /// sightings and offered accuracies (no update is in flight). A pos answer
  /// is checked exactly on arrival. A range answer must hold exactly the
  /// objects whose location area overlaps the range by at least
  /// req_overlap (boundary cases within 1e-9 may go either way), each at its
  /// last sighting. The NN winner must be at its last sighting and at the
  /// minimum distance.
  bool answer_ok(const Probe& pr) const {
    if (!answered_) return false;
    switch (pr.kind) {
      case OpKind::kPos:
      case OpKind::kUpdate:
        return true;
      case OpKind::kRange: {
        const geo::Polygon area = geo::Polygon::from_rect(
            geo::Rect::from_center(pr.p, spec_.range_half, spec_.range_half));
        const geo::Rect box = area.bounding_box().inflated(kReqAcc);
        std::size_t next = 0;  // range_got_ is sorted by oid
        for (std::size_t obj = 0; obj < spec_.objects; ++obj) {
          const int want = range_verdict(area, box, last_[obj], acc_[obj], false);
          if (next < range_got_.size() && range_got_[next].oid.value == obj + 1) {
            if (want == 0 || !same(obj, range_got_[next].ld)) return false;
            ++next;
          } else if (want == 1) {
            return false;  // missing from the answer
          }
        }
        return next == range_got_.size();  // no unknown or duplicate object
      }
      case OpKind::kNN: {
        double best = std::numeric_limits<double>::max();
        for (std::size_t obj = 0; obj < spec_.objects; ++obj) {
          if (acc_[obj] <= kReqAcc) best = std::min(best, geo::distance(last_[obj], pr.p));
        }
        const std::size_t obj = nn_oid_ - 1;
        return nn_oid_ >= 1 && obj < spec_.objects && same(obj, nn_ld_) &&
               std::abs(geo::distance(nn_ld_.pos, pr.p) - best) <= 1e-9;
      }
    }
    return false;
  }

  const ReplayInputs& in_;
  ReplaySpec spec_;
  std::uint64_t seed_;
  bool traced_;
  std::vector<std::uint32_t> agent_;
  std::vector<double> acc_;
  std::vector<geo::Point> last_;
  std::size_t registered_ = 0;
  const Probe* probe_ = nullptr;
  bool answered_ = false;
  std::vector<core::ObjectResult> range_got_;  // last range answer, by oid
  std::uint64_t nn_oid_ = 0;                   // last NN winner
  core::LocationDescriptor nn_ld_;
  wire::Envelope rx_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

void pooled(Json& j, const std::string& name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  j.num(name + "_p50_us", quantile_sorted(v, 0.5));
  j.num(name + "_p99_us", quantile_sorted(v, 0.99));
  j.num(name + "_n", v.size());
}

}  // namespace

int run_replay(const Args& args) {
  // A run replays several commuter rushes, seeded seed*K .. seed*K+K-1.
  // What one rush costs depends on where its zones fall against the leaf
  // grid; the run's figures average over K of them. Scenario 0 checks that
  // inputs regenerate, and scenario 0 of seed+1 that they differ.
  const std::size_t scenarios = replay_spec().scenarios;
  std::vector<std::uint64_t> seeds;
  std::vector<ReplayInputs> ins;
  std::uint32_t in_crc = 0, crc_repeat = 0;
  for (std::size_t k = 0; k < scenarios; ++k) {
    seeds.push_back(args.seed * scenarios + k);
    ins.push_back(make_replay_inputs(seeds.back()));
    const std::uint32_t again = k == 0 ? make_replay_inputs(seeds[0]).crc : ins[k].crc;
    in_crc = crc32(&ins[k].crc, sizeof ins[k].crc, in_crc);
    crc_repeat = crc32(&again, sizeof again, crc_repeat);
  }
  const std::uint32_t crc_other = make_replay_inputs((args.seed + 1) * scenarios).crc;
  if (in_crc != crc_repeat || ins[0].crc == crc_other) {
    std::fprintf(stderr, "replay: input CRC self-check failed\n");
    return 3;
  }

  // Untraced repeats, cycling through the scenarios, until the time budget
  // is spent (at least two of each, so the CRCs are compared). Traced: one
  // untraced and one traced repeat of scenario 0.
  std::vector<RepeatResult> reps;
  std::vector<std::size_t> scenario_of;
  double spent = 0;
  const std::size_t min_reps = args.trace ? 1 : 2 * scenarios;
  double rss_mb = 0;
  while (reps.size() < min_reps || (!args.trace && spent < args.seconds)) {
    const std::size_t k = reps.size() % scenarios;
    reps.push_back(Replay(ins[k], seeds[k], false).run());
    scenario_of.push_back(k);
    // Peak RSS of set-up plus one replay. Each later repeat raises the peak
    // a little (allocator growth), and how many fit in the budget depends
    // on the host's speed.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    spent += reps.back().setup_s + reps.back().timed_s;
  }
  std::optional<RepeatResult> traced;
  if (args.trace) traced = Replay(ins[0], seeds[0], true).run();

  Json j;
  j.num("inputs_crc", in_crc);
  j.num("inputs_crc_repeat", crc_repeat);
  j.num("inputs_crc_other_seed", crc_other);
  j.num("repeats", reps.size());
  bool crc_equal = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, rate, upd, lone;
  std::array<std::vector<double>, kOpKinds> probes;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepeatResult& r = reps[i];
    const RepeatResult& first = reps[scenario_of[i]];  // the scenario's first repeat
    crc_equal = crc_equal && r.trace_crc == first.trace_crc &&
                r.answer_crc == first.answer_crc;
    attempted += r.ops;
    failed += r.failed;
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.ops) / r.timed_s);
    upd.insert(upd.end(), r.update_us.begin(), r.update_us.end());
    lone.insert(lone.end(), r.lone_us.begin(), r.lone_us.end());
    for (int k = 0; k < kOpKinds; ++k) {
      probes[k].insert(probes[k].end(), r.probe_us[k].begin(), r.probe_us[k].end());
    }
  }
  if (traced) {
    crc_equal = crc_equal && traced->trace_crc == reps[0].trace_crc &&
                traced->answer_crc == reps[0].answer_crc;
  }
  j.num("trace_crc", reps[0].trace_crc);
  j.num("answer_crc", reps[0].answer_crc);
  j.num("crc_equal", crc_equal ? 1 : 0);
  j.num("attempted", attempted);
  j.num("failed", failed);
  j.num("setup_s", median(setup));
  j.num("replay_ops_per_s", median(rate));
  // Ops per CPU-second of the replay thread over all scenarios: CPU time
  // leaves out the time the thread waited for a CPU, which on a shared host
  // moves wall-clock rates far more than the program does. Each round's
  // CPU time is the median over its scenario's repeats.
  double all_cpu_s = 0, all_ops = 0;
  for (std::size_t k = 0; k < std::min(scenarios, reps.size()); ++k) {
    all_ops += static_cast<double>(reps[k].ops);
    for (std::size_t r = 0; r < reps[k].round_cpu_s.size(); ++r) {
      std::vector<double> per_rep;
      for (std::size_t i = k; i < reps.size(); i += scenarios) {
        per_rep.push_back(reps[i].round_cpu_s[r]);
      }
      all_cpu_s += median(per_rep);
    }
  }
  j.num("ops_per_cpu_s", all_ops / all_cpu_s);
  pooled(j, "update", upd);
  pooled(j, "light_update", lone);
  for (OpKind k : {OpKind::kPos, OpKind::kRange, OpKind::kNN}) {
    pooled(j, op_kind_name(k), probes[static_cast<int>(k)]);
  }
  j.num("rss_mb", rss_mb);

  const RepeatResult& c = traced ? *traced : reps[0];
  const double ops = static_cast<double>(c.ops);
  j.num("ops", c.ops);
  j.num("messages", c.messages);
  j.num("bytes", c.bytes);
  j.num("msgs_handled", c.msgs_handled);
  j.num("sub_res_pinned", c.sub_res_pinned);
  j.num("sub_res_copied", c.sub_res_copied);
  j.num("pending_timeouts", c.pending_timeouts);
  j.num("decode_errors", c.decode_errors);
  j.num("sightings_expired", c.sightings_expired);
  j.num("store_sightings", c.store_sightings);
  j.num("msgs_per_op", static_cast<double>(c.msgs_handled) / ops);
  j.num("range_results", c.range_results);
  j.num("nn_results", c.nn_results);
  if (traced) {
    j.num("traced_replay_ops_per_s", ops / traced->timed_s);
    j.num("sim_queue_ns_per_msg",
          (traced->idle_ns - traced->handler_ns) / static_cast<double>(traced->delivered));
    add_summary(j, trace::summarize());
    const trace::CodecReplay codec = trace::replay_codec(0.3);
    j.num("codec_datagrams", codec.datagrams);
    j.num("codec_failures", codec.failures);
    j.num("decode_ns", codec.decode_ns);
    j.num("encode_ns", codec.encode_ns);
    if (!args.span_path.empty()) trace::dump_spans(args.span_path);
  }
  std::printf("result %s\n", j.str().c_str());
  return 0;
}

}  // namespace pb
