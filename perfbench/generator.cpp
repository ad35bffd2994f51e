// Load generator of the UDP workloads: one process, two client NodeIds
// (kUpdater impersonates every tracked object, kQuerier issues queries),
// three threads (the sending main thread plus one UdpNetwork receive
// thread per client node).
//
// Arrivals are open-loop: each phase replays a pre-generated unit-rate
// Poisson stream scaled to the phase rate, and every latency is measured
// from the op's scheduled send time, so generator stalls count against the
// system. Line commands on stdin:
//   register -> registers every object, replies "registered <t_ns> <n>"
//   phase P N -> runs fixed-rate phase P (nominal, light or probe) for
//               1/N of its share of the run, replies "phase-done <ops>"
//   search   -> runs the capacity search, replies "result <json>" with the
//               results of the whole run
//   quit     -> replies "bye"
#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>

#include "common.hpp"
#include "core/types.hpp"
#include "net/udp_network.hpp"
#include "wire/messages.hpp"

namespace pb {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;
using trace::now_ns;

struct Answer {
  bool found = false;
  bool complete = false;
  core::LocationDescriptor ld;  // pos, and the nn winner
  std::uint64_t oid = 0;        // nn winner
  std::vector<core::ObjectResult> objects;  // range
};

/// One execution of an op stream at a fixed offered rate.
struct PhaseRun {
  std::uint32_t id = 0;
  const std::vector<Op>* ops = nullptr;
  std::size_t n = 0;
  std::vector<std::int64_t> due;  // absolute scheduled send times (ns)
  std::unique_ptr<std::atomic<std::int64_t>[]> done;  // completion ns; 0 = none
  std::unique_ptr<std::atomic<std::uint8_t>[]> bad;   // answered, but failed
  std::atomic<std::size_t> completed{0};
  std::vector<std::int64_t> sent;
  bool record = false;
  std::vector<Answer> answers;
};

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::array<std::vector<double>, kOpKinds> lat_us;  // successes, schedule order
  double all_p99_us = 0;   // all ops, a failure counting as infinitely late
  double tail_p99_us = 0;  // same, over the final quarter of the schedule
  double lateness_p99_us = 0;
};

double p(const std::vector<double>& v, double q) { return quantile_sorted(v, q); }

class Generator {
 public:
  explicit Generator(const Args& a)
      : spec_(udp_spec(a.workload)),
        phases_(udp_phases(a.workload, a.seconds)),
        topo_(udp_topology(a.workload)),
        net_(a.port),
        pending_(spec_.objects),
        agent_(spec_.objects),
        acked_pos_(spec_.objects),
        acked_acc_(spec_.objects, 0.0),
        ambiguous_(spec_.objects, 0) {
    inputs_ = make_udp_inputs(a.workload, a.seed, phases_);
    // Seed self-check: the same seed regenerates the same inputs, another
    // seed different ones.
    crc_repeat_ = make_udp_inputs(a.workload, a.seed, phases_).crc;
    crc_other_ = make_udp_inputs(a.workload, a.seed + 1, phases_).crc;
    for (auto& x : pending_) x.store(kNone);
    net_.attach(kUpdater, net::DatagramHandler([this](const net::Datagram& dg) {
      on_updater(dg.data(), dg.size());
    }));
    net_.attach(kQuerier, net::DatagramHandler([this](const net::Datagram& dg) {
      on_querier(dg.data(), dg.size());
    }));
  }

  ~Generator() {
    net_.detach(kUpdater);
    net_.detach(kQuerier);
    net_.stop();
  }

  bool inputs_ok() const { return inputs_.crc == crc_repeat_ && inputs_.crc != crc_other_; }

  /// Registers every object at the leaf covering its initial position.
  bool register_all(std::int64_t& t_done) {
    ++reg_generation_;
    reg_done_.store(0);
    for (auto& x : pending_) x.store(kNone);
    std::fill(ambiguous_.begin(), ambiguous_.end(), 0);
    const std::size_t n = spec_.objects;
    constexpr std::size_t kWindow = 256;
    const std::int64_t deadline = now_ns() + 20'000'000'000LL;
    for (std::size_t i = 0; i < n; ++i) {
      while (i >= reg_done_.load(std::memory_order_acquire) + kWindow) {
        if (now_ns() > deadline) return false;
        std::this_thread::yield();
      }
      wire::RegisterReq req;
      req.s = core::Sighting{ObjectId{i + 1}, 0, inputs_.initial[i], kSensorAcc};
      req.acc_range = {kAccDesired, kAccMinimum};
      req.reg_inst = kUpdater;
      req.req_id = reg_generation_.load() * 1'000'000ULL + i;
      send(kUpdater, topo_.leaf_for(inputs_.initial[i]), req);
    }
    while (reg_done_.load(std::memory_order_acquire) < n) {
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    t_done = now_ns();
    return true;
  }

  /// One episode's share of a fixed-rate phase: nominal, light, or the
  /// quiesced query phase whose answers the oracle checks. Every episode
  /// runs on a freshly built and registered deployment and replays the same
  /// inputs; the latencies of all episodes are pooled, so no single set of
  /// thread placements decides a run. Failures here are the run's failures.
  /// Returns the number of ops offered, or 0 for an unknown phase.
  std::size_t run_fixed(const std::string& name, int episodes) {
    const std::vector<Op>* ops = nullptr;
    double rate = 0, seconds = 0;
    if (name == "nominal") {
      ops = &inputs_.nominal, rate = spec_.nominal_rate, seconds = phases_.nominal;
    } else if (name == "light") {
      ops = &inputs_.light, rate = spec_.light_rate, seconds = phases_.light;
    } else if (name == "probe") {
      ops = &inputs_.probe, rate = spec_.probe_rate, seconds = phases_.probe;
    } else {
      return 0;
    }
    const PhaseResult res = run_phase(*ops, rate, seconds / episodes, name == "probe");
    attempted_ += res.attempted;
    failed_ += res.failed;
    lateness_p99_us_ = std::max(lateness_p99_us_, res.lateness_p99_us);
    auto& pooled = pooled_[name];
    for (int k = 0; k < kOpKinds; ++k) {
      pooled[k].insert(pooled[k].end(), res.lat_us[k].begin(), res.lat_us[k].end());
    }
    if (name == "probe") {
      // No update is in flight during the query phase, so every answer can
      // be checked exactly against the acknowledged state.
      const Oracle o = check_oracle(*runs_.back());
      failed_ += o.mismatch;
      oracle_.checked += o.checked;
      oracle_.mismatch += o.mismatch;
      oracle_.skipped += o.skipped;
    }
    return res.attempted;
  }

  /// Capacity search, run after the fixed phases so its overload trials
  /// cannot disturb them: ramp by kSearchStep from search_start until a
  /// rate fails, then bisect geometrically until fail/pass is within
  /// kSearchResolution or the search's share of the run is spent. A rate
  /// passes when one of two trials meets the limit, so a single host stall
  /// cannot fail it. Replies with every result of the run.
  std::string run_search() {
    double pass = 0, fail = 0, r = spec_.search_start;
    int trials = 0;
    const std::int64_t budget_end =
        now_ns() + static_cast<std::int64_t>(phases_.search * 1e9);
    const auto trial = [&](double rate) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        ++trials;
        const PhaseResult res = run_phase(inputs_.search, rate, phases_.trial, false);
        settle();
        if (meets_limit(res)) return true;
      }
      return false;
    };
    while (r <= spec_.search_max) {
      if (!trial(r)) {
        fail = r;
        break;
      }
      pass = r;
      r *= kSearchStep;
    }
    while (pass == 0 && fail > 1000 && now_ns() < budget_end) {  // the start rate failed
      r = fail / 2;
      (trial(r) ? pass : fail) = r;
    }
    while (fail > 0 && pass > 0 && fail / pass > kSearchResolution &&
           now_ns() < budget_end) {
      const double mid = std::sqrt(pass * fail);
      (trial(mid) ? pass : fail) = mid;
    }

    Json j;
    j.num("latency_limit_us", spec_.latency_limit_us);
    j.num("inputs_crc", inputs_.crc);
    j.num("inputs_crc_repeat", crc_repeat_);
    j.num("inputs_crc_other_seed", crc_other_);
    for (const auto& [name, pooled] : pooled_) {
      for (int k = 0; k < kOpKinds; ++k) {
        std::vector<double> sorted = pooled[k];
        std::sort(sorted.begin(), sorted.end());
        const std::string op = name + "." + op_kind_name(static_cast<OpKind>(k));
        j.num(op + "_p50_us", p(sorted, 0.5));
        j.num(op + "_p99_us", p(sorted, 0.99));
        j.num(op + "_n", sorted.size());
      }
    }
    j.num("oracle_checked", oracle_.checked);
    j.num("oracle_mismatch", oracle_.mismatch);
    j.num("oracle_skipped", oracle_.skipped);
    j.num("attempted", attempted_);
    j.num("failed", failed_);
    j.num("lateness_p99_us", lateness_p99_us_);
    j.num("capacity_ops_per_s", pass);
    j.num("capacity_resolution", pass > 0 && fail > 0 ? fail / pass : 0.0);
    j.num("search_trials", trials);
    j.num("ops_sent", ops_sent_);
    j.num("gen_bytes_sent", bytes_sent_);
    j.num("gen_datagrams_sent", datagrams_sent_);
    j.num("range_results", range_results_.load());
    j.num("nn_results", nn_results_.load());
    return j.str();
  }

 private:
  /// Waits until the server has worked off an overload trial's backlog: no
  /// answer (late ones included) for 100 ms, at most 3 s.
  void settle() const {
    const std::int64_t give_up = now_ns() + 3'000'000'000LL;
    while (now_ns() < give_up &&
           now_ns() - last_rx_ns_.load(std::memory_order_relaxed) < 100'000'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  struct Oracle {
    std::size_t checked = 0, mismatch = 0, skipped = 0;
  };

  template <typename M>
  void send(NodeId from, NodeId to, const M& msg) {
    net::PooledBuffer buf = net_.make_buffer();
    wire::encode_envelope_into(*buf, from, msg);
    bytes_sent_ += buf.size();
    ++datagrams_sent_;
    net_.send(from, to, std::move(buf));
  }

  bool meets_limit(const PhaseResult& r) const {
    const double L = spec_.latency_limit_us;
    return static_cast<double>(r.failed) <= 0.001 * static_cast<double>(r.attempted) &&
           r.all_p99_us <= L && r.tail_p99_us <= L && r.lateness_p99_us <= L;
  }

  PhaseResult run_phase(const std::vector<Op>& ops, double rate, double seconds,
                        bool record) {
    auto owned = std::make_unique<PhaseRun>();
    PhaseRun& run = *owned;
    run.id = static_cast<std::uint32_t>(runs_.size() + 1);
    run.ops = &ops;
    while (run.n < ops.size() && ops[run.n].t / rate < seconds) ++run.n;
    run.done = std::make_unique<std::atomic<std::int64_t>[]>(run.n);
    run.bad = std::make_unique<std::atomic<std::uint8_t>[]>(run.n);
    run.sent.assign(run.n, 0);
    run.record = record;
    if (record) run.answers.resize(run.n);
    const std::int64_t t0 = now_ns() + 2'000'000;
    run.due.resize(run.n);
    for (std::size_t i = 0; i < run.n; ++i) {
      run.due[i] = t0 + static_cast<std::int64_t>(ops[i].t / rate * 1e9);
    }
    runs_.push_back(std::move(owned));
    current_.store(&run, std::memory_order_release);

    std::size_t i = 0;
    while (i < run.n) {
      std::int64_t now = now_ns();
      const std::int64_t ahead = run.due[i] - now;
      // Sleep (timer slack is 1 ns) rather than spin where possible: a
      // sleeping sender is woken ahead of busy threads, a spinning one waits
      // for its time slice.
      if (ahead > 30'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 15'000));
        continue;
      }
      if (ahead > 0) continue;  // spin the last stretch
      // Everything already due leaves in one corked burst.
      net_.cork(kUpdater);
      net_.cork(kQuerier);
      for (int burst = 0; burst < 64 && i < run.n && run.due[i] <= now; ++burst, ++i) {
        run.sent[i] = now;
        send_op(run, i);
      }
      net_.uncork(kQuerier);
      net_.uncork(kUpdater);
    }
    ops_sent_ += run.n;

    // Drain: wait for every answer or give up well past the limit.
    const std::int64_t drain_ns = std::max<std::int64_t>(
        200'000'000, static_cast<std::int64_t>(4 * spec_.latency_limit_us * 1000));
    const std::int64_t give_up = (run.n ? run.due[run.n - 1] : now_ns()) + drain_ns;
    while (run.completed.load(std::memory_order_acquire) < run.n && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    current_.store(nullptr, std::memory_order_release);
    // An update still unanswered leaves its object's acknowledged state
    // unknown: the oracle skips such objects.
    for (std::size_t obj = 0; obj < pending_.size(); ++obj) {
      if (pending_[obj].exchange(kNone) != kNone) ambiguous_[obj] = 1;
    }
    return summarize(run);
  }

  void send_op(PhaseRun& run, std::size_t i) {
    const Op& op = (*run.ops)[i];
    const std::uint64_t req_id = (static_cast<std::uint64_t>(run.id) << 32) | i;
    switch (op.kind) {
      case OpKind::kUpdate: {
        if (pending_[op.obj].exchange(static_cast<std::uint32_t>(i)) != kNone) {
          ambiguous_[op.obj] = 1;  // previous update of this object unanswered
        }
        wire::UpdateReq m;
        m.s = core::Sighting{ObjectId{op.obj + 1ULL}, 0, op.p, kSensorAcc};
        send(kUpdater, NodeId{agent_[op.obj].load(std::memory_order_relaxed)}, m);
        break;
      }
      case OpKind::kPos:
        send(kQuerier, NodeId{op.entry}, wire::PosQueryReq{ObjectId{op.obj + 1ULL}, req_id});
        break;
      case OpKind::kRange: {
        wire::RangeQueryReq m;
        m.area = geo::Polygon::from_rect(geo::Rect::from_center(op.p, kRangeHalf, kRangeHalf));
        m.req_acc = kReqAcc;
        m.req_overlap = kReqOverlap;
        m.req_id = req_id;
        send(kQuerier, NodeId{op.entry}, m);
        break;
      }
      case OpKind::kNN: {
        wire::NNQueryReq m;
        m.p = op.p;
        m.req_acc = kReqAcc;
        m.near_qual = kNearQual;
        m.req_id = req_id;
        send(kQuerier, NodeId{op.entry}, m);
        break;
      }
    }
  }

  PhaseResult summarize(const PhaseRun& run) const {
    PhaseResult r;
    r.attempted = run.n;
    std::vector<double> all, tail, late;
    all.reserve(run.n);
    const std::size_t tail_from = run.n - run.n / 4;
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < run.n; ++i) {
      const std::int64_t d = run.done[i].load(std::memory_order_acquire);
      double lat = inf;
      if (d != 0 && run.bad[i].load() == 0) {
        lat = static_cast<double>(d - run.due[i]) / 1000.0;
        r.lat_us[static_cast<int>((*run.ops)[i].kind)].push_back(lat);
      } else {
        ++r.failed;
      }
      all.push_back(lat);
      if (i >= tail_from) tail.push_back(lat);
      late.push_back(static_cast<double>(run.sent[i] - run.due[i]) / 1000.0);
    }
    std::sort(all.begin(), all.end());
    std::sort(tail.begin(), tail.end());
    std::sort(late.begin(), late.end());
    r.all_p99_us = p(all, 0.99);
    r.tail_p99_us = p(tail, 0.99);
    r.lateness_p99_us = p(late, 0.99);
    return r;
  }

  void complete(PhaseRun& run, std::size_t i, bool ok) {
    if (!ok) run.bad[i].store(1);
    std::int64_t expected = 0;
    if (run.done[i].compare_exchange_strong(expected, now_ns(), std::memory_order_acq_rel)) {
      run.completed.fetch_add(1, std::memory_order_release);
    }
  }

  void on_updater(const std::uint8_t* data, std::size_t len) {
    last_rx_ns_.store(now_ns(), std::memory_order_relaxed);
    if (!wire::decode_envelope_into(rx_updater_, data, len).is_ok()) return;
    const wire::Message& msg = rx_updater_.msg;
    if (const auto* res = std::get_if<wire::RegisterRes>(&msg)) {
      const std::uint64_t obj = res->req_id % 1'000'000ULL;
      if (res->req_id / 1'000'000ULL != reg_generation_.load() || obj >= spec_.objects) return;
      agent_[obj].store(res->agent.value);
      acked_pos_[obj] = inputs_.initial[obj];
      acked_acc_[obj] = res->offered_acc;
      reg_done_.fetch_add(1, std::memory_order_release);
      return;
    }
    ObjectId oid;
    double acc = 0;
    bool ok = true;
    if (const auto* ack = std::get_if<wire::UpdateAck>(&msg)) {
      oid = ack->oid;
      acc = ack->offered_acc;
    } else if (const auto* ch = std::get_if<wire::AgentChanged>(&msg)) {
      oid = ch->oid;
      acc = ch->offered_acc;
      ok = ch->new_agent.valid();
      if (ok && oid.value >= 1 && oid.value <= spec_.objects) {
        agent_[oid.value - 1].store(ch->new_agent.value);
      }
    } else {
      return;
    }
    if (oid.value < 1 || oid.value > spec_.objects) return;
    const std::size_t obj = oid.value - 1;
    const std::uint32_t slot = pending_[obj].exchange(kNone);
    PhaseRun* run = current_.load(std::memory_order_acquire);
    if (slot == kNone || run == nullptr || slot >= run->n) return;
    acked_pos_[obj] = (*run->ops)[slot].p;
    acked_acc_[obj] = acc;
    complete(*run, slot, ok);
  }

  void on_querier(const std::uint8_t* data, std::size_t len) {
    last_rx_ns_.store(now_ns(), std::memory_order_relaxed);
    if (!wire::decode_envelope_into(rx_querier_, data, len).is_ok()) return;
    PhaseRun* run = current_.load(std::memory_order_acquire);
    if (run == nullptr) return;
    std::uint64_t req_id = 0;
    std::visit(
        [&req_id](const auto& m) {
          if constexpr (requires { m.req_id; }) req_id = m.req_id;
        },
        rx_querier_.msg);
    const std::size_t i = req_id & 0xffffffffULL;
    if ((req_id >> 32) != run->id || i >= run->n) return;
    Answer* ans = run->record ? &run->answers[i] : nullptr;
    bool ok = false;
    if (const auto* pr = std::get_if<wire::PosQueryRes>(&rx_querier_.msg)) {
      ok = pr->found;  // every queried object is registered
      if (ans) {
        ans->found = pr->found;
        ans->ld = pr->ld;
      }
    } else if (const auto* rr = std::get_if<wire::RangeQueryRes>(&rx_querier_.msg)) {
      ok = rr->complete;
      range_results_.fetch_add(rr->results.count, std::memory_order_relaxed);
      if (ans) {
        ans->complete = rr->complete;
        ans->objects = rr->results.to_vector();
      }
    } else if (const auto* nr = std::get_if<wire::NNQueryRes>(&rx_querier_.msg)) {
      ok = nr->found;
      nn_results_.fetch_add(1 + nr->near_set.count, std::memory_order_relaxed);
      if (ans) {
        ans->found = nr->found;
        ans->oid = nr->nearest.oid.value;
        ans->ld = nr->nearest.ld;
      }
    } else {
      return;
    }
    complete(*run, i, ok);
  }

  /// Compares the quiesced probe answers with the acknowledged positions and
  /// offered accuracies. Objects whose last update went unanswered are
  /// skipped (their server-side state is unknown).
  Oracle check_oracle(const PhaseRun& run) const {
    Oracle o;
    const auto same = [&](std::size_t obj, const core::LocationDescriptor& ld) {
      return ld.pos.x == acked_pos_[obj].x && ld.pos.y == acked_pos_[obj].y &&
             ld.acc == acked_acc_[obj];
    };
    for (std::size_t i = 0; i < run.n; ++i) {
      if (run.done[i].load() == 0) continue;  // already failed (timeout)
      const Op& op = (*run.ops)[i];
      const Answer& a = run.answers[i];
      bool ok = true;
      switch (op.kind) {
        case OpKind::kUpdate:
          continue;
        case OpKind::kPos:
          if (ambiguous_[op.obj]) {
            ++o.skipped;
            continue;
          }
          ok = a.found && same(op.obj, a.ld);
          break;
        case OpKind::kRange: {
          const geo::Polygon area =
              geo::Polygon::from_rect(geo::Rect::from_center(op.p, kRangeHalf, kRangeHalf));
          const geo::Rect box = area.bounding_box().inflated(kReqAcc);
          std::vector<int> want(spec_.objects);
          for (std::size_t obj = 0; obj < spec_.objects; ++obj) {
            want[obj] = range_verdict(area, box, acked_pos_[obj], acked_acc_[obj],
                                      ambiguous_[obj] != 0);
          }
          std::vector<std::uint8_t> got(spec_.objects, 0);
          for (const core::ObjectResult& r : a.objects) {
            const std::size_t obj = r.oid.value - 1;
            if (r.oid.value < 1 || obj >= spec_.objects || got[obj]) {
              ok = false;  // unknown or duplicate object
              continue;
            }
            got[obj] = 1;
            if (want[obj] == 0 || (want[obj] == 1 && !same(obj, r.ld))) ok = false;
          }
          for (std::size_t obj = 0; obj < spec_.objects; ++obj) {
            if (want[obj] == 1 && !got[obj]) ok = false;
          }
          ok = ok && a.complete;
          break;
        }
        case OpKind::kNN: {
          double best = std::numeric_limits<double>::max();
          bool unsure = false;
          for (std::size_t obj = 0; obj < spec_.objects; ++obj) {
            if (acked_acc_[obj] > kReqAcc) continue;
            const double d = geo::distance(acked_pos_[obj], op.p);
            if (ambiguous_[obj]) {
              unsure = unsure || d <= best;
              continue;
            }
            best = std::min(best, d);
          }
          if (unsure) {
            ++o.skipped;
            continue;
          }
          const std::size_t obj = a.oid - 1;
          ok = a.found && a.oid >= 1 && obj < spec_.objects && same(obj, a.ld) &&
               std::abs(geo::distance(a.ld.pos, op.p) - best) <= 1e-9;
          break;
        }
      }
      ++o.checked;
      if (!ok) ++o.mismatch;
    }
    return o;
  }

  UdpSpec spec_;
  UdpPhases phases_;
  core::HierarchySpec topo_;
  UdpInputs inputs_;
  std::uint32_t crc_repeat_ = 0;
  std::uint32_t crc_other_ = 0;
  net::UdpNetwork net_;

  std::vector<std::atomic<std::uint32_t>> pending_;  // op index of the in-flight update
  std::vector<std::atomic<std::uint32_t>> agent_;    // current agent NodeId value
  std::vector<geo::Point> acked_pos_;                // receive thread writes
  std::vector<double> acked_acc_;
  std::vector<std::uint8_t> ambiguous_;              // main thread writes

  std::atomic<std::uint64_t> reg_generation_{0};
  std::atomic<std::size_t> reg_done_{0};
  std::atomic<PhaseRun*> current_{nullptr};
  std::atomic<std::int64_t> last_rx_ns_{0};  // any datagram received
  std::vector<std::unique_ptr<PhaseRun>> runs_;  // kept alive for late answers
  wire::Envelope rx_updater_;
  wire::Envelope rx_querier_;
  std::uint64_t ops_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t datagrams_sent_ = 0;
  std::atomic<std::uint64_t> range_results_{0};
  std::atomic<std::uint64_t> nn_results_{0};
  // Pooled over the fixed-phase episodes: latencies per phase and kind.
  std::map<std::string, std::array<std::vector<double>, kOpKinds>> pooled_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  double lateness_p99_us_ = 0;
  Oracle oracle_;
};

}  // namespace

int run_generator(const Args& args) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Generator gen(args);
  if (!gen.inputs_ok()) {
    std::fprintf(stderr, "generator: input CRC self-check failed\n");
    return 3;
  }
  std::printf("gen ready\n");
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "register") {
      std::int64_t t = 0;
      if (!gen.register_all(t)) {
        std::printf("register-failed\n");
        std::fflush(stdout);
        return 4;
      }
      std::printf("registered %lld\n", static_cast<long long>(t));
    } else if (line.rfind("phase ", 0) == 0) {
      char name[16] = {};
      int episodes = 1;
      const std::size_t ops =
          std::sscanf(line.c_str() + 6, "%15s %d", name, &episodes) == 2
              ? gen.run_fixed(name, std::max(1, episodes))
              : 0;
      if (ops == 0) {
        std::fprintf(stderr, "generator: bad phase command '%s'\n", line.c_str());
        return 2;
      }
      std::printf("phase-done %zu\n", ops);
    } else if (line == "search") {
      std::printf("result %s\n", gen.run_search().c_str());
    } else if (line == "quit") {
      std::printf("bye\n");
      std::fflush(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "generator: unknown command '%s'\n", line.c_str());
      return 2;
    }
    std::fflush(stdout);
  }
  return 1;
}

}  // namespace pb
