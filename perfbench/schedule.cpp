#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/hierarchy_builder.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace pb {

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "hot-leaf-update") {
    out = Workload::kHotLeafUpdate;
  } else if (name == "city-mixed") {
    out = Workload::kCityMixed;
  } else if (name == "commuter-replay") {
    out = Workload::kCommuterReplay;
  } else {
    return false;
  }
  return true;
}

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kUpdate: return "update";
    case OpKind::kPos: return "pos";
    case OpKind::kRange: return "range";
    case OpKind::kNN: return "nn";
  }
  return "?";
}

UdpSpec udp_spec(Workload w) {
  UdpSpec s;
  if (w == Workload::kHotLeafUpdate) {
    s.hot_shards = 4;
    s.nominal_rate = 40000;
    s.light_rate = 5000;
    s.search_start = 100000;
    s.search_max = 400000;
    s.latency_limit_us = 20000;
    s.p_update = 1.0;
    s.step_m = 3.0;
    s.probe_rate = 2000;
  } else {
    s.nominal_rate = 15000;
    s.light_rate = 5000;
    s.search_start = 20000;
    s.search_max = 400000;
    s.latency_limit_us = 20000;
    s.p_update = 0.5;
    s.step_m = 25.0;
    s.probe_rate = 3000;
  }
  return s;
}

core::HierarchySpec udp_topology(Workload w) {
  core::HierarchySpec spec =
      core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kUdpArea, kUdpArea}});
  const UdpSpec s = udp_spec(w);
  if (s.hot_shards > 1) {
    const NodeId hot = hot_leaf(spec);
    for (core::HierarchySpec::Node& n : spec.nodes) {
      if (n.id == hot) n.leaf_shards = s.hot_shards;
    }
  }
  return spec;
}

NodeId hot_leaf(const core::HierarchySpec& spec) {
  std::vector<NodeId> leaves = spec.leaves();
  return *std::min_element(leaves.begin(), leaves.end(),
                           [](NodeId a, NodeId b) { return a.value < b.value; });
}

UdpPhases udp_phases(Workload w, double seconds) {
  UdpPhases ph;
  ph.search = 0.45 * seconds;
  if (w == Workload::kHotLeafUpdate) {
    ph.nominal = 0.15 * seconds;
    ph.light = 0.15 * seconds;
    ph.probe = 0.25 * seconds;
  } else {
    ph.nominal = 0.3 * seconds;
    ph.light = 0.2 * seconds;
    ph.probe = 0.05 * seconds;
  }
  return ph;
}

namespace {

std::uint32_t crc_ops(const std::vector<Op>& ops, std::uint32_t crc) {
  for (const Op& op : ops) {
    crc = crc32(&op.t, sizeof op.t, crc);
    const std::uint8_t k = static_cast<std::uint8_t>(op.kind);
    crc = crc32(&k, 1, crc);
    crc = crc32(&op.obj, sizeof op.obj, crc);
    crc = crc32(&op.p.x, sizeof op.p.x, crc);
    crc = crc32(&op.p.y, sizeof op.p.y, crc);
    crc = crc32(&op.entry, sizeof op.entry, crc);
  }
  return crc;
}

std::uint32_t crc_points(const std::vector<geo::Point>& pts, std::uint32_t crc) {
  for (const geo::Point& p : pts) {
    crc = crc32(&p.x, sizeof p.x, crc);
    crc = crc32(&p.y, sizeof p.y, crc);
  }
  return crc;
}

geo::Rect node_rect(const core::HierarchySpec& spec, NodeId id) {
  return spec.find(id)->cfg.sa.bounding_box();
}

geo::Point clamp_to(const geo::Rect& r, geo::Point p) {
  return {std::clamp(p.x, r.min.x, r.max.x), std::clamp(p.y, r.min.y, r.max.y)};
}

/// Generates unit-rate streams for one UDP workload. Updates walk each
/// object from its last generated position; the object order is a seeded
/// permutation cycled round-robin, so an object recurs only every
/// `objects` ops and never has two updates in flight below capacity.
class UdpStreamGen {
 public:
  UdpStreamGen(Workload w, std::uint64_t seed)
      : w_(w), spec_(udp_spec(w)), topo_(udp_topology(w)) {
    sim::WorkloadParams wp;
    hot_ = hot_leaf(topo_);
    hot_rect_ = node_rect(topo_, hot_);
    wp.area = w == Workload::kHotLeafUpdate ? hot_rect_
                                            : geo::Rect{{0, 0}, {kUdpArea, kUdpArea}};
    wp.mix = sim::QueryMix{0.4, 0.4, 0.2};
    wp.locality = 0.8;
    wp.range_extent = 2 * kRangeHalf;
    gen_ = std::make_unique<sim::WorkloadGenerator>(wp, seed);
    walk_area_ = w == Workload::kHotLeafUpdate ? hot_rect_.inflated(-1.0)
                                               : geo::Rect{{1, 1}, {kUdpArea - 1, kUdpArea - 1}};
    Rng& rng = gen_->rng();
    pos_.resize(spec_.objects);
    for (geo::Point& p : pos_) {
      p = {rng.uniform(walk_area_.min.x, walk_area_.max.x),
           rng.uniform(walk_area_.min.y, walk_area_.max.y)};
    }
    order_.resize(spec_.objects);
    std::iota(order_.begin(), order_.end(), 0u);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
    population_.reserve(spec_.objects);
    for (std::size_t i = 0; i < spec_.objects; ++i) population_.push_back(ObjectId{i + 1});
  }

  const std::vector<geo::Point>& positions() const { return pos_; }

  /// `kind_block` > 0 replaces the random query mix with blocks of that
  /// many queries of one kind, cycling pos, range, NN, so each kind is
  /// measured without the others queued beside it.
  std::vector<Op> stream(std::size_t n, double p_update, std::size_t kind_block = 0) {
    std::vector<Op> ops(n);
    std::size_t queries = 0;
    Rng& rng = gen_->rng();
    double t = 0;
    const geo::Rect client_area = w_ == Workload::kHotLeafUpdate
                                      ? hot_rect_
                                      : geo::Rect{{0, 0}, {kUdpArea, kUdpArea}};
    for (Op& op : ops) {
      t += -std::log(1.0 - rng.next_double());
      op.t = t;
      if (rng.next_double() < p_update) {
        op.kind = OpKind::kUpdate;
        op.obj = order_[next_obj_++ % order_.size()];
        const double ang = rng.uniform(0.0, 2.0 * M_PI);
        geo::Point& cur = pos_[op.obj];
        cur = clamp_to(walk_area_, {cur.x + spec_.step_m * std::cos(ang),
                                    cur.y + spec_.step_m * std::sin(ang)});
        op.p = cur;
        continue;
      }
      const geo::Point client{rng.uniform(client_area.min.x, client_area.max.x),
                              rng.uniform(client_area.min.y, client_area.max.y)};
      op.entry = topo_.leaf_for(client).value;
      if (kind_block > 0) {
        op.kind = static_cast<OpKind>(1 + queries++ / kind_block % 3);
        if (op.kind == OpKind::kPos) {
          op.obj = static_cast<std::uint32_t>(rng.next_below(spec_.objects));
        } else {
          op.p = gen_->anchor(client);
        }
        continue;
      }
      const sim::QueryOp q = gen_->next(client, population_);
      switch (q.kind) {
        case sim::QueryOp::Kind::kPos:
          op.kind = OpKind::kPos;
          op.obj = static_cast<std::uint32_t>(q.target.value - 1);
          break;
        case sim::QueryOp::Kind::kRange: {
          op.kind = OpKind::kRange;
          const geo::Rect& b = q.area.bounding_box();
          op.p = {(b.min.x + b.max.x) / 2, (b.min.y + b.max.y) / 2};
          break;
        }
        case sim::QueryOp::Kind::kNN:
          op.kind = OpKind::kNN;
          op.p = q.p;
          break;
      }
    }
    return ops;
  }

 private:
  Workload w_;
  UdpSpec spec_;
  core::HierarchySpec topo_;
  NodeId hot_;
  geo::Rect hot_rect_;
  geo::Rect walk_area_;
  std::unique_ptr<sim::WorkloadGenerator> gen_;
  std::vector<geo::Point> pos_;
  std::vector<std::uint32_t> order_;
  std::vector<ObjectId> population_;
  std::size_t next_obj_ = 0;
};

std::size_t ops_for(double rate, double seconds) {
  return static_cast<std::size_t>(rate * seconds * 1.05) + 64;
}

}  // namespace

UdpInputs make_udp_inputs(Workload w, std::uint64_t seed, const UdpPhases& ph) {
  const UdpSpec spec = udp_spec(w);
  UdpStreamGen gen(w, seed);
  UdpInputs in;
  in.initial = gen.positions();
  in.search = gen.stream(ops_for(spec.search_max, ph.trial), spec.p_update);
  in.nominal = gen.stream(ops_for(spec.nominal_rate, ph.nominal), spec.p_update);
  in.light = gen.stream(ops_for(spec.light_rate, ph.light), spec.p_update);
  // The hot leaf's query phase measures each kind alone (blocks of 250,
  // about 50 ms each); city-mixed interleaves them, as its users do.
  in.probe = gen.stream(ops_for(spec.probe_rate, ph.probe), 0.0,
                        w == Workload::kHotLeafUpdate ? 250 : 0);
  std::uint32_t crc = crc_points(in.initial, 0);
  crc = crc_ops(in.search, crc);
  crc = crc_ops(in.nominal, crc);
  crc = crc_ops(in.light, crc);
  in.crc = crc_ops(in.probe, crc);
  return in;
}

ReplaySpec replay_spec() { return ReplaySpec{}; }

ReplayInputs make_replay_inputs(std::uint64_t seed) {
  const ReplaySpec rs = replay_spec();
  sim::ScenarioParams sp;
  sp.kind = sim::ScenarioKind::kCommuterRush;
  sp.seed = seed;
  sp.objects = rs.objects;
  sp.rounds = rs.rounds;
  sim::Scenario scn(sp);

  ReplayInputs in;
  in.initial.reserve(rs.objects);
  for (std::size_t i = 0; i < rs.objects; ++i) in.initial.push_back(scn.initial_position(i));
  std::vector<geo::Point> cur = in.initial;

  Rng rng(seed ^ 0x70726f6265ULL);
  const geo::Rect& area = sp.area;
  for (int r = 0; r < rs.rounds; ++r) {
    std::vector<Sight>& round = in.rounds.emplace_back();
    round.reserve(rs.objects);
    scn.step_round(r, [&](std::size_t i, geo::Point p) {
      round.push_back({static_cast<std::uint32_t>(i), p});
      cur[i] = p;
    });
    std::vector<Sight>& lone = in.lone.emplace_back();
    for (std::size_t k = 0; k < rs.lone_per_round; ++k) {
      const auto i = static_cast<std::uint32_t>(rng.next_below(rs.objects));
      const double ang = rng.uniform(0.0, 2.0 * M_PI);
      cur[i] = clamp_to(area.inflated(-1.0),
                        {cur[i].x + 5.0 * std::cos(ang), cur[i].y + 5.0 * std::sin(ang)});
      lone.push_back({i, cur[i]});
    }
    std::vector<Probe>& probes = in.probes.emplace_back();
    for (std::size_t k = 0; k < rs.pos_probes; ++k) {
      probes.push_back({OpKind::kPos, static_cast<std::uint32_t>(rng.next_below(rs.objects)), {}});
    }
    for (std::size_t k = 0; k < rs.range_probes + rs.nn_probes; ++k) {
      // Anchor near a random object so probes land where the crowd is.
      const geo::Point c = cur[rng.next_below(rs.objects)];
      const geo::Point p = clamp_to(area, {c.x + rng.uniform(-30, 30), c.y + rng.uniform(-30, 30)});
      probes.push_back({k < rs.range_probes ? OpKind::kRange : OpKind::kNN, 0, p});
    }
  }

  std::uint32_t crc = crc_points(in.initial, 0);
  const auto fold_sights = [&crc](const std::vector<Sight>& v) {
    for (const Sight& s : v) {
      crc = crc32(&s.obj, sizeof s.obj, crc);
      crc = crc32(&s.p.x, sizeof s.p.x, crc);
      crc = crc32(&s.p.y, sizeof s.p.y, crc);
    }
  };
  for (int r = 0; r < rs.rounds; ++r) {
    fold_sights(in.rounds[r]);
    fold_sights(in.lone[r]);
    for (const Probe& p : in.probes[r]) {
      const std::uint8_t k = static_cast<std::uint8_t>(p.kind);
      crc = crc32(&k, 1, crc);
      crc = crc32(&p.obj, sizeof p.obj, crc);
      crc = crc32(&p.p.x, sizeof p.p.x, crc);
      crc = crc32(&p.p.y, sizeof p.p.y, crc);
    }
  }
  in.crc = crc;
  return in;
}

}  // namespace pb
