// Batched update coalescing: end-to-end equivalence and edge cases.
//
//  * batched-vs-unbatched ANSWER equivalence over the deterministic
//    SimNetwork (the way test_sharded_server pins shard equivalence): the
//    same seeded workload -- bursty updates, cross-leaf jumps (handover in
//    the middle of a batch), all three query types -- must yield identical
//    answers with strictly fewer network datagrams,
//  * coalescer flush policies: size, byte budget, deadline, forced,
//  * sharded leaves: a batch straddling shard boundaries splits per owning
//    shard (and a single-shard batch forwards unchanged), equivalent to the
//    unsharded application; the one splitter does the same for refresh
//    sweeps and replica tees, and sends a malformed batch of any of the
//    three types to shard 0 as one decode error,
//  * wire edge cases: empty batch, single-sighting batch (explicitly
//    distinct from a plain UpdateReq on the wire, same effect).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "core/local_service.hpp"
#include "core/sharded_location_server.hpp"
#include "core/update_coalescer.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

using core::ShardedLocationServer;
using core::UpdateCoalescer;

// --------------------------------------------------------------------------
// end-to-end equivalence through LocalLocationService

struct ServiceObservation {
  std::vector<std::string> answers;
  std::uint64_t messages = 0;
  std::uint64_t updates_applied = 0;
};

std::string fmt_ld(const core::LocationDescriptor& ld) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%.6f,%.6f,%.3f)", ld.pos.x, ld.pos.y, ld.acc);
  return buf;
}

std::string fmt_results(std::vector<ObjectResult> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const ObjectResult& a, const ObjectResult& b) {
              return a.oid < b.oid;
            });
  std::string out;
  for (const ObjectResult& r : rs) {
    out += std::to_string(r.oid.value) + fmt_ld(r.ld) + ";";
  }
  return out;
}

ServiceObservation run_service_workload(bool coalesce) {
  constexpr double kArea = 4000.0;
  constexpr std::size_t kObjects = 96;
  core::LocalLocationService::Config cfg;
  cfg.area = geo::Rect{{0, 0}, {kArea, kArea}};
  cfg.coalesce_updates = coalesce;
  cfg.coalescing.max_batch = 8;
  cfg.coalescing.max_delay = milliseconds(5);
  core::LocalLocationService ls(cfg);

  ServiceObservation obs;
  Rng rng(0xBA7C4);
  std::vector<geo::Point> pos(kObjects + 1);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    pos[i] = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    const auto offered = ls.register_object(ObjectId{i}, pos[i], 5.0, {10.0, 100.0});
    EXPECT_TRUE(offered.ok()) << "object " << i;
  }

  std::vector<std::uint64_t> ids(kObjects);
  for (std::uint64_t i = 0; i < kObjects; ++i) ids[i] = i + 1;

  for (int round = 0; round < 5; ++round) {
    // Bursty feeds: one arrival window where a random subset of objects
    // reports once each (the gateway pattern) -- local jitter plus
    // occasional cross-leaf jumps, so some batches carry handover-triggering
    // sightings in the middle. Each object reports at most once per window:
    // an object whose handover is still in flight would drop a second
    // update, batched or not, but at different points in time.
    std::shuffle(ids.begin(), ids.end(), rng);
    for (int u = 0; u < 72; ++u) {
      const std::uint64_t oid = ids[static_cast<std::size_t>(u)];
      geo::Point next;
      if (u % 7 == 0) {
        next = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
      } else {
        next = {std::clamp(pos[oid].x + rng.uniform(-60, 60), 10.0, kArea - 10),
                std::clamp(pos[oid].y + rng.uniform(-60, 60), 10.0, kArea - 10)};
      }
      pos[oid] = next;
      ls.feed_position(ObjectId{oid}, next);
    }
    // End of the arrival window: drain buffered batches, then query.
    ls.flush_updates();

    for (int q = 0; q < 10; ++q) {
      const std::uint64_t oid = 1 + rng.next_below(kObjects);
      const auto ld = ls.position(ObjectId{oid});
      obs.answers.push_back("pos:" + std::to_string(oid) + ":" +
                            (ld ? fmt_ld(*ld) : "miss"));
    }
    for (int q = 0; q < 4; ++q) {
      const geo::Point c{rng.uniform(100, kArea - 100), rng.uniform(100, kArea - 100)};
      const geo::Polygon area =
          geo::Polygon::from_rect(geo::Rect::from_center(c, 150 + 100 * q, 200));
      obs.answers.push_back(
          "range:" + fmt_results(ls.range_query(area, 50.0, 0.3)));
    }
    for (int q = 0; q < 3; ++q) {
      const geo::Point p{rng.uniform(0, kArea), rng.uniform(0, kArea)};
      const auto nn = ls.neighbor_query(p, 60.0, 30.0);
      obs.answers.push_back(
          "nn:" + (nn.found ? std::to_string(nn.nearest.oid.value) +
                                  fmt_ld(nn.nearest.ld) + "|" +
                                  fmt_results(nn.near_set)
                            : std::string("miss")));
    }
    ls.advance_time(seconds(1));
  }
  obs.messages = ls.network().messages_sent();
  obs.updates_applied = ls.deployment().total_stats().updates_applied;
  return obs;
}

TEST(BatchedUpdateEquivalence, AnswersMatchUnbatchedWithFewerDatagrams) {
  const ServiceObservation plain = run_service_workload(false);
  const ServiceObservation batched = run_service_workload(true);
  EXPECT_EQ(plain.answers, batched.answers);
  EXPECT_EQ(plain.updates_applied, batched.updates_applied);
  // Coalescing must strictly reduce the datagram count (updates dominate
  // this workload; acks are batched too).
  EXPECT_LT(batched.messages, plain.messages);
}

TEST(BatchedUpdateEquivalence, DeterministicAcrossRuns) {
  const ServiceObservation a = run_service_workload(true);
  const ServiceObservation b = run_service_workload(true);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.messages, b.messages);
}

// --------------------------------------------------------------------------
// coalescer flush policies (size / byte budget / deadline / forced)

struct CoalescerHarness {
  SimWorld w;
  NodeId leaf;
  std::unique_ptr<TrackedObject> obj;

  CoalescerHarness()
      : w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}})) {
    obj = w.register_object(ObjectId{1}, {100, 100});
    leaf = obj->agent();
  }

  core::Sighting sighting(double x, double y) const {
    return {ObjectId{1}, w.net.now(), {x, y}, 5.0};
  }
};

TEST(UpdateCoalescer, SizeFlush) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 4;
  opts.max_delay = seconds(10);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  const std::uint64_t before = h.w.net.messages_sent();
  for (int i = 0; i < 3; ++i) c.enqueue(h.leaf, h.sighting(100 + i, 100));
  EXPECT_EQ(h.w.net.messages_sent(), before);  // under every threshold
  EXPECT_EQ(c.pending_sightings(), 3u);
  c.enqueue(h.leaf, h.sighting(110, 100));  // 4th: size flush
  EXPECT_EQ(h.w.net.messages_sent(), before + 1);
  EXPECT_EQ(c.pending_sightings(), 0u);
  h.w.run();
  EXPECT_EQ(c.stats().flushes_size, 1u);
  EXPECT_EQ(c.stats().acks_received, 4u);
  EXPECT_EQ(h.w.deployment->total_stats().updates_applied, 4u);
  EXPECT_EQ(h.w.deployment->total_stats().update_batches, 1u);
}

TEST(UpdateCoalescer, ByteBudgetFlush) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 1000;
  opts.max_bytes = 3 * 33;  // a packed sighting is at most ~33 bytes
  opts.max_delay = seconds(10);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  const std::uint64_t before = h.w.net.messages_sent();
  for (int i = 0; i < 16 && h.w.net.messages_sent() == before; ++i) {
    c.enqueue(h.leaf, h.sighting(100 + i, 100));
  }
  EXPECT_EQ(h.w.net.messages_sent(), before + 1);
  EXPECT_EQ(c.stats().flushes_bytes, 1u);
  EXPECT_LE(c.stats().sightings_enqueued, 5u);  // budget bit long before 16
}

TEST(UpdateCoalescer, DeadlineFlush) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 1000;
  opts.max_delay = milliseconds(5);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  const std::uint64_t before = h.w.net.messages_sent();
  c.enqueue(h.leaf, h.sighting(120, 100));
  c.tick(h.w.net.now());  // deadline not reached yet
  EXPECT_EQ(h.w.net.messages_sent(), before);
  h.w.net.clock().advance(milliseconds(5));
  c.tick(h.w.net.now());
  EXPECT_EQ(h.w.net.messages_sent(), before + 1);
  EXPECT_EQ(c.stats().flushes_deadline, 1u);
}

TEST(UpdateCoalescer, ForcedFlushAndAgentChangeFanIn) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 1000;
  opts.max_delay = seconds(10);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  std::vector<std::pair<ObjectId, NodeId>> changes;
  c.set_on_agent_changed([&](ObjectId oid, NodeId agent, double) {
    changes.emplace_back(oid, agent);
  });
  // A sighting OUTSIDE the agent's quadrant triggers a handover; the
  // AgentChanged lands on the coalescer and fans back out.
  c.enqueue(h.leaf, h.sighting(900, 900));
  c.flush_all();
  EXPECT_EQ(c.stats().flushes_forced, 1u);
  h.w.run();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].first, ObjectId{1});
  EXPECT_TRUE(changes[0].second.valid());
  EXPECT_NE(changes[0].second, h.leaf);
}

// --------------------------------------------------------------------------
// sharded leaves: per-shard batch splitting

/// Sends one raw BatchedUpdateReq from `src` to `leaf` and runs the network.
void send_batch(SimWorld& w, NodeId src, NodeId leaf,
                const wire::BatchedUpdateReq& batch) {
  w.net.send(src, leaf, wire::encode_envelope(src, wire::Message{batch}));
  w.run();
}

TEST(ShardedBatchSplit, BatchStraddlingShardBoundariesAppliesEverywhere) {
  constexpr std::uint32_t kShards = 4;
  core::Deployment::Config cfg;
  cfg.leaf_shards = kShards;
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}), cfg);

  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 32; ++i) {
    objs.push_back(w.register_object(ObjectId{i}, {10.0 + i, 10.0 + i}));
  }
  const NodeId leaf = objs[0]->agent();
  ShardedLocationServer* sharded = w.deployment->sharded(leaf);
  ASSERT_NE(sharded, nullptr);

  // One batch touching every shard.
  wire::BatchedUpdateReq batch;
  std::vector<bool> shard_hit(kShards, false);
  for (std::uint64_t i = 1; i <= 32; ++i) {
    batch.append({ObjectId{i}, 1, {50.0 + i, 60.0 + i}, 5.0});
    shard_hit[ShardedLocationServer::shard_of(ObjectId{i}, kShards)] = true;
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(shard_hit[s]) << "test ids do not straddle every shard";
  }

  send_batch(w, w.client_node(), leaf, batch);

  // Every sighting landed, in its owning shard's slice.
  const core::LocationServer::Stats stats = sharded->stats();
  EXPECT_EQ(stats.updates_applied, 32u);
  EXPECT_EQ(stats.update_batches, kShards);  // one sub-batch per shard
  for (std::uint64_t i = 1; i <= 32; ++i) {
    const std::uint32_t owner = ShardedLocationServer::shard_of(ObjectId{i}, kShards);
    const store::SightingDb::Record* rec =
        sharded->shard(owner).sightings()->find(ObjectId{i});
    ASSERT_NE(rec, nullptr) << "object " << i;
    EXPECT_EQ(rec->sighting.pos, (geo::Point{50.0 + i, 60.0 + i}));
  }
}

TEST(ShardedBatchSplit, SingleShardBatchForwardsUnchanged) {
  constexpr std::uint32_t kShards = 4;
  core::Deployment::Config cfg;
  cfg.leaf_shards = kShards;
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}), cfg);

  // Pick object ids that all hash to one shard.
  std::vector<ObjectId> same_shard;
  const std::uint32_t target = ShardedLocationServer::shard_of(ObjectId{1}, kShards);
  for (std::uint64_t i = 1; same_shard.size() < 6; ++i) {
    if (ShardedLocationServer::shard_of(ObjectId{i}, kShards) == target) {
      same_shard.push_back(ObjectId{i});
    }
  }
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (const ObjectId oid : same_shard) {
    objs.push_back(w.register_object(oid, {20.0 + static_cast<double>(oid.value), 20}));
  }
  const NodeId leaf = objs[0]->agent();

  wire::BatchedUpdateReq batch;
  for (const ObjectId oid : same_shard) {
    batch.append({oid, 1, {40.0 + static_cast<double>(oid.value), 44}, 5.0});
  }
  send_batch(w, w.client_node(), leaf, batch);

  ShardedLocationServer* sharded = w.deployment->sharded(leaf);
  ASSERT_NE(sharded, nullptr);
  // Exactly one batch datagram reached exactly the owning shard.
  EXPECT_EQ(sharded->stats().update_batches, 1u);
  EXPECT_EQ(sharded->shard(target).stats().update_batches, 1u);
  EXPECT_EQ(sharded->stats().updates_applied, same_shard.size());
}

TEST(ShardedBatchSplit, ShardedMatchesUnshardedApplication) {
  for (const std::uint32_t shards : {1u, 4u}) {
    core::Deployment::Config cfg;
    cfg.leaf_shards = shards;
    SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}), cfg);
    std::vector<std::unique_ptr<TrackedObject>> objs;
    for (std::uint64_t i = 1; i <= 24; ++i) {
      objs.push_back(w.register_object(ObjectId{i}, {30.0 + i, 40.0}));
    }
    const NodeId leaf = objs[0]->agent();
    wire::BatchedUpdateReq batch;
    for (std::uint64_t i = 1; i <= 24; ++i) {
      batch.append({ObjectId{i}, 2, {90.0 + i, 77.0}, 5.0});
    }
    send_batch(w, w.client_node(), leaf, batch);
    // Identical application and identical positions regardless of sharding.
    for (std::uint64_t i = 1; i <= 24; ++i) {
      store::SightingDb::Record rec;
      ASSERT_TRUE(w.deployment->find_sighting(leaf, ObjectId{i}, rec))
          << "shards=" << shards << " object " << i;
      EXPECT_EQ(rec.sighting.pos, (geo::Point{90.0 + i, 77.0}));
    }
  }
}

// One splitter serves every object-keyed batch type (update batches,
// recovery sweeps, replica tees): on a 2-shard inline leaf each item must
// reach exactly its owning shard.
enum class BatchKind { kUpdate, kRefresh, kTee };

struct SplitLeaf {
  static constexpr std::uint32_t kShards = 2;
  const NodeId self{1};
  const NodeId src{50};  // batch sender (the mirrored primary for tees)
  net::SimNetwork net;
  std::unique_ptr<ShardedLocationServer> leaf;

  /// Every object starts as a registered visitor of its owning shard, with
  /// no sighting yet (so a refresh sweep has something to refresh).
  SplitLeaf(BatchKind kind, const std::vector<ObjectId>& oids) {
    core::ConfigRecord cfg;
    cfg.sa = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
    ShardedLocationServer::Options opts;
    opts.shards = kShards;
    leaf = std::make_unique<ShardedLocationServer>(
        self, cfg, net, net.clock(), opts, [oids](std::uint32_t shard) {
          store::VisitorDb db;
          for (const ObjectId oid : oids) {
            if (ShardedLocationServer::shard_of(oid, kShards) == shard) {
              db.insert_leaf(oid, 10.0, core::RegInfo{NodeId{70}, {10.0, 100.0}});
            }
          }
          return db;
        });
    if (kind == BatchKind::kTee) leaf->set_standby_role(src);
  }

  static geo::Point pos_of(ObjectId oid) {
    return {10.0 + static_cast<double>(oid.value), 20.0};
  }

  wire::Buffer encode(BatchKind kind, const std::vector<ObjectId>& oids) const {
    wire::Buffer out;
    if (kind == BatchKind::kUpdate) {
      wire::BatchedUpdateReq b;
      for (const ObjectId oid : oids) b.append({oid, 1, pos_of(oid), 5.0});
      wire::encode_envelope_into(out, src, b);
    } else if (kind == BatchKind::kRefresh) {
      wire::BatchedRefreshReq b;
      for (const ObjectId oid : oids) b.append(oid);
      wire::encode_envelope_into(out, src, b);
    } else {
      wire::ReplicaTee b;
      for (const ObjectId oid : oids) {
        b.append({wire::ReplicaTee::Op::kUpsert, {oid, 1, pos_of(oid), 5.0}, 10.0,
                  seconds(3600), core::RegInfo{NodeId{70}, {10.0, 100.0}}});
      }
      wire::encode_envelope_into(out, src, b);
    }
    return out;
  }

  /// Items shard `s` acted on, in the counter each batch type bumps.
  std::uint64_t applied(BatchKind kind, std::uint32_t s) const {
    const core::LocationServer::Stats st = leaf->shard(s).stats();
    if (kind == BatchKind::kUpdate) return st.updates_applied;
    if (kind == BatchKind::kRefresh) return st.refresh_requests;
    return st.tee_entries_applied;
  }
};

class ShardedBatchSplit : public ::testing::TestWithParam<BatchKind> {};

TEST_P(ShardedBatchSplit, RoutesEveryItemToItsOwningShard) {
  const BatchKind kind = GetParam();
  constexpr std::uint32_t kShards = SplitLeaf::kShards;
  std::vector<ObjectId> oids;
  std::vector<ObjectId> owned_by_1;
  std::array<std::uint64_t, kShards> owned{};
  for (std::uint64_t i = 1; i <= 16; ++i) {
    const ObjectId oid{i};
    oids.push_back(oid);
    const std::uint32_t s = ShardedLocationServer::shard_of(oid, kShards);
    ++owned[s];
    if (s == 1) owned_by_1.push_back(oid);
  }
  ASSERT_GT(owned[0], 0u) << "test ids do not straddle both shards";
  ASSERT_GT(owned[1], 0u) << "test ids do not straddle both shards";

  {  // A straddling batch: one sub-batch per shard, each item in its slice.
    SplitLeaf h(kind, oids);
    const wire::Buffer wire = h.encode(kind, oids);
    h.leaf->handle(wire.data(), wire.size());
    for (std::uint32_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(h.leaf->shard(s).stats().msgs_handled, 1u) << "shard " << s;
      EXPECT_EQ(h.applied(kind, s), owned[s]) << "shard " << s;
    }
    if (kind != BatchKind::kRefresh) {
      for (const ObjectId oid : oids) {
        const std::uint32_t owner = ShardedLocationServer::shard_of(oid, kShards);
        const store::SightingDb::Record* rec =
            h.leaf->shard(owner).sightings()->find(oid);
        ASSERT_NE(rec, nullptr) << "object " << oid.value;
        EXPECT_EQ(rec->sighting.pos, SplitLeaf::pos_of(oid));
        EXPECT_EQ(h.leaf->shard(1 - owner).sightings()->find(oid), nullptr);
      }
    }
  }
  {  // A batch with one owner goes to that shard alone, as one datagram.
    SplitLeaf h(kind, oids);
    const wire::Buffer wire = h.encode(kind, owned_by_1);
    h.leaf->handle(wire.data(), wire.size());
    EXPECT_EQ(h.leaf->shard(0).stats().msgs_handled, 0u);
    EXPECT_EQ(h.leaf->shard(1).stats().msgs_handled, 1u);
    EXPECT_EQ(h.applied(kind, 1), owned_by_1.size());
  }
  {  // A malformed batch: shard 0 decodes it, counts one error, applies none.
    SplitLeaf h(kind, oids);
    const wire::Buffer wire = h.encode(kind, oids);
    h.leaf->handle(wire.data(), wire.size() - 1);  // packed region cut short
    EXPECT_EQ(h.leaf->shard(0).stats().decode_errors, 1u);
    EXPECT_EQ(h.leaf->shard(1).stats().decode_errors, 0u);
    EXPECT_EQ(h.leaf->stats().msgs_handled, 0u);
    for (std::uint32_t s = 0; s < kShards; ++s) EXPECT_EQ(h.applied(kind, s), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryBatchType, ShardedBatchSplit,
                         ::testing::Values(BatchKind::kUpdate, BatchKind::kRefresh,
                                           BatchKind::kTee),
                         [](const ::testing::TestParamInfo<BatchKind>& info) {
                           switch (info.param) {
                             case BatchKind::kUpdate: return "update";
                             case BatchKind::kRefresh: return "refresh";
                             case BatchKind::kTee: return "tee";
                           }
                           return "unknown";
                         });

// --------------------------------------------------------------------------
// wire edge cases against a live server

TEST(BatchedUpdateEdge, EmptyBatchIsHandledSilently) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = w.register_object(ObjectId{1}, {100, 100});
  const NodeId leaf = obj->agent();
  const std::uint64_t before = w.net.messages_sent();
  wire::BatchedUpdateReq empty;
  send_batch(w, w.client_node(), leaf, empty);
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  EXPECT_EQ(stats.update_batches, 1u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // No ack for an empty batch: the only datagram was ours.
  EXPECT_EQ(w.net.messages_sent(), before + 1);
}

TEST(BatchedUpdateEdge, SingleSightingBatchIsDistinctButEquivalent) {
  const core::Sighting s{ObjectId{7}, 3, {120, 130}, 5.0};
  // Explicitly distinct on the wire from a plain UpdateReq (MsgType byte).
  wire::BatchedUpdateReq batch;
  batch.append(s);
  const wire::Buffer batch_wire = wire::encode_envelope(NodeId{5}, batch);
  const wire::Buffer plain_wire =
      wire::encode_envelope(NodeId{5}, wire::UpdateReq{s});
  EXPECT_NE(batch_wire, plain_wire);
  ASSERT_GT(batch_wire.size(), 2u);
  EXPECT_EQ(static_cast<wire::MsgType>(batch_wire[1]),
            wire::MsgType::kBatchedUpdateReq);
  EXPECT_EQ(static_cast<wire::MsgType>(plain_wire[1]), wire::MsgType::kUpdateReq);

  // ... and equivalent in effect: same sighting applied, one packed ack.
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = w.register_object(ObjectId{7}, {100, 100});
  const NodeId leaf = obj->agent();

  std::vector<std::pair<ObjectId, double>> acks;
  const NodeId ack_sink = w.client_node();
  w.net.attach(ack_sink, [&](const std::uint8_t* data, std::size_t len) {
    const auto env = wire::decode_envelope(data, len);
    ASSERT_TRUE(env.ok());
    if (const auto* m = std::get_if<wire::BatchedUpdateAck>(&env.value().msg)) {
      wire::BatchedUpdateAck::Cursor cur = m->acks();
      ObjectId oid;
      double acc = 0.0;
      while (cur.next(oid, acc)) acks.emplace_back(oid, acc);
    }
  });
  send_batch(w, ack_sink, leaf, batch);
  store::SightingDb::Record rec;
  ASSERT_TRUE(w.deployment->find_sighting(leaf, ObjectId{7}, rec));
  EXPECT_EQ(rec.sighting.pos, (geo::Point{120, 130}));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].first, ObjectId{7});
  w.net.detach(ack_sink);
}

TEST(BatchedUpdateEdge, UnknownObjectsAreSkippedKnownOnesApplied) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = w.register_object(ObjectId{1}, {100, 100});
  const NodeId leaf = obj->agent();
  wire::BatchedUpdateReq batch;
  batch.append({ObjectId{999}, 1, {110, 110}, 5.0});  // never registered
  batch.append({ObjectId{1}, 1, {140, 150}, 5.0});
  send_batch(w, w.client_node(), leaf, batch);
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_unknown, 1u);
  store::SightingDb::Record rec;
  ASSERT_TRUE(w.deployment->find_sighting(leaf, ObjectId{1}, rec));
  EXPECT_EQ(rec.sighting.pos, (geo::Point{140, 150}));
}

}  // namespace
}  // namespace locs::test
