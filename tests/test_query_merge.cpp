// Zero-materialization query merge: end-to-end equivalence, dedup-on-emit,
// rejection of the retired version-1 sub-result framing, the merged answer's
// transmit path, partial answers on timeout, and the coalesced
// CreatePath/RemovePath machinery riding on the same batch framing.
//
// The merge path under test (core/location_server): version-2 sub-results
// are consumed through wire::SubResView straight off the receive buffer,
// range segments PIN the datagram until the merge completes, and the final
// RangeQueryRes is emitted directly into an outgoing pooled envelope --
// byte-identical to the canonical encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "test_support.hpp"
#include "util/crc32.hpp"
#include "wire/messages.hpp"

namespace locs::test {
namespace {

namespace wm = locs::wire;

constexpr double kArea = 1400.0;

geo::Polygon rect_poly(double x0, double y0, double x1, double y1) {
  return geo::Polygon::from_rect(geo::Rect{{x0, y0}, {x1, y1}});
}

/// Registers `n` objects on a table2 world at deterministic positions.
std::vector<std::unique_ptr<TrackedObject>> populate(
    SimWorld& w, std::size_t n, std::vector<ObjectResult>& all) {
  Rng rng(2026);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const geo::Point p{rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    objs.push_back(w.register_object(ObjectId{i}, p));
    EXPECT_TRUE(objs.back()->tracked());
    all.push_back({ObjectId{i}, {p, objs.back()->offered_acc()}});
  }
  return objs;
}

// --- end-to-end merge equivalence --------------------------------------------

TEST(QueryMerge, WideFanOutRangeAnswersMatchOracleWithoutDuplicates) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));
  std::vector<ObjectResult> all;
  const auto objs = populate(w, 160, all);
  auto qc = w.make_query_client(w.deployment->leaf_ids()[0]);

  const geo::Polygon areas[] = {
      rect_poly(0, 0, kArea, kArea),              // full fan-out, every leaf
      rect_poly(kArea / 4, kArea / 4, 3 * kArea / 4, 3 * kArea / 4),  // center
      rect_poly(10, 10, kArea / 3, kArea / 3),    // one corner
      rect_poly(kArea / 2 - 1, 0, kArea / 2 + 1, kArea),  // thin seam strip
  };
  for (const geo::Polygon& area : areas) {
    const auto res = w.range_query(*qc, area, 50.0, 0.9);
    EXPECT_TRUE(res.complete);
    // No duplicates: dedup-on-emit must never let an object appear twice.
    std::vector<ObjectId> ids = sorted_ids(res.objects);
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
    EXPECT_EQ(ids, sorted_ids(oracle_range(all, area, 50.0, 0.9)));
  }

  // The wide query fans out to every leaf, so the entry must have pinned
  // sub-result datagrams (zero-copy merge) rather than copying them.
  const auto stats = w.deployment->total_stats();
  EXPECT_GT(stats.sub_res_pinned, 0u);
  EXPECT_EQ(stats.sub_res_copied, 0u);

  for (int i = 0; i < 24; ++i) {
    const geo::Point p{37.0 * (i + 1), kArea - 31.0 * (i + 1) * 0.7};
    const auto nn = w.nn_query(*qc, p, 50.0, 0.0);
    const auto expected = oracle_nearest(all, p, 50.0);
    ASSERT_EQ(nn.found, expected.has_value());
    if (expected) {
      EXPECT_EQ(nn.nearest.oid, expected->oid);
    }
  }
}

TEST(QueryMerge, EmittedRangeResultIsByteIdenticalToCanonicalEncoding) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));
  std::vector<ObjectResult> all;
  const auto objs = populate(w, 80, all);
  auto qc = w.make_query_client(w.deployment->leaf_ids()[1]);

  // Capture every RangeQueryRes datagram the entry emits.
  std::vector<wm::Buffer> finals;
  w.net.set_tracer([&](TimePoint, NodeId, NodeId, const wm::Buffer& b) {
    if (b.size() > 1 && static_cast<wm::MsgType>(b[1]) == wm::MsgType::kRangeQueryRes) {
      finals.push_back(b);
    }
  });
  const auto res = w.range_query(*qc, rect_poly(0, 0, kArea, kArea), 50.0, 0.9);
  EXPECT_TRUE(res.complete);
  ASSERT_EQ(finals.size(), 1u);

  // The direct-emit bytes must decode and re-encode to the very same bytes
  // (i.e. the merge loop writes the canonical encoding).
  const auto decoded = wm::decode_envelope(finals[0]);
  ASSERT_TRUE(decoded.ok());
  const wm::Buffer reencoded =
      wm::encode_envelope(decoded.value().src, decoded.value().msg);
  EXPECT_EQ(finals[0], reencoded);
}

// --- handcrafted sub-results: dedup, retired framing, timeouts ---------------

/// Harness around one ENTRY server with two fake children: the test plays
/// the children, so it controls exactly which sub-results arrive and how
/// they are framed.
struct EntryHarness {
  net::SimNetwork net;
  core::ConfigRecord cfg;
  core::LocationServer server;
  NodeId client{900};
  std::uint64_t fwd_req_id = 0;
  geo::Polygon fwd_area;
  int fwds_seen = 0;
  std::optional<core::QueryClient::RangeResult> answer;

  static core::ConfigRecord entry_cfg() {
    core::ConfigRecord cfg;
    cfg.sa = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
    cfg.parent = kNoNode;
    // Two children tiling the root area: the entry is a pure coordinator.
    cfg.children.push_back(
        {NodeId{2}, geo::Polygon::from_rect(geo::Rect{{0, 0}, {500, 1000}})});
    cfg.children.push_back(
        {NodeId{3}, geo::Polygon::from_rect(geo::Rect{{500, 0}, {1000, 1000}})});
    return cfg;
  }

  EntryHarness() : server(NodeId{1}, entry_cfg(), net, net.clock(), {}) {
    net.attach(NodeId{1}, net::DatagramHandler([this](const net::Datagram& dg) {
                 server.handle(dg);
               }));
    // Both fake children record the forwarded query's internal req id.
    for (const std::uint32_t child : {2u, 3u}) {
      net.attach(NodeId{child}, [this](const std::uint8_t* d, std::size_t l) {
        const auto decoded = wm::decode_envelope(d, l);
        ASSERT_TRUE(decoded.ok());
        if (const auto* fwd = std::get_if<wm::RangeQueryFwd>(&decoded.value().msg)) {
          fwd_req_id = fwd->req_id;
          fwd_area = fwd->area;
          ++fwds_seen;
        }
      });
    }
    net.attach(client, [this](const std::uint8_t* d, std::size_t l) {
      const auto decoded = wm::decode_envelope(d, l);
      ASSERT_TRUE(decoded.ok());
      if (const auto* res = std::get_if<wm::RangeQueryRes>(&decoded.value().msg)) {
        answer = core::QueryClient::RangeResult{res->complete,
                                                res->results.to_vector()};
      }
    });
  }

  void start_query() {
    wm::RangeQueryReq req;
    req.area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
    req.req_id = 77;
    net.send(client, NodeId{1}, wm::encode_envelope(client, req));
    net.run_until_idle();
    ASSERT_EQ(fwds_seen, 2);
  }

  /// One child's packed (version 2) sub-result.
  void send_packed_sub(NodeId from, double covered,
                       const std::vector<ObjectResult>& results) {
    wm::RangeQuerySubRes sub;
    sub.req_id = fwd_req_id;
    sub.covered_size = covered;
    sub.results.assign(results);
    net.send(from, NodeId{1}, wm::encode_envelope(from, sub));
    net.run_until_idle();
  }

  /// One child's sub-result in the RETIRED version-1 (length-prefixed
  /// vector) layout.
  void send_v1_sub(NodeId from, double covered,
                   const std::vector<ObjectResult>& results) {
    wm::Buffer v1;
    {
      wm::Writer w(v1);
      w.u8(wm::kWireVersion);
      w.u8(static_cast<std::uint8_t>(wm::MsgType::kRangeQuerySubRes));
      w.u32_fixed(from.value);
      w.u64(fwd_req_id);
      w.f64(covered);
      w.u64(results.size());
      for (const ObjectResult& r : results) {
        w.u64(r.oid.value);
        w.f64(r.ld.pos.x);
        w.f64(r.ld.pos.y);
        w.f64(r.ld.acc);
      }
      w.boolean(false);  // no origin piggyback
    }
    net.send(from, NodeId{1}, std::move(v1));
    net.run_until_idle();
  }
};

TEST(QueryMerge, DedupOnEmitDropsCrossSegmentDuplicates) {
  EntryHarness h;
  h.start_query();
  const ObjectResult dup{ObjectId{42}, {{500.0, 500.0}, 10.0}};
  // Both children report the seam object (overlapping coverage, as a §6.5
  // direct query against stale cached areas could produce).
  h.send_packed_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                    {{ObjectId{10}, {{100, 100}, 10.0}}, dup});
  h.send_packed_sub(NodeId{3}, h.fwd_area.area() / 2.0,
                    {dup, {ObjectId{11}, {{900, 100}, 10.0}}});
  ASSERT_TRUE(h.answer.has_value());
  EXPECT_TRUE(h.answer->complete);
  const std::vector<ObjectId> ids = sorted_ids(h.answer->objects);
  EXPECT_EQ(ids, (std::vector<ObjectId>{ObjectId{10}, ObjectId{11}, ObjectId{42}}));
  EXPECT_EQ(h.server.stats().merge_dedup_dropped, 1u);
  EXPECT_EQ(h.server.stats().sub_res_pinned, 2u);
}

TEST(QueryMerge, VersionOneSubResultIsADecodeError) {
  EntryHarness h;
  h.start_query();
  h.send_v1_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                {{ObjectId{7}, {{10, 10}, 5.0}}});
  EXPECT_EQ(h.server.stats().decode_errors, 1u);
  h.send_packed_sub(NodeId{3}, h.fwd_area.area() / 2.0,
                    {{ObjectId{8}, {{990, 990}, 5.0}}});
  // The version-1 half never counted toward coverage: no answer until the
  // deadline, and then only the packed child's objects.
  ASSERT_FALSE(h.answer.has_value());
  h.net.clock().advance(h.server.options().pending_timeout + 1);
  h.server.tick(h.net.now());
  h.net.run_until_idle();
  ASSERT_TRUE(h.answer.has_value());
  EXPECT_FALSE(h.answer->complete);
  EXPECT_EQ(sorted_ids(h.answer->objects), (std::vector<ObjectId>{ObjectId{8}}));
  EXPECT_EQ(h.server.stats().sub_res_copied, 0u);
  EXPECT_EQ(h.server.stats().sub_res_pinned, 1u);
}

/// A transmit channel that keeps what it is given (net::Sender).
struct CapturingSender : net::Sender {
  std::vector<std::pair<NodeId, wm::Buffer>> sent;
  void send(NodeId to, net::PooledBuffer bytes) override {
    sent.emplace_back(to, *bytes);
  }
  void flush() override {}
};

TEST(QueryMerge, MergedAnswerLeavesThroughTheTransmitChannel) {
  // The final RangeQueryRes is built in place, not through send_msg; it must
  // still take the server's transmit channel (a shard's own socket and
  // cork window), never the shared transport behind its back.
  CapturingSender tx;  // outlives the server it is installed on
  EntryHarness h;
  h.start_query();
  h.server.set_tx_sender(&tx);
  h.send_packed_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                    {{ObjectId{7}, {{10, 10}, 5.0}}});
  h.send_packed_sub(NodeId{3}, h.fwd_area.area() / 2.0,
                    {{ObjectId{8}, {{990, 990}, 5.0}}});
  EXPECT_FALSE(h.answer.has_value());  // nothing went via the transport
  ASSERT_EQ(tx.sent.size(), 1u);
  EXPECT_EQ(tx.sent[0].first, h.client);
  const auto decoded = wm::decode_envelope(tx.sent[0].second);
  ASSERT_TRUE(decoded.ok());
  const auto* res = std::get_if<wm::RangeQueryRes>(&decoded.value().msg);
  ASSERT_NE(res, nullptr);
  EXPECT_TRUE(res->complete);
  EXPECT_EQ(sorted_ids(res->results.to_vector()),
            (std::vector<ObjectId>{ObjectId{7}, ObjectId{8}}));
}

TEST(QueryMerge, TimeoutEmitsPartialAnswerAndReleasesPins) {
  EntryHarness h;
  h.start_query();
  h.send_packed_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                    {{ObjectId{5}, {{50, 50}, 5.0}}});
  ASSERT_FALSE(h.answer.has_value());  // half the coverage still missing
  // Let the pending deadline lapse: the entry must answer with what it has.
  h.net.clock().advance(h.server.options().pending_timeout + 1);
  h.server.tick(h.net.now());
  h.net.run_until_idle();
  ASSERT_TRUE(h.answer.has_value());
  EXPECT_FALSE(h.answer->complete);
  EXPECT_EQ(sorted_ids(h.answer->objects), (std::vector<ObjectId>{ObjectId{5}}));
}

// --- coalesced forwarding-path maintenance -----------------------------------

struct PathTraffic {
  std::uint64_t create_or_remove = 0;  // unbatched CreatePath/RemovePath
  std::uint64_t path_batches = 0;      // BatchedPathUpdate datagrams
};

/// Runs a registration burst + deregistration sweep and returns the final
/// per-object position answers plus the observed path traffic.
std::pair<std::vector<std::string>, PathTraffic> run_path_workload(bool coalesce) {
  core::LocationServer::Options opts;
  opts.coalesce_paths = coalesce;
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             opts);
  auto counts = std::make_shared<PathTraffic>();
  w.net.set_tracer([counts](TimePoint, NodeId, NodeId, const wm::Buffer& b) {
    if (b.size() < 2) return;
    const auto t = static_cast<wm::MsgType>(b[1]);
    if (t == wm::MsgType::kCreatePath || t == wm::MsgType::kRemovePath) {
      ++counts->create_or_remove;
    } else if (t == wm::MsgType::kBatchedPathUpdate) {
      ++counts->path_batches;
    }
  });

  // Registration BURST: all requests enter the network before any delivery,
  // so the leaves' path coalescers see back-to-back CreatePaths.
  constexpr std::uint64_t kObjects = 120;
  Rng rng(99);
  std::vector<geo::Point> pos(kObjects + 1);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    pos[i] = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    wm::RegisterReq req;
    req.s = {ObjectId{i}, 0, pos[i], 1.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = NodeId{901};
    req.req_id = i;
    w.net.send(NodeId{901}, w.deployment->entry_leaf_for(pos[i]),
               wm::encode_envelope(NodeId{901}, req));
  }
  w.run();
  // Deadline-flush any partial path batches and deliver them.
  for (int i = 0; i < 3; ++i) {
    w.net.clock().advance(core::LocationServer::Options{}.path_batch_delay + 1);
    w.tick();
    w.run();
  }

  // Deregister a third of the objects as a burst (RemovePath pruning), then
  // flush again.
  for (std::uint64_t i = 1; i <= kObjects; i += 3) {
    w.net.send(NodeId{901}, w.deployment->entry_leaf_for(pos[i]),
               wm::encode_envelope(NodeId{901}, wm::DeregisterReq{ObjectId{i}}));
  }
  w.run();
  for (int i = 0; i < 3; ++i) {
    w.net.clock().advance(core::LocationServer::Options{}.path_batch_delay + 1);
    w.tick();
    w.run();
  }

  // Final observable state: position answers for every object, issued from a
  // REMOTE leaf so they traverse the forwarding paths built above.
  auto qc = w.make_query_client(w.deployment->leaf_ids()[3]);
  std::vector<std::string> answers;
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const auto res = w.pos_query(*qc, ObjectId{i});
    char buf[96];
    std::snprintf(buf, sizeof buf, "%llu:%d(%.6f,%.6f)",
                  static_cast<unsigned long long>(i), res.found ? 1 : 0,
                  res.found ? res.ld.pos.x : 0.0, res.found ? res.ld.pos.y : 0.0);
    answers.emplace_back(buf);
  }
  return {answers, *counts};
}

TEST(QueryMerge, CoalescedPathMaintenanceMatchesUnbatchedWithFewerDatagrams) {
  const auto [plain_answers, plain_traffic] = run_path_workload(false);
  const auto [coalesced_answers, coalesced_traffic] = run_path_workload(true);

  // Identical externally observable state...
  EXPECT_EQ(plain_answers, coalesced_answers);

  // ...with the per-object path messages collapsed into batches.
  EXPECT_EQ(coalesced_traffic.create_or_remove, 0u);
  EXPECT_GT(plain_traffic.create_or_remove, 0u);
  EXPECT_GT(coalesced_traffic.path_batches, 0u);
  EXPECT_LT(coalesced_traffic.path_batches, plain_traffic.create_or_remove / 4);
}

}  // namespace
}  // namespace locs::test
