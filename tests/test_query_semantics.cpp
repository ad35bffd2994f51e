// The §3.2 query semantics, pinned to the paper's own worked examples
// (Fig 3 for range queries, Fig 4 for nearest neighbors), plus the
// accuracy-bound model and client-side caching.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/local_service.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

core::LocalLocationService::Config config() {
  core::LocalLocationService::Config cfg;
  cfg.area = kArea;
  cfg.levels = 1;
  cfg.server.min_supported_acc = 1.0;
  return cfg;
}

// Fig 3: a queried area and five objects -- o1 fully inside (overlap 1),
// o2 fully outside (overlap 0), o3 with ~40% overlap, o4 with ~10%, o5
// inside but with insufficient accuracy. reqOverlap = 0.3.
TEST(Fig3RangeSemantics, ExactScenario) {
  core::LocalLocationService ls(config());
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{300, 300}, {600, 600}});
  const double req_acc = 50.0;
  const double req_overlap = 0.3;

  // o1: fully inside (overlap 1.0) -> included.
  ls.register_object(ObjectId{1}, {450, 450}, 1.0, {20.0, 100.0}).value();
  // o2: far outside (overlap 0) -> not included.
  ls.register_object(ObjectId{2}, {900, 900}, 1.0, {20.0, 100.0}).value();
  // o3: straddling with overlap ~0.5 >= 0.3 -> included.
  ls.register_object(ObjectId{3}, {600, 450}, 1.0, {20.0, 100.0}).value();
  ASSERT_NEAR(geo::overlap_degree(area, {{600, 450}, 20.0}), 0.5, 0.01);
  // o4: overlap ~0.1 < 0.3 -> not included.
  ls.register_object(ObjectId{4}, {615, 450}, 1.0, {20.0, 100.0}).value();
  const double ov4 = geo::overlap_degree(area, {{615, 450}, 20.0});
  ASSERT_LT(ov4, 0.3);
  ASSERT_GT(ov4, 0.0);
  // o5: deep inside but accuracy 80 > reqAcc 50 -> not included.
  ls.register_object(ObjectId{5}, {460, 460}, 1.0, {80.0, 200.0}).value();

  const auto res = ls.range_query(area, req_acc, req_overlap);
  std::vector<std::uint64_t> ids;
  for (const auto& r : res) ids.push_back(r.oid.value);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
}

// Fig 4: nearest-neighbor with nearQual ring and an accuracy-filtered
// candidate. o = returned nearest; o1 within nearQual; o2 outside the
// nearQual circle; o3 excluded for accuracy.
TEST(Fig4NeighborSemantics, ExactScenario) {
  core::LocalLocationService ls(config());
  const geo::Point p{500, 500};
  const double req_acc = 30.0;
  const double near_qual = 60.0;

  ls.register_object(ObjectId{10}, {560, 500}, 1.0, {25.0, 100.0}).value();  // o: d=60
  ls.register_object(ObjectId{11}, {500, 610}, 1.0, {25.0, 100.0}).value();  // o1: d=110 <= 60+60
  ls.register_object(ObjectId{12}, {500, 640}, 1.0, {25.0, 100.0}).value();  // o2: d=140 > 120
  ls.register_object(ObjectId{13}, {505, 500}, 1.0, {90.0, 200.0}).value();  // o3: acc 90 > 30

  const auto nn = ls.neighbor_query(p, req_acc, near_qual);
  ASSERT_TRUE(nn.found);
  EXPECT_EQ(nn.nearest.oid, ObjectId{10});
  ASSERT_EQ(nn.near_set.size(), 1u);
  EXPECT_EQ(nn.near_set[0].oid, ObjectId{11});
  // Guaranteed minimal distance: DISTANCE(ld.pos, p) - reqAcc.
  const double guaranteed = geo::distance(nn.nearest.ld.pos, p) - req_acc;
  EXPECT_NEAR(guaranteed, 30.0, 1e-9);
}

TEST(RangeSemantics, OverlapThresholdBoundary) {
  core::LocalLocationService ls(config());
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{300, 300}, {600, 600}});
  // Object centered exactly on the boundary: overlap = 0.5 (up to rounding
  // in the circular-segment arithmetic; probe epsilon-below and epsilon-
  // above the actual value to pin the >= semantics).
  ls.register_object(ObjectId{1}, {300, 450}, 1.0, {20.0, 100.0}).value();
  const double overlap = geo::overlap_degree(area, {{300, 450}, 20.0});
  EXPECT_NEAR(overlap, 0.5, 1e-9);
  EXPECT_EQ(ls.range_query(area, 50.0, overlap - 1e-9).size(), 1u);
  EXPECT_EQ(ls.range_query(area, 50.0, overlap + 1e-6).size(), 0u);
}

TEST(RangeSemantics, ReqOverlapOneRequiresFullContainment) {
  core::LocalLocationService ls(config());
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{300, 300}, {600, 600}});
  ls.register_object(ObjectId{1}, {450, 450}, 1.0, {20.0, 100.0}).value();  // fully in
  ls.register_object(ObjectId{2}, {590, 450}, 1.0, {20.0, 100.0}).value();  // circle pokes out
  const auto res = ls.range_query(area, 50.0, 1.0);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].oid, ObjectId{1});
}

TEST(RangeSemantics, ReturnedDescriptorsCarryOfferedAccuracy) {
  core::LocalLocationService ls(config());
  ls.register_object(ObjectId{1}, {450, 450}, 1.0, {35.0, 100.0}).value();
  const auto res = ls.range_query(
      geo::Polygon::from_rect(geo::Rect{{300, 300}, {600, 600}}), 50.0, 0.3);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_DOUBLE_EQ(res[0].ld.acc, 35.0);  // ld.acc = offeredAcc
}

// reqAcc arrives from the client. No offered accuracy is <= NaN, and an
// infinite bound cannot enlarge the area to route, so the entry answers a
// non-finite reqAcc at once: an empty range result, no nearest neighbor.
TEST(AccuracyModel, NonFiniteReqAccMatchesNothing) {
  for (const int levels : {1, 2}) {
    core::LocalLocationService::Config cfg = config();
    cfg.levels = levels;
    core::LocalLocationService ls(cfg);
    ls.register_object(ObjectId{1}, {450, 450}, 1.0, {20.0, 100.0}).value();
    const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{300, 300}, {600, 600}});
    for (const double req_acc : {std::nan(""), std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(testing::Message() << "levels " << levels << " req_acc " << req_acc);
      EXPECT_TRUE(ls.range_query(area, req_acc, 0.3).empty());
      EXPECT_FALSE(ls.neighbor_query({500, 500}, req_acc, 10.0).found);
    }
    EXPECT_EQ(ls.range_query(area, 50.0, 0.3).size(), 1u);
    EXPECT_TRUE(ls.neighbor_query({500, 500}, 50.0, 10.0).found);
  }
}

TEST(AccuracyModel, BoundGrowsWithTimeAndSpeed) {
  const core::Sighting s{ObjectId{1}, seconds(100), {0, 0}, 10.0};
  EXPECT_DOUBLE_EQ(core::accuracy_bound(s, 5.0, seconds(100)), 10.0);
  EXPECT_DOUBLE_EQ(core::accuracy_bound(s, 5.0, seconds(110)), 60.0);
  // Clock skew (t < s.t) never shrinks the bound below the sensor accuracy.
  EXPECT_DOUBLE_EQ(core::accuracy_bound(s, 5.0, seconds(90)), 10.0);
}

TEST(ClientCache, ServesRepeatsAndAgesOut) {
  SimWorld world(core::HierarchyBuilder::fig6(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  qc->enable_position_cache(/*max_speed=*/10.0, /*max_acceptable_acc=*/50.0);

  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);  // miss, learns
  EXPECT_EQ(qc->position_cache_hits(), 0u);
  const std::uint64_t msgs_before = world.net.messages_sent();
  const auto hit = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(qc->position_cache_hits(), 1u);
  EXPECT_EQ(world.net.messages_sent(), msgs_before);  // zero messages

  // After 10 virtual seconds the aged accuracy 10 + 100 > 50: miss again.
  world.net.clock().advance(seconds(10));
  const auto aged = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(aged.found);
  EXPECT_EQ(qc->position_cache_hits(), 1u);
  EXPECT_GT(world.net.messages_sent(), msgs_before);
}

TEST(ClientCache, HitReportsAgedAccuracy) {
  SimWorld world(core::HierarchyBuilder::fig6(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  qc->enable_position_cache(10.0, 100.0);
  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);
  world.net.clock().advance(seconds(3));
  const auto hit = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(hit.found);
  EXPECT_NEAR(hit.ld.acc, 10.0 + 30.0, 1e-6);  // acc + v * dt
}

}  // namespace
}  // namespace locs::test
