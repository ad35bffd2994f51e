// Spatial index implementations validated against a brute-force oracle --
// parameterized over all four index types (paper's Point Quadtree, R-Tree,
// plus grid / linear ablation baselines), so every implementation satisfies
// the same contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "spatial/spatial_index.hpp"
#include "util/rng.hpp"

namespace locs::spatial {
namespace {

struct IndexCase {
  const char* name;
  IndexFactory factory;
};

const geo::Rect kArea{{0, 0}, {1000, 1000}};

std::vector<IndexCase> index_cases() {
  return {
      {"quadtree", [] { return make_point_quadtree(); }},
      {"rtree", [] { return make_rtree(); }},
      {"grid", [] { return make_grid_index(kArea, 1024); }},
      {"linear", [] { return make_linear_index(); }},
  };
}

class SpatialIndexContract
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  std::unique_ptr<SpatialIndex> make() {
    return index_cases()[std::get<0>(GetParam())].factory();
  }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

std::vector<Entry> brute_rect(const std::map<std::uint64_t, geo::Point>& truth,
                              const geo::Rect& rect) {
  std::vector<Entry> out;
  for (const auto& [id, pos] : truth) {
    if (rect.contains(pos)) out.push_back({ObjectId{id}, pos});
  }
  return out;
}

std::vector<std::uint64_t> ids_of(std::vector<Entry> entries) {
  std::vector<std::uint64_t> ids;
  for (const Entry& e : entries) ids.push_back(e.id.value);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_P(SpatialIndexContract, InsertQueryRemoveMatchesBruteForce) {
  auto index = make();
  Rng rng(seed());
  std::map<std::uint64_t, geo::Point> truth;

  // Mixed workload: inserts, removes, updates, with interleaved queries.
  for (int step = 0; step < 400; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5 || truth.empty()) {
      const std::uint64_t id = rng.next_below(100000);
      if (truth.count(id)) continue;
      const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      truth[id] = p;
      index->insert(ObjectId{id}, p);
    } else if (roll < 0.7) {
      auto it = truth.begin();
      std::advance(it, static_cast<long>(rng.next_below(truth.size())));
      index->remove(ObjectId{it->first});
      truth.erase(it);
    } else if (roll < 0.9) {
      auto it = truth.begin();
      std::advance(it, static_cast<long>(rng.next_below(truth.size())));
      const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      it->second = p;
      index->update(ObjectId{it->first}, p);
    } else {
      const geo::Rect q = geo::Rect::from_center(
          {rng.uniform(0, 1000), rng.uniform(0, 1000)}, rng.uniform(10, 300),
          rng.uniform(10, 300));
      std::vector<Entry> got;
      index->query_rect(q, got);
      EXPECT_EQ(ids_of(std::move(got)), ids_of(brute_rect(truth, q)))
          << "step " << step;
    }
    ASSERT_EQ(index->size(), truth.size()) << "step " << step;
  }
}

TEST_P(SpatialIndexContract, KNearestOrderedAndCorrect) {
  auto index = make();
  Rng rng(seed() * 31 + 7);
  std::map<std::uint64_t, geo::Point> truth;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    truth[i] = p;
    index->insert(ObjectId{i}, p);
  }
  for (int q = 0; q < 20; ++q) {
    const geo::Point p{rng.uniform(-100, 1100), rng.uniform(-100, 1100)};
    const std::size_t k = 1 + rng.next_below(20);
    const auto got = index->k_nearest(p, k);
    ASSERT_EQ(got.size(), std::min<std::size_t>(k, truth.size()));
    // Ordered by distance.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(geo::distance(got[i - 1].pos, p), geo::distance(got[i].pos, p) + 1e-9);
    }
    // Matches brute force k-th distance (positions may tie).
    std::vector<double> dists;
    for (const auto& [id, pos] : truth) dists.push_back(geo::distance(pos, p));
    std::sort(dists.begin(), dists.end());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(geo::distance(got[i].pos, p), dists[i], 1e-9) << "rank " << i;
    }
  }
}

TEST_P(SpatialIndexContract, QueryCircleFiltersExactly) {
  auto index = make();
  Rng rng(seed() * 97 + 3);
  std::map<std::uint64_t, geo::Point> truth;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    truth[i] = p;
    index->insert(ObjectId{i}, p);
  }
  for (int q = 0; q < 10; ++q) {
    const geo::Circle c{{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                        rng.uniform(20, 400)};
    std::vector<Entry> got;
    index->query_circle(c, got);
    std::vector<std::uint64_t> expected;
    for (const auto& [id, pos] : truth) {
      if (c.contains(pos)) expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ids_of(std::move(got)), expected);
  }
}

TEST_P(SpatialIndexContract, ClearEmptiesIndex) {
  auto index = make();
  for (std::uint64_t i = 0; i < 50; ++i) {
    index->insert(ObjectId{i}, {static_cast<double>(i), static_cast<double>(i)});
  }
  index->clear();
  EXPECT_EQ(index->size(), 0u);
  std::vector<Entry> got;
  index->query_rect(geo::Rect{{-1e9, -1e9}, {1e9, 1e9}}, got);
  EXPECT_TRUE(got.empty());
  // Usable after clear.
  index->insert(ObjectId{7}, {1, 1});
  EXPECT_EQ(index->size(), 1u);
}

TEST_P(SpatialIndexContract, KNearestWithFewerThanKEntriesReturnsThemAll) {
  auto index = make();
  EXPECT_TRUE(index->k_nearest({500, 500}, 3).empty());
  index->insert(ObjectId{1}, {10, 10});
  index->insert(ObjectId{2}, {990, 990});
  const auto got = index->k_nearest({0, 0}, 5);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, ObjectId{1});
  EXPECT_EQ(got[1].id, ObjectId{2});
}

TEST_P(SpatialIndexContract, RemoveReturnsFalseForUnknown) {
  auto index = make();
  EXPECT_FALSE(index->remove(ObjectId{424242}));
  index->insert(ObjectId{1}, {5, 5});
  EXPECT_TRUE(index->remove(ObjectId{1}));
  EXPECT_FALSE(index->remove(ObjectId{1}));
}

TEST_P(SpatialIndexContract, DuplicatePositionsSupported) {
  auto index = make();
  const geo::Point same{100, 100};
  for (std::uint64_t i = 0; i < 20; ++i) index->insert(ObjectId{i}, same);
  std::vector<Entry> got;
  index->query_rect(geo::Rect::from_center(same, 1, 1), got);
  EXPECT_EQ(got.size(), 20u);
  const auto nn = index->k_nearest({101, 101}, 5);
  EXPECT_EQ(nn.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, SpatialIndexContract,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Values(11u, 22u, 33u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
      return std::string(index_cases()[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PointQuadtree, TombstoneRebuildKeepsAnswers) {
  // Heavy churn triggers the amortized rebuild; answers must stay exact.
  auto index = make_point_quadtree();
  Rng rng(5150);
  std::map<std::uint64_t, geo::Point> truth;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const geo::Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
    truth[i] = p;
    index->insert(ObjectId{i}, p);
  }
  // Remove 90%.
  std::uint64_t removed = 0;
  for (std::uint64_t i = 0; i < 2000 && removed < 1800; ++i, ++removed) {
    index->remove(ObjectId{i});
    truth.erase(i);
  }
  EXPECT_EQ(index->size(), truth.size());
  std::vector<Entry> got;
  index->query_rect(geo::Rect{{0, 0}, {100, 100}}, got);
  EXPECT_EQ(got.size(), truth.size());

  // Update churn: a far move tombstones the old node, so with 200 live
  // points a rebuild runs every ~200 updates -- about 15 over this loop.
  // Answers are checked against brute force after every update, so after
  // every rebuild.
  for (int step = 0; step < 3000; ++step) {
    auto it = truth.begin();
    std::advance(it, static_cast<long>(rng.next_below(truth.size())));
    it->second = {rng.uniform(0, 100), rng.uniform(0, 100)};
    index->update(ObjectId{it->first}, it->second);
    ASSERT_EQ(index->size(), truth.size()) << "step " << step;

    const geo::Rect q = geo::Rect::from_center(
        {rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(1, 40),
        rng.uniform(1, 40));
    got.clear();
    index->query_rect(q, got);
    ASSERT_EQ(ids_of(got), ids_of(brute_rect(truth, q))) << "step " << step;

    const geo::Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
    const std::size_t k = 1 + rng.next_below(8);
    const auto nearest = index->k_nearest(p, k);
    std::vector<double> dists;
    for (const auto& [id, pos] : truth) dists.push_back(geo::distance(pos, p));
    std::sort(dists.begin(), dists.end());
    ASSERT_EQ(nearest.size(), k) << "step " << step;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_NEAR(geo::distance(nearest[i].pos, p), dists[i], 1e-9)
          << "step " << step << " rank " << i;
    }
  }
}

TEST(RTree, DeepDeleteCondenses) {
  auto index = make_rtree();
  Rng rng(777);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    index->insert(ObjectId{i}, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
    ids.push_back(i);
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < 995; ++i) {
    ASSERT_TRUE(index->remove(ObjectId{ids[i]})) << i;
  }
  EXPECT_EQ(index->size(), 5u);
  std::vector<Entry> got;
  index->query_rect(geo::Rect{{-1, -1}, {1001, 1001}}, got);
  EXPECT_EQ(got.size(), 5u);
}

}  // namespace
}  // namespace locs::spatial
