// Randomized property suites for the storage layer: SightingDb against a
// plain-map oracle under mixed insert/update/remove/expiry churn, its read
// paths against a reference that searches by the full req_acc and looks up
// every record, and VisitorDb persistence equivalence across random mutation
// sequences and reopen/compaction cycles.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <tuple>

#include "store/sighting_db.hpp"
#include "store/sighting_view.hpp"
#include "store/visitor_db.hpp"
#include "util/rng.hpp"

namespace locs::store {
namespace {

namespace fs = std::filesystem;

class SightingDbChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SightingDbChurn, MatchesOracleUnderMixedOps) {
  SightingDb db([] { return spatial::make_point_quadtree(); });
  struct OracleRec {
    geo::Point pos;
    double acc;
    TimePoint expiry;
  };
  std::map<std::uint64_t, OracleRec> oracle;
  Rng rng(GetParam());
  TimePoint now = 0;

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.next_double();
    now += static_cast<Duration>(rng.next_below(1000));
    if (roll < 0.40) {
      const std::uint64_t oid = rng.next_below(500);
      const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      const double acc = rng.uniform(1, 100);
      const TimePoint expiry = now + static_cast<Duration>(rng.next_below(100000));
      if (oracle.count(oid)) {
        db.update({ObjectId{oid}, now, p, 1.0}, expiry);
        db.set_offered_acc(ObjectId{oid}, acc);
        oracle[oid] = {p, acc, expiry};
      } else {
        db.insert({ObjectId{oid}, now, p, 1.0}, acc, expiry);
        oracle[oid] = {p, acc, expiry};
      }
    } else if (roll < 0.55 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
      EXPECT_TRUE(db.remove(ObjectId{it->first}));
      oracle.erase(it);
    } else if (roll < 0.70) {
      // Expiry sweep.
      const auto expired = db.expire_until(now);
      for (const ObjectId oid : expired) {
        const auto it = oracle.find(oid.value);
        ASSERT_NE(it, oracle.end()) << "expired unknown object " << oid.value;
        EXPECT_LE(it->second.expiry, now);
        oracle.erase(it);
      }
      // Everything left must be unexpired.
      for (const auto& [oid, rec] : oracle) {
        EXPECT_GT(rec.expiry, now) << "object " << oid << " should have expired";
      }
    } else if (roll < 0.85) {
      // Point lookup.
      const std::uint64_t oid = rng.next_below(500);
      const SightingDb::Record* rec = db.find(ObjectId{oid});
      const auto it = oracle.find(oid);
      ASSERT_EQ(rec != nullptr, it != oracle.end()) << "oid " << oid;
      if (rec != nullptr) {
        EXPECT_EQ(rec->sighting.pos, it->second.pos);
        EXPECT_EQ(rec->offered_acc, it->second.acc);
      }
    } else {
      // Area query vs oracle.
      const geo::Polygon area = geo::Polygon::from_rect(geo::Rect::from_center(
          {rng.uniform(0, 1000), rng.uniform(0, 1000)}, rng.uniform(20, 200),
          rng.uniform(20, 200)));
      const double req_acc = rng.uniform(5, 120);
      std::vector<core::ObjectResult> got;
      db.objects_in_area(area, req_acc, 0.3, got);
      std::vector<std::uint64_t> got_ids;
      for (const auto& r : got) got_ids.push_back(r.oid.value);
      std::sort(got_ids.begin(), got_ids.end());
      std::vector<std::uint64_t> want_ids;
      for (const auto& [oid, rec] : oracle) {
        if (rec.acc > req_acc) continue;
        if (geo::overlap_degree(area, {rec.pos, rec.acc}) >= 0.3) {
          want_ids.push_back(oid);
        }
      }
      EXPECT_EQ(got_ids, want_ids) << "step " << step;
    }
    ASSERT_EQ(db.size(), oracle.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SightingDbChurn, ::testing::Values(3u, 5u, 8u, 13u));

// --- read paths vs a reference scan ----------------------------------------

using Results = std::vector<core::ObjectResult>;

// The reference read paths search the index by the full req_acc and take
// every accuracy and position from the record. An object qualifies when
// ld.acc <= req_acc (§3.2), so nothing does at a NaN req_acc.
bool qualifies(const SightingDb::Record& rec, double req_acc) {
  return rec.offered_acc <= req_acc;
}

Results ref_area(const SightingDb& db, const geo::Polygon& area, double req_acc,
                 double req_overlap) {
  Results out;
  if (area.empty() || std::isnan(req_acc)) return out;
  req_overlap = std::max(req_overlap, SightingDb::kMinOverlap);
  std::vector<spatial::Entry> cands;
  db.index().query_rect(area.bounding_box().inflated(std::max(req_acc, 0.0)), cands);
  for (const spatial::Entry& c : cands) {
    const SightingDb::Record* rec = db.find(c.id);
    if (!qualifies(*rec, req_acc)) continue;
    const core::LocationDescriptor ld{rec->sighting.pos, rec->offered_acc};
    if (geo::overlap_degree(area, ld.location_area()) >= req_overlap) {
      out.push_back({c.id, ld});
    }
  }
  return out;
}

Results ref_circle(const SightingDb& db, const geo::Circle& circle, double req_acc) {
  Results out;
  std::vector<spatial::Entry> cands;
  db.index().query_circle(circle, cands);
  for (const spatial::Entry& c : cands) {
    const SightingDb::Record* rec = db.find(c.id);
    if (!qualifies(*rec, req_acc)) continue;
    out.push_back({c.id, {rec->sighting.pos, rec->offered_acc}});
  }
  return out;
}

Results ref_k_nearest(const SightingDb& db, geo::Point p, std::size_t k, double req_acc) {
  Results out;
  for (std::size_t fetch = k;; fetch *= 2) {
    const auto entries = db.index().k_nearest(p, fetch);
    out.clear();
    for (const spatial::Entry& e : entries) {
      const SightingDb::Record* rec = db.find(e.id);
      if (!qualifies(*rec, req_acc)) continue;
      out.push_back({e.id, {rec->sighting.pos, rec->offered_acc}});
      if (out.size() == k) return out;
    }
    if (entries.size() < fetch) return out;
  }
}

Results by_oid(Results r) {
  std::sort(r.begin(), r.end(),
            [](const auto& a, const auto& b) { return a.oid.value < b.oid.value; });
  return r;
}

/// The histogram must equal a recount of the records, and every index entry
/// must sit at its record's position (the lookup-free filter relies on it).
void check_invariants(const SightingDb& db) {
  SightingDb::AccHistogram recount;
  db.for_each([&](ObjectId, const SightingDb::Record& rec) { ++recount[rec.offered_acc]; });
  ASSERT_EQ(db.accuracy_histogram(), recount);

  std::vector<spatial::Entry> entries;
  db.index().query_rect(geo::Rect{{-1e9, -1e9}, {1e9, 1e9}}, entries);
  ASSERT_EQ(entries.size(), db.size());
  for (const spatial::Entry& e : entries) {
    const SightingDb::Record* rec = db.find(e.id);
    ASSERT_NE(rec, nullptr) << "index entry " << e.id.value << " has no record";
    ASSERT_EQ(e.pos, rec->sighting.pos) << "object " << e.id.value;
  }
}

enum class IndexKind { kQuadtree, kRTree, kGrid };

spatial::IndexFactory factory_for(IndexKind kind) {
  switch (kind) {
    case IndexKind::kRTree:
      return [] { return spatial::make_rtree(); };
    case IndexKind::kGrid:
      return [] { return spatial::make_grid_index(geo::Rect{{0, 0}, {1000, 1000}}, 256); };
    case IndexKind::kQuadtree:
      break;
  }
  return [] { return spatial::make_point_quadtree(); };
}

// (seed, number of distinct offered accuracies, spatial index)
class SightingDbReadPaths
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, IndexKind>> {};

TEST_P(SightingDbReadPaths, MatchReferenceScanAndShardedView) {
  const auto [seed, n_accs, kind] = GetParam();
  // Some accuracies lie above the common req_acc of 100. Beyond three,
  // every object may carry its own accuracy.
  Rng rng(seed);
  std::vector<double> accs;
  switch (n_accs) {
    case 1: accs = {10.0}; break;
    case 2: accs = {10.0, 150.0}; break;
    case 3: accs = {5.0, 40.0, 150.0}; break;
    default:
      for (int i = 0; i < n_accs; ++i) accs.push_back(rng.uniform(5.0, 200.0));
  }
  constexpr std::size_t kSlices = 4;
  constexpr std::uint64_t kObjects = 300;

  SightingDb db(factory_for(kind));
  std::vector<std::unique_ptr<SightingDb>> slices;
  SightingsView view;
  for (std::size_t i = 0; i < kSlices; ++i) {
    slices.push_back(std::make_unique<SightingDb>(factory_for(kind)));
    view.add_slice(slices.back().get(), nullptr);
  }
  const auto slice_of = [&](ObjectId oid) -> SightingDb& { return *slices[oid.value % kSlices]; };

  TimePoint now = 0;
  const auto random_point = [&] { return geo::Point{rng.uniform(0, 1000), rng.uniform(0, 1000)}; };
  const auto random_acc = [&] { return accs[rng.next_below(accs.size())]; };
  const auto random_sighting = [&](ObjectId oid) {
    return core::Sighting{oid, now, random_point(), 1.0};
  };
  const auto random_req_acc = [&] {
    switch (rng.next_below(6)) {
      case 0: return 1.0;   // below every stored accuracy
      case 1: return 1e18;  // event installation asks for everything
      case 2: return random_acc();
      case 3: return std::nan("");  // unvalidated store input: matches nothing
      default: return 100.0;
    }
  };

  for (int step = 0; step < 1500; ++step) {
    now += static_cast<Duration>(rng.next_below(1000));
    const TimePoint expiry = now + static_cast<Duration>(rng.next_below(60000));
    const ObjectId oid{rng.next_below(kObjects)};
    const double roll = rng.next_double();
    if (roll < 0.30) {  // the leaf's put_sighting: update + set_offered_acc, or insert
      const core::Sighting s = random_sighting(oid);
      const double acc = rng.next_below(4) == 0 ? random_acc() : accs.front();
      if (db.find(oid) != nullptr) {
        ASSERT_TRUE(db.update(s, expiry));
        db.set_offered_acc(oid, acc);
        ASSERT_TRUE(slice_of(oid).update(s, expiry));
        slice_of(oid).set_offered_acc(oid, acc);
      } else {
        db.insert(s, acc, expiry);
        slice_of(oid).insert(s, acc, expiry);
      }
    } else if (roll < 0.45) {
      const bool removed = db.remove(oid);
      ASSERT_EQ(slice_of(oid).remove(oid), removed);
    } else if (roll < 0.70) {
      // Batches mix inserts and updates; half of them keep every stored
      // accuracy, the other half may change some.
      const bool change_accs = rng.next_below(2) == 0;
      std::vector<SightingDb::BulkUpdate> batch;
      std::vector<std::vector<SightingDb::BulkUpdate>> per_slice(kSlices);
      for (std::uint64_t i = 0, n = 1 + rng.next_below(12); i < n; ++i) {
        const ObjectId id{rng.next_below(kObjects)};
        const SightingDb::Record* rec = db.find(id);
        const double acc = rec != nullptr && !change_accs ? rec->offered_acc : random_acc();
        batch.push_back({random_sighting(id), acc});
        per_slice[id.value % kSlices].push_back(batch.back());
      }
      db.apply_batch(batch, expiry);
      for (std::size_t i = 0; i < kSlices; ++i) slices[i]->apply_batch(per_slice[i], expiry);
    } else if (roll < 0.80) {
      const double acc = random_acc();
      db.set_offered_acc(oid, acc);
      slice_of(oid).set_offered_acc(oid, acc);
    } else if (roll < 0.995) {
      const TimePoint horizon = now - static_cast<Duration>(rng.next_below(30000));
      std::vector<ObjectId> expired = db.expire_until(horizon);
      std::vector<ObjectId> sliced;
      for (const auto& slice : slices) {
        for (const ObjectId e : slice->expire_until(horizon)) sliced.push_back(e);
      }
      std::sort(expired.begin(), expired.end());
      std::sort(sliced.begin(), sliced.end());
      ASSERT_EQ(sliced, expired) << "step " << step;
    } else {
      db.clear();
      for (const auto& slice : slices) slice->clear();
    }

    SCOPED_TRACE("step " + std::to_string(step));
    check_invariants(db);
    for (const auto& slice : slices) check_invariants(*slice);
    ASSERT_EQ(view.size(), db.size());

    // Range probe: a rectangle or a triangle.
    const geo::Point c = random_point();
    const double w = rng.uniform(10, 300);
    const double h = rng.uniform(10, 300);
    const geo::Polygon area =
        rng.next_below(2) == 0
            ? geo::Polygon::from_rect(geo::Rect::from_center(c, w, h))
            : geo::Polygon({c, {c.x + w, c.y + rng.uniform(-h, h)}, {c.x, c.y + h}});
    const double req_acc = random_req_acc();
    const double req_overlaps[] = {0.0, 0.3, 0.5, 1.0};
    const double req_overlap = req_overlaps[rng.next_below(4)];
    Results got;
    db.objects_in_area(area, req_acc, req_overlap, got);
    ASSERT_EQ(got, ref_area(db, area, req_acc, req_overlap));
    Results sharded;
    view.objects_in_area(area, req_acc, req_overlap, sharded);
    ASSERT_EQ(by_oid(sharded), by_oid(got));

    // NN probes: the candidate circle and the k nearest.
    const geo::Circle circle{random_point(), rng.uniform(5, 200)};
    got.clear();
    db.objects_in_circle(circle, req_acc, got);
    ASSERT_EQ(got, ref_circle(db, circle, req_acc));
    sharded.clear();
    view.objects_in_circle(circle, req_acc, sharded);
    ASSERT_EQ(by_oid(sharded), by_oid(got));

    const std::size_t k = 1 + rng.next_below(10);
    const geo::Point p = random_point();
    const Results nearest = db.k_nearest(p, k, req_acc);
    ASSERT_EQ(nearest, ref_k_nearest(db, p, k, req_acc));
    ASSERT_EQ(by_oid(view.k_nearest(p, k, req_acc)), by_oid(nearest));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SightingDbReadPaths,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Values(1, 2, 3, 300),
                       ::testing::Values(IndexKind::kQuadtree, IndexKind::kRTree,
                                         IndexKind::kGrid)));

using Record = SightingDb::Record;

class VisitorDbPersistence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("locs_vdb_prop_" + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam())))
                .string();
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }
  std::string path_;
};

TEST_P(VisitorDbPersistence, RandomMutationsSurviveReopenAndCompaction) {
  struct OracleRec {
    bool leaf;
    std::uint32_t fwd;
    double acc;
  };
  std::map<std::uint64_t, OracleRec> oracle;
  Rng rng(GetParam() * 7 + 1);

  const auto verify = [&](const VisitorDb& db) {
    ASSERT_EQ(db.size(), oracle.size());
    for (const auto& [oid, rec] : oracle) {
      const VisitorRecord* got = db.find(ObjectId{oid});
      ASSERT_NE(got, nullptr) << "oid " << oid;
      EXPECT_EQ(got->leaf.has_value(), rec.leaf);
      if (rec.leaf) {
        EXPECT_DOUBLE_EQ(got->leaf->offered_acc, rec.acc);
      } else {
        EXPECT_EQ(got->forward_ref.value, rec.fwd);
      }
    }
  };

  for (int round = 0; round < 4; ++round) {
    auto opened = VisitorDb::open(path_);
    ASSERT_TRUE(opened.ok());
    VisitorDb db = std::move(opened).value();
    verify(db);
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.next_double();
      const std::uint64_t oid = rng.next_below(200);
      if (roll < 0.4) {
        const auto fwd = static_cast<std::uint32_t>(1 + rng.next_below(30));
        db.set_forward(ObjectId{oid}, NodeId{fwd});
        oracle[oid] = {false, fwd, 0};
      } else if (roll < 0.7) {
        const double acc = rng.uniform(1, 100);
        db.insert_leaf(ObjectId{oid}, acc, {NodeId{9}, {acc, acc * 2}});
        oracle[oid] = {true, 0, acc};
      } else if (roll < 0.85) {
        const double acc = rng.uniform(1, 100);
        db.set_offered_acc(ObjectId{oid}, acc);
        const auto it = oracle.find(oid);
        if (it != oracle.end() && it->second.leaf) it->second.acc = acc;
      } else {
        db.remove(ObjectId{oid});
        oracle.erase(oid);
      }
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(db.compact().is_ok());
    }
    verify(db);
    // db goes out of scope = clean close; next round reopens from disk.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisitorDbPersistence, ::testing::Values(1u, 2u, 3u));

TEST(VisitorDbCompaction, ServerTickTriggersCompaction) {
  const std::string path =
      (fs::temp_directory_path() / "locs_vdb_autocompact").string();
  fs::remove(path);
  auto opened = VisitorDb::open(path);
  ASSERT_TRUE(opened.ok());
  VisitorDb db = std::move(opened).value();
  for (std::uint64_t i = 0; i < 600; ++i) {
    db.set_forward(ObjectId{i % 10}, NodeId{static_cast<std::uint32_t>(i % 5 + 1)});
  }
  EXPECT_GE(db.log_appended(), 600u);
  ASSERT_TRUE(db.maybe_compact(500).is_ok());
  EXPECT_EQ(db.log_appended(), 0u);  // fresh log after rewrite
  EXPECT_EQ(db.size(), 10u);
  // Below threshold: no-op.
  db.set_forward(ObjectId{1}, NodeId{2});
  ASSERT_TRUE(db.maybe_compact(500).is_ok());
  EXPECT_EQ(db.log_appended(), 1u);
  fs::remove(path);
}

}  // namespace
}  // namespace locs::store
