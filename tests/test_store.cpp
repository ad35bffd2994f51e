// Data-storage components: persistent log (WAL), sighting DB (main memory),
// visitor DB (persistent forwarding paths). §5 of the paper.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "store/persistent_log.hpp"
#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "util/rng.hpp"

namespace locs::store {
namespace {

namespace fs = std::filesystem;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("locs_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

using PersistentLogTest = TempDir;
using VisitorDbTest = TempDir;

TEST_F(PersistentLogTest, AppendAndReplay) {
  auto log = PersistentLog::open(path("wal"));
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 10; ++i) {
    wire::Buffer rec{static_cast<std::uint8_t>(i), 0xaa, 0xbb};
    ASSERT_TRUE(log.value().append(rec).is_ok());
  }
  std::vector<int> seen;
  ASSERT_TRUE(log.value()
                  .replay([&](const std::uint8_t* d, std::size_t n) {
                    ASSERT_EQ(n, 3u);
                    seen.push_back(d[0]);
                  })
                  .is_ok());
  EXPECT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(PersistentLogTest, SurvivesReopen) {
  {
    auto log = PersistentLog::open(path("wal"));
    ASSERT_TRUE(log.ok());
    log.value().append({1, 2, 3});
  }
  auto log = PersistentLog::open(path("wal"));
  ASSERT_TRUE(log.ok());
  int count = 0;
  log.value().replay([&](const std::uint8_t*, std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST_F(PersistentLogTest, TornTailIgnored) {
  {
    auto log = PersistentLog::open(path("wal"));
    ASSERT_TRUE(log.ok());
    log.value().append({1});
    log.value().append({2});
  }
  // Chop a few bytes off the end (simulated crash mid-append).
  const auto full = fs::file_size(path("wal"));
  fs::resize_file(path("wal"), full - 3);
  auto log = PersistentLog::open(path("wal"));
  std::vector<int> seen;
  log.value().replay([&](const std::uint8_t* d, std::size_t) { seen.push_back(d[0]); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1);
}

TEST_F(PersistentLogTest, CorruptRecordStopsReplay) {
  {
    auto log = PersistentLog::open(path("wal"));
    ASSERT_TRUE(log.ok());
    log.value().append({10, 20, 30, 40});
    log.value().append({50});
  }
  // Flip a payload byte of the first record (offset 8 = after len+crc).
  {
    FILE* f = std::fopen(path("wal").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 9, SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
  }
  auto log = PersistentLog::open(path("wal"));
  int count = 0;
  log.value().replay([&](const std::uint8_t*, std::size_t) { ++count; });
  EXPECT_EQ(count, 0);  // CRC failure stops the replay at the bad frame
}

TEST_F(PersistentLogTest, RewriteCompacts) {
  auto log = PersistentLog::open(path("wal"));
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 100; ++i) log.value().append({static_cast<std::uint8_t>(i)});
  ASSERT_TRUE(log.value().rewrite({{7}, {8}}).is_ok());
  std::vector<int> seen;
  log.value().replay([&](const std::uint8_t* d, std::size_t) { seen.push_back(d[0]); });
  EXPECT_EQ(seen, (std::vector<int>{7, 8}));
  // Still appendable after rewrite.
  ASSERT_TRUE(log.value().append({9}).is_ok());
  seen.clear();
  log.value().replay([&](const std::uint8_t* d, std::size_t) { seen.push_back(d[0]); });
  EXPECT_EQ(seen, (std::vector<int>{7, 8, 9}));
}

// --------------------------------------------------------------------------

core::Sighting sighting(std::uint64_t oid, double x, double y) {
  return {ObjectId{oid}, 1000, {x, y}, 5.0};
}

SightingDb make_db() {
  return SightingDb([] { return spatial::make_point_quadtree(); });
}

TEST(SightingDb, InsertFindUpdateRemove) {
  SightingDb db = make_db();
  db.insert(sighting(1, 10, 10), 20.0, 5000);
  ASSERT_NE(db.find(ObjectId{1}), nullptr);
  EXPECT_EQ(db.find(ObjectId{1})->offered_acc, 20.0);
  EXPECT_TRUE(db.update(sighting(1, 30, 30), 6000));
  EXPECT_EQ(db.find(ObjectId{1})->sighting.pos, (geo::Point{30, 30}));
  EXPECT_TRUE(db.remove(ObjectId{1}));
  EXPECT_EQ(db.find(ObjectId{1}), nullptr);
  EXPECT_FALSE(db.update(sighting(1, 0, 0), 7000));
}

TEST(SightingDb, ExpiryPopsDueRecords) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.insert(sighting(2, 1, 1), 10, 2000);
  db.insert(sighting(3, 2, 2), 10, 3000);
  auto expired = db.expire_until(2000);
  std::sort(expired.begin(), expired.end());
  EXPECT_EQ(expired, (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
  EXPECT_EQ(db.size(), 1u);
}

TEST(SightingDb, UpdateExtendsExpiry) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.update(sighting(1, 1, 1), 5000);  // visitor contacted the server again
  EXPECT_TRUE(db.expire_until(1500).empty());
  const auto expired = db.expire_until(5000);
  EXPECT_EQ(expired.size(), 1u);
}

TEST(SightingDb, RemovedObjectNeverExpires) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.remove(ObjectId{1});
  EXPECT_TRUE(db.expire_until(10000).empty());
}

TEST(SightingDb, ExpiryHeapStaysBoundedUnderUpdateChurn) {
  // Many updates to a few objects: each update leaves a stale heap entry
  // behind, yet the heap must stay O(objects), and expiry must still pop
  // exactly the due objects of a model, in (expiry, oid) order.
  SightingDb db = make_db();
  std::map<std::uint64_t, TimePoint> model;  // oid -> expiry
  Rng rng(4242);
  TimePoint now = 0;
  std::size_t expired_total = 0;
  for (int step = 0; step < 50000; ++step) {
    // Each phase churns its own 12 objects; the last phase's ones expire.
    const std::uint64_t oid = static_cast<std::uint64_t>(step / 5000) * 12 +
                              rng.next_below(12);
    const TimePoint expiry = now + 1000 + static_cast<TimePoint>(rng.next_below(400));
    if (rng.next_double() < 0.03) {
      EXPECT_EQ(db.remove(ObjectId{oid}), model.erase(oid) == 1);
    } else if (model.count(oid) != 0) {
      ASSERT_TRUE(db.update(sighting(oid, 1, 1), expiry));
      model[oid] = expiry;
    } else {
      db.insert(sighting(oid, 1, 1), 10, expiry);
      model[oid] = expiry;
    }
    ASSERT_LE(db.expiry_heap_size(), 2 * db.size() + 64) << "step " << step;
    if (step % 100 == 99) {
      now += 150;
      std::vector<std::pair<TimePoint, std::uint64_t>> due;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second <= now) {
          due.emplace_back(it->second, it->first);
          it = model.erase(it);
        } else {
          ++it;
        }
      }
      std::sort(due.begin(), due.end());
      std::vector<ObjectId> expected;
      for (const auto& [when, id] : due) expected.push_back(ObjectId{id});
      ASSERT_EQ(db.expire_until(now), expected) << "step " << step;
      expired_total += expected.size();
      ASSERT_EQ(db.size(), model.size());
    }
  }
  EXPECT_GT(expired_total, 0u);
}

TEST(SightingDb, ObjectsInAreaAppliesAccuracyAndOverlap) {
  SightingDb db = make_db();
  // Fig 3 scenario: query area [0,100]^2.
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {100, 100}});
  db.insert(sighting(1, 50, 50), 10.0, 1e9);    // fully inside
  db.insert(sighting(2, 300, 300), 10.0, 1e9);  // fully outside
  db.insert(sighting(3, 0, 50), 10.0, 1e9);     // straddles: overlap 0.5
  db.insert(sighting(4, 50, 50), 200.0, 1e9);   // insufficient accuracy (o5)

  std::vector<core::ObjectResult> out;
  db.objects_in_area(area, 50.0, 0.4, out);
  std::vector<std::uint64_t> ids;
  for (const auto& r : out) ids.push_back(r.oid.value);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));

  out.clear();
  db.objects_in_area(area, 50.0, 0.6, out);  // overlap 0.5 no longer qualifies
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].oid, ObjectId{1});
}

TEST(SightingDb, ObjectsInAreaCandidateMarginCatchesOutsideCenters) {
  SightingDb db = make_db();
  // Center outside the area but the location circle overlaps heavily.
  db.insert(sighting(1, 104, 50), 10.0, 1e9);
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {100, 100}});
  std::vector<core::ObjectResult> out;
  db.objects_in_area(area, 10.0, 0.1, out);
  ASSERT_EQ(out.size(), 1u);
}

TEST(SightingDb, KNearestRespectsAccuracyFilter) {
  SightingDb db = make_db();
  db.insert(sighting(1, 10, 0), 100.0, 1e9);  // nearest but inaccurate
  db.insert(sighting(2, 20, 0), 5.0, 1e9);
  db.insert(sighting(3, 30, 0), 5.0, 1e9);
  const auto nn = db.k_nearest({0, 0}, 1, 50.0);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].oid, ObjectId{2});
}

/// Forwards to a point quadtree and counts the index walks a query makes.
class CountingIndex final : public spatial::SpatialIndex {
 public:
  struct Counts {
    std::size_t k_nearest_calls = 0;
    std::size_t rect_entries = 0;
  };
  explicit CountingIndex(Counts* counts)
      : inner_(spatial::make_point_quadtree()), counts_(counts) {}

  void insert(ObjectId id, geo::Point pos) override { inner_->insert(id, pos); }
  bool remove(ObjectId id) override { return inner_->remove(id); }
  void update(ObjectId id, geo::Point pos) override { inner_->update(id, pos); }
  void query_rect(const geo::Rect& rect, std::vector<spatial::Entry>& out) const override {
    const std::size_t before = out.size();
    inner_->query_rect(rect, out);
    counts_->rect_entries += out.size() - before;
  }
  std::vector<spatial::Entry> k_nearest(geo::Point p, std::size_t k) const override {
    ++counts_->k_nearest_calls;
    return inner_->k_nearest(p, k);
  }
  std::size_t size() const override { return inner_->size(); }
  void clear() override { inner_->clear(); }
  const char* name() const override { return "counting"; }

 private:
  std::unique_ptr<spatial::SpatialIndex> inner_;
  Counts* counts_;
};

TEST(SightingDb, KNearestWithNothingAccurateEnoughSkipsTheIndex) {
  CountingIndex::Counts counts;
  SightingDb db([&] { return std::make_unique<CountingIndex>(&counts); });
  for (std::uint64_t i = 0; i < 1000; ++i) {
    db.insert(sighting(i, static_cast<double>(i % 40), static_cast<double>(i / 40)),
              i % 2 == 0 ? 60.0 : 80.0, 1e9);
  }
  EXPECT_TRUE(db.k_nearest({5, 5}, 3, 50.0).empty());
  EXPECT_EQ(counts.k_nearest_calls, 0u);  // not log2(n/k) walks that find nothing
  EXPECT_TRUE(db.k_nearest({5, 5}, 0, 100.0).empty());
  EXPECT_EQ(counts.k_nearest_calls, 0u);
  // One qualifying object: the widening walks still find it.
  db.set_offered_acc(ObjectId{999}, 10.0);
  const auto nn = db.k_nearest({5, 5}, 3, 50.0);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].oid, ObjectId{999});
  EXPECT_EQ(nn[0].ld.acc, 10.0);
  EXPECT_GT(counts.k_nearest_calls, 1u);
}

TEST(SightingDb, UniformAccuracyKNearestWalksOnce) {
  CountingIndex::Counts counts;
  SightingDb db([&] { return std::make_unique<CountingIndex>(&counts); });
  for (std::uint64_t i = 0; i < 100; ++i) {
    db.insert(sighting(i, static_cast<double>(i), 0), 10.0, 1e9);
  }
  const auto nn = db.k_nearest({0, 0}, 3, 100.0);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].oid, ObjectId{0});
  EXPECT_EQ(nn[2].ld, (core::LocationDescriptor{{2, 0}, 10.0}));
  EXPECT_EQ(counts.k_nearest_calls, 1u);
}

TEST(SightingDb, AreaSearchBoxShrinksToTheStoredAccuracies) {
  // Every stored accuracy is 10: a req_acc of 100 must not widen the index
  // search to objects 100 away, which could never qualify.
  CountingIndex::Counts counts;
  SightingDb db([&] { return std::make_unique<CountingIndex>(&counts); });
  for (std::uint64_t i = 0; i < 400; ++i) {
    db.insert(sighting(i, static_cast<double>(i % 20) * 10.0,
                       static_cast<double>(i / 20) * 10.0),
              10.0, 1e9);
  }
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{80, 80}, {110, 110}});
  std::vector<core::ObjectResult> out;
  db.objects_in_area(area, 100.0, 0.9, out);
  EXPECT_EQ(out.size(), 4u);            // the disks inside: centers 90 and 100
  EXPECT_EQ(counts.rect_entries, 36u);  // the 6x6 grid points in [70,120]^2
  counts.rect_entries = 0;
  out.clear();
  db.objects_in_area(area, 5.0, 0.5, out);  // req_acc below every stored acc
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(counts.rect_entries, 0u);
}

TEST(SightingDb, AccuracyHistogramTracksEveryMutator) {
  using Hist = SightingDb::AccHistogram;
  SightingDb db = make_db();
  EXPECT_EQ(db.accuracy_histogram(), Hist{});
  db.insert(sighting(1, 0, 0), 10.0, 100);
  db.insert(sighting(2, 1, 0), 30.0, 200);
  db.apply_batch({{sighting(3, 2, 0), 10.0}, {sighting(2, 3, 0), 20.0}}, 300);
  EXPECT_EQ(db.accuracy_histogram(), (Hist{{10.0, 2}, {20.0, 1}}));
  db.set_offered_acc(ObjectId{1}, 20.0);
  EXPECT_EQ(db.accuracy_histogram(), (Hist{{10.0, 1}, {20.0, 2}}));
  EXPECT_TRUE(db.remove(ObjectId{3}));
  EXPECT_EQ(db.accuracy_histogram(), (Hist{{20.0, 2}}));
  db.update(sighting(1, 5, 5), 400);  // expiry 400: outlives object 2's 300
  EXPECT_EQ(db.expire_until(300), (std::vector<ObjectId>{ObjectId{2}}));
  EXPECT_EQ(db.accuracy_histogram(), (Hist{{20.0, 1}}));
  db.clear();
  EXPECT_EQ(db.accuracy_histogram(), Hist{});
}

TEST(SightingDb, ClearResets) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.clear();
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.find(ObjectId{1}), nullptr);
  db.insert(sighting(1, 0, 0), 10, 1000);  // usable after clear
  EXPECT_EQ(db.size(), 1u);
}

// --------------------------------------------------------------------------

TEST(VisitorDb, InMemoryBasics) {
  VisitorDb db;
  db.set_forward(ObjectId{1}, NodeId{5});
  ASSERT_NE(db.find(ObjectId{1}), nullptr);
  EXPECT_EQ(db.find(ObjectId{1})->forward_ref, NodeId{5});
  EXPECT_FALSE(db.find(ObjectId{1})->leaf.has_value());

  db.insert_leaf(ObjectId{2}, 25.0, {NodeId{9}, {10, 100}});
  ASSERT_TRUE(db.find(ObjectId{2})->leaf.has_value());
  EXPECT_EQ(db.find(ObjectId{2})->leaf->offered_acc, 25.0);

  // A leaf record can become a forwarding record (never both).
  db.set_forward(ObjectId{2}, NodeId{7});
  EXPECT_FALSE(db.find(ObjectId{2})->leaf.has_value());

  EXPECT_TRUE(db.remove(ObjectId{1}));
  EXPECT_FALSE(db.remove(ObjectId{1}));
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(VisitorDbTest, PersistsAcrossReopen) {
  {
    auto db = VisitorDb::open(path("vdb"));
    ASSERT_TRUE(db.ok());
    db.value().set_forward(ObjectId{1}, NodeId{5});
    db.value().insert_leaf(ObjectId{2}, 25.0, {NodeId{9}, {10.0, 100.0}});
    db.value().set_offered_acc(ObjectId{2}, 30.0);
    db.value().set_forward(ObjectId{3}, NodeId{6});
    db.value().remove(ObjectId{3});
  }
  auto db = VisitorDb::open(path("vdb"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().size(), 2u);
  ASSERT_NE(db.value().find(ObjectId{1}), nullptr);
  EXPECT_EQ(db.value().find(ObjectId{1})->forward_ref, NodeId{5});
  ASSERT_NE(db.value().find(ObjectId{2}), nullptr);
  ASSERT_TRUE(db.value().find(ObjectId{2})->leaf.has_value());
  EXPECT_EQ(db.value().find(ObjectId{2})->leaf->offered_acc, 30.0);
  EXPECT_EQ(db.value().find(ObjectId{2})->leaf->reg_info.reg_inst, NodeId{9});
  EXPECT_EQ(db.value().find(ObjectId{3}), nullptr);
}

TEST_F(PersistentLogTest, AppendBatchMatchesIndividualAppends) {
  {
    auto log = PersistentLog::open(path("batched"));
    ASSERT_TRUE(log.ok());
    std::vector<wire::Buffer> records;
    for (std::uint8_t i = 0; i < 10; ++i) records.push_back({i, 0xcc});
    ASSERT_TRUE(log.value().append_batch(records).is_ok());
    EXPECT_EQ(log.value().appended(), 10u);
    ASSERT_TRUE(log.value().append_batch({}).is_ok());  // empty batch: no-op
    EXPECT_EQ(log.value().appended(), 10u);
  }
  {
    auto log = PersistentLog::open(path("individual"));
    ASSERT_TRUE(log.ok());
    for (std::uint8_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.value().append({i, 0xcc}).is_ok());
    }
  }
  // One frame write per batch, but byte-identical on disk.
  std::ifstream a(path("batched"), std::ios::binary);
  std::ifstream b(path("individual"), std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(VisitorDbTest, RemoveBatchPersistsAndSkipsUnknown) {
  {
    auto db = VisitorDb::open(path("vdb"), /*fsync_each=*/true);
    ASSERT_TRUE(db.ok());
    for (std::uint64_t i = 1; i <= 8; ++i) {
      db.value().insert_leaf(ObjectId{i}, 25.0, {NodeId{9}, {10.0, 100.0}});
    }
    const std::vector<ObjectId> to_remove = {ObjectId{2}, ObjectId{4},
                                             ObjectId{99}, ObjectId{6}};
    EXPECT_EQ(db.value().remove_batch(to_remove), 3u);  // 99 was never there
    EXPECT_EQ(db.value().size(), 5u);
    // One batched append of 3 remove records on top of the 8 inserts.
    EXPECT_EQ(db.value().log_appended(), 11u);
  }
  auto db = VisitorDb::open(path("vdb"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().size(), 5u);
  EXPECT_EQ(db.value().find(ObjectId{2}), nullptr);
  EXPECT_EQ(db.value().find(ObjectId{4}), nullptr);
  EXPECT_EQ(db.value().find(ObjectId{6}), nullptr);
  ASSERT_NE(db.value().find(ObjectId{5}), nullptr);
}

TEST_F(VisitorDbTest, CompactionPreservesState) {
  {
    auto db = VisitorDb::open(path("vdb"));
    ASSERT_TRUE(db.ok());
    for (std::uint64_t i = 0; i < 100; ++i) {
      db.value().set_forward(ObjectId{i}, NodeId{static_cast<std::uint32_t>(i % 7 + 1)});
    }
    for (std::uint64_t i = 0; i < 90; ++i) db.value().remove(ObjectId{i});
    ASSERT_TRUE(db.value().compact().is_ok());
  }
  const auto size_after = fs::file_size(path("vdb"));
  EXPECT_LT(size_after, 1000u);  // 10 small records, not 190 log entries
  auto db = VisitorDb::open(path("vdb"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().size(), 10u);
  EXPECT_EQ(db.value().find(ObjectId{95})->forward_ref, NodeId{95 % 7 + 1});
}

}  // namespace
}  // namespace locs::store
