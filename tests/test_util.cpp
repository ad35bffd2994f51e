#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/ids.hpp"
#include "util/metrics.hpp"
#include "util/oid_set.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace locs {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 5.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, ChunkedEqualsWhole) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(s.data(), s.size());
  const std::uint32_t first = crc32(s.data(), 10);
  // Chunked continuation uses the previous CRC as seed.
  const std::uint32_t chunked = crc32(s.data() + 10, s.size() - 10, first);
  EXPECT_EQ(whole, chunked);
}

TEST(Crc32, DetectsBitFlip) {
  std::string s = "hello world";
  const std::uint32_t before = crc32(s.data(), s.size());
  s[3] ^= 0x01;
  EXPECT_NE(before, crc32(s.data(), s.size()));
}

TEST(Result, ValueAndStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(StatusCode::kNotFound, "nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Result, StatusToString) {
  const Status s(StatusCode::kIoError, "disk on fire");
  EXPECT_EQ(s.to_string(), "IO_ERROR: disk on fire");
  EXPECT_EQ(Status::ok().to_string(), "OK");
}

TEST(Ids, NodeValidity) {
  EXPECT_FALSE(kNoNode.valid());
  EXPECT_TRUE(NodeId{3}.valid());
  EXPECT_EQ(NodeId{3}, NodeId{3});
  EXPECT_NE(NodeId{3}, NodeId{4});
}

TEST(Ids, ObjectIdHashSpreads) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<ObjectId>{}(ObjectId{i}));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Ids, ObjectIdHashIsSharedFunction) {
  for (std::uint64_t i : {0ULL, 1ULL, 42ULL, ~0ULL}) {
    EXPECT_EQ(std::hash<ObjectId>{}(ObjectId{i}),
              static_cast<std::size_t>(hash_oid(ObjectId{i})));
  }
}

// --------------------------------------------------------------------------
// Flat ObjectId tables

TEST(OidMap, DifferentialAgainstUnorderedMap) {
  // A small key range keeps probe runs long and erases frequent, so the
  // backward shift runs over many layouts; key 0 is the out-of-band sentinel.
  util::OidMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  Rng rng(20261017);
  for (int step = 0; step < 200000; ++step) {
    const ObjectId id{rng.next_below(600)};
    const double roll = rng.next_double();
    if (roll < 0.45) {
      const auto [value, inserted] = map.try_emplace(id);
      const auto [it, model_inserted] = model.try_emplace(id.value, 0);
      ASSERT_EQ(inserted, model_inserted) << "step " << step;
      *value = it->second = static_cast<std::uint64_t>(step);
    } else if (roll < 0.8) {
      ASSERT_EQ(map.erase(id), model.erase(id.value) == 1) << "step " << step;
    } else {
      const std::uint64_t* value = map.find(id);
      const auto it = model.find(id.value);
      ASSERT_EQ(value != nullptr, it != model.end()) << "step " << step;
      if (value != nullptr) {
        ASSERT_EQ(*value, it->second) << "step " << step;
      }
    }
    ASSERT_EQ(map.size(), model.size()) << "step " << step;
  }
  for (const auto& [key, value] : model) {
    const std::uint64_t* found = map.find(ObjectId{key});
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value);
  }
}

TEST(OidMap, EraseShiftWrapsPastTableEnd) {
  // Six keys whose home is the last slot of the initial 64-slot table: they
  // occupy slots 63, 0, 1, ... so every erase shifts a run across the end.
  std::vector<ObjectId> wrap;
  for (std::uint64_t v = 1; wrap.size() < 6; ++v) {
    if ((hash_oid(ObjectId{v}) & 63) == 63) wrap.push_back(ObjectId{v});
  }
  // Plus keys homed at slots 0 and 1, which the wrapped run displaces.
  std::vector<ObjectId> low;
  for (std::uint64_t v = 1; low.size() < 2; ++v) {
    if ((hash_oid(ObjectId{v}) & 63) == low.size()) low.push_back(ObjectId{v});
  }
  for (std::size_t erase_at = 0; erase_at < wrap.size(); ++erase_at) {
    util::OidMap<std::uint64_t> map;
    for (const ObjectId id : wrap) map[id] = id.value;
    for (const ObjectId id : low) map[id] = id.value;
    ASSERT_TRUE(map.erase(wrap[erase_at]));
    EXPECT_EQ(map.find(wrap[erase_at]), nullptr);
    EXPECT_FALSE(map.erase(wrap[erase_at]));
    for (const ObjectId id : wrap) {
      if (id == wrap[erase_at]) continue;
      const std::uint64_t* v = map.find(id);
      ASSERT_NE(v, nullptr) << "erase_at " << erase_at << " lost " << id.value;
      EXPECT_EQ(*v, id.value);
    }
    for (const ObjectId id : low) {
      const std::uint64_t* v = map.find(id);
      ASSERT_NE(v, nullptr) << "erase_at " << erase_at << " lost " << id.value;
      EXPECT_EQ(*v, id.value);
    }
    EXPECT_EQ(map.size(), wrap.size() + low.size() - 1);
  }
}

TEST(OidMap, ZeroIdIsAnOrdinaryKey) {
  util::OidMap<int> map;
  EXPECT_EQ(map.find(ObjectId{0}), nullptr);
  map[ObjectId{0}] = 7;
  map[ObjectId{1}] = 8;
  ASSERT_NE(map.find(ObjectId{0}), nullptr);
  EXPECT_EQ(*map.find(ObjectId{0}), 7);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase(ObjectId{0}));
  EXPECT_FALSE(map.erase(ObjectId{0}));
  EXPECT_EQ(map.find(ObjectId{0}), nullptr);
  EXPECT_EQ(*map.find(ObjectId{1}), 8);
  EXPECT_EQ(map.size(), 1u);
  // Re-inserted after clear(), the sentinel starts from V{} like any key.
  map[ObjectId{0}] = 9;
  map.clear();
  EXPECT_EQ(map[ObjectId{0}], 0);
}

TEST(StableOidMap, AddressesSurviveGrowthAndOtherErases) {
  util::StableOidMap<std::vector<int>> map;
  std::vector<std::pair<ObjectId, const std::vector<int>*>> kept;
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto& v = map[ObjectId{i}];
    v.assign(3, static_cast<int>(i));
    kept.emplace_back(ObjectId{i}, &v);
  }
  // Growth of both the index and the value store, then erases of everything
  // else and reuse of the freed slots.
  for (std::uint64_t i = 1000; i < 21000; ++i) map[ObjectId{i}].push_back(1);
  for (std::uint64_t i = 1000; i < 21000; i += 2) ASSERT_TRUE(map.erase(ObjectId{i}));
  for (std::uint64_t i = 50000; i < 55000; ++i) map[ObjectId{i}].push_back(2);
  for (const auto& [id, addr] : kept) {
    ASSERT_EQ(map.find(id), addr) << id.value;
    EXPECT_EQ(*addr, std::vector<int>(3, static_cast<int>(id.value)));
  }
  EXPECT_EQ(map.size(), 64u + 10000u + 5000u);
  // A reused slot starts from a value-initialized V.
  ASSERT_TRUE(map.erase(ObjectId{7}));
  const auto [fresh, inserted] = map.try_emplace(ObjectId{7});
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(fresh->empty());
}

TEST(StableOidMap, ForEachVisitsEachLiveKeyOnce) {
  util::StableOidMap<std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> model;
  Rng rng(77);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(3000);
    if (rng.next_double() < 0.6) {
      map[ObjectId{key}] = key * 3;
      model[key] = key * 3;
    } else {
      EXPECT_EQ(map.erase(ObjectId{key}), model.erase(key) == 1);
    }
  }
  map[ObjectId{0}] = 0;  // the out-of-band sentinel key is visited too
  model[0] = 0;
  std::map<std::uint64_t, int> visits;
  map.for_each([&](ObjectId id, const std::uint64_t& value) {
    ++visits[id.value];
    EXPECT_EQ(value, id.value * 3);
  });
  ASSERT_EQ(visits.size(), model.size());
  for (const auto& [key, count] : visits) {
    EXPECT_EQ(count, 1) << key;
    EXPECT_EQ(model.count(key), 1u) << key;
  }
}

TEST(Clock, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(milliseconds(5));
  EXPECT_EQ(clock.now(), 100 + 5000);
  clock.set(0);
  EXPECT_EQ(clock.now(), 0);
}

TEST(Clock, DurationConversions) {
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(milliseconds(3), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

TEST(Metrics, HistogramPercentiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean_us(), 50.5, 1e-9);
  EXPECT_EQ(h.percentile_us(0.0), 1);
  EXPECT_EQ(h.percentile_us(1.0), 100);
  EXPECT_NEAR(static_cast<double>(h.percentile_us(0.5)), 50, 1);
}

TEST(Metrics, ThroughputMeter) {
  ThroughputMeter m;
  m.start(0);
  m.add(500);
  EXPECT_DOUBLE_EQ(m.ops_per_sec(seconds(2)), 250.0);
}

}  // namespace
}  // namespace locs
