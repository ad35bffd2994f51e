// Property / fuzz tests for the wire codec, covering EVERY protocol message
// type (extends PR 1's varint boundary tests):
//  * encode -> decode -> re-encode is byte-stable for random payloads,
//  * truncated datagrams sticky-fail (and never crash) -- cutting the last
//    byte always breaks the final required field,
//  * bit-flipped and purely random datagrams never crash the decoder; when
//    a flip happens to decode, the result re-encodes without crashing,
//  * the routing peek (wire::peek_object_key) agrees with the full decode,
//  * hardened varints: boundary values round-trip, overlong and overflowing
//    encodings sticky-fail.
#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "wire/messages.hpp"

namespace locs::wire {
namespace {

using locs::Rng;

// --- random payload generators ----------------------------------------------

geo::Point rand_point(Rng& rng) {
  return {rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
}

geo::Polygon rand_polygon(Rng& rng) {
  // Convexity is irrelevant for the codec; any vertex list must survive.
  std::vector<geo::Point> pts;
  const std::size_t n = rng.next_below(8);  // including empty polygons
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back(rand_point(rng));
  return geo::Polygon(std::move(pts));
}

ObjectId rand_oid(Rng& rng) {
  // Mix small and huge ids so varint lengths vary.
  return ObjectId{rng.next_below(3) == 0 ? rng.next_u64() : rng.next_below(1000)};
}

NodeId rand_node(Rng& rng) {
  return NodeId{static_cast<std::uint32_t>(rng.next_u64())};
}

core::Sighting rand_sighting(Rng& rng) {
  return {rand_oid(rng), static_cast<TimePoint>(rng.next_u64() >> 20),
          rand_point(rng), rng.uniform(0, 500)};
}

core::LocationDescriptor rand_ld(Rng& rng) {
  return {rand_point(rng), rng.uniform(0, 500)};
}

core::AccuracyRange rand_acc_range(Rng& rng) {
  return {rng.uniform(0, 100), rng.uniform(0, 100)};
}

core::RegInfo rand_reg_info(Rng& rng) {
  return {rand_node(rng), rand_acc_range(rng)};
}

PackedResults rand_results(Rng& rng) {
  PackedResults v;
  const std::size_t n = rng.next_below(6);  // including empty lists
  for (std::size_t i = 0; i < n; ++i) v.append({rand_oid(rng), rand_ld(rng)});
  return v;
}

std::optional<OriginArea> rand_origin(Rng& rng) {
  if (rng.next_below(2) == 0) return std::nullopt;
  return OriginArea{rand_node(rng), rand_polygon(rng)};
}

std::string rand_str(Rng& rng) {
  std::string s(rng.next_below(24), '\0');
  for (char& c : s) c = static_cast<char>(rng.next_below(256));
  return s;
}

BatchedUpdateReq rand_batch(Rng& rng) {
  BatchedUpdateReq b;
  const std::size_t n = rng.next_below(6);  // including empty batches
  for (std::size_t i = 0; i < n; ++i) b.append(rand_sighting(rng));
  return b;
}

BatchedUpdateAck rand_batch_ack(Rng& rng) {
  BatchedUpdateAck b;
  const std::size_t n = rng.next_below(6);
  for (std::size_t i = 0; i < n; ++i) b.append(rand_oid(rng), rng.uniform(0, 500));
  return b;
}

BatchedRefreshReq rand_refresh_batch(Rng& rng) {
  BatchedRefreshReq b;
  const std::size_t n = rng.next_below(8);  // including empty sweeps
  for (std::size_t i = 0; i < n; ++i) b.append(rand_oid(rng));
  return b;
}

BatchedPathUpdate rand_path_batch(Rng& rng) {
  BatchedPathUpdate b;
  const std::size_t n = rng.next_below(8);  // including empty batches
  for (std::size_t i = 0; i < n; ++i) b.append(rng.next_below(2) == 0, rand_oid(rng));
  return b;
}

BucketMigrate rand_bucket_migrate(Rng& rng) {
  BucketMigrate m;
  m.bucket = static_cast<std::uint32_t>(rng.next_below(256));
  const std::size_t n = rng.next_below(5);  // including empty migrations
  for (std::size_t i = 0; i < n; ++i) {
    m.append({rand_sighting(rng), rng.uniform(0, 500),
              static_cast<TimePoint>(rng.next_u64() >> 20), rand_reg_info(rng)});
  }
  return m;
}

ReplicaTee rand_replica_tee(Rng& rng) {
  ReplicaTee m;
  const std::size_t n = rng.next_below(5);  // including empty tees
  for (std::size_t i = 0; i < n; ++i) {
    m.append({static_cast<ReplicaTee::Op>(rng.next_below(3)), rand_sighting(rng),
              rng.uniform(0, 500), static_cast<TimePoint>(rng.next_u64() >> 20),
              rand_reg_info(rng)});
  }
  return m;
}

/// One randomized instance of every protocol message type.
std::vector<Message> random_messages(Rng& rng) {
  std::vector<Message> msgs;
  msgs.push_back(RegisterReq{rand_sighting(rng), rand_str(rng),
                             rand_acc_range(rng), rand_node(rng), rng.next_u64()});
  msgs.push_back(RegisterRes{rand_node(rng), rng.uniform(0, 100), rng.next_u64()});
  msgs.push_back(
      RegisterFailed{rand_node(rng), rng.uniform(-1, 100), rng.next_u64()});
  msgs.push_back(CreatePath{rand_oid(rng)});
  msgs.push_back(RemovePath{rand_oid(rng)});
  msgs.push_back(UpdateReq{rand_sighting(rng)});
  msgs.push_back(UpdateAck{rand_oid(rng), rng.uniform(0, 100)});
  msgs.push_back(HandoverReq{rand_sighting(rng), rand_reg_info(rng),
                             rng.uniform(0, 100), rng.next_below(2) == 0,
                             rng.next_u64(), rand_origin(rng)});
  msgs.push_back(HandoverRes{rand_oid(rng), rand_node(rng), rng.uniform(0, 100),
                             rng.next_u64(), rand_origin(rng)});
  msgs.push_back(AgentChanged{rand_oid(rng), rand_node(rng), rng.uniform(0, 100)});
  msgs.push_back(PosQueryReq{rand_oid(rng), rng.next_u64()});
  msgs.push_back(PosQueryFwd{rand_oid(rng), rand_node(rng), rng.next_u64()});
  msgs.push_back(PosQueryRes{rand_oid(rng), rng.next_below(2) == 0, rand_ld(rng),
                             rand_node(rng), rng.next_u64(), rand_origin(rng)});
  msgs.push_back(RangeQueryReq{rand_polygon(rng), rng.uniform(0, 100),
                               rng.uniform(0, 1), rng.next_u64()});
  msgs.push_back(RangeQueryFwd{rand_polygon(rng), rng.uniform(0, 100),
                               rng.uniform(0, 1), rand_node(rng), rng.next_u64(),
                               rng.next_below(2) == 0});
  msgs.push_back(RangeQuerySubRes{rng.next_u64(), rng.uniform(0, 1e6),
                                  rand_results(rng), rand_origin(rng)});
  msgs.push_back(
      RangeQueryRes{rng.next_u64(), rng.next_below(2) == 0, rand_results(rng)});
  msgs.push_back(NNQueryReq{rand_point(rng), rng.uniform(0, 100),
                            rng.uniform(0, 100), rng.next_u64()});
  msgs.push_back(NNProbeFwd{rand_point(rng), rng.uniform(0, 5000),
                            rng.uniform(0, 100), rand_node(rng), rng.next_u64()});
  msgs.push_back(NNProbeSubRes{rng.next_u64(), rng.uniform(0, 1e6),
                               rand_results(rng), rand_origin(rng)});
  msgs.push_back(NNQueryRes{rng.next_u64(), rng.next_below(2) == 0,
                            {rand_oid(rng), rand_ld(rng)}, rand_results(rng)});
  msgs.push_back(ChangeAccReq{rand_oid(rng), rand_acc_range(rng), rng.next_u64()});
  msgs.push_back(
      ChangeAccRes{rng.next_u64(), rng.next_below(2) == 0, rng.uniform(0, 100)});
  msgs.push_back(NotifyAvailAcc{rand_oid(rng), rng.uniform(0, 100)});
  msgs.push_back(DeregisterReq{rand_oid(rng)});
  msgs.push_back(RefreshReq{rand_oid(rng)});
  msgs.push_back(EventSubscribe{rng.next_u64(),
                                rng.next_below(2) == 0 ? PredicateKind::kAreaCount
                                                       : PredicateKind::kProximity,
                                rand_polygon(rng),
                                static_cast<std::uint32_t>(rng.next_below(100)),
                                rand_oid(rng), rand_oid(rng), rng.uniform(0, 500),
                                rand_node(rng)});
  msgs.push_back(EventInstall{rng.next_u64(),
                              rng.next_below(2) == 0 ? PredicateKind::kAreaCount
                                                     : PredicateKind::kProximity,
                              rand_polygon(rng), rand_oid(rng), rand_oid(rng),
                              rng.uniform(0, 500), rand_node(rng)});
  msgs.push_back(EventDelta{rng.next_u64(), rand_oid(rng), rng.next_below(2) == 0,
                            rand_point(rng)});
  msgs.push_back(EventNotify{rng.next_u64(), rng.next_below(2) == 0,
                             static_cast<std::uint32_t>(rng.next_below(1000))});
  msgs.push_back(EventUnsubscribe{rng.next_u64()});
  msgs.push_back(rand_batch(rng));
  msgs.push_back(rand_batch_ack(rng));
  msgs.push_back(Heartbeat{rng.next_u64()});
  msgs.push_back(HeartbeatAck{rng.next_u64()});
  msgs.push_back(RecoveryHello{rng.next_u64()});
  msgs.push_back(rand_refresh_batch(rng));
  msgs.push_back(rand_path_batch(rng));
  msgs.push_back(rand_bucket_migrate(rng));
  msgs.push_back(rand_replica_tee(rng));
  msgs.push_back(StandbyPromote{rand_node(rng), rng.next_u64()});
  msgs.push_back(StandbyDemote{rand_node(rng), rng.next_u64()});
  return msgs;
}

constexpr std::size_t kVariantCount = std::variant_size_v<Message>;

// --- round-trip stability ----------------------------------------------------

TEST(CodecProperty, EncodeDecodeReencodeIsByteStableForEveryType) {
  Rng rng(2024);
  for (int iter = 0; iter < 64; ++iter) {
    const NodeId src = rand_node(rng);
    std::vector<bool> covered(kVariantCount, false);
    for (const Message& m : random_messages(rng)) {
      covered[m.index()] = true;
      const Buffer wire = encode_envelope(src, m);
      const auto decoded = decode_envelope(wire);
      ASSERT_TRUE(decoded.ok()) << msg_type_name(message_type(m));
      EXPECT_EQ(decoded.value().src, src);
      EXPECT_EQ(message_type(decoded.value().msg), message_type(m));
      const Buffer again = encode_envelope(src, decoded.value().msg);
      EXPECT_EQ(wire, again) << "re-encode diverged for "
                             << msg_type_name(message_type(m));
    }
    // The generator must keep covering every variant alternative.
    for (std::size_t i = 0; i < kVariantCount; ++i) {
      ASSERT_TRUE(covered[i]) << "no generator for variant index " << i;
    }
  }
}

TEST(CodecProperty, PeekObjectKeyAgreesWithFullDecode) {
  Rng rng(515);
  for (int iter = 0; iter < 64; ++iter) {
    for (const Message& m : random_messages(rng)) {
      const Buffer wire = encode_envelope(NodeId{9}, m);
      const std::optional<ObjectId> peeked = peek_object_key(wire.data(), wire.size());
      // Recover the expected key from the decoded message, if it is one of
      // the object-keyed types.
      std::optional<ObjectId> expected;
      std::visit(
          [&](const auto& msg) {
            using T = std::decay_t<decltype(msg)>;
            if constexpr (std::is_same_v<T, RegisterReq> ||
                          std::is_same_v<T, UpdateReq> ||
                          std::is_same_v<T, HandoverReq>) {
              expected = msg.s.oid;
            } else if constexpr (std::is_same_v<T, CreatePath> ||
                                 std::is_same_v<T, RemovePath> ||
                                 std::is_same_v<T, UpdateAck> ||
                                 std::is_same_v<T, HandoverRes> ||
                                 std::is_same_v<T, AgentChanged> ||
                                 std::is_same_v<T, PosQueryReq> ||
                                 std::is_same_v<T, PosQueryFwd> ||
                                 std::is_same_v<T, PosQueryRes> ||
                                 std::is_same_v<T, ChangeAccReq> ||
                                 std::is_same_v<T, NotifyAvailAcc> ||
                                 std::is_same_v<T, DeregisterReq> ||
                                 std::is_same_v<T, RefreshReq>) {
              expected = msg.oid;
            }
          },
          m);
      EXPECT_EQ(peeked, expected) << msg_type_name(message_type(m));
    }
  }
}

// --- truncation --------------------------------------------------------------

TEST(CodecProperty, TruncatingTheLastByteStickyFailsEveryType) {
  Rng rng(99);
  for (int iter = 0; iter < 16; ++iter) {
    for (const Message& m : random_messages(rng)) {
      const Buffer wire = encode_envelope(NodeId{3}, m);
      ASSERT_GT(wire.size(), 1u);
      const auto res = decode_envelope(wire.data(), wire.size() - 1);
      EXPECT_FALSE(res.ok()) << msg_type_name(message_type(m))
                             << " decoded despite a truncated final field";
    }
  }
}

TEST(CodecProperty, EveryPrefixDecodesWithoutCrashing) {
  Rng rng(7);
  for (const Message& m : random_messages(rng)) {
    const Buffer wire = encode_envelope(NodeId{3}, m);
    for (std::size_t len = 0; len <= wire.size(); ++len) {
      const auto res = decode_envelope(wire.data(), len);
      if (res.ok() && len < wire.size()) {
        // A shorter parse may be legal only if it still re-encodes cleanly.
        encode_envelope(NodeId{3}, res.value().msg);
      }
    }
  }
}

// --- corruption --------------------------------------------------------------

TEST(CodecProperty, BitFlipsNeverCrashTheDecoder) {
  Rng rng(31337);
  for (int iter = 0; iter < 24; ++iter) {
    for (const Message& m : random_messages(rng)) {
      Buffer wire = encode_envelope(NodeId{5}, m);
      for (int flip = 0; flip < 24; ++flip) {
        const std::size_t byte = rng.next_below(wire.size());
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << rng.next_below(8));
        wire[byte] ^= mask;
        const auto res = decode_envelope(wire);
        if (res.ok()) {
          // Corruption that still parses must produce a sane, re-encodable
          // message -- never UB or unbounded allocation.
          encode_envelope(NodeId{5}, res.value().msg);
        }
        wire[byte] ^= mask;  // restore for the next flip
      }
    }
  }
}

TEST(CodecProperty, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(4242);
  Envelope scratch;  // also exercises the capacity-reusing decode path
  for (int iter = 0; iter < 4000; ++iter) {
    Buffer junk(rng.next_below(160));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    if (!junk.empty() && rng.next_below(2) == 0) {
      junk[0] = 1;  // valid version byte: reach the per-type decoders
      if (junk.size() > 1) {
        junk[1] = static_cast<std::uint8_t>(1 + rng.next_below(kVariantCount + 2));
      }
    }
    (void)decode_envelope_into(scratch, junk.data(), junk.size());
    (void)peek_object_key(junk.data(), junk.size());
  }
}

// --- batched updates (framing invariants of wire/messages.hpp) ---------------

TEST(CodecProperty, BatchCursorRoundTripsEverySighting) {
  Rng rng(88);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<core::Sighting> in(rng.next_below(12));
    BatchedUpdateReq batch;
    for (auto& s : in) {
      s = rand_sighting(rng);
      batch.append(s);
    }
    EXPECT_EQ(batch.count, in.size());
    const Buffer wire = encode_envelope(NodeId{4}, batch);
    const auto decoded = decode_envelope(wire);
    ASSERT_TRUE(decoded.ok());
    const auto& out = std::get<BatchedUpdateReq>(decoded.value().msg);
    EXPECT_EQ(out.count, in.size());
    BatchedUpdateReq::Cursor cur = out.sightings();
    core::Sighting s;
    std::size_t i = 0;
    while (cur.next(s)) {
      ASSERT_LT(i, in.size());
      EXPECT_EQ(s.oid, in[i].oid);
      EXPECT_EQ(s.t, in[i].t);
      EXPECT_EQ(s.pos, in[i].pos);
      EXPECT_EQ(s.acc_sens, in[i].acc_sens);
      ++i;
    }
    EXPECT_EQ(i, in.size());
  }
}

/// What a batch's own Cursor sees: the advisory count, the packed region
/// and every item's ObjectId in order (ObjectBatchView must agree).
struct BatchParts {
  std::uint64_t count = 0;
  Buffer packed;
  std::vector<ObjectId> oids;
};

BatchParts parts_of(const Message& m) {
  BatchParts p;
  if (const auto* b = std::get_if<BatchedUpdateReq>(&m)) {
    p = {b->count, b->packed, {}};
    BatchedUpdateReq::Cursor cur = b->sightings();
    core::Sighting s;
    while (cur.next(s)) p.oids.push_back(s.oid);
  } else if (const auto* r = std::get_if<BatchedRefreshReq>(&m)) {
    p = {r->count, r->packed, {}};
    BatchedRefreshReq::Cursor cur = r->oids();
    ObjectId oid;
    while (cur.next(oid)) p.oids.push_back(oid);
  } else if (const auto* t = std::get_if<ReplicaTee>(&m)) {
    p = {t->count, t->packed, {}};
    ReplicaTee::Cursor cur = t->entries();
    ReplicaTee::Entry e;
    while (cur.next(e)) p.oids.push_back(e.s.oid);
  }
  return p;
}

TEST(CodecProperty, ObjectBatchViewAgreesWithCursorForEveryBatchType) {
  using Make = Message (*)(Rng&);
  const std::pair<std::uint64_t, Make> kinds[] = {
      {89, [](Rng& r) { return Message(rand_batch(r)); }},
      {93, [](Rng& r) { return Message(rand_refresh_batch(r)); }},
      {102, [](Rng& r) { return Message(rand_replica_tee(r)); }},
  };
  for (const auto& [seed, make] : kinds) {
    Rng rng(seed);
    for (int iter = 0; iter < 64; ++iter) {
      const Message batch = make(rng);
      const BatchParts parts = parts_of(batch);
      const Buffer wire = encode_envelope(NodeId{6}, batch);
      ObjectBatchView view(wire.data(), wire.size());
      ASSERT_TRUE(view.valid());
      EXPECT_EQ(view.count(), parts.count);
      Buffer reassembled;
      std::size_t items = 0;
      while (const auto item = view.next()) {
        ASSERT_LT(items, parts.oids.size());
        EXPECT_EQ(item->oid, parts.oids[items]);  // the routing key agrees
        reassembled.insert(reassembled.end(), item->data, item->data + item->len);
        ++items;
      }
      EXPECT_EQ(items, parts.oids.size());
      // The concatenated item ranges ARE the packed region (shard splitting
      // re-frames batches by memcpy of these ranges).
      EXPECT_EQ(reassembled, parts.packed);
      // The same batch under any other version byte is not a batch.
      Buffer other_version = wire;
      other_version[0] = kWireVersionPacked;
      EXPECT_FALSE(ObjectBatchView(other_version.data(), other_version.size()).valid());
    }
  }
  // Everything else is rejected, incl. the look-alike packed framings.
  for (const Message& other :
       {Message(UpdateReq{{}}), Message(BatchedUpdateAck{}),
        Message(BatchedPathUpdate{}), Message(BucketMigrate{}),
        Message(RangeQuerySubRes{})}) {
    const Buffer wire = encode_envelope(NodeId{6}, other);
    EXPECT_FALSE(ObjectBatchView(wire.data(), wire.size()).valid());
  }
  EXPECT_FALSE(ObjectBatchView(nullptr, 0).valid());
}

TEST(CodecProperty, TruncatedBatchTailStopsIterationWithoutCrashing) {
  Rng rng(90);
  BatchedUpdateReq batch;
  for (int i = 0; i < 4; ++i) batch.append(rand_sighting(rng));
  // Cut the packed region mid-sighting: the ENVELOPE must sticky-fail (the
  // packed_len prefix no longer fits the datagram) ...
  const Buffer wire = encode_envelope(NodeId{3}, batch);
  for (std::size_t cut = 1; cut < 30; ++cut) {
    EXPECT_FALSE(decode_envelope(wire.data(), wire.size() - cut).ok());
  }
  // ... and a batch whose OWNED packed region is malformed (bit rot, buggy
  // sender) stops lazy iteration at the damage instead of overrunning.
  BatchedUpdateReq damaged = batch;
  damaged.packed.resize(damaged.packed.size() - 7);
  BatchedUpdateReq::Cursor cur = damaged.sightings();
  core::Sighting s;
  std::size_t complete = 0;
  while (cur.next(s)) ++complete;
  EXPECT_EQ(complete, 3u);
  // Same for the routing view over a re-encoded damaged batch.
  const Buffer damaged_wire = encode_envelope(NodeId{3}, damaged);
  ObjectBatchView view(damaged_wire.data(), damaged_wire.size());
  ASSERT_TRUE(view.valid());
  std::size_t viewed = 0;
  while (view.next()) ++viewed;
  EXPECT_EQ(viewed, 3u);
}

TEST(CodecProperty, BatchBitFlipsNeverCrashCursorOrView) {
  Rng rng(91);
  for (int iter = 0; iter < 200; ++iter) {
    BatchedUpdateReq batch;
    const std::size_t n = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < n; ++i) batch.append(rand_sighting(rng));
    Buffer wire = encode_envelope(NodeId{8}, batch);
    const std::size_t byte = rng.next_below(wire.size());
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    // The view never crashes, whatever the flip hit.
    ObjectBatchView view(wire.data(), wire.size());
    while (view.next()) {
    }
    // If the envelope still decodes, lazy iteration must stay in bounds.
    const auto decoded = decode_envelope(wire);
    if (decoded.ok()) {
      if (const auto* m = std::get_if<BatchedUpdateReq>(&decoded.value().msg)) {
        BatchedUpdateReq::Cursor cur = m->sightings();
        core::Sighting s;
        while (cur.next(s)) {
        }
        encode_envelope(NodeId{8}, *m);  // and re-encode cleanly
      }
    }
  }
}

// --- batched refresh sweeps (fault-tolerance framing invariants) -------------

TEST(CodecProperty, RefreshBatchCursorRoundTripsEveryOid) {
  Rng rng(92);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<ObjectId> in(rng.next_below(16));
    BatchedRefreshReq batch;
    for (auto& oid : in) {
      oid = rand_oid(rng);
      batch.append(oid);
    }
    EXPECT_EQ(batch.count, in.size());
    const Buffer wire = encode_envelope(NodeId{4}, batch);
    const auto decoded = decode_envelope(wire);
    ASSERT_TRUE(decoded.ok());
    const auto& out = std::get<BatchedRefreshReq>(decoded.value().msg);
    EXPECT_EQ(out.count, in.size());
    BatchedRefreshReq::Cursor cur = out.oids();
    ObjectId oid;
    std::size_t i = 0;
    while (cur.next(oid)) {
      ASSERT_LT(i, in.size());
      EXPECT_EQ(oid, in[i]);
      ++i;
    }
    EXPECT_EQ(i, in.size());
  }
}

TEST(CodecProperty, TruncatedRefreshBatchStickyFailsAndStopsIteration) {
  Rng rng(94);
  BatchedRefreshReq batch;
  for (int i = 0; i < 6; ++i) batch.append(ObjectId{(1ULL << 40) + rng.next_u64() % 1000});
  // Cutting the datagram breaks the packed_len prefix: envelope sticky-fails.
  const Buffer wire = encode_envelope(NodeId{3}, batch);
  for (std::size_t cut = 1; cut < wire.size() - 6; ++cut) {
    EXPECT_FALSE(decode_envelope(wire.data(), wire.size() - cut).ok());
  }
  // A batch whose OWNED packed region is damaged mid-varint stops lazy
  // iteration at the damage instead of overrunning.
  BatchedRefreshReq damaged = batch;
  damaged.packed.resize(damaged.packed.size() - 2);
  BatchedRefreshReq::Cursor cur = damaged.oids();
  ObjectId oid;
  std::size_t complete = 0;
  while (cur.next(oid)) ++complete;
  EXPECT_EQ(complete, 5u);
}

TEST(CodecProperty, RefreshBatchBitFlipsNeverCrashCursorOrView) {
  Rng rng(95);
  for (int iter = 0; iter < 200; ++iter) {
    BatchedRefreshReq batch;
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) batch.append(rand_oid(rng));
    Buffer wire = encode_envelope(NodeId{8}, batch);
    const std::size_t byte = rng.next_below(wire.size());
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    // The view never crashes, whatever the flip hit.
    ObjectBatchView view(wire.data(), wire.size());
    while (view.next()) {
    }
    // If the envelope still decodes, lazy iteration must stay in bounds.
    const auto decoded = decode_envelope(wire);
    if (decoded.ok()) {
      if (const auto* m = std::get_if<BatchedRefreshReq>(&decoded.value().msg)) {
        BatchedRefreshReq::Cursor cur = m->oids();
        ObjectId oid;
        while (cur.next(oid)) {
        }
        encode_envelope(NodeId{8}, *m);  // and re-encode cleanly
      }
    }
  }
}

// --- bucket migration (skew-rebalancing framing) -----------------------------

TEST(CodecProperty, BucketMigrateCursorRoundTripsEveryEntry) {
  Rng rng(97);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<BucketMigrate::Entry> in(rng.next_below(6));
    BucketMigrate mig;
    mig.bucket = static_cast<std::uint32_t>(rng.next_below(256));
    for (auto& e : in) {
      e = {rand_sighting(rng), rng.uniform(0, 500),
           static_cast<TimePoint>(rng.next_u64() >> 20), rand_reg_info(rng)};
      mig.append(e);
    }
    EXPECT_EQ(mig.count, in.size());
    const Buffer wire = encode_envelope(NodeId{4}, mig);
    const auto decoded = decode_envelope(wire);
    ASSERT_TRUE(decoded.ok());
    const auto& out = std::get<BucketMigrate>(decoded.value().msg);
    EXPECT_EQ(out.bucket, mig.bucket);
    EXPECT_EQ(out.count, in.size());
    BucketMigrate::Cursor cur = out.entries();
    BucketMigrate::Entry e;
    std::size_t i = 0;
    while (cur.next(e)) {
      ASSERT_LT(i, in.size());
      EXPECT_EQ(e.s.oid, in[i].s.oid);
      EXPECT_EQ(e.s.t, in[i].s.t);
      EXPECT_EQ(e.s.pos, in[i].s.pos);
      EXPECT_EQ(e.s.acc_sens, in[i].s.acc_sens);
      EXPECT_EQ(e.offered_acc, in[i].offered_acc);
      EXPECT_EQ(e.expiry, in[i].expiry);
      EXPECT_EQ(e.reg, in[i].reg);
      ++i;
    }
    EXPECT_EQ(i, in.size());
  }
}

TEST(CodecProperty, TruncatedMigrateStickyFailsAndStopsIteration) {
  Rng rng(98);
  BucketMigrate mig;
  mig.bucket = 17;
  for (int i = 0; i < 4; ++i) {
    mig.append({rand_sighting(rng), rng.uniform(0, 500),
                static_cast<TimePoint>(rng.next_u64() >> 20), rand_reg_info(rng)});
  }
  // Cutting the datagram breaks the packed_len prefix: envelope sticky-fails.
  const Buffer wire = encode_envelope(NodeId{3}, mig);
  for (std::size_t cut = 1; cut < 40; ++cut) {
    EXPECT_FALSE(decode_envelope(wire.data(), wire.size() - cut).ok());
  }
  // A migration whose OWNED packed region is damaged mid-entry stops lazy
  // iteration at the damage instead of overrunning.
  BucketMigrate damaged = mig;
  damaged.packed.resize(damaged.packed.size() - 5);
  BucketMigrate::Cursor cur = damaged.entries();
  BucketMigrate::Entry e;
  std::size_t complete = 0;
  while (cur.next(e)) ++complete;
  EXPECT_EQ(complete, 3u);
}

TEST(CodecProperty, MigrateBitFlipsNeverCrashTheCursor) {
  Rng rng(100);
  for (int iter = 0; iter < 200; ++iter) {
    BucketMigrate mig = rand_bucket_migrate(rng);
    mig.append({rand_sighting(rng), 1.0, 2, rand_reg_info(rng)});
    Buffer wire = encode_envelope(NodeId{8}, mig);
    const std::size_t byte = rng.next_below(wire.size());
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    // If the envelope still decodes, lazy iteration must stay in bounds and
    // the result must re-encode cleanly.
    const auto decoded = decode_envelope(wire);
    if (!decoded.ok()) continue;
    if (const auto* m = std::get_if<BucketMigrate>(&decoded.value().msg)) {
      BucketMigrate::Cursor cur = m->entries();
      BucketMigrate::Entry e;
      while (cur.next(e)) {
      }
      encode_envelope(NodeId{8}, *m);
    }
  }
}

// --- replica tee (hot-standby replication framing) ---------------------------

TEST(CodecProperty, ReplicaTeeCursorRoundTripsEveryEntry) {
  Rng rng(101);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<ReplicaTee::Entry> in(rng.next_below(6));
    ReplicaTee tee;
    for (auto& e : in) {
      e = {static_cast<ReplicaTee::Op>(rng.next_below(3)), rand_sighting(rng),
           rng.uniform(0, 500), static_cast<TimePoint>(rng.next_u64() >> 20),
           rand_reg_info(rng)};
      tee.append(e);
    }
    EXPECT_EQ(tee.count, in.size());
    const Buffer wire = encode_envelope(NodeId{4}, tee);
    const auto decoded = decode_envelope(wire);
    ASSERT_TRUE(decoded.ok());
    const auto& out = std::get<ReplicaTee>(decoded.value().msg);
    EXPECT_EQ(out.count, in.size());
    ReplicaTee::Cursor cur = out.entries();
    ReplicaTee::Entry e;
    std::size_t i = 0;
    while (cur.next(e)) {
      ASSERT_LT(i, in.size());
      EXPECT_EQ(e.op, in[i].op);
      EXPECT_EQ(e.s.oid, in[i].s.oid);
      EXPECT_EQ(e.s.t, in[i].s.t);
      EXPECT_EQ(e.s.pos, in[i].s.pos);
      EXPECT_EQ(e.s.acc_sens, in[i].s.acc_sens);
      EXPECT_EQ(e.offered_acc, in[i].offered_acc);
      EXPECT_EQ(e.expiry, in[i].expiry);
      EXPECT_EQ(e.reg, in[i].reg);
      ++i;
    }
    EXPECT_EQ(i, in.size());
  }
}

TEST(CodecProperty, TruncatedReplicaTeeStickyFailsAndStopsIteration) {
  Rng rng(103);
  ReplicaTee tee;
  for (int i = 0; i < 4; ++i) {
    tee.append({ReplicaTee::Op::kUpsert, rand_sighting(rng), rng.uniform(0, 500),
                static_cast<TimePoint>(rng.next_u64() >> 20), rand_reg_info(rng)});
  }
  // Cutting the datagram breaks the packed_len prefix: envelope sticky-fails.
  const Buffer wire = encode_envelope(NodeId{3}, tee);
  for (std::size_t cut = 1; cut < 40; ++cut) {
    EXPECT_FALSE(decode_envelope(wire.data(), wire.size() - cut).ok());
  }
  // A tee whose OWNED packed region is damaged mid-entry stops lazy iteration
  // at the damage instead of overrunning.
  ReplicaTee damaged = tee;
  damaged.packed.resize(damaged.packed.size() - 5);
  ReplicaTee::Cursor cur = damaged.entries();
  ReplicaTee::Entry e;
  std::size_t complete = 0;
  while (cur.next(e)) ++complete;
  EXPECT_EQ(complete, 3u);
  // An out-of-range op byte stops both the cursor and the view.
  ReplicaTee bad_op = tee;
  bad_op.packed[0] = 0x7F;
  ReplicaTee::Cursor bad_cur = bad_op.entries();
  EXPECT_FALSE(bad_cur.next(e));
  const Buffer bad_wire = encode_envelope(NodeId{3}, bad_op);
  ObjectBatchView bad_view(bad_wire.data(), bad_wire.size());
  ASSERT_TRUE(bad_view.valid());
  EXPECT_FALSE(bad_view.next().has_value());
}

TEST(CodecProperty, ReplicaTeeBitFlipsNeverCrashCursorOrView) {
  Rng rng(104);
  for (int iter = 0; iter < 200; ++iter) {
    ReplicaTee tee = rand_replica_tee(rng);
    tee.append({ReplicaTee::Op::kRemove, rand_sighting(rng), 1.0, 2,
                rand_reg_info(rng)});
    Buffer wire = encode_envelope(NodeId{8}, tee);
    const std::size_t byte = rng.next_below(wire.size());
    wire[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    // The view never crashes, whatever the flip hit.
    ObjectBatchView view(wire.data(), wire.size());
    while (view.next()) {
    }
    // If the envelope still decodes, lazy iteration must stay in bounds.
    const auto decoded = decode_envelope(wire);
    if (decoded.ok()) {
      if (const auto* m = std::get_if<ReplicaTee>(&decoded.value().msg)) {
        ReplicaTee::Cursor cur = m->entries();
        ReplicaTee::Entry e;
        while (cur.next(e)) {
        }
        encode_envelope(NodeId{8}, *m);  // and re-encode cleanly
      }
    }
  }
}

// --- hardened varints (extends PR 1's boundary tests) ------------------------

TEST(CodecProperty, VarintBoundaryValuesRoundTrip) {
  Rng rng(1);
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       127,
                                       128,
                                       16383,
                                       16384,
                                       (1ULL << 32) - 1,
                                       1ULL << 32,
                                       (1ULL << 63) - 1,
                                       1ULL << 63,
                                       UINT64_MAX};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.next_u64() >> rng.next_below(64));
  }
  for (const std::uint64_t v : values) {
    Buffer buf;
    {
      Writer w(buf);
      w.u64(v);
    }
    Reader r(buf);
    EXPECT_EQ(r.u64(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(CodecProperty, OverlongAndOverflowingVarintsStickyFail) {
  {
    // 11 continuation bytes: longer than any valid u64 encoding.
    Buffer buf(11, 0x80);
    buf.push_back(0x00);
    Reader r(buf);
    r.u64();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u64(), 0u);  // sticky: further reads keep failing
  }
  {
    // 10th byte contributes bits beyond 2^64.
    Buffer buf(9, 0x80);
    buf.push_back(0x02);
    Reader r(buf);
    r.u64();
    EXPECT_FALSE(r.ok());
  }
  {
    // 10th byte == 0x01 is exactly 2^63 in the top position: legal.
    Buffer buf(9, 0x80);
    buf.push_back(0x01);
    Reader r(buf);
    const std::uint64_t v = r.u64();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(v, 1ULL << 63);
  }
}

// --- packed query results (read-path framings) -------------------------------

namespace {

RangeQuerySubRes rand_range_sub(Rng& rng) {
  return RangeQuerySubRes{rng.next_u64(), rng.uniform(0, 1e6), rand_results(rng),
                          rand_origin(rng)};
}

NNProbeSubRes rand_nn_sub(Rng& rng) {
  return NNProbeSubRes{rng.next_u64(), rng.uniform(0, 1e6), rand_results(rng),
                       rand_origin(rng)};
}

void write_result_v1(Writer& w, const core::ObjectResult& r) {
  w.u64(r.oid.value);
  w.f64(r.ld.pos.x);
  w.f64(r.ld.pos.y);
  w.f64(r.ld.acc);
}

/// Hand-encodes the legacy (version-1) vector framing of a result list.
void write_results_v1(Writer& w, const std::vector<core::ObjectResult>& v) {
  w.u64(v.size());
  for (const auto& r : v) write_result_v1(w, r);
}

void write_origin(Writer& w, const std::optional<OriginArea>& origin) {
  w.boolean(origin.has_value());
  if (origin) {
    w.u64(origin->leaf.value);
    w.u64(origin->area.size());
    for (const geo::Point& p : origin->area.vertices()) {
      w.f64(p.x);
      w.f64(p.y);
    }
  }
}

}  // namespace

TEST(CodecProperty, SubResViewAgreesWithOwnedDecode) {
  Rng rng(4242);
  for (int iter = 0; iter < 128; ++iter) {
    const bool nn = rng.next_below(2) == 0;
    const Message m = nn ? Message(rand_nn_sub(rng)) : Message(rand_range_sub(rng));
    const NodeId src = rand_node(rng);
    const Buffer wire = encode_envelope(src, m);

    SubResView view(wire.data(), wire.size());
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.src(), src);

    // Owned decode of the same bytes.
    const auto decoded = decode_envelope(wire);
    ASSERT_TRUE(decoded.ok());
    std::vector<core::ObjectResult> owned;
    std::optional<OriginArea> owned_origin;
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, RangeQuerySubRes>) {
            EXPECT_EQ(view.type(), MsgType::kRangeQuerySubRes);
            EXPECT_EQ(view.req_id(), msg.req_id);
            EXPECT_EQ(view.covered_size(), msg.covered_size);
            EXPECT_EQ(view.count(), msg.results.count);
            owned = msg.results.to_vector();
            owned_origin = msg.origin;
          } else if constexpr (std::is_same_v<T, NNProbeSubRes>) {
            EXPECT_EQ(view.type(), MsgType::kNNProbeSubRes);
            EXPECT_EQ(view.req_id(), msg.req_id);
            EXPECT_EQ(view.covered_size(), msg.covered_size);
            EXPECT_EQ(view.count(), msg.candidates.count);
            owned = msg.candidates.to_vector();
            owned_origin = msg.origin;
          } else {
            FAIL() << "unexpected decode alternative";
          }
        },
        decoded.value().msg);

    // Item iteration agrees with the owned decode, and the raw byte ranges
    // re-concatenate to exactly the packed region (the merge loops copy
    // these ranges verbatim).
    ResultCursor cur = view.items();
    Buffer reassembled;
    std::size_t i = 0;
    while (const auto item = cur.next()) {
      ASSERT_LT(i, owned.size());
      EXPECT_EQ(item->res, owned[i]);
      reassembled.insert(reassembled.end(), item->data, item->data + item->len);
      ++i;
    }
    EXPECT_EQ(i, owned.size());
    EXPECT_EQ(reassembled,
              Buffer(view.packed_data(), view.packed_data() + view.packed_size()));

    std::optional<OriginArea> view_origin;
    view.origin(view_origin);
    EXPECT_EQ(view_origin.has_value(), owned_origin.has_value());
    if (view_origin && owned_origin) {
      EXPECT_EQ(view_origin->leaf, owned_origin->leaf);
      EXPECT_EQ(view_origin->area.vertices(), owned_origin->area.vertices());
    }
  }
}

TEST(CodecProperty, EachTypeDecodesOnlyAtItsOwnVersion) {
  Rng rng(777);
  // Restamping any message with the other version byte fails the decode.
  for (int iter = 0; iter < 16; ++iter) {
    for (const Message& m : random_messages(rng)) {
      Buffer wire = encode_envelope(rand_node(rng), m);
      const MsgType type = message_type(m);
      ASSERT_EQ(wire[0], wire_version_of(type));
      wire[0] = wire[0] == kWireVersion ? kWireVersionPacked : kWireVersion;
      EXPECT_FALSE(decode_envelope(wire).ok()) << msg_type_name(type);
    }
  }
  // The retired pre-packed (version 1, length-prefixed vector) sub-result
  // layout is neither viewable nor decodable.
  for (int iter = 0; iter < 64; ++iter) {
    const std::vector<core::ObjectResult> owned = rand_results(rng).to_vector();
    Buffer v1;
    {
      Writer w(v1);
      w.u8(kWireVersion);
      w.u8(static_cast<std::uint8_t>(MsgType::kRangeQuerySubRes));
      w.u32_fixed(7);
      w.u64(rng.next_u64());
      w.f64(rng.uniform(0, 1e6));
      write_results_v1(w, owned);
      write_origin(w, rand_origin(rng));
    }
    EXPECT_FALSE(SubResView(v1.data(), v1.size()).valid());
    EXPECT_FALSE(decode_envelope(v1).ok());
  }
}

TEST(CodecProperty, DecodedSubResultIsAlwaysViewable) {
  // The server dispatches sub-results only through SubResView; this pins
  // the fact that makes an owned-decode handler unreachable: whatever the
  // damage, a datagram that decodes as a RangeQuerySubRes/NNProbeSubRes is
  // a valid view with the same header fields.
  Rng rng(4343);
  std::size_t decoded_subs = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const bool nn = rng.next_below(2) == 0;
    const Message m = nn ? Message(rand_nn_sub(rng)) : Message(rand_range_sub(rng));
    Buffer wire = encode_envelope(rand_node(rng), m);
    switch (rng.next_below(4)) {
      case 0:  // bit flips
        for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
          wire[rng.next_below(wire.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:  // truncation
        wire.resize(rng.next_below(wire.size() + 1));
        break;
      case 2:  // random bytes overwritten
        for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
          wire[rng.next_below(wire.size())] =
              static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      default:  // header damage: version and type bytes
        wire[0] = static_cast<std::uint8_t>(rng.next_below(4));
        wire[1] = static_cast<std::uint8_t>(
            rng.next_below(2) == 0 ? MsgType::kRangeQuerySubRes
                                   : MsgType::kNNProbeSubRes);
        break;
    }
    const auto decoded = decode_envelope(wire);
    if (!decoded.ok()) continue;
    const Message& msg = decoded.value().msg;
    const auto* range = std::get_if<RangeQuerySubRes>(&msg);
    const auto* probe = std::get_if<NNProbeSubRes>(&msg);
    if (range == nullptr && probe == nullptr) continue;
    ++decoded_subs;
    const SubResView view(wire.data(), wire.size());
    ASSERT_TRUE(view.valid()) << "iteration " << iter;
    EXPECT_EQ(view.type(), message_type(msg));
    EXPECT_EQ(view.src(), decoded.value().src);
    EXPECT_EQ(view.req_id(), range ? range->req_id : probe->req_id);
    const PackedResults& results = range ? range->results : probe->candidates;
    EXPECT_EQ(view.count(), results.count);
    EXPECT_EQ(Buffer(view.packed_data(), view.packed_data() + view.packed_size()),
              results.packed);
  }
  EXPECT_GT(decoded_subs, 500u);  // the property was exercised, not skipped
}

TEST(CodecProperty, PackedResultTruncationAndBitFlipsNeverCrash) {
  Rng rng(31337);
  for (int iter = 0; iter < 32; ++iter) {
    const Buffer wire = encode_envelope(NodeId{4}, rand_range_sub(rng));
    // Truncation anywhere: the envelope decode sticky-fails via the
    // packed_len prefix, and the view either rejects or stops early.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      (void)decode_envelope(wire.data(), len);
      SubResView view(wire.data(), len);
      if (view.valid()) {
        ResultCursor cur = view.items();
        while (cur.next()) {
        }
      }
    }
    // Bit flips: iterate everything that still parses; never crash.
    Buffer flipped = wire;
    for (std::size_t bit = 0; bit < flipped.size() * 8; ++bit) {
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      SubResView view(flipped.data(), flipped.size());
      if (view.valid()) {
        ResultCursor cur = view.items();
        std::uint64_t n = 0;
        while (cur.next()) ++n;
        EXPECT_LE(n * 25, view.packed_size() + 25);
        std::optional<OriginArea> o;
        view.origin(o);
      }
      (void)decode_envelope(flipped.data(), flipped.size());
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(CodecProperty, HostileAdvisoryCountCannotPinMemory) {
  // `count` is wire-advisory and unvalidated by design (the packed region's
  // length prefix is what bounds decoding) -- so a spoofed count of 2^63
  // over an empty packed region must decode into a message whose
  // to_vector() does NOT try to reserve 2^63 entries.
  Buffer hostile;
  {
    Writer w(hostile);
    w.u8(kWireVersionPacked);
    w.u8(static_cast<std::uint8_t>(MsgType::kRangeQueryRes));
    w.u32_fixed(7);
    w.u64(1);           // req_id
    w.boolean(true);    // complete
    w.u64(1ULL << 63);  // hostile advisory count
    w.u64(0);           // packed_len: nothing actually present
  }
  const auto decoded = decode_envelope(hostile);
  ASSERT_TRUE(decoded.ok());
  const auto* res = std::get_if<RangeQueryRes>(&decoded.value().msg);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->results.count, 1ULL << 63);
  const std::vector<core::ObjectResult> v = res->results.to_vector();
  EXPECT_TRUE(v.empty());  // and, crucially, no length_error/bad_alloc
}

TEST(CodecProperty, DirectEmitMatchesEncodeEnvelope) {
  // The entry server's merge loop writes the final RangeQueryRes straight
  // into the outgoing buffer (core/location_server emit_range_result); this
  // pins the manual field sequence to the canonical encoder, byte for byte.
  Rng rng(2718);
  for (int iter = 0; iter < 64; ++iter) {
    RangeQueryRes res;
    res.req_id = rng.next_u64();
    res.complete = rng.next_below(2) == 0;
    res.results = rand_results(rng);
    const NodeId src = rand_node(rng);
    const Buffer canonical = encode_envelope(src, res);

    Buffer direct;
    {
      Writer w(direct);
      begin_envelope(w, src, MsgType::kRangeQueryRes);
      w.u64(res.req_id);
      w.boolean(res.complete);
      w.u64(res.results.count);
      w.u64(res.results.packed.size());
      w.bytes(res.results.packed.data(), res.results.packed.size());
    }
    EXPECT_EQ(direct, canonical);
  }
}

}  // namespace
}  // namespace locs::wire
