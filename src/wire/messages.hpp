// Protocol messages of the location service.
//
// One struct per message named in §6 of the paper (registerReq/Res/Failed,
// createPath, update, handoverReq/Res, posQueryReq/Fwd/Res,
// rangeQueryReq/Fwd/SubRes/Res), plus:
//  * neighborQuery messages and internal NN probes (the paper defines the
//    semantics in §3.2 but no distributed algorithm; see core/location_server),
//  * accuracy management (changeAcc, notifyAvailAcc) of §3.1,
//  * soft-state / recovery messages (removePath, refreshReq) of §5,
//  * the event mechanism sketched in §1/§8 (subscribe/delta/notify).
//
// Server-to-server messages carry an optional origin (leaf id + service
// area): the §6.5 piggyback that feeds the (leaf server -> service area)
// cache: "in each request and response message forwarded within the server
// hierarchy the originator of the message includes a specification of its
// (leaf) service area".
//
// Batched update framing (BatchedUpdateReq / BatchedUpdateAck): under heavy
// load many UpdateReqs land on the same leaf within one latency window, so a
// coalescing sender (core/update_coalescer.hpp) packs whole sighting lists
// into ONE datagram and the leaf acknowledges them with one packed ack.
// Invariants:
//  * framing -- payload is [count u64][packed_len u64][packed bytes]; the
//    packed region is the concatenation of the sightings (acks: oid +
//    offered_acc pairs) in the exact per-field encoding of the unbatched
//    messages, so batching changes the envelope count, never the field
//    format. `count` is advisory; consumers iterate the packed bytes and
//    stop at the first malformed entry (a truncated DATAGRAM still sticky-
//    fails the envelope decode via the packed_len prefix).
//  * decode is lazy -- handlers walk the packed region with a Reader-backed
//    Cursor, one sighting at a time; no intermediate vector of sightings is
//    ever materialized, and ObjectBatchView routes a batch per owning
//    shard by peeking each sighting's leading ObjectId varint without a
//    full envelope decode (the batch analogue of peek_object_key).
//  * a single-sighting batch is intentionally DISTINCT from a plain
//    UpdateReq (different MsgType byte) -- receivers never have to guess,
//    and the unbatched hot path keeps its exact wire format.
//  * flush policy lives in the SENDER (size / byte-budget / deadline, see
//    UpdateCoalescer::Options); the wire format carries no timing state, so
//    a batch is valid no matter which policy emitted it.
//
// Packed query results (read-path analogue of the batched updates): the bulk
// result messages -- RangeQuerySubRes / NNProbeSubRes and the entry-server
// finals RangeQueryRes / NNQueryRes (near_set) -- carry their ObjectResult
// lists in the same [count][packed_len][packed] framing (PackedResults).
// Invariants:
//  * the per-result encoding inside `packed` is IDENTICAL to the historical
//    vector elements, so a merge loop re-frames sub-results into the final
//    answer by copying raw item byte ranges -- never decode + re-encode.
//  * these four messages are stamped with envelope version
//    kWireVersionPacked (2); everything else is version 1. Each type is
//    accepted only at its own version byte (wire_version_of), so a
//    datagram carrying any other version fails to decode.
//  * decode is lazy -- receivers iterate `packed` with a Reader-backed
//    Cursor (or, without any envelope decode, through SubResView); `count`
//    is advisory exactly as in the batched updates.
//  * read-path borrow/lifetime contract: SubResView and ResultCursor point
//    INTO the datagram. They are valid only while the receive buffer is
//    alive and unmodified -- for the duration of the transport handler
//    invocation, unless the handler pins the buffer via
//    net::Datagram::take() (see net/transport.hpp), in which case views
//    stay valid for the lifetime of the returned PooledBuffer. The entry
//    server's merge loops rely on this to hold sub-result bytes across a
//    multi-datagram merge without copying.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "geo/polygon.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"
#include "wire/codec.hpp"

namespace locs::wire {

using core::AccuracyRange;
using core::LocationDescriptor;
using core::ObjectResult;
using core::RegInfo;
using core::Sighting;

/// Envelope version bytes. Every message is stamped kWireVersion except the
/// packed query result messages (see is_packed_result_type below), which
/// carry kWireVersionPacked.
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kWireVersionPacked = 2;

enum class MsgType : std::uint8_t {
  kRegisterReq = 1,
  kRegisterRes,
  kRegisterFailed,
  kCreatePath,
  kRemovePath,
  kUpdateReq,
  kUpdateAck,
  kHandoverReq,
  kHandoverRes,
  kAgentChanged,
  kPosQueryReq,
  kPosQueryFwd,
  kPosQueryRes,
  kRangeQueryReq,
  kRangeQueryFwd,
  kRangeQuerySubRes,
  kRangeQueryRes,
  kNNQueryReq,
  kNNProbeFwd,
  kNNProbeSubRes,
  kNNQueryRes,
  kChangeAccReq,
  kChangeAccRes,
  kNotifyAvailAcc,
  kDeregisterReq,
  kRefreshReq,
  kEventSubscribe,
  kEventInstall,
  kEventDelta,
  kEventNotify,
  kEventUnsubscribe,
  kBatchedUpdateReq,
  kBatchedUpdateAck,
  kHeartbeat,
  kHeartbeatAck,
  kRecoveryHello,
  kBatchedRefreshReq,
  kBatchedPathUpdate,
  // 39 is retired (a per-shard load snapshot that nothing sent or read).
  kBucketMigrate = 40,
  kReplicaTee,
  kStandbyPromote,
  kStandbyDemote,
};

const char* msg_type_name(MsgType t);

/// THE definition of which message types use the packed result framing and
/// the kWireVersionPacked envelope byte.
constexpr bool is_packed_result_type(MsgType t) {
  return t == MsgType::kRangeQuerySubRes || t == MsgType::kRangeQueryRes ||
         t == MsgType::kNNProbeSubRes || t == MsgType::kNNQueryRes;
}

/// The one envelope version byte a message type is stamped with and
/// accepted at. Every version site (the encoder's stamp, begin_envelope,
/// the decode check, SubResView) keys off this, so the set cannot drift.
constexpr std::uint8_t wire_version_of(MsgType t) {
  return is_packed_result_type(t) ? kWireVersionPacked : kWireVersion;
}

/// The object-keyed batches: a packed list whose every item leads with an
/// ObjectId, so a sharded leaf splits them per owning shard (ObjectBatchView).
constexpr bool is_object_batch_type(MsgType t) {
  return t == MsgType::kBatchedUpdateReq || t == MsgType::kBatchedRefreshReq ||
         t == MsgType::kReplicaTee;
}

/// §6.5 piggyback: originating leaf server and its service area.
struct OriginArea {
  NodeId leaf;
  geo::Polygon area;
};

// --- Registration (Algorithm 6-1) ------------------------------------------

struct RegisterReq {
  static constexpr MsgType kType = MsgType::kRegisterReq;
  Sighting s;
  std::string obj_info;  // the paper's oInfo
  AccuracyRange acc_range;
  NodeId reg_inst;  // registering instance, receives the response
  std::uint64_t req_id = 0;
};

struct RegisterRes {
  static constexpr MsgType kType = MsgType::kRegisterRes;
  NodeId agent;  // the leaf server now responsible ("self" in Alg 6-1)
  double offered_acc = 0.0;
  std::uint64_t req_id = 0;
};

struct RegisterFailed {
  static constexpr MsgType kType = MsgType::kRegisterFailed;
  NodeId server;
  double best_acc = 0.0;  // the accuracy the server could have offered
  std::uint64_t req_id = 0;
};

/// Sent leaf-to-root to create the forwarding path (Alg 6-1 "create path");
/// the forwarding reference at each receiver points to the message's sender.
struct CreatePath {
  static constexpr MsgType kType = MsgType::kCreatePath;
  ObjectId oid;
};

/// Leaf-to-root removal of a forwarding path (deregistration §3.1 and
/// soft-state expiry §5).
struct RemovePath {
  static constexpr MsgType kType = MsgType::kRemovePath;
  ObjectId oid;
};

// --- Updates and handover (Algorithms 6-2 / 6-3) ---------------------------

struct UpdateReq {
  static constexpr MsgType kType = MsgType::kUpdateReq;
  Sighting s;
};

struct UpdateAck {
  static constexpr MsgType kType = MsgType::kUpdateAck;
  ObjectId oid;
  double offered_acc = 0.0;
};

/// Coalesced position updates: many sightings bound for one leaf in a single
/// datagram (see the batched-update framing invariants in the header
/// comment). The sightings live varint-packed in `packed`; append() packs on
/// the sender, Cursor lazily unpacks on the receiver -- no intermediate
/// vector of sightings exists on either side.
struct BatchedUpdateReq {
  static constexpr MsgType kType = MsgType::kBatchedUpdateReq;
  std::uint64_t count = 0;  // sightings in `packed` (advisory; see header)
  Buffer packed;            // concatenated per-field encodings of Sighting

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }
  std::size_t payload_bytes() const { return packed.size(); }

  /// Packs one sighting (same field encoding as UpdateReq carries).
  void append(const Sighting& s);

  /// Lazy Reader-backed unpacker: decodes one sighting per next() call,
  /// stopping at the end of the packed region or the first malformed entry.
  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(Sighting& out);

   private:
    Reader r_;
  };
  Cursor sightings() const { return Cursor(packed); }
};

/// Packed acknowledgement for a BatchedUpdateReq: one (oid, offered_acc)
/// entry per APPLIED sighting, same framing discipline as the request.
struct BatchedUpdateAck {
  static constexpr MsgType kType = MsgType::kBatchedUpdateAck;
  std::uint64_t count = 0;
  Buffer packed;  // concatenated [oid varint][offered_acc f64] entries

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }

  void append(ObjectId oid, double offered_acc);

  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(ObjectId& oid, double& offered_acc);

   private:
    Reader r_;
  };
  Cursor acks() const { return Cursor(packed); }
};

struct HandoverReq {
  static constexpr MsgType kType = MsgType::kHandoverReq;
  Sighting s;
  RegInfo reg_info;
  double prev_offered_acc = 0.0;  // so the new agent can detect acc changes
  // §6.5 cache shortcut: the old agent contacted the new leaf directly
  // (bypassing the hierarchy); the new agent must repair the forwarding path
  // itself via createPath, and the old agent prunes its stale branch with
  // removePath.
  bool direct = false;
  std::uint64_t req_id = 0;
  std::optional<OriginArea> origin;  // old agent's leaf area (cache piggyback)
};

/// Propagated back along the request path hop by hop; every intermediate
/// server repairs its forwarding pointer (Alg 6-3 lines 11-14).
struct HandoverRes {
  static constexpr MsgType kType = MsgType::kHandoverRes;
  ObjectId oid;
  NodeId new_agent;
  double offered_acc = 0.0;
  std::uint64_t req_id = 0;
  std::optional<OriginArea> origin;  // new agent's leaf area (cache piggyback)
};

/// Old agent -> tracked object: "your new agent is ...".
struct AgentChanged {
  static constexpr MsgType kType = MsgType::kAgentChanged;
  ObjectId oid;
  NodeId new_agent;
  double offered_acc = 0.0;
};

// --- Position query (Algorithm 6-4) -----------------------------------------

struct PosQueryReq {
  static constexpr MsgType kType = MsgType::kPosQueryReq;
  ObjectId oid;
  std::uint64_t req_id = 0;
};

struct PosQueryFwd {
  static constexpr MsgType kType = MsgType::kPosQueryFwd;
  ObjectId oid;
  NodeId entry;  // lse: entry server that receives the result directly
  std::uint64_t req_id = 0;
};

struct PosQueryRes {
  static constexpr MsgType kType = MsgType::kPosQueryRes;
  ObjectId oid;
  bool found = false;
  LocationDescriptor ld;
  NodeId agent;  // responding leaf; feeds the (object -> agent) cache
  std::uint64_t req_id = 0;
  std::optional<OriginArea> origin;
};

// --- Packed result lists (read-path batching helper) -------------------------

/// Reusable [count][packed_len][packed] list of ObjectResults -- the framing
/// discipline of the batched update/refresh messages applied to the query
/// read path (see the packed-query-results invariants in the header
/// comment). append() packs on the sender; Cursor lazily unpacks on the
/// receiver; to_vector()/assign() are cold-path conveniences for tests and
/// client-facing boundaries.
struct PackedResults {
  std::uint64_t count = 0;  // results in `packed` (advisory; see header)
  Buffer packed;            // concatenated per-field encodings of ObjectResult

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }
  std::size_t payload_bytes() const { return packed.size(); }

  /// Packs one result (same field encoding the vector framing carried).
  void append(const ObjectResult& r);

  /// Lazy Reader-backed unpacker: decodes one result per next() call,
  /// stopping at the end of the packed region or the first malformed entry.
  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(ObjectResult& out);

   private:
    Reader r_;
  };
  Cursor iter() const { return Cursor(packed); }

  std::vector<ObjectResult> to_vector() const;
  void assign(const std::vector<ObjectResult>& v);

  bool operator==(const PackedResults& other) const {
    return count == other.count && packed == other.packed;
  }
};

/// Writes one ObjectResult in the packed per-field encoding. The direct-emit
/// merge loops (core/location_server) use this to stream store results
/// straight into an outgoing buffer without an intermediate vector.
void put_object_result(Writer& w, const ObjectResult& r);

// --- Range query (Algorithm 6-5) --------------------------------------------

struct RangeQueryReq {
  static constexpr MsgType kType = MsgType::kRangeQueryReq;
  geo::Polygon area;
  double req_acc = 0.0;
  double req_overlap = 0.0;
  std::uint64_t req_id = 0;
};

struct RangeQueryFwd {
  static constexpr MsgType kType = MsgType::kRangeQueryFwd;
  geo::Polygon area;
  double req_acc = 0.0;
  double req_overlap = 0.0;
  NodeId entry;
  std::uint64_t req_id = 0;
  // §6.5 cache shortcut: sent directly to a known leaf; the receiver answers
  // locally and must not propagate the query further.
  bool direct = false;
};

/// Partial result from one leaf: its matching objects plus the size of the
/// covered portion (area ∩ leaf service area) for the entry server's
/// completion bookkeeping.
struct RangeQuerySubRes {
  static constexpr MsgType kType = MsgType::kRangeQuerySubRes;
  std::uint64_t req_id = 0;
  double covered_size = 0.0;
  PackedResults results;  // packed framing; see the header invariants
  std::optional<OriginArea> origin;
};

struct RangeQueryRes {
  static constexpr MsgType kType = MsgType::kRangeQueryRes;
  std::uint64_t req_id = 0;
  bool complete = true;  // false if assembled on timeout
  PackedResults results;  // packed framing; see the header invariants
};

// --- Nearest-neighbor query (§3.2 semantics) ---------------------------------

struct NNQueryReq {
  static constexpr MsgType kType = MsgType::kNNQueryReq;
  geo::Point p;
  double req_acc = 0.0;
  double near_qual = 0.0;
  std::uint64_t req_id = 0;
};

/// Internal expanding-ring probe: "report objects with ld.acc <= req_acc and
/// position within `radius` of p in your subtree".
struct NNProbeFwd {
  static constexpr MsgType kType = MsgType::kNNProbeFwd;
  geo::Point p;
  double radius = 0.0;
  double req_acc = 0.0;
  NodeId coordinator;
  std::uint64_t req_id = 0;
};

struct NNProbeSubRes {
  static constexpr MsgType kType = MsgType::kNNProbeSubRes;
  std::uint64_t req_id = 0;
  double covered_size = 0.0;  // size of probe-disk ∩ leaf area
  PackedResults candidates;  // packed framing; see the header invariants
  std::optional<OriginArea> origin;
};

struct NNQueryRes {
  static constexpr MsgType kType = MsgType::kNNQueryRes;
  std::uint64_t req_id = 0;
  bool found = false;
  ObjectResult nearest;
  PackedResults near_set;  // nearObjSet per §3.2; packed framing
};

// --- Accuracy management (§3.1) ---------------------------------------------

struct ChangeAccReq {
  static constexpr MsgType kType = MsgType::kChangeAccReq;
  ObjectId oid;
  AccuracyRange acc_range;
  std::uint64_t req_id = 0;
};

struct ChangeAccRes {
  static constexpr MsgType kType = MsgType::kChangeAccRes;
  std::uint64_t req_id = 0;
  bool ok = false;
  double offered_acc = 0.0;
};

struct NotifyAvailAcc {
  static constexpr MsgType kType = MsgType::kNotifyAvailAcc;
  ObjectId oid;
  double offered_acc = 0.0;
};

// --- Lifecycle ---------------------------------------------------------------

struct DeregisterReq {
  static constexpr MsgType kType = MsgType::kDeregisterReq;
  ObjectId oid;
};

/// Server -> tracked object: request an immediate position update (used
/// after recovery, when the persistent visitorDB survived but the in-memory
/// sightingDB did not; §5).
struct RefreshReq {
  static constexpr MsgType kType = MsgType::kRefreshReq;
  ObjectId oid;
};

// --- Fault tolerance (failure detection + batched soft-state recovery) -------
//
// Recovery-protocol invariants:
//  * Heartbeat/HeartbeatAck carry only a sequence number; liveness evidence
//    is ANY ack (a reordered old ack still proves the child processes
//    messages). The miss-threshold detector lives entirely in the parent
//    (core/location_server.hpp); the wire carries no timing state, so the
//    interval/threshold can differ per deployment without a format change.
//  * RecoveryHello is idempotent: a parent receiving it (re)learns that the
//    child is alive, clears suspicion, and answers with a BatchedRefreshReq
//    sweep of every object it still forwards to that child. Duplicate hellos
//    just repeat the sweep; refreshes are filtered against present sightings
//    on the leaf, so the steady state converges.
//  * BatchedRefreshReq reuses the batched-update framing discipline --
//    payload [count u64][packed_len u64][packed oid varints]; `count` is
//    advisory, consumers iterate the packed bytes lazily (Cursor) and stop at
//    the first malformed entry; a truncated datagram sticky-fails the
//    envelope decode via the packed_len prefix. The same message travels
//    parent -> restarted leaf (oids with forwarding paths into that leaf)
//    and leaf -> registering instance (oids whose sightings need a refresh),
//    replacing one RefreshReq datagram per object with one sweep datagram
//    per client node (chunked; see LocationServer::Options::refresh_batch_max).

/// Parent -> child liveness probe (miss-threshold failure detection).
struct Heartbeat {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  std::uint64_t seq = 0;
};

/// Child -> parent heartbeat answer (echoes the probe's sequence number).
struct HeartbeatAck {
  static constexpr MsgType kType = MsgType::kHeartbeatAck;
  std::uint64_t seq = 0;
};

/// Restarted leaf -> parent: "I am back with incarnation N; tell me which
/// objects you still forward to me" (§5 crash recovery, batched).
struct RecoveryHello {
  static constexpr MsgType kType = MsgType::kRecoveryHello;
  std::uint64_t incarnation = 0;
};

/// Batched refresh sweep: a varint-packed list of ObjectIds that need an
/// immediate position refresh (the batch analogue of RefreshReq; see the
/// fault-tolerance framing invariants above).
struct BatchedRefreshReq {
  static constexpr MsgType kType = MsgType::kBatchedRefreshReq;
  std::uint64_t count = 0;  // oids in `packed` (advisory; see framing note)
  Buffer packed;            // concatenated ObjectId varints

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }

  void append(ObjectId oid);

  /// Lazy unpacker: one oid per next() call, stopping at the end of the
  /// packed region or the first malformed varint.
  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(ObjectId& out);

   private:
    Reader r_;
  };
  Cursor oids() const { return Cursor(packed); }
};

/// Coalesced server-to-server forwarding-path maintenance: a burst of
/// CreatePath/RemovePath messages bound for the same parent travels as ONE
/// datagram (same framing discipline as the batched updates; the entries
/// keep their relative order, so create/remove sequences for one object
/// replay in order). Each entry is [op u8: 1=create, 0=remove][oid varint].
/// Sent only when LocationServer::Options::coalesce_paths is on -- default
/// traces carry the unbatched messages bit for bit.
struct BatchedPathUpdate {
  static constexpr MsgType kType = MsgType::kBatchedPathUpdate;
  std::uint64_t count = 0;  // entries in `packed` (advisory; see framing note)
  Buffer packed;            // concatenated [op u8][oid varint] entries

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }
  std::size_t payload_bytes() const { return packed.size(); }

  void append(bool create, ObjectId oid);

  /// Lazy unpacker: one (op, oid) entry per next() call, stopping at the end
  /// of the packed region or the first malformed entry.
  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(bool& create, ObjectId& oid);

   private:
    Reader r_;
  };
  Cursor entries() const { return Cursor(packed); }
};

// --- Sharded-leaf skew balancing (core/sharded_location_server) --------------
//
// Balancing invariants:
//  * BucketMigrate reuses the batched framing discipline -- the payload ends
//    with [count u64][packed_len u64][packed entries]; `count` is advisory,
//    consumers iterate the packed bytes lazily (Cursor) and stop at the
//    first malformed entry; a truncated datagram sticky-fails the envelope
//    decode via the packed_len prefix.
//  * BucketMigrate never leaves its leaf NodeId: the donor shard reactor
//    encodes it and a recipient shard reactor of the SAME sharded leaf
//    consumes it (envelope src == the leaf itself; other sources are
//    ignored), so soft state moves between slices with wire-validated
//    framing but no network hop.

/// One ObjectId bucket's soft state moving between two shard reactors of the
/// same leaf (incremental skew rebalancing). Entries carry everything a leaf
/// slice stores per visitor -- the sighting, the offered accuracy, the
/// ABSOLUTE expiry (migration must not extend the soft-state TTL) and the
/// registration info: [sighting][offered_acc f64][expiry i64][reg_info].
struct BucketMigrate {
  static constexpr MsgType kType = MsgType::kBucketMigrate;
  std::uint32_t bucket = 0;  // ObjectId bucket being re-assigned
  std::uint64_t count = 0;   // entries in `packed` (advisory; see framing note)
  Buffer packed;             // concatenated visitor entries

  struct Entry {
    core::Sighting s;
    double offered_acc = 0.0;
    TimePoint expiry = 0;
    core::RegInfo reg;
  };

  void clear() {
    bucket = 0;
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }

  void append(const Entry& e);

  /// Lazy unpacker: one visitor entry per next() call, stopping at the end
  /// of the packed region or the first malformed entry.
  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(Entry& out);

   private:
    Reader r_;
  };
  Cursor entries() const { return Cursor(packed); }
};

// --- Leaf hot-standby replication (answer-complete failover) -----------------
//
// Replication invariants:
//  * ReplicaTee reuses the batched framing discipline -- payload
//    [count u64][packed_len u64][packed entries]; `count` is advisory,
//    consumers iterate the packed bytes lazily (Cursor) and stop at the
//    first malformed entry; a truncated datagram sticky-fails the envelope
//    decode via the packed_len prefix.
//  * Entries carry the ABSOLUTE expiry the primary stored, so the replica's
//    soft-state TTLs match the primary's exactly (teeing must not extend a
//    TTL). The replica applies entries with insert-or-update semantics in
//    batch order -- the identical spatial-index mutation sequence the
//    primary performed -- which is what makes promoted-replica range/NN
//    answers byte-equal to the primary's.
//  * The tee is one datagram per handled inbound datagram/tick at most
//    (LocationServer::flush_tee), so the replication overhead is ~1 extra
//    datagram per update batch, never one per sighting.
//  * StandbyPromote/StandbyDemote travel parent -> standby only; the
//    incarnation counter makes reordered promote/demote pairs detectable in
//    traces (the parent's engaged flag is authoritative for routing).

/// Primary leaf -> standby replica: the accepted-sighting stream of one
/// handled datagram/tick, teed with original expiries (see the replication
/// invariants above). Entry ops: upsert (apply a sighting), remove (visitor
/// departed/expired), set_acc (accuracy change without an index mutation).
struct ReplicaTee {
  static constexpr MsgType kType = MsgType::kReplicaTee;

  enum class Op : std::uint8_t { kUpsert = 0, kRemove = 1, kSetAcc = 2 };

  std::uint64_t count = 0;  // entries in `packed` (advisory; see framing note)
  Buffer packed;            // concatenated [op u8][sighting][acc f64][expiry i64][reg]

  struct Entry {
    Op op = Op::kUpsert;
    core::Sighting s;          // kRemove: only s.oid is meaningful
    double offered_acc = 0.0;
    TimePoint expiry = 0;      // absolute, as stored by the primary
    core::RegInfo reg;
  };

  void clear() {
    count = 0;
    packed.clear();
  }
  bool empty() const { return count == 0; }
  std::size_t payload_bytes() const { return packed.size(); }

  void append(const Entry& e);

  /// Lazy unpacker: one entry per next() call, stopping at the end of the
  /// packed region or the first malformed entry.
  class Cursor {
   public:
    explicit Cursor(const Buffer& packed) : r_(packed) {}
    bool next(Entry& out);

   private:
    Reader r_;
  };
  Cursor entries() const { return Cursor(packed); }
};

/// Parent -> standby replica: "your primary is suspect; answer for it". The
/// standby fans AgentChanged to its mirrored visitors so clients re-point.
struct StandbyPromote {
  static constexpr MsgType kType = MsgType::kStandbyPromote;
  NodeId primary;
  std::uint64_t incarnation = 0;
};

/// Parent -> standby replica: "your primary is back; stand down". The standby
/// re-points clients at the primary and clears its mirror (the primary's
/// recovery sweep rebuilds it via the tee).
struct StandbyDemote {
  static constexpr MsgType kType = MsgType::kStandbyDemote;
  NodeId primary;
  std::uint64_t incarnation = 0;
};

// --- Event mechanism (extension; §1 / §8 future work) ------------------------

enum class PredicateKind : std::uint8_t {
  kAreaCount = 0,  // "more than N objects are in a certain area"
  kProximity = 1,  // "two users of the system meet"
};

struct EventSubscribe {
  static constexpr MsgType kType = MsgType::kEventSubscribe;
  std::uint64_t sub_id = 0;
  PredicateKind kind = PredicateKind::kAreaCount;
  geo::Polygon area;        // kAreaCount
  std::uint32_t threshold = 0;
  ObjectId obj_a, obj_b;    // kProximity
  double dist = 0.0;
  NodeId subscriber;
};

/// Coordinator -> leaf: install local membership tracking for a predicate.
struct EventInstall {
  static constexpr MsgType kType = MsgType::kEventInstall;
  std::uint64_t sub_id = 0;
  PredicateKind kind = PredicateKind::kAreaCount;
  geo::Polygon area;
  ObjectId obj_a, obj_b;
  double dist = 0.0;
  NodeId coordinator;
};

/// Leaf -> coordinator: membership change for a predicate.
struct EventDelta {
  static constexpr MsgType kType = MsgType::kEventDelta;
  std::uint64_t sub_id = 0;
  ObjectId oid;
  bool entered = false;  // entered (true) / left (false) the predicate scope
  geo::Point pos;        // current position (used by proximity predicates)
};

struct EventNotify {
  static constexpr MsgType kType = MsgType::kEventNotify;
  std::uint64_t sub_id = 0;
  bool fired = false;  // predicate became true (fired) / false again
  std::uint32_t count = 0;
};

struct EventUnsubscribe {
  static constexpr MsgType kType = MsgType::kEventUnsubscribe;
  std::uint64_t sub_id = 0;
};

// --- Envelope ----------------------------------------------------------------

/// Every protocol message type, in MsgType order. Drives the Message variant
/// helpers, the per-type encode overloads and the decode dispatch.
#define LOCS_WIRE_FOR_EACH_MESSAGE(X)                                          \
  X(RegisterReq)                                                               \
  X(RegisterRes)                                                               \
  X(RegisterFailed)                                                            \
  X(CreatePath)                                                                \
  X(RemovePath)                                                                \
  X(UpdateReq)                                                                 \
  X(UpdateAck)                                                                 \
  X(HandoverReq)                                                               \
  X(HandoverRes)                                                               \
  X(AgentChanged)                                                              \
  X(PosQueryReq)                                                               \
  X(PosQueryFwd)                                                               \
  X(PosQueryRes)                                                               \
  X(RangeQueryReq)                                                             \
  X(RangeQueryFwd)                                                             \
  X(RangeQuerySubRes)                                                          \
  X(RangeQueryRes)                                                             \
  X(NNQueryReq)                                                                \
  X(NNProbeFwd)                                                                \
  X(NNProbeSubRes)                                                             \
  X(NNQueryRes)                                                                \
  X(ChangeAccReq)                                                              \
  X(ChangeAccRes)                                                              \
  X(NotifyAvailAcc)                                                            \
  X(DeregisterReq)                                                             \
  X(RefreshReq)                                                                \
  X(EventSubscribe)                                                            \
  X(EventInstall)                                                              \
  X(EventDelta)                                                                \
  X(EventNotify)                                                               \
  X(EventUnsubscribe)                                                          \
  X(BatchedUpdateReq)                                                          \
  X(BatchedUpdateAck)                                                          \
  X(Heartbeat)                                                                 \
  X(HeartbeatAck)                                                              \
  X(RecoveryHello)                                                             \
  X(BatchedRefreshReq)                                                         \
  X(BatchedPathUpdate)                                                         \
  X(BucketMigrate)                                                             \
  X(ReplicaTee)                                                                \
  X(StandbyPromote)                                                            \
  X(StandbyDemote)

using Message = std::variant<
    RegisterReq, RegisterRes, RegisterFailed, CreatePath, RemovePath, UpdateReq,
    UpdateAck, HandoverReq, HandoverRes, AgentChanged, PosQueryReq, PosQueryFwd,
    PosQueryRes, RangeQueryReq, RangeQueryFwd, RangeQuerySubRes, RangeQueryRes,
    NNQueryReq, NNProbeFwd, NNProbeSubRes, NNQueryRes, ChangeAccReq, ChangeAccRes,
    NotifyAvailAcc, DeregisterReq, RefreshReq, EventSubscribe, EventInstall,
    EventDelta, EventNotify, EventUnsubscribe, BatchedUpdateReq, BatchedUpdateAck,
    Heartbeat, HeartbeatAck, RecoveryHello, BatchedRefreshReq, BatchedPathUpdate,
    BucketMigrate, ReplicaTee, StandbyPromote, StandbyDemote>;

struct Envelope {
  NodeId src;
  Message msg;
};

MsgType message_type(const Message& msg);

// Hot-path encode: serializes [version][type][src][payload] into `out`
// (cleared first), reserving a per-message size hint so a recycled buffer
// never reallocates in steady state. The per-type overloads skip Message
// variant construction entirely -- senders holding a concrete message type
// (the common case in core/) pay no copy of embedded vectors/polygons.
#define LOCS_WIRE_DECLARE_ENCODE_INTO(T) \
  void encode_envelope_into(Buffer& out, NodeId src, const T& msg);
LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_DECLARE_ENCODE_INTO)
#undef LOCS_WIRE_DECLARE_ENCODE_INTO
void encode_envelope_into(Buffer& out, NodeId src, const Message& msg);

/// Convenience wrapper allocating a fresh buffer (cold paths, tests).
Buffer encode_envelope(NodeId src, const Message& msg);

/// Hot-path decode into a reusable scratch envelope. When `env.msg` already
/// holds the incoming message type, the contained vectors/polygons/strings
/// keep their capacity -- decoding a steady message stream allocates
/// nothing. All variable-length fields are OWNED by the envelope (the §
/// "own() step" happens inside), so the envelope may outlive the datagram.
Status decode_envelope_into(Envelope& env, const std::uint8_t* data,
                            std::size_t len);

/// Convenience wrapper decoding into a fresh envelope (cold paths, tests).
Result<Envelope> decode_envelope(const std::uint8_t* data, std::size_t len);
inline Result<Envelope> decode_envelope(const Buffer& buf) {
  return decode_envelope(buf.data(), buf.size());
}

/// Cheap routing peek for sharded dispatch (core/sharded_location_server):
/// for object-keyed messages -- every message whose payload leads with an
/// ObjectId (updates, handover, per-object queries and their responses) --
/// returns that id WITHOUT a full envelope decode. Returns nullopt for
/// area-keyed / coordinator messages (range, NN, events) and for malformed
/// datagrams (the full decode then reports the error).
std::optional<ObjectId> peek_object_key(const std::uint8_t* data, std::size_t len);

/// Batch analogue of peek_object_key: walks an ENCODED object-keyed batch
/// (is_object_batch_type: BatchedUpdateReq, BatchedRefreshReq or ReplicaTee)
/// and yields each item's ObjectId plus the raw byte range of its packed
/// encoding, without a full envelope decode. A sharded leaf uses this to
/// split one incoming batch into per-shard sub-batches by memcpy of the item
/// ranges (core/sharded_location_server). Items are delimited by type with
/// the message's own entry decoder: a Sighting (update), an ObjectId
/// (refresh), or the op byte plus the entry fields (tee). Iteration stops
/// at the end of the packed region or the first malformed entry (an
/// out-of-range tee op included); a datagram that is not a well-formed
/// object-keyed batch envelope yields valid() == false.
class ObjectBatchView {
 public:
  ObjectBatchView(const std::uint8_t* data, std::size_t len);

  bool valid() const { return valid_; }
  std::uint64_t count() const { return count_; }  // advisory (see framing note)

  struct Item {
    ObjectId oid;
    const std::uint8_t* data;  // raw packed encoding of this item
    std::size_t len;
  };
  std::optional<Item> next();

 private:
  Reader r_;
  MsgType type_ = MsgType::kBatchedUpdateReq;
  const std::uint8_t* packed_base_ = nullptr;
  std::size_t packed_len_ = 0;
  std::uint64_t count_ = 0;
  bool valid_ = false;
};

/// Iterates a raw packed-ObjectResult region (the `packed` bytes of any
/// PackedResults-framed message), yielding each decoded result PLUS the raw
/// byte range of its encoding -- the merge loops copy kept ranges verbatim
/// into the outgoing envelope, never re-encoding. Stops at the end of the
/// region or the first malformed entry. Borrow contract: items point into
/// the caller's buffer (see the read-path lifetime invariants above).
class ResultCursor {
 public:
  ResultCursor(const std::uint8_t* data, std::size_t len)
      : r_(data, len), base_(data), len_(len) {}

  struct Item {
    ObjectResult res;
    const std::uint8_t* data;  // raw packed encoding of this result
    std::size_t len;
  };
  std::optional<Item> next();

 private:
  Reader r_;
  const std::uint8_t* base_;
  std::size_t len_;
};

/// Read-path analogue of ObjectBatchView: a peek over an ENCODED
/// version-2 RangeQuerySubRes or NNProbeSubRes datagram. Exposes the header
/// fields and the raw packed-results region without a full envelope decode,
/// so the entry server can merge a sub-result by borrowing its bytes (pin
/// the receive buffer via net::Datagram::take) instead of materializing an
/// owned vector. valid() == false for malformed datagrams, other message
/// types and any other version byte. Whenever decode_envelope accepts one of
/// the two sub-result types, this view is valid for the same bytes.
class SubResView {
 public:
  SubResView(const std::uint8_t* data, std::size_t len);

  bool valid() const { return valid_; }
  MsgType type() const { return type_; }
  NodeId src() const { return src_; }
  std::uint64_t req_id() const { return req_id_; }
  double covered_size() const { return covered_size_; }
  std::uint64_t count() const { return count_; }  // advisory (framing note)

  /// The raw packed-results region (borrowed from the datagram).
  const std::uint8_t* packed_data() const { return packed_base_; }
  std::size_t packed_size() const { return packed_len_; }

  /// Lazy per-item iteration over the packed region.
  ResultCursor items() const { return ResultCursor(packed_base_, packed_len_); }

  /// Decodes the trailing §6.5 origin piggyback (cold: cache learning only).
  /// Returns false when absent or malformed.
  bool origin(std::optional<OriginArea>& out) const;

 private:
  MsgType type_ = MsgType::kRangeQuerySubRes;
  NodeId src_;
  std::uint64_t req_id_ = 0;
  double covered_size_ = 0.0;
  std::uint64_t count_ = 0;
  const std::uint8_t* packed_base_ = nullptr;
  std::size_t packed_len_ = 0;
  const std::uint8_t* tail_base_ = nullptr;  // origin piggyback bytes
  std::size_t tail_len_ = 0;
  bool valid_ = false;
};

/// Direct-emit support for the merge loops: writes the envelope prefix
/// ([version][type][src]) for `type`, choosing the version byte the normal
/// encode path would use. A merge loop that follows this with the exact
/// per-field writes of the message body produces bytes IDENTICAL to
/// encode_envelope_into of the equivalent owned message (pinned by test).
void begin_envelope(Writer& w, NodeId src, MsgType type);

}  // namespace locs::wire
