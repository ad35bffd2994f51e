#include "wire/messages.hpp"

#include <algorithm>

namespace locs::wire {

namespace {

// --- field helpers -----------------------------------------------------------

void put(Writer& w, geo::Point p) {
  w.f64(p.x);
  w.f64(p.y);
}

geo::Point get_point(Reader& r) {
  geo::Point p;
  p.x = r.f64();
  p.y = r.f64();
  return p;
}

void put(Writer& w, const geo::Polygon& poly) {
  w.u64(poly.size());
  for (const geo::Point& p : poly.vertices()) put(w, p);
}

/// In-place polygon decode: steals the target's vertex vector so its
/// capacity is reused across messages (zero allocations in steady state).
void get_polygon_into(Reader& r, geo::Polygon& out) {
  std::vector<geo::Point> pts = out.take_vertices();
  pts.clear();
  const std::uint64_t n = r.u64();
  if (r.ok() && n <= 1'000'000) {
    // Clamp the reserve by the bytes actually present (16 per point): a
    // corrupt length prefix must not pin megabytes in the scratch envelope.
    pts.reserve(std::min<std::uint64_t>(n, r.remaining() / 16 + 1));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) pts.push_back(get_point(r));
  }
  out = geo::Polygon(std::move(pts));
}

void put(Writer& w, ObjectId id) { w.u64(id.value); }
ObjectId get_oid(Reader& r) { return ObjectId{r.u64()}; }

void put(Writer& w, NodeId id) { w.u32(id.value); }
NodeId get_node(Reader& r) { return NodeId{r.u32()}; }

void put(Writer& w, const Sighting& s) {
  put(w, s.oid);
  w.i64(s.t);
  put(w, s.pos);
  w.f64(s.acc_sens);
}

Sighting get_sighting(Reader& r) {
  Sighting s;
  s.oid = get_oid(r);
  s.t = r.i64();
  s.pos = get_point(r);
  s.acc_sens = r.f64();
  return s;
}

void put(Writer& w, const LocationDescriptor& ld) {
  put(w, ld.pos);
  w.f64(ld.acc);
}

LocationDescriptor get_ld(Reader& r) {
  LocationDescriptor ld;
  ld.pos = get_point(r);
  ld.acc = r.f64();
  return ld;
}

void put(Writer& w, const AccuracyRange& a) {
  w.f64(a.desired);
  w.f64(a.minimum);
}

AccuracyRange get_acc_range(Reader& r) {
  AccuracyRange a;
  a.desired = r.f64();
  a.minimum = r.f64();
  return a;
}

void put(Writer& w, const RegInfo& ri) {
  put(w, ri.reg_inst);
  put(w, ri.acc_range);
}

RegInfo get_reg_info(Reader& r) {
  RegInfo ri;
  ri.reg_inst = get_node(r);
  ri.acc_range = get_acc_range(r);
  return ri;
}

void put(Writer& w, const ObjectResult& res) {
  put(w, res.oid);
  put(w, res.ld);
}

ObjectResult get_object_result(Reader& r) {
  ObjectResult res;
  res.oid = get_oid(r);
  res.ld = get_ld(r);
  return res;
}

/// Packed result list (version-2 envelopes): [count][packed_len][packed] --
/// the packed bytes are emitted verbatim (built by append()).
void put(Writer& w, const PackedResults& v) {
  w.u64(v.count);
  w.u64(v.packed.size());
  w.bytes(v.packed.data(), v.packed.size());
}

void put(Writer& w, const std::optional<OriginArea>& origin) {
  w.boolean(origin.has_value());
  if (origin) {
    put(w, origin->leaf);
    put(w, origin->area);
  }
}

void get_origin_into(Reader& r, std::optional<OriginArea>& out) {
  if (!r.boolean()) {
    out.reset();
    return;
  }
  if (!out) out.emplace();
  out->leaf = get_node(r);
  get_polygon_into(r, out->area);
}

/// One ReplicaTee entry: [op u8][sighting][offered_acc f64][expiry i64]
/// [reg_info]. An out-of-range op fails the reader, which stops every
/// iteration over the packed region.
bool get_tee_entry(Reader& r, ReplicaTee::Entry& out) {
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(ReplicaTee::Op::kSetAcc)) {
    r.fail();
    return false;
  }
  out.op = static_cast<ReplicaTee::Op>(op);
  out.s = get_sighting(r);
  out.offered_acc = r.f64();
  out.expiry = r.i64();
  out.reg = get_reg_info(r);
  return r.ok();
}

// --- per-message encode ------------------------------------------------------

void encode(Writer& w, const RegisterReq& m) {
  put(w, m.s);
  w.str(m.obj_info);
  put(w, m.acc_range);
  put(w, m.reg_inst);
  w.u64(m.req_id);
}

void encode(Writer& w, const RegisterRes& m) {
  put(w, m.agent);
  w.f64(m.offered_acc);
  w.u64(m.req_id);
}

void encode(Writer& w, const RegisterFailed& m) {
  put(w, m.server);
  w.f64(m.best_acc);
  w.u64(m.req_id);
}

void encode(Writer& w, const CreatePath& m) { put(w, m.oid); }
void encode(Writer& w, const RemovePath& m) { put(w, m.oid); }
void encode(Writer& w, const UpdateReq& m) { put(w, m.s); }

void encode(Writer& w, const UpdateAck& m) {
  put(w, m.oid);
  w.f64(m.offered_acc);
}

// Batched messages: the packed region was built by append() and is emitted
// verbatim behind a length prefix (see the framing invariants in the header).
void encode(Writer& w, const BatchedUpdateReq& m) {
  w.u64(m.count);
  w.u64(m.packed.size());
  w.bytes(m.packed.data(), m.packed.size());
}

void encode(Writer& w, const BatchedUpdateAck& m) {
  w.u64(m.count);
  w.u64(m.packed.size());
  w.bytes(m.packed.data(), m.packed.size());
}

void encode(Writer& w, const HandoverReq& m) {
  put(w, m.s);
  put(w, m.reg_info);
  w.f64(m.prev_offered_acc);
  w.boolean(m.direct);
  w.u64(m.req_id);
  put(w, m.origin);
}

void encode(Writer& w, const HandoverRes& m) {
  put(w, m.oid);
  put(w, m.new_agent);
  w.f64(m.offered_acc);
  w.u64(m.req_id);
  put(w, m.origin);
}

void encode(Writer& w, const AgentChanged& m) {
  put(w, m.oid);
  put(w, m.new_agent);
  w.f64(m.offered_acc);
}

void encode(Writer& w, const PosQueryReq& m) {
  put(w, m.oid);
  w.u64(m.req_id);
}

void encode(Writer& w, const PosQueryFwd& m) {
  put(w, m.oid);
  put(w, m.entry);
  w.u64(m.req_id);
}

void encode(Writer& w, const PosQueryRes& m) {
  put(w, m.oid);
  w.boolean(m.found);
  put(w, m.ld);
  put(w, m.agent);
  w.u64(m.req_id);
  put(w, m.origin);
}

void encode(Writer& w, const RangeQueryReq& m) {
  put(w, m.area);
  w.f64(m.req_acc);
  w.f64(m.req_overlap);
  w.u64(m.req_id);
}

void encode(Writer& w, const RangeQueryFwd& m) {
  put(w, m.area);
  w.f64(m.req_acc);
  w.f64(m.req_overlap);
  put(w, m.entry);
  w.u64(m.req_id);
  w.boolean(m.direct);
}

// Packed query results (version-2 envelopes; see the header invariants).
void encode(Writer& w, const RangeQuerySubRes& m) {
  w.u64(m.req_id);
  w.f64(m.covered_size);
  put(w, m.results);
  put(w, m.origin);
}

void encode(Writer& w, const RangeQueryRes& m) {
  w.u64(m.req_id);
  w.boolean(m.complete);
  put(w, m.results);
}

void encode(Writer& w, const NNQueryReq& m) {
  put(w, m.p);
  w.f64(m.req_acc);
  w.f64(m.near_qual);
  w.u64(m.req_id);
}

void encode(Writer& w, const NNProbeFwd& m) {
  put(w, m.p);
  w.f64(m.radius);
  w.f64(m.req_acc);
  put(w, m.coordinator);
  w.u64(m.req_id);
}

void encode(Writer& w, const NNProbeSubRes& m) {
  w.u64(m.req_id);
  w.f64(m.covered_size);
  put(w, m.candidates);
  put(w, m.origin);
}

void encode(Writer& w, const NNQueryRes& m) {
  w.u64(m.req_id);
  w.boolean(m.found);
  put(w, m.nearest);
  put(w, m.near_set);
}

void encode(Writer& w, const ChangeAccReq& m) {
  put(w, m.oid);
  put(w, m.acc_range);
  w.u64(m.req_id);
}

void encode(Writer& w, const ChangeAccRes& m) {
  w.u64(m.req_id);
  w.boolean(m.ok);
  w.f64(m.offered_acc);
}

void encode(Writer& w, const NotifyAvailAcc& m) {
  put(w, m.oid);
  w.f64(m.offered_acc);
}

void encode(Writer& w, const DeregisterReq& m) { put(w, m.oid); }
void encode(Writer& w, const RefreshReq& m) { put(w, m.oid); }

void encode(Writer& w, const EventSubscribe& m) {
  w.u64(m.sub_id);
  w.u8(static_cast<std::uint8_t>(m.kind));
  put(w, m.area);
  w.u32(m.threshold);
  put(w, m.obj_a);
  put(w, m.obj_b);
  w.f64(m.dist);
  put(w, m.subscriber);
}

void encode(Writer& w, const EventInstall& m) {
  w.u64(m.sub_id);
  w.u8(static_cast<std::uint8_t>(m.kind));
  put(w, m.area);
  put(w, m.obj_a);
  put(w, m.obj_b);
  w.f64(m.dist);
  put(w, m.coordinator);
}

void encode(Writer& w, const EventDelta& m) {
  w.u64(m.sub_id);
  put(w, m.oid);
  w.boolean(m.entered);
  put(w, m.pos);
}

void encode(Writer& w, const EventNotify& m) {
  w.u64(m.sub_id);
  w.boolean(m.fired);
  w.u32(m.count);
}

void encode(Writer& w, const EventUnsubscribe& m) { w.u64(m.sub_id); }

void encode(Writer& w, const Heartbeat& m) { w.u64(m.seq); }
void encode(Writer& w, const HeartbeatAck& m) { w.u64(m.seq); }
void encode(Writer& w, const RecoveryHello& m) { w.u64(m.incarnation); }

void encode(Writer& w, const BatchedRefreshReq& m) {
  w.u64(m.count);
  w.u64(m.packed.size());
  w.bytes(m.packed.data(), m.packed.size());
}

void encode(Writer& w, const BatchedPathUpdate& m) {
  w.u64(m.count);
  w.u64(m.packed.size());
  w.bytes(m.packed.data(), m.packed.size());
}

void encode(Writer& w, const BucketMigrate& m) {
  w.u32(m.bucket);
  w.u64(m.count);
  w.u64(m.packed.size());
  w.bytes(m.packed.data(), m.packed.size());
}

void encode(Writer& w, const ReplicaTee& m) {
  w.u64(m.count);
  w.u64(m.packed.size());
  w.bytes(m.packed.data(), m.packed.size());
}

void encode(Writer& w, const StandbyPromote& m) {
  put(w, m.primary);
  w.u64(m.incarnation);
}

void encode(Writer& w, const StandbyDemote& m) {
  put(w, m.primary);
  w.u64(m.incarnation);
}

// --- per-message decode ------------------------------------------------------
//
// decode_into fills an existing message in place: vectors/polygons/strings
// keep their capacity, so decoding a steady stream of one message type into
// a scratch envelope allocates nothing.

void decode_into(Reader& r, RegisterReq& m) {
  m.s = get_sighting(r);
  // Messages outlive the datagram, so the string view must be owned here
  // (assign reuses the existing capacity).
  const std::string_view info = r.str();
  m.obj_info.assign(info.data(), info.size());
  m.acc_range = get_acc_range(r);
  m.reg_inst = get_node(r);
  m.req_id = r.u64();
}

void decode_into(Reader& r, RegisterRes& m) {
  m.agent = get_node(r);
  m.offered_acc = r.f64();
  m.req_id = r.u64();
}

void decode_into(Reader& r, RegisterFailed& m) {
  m.server = get_node(r);
  m.best_acc = r.f64();
  m.req_id = r.u64();
}

void decode_into(Reader& r, CreatePath& m) { m.oid = get_oid(r); }
void decode_into(Reader& r, RemovePath& m) { m.oid = get_oid(r); }
void decode_into(Reader& r, UpdateReq& m) { m.s = get_sighting(r); }

void decode_into(Reader& r, UpdateAck& m) {
  m.oid = get_oid(r);
  m.offered_acc = r.f64();
}

/// Shared by every packed framing: owns the packed region (assign reuses
/// the scratch buffer's capacity); the Cursors unpack it lazily later.
void get_packed_into(Reader& r, std::uint64_t& count, Buffer& packed) {
  count = r.u64();
  const std::uint64_t n = r.u64();
  const std::span<const std::uint8_t> bytes =
      r.bytes(static_cast<std::size_t>(n));
  if (!r.ok()) {
    count = 0;
    packed.clear();
    return;
  }
  packed.assign(bytes.begin(), bytes.end());
}

void decode_into(Reader& r, BatchedUpdateReq& m) {
  get_packed_into(r, m.count, m.packed);
}

void decode_into(Reader& r, BatchedUpdateAck& m) {
  get_packed_into(r, m.count, m.packed);
}

void decode_into(Reader& r, HandoverReq& m) {
  m.s = get_sighting(r);
  m.reg_info = get_reg_info(r);
  m.prev_offered_acc = r.f64();
  m.direct = r.boolean();
  m.req_id = r.u64();
  get_origin_into(r, m.origin);
}

void decode_into(Reader& r, HandoverRes& m) {
  m.oid = get_oid(r);
  m.new_agent = get_node(r);
  m.offered_acc = r.f64();
  m.req_id = r.u64();
  get_origin_into(r, m.origin);
}

void decode_into(Reader& r, AgentChanged& m) {
  m.oid = get_oid(r);
  m.new_agent = get_node(r);
  m.offered_acc = r.f64();
}

void decode_into(Reader& r, PosQueryReq& m) {
  m.oid = get_oid(r);
  m.req_id = r.u64();
}

void decode_into(Reader& r, PosQueryFwd& m) {
  m.oid = get_oid(r);
  m.entry = get_node(r);
  m.req_id = r.u64();
}

void decode_into(Reader& r, PosQueryRes& m) {
  m.oid = get_oid(r);
  m.found = r.boolean();
  m.ld = get_ld(r);
  m.agent = get_node(r);
  m.req_id = r.u64();
  get_origin_into(r, m.origin);
}

void decode_into(Reader& r, RangeQueryReq& m) {
  get_polygon_into(r, m.area);
  m.req_acc = r.f64();
  m.req_overlap = r.f64();
  m.req_id = r.u64();
}

void decode_into(Reader& r, RangeQueryFwd& m) {
  get_polygon_into(r, m.area);
  m.req_acc = r.f64();
  m.req_overlap = r.f64();
  m.entry = get_node(r);
  m.req_id = r.u64();
  m.direct = r.boolean();
}

void decode_into(Reader& r, RangeQuerySubRes& m) {
  m.req_id = r.u64();
  m.covered_size = r.f64();
  get_packed_into(r, m.results.count, m.results.packed);
  get_origin_into(r, m.origin);
}

void decode_into(Reader& r, RangeQueryRes& m) {
  m.req_id = r.u64();
  m.complete = r.boolean();
  get_packed_into(r, m.results.count, m.results.packed);
}

void decode_into(Reader& r, NNQueryReq& m) {
  m.p = get_point(r);
  m.req_acc = r.f64();
  m.near_qual = r.f64();
  m.req_id = r.u64();
}

void decode_into(Reader& r, NNProbeFwd& m) {
  m.p = get_point(r);
  m.radius = r.f64();
  m.req_acc = r.f64();
  m.coordinator = get_node(r);
  m.req_id = r.u64();
}

void decode_into(Reader& r, NNProbeSubRes& m) {
  m.req_id = r.u64();
  m.covered_size = r.f64();
  get_packed_into(r, m.candidates.count, m.candidates.packed);
  get_origin_into(r, m.origin);
}

void decode_into(Reader& r, NNQueryRes& m) {
  m.req_id = r.u64();
  m.found = r.boolean();
  m.nearest = get_object_result(r);
  get_packed_into(r, m.near_set.count, m.near_set.packed);
}

void decode_into(Reader& r, ChangeAccReq& m) {
  m.oid = get_oid(r);
  m.acc_range = get_acc_range(r);
  m.req_id = r.u64();
}

void decode_into(Reader& r, ChangeAccRes& m) {
  m.req_id = r.u64();
  m.ok = r.boolean();
  m.offered_acc = r.f64();
}

void decode_into(Reader& r, NotifyAvailAcc& m) {
  m.oid = get_oid(r);
  m.offered_acc = r.f64();
}

void decode_into(Reader& r, DeregisterReq& m) { m.oid = get_oid(r); }
void decode_into(Reader& r, RefreshReq& m) { m.oid = get_oid(r); }

void decode_into(Reader& r, EventSubscribe& m) {
  m.sub_id = r.u64();
  m.kind = static_cast<PredicateKind>(r.u8());
  get_polygon_into(r, m.area);
  m.threshold = r.u32();
  m.obj_a = get_oid(r);
  m.obj_b = get_oid(r);
  m.dist = r.f64();
  m.subscriber = get_node(r);
}

void decode_into(Reader& r, EventInstall& m) {
  m.sub_id = r.u64();
  m.kind = static_cast<PredicateKind>(r.u8());
  get_polygon_into(r, m.area);
  m.obj_a = get_oid(r);
  m.obj_b = get_oid(r);
  m.dist = r.f64();
  m.coordinator = get_node(r);
}

void decode_into(Reader& r, EventDelta& m) {
  m.sub_id = r.u64();
  m.oid = get_oid(r);
  m.entered = r.boolean();
  m.pos = get_point(r);
}

void decode_into(Reader& r, EventNotify& m) {
  m.sub_id = r.u64();
  m.fired = r.boolean();
  m.count = r.u32();
}

void decode_into(Reader& r, EventUnsubscribe& m) { m.sub_id = r.u64(); }

void decode_into(Reader& r, Heartbeat& m) { m.seq = r.u64(); }
void decode_into(Reader& r, HeartbeatAck& m) { m.seq = r.u64(); }
void decode_into(Reader& r, RecoveryHello& m) { m.incarnation = r.u64(); }

void decode_into(Reader& r, BatchedRefreshReq& m) {
  get_packed_into(r, m.count, m.packed);
}

void decode_into(Reader& r, BatchedPathUpdate& m) {
  get_packed_into(r, m.count, m.packed);
}

void decode_into(Reader& r, BucketMigrate& m) {
  m.bucket = r.u32();
  get_packed_into(r, m.count, m.packed);
}

void decode_into(Reader& r, ReplicaTee& m) {
  get_packed_into(r, m.count, m.packed);
}

void decode_into(Reader& r, StandbyPromote& m) {
  m.primary = get_node(r);
  m.incarnation = r.u64();
}

void decode_into(Reader& r, StandbyDemote& m) {
  m.primary = get_node(r);
  m.incarnation = r.u64();
}

// --- per-message size hints --------------------------------------------------
//
// Upper-bound-ish estimates of the encoded payload, used by the Writer
// reserve() size-hint protocol. Exactness is not required: the hint only has
// to make buffer growth converge quickly so pooled buffers stop reallocating.

constexpr std::size_t kEnvelopeBase = 64;

std::size_t extra_hint(const geo::Polygon& p) { return 16 * p.size(); }
std::size_t extra_hint(const std::optional<OriginArea>& o) {
  return o ? 8 + extra_hint(o->area) : 1;
}
std::size_t extra_hint(const PackedResults& v) {
  return 20 + v.packed.size();  // count + packed_len varints + packed bytes
}

template <typename M>
std::size_t size_hint(const M&) {
  return kEnvelopeBase;
}
std::size_t size_hint(const RegisterReq& m) {
  return kEnvelopeBase + m.obj_info.size();
}
std::size_t size_hint(const HandoverReq& m) {
  return kEnvelopeBase + extra_hint(m.origin);
}
std::size_t size_hint(const HandoverRes& m) {
  return kEnvelopeBase + extra_hint(m.origin);
}
std::size_t size_hint(const PosQueryRes& m) {
  return kEnvelopeBase + extra_hint(m.origin);
}
std::size_t size_hint(const RangeQueryReq& m) {
  return kEnvelopeBase + extra_hint(m.area);
}
std::size_t size_hint(const RangeQueryFwd& m) {
  return kEnvelopeBase + extra_hint(m.area);
}
std::size_t size_hint(const RangeQuerySubRes& m) {
  return kEnvelopeBase + extra_hint(m.results) + extra_hint(m.origin);
}
std::size_t size_hint(const RangeQueryRes& m) {
  return kEnvelopeBase + extra_hint(m.results);
}
std::size_t size_hint(const NNProbeSubRes& m) {
  return kEnvelopeBase + extra_hint(m.candidates) + extra_hint(m.origin);
}
std::size_t size_hint(const NNQueryRes& m) {
  return kEnvelopeBase + extra_hint(m.near_set);
}
std::size_t size_hint(const EventSubscribe& m) {
  return kEnvelopeBase + extra_hint(m.area);
}
std::size_t size_hint(const EventInstall& m) {
  return kEnvelopeBase + extra_hint(m.area);
}
std::size_t size_hint(const BatchedUpdateReq& m) {
  return kEnvelopeBase + m.packed.size();
}
std::size_t size_hint(const BatchedUpdateAck& m) {
  return kEnvelopeBase + m.packed.size();
}
std::size_t size_hint(const BatchedRefreshReq& m) {
  return kEnvelopeBase + m.packed.size();
}
std::size_t size_hint(const BatchedPathUpdate& m) {
  return kEnvelopeBase + m.packed.size();
}
std::size_t size_hint(const BucketMigrate& m) {
  return kEnvelopeBase + m.packed.size();
}
std::size_t size_hint(const ReplicaTee& m) {
  return kEnvelopeBase + m.packed.size();
}

template <typename M>
void encode_envelope_impl(Buffer& out, NodeId src, const M& m) {
  out.clear();
  Writer w(out);
  w.reserve(size_hint(m));
  w.u8(wire_version_of(M::kType));
  w.u8(static_cast<std::uint8_t>(M::kType));
  w.u32_fixed(src.value);
  encode(w, m);
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kRegisterReq: return "RegisterReq";
    case MsgType::kRegisterRes: return "RegisterRes";
    case MsgType::kRegisterFailed: return "RegisterFailed";
    case MsgType::kCreatePath: return "CreatePath";
    case MsgType::kRemovePath: return "RemovePath";
    case MsgType::kUpdateReq: return "UpdateReq";
    case MsgType::kUpdateAck: return "UpdateAck";
    case MsgType::kHandoverReq: return "HandoverReq";
    case MsgType::kHandoverRes: return "HandoverRes";
    case MsgType::kAgentChanged: return "AgentChanged";
    case MsgType::kPosQueryReq: return "PosQueryReq";
    case MsgType::kPosQueryFwd: return "PosQueryFwd";
    case MsgType::kPosQueryRes: return "PosQueryRes";
    case MsgType::kRangeQueryReq: return "RangeQueryReq";
    case MsgType::kRangeQueryFwd: return "RangeQueryFwd";
    case MsgType::kRangeQuerySubRes: return "RangeQuerySubRes";
    case MsgType::kRangeQueryRes: return "RangeQueryRes";
    case MsgType::kNNQueryReq: return "NNQueryReq";
    case MsgType::kNNProbeFwd: return "NNProbeFwd";
    case MsgType::kNNProbeSubRes: return "NNProbeSubRes";
    case MsgType::kNNQueryRes: return "NNQueryRes";
    case MsgType::kChangeAccReq: return "ChangeAccReq";
    case MsgType::kChangeAccRes: return "ChangeAccRes";
    case MsgType::kNotifyAvailAcc: return "NotifyAvailAcc";
    case MsgType::kDeregisterReq: return "DeregisterReq";
    case MsgType::kRefreshReq: return "RefreshReq";
    case MsgType::kEventSubscribe: return "EventSubscribe";
    case MsgType::kEventInstall: return "EventInstall";
    case MsgType::kEventDelta: return "EventDelta";
    case MsgType::kEventNotify: return "EventNotify";
    case MsgType::kEventUnsubscribe: return "EventUnsubscribe";
    case MsgType::kBatchedUpdateReq: return "BatchedUpdateReq";
    case MsgType::kBatchedUpdateAck: return "BatchedUpdateAck";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kHeartbeatAck: return "HeartbeatAck";
    case MsgType::kRecoveryHello: return "RecoveryHello";
    case MsgType::kBatchedRefreshReq: return "BatchedRefreshReq";
    case MsgType::kBatchedPathUpdate: return "BatchedPathUpdate";
    case MsgType::kBucketMigrate: return "BucketMigrate";
    case MsgType::kReplicaTee: return "ReplicaTee";
    case MsgType::kStandbyPromote: return "StandbyPromote";
    case MsgType::kStandbyDemote: return "StandbyDemote";
  }
  return "Unknown";
}

// --- packed query results: packing / lazy unpacking --------------------------

void put_object_result(Writer& w, const ObjectResult& r) { put(w, r); }

void PackedResults::append(const ObjectResult& r) {
  Writer w(packed);
  put(w, r);
  ++count;
}

bool PackedResults::Cursor::next(ObjectResult& out) {
  if (r_.remaining() == 0) return false;
  out = get_object_result(r_);
  return r_.ok();
}

std::vector<ObjectResult> PackedResults::to_vector() const {
  std::vector<ObjectResult> v;
  // `count` is wire-advisory and UNVALIDATED; clamp the reserve by the bytes
  // actually present (>= 25 per result) so a corrupt or hostile count can
  // never pin memory (the Cursor stops at the real packed region anyway).
  v.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, packed.size() / 25 + 1)));
  Cursor cur = iter();
  ObjectResult r;
  while (cur.next(r)) v.push_back(r);
  return v;
}

void PackedResults::assign(const std::vector<ObjectResult>& v) {
  clear();
  for (const ObjectResult& r : v) append(r);
}

std::optional<ResultCursor::Item> ResultCursor::next() {
  if (r_.remaining() == 0) return std::nullopt;
  const std::size_t start = len_ - r_.remaining();
  // Delimit the item with the one true ObjectResult decoder: the byte range
  // tracks any future layout change automatically.
  const ObjectResult res = get_object_result(r_);
  if (!r_.ok()) return std::nullopt;  // malformed tail: stop iterating
  const std::size_t end = len_ - r_.remaining();
  return Item{res, base_ + start, end - start};
}

SubResView::SubResView(const std::uint8_t* data, std::size_t len) {
  Reader r(data, len);
  // Envelope prefix: [version u8][type u8][src u32_fixed].
  const std::uint8_t version = r.u8();
  type_ = static_cast<MsgType>(r.u8());
  if (type_ != MsgType::kRangeQuerySubRes && type_ != MsgType::kNNProbeSubRes)
    return;
  if (version != wire_version_of(type_)) return;
  src_ = NodeId{r.u32_fixed()};
  req_id_ = r.u64();
  covered_size_ = r.f64();
  count_ = r.u64();
  const std::size_t packed_len = static_cast<std::size_t>(r.u64());
  if (!r.ok() || packed_len > r.remaining()) return;
  packed_base_ = data + (len - r.remaining());
  packed_len_ = packed_len;
  tail_base_ = packed_base_ + packed_len_;
  tail_len_ = r.remaining() - packed_len_;
  valid_ = true;
}

bool SubResView::origin(std::optional<OriginArea>& out) const {
  if (!valid_) return false;
  Reader r(tail_base_, tail_len_);
  get_origin_into(r, out);
  if (!r.ok()) {
    out.reset();
    return false;
  }
  return out.has_value();
}

void begin_envelope(Writer& w, NodeId src, MsgType type) {
  w.u8(wire_version_of(type));
  w.u8(static_cast<std::uint8_t>(type));
  w.u32_fixed(src.value);
}

// --- batched path maintenance: packing / lazy unpacking ----------------------

void BatchedPathUpdate::append(bool create, ObjectId oid) {
  Writer w(packed);
  w.u8(create ? 1 : 0);
  put(w, oid);
  ++count;
}

bool BatchedPathUpdate::Cursor::next(bool& create, ObjectId& oid) {
  if (r_.remaining() == 0) return false;
  create = r_.u8() != 0;
  oid = get_oid(r_);
  return r_.ok();
}

// --- batched-update packing / lazy unpacking ---------------------------------

void BatchedUpdateReq::append(const Sighting& s) {
  Writer w(packed);
  put(w, s);
  ++count;
}

bool BatchedUpdateReq::Cursor::next(Sighting& out) {
  if (r_.remaining() == 0) return false;
  out = get_sighting(r_);
  return r_.ok();
}

void BatchedUpdateAck::append(ObjectId oid, double offered_acc) {
  Writer w(packed);
  put(w, oid);
  w.f64(offered_acc);
  ++count;
}

bool BatchedUpdateAck::Cursor::next(ObjectId& oid, double& offered_acc) {
  if (r_.remaining() == 0) return false;
  oid = get_oid(r_);
  offered_acc = r_.f64();
  return r_.ok();
}

void BatchedRefreshReq::append(ObjectId oid) {
  Writer w(packed);
  put(w, oid);
  ++count;
}

bool BatchedRefreshReq::Cursor::next(ObjectId& out) {
  if (r_.remaining() == 0) return false;
  out = get_oid(r_);
  return r_.ok();
}

// --- bucket migration: packing / lazy unpacking -----------------------------

void BucketMigrate::append(const Entry& e) {
  Writer w(packed);
  put(w, e.s);
  w.f64(e.offered_acc);
  w.i64(e.expiry);
  put(w, e.reg);
  ++count;
}

bool BucketMigrate::Cursor::next(Entry& out) {
  if (r_.remaining() == 0) return false;
  out.s = get_sighting(r_);
  out.offered_acc = r_.f64();
  out.expiry = r_.i64();
  out.reg = get_reg_info(r_);
  return r_.ok();
}

// --- replica tee: packing / lazy unpacking -----------------------------------

void ReplicaTee::append(const Entry& e) {
  Writer w(packed);
  w.u8(static_cast<std::uint8_t>(e.op));
  put(w, e.s);
  w.f64(e.offered_acc);
  w.i64(e.expiry);
  put(w, e.reg);
  ++count;
}

bool ReplicaTee::Cursor::next(Entry& out) {
  if (r_.remaining() == 0) return false;
  return get_tee_entry(r_, out);
}

// --- object-keyed batch view (shard splitting) -------------------------------

ObjectBatchView::ObjectBatchView(const std::uint8_t* data, std::size_t len)
    : r_(data, len) {
  // Envelope prefix: [version u8][type u8][src u32_fixed].
  if (r_.u8() != kWireVersion) return;
  type_ = static_cast<MsgType>(r_.u8());
  if (!is_object_batch_type(type_)) return;
  (void)r_.u32_fixed();
  count_ = r_.u64();
  packed_len_ = static_cast<std::size_t>(r_.u64());
  if (!r_.ok() || packed_len_ > r_.remaining()) return;
  packed_base_ = data + (len - r_.remaining());
  // Re-anchor the reader on exactly the packed region, so iteration cannot
  // run into trailing bytes.
  r_ = Reader(packed_base_, packed_len_);
  valid_ = true;
}

std::optional<ObjectBatchView::Item> ObjectBatchView::next() {
  if (!valid_ || r_.remaining() == 0) return std::nullopt;
  const std::size_t start = packed_len_ - r_.remaining();
  // Delimit the item with the one true entry decoder of its type: the byte
  // range tracks any future layout change automatically. Every item leads
  // with its ObjectId, the shard-routing key.
  ObjectId oid;
  if (type_ == MsgType::kBatchedRefreshReq) {
    oid = get_oid(r_);
  } else if (type_ == MsgType::kReplicaTee) {
    ReplicaTee::Entry e;
    (void)get_tee_entry(r_, e);
    oid = e.s.oid;
  } else {
    oid = get_sighting(r_).oid;
  }
  if (!r_.ok()) return std::nullopt;  // malformed tail: stop iterating
  const std::size_t end = packed_len_ - r_.remaining();
  return Item{oid, packed_base_ + start, end - start};
}

MsgType message_type(const Message& msg) {
  return std::visit([](const auto& m) { return std::decay_t<decltype(m)>::kType; },
                    msg);
}

#define LOCS_WIRE_DEFINE_ENCODE_INTO(T)                             \
  void encode_envelope_into(Buffer& out, NodeId src, const T& msg) { \
    encode_envelope_impl(out, src, msg);                             \
  }
LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_DEFINE_ENCODE_INTO)
#undef LOCS_WIRE_DEFINE_ENCODE_INTO

void encode_envelope_into(Buffer& out, NodeId src, const Message& msg) {
  std::visit([&](const auto& m) { encode_envelope_impl(out, src, m); }, msg);
}

Buffer encode_envelope(NodeId src, const Message& msg) {
  Buffer buf;
  encode_envelope_into(buf, src, msg);
  return buf;
}

Status decode_envelope_into(Envelope& env, const std::uint8_t* data,
                            std::size_t len) {
  Reader r(data, len);
  const std::uint8_t version = r.u8();
  const auto type = static_cast<MsgType>(r.u8());
  // One version per type: the packed result types at 2, everything else at 1.
  if (!r.ok() || version != wire_version_of(type)) {
    return Status(StatusCode::kCorruptData, "bad wire version");
  }
  env.src = NodeId{r.u32_fixed()};
  switch (type) {
// Reuse the envelope's current alternative when the type matches -- its
// vectors/polygons keep their capacity across messages.
#define LOCS_WIRE_DECODE_CASE(T)             \
  case MsgType::k##T:                        \
    if (T* m = std::get_if<T>(&env.msg)) {   \
      decode_into(r, *m);                    \
    } else {                                 \
      decode_into(r, env.msg.emplace<T>());  \
    }                                        \
    break;
    LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_DECODE_CASE)
#undef LOCS_WIRE_DECODE_CASE
    default:
      return Status(StatusCode::kCorruptData, "unknown message type");
  }
  if (!r.ok()) {
    return Status(StatusCode::kCorruptData, "truncated message");
  }
  return Status::ok();
}

std::optional<ObjectId> peek_object_key(const std::uint8_t* data, std::size_t len) {
  // Envelope layout: [version u8][type u8][src u32_fixed][payload].
  constexpr std::size_t kPayloadOffset = 6;
  if (len <= kPayloadOffset || data[0] != kWireVersion) return std::nullopt;
  switch (static_cast<MsgType>(data[1])) {
    // Payload leads with a Sighting, whose first field is the ObjectId.
    case MsgType::kRegisterReq:
    case MsgType::kUpdateReq:
    case MsgType::kHandoverReq:
    // Payload leads with the ObjectId itself.
    case MsgType::kCreatePath:
    case MsgType::kRemovePath:
    case MsgType::kUpdateAck:
    case MsgType::kHandoverRes:
    case MsgType::kAgentChanged:
    case MsgType::kPosQueryReq:
    case MsgType::kPosQueryFwd:
    case MsgType::kPosQueryRes:
    case MsgType::kChangeAccReq:
    case MsgType::kNotifyAvailAcc:
    case MsgType::kDeregisterReq:
    case MsgType::kRefreshReq:
      break;
    default:
      return std::nullopt;  // area-keyed / coordinator-bound / unknown
  }
  Reader r(data + kPayloadOffset, len - kPayloadOffset);
  const std::uint64_t oid = r.u64();
  if (!r.ok()) return std::nullopt;
  return ObjectId{oid};
}

Result<Envelope> decode_envelope(const std::uint8_t* data, std::size_t len) {
  Envelope env;
  Status status = decode_envelope_into(env, data, len);
  if (!status.is_ok()) return status;
  return env;
}

}  // namespace locs::wire
