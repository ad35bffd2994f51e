// The location server -- one node of the hierarchical architecture (§4-§6).
//
// A LocationServer is a single-threaded message reactor: handle() consumes
// one datagram and may emit datagrams through the Transport. The paper's
// blocking "receive ..." steps (Alg 6-2/6-3/6-5) become pending-operation
// tables swept by tick(). The same code runs over the deterministic
// SimNetwork and over real UDP.
//
// Implemented behaviour:
//  * Algorithm 6-1  registration (incl. createPath) with accuracy
//    negotiation [desAcc, minAcc] -> offeredAcc,
//  * Algorithm 6-2  position updates, soft-state TTL extension,
//  * Algorithm 6-3  handover with hop-by-hop forwarding-path repair and
//    automatic deregistration when an object leaves the root service area,
//  * Algorithm 6-4  position queries (entry-server collection),
//  * Algorithm 6-5  range queries with Enlarge(area, reqAcc) routing and
//    covered-area completion accounting,
//  * nearest-neighbor queries (§3.2 semantics) via an expanding-ring search,
//  * the three §6.5 caches (leaf-area / object-agent / position descriptor),
//  * soft-state expiry and removePath pruning (§5),
//  * crash recovery: persistent visitorDB replay + refreshReq (§5),
//  * changeAcc / notifyAvailAcc (§3.1),
//  * the event mechanism sketched in §1/§8 (area-count and proximity
//    predicates with leaf-side membership deltas).
//
// Fault tolerance (recovery-protocol invariants; wire/messages.hpp has the
// framing side):
//  * failure detection -- with Options::heartbeat_interval > 0 a non-leaf
//    parent probes each child every interval (wire::Heartbeat) and counts
//    consecutive unanswered probes; at heartbeat_miss_threshold the child is
//    SUSPECT. Any HeartbeatAck (or a RecoveryHello) clears suspicion -- a
//    reordered stale ack is still liveness evidence. Disabled by default
//    (interval 0) so no-fault message traces stay bit-identical to seeds.
//  * routing around suspects -- a query that would be forwarded into a
//    suspect subtree is answered ON BEHALF of that subtree instead of timing
//    out: position queries get an immediate not-found, range/NN routing
//    credits the suspect child's covered area with zero results
//    (availability over completeness; the soft state below the crash is
//    being rebuilt by refreshes anyway). Updates/handovers are NOT
//    short-circuited -- their loss is already handled by client retry.
//  * batched soft-state recovery -- a restarted leaf announces itself with
//    RecoveryHello; the parent answers with BatchedRefreshReq sweeps listing
//    every object it still forwards to that leaf; the leaf intersects that
//    list with its (persisted) leaf records and sweeps BatchedRefreshReq
//    datagrams to the registering instances -- one datagram per client chunk
//    instead of one RefreshReq per object. The resulting client updates
//    rebuild the volatile SightingDb (batch path: SightingDb::apply_batch).
//    Objects whose leaf records were ALSO lost (in-memory visitorDB) cannot
//    be reached this way; with Options::nack_unknown_updates their next
//    update is answered with AgentChanged{kNoNode} and clients configured
//    with TrackedObject::Options::reregister_on_agent_loss re-register,
//    rebuilding VisitorDb, forwarding path and sighting from scratch.
//
// Sharding (core/sharded_location_server.hpp): a heavily loaded leaf can run
// as N LocationServer instances -- one per shard -- behind a single NodeId.
// The shard-routing invariant is:
//
//   * every OBJECT-KEYED message (register, update, handover and its
//     response, per-object queries, changeAcc, deregister) is handled by the
//     shard that owns hash(ObjectId) % N, which keeps the object's visitor
//     record and sighting slice; a handover therefore stays INTRA-LEAF only
//     in the sense that the object's owning shard never changes while its
//     agent leaf does not change -- the hash is node-independent, so the new
//     agent's owning shard is recomputed from the same ObjectId;
//   * every AREA-KEYED message (range query, NN probe, event subscribe /
//     install / delta) is handled by shard 0, the coordinator shard, whose
//     query paths read a SightingsView spanning all slices -- so the leaf
//     emits exactly one sub-result per probe, as an unsharded leaf would;
//   * req-ids are striped per shard (shard index in bits 32..39 of the
//     counter), so concurrent shards never emit colliding ids upstream.
//
// With N = 1 all three rules degenerate to the unsharded server and the
// message trace is bit-identical. Shard-local caches (§6.5) are NOT merged:
// with caches enabled, message counts may differ from an unsharded run.
//
// Zero-materialization query merge (read-path invariants; wire/messages.hpp
// has the framing side):
//  * sub-results never decode into owned vectors. Every RangeQuerySubRes/
//    NNProbeSubRes datagram is consumed through wire::SubResView straight
//    off the receive buffer (a datagram the view rejects fails the envelope
//    decode too, and counts as a decode error): NN candidates stream
//    item-by-item into the pending ring's candidate map; range sub-results
//    PIN the datagram (net::Datagram::take -- zero-copy on both transports)
//    and the pending operation holds just the packed byte range until the
//    merge completes.
//  * the final RangeQueryRes is written DIRECTLY into an outgoing pooled
//    envelope: kept item byte ranges are memcpy'd from the pinned
//    sub-result buffers, deduplicated on emit (first occurrence of an
//    ObjectId wins, in arrival order -- identical to the historical
//    concatenation whenever leaf areas tile, which they do by
//    construction), and the pins are released as the segments drop.
//  * leaf-local answers stream from the store into the packed wire buffer
//    through the SightingDb/SightingsView *_emit sinks -- no intermediate
//    result vector exists anywhere between the spatial index and the
//    socket.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/caches.hpp"
#include "core/service_area.hpp"
#include "core/types.hpp"
#include "net/transport.hpp"
#include "spatial/spatial_index.hpp"
#include "store/sighting_db.hpp"
#include "store/sighting_view.hpp"
#include "store/visitor_db.hpp"
#include "util/clock.hpp"
#include "util/oid_set.hpp"
#include "wire/messages.hpp"

namespace locs::core {

class LocationServer {
 public:
  struct Options {
    /// Best (smallest) accuracy this server's sensor infrastructure can
    /// manage -- Alg 6-1 line 3. Registration fails if this exceeds minAcc.
    double min_supported_acc = 5.0;
    /// Maximum object speed assumed when aging cached descriptors (m/s).
    double default_max_speed = 30.0;
    /// Soft-state TTL for sighting records (§5).
    Duration sighting_ttl = seconds(120);
    /// Deadline for distributed operations before they complete partially.
    Duration pending_timeout = seconds(5);
    /// §6.5 caches (the paper's prototype ran without them; benches toggle).
    bool enable_leaf_area_cache = false;
    bool enable_agent_cache = false;
    bool enable_position_cache = false;
    /// Worst aged accuracy a position-cache hit may report.
    double position_cache_max_acc = 200.0;
    /// Attach (leaf, service-area) piggybacks to responses for peers' caches.
    bool piggyback_origin = true;
    /// Sides of the polygon circumscribing NN probe circles.
    int nn_probe_sides = 32;
    /// Give up expanding NN rings beyond this radius (empty database guard).
    double nn_max_radius = 1e7;
    /// Compact the persistent visitorDB log once it exceeds this many
    /// mutation records (bounds recovery time; §5).
    std::uint64_t visitor_compact_threshold = 1 << 18;
    /// Failure detection: probe interval for wire::Heartbeat sent to every
    /// child from tick(). 0 disables the detector entirely (default; keeps
    /// no-fault traces bit-identical to heartbeat-free builds).
    Duration heartbeat_interval = 0;
    /// Consecutive unanswered probes before a child is marked suspect.
    int heartbeat_miss_threshold = 3;
    /// Max ObjectIds packed into one BatchedRefreshReq datagram (recovery
    /// sweeps are chunked per client node; keeps sweeps MTU-friendly).
    std::size_t refresh_batch_max = 256;
    /// Answer updates for unknown objects with AgentChanged{kNoNode} so a
    /// client that outlived a total leaf-state loss (in-memory visitorDB)
    /// can re-register instead of retrying blindly. Off by default: in
    /// normal operation an unknown update is a transient handover race.
    bool nack_unknown_updates = false;
    /// Coalesce server-to-server CreatePath/RemovePath bursts bound for the
    /// parent into wire::BatchedPathUpdate datagrams (flushed at
    /// path_batch_max entries or by the tick() deadline sweep; entry order
    /// is preserved, so create/remove sequences replay in order). Off by
    /// default: unbatched traces stay bit-identical.
    bool coalesce_paths = false;
    /// Flush a pending path batch at this many entries.
    std::size_t path_batch_max = 64;
    /// Deadline flush: the oldest buffered path entry waits at most this
    /// long (enforced by tick(); bounds the forwarding-path staleness that
    /// coalescing can add).
    Duration path_batch_delay = milliseconds(2);
  };

  struct Stats {
    std::uint64_t msgs_handled = 0;
    std::uint64_t msgs_sent = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t registrations = 0;
    std::uint64_t registration_failures = 0;
    std::uint64_t updates_applied = 0;
    std::uint64_t updates_unknown = 0;
    std::uint64_t update_batches = 0;  // BatchedUpdateReq datagrams handled
    std::uint64_t handovers_initiated = 0;
    std::uint64_t handovers_accepted = 0;  // this server became the new agent
    std::uint64_t handovers_direct = 0;    // via leaf-area cache shortcut
    std::uint64_t pos_queries_served = 0;  // answered from this entry server
    std::uint64_t pos_query_cache_hits = 0;
    std::uint64_t agent_cache_hits = 0;
    std::uint64_t range_direct = 0;  // range served via leaf-area cache
    std::uint64_t range_sub_answered = 0;
    std::uint64_t nn_rings = 0;
    std::uint64_t sightings_expired = 0;
    std::uint64_t pending_timeouts = 0;
    std::uint64_t refresh_requests = 0;
    std::uint64_t events_fired = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t children_suspected = 0;    // suspect transitions observed
    std::uint64_t suspect_short_circuits = 0;  // queries answered for suspects
    std::uint64_t recovery_hellos = 0;       // RecoveryHello received (parent)
    std::uint64_t refresh_batches_sent = 0;  // BatchedRefreshReq datagrams
    std::uint64_t path_batches_sent = 0;     // BatchedPathUpdate datagrams
    std::uint64_t sub_res_pinned = 0;    // sub-results merged without a copy
    std::uint64_t sub_res_copied = 0;    // sub-results merged via copy fallback
    std::uint64_t merge_dedup_dropped = 0;  // duplicate results dropped on emit
    std::uint64_t bucket_migrations = 0;    // BucketMigrate datagrams applied
    std::uint64_t objects_migrated_in = 0;  // visitors installed by migration
    std::uint64_t objects_migrated_out = 0;  // visitors extracted for migration
    std::uint64_t tee_datagrams_sent = 0;   // ReplicaTee datagrams to standby
    std::uint64_t tee_entries_applied = 0;  // tee entries mirrored (replica)
    std::uint64_t standby_promotions = 0;   // StandbyPromote handled (replica)
    std::uint64_t standby_demotions = 0;    // StandbyDemote handled (replica)
    std::uint64_t standbys_engaged = 0;     // suspicions routed to a standby
    std::uint64_t standby_routed_queries = 0;  // queries re-routed to standbys

    /// Accumulates `other` into this record (deployment / shard aggregation).
    void add(const Stats& other);
  };

  /// Fan-in hook for sighting presence changes; see configure_shard.
  using SightingEventHook = std::function<void(ObjectId, bool present, geo::Point)>;

  /// Result of one client-visible operation, delivered to the node that
  /// issued the request (see client.hpp for the client side).
  LocationServer(NodeId self, ConfigRecord cfg, net::Transport& net, Clock& clock,
                 Options opts, store::VisitorDb visitor_db = {},
                 spatial::IndexFactory index_factory = nullptr);

  /// Default options.
  LocationServer(NodeId self, ConfigRecord cfg, net::Transport& net, Clock& clock);

  LocationServer(const LocationServer&) = delete;
  LocationServer& operator=(const LocationServer&) = delete;

  /// Transport entry point: decode + dispatch one datagram. Packed query
  /// sub-results take the zero-materialization view path (may pin the
  /// datagram; see the read-path invariants above); everything else goes
  /// through the scratch-envelope decode.
  void handle(const net::Datagram& dg);

  /// Borrow-only convenience overload (tests, synthesized datagrams):
  /// identical dispatch, but a pin degrades to a copy.
  void handle(const std::uint8_t* data, std::size_t len) {
    handle(net::Datagram(data, len));
  }

  /// Periodic maintenance: soft-state expiry, pending-operation timeouts.
  void tick(TimePoint now);

  /// Recovery hook (§5): after constructing the server from a replayed
  /// persistent visitorDB, asks every leaf visitor whose sighting is missing
  /// for a position refresh -- batched per registering instance
  /// (wire::BatchedRefreshReq; one datagram per client chunk).
  void request_refresh_all();

  /// Crash-restart announcement (fault subsystem): a restarted leaf sends
  /// RecoveryHello to its parent, which answers with the BatchedRefreshReq
  /// sweep of objects it still forwards here (see the header invariants). A
  /// root leaf (single-server hierarchy) has no parent and sweeps locally.
  void announce_recovery();

  /// True while the failure detector considers `child` crashed/unreachable.
  bool child_suspect(NodeId child) const;

  // -- hot-standby replication wiring (Deployment::Config::leaf_standby) --
  //
  // Replication invariants (wire/messages.hpp has the framing side):
  //  * primary role -- a leaf with a standby tees every accepted sighting
  //    mutation (upsert / remove / accuracy change, with the ORIGINAL
  //    absolute expiry) into one wire::ReplicaTee per handled datagram/tick
  //    (flush_tee), so replication costs ~1 extra datagram per update batch.
  //  * replica role -- tee entries apply with insert-or-update semantics IN
  //    BATCH ORDER, reproducing the primary's exact spatial-index mutation
  //    sequence; that is what makes a promoted standby's range/NN answers
  //    byte-equal to the unfaulted primary's. The passive replica never
  //    fires events, sends paths/acks, or expires its mirror (removals
  //    arrive via the tee).
  //  * parent routing -- when the failure detector trips for a child with a
  //    registered standby, the parent engages it: queries that would hit the
  //    PR 4 zero-result short-circuit are forwarded to the standby instead,
  //    and a StandbyPromote tells the replica to fan AgentChanged at its
  //    mirrored visitors. Liveness evidence (ack / RecoveryHello) disengages
  //    and demotes; the primary rebuilds via the RecoveryHello sweep and the
  //    tee re-mirrors the standby. All of this is inert by default -- with
  //    no standby registered, traces stay bit-identical.

  /// Primary role: tee accepted sighting mutations to this replica NodeId.
  void set_standby(NodeId standby) { standby_ = standby; }
  /// Replica role: mirror tee datagrams arriving from this primary NodeId.
  void set_standby_role(NodeId primary) { standby_primary_ = primary; }
  /// Replica role: promoted and answering for the primary right now.
  bool standby_active() const { return standby_active_; }
  /// Parent routing: remember `standby` as the failover target for `child`.
  void set_child_standby(NodeId child, NodeId standby);
  /// Parent routing: the engaged standby for a suspect child (kNoNode when
  /// the child has no standby or the standby is not engaged).
  NodeId standby_for(NodeId child) const;

  /// Wires this server as one shard of a ShardedLocationServer (see the
  /// header comment for the routing invariant). `send_pool` replaces the
  /// transport's shared pool for outgoing messages; `query_view` (shard 0
  /// only) replaces the own-slice view on the area-query paths; `hook`
  /// (shards > 0) redirects sighting presence changes to the coordinator
  /// shard's event machinery instead of the (empty) local one. Also stripes
  /// the req-id counter by shard index. Call before any traffic.
  void configure_shard(std::uint32_t shard_index, net::BufferPool* send_pool,
                       const store::SightingsView* query_view,
                       SightingEventHook hook);

  /// Shares the §6.5 caches across the shard reactors of one leaf: every
  /// shard consults the SAME cache set (owned by the ShardedLocationServer),
  /// so cache hit patterns -- and the message counts they produce -- match
  /// an unsharded leaf. `mu` serializes cross-thread access in threaded
  /// mode; inline SimNetwork execution passes null (one datagram at a time).
  /// Call before any traffic. All three cache pointers must be non-null
  /// (all-or-nothing -- a partial set is ignored); `mu` may be null.
  void share_caches(LeafAreaCache* leaf, ObjectAgentCache* agent,
                    PositionCache* position, std::mutex* mu);

  /// Routes every outgoing message through a dedicated transmit channel
  /// (net::Sender) instead of Transport::send -- the per-shard SO_REUSEPORT
  /// socket + ring wiring (ShardedLocationServer::open_tx_senders), which
  /// takes the shared transport completely off this reactor's send path.
  /// The caller owns the channel and must keep it alive for the server's
  /// lifetime; null restores the default path. Call before any traffic.
  void set_tx_sender(net::Sender* sender) { tx_sender_ = sender; }

  /// Runs the leaf event predicates for an externally observed sighting
  /// change (fan-in from sibling shards; no-op outside sharded setups).
  void apply_sighting_event(ObjectId oid, bool present, geo::Point pos);

  /// Donor side of intra-leaf bucket migration (skew rebalancing): appends
  /// one wire::BucketMigrate entry per leaf visitor matched by `pred` --
  /// carrying the ORIGINAL soft-state expiry -- then drops the local
  /// records WITHOUT firing presence events or pruning forwarding paths
  /// (the object never leaves this leaf NodeId; only the owning shard
  /// slice changes). Visitors with a handover in flight are skipped: their
  /// state is about to leave the leaf through the handover protocol.
  /// Returns the number of visitors extracted. Extraction order is sorted
  /// by ObjectId so migration datagrams are bit-reproducible across runs.
  std::size_t extract_for_migration(const std::function<bool(ObjectId)>& pred,
                                    wire::BucketMigrate& out);

  /// Lock-free count of installed leaf predicates; sibling shards use it to
  /// skip the event fan-in entirely on the (hot) update path.
  std::size_t leaf_event_count() const {
    return leaf_pred_count_.load(std::memory_order_relaxed);
  }

  /// Mutable slice access for shard wiring (SightingDb::set_slice_lock).
  store::SightingDb* sightings_mutable() {
    return sightings_ ? &*sightings_ : nullptr;
  }

  NodeId id() const { return self_; }
  const ConfigRecord& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  const store::VisitorDb& visitors() const { return visitor_db_; }
  const store::SightingDb* sightings() const {
    return sightings_ ? &*sightings_ : nullptr;
  }
  const Options& options() const { return opts_; }
  const LeafAreaCache& leaf_area_cache() const { return *leaf_cache_; }
  const ObjectAgentCache& agent_cache() const { return *agent_cache_; }

 private:
  // -- pending distributed operations (the paper's blocking "receive ..."
  //    steps become continuation state swept by tick()) --
  struct PendingNN {
    NodeId client;
    std::uint64_t client_req_id;
    geo::Point p;
    double req_acc = 0.0;
    double near_qual = 0.0;
    double radius = 0.0;
    bool final_ring = false;  // radius already covers d* + nearQual
    double target = 0.0;
    double covered = 0.0;
    // Flat candidate map (util/oid_set.hpp): streaming sub-result merge
    // with zero allocations at working size; retired maps recycle through
    // nn_map_pool_ with their slot arrays intact.
    util::OidMap<LocationDescriptor> candidates;
    TimePoint deadline = 0;
  };

  // -- message handlers (one per protocol message) --
  void on_register_req(NodeId src, const wire::RegisterReq& m);
  void on_create_path(NodeId src, const wire::CreatePath& m);
  void on_remove_path(NodeId src, const wire::RemovePath& m);
  void on_batched_path_update(NodeId src, const wire::BatchedPathUpdate& m);
  void on_update_req(NodeId src, const wire::UpdateReq& m);
  void on_batched_update_req(NodeId src, const wire::BatchedUpdateReq& m);
  void on_handover_req(NodeId src, wire::HandoverReq m);
  void on_handover_res(NodeId src, const wire::HandoverRes& m);
  void on_pos_query_req(NodeId src, const wire::PosQueryReq& m);
  void on_pos_query_fwd(NodeId src, const wire::PosQueryFwd& m);
  void on_pos_query_res(NodeId src, const wire::PosQueryRes& m);
  void on_range_query_req(NodeId src, const wire::RangeQueryReq& m);
  void on_range_query_fwd(NodeId src, const wire::RangeQueryFwd& m);
  void on_nn_query_req(NodeId src, const wire::NNQueryReq& m);
  void on_nn_probe_fwd(NodeId src, const wire::NNProbeFwd& m);
  void on_change_acc_req(NodeId src, const wire::ChangeAccReq& m);
  void on_deregister_req(NodeId src, const wire::DeregisterReq& m);
  void on_event_subscribe(NodeId src, const wire::EventSubscribe& m);
  void on_event_install(NodeId src, const wire::EventInstall& m);
  void on_event_delta(NodeId src, const wire::EventDelta& m);
  void on_event_unsubscribe(NodeId src, const wire::EventUnsubscribe& m);
  void on_heartbeat(NodeId src, const wire::Heartbeat& m);
  void on_heartbeat_ack(NodeId src, const wire::HeartbeatAck& m);
  void on_recovery_hello(NodeId src, const wire::RecoveryHello& m);
  void on_batched_refresh_req(NodeId src, const wire::BatchedRefreshReq& m);
  void on_bucket_migrate(NodeId src, const wire::BucketMigrate& m);
  void on_replica_tee(NodeId src, const wire::ReplicaTee& m);
  void on_standby_promote(NodeId src, const wire::StandbyPromote& m);
  void on_standby_demote(NodeId src, const wire::StandbyDemote& m);

  // -- helpers --
  /// Encodes into a pooled transport buffer (zero allocations in steady
  /// state) and sends. Templated so concrete message types hit the per-type
  /// encode_envelope_into overloads -- no Message variant construction, no
  /// copy of embedded result vectors.
  template <typename M>
  void send_msg(NodeId to, const M& msg) {
    if (!to.valid()) return;
    ++stats_.msgs_sent;
    // send_pool_ is the transport's shared pool by default, a private
    // per-shard pool under sharding (no cross-shard send contention).
    net::PooledBuffer buf(send_pool_, send_pool_->acquire());
    wire::encode_envelope_into(*buf, self_, msg);
    send_pooled(to, std::move(buf));
  }
  /// THE transmit choice for every encoded envelope (send_msg and the
  /// in-place merge emit): the dedicated transmit channel when one is set
  /// (per-shard socket + ring; the shared transport is never touched),
  /// Transport::send otherwise.
  void send_pooled(NodeId to, net::PooledBuffer buf) {
    if (tx_sender_ != nullptr) {
      tx_sender_->send(to, std::move(buf));
    } else {
      net_.send(self_, to, std::move(buf));
    }
  }
  std::uint64_t next_req_id();
  /// §6.5 piggyback, cached at construction (config is immutable): avoids
  /// re-copying the service-area polygon on every leaf response.
  const std::optional<wire::OriginArea>& origin_piggyback() const {
    return origin_cache_;
  }
  void learn_origin(const std::optional<wire::OriginArea>& origin);
  double negotiate_offered_acc(const AccuracyRange& range) const;
  TimePoint now() const { return clock_.now(); }
  TimePoint sighting_expiry() const { return now() + opts_.sighting_ttl; }

  /// Becomes the new agent for a handed-over object (Alg 6-3 lines 2-7).
  void accept_handover(NodeId src, const wire::HandoverReq& m);
  /// Initiates a handover for a locally tracked object that left our area.
  void initiate_handover(NodeId object_node, const Sighting& s);
  /// Removes a leaf visitor entirely (dereg/expiry): records + path prune.
  void drop_leaf_visitor(ObjectId oid, bool prune_path);

  /// Routes a range query one hop further (Alg 6-5 range query fwd). `from`
  /// is the node the query arrived from (kNoNode at the entry server).
  void route_range(const geo::Polygon& area, const geo::Polygon& enlarged,
                   double req_acc, double req_overlap, NodeId entry,
                   std::uint64_t req_id, NodeId from);
  /// Leaf-local answer for a routed range query.
  void answer_range_locally(const geo::Polygon& area, const geo::Polygon& enlarged,
                            double req_acc, double req_overlap, NodeId entry,
                            std::uint64_t req_id, double extra_covered);

  /// Routes an NN probe (mirrors range routing over the probe polygon).
  void route_nn_probe(const wire::NNProbeFwd& probe, NodeId from);
  void answer_nn_probe_locally(const wire::NNProbeFwd& probe, double extra_covered);
  /// Starts (or restarts with a larger radius) the expanding-ring probe for
  /// a pending NN operation; returns the new ring key.
  std::uint64_t launch_nn_ring(PendingNN op);
  void check_nn_ring(std::uint64_t ring_key);
  void finish_nn(std::uint64_t ring_key);

  /// Inserts or refreshes a leaf sighting record (+ event maintenance).
  void put_sighting(const Sighting& s, double offered_acc);
  void try_complete_range(std::uint64_t key);
  void flush_awaiting_refresh(ObjectId oid);

  /// Zero-materialization sub-result intake (see the header invariants):
  /// consumes a valid SubResView straight off the receive buffer, pinning
  /// the datagram for range merges / streaming candidates for NN rings.
  void handle_sub_res_view(wire::SubResView& view, const net::Datagram& dg);
  /// Streams the merged range answer directly into an outgoing pooled
  /// envelope (dedup-on-emit) and releases the pinned segments.
  struct PendingRange;
  void emit_range_result(NodeId client, std::uint64_t client_req_id,
                         bool complete, PendingRange& pending);

  /// CreatePath/RemovePath toward the parent, coalesced into a
  /// BatchedPathUpdate when Options::coalesce_paths is on (entry order
  /// preserved; flushed at path_batch_max or by tick()).
  void send_path(bool create, ObjectId oid);
  void flush_path_batch();

  /// tick() minus the send-burst bracket (tick corks, runs this, flushes).
  void tick_body(TimePoint t);

  /// Packs (client, oid) refresh targets into per-client BatchedRefreshReq
  /// chunks (sorted for deterministic traces) and sends them.
  void send_refresh_batches(std::vector<std::pair<NodeId, ObjectId>>& targets);

  /// Whether an unknown update should be answered with the AgentChanged nack
  /// (suppressed for objects this server dropped deliberately just now).
  bool should_nack_unknown(ObjectId oid);

  // -- hot-standby replication helpers (no-ops without a standby wired) --
  /// Stages one tee entry; flush_tee (end of handle()/tick_body) sends the
  /// whole batch as ONE ReplicaTee datagram.
  void tee_upsert(const Sighting& s, double offered_acc, const RegInfo& reg);
  void tee_set_acc(ObjectId oid, double offered_acc, const RegInfo& reg);
  void tee_remove(ObjectId oid);
  void flush_tee();
  /// True in the replica role while NOT promoted: the primary owns the
  /// visitor state, this server only mirrors it.
  bool standby_passive() const {
    return standby_primary_.valid() && !standby_active_;
  }
  /// Demote-race redirect: stages/sends straggler client sightings back to
  /// the primary over the tee channel (see on_replica_tee's primary branch).
  void bounce_sighting(const Sighting& s);
  void flush_bounce();
  /// Parent routing: engage/disengage the standby registered for `child`
  /// (suspicion trip -> StandbyPromote; liveness evidence -> StandbyDemote).
  void engage_standby(NodeId child);
  void disengage_standby(NodeId child);
  /// Replica role: fan AgentChanged{agent} at every mirrored leaf visitor,
  /// sorted by (client, oid) for deterministic traces.
  void standby_fan_agent_changed(NodeId agent);

  // -- leaf-side event predicate maintenance --
  void events_on_sighting(ObjectId oid, bool present, geo::Point pos);
  void install_event(const wire::EventInstall& inst);
  void route_event_install(const wire::EventInstall& inst, NodeId from);
  void coordinator_handle_delta(NodeId reporting_leaf, const wire::EventDelta& m);

  /// The sightings view the area-query paths read: the merged cross-shard
  /// view on a coordinator shard, the own-slice view everywhere else.
  const store::SightingsView& query_view() const {
    return shard_view_ != nullptr ? *shard_view_ : own_view_;
  }

  NodeId self_;
  ConfigRecord cfg_;
  net::Transport& net_;
  Clock& clock_;
  Options opts_;
  Stats stats_;

  store::VisitorDb visitor_db_;
  std::optional<store::SightingDb> sightings_;  // leaf servers only

  // -- shard wiring (configure_shard; defaults are the unsharded server) --
  net::BufferPool* send_pool_;               // defaults to the transport pool
  net::Sender* tx_sender_ = nullptr;         // per-shard transmit channel
  store::SightingsView own_view_;            // single-slice view over sightings_
  const store::SightingsView* shard_view_ = nullptr;  // coordinator: all slices
  SightingEventHook sighting_event_hook_;    // shards > 0: fan-in to shard 0
  std::uint32_t shard_index_ = 0;
  std::atomic<std::size_t> leaf_pred_count_{0};

  // §6.5 caches: owned by default; a sharded leaf repoints every shard at
  // ONE shared set via share_caches() (cache_mu_ guards cross-thread use).
  LeafAreaCache own_leaf_cache_;
  ObjectAgentCache own_agent_cache_;
  PositionCache own_position_cache_;
  LeafAreaCache* leaf_cache_ = &own_leaf_cache_;
  ObjectAgentCache* agent_cache_ = &own_agent_cache_;
  PositionCache* position_cache_ = &own_position_cache_;
  std::mutex* cache_mu_ = nullptr;

  std::uint64_t req_counter_ = 0;
  std::optional<wire::OriginArea> origin_cache_;

  // -- fault-tolerance state (failure detector + recovery sweeps) --
  struct ChildHealth {
    std::uint64_t last_seq_sent = 0;
    std::uint64_t last_seq_acked = 0;
    int misses = 0;     // consecutive probe intervals without liveness
    bool suspect = false;
  };
  std::unordered_map<NodeId, ChildHealth> child_health_;
  TimePoint next_heartbeat_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t recovery_incarnation_ = 0;
  // Objects recently handed away (nack_unknown_updates only): an update that
  // raced the handover must NOT be nacked -- the legitimate AgentChanged is
  // already in flight, and a nack would trigger a spurious re-registration.
  // Entries expire after pending_timeout (swept by tick()).
  std::unordered_map<ObjectId, TimePoint> recent_departures_;
  // Recovery-sweep scratch (sorted targets + the batch under construction).
  std::vector<std::pair<NodeId, ObjectId>> refresh_targets_scratch_;
  wire::BatchedRefreshReq refresh_batch_scratch_;

  // -- hot-standby replication state (all inert while the NodeIds are
  //    invalid / the maps are empty; see the replication invariants above) --
  NodeId standby_;              // primary role: tee target
  NodeId standby_primary_;      // replica role: the primary being mirrored
  bool standby_active_ = false; // replica role: promoted, answering queries
  struct ChildStandby {
    NodeId standby;
    bool engaged = false;       // authoritative for query re-routing
  };
  std::unordered_map<NodeId, ChildStandby> child_standbys_;  // parent routing
  std::uint64_t standby_incarnation_ = 0;  // stamps promote/demote datagrams
  wire::ReplicaTee tee_scratch_;  // tee batch under construction (flush_tee)

  // -- hot-path scratch state, reused across operations --
  // Receive-side scratch envelope for handle(); see decode_envelope_into.
  wire::Envelope rx_scratch_;
  // Message scratch: field assignment into an already-sized message reuses
  // vector/polygon capacity, so answering a query allocates nothing once the
  // scratch has reached its working size.
  wire::RangeQuerySubRes range_sub_scratch_;
  wire::NNProbeSubRes nn_sub_scratch_;
  wire::NNQueryRes nn_res_scratch_;
  std::vector<ObjectResult> nn_local_scratch_;
  // Batched-update scratch: accepted sightings staged for the single-lock
  // SightingDb::apply_batch, and the packed ack under construction.
  std::vector<store::SightingDb::BulkUpdate> batch_apply_scratch_;
  wire::BatchedUpdateAck batch_ack_scratch_;
  // Retired NN candidate maps (slot arrays intact) for the next ring.
  std::vector<util::OidMap<LocationDescriptor>> nn_map_pool_;
  // Merge scratch: dedup-on-emit seen set (flat table, capacity reused --
  // zero allocations at working size) and the origin piggyback decode
  // target for the sub-result view path (polygon capacity reused).
  util::OidSet merge_seen_scratch_;
  std::optional<wire::OriginArea> origin_scratch_;
  // Server-to-server path coalescing (Options::coalesce_paths): the batch
  // under construction toward the parent and its oldest-entry enqueue time.
  wire::BatchedPathUpdate path_batch_;
  TimePoint path_batch_oldest_ = 0;

  // -- pending distributed operations --
  struct PendingHandover {
    NodeId reply_to;     // where the HandoverRes must be propagated
    ObjectId oid;
    NodeId child;        // the child we forwarded down to (pointer repair)
    bool remove_on_res = false;  // upward forwarding: drop record on response
    bool reply_to_object = false;  // reply_to is the tracked object itself
    bool direct_prune = false;  // direct handover: prune old branch ourselves
    TimePoint deadline = 0;
  };
  std::unordered_map<std::uint64_t, PendingHandover> pending_handover_;
  std::unordered_set<ObjectId> handover_in_flight_;

  struct PendingPos {
    NodeId client;
    std::uint64_t client_req_id;
    ObjectId oid;
    bool via_agent_cache;  // on timeout: invalidate + retry via hierarchy
    TimePoint deadline;
  };
  std::unordered_map<std::uint64_t, PendingPos> pending_pos_;

  /// One contributed slice of a pending range merge: the raw packed-result
  /// bytes of a sub-result, held WITHOUT decoding. `buf` pins the receive
  /// buffer the bytes live in (zero-copy path) or owns a pooled copy
  /// (non-pinnable arrivals, local answers); (data, len) delimit the packed
  /// region.
  struct SubSegment {
    net::PooledBuffer buf;
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::uint64_t count = 0;
  };
  struct PendingRange {
    NodeId client;
    std::uint64_t client_req_id;
    double target = 0.0;   // size of the enlarged query area
    double covered = 0.0;  // accumulated from sub-results
    std::vector<SubSegment> segments;  // local + sub-results, arrival order
    TimePoint deadline;
  };
  std::unordered_map<std::uint64_t, PendingRange> pending_range_;

  std::unordered_map<std::uint64_t, PendingNN> pending_nn_;  // key: ring req id

  // Position queries waiting for a post-recovery refresh (§5).
  struct WaitingQuery {
    NodeId entry;
    std::uint64_t req_id;
    TimePoint deadline;
  };
  std::unordered_map<ObjectId, std::vector<WaitingQuery>> awaiting_refresh_;

  // -- event mechanism state --
  struct CoordinatorPred {
    wire::EventSubscribe sub;
    // Area predicates: member -> leaf that reported it. Tracking the
    // reporting leaf makes handovers safe: a stale "left" delta from the old
    // agent must not cancel the fresher "entered" from the new agent.
    std::unordered_map<ObjectId, NodeId> inside;
    bool fired = false;
    // Proximity predicates: last known positions + reporting leaves.
    std::optional<geo::Point> pos_a, pos_b;
    NodeId src_a, src_b;
  };
  std::unordered_map<std::uint64_t, CoordinatorPred> coord_preds_;

  struct LeafPred {
    wire::EventInstall inst;
    std::unordered_set<ObjectId> members;
  };
  std::unordered_map<std::uint64_t, LeafPred> leaf_preds_;
};

}  // namespace locs::core
