#include "core/sharded_location_server.hpp"

#include <cassert>
#include <chrono>

namespace locs::core {

namespace {
// Consumer pacing: drain in small batches, spin-yield briefly when idle,
// then sleep with a bounded timeout (the producer's wakeup is best-effort).
constexpr int kDrainBatch = 64;
constexpr int kIdleSpinRounds = 64;
constexpr auto kSleepSlice = std::chrono::microseconds(200);
// Producer backoff before dropping on a persistently full inbox.
constexpr int kPushRetries = 1024;
}  // namespace

namespace {
// splitmix64 finalizer: spreads sequential object ids uniformly.
std::uint64_t mix_key(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

std::uint32_t ShardedLocationServer::shard_of(ObjectId oid,
                                              std::uint32_t shard_count) {
  return static_cast<std::uint32_t>(mix_key(oid.value) % shard_count);
}

std::uint32_t ShardedLocationServer::bucket_of(ObjectId oid) const {
  const std::uint64_t key =
      opts_.balance.mix_keys ? mix_key(oid.value) : oid.value;
  return static_cast<std::uint32_t>(key % kRebalanceBuckets);
}

ShardedLocationServer::ShardedLocationServer(NodeId self, ConfigRecord cfg,
                                             net::Transport& net, Clock& clock,
                                             Options opts,
                                             ShardVisitorDbFactory visitor_db_factory,
                                             spatial::IndexFactory index_factory)
    : self_(self), net_(net), opts_(opts) {
  assert(cfg.is_leaf() && "only leaf servers shard their object space");
  if (opts_.shards == 0) opts_.shards = 1;
  const std::uint32_t n = opts_.shards;

  // Default bucket table: bucket % shards. For shard counts dividing the
  // bucket count this routes identically to shard_of(), so the bucket layer
  // is invisible until the rebalancer moves a bucket.
  for (std::uint32_t b = 0; b < kRebalanceBuckets; ++b) {
    bucket_to_shard_[b].store(b % n, std::memory_order_relaxed);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    auto sh = std::make_unique<Shard>(opts_.inbox_capacity);
    sh->index = i;
    sh->pool = std::make_shared<net::BufferPool>();
    // In-flight PooledBuffers outlive this object (SimNetwork queues them);
    // the transport keeps the pool alive for them.
    net_.adopt_pool(sh->pool);
    store::VisitorDb vdb;
    if (visitor_db_factory) vdb = visitor_db_factory(i);
    sh->server = std::make_unique<LocationServer>(self, cfg, net, clock,
                                                  opts_.server, std::move(vdb),
                                                  index_factory);
    shards_.push_back(std::move(sh));
  }

  // Slice wiring: each slice gets a lock serializing its owning shard's
  // mutations against cross-shard reads -- the coordinator's query merges
  // (N > 1) and external find_sighting() probes (any threaded setup,
  // including a threaded single shard).
  for (auto& sh : shards_) {
    store::SightingDb* slice = sh->server->sightings_mutable();
    assert(slice != nullptr);
    std::mutex* mu = n > 1 || opts_.threaded ? &sh->slice_mu : nullptr;
    slice->set_slice_lock(mu);
    merged_view_.add_slice(slice, mu);
  }

  for (auto& sh : shards_) {
    const bool coordinator = sh->index == 0;
    LocationServer::SightingEventHook hook;
    if (!coordinator) {
      hook = [this](ObjectId oid, bool present, geo::Point pos) {
        LocationServer& coord = *shards_[0]->server;
        if (coord.leaf_event_count() == 0) return;  // hot path: no predicates
        if (!opts_.threaded) {
          coord.apply_sighting_event(oid, present, pos);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(delta_mu_);
          deltas_.push_back({oid, present, pos});
        }
        wake(*shards_[0]);
      };
    }
    sh->server->configure_shard(sh->index, sh->pool.get(),
                                coordinator ? &merged_view_ : nullptr,
                                std::move(hook));
    // One shared §6.5 cache set per leaf: hit patterns (and the message
    // counts they produce) match an unsharded leaf. Inline mode needs no
    // lock -- datagrams arrive one at a time from the delivery loop.
    sh->server->share_caches(&shared_leaf_cache_, &shared_agent_cache_,
                             &shared_position_cache_,
                             opts_.threaded ? &cache_mu_ : nullptr);
  }

  if (opts_.threaded) {
    for (auto& sh : shards_) {
      sh->thread = std::thread([this, shard = sh.get()] { shard_loop(*shard); });
    }
  }
}

ShardedLocationServer::~ShardedLocationServer() {
  // Teardown protocol (see Transport::detach): unregister first so the
  // transport never delivers into a dying reactor, then stop the shards.
  net_.detach(self_);
  if (opts_.threaded) {
    stop_.store(true, std::memory_order_release);
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->wake_mu);
      sh->wake_cv.notify_all();
    }
    for (auto& sh : shards_) {
      if (sh->thread.joinable()) sh->thread.join();
    }
    // Deterministic send-side teardown: whatever the final drain bursts
    // left on the shard channels goes to the wire before destruction.
    for (auto& sh : shards_) {
      if (sh->tx != nullptr) sh->tx->flush();
    }
  }
}

void ShardedLocationServer::open_tx_senders() {
  if (!opts_.threaded) return;
  for (auto& sh : shards_) {
    if (sh->tx != nullptr) continue;
    sh->tx = net_.open_sender(self_);
    if (sh->tx == nullptr) return;  // transport has no per-sender channels
    {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      sh->server->set_tx_sender(sh->tx.get());
    }
    // Publish to the already-running shard_loop last (release pairs with its
    // acquire load), so the reactor only corks a fully wired channel.
    sh->tx_raw.store(sh->tx.get(), std::memory_order_release);
  }
}

std::uint32_t ShardedLocationServer::route(const std::uint8_t* data,
                                           std::size_t len) const {
  if (shards_.size() == 1) return 0;
  const std::optional<ObjectId> key = wire::peek_object_key(data, len);
  // Area-keyed and malformed datagrams run on the coordinator shard (the
  // latter so exactly one shard counts the decode error).
  if (!key) return 0;
  return shard_for(*key);
}

void ShardedLocationServer::handle(const net::Datagram& dg) {
  const std::uint8_t* data = dg.data();
  const std::size_t len = dg.size();
  // Object-keyed batches (updates, recovery sweeps, replica tees) list MANY
  // objects: split them per owning shard, so each shard applies, refreshes
  // or mirrors exactly its own slice. A malformed batch falls through to the
  // default route (shard 0), which runs the full decode and counts the error.
  if (shards_.size() > 1 && len > 1 &&
      wire::is_object_batch_type(static_cast<wire::MsgType>(data[1])) &&
      split_by_owner(data, len)) {
    return;
  }
  if (len > 1 &&
      (static_cast<wire::MsgType>(data[1]) == wire::MsgType::kStandbyPromote ||
       static_cast<wire::MsgType>(data[1]) == wire::MsgType::kStandbyDemote)) {
    // Promotion flips every shard of the replica leaf (ascending index order
    // keeps inline SimNetwork execution deterministic): each shard fans
    // AgentChanged for -- or drops -- exactly its own mirrored slice.
    for (auto& sh : shards_) deliver(*sh, dg);
    return;
  }
  deliver(*shards_[route(data, len)], dg);
}

void ShardedLocationServer::deliver(Shard& sh, const net::Datagram& dg) {
  const std::uint8_t* data = dg.data();
  const std::size_t len = dg.size();
  if (!opts_.threaded) {
    // Inline: forward the Datagram itself so the coordinator's merge paths
    // can pin the receive buffer exactly like an unsharded server.
    sh.server->handle(dg);
    return;
  }
  for (int attempt = 0;; ++attempt) {
    if (sh.inbox.try_push(data, len)) break;
    if (attempt >= kPushRetries) {
      // Persistently full inbox: drop, like a full UDP socket buffer would.
      inbox_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    wake(sh);
    std::this_thread::yield();
  }
  wake(sh);
}

bool ShardedLocationServer::split_by_owner(const std::uint8_t* data,
                                           std::size_t len) {
  const std::uint32_t n = static_cast<std::uint32_t>(shards_.size());
  // Pass 1: peek every item's owner; a batch that lands entirely on one
  // shard (or is empty) forwards unchanged -- no copy, no re-framing.
  {
    wire::ObjectBatchView peek(data, len);
    if (!peek.valid()) return false;
    bool mixed = false;
    std::uint32_t first = 0;
    bool have_first = false;
    while (const auto item = peek.next()) {
      const std::uint32_t owner = shard_for(item->oid);
      if (!have_first) {
        first = owner;
        have_first = true;
      } else if (owner != first) {
        mixed = true;
        break;
      }
    }
    if (!mixed) {
      deliver(*shards_[have_first ? first : 0], net::Datagram(data, len));
      return true;
    }
  }
  // Pass 2: re-frame. The item byte ranges are copied verbatim into
  // per-shard packed regions (scratch buffers, capacity reused), then each
  // sub-batch is re-enveloped under the ORIGINAL header bytes so the source
  // node is preserved -- the ack destination of an update batch, the parent
  // of a refresh sweep, the primary a replica shard verifies a tee against.
  // Ascending shard order keeps inline SimNetwork execution deterministic.
  split_packed_.resize(n);
  split_counts_.assign(n, 0);
  for (auto& buf : split_packed_) buf.clear();
  wire::ObjectBatchView view(data, len);
  while (const auto item = view.next()) {
    const std::uint32_t owner = shard_for(item->oid);
    split_packed_[owner].insert(split_packed_[owner].end(), item->data,
                                item->data + item->len);
    ++split_counts_[owner];
  }
  constexpr std::size_t kHeaderLen = 6;  // [version][type][src u32_fixed]
  for (std::uint32_t s = 0; s < n; ++s) {
    if (split_counts_[s] == 0) continue;
    split_datagram_.clear();
    wire::Writer w(split_datagram_);
    w.reserve(kHeaderLen + 20 + split_packed_[s].size());
    w.bytes(data, kHeaderLen);
    w.u64(split_counts_[s]);
    w.u64(split_packed_[s].size());
    w.bytes(split_packed_[s].data(), split_packed_[s].size());
    w.flush();
    deliver(*shards_[s],
            net::Datagram(split_datagram_.data(), split_datagram_.size()));
  }
  return true;
}

void ShardedLocationServer::set_standby(NodeId standby) {
  for (auto& sh : shards_) {
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      sh->server->set_standby(standby);
    } else {
      sh->server->set_standby(standby);
    }
  }
}

void ShardedLocationServer::set_standby_role(NodeId primary) {
  for (auto& sh : shards_) {
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      sh->server->set_standby_role(primary);
    } else {
      sh->server->set_standby_role(primary);
    }
  }
}

void ShardedLocationServer::wake(Shard& sh) {
  if (sh.sleeping.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.wake_cv.notify_one();
  }
}

void ShardedLocationServer::shard_loop(Shard& sh) {
  int idle_rounds = 0;
  while (true) {
    bool did_work = false;
    // Cork the shard's transmit channel across the drain burst: replies for
    // up to kDrainBatch datagrams coalesce into sendmmsg batches, flushed by
    // the uncork below (mirrors the UdpNetwork receive-loop bracket).
    net::Sender* tx = sh.tx_raw.load(std::memory_order_acquire);
    if (tx != nullptr) tx->cork();
    for (int i = 0; i < kDrainBatch; ++i) {
      const bool popped = sh.inbox.try_pop([&](const std::uint8_t* d, std::size_t l) {
        std::lock_guard<std::mutex> lock(sh.reactor_mu);
        sh.server->handle(d, l);
      });
      if (!popped) break;
      did_work = true;
    }
    if (sh.index == 0) did_work |= drain_sighting_deltas();
    if (tx != nullptr) tx->uncork();
    if (did_work) {
      idle_rounds = 0;
      continue;
    }
    // Idle with an empty inbox: exit once stop is requested (everything
    // already delivered has been processed).
    if (stop_.load(std::memory_order_acquire)) return;
    if (++idle_rounds < kIdleSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    // Adaptive busy-poll (Options::busy_poll_us): spin on the inbox for a
    // bounded window before paying the sleep/wake path. The periodic
    // channel flush reaps transmit completions along the way -- over an
    // io_uring backend that is a CQ sweep with no syscall -- so a loaded
    // shard can run drain -> handle -> flush cycles entirely in user space.
    if (opts_.busy_poll_us > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts_.busy_poll_us);
      bool caught = false;
      std::uint32_t spin = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        sh.busy_spins.fetch_add(1, std::memory_order_relaxed);
        if (stop_.load(std::memory_order_acquire)) break;
        if (!sh.inbox.empty()) {
          caught = true;
          break;
        }
        if (tx != nullptr && (++spin & 31u) == 0) tx->flush();
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
      }
      if (caught) {
        // A sleep (and the producer's notify_one) just got skipped.
        sh.wakeups_avoided.fetch_add(1, std::memory_order_relaxed);
        idle_rounds = 0;
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) continue;  // drain + exit
    }
    sh.busy_sleeps.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(sh.wake_mu);
    sh.sleeping.store(true, std::memory_order_release);
    sh.wake_cv.wait_for(lock, kSleepSlice, [&] {
      return stop_.load(std::memory_order_acquire) || !sh.inbox.empty();
    });
    sh.sleeping.store(false, std::memory_order_release);
    idle_rounds = 0;
  }
}

bool ShardedLocationServer::drain_sighting_deltas() {
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    if (deltas_.empty()) return false;
    delta_scratch_.swap(deltas_);
  }
  {
    std::lock_guard<std::mutex> lock(shards_[0]->reactor_mu);
    for (const SightingDelta& d : delta_scratch_) {
      shards_[0]->server->apply_sighting_event(d.oid, d.present, d.pos);
    }
  }
  delta_scratch_.clear();
  return true;
}

void ShardedLocationServer::tick(TimePoint now) {
  for (auto& sh : shards_) {
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      sh->server->tick(now);
    } else {
      sh->server->tick(now);
    }
  }
  if (opts_.balance.rebalance && shards_.size() > 1) rebalance();
}

void ShardedLocationServer::request_refresh_all() {
  for (auto& sh : shards_) {
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      sh->server->request_refresh_all();
    } else {
      sh->server->request_refresh_all();
    }
  }
}

void ShardedLocationServer::announce_recovery() {
  // One hello per leaf NodeId: shard 0 speaks for the node (a root leaf's
  // announce degenerates to a local sweep, which the other shards mirror for
  // their own slices via request_refresh_all below).
  {
    auto& coord = *shards_[0];
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(coord.reactor_mu);
      coord.server->announce_recovery();
    } else {
      coord.server->announce_recovery();
    }
  }
  if (!shards_[0]->server->config().is_root()) return;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    auto& sh = *shards_[i];
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh.reactor_mu);
      sh.server->request_refresh_all();
    } else {
      sh.server->request_refresh_all();
    }
  }
}

LocationServer::Stats ShardedLocationServer::stats() const {
  LocationServer::Stats total;
  for (const auto& sh : shards_) {
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      total.add(sh->server->stats());
    } else {
      total.add(sh->server->stats());
    }
  }
  return total;
}

std::vector<ShardedLocationServer::ShardLoad> ShardedLocationServer::shard_loads()
    const {
  std::vector<ShardLoad> loads;
  loads.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardLoad load;
    load.shard = sh->index;
    load.inbox_depth = sh->inbox.size();
    const auto snapshot = [&] {
      const store::SightingDb* slice = sh->server->sightings();
      load.sightings = slice != nullptr ? slice->size() : 0;
      load.visitors = sh->server->visitors().size();
      load.msgs_handled = sh->server->stats().msgs_handled;
    };
    if (opts_.threaded) {
      std::lock_guard<std::mutex> lock(sh->reactor_mu);
      snapshot();
    } else {
      snapshot();
    }
    loads.push_back(load);
  }
  return loads;
}

void ShardedLocationServer::rebalance() {
  const std::uint32_t n = static_cast<std::uint32_t>(shards_.size());
  for (std::uint32_t moves = 0; moves < opts_.balance.max_buckets_per_sweep;
       ++moves) {
    // Decision inputs: slice occupancy only. Queue depth is too noisy to act
    // on (threaded inboxes drain in bursts) -- it is exported, not acted on.
    const std::vector<ShardLoad> loads = shard_loads();
    std::uint32_t donor = 0;
    std::uint32_t recipient = 0;
    std::size_t total = 0;
    for (const ShardLoad& load : loads) {
      total += load.sightings;
      if (load.sightings > loads[donor].sightings) donor = load.shard;
      if (load.sightings < loads[recipient].sightings) recipient = load.shard;
    }
    const std::size_t max_occ = loads[donor].sightings;
    // Hysteresis: stop when inside the trigger band, or when the absolute
    // gap is too small to matter.
    if (max_occ < loads[recipient].sightings + opts_.balance.min_imbalance) {
      return;
    }
    if (static_cast<double>(max_occ) * n <=
        opts_.balance.trigger_ratio * static_cast<double>(total)) {
      return;
    }
    // Fattest donor-owned bucket (ties: lowest bucket id, keeping the sweep
    // deterministic). Recomputed each move: after a move the donor/recipient
    // pair usually changes, so a one-shot plan would chase a stale argmax.
    std::array<std::size_t, kRebalanceBuckets> bucket_occ{};
    shards_[donor]->server->sightings()->for_each(
        [&](ObjectId oid, const store::SightingDb::Record&) {
          ++bucket_occ[bucket_of(oid)];
        });
    std::uint32_t best = kRebalanceBuckets;
    std::size_t best_occ = 0;
    for (std::uint32_t b = 0; b < kRebalanceBuckets; ++b) {
      if (bucket_to_shard_[b].load(std::memory_order_relaxed) != donor) continue;
      if (bucket_occ[b] > best_occ) {
        best = b;
        best_occ = bucket_occ[b];
      }
    }
    if (best == kRebalanceBuckets || best_occ == 0) return;  // nothing movable
    move_bucket(best, donor, recipient);
  }
}

void ShardedLocationServer::move_bucket(std::uint32_t b, std::uint32_t donor,
                                        std::uint32_t recipient) {
  Shard& from = *shards_[donor];
  Shard& to = *shards_[recipient];
  // Both reactors pause for the move (ordered by index -- the only place two
  // reactor locks nest). Inline mode needs no locks: tick() runs in the one
  // delivery context.
  std::unique_lock<std::mutex> first_lock;
  std::unique_lock<std::mutex> second_lock;
  if (opts_.threaded) {
    Shard& first = donor < recipient ? from : to;
    Shard& second = donor < recipient ? to : from;
    first_lock = std::unique_lock<std::mutex>(first.reactor_mu);
    second_lock = std::unique_lock<std::mutex>(second.reactor_mu);
  }
  migrate_scratch_.clear();
  migrate_scratch_.bucket = b;
  from.server->extract_for_migration(
      [&](ObjectId oid) { return bucket_of(oid) == b; }, migrate_scratch_);
  // Flip the table BEFORE installing: datagrams routed from here on land in
  // the recipient's inbox and are processed after the install below (its
  // reactor lock is held). Stale datagrams already queued on the donor
  // degrade to unknown-object drops/nacks -- UDP semantics.
  bucket_to_shard_[b].store(recipient, std::memory_order_release);
  if (!migrate_scratch_.empty()) {
    // Through the real codec on purpose: migration exercises the same
    // validated framing whether the shards share an address space or not.
    wire::encode_envelope_into(migrate_datagram_, self_, migrate_scratch_);
    to.server->handle(migrate_datagram_.data(), migrate_datagram_.size());
    objects_migrated_.fetch_add(migrate_scratch_.count,
                                std::memory_order_relaxed);
  }
  buckets_migrated_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace locs::core
