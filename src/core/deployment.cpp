#include "core/deployment.hpp"

namespace locs::core {

Deployment::Deployment(net::Transport& net, Clock& clock, HierarchySpec spec)
    : Deployment(net, clock, std::move(spec), Config{}) {}

Deployment::Deployment(net::Transport& net, Clock& clock, HierarchySpec spec,
                       Config cfg)
    : net_(net), spec_(std::move(spec)), clock_(clock), cfg_(std::move(cfg)) {
  for (const HierarchySpec::Node& node : spec_.nodes) {
    Entry entry;
    make_entry(node, entry);
    servers_.emplace(node.id, std::move(entry));
  }
  // Hot standbys are EXTRA servers outside the spec: each replica reuses its
  // primary's ConfigRecord (same service area and parent, so a promoted
  // standby answers exactly the primary's slice of the query space) under
  // its own NodeId.
  for (const auto& [primary, standby] : cfg_.leaf_standby) {
    const HierarchySpec::Node* node = spec_.find(primary);
    if (node == nullptr || !node->cfg.is_leaf()) continue;
    if (servers_.count(standby) > 0) continue;  // id collision: skip
    HierarchySpec::Node replica = *node;
    replica.id = standby;
    Entry entry;
    make_entry(replica, entry);
    servers_.emplace(standby, std::move(entry));
    wire_standby(primary, standby);
  }
}

void Deployment::wire_standby(NodeId primary, NodeId standby) {
  const auto pit = servers_.find(primary);
  const auto sit = servers_.find(standby);
  if (pit == servers_.end() || sit == servers_.end()) return;
  if (sit->second.up()) {
    if (sit->second.sharded != nullptr) {
      sit->second.sharded->set_standby_role(primary);
    } else {
      sit->second.server->set_standby_role(primary);
    }
  }
  if (pit->second.up()) {
    if (pit->second.sharded != nullptr) {
      pit->second.sharded->set_standby(standby);
    } else {
      pit->second.server->set_standby(standby);
    }
  }
  const HierarchySpec::Node* node = spec_.find(primary);
  if (node == nullptr || !node->cfg.parent.valid()) return;
  const auto parent_it = servers_.find(node->cfg.parent);
  if (parent_it == servers_.end() || parent_it->second.server == nullptr) return;
  parent_it->second.server->set_child_standby(primary, standby);
}

void Deployment::make_entry(const HierarchySpec::Node& node, Entry& entry) {
  LocationServer::Options opts = cfg_.server;
  if (cfg_.options_fn) opts = cfg_.options_fn(node.id, node.cfg, opts);

  const std::uint32_t shards =
      node.cfg.is_leaf() ? std::max(cfg_.leaf_shards, node.leaf_shards) : 1;
  if (shards > 1 || (cfg_.force_leaf_sharding && node.cfg.is_leaf())) {
    ShardedLocationServer::Options sopts;
    sopts.shards = shards;
    sopts.threaded = cfg_.shard_threads;
    sopts.busy_poll_us = cfg_.shard_busy_poll_us;
    sopts.server = opts;
    sopts.balance = cfg_.leaf_balance;
    ShardedLocationServer::ShardVisitorDbFactory vdb_factory;
    if (cfg_.visitor_db_factory) {
      vdb_factory = [factory = cfg_.visitor_db_factory,
                     id = node.id](std::uint32_t shard) {
        return factory(id, shard);
      };
    }
    entry.sharded = std::make_unique<ShardedLocationServer>(
        node.id, node.cfg, net_, clock_, sopts, std::move(vdb_factory),
        cfg_.index_factory);
    ShardedLocationServer* server = entry.sharded.get();
    // Threaded shards serialize internally; inline shards piggyback on the
    // same handler lock unsharded servers use over UdpNetwork.
    if (cfg_.lock_handlers && !cfg_.shard_threads && entry.mu == nullptr) {
      entry.mu = std::make_unique<std::mutex>();
    }
    std::mutex* mu = cfg_.shard_threads ? nullptr : entry.mu.get();
    net_.attach(node.id, net::DatagramHandler([server, mu](const net::Datagram& dg) {
      if (mu != nullptr) {
        std::lock_guard<std::mutex> lock(*mu);
        server->handle(dg);
      } else {
        server->handle(dg);
      }
    }));
    // After attach, so each shard channel can join the node's SO_REUSEPORT
    // group (no-op for inline shards and channel-less transports).
    server->open_tx_senders();
  } else {
    store::VisitorDb vdb;
    if (cfg_.visitor_db_factory) vdb = cfg_.visitor_db_factory(node.id, 0);
    entry.server = std::make_unique<LocationServer>(
        node.id, node.cfg, net_, clock_, opts, std::move(vdb), cfg_.index_factory);
    if (cfg_.lock_handlers && entry.mu == nullptr) {
      entry.mu = std::make_unique<std::mutex>();
    }
    LocationServer* server = entry.server.get();
    std::mutex* mu = entry.mu.get();
    net_.attach(node.id, net::DatagramHandler([server, mu](const net::Datagram& dg) {
      if (mu != nullptr) {
        std::lock_guard<std::mutex> lock(*mu);
        server->handle(dg);
      } else {
        server->handle(dg);
      }
    }));
  }
}

Deployment::~Deployment() {
  for (const auto& [id, entry] : servers_) net_.detach(id);
}

void Deployment::crash(NodeId id) {
  Entry& entry = servers_.at(id);
  if (!entry.up()) return;
  // Teardown protocol: detach first so the transport never delivers into a
  // dying reactor (UdpNetwork blocks on an in-flight callback), then drop
  // all volatile state. The persistent visitorDB log -- if any -- stays on
  // disk for the restart to replay.
  net_.detach(id);
  if (entry.mu != nullptr) {
    // Over UDP a driver thread may sit inside find_sighting; serialize.
    std::lock_guard<std::mutex> lock(*entry.mu);
    entry.server.reset();
    entry.sharded.reset();
  } else {
    entry.server.reset();
    entry.sharded.reset();
  }
}

void Deployment::restart(NodeId id, bool announce) {
  Entry& entry = servers_.at(id);
  if (entry.up()) return;
  const HierarchySpec::Node* node = spec_.find(id);
  if (node == nullptr) return;
  make_entry(*node, entry);
  // Rebuilt reactors lost their replication wiring; re-apply every pair the
  // restarted node participates in (as primary, as the parent of one, or --
  // for completeness -- as a standby brought back by hand).
  for (const auto& [primary, standby] : cfg_.leaf_standby) {
    const HierarchySpec::Node* pnode = spec_.find(primary);
    if (id == primary || id == standby ||
        (pnode != nullptr && pnode->cfg.parent == id)) {
      wire_standby(primary, standby);
    }
  }
  if (!announce || !node->cfg.is_leaf()) return;
  if (entry.sharded != nullptr) {
    entry.sharded->announce_recovery();
  } else {
    entry.server->announce_recovery();
  }
}

bool Deployment::is_down(NodeId id) const {
  return !servers_.at(id).up();
}

bool Deployment::find_sighting(NodeId id, ObjectId oid,
                               store::SightingDb::Record& out) const {
  const Entry& entry = servers_.at(id);
  if (entry.sharded != nullptr) return entry.sharded->find_sighting(oid, out);
  // Unsharded over UDP: the receive thread mutates the db under entry.mu,
  // so this cross-thread read must serialize against it too.
  std::unique_lock<std::mutex> lock;
  if (entry.mu != nullptr) lock = std::unique_lock<std::mutex>(*entry.mu);
  if (entry.server == nullptr) return false;  // crashed
  const store::SightingDb* db = entry.server->sightings();
  if (db == nullptr) return false;
  const store::SightingDb::Record* rec = db->find(oid);
  if (rec == nullptr) return false;
  out = *rec;
  return true;
}

void Deployment::tick_all(TimePoint now) {
  for (auto& [id, entry] : servers_) {
    if (entry.sharded != nullptr) {
      if (entry.mu != nullptr) {
        std::lock_guard<std::mutex> lock(*entry.mu);
        entry.sharded->tick(now);
      } else {
        entry.sharded->tick(now);  // threaded shards lock internally
      }
      continue;
    }
    if (entry.server == nullptr) continue;  // crashed node: nothing to sweep
    if (entry.mu != nullptr) {
      std::lock_guard<std::mutex> lock(*entry.mu);
      entry.server->tick(now);
    } else {
      entry.server->tick(now);
    }
  }
}

LocationServer::Stats Deployment::total_stats() const {
  LocationServer::Stats total;
  for (const auto& [id, entry] : servers_) {
    if (entry.sharded != nullptr) {
      total.add(entry.sharded->stats());
    } else if (entry.server != nullptr) {
      total.add(entry.server->stats());
    }
  }
  return total;
}

}  // namespace locs::core
