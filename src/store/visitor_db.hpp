// Visitor database (§5): one record per tracked object currently visiting a
// server's service area.
//
//  * On a non-leaf server a record holds the forwarding reference to the
//    child next on the path to the object's agent.
//  * On a leaf server it holds the offered accuracy and the registration
//    information (registering instance + requested accuracy range).
//
// Kept on persistent storage (here: a CRC-framed write-ahead log), "updated
// only when an object is registered, deregisters or a handover occurs", so
// forwarding paths survive crashes while the volatile sightingDB does not.
#pragma once

#include <optional>
#include <span>

#include "core/types.hpp"
#include "store/persistent_log.hpp"
#include "util/ids.hpp"
#include "util/oid_set.hpp"

namespace locs::store {

struct LeafVisitorInfo {
  double offered_acc = 0.0;
  core::RegInfo reg_info;
};

struct VisitorRecord {
  ObjectId oid;
  // Non-leaf servers: child next on the path to the agent (v.forwardRef).
  NodeId forward_ref;
  // Leaf servers only (v.offeredAcc, v.regInfo).
  std::optional<LeafVisitorInfo> leaf;
};

class VisitorDb {
 public:
  /// In-memory only (tests, simulations that do not exercise recovery).
  VisitorDb() = default;

  /// Persistent: replays the log at `path` into memory, then appends every
  /// mutation to it.
  static Result<VisitorDb> open(const std::string& path, bool fsync_each = false);

  /// Non-leaf path entry (Alg 6-1 createPath / Alg 6-3 forwarding repair).
  void set_forward(ObjectId oid, NodeId child);

  /// Leaf visitor entry (registration / handover-in).
  void insert_leaf(ObjectId oid, double offered_acc, const core::RegInfo& reg_info);

  void set_offered_acc(ObjectId oid, double offered_acc);

  bool remove(ObjectId oid);

  /// Bulk-apply counterpart of remove() for batch paths (soft-state expiry
  /// sweeps, batched deregistration): erases every present oid in one pass
  /// and appends all their log records as one frame write -- one syscall
  /// (and one fsync under fsync_each) per batch instead of per object, via
  /// PersistentLog::append_batch. Returns the number of records removed.
  std::size_t remove_batch(std::span<const ObjectId> oids);

  const VisitorRecord* find(ObjectId oid) const;
  bool contains(ObjectId oid) const { return records_.find(oid) != nullptr; }
  std::size_t size() const { return records_.size(); }

  /// Rewrites the log to exactly the current records (bounded recovery time).
  Status compact();

  /// Compacts when the log has grown past `appended_threshold` mutation
  /// records (called opportunistically from the server's tick()).
  Status maybe_compact(std::uint64_t appended_threshold) {
    if (!log_ || log_->appended() < appended_threshold) return Status::ok();
    return compact();
  }

  /// Mutations appended to the persistent log since open (0 if in-memory).
  std::uint64_t log_appended() const { return log_ ? log_->appended() : 0; }

  /// Iteration (recovery: ask visitors for refresh; tests).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    records_.for_each([&](ObjectId, const VisitorRecord& rec) { fn(rec); });
  }

 private:
  void log_set_forward(ObjectId oid, NodeId child);
  void log_insert_leaf(ObjectId oid, double acc, const core::RegInfo& reg);
  void log_set_acc(ObjectId oid, double acc);
  void log_remove(ObjectId oid);
  void apply_record(const std::uint8_t* data, std::size_t len);

  // Reference-stable: core/ keeps VisitorRecord pointers across other
  // mutations.
  util::StableOidMap<VisitorRecord> records_;
  std::optional<PersistentLog> log_;
};

}  // namespace locs::store
