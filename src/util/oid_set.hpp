// Open-addressing ObjectId tables: OidSet, OidMap and the reference-stable
// StableOidMap built on OidMap. All three hash with locs::hash_oid.
//
// The query merge's dedup-on-emit needs a membership test per merged result,
// twice per merge (size pass + copy pass). A node-based std::unordered_set
// heap-allocates one node per insert -- two allocations per merged result,
// which alone would dominate the zero-materialization merge path. OidSet is
// a flat linear-probing table: clear() keeps the slot array, insert()
// allocates only when the table grows, so a scratch instance reaches its
// working size once and then dedups merge after merge allocation-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace locs::util {

class OidSet {
 public:
  /// Inserts `id`; returns true if it was not present before.
  bool insert(ObjectId id) {
    if (id.value == kEmptySlot) {
      // The sentinel value cannot live in the table; track it out of band.
      const bool added = !has_sentinel_;
      has_sentinel_ = true;
      return added;
    }
    // Grow at ~70% load (and on first use).
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    std::size_t i = slot_of(id.value);
    while (slots_[i] != kEmptySlot) {
      if (slots_[i] == id.value) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = id.value;
    ++size_;
    return true;
  }

  bool contains(ObjectId id) const {
    if (id.value == kEmptySlot) return has_sentinel_;
    if (slots_.empty()) return false;
    std::size_t i = slot_of(id.value);
    while (slots_[i] != kEmptySlot) {
      if (slots_[i] == id.value) return true;
      i = (i + 1) & (slots_.size() - 1);
    }
    return false;
  }

  /// Empties the set, KEEPING the slot array (the reuse contract).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    size_ = 0;
    has_sentinel_ = false;
  }

  std::size_t size() const { return size_ + (has_sentinel_ ? 1 : 0); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint64_t kEmptySlot = 0;  // ObjectId{0}: see insert

  std::size_t slot_of(std::uint64_t v) const {
    return static_cast<std::size_t>(hash_oid(ObjectId{v})) & (slots_.size() - 1);
  }

  void grow() {
    const std::size_t next_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(next_cap, kEmptySlot);
    size_ = 0;
    for (const std::uint64_t v : old) {
      if (v == kEmptySlot) continue;
      std::size_t i = slot_of(v);
      while (slots_[i] != kEmptySlot) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = v;
      ++size_;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_sentinel_ = false;
};

/// Companion flat map (ObjectId -> V) with the same reuse contract: clear()
/// keeps the slot array, inserts allocate only on growth. The NN merge
/// uses this for its candidate state -- a node-based std::unordered_map
/// pays one heap node per candidate streamed off a probe sub-result.
/// Iteration (for_each) runs in slot order; callers needing a canonical
/// order must impose a total order themselves (the NN paths do: winner and
/// nearObjSet are selected by (distance, id)).
///
/// Values live inline in the slots, so a pointer from find() or
/// try_emplace() is valid only until the next insert or erase. erase() uses
/// backward-shift deletion: the rest of the probe run moves up into the
/// hole, so the table never holds tombstones.
template <typename V>
class OidMap {
 public:
  /// Returns (value, inserted); a newly inserted value is V{}.
  std::pair<V*, bool> try_emplace(ObjectId id) {
    if (id.value == kEmptySlot) {
      const bool added = !has_sentinel_;
      if (added) sentinel_value_ = V{};
      has_sentinel_ = true;
      return {&sentinel_value_, added};
    }
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    const std::size_t i = probe(id.value);
    if (slots_[i].key == id.value) return {&slots_[i].value, false};
    slots_[i].key = id.value;
    slots_[i].value = V{};
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](ObjectId id) { return *try_emplace(id).first; }

  V* find(ObjectId id) {
    if (id.value == kEmptySlot) return has_sentinel_ ? &sentinel_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    const std::size_t i = probe(id.value);
    return slots_[i].key == id.value ? &slots_[i].value : nullptr;
  }
  const V* find(ObjectId id) const { return const_cast<OidMap*>(this)->find(id); }

  /// Removes `id`; returns true if it was present.
  bool erase(ObjectId id) {
    if (id.value == kEmptySlot) {
      const bool had = has_sentinel_;
      has_sentinel_ = false;
      sentinel_value_ = V{};
      return had;
    }
    if (slots_.empty()) return false;
    std::size_t hole = probe(id.value);
    if (slots_[hole].key != id.value) return false;
    // A later member of the run may fill the hole iff the hole lies on its
    // probe path, i.e. between its home slot and where it sits now.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmptySlot;
         j = (j + 1) & mask) {
      const std::size_t home = slot_of(slots_[j].key);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmptySlot;
    --size_;
    return true;
  }

  void clear() {
    for (auto& slot : slots_) slot.key = kEmptySlot;
    size_ = 0;
    has_sentinel_ = false;
  }

  bool empty() const { return size_ == 0 && !has_sentinel_; }
  std::size_t size() const { return size_ + (has_sentinel_ ? 1 : 0); }

  /// Invokes fn(ObjectId, const V&) per entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_sentinel_) fn(ObjectId{kEmptySlot}, sentinel_value_);
    for (const auto& slot : slots_) {
      if (slot.key != kEmptySlot) fn(ObjectId{slot.key}, slot.value);
    }
  }

 private:
  static constexpr std::uint64_t kEmptySlot = 0;

  struct Slot {
    std::uint64_t key = kEmptySlot;
    V value{};
  };

  std::size_t slot_of(std::uint64_t v) const {
    return static_cast<std::size_t>(hash_oid(ObjectId{v})) & (slots_.size() - 1);
  }

  /// The slot holding `key`, else the empty slot that ends its probe run.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i = slot_of(key);
    while (slots_[i].key != kEmptySlot && slots_[i].key != key) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }

  void grow() {
    const std::size_t next_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(next_cap, Slot{});
    for (Slot& slot : old) {
      if (slot.key != kEmptySlot) slots_[probe(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  bool has_sentinel_ = false;
  V sentinel_value_{};
};

/// ObjectId -> V with std::unordered_map's reference contract: a value's
/// address stays valid until that element is erased -- across growth and
/// across other erases. An OidMap<std::uint32_t> maps each id to a slot of
/// a chunked value store (std::deque never relocates its elements on
/// push_back); erased slots are reset and reused through a free list. The
/// leaf's sightingDB and visitorDB records live here, and core/ holds
/// record pointers across unrelated mutations. Iteration runs in index slot
/// order, like OidMap's.
template <typename V>
class StableOidMap {
 public:
  /// Returns (value, inserted); a newly inserted value is V{}.
  std::pair<V*, bool> try_emplace(ObjectId id) {
    const auto [slot, inserted] = index_.try_emplace(id);
    if (!inserted) return {&values_[*slot], false};
    if (free_.empty()) {
      *slot = static_cast<std::uint32_t>(values_.size());
      values_.emplace_back();
    } else {
      *slot = free_.back();
      free_.pop_back();
    }
    return {&values_[*slot], true};
  }

  V& operator[](ObjectId id) { return *try_emplace(id).first; }

  V* find(ObjectId id) {
    const std::uint32_t* slot = index_.find(id);
    return slot == nullptr ? nullptr : &values_[*slot];
  }
  const V* find(ObjectId id) const {
    return const_cast<StableOidMap*>(this)->find(id);
  }

  /// Removes `id`; returns true if it was present.
  bool erase(ObjectId id) {
    const std::uint32_t* found = index_.find(id);
    if (found == nullptr) return false;
    const std::uint32_t slot = *found;
    index_.erase(id);
    values_[slot] = V{};  // release what the value owns before reuse
    free_.push_back(slot);
    return true;
  }

  void clear() {
    index_.clear();
    values_.clear();
    free_.clear();
  }

  std::size_t size() const { return index_.size(); }

  /// Invokes fn(ObjectId, const V&) per entry, in index slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    index_.for_each([&](ObjectId id, std::uint32_t slot) { fn(id, values_[slot]); });
  }

 private:
  OidMap<std::uint32_t> index_;
  std::deque<V> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace locs::util
