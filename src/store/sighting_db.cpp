#include "store/sighting_db.hpp"

#include <algorithm>
#include <cassert>

namespace locs::store {

SightingDb::SightingDb(spatial::IndexFactory index_factory)
    : index_factory_(std::move(index_factory)), index_(index_factory_()) {}

void SightingDb::insert(const core::Sighting& s, double offered_acc,
                        TimePoint expiry) {
  MaybeGuard guard(slice_mu_);
  const auto [rec, inserted] = records_.try_emplace(s.oid);
  assert(inserted);
  (void)inserted;
  rec->sighting = s;
  rec->offered_acc = offered_acc;
  rec->expiry = expiry;
  rec->generation = next_generation_++;
  index_->insert(s.oid, s.pos);
  acc_add(offered_acc);
  push_expiry(s.oid, *rec);
}

bool SightingDb::update(const core::Sighting& s, TimePoint expiry) {
  MaybeGuard guard(slice_mu_);
  Record* rec = records_.find(s.oid);
  if (rec == nullptr) return false;
  rec->sighting = s;
  rec->expiry = expiry;
  rec->generation = next_generation_++;
  index_->update(s.oid, s.pos);
  push_expiry(s.oid, *rec);
  return true;
}

void SightingDb::apply_batch(const std::vector<BulkUpdate>& items,
                             TimePoint expiry) {
  MaybeGuard guard(slice_mu_);
  for (const BulkUpdate& item : items) {
    const auto [rec, inserted] = records_.try_emplace(item.s.oid);
    if (inserted) {
      acc_add(item.offered_acc);
    } else if (rec->offered_acc != item.offered_acc) {
      acc_sub(rec->offered_acc);
      acc_add(item.offered_acc);
    }
    rec->sighting = item.s;
    rec->offered_acc = item.offered_acc;
    rec->expiry = expiry;
    rec->generation = next_generation_++;
    if (inserted) {
      index_->insert(item.s.oid, item.s.pos);
    } else {
      index_->update(item.s.oid, item.s.pos);
    }
    push_expiry(item.s.oid, *rec);
  }
}

void SightingDb::acc_add(double acc) { ++acc_hist_[acc]; }

void SightingDb::acc_sub(double acc) {
  const auto it = acc_hist_.find(acc);
  assert(it != acc_hist_.end() && it->second > 0);
  if (--it->second == 0) acc_hist_.erase(it);
}

void SightingDb::push_expiry(ObjectId oid, const Record& rec) {
  expiry_heap_.push_back({rec.expiry, oid, rec.generation});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
  bound_expiry_heap();
}

void SightingDb::bound_expiry_heap() {
  if (expiry_heap_.size() <= 2 * records_.size() + 64) return;
  // Amortized O(1): at least size() + 64 pushes or size() / 2 + 32 removals
  // separate two rebuilds.
  expiry_heap_.clear();
  records_.for_each([this](ObjectId oid, const Record& rec) {
    expiry_heap_.push_back({rec.expiry, oid, rec.generation});
  });
  std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
}

bool SightingDb::remove(ObjectId oid) {
  MaybeGuard guard(slice_mu_);
  const Record* rec = records_.find(oid);
  if (rec == nullptr) return false;
  acc_sub(rec->offered_acc);
  records_.erase(oid);
  index_->remove(oid);
  // Heap entries for this object become stale and are skipped lazily.
  bound_expiry_heap();
  return true;
}

const SightingDb::Record* SightingDb::find(ObjectId oid) const {
  return records_.find(oid);
}

void SightingDb::set_offered_acc(ObjectId oid, double offered_acc) {
  MaybeGuard guard(slice_mu_);
  Record* rec = records_.find(oid);
  if (rec == nullptr || rec->offered_acc == offered_acc) return;
  acc_sub(rec->offered_acc);
  acc_add(offered_acc);
  rec->offered_acc = offered_acc;
}

std::vector<ObjectId> SightingDb::expire_until(TimePoint now) {
  MaybeGuard guard(slice_mu_);
  std::vector<ObjectId> expired;
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now) {
    const HeapEntry entry = expiry_heap_.front();
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    expiry_heap_.pop_back();
    const Record* rec = records_.find(entry.oid);
    if (rec == nullptr || rec->generation != entry.generation) {
      continue;  // stale heap entry (updated or removed since)
    }
    acc_sub(rec->offered_acc);
    index_->remove(entry.oid);
    records_.erase(entry.oid);
    expired.push_back(entry.oid);
  }
  bound_expiry_heap();
  return expired;
}

void SightingDb::objects_in_area(const geo::Polygon& area, double req_acc,
                                 double req_overlap,
                                 std::vector<core::ObjectResult>& out) const {
  objects_in_area_emit(area, req_acc, req_overlap,
                       [&](const core::ObjectResult& r) { out.push_back(r); });
}

void SightingDb::objects_in_circle(const geo::Circle& circle, double req_acc,
                                   std::vector<core::ObjectResult>& out) const {
  objects_in_circle_emit(circle, req_acc,
                         [&](const core::ObjectResult& r) { out.push_back(r); });
}

std::vector<core::ObjectResult> SightingDb::k_nearest(geo::Point p, std::size_t k,
                                                      double req_acc) const {
  std::vector<core::ObjectResult> result;
  // Nothing qualifies: skip the widening walks over the whole index.
  if (k == 0 || !any_within(req_acc)) return result;
  // Over-fetch to compensate for accuracy filtering, then widen if needed
  // (with a single stored accuracy every entry qualifies: one walk).
  std::size_t fetch = k;
  while (true) {
    const auto entries = index_->k_nearest(p, fetch);
    result.clear();
    for (const spatial::Entry& e : entries) {
      double acc = 0.0;
      if (!candidate_acc(e.id, req_acc, acc)) continue;
      result.push_back({e.id, {e.pos, acc}});
      if (result.size() == k) return result;
    }
    if (entries.size() < fetch) return result;  // exhausted the database
    fetch *= 2;
  }
}

void SightingDb::clear() {
  MaybeGuard guard(slice_mu_);
  records_.clear();
  expiry_heap_.clear();
  acc_hist_.clear();
  index_ = index_factory_();
}

}  // namespace locs::store
