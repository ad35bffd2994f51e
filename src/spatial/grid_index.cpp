// Uniform grid index (ablation baseline A3): buckets over a fixed bounding
// area. Positions outside the configured bounds are clamped into border
// cells, so the index stays correct (if slower) for out-of-bounds points.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "spatial/spatial_index.hpp"

namespace locs::spatial {

namespace {

class GridIndex final : public SpatialIndex {
 public:
  GridIndex(const geo::Rect& bounds, std::size_t target_cells) : bounds_(bounds) {
    const double aspect = bounds.width() > 0 && bounds.height() > 0
                              ? bounds.width() / bounds.height()
                              : 1.0;
    const double ny = std::sqrt(static_cast<double>(target_cells) / std::max(aspect, 1e-9));
    rows_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::lround(ny)));
    cols_ = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::lround(static_cast<double>(target_cells) /
                                                 static_cast<double>(rows_))));
  }

  void insert(ObjectId id, geo::Point pos) override {
    assert(where_.find(id) == where_.end());
    const std::int64_t key = cell_key(pos);
    cells_[key].push_back({id, pos});
    where_[id] = key;
    ++size_;
  }

  bool remove(ObjectId id) override {
    auto it = where_.find(id);
    if (it == where_.end()) return false;
    auto& bucket = cells_[it->second];
    const auto entry_it = std::find_if(bucket.begin(), bucket.end(),
                                       [&](const Entry& e) { return e.id == id; });
    assert(entry_it != bucket.end());
    bucket.erase(entry_it);
    where_.erase(it);
    --size_;
    return true;
  }

  void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const override {
    const auto [c0, r0] = cell_of(rect.min);
    const auto [c1, r1] = cell_of(rect.max);
    for (std::int64_t r = r0; r <= r1; ++r) {
      for (std::int64_t c = c0; c <= c1; ++c) {
        const auto it = cells_.find(r * cols_ + c);
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (rect.contains(e.pos)) out.push_back(e);
        }
      }
    }
  }

  std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const override {
    // Expanding ring of cells around p; stop once the k-th best distance is
    // covered by the scanned radius.
    const double cell_w = bounds_.width() / static_cast<double>(cols_);
    const double cell_h = bounds_.height() / static_cast<double>(rows_);
    const double step = std::max(std::min(cell_w, cell_h), 1e-6);
    double radius = step;
    const double max_radius =
        std::max(bounds_.width(), bounds_.height()) * 2.0 + step;
    while (radius <= max_radius) {
      std::vector<Entry> found;
      query_rect(geo::Rect::from_center(p, radius, radius), found);
      if (found.size() >= k || radius >= max_radius) {
        std::sort(found.begin(), found.end(), [&](const Entry& a, const Entry& b) {
          return geo::distance2(p, a.pos) < geo::distance2(p, b.pos);
        });
        // The square of half-width `radius` is only guaranteed to contain
        // every point within distance `radius`.
        if (found.size() >= k &&
            geo::distance(p, found[std::min(found.size(), k) - 1].pos) <= radius) {
          found.resize(std::min(found.size(), k));
          return found;
        }
        if (radius >= max_radius) {
          found.resize(std::min(found.size(), k));
          return found;
        }
      }
      // The last ring is max_radius itself, which returns whatever exists
      // (fewer than k entries included).
      radius = std::min(radius * 2.0, max_radius);
    }
    return {};
  }

  std::size_t size() const override { return size_; }

  void clear() override {
    cells_.clear();
    where_.clear();
    size_ = 0;
  }

  const char* name() const override { return "grid"; }

 private:
  std::pair<std::int64_t, std::int64_t> cell_of(geo::Point p) const {
    const double fx = (p.x - bounds_.min.x) / std::max(bounds_.width(), 1e-9);
    const double fy = (p.y - bounds_.min.y) / std::max(bounds_.height(), 1e-9);
    const std::int64_t c = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(fx * static_cast<double>(cols_)), 0, cols_ - 1);
    const std::int64_t r = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(fy * static_cast<double>(rows_)), 0, rows_ - 1);
    return {c, r};
  }

  std::int64_t cell_key(geo::Point p) const {
    const auto [c, r] = cell_of(p);
    return r * cols_ + c;
  }

  geo::Rect bounds_;
  std::int64_t cols_ = 1;
  std::int64_t rows_ = 1;
  std::unordered_map<std::int64_t, std::vector<Entry>> cells_;
  std::unordered_map<ObjectId, std::int64_t> where_;
  std::size_t size_ = 0;
};

class LinearIndex final : public SpatialIndex {
 public:
  void insert(ObjectId id, geo::Point pos) override {
    assert(where_.find(id) == where_.end());
    where_[id] = entries_.size();
    entries_.push_back({id, pos});
  }

  bool remove(ObjectId id) override {
    auto it = where_.find(id);
    if (it == where_.end()) return false;
    const std::size_t idx = it->second;
    where_.erase(it);
    if (idx + 1 != entries_.size()) {
      entries_[idx] = entries_.back();
      where_[entries_[idx].id] = idx;
    }
    entries_.pop_back();
    return true;
  }

  void update(ObjectId id, geo::Point pos) override {
    const auto it = where_.find(id);
    assert(it != where_.end());
    entries_[it->second].pos = pos;
  }

  void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const override {
    for (const Entry& e : entries_) {
      if (rect.contains(e.pos)) out.push_back(e);
    }
  }

  std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const override {
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(), [&](const Entry& a, const Entry& b) {
      return geo::distance2(p, a.pos) < geo::distance2(p, b.pos);
    });
    sorted.resize(std::min(sorted.size(), k));
    return sorted;
  }

  std::size_t size() const override { return entries_.size(); }

  void clear() override {
    entries_.clear();
    where_.clear();
  }

  const char* name() const override { return "linear"; }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<ObjectId, std::size_t> where_;
};

}  // namespace

std::unique_ptr<SpatialIndex> make_grid_index(const geo::Rect& bounds,
                                              std::size_t target_cells) {
  return std::make_unique<GridIndex>(bounds, target_cells);
}

std::unique_ptr<SpatialIndex> make_linear_index() {
  return std::make_unique<LinearIndex>();
}

}  // namespace locs::spatial
