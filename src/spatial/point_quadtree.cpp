// Point Quadtree (Samet [17]) -- the spatial index used by the paper's
// prototype (§7.1). Every node stores one data point which splits its region
// into four quadrants.
//
// Deletion in point quadtrees is notoriously awkward (Samet §2.3.1); like
// many production systems we use tombstones plus amortized rebuilding, which
// keeps removal O(1) and preserves query complexity.
#include <algorithm>
#include <cassert>
#include <memory>
#include <queue>
#include <vector>

#include "spatial/spatial_index.hpp"
#include "util/oid_set.hpp"
#include "util/rng.hpp"

namespace locs::spatial {

namespace {

class PointQuadtree final : public SpatialIndex {
 public:
  void insert(ObjectId id, geo::Point pos) override {
    const auto [node, inserted] = by_id_.try_emplace(id);
    assert(inserted);
    (void)inserted;
    *node = insert_node(id, pos);
    ++alive_;
  }

  bool remove(ObjectId id) override {
    const std::uint32_t* node = by_id_.find(id);
    if (node == nullptr) return false;
    nodes_[*node].alive = false;
    by_id_.erase(id);
    --alive_;
    ++dead_;
    maybe_rebuild();
    return true;
  }

  /// Position update without a remove+insert round trip through by_id_.
  /// One root walk finds where `pos` would insert; if that terminates at the
  /// object's own (childless) node, the point moves in place -- every
  /// ancestor's quadrant relation still holds. Otherwise the old node is
  /// tombstoned and a new node attaches at the walk's end, reusing the
  /// existing by_id_ slot. Steady-state updates allocate nothing: a rebuild
  /// clears the node array but keeps its capacity.
  void update(ObjectId id, geo::Point pos) override {
    std::uint32_t* node = by_id_.find(id);
    if (node == nullptr) {
      insert(id, pos);
      return;
    }
    std::uint32_t cur = kRoot;
    for (;;) {
      const int q = quadrant_of(nodes_[cur].pos, pos);
      const std::uint32_t next = nodes_[cur].child[q];
      if (next == kNone) {
        if (cur == *node && is_leaf(nodes_[cur])) {
          nodes_[cur].pos = pos;
          return;
        }
        nodes_[*node].alive = false;
        ++dead_;
        *node = attach(cur, q, id, pos);
        maybe_rebuild();
        return;
      }
      cur = next;
    }
  }

  void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const override {
    if (!nodes_.empty()) query_rect_rec(kRoot, rect, out);
  }

  std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const override {
    // Best-first search over (node, enclosing-region) pairs.
    struct Item {
      double dist2;
      bool is_point;  // true: a candidate data point; false: a subtree
      std::uint32_t node;
      geo::Rect region;
    };
    const auto cmp = [](const Item& a, const Item& b) { return a.dist2 > b.dist2; };
    std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);

    constexpr double inf = 1e300;
    const geo::Rect whole{{-inf, -inf}, {inf, inf}};
    if (!nodes_.empty()) heap.push({0.0, false, kRoot, whole});

    std::vector<Entry> result;
    while (!heap.empty() && result.size() < k) {
      const Item item = heap.top();
      heap.pop();
      const Node& n = nodes_[item.node];
      if (item.is_point) {
        result.push_back({n.id, n.pos});
        continue;
      }
      if (n.alive) {
        heap.push({geo::distance2(p, n.pos), true, item.node, item.region});
      }
      for (int q = 0; q < 4; ++q) {
        if (n.child[q] == kNone) continue;
        const geo::Rect sub = quadrant_region(item.region, n.pos, q);
        heap.push({sub.distance2_to(p), false, n.child[q], sub});
      }
    }
    return result;
  }

  std::size_t size() const override { return alive_; }

  void clear() override {
    nodes_.clear();
    by_id_.clear();
    alive_ = 0;
    dead_ = 0;
  }

  const char* name() const override { return "point_quadtree"; }

 private:
  // Nodes live in one array and name their children by index. The root is
  // nodes_[0] and is never anyone's child, so 0 doubles as "no child".
  static constexpr std::uint32_t kRoot = 0;
  static constexpr std::uint32_t kNone = 0;

  // pos and child lead: they are all a descent reads.
  struct Node {
    geo::Point pos;
    std::uint32_t child[4] = {kNone, kNone, kNone, kNone};
    ObjectId id;
    bool alive = true;
  };

  // Quadrants: 0 = SW, 1 = SE, 2 = NW, 3 = NE relative to the node's point.
  static int quadrant_of(geo::Point split, geo::Point p) {
    const int east = p.x >= split.x ? 1 : 0;
    const int north = p.y >= split.y ? 2 : 0;
    return east + north;
  }

  static geo::Rect quadrant_region(const geo::Rect& region, geo::Point split, int q) {
    geo::Rect r = region;
    if (q & 1) {
      r.min.x = std::max(r.min.x, split.x);
    } else {
      r.max.x = std::min(r.max.x, split.x);
    }
    if (q & 2) {
      r.min.y = std::max(r.min.y, split.y);
    } else {
      r.max.y = std::min(r.max.y, split.y);
    }
    return r;
  }

  static bool is_leaf(const Node& n) {
    return n.child[0] == kNone && n.child[1] == kNone && n.child[2] == kNone &&
           n.child[3] == kNone;
  }

  /// Appends a node as child `q` of `parent`; returns its index.
  std::uint32_t attach(std::uint32_t parent, int q, ObjectId id, geo::Point pos) {
    const auto index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{.pos = pos, .id = id});
    nodes_[parent].child[q] = index;
    return index;
  }

  std::uint32_t insert_node(ObjectId id, geo::Point pos) {
    if (nodes_.empty()) {
      nodes_.push_back(Node{.pos = pos, .id = id});
      return kRoot;
    }
    std::uint32_t cur = kRoot;
    for (;;) {
      const int q = quadrant_of(nodes_[cur].pos, pos);
      const std::uint32_t next = nodes_[cur].child[q];
      if (next == kNone) return attach(cur, q, id, pos);
      cur = next;
    }
  }

  void query_rect_rec(std::uint32_t index, const geo::Rect& rect,
                      std::vector<Entry>& out) const {
    const Node& n = nodes_[index];
    if (n.alive && rect.contains(n.pos)) out.push_back({n.id, n.pos});
    // Prune quadrants that cannot intersect the query rectangle.
    const bool west = rect.min.x < n.pos.x;
    const bool east = rect.max.x >= n.pos.x;
    const bool south = rect.min.y < n.pos.y;
    const bool north = rect.max.y >= n.pos.y;
    if (west && south && n.child[0] != kNone) query_rect_rec(n.child[0], rect, out);
    if (east && south && n.child[1] != kNone) query_rect_rec(n.child[1], rect, out);
    if (west && north && n.child[2] != kNone) query_rect_rec(n.child[2], rect, out);
    if (east && north && n.child[3] != kNone) query_rect_rec(n.child[3], rect, out);
  }

  void maybe_rebuild() {
    if (dead_ < 64 || dead_ < alive_) return;
    std::vector<Entry> entries;
    entries.reserve(alive_);
    collect(kRoot, entries);
    // Shuffle before reinsertion: point quadtree balance depends on
    // insertion order; a deterministic shuffle restores expected O(log n).
    Rng rng(0x9d7f3c2b1ULL + entries.size());
    std::shuffle(entries.begin(), entries.end(), rng);
    // clear() keeps the node array's capacity: reinsertion and the updates
    // until the next rebuild reuse it without allocating.
    nodes_.clear();
    by_id_.clear();
    dead_ = 0;
    alive_ = 0;
    for (const Entry& e : entries) {
      insert(e.id, e.pos);
    }
  }

  void collect(std::uint32_t index, std::vector<Entry>& out) const {
    const Node& n = nodes_[index];
    if (n.alive) out.push_back({n.id, n.pos});
    for (const std::uint32_t c : n.child) {
      if (c != kNone) collect(c, out);
    }
  }

  std::vector<Node> nodes_;
  util::OidMap<std::uint32_t> by_id_;  // ObjectId -> live node's index
  std::size_t alive_ = 0;
  std::size_t dead_ = 0;
};

}  // namespace

std::unique_ptr<SpatialIndex> make_point_quadtree() {
  return std::make_unique<PointQuadtree>();
}

}  // namespace locs::spatial
