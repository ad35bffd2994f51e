#include "geo/circle.hpp"

#include <algorithm>
#include <cmath>

namespace locs::geo {

namespace {

/// Signed area of the circular sector (centered at the origin, radius r)
/// swept from direction a to direction b (shorter way, signed by
/// orientation).
double sector_area(Point a, Point b, double r) {
  const double ang = std::atan2(cross(a, b), dot(a, b));
  return 0.5 * r * r * ang;
}

/// Signed area of disk(0, r) ∩ triangle(0, p, q). Summed over the directed
/// edges of a CCW polygon (with vertices translated so the circle center is
/// the origin) this yields the polygon-disk intersection area.
double edge_contribution(Point p, Point q, double r) {
  const double r2 = r * r;
  const bool p_in = norm2(p) <= r2;
  const bool q_in = norm2(q) <= r2;
  if (p_in && q_in) return cross(p, q) / 2.0;

  // Solve |p + t (q - p)|^2 = r^2 for t.
  const Point d = q - p;
  const double A = dot(d, d);
  if (A <= 0.0) return 0.0;  // degenerate zero-length edge
  const double B = 2.0 * dot(p, d);
  const double C = dot(p, p) - r2;
  const double disc = B * B - 4.0 * A * C;
  if (disc <= 0.0) {
    // Chord line misses the circle entirely: pure sector.
    return sector_area(p, q, r);
  }
  const double sq = std::sqrt(disc);
  const double t1 = (-B - sq) / (2.0 * A);
  const double t2 = (-B + sq) / (2.0 * A);

  if (p_in) {  // exits the disk at t2
    const Point s = p + d * t2;
    return cross(p, s) / 2.0 + sector_area(s, q, r);
  }
  if (q_in) {  // enters the disk at t1
    const Point s = p + d * t1;
    return sector_area(p, s, r) + cross(s, q) / 2.0;
  }
  // Both endpoints outside; the segment may still cut through the disk.
  if (t1 > 0.0 && t2 < 1.0 && t1 < t2) {
    const Point s1 = p + d * t1;
    const Point s2 = p + d * t2;
    return sector_area(p, s1, r) + cross(s1, s2) / 2.0 + sector_area(s2, q, r);
  }
  return sector_area(p, q, r);
}

}  // namespace

double circle_polygon_intersection_area(const Circle& circle, const Polygon& poly) {
  if (poly.empty() || circle.radius <= 0.0) return 0.0;
  // Fast reject / accept on the bounding box.
  if (!circle.intersects(poly.bounding_box())) return 0.0;
  const auto& v = poly.vertices();
  const std::size_t n = v.size();
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point p = v[i] - circle.center;
    const Point q = v[(i + 1) % n] - circle.center;
    total += edge_contribution(p, q, circle.radius);
  }
  // CCW polygons give a positive sum; clamp tiny negative round-off.
  return std::max(0.0, std::min(total, circle.area()));
}

double overlap_degree(const Polygon& area, const Circle& location_area) {
  if (area.empty()) return 0.0;
  if (location_area.radius <= 0.0) {
    // Exact position: overlap is 1 if the point is inside, else 0 (§3.2
    // degenerates to point membership).
    return area.contains(location_area.center) ? 1.0 : 0.0;
  }
  // A disk wholly inside overlaps exactly 1 (§3.2: "completely inside"); the
  // boundary integral below rounds that to just under 1.0.
  if (area.contains_disk(location_area.center, location_area.radius)) return 1.0;
  const double inter = circle_polygon_intersection_area(location_area, area);
  return std::clamp(inter / location_area.area(), 0.0, 1.0);
}

}  // namespace locs::geo
