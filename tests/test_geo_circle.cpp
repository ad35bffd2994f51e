// Exact circle-polygon intersection area (the overlap-degree kernel of the
// range-query semantics) validated against closed forms and Monte-Carlo.
#include <gtest/gtest.h>

#include "geo/circle.hpp"
#include "geo/polygon.hpp"
#include "util/rng.hpp"

namespace locs::geo {
namespace {

double monte_carlo_area(const Circle& c, const Polygon& poly, int samples,
                        std::uint64_t seed) {
  // Sample inside the circle; area = hit fraction * circle area.
  Rng rng(seed);
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    const double ang = rng.uniform(0.0, 2.0 * M_PI);
    const double r = c.radius * std::sqrt(rng.next_double());
    const Point p{c.center.x + r * std::cos(ang), c.center.y + r * std::sin(ang)};
    if (poly.contains(p)) ++hits;
  }
  return c.area() * static_cast<double>(hits) / samples;
}

TEST(CirclePolygon, CircleFullyInside) {
  const Polygon square = Polygon::from_rect(Rect{{0, 0}, {100, 100}});
  const Circle c{{50, 50}, 10};
  EXPECT_NEAR(circle_polygon_intersection_area(c, square), c.area(), 1e-9);
}

TEST(CirclePolygon, CircleFullyOutside) {
  const Polygon square = Polygon::from_rect(Rect{{0, 0}, {10, 10}});
  const Circle c{{100, 100}, 5};
  EXPECT_DOUBLE_EQ(circle_polygon_intersection_area(c, square), 0.0);
}

TEST(CirclePolygon, PolygonFullyInsideCircle) {
  const Polygon square = Polygon::from_rect(Rect{{-1, -1}, {1, 1}});
  const Circle c{{0, 0}, 10};
  EXPECT_NEAR(circle_polygon_intersection_area(c, square), 4.0, 1e-9);
}

TEST(CirclePolygon, HalfPlaneExact) {
  // Circle centered on the edge of a huge rectangle: exactly half the disk.
  const Polygon half = Polygon::from_rect(Rect{{0, -1000}, {1000, 1000}});
  const Circle c{{0, 0}, 7};
  EXPECT_NEAR(circle_polygon_intersection_area(c, half), c.area() / 2.0, 1e-6);
}

TEST(CirclePolygon, QuarterAtCorner) {
  const Polygon quad = Polygon::from_rect(Rect{{0, 0}, {1000, 1000}});
  const Circle c{{0, 0}, 8};
  EXPECT_NEAR(circle_polygon_intersection_area(c, quad), c.area() / 4.0, 1e-6);
}

TEST(CirclePolygon, KnownSegmentArea) {
  // Circle radius 2 centered at origin, rectangle x >= 1: circular segment
  // area = r^2 acos(d/r) - d sqrt(r^2 - d^2) with d = 1.
  const Polygon right = Polygon::from_rect(Rect{{1, -100}, {100, 100}});
  const Circle c{{0, 0}, 2};
  const double expected = 4.0 * std::acos(0.5) - 1.0 * std::sqrt(3.0);
  EXPECT_NEAR(circle_polygon_intersection_area(c, right), expected, 1e-9);
}

TEST(CirclePolygon, NonConvexPolygon) {
  // L-shape; circle sits in the notch, overlapping both arms partially.
  Polygon l({{0, 0}, {40, 0}, {40, 20}, {20, 20}, {20, 40}, {0, 40}});
  const Circle c{{25, 25}, 8};
  const double exact = circle_polygon_intersection_area(c, l);
  const double mc = monte_carlo_area(c, l, 400000, 99);
  EXPECT_NEAR(exact, mc, c.area() * 0.01);
}

TEST(OverlapDegree, MatchesFigure3Semantics) {
  // Fig 3: objects fully inside have overlap 1; outside 0; straddling in
  // between, compared against the required threshold.
  const Polygon area = Polygon::from_rect(Rect{{0, 0}, {100, 100}});
  EXPECT_EQ(overlap_degree(area, {{50, 50}, 10}), 1.0);             // o1 inside
  EXPECT_DOUBLE_EQ(overlap_degree(area, {{300, 300}, 10}), 0.0);    // o2 outside
  const double straddle = overlap_degree(area, {{0, 50}, 10});      // on the edge
  EXPECT_NEAR(straddle, 0.5, 1e-9);
}

// §3.2: a disk completely inside the area has overlap exactly 1, so a range
// query with req_overlap = 1.0 must keep it. (A tolerance-based comparison
// hides an overlap that rounds to just below 1.0.)
TEST(OverlapDegree, DisksInsideAreExactlyOne) {
  Rng rng(2024);
  const Polygon square = Polygon::from_rect(Rect{{0, 0}, {100, 100}});
  for (int i = 0; i < 100000; ++i) {
    const Circle c{{rng.uniform(10, 90), rng.uniform(10, 90)}, 10};
    ASSERT_EQ(overlap_degree(square, c), 1.0)
        << "disk (" << c.center.x << "," << c.center.y << ") r=10, iteration " << i;
  }
  // Non-convex and rotated areas: keep the placements whose disk clears
  // every edge.
  const Polygon l_shape({{0, 0}, {400, 0}, {400, 200}, {200, 200}, {200, 400}, {0, 400}});
  const Polygon diamond({{200, 0}, {400, 200}, {200, 400}, {0, 200}});
  for (const Polygon* poly : {&l_shape, &diamond}) {
    int inside = 0;
    for (int i = 0; i < 20000; ++i) {
      const Circle c{{rng.uniform(0, 400), rng.uniform(0, 400)}, rng.uniform(1, 30)};
      if (!poly->contains(c.center)) continue;
      // Distance from the center to each edge's line: a lower bound on its
      // distance to the edge.
      bool clear = true;
      const auto& v = poly->vertices();
      for (std::size_t k = 0; k < v.size(); ++k) {
        const Point a = v[k];
        const Point b = v[(k + 1) % v.size()];
        if (std::abs(cross(b - a, c.center - a)) / distance(a, b) < c.radius + 1e-6) {
          clear = false;
        }
      }
      if (!clear) continue;
      ++inside;
      ASSERT_EQ(overlap_degree(*poly, c), 1.0)
          << "disk (" << c.center.x << "," << c.center.y << ") r=" << c.radius;
    }
    EXPECT_GT(inside, 1000);
  }
}

TEST(OverlapDegree, DiskTouchingTheBoundaryIsNotInside) {
  const Polygon square = Polygon::from_rect(Rect{{0, 0}, {100, 100}});
  EXPECT_TRUE(square.contains_disk({50, 50}, 50));   // tangent to all four edges
  EXPECT_FALSE(square.contains_disk({50, 50}, 50.001));
  EXPECT_FALSE(square.contains_disk({-20, 50}, 10));  // outside
  EXPECT_LT(overlap_degree(square, {{95, 50}, 10}), 1.0);
  EXPECT_GT(overlap_degree(square, {{95, 50}, 10}), 0.5);
  // A disk in the notch of an L: its bounding box fits the L's, its center
  // is inside, but the reflex corner cuts it.
  const Polygon l_shape({{0, 0}, {40, 0}, {40, 20}, {20, 20}, {20, 40}, {0, 40}});
  EXPECT_FALSE(l_shape.contains_disk({18, 18}, 5));
  EXPECT_LT(overlap_degree(l_shape, {{18, 18}, 5}), 1.0);
}

TEST(OverlapDegree, ZeroRadiusDegeneratesToContainment) {
  const Polygon area = Polygon::from_rect(Rect{{0, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(overlap_degree(area, {{5, 5}, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(overlap_degree(area, {{50, 5}, 0.0}), 0.0);
}

TEST(OverlapDegree, MonotonicInDistance) {
  // Sliding a disk out of the area must monotonically reduce the overlap.
  const Polygon area = Polygon::from_rect(Rect{{0, 0}, {100, 100}});
  double prev = 1.1;
  for (double x = 50; x <= 130; x += 5) {
    const double ov = overlap_degree(area, {{x, 50}, 15});
    EXPECT_LE(ov, prev + 1e-12);
    prev = ov;
  }
  EXPECT_DOUBLE_EQ(prev, 0.0);
}

// Property: exact area matches Monte-Carlo for random circle/rect pairs.
class CircleAreaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CircleAreaProperty, MatchesMonteCarlo) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 8; ++iter) {
    const Rect rect = Rect::from_corners(
        {rng.uniform(-50, 50), rng.uniform(-50, 50)},
        {rng.uniform(-50, 50), rng.uniform(-50, 50)});
    if (rect.area() < 1.0) continue;
    const Polygon poly = Polygon::from_rect(rect);
    const Circle c{{rng.uniform(-60, 60), rng.uniform(-60, 60)},
                   rng.uniform(1.0, 30.0)};
    const double exact = circle_polygon_intersection_area(c, poly);
    const double mc = monte_carlo_area(c, poly, 200000, GetParam() * 31 + iter);
    EXPECT_NEAR(exact, mc, std::max(c.area() * 0.02, 0.5))
        << "rect [" << rect.min.x << "," << rect.min.y << "]-[" << rect.max.x
        << "," << rect.max.y << "] circle (" << c.center.x << "," << c.center.y
        << ") r=" << c.radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircleAreaProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: intersection area is bounded by both the circle and the polygon.
class CircleAreaBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CircleAreaBounds, WithinBounds) {
  Rng rng(GetParam() * 7919);
  for (int iter = 0; iter < 50; ++iter) {
    const Polygon poly = Polygon::from_rect(Rect::from_center(
        {rng.uniform(-100, 100), rng.uniform(-100, 100)},
        rng.uniform(1, 40), rng.uniform(1, 40)));
    const Circle c{{rng.uniform(-120, 120), rng.uniform(-120, 120)},
                   rng.uniform(0.5, 50.0)};
    const double inter = circle_polygon_intersection_area(c, poly);
    EXPECT_GE(inter, 0.0);
    EXPECT_LE(inter, c.area() + 1e-9);
    EXPECT_LE(inter, poly.area() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircleAreaBounds, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace locs::geo
