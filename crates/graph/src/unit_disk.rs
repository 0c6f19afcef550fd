//! Random geometric (unit-disk) conflict graphs.
//!
//! The paper models conflicts with unit disks: each node is a disk centered
//! on itself and two nodes conflict when their disks intersect, i.e. when
//! their Euclidean distance is at most twice the disk radius (Section II and
//! Section IV-B use `‖u,v‖ ≤ 2` for unit radius). Section IV-D analyses
//! *random networks* where node locations are uniformly distributed and the
//! network has an average degree `d`; [`random_with_average_degree`] builds
//! exactly that workload.

use crate::{geometry::Point, graph::Graph};
use rand::Rng;

/// Geometric layout backing a unit-disk graph: node positions plus the
/// conflict radius (edge iff `distance ≤ radius`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Layout {
    /// Node positions, indexed by node id.
    pub points: Vec<Point>,
    /// Conflict radius: `{u,v}` is an edge iff `‖u−v‖ ≤ radius`.
    pub radius: f64,
    /// Side length of the square deployment area.
    pub side: f64,
}

impl Layout {
    /// Builds the unit-disk graph induced by this layout: `{u, v}` is an
    /// edge iff `points[u].distance_squared(&points[v]) <= radius²`.
    ///
    /// Candidate pairs come from a uniform grid of at most `O(n)` cells,
    /// each at least `radius` wide, so the build costs `O(n + candidate
    /// pairs)` — linear in `n` at a fixed density — rather than the
    /// `O(n²)` of testing every pair, with the same edge set.
    pub fn to_graph(&self) -> Graph {
        let r2 = self.radius * self.radius;
        let mut g = crate::GraphBuilder::new(self.points.len());
        for_each_candidate_pair(&self.points, r2, |u, v| {
            if self.points[u].distance_squared(&self.points[v]) <= r2 {
                g.add_edge(u, v);
            }
        });
        g.build()
    }
}

/// Calls `f(u, v)` once for every unordered pair of points that may
/// satisfy `distance_squared <= r2`: a superset of the unit-disk edges.
///
/// Points are binned into square cells of side `side`, and only pairs in
/// the same or 8-adjacent cells are candidates. The side exceeds
/// `√r2` by a 2⁻¹⁰ margin, is at least `1e-150`, and is large enough that
/// the grid has at most `2·count + O(1)` cells whatever the spread of the
/// points, so a tiny radius cannot blow up the allocation.
///
/// Why no edge is missed under floating point: cell indices are
/// `floor((x − lo) / side)`, monotone in `x`, and the spread is at most
/// `count · side`, so two points two or more cells apart differ by more
/// than `side · (1 − 4·2⁻⁵³·count)`, which is `> √r2 · (1 + 2⁻¹¹)` in
/// exact arithmetic for any `count < 2⁴⁰`. Their computed `dx²` then
/// exceeds `r2` despite rounding; the `1e-150` floor keeps it clear of
/// underflow, which would otherwise round a tiny `dx²` down to 0.
///
/// Degenerate inputs match the all-pairs test: a NaN `r2` admits no
/// pair; with a finite `r2`, a point with a non-finite coordinate is at
/// distance ∞ or NaN from every other and is left out; an infinite `r2`
/// admits almost every pair, so every point shares one cell.
fn for_each_candidate_pair(points: &[Point], r2: f64, mut f: impl FnMut(usize, usize)) {
    if r2.is_nan() {
        return;
    }
    let binned = |p: &Point| !r2.is_finite() || (p.x.is_finite() && p.y.is_finite());
    let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
    let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    let mut count = 0usize;
    for p in points.iter().filter(|p| binned(p)) {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        count += 1;
    }
    if count < 2 {
        return;
    }
    let side = if r2.is_finite() {
        let (a, b, m) = (hi.x - lo.x, hi.y - lo.y, count as f64);
        (r2.sqrt().max(1e-150) * (1.0 + 1.0 / 1024.0))
            .max((a * b / m).sqrt())
            .max((a + b) / m)
    } else {
        f64::INFINITY
    };
    // Saturating casts; an infinite side (or spread) makes every index
    // 0 or NaN → 0, i.e. one cell. `limit` clamps to the grid, which
    // keeps the indices monotone.
    let cell = |p: &Point, limit: (usize, usize)| {
        (
            (((p.x - lo.x) / side).floor() as usize).min(limit.0),
            (((p.y - lo.y) / side).floor() as usize).min(limit.1),
        )
    };
    let (nx, ny) = {
        let (ix, iy) = cell(&hi, (usize::MAX - 1, usize::MAX - 1));
        (ix + 1, iy + 1)
    };
    let limit = (nx - 1, ny - 1);

    // Counting sort of the binned points by cell: `start[c]` counts up
    // to the end of cell `c`, then the reverse placement pass walks it
    // back to the cell's start, leaving ascending ids within each cell.
    let cell_id = |p: &Point| {
        let (ix, iy) = cell(p, limit);
        iy * nx + ix
    };
    let mut start = vec![0usize; nx * ny + 1];
    for p in points.iter().filter(|p| binned(p)) {
        start[cell_id(p)] += 1;
    }
    for c in 1..=nx * ny {
        start[c] += start[c - 1];
    }
    let mut sorted = vec![0usize; count];
    for (u, p) in points.iter().enumerate().rev().filter(|(_, p)| binned(p)) {
        let c = cell_id(p);
        start[c] -= 1;
        sorted[start[c]] = u;
    }

    // Each cell pairs with itself and its forward half-neighborhood, so
    // every adjacent cell pair is visited once.
    let members = |ix: usize, iy: usize| {
        let c = iy * nx + ix;
        &sorted[start[c]..start[c + 1]]
    };
    for iy in 0..ny {
        for ix in 0..nx {
            let here = members(ix, iy);
            for (i, &u) in here.iter().enumerate() {
                for &v in &here[i + 1..] {
                    f(u, v);
                }
            }
            let forward = [
                (ix + 1, iy.wrapping_sub(1)),
                (ix + 1, iy),
                (ix + 1, iy + 1),
                (ix, iy + 1),
            ];
            for (jx, jy) in forward.into_iter().filter(|&(jx, jy)| jx < nx && jy < ny) {
                for &u in here {
                    for &v in members(jx, jy) {
                        f(u, v);
                    }
                }
            }
        }
    }
}

/// Samples a random unit-disk network targeting an average degree `d`.
///
/// For `n` points uniform in a square of side `L` with conflict radius `ρ`,
/// the expected degree (ignoring boundary effects) is `(n−1)·π·ρ²/L²`;
/// we solve for `L` and sample. The realized average degree fluctuates
/// around the target, which matches the paper's "random networks with an
/// average degree `d`" setting.
///
/// # Panics
///
/// Panics if `n < 2` or `target_degree <= 0` or `target_degree >= n as f64`.
pub fn random_with_average_degree<R: Rng>(
    n: usize,
    target_degree: f64,
    rng: &mut R,
) -> (Graph, Layout) {
    assert!(n >= 2, "need at least two nodes");
    assert!(
        target_degree > 0.0 && target_degree < n as f64,
        "target degree must be in (0, n)"
    );
    let radius = 1.0;
    let side = ((n as f64 - 1.0) * std::f64::consts::PI * radius * radius / target_degree).sqrt();
    let points: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
        .collect();
    let layout = Layout {
        points,
        radius,
        side,
    };
    (layout.to_graph(), layout)
}

/// Repeatedly samples random unit-disk networks with target average degree
/// until a *connected* one is found (the Fig. 7 experiment uses "a randomly
/// generated connected network").
///
/// Returns `None` if `max_tries` samples were all disconnected.
pub fn random_connected_with_average_degree<R: Rng>(
    n: usize,
    target_degree: f64,
    max_tries: usize,
    rng: &mut R,
) -> Option<(Graph, Layout)> {
    for _ in 0..max_tries {
        let (g, layout) = random_with_average_degree(n, target_degree, rng);
        if g.is_connected() {
            return Some((g, layout));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The all-pairs definition [`Layout::to_graph`] must reproduce.
    fn all_pairs_graph(layout: &Layout) -> Graph {
        let n = layout.points.len();
        let r2 = layout.radius * layout.radius;
        let mut g = crate::GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if layout.points[u].distance_squared(&layout.points[v]) <= r2 {
                    g.add_edge(u, v);
                }
            }
        }
        g.build()
    }

    fn assert_grid_matches_all_pairs(points: Vec<Point>, radius: f64, side: f64) {
        let layout = Layout {
            points,
            radius,
            side,
        };
        assert_eq!(
            layout.to_graph(),
            all_pairs_graph(&layout),
            "radius {radius}, points {:?}",
            layout.points
        );
    }

    #[test]
    fn grid_builder_matches_all_pairs_on_random_layouts() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..60 {
            let n = rng.gen_range(0..300);
            let side = [0.5, 3.0, 20.0, 1e4][trial % 4];
            let radius = rng.gen_range(0.05..2.0);
            let points = (0..n)
                .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
                .collect();
            assert_grid_matches_all_pairs(points, radius, side);
        }
        let mut rng = StdRng::seed_from_u64(6);
        for &(n, d) in &[(50, 3.0), (400, 5.0), (2000, 3.5)] {
            let (g, layout) = random_with_average_degree(n, d, &mut rng);
            assert_eq!(g, all_pairs_graph(&layout), "n {n}");
        }
    }

    #[test]
    fn grid_builder_matches_all_pairs_at_exactly_radius() {
        // Lattices spaced exactly one radius apart (axis neighbours at
        // distance `radius`, diagonal ones at `radius·√2`), plus points
        // one radius out along the diagonal — including radii that are
        // not exactly representable.
        for &radius in &[1.0, 0.1, 0.3, 7.0, 1e-3, 1.0 / 3.0] {
            let mut points: Vec<Point> = (0..6)
                .flat_map(|i| (0..6).map(move |j| Point::new(i as f64 * radius, j as f64 * radius)))
                .collect();
            let step = radius / std::f64::consts::SQRT_2;
            points.extend((0..6).map(|k| Point::new(k as f64 * step, k as f64 * step)));
            assert_grid_matches_all_pairs(points, radius, 6.0 * radius);
        }
    }

    #[test]
    fn grid_builder_matches_all_pairs_on_cell_boundaries() {
        // With many points in a small area the cell side is the radius
        // plus its 2⁻¹⁰ margin; put points on those boundaries, and one
        // ulp either side of them.
        for &radius in &[1.0, 0.1, 2.5] {
            let side = radius * (1.0 + 1.0 / 1024.0);
            let mut points = vec![Point::new(0.0, 0.0)];
            for k in 0..8 {
                let x = k as f64 * side;
                for x in [
                    x,
                    f64::from_bits(x.to_bits() + 1),
                    (x - 1e-12 * side).max(0.0),
                ] {
                    points.push(Point::new(x, 0.0));
                    points.push(Point::new(0.0, x));
                    points.push(Point::new(x, x));
                }
            }
            assert_grid_matches_all_pairs(points, radius, 8.0 * side);
        }
    }

    #[test]
    fn grid_builder_matches_all_pairs_on_degenerate_layouts() {
        let coincident = vec![Point::new(3.0, -2.0); 40];
        for &radius in &[0.0, 1.0, -1.0, 1e-300] {
            assert_grid_matches_all_pairs(coincident.clone(), radius, 1.0);
        }
        // n = 1 and n = 0.
        assert_grid_matches_all_pairs(vec![Point::new(0.5, 0.5)], 1.0, 1.0);
        assert_grid_matches_all_pairs(Vec::new(), 1.0, 1.0);
        // Radius larger than the whole area: the complete graph.
        let mut rng = StdRng::seed_from_u64(8);
        let points: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        assert_grid_matches_all_pairs(points.clone(), 5.0, 1.0);
        // A huge area with a tiny radius, with a few close pairs so there
        // are edges to find; the grid stays O(n) cells.
        let mut points: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen::<f64>() * 1e12, rng.gen::<f64>() * 1e12))
            .collect();
        for k in 0..20 {
            let p = points[k];
            points.push(Point::new(p.x + 5e-7, p.y));
            points.push(Point::new(p.x, p.y - 9e-7));
        }
        assert_grid_matches_all_pairs(points, 1e-6, 1e12);
        // A radius whose square underflows to 0: only pairs whose
        // squared distance also underflows are edges — here every pair of
        // a cluster far narrower than the grid's cap-derived cell side.
        let points: Vec<Point> = (0..100)
            .map(|k| Point::new(k as f64 * 1e-170, 0.0))
            .collect();
        assert_grid_matches_all_pairs(points, 1e-200, 1.0);
        // A spread that overflows f64.
        let points = vec![
            Point::new(-1.5e308, 0.0),
            Point::new(1.5e308, 0.0),
            Point::new(1.5e308, 0.5),
            Point::new(0.0, 0.0),
        ];
        assert_grid_matches_all_pairs(points, 1.0, 1.0);
    }

    #[test]
    fn grid_builder_matches_all_pairs_with_non_finite_values() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, f64::NAN),
            Point::new(f64::INFINITY, 0.0),
            Point::new(f64::INFINITY, 0.2),
            Point::new(f64::NEG_INFINITY, 0.0),
            Point::new(0.3, f64::INFINITY),
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(2.0, 2.0),
        ];
        for &radius in &[1.0, 0.0, f64::INFINITY, 1e200, f64::NAN, -1.0] {
            assert_grid_matches_all_pairs(points.clone(), radius, 1.0);
        }
    }

    #[test]
    fn graph_edges_respect_radius() {
        let layout = Layout {
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            radius: 1.5,
            side: 4.0,
        };
        let g = layout.to_graph();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2)); // distance 2 > 1.5
    }

    #[test]
    fn average_degree_close_to_target() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut total = 0.0;
        let reps = 20;
        for _ in 0..reps {
            let (g, _) = random_with_average_degree(200, 6.0, &mut rng);
            total += g.average_degree();
        }
        let mean = total / reps as f64;
        // Boundary effects bias the realized degree slightly below target.
        assert!(
            (mean - 6.0).abs() < 1.5,
            "mean realized degree {mean} too far from target 6"
        );
    }

    #[test]
    fn connected_generator_returns_connected_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = random_connected_with_average_degree(15, 4.0, 200, &mut rng)
            .expect("should find a connected instance");
        assert!(g.is_connected());
        assert_eq!(g.n(), 15);
    }

    #[test]
    #[should_panic(expected = "target degree")]
    fn rejects_absurd_degree() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = random_with_average_degree(10, 20.0, &mut rng);
    }
}
