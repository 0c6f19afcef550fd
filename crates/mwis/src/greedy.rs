//! Greedy MWIS baselines.
//!
//! Section IV-C of the paper notes that "in practice, we can use a more
//! efficient constant approximation algorithm instead" of the local
//! enumeration; these greedy solvers are those practical stand-ins and the
//! quality baselines for the exact and PTAS solvers.

use crate::set::WeightedSet;
use mhca_graph::Graph;

/// Greedy by maximum weight: repeatedly select the heaviest remaining
/// vertex and delete its closed neighborhood.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()`.
pub fn max_weight(graph: &Graph, weights: &[f64]) -> WeightedSet {
    let allowed: Vec<usize> = (0..graph.n()).collect();
    max_weight_subset(graph, weights, &allowed)
}

/// [`max_weight`] restricted to an allowed vertex set.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()` or `allowed` is out of range.
pub fn max_weight_subset(graph: &Graph, weights: &[f64], allowed: &[usize]) -> WeightedSet {
    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    max_weight_subset_into(graph, weights, allowed, &mut scratch, &mut out);
    WeightedSet::from_vertices(out, weights)
}

/// Reusable buffers for [`max_weight_subset_into`].
#[derive(Debug, Default)]
pub struct Scratch {
    /// Sized once per graph. A call reads only `allowed` entries, each
    /// written before it is read, so there is no `O(n)` per-call reset
    /// (and the selection loop leaves every entry it set `false` again).
    alive: Vec<bool>,
    order: Vec<usize>,
}

/// As [`max_weight_subset`], writing the chosen set (sorted ascending)
/// into `out` and returning its weight. With a warm `scratch`, the call
/// performs no heap allocation — this is the hot fallback of the
/// distributed decision's `Auto` local solver.
///
/// # Panics
///
/// As [`max_weight_subset`].
pub fn max_weight_subset_into(
    graph: &Graph,
    weights: &[f64],
    allowed: &[usize],
    scratch: &mut Scratch,
    out: &mut Vec<usize>,
) -> f64 {
    assert_eq!(weights.len(), graph.n(), "weight vector length");
    if scratch.alive.len() != graph.n() {
        scratch.alive.clear();
        scratch.alive.resize(graph.n(), false);
    }
    let alive = &mut scratch.alive;
    for &v in allowed {
        assert!(v < graph.n(), "vertex out of range");
        alive[v] = weights[v] > 0.0;
    }
    scratch.order.clear();
    scratch
        .order
        .extend(allowed.iter().copied().filter(|&v| alive[v]));
    // The id tie-break makes the order total, so the unstable sort is
    // deterministic (and allocation-free, unlike the stable sort).
    scratch.order.sort_unstable_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    out.clear();
    for &v in &scratch.order {
        if alive[v] {
            out.push(v);
            alive[v] = false;
            for &u in graph.neighbors(v) {
                alive[u] = false;
            }
        }
    }
    out.sort_unstable();
    out.iter().map(|&v| weights[v]).sum()
}

/// GWMIN greedy: repeatedly select the vertex maximizing
/// `w(v) / (deg(v) + 1)` in the *remaining* graph, then delete its closed
/// neighborhood. Guarantees `W ≥ Σ_v w(v)/(deg(v)+1)` (Sakai–Togasaki–
/// Yamazaki), a useful quality floor on bounded-degree conflict graphs.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()`.
pub fn weight_degree(graph: &Graph, weights: &[f64]) -> WeightedSet {
    assert_eq!(weights.len(), graph.n(), "weight vector length");
    let n = graph.n();
    let mut alive: Vec<bool> = weights.iter().map(|&w| w > 0.0).collect();
    let mut deg: Vec<usize> = (0..n)
        .map(|v| graph.neighbors(v).iter().filter(|&&u| alive[u]).count())
        .collect();
    let mut chosen = Vec::new();
    loop {
        let mut best: Option<(f64, usize)> = None;
        for v in 0..n {
            if alive[v] {
                let score = weights[v] / (deg[v] + 1) as f64;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, v));
                }
            }
        }
        let Some((_, v)) = best else { break };
        chosen.push(v);
        // Remove closed neighborhood and maintain degrees.
        let mut removed = vec![v];
        removed.extend(graph.neighbors(v).iter().copied().filter(|&u| alive[u]));
        for &u in &removed {
            alive[u] = false;
        }
        for &u in &removed {
            for &x in graph.neighbors(u) {
                if alive[x] && deg[x] > 0 {
                    deg[x] -= 1;
                }
            }
        }
    }
    WeightedSet::from_vertices(chosen, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::topology;

    #[test]
    fn max_weight_on_star_prefers_heavy_hub() {
        let g = topology::star(4);
        let s = max_weight(&g, &[10.0, 1.0, 1.0, 1.0]);
        assert_eq!(s.vertices, vec![0]);
        assert_eq!(s.weight, 10.0);
    }

    #[test]
    fn max_weight_on_star_prefers_heavy_leaves() {
        let g = topology::star(4);
        let s = max_weight(&g, &[2.0, 3.0, 3.0, 3.0]);
        assert_eq!(s.vertices, vec![1, 2, 3]);
        assert_eq!(s.weight, 9.0);
    }

    #[test]
    fn greedy_can_be_suboptimal_but_independent() {
        // Path with weights where greedy takes the middle vertex.
        let g = topology::line(3);
        let w = [3.0, 4.0, 3.0];
        let s = max_weight(&g, &w);
        assert_eq!(s.vertices, vec![1]); // optimal is {0,2} weight 6
        assert!(g.is_independent(&s.vertices));
    }

    #[test]
    fn weight_degree_beats_plain_greedy_here() {
        let g = topology::line(3);
        let w = [3.0, 4.0, 3.0];
        let s = weight_degree(&g, &w);
        assert_eq!(s.vertices, vec![0, 2]); // 3/1 > 4/3: takes the ends
        assert_eq!(s.weight, 6.0);
    }

    #[test]
    fn gwmin_lower_bound_holds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
            let w: Vec<f64> = (0..40).map(|_| rng.gen_range(0.1..1.0)).collect();
            let s = weight_degree(&g, &w);
            let floor: f64 = (0..40).map(|v| w[v] / (g.degree(v) + 1) as f64).sum();
            assert!(
                s.weight >= floor - 1e-9,
                "GWMIN bound violated: {} < {floor}",
                s.weight
            );
            assert!(g.is_independent(&s.vertices));
        }
    }

    #[test]
    fn subset_restriction() {
        let g = topology::line(4);
        let s = max_weight_subset(&g, &[9.0, 1.0, 1.0, 9.0], &[1, 2]);
        assert_eq!(s.vertices.len(), 1);
        assert!(g.is_independent(&s.vertices));
    }

    #[test]
    fn empty_graph_gives_empty_set() {
        let g = mhca_graph::Graph::new(0);
        assert!(max_weight(&g, &[]).is_empty());
        assert!(weight_degree(&g, &[]).is_empty());
    }
}
