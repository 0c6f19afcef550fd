//! Local-search improvement over greedy MWIS.
//!
//! Starts from the max-weight greedy solution and applies
//! **(1,2)-swaps** until fixpoint: remove one selected vertex and insert
//! two non-adjacent vertices from its freed neighborhood whenever that
//! increases total weight, plus plain single-vertex insertions. On
//! unit-disk-style graphs this closes most of the gap between greedy and
//! exact at a small polynomial cost, making it a better "practical
//! constant-approximation" LocalLeader solver than plain greedy
//! (Section IV-C's remark).

use crate::{greedy, set::WeightedSet};
use mhca_graph::Graph;

/// Greedy followed by (1,2)-swap local search until no improving move
/// exists (or `max_passes` sweeps were made).
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()`.
pub fn solve(graph: &Graph, weights: &[f64], max_passes: usize) -> WeightedSet {
    let allowed: Vec<usize> = (0..graph.n()).collect();
    solve_subset(graph, weights, &allowed, max_passes)
}

/// [`solve`] restricted to an allowed vertex set.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()` or `allowed` is out of range.
pub fn solve_subset(
    graph: &Graph,
    weights: &[f64],
    allowed: &[usize],
    max_passes: usize,
) -> WeightedSet {
    let mut out = Vec::new();
    solve_subset_into(
        graph,
        weights,
        allowed,
        max_passes,
        &mut Scratch::default(),
        &mut out,
    );
    WeightedSet::from_vertices(out, weights)
}

/// Reusable buffers for [`solve_subset_into`].
#[derive(Debug, Default)]
pub struct Scratch {
    /// The call's allowed set, sorted and deduplicated.
    sorted: Vec<usize>,
    /// Per-vertex tables, sized once per graph. A call writes only the
    /// entries of its allowed set and of their neighbors, and resets
    /// exactly those before it returns, so no call pays `O(n)`.
    selectable: Vec<bool>,
    in_set: Vec<bool>,
    /// Number of selected neighbors of each vertex.
    blocked: Vec<usize>,
    /// The (1,2)-swap candidates around the vertex being dropped.
    cands: Vec<usize>,
    greedy: greedy::Scratch,
}

/// As [`solve_subset`], writing the chosen set (sorted ascending) into
/// `out`. Each call costs `O(Σ_{v ∈ allowed} deg(v) · max_passes)` plus
/// the swap search, independent of `graph.n()`; with a warm `scratch` it
/// performs no heap allocation — this is the distributed decision's
/// `LocalSearch` local solver.
///
/// # Panics
///
/// As [`solve_subset`].
pub fn solve_subset_into(
    graph: &Graph,
    weights: &[f64],
    allowed: &[usize],
    max_passes: usize,
    scratch: &mut Scratch,
    out: &mut Vec<usize>,
) {
    assert_eq!(weights.len(), graph.n(), "weight vector length");
    let n = graph.n();
    let Scratch {
        sorted,
        selectable,
        in_set,
        blocked,
        cands,
        greedy,
    } = scratch;
    if in_set.len() != n {
        for table in [&mut *selectable, &mut *in_set] {
            table.clear();
            table.resize(n, false);
        }
        blocked.clear();
        blocked.resize(n, 0);
    }
    sorted.clear();
    sorted.extend_from_slice(allowed);
    sorted.sort_unstable();
    sorted.dedup();
    // Checked before any write, so a rejected call leaves `scratch` clean.
    assert!(sorted.last().is_none_or(|&v| v < n), "vertex out of range");
    for &v in sorted.iter() {
        selectable[v] = weights[v] > 0.0;
    }

    greedy::max_weight_subset_into(graph, weights, sorted, greedy, out);
    for &v in out.iter() {
        in_set[v] = true;
        for &u in graph.neighbors(v) {
            blocked[u] += 1;
        }
    }

    // Every selected vertex is allowed, so the sweeps below visit the
    // sorted allowed set in place of `0..n`.
    for _ in 0..max_passes {
        let mut improved = false;

        // Free insertions: any allowed, unblocked, unselected vertex.
        for &v in sorted.iter() {
            if selectable[v] && !in_set[v] && blocked[v] == 0 {
                in_set[v] = true;
                for &u in graph.neighbors(v) {
                    blocked[u] += 1;
                }
                improved = true;
            }
        }

        // (1,2)-swaps: drop w, insert two of its neighbors.
        for &w in sorted.iter() {
            if !in_set[w] {
                continue;
            }
            // Candidates become unblocked only by removing w.
            cands.clear();
            cands.extend(
                graph
                    .neighbors(w)
                    .iter()
                    .copied()
                    .filter(|&v| selectable[v] && !in_set[v] && blocked[v] == 1),
            );
            let mut best: Option<(f64, usize, usize)> = None;
            for (i, &a) in cands.iter().enumerate() {
                for &b in &cands[i + 1..] {
                    if !graph.has_edge(a, b) {
                        let gain = weights[a] + weights[b] - weights[w];
                        if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                            best = Some((gain, a, b));
                        }
                    }
                }
            }
            if let Some((_, a, b)) = best {
                in_set[w] = false;
                for &u in graph.neighbors(w) {
                    blocked[u] -= 1;
                }
                for v in [a, b] {
                    in_set[v] = true;
                    for &u in graph.neighbors(v) {
                        blocked[u] += 1;
                    }
                }
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }

    out.clear();
    out.extend(sorted.iter().copied().filter(|&v| in_set[v]));
    debug_assert!(graph.is_independent(out));
    // Only the chosen vertices' neighbors hold nonzero counts.
    for &v in out.iter() {
        for &u in graph.neighbors(v) {
            blocked[u] = 0;
        }
    }
    for &v in sorted.iter() {
        selectable[v] = false;
        in_set[v] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use mhca_graph::topology;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn fixes_the_classic_greedy_trap() {
        // Path 3-4-3: greedy takes the middle (4); a (1,2)-swap recovers
        // the optimal ends (6).
        let g = topology::line(3);
        let w = [3.0, 4.0, 3.0];
        let s = solve(&g, &w, 10);
        assert_eq!(s.vertices, vec![0, 2]);
        assert_eq!(s.weight, 6.0);
    }

    #[test]
    fn never_worse_than_greedy() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
            let w: Vec<f64> = (0..40).map(|_| rng.gen_range(0.1..1.0)).collect();
            let gr = greedy::max_weight(&g, &w);
            let ls = solve(&g, &w, 20);
            assert!(ls.weight >= gr.weight - 1e-9);
            assert!(g.is_independent(&ls.vertices));
        }
    }

    #[test]
    fn closes_most_of_the_gap_to_exact_on_unit_disks() {
        let mut rng = StdRng::seed_from_u64(78);
        let mut ls_total = 0.0;
        let mut opt_total = 0.0;
        for _ in 0..15 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(20, 4.0, &mut rng);
            let w: Vec<f64> = (0..20).map(|_| rng.gen_range(0.1..1.0)).collect();
            ls_total += solve(&g, &w, 20).weight;
            opt_total += exact::solve(&g, &w).weight;
        }
        assert!(
            ls_total >= 0.95 * opt_total,
            "local search {ls_total} vs exact {opt_total}"
        );
    }

    #[test]
    fn subset_restriction_respected() {
        let g = topology::line(5);
        let w = [10.0, 1.0, 10.0, 1.0, 10.0];
        let s = solve_subset(&g, &w, &[1, 2, 3], 10);
        for &v in &s.vertices {
            assert!((1..=3).contains(&v));
        }
        assert_eq!(s.weight, 10.0);
    }

    #[test]
    fn zero_passes_is_plain_greedy() {
        let g = topology::line(3);
        let w = [3.0, 4.0, 3.0];
        let s = solve(&g, &w, 0);
        assert_eq!(s.vertices, vec![1]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(solve(&g, &[], 5).is_empty());
    }
}
