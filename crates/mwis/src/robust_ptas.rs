//! The centralized robust PTAS of Nieberg–Hurink–Kern (paper Section IV-B).
//!
//! Starting from the heaviest remaining vertex `v`, grow `r`-hop
//! neighborhoods `J_r(v)` and compute exact local MWISes until the growth
//! criterion `W(MWIS(J_{r+1})) > ρ·W(MWIS(J_r))` fails at some `r̄`; keep
//! `MWIS(J_r̄)`, delete `J_{r̄+1}(v)`, repeat on the remainder. On
//! growth-bounded graphs `r̄` is a constant (`ρ^r ≤ M·(2r+1)²` in the
//! extended graph `H`, Theorem 2) and the union of the kept local solutions
//! is a `ρ`-approximation of the global MWIS.
//!
//! The paper phrases the deletion step as removing the local MWIS and its
//! adjacent vertices; we implement the `(r̄+1)`-neighborhood deletion of the
//! original robust-PTAS paper, which the cited approximation proof uses
//! (see DESIGN.md, Substitutions).

use crate::{exact, set::WeightedSet};
use mhca_graph::Graph;
use std::collections::VecDeque;

/// Configuration of the robust PTAS.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Approximation target `ρ = 1 + ε` (must be `> 1`).
    pub rho: f64,
    /// Optional cap on the neighborhood radius `r̄`. The paper's
    /// simulations fix `r = 2`; capping trades the `ρ` guarantee for
    /// bounded local work.
    pub max_r: Option<usize>,
}

impl Config {
    /// Config with `ρ = 1 + ε` and unbounded radius.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Config {
            rho: 1.0 + epsilon,
            max_r: None,
        }
    }

    /// Config with `ρ = 1 + ε` and radius capped at `max_r`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0`.
    pub fn with_epsilon_and_max_r(epsilon: f64, max_r: usize) -> Self {
        let mut c = Config::with_epsilon(epsilon);
        c.max_r = Some(max_r);
        c
    }
}

impl Default for Config {
    /// `ε = 0.5` (ρ = 1.5), unbounded radius.
    fn default() -> Self {
        Config::with_epsilon(0.5)
    }
}

/// Runs the robust PTAS with every vertex its own group.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()` or `cfg.rho <= 1`.
pub fn solve(graph: &Graph, weights: &[f64], cfg: &Config) -> WeightedSet {
    let identity: Vec<usize> = (0..graph.n()).collect();
    solve_grouped(graph, weights, cfg, &identity)
}

/// Runs the robust PTAS with clique groups forwarded to the exact local
/// solver (see [`exact::solve_grouped`]); for the extended graph `H`, pass
/// the master-node labels.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()`, `group_of.len() != graph.n()`,
/// or `cfg.rho <= 1`.
pub fn solve_grouped(
    graph: &Graph,
    weights: &[f64],
    cfg: &Config,
    group_of: &[usize],
) -> WeightedSet {
    assert_eq!(weights.len(), graph.n(), "weight vector length");
    assert!(cfg.rho > 1.0, "rho must exceed 1");
    let n = graph.n();
    let mut alive = vec![true; n];
    let mut solution = WeightedSet::empty();

    let heaviest_alive = |alive: &[bool]| {
        (0..n)
            .filter(|&v| alive[v] && weights[v] > 0.0)
            .max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).expect("finite"))
    };
    while let Some(v_max) = heaviest_alive(&alive) {
        // Grow neighborhoods until the ρ-criterion (or the cap) stops us.
        let mut r_bar = 0usize;
        let mut prev = exact::solve_grouped(
            graph,
            weights,
            &alive_ball(graph, &alive, v_max, 0),
            group_of,
        );
        loop {
            if cfg.max_r.is_some_and(|cap| r_bar >= cap) {
                break;
            }
            let next_ball = alive_ball(graph, &alive, v_max, r_bar + 1);
            let next = exact::solve_grouped(graph, weights, &next_ball, group_of);
            if next.weight > cfg.rho * prev.weight {
                prev = next;
                r_bar += 1;
            } else {
                break;
            }
        }

        solution.union(&prev);
        for v in alive_ball(graph, &alive, v_max, r_bar + 1) {
            alive[v] = false;
        }
    }
    solution
}

/// BFS ball of radius `r` around `v` restricted to alive vertices,
/// sorted ascending.
fn alive_ball(graph: &Graph, alive: &[bool], v: usize, r: usize) -> Vec<usize> {
    debug_assert!(alive[v]);
    let mut dist = vec![usize::MAX; graph.n()];
    dist[v] = 0;
    let mut out = vec![v];
    let mut queue = VecDeque::from([v]);
    while let Some(u) = queue.pop_front() {
        if dist[u] == r {
            continue;
        }
        for &w in graph.neighbors(u) {
            if alive[w] && dist[w] == usize::MAX {
                dist[w] = dist[u] + 1;
                out.push(w);
                queue.push_back(w);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::topology;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(n: usize, p: f64, rng: &mut StdRng) -> Graph {
        let mut g = Graph::builder(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < p {
                    g.add_edge(u, v);
                }
            }
        }
        g.build()
    }

    #[test]
    fn output_is_always_independent() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..30 {
            let n = rng.gen_range(1..=25);
            let g = random_graph(n, 0.3, &mut rng);
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let s = solve(&g, &w, &Config::with_epsilon(0.5));
            assert!(g.is_independent(&s.vertices));
        }
    }

    #[test]
    fn respects_rho_guarantee_when_uncapped() {
        let mut rng = StdRng::seed_from_u64(32);
        for eps in [0.2, 0.5, 1.0] {
            let cfg = Config::with_epsilon(eps);
            for _ in 0..20 {
                let n = rng.gen_range(1..=14);
                let g = random_graph(n, 0.35, &mut rng);
                let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..5.0)).collect();
                let opt = exact::solve(&g, &w);
                let s = solve(&g, &w, &cfg);
                assert!(
                    s.weight * cfg.rho >= opt.weight - 1e-9,
                    "eps={eps}: ptas {} vs opt {}",
                    s.weight,
                    opt.weight
                );
            }
        }
    }

    #[test]
    fn exact_on_isolated_vertices() {
        let g = topology::independent(5);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = solve(&g, &w, &Config::default());
        assert_eq!(s.vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.weight, 15.0);
    }

    #[test]
    fn capped_radius_still_independent() {
        let mut rng = StdRng::seed_from_u64(33);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(60, 6.0, &mut rng);
        let w: Vec<f64> = (0..60).map(|_| rng.gen_range(0.1..1.0)).collect();
        let cfg = Config::with_epsilon_and_max_r(0.5, 2);
        let s = solve(&g, &w, &cfg);
        assert!(g.is_independent(&s.vertices));
        assert!(s.weight > 0.0);
    }

    #[test]
    fn capped_quality_on_unit_disk_is_reasonable() {
        // With r capped at 2 the formal guarantee lapses, but on random
        // unit-disk instances the output should stay close to optimal.
        let mut rng = StdRng::seed_from_u64(34);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(18, 4.0, &mut rng);
        let w: Vec<f64> = (0..18).map(|_| rng.gen_range(0.1..1.0)).collect();
        let opt = exact::solve(&g, &w);
        let s = solve(&g, &w, &Config::with_epsilon_and_max_r(0.5, 2));
        assert!(
            s.weight >= 0.6 * opt.weight,
            "{} vs {}",
            s.weight,
            opt.weight
        );
    }

    #[test]
    fn zero_weight_graph_gives_empty_solution() {
        let g = topology::line(4);
        let s = solve(&g, &[0.0; 4], &Config::default());
        assert!(s.is_empty());
    }

    #[test]
    fn smaller_epsilon_is_at_least_as_good_on_average() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut tight_total = 0.0;
        let mut loose_total = 0.0;
        for _ in 0..20 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
            let w: Vec<f64> = (0..40).map(|_| rng.gen_range(0.1..1.0)).collect();
            tight_total += solve(&g, &w, &Config::with_epsilon(0.1)).weight;
            loose_total += solve(&g, &w, &Config::with_epsilon(2.0)).weight;
        }
        assert!(
            tight_total >= loose_total - 1e-9,
            "tight {tight_total} < loose {loose_total}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_rejected() {
        let _ = Config::with_epsilon(0.0);
    }
}
