//! Exact MWIS by branch-and-bound over vertex groups.
//!
//! The solver branches over *groups* of vertices, where each group is
//! promised by the caller to be a clique (so at most one member can be
//! selected). This matches the structure of the extended conflict graph
//! `H`: grouping virtual vertices by master node turns the search into
//! "pick at most one channel per node", which is what the LocalLeader
//! enumeration of Algorithm 3 computes and what the paper's brute-force
//! optimum (Fig. 7, the 15-user × 3-channel instance) needs.
//!
//! For a generic graph, [`solve`] puts every vertex in its own group.
//!
//! Complexity is exponential in the worst case (MWIS is NP-hard); the
//! bound `current + Σ_remaining-groups max-available-weight` prunes
//! aggressively on the geometric instances the paper simulates.

use crate::{bitset::BitSet, set::WeightedSet};
use mhca_graph::Graph;

/// Exact MWIS over the whole graph, each vertex its own group.
///
/// Only vertices with strictly positive weight are ever selected (adding a
/// zero-weight vertex never increases the objective).
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()`.
pub fn solve(graph: &Graph, weights: &[f64]) -> WeightedSet {
    let allowed: Vec<usize> = (0..graph.n()).collect();
    solve_subset(graph, weights, &allowed)
}

/// Exact MWIS restricted to the `allowed` vertex set, each vertex its own
/// group.
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()` or `allowed` has out-of-range or
/// duplicate entries.
pub fn solve_subset(graph: &Graph, weights: &[f64], allowed: &[usize]) -> WeightedSet {
    let identity: Vec<usize> = (0..graph.n()).collect();
    solve_grouped(graph, weights, allowed, &identity)
}

/// Exact MWIS restricted to `allowed`, with clique groups.
///
/// `group_of[v]` labels each vertex with a group id; all allowed vertices
/// sharing a label **must form a clique** (the solver selects at most one
/// per group and does not re-check pairwise adjacency within a group).
///
/// # Panics
///
/// Panics if `weights.len() != graph.n()`, `group_of.len() != graph.n()`,
/// or `allowed` has out-of-range/duplicate entries. In debug builds, also
/// panics if a group is not a clique.
pub fn solve_grouped(
    graph: &Graph,
    weights: &[f64],
    allowed: &[usize],
    group_of: &[usize],
) -> WeightedSet {
    Workspace::new().solve_grouped(graph, weights, allowed, group_of)
}

/// Reusable scratch for the grouped branch-and-bound.
///
/// The LocalLeader path of Algorithm 3 calls the exact solver once per
/// leader per mini-round per slot; with a fresh workspace each call that
/// is a dozen allocations (local index maps, adjacency bitsets, the
/// per-depth availability sets) on the hottest loop of the simulator. A
/// `Workspace` owns all of that scratch and reuses it across calls — after
/// warm-up, [`Workspace::solve_grouped_into`] performs no heap allocation.
///
/// The free functions [`solve`], [`solve_subset`], and [`solve_grouped`]
/// remain as one-shot conveniences over a throwaway workspace.
///
/// The two `n`-long maps (`seen`, `global_to_local`) are all-clear
/// between calls: each call restores only the entries it wrote, listed in
/// `touched`, so a call costs `O(|allowed| + local edges)` rather than
/// `O(n)` — the per-leader cost stays local to the leader's ball.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Graph size the `seen`/`global_to_local` buffers are sized for.
    n: usize,
    seen: Vec<bool>,
    global_to_local: Vec<usize>,
    /// Vertices whose `seen` (and possibly `global_to_local`) entry the
    /// current call set; drained by [`Workspace::restore`].
    touched: Vec<usize>,
    local_to_global: Vec<usize>,
    /// Local weights, parallel to `local_to_global`.
    w: Vec<f64>,
    /// Local adjacency bitsets (pooled; only the first `h` are live).
    adj: Vec<BitSet>,
    /// Local indices concatenated per group; `group_starts` delimits.
    group_members: Vec<usize>,
    group_starts: Vec<usize>,
    /// Scratch for grouping: `(group id, local index)` pairs and run
    /// bounds `(start, len)`.
    keyed: Vec<(usize, usize)>,
    runs: Vec<(usize, usize)>,
    /// Availability set per search depth.
    avail_stack: Vec<BitSet>,
    best: Vec<usize>,
    current: Vec<usize>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// [`solve_grouped`] against this workspace's reusable buffers,
    /// returning an allocated [`WeightedSet`].
    pub fn solve_grouped(
        &mut self,
        graph: &Graph,
        weights: &[f64],
        allowed: &[usize],
        group_of: &[usize],
    ) -> WeightedSet {
        let mut vertices = Vec::new();
        self.solve_grouped_into(graph, weights, allowed, group_of, &mut vertices);
        WeightedSet::from_vertices(vertices, weights)
    }

    /// Core solver: writes the optimum (sorted ascending) into `out` and
    /// returns its weight. `out` is cleared first; beyond `out`'s own
    /// growth, no allocation happens once the workspace is warm.
    ///
    /// # Panics
    ///
    /// As [`solve_grouped`].
    pub fn solve_grouped_into(
        &mut self,
        graph: &Graph,
        weights: &[f64],
        allowed: &[usize],
        group_of: &[usize],
        out: &mut Vec<usize>,
    ) -> f64 {
        assert_eq!(weights.len(), graph.n(), "weight vector length");
        assert_eq!(group_of.len(), graph.n(), "group vector length");
        out.clear();
        // A no-op unless the previous call panicked mid-way (duplicate or
        // out-of-range vertex) and left its marks behind.
        self.restore();
        if self.n != graph.n() {
            self.n = graph.n();
            self.seen.clear();
            self.seen.resize(self.n, false);
            self.global_to_local.clear();
            self.global_to_local.resize(self.n, usize::MAX);
        }
        let weight = self.solve_marked(graph, weights, allowed, group_of, out);
        self.restore();
        weight
    }

    /// Clears the `seen`/`global_to_local` entries listed in `touched`,
    /// returning both maps to all-clear in `O(touched)`.
    fn restore(&mut self) {
        for v in self.touched.drain(..) {
            self.seen[v] = false;
            self.global_to_local[v] = usize::MAX;
        }
    }

    /// Body of [`Workspace::solve_grouped_into`] on all-clear, correctly
    /// sized maps; every map entry it writes is listed in `touched`.
    fn solve_marked(
        &mut self,
        graph: &Graph,
        weights: &[f64],
        allowed: &[usize],
        group_of: &[usize],
        out: &mut Vec<usize>,
    ) -> f64 {
        // Local indexing of allowed vertices with positive weight.
        self.local_to_global.clear();
        self.w.clear();
        for &v in allowed {
            assert!(v < graph.n(), "vertex out of range");
            assert!(!self.seen[v], "duplicate vertex in allowed set");
            self.seen[v] = true;
            self.touched.push(v);
            if weights[v] > 0.0 {
                self.local_to_global.push(v);
                self.w.push(weights[v]);
            }
        }
        let h = self.local_to_global.len();
        if h == 0 {
            return 0.0;
        }
        for (i, &v) in self.local_to_global.iter().enumerate() {
            self.global_to_local[v] = i;
        }

        // Local adjacency bitsets from the pool.
        if self.adj.len() < h {
            self.adj.resize_with(h, || BitSet::new(0));
        }
        for (i, &v) in self.local_to_global.iter().enumerate() {
            let row = &mut self.adj[i];
            row.reset(h);
            for &u in graph.neighbors(v) {
                let j = self.global_to_local[u];
                if j != usize::MAX {
                    row.insert(j);
                }
            }
        }

        // Group local indices: sort (group, index) pairs so each group is
        // a contiguous run with members in weight-descending order, then
        // order the runs by their best member's weight descending (good
        // incumbents early). All on reused scratch — no maps.
        let w = &self.w;
        self.keyed.clear();
        self.keyed
            .extend((0..h).map(|i| (group_of[self.local_to_global[i]], i)));
        self.keyed.sort_unstable_by(|&(ga, a), &(gb, b)| {
            ga.cmp(&gb)
                .then_with(|| w[b].partial_cmp(&w[a]).expect("finite weights"))
        });
        self.runs.clear();
        let mut start = 0;
        for i in 1..=h {
            if i == h || self.keyed[i].0 != self.keyed[start].0 {
                self.runs.push((start, i - start));
                start = i;
            }
        }
        self.runs.sort_unstable_by(|&(sa, _), &(sb, _)| {
            let (a, b) = (self.keyed[sa].1, self.keyed[sb].1);
            w[b].partial_cmp(&w[a]).expect("finite weights")
        });
        self.group_members.clear();
        self.group_starts.clear();
        self.group_starts.push(0);
        for &(start, len) in &self.runs {
            self.group_members
                .extend(self.keyed[start..start + len].iter().map(|&(_, i)| i));
            self.group_starts.push(self.group_members.len());
        }
        let n_groups = self.group_starts.len() - 1;

        #[cfg(debug_assertions)]
        for g in 0..n_groups {
            let members = &self.group_members[self.group_starts[g]..self.group_starts[g + 1]];
            for (x, &a) in members.iter().enumerate() {
                for &b in &members[x + 1..] {
                    debug_assert!(
                        self.adj[a].contains(b),
                        "group members must form a clique: {} vs {}",
                        self.local_to_global[a],
                        self.local_to_global[b]
                    );
                }
            }
        }

        // Per-depth availability sets (depth d enters group d). Only the
        // root needs initializing: every deeper slot is fully overwritten
        // by `copy_from` before the search reads it.
        if self.avail_stack.len() < n_groups + 1 {
            self.avail_stack
                .resize_with(n_groups + 1, || BitSet::new(0));
        }
        self.avail_stack[0].reset(h);
        self.avail_stack[0].fill();

        self.best.clear();
        self.current.clear();
        let mut search = Search {
            adj: &self.adj[..h],
            w: &self.w,
            group_members: &self.group_members,
            group_starts: &self.group_starts,
            stack: &mut self.avail_stack[..n_groups + 1],
            best: &mut self.best,
            current: &mut self.current,
            best_weight: 0.0,
        };
        search.branch(0, 0.0);

        out.extend(self.best.iter().map(|&i| self.local_to_global[i]));
        out.sort_unstable();
        out.iter().map(|&v| weights[v]).sum()
    }
}

/// Borrowed view of the workspace during one branch-and-bound run.
struct Search<'a> {
    adj: &'a [BitSet],
    w: &'a [f64],
    group_members: &'a [usize],
    group_starts: &'a [usize],
    /// `stack[d]` is the availability set when entering group `d`.
    stack: &'a mut [BitSet],
    best: &'a mut Vec<usize>,
    current: &'a mut Vec<usize>,
    best_weight: f64,
}

impl<'a> Search<'a> {
    fn members(&self, g: usize) -> &'a [usize] {
        &self.group_members[self.group_starts[g]..self.group_starts[g + 1]]
    }

    fn branch(&mut self, gi: usize, current_weight: f64) {
        let n_groups = self.group_starts.len() - 1;
        if gi == n_groups {
            if current_weight > self.best_weight {
                self.best_weight = current_weight;
                self.best.clear();
                self.best.extend_from_slice(self.current);
            }
            return;
        }
        // Upper bound: current + best available member of every remaining
        // group (inter-group conflicts ignored — admissible). Members are
        // weight-sorted descending: first available is best.
        let mut bound = current_weight;
        for g in gi..n_groups {
            if let Some(&m) = self
                .members(g)
                .iter()
                .find(|&&m| self.stack[gi].contains(m))
            {
                bound += self.w[m];
            }
        }
        if bound <= self.best_weight {
            return;
        }
        // Branch: select each available member (descending weight)…
        for &m in self.members(gi) {
            if !self.stack[gi].contains(m) {
                continue;
            }
            {
                let (head, tail) = self.stack.split_at_mut(gi + 1);
                let next = &mut tail[0];
                next.copy_from(&head[gi]);
                next.subtract(&self.adj[m]);
                next.remove(m);
            }
            self.current.push(m);
            self.branch(gi + 1, current_weight + self.w[m]);
            self.current.pop();
        }
        // …or skip the group entirely.
        {
            let (head, tail) = self.stack.split_at_mut(gi + 1);
            tail[0].copy_from(&head[gi]);
        }
        self.branch(gi + 1, current_weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::{topology, ExtendedConflictGraph};

    /// Reference DP for MWIS on a path graph.
    fn path_dp(weights: &[f64]) -> f64 {
        let mut take = 0.0f64;
        let mut skip = 0.0f64;
        for &w in weights {
            let new_take = skip + w.max(0.0);
            let new_skip = take.max(skip);
            take = new_take;
            skip = new_skip;
        }
        take.max(skip)
    }

    /// Brute force by subset enumeration (n ≤ 20).
    fn brute_force(graph: &Graph, weights: &[f64]) -> f64 {
        let n = graph.n();
        assert!(n <= 20);
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            if graph.is_independent(&set) {
                let w: f64 = set.iter().map(|&v| weights[v]).sum();
                best = best.max(w);
            }
        }
        best
    }

    #[test]
    fn path_matches_dp() {
        let w = [4.0, 5.0, 3.0, 7.0, 2.0, 9.0];
        let g = topology::line(w.len());
        let s = solve(&g, &w);
        assert_eq!(s.weight, path_dp(&w));
        assert!(g.is_independent(&s.vertices));
    }

    #[test]
    fn single_vertex() {
        let g = Graph::new(1);
        let s = solve(&g, &[3.0]);
        assert_eq!(s.vertices, vec![0]);
        assert_eq!(s.weight, 3.0);
    }

    #[test]
    fn zero_weights_are_never_selected() {
        let g = topology::independent(3);
        let s = solve(&g, &[0.0, 1.0, 0.0]);
        assert_eq!(s.vertices, vec![1]);
    }

    #[test]
    fn complete_graph_takes_heaviest() {
        let g = topology::complete(5);
        let s = solve(&g, &[1.0, 9.0, 3.0, 4.0, 2.0]);
        assert_eq!(s.vertices, vec![1]);
        assert_eq!(s.weight, 9.0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..40 {
            let n = rng.gen_range(1..=12);
            let p = rng.gen_range(0.1..0.7);
            let mut g = Graph::builder(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen::<f64>() < p {
                        g.add_edge(u, v);
                    }
                }
            }
            let g = g.build();
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let s = solve(&g, &w);
            let bf = brute_force(&g, &w);
            assert!(
                (s.weight - bf).abs() < 1e-9,
                "trial {trial}: bb {} vs brute {bf}",
                s.weight
            );
            assert!(g.is_independent(&s.vertices));
        }
    }

    #[test]
    fn grouped_matches_ungrouped_on_h() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let g = topology::ring(5);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let groups: Vec<usize> = (0..h.n_vertices()).map(|v| v / 3).collect();
        let allowed: Vec<usize> = (0..h.n_vertices()).collect();
        let grouped = solve_grouped(h.graph(), &w, &allowed, &groups);
        let plain = solve(h.graph(), &w);
        assert!((grouped.weight - plain.weight).abs() < 1e-9);
        assert!(h.graph().is_independent(&grouped.vertices));
    }

    #[test]
    fn subset_restriction_is_respected() {
        let g = topology::line(5);
        let w = [10.0, 1.0, 10.0, 1.0, 10.0];
        let s = solve_subset(&g, &w, &[1, 2, 3]);
        assert_eq!(s.vertices, vec![2]);
        assert_eq!(s.weight, 10.0);
    }

    #[test]
    fn empty_allowed_set_gives_empty_result() {
        let g = topology::line(3);
        let s = solve_subset(&g, &[1.0, 1.0, 1.0], &[]);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_allowed_vertices_panic() {
        let g = topology::line(3);
        let _ = solve_subset(&g, &[1.0; 3], &[0, 0]);
    }

    #[test]
    fn workspace_reuse_matches_one_shot_across_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        for trial in 0..30 {
            // Vary the size so the workspace is exercised across resizes.
            let n = rng.gen_range(1..=11);
            let p = rng.gen_range(0.1..0.7);
            let mut g = Graph::builder(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen::<f64>() < p {
                        g.add_edge(u, v);
                    }
                }
            }
            let g = g.build();
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let allowed: Vec<usize> = (0..n).collect();
            let singleton: Vec<usize> = (0..n).collect();
            let fresh = solve_grouped(&g, &w, &allowed, &singleton);
            let weight = ws.solve_grouped_into(&g, &w, &allowed, &singleton, &mut out);
            assert_eq!(out, fresh.vertices, "trial {trial}");
            assert!((weight - fresh.weight).abs() < 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn workspace_maps_are_all_clear_between_calls() {
        let g = topology::line(6);
        let groups: Vec<usize> = (0..6).collect();
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        let w = [1.0, -2.0, 3.0, 0.0, 5.0, 1.0];
        // A solved subset, then one with no positive weight (the early
        // return), then the empty set.
        for allowed in [&[0, 2, 4, 5][..], &[1, 3], &[]] {
            ws.solve_grouped_into(&g, &w, allowed, &groups, &mut out);
            assert!(ws.seen.iter().all(|&s| !s), "{allowed:?}");
            assert!(ws.global_to_local.iter().all(|&l| l == usize::MAX));
            assert!(ws.touched.is_empty());
        }
    }

    #[test]
    fn fifteen_by_three_ground_truth_is_tractable() {
        // The Fig. 7 scale: 15 users × 3 channels. Must solve quickly.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(15);
        let (g, _) =
            mhca_graph::unit_disk::random_connected_with_average_degree(15, 4.0, 100, &mut rng)
                .unwrap();
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let groups: Vec<usize> = (0..h.n_vertices()).map(|v| v / 3).collect();
        let allowed: Vec<usize> = (0..h.n_vertices()).collect();
        let s = solve_grouped(h.graph(), &w, &allowed, &groups);
        assert!(h.graph().is_independent(&s.vertices));
        assert!(s.weight > 0.0);
    }
}
