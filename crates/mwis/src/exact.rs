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
//!
//! # Group-ordered bit masks
//!
//! Each call relabels its `h` positive-weight allowed vertices into
//! *group order*: groups sorted by their best member's weight, members
//! of a group by weight, both descending, and position `k` is the `k`-th
//! member in that order. A group is then a contiguous run of bit
//! positions with its best member lowest. Taking position `k` leaves
//! `avail & !adj[k]`, and the best available member of every remaining
//! group — the bound's terms — comes out of one subtract per mask word
//! (see `Search::branch`). Masks are `h.div_ceil(64)` words; the search
//! is compiled for a constant single word, which every LocalLeader solve
//! of the simulated workloads fits, and for a runtime word count.
//!
//! The search runs over *segments*: a group's positions within one mask
//! word (a group crossing a word boundary is two segments). Since a
//! group is a clique, splitting it leaves the leaves and their DFS order
//! unchanged and only adds terms to the bound, and a larger admissible
//! bound prunes only subtrees that cannot strictly improve the
//! incumbent, so the optimum returned is the same.

use crate::set::WeightedSet;
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

/// `pos` entry of a vertex the current call has not seen.
const UNSEEN: usize = usize::MAX;
/// `pos` entry of an allowed vertex with non-positive weight.
const SKIPPED: usize = usize::MAX - 1;

/// Reusable scratch for the grouped branch-and-bound.
///
/// The LocalLeader path of Algorithm 3 calls the exact solver once per
/// leader per mini-round per slot; with a fresh workspace each call that
/// is a dozen allocations (the position map, the group-ordered adjacency
/// masks, the availability stack) on the hottest loop of the simulator.
/// A `Workspace` owns all of that scratch and reuses it across calls —
/// after warm-up, [`Workspace::solve_grouped_into`] performs no heap
/// allocation.
///
/// The free functions [`solve`], [`solve_subset`], and [`solve_grouped`]
/// remain as one-shot conveniences over a throwaway workspace.
///
/// The `n`-long position map `pos` is all-clear between calls: each call
/// restores only the entries it wrote, listed in `touched`, so a call
/// costs `O(|allowed| + local edges)` rather than `O(n)` — the
/// per-leader cost stays local to the leader's ball. Adjacency rows and
/// availability masks are indexed by *group-ordered position* (see the
/// module docs), one row of `words` `u64`s per position.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per vertex: [`UNSEEN`], [`SKIPPED`], or its group-ordered position.
    pos: Vec<usize>,
    /// Vertices whose `pos` entry the current call set; drained by
    /// [`Workspace::restore`].
    touched: Vec<usize>,
    /// Positive-weight allowed vertices and their weights, in allowed
    /// order (the input of the grouping sort).
    local_to_global: Vec<usize>,
    w: Vec<f64>,
    /// Scratch for grouping: `(group id, local index)` pairs and run
    /// bounds `(start, len)`.
    keyed: Vec<(usize, usize)>,
    runs: Vec<(usize, usize)>,
    /// Vertex and weight at each group-ordered position.
    pos_to_global: Vec<usize>,
    pos_w: Vec<f64>,
    /// Per segment: its mask word and its positions within that word.
    segs: Vec<(usize, u64)>,
    /// Segment of each position.
    seg_of: Vec<usize>,
    /// Per mask word: the lowest and the highest position of each
    /// segment in it.
    seg_lows: Vec<u64>,
    seg_highs: Vec<u64>,
    /// Adjacency masks, `words` per position.
    adj: Vec<u64>,
    /// Availability masks, `words` per search slot.
    stack: Vec<u64>,
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
        if self.pos.len() != graph.n() {
            self.pos.clear();
            self.pos.resize(graph.n(), UNSEEN);
        }
        let weight = self.solve_marked(graph, weights, allowed, group_of, out);
        self.restore();
        weight
    }

    /// Clears the `pos` entries listed in `touched`, returning the map to
    /// all-clear in `O(touched)`.
    fn restore(&mut self) {
        for v in self.touched.drain(..) {
            self.pos[v] = UNSEEN;
        }
    }

    /// Body of [`Workspace::solve_grouped_into`] on an all-clear,
    /// correctly sized map; every map entry it writes is listed in
    /// `touched`.
    fn solve_marked(
        &mut self,
        graph: &Graph,
        weights: &[f64],
        allowed: &[usize],
        group_of: &[usize],
        out: &mut Vec<usize>,
    ) -> f64 {
        // Local indexing of allowed vertices with positive weight, each
        // keyed by its group for the grouping sort.
        self.local_to_global.clear();
        self.w.clear();
        self.keyed.clear();
        for &v in allowed {
            assert!(v < graph.n(), "vertex out of range");
            assert!(self.pos[v] == UNSEEN, "duplicate vertex in allowed set");
            self.pos[v] = SKIPPED;
            self.touched.push(v);
            if weights[v] > 0.0 {
                self.keyed.push((group_of[v], self.local_to_global.len()));
                self.local_to_global.push(v);
                self.w.push(weights[v]);
            }
        }
        let h = self.local_to_global.len();
        if h == 0 {
            return 0.0;
        }

        // Group local indices: sort (group, index) pairs so each group is
        // a contiguous run with members in weight-descending order, then
        // order the runs by their best member's weight descending (good
        // incumbents early). All on reused scratch — no maps.
        let w = &self.w;
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

        // Relabel into group order: position k is the k-th member of the
        // ordered runs; a run is cut into segments at word boundaries.
        let words = h.div_ceil(64);
        self.pos_to_global.clear();
        self.pos_w.clear();
        self.segs.clear();
        self.seg_of.clear();
        self.seg_lows.clear();
        self.seg_lows.resize(words, 0);
        self.seg_highs.clear();
        self.seg_highs.resize(words, 0);
        for &(start, len) in &self.runs {
            for (j, &(_, i)) in self.keyed[start..start + len].iter().enumerate() {
                let k = self.pos_to_global.len();
                let v = self.local_to_global[i];
                self.pos[v] = k;
                self.pos_to_global.push(v);
                self.pos_w.push(w[i]);
                let bit = 1 << (k % 64);
                if j == 0 || k.is_multiple_of(64) {
                    self.segs.push((k / 64, 0));
                    self.seg_lows[k / 64] |= bit;
                }
                if j + 1 == len || (k + 1).is_multiple_of(64) {
                    self.seg_highs[k / 64] |= bit;
                }
                self.segs.last_mut().expect("segment pushed").1 |= bit;
                self.seg_of.push(self.segs.len() - 1);
            }
        }

        // Adjacency masks, built directly in positions.
        self.adj.clear();
        self.adj.resize(h * words, 0);
        for (k, &v) in self.pos_to_global.iter().enumerate() {
            let row = &mut self.adj[k * words..(k + 1) * words];
            for &u in graph.neighbors(v) {
                // Branch-free: a neighbor outside the call sets no bit.
                let j = self.pos[u];
                let inside = j < h;
                let j = if inside { j } else { 0 };
                row[j / 64] |= u64::from(inside) << (j % 64);
            }
        }

        #[cfg(debug_assertions)]
        {
            let mut lo = 0;
            for &(_, len) in &self.runs {
                for a in lo..lo + len {
                    for b in a + 1..lo + len {
                        debug_assert!(
                            self.adj[a * words + b / 64] >> (b % 64) & 1 == 1,
                            "group members must form a clique: {} vs {}",
                            self.pos_to_global[a],
                            self.pos_to_global[b]
                        );
                    }
                }
                lo += len;
            }
        }

        // Availability slots: a member branch writes the next slot, the
        // skip branch reuses its own, so one slot per segment plus the
        // root suffices. Only the root needs initializing: every deeper
        // slot is written before the search reads it.
        self.stack.clear();
        self.stack.resize((self.segs.len() + 1) * words, 0);
        self.stack[..words].fill(u64::MAX);
        self.stack[words - 1] = u64::MAX >> (words * 64 - h);

        self.best.clear();
        self.current.clear();
        match words {
            1 => self.search(OneWord),
            _ => self.search(words),
        }

        out.extend(self.best.iter().map(|&k| self.pos_to_global[k]));
        out.sort_unstable();
        out.iter().map(|&v| weights[v]).sum()
    }

    /// Runs the branch-and-bound from the root slot, leaving the optimum's
    /// positions in `best`.
    fn search<N: Words>(&mut self, words: N) {
        let mut search = Search {
            words,
            adj: &self.adj,
            w: &self.pos_w,
            segs: &self.segs,
            seg_of: &self.seg_of,
            seg_lows: &self.seg_lows,
            seg_highs: &self.seg_highs,
            stack: &mut self.stack,
            best: &mut self.best,
            current: &mut self.current,
            best_weight: 0.0,
        };
        search.branch(0, 0, 0.0);
    }
}

/// The word count of every mask in one search: [`OneWord`], a constant
/// the compiler folds into the search, or a runtime count (`usize`).
trait Words: Copy {
    fn get(self) -> usize;
}

/// Masks of a single word.
#[derive(Debug, Clone, Copy)]
struct OneWord;

impl Words for OneWord {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

impl Words for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// Borrowed view of the workspace during one branch-and-bound run.
struct Search<'a, N> {
    words: N,
    adj: &'a [u64],
    w: &'a [f64],
    segs: &'a [(usize, u64)],
    seg_of: &'a [usize],
    seg_lows: &'a [u64],
    seg_highs: &'a [u64],
    /// Availability slots, `words` each.
    stack: &'a mut [u64],
    best: &'a mut Vec<usize>,
    current: &'a mut Vec<usize>,
    best_weight: f64,
}

impl<N: Words> Search<'_, N> {
    /// Enters segment `si` with the availability mask in `slot`.
    ///
    /// The bound is current + the best available member of every
    /// remaining segment (inter-segment conflicts ignored — admissible),
    /// summed in position order. Per word, with `x` the available
    /// positions, `y = x | highs` has a set bit in every segment, so
    /// `y - lows` borrows only within a segment, up to its lowest set
    /// bit: `x & !(y - lows)` is exactly each segment's lowest available
    /// position, which is its best available member.
    ///
    /// Segments with no available member are passed over in one step:
    /// skipping them one by one would recompute the same bound and reach
    /// the same nodes.
    fn branch(&mut self, si: usize, slot: usize, current_weight: f64) {
        let words = self.words.get();
        let at = slot * words;
        let mut first = None;
        let mut bound = current_weight;
        if let Some(&(word, members)) = self.segs.get(si) {
            let mut from = u64::MAX << members.trailing_zeros();
            for i in word..words {
                let x = self.stack[at + i] & from;
                if first.is_none() && x != 0 {
                    first = Some(i * 64 + x.trailing_zeros() as usize);
                }
                let mut best = x & !((x | self.seg_highs[i]).wrapping_sub(self.seg_lows[i]));
                while best != 0 {
                    bound += self.w[i * 64 + best.trailing_zeros() as usize];
                    best &= best - 1;
                }
                from = u64::MAX;
            }
        }
        let Some(first) = first else {
            // A leaf: nothing left to select.
            if current_weight > self.best_weight {
                self.best_weight = current_weight;
                self.best.clear();
                self.best.extend_from_slice(self.current);
            }
            return;
        };
        if bound <= self.best_weight {
            return;
        }
        let si = self.seg_of[first];
        let (word, members) = self.segs[si];
        // Branch: select each available member (descending weight)…
        let mut avail = self.stack[at + word] & members;
        while avail != 0 {
            let k = word * 64 + avail.trailing_zeros() as usize;
            avail &= avail - 1;
            {
                let (head, tail) = self.stack.split_at_mut(at + words);
                let row = &self.adj[k * words..(k + 1) * words];
                for ((next, &a), &r) in tail[..words].iter_mut().zip(&head[at..]).zip(row) {
                    *next = a & !r;
                }
            }
            self.current.push(k);
            self.branch(si + 1, slot + 1, current_weight + self.w[k]);
            self.current.pop();
        }
        // …or skip the segment entirely.
        self.branch(si + 1, slot, current_weight);
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
            assert!(ws.pos.iter().all(|&p| p == UNSEEN), "{allowed:?}");
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
