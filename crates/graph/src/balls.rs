//! Precomputed `r`-hop neighborhood tables.
//!
//! The conflict graph is static across a whole simulation horizon, so any
//! TTL-bounded flood on it reaches a fixed set of vertices at fixed hop
//! distances. [`BallTable`] precomputes, for one radius, every vertex's
//! ball `J_{G,r}(v) \ {v}` together with the hop distance of each member —
//! turning the per-round BFS of the flood engine into a contiguous table
//! scan. Entries are stored CSR-style (one flat array plus offsets), in
//! BFS order (non-decreasing distance), which is exactly the delivery
//! order of a synchronous flood wave.

use crate::graph::Graph;
use std::ops::ControlFlow;

/// Reusable scratch for bounded BFS from many origins — the one ball
/// kernel behind [`BallTable`], [`CompactBallTable`],
/// [`Graph::r_hop_neighborhood`] and the distributed decider's
/// neighborhood tables.
///
/// Visit marks are epoch-stamped: a vertex counts as visited in the
/// current scan iff its stamp equals the current epoch, so starting a scan
/// costs `O(1)` instead of an `O(n)` reset. One scan costs `O(|ball| +
/// edges incident to the ball's interior)`; the `O(n)` mark array is
/// allocated once per graph size.
///
/// # Example
///
/// ```
/// use mhca_graph::{topology, BallScan};
///
/// let g = topology::line(5); // 0 — 1 — 2 — 3 — 4
/// let mut scan = BallScan::default(); // one scratch for every origin
/// let mut ball = Vec::new();
/// scan.for_each(&g, 2, 2, |v, d| ball.push((v, d)));
/// assert_eq!(ball, vec![(1, 1), (3, 1), (0, 2), (4, 2)]);
/// ball.clear();
/// scan.for_each(&g, 4, 1, |v, d| ball.push((v, d)));
/// assert_eq!(ball, vec![(3, 1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BallScan {
    stamp: Vec<u32>,
    /// The current scan's BFS queue, never popped: the origin, then each
    /// distance level as a contiguous run.
    queue: Vec<usize>,
    epoch: u32,
}

impl BallScan {
    /// Visits the members of `origin`'s `radius`-hop ball, origin
    /// excluded, in BFS order (non-decreasing distance, each member once,
    /// neighbors in adjacency order), calling `visit(member, distance)`.
    /// Stops as soon as `visit` breaks, and returns its verdict.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn try_for_each<F>(
        &mut self,
        graph: &Graph,
        origin: usize,
        radius: usize,
        mut visit: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(usize, u32) -> ControlFlow<()>,
    {
        let n = graph.n();
        if self.stamp.len() != n {
            self.stamp = vec![0; n];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let (stamp, queue, epoch) = (&mut self.stamp, &mut self.queue, self.epoch);
        stamp[origin] = epoch;
        queue.clear();
        queue.push(origin);
        // Expanding level `d − 1` in queue order yields level `d` in the
        // order a FIFO BFS would.
        let mut level = 0..1;
        let mut d = 0u32;
        while !level.is_empty() && (d as usize) < radius {
            d += 1;
            for i in level.clone() {
                for &w in graph.neighbors(queue[i]) {
                    if stamp[w] != epoch {
                        stamp[w] = epoch;
                        visit(w, d)?;
                        queue.push(w);
                    }
                }
            }
            level = level.end..queue.len();
        }
        ControlFlow::Continue(())
    }

    /// As [`BallScan::try_for_each`], visiting every member.
    pub fn for_each(
        &mut self,
        graph: &Graph,
        origin: usize,
        radius: usize,
        mut visit: impl FnMut(usize, u32),
    ) {
        let _ = self.try_for_each(graph, origin, radius, |w, d| {
            visit(w, d);
            ControlFlow::Continue(())
        });
    }
}

/// One ball member: `(vertex, hop distance from the origin)`.
///
/// Distances are at least 1 (the origin itself is not stored) and at most
/// the table's radius.
pub type BallEntry = (u32, u32);

/// All `r`-hop balls of a graph for one fixed radius.
///
/// # Example
///
/// ```
/// use mhca_graph::{topology, BallTable};
///
/// let g = topology::line(5); // 0 — 1 — 2 — 3 — 4
/// let t = BallTable::build(&g, 2);
/// let ball: Vec<_> = t.ball(0).to_vec();
/// assert_eq!(ball, vec![(1, 1), (2, 2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallTable {
    radius: usize,
    /// `offsets[v]..offsets[v + 1]` delimits `v`'s entries.
    offsets: Vec<usize>,
    /// Ball members in BFS (non-decreasing distance) order, origins
    /// excluded.
    entries: Vec<BallEntry>,
}

impl BallTable {
    /// Precomputes every vertex's `radius`-hop ball of `graph`.
    ///
    /// Cost: one [`BallScan`] per vertex on shared, epoch-stamped scratch
    /// — `O(n + Σ_v (|J_r(v)| + edges incident to J_{r−1}(v)))` time (no
    /// per-origin `O(n)` reset), `Σ_v |J_r(v)| − n` entries of storage.
    /// On bounded-degree graphs that is `O(n · ball)`, linear in `n` at a
    /// fixed radius.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` vertices.
    pub fn build(graph: &Graph, radius: usize) -> Self {
        Self::build_capped(graph, radius, usize::MAX)
            .expect("uncapped BallTable build cannot overflow")
    }

    /// As [`BallTable::build`], but gives up — returning `None` — as soon
    /// as the table would exceed `max_entries` total entries.
    ///
    /// On dense graphs with large TTLs the saturated table is
    /// `O(n²)` entries; callers with a memory budget (the flood engine's
    /// large-N path) probe with a cap and fall back to per-flood BFS when
    /// the build bails out. The partial work is discarded, so a failed
    /// probe costs at most `O(max_entries)` time.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` vertices.
    pub fn build_capped(graph: &Graph, radius: usize, max_entries: usize) -> Option<Self> {
        let n = graph.n();
        assert!(u32::try_from(n).is_ok(), "graph too large for BallTable");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        let mut scan = BallScan::default();
        for origin in 0..n {
            let capped = scan.try_for_each(graph, origin, radius, |w, d| {
                if entries.len() == max_entries {
                    return ControlFlow::Break(());
                }
                entries.push((w as u32, d));
                ControlFlow::Continue(())
            });
            if capped.is_break() {
                return None;
            }
            offsets.push(entries.len());
        }
        Some(BallTable {
            radius,
            offsets,
            entries,
        })
    }

    /// The radius this table was built for.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of vertices covered.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `v`'s ball members (origin excluded) in BFS order: non-decreasing
    /// distance, each member exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn ball(&self, v: usize) -> &[BallEntry] {
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Number of entries across all balls (storage diagnostic).
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }
}

/// Largest vertex id a [`CompactBallTable`] can encode (24 bits).
pub const COMPACT_MAX_VERTEX: usize = (1 << 24) - 1;

/// Largest hop distance a [`CompactBallTable`] can encode (8 bits).
pub const COMPACT_MAX_DISTANCE: usize = u8::MAX as usize;

/// A packed ball-member word: vertex in the high 24 bits, hop distance in
/// the low 8. Decode with [`CompactBallTable::entry_vertex`] /
/// [`CompactBallTable::entry_distance`].
pub type CompactEntry = u32;

/// [`BallTable`] in half the memory: each `(vertex, distance)` pair packs
/// into one `u32` — vertex in the high 24 bits, distance in the low 8.
///
/// The flood engine's lossless fast path is a pure table scan, and at
/// large N it is memory-bound: halving the entry width doubles how much
/// of the graph fits under the engine's table-memory cap before floods
/// degrade to per-flood BFS. Entries keep the same BFS
/// (non-decreasing-distance) order as [`BallTable`], and because the
/// distance lives in the low bits, the "members still holding TTL budget"
/// prefix is still one `partition_point` over the raw words.
///
/// The packing limits tables to `2^24` vertices and hop distance 255;
/// [`CompactBallTable::build_capped`] returns `None` beyond either limit,
/// which callers treat exactly like a blown memory cap (BFS fallback).
///
/// # Example
///
/// ```
/// use mhca_graph::{topology, CompactBallTable};
///
/// let g = topology::line(5); // 0 — 1 — 2 — 3 — 4
/// let t = CompactBallTable::build_capped(&g, 2, usize::MAX).unwrap();
/// let ball = t.ball_packed(0);
/// assert_eq!(ball.len(), 2);
/// assert_eq!(CompactBallTable::entry_vertex(ball[0]), 1);
/// assert_eq!(CompactBallTable::entry_distance(ball[1]), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactBallTable {
    radius: usize,
    /// `offsets[v]..offsets[v + 1]` delimits `v`'s entries.
    offsets: Vec<usize>,
    /// Packed ball members in BFS (non-decreasing distance) order,
    /// origins excluded.
    entries: Vec<CompactEntry>,
}

impl CompactBallTable {
    /// Vertex id of a packed entry.
    #[inline]
    pub fn entry_vertex(e: CompactEntry) -> usize {
        (e >> 8) as usize
    }

    /// Hop distance of a packed entry.
    #[inline]
    pub fn entry_distance(e: CompactEntry) -> usize {
        (e & 0xff) as usize
    }

    /// As [`BallTable::build_capped`], in the packed layout: `None` when
    /// the build would exceed `max_entries` total entries, when the graph
    /// has more than [`COMPACT_MAX_VERTEX`] + 1 vertices, or when the
    /// effective radius exceeds [`COMPACT_MAX_DISTANCE`] — all three are
    /// "this radius cannot be table-served" to the flood engine.
    pub fn build_capped(graph: &Graph, radius: usize, max_entries: usize) -> Option<Self> {
        let n = graph.n();
        if n > COMPACT_MAX_VERTEX + 1 || radius.min(n) > COMPACT_MAX_DISTANCE {
            return None;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut entries: Vec<CompactEntry> = Vec::new();
        let mut scan = BallScan::default();
        for origin in 0..n {
            let capped = scan.try_for_each(graph, origin, radius, |w, d| {
                if entries.len() == max_entries {
                    return ControlFlow::Break(());
                }
                entries.push(((w as u32) << 8) | d);
                ControlFlow::Continue(())
            });
            if capped.is_break() {
                return None;
            }
            offsets.push(entries.len());
        }
        Some(CompactBallTable {
            radius,
            offsets,
            entries,
        })
    }

    /// The radius this table was built for.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of vertices covered.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `v`'s packed ball members (origin excluded) in BFS order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn ball_packed(&self, v: usize) -> &[CompactEntry] {
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Number of entries across all balls (each entry is 4 bytes — half a
    /// [`BallTable`] entry).
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Length of the prefix of `v`'s ball whose members sit strictly
    /// closer than `ttl` hops — the members that relay in a TTL-`ttl`
    /// flood. One `partition_point` over the packed words (distances are
    /// non-decreasing and live in the low bits).
    pub fn relays_within(&self, v: usize, ttl: usize) -> usize {
        self.ball_packed(v)
            .partition_point(|&e| Self::entry_distance(e) < ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph::Graph, topology};

    #[test]
    fn matches_fresh_bfs_on_grid() {
        let g = topology::grid(4, 5);
        for r in 0..5 {
            let t = BallTable::build(&g, r);
            for v in 0..g.n() {
                let dist = g.bfs_distances(v);
                let mut expect: Vec<(u32, u32)> = dist
                    .iter()
                    .enumerate()
                    .filter_map(|(u, d)| {
                        d.filter(|&d| d >= 1 && d <= r)
                            .map(|d| (u as u32, d as u32))
                    })
                    .collect();
                let mut got = t.ball(v).to_vec();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect, "v={v} r={r}");
            }
        }
    }

    #[test]
    fn reused_scan_survives_epoch_wrap_and_graph_change() {
        let collect = |scan: &mut BallScan, g: &Graph, v: usize, r: usize| {
            let mut ball = Vec::new();
            scan.for_each(g, v, r, |w, d| ball.push((w as u32, d)));
            ball
        };
        let (small, large) = (topology::grid(3, 4), topology::grid(5, 6));
        let mut scan = BallScan::default();
        // Stamp every vertex with epoch 1, then wrap back round to it on
        // the second scan below: the stale stamps must not alias.
        collect(&mut scan, &small, 0, small.n());
        scan.epoch = u32::MAX - 1;
        for g in [&small, &large, &small] {
            for v in 0..g.n() {
                let fresh = collect(&mut BallScan::default(), g, v, 2);
                assert_eq!(collect(&mut scan, g, v, 2), fresh, "v={v}");
                assert_eq!(fresh.as_slice(), BallTable::build(g, 2).ball(v));
            }
        }
    }

    #[test]
    fn entries_are_in_bfs_order() {
        let g = topology::grid(3, 6);
        let t = BallTable::build(&g, 4);
        for v in 0..g.n() {
            let ds: Vec<u32> = t.ball(v).iter().map(|&(_, d)| d).collect();
            assert!(ds.windows(2).all(|w| w[0] <= w[1]), "v={v}: {ds:?}");
        }
    }

    #[test]
    fn radius_zero_means_empty_balls() {
        let g = topology::complete(4);
        let t = BallTable::build(&g, 0);
        for v in 0..4 {
            assert!(t.ball(v).is_empty());
        }
        assert_eq!(t.total_entries(), 0);
    }

    #[test]
    fn capped_build_bails_out_or_matches() {
        let g = topology::grid(4, 5);
        let full = BallTable::build(&g, 3);
        // A cap at the exact size succeeds and matches the uncapped build.
        let fits = BallTable::build_capped(&g, 3, full.total_entries()).unwrap();
        assert_eq!(fits, full);
        // One entry less must bail out.
        assert!(BallTable::build_capped(&g, 3, full.total_entries() - 1).is_none());
        assert!(BallTable::build_capped(&g, 3, 0).is_none());
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let t = BallTable::build(&g, 10);
        assert_eq!(t.ball(0), &[(1, 1)]);
        assert_eq!(t.ball(4), &[]);
    }

    #[test]
    fn compact_table_decodes_to_the_wide_table() {
        for (g, r) in [
            (topology::grid(4, 5), 3),
            (topology::line(9), 4),
            (topology::complete(6), 2),
        ] {
            let wide = BallTable::build(&g, r);
            let compact = CompactBallTable::build_capped(&g, r, usize::MAX).unwrap();
            assert_eq!(compact.n(), wide.n());
            assert_eq!(compact.radius(), wide.radius());
            assert_eq!(compact.total_entries(), wide.total_entries());
            for v in 0..g.n() {
                let decoded: Vec<(u32, u32)> = compact
                    .ball_packed(v)
                    .iter()
                    .map(|&e| {
                        (
                            CompactBallTable::entry_vertex(e) as u32,
                            CompactBallTable::entry_distance(e) as u32,
                        )
                    })
                    .collect();
                assert_eq!(decoded.as_slice(), wide.ball(v), "v={v}");
            }
        }
    }

    #[test]
    fn compact_relays_within_matches_wide_partition_point() {
        let g = topology::grid(3, 6);
        let r = 4;
        let wide = BallTable::build(&g, r);
        let compact = CompactBallTable::build_capped(&g, r, usize::MAX).unwrap();
        for v in 0..g.n() {
            for ttl in 0..=r + 1 {
                let expect = wide.ball(v).partition_point(|&(_, d)| (d as usize) < ttl);
                assert_eq!(compact.relays_within(v, ttl), expect, "v={v} ttl={ttl}");
            }
        }
    }

    #[test]
    fn compact_capped_build_bails_out_like_the_wide_one() {
        let g = topology::grid(4, 5);
        let full = CompactBallTable::build_capped(&g, 3, usize::MAX).unwrap();
        let fits = CompactBallTable::build_capped(&g, 3, full.total_entries()).unwrap();
        assert_eq!(fits, full);
        assert!(CompactBallTable::build_capped(&g, 3, full.total_entries() - 1).is_none());
        assert!(CompactBallTable::build_capped(&g, 3, 0).is_none());
    }

    #[test]
    fn compact_build_refuses_oversized_radius() {
        // Effective radius is min(radius, n): a huge nominal radius on a
        // small graph still encodes, a genuinely deep graph would not.
        let g = topology::line(5);
        assert!(CompactBallTable::build_capped(&g, usize::MAX, usize::MAX).is_some());
        let deep = topology::line(300);
        assert!(CompactBallTable::build_capped(&deep, 299, usize::MAX).is_none());
        assert!(CompactBallTable::build_capped(&deep, 200, usize::MAX).is_some());
    }
}
