//! Bounded-radius BFS balls.
//!
//! The conflict graph is static across a whole simulation horizon, so any
//! TTL-bounded flood on it reaches a fixed set of vertices at fixed hop
//! distances: the ball `J_{G,r}(v) \ {v}`. [`BallScan`] visits one ball
//! in BFS order (non-decreasing distance), which is exactly the delivery
//! order of a synchronous flood wave; callers that precompute per-vertex
//! tables run one scan per origin on shared scratch.

use crate::graph::Graph;
use std::ops::ControlFlow;

/// Reusable scratch for bounded BFS from many origins — the one ball
/// kernel behind [`Graph::r_hop_neighborhood`], the distributed decider's
/// neighborhood tables and the flood engine's relay tables.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph::Graph, topology};

    /// `v`'s `r`-ball members with their distances, in visit order.
    fn ball(g: &Graph, v: usize, r: usize) -> Vec<(u32, u32)> {
        let mut ball = Vec::new();
        BallScan::default().for_each(g, v, r, |w, d| ball.push((w as u32, d)));
        ball
    }

    #[test]
    fn matches_fresh_bfs_on_grid() {
        let g = topology::grid(4, 5);
        for r in 0..5 {
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
                let mut got = ball(&g, v, r);
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
                assert_eq!(collect(&mut scan, g, v, 2), ball(g, v, 2), "v={v}");
            }
        }
    }

    #[test]
    fn visits_are_in_bfs_order() {
        let g = topology::grid(3, 6);
        for v in 0..g.n() {
            let ds: Vec<u32> = ball(&g, v, 4).iter().map(|&(_, d)| d).collect();
            assert!(ds.windows(2).all(|w| w[0] <= w[1]), "v={v}: {ds:?}");
        }
    }

    #[test]
    fn radius_zero_means_empty_balls() {
        let g = topology::complete(4);
        for v in 0..4 {
            assert!(ball(&g, v, 0).is_empty());
        }
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        assert_eq!(ball(&g, 0, 10), [(1, 1)]);
        assert_eq!(ball(&g, 4, 10), []);
    }
}
