//! Communication-complexity accounting.

/// Counters accumulated by a [`crate::FloodEngine`] across deliveries.
///
/// * `transmissions` — local wireless broadcasts performed (one per
///   relaying vertex per flood). The paper's per-vertex communication
///   complexity `O(r² + D)` is checked against
///   `per_vertex_tx` in the `complexity` campaign scenario.
/// * `delivered` — (vertex, message) reception pairs.
/// * `timeslots` — pipelined mini-timeslots: each call to
///   [`crate::FloodEngine::broadcast_only`] or
///   [`crate::FloodEngine::deliver_receivers_into`] advances time by the
///   largest TTL in the batch (floods in one batch propagate concurrently,
///   as in the paper's pipelined weight broadcast), saturating at
///   `u64::MAX`.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Counters {
    /// Total relay broadcasts.
    pub transmissions: u64,
    /// Total received message copies.
    pub delivered: u64,
    /// Pipelined mini-timeslots elapsed.
    pub timeslots: u64,
    /// Per-vertex relay broadcast counts.
    pub per_vertex_tx: Vec<u64>,
}

/// Hand-written so `clone_from` reuses the per-vertex storage — the round
/// loop snapshots counters into a caller-owned outcome every slot, and the
/// derived `clone_from` would reallocate the vector each time.
impl Clone for Counters {
    fn clone(&self) -> Self {
        Counters {
            transmissions: self.transmissions,
            delivered: self.delivered,
            timeslots: self.timeslots,
            per_vertex_tx: self.per_vertex_tx.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.transmissions = source.transmissions;
        self.delivered = source.delivered;
        self.timeslots = source.timeslots;
        self.per_vertex_tx.clear();
        self.per_vertex_tx.extend_from_slice(&source.per_vertex_tx);
    }
}

impl Counters {
    /// Zeroed counters for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Counters {
            transmissions: 0,
            delivered: 0,
            timeslots: 0,
            per_vertex_tx: vec![0; n],
        }
    }

    /// Maximum relay broadcasts charged to any single vertex.
    pub fn max_per_vertex_tx(&self) -> u64 {
        self.per_vertex_tx.iter().copied().max().unwrap_or(0)
    }

    /// Mean relay broadcasts per vertex.
    pub fn mean_per_vertex_tx(&self) -> f64 {
        if self.per_vertex_tx.is_empty() {
            0.0
        } else {
            self.transmissions as f64 / self.per_vertex_tx.len() as f64
        }
    }

    /// Resets all counts to zero, keeping the vertex count and reusing
    /// the per-vertex storage (no allocation).
    pub fn reset(&mut self) {
        self.transmissions = 0;
        self.delivered = 0;
        self.timeslots = 0;
        self.per_vertex_tx.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let c = Counters::new(3);
        assert_eq!(c.transmissions, 0);
        assert_eq!(c.per_vertex_tx, vec![0, 0, 0]);
        assert_eq!(c.max_per_vertex_tx(), 0);
        assert_eq!(c.mean_per_vertex_tx(), 0.0);
    }

    #[test]
    fn stats_reflect_counts() {
        let mut c = Counters::new(2);
        c.transmissions = 6;
        c.per_vertex_tx = vec![2, 4];
        assert_eq!(c.max_per_vertex_tx(), 4);
        assert_eq!(c.mean_per_vertex_tx(), 3.0);
    }

    #[test]
    fn reset_keeps_size() {
        let mut c = Counters::new(4);
        c.transmissions = 10;
        c.per_vertex_tx[1] = 5;
        c.reset();
        assert_eq!(c, Counters::new(4));
    }
}
