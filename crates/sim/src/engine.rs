//! TTL-limited flood delivery.
//!
//! The engine is **long-lived and allocation-free in steady state**: it is
//! built once per graph, keeps epoch-stamped BFS scratch for the lossy
//! path, and precomputes packed [`CompactBallTable`] r-hop neighborhood
//! tables for the lossless path (the conflict graph is static across a whole horizon, so
//! a TTL-bounded lossless flood is a table scan, not a BFS). Callers on
//! the hot path use [`FloodEngine::deliver_into`] with reusable inboxes,
//! or [`FloodEngine::deliver_receivers_into`] when only *who* heard each
//! flood matters; [`FloodEngine::deliver`] remains as an allocating
//! convenience.

use crate::counters::Counters;
use crate::loss::SkipSampler;
use mhca_graph::{CompactBallTable, Graph};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Declarative loss-model knob for spec-driven experiment construction:
/// `prob = 0` is lossless delivery, `prob > 0` drops each relay broadcast
/// independently with that probability, drawn from a counter-based
/// per-flood stream keyed by `seed` ([`SkipSampler`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LossSpec {
    /// Per-relay drop probability in `[0, 1)`.
    pub prob: f64,
    /// Seed of the loss stream (ignored when `prob == 0`).
    pub seed: u64,
}

impl LossSpec {
    /// Perfect delivery.
    pub fn lossless() -> Self {
        LossSpec::default()
    }

    /// Failure injection: drop each relay with probability `prob`.
    pub fn lossy(prob: f64, seed: u64) -> Self {
        LossSpec { prob, seed }
    }

    /// `true` when no loss is injected.
    pub fn is_lossless(&self) -> bool {
        self.prob == 0.0
    }
}

/// Default cap on the **total** entries cached across an engine's ball
/// tables. Tables use the packed [`CompactBallTable`] layout (4 bytes per
/// entry), so the default bounds table memory at the same 32 MiB per
/// engine as before the compact layout — at twice the entries, pushing
/// the BFS-fallback wall out to networks twice as large. Small and
/// mid-size networks never come close; dense large-N graphs hit the cap
/// and transparently fall back to per-flood BFS on the epoch-stamped
/// scratch (counted by [`FloodEngine::fallback_floods`]).
pub const DEFAULT_TABLE_ENTRY_CAP: usize = 1 << 23;

/// Cache slot for one radius' ball table.
#[derive(Debug, Default, Clone)]
enum TableSlot {
    /// Never attempted.
    #[default]
    Unbuilt,
    /// Built and cached.
    Built(Arc<CompactBallTable>),
    /// Attempted, but the entry cap was exceeded (or the graph is beyond
    /// the packed layout's 24-bit vertex / 8-bit distance limits) —
    /// floods at this radius permanently use the BFS fallback (the graph
    /// is static, so retrying would fail identically).
    Capped,
}

/// A hop-limited local broadcast: `payload` floods from `origin` to every
/// vertex within `ttl` hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flood<P> {
    /// Originating vertex.
    pub origin: usize,
    /// Maximum hop count the flood travels.
    pub ttl: usize,
    /// Message content.
    pub payload: P,
}

/// A message copy received by some vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received<P> {
    /// The flood's originating vertex.
    pub origin: usize,
    /// Hop distance the copy travelled.
    pub distance: usize,
    /// Message content.
    pub payload: P,
}

/// Who received each flood of one delivered batch, filled by
/// [`FloodEngine::deliver_receivers_into`]: a CSR in batch order, so flood
/// `i`'s receivers are [`FloodReceivers::of`]`(i)`, in reception order.
/// The same vertices, one copy each, that [`FloodEngine::deliver_into`]
/// would push an inbox entry to — without the per-vertex inboxes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FloodReceivers {
    /// `offsets[i] .. offsets[i + 1]` delimits flood `i` in `vertices`.
    offsets: Vec<usize>,
    vertices: Vec<u32>,
}

impl FloodReceivers {
    /// Number of floods in the batch.
    pub fn floods(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The receivers of flood `flood` (batch index), in reception order.
    ///
    /// # Panics
    ///
    /// Panics if `flood >= self.floods()`.
    pub fn of(&self, flood: usize) -> &[u32] {
        &self.vertices[self.offsets[flood]..self.offsets[flood + 1]]
    }
}

/// Synchronous flood-delivery engine over a fixed graph.
///
/// Delivery is deterministic unless a loss model is installed with
/// [`FloodEngine::with_loss`]; loss draws come from a seeded counter-based
/// per-flood stream ([`SkipSampler`]) so even failure-injection runs are
/// reproducible — and each flood's realization is independent of every
/// other flood's relay count.
///
/// # Reuse
///
/// Build the engine **once** per graph and keep it across rounds: lossless
/// deliveries are served from cached per-TTL neighborhood tables (built
/// lazily on first use, or eagerly via [`FloodEngine::prewarm`]), and the
/// lossy path reuses epoch-stamped BFS scratch. After warm-up, neither
/// path allocates.
#[derive(Debug)]
pub struct FloodEngine<'g> {
    graph: &'g Graph,
    counters: Counters,
    loss_prob: f64,
    /// Per-flood geometric skip-sampler for the lossy path: each flood's
    /// drop realization is a pure function of `(seed, flood index)`, so
    /// floods sample independently of one another and per-relay queries
    /// match batch materialization byte for byte.
    loss: SkipSampler,
    /// Floods served by the BFS fallback because their radius' ball table
    /// was over the entry cap (never incremented by deliberate lossy BFS)
    /// — the diagnostic that makes large-N slowdowns attributable.
    fallback_floods: u64,
    /// Lossless fast path: `tables[r]` holds the radius-`r` ball table.
    /// Indexed by *effective* TTL (clamped to `n`, where every ball has
    /// saturated), so the vector stays small for any caller TTL. Shared
    /// (`Arc`) so same-graph engines can adopt each other's tables
    /// instead of rebuilding them ([`FloodEngine::adopt_tables`]).
    /// Building respects `table_entry_cap`; radii whose table would blow
    /// the cap are marked [`TableSlot::Capped`] and served by BFS.
    tables: Vec<TableSlot>,
    /// Cap on total cached entries across all radii
    /// ([`DEFAULT_TABLE_ENTRY_CAP`] unless overridden).
    table_entry_cap: usize,
    /// Lossy-path BFS scratch: `stamp[v] == epoch` marks `v` visited in
    /// the current flood.
    stamp: Vec<u32>,
    epoch: u32,
    dist: Vec<u32>,
    queue: VecDeque<usize>,
}

impl<'g> FloodEngine<'g> {
    /// Engine with perfect (lossless) delivery.
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_loss_internal(graph, 0.0, 0)
    }

    /// Engine that drops each relay broadcast independently with
    /// probability `loss_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `loss_prob ∉ [0, 1)`.
    pub fn with_loss(graph: &'g Graph, loss_prob: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_prob),
            "loss probability must be in [0, 1)"
        );
        Self::with_loss_internal(graph, loss_prob, seed)
    }

    /// Engine built from a declarative [`LossSpec`] (the spec-driven
    /// construction path of experiment campaigns).
    ///
    /// # Panics
    ///
    /// As [`FloodEngine::with_loss`] when the spec is lossy.
    pub fn from_spec(graph: &'g Graph, loss: &LossSpec) -> Self {
        if loss.is_lossless() {
            Self::new(graph)
        } else {
            Self::with_loss(graph, loss.prob, loss.seed)
        }
    }

    fn with_loss_internal(graph: &'g Graph, loss_prob: f64, seed: u64) -> Self {
        let n = graph.n();
        FloodEngine {
            graph,
            counters: Counters::new(n),
            loss_prob,
            loss: SkipSampler::new(loss_prob, seed),
            fallback_floods: 0,
            tables: Vec::new(),
            table_entry_cap: DEFAULT_TABLE_ENTRY_CAP,
            stamp: vec![0; n],
            epoch: 0,
            dist: vec![0; n],
            queue: VecDeque::new(),
        }
    }

    /// Overrides the cap on total cached ball-table entries (large-N
    /// memory control). Lowering the cap below what is already cached
    /// keeps existing tables but stops further builds; radii already
    /// marked capped stay capped.
    pub fn set_table_entry_cap(&mut self, cap: usize) {
        self.table_entry_cap = cap;
    }

    /// Total entries currently cached across all ball tables (each entry
    /// is 4 packed bytes) — the memory diagnostic the cap bounds.
    pub fn cached_table_entries(&self) -> usize {
        self.tables
            .iter()
            .map(|slot| match slot {
                TableSlot::Built(t) => t.total_entries(),
                _ => 0,
            })
            .sum()
    }

    /// The graph this engine delivers over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Accumulated communication counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resets the counters (e.g. between protocol phases) without
    /// releasing their storage. Also zeroes the fallback-flood counter.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.fallback_floods = 0;
    }

    /// Overwrites the accumulated counters with a previously captured
    /// snapshot (checkpoint restore; the inverse of cloning
    /// [`FloodEngine::counters`]).
    ///
    /// # Panics
    ///
    /// Panics if `saved` was captured on a different-sized graph.
    pub fn restore_counters(&mut self, saved: &Counters) {
        assert_eq!(
            saved.per_vertex_tx.len(),
            self.graph.n(),
            "counters snapshot is for a different graph size"
        );
        self.counters.clone_from(saved);
    }

    /// Sets the fallback-flood tally (checkpoint restore, paired with
    /// [`FloodEngine::fallback_floods`]).
    pub fn set_fallback_floods(&mut self, n: u64) {
        self.fallback_floods = n;
    }

    /// The loss stream's flood index (`0` for lossless engines or before
    /// the first lossy flood) — with [`FloodEngine::set_loss_flood_index`]
    /// this checkpoints the only cross-flood state the loss model keeps.
    pub fn loss_flood_index(&self) -> u64 {
        self.loss.flood_index()
    }

    /// Repositions the loss stream between floods (checkpoint restore;
    /// see [`SkipSampler::set_flood_index`]). No-op in effect for
    /// lossless engines, which never consult the sampler.
    pub fn set_loss_flood_index(&mut self, flood: u64) {
        self.loss.set_flood_index(flood);
    }

    /// Floods since the last [`FloodEngine::reset_counters`] that ran on
    /// the per-flood BFS fallback because their radius' ball table was
    /// over the entry cap (or beyond the packed layout's limits).
    /// Deliberate lossy BFS floods do **not** count — this counter is
    /// exactly the "silent slowdown" diagnostic: nonzero means lossless
    /// floods stopped being table scans.
    pub fn fallback_floods(&self) -> u64 {
        self.fallback_floods
    }

    /// Eagerly builds the lossless neighborhood table for `ttl`, so the
    /// first `deliver` call is as fast as the rest. No-op for lossy
    /// engines (they always BFS), for already-built tables, and for radii
    /// over the entry cap (which stay on the BFS fallback).
    pub fn prewarm(&mut self, ttl: usize) {
        if self.loss_prob == 0.0 && ttl > 0 {
            let eff = ttl.min(self.graph.n());
            Self::table_for(&mut self.tables, self.table_entry_cap, self.graph, eff);
        }
    }

    /// Delivers a batch of concurrent floods, allocating fresh inboxes.
    ///
    /// Returns one inbox per vertex. A vertex does **not** receive its own
    /// flood. Within one batch all floods propagate concurrently, so the
    /// pipelined time charge is the maximum TTL in the batch.
    ///
    /// Hot paths should prefer [`FloodEngine::deliver_into`].
    ///
    /// # Panics
    ///
    /// Panics if a flood origin is out of range.
    pub fn deliver<P: Clone>(&mut self, floods: &[Flood<P>]) -> Vec<Vec<Received<P>>> {
        let mut inboxes = Vec::new();
        self.deliver_into(floods, &mut inboxes);
        inboxes
    }

    /// Delivers a batch of concurrent floods into caller-owned inboxes.
    ///
    /// `inboxes` is resized to one entry per vertex and each inbox is
    /// cleared (capacity retained) before delivery — after warm-up the
    /// call performs no heap allocation on the lossless path.
    ///
    /// Semantics match [`FloodEngine::deliver`]: no self-delivery, and the
    /// batch advances `timeslots` by its maximum TTL.
    ///
    /// # Panics
    ///
    /// Panics if a flood origin is out of range.
    pub fn deliver_into<P: Clone>(
        &mut self,
        floods: &[Flood<P>],
        inboxes: &mut Vec<Vec<Received<P>>>,
    ) {
        let n = self.graph.n();
        if inboxes.len() != n {
            inboxes.resize_with(n, Vec::new);
        }
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        let mut max_ttl = 0;
        for flood in floods {
            assert!(flood.origin < n, "flood origin out of range");
            max_ttl = max_ttl.max(flood.ttl);
            self.flood_one(flood.origin, flood.ttl, &mut |v, distance| {
                inboxes[v].push(Received {
                    origin: flood.origin,
                    distance,
                    payload: flood.payload.clone(),
                });
            });
        }
        self.counters.timeslots += max_ttl as u64;
    }

    /// Delivers a batch of concurrent floods, recording only which
    /// vertices received each flood ([`FloodReceivers`], batch order).
    ///
    /// Counters, `timeslots` and the loss stream advance exactly as in
    /// [`FloodEngine::deliver_into`], and each flood's receivers are the
    /// vertices that call would have pushed its copy to. For protocols
    /// that look up the content by flood index, this replaces `n`
    /// per-vertex inboxes with one flat list per batch; after warm-up it
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if a flood origin is out of range, or if the graph has more
    /// than `u32::MAX` vertices.
    pub fn deliver_receivers_into<P>(&mut self, floods: &[Flood<P>], out: &mut FloodReceivers) {
        let n = self.graph.n();
        assert!(
            u32::try_from(n).is_ok(),
            "graph too large for u32 receivers"
        );
        out.offsets.clear();
        out.offsets.push(0);
        out.vertices.clear();
        let mut max_ttl = 0;
        for flood in floods {
            assert!(flood.origin < n, "flood origin out of range");
            max_ttl = max_ttl.max(flood.ttl);
            let vertices = &mut out.vertices;
            self.flood_one(flood.origin, flood.ttl, &mut |v, _| vertices.push(v as u32));
            out.offsets.push(out.vertices.len());
        }
        self.counters.timeslots += max_ttl as u64;
    }

    /// One flood of a delivering batch: the lossy BFS wave, or the
    /// lossless table scan. `receive(v, distance)` is called once per
    /// copy received.
    fn flood_one(&mut self, origin: usize, ttl: usize, receive: &mut impl FnMut(usize, usize)) {
        if self.loss_prob > 0.0 {
            self.flood_bfs(origin, ttl, receive);
        } else {
            self.flood_table(origin, ttl, receive);
        }
    }

    /// Delivers a batch of concurrent floods **for accounting only**: the
    /// counters advance exactly as in [`FloodEngine::deliver_into`], but
    /// no inboxes are materialized. Use when the protocol phase only
    /// needs the broadcast to have *happened* (weight broadcasts, leader
    /// declarations) — skipping the per-reception pushes removes the
    /// dominant remaining per-round work of those phases.
    ///
    /// # Panics
    ///
    /// Panics if a flood origin is out of range.
    pub fn broadcast_only<P>(&mut self, floods: &[Flood<P>]) {
        let n = self.graph.n();
        let mut max_ttl = 0;
        for flood in floods {
            assert!(flood.origin < n, "flood origin out of range");
            max_ttl = max_ttl.max(flood.ttl);
            if self.loss_prob > 0.0 {
                self.flood_bfs(flood.origin, flood.ttl, &mut |_, _| {});
            } else {
                self.flood_table_counts(flood.origin, flood.ttl);
            }
        }
        self.counters.timeslots += max_ttl as u64;
    }

    /// Counters-only lossless delivery: one table scan, no receptions;
    /// BFS fallback when the radius is over the table cap.
    fn flood_table_counts(&mut self, origin: usize, ttl: usize) {
        if ttl == 0 {
            return;
        }
        let eff = ttl.min(self.graph.n());
        let Some(table) = Self::table_for(&mut self.tables, self.table_entry_cap, self.graph, eff)
        else {
            self.fallback_floods += 1;
            self.flood_bfs(origin, ttl, &mut |_, _| {});
            return;
        };
        let ball = table.ball_packed(origin);
        self.counters.transmissions += 1;
        self.counters.per_vertex_tx[origin] += 1;
        self.counters.delivered += ball.len() as u64;
        // Entries are distance-sorted: members before the TTL boundary
        // relay exactly once each.
        let relays = ball.partition_point(|&e| CompactBallTable::entry_distance(e) < ttl);
        self.counters.transmissions += relays as u64;
        for &e in &ball[..relays] {
            self.counters.per_vertex_tx[CompactBallTable::entry_vertex(e)] += 1;
        }
    }

    /// Returns the cached ball table for `radius`, building it on first
    /// use — or `None` when the build would push the engine's cached
    /// entries past `cap` (the slot is then marked capped permanently and
    /// the caller uses the BFS fallback). An associated function over the
    /// `tables` field so callers can keep disjoint borrows of `counters`.
    fn table_for<'t>(
        tables: &'t mut Vec<TableSlot>,
        cap: usize,
        graph: &Graph,
        radius: usize,
    ) -> Option<&'t CompactBallTable> {
        if tables.len() <= radius {
            tables.resize_with(radius + 1, TableSlot::default);
        }
        if matches!(tables[radius], TableSlot::Unbuilt) {
            let used: usize = tables
                .iter()
                .map(|slot| match slot {
                    TableSlot::Built(t) => t.total_entries(),
                    _ => 0,
                })
                .sum();
            let budget = cap.saturating_sub(used);
            tables[radius] = match CompactBallTable::build_capped(graph, radius, budget) {
                Some(t) => TableSlot::Built(Arc::new(t)),
                None => TableSlot::Capped,
            };
        }
        match &tables[radius] {
            TableSlot::Built(t) => Some(t),
            _ => None,
        }
    }

    /// Adopts another engine's cached ball tables (cheap `Arc` clones),
    /// so two engines over the same graph build each radius only once —
    /// e.g. the Algorithm 2 runner's WB engine and the strategy
    /// decision's engine both flood within `2r+1` hops.
    ///
    /// Tables this engine already holds are kept.
    ///
    /// # Panics
    ///
    /// Panics if the engines deliver over different graphs.
    pub fn adopt_tables(&mut self, other: &FloodEngine<'_>) {
        assert!(
            std::ptr::eq(self.graph, other.graph),
            "engines must share a graph to share tables"
        );
        if self.tables.len() < other.tables.len() {
            self.tables
                .resize_with(other.tables.len(), TableSlot::default);
        }
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            // Adopting shares the allocation (`Arc`), so it never adds
            // memory — the entry cap only constrains fresh builds. Capped
            // marks are not adopted: the caps may differ.
            if matches!(mine, TableSlot::Unbuilt) {
                if let TableSlot::Built(t) = theirs {
                    *mine = TableSlot::Built(Arc::clone(t));
                }
            }
        }
    }

    /// Lossless delivery of one flood from the precomputed ball table,
    /// with BFS fallback for radii over the entry cap.
    ///
    /// In a lossless synchronous flood every vertex holding a copy at
    /// distance `< ttl` relays exactly once (the origin included) and
    /// every ball member receives exactly one copy at its BFS distance, so
    /// the table scan reproduces the BFS wave — receptions in distance
    /// order — without traversing edges.
    fn flood_table(&mut self, origin: usize, ttl: usize, receive: &mut impl FnMut(usize, usize)) {
        if ttl == 0 {
            return; // hold without relaying: no cost, no receptions
        }
        let eff = ttl.min(self.graph.n());
        let Some(table) = Self::table_for(&mut self.tables, self.table_entry_cap, self.graph, eff)
        else {
            // Over-cap radius: the lossless BFS wave visits the same
            // vertices in the same order and never touches the loss
            // sampler.
            self.fallback_floods += 1;
            self.flood_bfs(origin, ttl, receive);
            return;
        };
        // The origin always performs the first broadcast.
        self.counters.transmissions += 1;
        self.counters.per_vertex_tx[origin] += 1;
        for &e in table.ball_packed(origin) {
            let v = CompactBallTable::entry_vertex(e);
            let d = CompactBallTable::entry_distance(e);
            receive(v, d);
            self.counters.delivered += 1;
            if d < ttl {
                // Holds a copy with TTL budget left: relays once.
                self.counters.transmissions += 1;
                self.counters.per_vertex_tx[v] += 1;
            }
        }
    }

    /// BFS wave for a single flood with per-relay loss, on epoch-stamped
    /// scratch (no allocation after the first call). Also the lossless
    /// fallback for radii whose ball table is over the entry cap, and —
    /// with a no-op `receive` — the counters-only lossy delivery (the
    /// per-flood drop stream is a pure function of the flood index, so
    /// counting and delivering agree).
    fn flood_bfs(&mut self, origin: usize, ttl: usize, receive: &mut impl FnMut(usize, usize)) {
        let graph = self.graph;
        if self.loss_prob > 0.0 {
            self.loss.begin_flood();
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.stamp[origin] = epoch;
        self.dist[origin] = 0;
        self.queue.clear();
        self.queue.push_back(origin);
        while let Some(u) = self.queue.pop_front() {
            if self.dist[u] as usize == ttl {
                continue; // TTL exhausted: hold but don't relay.
            }
            // One wireless broadcast by u (possibly lost as a whole).
            self.counters.transmissions += 1;
            self.counters.per_vertex_tx[u] += 1;
            if self.loss_prob > 0.0 && self.loss.should_drop() {
                continue;
            }
            for &w in graph.neighbors(u) {
                if self.stamp[w] != epoch {
                    self.stamp[w] = epoch;
                    self.dist[w] = self.dist[u] + 1;
                    receive(w, self.dist[w] as usize);
                    self.counters.delivered += 1;
                    self.queue.push_back(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::{topology, Graph};

    #[test]
    fn flood_reaches_exactly_the_ttl_ball() {
        let g = topology::line(7);
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&[Flood {
            origin: 3,
            ttl: 2,
            payload: (),
        }]);
        for (v, inbox) in inboxes.iter().enumerate() {
            let d = g.hop_distance(3, v).unwrap();
            if v != 3 && d <= 2 {
                assert_eq!(inbox.len(), 1, "vertex {v} should receive");
                assert_eq!(inbox[0].distance, d);
            } else {
                assert!(inbox.is_empty(), "vertex {v} should not receive");
            }
        }
    }

    #[test]
    fn origin_does_not_receive_its_own_flood() {
        let g = topology::ring(4);
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&[Flood {
            origin: 0,
            ttl: 3,
            payload: 42u32,
        }]);
        assert!(inboxes[0].is_empty());
    }

    #[test]
    fn ttl_zero_reaches_nobody_and_costs_nothing() {
        let g = topology::line(3);
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&[Flood {
            origin: 1,
            ttl: 0,
            payload: (),
        }]);
        assert!(inboxes.iter().all(Vec::is_empty));
        assert_eq!(e.counters().transmissions, 0);
        assert_eq!(e.counters().timeslots, 0);
    }

    #[test]
    fn transmissions_count_relays_within_ttl() {
        // Line 0-1-2-3-4, flood from 0 with ttl 2: relayers are 0 and 1.
        let g = topology::line(5);
        let mut e = FloodEngine::new(&g);
        e.deliver(&[Flood {
            origin: 0,
            ttl: 2,
            payload: (),
        }]);
        assert_eq!(e.counters().transmissions, 2);
        assert_eq!(e.counters().per_vertex_tx[0], 1);
        assert_eq!(e.counters().per_vertex_tx[1], 1);
        assert_eq!(e.counters().delivered, 2); // vertices 1 and 2
    }

    #[test]
    fn broadcast_only_matches_deliver_counters() {
        let g = topology::grid(4, 5);
        let floods = [
            Flood {
                origin: 0,
                ttl: 3,
                payload: (),
            },
            Flood {
                origin: 19,
                ttl: 2,
                payload: (),
            },
            Flood {
                origin: 7,
                ttl: 0,
                payload: (),
            },
        ];
        let mut full = FloodEngine::new(&g);
        let _ = full.deliver(&floods);
        let mut counting = FloodEngine::new(&g);
        counting.broadcast_only(&floods);
        assert_eq!(full.counters(), counting.counters());

        // Lossy path: identical seeds consume identical RNG streams, so
        // the counters agree too.
        let mut full = FloodEngine::with_loss(&g, 0.3, 11);
        let _ = full.deliver(&floods);
        let mut counting = FloodEngine::with_loss(&g, 0.3, 11);
        counting.broadcast_only(&floods);
        assert_eq!(full.counters(), counting.counters());
    }

    #[test]
    fn adopted_tables_are_shared_and_equivalent() {
        let g = topology::grid(4, 4);
        let mut a = FloodEngine::new(&g);
        a.prewarm(3);
        let mut b = FloodEngine::new(&g);
        b.adopt_tables(&a);
        let arc_of = |e: &FloodEngine, r: usize| match &e.tables[r] {
            TableSlot::Built(t) => Arc::clone(t),
            other => panic!("expected built table at radius {r}, got {other:?}"),
        };
        assert!(
            Arc::ptr_eq(&arc_of(&a, 3), &arc_of(&b, 3)),
            "adopted table must be the same allocation"
        );
        let floods = [Flood {
            origin: 5,
            ttl: 3,
            payload: (),
        }];
        assert_eq!(a.deliver(&floods), b.deliver(&floods));
    }

    #[test]
    #[should_panic(expected = "share a graph")]
    fn adopting_across_graphs_panics() {
        let g1 = topology::line(4);
        let g2 = topology::line(4);
        let a = FloodEngine::new(&g1);
        let mut b = FloodEngine::new(&g2);
        b.adopt_tables(&a);
    }

    #[test]
    fn batch_timeslots_use_max_ttl() {
        let g = topology::line(6);
        let mut e = FloodEngine::new(&g);
        e.deliver(&[
            Flood {
                origin: 0,
                ttl: 1,
                payload: (),
            },
            Flood {
                origin: 5,
                ttl: 4,
                payload: (),
            },
        ]);
        assert_eq!(e.counters().timeslots, 4);
        e.deliver(&[Flood {
            origin: 0,
            ttl: 2,
            payload: (),
        }]);
        assert_eq!(e.counters().timeslots, 6);
    }

    #[test]
    fn concurrent_floods_have_independent_inboxes() {
        let g = topology::line(5);
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&[
            Flood {
                origin: 0,
                ttl: 4,
                payload: "a",
            },
            Flood {
                origin: 4,
                ttl: 4,
                payload: "b",
            },
        ]);
        assert_eq!(inboxes[2].len(), 2);
        let mut payloads: Vec<&str> = inboxes[2].iter().map(|r| r.payload).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec!["a", "b"]);
    }

    #[test]
    fn deliver_into_reuses_and_matches_deliver() {
        let g = topology::grid(4, 4);
        let floods = [
            Flood {
                origin: 0,
                ttl: 3,
                payload: 1u32,
            },
            Flood {
                origin: 15,
                ttl: 2,
                payload: 2u32,
            },
        ];
        let mut fresh = FloodEngine::new(&g);
        let expect = fresh.deliver(&floods);
        let mut reused = FloodEngine::new(&g);
        let mut inboxes = Vec::new();
        for _ in 0..3 {
            reused.deliver_into(&floods, &mut inboxes);
            assert_eq!(inboxes, expect);
        }
        // Counters accumulate linearly across identical deliveries.
        assert_eq!(
            reused.counters().transmissions,
            3 * fresh.counters().transmissions
        );
        assert_eq!(reused.counters().delivered, 3 * fresh.counters().delivered);
    }

    #[test]
    fn huge_ttl_is_clamped_not_allocated() {
        let g = topology::line(4);
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&[Flood {
            origin: 0,
            ttl: usize::MAX,
            payload: (),
        }]);
        assert!(inboxes[1..].iter().all(|b| b.len() == 1));
        // Only the saturated table exists (radius ≤ n).
        assert!(e.tables.len() <= g.n() + 1);
    }

    #[test]
    fn lossy_path_matches_lossless_when_no_drop_fires() {
        // loss_prob tiny enough that no draw fires in this run: the BFS
        // path must agree with the table path exactly.
        let g = topology::grid(3, 5);
        let floods = [Flood {
            origin: 7,
            ttl: 3,
            payload: (),
        }];
        let mut lossless = FloodEngine::new(&g);
        let a = lossless.deliver(&floods);
        let mut nearly = FloodEngine::with_loss(&g, 1e-12, 5);
        let b = nearly.deliver(&floods);
        assert_eq!(a, b);
        assert_eq!(
            lossless.counters().transmissions,
            nearly.counters().transmissions
        );
    }

    #[test]
    fn total_loss_blocks_beyond_first_hop_never_the_math() {
        // loss = 0.999…: with a seeded RNG, eventually every relay drops;
        // here we use a high but valid probability and just assert safety
        // properties (no panic, inbox subset of the lossless run).
        let g = topology::line(6);
        let mut lossless = FloodEngine::new(&g);
        let full = lossless.deliver(&[Flood {
            origin: 0,
            ttl: 5,
            payload: (),
        }]);
        let mut lossy = FloodEngine::with_loss(&g, 0.9, 7);
        let some = lossy.deliver(&[Flood {
            origin: 0,
            ttl: 5,
            payload: (),
        }]);
        for v in 0..6 {
            assert!(some[v].len() <= full[v].len());
        }
    }

    #[test]
    fn lossy_delivery_is_reproducible_per_seed() {
        let g = topology::grid(4, 4);
        let run = |seed| {
            let mut e = FloodEngine::with_loss(&g, 0.3, seed);
            let boxes = e.deliver(&[Flood {
                origin: 0,
                ttl: 6,
                payload: (),
            }]);
            boxes.iter().map(|b| b.len()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn capped_engine_falls_back_to_bfs_and_matches() {
        let g = topology::grid(4, 5);
        let floods = [
            Flood {
                origin: 3,
                ttl: 3,
                payload: 7u32,
            },
            Flood {
                origin: 17,
                ttl: 2,
                payload: 9u32,
            },
        ];
        let mut tabled = FloodEngine::new(&g);
        let expect = tabled.deliver(&floods);
        assert!(tabled.cached_table_entries() > 0);

        let mut capped = FloodEngine::new(&g);
        capped.set_table_entry_cap(0);
        let got = capped.deliver(&floods);
        assert_eq!(got, expect, "BFS fallback must reproduce the table path");
        assert_eq!(capped.counters(), tabled.counters());
        assert_eq!(capped.cached_table_entries(), 0);
        // The silent fallback is surfaced: one increment per fallen-back
        // flood on the capped engine, none on the tabled one.
        assert_eq!(tabled.fallback_floods(), 0);
        assert_eq!(capped.fallback_floods(), floods.len() as u64);
        // broadcast_only agrees too.
        let mut counting = FloodEngine::new(&g);
        counting.set_table_entry_cap(0);
        counting.broadcast_only(&floods);
        assert_eq!(counting.counters(), tabled.counters());
        assert_eq!(counting.fallback_floods(), floods.len() as u64);
        // reset_counters clears the fallback tally alongside the rest.
        capped.reset_counters();
        assert_eq!(capped.fallback_floods(), 0);
    }

    #[test]
    fn deliberate_lossy_bfs_does_not_count_as_fallback() {
        let g = topology::grid(3, 4);
        let mut e = FloodEngine::with_loss(&g, 0.3, 9);
        e.deliver(&[Flood {
            origin: 0,
            ttl: 3,
            payload: (),
        }]);
        assert_eq!(e.fallback_floods(), 0);
    }

    #[test]
    fn lossy_flood_realization_is_independent_of_batch_shape() {
        // With counter-based per-flood streams, a flood's realization must
        // not depend on how many relays *earlier* floods consumed — only
        // on its position in the flood sequence. Deliver the same probe
        // flood after equally-many but very differently-sized warm-up
        // floods and require identical inboxes. (The legacy single-stream
        // RNG fails this.)
        let g = topology::grid(5, 6);
        let probe = Flood {
            origin: 14,
            ttl: 4,
            payload: 1u32,
        };
        let run_after = |warmup: &[Flood<u32>]| {
            let mut e = FloodEngine::with_loss(&g, 0.35, 21);
            let _ = e.deliver(warmup);
            e.deliver(std::slice::from_ref(&probe))
        };
        let small = [Flood {
            origin: 0,
            ttl: 1,
            payload: 0u32,
        }];
        let big = [Flood {
            origin: 0,
            ttl: 6,
            payload: 0u32,
        }];
        assert_eq!(
            run_after(&small),
            run_after(&big),
            "flood realizations must be independent of predecessor batch shape"
        );
    }

    #[test]
    fn cap_budget_is_shared_across_radii() {
        let g = topology::grid(5, 5);
        let mut e = FloodEngine::new(&g);
        // Let radius 1 fit, then shrink the budget so radius 4 cannot.
        e.prewarm(1);
        let used = e.cached_table_entries();
        assert!(used > 0);
        e.set_table_entry_cap(used + 1);
        let floods = [Flood {
            origin: 12,
            ttl: 4,
            payload: (),
        }];
        let mut reference = FloodEngine::new(&g);
        let expect = reference.deliver(&floods);
        assert_eq!(e.deliver(&floods), expect);
        // Radius 4 was refused; only the radius-1 table is cached.
        assert_eq!(e.cached_table_entries(), used);
        assert!(matches!(e.tables[4], TableSlot::Capped));
        // Capped radii stay capped even after repeated use.
        let _ = e.deliver(&floods);
        assert!(matches!(e.tables[4], TableSlot::Capped));
    }

    /// Per-flood receiver sets read off `deliver`'s inboxes, each sorted
    /// (floods carry their batch index as payload).
    fn receivers_from_inboxes(inboxes: &[Vec<Received<usize>>], floods: usize) -> Vec<Vec<u32>> {
        let mut sets = vec![Vec::new(); floods];
        for (v, inbox) in inboxes.iter().enumerate() {
            for rec in inbox {
                sets[rec.payload].push(v as u32);
            }
        }
        sets
    }

    #[test]
    fn receivers_delivery_matches_inboxes_counters_and_loss_stream() {
        // Vertex 20 is isolated: its floods reach nobody but still cost
        // the origin's broadcast (and, under loss, one drop draw).
        let mut b = Graph::builder(21);
        for r in 0..4 {
            for c in 0..5 {
                let v = r * 5 + c;
                if c + 1 < 5 {
                    b.add_edge(v, v + 1);
                }
                if r + 1 < 4 {
                    b.add_edge(v, v + 5);
                }
            }
        }
        let g = b.build();
        let flood = |i: usize, origin: usize, ttl: usize| Flood {
            origin,
            ttl,
            payload: i,
        };
        let batches: Vec<Vec<Flood<usize>>> = vec![
            vec![],
            vec![flood(0, 20, 3)],
            vec![flood(0, 0, 3), flood(1, 19, 2), flood(2, 7, 0)],
            vec![
                flood(0, 12, 4),
                flood(1, 12, 4),
                flood(2, 20, 1),
                flood(3, 3, 1),
            ],
        ];
        let engines = |cap: usize, loss: f64| {
            let make = || {
                let mut e = if loss > 0.0 {
                    FloodEngine::with_loss(&g, loss, 23)
                } else {
                    FloodEngine::new(&g)
                };
                e.set_table_entry_cap(cap);
                e
            };
            (make(), make())
        };
        for (cap, loss) in [
            (DEFAULT_TABLE_ENTRY_CAP, 0.0),
            (0, 0.0),
            (DEFAULT_TABLE_ENTRY_CAP, 0.3),
        ] {
            let (mut inboxing, mut listing) = engines(cap, loss);
            let mut receivers = FloodReceivers::default();
            // Twice through, so the loss stream carries across batches.
            for batch in batches.iter().chain(&batches) {
                let expect = receivers_from_inboxes(&inboxing.deliver(batch), batch.len());
                listing.deliver_receivers_into(batch, &mut receivers);
                assert_eq!(receivers.floods(), batch.len());
                for (i, want) in expect.iter().enumerate() {
                    let mut got = receivers.of(i).to_vec();
                    got.sort_unstable();
                    assert_eq!(&got, want, "cap={cap} loss={loss} flood {i}");
                }
                assert_eq!(
                    listing.counters(),
                    inboxing.counters(),
                    "cap={cap} loss={loss}"
                );
                assert_eq!(listing.loss_flood_index(), inboxing.loss_flood_index());
                assert_eq!(listing.fallback_floods(), inboxing.fallback_floods());
            }
        }
    }

    #[test]
    fn loss_spec_construction() {
        let g = topology::line(5);
        let floods = [Flood {
            origin: 0,
            ttl: 4,
            payload: (),
        }];
        assert!(LossSpec::lossless().is_lossless());
        assert!(!LossSpec::lossy(0.3, 9).is_lossless());

        let mut from_spec = FloodEngine::from_spec(&g, &LossSpec::lossless());
        let mut direct = FloodEngine::new(&g);
        assert_eq!(from_spec.deliver(&floods), direct.deliver(&floods));

        let mut from_spec = FloodEngine::from_spec(&g, &LossSpec::lossy(0.4, 9));
        let mut direct = FloodEngine::with_loss(&g, 0.4, 9);
        assert_eq!(from_spec.deliver(&floods), direct.deliver(&floods));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_origin_panics() {
        let g = topology::line(2);
        let mut e = FloodEngine::new(&g);
        let _ = e.deliver(&[Flood {
            origin: 9,
            ttl: 1,
            payload: (),
        }]);
    }
}
