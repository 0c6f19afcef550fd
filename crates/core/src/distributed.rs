//! Algorithm 3 — the distributed robust PTAS for strategy decision.
//!
//! Each virtual vertex of the extended conflict graph `H` runs a local
//! state machine with four statuses (Section IV-C):
//!
//! * **Candidate** — still unresolved; may yet transmit.
//! * **LocalLeader** — a Candidate whose weight is maximal among the
//!   Candidates of its `(2r+1)`-hop neighborhood. Leaders compute a local
//!   MWIS by enumeration over the Candidates of their `r`-hop neighborhood
//!   and broadcast the resulting determinations within `(3r+1)` hops.
//! * **Winner** — selected into the strategy; will access its channel.
//! * **Loser** — excluded for this round.
//!
//! Communication is exclusively hop-limited flooding on the simulated
//! control channel ([`mhca_sim::FloodEngine`]), so every complexity claim
//! of Section IV-C can be measured from the engine counters.
//!
//! # Fidelity notes (see DESIGN.md, Substitutions)
//!
//! * Ties in leader election are broken by vertex id (the paper seeds the
//!   first round with ids for exactly this reason); the order on
//!   `(weight, id)` is total, which is what guarantees two leaders of the
//!   same mini-round are `≥ 2r+2` hops apart.
//! * When a leader computes its local MWIS it excludes Candidates adjacent
//!   to *known* Winners (and marks them Losers). The `(3r+1)`-hop
//!   determination broadcast guarantees a leader has heard of every Winner
//!   adjacent to its `r`-hop ball, so the exclusion is always complete —
//!   this is the distributed counterpart of the centralized algorithm's
//!   "remove the independent set *and all adjacent vertices*" step, and it
//!   is what makes the union of winners across mini-rounds independent.
//! * As a defense under message loss (failure injection), a vertex refuses
//!   a `Winner` determination when it already knows an adjacent Winner.
//!   With lossless delivery this rule never fires.
//!
//! # The dirty-ball decide phase
//!
//! Leader election is the dominant cost of a mini-round when done naively:
//! every undetermined Candidate rescans its whole `(2r+1)`-ball. The
//! engine instead maintains an **incremental dirty set** on the lossless
//! path (`LocalMaxCache`), justified by two invariants:
//!
//! 1. **Dirty-ball invariant.** A Candidate's local-max verdict is a
//!    function of the statuses of the Candidates in its `(2r+1)`-ball and
//!    of the (fixed) weights. Statuses only move away from `Candidate`,
//!    so the verdict of a vertex none of whose ball members changed
//!    status in mini-round `τ` is *provably unchanged* in `τ+1` and is
//!    carried forward. Only vertices within `(2r+1)` hops of a status
//!    change (a Winner or Loser determination) can flip to leader.
//! 2. **Blocked-count witness.** For each vertex the cache stores how
//!    many *undetermined higher-priority* members — `(weight, id)` above
//!    its own, the strict total order of the election — its closed ball
//!    still holds. The count is seeded by one full ball sweep in
//!    mini-round 0 and thereafter maintained purely incrementally: each
//!    determination of `u` walks `u`'s `(2r+1)`-ball (exactly the dirty
//!    region it invalidates) and decrements the counts of the
//!    lower-priority Candidates in it. A Candidate leads **iff** its
//!    count is zero, so the vertices whose count just hit zero are
//!    precisely the next mini-round's leaders — an `O(1)` verdict per
//!    leader, no rescans ever. Every vertex is determined at most once,
//!    so the whole election costs two ball sweeps per decision (seed +
//!    decrements) *independent of how many mini-rounds run*, versus one
//!    sweep of every surviving Candidate per mini-round for the naive
//!    rescan.
//!
//! Both invariants need every status change to be *visible* wherever it
//! matters, which lossless `(3r+1)`-hop determination floods guarantee
//! (a determination of `u` by leader `L` reaches all of
//! `ball(u, 2r+1) ⊆ ball(L, 3r+1)`): under lossless delivery every local
//! view agrees with the global status array, so the dirty-ball path
//! reads global state directly and charges flood costs through the
//! engine's counters-only delivery — bit-identical outcomes and counters
//! at a fraction of the work. Under message loss views can diverge from
//! global state (a vertex may learn of a determination its subject never
//! received), so the engine runs the **full-rescan path**
//! ([`DistributedPtas::decide_into_rescan`]) whenever `loss_prob > 0`
//! (or when `force_rescan` is set); it doubles as the oracle of the
//! differential test battery (`tests/decide_parity.rs`), and its lossy
//! outcomes are pinned to recorded digests there. The dirty expansion
//! walks the per-vertex `(2r+1)`-ball tables precomputed at construction,
//! so it needs no flood-engine ball table and is unaffected by the
//! engine's large-N table entry cap.
//!
//! ## Local views on the rescan path
//!
//! Each vertex's view — what it believes about the members of its
//! `(2r+1)`-ball — is one status per entry of the same ball CSR
//! (`view_status`, aligned with `ball_entries`), so all views together
//! take one byte per ball entry. The view of `w` holds `u` iff `u` is in
//! `w`'s ball, iff `w` is in `u`'s ball (balls are symmetric), so a
//! received list entry `u` is applied by walking `u`'s own row and
//! writing, at each member that received the flood, the slot that the
//! **reverse index** (`ball_rev`, built lazily on the first rescan)
//! names. A list entry outside a receiver's ball then costs nothing, and
//! applying a flood costs `O(list · ball)` however many vertices it
//! reaches. Every write lands in the receiver's own view, and each
//! receiver sees its own list first (if it leads) and then the received
//! lists in flood order, last writer winning — exactly the order of a
//! vertex draining its own inbox, so interleaving receivers changes
//! nothing.
//!
//! The election keeps one witness cursor per vertex: a view entry that
//! did not block a vertex never blocks it later in the same decision (a
//! view status never returns to `Candidate`), so each mini-round's scan
//! resumes at the entry that blocked it last.
//!
//! ## Tiles
//!
//! The per-vertex phases — the election probe, the per-leader MWIS, the
//! blocked-count seeding and the dirty decrement expansion — run
//! tile-local over the core+halo stripes of a [`mhca_graph::Partition`],
//! merging per-tile results at phase boundaries.
//! [`DistributedPtasConfig::partitions`] sets the tile count; the default
//! single tile *is* the serial sweep, and at `n = 10⁴–5×10⁴` more tiles
//! split the memory-bound sweeps over threads. Tiling is an **execution
//! strategy, not a semantics knob**: every phase is engineered so the
//! merged result is *byte-identical* for every tile count (and hence to
//! the rescan oracle), pinned by `tests/partition_parity.rs`. The key
//! devices are (a) reading a snapshot of the packed election state while
//! writing only the tile's own stripe (legal because ranks are immutable
//! intra-sweep and blocked counts can never reach the `DETERMINED`
//! sentinel, so verdicts are insensitive to write timing), and (b)
//! precomputing the ranks of changed vertices serially so the decrement
//! sweep touches only its own stripe. Status application, flood
//! accounting, and the Fig. 6 summation stay serial — they are
//! `O(determinations)` per round, not `O(n · ball)`.

use mhca_graph::{BallScan, ExtendedConflictGraph, Partition};
use mhca_mwis::{exact, greedy};
use mhca_sim::{Counters, Flood, FloodEngine, FloodReceivers, LossSpec};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-vertex protocol status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Unresolved; eligible for leadership and selection.
    Candidate,
    /// Selected into the round's strategy.
    Winner,
    /// Excluded from the round's strategy.
    Loser,
}

/// How a LocalLeader solves its local MWIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalSolver {
    /// Exact branch-and-bound enumeration (the paper's Algorithm 3 line 8).
    Exact,
    /// Max-weight greedy (the paper's "more efficient constant
    /// approximation algorithm" remark).
    Greedy,
    /// Greedy followed by (1,2)-swap local search — better quality than
    /// plain greedy at a small polynomial cost.
    LocalSearch {
        /// Maximum improvement sweeps per local MWIS.
        max_passes: usize,
    },
    /// Exact when the candidate set spans at most `max_exact_groups`
    /// master nodes, greedy beyond — keeps worst-case local work bounded
    /// on dense neighborhoods.
    Auto {
        /// Master-node count threshold for switching to greedy.
        max_exact_groups: usize,
    },
}

impl Default for LocalSolver {
    fn default() -> Self {
        LocalSolver::Auto {
            max_exact_groups: 14,
        }
    }
}

/// Configuration of the distributed strategy decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedPtasConfig {
    /// Local MWIS radius `r` (the paper's simulations use `r = 2`).
    pub r: usize,
    /// Mini-round budget `D`; `None` runs to completion (`O(N)` worst
    /// case, Fig. 5). The paper's Theorem 4 argues a small constant
    /// suffices on random networks (Fig. 6 converges by mini-round 4).
    pub max_minirounds: Option<usize>,
    /// Local MWIS solver choice.
    pub local_solver: LocalSolver,
    /// Per-relay message loss probability (failure injection; 0 = lossless).
    pub loss_prob: f64,
    /// RNG seed for the loss process.
    pub loss_seed: u64,
    /// Forces the full-rescan reference decide path even when delivery is
    /// lossless (diagnostics / differential testing; the dirty-ball path
    /// is bit-identical, just faster).
    pub force_rescan: bool,
    /// Number of core+halo tiles the lossless decide phase is split into
    /// (`<= 1` = one tile, the serial sweep; the lossy / forced-rescan
    /// reference path ignores this knob). Tiling is an execution strategy,
    /// not a semantic knob: the [`DecisionOutcome`] is byte-identical for
    /// every value — pinned by `tests/partition_parity.rs`.
    pub partitions: usize,
    /// Worker threading of the tile phases: `1` runs the tile loop inline
    /// on the calling thread (deterministic single-thread execution — the
    /// allocation-free configuration pinned by `tests/alloc_free.rs`); any
    /// other value (`0` is the conventional spelling) spawns one scoped OS
    /// thread per tile. A single tile always runs inline.
    pub threads: usize,
}

impl Default for DistributedPtasConfig {
    fn default() -> Self {
        DistributedPtasConfig {
            r: 2,
            max_minirounds: Some(4),
            local_solver: LocalSolver::default(),
            loss_prob: 0.0,
            loss_seed: 0,
            force_rescan: false,
            partitions: 1,
            threads: 0,
        }
    }
}

impl DistributedPtasConfig {
    /// Builder-style radius override.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Builder-style mini-round budget override (`None` = to completion).
    pub fn with_max_minirounds(mut self, d: Option<usize>) -> Self {
        self.max_minirounds = d;
        self
    }

    /// Builder-style solver override.
    pub fn with_local_solver(mut self, s: LocalSolver) -> Self {
        self.local_solver = s;
        self
    }

    /// Builder-style loss injection.
    ///
    /// The seed initializes one loss stream per [`DistributedPtas`]; see
    /// [`DistributedPtas::decide`] for the cross-decision determinism
    /// semantics.
    pub fn with_loss(mut self, prob: f64, seed: u64) -> Self {
        self.loss_prob = prob;
        self.loss_seed = seed;
        self
    }

    /// Builder-style loss injection from a declarative [`LossSpec`]
    /// (the spec-driven campaign path).
    pub fn with_loss_spec(self, loss: LossSpec) -> Self {
        self.with_loss(loss.prob, loss.seed)
    }

    /// The loss knobs as a [`LossSpec`].
    pub fn loss_spec(&self) -> LossSpec {
        LossSpec {
            prob: self.loss_prob,
            seed: self.loss_seed,
        }
    }

    /// Builder-style rescan override (diagnostics / differential tests).
    pub fn with_force_rescan(mut self, force: bool) -> Self {
        self.force_rescan = force;
        self
    }

    /// Builder-style tile-count override for the lossless decide
    /// (`<= 1` = one tile, serial).
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Builder-style threading override for the tile phases (`1` =
    /// inline serial tile loop, anything else = one worker per tile).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Result of one distributed strategy decision (one round's `t_s` part).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DecisionOutcome {
    /// Vertices selected to transmit, sorted ascending. Independent in `H`
    /// under lossless delivery.
    pub winners: Vec<usize>,
    /// Cumulative winner weight after each mini-round — the Fig. 6 series.
    pub per_miniround_weight: Vec<f64>,
    /// Leaders elected in each mini-round.
    pub leaders_per_miniround: Vec<usize>,
    /// Every mini-round's leader vertices, concatenated in mini-round
    /// order (each segment ascending). Stored flat — CSR-style, with
    /// [`DecisionOutcome::leaders_per_miniround`] as the segment lengths —
    /// so outcome reuse across decisions stays allocation-free; slice per
    /// mini-round via [`DecisionOutcome::leaders_of_miniround`].
    pub leaders_flat: Vec<usize>,
    /// Mini-rounds actually executed.
    pub minirounds_used: usize,
    /// `true` when no Candidate remained at termination.
    pub all_marked: bool,
    /// Number of adjacent Winner pairs in the output (0 unless message
    /// loss corrupted the run) — instrumentation, not protocol state.
    pub conflicts: usize,
    /// Floods the engine served through the per-flood BFS fallback
    /// because the ball-table entry cap refused the radius
    /// ([`FloodEngine::fallback_floods`]). Nonzero on a lossless run
    /// means the decision silently paid BFS costs where `O(1)` table
    /// scans were expected — the large-N honesty signal.
    pub fallback_floods: u64,
    /// Communication counters for the decision.
    pub counters: Counters,
}

impl DecisionOutcome {
    /// The leaders elected in mini-round `tau` (0-based), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `tau >= minirounds_used`.
    pub fn leaders_of_miniround(&self, tau: usize) -> &[usize] {
        let start: usize = self.leaders_per_miniround[..tau].iter().sum();
        &self.leaders_flat[start..start + self.leaders_per_miniround[tau]]
    }
}

/// Instrumentation counters of the last strategy decision's leader
/// election — how much candidate-scanning work the decide phase actually
/// performed ([`DistributedPtas::scan_stats`]). Streamed per round to the
/// observer pipeline as `decide_scanned`; the dirty-ball path's whole
/// point is that `candidates_scanned` stays near one full sweep per
/// decision instead of one per mini-round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DecideScanStats {
    /// `(2r+1)`-ball candidate evaluations performed. The dirty-ball
    /// path charges one per vertex for the mini-round 0 election probe
    /// (early-exiting, so usually a partial scan) plus one per round-0
    /// survivor for the count-seeding sweep — at most two per vertex per
    /// decision, however many mini-rounds run. The rescan reference pays
    /// one evaluation per surviving Candidate *per mini-round* (each
    /// resuming where the vertex's previous one stopped).
    pub candidates_scanned: u64,
    /// `O(1)` leader verdicts served from the pending zero-blocked list
    /// without any ball scan (always 0 on the full-rescan path).
    pub fast_skips: u64,
    /// Blocked-count decrements applied while expanding status changes
    /// into their dirty balls (always 0 on the full-rescan path).
    pub dirty_decrements: u64,
}

/// Wall-clock nanoseconds per decide phase of the last decision, filled
/// only when [`DistributedPtas::set_profile_phases`] is on (the stamps
/// cost two `Instant` reads per phase per mini-round, which is noise at
/// large `n` but measurable in small-`n` hot loops, so they are gated).
/// The dirty-ball path fills it; the rescan reference leaves it zeroed.
/// This is what `decide_profile --pr6` reports per grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DecidePhaseNs {
    /// Leader election: the mini-round 0 ball probe plus the pending-list
    /// drain of later mini-rounds.
    pub election_ns: u64,
    /// Flood accounting: declaration and determination `broadcast_only`
    /// calls plus serial status application.
    pub broadcast_ns: u64,
    /// Per-leader local MWIS solves and determination-list fills.
    pub mwis_ns: u64,
    /// Dirty expansion: the blocked-count seeding sweep (mini-round 0)
    /// and the per-change decrement sweeps, plus the Fig. 6 summation.
    pub sweep_ns: u64,
}

impl DecidePhaseNs {
    /// Total across the four phases.
    pub fn total_ns(&self) -> u64 {
        self.election_ns + self.broadcast_ns + self.mwis_ns + self.sweep_ns
    }
}

/// Protocol messages carried by the control-channel floods.
///
/// Payloads are `Copy`: the determination *content* — the `(vertex,
/// is_winner)` list a leader computed — lives in the round's pooled
/// determination lists ([`DistributedPtas::det_lists`]), and the flood
/// carries the leader's slot index into that pool (which is also the
/// flood's index in its batch). A receiver only ever reads the list of a
/// flood the engine reports it received ([`FloodReceivers`]), so locality
/// is preserved exactly as if the list travelled in the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    /// `LocalLeader` declaration (Algorithm 3 line 4).
    LeaderDeclare,
    /// Status determinations from a leader (Algorithm 3 lines 9–10):
    /// the payload indexes the mini-round's determination-list pool.
    Determination(u32),
}

/// The distributed strategy-decision engine (Algorithm 3), reusable across
/// rounds: neighborhood tables are precomputed once per network and **all
/// per-decision scratch is pooled**, so steady-state calls through
/// [`DistributedPtas::decide_into`] perform no heap allocation (beyond the
/// amortized growth of the pools in the first few rounds).
#[derive(Debug)]
pub struct DistributedPtas<'h> {
    h: &'h ExtendedConflictGraph,
    config: DistributedPtasConfig,
    /// Long-lived flood engine over `H` (ball tables prewarmed for the
    /// protocol's two TTLs). Under message loss the engine's RNG stream
    /// advances across decisions — runs are reproducible per
    /// `(loss_seed, decision sequence)`, not per individual decision.
    engine: FloodEngine<'h>,
    balls_r: Vec<Vec<usize>>,
    /// Flat `u32` CSR of the sorted `(2r+1)`-balls (`ball_offsets[v] ..
    /// ball_offsets[v + 1]` into `ball_entries` is `v`'s *row*), self
    /// included. The dirty-ball election's seed and decrement sweeps
    /// stream it (memory-bound, so the 4-byte entries halve their
    /// traffic), and the rescan path's local views are aligned with it.
    ball_offsets: Vec<usize>,
    ball_entries: Vec<u32>,
    /// The rescan path's local views, one status per ball entry:
    /// `view_status[p]` is what the owner of the row holding `p` believes
    /// about vertex `ball_entries[p]`. Sized on first rescan use (the
    /// dirty-ball path reads global status instead).
    view_status: Vec<Status>,
    /// Reverse slots of the ball CSR ([`reverse_slots`]): if `p` is the
    /// position of `w` in `u`'s row, `ball_rev[p]` is the position of `u`
    /// in `w`'s row — so a determination of `u` reaches every view that
    /// holds `u` by walking `u`'s own row. Built lazily with the views.
    ball_rev: Vec<u32>,
    node_groups: Vec<usize>,
    // ---- pooled per-decision scratch ----
    own: Vec<Status>,
    leaders: Vec<usize>,
    declare_floods: Vec<Flood<Msg>>,
    det_floods: Vec<Flood<Msg>>,
    /// Who received each determination flood of the mini-round (rescan
    /// path only).
    receivers: FloodReceivers,
    /// Marks the receivers of the flood being applied (rescan path; all
    /// `false` between floods).
    received: Vec<bool>,
    /// Per-vertex resume position of the rescan election: the first
    /// entry of the vertex's row not yet known to be non-blocking.
    witness: Vec<usize>,
    /// Determination lists per leader slot of the current mini-round; the
    /// `Msg::Determination` payload indexes into this pool.
    det_lists: Vec<Vec<(usize, bool)>>,
    cand: Vec<usize>,
    selectable: Vec<usize>,
    solver: SolverScratch,
    cache: LocalMaxCache,
    scan_stats: DecideScanStats,
    // ---- tile state ----
    /// Core+halo tiling of the vertex range (one tile when
    /// `config.partitions <= 1`).
    partition: Partition,
    /// One scratch set per tile worker (leaders, pending, solver, …).
    tile_scratch: Vec<TileScratch>,
    /// Read-only copy of the packed election state for the seeding
    /// sweep (workers read the snapshot, write their own stripe).
    state_snap: Vec<u64>,
    /// Priority ranks of the mini-round's changed vertices, precomputed
    /// serially so decrement workers never read another stripe.
    changed_ranks: Vec<u32>,
    profile_phases: bool,
    phase_ns: DecidePhaseNs,
}

/// Per-tile worker scratch of the dirty-ball decide: everything a
/// tile-local phase writes besides its own stripe of the packed election
/// state, merged serially at phase boundaries.
#[derive(Debug, Default)]
struct TileScratch {
    /// Leaders found by this tile's mini-round 0 probe (core order, i.e.
    /// ascending — tile-order concatenation reproduces the serial scan).
    leaders: Vec<usize>,
    /// Zero-blocked vertices this tile's sweeps produced.
    pending: Vec<usize>,
    cand: Vec<usize>,
    selectable: Vec<usize>,
    solver: SolverScratch,
    scanned: u64,
    decrements: u64,
}

/// Runs one unit of tile work per iterator item: inline on the calling
/// thread when `parallel` is false, else one scoped OS thread per item
/// (tiles are the unit of work, so the partition count is the
/// parallelism knob).
fn run_tiles<I, F>(parallel: bool, work: I, f: F)
where
    I: Iterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    if parallel {
        std::thread::scope(|s| {
            for item in work {
                let f = &f;
                s.spawn(move || f(item));
            }
        });
    } else {
        for item in work {
            f(item);
        }
    }
}

/// Splits `data` into the stripes delimited by `cuts` (the
/// [`Partition::cuts`] vector), yielding one disjoint `&mut` chunk per
/// tile without allocating.
fn split_by_cuts<'a, T>(
    mut data: &'a mut [T],
    cuts: &'a [usize],
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    cuts.windows(2).map(move |w| {
        let (chunk, rest) = std::mem::take(&mut data).split_at_mut(w[1] - w[0]);
        data = rest;
        chunk
    })
}

/// Reusable state of the dirty-ball leader election (see the
/// module docs): per-vertex blocked counts plus the pending zero-count
/// list. Only ever consulted on the lossless fast path; the lossy /
/// forced-rescan path ignores it entirely.
#[derive(Debug, Default)]
struct LocalMaxCache {
    /// Packed per-vertex election state, one word per vertex so the
    /// memory-bound ball sweeps touch a single cache line per probe:
    ///
    /// * low 32 bits — the vertex's priority *rank*
    ///   (`rank_u < rank_v ⟺ (weight_u, u) > (weight_v, v)`, the
    ///   election's strict total order, materialized once per decision);
    /// * high 32 bits — its *blocked count*: undetermined members of its
    ///   closed `(2r+1)`-ball ranked above it ([`DETERMINED`] once the
    ///   vertex itself is determined). A Candidate leads iff zero.
    state: Vec<u64>,
    /// Vertices whose blocked count hit zero during the current
    /// mini-round's dirty expansion — the next mini-round's leaders
    /// (those still Candidate by then). A count hits zero at most once,
    /// so the list is duplicate-free by construction.
    pending: Vec<usize>,
    /// Vertices whose status changed in the current mini-round.
    changed: Vec<usize>,
    /// Vertices sorted by descending `(weight, id)` — sort scratch for
    /// the rank build.
    order: Vec<u32>,
}

/// High-half sentinel of [`LocalMaxCache::state`] marking a determined
/// vertex. Real blocked counts are bounded by the ball size (< `n` ≤
/// `u32::MAX`), so the sentinel is unreachable by decrements.
const DETERMINED: u64 = (u32::MAX as u64) << 32;

impl LocalMaxCache {
    /// Prepares the cache for a fresh decision over `n` vertices: sizes
    /// the state table (allocating only when `n` changes) and seeds it
    /// with this decision's priority ranks (blocked counts zeroed; the
    /// mini-round 0 sweep fills them).
    fn begin(&mut self, n: usize, weights: &[f64]) {
        if self.state.len() != n {
            self.state = vec![0; n];
        }
        self.pending.clear();
        self.changed.clear();
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order.sort_unstable_by(|&a, &b| {
            (weights[b as usize], b)
                .partial_cmp(&(weights[a as usize], a))
                .expect("finite weights")
        });
        for (i, &v) in self.order.iter().enumerate() {
            self.state[v as usize] = i as u64;
        }
    }
}

/// Pooled scratch for the LocalLeader MWIS, grouped so the solver can be
/// borrowed as one unit disjointly from the rest of the protocol state.
#[derive(Debug, Default)]
struct SolverScratch {
    /// Reusable branch-and-bound workspace.
    mwis_ws: exact::Workspace,
    greedy: greedy::Scratch,
    masters: Vec<usize>,
    /// Winners of the current leader's local MWIS, sorted ascending.
    local_mwis: Vec<usize>,
}

/// The status a determination assigns.
fn determined(is_winner: bool) -> Status {
    if is_winner {
        Status::Winner
    } else {
        Status::Loser
    }
}

/// What a local view (one sorted ball row and its statuses) knows about
/// `u`; `None` when `u` is outside the ball.
fn view_of(ball: &[u32], status: &[Status], u: usize) -> Option<Status> {
    ball.binary_search(&(u as u32)).ok().map(|i| status[i])
}

/// Reverse slots of a symmetric sorted-row CSR (`w ∈ row(u) ⟺ u ∈
/// row(w)`, as for hop balls): for the position `p` of `w` in `u`'s row,
/// the result's `p`-th entry is the position of `u` in `w`'s row. One
/// pass over the rows in owner order with a per-row cursor: the owners
/// `u` that list `w` arrive in ascending order, which is exactly the order
/// of `w`'s own sorted row.
///
/// # Panics
///
/// Panics if the CSR has more than `u32::MAX` entries or is not symmetric.
fn reverse_slots(offsets: &[usize], entries: &[u32]) -> Vec<u32> {
    assert!(
        u32::try_from(entries.len()).is_ok(),
        "ball table too large for u32 slots"
    );
    let mut cursor = offsets[..offsets.len().saturating_sub(1)].to_vec();
    let mut rev = vec![0u32; entries.len()];
    for (u, row) in offsets.windows(2).enumerate() {
        for p in row[0]..row[1] {
            let w = entries[p] as usize;
            let q = cursor[w];
            assert_eq!(entries[q] as usize, u, "ball rows are not symmetric");
            rev[p] = q as u32;
            cursor[w] += 1;
        }
    }
    rev
}

impl<'h> DistributedPtas<'h> {
    /// Precomputes the `r`- and `(2r+1)`-hop neighborhood tables of `H`.
    ///
    /// One [`BallScan`] per vertex on shared scratch builds both tables:
    /// `O(n + Σ_v ball)` set-up, with no per-vertex `O(n)` term.
    pub fn new(h: &'h ExtendedConflictGraph, config: DistributedPtasConfig) -> Self {
        let n = h.n_vertices();
        assert!(u32::try_from(n).is_ok(), "graph too large for the decider");
        let g = h.graph();
        let mut ball_offsets = Vec::with_capacity(n + 1);
        ball_offsets.push(0);
        let mut ball_entries = Vec::new();
        let mut balls_r = Vec::with_capacity(n);
        let mut scan = BallScan::default();
        let mut members = Vec::new();
        for v in 0..n {
            // BFS order is non-decreasing in distance, so the `r`-ball is
            // a prefix of the `(2r+1)`-ball scan.
            members.clear();
            members.push(v);
            let mut within_r = 1;
            scan.for_each(g, v, 2 * config.r + 1, |u, d| {
                members.push(u);
                within_r += usize::from(d as usize <= config.r);
            });
            let mut ball_r = members[..within_r].to_vec();
            ball_r.sort_unstable();
            balls_r.push(ball_r);
            members.sort_unstable();
            ball_entries.extend(members.iter().map(|&u| u as u32));
            ball_offsets.push(ball_entries.len());
        }
        let node_groups = (0..n).map(|v| v / h.n_channels()).collect();
        let mut engine = if config.loss_prob > 0.0 {
            FloodEngine::with_loss(g, config.loss_prob, config.loss_seed)
        } else {
            FloodEngine::new(g)
        };
        engine.prewarm(2 * config.r + 1);
        engine.prewarm(3 * config.r + 1);
        let partition = Partition::stripes(g, config.partitions.max(1), 2 * config.r + 1);
        DistributedPtas {
            h,
            config,
            engine,
            balls_r,
            ball_offsets,
            ball_entries,
            view_status: Vec::new(),
            ball_rev: Vec::new(),
            node_groups,
            own: Vec::new(),
            leaders: Vec::new(),
            declare_floods: Vec::new(),
            det_floods: Vec::new(),
            receivers: FloodReceivers::default(),
            received: Vec::new(),
            witness: Vec::new(),
            det_lists: Vec::new(),
            cand: Vec::new(),
            selectable: Vec::new(),
            solver: SolverScratch::default(),
            cache: LocalMaxCache::default(),
            scan_stats: DecideScanStats::default(),
            partition,
            tile_scratch: Vec::new(),
            state_snap: Vec::new(),
            changed_ranks: Vec::new(),
            profile_phases: false,
            phase_ns: DecidePhaseNs::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DistributedPtasConfig {
        &self.config
    }

    /// Runs one strategy decision with the given per-vertex index weights
    /// (the learning policy's output for this round), allocating a fresh
    /// outcome. Hot loops should prefer [`DistributedPtas::decide_into`].
    ///
    /// # Determinism under message loss
    ///
    /// Lossless decisions are pure functions of the weights. With
    /// `loss_prob > 0`, the persistent engine's loss RNG advances across
    /// decisions: runs are reproducible per `(loss_seed, sequence of
    /// decisions)`, but two decisions with identical weights within one
    /// run see *different* loss realizations (construct a fresh
    /// `DistributedPtas` to replay a stream from its seed).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != H.n_vertices()` or any weight is not
    /// finite.
    pub fn decide(&mut self, weights: &[f64]) -> DecisionOutcome {
        let mut out = DecisionOutcome::default();
        self.decide_into(weights, &mut out);
        out
    }

    /// The flood engine this decision protocol communicates through —
    /// exposed so same-graph engines (e.g. the Algorithm 2 runner's WB
    /// engine) can adopt its prewarmed neighborhood tables instead of
    /// rebuilding them ([`FloodEngine::adopt_tables`]).
    pub fn flood_engine(&self) -> &FloodEngine<'h> {
        &self.engine
    }

    /// Stream position of the persistent engine's loss sampler — the
    /// *only* semantic state this protocol carries across decisions
    /// (every `decide` resets counters and scratch; under loss, flood
    /// realizations are keyed by `(loss_seed, flood index)`). Always `0`
    /// on lossless configurations.
    pub fn loss_flood_index(&self) -> u64 {
        self.engine.loss_flood_index()
    }

    /// Repositions the loss stream between decisions (checkpoint
    /// restore): a fresh `DistributedPtas` with the same config and this
    /// index restored reproduces the remaining decisions of the original
    /// run bit-identically.
    pub fn set_loss_flood_index(&mut self, flood: u64) {
        self.engine.set_loss_flood_index(flood);
    }

    /// Leader-election work counters of the most recent decision —
    /// streamed into the observer pipeline as `decide_scanned` and the
    /// headline evidence that the dirty-ball path does less work than the
    /// full rescan it replaces.
    pub fn scan_stats(&self) -> DecideScanStats {
        self.scan_stats
    }

    /// Size of `v`'s closed `(2r+1)`-hop ball in `H`, read off the
    /// precomputed table.
    pub(crate) fn ball_len(&self, v: usize) -> usize {
        self.ball_offsets[v + 1] - self.ball_offsets[v]
    }

    /// The core+halo tiling the decide runs over (`None` when it is a
    /// single tile, i.e. `config.partitions <= 1`) — exposed so callers
    /// can report the boundary-handoff honesty metrics
    /// ([`Partition::halo_entries`]).
    pub fn partition(&self) -> Option<&Partition> {
        (self.partition.tile_count() > 1).then_some(&self.partition)
    }

    /// Overrides the flood engine's ball-table entry cap
    /// ([`FloodEngine::set_table_entry_cap`]) — the large-N bench raises
    /// it so lossless floods stay `O(1)` table scans instead of silently
    /// falling back to BFS (watch [`DecisionOutcome::fallback_floods`]).
    pub fn set_table_entry_cap(&mut self, cap: usize) {
        self.engine.set_table_entry_cap(cap);
    }

    /// Enables per-phase wall-clock stamps on the dirty-ball decide path
    /// (any tile count), readable via [`DistributedPtas::phase_ns`]. Off by
    /// default — the stamps are noise at large `n` but measurable in
    /// small-`n` hot loops.
    pub fn set_profile_phases(&mut self, on: bool) {
        self.profile_phases = on;
    }

    /// Per-phase wall-clock split of the last decision (zeroed unless
    /// profiling is on and the decision took the dirty-ball path).
    pub fn phase_ns(&self) -> DecidePhaseNs {
        self.phase_ns
    }

    /// As [`DistributedPtas::decide`], writing into a caller-owned outcome
    /// whose vectors are cleared and refilled in place — together with the
    /// internal scratch pools this makes steady-state decisions
    /// allocation-free.
    ///
    /// Dispatches to the dirty-ball election (module docs) on the lossless
    /// path — tiled over [`DistributedPtasConfig::partitions`] stripes,
    /// byte-identically for every tile count; under message loss — where
    /// local views can diverge from global state — or when
    /// [`DistributedPtasConfig::force_rescan`] is set, it runs the
    /// full-rescan reference path
    /// ([`DistributedPtas::decide_into_rescan`]).
    ///
    /// # Panics
    ///
    /// As [`DistributedPtas::decide`].
    pub fn decide_into(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        self.check_weights(weights);
        if self.config.loss_prob > 0.0 || self.config.force_rescan {
            self.rescan_impl(weights, out);
        } else {
            self.tiled_impl(weights, out);
        }
    }

    /// The full-rescan implementation of the decide phase: every
    /// undetermined Candidate re-evaluates its `(2r+1)`-ball view each
    /// mini-round (resuming at the first member that blocked it last
    /// time), and statuses propagate only through the local views,
    /// updated from the receivers the engine reports for each
    /// determination flood (module docs, *Local views on the rescan
    /// path*). It is (a) the mandatory path under message loss and (b) the
    /// oracle of the differential test battery (`tests/decide_parity.rs`),
    /// which pins the dirty-ball path to produce identical
    /// [`DecisionOutcome`]s.
    #[doc(hidden)]
    pub fn decide_into_rescan(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        self.check_weights(weights);
        self.rescan_impl(weights, out);
    }

    fn check_weights(&self, weights: &[f64]) {
        assert_eq!(weights.len(), self.h.n_vertices(), "weight vector length");
        assert!(
            weights.iter().all(|w| w.is_finite()),
            "weights must be finite"
        );
    }

    /// The dirty-ball decide phase (lossless only; the module docs give
    /// its invariants and the tiling's byte-identity argument). Reads and
    /// writes global status directly — under lossless delivery every local
    /// view agrees with it — and charges flood costs through the engine's
    /// counters-only delivery, so no inbox is ever materialized.
    fn tiled_impl(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        debug_assert_eq!(self.config.loss_prob, 0.0);
        let profiling = self.profile_phases;
        let Self {
            h,
            config,
            engine,
            balls_r,
            ball_offsets,
            ball_entries,
            node_groups,
            own,
            leaders,
            declare_floods,
            det_floods,
            det_lists,
            cache,
            scan_stats,
            partition,
            tile_scratch,
            state_snap,
            changed_ranks,
            phase_ns,
            ..
        } = self;
        let cuts: &[usize] = partition.cuts();
        let tiles = partition.tile_count();
        // The tile count is derived from the input, so one tile never
        // spawns a thread.
        let parallel = config.threads != 1 && tiles > 1;
        if tile_scratch.len() < tiles {
            tile_scratch.resize_with(tiles, TileScratch::default);
        }
        // Shared-read shadows of the pooled tables, so the Fn worker
        // closures capture plain `&` references.
        let balls_r: &[Vec<usize>] = balls_r;
        let ball_offsets: &[usize] = ball_offsets;
        let ball_entries: &[u32] = ball_entries;
        let node_groups: &[usize] = node_groups;
        let cfg: &DistributedPtasConfig = config;
        let n = h.n_vertices();
        let graph = h.graph();
        let r = cfg.r;
        engine.reset_counters();
        *scan_stats = DecideScanStats::default();
        let mut phases = DecidePhaseNs::default();
        let mut stamp = profiling.then(Instant::now);
        let mut lap = |slot: &mut u64| {
            if let Some(s) = stamp.as_mut() {
                let now = Instant::now();
                *slot += now.duration_since(*s).as_nanos() as u64;
                *s = now;
            }
        };

        own.clear();
        own.resize(n, Status::Candidate);
        cache.begin(n, weights);
        let mut remaining = n;
        out.winners.clear();
        out.per_miniround_weight.clear();
        out.leaders_per_miniround.clear();
        out.leaders_flat.clear();
        out.all_marked = false;
        let cap = cfg.max_minirounds.unwrap_or(n.max(1));

        for tau in 0..cap {
            // ---- 1. LocalLeader selection. Mini-round 0 probes each
            // ball with early exit at the first higher-priority member;
            // per-tile leader lists concatenate in tile order, which *is*
            // the reference path's ascending scan order. Later rounds read
            // the leaders off the pending zero-count list — no ball is
            // scanned again — and sort it, normalizing the tiles' push
            // order.
            leaders.clear();
            if tau == 0 {
                let state: &[u64] = &cache.state;
                run_tiles(
                    parallel,
                    tile_scratch[..tiles].iter_mut().enumerate(),
                    |(t, ts)| {
                        ts.leaders.clear();
                        ts.scanned = 0;
                        for v in cuts[t]..cuts[t + 1] {
                            ts.scanned += 1;
                            let rv = state[v] as u32;
                            let leads = ball_entries[ball_offsets[v]..ball_offsets[v + 1]]
                                .iter()
                                .all(|&u| (state[u as usize] as u32) >= rv);
                            if leads {
                                ts.leaders.push(v);
                            }
                        }
                    },
                );
                for ts in tile_scratch[..tiles].iter_mut() {
                    scan_stats.candidates_scanned += ts.scanned;
                    leaders.extend_from_slice(&ts.leaders);
                }
            } else {
                for idx in 0..cache.pending.len() {
                    let v = cache.pending[idx];
                    // A zero-count vertex leads unless it was itself
                    // determined in the round that unblocked it.
                    if own[v] == Status::Candidate {
                        scan_stats.fast_skips += 1;
                        leaders.push(v);
                    }
                }
                cache.pending.clear();
                leaders.sort_unstable();
            }
            lap(&mut phases.election_ns);
            if leaders.is_empty() {
                out.all_marked = remaining == 0;
                break;
            }
            out.leaders_per_miniround.push(leaders.len());
            out.leaders_flat.extend_from_slice(leaders);

            // ---- 2. Leader declaration floods ((2r+1) hops, accounting
            // only — same as the reference path).
            declare_floods.clear();
            declare_floods.extend(leaders.iter().map(|&v| Flood {
                origin: v,
                ttl: 2 * r + 1,
                payload: Msg::LeaderDeclare,
            }));
            engine.broadcast_only(declare_floods);
            lap(&mut phases.broadcast_ns);

            // ---- 3. Local MWIS per leader, reading global status (equal
            // to the leader's view under lossless delivery), leader slots
            // chunked over the tiles; each worker owns its slots'
            // `det_lists` outright.
            if det_lists.len() < leaders.len() {
                det_lists.resize_with(leaders.len(), Vec::new);
            }
            let nl = leaders.len();
            let chunk = nl.div_ceil(tiles).max(1);
            {
                let own_ref: &[Status] = own;
                let leaders_ref: &[usize] = leaders;
                run_tiles(
                    parallel,
                    det_lists[..nl]
                        .chunks_mut(chunk)
                        .zip(tile_scratch.iter_mut())
                        .enumerate(),
                    |(ci, (lists, ts))| {
                        let base = ci * chunk;
                        for (off, list) in lists.iter_mut().enumerate() {
                            let leader = leaders_ref[base + off];
                            ts.cand.clear();
                            ts.cand.extend(
                                balls_r[leader]
                                    .iter()
                                    .copied()
                                    .filter(|&u| own_ref[u] == Status::Candidate),
                            );
                            ts.selectable.clear();
                            ts.selectable.extend(ts.cand.iter().copied().filter(|&u| {
                                graph
                                    .neighbors(u)
                                    .iter()
                                    .all(|&x| own_ref[x] != Status::Winner)
                            }));
                            Self::solve_local(
                                graph,
                                cfg,
                                node_groups,
                                &mut ts.solver,
                                weights,
                                &ts.selectable,
                            );
                            list.clear();
                            list.extend(
                                ts.cand
                                    .iter()
                                    .map(|&u| (u, ts.solver.local_mwis.binary_search(&u).is_ok())),
                            );
                        }
                    },
                );
            }
            det_floods.clear();
            det_floods.extend(leaders.iter().enumerate().map(|(slot, &leader)| Flood {
                origin: leader,
                ttl: 3 * r + 1,
                payload: Msg::Determination(slot as u32),
            }));
            lap(&mut phases.mwis_ns);

            // ---- 4. Determination floods, accounting only: lossless
            // delivery is total within the TTL, so applying each list once
            // to the global status array is what every receiver's view
            // update would compute. Same-mini-round lists are disjoint
            // (leaders are ≥ 2r+2 apart), so order is immaterial.
            engine.broadcast_only(det_floods);
            cache.changed.clear();
            for list in det_lists.iter().take(leaders.len()) {
                for &(u, is_winner) in list {
                    debug_assert_eq!(own[u], Status::Candidate);
                    own[u] = determined(is_winner);
                    cache.state[u] |= DETERMINED;
                    remaining -= 1;
                    cache.changed.push(u);
                }
            }
            lap(&mut phases.broadcast_ns);

            // ---- 5. Bookkeeping (same summation order as the reference
            // path, so the Fig. 6 series is bit-identical).
            let cum: f64 = (0..n)
                .filter(|&v| own[v] == Status::Winner)
                .map(|v| weights[v])
                .sum();
            out.per_miniround_weight.push(cum);
            if remaining == 0 {
                out.all_marked = true;
                lap(&mut phases.sweep_ns);
                break;
            }

            // ---- 6. Dirty expansion over the state stripes, feeding the
            // *next* mini-round's election (skipped on the budget's last
            // round — nothing would read it).
            if tau + 1 == cap {
                lap(&mut phases.sweep_ns);
                continue;
            }
            if tau == 0 {
                // Seed the blocked counts over the survivors only, which
                // folds mini-round 0's (largest) determination wave into
                // the seeding sweep. Workers read a pre-sweep snapshot and
                // write only their stripe: the probe reads immutable ranks
                // and the `< DETERMINED` test, which no in-sweep write can
                // flip. Pending lists concatenate in tile order = ascending.
                state_snap.clone_from(&cache.state);
                let snap: &[u64] = state_snap;
                let own_ref: &[Status] = own;
                run_tiles(
                    parallel,
                    split_by_cuts(&mut cache.state, cuts)
                        .zip(tile_scratch.iter_mut())
                        .enumerate(),
                    |(t, (stripe, ts))| {
                        ts.pending.clear();
                        ts.scanned = 0;
                        let base = cuts[t];
                        for (i, slot) in stripe.iter_mut().enumerate() {
                            let v = base + i;
                            if own_ref[v] != Status::Candidate {
                                continue;
                            }
                            ts.scanned += 1;
                            let rv = snap[v] as u32;
                            let mut blocked = 0u64;
                            for &u in &ball_entries[ball_offsets[v]..ball_offsets[v + 1]] {
                                let s = snap[u as usize];
                                blocked += u64::from((s as u32) < rv) & u64::from(s < DETERMINED);
                            }
                            *slot |= blocked << 32;
                            if blocked == 0 {
                                ts.pending.push(v);
                            }
                        }
                    },
                );
                for ts in tile_scratch[..tiles].iter_mut() {
                    scan_stats.candidates_scanned += ts.scanned;
                    cache.pending.extend_from_slice(&ts.pending);
                }
            } else {
                // Retire each changed `u` from the blocked counts of the
                // lower-priority Candidates in its (2r+1)-ball; whoever
                // drops to zero leads next mini-round. The sweep splits by
                // *target* stripe: every worker walks all changed vertices
                // but touches only the (binary-searched) sub-range of each
                // sorted ball in its stripe, with changed ranks precomputed
                // serially. Hit-zero moments are the same for every tile
                // count; the next election's sort normalizes the order.
                changed_ranks.clear();
                changed_ranks.extend(cache.changed.iter().map(|&u| cache.state[u] as u32));
                let changed: &[usize] = &cache.changed;
                let ranks: &[u32] = changed_ranks;
                run_tiles(
                    parallel,
                    split_by_cuts(&mut cache.state, cuts)
                        .zip(tile_scratch.iter_mut())
                        .enumerate(),
                    |(t, (stripe, ts))| {
                        ts.pending.clear();
                        ts.decrements = 0;
                        let lo = cuts[t] as u32;
                        let hi = cuts[t + 1] as u32;
                        for (i, &u) in changed.iter().enumerate() {
                            let ru = ranks[i];
                            let ball = &ball_entries[ball_offsets[u]..ball_offsets[u + 1]];
                            let a = ball.partition_point(|&x| x < lo);
                            let b = ball.partition_point(|&x| x < hi);
                            for &x in &ball[a..b] {
                                let xi = (x - lo) as usize;
                                // The rank test is unpredictable, so the
                                // decrement is branchless; only the rare
                                // hit-zero push branches.
                                let s = stripe[xi];
                                let dec = u64::from((s as u32) > ru) & u64::from(s < DETERMINED);
                                ts.decrements += dec;
                                let s = s - (dec << 32);
                                stripe[xi] = s;
                                if dec != 0 && s >> 32 == 0 {
                                    ts.pending.push(x as usize);
                                }
                            }
                        }
                    },
                );
                for ts in tile_scratch[..tiles].iter_mut() {
                    scan_stats.dirty_decrements += ts.decrements;
                    cache.pending.extend_from_slice(&ts.pending);
                }
            }
            lap(&mut phases.sweep_ns);
        }
        *phase_ns = phases;

        Self::finish_outcome(graph, own, engine, out);
    }

    /// Shared outcome epilogue: winners, conflict audit, counters.
    fn finish_outcome(
        graph: &mhca_graph::Graph,
        own: &[Status],
        engine: &FloodEngine<'_>,
        out: &mut DecisionOutcome,
    ) {
        out.winners
            .extend((0..own.len()).filter(|&v| own[v] == Status::Winner));
        // Adjacent Winner pairs, each counted once via its lower endpoint.
        // Adjacency-list sweep, not all-pairs `has_edge`: at n = 5×10^4
        // the quadratic audit costs more than the decision it audits.
        out.conflicts = out
            .winners
            .iter()
            .map(|&u| {
                graph
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| w > u && own[w] == Status::Winner)
                    .count()
            })
            .sum();
        out.minirounds_used = out.leaders_per_miniround.len();
        out.fallback_floods = engine.fallback_floods();
        out.counters.clone_from(engine.counters());
    }

    fn rescan_impl(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        let n = self.h.n_vertices();
        let graph = self.h.graph();
        let r = self.config.r;
        self.engine.reset_counters();
        self.scan_stats = DecideScanStats::default();
        self.phase_ns = DecidePhaseNs::default();

        // The reverse slots are built on the rescan path's first use (the
        // dirty-ball path never reads them, so lossless runs never pay).
        if self.ball_rev.len() != self.ball_entries.len() {
            self.ball_rev = reverse_slots(&self.ball_offsets, &self.ball_entries);
            self.received = vec![false; n];
        }
        let Self {
            config,
            engine,
            balls_r,
            ball_offsets: off,
            ball_entries: ent,
            view_status,
            ball_rev: rev,
            node_groups,
            own,
            leaders,
            declare_floods,
            det_floods,
            receivers,
            received,
            witness,
            det_lists,
            cand,
            selectable,
            solver,
            scan_stats,
            ..
        } = self;
        view_status.clear();
        view_status.resize(ent.len(), Status::Candidate);
        witness.clear();
        witness.extend_from_slice(&off[..n]);
        own.clear();
        own.resize(n, Status::Candidate);
        out.winners.clear();
        out.per_miniround_weight.clear();
        out.leaders_per_miniround.clear();
        out.leaders_flat.clear();
        out.all_marked = false;
        let cap = config.max_minirounds.unwrap_or(n.max(1));

        for _tau in 0..cap {
            // ---- 1. LocalLeader selection (Algorithm 3 lines 2–6).
            // A Candidate leads iff no other Candidate in its (2r+1)-ball
            // has a larger (weight, id) pair — the strict total order that
            // keeps same-mini-round leaders ≥ 2r+2 hops apart.
            // Each scan resumes at the vertex's witness cursor: the entries
            // before it did not block when passed, and cannot block later
            // (priorities are fixed and a view status never returns to
            // Candidate), so a vertex whose blocker is still undetermined
            // costs one check.
            leaders.clear();
            for v in 0..n {
                if own[v] != Status::Candidate {
                    continue;
                }
                scan_stats.candidates_scanned += 1;
                let end = off[v + 1];
                let mut p = witness[v];
                while p < end {
                    let u = ent[p] as usize;
                    if u != v
                        && view_status[p] == Status::Candidate
                        && (weights[u], u) > (weights[v], v)
                    {
                        break;
                    }
                    p += 1;
                }
                witness[v] = p;
                if p == end {
                    leaders.push(v);
                }
            }
            if leaders.is_empty() {
                out.all_marked = own.iter().all(|&s| s != Status::Candidate);
                break;
            }
            out.leaders_per_miniround.push(leaders.len());
            out.leaders_flat.extend_from_slice(leaders);

            // ---- 2. Leader declaration floods (line 4; (2r+1) hops).
            // Declarations only need to have been broadcast (leadership is
            // evaluated from the shared weight/status knowledge); charge
            // the communication without materializing receptions.
            declare_floods.clear();
            declare_floods.extend(leaders.iter().map(|&v| Flood {
                origin: v,
                ttl: 2 * r + 1,
                payload: Msg::LeaderDeclare,
            }));
            engine.broadcast_only(declare_floods);

            // ---- 3. Local MWIS per leader (lines 8–9), reading only the
            // leader's own view.
            if det_lists.len() < leaders.len() {
                det_lists.resize_with(leaders.len(), Vec::new);
            }
            det_floods.clear();
            for (slot, &leader) in leaders.iter().enumerate() {
                let row = off[leader]..off[leader + 1];
                let (ball, status) = (&ent[row.clone()], &view_status[row]);
                // Candidates of the r-ball, per the leader's knowledge.
                cand.clear();
                cand.extend(
                    balls_r[leader]
                        .iter()
                        .copied()
                        .filter(|&u| view_of(ball, status, u) == Some(Status::Candidate)),
                );
                // Derived exclusion: candidates adjacent to a known Winner
                // can never join the output; they are Losers.
                selectable.clear();
                selectable.extend(cand.iter().copied().filter(|&u| {
                    graph
                        .neighbors(u)
                        .iter()
                        .all(|&x| view_of(ball, status, x) != Some(Status::Winner))
                }));
                Self::solve_local(graph, config, node_groups, solver, weights, selectable);
                let list = &mut det_lists[slot];
                list.clear();
                list.extend(
                    cand.iter()
                        .map(|&u| (u, solver.local_mwis.binary_search(&u).is_ok())),
                );
                det_floods.push(Flood {
                    origin: leader,
                    ttl: 3 * r + 1,
                    payload: Msg::Determination(slot as u32),
                });
            }

            // ---- 4. Determination floods (line 10; (3r+1) hops) and
            // local processing (lines 11–15). Each vertex applies, in
            // order, its own list if it leads (a leader does not receive
            // its own flood) and then every list it received, in flood
            // order; the last write to a view slot wins. Every write lands
            // in the receiver's own view, so running the receivers in any
            // interleaving gives the same views.
            engine.deliver_receivers_into(det_floods, receivers);
            for (list, &leader) in det_lists.iter().zip(leaders.iter()) {
                // The list is an ascending subset of the leader's row
                // (its r-ball), so one merge walk finds every slot.
                let base = off[leader];
                let mut p = base;
                for &(u, is_winner) in list {
                    while ent[p] < u as u32 {
                        p += 1;
                    }
                    debug_assert_eq!(ent[p] as usize, u);
                    let s = determined(is_winner);
                    if u == leader {
                        own[leader] = s;
                    }
                    view_status[p] = s;
                }
            }
            for (slot, list) in det_lists.iter().take(leaders.len()).enumerate() {
                let got = receivers.of(slot);
                for &w in got {
                    received[w as usize] = true;
                }
                // A receiver `w` holds `u` iff `w` is in `u`'s ball, so
                // walking `u`'s row visits exactly the views the entry
                // updates; the reverse slot is `u`'s place in `w`'s view.
                for &(u, is_winner) in list {
                    let s = determined(is_winner);
                    for p in off[u]..off[u + 1] {
                        let w = ent[p] as usize;
                        if !received[w] {
                            continue;
                        }
                        let q = rev[p] as usize;
                        if w == u {
                            // Loss defense: refuse Winner when a known
                            // neighbor already won (never fires under
                            // lossless delivery).
                            let row = off[u]..off[u + 1];
                            let (ball, status) = (&ent[row.clone()], &view_status[row]);
                            if is_winner
                                && graph
                                    .neighbors(u)
                                    .iter()
                                    .any(|&x| view_of(ball, status, x) == Some(Status::Winner))
                            {
                                own[u] = Status::Loser;
                                view_status[q] = Status::Loser;
                                continue;
                            }
                            own[u] = s;
                        }
                        view_status[q] = s;
                    }
                }
                for &w in got {
                    received[w as usize] = false;
                }
            }

            // ---- 5. Bookkeeping for the Fig. 6 series.
            let cum: f64 = (0..n)
                .filter(|&v| own[v] == Status::Winner)
                .map(|v| weights[v])
                .sum();
            out.per_miniround_weight.push(cum);
            if own.iter().all(|&s| s != Status::Candidate) {
                out.all_marked = true;
                break;
            }
        }

        Self::finish_outcome(graph, own, engine, out);
    }

    /// Local MWIS over the selectable candidates (grouped by master node),
    /// written sorted-ascending into `scratch.local_mwis`.
    ///
    /// The exact and greedy paths run entirely on the pooled scratch
    /// (allocation-free when warm); the local-search fallback allocates
    /// its result set — it is the cold, quality-ablation configuration.
    fn solve_local(
        graph: &mhca_graph::Graph,
        config: &DistributedPtasConfig,
        node_groups: &[usize],
        scratch: &mut SolverScratch,
        weights: &[f64],
        selectable: &[usize],
    ) {
        let out = &mut scratch.local_mwis;
        match config.local_solver {
            LocalSolver::Exact => {
                scratch
                    .mwis_ws
                    .solve_grouped_into(graph, weights, selectable, node_groups, out);
            }
            LocalSolver::Greedy => {
                greedy::max_weight_subset_into(
                    graph,
                    weights,
                    selectable,
                    &mut scratch.greedy,
                    out,
                );
            }
            LocalSolver::LocalSearch { max_passes } => {
                let s =
                    mhca_mwis::local_search::solve_subset(graph, weights, selectable, max_passes);
                out.clear();
                out.extend_from_slice(&s.vertices);
            }
            LocalSolver::Auto { max_exact_groups } => {
                let masters = &mut scratch.masters;
                masters.clear();
                masters.extend(selectable.iter().map(|&v| node_groups[v]));
                masters.sort_unstable();
                masters.dedup();
                if masters.len() <= max_exact_groups {
                    scratch.mwis_ws.solve_grouped_into(
                        graph,
                        weights,
                        selectable,
                        node_groups,
                        out,
                    );
                } else {
                    greedy::max_weight_subset_into(
                        graph,
                        weights,
                        selectable,
                        &mut scratch.greedy,
                        out,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::topology;

    fn decide(
        g: &mhca_graph::Graph,
        m: usize,
        weights: &[f64],
        config: DistributedPtasConfig,
    ) -> DecisionOutcome {
        let h = ExtendedConflictGraph::new(g, m);
        let mut ptas = DistributedPtas::new(&h, config);
        ptas.decide(weights)
    }

    fn run_to_completion(r: usize) -> DistributedPtasConfig {
        DistributedPtasConfig::default()
            .with_r(r)
            .with_max_minirounds(None)
    }

    #[test]
    fn ball_tables_match_r_hop_neighborhoods() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let (udg, _) = mhca_graph::unit_disk::random_with_average_degree(60, 4.0, &mut rng);
        for (g, m) in [(udg, 3), (topology::grid(5, 6), 2)] {
            let h = ExtendedConflictGraph::new(&g, m);
            let hg = h.graph();
            for r in 0..=3 {
                let ptas = DistributedPtas::new(&h, DistributedPtasConfig::default().with_r(r));
                for v in 0..hg.n() {
                    let ball: Vec<usize> = ptas.ball_entries
                        [ptas.ball_offsets[v]..ptas.ball_offsets[v + 1]]
                        .iter()
                        .map(|&u| u as usize)
                        .collect();
                    assert_eq!(ball, hg.r_hop_neighborhood(v, 2 * r + 1), "r={r} v={v}");
                    assert_eq!(ptas.ball_len(v), ball.len());
                    assert_eq!(ptas.balls_r[v], hg.r_hop_neighborhood(v, r), "r={r} v={v}");
                }
            }
        }
    }

    #[test]
    fn reverse_slots_point_back_to_row_owners() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let (udg, _) = mhca_graph::unit_disk::random_with_average_degree(50, 4.0, &mut rng);
        // Vertices 5..9 are isolated: their rows hold only themselves.
        let mut b = mhca_graph::Graph::builder(9);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] {
            b.add_edge(u, v);
        }
        let isolated = b.build();
        for (name, g, m) in [
            ("unit-disk", udg, 3),
            ("grid", topology::grid(4, 6), 2),
            ("line", topology::line(12), 1),
            ("isolated", isolated, 2),
            ("empty", mhca_graph::Graph::builder(0).build(), 2),
        ] {
            let h = ExtendedConflictGraph::new(&g, m);
            for r in [0, 1, 2] {
                let cfg = DistributedPtasConfig::default().with_r(r);
                let mut ptas = DistributedPtas::new(&h, cfg);
                let (off, ent) = (ptas.ball_offsets.clone(), ptas.ball_entries.clone());
                let rev = reverse_slots(&off, &ent);
                assert_eq!(rev.len(), ent.len());
                for u in 0..h.n_vertices() {
                    for p in off[u]..off[u + 1] {
                        let (w, q) = (ent[p] as usize, rev[p] as usize);
                        assert!((off[w]..off[w + 1]).contains(&q), "{name} r={r}: slot {p}");
                        assert_eq!(ent[q] as usize, u, "{name} r={r}: slot {p}");
                        assert_eq!(rev[q] as usize, p, "{name} r={r}: slot {p}");
                    }
                }
                // Lossless decides never build the index; the first rescan
                // decide builds exactly this one.
                let w = vec![0.5; h.n_vertices()];
                ptas.decide(&w);
                assert!(ptas.ball_rev.is_empty());
                ptas.decide_into_rescan(&w, &mut DecisionOutcome::default());
                assert_eq!(ptas.ball_rev, rev, "{name} r={r}");
                assert_eq!(ptas.view_status.len(), ent.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn reverse_slots_reject_asymmetric_rows() {
        // Row 0 lists 1, but row 1 does not list 0.
        reverse_slots(&[0, 2, 3], &[0, 1, 1]);
    }

    #[test]
    fn winners_are_independent_and_all_marked() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(30, 4.0, &mut rng);
            let m = 3;
            let h = ExtendedConflictGraph::new(&g, m);
            let w: Vec<f64> = (0..h.n_vertices())
                .map(|_| rng.gen_range(0.1..1.0))
                .collect();
            let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
            let out = ptas.decide(&w);
            assert!(out.all_marked, "protocol must terminate fully");
            assert_eq!(out.conflicts, 0);
            assert!(h.graph().is_independent(&out.winners));
        }
    }

    #[test]
    fn single_vertex_wins_alone() {
        let g = topology::independent(1);
        let out = decide(&g, 1, &[0.7], run_to_completion(1));
        assert_eq!(out.winners, vec![0]);
        assert_eq!(out.minirounds_used, 1);
        assert!(out.all_marked);
    }

    #[test]
    fn two_conflicting_nodes_one_channel() {
        // G: 0—1, M=1 ⇒ H is a single edge. Heavier vertex wins.
        let g = topology::line(2);
        let out = decide(&g, 1, &[0.3, 0.9], run_to_completion(2));
        assert_eq!(out.winners, vec![1]);
    }

    #[test]
    fn equal_weights_still_resolve_exactly_one_winner() {
        // Leader election ties break by id; the local MWIS then picks one
        // of the two equal-weight vertices. Either is optimal — the
        // invariant is that exactly one wins and the protocol terminates.
        let g = topology::line(2);
        let out = decide(&g, 1, &[0.5, 0.5], run_to_completion(2));
        assert_eq!(out.winners.len(), 1);
        assert!(out.all_marked);
        assert_eq!(out.conflicts, 0);
    }

    #[test]
    fn matches_good_quality_on_random_instances() {
        // Full-run distributed output should be within a modest factor of
        // the exact optimum on small instances.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(12, 3.0, &mut rng);
            let m = 2;
            let h = ExtendedConflictGraph::new(&g, m);
            let w: Vec<f64> = (0..h.n_vertices())
                .map(|_| rng.gen_range(0.1..1.0))
                .collect();
            let groups: Vec<usize> = (0..h.n_vertices()).map(|v| v / m).collect();
            let allowed: Vec<usize> = (0..h.n_vertices()).collect();
            let opt = exact::solve_grouped(h.graph(), &w, &allowed, &groups);
            let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
            let out = ptas.decide(&w);
            let achieved: f64 = out.winners.iter().map(|&v| w[v]).sum();
            assert!(
                achieved >= 0.5 * opt.weight,
                "distributed {achieved} vs opt {}",
                opt.weight
            );
        }
    }

    #[test]
    fn linear_network_needs_many_minirounds() {
        // Fig. 5: decreasing weights along a line force Θ(N) mini-rounds.
        let n = 30;
        let g = topology::line(n);
        let w: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / n as f64).collect();
        let out = decide(&g, 1, &w, run_to_completion(1));
        assert!(out.all_marked);
        assert!(
            out.minirounds_used >= n / 4,
            "expected Θ(N) mini-rounds, got {}",
            out.minirounds_used
        );
    }

    #[test]
    fn random_network_converges_fast() {
        // Theorem 4 / Fig. 6: random networks converge in few mini-rounds.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(50, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 5);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
        let out = ptas.decide(&w);
        assert!(out.all_marked);
        assert!(
            out.minirounds_used <= 10,
            "expected fast convergence, got {}",
            out.minirounds_used
        );
    }

    #[test]
    fn capped_minirounds_still_independent() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 4);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(
            &h,
            DistributedPtasConfig::default()
                .with_r(2)
                .with_max_minirounds(Some(2)),
        );
        let out = ptas.decide(&w);
        assert!(out.minirounds_used <= 2);
        assert_eq!(out.conflicts, 0);
        assert!(h.graph().is_independent(&out.winners));
    }

    #[test]
    fn per_miniround_weight_is_nondecreasing() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
        let out = ptas.decide(&w);
        for pair in out.per_miniround_weight.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12);
        }
        let final_weight: f64 = out.winners.iter().map(|&v| w[v]).sum();
        let last = *out.per_miniround_weight.last().unwrap();
        assert!((final_weight - last).abs() < 1e-9);
    }

    #[test]
    fn at_most_one_channel_per_node() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(25, 4.0, &mut rng);
        let m = 4;
        let h = ExtendedConflictGraph::new(&g, m);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
        let out = ptas.decide(&w);
        let mut masters: Vec<usize> = out.winners.iter().map(|&v| v / m).collect();
        let before = masters.len();
        masters.dedup();
        assert_eq!(before, masters.len(), "a node won two channels");
    }

    #[test]
    fn decisions_depend_only_on_local_information() {
        // Two disconnected components: changing weights in one must not
        // change the winners of the other.
        let g = mhca_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let h = ExtendedConflictGraph::new(&g, 2);
        let mut w: Vec<f64> = (0..12).map(|i| 0.1 + i as f64 * 0.05).collect();
        let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
        let out1 = ptas.decide(&w);
        // Scramble the second component's weights (nodes 3..6 ⇒ vertices 6..12).
        for x in w.iter_mut().skip(6) {
            *x *= 0.37;
        }
        let out2 = ptas.decide(&w);
        let comp_a = |ws: &[usize]| ws.iter().copied().filter(|&v| v < 6).collect::<Vec<_>>();
        assert_eq!(comp_a(&out1.winners), comp_a(&out2.winners));
    }

    #[test]
    fn greedy_local_solver_is_safe() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(
            &h,
            run_to_completion(2).with_local_solver(LocalSolver::Greedy),
        );
        let out = ptas.decide(&w);
        assert!(out.all_marked);
        assert!(h.graph().is_independent(&out.winners));
    }

    #[test]
    fn local_search_solver_matches_or_beats_greedy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(88);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let run = |solver| {
            let mut ptas = DistributedPtas::new(&h, run_to_completion(2).with_local_solver(solver));
            let out = ptas.decide(&w);
            assert!(h.graph().is_independent(&out.winners));
            out.winners.iter().map(|&v| w[v]).sum::<f64>()
        };
        let greedy_w = run(LocalSolver::Greedy);
        let ls_w = run(LocalSolver::LocalSearch { max_passes: 10 });
        assert!(
            ls_w >= 0.95 * greedy_w,
            "local search {ls_w} much worse than greedy {greedy_w}"
        );
    }

    #[test]
    fn lossy_delivery_terminates_and_reports_conflicts() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(30, 4.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 2);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(
            &h,
            DistributedPtasConfig::default()
                .with_r(1)
                .with_max_minirounds(Some(20))
                .with_loss(0.2, 42),
        );
        let out = ptas.decide(&w);
        // Liveness degrades gracefully; the conflict counter quantifies
        // any safety damage instead of hiding it.
        assert!(out.minirounds_used <= 20);
        assert!(out.conflicts < out.winners.len().max(1));
    }

    #[test]
    fn counters_accumulate_communication() {
        let g = topology::line(5);
        let out = decide(&g, 2, &[0.5; 10], run_to_completion(1));
        assert!(out.counters.transmissions > 0);
        assert!(out.counters.timeslots > 0);
    }

    #[test]
    fn decide_incremental_matches_rescan_reference() {
        // Differential smoke (the full grid lives in tests/decide_parity.rs):
        // the incremental dirty-ball path and the full-rescan reference must
        // produce identical outcomes — winners, series, leaders, counters —
        // across repeated decisions on one engine pair.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..6 {
            let (g, _) = mhca_graph::unit_disk::random_with_average_degree(35, 4.5, &mut rng);
            let h = ExtendedConflictGraph::new(&g, 3);
            for r in [1, 2] {
                let cfg = run_to_completion(r);
                let mut inc = DistributedPtas::new(&h, cfg);
                let mut reference = DistributedPtas::new(&h, cfg);
                let mut a = DecisionOutcome::default();
                let mut b = DecisionOutcome::default();
                for round in 0..3 {
                    let w: Vec<f64> = (0..h.n_vertices())
                        .map(|_| rng.gen_range(0.1..1.0))
                        .collect();
                    inc.decide_into(&w, &mut a);
                    reference.decide_into_rescan(&w, &mut b);
                    assert_eq!(a, b, "trial {trial} r {r} round {round}");
                }
            }
        }
    }

    #[test]
    fn decide_force_rescan_config_routes_to_reference_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(30, 4.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut forced = DistributedPtas::new(&h, run_to_completion(2).with_force_rescan(true));
        let out = forced.decide(&w);
        // The rescan path never writes dirty-set instrumentation.
        assert_eq!(forced.scan_stats().fast_skips, 0);
        assert_eq!(forced.scan_stats().dirty_decrements, 0);
        let mut inc = DistributedPtas::new(&h, run_to_completion(2));
        assert_eq!(inc.decide(&w), out);
        if out.minirounds_used > 1 {
            assert!(
                inc.scan_stats().candidates_scanned < forced.scan_stats().candidates_scanned,
                "incremental path must scan fewer candidates"
            );
        }
    }

    #[test]
    fn decide_scan_stats_near_one_sweep_on_incremental_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(60, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 4);
        let n = h.n_vertices() as u64;
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut inc = DistributedPtas::new(&h, run_to_completion(2));
        let out = inc.decide(&w);
        assert!(out.all_marked);
        let stats = inc.scan_stats();
        // Mini-round 0 scans everyone once; later rounds only rescan
        // candidates whose blocker fell — a vertex is rescanned at most
        // once per mini-round, and in practice far less.
        assert!(stats.candidates_scanned >= n);
        assert!(
            stats.candidates_scanned <= n * out.minirounds_used as u64,
            "scanned {} with n {} over {} mini-rounds",
            stats.candidates_scanned,
            n,
            out.minirounds_used
        );
        let mut reference = DistributedPtas::new(&h, run_to_completion(2));
        reference.decide_into_rescan(&w, &mut DecisionOutcome::default());
        assert!(stats.candidates_scanned < reference.scan_stats().candidates_scanned);
    }

    #[test]
    fn decide_leaders_flat_segments_match_counts() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(51);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 5.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
        let out = ptas.decide(&w);
        let total: usize = out.leaders_per_miniround.iter().sum();
        assert_eq!(out.leaders_flat.len(), total);
        for tau in 0..out.minirounds_used {
            let seg = out.leaders_of_miniround(tau);
            assert_eq!(seg.len(), out.leaders_per_miniround[tau]);
            assert!(seg.windows(2).all(|p| p[0] < p[1]), "segment not ascending");
        }
    }

    #[test]
    fn tiled_decide_is_byte_identical_to_serial() {
        // Smoke differential (the full grid lives in
        // tests/partition_parity.rs): every tile count — `partitions <= 1`
        // being the single-tile serial sweep — under the serial tile loop
        // and one-thread-per-tile alike must equal the rescan oracle's
        // outcome bit for bit, with identical scan stats across tile
        // counts.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(71);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(50, 4.5, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut oracle = DistributedPtas::new(&h, run_to_completion(2));
        let mut expect = DecisionOutcome::default();
        oracle.decide_into_rescan(&w, &mut expect);
        let mut serial = DistributedPtas::new(&h, run_to_completion(2));
        assert_eq!(serial.decide(&w), expect);
        for threads in [0, 1] {
            for tiles in [0, 1, 2, 3, 8] {
                let cfg = run_to_completion(2)
                    .with_partitions(tiles)
                    .with_threads(threads);
                let mut tiled = DistributedPtas::new(&h, cfg);
                assert_eq!(
                    tiled.partition().is_some(),
                    tiles > 1,
                    "tiles {tiles} threads {threads}"
                );
                let got = tiled.decide(&w);
                assert_eq!(got, expect, "tiles {tiles} threads {threads}");
                assert_eq!(
                    tiled.scan_stats(),
                    serial.scan_stats(),
                    "tiles {tiles} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn phase_profiling_is_gated_and_sums_sanely() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(81);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(40, 4.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        let mut ptas = DistributedPtas::new(&h, run_to_completion(2));
        ptas.decide(&w);
        assert_eq!(ptas.phase_ns(), DecidePhaseNs::default(), "off by default");
        ptas.set_profile_phases(true);
        ptas.decide(&w);
        let phases = ptas.phase_ns();
        assert!(phases.total_ns() > 0, "profiling must record something");
        // The tiled path records too, and profiling never perturbs the
        // outcome.
        let mut tiled =
            DistributedPtas::new(&h, run_to_completion(2).with_partitions(4).with_threads(1));
        tiled.set_profile_phases(true);
        assert_eq!(tiled.decide(&w), ptas.decide(&w));
        assert!(tiled.phase_ns().total_ns() > 0);
    }

    #[test]
    fn decide_outcome_reuse_alternating_big_and_small_decisions() {
        // Regression: reusing one DecisionOutcome across decisions of very
        // different shapes (many mini-rounds → few, large H → small H) must
        // behave exactly like a fresh outcome — every series is cleared, not
        // truncated against stale capacity assumptions.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let big_g = topology::line(40);
        let big_h = ExtendedConflictGraph::new(&big_g, 1);
        let big_w: Vec<f64> = (0..40).map(|i| 1.0 - i as f64 / 41.0).collect();
        let mut rng = StdRng::seed_from_u64(61);
        let (small_g, _) = mhca_graph::unit_disk::random_with_average_degree(10, 3.0, &mut rng);
        let small_h = ExtendedConflictGraph::new(&small_g, 2);
        let small_w: Vec<f64> = (0..small_h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();

        let mut big = DistributedPtas::new(&big_h, run_to_completion(1));
        let mut small = DistributedPtas::new(&small_h, run_to_completion(2));
        let mut shared = DecisionOutcome::default();
        for cycle in 0..2 {
            big.decide_into(&big_w, &mut shared);
            assert!(shared.minirounds_used >= 10, "line forces many mini-rounds");
            assert_eq!(shared, big.decide(&big_w), "cycle {cycle}: big reuse");

            small.decide_into(&small_w, &mut shared);
            let fresh = small.decide(&small_w);
            assert_eq!(shared, fresh, "cycle {cycle}: small-after-big reuse");
            assert_eq!(
                shared.per_miniround_weight.len(),
                shared.minirounds_used,
                "stale per-mini-round entries survived the shrink"
            );
            assert_eq!(
                shared.counters.per_vertex_tx.len(),
                small_h.n_vertices(),
                "per-vertex counters kept the old network's size"
            );
        }
    }
}
