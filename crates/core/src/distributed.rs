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
//! engine instead keeps a **witness** per vertex (`LocalMaxCache`), on
//! both paths, justified by two invariants:
//!
//! 1. **Dirty-ball invariant.** A Candidate's local-max verdict is a
//!    function of the statuses of the Candidates in its `(2r+1)`-ball and
//!    of the (fixed) weights. Statuses only move away from `Candidate`,
//!    so the verdict of a vertex none of whose ball members changed
//!    status in mini-round `τ` is *provably unchanged* in `τ+1` and is
//!    carried forward. Only vertices within `(2r+1)` hops of a status
//!    change (a Winner or Loser determination) can flip to leader.
//! 2. **Witness cursor.** A probe scans the vertex's ball row from its
//!    cursor and stops at the first *undetermined higher-priority*
//!    member — `(weight, id)` above its own, the strict total order of
//!    the election — its witness; a Candidate with none leads. An entry
//!    the scan passed is lower-priority or already determined, and stays
//!    so for the rest of the decision, so it can never block the vertex
//!    again: the next probe resumes at the cursor, and while the witness
//!    is undetermined the verdict ("blocked") costs `O(1)`. A vertex's
//!    cursor only moves forward, so in one decision its scans read each
//!    entry of its row once, plus the witness again per probe.
//!
//! On the lossless path a vertex's priority is one key word, compared
//! directly as `(weight_key, id)` (no rank sort), and its witness's id
//! is stored beside its cursor. Each mini-round past the first picks the
//! cheaper of two wake rules, which elect the same leaders: probe every
//! remaining Candidate (most stop at their witness at once), or walk each
//! just-determined vertex `u`'s ball and wake only the Candidates whose
//! witness is `u`, the only ones whose verdict can have changed. The
//! walk costs `Σ |ball(u)|` over the changed `u`, so the path probes
//! every Candidate when `remaining ≤ Σ |ball(u)|` and wakes otherwise.
//! Every vertex is determined once, so the wake walks of a decision cost
//! at most one sweep of all balls, and on the Fig. 5 line, where each of
//! `Θ(n)` mini-rounds determines two vertices, the election stays linear
//! in `n`.
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
//! received), so the loss model alone chooses the path: a lossy
//! [`DistributedPtasConfig::loss`] runs the **full-rescan path**, a
//! lossless one the dirty-ball election. Tests reach the rescan path on
//! any config through [`DistributedPtas::decide_into_rescan`]; it is the
//! oracle of the differential test battery (`tests/decide_parity.rs`),
//! and its lossy and lossless outcomes are pinned to recorded digests
//! there. The election walks the per-vertex `(2r+1)`-ball tables
//! precomputed at construction, so it needs no flood-engine relay table.
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
//! The election runs the same witness-cursor probe (`scan_row`) on
//! each vertex's view: a view entry that did not block a vertex never
//! blocks it later in the same decision (a view status never returns to
//! `Candidate`), so each mini-round's scan resumes at the entry that
//! blocked it last. It probes every remaining Candidate every
//! mini-round; a view-reading path has no global changed list to wake
//! from.
//!
//! ## Tiles
//!
//! The per-vertex phases — the election probes and wake walk, and the
//! per-leader MWIS — run tile-local over the core+halo stripes of a
//! [`mhca_graph::Partition`], merging per-tile results at phase
//! boundaries.
//! [`DistributedPtasConfig::partitions`] sets the tile count; the default
//! single tile *is* the serial sweep, and at `n = 10⁴–5×10⁴` more tiles
//! split the memory-bound probes over threads. The threads are the
//! decider's own parked [`TilePool`]: created on the first threaded
//! decide, joined when the decider is dropped, asleep in between. The
//! caller runs tile 0 and worker `t` always runs tile `t`, so a stripe
//! stays warm in one core's cache, and no thread is created per phase
//! or per decision. A tile job reaches its scratch set and its stripe of
//! the election state by tile index (a per-tile `Mutex` and `Relaxed`
//! atomic witnesses and cursors), so a warm hand-off allocates nothing.
//! Tiling is an **execution strategy, not a semantics knob**: every
//! phase is engineered so the merged result is *byte-identical* for every
//! tile count (and hence to the rescan oracle), pinned by
//! `tests/partition_parity.rs`. The key device is that a tile writes only
//! its own stripe of the election state (its vertices' witnesses and
//! cursors), while every tile reads the other tiles' vertices only
//! through their priority keys. Only the serial status application
//! writes a key (to `DETERMINED`), so no key changes while the tiles
//! probe, and every probe reaches the verdict it would reach serially.
//! The wake walk reads witnesses only inside the walking tile's own
//! stripe, and a probe never names a changed vertex as its new witness
//! (its witness must be undetermined), so no vertex is woken twice.
//! Status application and flood accounting stay serial — they are
//! `O(determinations)` per round, not `O(n · ball)` — and so does the
//! Fig. 6 summation, which runs over the ascending list of winners so
//! far (each mini-round's new winners are merged into it) rather than
//! over all `n` statuses. The wake rule's choice reads two global
//! counts, `remaining` and `Σ |ball(u)|`, so it, and with it the scan
//! stats, is the same for every tile count.
//!
//! # Shared steps
//!
//! Only the status application, and how the election reads a ball entry
//! and picks whom to probe, differ between the two paths. The rest of
//! the mini-round is written once: the election probe (`scan_row`,
//! generic over how a vertex reads an entry: a global priority key or a
//! view slot), the outcome prologue (`begin_decision`), the payload-free
//! flood batches
//! (`flood_batch`; `declare` also records the leaders), the LocalLeader
//! step (`LeaderStep`, generic over how a leader reads a status; the
//! rescan path runs it on tile 0's scratch), the winners list and the
//! Fig. 6 summation (`WinnerList`, `record_weight`) and the epilogue
//! (`finish_outcome`). The TTLs come
//! from [`DistributedPtasConfig::declaration_ttl`] and
//! [`DistributedPtasConfig::determination_ttl`].

use mhca_graph::{BallScan, ExtendedConflictGraph, Partition};
use mhca_mwis::{exact, greedy, local_search};
use mhca_pool::TilePool;
use mhca_sim::{Counters, Flood, FloodEngine, FloodReceivers, LossSpec};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Per-vertex protocol status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Unresolved; eligible for leadership and selection.
    Candidate,
    /// Selected into the round's strategy.
    Winner,
    /// Excluded from the round's strategy.
    Loser,
}

/// How a LocalLeader solves its local MWIS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedPtasConfig {
    /// Local MWIS radius `r` (the paper's simulations use `r = 2`).
    pub r: usize,
    /// Mini-round budget `D`; `None` runs to completion (`O(N)` worst
    /// case, Fig. 5). The paper's Theorem 4 argues a small constant
    /// suffices on random networks (Fig. 6 converges by mini-round 4).
    pub max_minirounds: Option<usize>,
    /// Local MWIS solver choice.
    pub local_solver: LocalSolver,
    /// Control-channel loss model (failure injection; lossless by
    /// default). It alone chooses the decide path: a lossy model runs the
    /// full-rescan path, a lossless one the dirty-ball election
    /// ([`DistributedPtas::decide_into`]).
    pub loss: LossSpec,
    /// Number of core+halo tiles the lossless decide phase is split into
    /// (`<= 1` = one tile, the serial sweep; the lossy rescan path
    /// ignores this knob). Tiling is an execution strategy,
    /// not a semantic knob: the [`DecisionOutcome`] is byte-identical for
    /// every value — pinned by `tests/partition_parity.rs`.
    pub partitions: usize,
    /// Worker threading of the tile phases: `1` runs the tile loop inline
    /// on the calling thread (deterministic single-thread execution); any
    /// other value (`0` is the conventional spelling) runs tile 0 on the
    /// calling thread and tile `i` on worker `i` of the decider's own
    /// parked pool, created on the first threaded decide and joined when
    /// the decider is dropped. A single tile always runs inline. Both
    /// spellings are allocation-free once warm (`tests/alloc_free.rs`).
    pub threads: usize,
}

impl Default for DistributedPtasConfig {
    fn default() -> Self {
        DistributedPtasConfig {
            r: 2,
            max_minirounds: Some(4),
            local_solver: LocalSolver::default(),
            loss: LossSpec::lossless(),
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
    pub fn with_loss_spec(mut self, loss: LossSpec) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style tile-count override for the lossless decide
    /// (`<= 1` = one tile, serial).
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Builder-style threading override for the tile phases (`1` =
    /// inline serial tile loop, anything else = one pooled worker per
    /// tile beyond the first).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Hop limit of the LocalLeader declarations, `2r+1` — also the
    /// radius of the election ball and of the WB flood.
    pub fn declaration_ttl(&self) -> usize {
        2 * self.r + 1
    }

    /// Hop limit of the determination floods, `3r+1`.
    pub fn determination_ttl(&self) -> usize {
        3 * self.r + 1
    }
}

/// Result of one distributed strategy decision (one round's `t_s` part).
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Always 0. It counted lossless floods that fell back from a capped
    /// flood-engine table to BFS; the engine's relay tables have no cap,
    /// so no flood falls back. Kept so that readers of this field and the
    /// `decide_fallback_floods` artifact row keep their shape.
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
/// observer pipeline as `decide_scanned`. The three together are the
/// lossless election's whole work, which stays linear in `n` even when a
/// decision runs `Θ(n)` mini-rounds (`tests/election_work.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecideScanStats {
    /// Election probes that scanned the ball row, each resuming at the
    /// vertex's witness cursor. The lossless path counts every mini-round
    /// 0 probe and every later probe that read past its stored witness
    /// (the witness was determined); the rescan reference counts one per
    /// surviving Candidate *per mini-round*.
    pub candidates_scanned: u64,
    /// Lossless probes that stopped at a stored witness that is still
    /// undetermined: an `O(1)` "blocked" verdict (always 0 on the
    /// full-rescan path).
    pub fast_skips: u64,
    /// Ball entries the lossless wake rule walked to find the Candidates
    /// whose witness was just determined (always 0 on the full-rescan
    /// path). The name is kept from the blocked-count election this
    /// replaced, so the struct's `Debug` text is unchanged.
    pub dirty_decrements: u64,
}

/// Wall-clock nanoseconds per decide phase of the last decision, filled
/// only when [`DistributedPtas::set_profile_phases`] is on (the stamps
/// cost two `Instant` reads per phase per mini-round, which is noise at
/// large `n` but measurable in small-`n` hot loops, so they are gated).
/// Both decide paths fill it: on the rescan path (lossy delivery, and
/// [`DistributedPtas::decide_into_rescan`]) the broadcast phase also
/// covers applying every received list to the receivers' views. This is
/// what `decide_profile --pr6` reports per grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecidePhaseNs {
    /// Leader election: every probe, and on the lossless path the wake
    /// walks over the changed vertices' balls.
    pub election_ns: u64,
    /// Flood accounting: declaration and determination `broadcast_only`
    /// calls plus serial status application.
    pub broadcast_ns: u64,
    /// Per-leader local MWIS solves and determination-list fills.
    pub mwis_ns: u64,
    /// The Fig. 6 summation and the winners-list update, on both paths.
    pub sweep_ns: u64,
}

impl DecidePhaseNs {
    /// Total across the four phases.
    pub fn total_ns(&self) -> u64 {
        self.election_ns + self.broadcast_ns + self.mwis_ns + self.sweep_ns
    }
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
    /// Long-lived flood engine over `H` (relay tables prewarmed for the
    /// protocol's two TTLs). Under message loss the engine's RNG stream
    /// advances across decisions — runs are reproducible per
    /// `(loss seed, decision sequence)`, not per individual decision.
    engine: FloodEngine<'h>,
    balls_r: Vec<Vec<usize>>,
    /// Flat `u32` CSR of the sorted `(2r+1)`-balls (`ball_offsets[v] ..
    /// ball_offsets[v + 1]` into `ball_entries` is `v`'s *row*), self
    /// included. The election's probes and wake walks stream it
    /// (memory-bound, so the 4-byte entries halve their traffic), and the
    /// rescan path's local views are aligned with it.
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
    // ---- pooled per-decision scratch ----
    own: Vec<Status>,
    leaders: Vec<usize>,
    /// The flood batch being charged: the declarations, then the
    /// determinations, one payload-free flood per leader slot.
    floods: Vec<Flood<()>>,
    /// Who received each determination flood of the mini-round (rescan
    /// path only).
    receivers: FloodReceivers,
    /// Marks the receivers of the flood being applied (rescan path; all
    /// `false` between floods).
    received: Vec<bool>,
    winners: WinnerList,
    cache: LocalMaxCache,
    scan_stats: DecideScanStats,
    // ---- tile state ----
    /// Core+halo tiling of the vertex range (one tile when
    /// `config.partitions <= 1`).
    partition: Partition,
    /// One scratch set per tile (leaders, solver, …). Tile `t`
    /// locks its own set (uncontended); serial code reaches it through
    /// [`tile_mut`].
    tile_scratch: Vec<Mutex<TileScratch>>,
    /// Parked workers of the threaded tile phases ([`run_tiles`]).
    pool: TilePool,
    profile_phases: bool,
    phase_ns: DecidePhaseNs,
}

/// Per-tile worker scratch: everything a tile-local phase writes besides
/// its own stripe of the election state, merged serially at phase
/// boundaries. The rescan path runs its leader steps on tile 0's set.
#[derive(Debug, Default)]
struct TileScratch {
    /// Leaders this tile's probes found this mini-round (ascending when
    /// every Candidate is probed, so tile-order concatenation reproduces
    /// the serial scan; in wake order otherwise).
    leaders: Vec<usize>,
    /// Determination lists of this tile's chunk of leader slots
    /// ([`LeaderStep::run_all`]), stored flat: list `i` ends at
    /// `det_ends[i]` and starts where list `i − 1` ends. Two buffers per
    /// tile rather than one per slot, so they stop growing after a few
    /// decisions. Floods carry no payload: the `(vertex, is_winner)` list
    /// a leader computed lives here, and [`det_lists`] yields the lists in
    /// slot order, which is also their floods' order in the batch. A
    /// receiver only ever reads the list of a flood the engine reports it
    /// received ([`FloodReceivers`]), so locality is preserved exactly as
    /// if the list travelled in the payload.
    det: Vec<(usize, bool)>,
    det_ends: Vec<usize>,
    step: StepScratch,
    /// This tile's share of [`DecideScanStats::candidates_scanned`] and
    /// [`DecideScanStats::fast_skips`] in the current mini-round.
    scanned: u64,
    skips: u64,
}

/// Scratch of one LocalLeader step.
#[derive(Debug, Default)]
struct StepScratch {
    cand: Vec<usize>,
    selectable: Vec<usize>,
    solver: SolverScratch,
}

/// Tile `t`'s scratch, locked from inside a tile job. Each tile locks only
/// its own set, so the lock is never contended; a panicked tile's
/// poisoned set is reused as is, since every phase resets what it reads.
fn lock_tile(m: &Mutex<TileScratch>) -> MutexGuard<'_, TileScratch> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A tile's scratch from serial code, without locking.
fn tile_mut(m: &mut Mutex<TileScratch>) -> &mut TileScratch {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl TileScratch {
    /// This tile's determination lists, in slot order.
    fn lists(&self) -> impl Iterator<Item = &[(usize, bool)]> {
        let starts = std::iter::once(0).chain(self.det_ends.iter().copied());
        starts
            .zip(&self.det_ends)
            .map(|(start, &end)| &self.det[start..end])
    }
}

/// The current determination lists of all tiles, in leader-slot order.
fn det_lists(scratch: &mut [Mutex<TileScratch>]) -> impl Iterator<Item = &[(usize, bool)]> {
    scratch.iter_mut().flat_map(|m| tile_mut(m).lists())
}

/// Runs `f(t)` for every tile `t` in `0..tiles`: on the decider's parked
/// pool when one is given (tile 0 on the calling thread, tile `t` on
/// worker `t`, so a tile's stripe stays warm in one core's cache), else
/// inline in tile order. Tiles are the unit of work, so the partition
/// count is the parallelism knob. No thread is created per call.
fn run_tiles(pool: Option<&mut TilePool>, tiles: usize, f: impl Fn(usize) + Sync) {
    match pool {
        Some(pool) => pool.run(tiles, f),
        None => (0..tiles).for_each(f),
    }
}

/// Reusable state of the leader election (module docs): the witness
/// cursors of both decide paths, and the lossless path's priority keys,
/// witnesses and changed list.
#[derive(Debug, Default)]
struct LocalMaxCache {
    /// Per-vertex priority key of the lossless path: [`weight_key`] of the
    /// vertex's weight, or [`DETERMINED`] once it is determined. With the
    /// id as tie-break, `(key_u, u) > (key_v, v) ⟺ (weight_u, u) >
    /// (weight_v, v)` while both are undetermined, the election's strict
    /// total order, compared directly, so a probe reads one word per ball
    /// entry. Only serial code writes it (`begin` and the status
    /// application), so tile jobs read it as a plain slice.
    key: Vec<u64>,
    /// Per-vertex witness of the lossless path: the id of the ball member
    /// the vertex's last probe stopped at, undetermined and outranking it
    /// when the probe ran ([`NO_WITNESS`] once the vertex is determined;
    /// stale before its mini-round 0 probe and after the probe that makes
    /// it a leader).
    ///
    /// Atomic, like `cursor`, only so that tile jobs can write their own
    /// stripe through a shared reference: every access is `Relaxed` (a
    /// plain load or store), each entry has one writer per phase, and the
    /// pool's hand-off orders the phases. Serial code uses `get_mut`.
    witness: Vec<AtomicU32>,
    /// Per-vertex witness cursor of both paths: the position, within the
    /// vertex's ball row, where its last scan stopped. The entries before
    /// it never block the vertex again in this decision.
    cursor: Vec<AtomicU32>,
    /// Vertices whose status changed in the current mini-round.
    changed: Vec<usize>,
    /// `Σ |ball(u)|` over `changed`: the cost of the wake walk.
    changed_balls: usize,
}

/// Priority key of a determined vertex. Every finite weight's
/// [`weight_key`] is above it, so a determined vertex outranks, and so
/// blocks, no one.
const DETERMINED: u64 = 0;

/// Witness of a determined vertex. It is no vertex id (ids are `< n ≤
/// u32::MAX`), so the wake walk never wakes a determined vertex.
const NO_WITNESS: u32 = u32::MAX;

impl LocalMaxCache {
    /// Prepares the witness cursors for a decision over `n` vertices:
    /// sizes them (allocating only when `n` changes) and rewinds each to
    /// the start of its row. The rescan path needs nothing more.
    fn rewind(&mut self, n: usize) {
        if self.cursor.len() != n {
            self.cursor = (0..n).map(|_| AtomicU32::new(0)).collect();
        }
        for c in &mut self.cursor {
            *c.get_mut() = 0;
        }
    }

    /// Prepares the lossless election for a decision over `n` vertices:
    /// rewinds the cursors, sizes the witness table (allocating only when
    /// `n` changes) and keys every vertex by its weight.
    fn begin(&mut self, n: usize, weights: &[f64]) {
        self.rewind(n);
        if self.witness.len() != n {
            self.witness = (0..n).map(|_| AtomicU32::new(NO_WITNESS)).collect();
        }
        self.key.clear();
        self.key.extend(weights.iter().map(|&w| weight_key(w)));
        self.changed.clear();
        self.changed_balls = 0;
    }
}

/// The election probe of both decide paths (Algorithm 3 lines 2–6):
/// scans a vertex's `(2r+1)`-ball row from `start`, its witness cursor,
/// and returns the position of the first entry that blocks it, or
/// `row.len()` when none does and the vertex leads. `blocks(p, u)` says
/// whether the entry `u` at row position `p` is an undetermined Candidate
/// that outranks the vertex, as the vertex reads it: the lossless path
/// reads `u`'s global priority key, the rescan path the vertex's view
/// slot.
fn scan_row(row: &[u32], start: usize, blocks: impl Fn(usize, u32) -> bool) -> usize {
    (start..row.len())
        .find(|&p| blocks(p, row[p]))
        .unwrap_or(row.len())
}

/// One lossless probe of `v` ([`scan_row`] over the global priority
/// keys): resumes at `v`'s cursor and returns whether `v` leads. A
/// blocked `v` records where it stopped, in its cursor and witness. It
/// writes only `v`'s own entries and reads only keys, which no probe
/// changes (module docs, *Tiles*).
fn probe(
    v: usize,
    key: &[u64],
    witness: &[AtomicU32],
    cursor: &[AtomicU32],
    ball_offsets: &[usize],
    ball_entries: &[u32],
) -> bool {
    let row = &ball_entries[ball_offsets[v]..ball_offsets[v + 1]];
    let kv = (key[v], v as u32);
    let p = scan_row(row, cursor[v].load(Relaxed) as usize, |_, u| {
        (key[u as usize], u) > kv
    });
    if p == row.len() {
        return true;
    }
    cursor[v].store(p as u32, Relaxed);
    witness[v].store(row[p], Relaxed);
    false
}

/// Order-preserving `u64` key of a finite weight: `weight_key(a) <
/// weight_key(b) ⟺ a < b`. `-0.0` is keyed as `+0.0`, because the two
/// zeros compare equal and the id must break their tie. A finite weight's
/// exponent bits are not all ones, so its key is never 0
/// ([`DETERMINED`]).
fn weight_key(w: f64) -> u64 {
    let bits = if w == 0.0 { 0 } else { w.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Pooled scratch for the LocalLeader MWIS, grouped so the solver can be
/// borrowed as one unit disjointly from the rest of the protocol state.
#[derive(Debug, Default)]
struct SolverScratch {
    /// Reusable branch-and-bound workspace.
    mwis_ws: exact::Workspace,
    greedy: greedy::Scratch,
    local_search: local_search::Scratch,
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

/// Fills `floods` with one payload-free flood per leader, in slot order:
/// the declaration batch (`ttl = 2r+1`) and the determination batch
/// (`ttl = 3r+1`) of a mini-round.
fn flood_batch(floods: &mut Vec<Flood<()>>, leaders: &[usize], ttl: usize) {
    floods.clear();
    floods.extend(leaders.iter().map(|&origin| Flood {
        origin,
        ttl,
        payload: (),
    }));
}

/// Records the mini-round's leaders in the outcome and charges their
/// declaration floods (Algorithm 3 line 4; `2r+1` hops). Declarations only
/// need to have been broadcast — leadership is evaluated from the shared
/// weight/status knowledge — so no reception is materialized.
fn declare(
    engine: &mut FloodEngine<'_>,
    floods: &mut Vec<Flood<()>>,
    leaders: &[usize],
    ttl: usize,
    out: &mut DecisionOutcome,
) {
    out.leaders_per_miniround.push(leaders.len());
    out.leaders_flat.extend_from_slice(leaders);
    flood_batch(floods, leaders, ttl);
    engine.broadcast_only(floods);
}

/// Bookkeeping of the ascending winners-so-far list (`out.winners`),
/// which the Fig. 6 summation walks instead of all `n` statuses.
#[derive(Debug, Default)]
struct WinnerList {
    /// `listed[v]`: `v` is in the list.
    listed: Vec<bool>,
    /// Vertices whose status the current mini-round wrote, any order,
    /// repeats allowed (the tiled path lists only its new Winners).
    touched: Vec<usize>,
}

impl WinnerList {
    /// Empties the bookkeeping for a decision over `n` vertices.
    fn begin(&mut self, n: usize) {
        self.listed.clear();
        self.listed.resize(n, false);
        self.touched.clear();
    }

    /// Brings `winners` up to date after a mini-round. A touched vertex
    /// flips in when it is now a Winner and was not listed, and out (the
    /// lossy path only: a late determination can overwrite a Winner) in
    /// the opposite case. The cost is `O(touched)`, a sort of the new
    /// Winners and at most one pass over the list, never `O(n)`.
    fn update(&mut self, winners: &mut Vec<usize>, own: &[Status]) {
        let Self { listed, touched } = self;
        let mut dropped = false;
        touched.retain(|&x| {
            let win = own[x] == Status::Winner;
            let flips = win != listed[x];
            listed[x] = win;
            dropped |= flips && !win;
            flips && win
        });
        if dropped {
            winners.retain(|&x| listed[x]);
        }
        touched.sort_unstable();
        // Merge the new Winners from the back, in place.
        let (mut i, mut j) = (winners.len(), touched.len());
        winners.resize(i + j, 0);
        for k in (0..winners.len()).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && winners[i - 1] > touched[j - 1] {
                i -= 1;
                winners[k] = winners[i];
            } else {
                j -= 1;
                winners[k] = touched[j];
            }
        }
        touched.clear();
    }
}

/// A status write on the rescan path, where a determined vertex can be
/// determined again: keeps `remaining` (the Candidate count) and lists
/// `u` for [`WinnerList::update`].
fn set_status(
    own: &mut [Status],
    remaining: &mut usize,
    winners: &mut WinnerList,
    u: usize,
    s: Status,
) {
    *remaining -= usize::from(own[u] == Status::Candidate);
    own[u] = s;
    winners.touched.push(u);
}

/// Appends the cumulative winner weight to the Fig. 6 series, summing over
/// the ascending winners list. The sum runs in ascending vertex order on
/// both paths, so the series is bit-identical between them, and it costs
/// one pass over the winners so far rather than over all `n` statuses.
fn record_weight(weights: &[f64], out: &mut DecisionOutcome) {
    let cum: f64 = out.winners.iter().map(|&v| weights[v]).sum();
    out.per_miniround_weight.push(cum);
}

/// The read-only inputs of the LocalLeader step, shared by both decide
/// paths.
#[derive(Clone, Copy)]
struct LeaderStep<'a> {
    h: &'a ExtendedConflictGraph,
    solver: LocalSolver,
    balls_r: &'a [Vec<usize>],
    weights: &'a [f64],
}

impl LeaderStep<'_> {
    /// Runs the step for every leader. The leader slots are chunked over
    /// `scratch`, one chunk per set (tile `c` runs chunk `c`, on the pool
    /// when one is given), and each set keeps its chunk's determination
    /// lists, so [`det_lists`] yields them in slot order.
    /// `status_of(leader)` says how that leader reads a status (see
    /// [`LeaderStep::run`]).
    fn run_all<F, S>(
        &self,
        leaders: &[usize],
        scratch: &mut [Mutex<TileScratch>],
        pool: Option<&mut TilePool>,
        status_of: F,
    ) where
        F: Fn(usize) -> S + Sync,
        S: Fn(usize) -> Option<Status>,
    {
        let nl = leaders.len();
        let chunk = nl.div_ceil(scratch.len()).max(1);
        for m in scratch.iter_mut() {
            let ts = tile_mut(m);
            ts.det.clear();
            ts.det_ends.clear();
        }
        let scratch: &[Mutex<TileScratch>] = scratch;
        run_tiles(pool, nl.div_ceil(chunk), |c| {
            let ts = &mut *lock_tile(&scratch[c]);
            for &leader in &leaders[c * chunk..nl.min((c + 1) * chunk)] {
                self.run(leader, status_of(leader), &mut ts.step, &mut ts.det);
                ts.det_ends.push(ts.det.len());
            }
        });
    }

    /// One LocalLeader's step (Algorithm 3 lines 8–9), appending its
    /// determination list to `list`: every Candidate of its `r`-ball,
    /// ascending, marked Winner iff the local MWIS chose it. `status(u)` is what the leader
    /// knows about `u` (`None` outside its view): the global status on
    /// the lossless path, equal to every view there, and the leader's
    /// view row on the rescan path.
    fn run(
        &self,
        leader: usize,
        status: impl Fn(usize) -> Option<Status>,
        ts: &mut StepScratch,
        list: &mut Vec<(usize, bool)>,
    ) {
        ts.cand.clear();
        ts.cand.extend(
            self.balls_r[leader]
                .iter()
                .copied()
                .filter(|&u| status(u) == Some(Status::Candidate)),
        );
        // Derived exclusion: candidates adjacent to a known Winner can
        // never join the output; they are Losers.
        ts.selectable.clear();
        ts.selectable.extend(ts.cand.iter().copied().filter(|&u| {
            self.h
                .graph()
                .neighbors(u)
                .iter()
                .all(|&x| status(x) != Some(Status::Winner))
        }));
        self.solve_local(&mut ts.solver, &ts.selectable);
        list.extend(
            ts.cand
                .iter()
                .map(|&u| (u, ts.solver.local_mwis.binary_search(&u).is_ok())),
        );
    }

    /// Local MWIS over the selectable candidates (grouped by master node),
    /// written sorted-ascending into `scratch.local_mwis`. Every solver
    /// runs entirely on the pooled scratch, allocation-free when warm.
    fn solve_local(&self, scratch: &mut SolverScratch, selectable: &[usize]) {
        let (graph, node_groups, weights) = (self.h.graph(), self.h.node_groups(), self.weights);
        let out = &mut scratch.local_mwis;
        match self.solver {
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
                local_search::solve_subset_into(
                    graph,
                    weights,
                    selectable,
                    max_passes,
                    &mut scratch.local_search,
                    out,
                );
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
            scan.for_each(g, v, config.declaration_ttl(), |u, d| {
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
        let mut engine = FloodEngine::from_spec(g, &config.loss);
        engine.prewarm(config.declaration_ttl());
        engine.prewarm(config.determination_ttl());
        let partition = Partition::stripes(g, config.partitions.max(1), config.declaration_ttl());
        DistributedPtas {
            h,
            config,
            engine,
            balls_r,
            ball_offsets,
            ball_entries,
            view_status: Vec::new(),
            ball_rev: Vec::new(),
            own: Vec::new(),
            leaders: Vec::new(),
            floods: Vec::new(),
            receivers: FloodReceivers::default(),
            received: Vec::new(),
            winners: WinnerList::default(),
            cache: LocalMaxCache::default(),
            scan_stats: DecideScanStats::default(),
            partition,
            tile_scratch: Vec::new(),
            pool: TilePool::new(),
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
    /// Lossless decisions are pure functions of the weights. Under a
    /// lossy [`DistributedPtasConfig::loss`], the persistent engine's loss
    /// RNG advances across decisions: runs are reproducible per `(loss
    /// seed, sequence of decisions)`, but two decisions with identical
    /// weights within one run see *different* loss realizations
    /// (construct a fresh `DistributedPtas` to replay a stream from its
    /// seed).
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
    /// engine) can adopt its prewarmed relay tables instead of
    /// rebuilding them ([`FloodEngine::adopt_tables`]).
    pub fn flood_engine(&self) -> &FloodEngine<'h> {
        &self.engine
    }

    /// Stream position of the persistent engine's loss sampler — the
    /// *only* semantic state this protocol carries across decisions
    /// (every `decide` resets counters and scratch; under loss, flood
    /// realizations are keyed by `(loss seed, flood index)`). Always `0`
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
    /// The loss model alone chooses the path: a lossless
    /// [`DistributedPtasConfig::loss`] runs the dirty-ball election
    /// (module docs), tiled over [`DistributedPtasConfig::partitions`]
    /// stripes, byte-identically for every tile count; a lossy one, where
    /// local views can diverge from global state, runs the full-rescan
    /// path ([`DistributedPtas::decide_into_rescan`]).
    ///
    /// # Panics
    ///
    /// As [`DistributedPtas::decide`].
    pub fn decide_into(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        self.check_weights(weights);
        if self.config.loss.is_lossless() {
            self.tiled_impl(weights, out);
        } else {
            self.rescan_impl(weights, out);
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

    /// Shared outcome prologue of both decide paths: zeroes the engine
    /// counters, scan stats and phase stamps, resets every status to
    /// Candidate and clears the outcome's series. Returns the mini-round
    /// budget.
    fn begin_decision(&mut self, out: &mut DecisionOutcome) -> usize {
        let n = self.h.n_vertices();
        self.engine.reset_counters();
        self.scan_stats = DecideScanStats::default();
        self.phase_ns = DecidePhaseNs::default();
        self.own.clear();
        self.own.resize(n, Status::Candidate);
        self.winners.begin(n);
        out.winners.clear();
        out.per_miniround_weight.clear();
        out.leaders_per_miniround.clear();
        out.leaders_flat.clear();
        out.all_marked = false;
        self.config.max_minirounds.unwrap_or(n.max(1))
    }

    /// The dirty-ball decide phase (lossless only; the module docs give
    /// its invariants and the tiling's byte-identity argument). Reads and
    /// writes global status directly — under lossless delivery every local
    /// view agrees with it — and charges flood costs through the engine's
    /// counters-only delivery, so no inbox is ever materialized.
    fn tiled_impl(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        debug_assert!(self.config.loss.is_lossless());
        let cap = self.begin_decision(out);
        let profiling = self.profile_phases;
        let Self {
            h,
            config,
            engine,
            balls_r,
            ball_offsets,
            ball_entries,
            own,
            leaders,
            floods,
            winners,
            cache,
            scan_stats,
            partition,
            tile_scratch,
            pool,
            phase_ns,
            ..
        } = self;
        let h: &ExtendedConflictGraph = h;
        let cuts: &[usize] = partition.cuts();
        let tiles = partition.tile_count();
        // The tile count is derived from the input, so one tile never
        // wakes a worker.
        let parallel = config.threads != 1 && tiles > 1;
        let mut pool = parallel.then_some(pool);
        if tile_scratch.len() < tiles {
            tile_scratch.resize_with(tiles, Mutex::default);
        }
        let tile_scratch = &mut tile_scratch[..tiles];
        // Shared-read shadows of the pooled tables, so the Fn worker
        // closures capture plain `&` references.
        let ball_offsets: &[usize] = ball_offsets;
        let ball_entries: &[u32] = ball_entries;
        let step = LeaderStep {
            h,
            solver: config.local_solver,
            balls_r,
            weights,
        };
        let n = h.n_vertices();
        let mut phases = DecidePhaseNs::default();
        let mut stamp = profiling.then(Instant::now);
        let mut lap = |slot: &mut u64| {
            if let Some(s) = stamp.as_mut() {
                let now = Instant::now();
                *slot += now.duration_since(*s).as_nanos() as u64;
                *s = now;
            }
        };

        cache.begin(n, weights);
        let mut remaining = n;

        for tau in 0..cap {
            // ---- 1. LocalLeader selection (Algorithm 3 lines 2–6). After
            // mini-round 0 every Candidate holds a witness that blocked
            // it, so only the Candidates whose witness was just
            // determined can lead. Either probe every remaining
            // Candidate (one that stops at its undetermined witness costs
            // `O(1)`), or walk the changed vertices' balls and wake the
            // Candidates whose witness is one of them: both elect the
            // same leaders, so the cheaper runs. Both sides of the test
            // are global counts, so the choice, the scan stats and the
            // outcome are the same for every tile count. Each tile probes
            // only its own stripe; the wake walk splits by *target*
            // stripe, touching the (binary-searched) sub-range of each
            // sorted ball in it. Each woken vertex has one witness, so it
            // is woken once.
            leaders.clear();
            let wake = tau > 0 && remaining > cache.changed_balls;
            {
                let key: &[u64] = &cache.key;
                let (witness, cursor): (&[AtomicU32], &[AtomicU32]) =
                    (&cache.witness, &cache.cursor);
                let changed: &[usize] = &cache.changed;
                let scratch: &[Mutex<TileScratch>] = tile_scratch;
                run_tiles(pool.as_deref_mut(), tiles, |t| {
                    let ts = &mut *lock_tile(&scratch[t]);
                    ts.leaders.clear();
                    ts.scanned = 0;
                    ts.skips = 0;
                    let mut run_probe = |v: usize| {
                        ts.scanned += 1;
                        if probe(v, key, witness, cursor, ball_offsets, ball_entries) {
                            ts.leaders.push(v);
                        }
                    };
                    let (lo, hi) = (cuts[t], cuts[t + 1]);
                    if wake {
                        for &u in changed {
                            let ball = &ball_entries[ball_offsets[u]..ball_offsets[u + 1]];
                            let a = ball.partition_point(|&x| (x as usize) < lo);
                            let b = ball.partition_point(|&x| (x as usize) < hi);
                            for &x in &ball[a..b] {
                                if witness[x as usize].load(Relaxed) == u as u32 {
                                    run_probe(x as usize);
                                }
                            }
                        }
                    } else {
                        for v in lo..hi {
                            if key[v] == DETERMINED {
                                continue;
                            }
                            if tau > 0 && key[witness[v].load(Relaxed) as usize] != DETERMINED {
                                ts.skips += 1;
                                continue;
                            }
                            run_probe(v);
                        }
                    }
                });
            }
            for ts in tile_scratch.iter_mut() {
                let ts = tile_mut(ts);
                scan_stats.candidates_scanned += ts.scanned;
                scan_stats.fast_skips += ts.skips;
                leaders.extend_from_slice(&ts.leaders);
            }
            if wake {
                scan_stats.dirty_decrements += cache.changed_balls as u64;
                leaders.sort_unstable();
            }
            lap(&mut phases.election_ns);
            if leaders.is_empty() {
                out.all_marked = remaining == 0;
                break;
            }

            // ---- 2. Leader declaration floods, accounting only.
            declare(engine, floods, leaders, config.declaration_ttl(), out);
            lap(&mut phases.broadcast_ns);

            // ---- 3. Local MWIS per leader, reading global status (equal
            // to the leader's view under lossless delivery), leader slots
            // chunked over the tiles.
            {
                let own: &[Status] = own;
                step.run_all(leaders, tile_scratch, pool.as_deref_mut(), |_| {
                    move |u| Some(own[u])
                });
            }
            flood_batch(floods, leaders, config.determination_ttl());
            lap(&mut phases.mwis_ns);

            // ---- 4. Determination floods, accounting only: lossless
            // delivery is total within the TTL, so applying each list once
            // to the global status array is what every receiver's view
            // update would compute. Same-mini-round lists are disjoint
            // (leaders are ≥ 2r+2 apart), so order is immaterial.
            engine.broadcast_only(floods);
            cache.changed.clear();
            cache.changed_balls = 0;
            for list in det_lists(tile_scratch) {
                for &(u, is_winner) in list {
                    debug_assert_eq!(own[u], Status::Candidate);
                    own[u] = determined(is_winner);
                    cache.key[u] = DETERMINED;
                    *cache.witness[u].get_mut() = NO_WITNESS;
                    remaining -= 1;
                    cache.changed.push(u);
                    cache.changed_balls += ball_offsets[u + 1] - ball_offsets[u];
                    if is_winner {
                        winners.touched.push(u);
                    }
                }
            }
            lap(&mut phases.broadcast_ns);

            // ---- 5. Fig. 6 bookkeeping.
            winners.update(&mut out.winners, own);
            record_weight(weights, out);
            lap(&mut phases.sweep_ns);
            if remaining == 0 {
                out.all_marked = true;
                break;
            }
        }
        *phase_ns = phases;

        Self::finish_outcome(h.graph(), own, engine, out);
    }

    /// Shared outcome epilogue: conflict audit and counters. The winners
    /// list is already complete ([`WinnerList::update`] after every
    /// mini-round).
    fn finish_outcome(
        graph: &mhca_graph::Graph,
        own: &[Status],
        engine: &FloodEngine<'_>,
        out: &mut DecisionOutcome,
    ) {
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
        out.fallback_floods = 0;
        out.counters.clone_from(engine.counters());
    }

    fn rescan_impl(&mut self, weights: &[f64], out: &mut DecisionOutcome) {
        let cap = self.begin_decision(out);
        let profiling = self.profile_phases;
        let n = self.h.n_vertices();
        // The reverse slots are built on the rescan path's first use (the
        // dirty-ball path never reads them, so lossless runs never pay).
        if self.ball_rev.len() != self.ball_entries.len() {
            self.ball_rev = reverse_slots(&self.ball_offsets, &self.ball_entries);
            self.received = vec![false; n];
        }
        if self.tile_scratch.is_empty() {
            self.tile_scratch.push(Mutex::default());
        }
        let Self {
            h,
            config,
            engine,
            balls_r,
            ball_offsets: off,
            ball_entries: ent,
            view_status,
            ball_rev: rev,
            own,
            leaders,
            floods,
            receivers,
            received,
            winners,
            cache,
            scan_stats,
            tile_scratch,
            phase_ns,
            ..
        } = self;
        let h: &ExtendedConflictGraph = h;
        let graph = h.graph();
        let step = LeaderStep {
            h,
            solver: config.local_solver,
            balls_r,
            weights,
        };
        view_status.clear();
        view_status.resize(ent.len(), Status::Candidate);
        cache.rewind(n);
        let mut remaining = n;
        let mut phases = DecidePhaseNs::default();
        let mut stamp = profiling.then(Instant::now);
        let mut lap = |slot: &mut u64| {
            if let Some(s) = stamp.as_mut() {
                let now = Instant::now();
                *slot += now.duration_since(*s).as_nanos() as u64;
                *s = now;
            }
        };

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
                let row = off[v]..off[v + 1];
                let (ball, view) = (&ent[row.clone()], &view_status[row]);
                let cursor = cache.cursor[v].get_mut();
                *cursor = scan_row(ball, *cursor as usize, |p, u| {
                    let u = u as usize;
                    u != v && view[p] == Status::Candidate && (weights[u], u) > (weights[v], v)
                }) as u32;
                if *cursor as usize == ball.len() {
                    leaders.push(v);
                }
            }
            lap(&mut phases.election_ns);
            if leaders.is_empty() {
                out.all_marked = remaining == 0;
                break;
            }

            // ---- 2. Leader declaration floods.
            declare(engine, floods, leaders, config.declaration_ttl(), out);
            lap(&mut phases.broadcast_ns);

            // ---- 3. Local MWIS per leader, reading only the leader's
            // own view row.
            {
                let (off, ent, view_status): (&[usize], &[u32], &[Status]) =
                    (off, ent, view_status);
                step.run_all(leaders, &mut tile_scratch[..1], None, |leader| {
                    let row = off[leader]..off[leader + 1];
                    let (ball, status) = (&ent[row.clone()], &view_status[row]);
                    move |u| view_of(ball, status, u)
                });
            }
            let tile0: &TileScratch = tile_mut(&mut tile_scratch[0]);
            flood_batch(floods, leaders, config.determination_ttl());
            lap(&mut phases.mwis_ns);

            // ---- 4. Determination floods (line 10; (3r+1) hops) and
            // local processing (lines 11–15). Each vertex applies, in
            // order, its own list if it leads (a leader does not receive
            // its own flood) and then every list it received, in flood
            // order; the last write to a view slot wins. Every write lands
            // in the receiver's own view, so running the receivers in any
            // interleaving gives the same views.
            engine.deliver_receivers_into(floods, receivers);
            for (list, &leader) in tile0.lists().zip(leaders.iter()) {
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
                        set_status(own, &mut remaining, winners, leader, s);
                    }
                    view_status[p] = s;
                }
            }
            for (slot, list) in tile0.lists().enumerate() {
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
                                set_status(own, &mut remaining, winners, u, Status::Loser);
                                view_status[q] = Status::Loser;
                                continue;
                            }
                            set_status(own, &mut remaining, winners, u, s);
                        }
                        view_status[q] = s;
                    }
                }
                for &w in got {
                    received[w as usize] = false;
                }
            }
            lap(&mut phases.broadcast_ns);

            // ---- 5. Fig. 6 bookkeeping.
            winners.update(&mut out.winners, own);
            record_weight(weights, out);
            lap(&mut phases.sweep_ns);
            if remaining == 0 {
                out.all_marked = true;
                break;
            }
        }
        *phase_ns = phases;

        Self::finish_outcome(graph, own, engine, out);
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
                .with_loss_spec(LossSpec::lossy(0.2, 42)),
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
    fn the_loss_model_alone_chooses_the_decide_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let (g, _) = mhca_graph::unit_disk::random_with_average_degree(30, 4.0, &mut rng);
        let h = ExtendedConflictGraph::new(&g, 3);
        let w: Vec<f64> = (0..h.n_vertices())
            .map(|_| rng.gen_range(0.1..1.0))
            .collect();
        // A lossy config runs the rescan path, which never skips a probe
        // or walks a ball to wake one, and equals the explicit rescan call
        // on a twin engine (same loss stream).
        let lossy = run_to_completion(2).with_loss_spec(LossSpec::lossy(0.2, 7));
        let mut ptas = DistributedPtas::new(&h, lossy);
        let out = ptas.decide(&w);
        assert_eq!(ptas.scan_stats().fast_skips, 0);
        assert_eq!(ptas.scan_stats().dirty_decrements, 0);
        let mut twin = DistributedPtas::new(&h, lossy);
        let mut reference = DecisionOutcome::default();
        twin.decide_into_rescan(&w, &mut reference);
        assert_eq!(out, reference);
        assert_eq!(ptas.scan_stats(), twin.scan_stats());
        // A lossless config, whatever its loss seed, runs the witness
        // election. On this instance each mini-round determines whole
        // balls, so probing every remaining Candidate is the cheaper rule,
        // and a probe stopping at its undetermined witness is a fast skip.
        for loss in [LossSpec::lossless(), LossSpec::lossy(0.0, 7)] {
            let mut ptas = DistributedPtas::new(&h, run_to_completion(2).with_loss_spec(loss));
            let out = ptas.decide(&w);
            assert!(out.minirounds_used > 1, "{loss:?}: one mini-round");
            assert!(ptas.scan_stats().fast_skips > 0, "{loss:?}");
        }
        // On the Fig. 5 line each mini-round determines two vertices, so
        // until few Candidates remain the path wakes only the Candidates
        // whose witness fell, walking the changed vertices' balls.
        let n = 40;
        let line = ExtendedConflictGraph::new(&topology::line(n), 1);
        let w: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / n as f64).collect();
        let mut ptas = DistributedPtas::new(&line, run_to_completion(1));
        let out = ptas.decide(&w);
        assert!(out.minirounds_used > 1);
        let stats = ptas.scan_stats();
        assert!(stats.dirty_decrements > 0, "{stats:?}");
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
        // Mini-round 0 scans everyone once; later rounds scan only the
        // Candidates whose witness fell, each at most once per mini-round,
        // and in practice far less. Every other probe is a fast skip.
        assert!(stats.candidates_scanned >= n);
        assert!(stats.fast_skips > 0, "{stats:?}");
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
        // The lossy (rescan) path is gated the same way, records the
        // election, broadcast and MWIS phases, and is not perturbed.
        let lossy = run_to_completion(2).with_loss_spec(LossSpec::lossy(0.1, 5));
        let mut quiet = DistributedPtas::new(&h, lossy);
        let expected = quiet.decide(&w);
        assert_eq!(quiet.phase_ns(), DecidePhaseNs::default(), "off by default");
        let mut profiled = DistributedPtas::new(&h, lossy);
        profiled.set_profile_phases(true);
        let started = Instant::now();
        assert_eq!(profiled.decide(&w), expected);
        let wall = started.elapsed().as_nanos() as u64;
        let p = profiled.phase_ns();
        assert!(
            p.election_ns > 0 && p.broadcast_ns > 0 && p.mwis_ns > 0,
            "{p:?}"
        );
        assert!(p.total_ns() <= wall, "{p:?} vs {wall} ns of wall time");
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

    #[test]
    fn priority_keys_match_the_indirect_comparator() {
        // The election's order on `(weight_key, id)` against descending
        // `(weight, id)` under `partial_cmp`, where the two zeros tie and
        // the id breaks the tie.
        fn indirect(weights: &[f64]) -> Vec<usize> {
            let mut order: Vec<usize> = (0..weights.len()).collect();
            order.sort_unstable_by(|&a, &b| {
                (weights[b], b)
                    .partial_cmp(&(weights[a], a))
                    .expect("finite weights")
            });
            order
        }
        fn check(weights: &[f64], label: &str) {
            let mut got: Vec<usize> = (0..weights.len()).collect();
            got.sort_unstable_by_key(|&v| std::cmp::Reverse((weight_key(weights[v]), v)));
            assert_eq!(got, indirect(weights), "{label}: {weights:?}");
            assert!(
                weights.iter().all(|&w| weight_key(w) != DETERMINED),
                "{label}"
            );
        }
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(83);
        for len in [0usize, 1, 2, 17, 300] {
            for _ in 0..8 {
                let w: Vec<f64> = (0..len).map(|_| rng.gen_range(0.05..1.0)).collect();
                check(&w, "uniform");
                let w: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect();
                check(&w, "signed");
            }
        }
        let tiny = f64::MIN_POSITIVE;
        let adversarial = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            tiny,
            -tiny,
            tiny / 2.0,
            -tiny / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
        ];
        check(&adversarial, "the values once each");
        for pool in [&adversarial[..], &adversarial[..2], &adversarial[6..12]] {
            for _ in 0..40 {
                let len = rng.gen_range(1..60);
                let w: Vec<f64> = (0..len)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect();
                check(&w, "ties over adversarial values");
            }
        }
        check(&[0.25; 9], "all tied");
    }

    #[test]
    fn winners_list_tracks_status_flips_in_both_directions() {
        // The lossy path can overwrite a Winner; the list must equal the
        // full scan after every mini-round, whatever the write pattern.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(89);
        for _ in 0..200 {
            let n = rng.gen_range(1..40);
            let mut own = vec![Status::Candidate; n];
            let (mut winners, mut list) = (Vec::new(), WinnerList::default());
            list.begin(n);
            for _round in 0..6 {
                for _ in 0..rng.gen_range(0..2 * n) {
                    let u = rng.gen_range(0..n);
                    own[u] = if rng.gen_bool(0.5) {
                        Status::Winner
                    } else {
                        Status::Loser
                    };
                    list.touched.push(u);
                }
                list.update(&mut winners, &own);
                let scan: Vec<usize> = (0..n).filter(|&v| own[v] == Status::Winner).collect();
                assert_eq!(winners, scan);
                assert!(list.touched.is_empty());
            }
        }
    }
}
