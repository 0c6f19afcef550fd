//! Traffic and queueing layer: arrival processes, per-vertex FIFO queues,
//! and multi-hop flow forwarding over the conflict graph.
//!
//! Every other metric in the stack is per-link saturation throughput; this
//! module turns the channel-access outcome into a *serving* model. A
//! [`TrafficSpec`] names an arrival process, a set of end-to-end flows
//! (source node, destination node, optional per-packet deadline), and the
//! packet size in kbps-slots. The [`QueueEngine`] advances per-vertex FIFO
//! queues once per data slot from the round loop's capture outcome: a
//! vertex that captured a channel earns service credit proportional to its
//! observed rate, and whole packets are forwarded hop-by-hop along
//! shortest paths precomputed on the CSR conflict graph until they reach
//! the flow's destination.
//!
//! Determinism contract: arrival draws come from a **dedicated
//! counter-based stream** ([`mhca_sim::counter_uniform`], the construction
//! the loss stream uses), a pure function of `(traffic seed, flow,
//! slot)`. The main run RNG is never touched, so enabling traffic leaves
//! every existing artifact byte-identical — pinned by
//! `traffic_leaves_the_untraced_run_byte_identical` in `runner.rs`.
//! Forwarded packets become serviceable only at the *next* slot
//! (`available_from = slot + 1`), which removes any dependence on the
//! order vertices appear in the per-slot capture list.
//!
//! Delay semantics: a packet delivered in its arrival slot has delay 1
//! (delays count occupied slots, so they are strictly positive and
//! log-bucket cleanly). Delivery happens when the packet is *served at the
//! penultimate hop* — the last transmission is what lands it on the
//! destination.

use mhca_graph::Graph;
use mhca_sim::counter_uniform;
use std::collections::VecDeque;

/// Packet-arrival process shared by every flow of a [`TrafficSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: `rate` packets per slot in expectation, sampled
    /// by inverse CDF from one uniform per (flow, slot).
    Poisson {
        /// Mean packets per slot (positive, finite).
        rate: f64,
    },
    /// One packet every `period` slots, starting at slot 0. Uses no
    /// randomness at all — the closed-form test workload.
    Deterministic {
        /// Slots between consecutive packets.
        period: u64,
    },
    /// Bursty on/off arrivals: with probability `rate / burst` per slot a
    /// burst of `burst` packets arrives at once, so the mean rate matches
    /// the Poisson process of the same `rate` while the tail behaves very
    /// differently (the König & Kwofie large-deviations regime).
    Bursty {
        /// Mean packets per slot (positive, at most `burst`).
        rate: f64,
        /// Packets per burst.
        burst: u64,
    },
}

impl ArrivalProcess {
    /// Packets arriving for `flow` at `slot` — a pure function of the
    /// dedicated stream, so any slot of any flow can be sampled in any
    /// order with identical results.
    pub fn arrivals_at(&self, seed: u64, flow: u64, slot: u64) -> u64 {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                let u = counter_uniform(seed, flow, slot);
                // Inverse-CDF walk; for per-slot rates well under the
                // ~700 where exp(-rate) underflows, this terminates in
                // O(rate) steps.
                let mut k = 0u64;
                let mut p = (-rate).exp();
                let mut cum = p;
                while u > cum && k < 1_000 {
                    k += 1;
                    p *= rate / k as f64;
                    cum += p;
                }
                k
            }
            ArrivalProcess::Deterministic { period } => {
                u64::from(slot.is_multiple_of(period.max(1)))
            }
            ArrivalProcess::Bursty { rate, burst } => {
                let burst = burst.max(1);
                let p = (rate / burst as f64).min(1.0);
                if counter_uniform(seed, flow, slot) < p {
                    burst
                } else {
                    0
                }
            }
        }
    }

    /// Short kebab-case name for spec JSON and CSV commentary.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Deterministic { .. } => "deterministic",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }
}

/// One end-to-end flow: packets arrive at `src` and are forwarded
/// hop-by-hop to `dst` along a shortest conflict-graph path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source node (index into the conflict graph `G`, not `H`).
    pub src: usize,
    /// Destination node (must differ from `src`).
    pub dst: usize,
    /// Optional delay bound in slots: a delivery with `delay > deadline`
    /// still counts as delivered, but not as on-time.
    pub deadline: Option<u64>,
}

/// Declarative traffic workload: arrival process × flows × packet size.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Arrival process shared by every flow.
    pub arrivals: ArrivalProcess,
    /// The flows (at least one).
    pub flows: Vec<FlowSpec>,
    /// Packet size expressed as the kbps-slots one packet costs: a vertex
    /// that captured a channel observed at `x` kbps earns `x /
    /// packet_kbps` packets of service that slot.
    pub packet_kbps: f64,
    /// Seed of the dedicated arrival stream (independent of the run
    /// seed, the loss stream, and the channel processes).
    pub seed: u64,
}

impl TrafficSpec {
    /// A Poisson workload at `rate` packets/slot over `flows`, with the
    /// default packet size of 100 kbps-slots and arrival-stream seed 0.
    pub fn poisson(rate: f64, flows: Vec<FlowSpec>) -> Self {
        TrafficSpec {
            arrivals: ArrivalProcess::Poisson { rate },
            flows,
            packet_kbps: 100.0,
            seed: 0,
        }
    }
}

/// One delivered packet, as reported to observers for the current period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Flow index into [`TrafficSpec::flows`].
    pub flow: u32,
    /// End-to-end delay in slots (≥ 1; see the module docs).
    pub delay: u64,
    /// Whether the delay met the flow's deadline (always true for flows
    /// without one).
    pub ontime: bool,
}

/// The per-period traffic view carried on a `RoundRecord`: what arrived,
/// what was delivered (with per-packet delays), and the backlog standing
/// in every per-node queue at period end.
#[derive(Debug, Clone, Copy)]
pub struct TrafficRound<'a> {
    /// Packets that arrived this period (all flows).
    pub arrivals: u64,
    /// Deliveries this period, one entry per packet.
    pub deliveries: &'a [Delivery],
    /// Per-node queue backlog at period end (`len == n_nodes`).
    pub backlogs: &'a [u64],
}

/// Lifetime totals for one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowTotals {
    /// Packets that arrived at the source.
    pub arrivals: u64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Deliveries that met the deadline.
    pub ontime: u64,
    /// Sum of delivery delays (slots), for mean-delay reporting.
    pub delay_sum: u64,
    /// Largest delivery delay seen.
    pub max_delay: u64,
}

impl FlowTotals {
    /// Mean end-to-end delay over delivered packets (0 when none).
    pub fn mean_delay(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay_sum as f64 / self.delivered as f64
        }
    }
}

/// End-of-run traffic totals attached to a `RunResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSummary {
    /// Per-flow lifetime totals, indexed like [`TrafficSpec::flows`].
    pub flows: Vec<FlowTotals>,
    /// Total arrivals across flows.
    pub arrivals: u64,
    /// Total deliveries across flows.
    pub delivered: u64,
    /// Total on-time deliveries across flows.
    pub ontime: u64,
    /// Packets still queued somewhere when the run ended.
    pub backlog: u64,
}

impl TrafficSummary {
    /// Delay-constrained utility: `Σ_f ln(1 + ontime_f)`, the
    /// proportional-fair (log-utility) objective of Khodaian & Khalaj
    /// applied to on-time delivered packets. Concave per flow, so a
    /// policy that starves one flow to fatten another scores worse than
    /// one that serves both — the metric PolicyDuel ranks by when
    /// traffic is configured.
    pub fn delay_utility(&self) -> f64 {
        self.flows
            .iter()
            .map(|f| (1.0 + f.ontime as f64).ln())
            .sum()
    }

    /// Mean end-to-end delay over all delivered packets (0 when none).
    pub fn mean_delay(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.flows.iter().map(|f| f.delay_sum).sum::<u64>() as f64 / self.delivered as f64
        }
    }
}

/// A packet in flight: which flow it belongs to, when it was born, which
/// hop of its path it currently queues at, and the first slot it may be
/// served (forwarded packets wait one slot; see the module docs).
#[derive(Debug, Clone, Copy)]
struct Packet {
    flow: u32,
    hop: u32,
    born: u64,
    available_from: u64,
}

/// Per-vertex FIFO queue state advanced once per data slot from the
/// channel-access outcome. Queues are unbounded — the `QueueTail`
/// observer judges backlogs against its configurable bound; the engine
/// itself never drops a packet, so Lindley conservation
/// (`arrivals − deliveries == backlog`) holds exactly at every slot.
#[derive(Debug, Clone)]
pub struct QueueEngine {
    arrivals: ArrivalProcess,
    seed: u64,
    packet_kbps: f64,
    /// Channels per node: capture outcomes name `H`-vertices, and
    /// `vertex / m` is the owning node.
    m: usize,
    /// Per-flow shortest path (nodes, `src..=dst`); empty when the
    /// destination is unreachable — such a flow generates no packets and
    /// is reported with zero totals (see [`QueueEngine::routed`]).
    paths: Vec<Vec<usize>>,
    deadlines: Vec<Option<u64>>,
    queues: Vec<VecDeque<Packet>>,
    /// Fractional service credit per node (kbps-slots / packet_kbps).
    credit: Vec<f64>,
    /// Per-node queue lengths, maintained incrementally.
    backlogs: Vec<u64>,
    totals: Vec<FlowTotals>,
    period_arrivals: u64,
    period_deliveries: Vec<Delivery>,
}

impl QueueEngine {
    /// Builds the engine for a traffic spec on conflict graph `g` with
    /// `m` channels per node, precomputing one shortest path per flow by
    /// BFS (ties broken toward the lowest-indexed neighbor, so paths are
    /// deterministic).
    ///
    /// # Panics
    ///
    /// Panics if a flow's endpoints are out of range or equal — the spec
    /// layers validate both up front.
    pub fn new(spec: &TrafficSpec, g: &Graph, m: usize) -> Self {
        let n = g.n();
        let paths = spec
            .flows
            .iter()
            .map(|f| {
                assert!(f.src < n && f.dst < n, "flow endpoint out of range");
                assert_ne!(f.src, f.dst, "flow src == dst");
                shortest_path(g, f.src, f.dst)
            })
            .collect();
        QueueEngine {
            arrivals: spec.arrivals,
            seed: spec.seed,
            packet_kbps: spec.packet_kbps,
            m: m.max(1),
            paths,
            deadlines: spec.flows.iter().map(|f| f.deadline).collect(),
            queues: vec![VecDeque::new(); n],
            credit: vec![0.0; n],
            backlogs: vec![0; n],
            totals: vec![FlowTotals::default(); spec.flows.len()],
            period_arrivals: 0,
            period_deliveries: Vec::new(),
        }
    }

    /// Whether flow `f`'s destination was reachable from its source (an
    /// unreachable flow is inert: no arrivals, zero totals).
    pub fn routed(&self, f: usize) -> bool {
        !self.paths[f].is_empty()
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.paths.len()
    }

    /// Clears the per-period delivery scratch; the runner calls this at
    /// the start of every decision period.
    pub fn begin_period(&mut self) {
        self.period_arrivals = 0;
        self.period_deliveries.clear();
    }

    /// Advances one data slot: draws arrivals for every flow from the
    /// dedicated stream, then serves the captured vertices. `served` is
    /// the per-slot capture outcome — `(H-vertex, observed kbps)` pairs —
    /// exactly as the round loop's observation buffer holds them.
    pub fn step_slot(&mut self, slot: u64, served: &[(usize, f64)]) {
        // Arrivals first: a packet born this slot may be served this slot
        // (delay 1 end-to-end on a one-hop flow with spare capacity).
        for f in 0..self.paths.len() {
            if self.paths[f].is_empty() {
                continue;
            }
            let count = self.arrivals.arrivals_at(self.seed, f as u64, slot);
            if count == 0 {
                continue;
            }
            let v = self.paths[f][0];
            for _ in 0..count {
                self.queues[v].push_back(Packet {
                    flow: f as u32,
                    hop: 0,
                    born: slot,
                    available_from: slot,
                });
            }
            self.backlogs[v] += count;
            self.totals[f].arrivals += count;
            self.period_arrivals += count;
        }
        // Service: each captured vertex earns credit proportional to its
        // observed rate and serves whole packets FIFO. Forwarded packets
        // carry `available_from = slot + 1`, so nothing here depends on
        // the order of `served`.
        for &(vertex, kbps) in served {
            let v = vertex / self.m;
            if self.queues[v].is_empty() {
                continue; // no banking service while idle
            }
            self.credit[v] += kbps / self.packet_kbps;
            while self.credit[v] >= 1.0 {
                let Some(front) = self.queues[v].front() else {
                    break;
                };
                if front.available_from > slot {
                    break;
                }
                let pkt = self.queues[v].pop_front().expect("front just checked");
                self.credit[v] -= 1.0;
                self.backlogs[v] -= 1;
                let path = &self.paths[pkt.flow as usize];
                let next = pkt.hop as usize + 1;
                if next == path.len() - 1 {
                    // Served at the penultimate hop: the packet lands on
                    // the destination this slot.
                    let f = pkt.flow as usize;
                    let delay = slot - pkt.born + 1;
                    let ontime = self.deadlines[f].is_none_or(|d| delay <= d);
                    let t = &mut self.totals[f];
                    t.delivered += 1;
                    t.ontime += u64::from(ontime);
                    t.delay_sum += delay;
                    t.max_delay = t.max_delay.max(delay);
                    self.period_deliveries.push(Delivery {
                        flow: pkt.flow,
                        delay,
                        ontime,
                    });
                } else {
                    let w = path[next];
                    self.queues[w].push_back(Packet {
                        hop: next as u32,
                        available_from: slot + 1,
                        ..pkt
                    });
                    self.backlogs[w] += 1;
                }
            }
            if self.queues[v].is_empty() {
                self.credit[v] = 0.0;
            }
        }
    }

    /// The current period's traffic view for observer emission.
    pub fn round(&self) -> TrafficRound<'_> {
        TrafficRound {
            arrivals: self.period_arrivals,
            deliveries: &self.period_deliveries,
            backlogs: &self.backlogs,
        }
    }

    /// Total packets currently queued anywhere.
    pub fn backlog(&self) -> u64 {
        self.backlogs.iter().sum()
    }

    /// Lifetime totals for the run summary.
    pub fn summary(&self) -> TrafficSummary {
        TrafficSummary {
            flows: self.totals.clone(),
            arrivals: self.totals.iter().map(|t| t.arrivals).sum(),
            delivered: self.totals.iter().map(|t| t.delivered).sum(),
            ontime: self.totals.iter().map(|t| t.ontime).sum(),
            backlog: self.backlog(),
        }
    }

    /// Serializes the queue state into `state` under `prefix`-prefixed
    /// keys — packets flattened in (vertex, FIFO) order into parallel
    /// vectors, plus credits and per-flow totals. Called at decision
    /// boundaries only, so the per-period scratch is empty by contract
    /// and never persisted.
    pub fn snapshot_into(&self, state: &mut mhca_bandit::StateMap, prefix: &str) {
        let mut lens = Vec::with_capacity(self.queues.len());
        let mut flow = Vec::new();
        let mut hop = Vec::new();
        let mut born = Vec::new();
        let mut avail = Vec::new();
        for q in &self.queues {
            lens.push(q.len() as u64);
            for p in q {
                flow.push(p.flow as u64);
                hop.push(p.hop as u64);
                born.push(p.born);
                avail.push(p.available_from);
            }
        }
        state.put_u64_vec(format!("{prefix}.queue_lens"), lens);
        state.put_u64_vec(format!("{prefix}.pkt_flow"), flow);
        state.put_u64_vec(format!("{prefix}.pkt_hop"), hop);
        state.put_u64_vec(format!("{prefix}.pkt_born"), born);
        state.put_u64_vec(format!("{prefix}.pkt_avail"), avail);
        state.put_f64_vec(format!("{prefix}.credit"), self.credit.clone());
        state.put_u64_vec(
            format!("{prefix}.flow_arrivals"),
            self.totals.iter().map(|t| t.arrivals).collect::<Vec<_>>(),
        );
        state.put_u64_vec(
            format!("{prefix}.flow_delivered"),
            self.totals.iter().map(|t| t.delivered).collect::<Vec<_>>(),
        );
        state.put_u64_vec(
            format!("{prefix}.flow_ontime"),
            self.totals.iter().map(|t| t.ontime).collect::<Vec<_>>(),
        );
        state.put_u64_vec(
            format!("{prefix}.flow_delay_sum"),
            self.totals.iter().map(|t| t.delay_sum).collect::<Vec<_>>(),
        );
        state.put_u64_vec(
            format!("{prefix}.flow_max_delay"),
            self.totals.iter().map(|t| t.max_delay).collect::<Vec<_>>(),
        );
    }

    /// Restores the state written by [`QueueEngine::snapshot_into`],
    /// validating every length against this engine's configuration and
    /// every packet against the flow paths: its flow must be routed, its
    /// hop before the path's last node, its queue `paths[flow][hop]`, and
    /// `born <= available_from`. On error the engine must be discarded
    /// (it may be partially restored).
    pub fn restore_from(
        &mut self,
        state: &mhca_bandit::StateMap,
        prefix: &str,
    ) -> Result<(), mhca_bandit::StateError> {
        let n = self.queues.len();
        let n_flows = self.totals.len();
        let invalid = |key: &str, message: String| {
            mhca_bandit::StateError::invalid(&format!("{prefix}.{key}"), message)
        };
        let lens = state.get_u64_vec_exact(&format!("{prefix}.queue_lens"), n)?;
        let total = lens
            .iter()
            .try_fold(0u64, |sum, &len| sum.checked_add(len))
            .and_then(|total| usize::try_from(total).ok())
            .ok_or_else(|| invalid("queue_lens", "packet count overflows".to_string()))?;
        let flow = state.get_u64_vec_exact(&format!("{prefix}.pkt_flow"), total)?;
        let hop = state.get_u64_vec_exact(&format!("{prefix}.pkt_hop"), total)?;
        let born = state.get_u64_vec_exact(&format!("{prefix}.pkt_born"), total)?;
        let avail = state.get_u64_vec_exact(&format!("{prefix}.pkt_avail"), total)?;
        let credit = state.get_f64_vec_exact(&format!("{prefix}.credit"), n)?;
        let arrivals = state.get_u64_vec_exact(&format!("{prefix}.flow_arrivals"), n_flows)?;
        let delivered = state.get_u64_vec_exact(&format!("{prefix}.flow_delivered"), n_flows)?;
        let ontime = state.get_u64_vec_exact(&format!("{prefix}.flow_ontime"), n_flows)?;
        let delay_sum = state.get_u64_vec_exact(&format!("{prefix}.flow_delay_sum"), n_flows)?;
        let max_delay = state.get_u64_vec_exact(&format!("{prefix}.flow_max_delay"), n_flows)?;
        let mut k = 0usize;
        for (v, q) in self.queues.iter_mut().enumerate() {
            q.clear();
            self.backlogs[v] = lens[v];
            for _ in 0..lens[v] {
                let (f, h) = (flow[k], hop[k]);
                let path = usize::try_from(f)
                    .ok()
                    .and_then(|f| self.paths.get(f))
                    .filter(|path| !path.is_empty())
                    .ok_or_else(|| {
                        invalid("pkt_flow", format!("packet {k}: no routed flow {f}"))
                    })?;
                let at = usize::try_from(h)
                    .ok()
                    .filter(|&h| h + 1 < path.len())
                    .ok_or_else(|| {
                        invalid(
                            "pkt_hop",
                            format!("packet {k}: hop {h} is not before flow {f}'s last node"),
                        )
                    })?;
                if path[at] != v {
                    return Err(invalid(
                        "queue_lens",
                        format!(
                            "packet {k}: flow {f} hop {h} queues at node {}, found at node {v}",
                            path[at]
                        ),
                    ));
                }
                if born[k] > avail[k] {
                    return Err(invalid(
                        "pkt_born",
                        format!(
                            "packet {k}: born at slot {} after it became available at slot {}",
                            born[k], avail[k]
                        ),
                    ));
                }
                q.push_back(Packet {
                    flow: flow[k] as u32,
                    hop: hop[k] as u32,
                    born: born[k],
                    available_from: avail[k],
                });
                k += 1;
            }
        }
        self.credit = credit;
        for (f, t) in self.totals.iter_mut().enumerate() {
            *t = FlowTotals {
                arrivals: arrivals[f],
                delivered: delivered[f],
                ontime: ontime[f],
                delay_sum: delay_sum[f],
                max_delay: max_delay[f],
            };
        }
        self.period_arrivals = 0;
        self.period_deliveries.clear();
        Ok(())
    }
}

/// Shortest path `src..=dst` on `g` (BFS from `dst`; each step goes to
/// the lowest-indexed neighbor one closer to the destination). Empty when
/// `dst` is unreachable.
fn shortest_path(g: &Graph, src: usize, dst: usize) -> Vec<usize> {
    let dist = g.bfs_distances(dst);
    let Some(mut d) = dist[src] else {
        return Vec::new();
    };
    let mut path = Vec::with_capacity(d + 1);
    let mut v = src;
    path.push(v);
    while d > 0 {
        // Neighbor lists are sorted, so `find` picks the lowest index —
        // the deterministic tie-break.
        let next = g
            .neighbors(v)
            .iter()
            .copied()
            .find(|&w| dist[w] == Some(d - 1))
            .expect("BFS distance must decrease along some neighbor");
        v = next;
        d -= 1;
        path.push(v);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_graph::topology;

    fn line_flow(n: usize, src: usize, dst: usize, arrivals: ArrivalProcess) -> QueueEngine {
        let spec = TrafficSpec {
            arrivals,
            flows: vec![FlowSpec {
                src,
                dst,
                deadline: None,
            }],
            packet_kbps: 100.0,
            seed: 7,
        };
        QueueEngine::new(&spec, &topology::line(n), 1)
    }

    /// Full service at every node: every node captures its channel at
    /// exactly one packet of credit per slot.
    fn serve_all(n: usize) -> Vec<(usize, f64)> {
        (0..n).map(|v| (v, 100.0)).collect()
    }

    #[test]
    fn arrival_stream_is_a_pure_function_of_flow_and_slot() {
        let p = ArrivalProcess::Poisson { rate: 0.4 };
        // Any order, identical draws.
        let forward: Vec<u64> = (0..200).map(|s| p.arrivals_at(5, 1, s)).collect();
        let backward: Vec<u64> = (0..200).rev().map(|s| p.arrivals_at(5, 1, s)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "stream must be counter-based"
        );
        // Distinct flows and seeds get distinct streams.
        let other_flow: Vec<u64> = (0..200).map(|s| p.arrivals_at(5, 2, s)).collect();
        let other_seed: Vec<u64> = (0..200).map(|s| p.arrivals_at(6, 1, s)).collect();
        assert_ne!(forward, other_flow);
        assert_ne!(forward, other_seed);
        // Mean roughly matches the rate.
        let total: u64 = (0..10_000).map(|s| p.arrivals_at(5, 1, s)).sum();
        let mean = total as f64 / 10_000.0;
        assert!((mean - 0.4).abs() < 0.05, "Poisson mean drifted: {mean}");
    }

    #[test]
    fn bursty_matches_poisson_mean_with_fatter_bursts() {
        let b = ArrivalProcess::Bursty {
            rate: 0.4,
            burst: 8,
        };
        let draws: Vec<u64> = (0..20_000).map(|s| b.arrivals_at(3, 0, s)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        assert!((mean - 0.4).abs() < 0.1, "bursty mean drifted: {mean}");
        assert!(draws.iter().all(|&d| d == 0 || d == 8));
    }

    #[test]
    fn two_hop_line_closed_form_delay() {
        // Line 0—1—2, flow 0→2 (path [0, 1, 2]), one deterministic packet
        // every 4 slots, full service everywhere: each packet is served
        // at node 0 in its arrival slot and forwarded, then served at
        // node 1 the next slot — end-to-end delay exactly 2, no queueing.
        let mut q = line_flow(3, 0, 2, ArrivalProcess::Deterministic { period: 4 });
        let served = serve_all(3);
        let mut delays = Vec::new();
        for slot in 0..40 {
            q.begin_period();
            q.step_slot(slot, &served);
            delays.extend(q.round().deliveries.iter().map(|d| d.delay));
        }
        assert_eq!(delays.len(), 10, "arrivals at slots 0, 4, …, 36");
        assert!(delays.iter().all(|&d| d == 2), "delays: {delays:?}");
        assert_eq!(q.summary().delivered, 10);
        assert_eq!(q.backlog(), 0, "no queueing under full service");
    }

    #[test]
    fn lindley_conservation_under_overload() {
        // Heavy Poisson load, service only at the source, single-hop flow:
        // arrivals − deliveries == backlog at every slot, exactly.
        let mut q = line_flow(4, 1, 0, ArrivalProcess::Poisson { rate: 1.7 });
        for slot in 0..500 {
            q.begin_period();
            // Node 1 captures at half a packet per slot — overloaded.
            q.step_slot(slot, &[(1, 50.0)]);
            let s = q.summary();
            assert_eq!(
                s.arrivals - s.delivered,
                q.backlog(),
                "conservation broke at slot {slot}"
            );
        }
        let s = q.summary();
        assert!(s.arrivals > 700, "load sanity: {}", s.arrivals);
        assert!(q.backlog() > 0, "overload must leave a standing queue");
    }

    #[test]
    fn multi_hop_forwarding_waits_one_slot_per_hop() {
        // 5-node line, flow 0→4: minimum end-to-end delay is 4 (one
        // served hop per slot across path [0,1,2,3,4]).
        let mut q = line_flow(5, 0, 4, ArrivalProcess::Deterministic { period: 10 });
        let served = serve_all(5);
        let mut min_delay = u64::MAX;
        for slot in 0..60 {
            q.begin_period();
            q.step_slot(slot, &served);
            for d in q.round().deliveries {
                min_delay = min_delay.min(d.delay);
            }
        }
        assert_eq!(min_delay, 4);
    }

    #[test]
    fn deadlines_partition_deliveries() {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::Deterministic { period: 1 },
            flows: vec![FlowSpec {
                src: 0,
                dst: 2,
                deadline: Some(4),
            }],
            packet_kbps: 100.0,
            seed: 0,
        };
        // Serve only every third slot: queueing pushes many deliveries
        // past the 2-slot deadline.
        let mut q = QueueEngine::new(&spec, &topology::line(3), 1);
        for slot in 0..300 {
            q.begin_period();
            if slot % 3 == 0 {
                q.step_slot(slot, &[(0, 300.0), (1, 300.0)]);
            } else {
                q.step_slot(slot, &[]);
            }
        }
        let s = q.summary();
        assert!(s.delivered > 0);
        assert!(
            s.ontime < s.delivered,
            "expected late deliveries: {} ontime of {}",
            s.ontime,
            s.delivered
        );
        assert!(s.delay_utility() > 0.0);
        assert!(s.delay_utility() < (1.0 + s.delivered as f64).ln() + 1e-9);
    }

    #[test]
    fn unreachable_flows_are_inert() {
        let spec = TrafficSpec::poisson(
            0.9,
            vec![FlowSpec {
                src: 0,
                dst: 3,
                deadline: None,
            }],
        );
        // independent(4): no edges, dst unreachable.
        let mut q = QueueEngine::new(&spec, &topology::independent(4), 1);
        assert!(!q.routed(0));
        for slot in 0..50 {
            q.begin_period();
            q.step_slot(slot, &serve_all(4));
        }
        assert_eq!(q.summary().arrivals, 0);
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_backlog() {
        let mk = || line_flow(4, 0, 3, ArrivalProcess::Poisson { rate: 0.8 });
        let served = vec![(0usize, 80.0), (2usize, 120.0)];
        let mut a = mk();
        for slot in 0..100 {
            a.begin_period();
            a.step_slot(slot, &served);
        }
        assert!(a.backlog() > 0, "need standing state to round-trip");
        let mut state = mhca_bandit::StateMap::new();
        a.snapshot_into(&mut state, "traffic");
        let mut b = mk();
        b.restore_from(&state, "traffic").unwrap();
        // Continue both engines identically; every observable must match.
        for slot in 100..200 {
            a.begin_period();
            b.begin_period();
            a.step_slot(slot, &served);
            b.step_slot(slot, &served);
            assert_eq!(a.round().deliveries, b.round().deliveries, "slot {slot}");
            assert_eq!(a.round().backlogs, b.round().backlogs, "slot {slot}");
        }
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn restore_rejects_wrong_shapes() {
        let mut q = line_flow(3, 0, 2, ArrivalProcess::Poisson { rate: 0.5 });
        let empty = mhca_bandit::StateMap::new();
        assert!(q.restore_from(&empty, "traffic").is_err());
        let mut wrong = mhca_bandit::StateMap::new();
        q.snapshot_into(&mut wrong, "traffic");
        let mut bigger = line_flow(4, 0, 2, ArrivalProcess::Poisson { rate: 0.5 });
        assert!(
            bigger.restore_from(&wrong, "traffic").is_err(),
            "queue_lens length mismatch must be rejected"
        );
    }

    #[test]
    fn restore_rejects_inconsistent_packets() {
        // Flow 0 runs 0 → 3 on a line; flow 1 targets the isolated node 4
        // and is unrouted.
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::Poisson { rate: 0.8 },
            flows: vec![
                FlowSpec {
                    src: 0,
                    dst: 3,
                    deadline: None,
                },
                FlowSpec {
                    src: 0,
                    dst: 4,
                    deadline: None,
                },
            ],
            packet_kbps: 100.0,
            seed: 7,
        };
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let served = vec![(0usize, 80.0), (2usize, 120.0)];
        let mut a = QueueEngine::new(&spec, &g, 1);
        for slot in 0..100 {
            a.begin_period();
            a.step_slot(slot, &served);
        }
        let mut good = mhca_bandit::StateMap::new();
        a.snapshot_into(&mut good, "traffic");
        let hops = good.get_u64_slice("traffic.pkt_hop").unwrap().to_vec();
        assert!(hops.contains(&0) && hops.iter().any(|&h| h > 0));
        QueueEngine::new(&spec, &g, 1)
            .restore_from(&good, "traffic")
            .unwrap();

        let tampered = |key: &str, edit: &dyn Fn(&mut Vec<u64>)| {
            let mut bad = mhca_bandit::StateMap::new();
            for (k, v) in good.iter() {
                if k == key {
                    let mut words = good.get_u64_slice(k).unwrap().to_vec();
                    edit(&mut words);
                    bad.put_u64_vec(k, words);
                } else {
                    bad.put(k.to_string(), v.clone());
                }
            }
            QueueEngine::new(&spec, &g, 1)
                .restore_from(&bad, "traffic")
                .unwrap_err()
                .key
        };
        let set_all = |value: u64| move |w: &mut Vec<u64>| w.iter_mut().for_each(|x| *x = value);
        // Out-of-range flow, and an unrouted one.
        assert_eq!(
            tampered("traffic.pkt_flow", &set_all(2)),
            "traffic.pkt_flow"
        );
        assert_eq!(
            tampered("traffic.pkt_flow", &set_all(1)),
            "traffic.pkt_flow"
        );
        // Hop 3 is flow 0's destination: nothing queues there.
        assert_eq!(tampered("traffic.pkt_hop", &set_all(3)), "traffic.pkt_hop");
        // A valid hop in the wrong node's queue.
        let shift = |w: &mut Vec<u64>| w.iter_mut().for_each(|h| *h = (*h + 1) % 3);
        assert_eq!(tampered("traffic.pkt_hop", &shift), "traffic.queue_lens");
        // Born after it became available.
        assert_eq!(
            tampered("traffic.pkt_born", &set_all(u64::MAX)),
            "traffic.pkt_born"
        );
        // Two empty queues (nodes 3 and 4) whose lengths sum to 2^64, so
        // the total wraps around to the real packet count.
        let wrap = |w: &mut Vec<u64>| {
            assert_eq!(&w[3..], &[0, 0]);
            w[3] = 1 << 63;
            w[4] = 1 << 63;
        };
        assert_eq!(tampered("traffic.queue_lens", &wrap), "traffic.queue_lens");
    }
}
