//! The simulated multi-hop cognitive-radio network: `G`, `H`, and channels.

use mhca_channels::{ChannelMatrix, ChannelModelSpec};
use mhca_graph::{ExtendedConflictGraph, Graph, Layout, Strategy, TopologySpec};
use mhca_mwis::{exact, WeightedSet};

/// A complete network instance: conflict graph `G` on `N` users, extended
/// conflict graph `H`, and the `N×M` channel matrix with unknown (to the
/// learner) means.
///
/// # Example
///
/// ```
/// use mhca_core::Network;
///
/// let net = Network::random(10, 4, 3.0, 0.1, 1);
/// assert_eq!(net.n_nodes(), 10);
/// assert_eq!(net.n_channels(), 4);
/// assert_eq!(net.h().n_vertices(), 40);
/// let opt = net.optimal();
/// assert!(opt.weight > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    g: Graph,
    h: ExtendedConflictGraph,
    channels: ChannelMatrix,
    layout: Option<Layout>,
}

impl Network {
    /// Builds a network from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if the channel matrix dimensions do not match `g` and `m`.
    pub fn from_parts(g: Graph, channels: ChannelMatrix, layout: Option<Layout>) -> Self {
        assert_eq!(channels.n_nodes(), g.n(), "channel matrix nodes");
        let m = channels.n_channels();
        let h = ExtendedConflictGraph::new(&g, m);
        Network {
            g,
            h,
            channels,
            layout,
        }
    }

    /// Random unit-disk network with `n` users, `m` channels, target
    /// average degree `avg_degree`, truncated-Gaussian channels with
    /// `sigma = sigma_frac · mean` drawn from the paper's rate classes.
    /// Everything is determined by `seed`.
    pub fn random(n: usize, m: usize, avg_degree: f64, sigma_frac: f64, seed: u64) -> Self {
        let topology = TopologySpec::UnitDisk { avg_degree };
        let channel = ChannelModelSpec::GaussianRateClasses { sigma_frac };
        Network::from_spec(n, m, &topology, &channel, seed)
    }

    /// Like [`Network::random`] but retries until the conflict graph is
    /// connected (the Fig. 7 workload: "a randomly generated connected
    /// network").
    ///
    /// # Panics
    ///
    /// Panics if no connected instance is found in 1000 tries.
    pub fn random_connected(
        n: usize,
        m: usize,
        avg_degree: f64,
        sigma_frac: f64,
        seed: u64,
    ) -> Self {
        let topology = TopologySpec::UnitDiskConnected { avg_degree };
        let channel = ChannelModelSpec::GaussianRateClasses { sigma_frac };
        Network::from_spec(n, m, &topology, &channel, seed)
    }

    /// Spec-driven construction: builds the conflict graph from a
    /// [`TopologySpec`] and the channel matrix from a [`ChannelModelSpec`],
    /// both derived from the same seed. [`Network::random`] and
    /// [`Network::random_connected`] are this with the `UnitDisk` /
    /// `UnitDiskConnected` topology and `GaussianRateClasses` channels.
    ///
    /// # Panics
    ///
    /// Propagates the spec constructors' panics (see
    /// [`TopologySpec::build`] and [`ChannelModelSpec::build`]).
    pub fn from_spec(
        n: usize,
        m: usize,
        topology: &TopologySpec,
        channel: &ChannelModelSpec,
        seed: u64,
    ) -> Self {
        let (g, layout) = topology.build(n, seed);
        let channels = channel.build(n, m, seed);
        Network::from_parts(g, channels, layout)
    }

    /// Number of users `N`.
    pub fn n_nodes(&self) -> usize {
        self.g.n()
    }

    /// Number of channels `M`.
    pub fn n_channels(&self) -> usize {
        self.channels.n_channels()
    }

    /// Number of arms `K = N·M`.
    pub fn n_vertices(&self) -> usize {
        self.h.n_vertices()
    }

    /// The original conflict graph `G`.
    pub fn g(&self) -> &Graph {
        &self.g
    }

    /// The extended conflict graph `H`.
    pub fn h(&self) -> &ExtendedConflictGraph {
        &self.h
    }

    /// The channel matrix.
    pub fn channels(&self) -> &ChannelMatrix {
        &self.channels
    }

    /// Node placement, when the network was geometrically generated.
    pub fn layout(&self) -> Option<&Layout> {
        self.layout.as_ref()
    }

    /// Master-node labels for the grouped MWIS solvers
    /// (`group_of[vertex] = vertex / M`).
    pub fn node_groups(&self) -> &[usize] {
        self.h.node_groups()
    }

    /// The static optimum: exact MWIS of `H` under the true means —
    /// `R_1` of Eq. (2), computed by branch-and-bound (the paper's
    /// brute-force optimum for the Fig. 7 instance).
    ///
    /// Worst-case exponential; intended for instances up to roughly
    /// 20 users × a few channels.
    pub fn optimal(&self) -> WeightedSet {
        let means = self.channels.means();
        let allowed: Vec<usize> = (0..self.h.n_vertices()).collect();
        exact::solve_grouped(self.h.graph(), &means, &allowed, self.h.node_groups())
    }

    /// Converts a vertex set of `H` into a [`Strategy`].
    ///
    /// # Panics
    ///
    /// Panics if the set is not independent in `H`.
    pub fn strategy_from_is(&self, is_: &[usize]) -> Strategy {
        self.h.strategy_from_is(is_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_channels::process::Constant;
    use mhca_graph::topology;

    fn constant_net(g: Graph, m: usize, rates: &[f64]) -> Network {
        let procs = rates.iter().map(|&r| Constant::new(r).into()).collect();
        let channels = ChannelMatrix::from_processes(g.n(), m, procs, 0);
        Network::from_parts(g, channels, None)
    }

    #[test]
    fn random_network_is_reproducible() {
        let a = Network::random(12, 3, 3.0, 0.1, 5);
        let b = Network::random(12, 3, 3.0, 0.1, 5);
        assert_eq!(a.g(), b.g());
        assert_eq!(a.channels().means(), b.channels().means());
    }

    /// FNV-1a 64 over a network's edges, layout and channel means plus
    /// one sample per vertex (all f64s by bit pattern).
    fn network_digest(mut hash: u64, net: &Network) -> u64 {
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (u, v) in net.g().edges() {
            eat(u as u64);
            eat(v as u64);
        }
        let layout = net.layout().expect("unit-disk networks carry a layout");
        eat(layout.side.to_bits());
        eat(layout.radius.to_bits());
        for p in &layout.points {
            eat(p.x.to_bits());
            eat(p.y.to_bits());
        }
        for v in 0..net.n_vertices() {
            eat(net.channels().mean(v).to_bits());
            eat(net.channels().value(9, v).to_bits());
        }
        hash
    }

    #[test]
    fn random_constructors_match_from_spec_over_a_grid() {
        // Both random constructors equal their `from_spec` spelling, and
        // the whole grid is pinned to a digest recorded when they were
        // still separate code paths.
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for (n, d) in [(2, 0.5), (5, 1.5), (12, 3.0), (30, 4.0)] {
            for m in [1, 3] {
                for sigma_frac in [0.0, 0.1, 0.3] {
                    for seed in [0, 5, 7] {
                        let channel = ChannelModelSpec::GaussianRateClasses { sigma_frac };
                        let pairs = [
                            (
                                Network::random(n, m, d, sigma_frac, seed),
                                TopologySpec::UnitDisk { avg_degree: d },
                            ),
                            (
                                Network::random_connected(n, m, d + 1.0, sigma_frac, seed),
                                TopologySpec::UnitDiskConnected {
                                    avg_degree: d + 1.0,
                                },
                            ),
                        ];
                        for (legacy, topology) in pairs {
                            let spec = Network::from_spec(n, m, &topology, &channel, seed);
                            let at = format!("{topology:?} n={n} m={m} σ={sigma_frac} s={seed}");
                            assert_eq!(legacy.g(), spec.g(), "{at}");
                            assert_eq!(legacy.layout(), spec.layout(), "{at}");
                            assert_eq!(legacy.channels().means(), spec.channels().means(), "{at}");
                            hash = network_digest(hash, &legacy);
                        }
                    }
                }
            }
        }
        assert_eq!(format!("{hash:016x}"), "3c151e756aeaf8d5");
    }

    #[test]
    fn from_spec_deterministic_topologies() {
        let net = Network::from_spec(
            6,
            2,
            &TopologySpec::Line,
            &ChannelModelSpec::ConstantRateClasses,
            0,
        );
        assert_eq!(net.g(), &topology::line(6));
        assert!(net.layout().is_none());
    }

    #[test]
    fn connected_network_is_connected() {
        let net = Network::random_connected(15, 3, 4.0, 0.1, 2);
        assert!(net.g().is_connected());
    }

    #[test]
    fn optimal_on_two_conflicting_nodes() {
        // G: 0—1 with 2 channels. Rates: node0 = [5, 1], node1 = [4, 3].
        // Best: node0→c0 (5), node1→c1 (3) = 8.
        let net = constant_net(topology::line(2), 2, &[5.0, 1.0, 4.0, 3.0]);
        let opt = net.optimal();
        assert_eq!(opt.weight, 8.0);
        let s = net.strategy_from_is(&opt.vertices);
        assert_eq!(s.assigned_count(), 2);
    }

    #[test]
    fn optimal_respects_conflicts() {
        // Single channel, two conflicting nodes: only one can transmit.
        let net = constant_net(topology::line(2), 1, &[5.0, 4.0]);
        let opt = net.optimal();
        assert_eq!(opt.weight, 5.0);
        assert_eq!(opt.vertices, vec![0]);
    }

    #[test]
    fn node_groups_label_masters() {
        let net = constant_net(topology::line(3), 2, &[1.0; 6]);
        assert_eq!(net.node_groups(), &[0, 0, 1, 1, 2, 2]);
    }
}
