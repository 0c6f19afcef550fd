//! Property-based tests for the flooding engine.

use mhca_graph::Graph;
use mhca_sim::{Flood, FloodEngine, FloodReceivers, LossSpec};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..n * 2).prop_map(move |edges| {
            let mut g = Graph::builder(n);
            for (u, v) in edges {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            g.build()
        })
    })
}

/// Each flood's receivers, sorted.
fn receivers<P>(e: &mut FloodEngine<'_>, floods: &[Flood<P>]) -> Vec<Vec<u32>> {
    let mut out = FloodReceivers::default();
    e.deliver_receivers_into(floods, &mut out);
    (0..out.floods())
        .map(|i| {
            let mut got = out.of(i).to_vec();
            got.sort_unstable();
            got
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flood_reach_equals_bfs_ball(g in arb_graph(20), ttl in 0usize..6) {
        let origin = 0;
        let mut e = FloodEngine::new(&g);
        let got = receivers(&mut e, &[Flood { origin, ttl, payload: () }]);
        let dist = g.bfs_distances(origin);
        let want: Vec<u32> = (0..g.n())
            .filter(|&v| v != origin && dist[v].is_some_and(|d| d <= ttl))
            .map(|v| v as u32)
            .collect();
        prop_assert_eq!(&got[0], &want);
    }

    #[test]
    fn transmissions_equal_relaying_vertices(g in arb_graph(16), ttl in 1usize..5) {
        // Relays = vertices at distance < ttl from the origin (they hold a
        // copy and forward it); the origin always relays.
        let origin = 0;
        let floods = [Flood { origin, ttl, payload: () }];
        let dist = g.bfs_distances(origin);
        let expected: u64 = (0..g.n())
            .filter(|&v| dist[v].is_some_and(|d| d < ttl))
            .count() as u64;
        let mut listing = FloodEngine::new(&g);
        let _ = receivers(&mut listing, &floods);
        prop_assert_eq!(listing.counters().transmissions, expected);
        let mut counting = FloodEngine::new(&g);
        counting.broadcast_only(&floods);
        prop_assert_eq!(counting.counters().transmissions, expected);
    }

    #[test]
    fn delivered_counts_match_receiver_lists(g in arb_graph(16), k in 1usize..4) {
        let floods: Vec<Flood<u32>> = (0..k.min(g.n()))
            .map(|i| Flood { origin: i, ttl: 2, payload: i as u32 })
            .collect();
        let mut e = FloodEngine::new(&g);
        let got = receivers(&mut e, &floods);
        let total: u64 = got.iter().map(|r| r.len() as u64).sum();
        prop_assert_eq!(e.counters().delivered, total);
    }

    #[test]
    fn loss_only_shrinks_reach(g in arb_graph(16), p in 0.0f64..0.9, seed in any::<u64>()) {
        let floods = [Flood { origin: 0, ttl: 4, payload: () }];
        let full = receivers(&mut FloodEngine::new(&g), &floods);
        let run = || receivers(&mut FloodEngine::from_spec(&g, &LossSpec::lossy(p, seed)), &floods);
        let some = run();
        prop_assert!(some[0].iter().all(|v| full[0].contains(v)));
        // Reproducible per seed.
        prop_assert_eq!(some, run());
    }

    #[test]
    fn receivers_delivery_matches_broadcast_on_a_twin(
        g in arb_graph(18),
        shape in proptest::collection::vec((0usize..18, 0usize..6), 0..6),
        lossy in any::<bool>(),
        p in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        // On a lossless engine `broadcast_only` charges from the relay
        // tables while `deliver_receivers_into` always runs the BFS wave; on a lossy one both run BFS over the
        // same drop stream. Either way both must charge identical
        // counters. Arbitrary graphs have isolated vertices, so
        // empty-ball origins and repeated origins both occur.
        let floods: Vec<Flood<()>> = shape
            .iter()
            .map(|&(o, ttl)| Flood { origin: o % g.n(), ttl, payload: () })
            .collect();
        let make = || {
            if lossy {
                FloodEngine::from_spec(&g, &LossSpec::lossy(p, seed))
            } else {
                FloodEngine::new(&g)
            }
        };
        let (mut counting, mut listing) = (make(), make());
        for _ in 0..2 {
            counting.broadcast_only(&floods);
            let got = receivers(&mut listing, &floods);
            prop_assert_eq!(got.len(), floods.len());
            prop_assert_eq!(listing.counters(), counting.counters());
            prop_assert_eq!(listing.loss_flood_index(), counting.loss_flood_index());
        }
    }
}
