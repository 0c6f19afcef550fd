//! Property-based tests for the flooding engine.

use mhca_graph::Graph;
use mhca_sim::{Flood, FloodEngine, FloodReceivers};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flood_reach_equals_bfs_ball(g in arb_graph(20), ttl in 0usize..6) {
        let origin = 0;
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&[Flood { origin, ttl, payload: () }]);
        let dist = g.bfs_distances(origin);
        for v in 0..g.n() {
            let should_receive = v != origin && dist[v].is_some_and(|d| d <= ttl);
            prop_assert_eq!(!inboxes[v].is_empty(), should_receive, "v={}", v);
            if let Some(r) = inboxes[v].first() {
                prop_assert_eq!(Some(r.distance), dist[v]);
                prop_assert_eq!(r.origin, origin);
            }
        }
    }

    #[test]
    fn transmissions_equal_relaying_vertices(g in arb_graph(16), ttl in 1usize..5) {
        // Relays = vertices at distance < ttl from the origin (they hold a
        // copy and forward it); the origin always relays.
        let origin = 0;
        let mut e = FloodEngine::new(&g);
        let _ = e.deliver(&[Flood { origin, ttl, payload: () }]);
        let dist = g.bfs_distances(origin);
        let expected: u64 = (0..g.n())
            .filter(|&v| dist[v].is_some_and(|d| d < ttl))
            .count() as u64;
        prop_assert_eq!(e.counters().transmissions, expected);
    }

    #[test]
    fn delivered_counts_match_inbox_sizes(g in arb_graph(16), k in 1usize..4) {
        let floods: Vec<Flood<u32>> = (0..k.min(g.n()))
            .map(|i| Flood { origin: i, ttl: 2, payload: i as u32 })
            .collect();
        let mut e = FloodEngine::new(&g);
        let inboxes = e.deliver(&floods);
        let total: u64 = inboxes.iter().map(|b| b.len() as u64).sum();
        prop_assert_eq!(e.counters().delivered, total);
    }

    #[test]
    fn loss_only_shrinks_reach(g in arb_graph(16), p in 0.0f64..0.9, seed in any::<u64>()) {
        let mut lossless = FloodEngine::new(&g);
        let full = lossless.deliver(&[Flood { origin: 0, ttl: 4, payload: () }]);
        let mut lossy = FloodEngine::with_loss(&g, p, seed);
        let some = lossy.deliver(&[Flood { origin: 0, ttl: 4, payload: () }]);
        for v in 0..g.n() {
            prop_assert!(some[v].len() <= full[v].len());
        }
    }

    #[test]
    fn receivers_delivery_matches_deliver_on_a_twin(
        g in arb_graph(18),
        shape in proptest::collection::vec((0usize..18, 0usize..6), 0..6),
        lossy in any::<bool>(),
        p in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        let p = if lossy { p } else { 0.0 };
        // Arbitrary graphs have isolated vertices, so empty-ball origins
        // and repeated origins both occur.
        let floods: Vec<Flood<usize>> = shape
            .iter()
            .enumerate()
            .map(|(i, &(o, ttl))| Flood { origin: o % g.n(), ttl, payload: i })
            .collect();
        let (mut inboxing, mut listing) = if p > 0.0 {
            (FloodEngine::with_loss(&g, p, seed), FloodEngine::with_loss(&g, p, seed))
        } else {
            (FloodEngine::new(&g), FloodEngine::new(&g))
        };
        let mut receivers = FloodReceivers::default();
        for _ in 0..2 {
            let inboxes = inboxing.deliver(&floods);
            listing.deliver_receivers_into(&floods, &mut receivers);
            prop_assert_eq!(receivers.floods(), floods.len());
            for i in 0..floods.len() {
                let want: Vec<u32> = (0..g.n())
                    .filter(|&v| inboxes[v].iter().any(|r| r.payload == i))
                    .map(|v| v as u32)
                    .collect();
                let mut got = receivers.of(i).to_vec();
                got.sort_unstable();
                prop_assert_eq!(got, want, "flood {}", i);
            }
            prop_assert_eq!(listing.counters(), inboxing.counters());
            prop_assert_eq!(listing.loss_flood_index(), inboxing.loss_flood_index());
        }
    }
}
