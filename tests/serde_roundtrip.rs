//! Value semantics of the data structures experiments persist.
//!
//! Configs and ids are written out by hand (CSV artifacts, the campaign
//! spec codec), not by a serialization framework, so these tests pin the
//! properties those writers rely on: clones compare equal, defaults carry
//! the paper's values, and ids order and hash consistently.

use mhca::core::{
    experiments::{Fig6Config, Fig7Config, Fig8Config},
    runner::Algorithm2Config,
    DistributedPtasConfig, TimeModel,
};
use mhca::graph::{ChannelId, NodeId, Strategy, VertexId};

#[test]
fn configs_are_cloneable_and_comparable() {
    let a = Algorithm2Config::default().with_horizon(123).with_seed(9);
    let b = a.clone();
    assert_eq!(a, b);
    let c = b.with_update_period(5);
    assert_ne!(c.update_period, a.update_period);
}

#[test]
fn experiment_configs_default_to_paper_values() {
    let f6 = Fig6Config::default();
    assert_eq!(
        f6.sizes,
        vec![(50, 5), (100, 5), (200, 5), (50, 10), (100, 10), (200, 10)]
    );
    assert_eq!(f6.r, 2);

    let f7 = Fig7Config::default();
    assert_eq!((f7.n, f7.m, f7.horizon), (15, 3, 1000));

    let f8 = Fig8Config::default();
    assert_eq!((f8.n, f8.m), (100, 10));
    assert_eq!(f8.update_periods, vec![1, 5, 10, 20]);
    assert_eq!(f8.updates_per_run, 1000);
}

#[test]
fn time_model_and_decision_config_equality() {
    assert_eq!(TimeModel::default(), TimeModel::default());
    let d1 = DistributedPtasConfig::default();
    let d2 = DistributedPtasConfig::default().with_r(2);
    assert_eq!(d1, d2); // default r is already 2
    assert_ne!(d1, d2.with_r(3));
}

#[test]
fn ids_order_and_hash_consistently() {
    use std::collections::HashSet;
    let set: HashSet<VertexId> = [VertexId(1), VertexId(2), VertexId(1)]
        .into_iter()
        .collect();
    assert_eq!(set.len(), 2);
    assert!(NodeId(0) < NodeId(1));
    assert!(ChannelId(2) > ChannelId(0));
}

#[test]
fn strategy_equality_is_structural() {
    let mut a = Strategy::new(3);
    let mut b = Strategy::new(3);
    a.assign(NodeId(1), ChannelId(0));
    b.assign(NodeId(1), ChannelId(0));
    assert_eq!(a, b);
    b.assign(NodeId(2), ChannelId(1));
    assert_ne!(a, b);
}
