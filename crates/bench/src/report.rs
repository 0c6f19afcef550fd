//! Per-figure CSV renderers — the presentation layer of the job
//! artifacts that the campaign runner and the service executor write
//! (both through [`render_job_artifact`]).
//!
//! Each function renders one experiment output in the same rows/series the
//! paper plots, with `# `-prefixed commentary on the expected shape. The
//! callers run the harness from `mhca_core::experiments` and hand the
//! output here.

use crate::{csv::CsvWriter, sample_indices};
use mhca_core::experiments::{
    ComplexityPoint, Fig6Series, Fig7Output, Fig8Run, PolicyRunConfig, Table2, Theorem3Point,
    WorstCasePoint,
};
use mhca_core::{ExperimentData, RunResult};
use std::io::{self, Write};

/// Renders the typed payload of any unified-engine experiment run — the
/// single presentation entry point of the campaign runner's and the
/// service executor's artifacts.
pub fn render_experiment(data: &ExperimentData, out: &mut dyn Write) -> io::Result<()> {
    match data {
        ExperimentData::Fig5(points) => render_fig5(points, out),
        ExperimentData::Fig6 { minirounds, series } => render_fig6(*minirounds, series, out),
        ExperimentData::Fig7(output) => render_fig7(output, out),
        ExperimentData::Fig8(runs) => render_fig8(runs, out),
        ExperimentData::Table2(t) => render_table2(t, out),
        ExperimentData::Complexity(points) => render_complexity(points, out),
        ExperimentData::Theorem3(points) => render_theorem3(points, out),
        ExperimentData::PolicyRun { cfg, run } => render_policy_run(cfg, run, out),
        ExperimentData::PolicyDuel { a, b } => {
            render_policy_run(&a.0, &a.1, out)?;
            render_policy_run(&b.0, &b.1, out)
        }
    }
}

/// Fig. 5: mini-rounds to completion on the linear worst case.
pub fn render_fig5(points: &[WorstCasePoint], out: &mut dyn Write) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    w.row(&["n", "minirounds_to_completion", "minirounds_over_n"])?;
    for p in points {
        w.row(&[
            format!("{}", p.n),
            format!("{}", p.minirounds_used),
            format!("{:.3}", p.minirounds_used as f64 / p.n as f64),
        ])?;
    }
    w.blank()?;
    w.comment("the ratio minirounds/n should be roughly constant (linear growth)")
}

/// Fig. 6: cumulative output weight per mini-round, one column per size.
pub fn render_fig6(
    minirounds: usize,
    series: &[Fig6Series],
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    let mut header = vec!["miniround".to_string()];
    header.extend(series.iter().map(|s| format!("{}x{}", s.n, s.m)));
    w.row(&header)?;
    for i in 0..minirounds {
        let mut row = vec![format!("{}", i + 1)];
        row.extend(
            series
                .iter()
                .map(|s| format!("{:.1}", s.weight_by_miniround[i])),
        );
        w.row(&row)?;
    }
    w.blank()?;
    w.comment("convergence mini-round per size (paper: ~4)")?;
    for s in series {
        w.comment(&format!("{}x{}: converged_at={}", s.n, s.m, s.converged_at))?;
    }
    Ok(())
}

/// Fig. 7: practical regret and β-regret series, Algorithm 2 vs LLR.
pub fn render_fig7(output: &Fig7Output, out: &mut dyn Write) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    w.comment(&format!(
        "optimal R1 (kbps): {:.2} (paper instance: 7282.90)",
        output.optimal_kbps
    ))?;
    w.comment(&format!("beta = theta*alpha: {:.4}", output.beta))?;
    w.row(&[
        "slot",
        "alg2_practical_regret",
        "llr_practical_regret",
        "alg2_beta_regret",
        "llr_beta_regret",
    ])?;
    let n = output.algorithm2.practical_regret.len();
    for i in sample_indices(n, 50) {
        w.row(&[
            format!("{}", i + 1),
            format!("{:.2}", output.algorithm2.practical_regret[i]),
            format!("{:.2}", output.llr.practical_regret[i]),
            format!("{:.2}", output.algorithm2.practical_beta_regret[i]),
            format!("{:.2}", output.llr.practical_beta_regret[i]),
        ])?;
    }
    w.blank()?;
    w.comment(&format!(
        "final: alg2 regret {:.1} vs llr {:.1} (alg2 should be lower)",
        output.algorithm2.practical_regret.last().unwrap(),
        output.llr.practical_regret.last().unwrap()
    ))?;
    w.comment(&format!(
        "final: alg2 beta-regret {:.1}, llr {:.1} (both should be negative)",
        output.algorithm2.practical_beta_regret.last().unwrap(),
        output.llr.practical_beta_regret.last().unwrap()
    ))
}

/// Fig. 8: estimated vs actual effective throughput per update period.
pub fn render_fig8(runs: &[Fig8Run], out: &mut dyn Write) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    for run in runs {
        w.comment(&format!(
            "subplot y={} (horizon {} slots)",
            run.y, run.horizon
        ))?;
        w.row(&[
            "slot",
            "alg2_estimated",
            "alg2_actual",
            "llr_estimated",
            "llr_actual",
        ])?;
        let n = run.algorithm2.avg_actual_throughput.len();
        for i in sample_indices(n, 25) {
            w.row(&[
                format!("{}", run.algorithm2.period_end_slots[i]),
                format!("{:.1}", run.algorithm2.avg_estimated_throughput[i]),
                format!("{:.1}", run.algorithm2.avg_actual_throughput[i]),
                format!("{:.1}", run.llr.avg_estimated_throughput[i]),
                format!("{:.1}", run.llr.avg_actual_throughput[i]),
            ])?;
        }
        w.blank()?;
    }
    w.comment("summary: final actual throughput per y (should grow with y)")?;
    w.row(&[
        "y",
        "alg2_actual",
        "llr_actual",
        "alg2_estimate_gap",
        "llr_estimate_gap",
    ])?;
    for run in runs {
        let a_act = run.algorithm2.avg_actual_throughput.last().unwrap();
        let a_est = run.algorithm2.avg_estimated_throughput.last().unwrap();
        let l_act = run.llr.avg_actual_throughput.last().unwrap();
        let l_est = run.llr.avg_estimated_throughput.last().unwrap();
        w.row(&[
            format!("{}", run.y),
            format!("{a_act:.1}"),
            format!("{l_act:.1}"),
            format!("{:.1}", a_est - a_act),
            format!("{:.1}", l_est - l_act),
        ])?;
    }
    Ok(())
}

/// Table II: time parameters plus the derived quantities of Section V.
pub fn render_table2(t: &Table2, out: &mut dyn Write) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    w.comment("Table II: parameter values for simulation")?;
    w.row(&["parameter", "value_ms", "paper_value_ms"])?;
    w.row(&[
        "round t_a".to_string(),
        format!("{}", t.time.round_ms),
        "2000".to_string(),
    ])?;
    w.row(&[
        "local broadcast t_b".to_string(),
        format!("{}", t.time.broadcast_ms),
        "100".to_string(),
    ])?;
    w.row(&[
        "local computation t_l".to_string(),
        format!("{}", t.time.compute_ms),
        "50".to_string(),
    ])?;
    w.row(&[
        "data transmission t_d".to_string(),
        format!("{}", t.time.data_ms),
        "1000".to_string(),
    ])?;
    w.blank()?;
    w.comment("derived (Section V: t_m = 2 t_b + t_l, t_s = 4 t_m, theta = t_d/t_a)")?;
    w.row(&["derived", "value"])?;
    w.row(&[
        "miniround t_m (ms)".to_string(),
        format!("{}", t.miniround_ms),
    ])?;
    w.row(&[
        "minirounds per decision".to_string(),
        format!("{}", t.minirounds_per_decision),
    ])?;
    w.row(&["theta".to_string(), format!("{}", t.theta)])
}

/// Section IV-C: measured communication/space complexity points.
pub fn render_complexity(points: &[ComplexityPoint], out: &mut dyn Write) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    w.row(&[
        "n",
        "m_channels",
        "r",
        "minirounds",
        "mean_tx_per_vertex",
        "max_tx_per_vertex",
        "timeslots",
        "mean_ball_size",
        "candidates_scanned",
    ])?;
    for p in points {
        w.row(&[
            format!("{}", p.n),
            format!("{}", p.m),
            format!("{}", p.r),
            format!("{}", p.minirounds),
            format!("{:.2}", p.mean_tx_per_vertex),
            format!("{}", p.max_tx_per_vertex),
            format!("{}", p.timeslots),
            format!("{:.1}", p.mean_ball_size),
            format!("{}", p.candidates_scanned),
        ])?;
    }
    w.blank()?;
    w.comment("expected: mean_tx_per_vertex roughly flat in N at fixed r")?;
    w.comment("(the paper's O(r^2 + D) per-vertex message bound), and")?;
    w.comment("mean_ball_size flat in N (the O(m) space bound).")
}

/// Theorem 3: optimal / centralized / distributed quality comparison.
pub fn render_theorem3(points: &[Theorem3Point], out: &mut dyn Write) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    w.row(&[
        "seed",
        "optimal",
        "centralized_ptas",
        "distributed",
        "distributed_d4",
        "central_ratio",
        "dist_ratio",
    ])?;
    let mut sum_c = 0.0;
    let mut sum_d = 0.0;
    for p in points {
        w.row(&[
            format!("{}", p.seed),
            format!("{:.0}", p.optimal),
            format!("{:.0}", p.centralized),
            format!("{:.0}", p.distributed),
            format!("{:.0}", p.distributed_capped),
            format!("{:.3}", p.centralized / p.optimal),
            format!("{:.3}", p.distributed / p.optimal),
        ])?;
        sum_c += p.centralized / p.optimal;
        sum_d += p.distributed / p.optimal;
    }
    w.blank()?;
    w.comment(&format!(
        "mean ratio to optimal: centralized {:.3}, distributed {:.3}",
        sum_c / points.len().max(1) as f64,
        sum_d / points.len().max(1) as f64
    ))?;
    w.comment("Theorem 3: the two ratios should be comparable (and far better")?;
    w.comment("than the worst-case rho, cf. the regret_bounds binary).")
}

/// Generic spec-driven run: the per-period throughput series plus headline
/// averages (the campaign cross-product workload has no paper figure).
pub fn render_policy_run(
    cfg: &PolicyRunConfig,
    run: &RunResult,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut w = CsvWriter::new(out);
    w.comment(&format!(
        "policy={} topology={} channel={} {}x{} horizon={} y={} loss={}",
        run.policy,
        cfg.topology.label(),
        cfg.channel.label(),
        cfg.n,
        cfg.m,
        cfg.horizon,
        cfg.update_period,
        cfg.loss.prob,
    ))?;
    w.row(&["slot", "avg_actual_kbps", "avg_estimated_kbps"])?;
    let n = run.avg_actual_throughput.len();
    for i in sample_indices(n, 40) {
        w.row(&[
            format!("{}", run.period_end_slots[i]),
            format!("{:.1}", run.avg_actual_throughput[i]),
            format!("{:.1}", run.avg_estimated_throughput[i]),
        ])?;
    }
    w.blank()?;
    w.comment(&format!(
        "averages: observed {:.1} kbps, effective {:.1} kbps, expected {:.1} kbps",
        run.average_observed_kbps, run.average_effective_kbps, run.average_expected_kbps
    ))?;
    // Traffic-configured runs get a flow-level section: the queueing layer
    // turns captured-rate claims into per-flow delay claims, so the CSV
    // carries both. (Delay-tail percentiles stream via the flow-delay
    // observer section; this table is the exact counter view.)
    if let Some(traffic) = &run.traffic {
        w.blank()?;
        w.comment("traffic flows (delay in decision slots)")?;
        w.row(&[
            "flow",
            "arrivals",
            "delivered",
            "ontime",
            "mean_delay_slots",
            "max_delay_slots",
        ])?;
        for (f, totals) in traffic.flows.iter().enumerate() {
            w.row(&[
                format!("{f}"),
                format!("{}", totals.arrivals),
                format!("{}", totals.delivered),
                format!("{}", totals.ontime),
                format!("{:.2}", totals.mean_delay()),
                format!("{}", totals.max_delay),
            ])?;
        }
        w.blank()?;
        w.comment(&format!(
            "totals: {} arrivals, {} delivered, {} ontime, backlog {}, \
             mean delay {:.2} slots, delay utility {:.4}",
            traffic.arrivals,
            traffic.delivered,
            traffic.ontime,
            traffic.backlog,
            traffic.mean_delay(),
            traffic.delay_utility(),
        ))?;
    }
    Ok(())
}

/// A campaign job's per-seed artifact: the experiment's figure CSV
/// ([`render_experiment`]), then the streamed observer metrics as their
/// own CSV section — a blank line, a commentary header, then one
/// `observer_metric,value` row per metric in emission order — so
/// series-shaped observer output (e.g. the windowed-regret
/// `wNN_end_slot` / `wNN_regret_per_slot` pairs) lands in the artifact
/// CSV, not just in the flat campaign aggregates. The one rendering
/// shared by the batch runner and the service executor.
///
/// Observer rows are the label-prefixed tail of `rows` (`label:metric`;
/// experiment headline metrics never carry a colon). The section is
/// gated on those rows, not on whether observers were registered:
/// metrics-silent observers (the telemetry observer behind `--trace`)
/// leave artifacts byte-identical to an untraced run. Every built-in
/// `ObserverKind` emits rows, so for declared observers the two gates
/// agree.
pub fn render_job_artifact(
    data: &ExperimentData,
    rows: &[(String, f64)],
    out: &mut dyn Write,
) -> io::Result<()> {
    render_experiment(data, out)?;
    let mut observer_rows = rows.iter().filter(|(k, _)| k.contains(':')).peekable();
    if observer_rows.peek().is_none() {
        return Ok(());
    }
    let mut w = CsvWriter::new(out);
    w.blank()?;
    w.comment("streaming observer metrics (observer:metric, emission order)")?;
    w.row(&["observer_metric", "value"])?;
    for (name, value) in observer_rows {
        w.row(&[name.clone(), format!("{value}")])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhca_core::experiment::{run_experiment, Table2Experiment};
    use mhca_core::experiments::Fig5Config;
    use mhca_core::ObserverSet;

    #[test]
    fn fig5_render_matches_legacy_shape() {
        let out = run_experiment(&Fig5Config::quick(), 0, ObserverSet::new());
        let mut buf = Vec::new();
        render_experiment(&out.data, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("n,minirounds_to_completion,minirounds_over_n\n"));
        assert!(text.contains("\n10,"));
        assert!(text.trim_end().ends_with("(linear growth)"));
    }

    #[test]
    fn traffic_runs_render_flow_tables() {
        use mhca_core::{FlowSpec, TrafficSpec};
        use mhca_graph::TopologySpec;

        let mut cfg = PolicyRunConfig::quick();
        cfg.topology = TopologySpec::Line;
        cfg.n = 8;
        cfg.horizon = 120;
        cfg.traffic = Some(TrafficSpec::poisson(
            0.4,
            vec![FlowSpec {
                src: 0,
                dst: 3,
                deadline: Some(30),
            }],
        ));
        let out = run_experiment(&cfg, 7, ObserverSet::new());
        let mut buf = Vec::new();
        render_experiment(&out.data, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("flow,arrivals,delivered,ontime,mean_delay_slots,max_delay_slots"),
            "{text}"
        );
        assert!(text.contains("delay utility"), "{text}");

        // Traffic-free runs keep the exact pre-traffic rendering (no
        // empty flow table).
        let out = run_experiment(&PolicyRunConfig::quick(), 7, ObserverSet::new());
        let mut buf = Vec::new();
        render_experiment(&out.data, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("traffic flows"), "{text}");
    }

    #[test]
    fn table2_render_contains_derivations() {
        let out = run_experiment(&Table2Experiment, 0, ObserverSet::new());
        let mut buf = Vec::new();
        render_experiment(&out.data, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("round t_a,2000,2000"));
        assert!(text.contains("theta,0.5"));
    }
}
