//! `mhca-campaign tail <out-dir>` — renders a campaign's `events.jsonl`
//! into a per-scenario / per-phase summary table.
//!
//! The tail reader is the proof that the telemetry schema is enough to
//! reconstruct campaign-wide statistics offline: job spans aggregate into
//! per-scenario job-time histograms, and the per-job `hist` events'
//! sparse bucket dumps merge **exactly** (bucket counts add), so the
//! percentiles printed here equal those of a histogram that had seen
//! every sample directly. Every line must parse with [`mhca_service::json`] —
//! a malformed line fails the whole tail loudly (CI relies on this to
//! validate the event stream).

use mhca_service::json::{self, Json};
use mhca_telemetry::LogHistogram;
use std::io::{self, Write};
use std::path::Path;

/// Aggregated view of one scenario's events.
#[derive(Debug)]
pub struct ScenarioTail {
    /// Scenario name (the first segment of job scopes).
    pub name: String,
    /// Finished job spans seen.
    pub jobs: u64,
    /// Decision rounds summed over the scenario's jobs.
    pub rounds: u64,
    /// Job wall-time histogram (one sample per job span).
    pub job_ns: LogHistogram,
    /// Per-phase latency histograms, merged across jobs, in first-seen
    /// (= emission) order. Keys are the phase names without the `phase.`
    /// prefix (`wb`, `decide`, `learn`, `election`, …).
    pub phases: Vec<(String, LogHistogram)>,
}

/// Everything `tail` extracts from an event stream.
#[derive(Debug)]
pub struct TailSummary {
    /// Total events parsed.
    pub events: usize,
    /// Campaign span duration in nanoseconds, when the stream has one.
    pub campaign_ns: Option<u64>,
    /// Campaign completion status (`ok` / `error`), when recorded.
    pub campaign_status: Option<String>,
    /// Per-scenario aggregates, in first-seen order.
    pub scenarios: Vec<ScenarioTail>,
    /// Error events as `scope: message` lines.
    pub errors: Vec<String>,
    /// Last progress heartbeat seen, as `(done, total)`.
    pub last_progress: Option<(u64, u64)>,
}

fn field_u64(event: &Json, key: &str) -> Option<u64> {
    event.get(key).and_then(Json::as_u64)
}

/// Parses one `hist` event's sparse `buckets` array into `hist`.
fn merge_buckets(hist: &mut LogHistogram, buckets: &Json) {
    let Json::Arr(pairs) = buckets else { return };
    for pair in pairs {
        let Json::Arr(cell) = pair else { continue };
        if let (Some(idx), Some(count)) = (
            cell.first().and_then(Json::as_u64),
            cell.get(1).and_then(Json::as_u64),
        ) {
            hist.merge_bucket(idx as usize, count);
        }
    }
}

/// Aggregates a whole `events.jsonl` body. Fails on the first malformed
/// line (1-based line number in the message) — the event stream is a
/// contract, not best-effort input.
pub fn summarize(text: &str) -> Result<TailSummary, String> {
    let mut summary = TailSummary {
        events: 0,
        campaign_ns: None,
        campaign_status: None,
        scenarios: Vec::new(),
        errors: Vec::new(),
        last_progress: None,
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            json::parse(line).map_err(|e| format!("events.jsonl line {}: {e}", lineno + 1))?;
        summary.events += 1;
        let kind = event.get("kind").and_then(Json::as_str).unwrap_or("");
        let scope = event.get("scope").and_then(Json::as_str).unwrap_or("");
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");

        // Job-level scopes are "<scenario>/seed<k>"; scenario-level
        // scopes have no slash. Campaign-level events use the root scope.
        let scenario_name = scope.split('/').next().unwrap_or("");
        fn scenario<'a>(s: &'a mut TailSummary, name: &str) -> &'a mut ScenarioTail {
            let idx = match s.scenarios.iter().position(|sc| sc.name == name) {
                Some(i) => i,
                None => {
                    s.scenarios.push(ScenarioTail {
                        name: name.to_string(),
                        jobs: 0,
                        rounds: 0,
                        job_ns: LogHistogram::new(),
                        phases: Vec::new(),
                    });
                    s.scenarios.len() - 1
                }
            };
            &mut s.scenarios[idx]
        }

        match kind {
            "span_end" if name == "campaign" => {
                summary.campaign_ns = field_u64(&event, "dur_ns");
                summary.campaign_status = event
                    .get("status")
                    .and_then(Json::as_str)
                    .map(str::to_string);
            }
            "span_end" if name == "job" && !scenario_name.is_empty() => {
                let dur = field_u64(&event, "dur_ns").unwrap_or(0);
                let sc = scenario(&mut summary, scenario_name);
                sc.jobs += 1;
                sc.job_ns.record(dur);
            }
            "counter" if name == "rounds" && !scenario_name.is_empty() => {
                scenario(&mut summary, scenario_name).rounds +=
                    field_u64(&event, "value").unwrap_or(0);
            }
            "hist" if !scenario_name.is_empty() => {
                let Some(phase) = name.strip_prefix("phase.") else {
                    continue;
                };
                let phase = phase.to_string();
                let sc = scenario(&mut summary, scenario_name);
                let hist = match sc.phases.iter().position(|(p, _)| *p == phase) {
                    Some(i) => &mut sc.phases[i].1,
                    None => {
                        sc.phases.push((phase, LogHistogram::new()));
                        &mut sc.phases.last_mut().expect("just pushed").1
                    }
                };
                if let Some(buckets) = event.get("buckets") {
                    merge_buckets(hist, buckets);
                }
            }
            "error" => {
                let message = event.get("message").and_then(Json::as_str).unwrap_or("?");
                summary.errors.push(format!("{scope}: {message}"));
            }
            "progress" => {
                if let (Some(done), Some(total)) =
                    (field_u64(&event, "done"), field_u64(&event, "total"))
                {
                    summary.last_progress = Some((done, total));
                }
            }
            _ => {}
        }
    }
    Ok(summary)
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the summary as the human table `mhca-campaign tail` prints.
pub fn render(summary: &TailSummary, w: &mut dyn Write) -> io::Result<()> {
    write!(w, "{} event(s)", summary.events)?;
    if let Some(ns) = summary.campaign_ns {
        write!(w, ", campaign span {}", fmt_ns(ns))?;
    }
    if let Some(status) = &summary.campaign_status {
        write!(w, " (status {status})")?;
    }
    if let Some((done, total)) = summary.last_progress {
        write!(w, ", progress {done}/{total}")?;
    }
    writeln!(w)?;
    for sc in &summary.scenarios {
        writeln!(
            w,
            "\nscenario {}: {} job(s), {} round(s), job time p50 {} max {}",
            sc.name,
            sc.jobs,
            sc.rounds,
            fmt_ns(sc.job_ns.p50()),
            fmt_ns(sc.job_ns.max()),
        )?;
        if sc.phases.is_empty() {
            continue;
        }
        writeln!(
            w,
            "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "samples", "p50", "p99", "p999", "max"
        )?;
        for (phase, hist) in &sc.phases {
            writeln!(
                w,
                "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                phase,
                hist.count(),
                fmt_ns(hist.p50()),
                fmt_ns(hist.p99()),
                fmt_ns(hist.p999()),
                fmt_ns(hist.max()),
            )?;
        }
    }
    if !summary.errors.is_empty() {
        writeln!(w, "\n{} error(s):", summary.errors.len())?;
        for e in &summary.errors {
            writeln!(w, "  {e}")?;
        }
    }
    Ok(())
}

/// Reads `<out_dir>/events.jsonl` and renders its summary into `w`.
pub fn tail_dir(out_dir: &Path, w: &mut dyn Write) -> io::Result<()> {
    let path = out_dir.join("events.jsonl");
    let text = fs_read(&path)?;
    let summary = summarize(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    render(&summary, w)
}

fn fs_read(path: &Path) -> io::Result<String> {
    std::fs::read_to_string(path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "cannot read '{}' (was the campaign run with --trace?): {e}",
                path.display()
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_spans_hists_counters_errors_and_progress() {
        let text = concat!(
            "{\"ts_us\":0,\"kind\":\"span_start\",\"scope\":\"\",\"name\":\"campaign\"}\n",
            "{\"ts_us\":1,\"kind\":\"span_start\",\"scope\":\"fig6\",\"name\":\"scenario\"}\n",
            "{\"ts_us\":2,\"kind\":\"counter\",\"scope\":\"fig6/seed1\",\"name\":\"rounds\",\"value\":40}\n",
            "{\"ts_us\":3,\"kind\":\"hist\",\"scope\":\"fig6/seed1\",\"name\":\"phase.decide\",\
             \"count\":2,\"min\":100,\"max\":200,\"p50\":100,\"p99\":200,\"p999\":200,\
             \"buckets\":[[100,1],[120,1]]}\n",
            "{\"ts_us\":4,\"kind\":\"span_end\",\"scope\":\"fig6/seed1\",\"name\":\"job\",\
             \"dur_ns\":5000000,\"status\":\"ok\"}\n",
            "{\"ts_us\":5,\"kind\":\"error\",\"scope\":\"fig6\",\"name\":\"job\",\
             \"message\":\"seed 2 failed: boom\"}\n",
            "{\"ts_us\":6,\"kind\":\"progress\",\"scope\":\"\",\"name\":\"heartbeat\",\
             \"done\":1,\"total\":2,\"jobs_per_s\":1.0,\"rounds_per_s\":40.0,\"eta_s\":1.0}\n",
            "{\"ts_us\":7,\"kind\":\"span_end\",\"scope\":\"\",\"name\":\"campaign\",\
             \"dur_ns\":9000000,\"status\":\"ok\"}\n",
        );
        let s = summarize(text).unwrap();
        assert_eq!(s.events, 8);
        assert_eq!(s.campaign_ns, Some(9_000_000));
        assert_eq!(s.campaign_status.as_deref(), Some("ok"));
        assert_eq!(s.last_progress, Some((1, 2)));
        assert_eq!(s.errors, vec!["fig6: seed 2 failed: boom"]);
        assert_eq!(s.scenarios.len(), 1);
        let sc = &s.scenarios[0];
        assert_eq!(sc.name, "fig6");
        assert_eq!(sc.jobs, 1);
        assert_eq!(sc.rounds, 40);
        assert_eq!(sc.job_ns.count(), 1);
        assert_eq!(sc.phases.len(), 1);
        assert_eq!(sc.phases[0].0, "decide");
        assert_eq!(sc.phases[0].1.count(), 2);

        let mut out = Vec::new();
        render(&s, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(
            rendered.contains("scenario fig6: 1 job(s), 40 round(s)"),
            "{rendered}"
        );
        assert!(rendered.contains("decide"), "{rendered}");
        assert!(rendered.contains("progress 1/2"), "{rendered}");
        assert!(rendered.contains("1 error(s):"), "{rendered}");
    }

    #[test]
    fn malformed_line_fails_with_line_number() {
        let text = "{\"ts_us\":0,\"kind\":\"counter\",\"scope\":\"\",\"name\":\"x\",\"value\":1}\nnot json\n";
        let err = summarize(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn merged_bucket_percentiles_match_direct_recording() {
        // Two jobs' histograms, dumped sparsely and merged by tail, must
        // reproduce the percentiles of one histogram that saw everything.
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut direct = LogHistogram::new();
        for i in 0..4_000u64 {
            let v = (i * 37) % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            direct.record(v);
        }
        let event_line = |h: &LogHistogram| {
            let mut buckets = String::new();
            h.write_sparse_json(&mut buckets);
            format!(
                "{{\"ts_us\":0,\"kind\":\"hist\",\"scope\":\"s/seed0\",\
                 \"name\":\"phase.decide\",\"count\":{},\"buckets\":{buckets}}}",
                h.count()
            )
        };
        let text = format!("{}\n{}\n", event_line(&a), event_line(&b));
        let s = summarize(&text).unwrap();
        let merged = &s.scenarios[0].phases[0].1;
        assert_eq!(merged.count(), direct.count());
        for q in [50.0, 99.0, 99.9] {
            assert_eq!(merged.percentile(q), direct.percentile(q), "q={q}");
        }
    }
}
