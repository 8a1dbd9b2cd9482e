//! The benchmark's own checks, at quick episode sizes.

use std::sync::{Mutex, MutexGuard};

use perfbench::catalog::{Tier, METRICS, WORKLOADS};
use perfbench::report;
use perfbench::run::{self, RunConfig, Window, Workload};

/// Serialises the tests that run workloads: the thread budget they set is
/// process-wide.
static BUDGET: Mutex<()> = Mutex::new(());

fn budget() -> MutexGuard<'static, ()> {
    BUDGET.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 3,
        seconds: 0.001,
        trace,
        quick: true,
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn fingerprints_agree_across_thread_budgets() {
    let _budget = budget();
    for workload in Workload::ALL {
        let cfg = quick(workload, false);
        let prints: Vec<u64> = [1, 2]
            .into_iter()
            .map(|threads| {
                let w = Window::run(&cfg, 0.0, Some(threads), None);
                assert!(w.errors.is_empty(), "{}: {:?}", workload.name(), w.errors);
                w.episodes[0].fingerprint()
            })
            .collect();
        assert_eq!(prints[0], prints[1], "{}", workload.name());
    }
}

#[test]
fn traced_runs_match_untraced_and_phases_sum_to_the_step() {
    let _budget = budget();
    for workload in Workload::ALL {
        let cfg = quick(workload, true);
        let out = run::run(&cfg);
        assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
        assert!(out.spans.as_ref().is_some_and(|s| !s.spans.is_empty()));
        if let Workload::Train(_) = workload {
            let (rows, measured) = out.phase_sum_ms.expect("traced training run");
            assert!(
                (rows - measured).abs() <= 1e-9 * measured.max(1.0),
                "{}: phases {rows} ms != step {measured} ms",
                workload.name()
            );
            for name in [
                "flow.write_through_ms",
                "flow.unattributed_ms",
                "obs.tracing_overhead",
            ] {
                assert!(out.values.contains_key(name), "{}: {name}", workload.name());
            }
        }
        let line = report::json_line(Tier::PerLayer, &out);
        for def in METRICS {
            assert_eq!(
                line.contains(&format!("\"{}\":", def.name)),
                def.tier == Tier::PerLayer,
                "{}",
                def.name
            );
        }
    }
}

#[test]
fn end_to_end_metrics_apply_to_every_workload() {
    let _budget = budget();
    for workload in Workload::ALL {
        let out = run::run(&quick(workload, false));
        assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
        assert_eq!(out.failed, 0);
        for def in METRICS.iter().filter(|d| d.tier == Tier::EndToEnd) {
            let v = out.values.get(def.name).map(|v| v.value);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{} {}: {v:?}",
                workload.name(),
                def.name
            );
        }
        if let Workload::Train(_) = workload {
            assert_eq!(out.values["obs.ops_failed_frac"].value, 0.0);
        }
    }
}

#[test]
fn names_and_units_are_well_formed() {
    for def in METRICS {
        assert!(valid_name(def.name), "{}", def.name);
        assert!(
            def.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            def.unit
        );
    }
    for (i, a) in METRICS.iter().enumerate() {
        assert!(
            METRICS[i + 1..].iter().all(|b| b.name != a.name),
            "{}",
            a.name
        );
    }
    for w in WORKLOADS {
        assert!(
            valid_name(w.name) && Workload::parse(w.name).is_some(),
            "{}",
            w.name
        );
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for def in METRICS {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name,
            def.unit,
            def.better.as_str()
        );
        assert_eq!(text.matches(&entry).count(), 1, "{entry}");
    }
    for w in WORKLOADS {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert_eq!(text.matches(&entry).count(), 1, "{entry}");
    }
    assert_eq!(
        text.matches("{\"name\": ").count(),
        METRICS.len() + WORKLOADS.len()
    );
}
