//! The printed result: a table for people, then one JSON line for tools.

use std::fmt::Write as _;

use obs::json::write_escaped;

use crate::catalog::{Tier, METRICS};
use crate::run::Outcome;

/// The human-readable table: every metric the run measured, with unit,
/// sample count, whether it is host time or simulated, and `n/a` where a
/// metric of the reported tier does not apply to the workload.
pub fn table(workload: &str, seed: u64, tier: Tier, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# perfbench {workload} seed={seed} threads={} nproc={}",
        par::thread_count(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        s,
        "# {:<36} {:>16} {:<8} {:>8} {:<9} tier",
        "metric", "value", "unit", "samples", "clock"
    );
    for def in METRICS {
        let tier_name = match def.tier {
            Tier::EndToEnd => "end_to_end",
            Tier::PerLayer => "per_layer",
        };
        match out.values.get(def.name) {
            Some(v) => {
                let _ = writeln!(
                    s,
                    "  {:<36} {:>16.6} {:<8} {:>8} {:<9} {tier_name}",
                    def.name,
                    v.value,
                    def.unit,
                    v.samples,
                    def.clock.as_str()
                );
            }
            None if def.tier == tier => {
                let _ = writeln!(
                    s,
                    "  {:<36} {:>16} {:<8} {:>8} {:<9} {tier_name}",
                    def.name,
                    "n/a",
                    def.unit,
                    0,
                    def.clock.as_str()
                );
            }
            None => {}
        }
    }
    if let Some(fp) = out.fingerprint {
        let _ = writeln!(s, "# fingerprint {fp:016x}");
    }
    for p in &out.problems {
        let _ = writeln!(s, "# FAILED: {p}");
    }
    s
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `tier` (0 where it does not apply to the workload).
pub fn json_line(tier: Tier, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    let mut first = true;
    for def in METRICS.iter().filter(|d| d.tier == tier) {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let value = out.values.get(def.name).map_or(0.0, |v| v.value);
        write_escaped(&mut s, def.name);
        let _ = write!(s, ": {{\"value\": {value}, \"unit\": ");
        write_escaped(&mut s, def.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}
