//! The fan-out counter test, in its own test binary. It toggles the
//! process-wide `obs` switch and the thread budget, and asserts an exact
//! fan-out count; sibling `par` unit tests forking concurrently in the
//! same process would add fan-outs while the switch is on.

#[test]
fn fanout_instrumentation_is_gated_and_counts() {
    // Default off: no fan-out metrics appear.
    let before = obs::global()
        .registry()
        .counter_value("par_fanouts_total")
        .unwrap_or(0);
    let mut data = vec![0u32; 4096];
    par::for_each_chunk_mut(&mut data, 1, |_, chunk| {
        for v in chunk.iter_mut() {
            *v += 1;
        }
    });
    let mid = obs::global()
        .registry()
        .counter_value("par_fanouts_total")
        .unwrap_or(0);
    assert_eq!(mid, before, "instrumentation must stay off by default");
    // Enabled: the fan-out is counted (when it actually forks).
    par::set_thread_count(4);
    obs::set_enabled(true);
    par::for_each_chunk_mut(&mut data, 1, |_, chunk| {
        for v in chunk.iter_mut() {
            *v += 1;
        }
    });
    obs::set_enabled(false);
    par::set_thread_count(0);
    let after = obs::global()
        .registry()
        .counter_value("par_fanouts_total")
        .unwrap_or(0);
    assert_eq!(after, mid + 1, "enabled fan-out must be counted");
    assert!(data.iter().all(|&v| v == 2));
}
