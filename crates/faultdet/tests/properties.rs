//! Property-based and trend tests for the on-line fault detector.
#![expect(
    clippy::unwrap_used,
    reason = "test-fixture helpers outside #[test] fns fail loudly by design"
)]

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use faultdet::metrics::DetectionReport;
use proptest::prelude::*;
use rram::crossbar::{Crossbar, CrossbarBuilder};
use rram::spatial::SpatialDistribution;

fn faulty_xbar(n: usize, fraction: f64, seed: u64) -> Crossbar {
    let mut xbar = CrossbarBuilder::new(n, n)
        .initial_faults(SpatialDistribution::Uniform, fraction)
        .seed(seed)
        .build()
        .unwrap();
    use rand::Rng;
    let mut rng = rram::rng::sim_rng(seed ^ 0xabcdef);
    for r in 0..n {
        for c in 0..n {
            let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
        }
    }
    xbar
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The campaign always restores the pre-test levels (training state),
    /// for any geometry, fault density, and test size.
    #[test]
    fn campaign_restores_levels(
        seed in 0u64..200,
        n in 8usize..40,
        fraction in 0.0f64..0.3,
        test_size in 1usize..16,
    ) {
        let mut xbar = faulty_xbar(n, fraction, seed);
        let before = xbar.read_all_levels();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(test_size).unwrap());
        let _ = detector.run(&mut xbar).unwrap();
        prop_assert_eq!(xbar.read_all_levels(), before);
    }

    /// Predictions never fall outside the array, and with test size 1 the
    /// prediction equals the ground truth exactly.
    #[test]
    fn exact_at_test_size_one(seed in 0u64..200, n in 8usize..32, fraction in 0.0f64..0.25) {
        let mut xbar = faulty_xbar(n, fraction, seed);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        prop_assert_eq!(report.fp, 0);
        prop_assert_eq!(report.fn_, 0);
    }

    /// Selected-cell testing never takes more cycles than all-cells testing
    /// at the same test size.
    #[test]
    fn selected_cycles_bounded_by_all_cells(seed in 0u64..100, test_size in 1usize..12) {
        let mut a = faulty_xbar(32, 0.1, seed);
        let mut b = faulty_xbar(32, 0.1, seed);
        let all = OnlineFaultDetector::new(DetectorConfig::new(test_size).unwrap())
            .run(&mut a)
            .unwrap();
        let sel = OnlineFaultDetector::new(
            DetectorConfig::new(test_size).unwrap().with_selected_cells(),
        )
        .run(&mut b)
        .unwrap();
        prop_assert!(sel.cycles() <= all.cycles());
    }

    /// Recall never falls below the paper's 87% floor minus sampling slack,
    /// across densities and coarse test sizes.
    #[test]
    fn recall_floor(seed in 0u64..60, test_size in 2usize..32) {
        let mut xbar = faulty_xbar(64, 0.1, seed);
        let truth = xbar.fault_map();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(test_size).unwrap());
        let outcome = detector.run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate(&truth, &outcome.predicted);
        prop_assert!(report.recall() > 0.80, "recall {}", report.recall());
    }
}

#[test]
fn precision_improves_as_test_time_grows() {
    // The Fig. 6 trade-off: smaller test groups = more cycles = higher
    // precision. Averaged over a few seeds to be robust.
    let sizes = [32usize, 8, 2];
    let mut precisions = Vec::new();
    for &size in &sizes {
        let mut total = 0.0;
        for seed in 0..5u64 {
            let mut xbar = faulty_xbar(64, 0.1, seed);
            let truth = xbar.fault_map();
            let outcome = OnlineFaultDetector::new(DetectorConfig::new(size).unwrap())
                .run(&mut xbar)
                .unwrap();
            total += DetectionReport::evaluate(&truth, &outcome.predicted).precision();
        }
        precisions.push(total / 5.0);
    }
    assert!(
        precisions[0] < precisions[1] && precisions[1] < precisions[2],
        "precision should rise as groups shrink: {precisions:?}"
    );
}

#[test]
fn coarse_modulo_costs_recall() {
    // §4.2: a smaller divisor aliases more deficits to zero. Compare mod-2
    // against mod-16 at a coarse test size.
    let mut r2 = 0.0;
    let mut r16 = 0.0;
    for seed in 0..8u64 {
        let mut a = faulty_xbar(64, 0.1, seed);
        let truth = a.fault_map();
        let outcome =
            OnlineFaultDetector::new(DetectorConfig::new(32).unwrap().with_modulo_divisor(2))
                .run(&mut a)
                .unwrap();
        r2 += DetectionReport::evaluate(&truth, &outcome.predicted).recall();

        let mut b = faulty_xbar(64, 0.1, seed);
        let outcome =
            OnlineFaultDetector::new(DetectorConfig::new(32).unwrap().with_modulo_divisor(16))
                .run(&mut b)
                .unwrap();
        r16 += DetectionReport::evaluate(&truth, &outcome.predicted).recall();
    }
    assert!(
        r2 < r16,
        "mod-2 recall {} should trail mod-16 recall {}",
        r2 / 8.0,
        r16 / 8.0
    );
}
