//! Property tests for the March baseline and its relationship to the
//! quiescent-voltage method.
#![expect(
    clippy::unwrap_used,
    reason = "test-fixture helpers outside #[test] fns fail loudly by design"
)]

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use faultdet::march::MarchTest;
use faultdet::metrics::DetectionReport;
use proptest::prelude::*;
use rand::Rng;
use rram::crossbar::{Crossbar, CrossbarBuilder};
use rram::spatial::SpatialDistribution;

fn faulty_xbar(n: usize, fraction: f64, seed: u64) -> Crossbar {
    let mut xbar = CrossbarBuilder::new(n, n)
        .initial_faults(SpatialDistribution::Uniform, fraction)
        .seed(seed)
        .build()
        .unwrap();
    let mut rng = rram::rng::sim_rng(seed ^ 0x11);
    for r in 0..n {
        for c in 0..n {
            let _ = xbar.write_level(r, c, rng.gen_range(0..8)).unwrap();
        }
    }
    xbar
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// March is an exact oracle for any array state.
    #[test]
    fn march_is_exact(seed in 0u64..200, n in 4usize..24, fraction in 0.0f64..0.4) {
        let mut xbar = faulty_xbar(n, fraction, seed);
        let truth = xbar.fault_map();
        let outcome = MarchTest::new().run(&mut xbar).unwrap();
        let report = DetectionReport::evaluate_kind_aware(&truth, &outcome.predicted);
        prop_assert_eq!(report.fp, 0);
        prop_assert_eq!(report.fn_, 0);
        prop_assert_eq!(outcome.cycles, 6 * (n * n) as u64);
    }

    /// March restores every healthy cell to its stored level.
    #[test]
    fn march_restores_state(seed in 0u64..200, n in 4usize..20, fraction in 0.0f64..0.3) {
        let mut xbar = faulty_xbar(n, fraction, seed);
        let before = xbar.read_all_levels();
        let _ = MarchTest::new().run(&mut xbar).unwrap();
        prop_assert_eq!(xbar.read_all_levels(), before);
    }

    /// The quiescent method never predicts more faults than March on the
    /// same array at test size 1 (both are exact there), and always costs
    /// far fewer cycles.
    #[test]
    fn quiescent_cycles_beat_march(seed in 0u64..100, n in 8usize..32) {
        let mut a = faulty_xbar(n, 0.1, seed);
        let march = MarchTest::new().run(&mut a).unwrap();
        let mut b = faulty_xbar(n, 0.1, seed);
        let quiescent = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap())
            .run(&mut b)
            .unwrap();
        prop_assert_eq!(&quiescent.predicted, &march.predicted);
        prop_assert!(quiescent.cycles() * 2 < march.cycles);
    }
}
