//! A single multi-level RRAM cell.
//!
//! Conductance is normalized to `[0, 1]` and programmed in `L` discrete
//! levels (`level / (L - 1)`); the paper follows Xu et al. (DAC'13) in using
//! 8 levels for the test phase. Each cell carries its own write-endurance
//! budget; exhausting it turns the cell into a stuck-at fault.

use crate::fault::{FaultKind, FaultState};

/// Outcome of a write (program) operation on a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write changed the stored level.
    Applied,
    /// The target equalled the current level, so no pulse was issued.
    NoChange,
    /// The requested change was clipped at the level range boundary
    /// (the cell was already saturated in the requested direction).
    Saturated,
    /// The cell carries a hard fault; the write had no effect.
    Stuck(FaultKind),
    /// The write was applied but exhausted the cell's endurance: the cell is
    /// now stuck with the reported fault kind.
    WoreOut(FaultKind),
    /// The cell's endurance budget is spent but the wear-out fault has not
    /// been assigned yet (see [`RramCell::wear_out`]); the write was refused.
    Exhausted,
}

impl WriteOutcome {
    /// Whether the stored value actually changed.
    #[inline]
    pub fn changed(&self) -> bool {
        matches!(self, WriteOutcome::Applied | WriteOutcome::WoreOut(_))
    }

    /// Whether this write produced a *new* hard fault.
    pub fn new_fault(&self) -> Option<FaultKind> {
        match self {
            WriteOutcome::WoreOut(k) => Some(*k),
            _ => None,
        }
    }
}

/// A multi-level RRAM cell with wear tracking.
///
/// The cell stores both the *ideal* programmed level and the *analog*
/// conductance (including write variation), because the detector compares
/// digitized analog sums while training logic reasons about levels.
#[derive(Debug, Clone, PartialEq)]
pub struct RramCell {
    levels: u16,
    level: u16,
    analog: f64,
    state: FaultState,
    endurance_left: u64,
    writes: u64,
}

impl RramCell {
    /// Creates a healthy cell at level 0 with the given level count and
    /// write budget.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn new(levels: u16, endurance: u64) -> Self {
        assert!(levels >= 2, "a cell needs at least 2 levels");
        Self {
            levels,
            level: 0,
            analog: 0.0,
            state: FaultState::Healthy,
            endurance_left: endurance,
            writes: 0,
        }
    }

    /// Number of programmable levels.
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// The ideal programmed level. Stuck cells report their pinned level.
    #[inline]
    pub fn level(&self) -> u16 {
        match self.state {
            FaultState::Healthy => self.level,
            FaultState::Stuck(FaultKind::StuckAt0) => 0,
            FaultState::Stuck(FaultKind::StuckAt1) => self.levels - 1,
        }
    }

    /// The analog normalized conductance in `[0, 1]`, including variation.
    #[inline]
    pub fn conductance(&self) -> f64 {
        match self.state {
            FaultState::Healthy => self.analog,
            FaultState::Stuck(FaultKind::StuckAt0) => 0.0,
            FaultState::Stuck(FaultKind::StuckAt1) => 1.0,
        }
    }

    /// The cell's health state.
    #[inline]
    pub fn state(&self) -> FaultState {
        self.state
    }

    /// Remaining write budget.
    pub fn endurance_left(&self) -> u64 {
        self.endurance_left
    }

    /// Number of effective writes performed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Normalized conductance of a given level.
    #[inline]
    pub fn level_to_conductance(&self, level: u16) -> f64 {
        f64::from(level) / f64::from(self.levels - 1)
    }

    /// Pins the cell to a hard fault (used for fabrication-defect injection).
    pub fn force_fault(&mut self, kind: FaultKind) {
        self.state = FaultState::Stuck(kind);
    }

    /// Programs the cell to `target` level.
    ///
    /// `variation_noise` is the pre-sampled additive perturbation of the
    /// normalized conductance for this write (pass `0.0` for ideal writes);
    /// sampling is left to the caller so the cell stays RNG-free.
    ///
    /// Wear accounting: one unit of endurance is consumed whenever a program
    /// pulse is issued, i.e. whenever the target differs from the current
    /// level. Writes targeting the current level are skipped by the
    /// peripheral logic (the paper's threshold-training relies on exactly
    /// this suppression) and cost nothing.
    #[inline]
    pub fn write_level(&mut self, target: u16, variation_noise: f64) -> WriteOutcome {
        let target = target.min(self.levels - 1);
        if let FaultState::Stuck(kind) = self.state {
            return WriteOutcome::Stuck(kind);
        }
        if target == self.level {
            return WriteOutcome::NoChange;
        }
        if self.endurance_left == 0 {
            return WriteOutcome::Exhausted;
        }
        self.level = target;
        self.analog = (self.level_to_conductance(target) + variation_noise).clamp(0.0, 1.0);
        self.writes += 1;
        self.endurance_left -= 1;
        // When this write spent the last budget unit the caller (normally
        // the crossbar's write-settling step) must convert the cell into a
        // stuck-at fault via `wear_out`; until then further writes report
        // `Exhausted`.
        WriteOutcome::Applied
    }

    /// Programs the cell to an arbitrary analog conductance in `[0, 1]`.
    ///
    /// Training writes are analog — the discrete level grid is only the
    /// *test-phase* view of the cell (§4.2 of the paper). The ideal level
    /// becomes the nearest grid point of the target, and the analog value
    /// carries the exact target plus `variation_noise`.
    ///
    /// Wear accounting matches [`RramCell::write_level`]: a pulse is issued
    /// (and endurance consumed) whenever the target differs from the current
    /// analog value.
    #[inline]
    pub fn write_analog(&mut self, target: f64, variation_noise: f64) -> WriteOutcome {
        let target = target.clamp(0.0, 1.0);
        if let FaultState::Stuck(kind) = self.state {
            return WriteOutcome::Stuck(kind);
        }
        if target == self.analog {
            return WriteOutcome::NoChange;
        }
        if self.endurance_left == 0 {
            return WriteOutcome::Exhausted;
        }
        self.level = (target * f64::from(self.levels - 1)).round() as u16;
        self.analog = (target + variation_noise).clamp(0.0, 1.0);
        self.writes += 1;
        self.endurance_left -= 1;
        WriteOutcome::Applied
    }

    /// Like [`RramCell::write_analog`], but *unconditional*: a programming
    /// pulse is issued (and endurance consumed) even when the target equals
    /// the current value. This models training hardware without a
    /// write-verify loop — the paper's original on-line training method
    /// pulses every cell on every iteration, which is exactly the wear that
    /// threshold training eliminates.
    #[inline]
    pub fn pulse_analog(&mut self, target: f64, variation_noise: f64) -> WriteOutcome {
        let target = target.clamp(0.0, 1.0);
        if let FaultState::Stuck(kind) = self.state {
            return WriteOutcome::Stuck(kind);
        }
        if self.endurance_left == 0 {
            return WriteOutcome::Exhausted;
        }
        self.level = (target * f64::from(self.levels - 1)).round() as u16;
        self.analog = (target + variation_noise).clamp(0.0, 1.0);
        self.writes += 1;
        self.endurance_left -= 1;
        WriteOutcome::Applied
    }

    /// Adjusts the level by `delta` (positive = SET toward higher
    /// conductance, negative = RESET toward lower conductance).
    ///
    /// Returns [`WriteOutcome::Saturated`] if the cell was already at the
    /// range boundary in the requested direction (no pulse issued).
    #[inline]
    pub fn nudge(&mut self, delta: i32, variation_noise: f64) -> WriteOutcome {
        if let FaultState::Stuck(kind) = self.state {
            return WriteOutcome::Stuck(kind);
        }
        if delta == 0 {
            return WriteOutcome::NoChange;
        }
        let target =
            (i64::from(self.level) + i64::from(delta)).clamp(0, i64::from(self.levels - 1)) as u16;
        if target == self.level {
            return WriteOutcome::Saturated;
        }
        self.write_level(target, variation_noise)
    }

    /// The raw stored level, ignoring any fault pin (checkpointing only —
    /// use [`RramCell::level`] for the externally observable value).
    pub fn raw_level(&self) -> u16 {
        self.level
    }

    /// The raw analog conductance, ignoring any fault pin (checkpointing
    /// only — use [`RramCell::conductance`] for the observable value).
    pub fn raw_analog(&self) -> f64 {
        self.analog
    }

    /// Reconstructs a cell from previously captured raw state
    /// (checkpoint restore). The raw level/analog persist underneath a
    /// stuck-at pin, so restoring them exactly keeps the device
    /// bit-identical to the snapshotted one.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` (same contract as [`RramCell::new`]).
    pub fn from_raw_parts(
        levels: u16,
        level: u16,
        analog: f64,
        state: FaultState,
        endurance_left: u64,
        writes: u64,
    ) -> Self {
        assert!(levels >= 2, "a cell needs at least 2 levels");
        Self {
            levels,
            level: level.min(levels - 1),
            analog: analog.clamp(0.0, 1.0),
            state,
            endurance_left,
            writes,
        }
    }

    /// Whether the endurance budget has been exhausted.
    #[inline]
    pub fn is_worn_out(&self) -> bool {
        self.endurance_left == 0
    }

    /// Converts an exhausted cell into a stuck-at fault of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if the cell still has endurance left.
    pub fn wear_out(&mut self, kind: FaultKind) {
        assert!(self.is_worn_out(), "cell still has endurance budget");
        self.state = FaultState::Stuck(kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> RramCell {
        RramCell::new(8, 100)
    }

    #[test]
    fn fresh_cell_reads_zero() {
        let c = cell();
        assert_eq!(c.level(), 0);
        assert_eq!(c.conductance(), 0.0);
        assert_eq!(c.state(), FaultState::Healthy);
        assert_eq!(c.writes(), 0);
    }

    #[test]
    fn write_level_sets_level_and_conductance() {
        let mut c = cell();
        assert_eq!(c.write_level(7, 0.0), WriteOutcome::Applied);
        assert_eq!(c.level(), 7);
        assert!((c.conductance() - 1.0).abs() < 1e-12);
        assert_eq!(c.writes(), 1);
        assert_eq!(c.endurance_left(), 99);
    }

    #[test]
    fn same_level_write_is_free() {
        let mut c = cell();
        c.write_level(3, 0.0);
        assert_eq!(c.write_level(3, 0.0), WriteOutcome::NoChange);
        assert_eq!(c.writes(), 1);
        assert_eq!(c.endurance_left(), 99);
    }

    #[test]
    fn nudge_saturates_at_bounds() {
        let mut c = cell();
        assert_eq!(c.nudge(-1, 0.0), WriteOutcome::Saturated);
        c.write_level(7, 0.0);
        assert_eq!(c.nudge(1, 0.0), WriteOutcome::Saturated);
        assert_eq!(c.nudge(0, 0.0), WriteOutcome::NoChange);
        assert_eq!(c.writes(), 1);
    }

    #[test]
    fn nudge_clamps_large_delta() {
        let mut c = cell();
        assert_eq!(c.nudge(100, 0.0), WriteOutcome::Applied);
        assert_eq!(c.level(), 7);
        assert_eq!(c.nudge(-3, 0.0), WriteOutcome::Applied);
        assert_eq!(c.level(), 4);
    }

    #[test]
    fn stuck_cell_ignores_writes_and_reads_pinned() {
        let mut c = cell();
        c.write_level(4, 0.0);
        c.force_fault(FaultKind::StuckAt0);
        assert_eq!(c.level(), 0);
        assert_eq!(c.conductance(), 0.0);
        assert_eq!(
            c.write_level(6, 0.0),
            WriteOutcome::Stuck(FaultKind::StuckAt0)
        );
        assert_eq!(c.writes(), 1, "stuck writes must not count as wear");

        let mut c = cell();
        c.force_fault(FaultKind::StuckAt1);
        assert_eq!(c.level(), 7);
        assert_eq!(c.conductance(), 1.0);
        assert_eq!(c.nudge(-1, 0.0), WriteOutcome::Stuck(FaultKind::StuckAt1));
    }

    #[test]
    fn endurance_exhaustion_and_wearout() {
        let mut c = RramCell::new(8, 2);
        assert_eq!(c.write_level(1, 0.0), WriteOutcome::Applied);
        assert!(!c.is_worn_out());
        assert_eq!(c.write_level(2, 0.0), WriteOutcome::Applied);
        assert!(c.is_worn_out());
        // Until the wear-out fault is assigned, further writes are refused.
        assert_eq!(c.write_level(5, 0.0), WriteOutcome::Exhausted);
        assert_eq!(c.writes(), 2);
        c.wear_out(FaultKind::StuckAt1);
        assert_eq!(c.state(), FaultState::Stuck(FaultKind::StuckAt1));
        assert_eq!(c.conductance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "endurance budget")]
    fn wear_out_with_budget_panics() {
        let mut c = cell();
        c.wear_out(FaultKind::StuckAt0);
    }

    #[test]
    fn variation_noise_shifts_analog_but_not_level() {
        let mut c = cell();
        c.write_level(4, 0.05);
        assert_eq!(c.level(), 4);
        let ideal = c.level_to_conductance(4);
        assert!((c.conductance() - (ideal + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn write_analog_is_continuous() {
        let mut c = cell();
        assert_eq!(c.write_analog(0.33, 0.0), WriteOutcome::Applied);
        assert!((c.conductance() - 0.33).abs() < 1e-12);
        // The test-phase view rounds to the nearest of 8 levels: 0.33*7 ≈ 2.
        assert_eq!(c.level(), 2);
        // Identical rewrite is free.
        assert_eq!(c.write_analog(0.33, 0.0), WriteOutcome::NoChange);
        assert_eq!(c.writes(), 1);
        // Stuck cells ignore analog writes too.
        c.force_fault(FaultKind::StuckAt1);
        assert_eq!(
            c.write_analog(0.1, 0.0),
            WriteOutcome::Stuck(FaultKind::StuckAt1)
        );
        assert_eq!(c.conductance(), 1.0);
    }

    #[test]
    fn write_analog_clamps_and_wears() {
        let mut c = RramCell::new(8, 2);
        assert_eq!(c.write_analog(2.0, 0.0), WriteOutcome::Applied);
        assert_eq!(c.conductance(), 1.0);
        assert_eq!(c.level(), 7);
        c.write_analog(0.5, 0.0);
        assert!(c.is_worn_out());
        assert_eq!(c.write_analog(0.9, 0.0), WriteOutcome::Exhausted);
    }

    #[test]
    fn outcome_helpers() {
        assert!(WriteOutcome::Applied.changed());
        assert!(WriteOutcome::WoreOut(FaultKind::StuckAt0).changed());
        assert!(!WriteOutcome::NoChange.changed());
        assert!(!WriteOutcome::Saturated.changed());
        assert!(!WriteOutcome::Exhausted.changed());
        assert_eq!(WriteOutcome::Exhausted.new_fault(), None);
        assert!(!WriteOutcome::Stuck(FaultKind::StuckAt1).changed());
        assert_eq!(
            WriteOutcome::WoreOut(FaultKind::StuckAt1).new_fault(),
            Some(FaultKind::StuckAt1)
        );
        assert_eq!(WriteOutcome::Applied.new_fault(), None);
    }

    #[test]
    #[should_panic(expected = "at least 2 levels")]
    fn one_level_cell_panics() {
        let _ = RramCell::new(1, 10);
    }
}
