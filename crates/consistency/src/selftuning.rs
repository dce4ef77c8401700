//! Self-tuning consistency — the paper's §5 future work, built out.
//!
//! "We are investigating algorithms by which caches can be self-tuning, by
//! adjusting parameters based on the data type and the history of accesses
//! to items of that type." This module implements that idea as a
//! per-content-class adaptive update threshold with multiplicative
//! feedback:
//!
//! * a validation that finds the object **modified** means the horizon was
//!   too generous for this class → shrink its threshold;
//! * a validation answered **304 Not Modified** means we checked too early
//!   → grow the threshold.
//!
//! Multiplicative-increase / multiplicative-decrease keeps the threshold
//! responsive to regime changes (a page going from static to daily-edited)
//! while converging geometrically when behaviour is stable. The ablation
//! bench compares this against the best fixed Alex threshold.

use std::borrow::Cow;
use std::collections::HashMap;

use proxycache::EntryMeta;
use simcore::SimTime;

use crate::policy::{decide_by_expiry, AdaptiveTtl, Decision, Policy, RequestCtx};

/// Per-class adaptive Alex thresholds with MIMD feedback.
#[derive(Debug, Clone)]
pub struct SelfTuningPolicy {
    initial: f64,
    min: f64,
    max: f64,
    grow: f64,
    shrink: f64,
    thresholds: HashMap<usize, f64>,
    adjustments: u64,
}

impl SelfTuningPolicy {
    /// A policy starting every class at `initial` threshold, clamped to
    /// `[min, max]`, growing by `grow` on quiet validations and shrinking
    /// by `shrink` on modified ones.
    ///
    /// # Panics
    /// Panics unless `0 <= min <= initial <= max`, `grow >= 1`, and
    /// `0 < shrink <= 1`.
    pub fn new(initial: f64, min: f64, max: f64, grow: f64, shrink: f64) -> Self {
        assert!(
            (0.0..=min.max(initial)).contains(&min) && min <= initial && initial <= max,
            "require 0 <= min <= initial <= max"
        );
        assert!(grow >= 1.0, "grow factor must be >= 1");
        assert!(
            shrink > 0.0 && shrink <= 1.0,
            "shrink factor must be in (0, 1]"
        );
        SelfTuningPolicy {
            initial,
            min,
            max,
            grow,
            shrink,
            thresholds: HashMap::new(),
            adjustments: 0,
        }
    }

    /// A reasonable default: start at 10 % (the threshold the paper's
    /// worked example uses), tune within [2 %, 100 %], grow 1.1×, shrink
    /// 0.5×.
    pub fn recommended() -> Self {
        SelfTuningPolicy::new(0.10, 0.02, 1.0, 1.1, 0.5)
    }

    /// Current threshold for `class`.
    pub fn threshold(&self, class: usize) -> f64 {
        *self.thresholds.get(&class).unwrap_or(&self.initial)
    }

    /// Number of feedback adjustments applied so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }
}

impl SelfTuningPolicy {
    /// The instant a currently-valid `entry` times out under `class`'s
    /// current threshold.
    pub fn expiry(&self, entry: &EntryMeta, class: usize) -> SimTime {
        AdaptiveTtl::new(self.threshold(class)).expiry(entry, class)
    }
}

impl Policy for SelfTuningPolicy {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("self-tuning(init={:.0}%)", self.initial * 100.0))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }

    fn on_validation(&mut self, class: usize, was_modified: bool) {
        let cur = self.threshold(class);
        let next = if was_modified {
            cur * self.shrink
        } else {
            cur * self.grow
        };
        self.thresholds
            .insert(class, next.clamp(self.min, self.max));
        self.adjustments += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(last_modified: u64, last_validated: u64) -> EntryMeta {
        let mut e = EntryMeta::fresh(100, t(last_modified), t(last_modified));
        e.revalidate(t(last_validated));
        e
    }

    #[test]
    fn starts_at_initial_threshold_everywhere() {
        let p = SelfTuningPolicy::recommended();
        assert!((p.threshold(0) - 0.10).abs() < 1e-12);
        assert!((p.threshold(7) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn quiet_validations_grow_threshold() {
        let mut p = SelfTuningPolicy::recommended();
        for _ in 0..5 {
            p.on_validation(0, false);
        }
        let grown = p.threshold(0);
        assert!((grown - 0.10 * 1.1f64.powi(5)).abs() < 1e-12);
        // Other classes untouched.
        assert!((p.threshold(1) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn modified_validation_shrinks_fast() {
        let mut p = SelfTuningPolicy::recommended();
        for _ in 0..10 {
            p.on_validation(0, false);
        }
        let before = p.threshold(0);
        p.on_validation(0, true);
        assert!((p.threshold(0) - before * 0.5).abs() < 1e-12);
        assert_eq!(p.adjustments(), 11);
    }

    #[test]
    fn threshold_clamps_to_bounds() {
        let mut p = SelfTuningPolicy::new(0.10, 0.05, 0.20, 2.0, 0.1);
        for _ in 0..20 {
            p.on_validation(0, false);
        }
        assert!((p.threshold(0) - 0.20).abs() < 1e-12);
        for _ in 0..20 {
            p.on_validation(0, true);
        }
        assert!((p.threshold(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn expiry_tracks_the_tuned_threshold() {
        let mut p = SelfTuningPolicy::new(0.10, 0.01, 1.0, 2.0, 0.5);
        let e = entry(0, 1000); // age 1000s at validation
        assert_eq!(p.expiry(&e, 0), t(1100)); // 10% of 1000
        p.on_validation(0, false); // -> 20%
        assert_eq!(p.expiry(&e, 0), t(1200));
        p.on_validation(0, true); // -> 10%
        assert_eq!(p.expiry(&e, 0), t(1100));
    }

    #[test]
    fn classes_tune_independently() {
        let mut p = SelfTuningPolicy::recommended();
        // Class 0: volatile (cgi-like). Class 1: stable (gif-like).
        for _ in 0..8 {
            p.on_validation(0, true);
            p.on_validation(1, false);
        }
        assert!(p.threshold(0) < p.threshold(1));
        assert!(p.threshold(0) >= 0.02);
        assert!(p.threshold(1) <= 1.0);
    }

    #[test]
    fn regime_change_recovers() {
        // A class that was stable becomes volatile: threshold must fall
        // below its initial value within a few modified validations.
        let mut p = SelfTuningPolicy::recommended();
        for _ in 0..20 {
            p.on_validation(0, false);
        }
        assert!(p.threshold(0) > 0.10);
        for _ in 0..4 {
            p.on_validation(0, true);
        }
        assert!(p.threshold(0) < 0.10);
    }

    #[test]
    #[should_panic(expected = "grow factor")]
    fn bad_grow_panics() {
        SelfTuningPolicy::new(0.1, 0.01, 1.0, 0.9, 0.5);
    }

    #[test]
    #[should_panic(expected = "min <= initial <= max")]
    fn inverted_bounds_panic() {
        SelfTuningPolicy::new(0.5, 0.6, 1.0, 1.1, 0.5);
    }
}
