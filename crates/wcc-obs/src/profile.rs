//! Wall-clock phase timers for the sweep executor.
//!
//! This is the one place the simulation path is allowed to read real
//! time, and only when profiling is explicitly enabled (`wcc metrics`
//! turns it on; everything else leaves it off, where a span costs one
//! relaxed atomic load and no clock read). Wall time never flows back
//! into any simulation — it exists purely for the per-experiment /
//! per-job breakdown table — so determinism is untouched; the analyzer
//! r1 exception below is scoped to the single `Instant::now` call site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use wcc_sync::{RankedGuard, RankedMutex};

/// The process-wide profiler. Cheap to consult from any thread.
#[derive(Debug)]
pub struct Profiler {
    enabled: AtomicBool,
    phase: RankedMutex<String>,
    samples: RankedMutex<Vec<Sample>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            enabled: AtomicBool::new(false),
            phase: RankedMutex::new(90, "obs.profile.phase", String::new()),
            samples: RankedMutex::new(92, "obs.profile.samples", Vec::new()),
        }
    }
}

#[derive(Debug, Clone)]
struct Sample {
    phase: String,
    job: Option<usize>,
    nanos: u64,
}

/// The global profiler instance.
pub fn global() -> &'static Profiler {
    static GLOBAL: OnceLock<Profiler> = OnceLock::new();
    GLOBAL.get_or_init(Profiler::default)
}

/// Reads the wall clock — the only such site in the simulation path,
/// and only reached when profiling was explicitly enabled.
fn clock_read() -> Instant {
    // wcc-allow: r1 opt-in profiler timestamps; wall time never reaches simulation state
    Instant::now()
}

impl Profiler {
    /// Turn sample collection on or off (off by default).
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans currently collect samples.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a phase-level span: sets the current phase and times the
    /// guard's lifetime as the phase total (`job = None`).
    pub fn span(&self, label: &str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::inert(self);
        }
        *self.lock_phase() = label.to_string();
        SpanGuard {
            profiler: self,
            phase: label.to_string(),
            job: None,
            start: Some(clock_read()),
        }
    }

    /// Open a per-worker span under the current phase (`job =
    /// Some(worker)`).
    pub fn job(&self, worker: usize) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::inert(self);
        }
        let phase = self.lock_phase().clone();
        SpanGuard {
            profiler: self,
            phase,
            job: Some(worker),
            start: Some(clock_read()),
        }
    }

    /// Take every collected sample, leaving the profiler empty (the
    /// enable switch is untouched).
    pub fn take(&self) -> ProfileReport {
        let samples = std::mem::take(&mut *self.lock_samples());
        ProfileReport { samples }
    }

    fn lock_phase(&self) -> RankedGuard<'_, String> {
        self.phase.lock()
    }

    fn lock_samples(&self) -> RankedGuard<'_, Vec<Sample>> {
        self.samples.lock()
    }
}

/// A timing span; records its wall-clock lifetime on drop. Inert (no
/// clock reads, nothing recorded) when the profiler was disabled at
/// creation.
#[derive(Debug)]
pub struct SpanGuard<'p> {
    profiler: &'p Profiler,
    phase: String,
    job: Option<usize>,
    start: Option<Instant>,
}

impl<'p> SpanGuard<'p> {
    fn inert(profiler: &'p Profiler) -> Self {
        SpanGuard {
            profiler,
            phase: String::new(),
            job: None,
            start: None,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profiler.lock_samples().push(Sample {
            phase: std::mem::take(&mut self.phase),
            job: self.job,
            nanos,
        });
    }
}

/// Samples harvested by [`Profiler::take`], renderable as the profile
/// table `wcc metrics` prints.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    samples: Vec<Sample>,
}

impl ProfileReport {
    /// Whether anything was collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Aggregated `(phase, job, total_nanos, spans)` rows, sorted by
    /// phase then job (phase totals before per-job rows).
    pub fn rows(&self) -> Vec<(String, Option<usize>, u64, u64)> {
        let mut rows: Vec<(String, Option<usize>, u64, u64)> = Vec::new();
        for s in &self.samples {
            match rows
                .iter_mut()
                .find(|(p, j, _, _)| *p == s.phase && *j == s.job)
            {
                Some((_, _, nanos, count)) => {
                    *nanos = nanos.saturating_add(s.nanos);
                    *count += 1;
                }
                None => rows.push((s.phase.clone(), s.job, s.nanos, 1)),
            }
        }
        rows.sort();
        rows
    }

    /// The per-experiment / per-job breakdown as an aligned text table.
    pub fn render_table(&self) -> String {
        let rows = self.rows();
        if rows.is_empty() {
            return "  (no profile samples — profiling disabled?)\n".to_string();
        }
        let w = rows
            .iter()
            .map(|(p, _, _, _)| p.len())
            .max()
            .unwrap_or(5)
            .max("phase".len());
        let mut out = String::new();
        writeln!(
            out,
            "  {:<w$}  {:>6}  {:>12}  {:>6}",
            "phase", "job", "ms", "spans"
        )
        .expect("infallible");
        for (phase, job, nanos, count) in rows {
            let job = match job {
                Some(j) => j.to_string(),
                None => "-".to_string(),
            };
            writeln!(
                out,
                "  {phase:<w$}  {job:>6}  {:>12.3}  {count:>6}",
                nanos as f64 / 1e6
            )
            .expect("infallible");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_collects_nothing() {
        let p = Profiler::default();
        {
            let _g = p.span("phase A");
            let _j = p.job(0);
        }
        assert!(p.take().is_empty());
    }

    #[test]
    fn enabled_profiler_attributes_jobs_to_the_current_phase() {
        let p = Profiler::default();
        p.enable(true);
        {
            let _g = p.span("figure 8");
            {
                let _j = p.job(1);
            }
            {
                let _j = p.job(1);
            }
            {
                let _j = p.job(2);
            }
        }
        let report = p.take();
        let rows = report.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "figure 8");
        assert_eq!(rows[0].1, None); // phase total sorts first
        assert_eq!(rows[1].1, Some(1));
        assert_eq!(rows[1].3, 2, "two spans for job 1");
        assert_eq!(rows[2].1, Some(2));
        let table = report.render_table();
        assert!(table.contains("figure 8"));
        // Harvested: the next take is empty.
        assert!(p.take().is_empty());
    }
}
