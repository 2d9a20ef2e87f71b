//! Host-contention gauge for the end-to-end timings.
//!
//! CPU time (see [`crate::spans`]) leaves out the time other processes
//! hold the CPU, but not the slowdown other tenants of a shared host
//! cause through the caches and memory this process shares with them. On
//! a shared 2-CPU host that slowdown comes and goes over seconds, and
//! made the uncorrected CPU time of the same pass read up to 1.6× more
//! in one 35-second run than in another. A small fixed probe simulation
//! shows it: in a quiet moment a probe run takes its fastest time, under
//! contention proportionally longer.
//!
//! So while a pass runs untraced, the gauge times a burst of probe runs
//! at the first layer call that begins at least [`SEGMENT_NS`] after the
//! last burst. The pass's CPU time between one burst and the next is a
//! segment. A burst runs at least [`BURST_RUNS`] probe runs and lasts at
//! least [`PROBE_SHARE`] of the segment before it: quiet moments come
//! and go over seconds, and a run whose probes never meet one has a
//! fastest probe run that is itself slow, which undercorrects every
//! segment of the run.
//!
//! A segment's contention factor is the mean of the median probe times
//! of the bursts before and after it, over the fastest probe run of the
//! whole run; its corrected time is its CPU time divided by that factor.
//! The set-ups before a pass are corrected by the factor of the burst
//! that follows them. A faster or slower program changes the probe's
//! median and fastest time alike, so the factor measures only the host.
//! Probe time itself is never counted.

use crate::spans::cpu_now_ns;
use crate::stats;
use warped::kernels::{self, Benchmark, WorkloadSize};
use warped::sim::{GpuConfig, NullObserver};

/// Fewest probe runs per burst.
pub const BURST_RUNS: usize = 9;

/// Least CPU time of a burst, as a share of the segment it closes.
pub const PROBE_SHARE: f64 = 0.3;

/// CPU time of a pass after which the next layer call is preceded by a
/// burst.
pub const SEGMENT_NS: u64 = 250_000_000;

/// Times probe bursts and the pass segments between them.
pub struct Gauge {
    /// The probe: MatrixMul at Tiny scale on the paper's chip, bare.
    probe: kernels::Workload,
    gpu: GpuConfig,
    /// Median probe time of every burst so far, in run order.
    bursts: Vec<f64>,
    /// Fastest probe run so far, seconds.
    fastest: f64,
    /// The current pass's closed segments.
    segments: Vec<Segment>,
    /// The open segment: its start (CPU ns) and burst index.
    open: Option<(u64, usize)>,
    /// CPU time the current pass spent probing, nanoseconds.
    probe_ns: u64,
}

/// CPU time of a pass between two bursts, and the burst before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// CPU seconds.
    pub secs: f64,
    /// Index of the burst that opened the segment.
    pub burst: usize,
}

/// What the gauge saw of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassProbe {
    /// CPU seconds the pass spent running probes; not part of the pass.
    pub probe_s: f64,
    /// The pass's segments in order.
    pub segments: Vec<Segment>,
}

impl PassProbe {
    /// The pass's CPU time `raw` (probe time already left out) with
    /// every segment divided by its contention factor; `bursts` are the
    /// run's burst medians and `fastest` its fastest probe run.
    pub fn corrected(&self, raw: f64, bursts: &[f64], fastest: f64) -> f64 {
        let excess: f64 = self
            .segments
            .iter()
            .map(|s| {
                let after = bursts.get(s.burst + 1).unwrap_or(&bursts[s.burst]);
                let factor = (bursts[s.burst] + after) / 2.0 / fastest;
                s.secs * (1.0 - 1.0 / factor)
            })
            .sum();
        raw - excess
    }

    /// Contention factor of the pass's first burst, which directly
    /// follows the pass's set-ups; 1 for a pass without bursts.
    pub fn first_factor(&self, bursts: &[f64], fastest: f64) -> f64 {
        self.segments
            .first()
            .map_or(1.0, |s| bursts[s.burst] / fastest)
    }
}

impl Gauge {
    /// Build the probe.
    ///
    /// # Errors
    ///
    /// When the probe kernel fails to assemble.
    pub fn new() -> Result<Gauge, String> {
        Ok(Gauge {
            probe: Benchmark::MatrixMul
                .build(WorkloadSize::Tiny)
                .map_err(|e| format!("building the probe: {e}"))?,
            gpu: GpuConfig::paper(),
            bursts: Vec::new(),
            fastest: f64::INFINITY,
            segments: Vec::new(),
            open: None,
            probe_ns: 0,
        })
    }

    /// Called as a layer call of an untraced pass begins: runs a burst
    /// if none has run in this pass, or the open segment is at least
    /// [`SEGMENT_NS`] long.
    ///
    /// # Panics
    ///
    /// If a probe run fails: the probe is a fixed workload, so that is a
    /// bug in the simulator, not host noise.
    pub fn boundary(&mut self) {
        let now = cpu_now_ns();
        let mut least_ns = 0;
        if let Some((start, burst)) = self.open {
            if now - start < SEGMENT_NS {
                return;
            }
            self.segments.push(Segment {
                secs: (now - start) as f64 * 1e-9,
                burst,
            });
            least_ns = ((now - start) as f64 * PROBE_SHARE) as u64;
        }
        let mut samples = Vec::with_capacity(BURST_RUNS);
        while samples.len() < BURST_RUNS || cpu_now_ns() - now < least_ns {
            let t = cpu_now_ns();
            let run = self.probe.run_with(&self.gpu, &mut NullObserver);
            samples.push((cpu_now_ns() - t) as f64 * 1e-9);
            let run = run.expect("the probe simulation runs");
            assert!(run.stats.warp_instructions > 0, "the probe issued nothing");
        }
        self.fastest = samples.iter().copied().fold(self.fastest, f64::min);
        self.bursts
            .push(stats::median(&samples).expect("BURST_RUNS > 0"));
        let end = cpu_now_ns();
        self.probe_ns += end - now;
        self.open = Some((end, self.bursts.len() - 1));
    }

    /// Close the current pass and return what the gauge saw of it.
    pub fn end_pass(&mut self) -> PassProbe {
        if let Some((start, burst)) = self.open.take() {
            self.segments.push(Segment {
                secs: (cpu_now_ns() - start) as f64 * 1e-9,
                burst,
            });
        }
        PassProbe {
            probe_s: std::mem::take(&mut self.probe_ns) as f64 * 1e-9,
            segments: std::mem::take(&mut self.segments),
        }
    }

    /// Median probe time of every burst so far, in run order.
    pub fn bursts(&self) -> &[f64] {
        &self.bursts
    }

    /// The fastest probe run so far, seconds (infinite before any).
    pub fn fastest(&self) -> f64 {
        self.fastest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_divided_by_the_factor_of_the_bursts_around_them() {
        let probe = PassProbe {
            probe_s: 0.5,
            segments: vec![
                Segment {
                    secs: 3.0,
                    burst: 0,
                },
                Segment {
                    secs: 1.0,
                    burst: 1,
                },
            ],
        };
        // Burst 0 ran 2× slower than the fastest probe run and burst 1
        // at full speed, so the first segment's factor is 1.5 and the
        // last one's, with no burst after it, is 1. 0.25 s of the pass
        // lies before the first burst.
        let bursts = [0.004, 0.002];
        let corrected = probe.corrected(4.25, &bursts, 0.002);
        assert!((corrected - (0.25 + 2.0 + 1.0)).abs() < 1e-12);
        assert_eq!(probe.first_factor(&bursts, 0.002), 2.0);
    }

    #[test]
    fn a_pass_without_bursts_is_not_corrected() {
        let none = PassProbe::default();
        assert_eq!(none.corrected(1.5, &[], 0.002), 1.5);
        assert_eq!(none.first_factor(&[], 0.002), 1.0);
    }

    #[test]
    fn bursts_open_segments_and_end_pass_closes_them() {
        let mut g = Gauge::new().expect("the probe builds");
        g.boundary();
        // Within SEGMENT_NS of the burst: no new burst.
        g.boundary();
        assert_eq!(g.bursts().len(), 1);
        let p = g.end_pass();
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].burst, 0);
        assert!(p.probe_s > 0.0);
        assert!(g.fastest() > 0.0 && g.fastest() <= g.bursts()[0]);
        assert_eq!(g.end_pass(), PassProbe::default());
    }
}
