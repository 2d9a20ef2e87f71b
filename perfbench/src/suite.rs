//! `paper-suite`: all 11 benchmarks at `WorkloadSize::Full` on the
//! paper's 30-SM chip, each run bare, under Warped-DMR, and under
//! Warped-DMR with cycle-level tracing into a `MetricsSink`.
//!
//! The bare and protected runs (and their per-layer accounting) are
//! shared with `fault-campaign`, which runs them at Tiny scale as its
//! fault-free reference.

use crate::spans::{self_seconds, SelfTimes, Tracer};
use crate::{Layers, Ops, Pass, Workload, PAPER_COVERAGE_PCT, PAPER_NORM_CYCLES_Q10};
use warped::dmr::{DmrConfig, DmrReport, WarpedDmr};
use warped::kernels::{self, common::SplitMix32, Benchmark, ProgramRun, WorkloadSize};
use warped::sim::{GpuConfig, NullObserver, SimError};
use warped::trace::{MetricsSink, TraceEvent, TraceHandle, TraceSink};

/// Build `benches` at `size` in an order drawn from `seed`, each build
/// timed as a `kernels.build` span.
///
/// # Errors
///
/// When a kernel fails to assemble (a bug in the workload definition).
pub fn build_seeded(
    benches: &[Benchmark],
    size: WorkloadSize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<(Benchmark, kernels::Workload)>, String> {
    let mut order = benches.to_vec();
    let mut rng = SplitMix32::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u32 + 1) as usize);
    }
    order
        .into_iter()
        .map(|b| {
            let span = tracer.begin("kernels.build", b.name());
            let w = b.build(size);
            let _ = tracer.end(span);
            w.map(|w| (b, w)).map_err(|e| format!("building {b}: {e}"))
        })
        .collect()
}

/// Record a run as one operation: a simulator error fails it, and so
/// does a failed CPU-reference check (timed as `kernels.check`) or a run
/// that issued no warp-instructions.
fn checked(
    tracer: &mut Tracer,
    ops: &mut Ops,
    what: &str,
    w: &kernels::Workload,
    run: Result<ProgramRun, SimError>,
) -> Option<ProgramRun> {
    let what = format!("{what} {}", w.name());
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            ops.record(&what, Err(e.to_string()));
            return None;
        }
    };
    let span = tracer.begin("kernels.check", "");
    let check = w.check(&run).map_err(|e| e.to_string());
    let _ = tracer.end(span);
    let result = check.and_then(|()| match run.stats.warp_instructions {
        0 => Err("no warp-instructions issued".to_string()),
        _ => Ok(()),
    });
    let ok = result.is_ok();
    ops.record(&what, result);
    ok.then_some(run)
}

/// One benchmark's simulated counts from a bare and a protected run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchCounts {
    /// Benchmark name.
    pub name: &'static str,
    /// Warp-instructions of the bare run.
    pub bare_wi: u64,
    /// Warp-instructions of the protected run. It can differ from the
    /// bare count: DMR stalls change the schedule, and BFS's
    /// data-dependent loops do more or less work under another one.
    pub dmr_wi: u64,
    /// Chip cycles of the bare run.
    pub bare_cycles: u64,
    /// Idle SM-cycles of the bare run.
    pub idle_sm_cycles: u64,
    /// Chip cycles of the protected run.
    pub dmr_cycles: u64,
    /// Stall cycles the engine charged into the simulator.
    pub sim_stall_cycles: u64,
    /// The protected run's report.
    pub report: DmrReport,
}

impl BenchCounts {
    /// Counts that must repeat exactly across passes.
    pub fn fingerprint(&self) -> [u64; 10] {
        [
            self.bare_wi,
            self.dmr_wi,
            self.bare_cycles,
            self.idle_sm_cycles,
            self.dmr_cycles,
            self.sim_stall_cycles,
            self.report.total_thread_instrs,
            self.report.covered_thread_instrs(),
            self.report.checker.enqueued,
            self.report.checker.stall_cycles,
        ]
    }
}

/// Run `w` bare (`sim.run`) and under Warped-DMR (`core.run`), checking
/// both. Returns the counts and the protected run's CPU seconds, or
/// `None` if either run failed.
pub fn bare_and_protected(
    tracer: &mut Tracer,
    ops: &mut Ops,
    b: Benchmark,
    w: &kernels::Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
) -> Option<(BenchCounts, f64)> {
    let span = tracer.begin("sim.run", b.name());
    let bare = w.run_with(gpu, &mut NullObserver);
    let _ = tracer.end(span);
    let bare = checked(tracer, ops, "bare run", w, bare);

    let span = tracer.begin("core.run", b.name());
    let mut engine = WarpedDmr::new(dmr.clone(), gpu);
    let protected = w.run_with(gpu, &mut engine);
    let report = engine.report();
    let dmr_s = tracer.end(span);
    let protected = checked(tracer, ops, "protected run", w, protected);

    let (bare, protected) = (bare?, protected?);
    let counts = BenchCounts {
        name: b.name(),
        bare_wi: bare.stats.warp_instructions,
        dmr_wi: protected.stats.warp_instructions,
        bare_cycles: bare.stats.cycles,
        idle_sm_cycles: bare.stats.idle_cycles,
        dmr_cycles: protected.stats.cycles,
        sim_stall_cycles: protected.stats.stall_cycles,
        report,
    };
    Some((counts, dmr_s))
}

/// Suite-average coverage error (pp) and normalised-cycles error
/// against the paper, over `counts`.
pub fn accuracy(counts: &[BenchCounts]) -> (f64, f64) {
    let n = counts.len().max(1) as f64;
    let cov = counts.iter().map(|c| c.report.coverage_pct()).sum::<f64>() / n;
    let norm = counts
        .iter()
        .map(|c| c.dmr_cycles as f64 / c.bare_cycles.max(1) as f64)
        .sum::<f64>()
        / n;
    (
        (cov - PAPER_COVERAGE_PCT).abs(),
        (norm - PAPER_NORM_CYCLES_Q10).abs(),
    )
}

/// The `sim.*` and `core.*` per-layer metrics of a pass whose bare and
/// protected runs produced `counts`. The core layer's time is what the
/// protected run adds to the bare one; its cost per warp-instruction is
/// the protected run's cost per instruction minus the bare run's, so a
/// protected run that issues a different number of instructions (BFS)
/// is still charged only for the engine.
///
/// # Errors
///
/// When a benchmark issued no warp-instructions: the per-instruction
/// costs are undefined, and the run fails rather than divide by zero.
pub fn sim_core_layers(counts: &[BenchCounts], t: &SelfTimes) -> Result<Layers, String> {
    let per_wi = |s: f64, wi: u64, what: &str| {
        if wi == 0 {
            Err(format!("{what}: zero warp-instructions"))
        } else {
            Ok(s * 1e9 / wi as f64)
        }
    };
    let bare_s = self_seconds(t, "sim.run");
    let dmr_s = self_seconds(t, "core.run") - bare_s;
    let total = |f: fn(&BenchCounts) -> u64| counts.iter().map(f).sum::<u64>();
    let (bare_wi, dmr_wi) = (total(|c| c.bare_wi), total(|c| c.dmr_wi));
    let sum = |f: fn(&BenchCounts) -> u64| total(f) as f64;
    let mut v: Layers = vec![
        ("sim.bare_s".into(), bare_s),
        ("sim.ns_per_wi".into(), per_wi(bare_s, bare_wi, "sim")?),
        ("sim.warp_instructions".into(), bare_wi as f64),
        ("sim.cycles".into(), sum(|c| c.bare_cycles)),
        ("sim.idle_sm_cycles".into(), sum(|c| c.idle_sm_cycles)),
        ("sim.stall_cycles".into(), sum(|c| c.sim_stall_cycles)),
        ("core.dmr_s".into(), dmr_s),
        (
            "core.ns_per_wi".into(),
            per_wi(bare_s + dmr_s, dmr_wi, "core")? - per_wi(bare_s, bare_wi, "sim")?,
        ),
        (
            "core.verified".into(),
            sum(|c| c.report.checker.total_verified()),
        ),
        (
            "core.replayq_enqueued".into(),
            sum(|c| c.report.checker.enqueued),
        ),
        (
            "core.stall_cycles".into(),
            sum(|c| c.report.checker.stall_cycles),
        ),
        (
            "core.max_queue".into(),
            counts
                .iter()
                .map(|c| c.report.checker.max_queue)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("core.norm_cycles_err".into(), accuracy(counts).1),
    ];
    for c in counts {
        let bare = t.get(&("sim.run", c.name)).copied().unwrap_or(0.0);
        let prot = t.get(&("core.run", c.name)).copied().unwrap_or(0.0);
        v.push((
            format!("sim.ns_per_wi.{}", c.name),
            per_wi(bare, c.bare_wi, c.name)?,
        ));
        v.push((
            format!("core.ns_per_wi.{}", c.name),
            per_wi(prot, c.dmr_wi, c.name)? - per_wi(bare, c.bare_wi, c.name)?,
        ));
    }
    Ok(v)
}

/// A trace sink owned by the benchmark: counts events and forwards them
/// to the `MetricsSink` the protected run's report is rebuilt from.
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
    metrics: MetricsSink,
}

impl TraceSink for CountingSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.metrics.event(ev);
    }
}

/// The `paper-suite` workload.
pub struct PaperSuite {
    gpu: GpuConfig,
    dmr: DmrConfig,
    benches: Vec<(Benchmark, kernels::Workload)>,
    counts: Vec<BenchCounts>,
    trace_events: u64,
}

impl PaperSuite {
    /// Pass (c): the protected run traced into a [`CountingSink`]. Its
    /// report, rebuilt from the metrics, must equal the live report of
    /// pass (b). Returns the event count.
    fn traced(
        &self,
        tracer: &mut Tracer,
        ops: &mut Ops,
        b: Benchmark,
        w: &kernels::Workload,
        live: &BenchCounts,
    ) -> u64 {
        let span = tracer.begin("trace.run", b.name());
        let (sink, handle) = TraceHandle::shared(CountingSink::default());
        let mut engine = WarpedDmr::new(self.dmr.clone(), &self.gpu);
        engine.set_trace(handle.clone());
        let run = w.run_traced(&self.gpu, &mut engine, handle);
        let traced_live = engine.report();
        let _ = tracer.end(span);
        let Some(run) = checked(tracer, ops, "traced run", w, run) else {
            return 0;
        };
        let sink = sink.lock().expect("trace sink poisoned");
        let result = if DmrReport::from_metrics(&sink.metrics) != live.report {
            Err("report rebuilt from the trace differs from the live report".to_string())
        } else if traced_live != live.report || run.stats.cycles != live.dmr_cycles {
            Err("tracing changed the protected run".to_string())
        } else if sink.events != sink.metrics.events_seen || sink.events == 0 {
            Err(format!(
                "{} events counted, {} seen by the metrics sink",
                sink.events, sink.metrics.events_seen
            ))
        } else {
            Ok(())
        };
        ops.record(&format!("trace replay {}", b.name()), result);
        sink.events
    }
}

impl Workload for PaperSuite {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        Ok(PaperSuite {
            gpu: GpuConfig::paper(),
            dmr: DmrConfig::default(),
            benches: build_seeded(&Benchmark::ALL, WorkloadSize::Full, seed, tracer)?,
            counts: Vec::new(),
            trace_events: 0,
        })
    }

    fn pass(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Pass, String> {
        let mut counts = Vec::new();
        let mut dmr_s = 0.0;
        let mut events = 0;
        for (b, w) in &self.benches {
            let span = tracer.begin("bench", b.name());
            if let Some((c, secs)) = bare_and_protected(tracer, ops, *b, w, &self.gpu, &self.dmr) {
                events += self.traced(tracer, ops, *b, w, &c);
                dmr_s += secs;
                counts.push(c);
            }
            let _ = tracer.end(span);
        }
        let wi: u64 = counts.iter().map(|c| c.dmr_wi).sum();
        if wi == 0 {
            return Err("the suite issued no warp-instructions".into());
        }
        let mut fingerprint: Vec<u64> = counts.iter().flat_map(|c| c.fingerprint()).collect();
        fingerprint.push(events);
        let pass = Pass {
            work_per_s: wi as f64 / dmr_s,
            coverage_err_pp: accuracy(&counts).0,
            fingerprint,
        };
        self.counts = counts;
        self.trace_events = events;
        Ok(pass)
    }

    fn layers(&self, t: &SelfTimes) -> Result<Layers, String> {
        let mut v = sim_core_layers(&self.counts, t)?;
        let traced_s = self_seconds(t, "trace.run") - self_seconds(t, "core.run");
        if self.trace_events == 0 {
            return Err("the traced runs emitted no events".into());
        }
        v.extend([
            ("kernels.check_s".into(), self_seconds(t, "kernels.check")),
            ("trace.traced_s".into(), traced_s),
            ("trace.events".into(), self.trace_events as f64),
            (
                "trace.ns_per_event".into(),
                traced_s * 1e9 / self.trace_events as f64,
            ),
        ]);
        Ok(v)
    }
}
