//! Layered host-time benchmark of the Warped-DMR reproduction.
//!
//! `warped-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process, checks every output, prints each
//! metric with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, taken from benchmark-side
//! spans around every layer call. See `README.md` for the workloads, the
//! metrics and the layer map.

mod campaign;
mod certify;
mod gauge;
mod host;
mod spans;
mod stats;
mod suite;

use spans::{self_seconds_by_call, SelfTimes, Span, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions before every pass; `setup_s` is the median over
/// all of a run's repetitions. Spreading them over the run lets them see
/// the same host conditions as the passes.
const SETUP_REPS: usize = 9;

/// The paper's suite-average error coverage with cross mapping, percent
/// (Fig. 9a; recorded in `experiments_paper.txt`).
pub const PAPER_COVERAGE_PCT: f64 = 96.43;
/// The paper's suite-average normalised kernel cycles with a 10-entry
/// ReplayQ (Fig. 9b; recorded in `experiments_paper.txt`).
pub const PAPER_NORM_CYCLES_Q10: f64 = 1.16;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper-suite", "fault-campaign", "certify"];

/// End-to-end metrics (name, unit), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
    ("coverage_err_pp", "pp"),
];

/// Per-layer metrics that do not repeat per benchmark (name, unit).
const LAYER_FIXED: [(&str, &str); 38] = [
    ("kernels.build_s", "s"),
    ("kernels.check_s", "s"),
    ("sim.bare_s", "s"),
    ("sim.ns_per_wi", "ns"),
    ("sim.warp_instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.idle_sm_cycles", "count"),
    ("sim.stall_cycles", "count"),
    ("sim.tiny_run_ms", "ms"),
    ("core.dmr_s", "s"),
    ("core.ns_per_wi", "ns"),
    ("core.verified", "count"),
    ("core.replayq_enqueued", "count"),
    ("core.stall_cycles", "count"),
    ("core.max_queue", "count"),
    ("core.norm_cycles_err", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.events", "count"),
    ("trace.ns_per_event", "ns"),
    ("faults.campaign_s", "s"),
    ("faults.ms_per_trial", "ms"),
    ("faults.overhead_ms_per_trial", "ms"),
    ("faults.trials", "count"),
    ("faults.skipped", "count"),
    ("faults.retries", "count"),
    ("faults.outcome.masked", "count"),
    ("faults.outcome.detected", "count"),
    ("faults.outcome.sdc", "count"),
    ("faults.outcome.hang", "count"),
    ("analysis.mc_s", "s"),
    ("analysis.mc_states", "count"),
    ("analysis.mc_transitions", "count"),
    ("analysis.ns_per_transition", "ns"),
    ("analysis.cert_s", "s"),
    ("analysis.cert_abstract_states", "count"),
    ("analysis.analyze_s", "s"),
    ("bench.harness_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every per-layer metric (name, unit), in `BENCHMARK.json` order: the
/// fixed ones, then `sim.ns_per_wi.<BENCH>` and `core.ns_per_wi.<BENCH>`
/// for the 11 suite benchmarks.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for layer in ["sim", "core"] {
        for b in warped::kernels::Benchmark::ALL {
            v.push((format!("{layer}.ns_per_wi.{}", b.name()), "ns"));
        }
    }
    v
}

/// Attempted and failed operations of one run. Every failure is kept.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    errors: Vec<String>,
}

impl Ops {
    /// Count one operation; a failure is recorded with `what` as context.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn failed(&self) -> u64 {
        self.errors.len() as u64
    }
}

/// What one pass over a workload's operations produced, apart from the
/// spans.
pub struct Pass {
    /// The workload's unit of work per CPU second (see `README.md`).
    pub work_per_s: f64,
    /// Distance of the workload's coverage figure from the paper's.
    pub coverage_err_pp: f64,
    /// Simulated or explored counts, which must repeat exactly in every
    /// pass of a run.
    pub fingerprint: Vec<u64>,
}

/// Per-layer metric values of one traced pass.
pub type Layers = Vec<(String, f64)>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Build inputs and configuration. Timed, repeated [`SETUP_REPS`]
    /// times before every pass, which runs on the last one built.
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String>;

    /// One pass over the workload's operations; failed operations go to
    /// `ops` and never abort the pass.
    fn pass(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Pass, String>;

    /// Per-layer metrics of the traced pass just run, from its span self
    /// times. Metrics of layers the workload does not exercise are left
    /// out and read 0.
    fn layers(&self, self_times: &SelfTimes) -> Result<Layers, String>;
}

/// What an untraced pass and the set-ups before it measured.
struct Untraced {
    /// CPU time of each set-up, uncorrected.
    setup_s: Vec<f64>,
    /// CPU time of the pass without its probe bursts, uncorrected.
    cpu_s: f64,
    /// Wall time of the pass, probe bursts included.
    wall_s: f64,
    /// The workload's work per uncorrected CPU second.
    work_per_s: f64,
    /// What the gauge saw of the pass.
    probe: gauge::PassProbe,
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    for k in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(k) {
            return Err(format!("unknown flag {k}"));
        }
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The result of one run, before rendering.
struct Outcome {
    metrics: Vec<(String, &'static str, f64)>,
    summary: Vec<String>,
    ops: Ops,
    spans: Vec<Span>,
}

fn median_of(v: &[f64], what: &str) -> Result<f64, String> {
    stats::median(v).ok_or_else(|| format!("no samples of {what}"))
}

fn drive<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(args.trace).with_gauge(gauge::Gauge::new()?);
    let mut ops = Ops::default();
    let mut summary = Vec::new();

    // Passes until the time budget is spent: a pass that would end past
    // it, judging by the last one, is not started, so a run with long
    // passes ends on time. A traced run alternates untraced and traced
    // passes, so the tracing overhead is the gap between the two kinds
    // within one process.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut build_s = Vec::new();
    let mut untraced: Vec<Untraced> = Vec::new();
    let mut traced_s = Vec::new();
    let mut coverage_err_pp = None;
    let mut fingerprint: Option<Vec<u64>> = None;
    let mut layer_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0.. {
        let traced = args.trace && i % 2 == 1;
        let iteration = Instant::now();
        tracer.set_enabled(traced);
        let mut built = None;
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let first = tracer.spans().len();
            let span = tracer.begin("setup", "");
            let w = W::setup(args.seed, &mut tracer)?;
            setup_s.push(tracer.end(span));
            if traced {
                let by_call = self_seconds_by_call(&tracer.spans()[first..]);
                build_s.push(spans::self_seconds(&by_call, "kernels.build"));
            }
            built = Some(w);
        }
        let mut w = built.expect("SETUP_REPS > 0");
        let first = tracer.spans().len();
        let wall_start = Instant::now();
        let span = tracer.begin("pass", "");
        let pass = w.pass(&mut tracer, &mut ops)?;
        let cpu = tracer.end(span);
        let probe = tracer.end_pass();
        if traced {
            traced_s.push(cpu);
            let by_call = self_seconds_by_call(&tracer.spans()[first..]);
            let mut layers = w.layers(&by_call)?;
            layers.push((
                "bench.harness_s".into(),
                spans::self_seconds(&by_call, "pass") + spans::self_seconds(&by_call, "bench"),
            ));
            for (name, v) in layers {
                layer_samples.entry(name).or_default().push(v);
            }
        } else {
            untraced.push(Untraced {
                setup_s,
                cpu_s: cpu - probe.probe_s,
                wall_s: wall_start.elapsed().as_secs_f64(),
                work_per_s: pass.work_per_s,
                probe,
            });
        }
        coverage_err_pp.get_or_insert(pass.coverage_err_pp);
        let mut counts = pass.fingerprint;
        counts.push(pass.coverage_err_pp.to_bits());
        match &fingerprint {
            None => fingerprint = Some(counts),
            Some(first) => ops.record(
                "repetition",
                if *first == counts {
                    Ok(())
                } else {
                    Err("simulated counts differ from the first pass".into())
                },
            ),
        }
        let enough = !args.trace || !traced_s.is_empty();
        if enough && start.elapsed() + iteration.elapsed() >= budget {
            break;
        }
    }

    // End-to-end timings are corrected for host contention (see
    // `gauge`): a pass segment by segment, its set-ups by the burst that
    // followed them.
    let gauge = tracer.gauge().expect("the tracer was built with a gauge");
    let (bursts, fastest) = (gauge.bursts(), gauge.fastest());
    let mut setup_s = Vec::new();
    let (mut corrected_s, mut raw_s, mut wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut factors, mut work_per_s) = (Vec::new(), Vec::new());
    for u in &untraced {
        let corrected = u.probe.corrected(u.cpu_s, bursts, fastest);
        let first = u.probe.first_factor(bursts, fastest);
        setup_s.extend(u.setup_s.iter().map(|s| s / first));
        corrected_s.push(corrected);
        raw_s.push(u.cpu_s);
        wall_s.push(u.wall_s);
        factors.push(u.cpu_s / corrected);
        work_per_s.push(u.work_per_s * u.cpu_s / corrected);
    }

    summary.push(format!(
        "setup_s (corrected): {}",
        stats::describe(&setup_s)
    ));
    summary.push(format!(
        "pass_s (untraced, corrected): {}",
        stats::describe(&corrected_s)
    ));
    // The uncorrected CPU and wall times are shown, not reported: they
    // show what the correction and the use of CPU time took out.
    summary.push(format!(
        "pass CPU time (untraced, uncorrected): {}",
        stats::describe(&raw_s)
    ));
    summary.push(format!(
        "pass wall time (untraced): {}",
        stats::describe(&wall_s)
    ));
    summary.push(format!(
        "contention factor per pass: {}",
        stats::describe(&factors)
    ));
    summary.push(format!(
        "probe: fastest run {fastest:.6} s; burst medians: {}",
        stats::describe(bursts)
    ));
    let pass_s = median_of(&corrected_s, "untraced passes")?;
    let raw_pass_s = median_of(&raw_s, "untraced passes")?;
    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    if args.trace {
        summary.push(format!("pass_s (traced): {}", stats::describe(&traced_s)));
        let traced = median_of(&traced_s, "traced passes")?;
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        values.insert("kernels.build_s".into(), median_of(&build_s, "builds")?);
        values.insert(
            "bench.trace_overhead_pct".into(),
            100.0 * (traced - raw_pass_s) / raw_pass_s,
        );
        for (name, v) in &layer_samples {
            values.insert(name.clone(), median_of(v, name)?);
        }
        let declared = per_layer_metrics();
        for name in values.keys() {
            if !declared.iter().any(|(n, _)| n == name) {
                return Err(format!("undeclared per-layer metric {name}"));
            }
        }
        for (name, unit) in declared {
            let v = values.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, unit, v));
        }
    } else {
        let values = [
            median_of(&setup_s, "set-ups")?,
            pass_s,
            median_of(&work_per_s, "passes")?,
            host::peak_rss_mb()?,
            1.0 - ops.failed() as f64 / ops.attempted.max(1) as f64,
            coverage_err_pp.expect("at least one pass ran"),
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), unit, v));
        }
    }
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
    }
    Ok(Outcome {
        metrics,
        summary,
        ops,
        spans: tracer.spans().to_vec(),
    })
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.errors.is_empty(),
        out.ops.attempted,
        out.ops.failed(),
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let facts = host::Facts::probe(args.seed, &args.workload);
    println!("host: {}", facts.to_json());
    let out = match args.workload.as_str() {
        "paper-suite" => drive::<suite::PaperSuite>(args)?,
        "fault-campaign" => drive::<campaign::FaultCampaign>(args)?,
        "certify" => drive::<certify::Certify>(args)?,
        w => return Err(format!("unknown workload {w}; one of {WORKLOADS:?}")),
    };
    for line in &out.summary {
        println!("{line}");
    }
    for (name, unit, v) in &out.metrics {
        println!("{name} = {v} {unit}");
    }
    for e in &out.ops.errors {
        println!("FAILED {e}");
    }
    if args.trace {
        let path = host::write_spans(&facts, &spans_jsonl(&facts, &out.spans))?;
        println!("spans: {} written to {}", out.spans.len(), path.display());
    }
    println!("{}", render(&out));
    Ok(())
}

fn spans_jsonl(facts: &host::Facts, spans: &[Span]) -> String {
    format!(
        "{}\n{}",
        facts.to_json(),
        spans::to_jsonl(spans, &facts.run_id)
    )
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("warped-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": ".."` in `BENCHMARK.json`, in file order.
    fn declared_names(json: &str) -> Vec<String> {
        json.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let v = rest.split('"').nth(1).expect("a quoted name");
                v.to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        assert_eq!(declared_names(&json), expected);
        for (n, u) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_metrics())
        {
            let needle = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&needle), "{needle}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let out = Outcome {
            metrics: vec![("setup_s".into(), "s", 0.25)],
            summary: Vec::new(),
            ops: Ops {
                attempted: 3,
                errors: vec!["x: y".into()],
            },
            spans: Vec::new(),
        };
        assert_eq!(
            render(&out),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
