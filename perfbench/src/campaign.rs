//! `fault-campaign`: `resilient_campaign` on the campaign benchmarks ×
//! every fault-site class, at Tiny scale on the 4-SM chip `warped
//! campaign` uses, with one worker thread and no checkpoint. Each
//! benchmark is also run once bare and once protected, fault-free, as
//! the per-trial reference cost.

use crate::spans::{self_seconds, SelfTimes, Tracer};
use crate::suite::{accuracy, bare_and_protected, build_seeded, sim_core_layers, BenchCounts};
use crate::{Layers, Ops, Pass, Workload};
use warped::dmr::DmrConfig;
use warped::experiments::faults_exp::CAMPAIGN_BENCHMARKS;
use warped::experiments::ExperimentConfig;
use warped::faults::{resilient_campaign, FaultSiteClass, ResilientOptions, TrialOutcome};
use warped::kernels::{self, Benchmark, WorkloadSize};
use warped::sim::GpuConfig;

/// Trials per (benchmark, fault-site class) campaign.
const TRIALS: u32 = 24;

/// Outcome counts of one pass, in [`TrialOutcome::ALL`] order.
type Outcomes = [u64; 4];

/// The `fault-campaign` workload.
pub struct FaultCampaign {
    gpu: GpuConfig,
    dmr: DmrConfig,
    opts: ResilientOptions,
    seed: u64,
    benches: Vec<(Benchmark, kernels::Workload)>,
    counts: Vec<BenchCounts>,
    trials: u64,
    skipped: u64,
    retries: u64,
    outcomes: Outcomes,
}

impl Workload for FaultCampaign {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        // The default options journal nothing: no checkpoint, no resume.
        let opts = ResilientOptions::default().with_threads(1);
        Ok(FaultCampaign {
            gpu: ExperimentConfig::quick().gpu,
            dmr: DmrConfig::default(),
            opts,
            seed,
            benches: build_seeded(&CAMPAIGN_BENCHMARKS, WorkloadSize::Tiny, seed, tracer)?,
            counts: Vec::new(),
            trials: 0,
            skipped: 0,
            retries: 0,
            outcomes: [0; 4],
        })
    }

    fn pass(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Pass, String> {
        let mut counts = Vec::new();
        let mut fingerprint = Vec::new();
        let (mut trials, mut skipped, mut retries) = (0, 0, 0);
        let mut outcomes: Outcomes = [0; 4];
        let mut campaign_s = 0.0;
        for (b, w) in &self.benches {
            let bench = tracer.begin("bench", b.name());
            if let Some((c, _)) = bare_and_protected(tracer, ops, *b, w, &self.gpu, &self.dmr) {
                fingerprint.extend(c.fingerprint());
                counts.push(c);
            }
            for class in FaultSiteClass::ALL {
                let span = tracer.begin("faults.campaign", b.name());
                let report = resilient_campaign(
                    w, &self.gpu, &self.dmr, class, TRIALS, self.seed, &self.opts,
                );
                campaign_s += tracer.end(span);
                let what = format!("campaign {b} {class}");
                let r = match report {
                    Ok(r) => r,
                    Err(e) => {
                        ops.record(&what, Err(e.to_string()));
                        continue;
                    }
                };
                let res = &r.result;
                let by_class = TrialOutcome::ALL.map(|o| u64::from(res.count(o)));
                let classified: u64 = by_class.iter().sum();
                let result = if res.skipped > 0 || !r.failed_chunks.is_empty() {
                    Err(format!("{} trials skipped", res.skipped))
                } else if res.trials != TRIALS || classified != u64::from(TRIALS) {
                    Err(format!("{classified} of {TRIALS} trials classified"))
                } else {
                    Ok(())
                };
                ops.record(&what, result);
                trials += u64::from(res.trials);
                skipped += u64::from(res.skipped);
                retries += u64::from(r.retries_used);
                for (sum, n) in outcomes.iter_mut().zip(by_class) {
                    *sum += n;
                }
                fingerprint.extend(by_class);
            }
            let _ = tracer.end(bench);
        }
        if trials == 0 {
            return Err("no campaign trial was classified".into());
        }
        let pass = Pass {
            work_per_s: trials as f64 / campaign_s,
            coverage_err_pp: accuracy(&counts).0,
            fingerprint,
        };
        self.counts = counts;
        (self.trials, self.skipped, self.retries) = (trials, skipped, retries);
        self.outcomes = outcomes;
        Ok(pass)
    }

    fn layers(&self, t: &SelfTimes) -> Result<Layers, String> {
        let mut v = sim_core_layers(&self.counts, t)?;
        let tiny_run_ms = 1e3 * self_seconds(t, "core.run") / self.counts.len().max(1) as f64;
        let campaign_s = self_seconds(t, "faults.campaign");
        let ms_per_trial = 1e3 * campaign_s / self.trials as f64;
        v.extend([
            ("kernels.check_s".into(), self_seconds(t, "kernels.check")),
            ("sim.tiny_run_ms".into(), tiny_run_ms),
            ("faults.campaign_s".into(), campaign_s),
            ("faults.ms_per_trial".into(), ms_per_trial),
            (
                "faults.overhead_ms_per_trial".into(),
                ms_per_trial - 2.0 * tiny_run_ms,
            ),
            ("faults.trials".into(), self.trials as f64),
            ("faults.skipped".into(), self.skipped as f64),
            ("faults.retries".into(), self.retries as f64),
        ]);
        for (o, n) in TrialOutcome::ALL.iter().zip(self.outcomes) {
            v.push((format!("faults.outcome.{}", o.as_str()), n as f64));
        }
        Ok(v)
    }
}
