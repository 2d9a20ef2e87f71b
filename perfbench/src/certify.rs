//! `certify`: the bounded model check of the Replay Checker at
//! `DEFAULT_DEPTH`, plus the CFG, static coverage certificate and
//! analysis report of all 11 suite kernels. No simulation runs.

use crate::spans::{self_seconds, SelfTimes, Tracer};
use crate::suite::build_seeded;
use crate::{Layers, Ops, Pass, Workload, PAPER_COVERAGE_PCT};
use warped::analysis::{
    analyze, certify_coverage, model_check, Cfg, MaskFlowConfig, ModelCheckConfig, PredictConfig,
};
use warped::dmr::DmrConfig;
use warped::kernels::{self, Benchmark, WorkloadSize};

/// The `certify` workload.
pub struct Certify {
    mc: ModelCheckConfig,
    dmr: DmrConfig,
    flow: MaskFlowConfig,
    predict: PredictConfig,
    benches: Vec<(Benchmark, kernels::Workload)>,
    states: u64,
    transitions: u64,
    cert_states: u64,
}

impl Workload for Certify {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        Ok(Certify {
            mc: ModelCheckConfig::default(),
            dmr: DmrConfig::default(),
            flow: MaskFlowConfig::default(),
            predict: PredictConfig::default(),
            benches: build_seeded(&Benchmark::ALL, WorkloadSize::Full, seed, tracer)?,
            states: 0,
            transitions: 0,
            cert_states: 0,
        })
    }

    fn pass(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Result<Pass, String> {
        let span = tracer.begin("analysis.mc", "");
        let mc = model_check(&self.mc);
        let mc_s = tracer.end(span);
        let (states, transitions) = (mc.states(), mc.transitions());
        ops.record(
            "model check",
            if !mc.violations.is_empty() {
                Err(format!("{} violation(s)", mc.violations.len()))
            } else if mc.truncated {
                Err("truncated by the state budget".into())
            } else if states == 0 || transitions == 0 {
                Err("explored nothing".into())
            } else {
                Ok(())
            },
        );
        let mut fingerprint = vec![states, transitions];
        let mut bound_sum = 0.0;
        let mut cert_states = 0;
        for (b, w) in &self.benches {
            let bench = tracer.begin("bench", b.name());
            let span = tracer.begin("analysis.cert", b.name());
            let graph = Cfg::build(w.kernel());
            let cert =
                certify_coverage(w.kernel(), &graph, &self.dmr, w.block_threads(), &self.flow);
            let _ = tracer.end(span);
            ops.record(
                &format!("certificate {b}"),
                if cert.overflowed {
                    Err("abstract interpreter exceeded its budget".into())
                } else if !(0.0..=100.0).contains(&cert.bound_pct) {
                    Err(format!("bound {} outside 0..=100", cert.bound_pct))
                } else {
                    Ok(())
                },
            );
            bound_sum += cert.bound_pct;
            cert_states += cert.states;
            fingerprint.extend([cert.states, cert.bound_pct.to_bits()]);

            let span = tracer.begin("analysis.analyze", b.name());
            let report = analyze(w.kernel(), &self.predict);
            let _ = tracer.end(span);
            ops.record(
                &format!("analysis {b}"),
                if report.is_clean() {
                    Ok(())
                } else {
                    Err(format!("{} structural lint(s)", report.lints.len()))
                },
            );
            fingerprint.extend([report.warnings.len() as u64, report.pressure.len() as u64]);
            let _ = tracer.end(bench);
        }
        let pass = Pass {
            work_per_s: states as f64 / mc_s,
            coverage_err_pp: (bound_sum / self.benches.len() as f64 - PAPER_COVERAGE_PCT).abs(),
            fingerprint,
        };
        (self.states, self.transitions, self.cert_states) = (states, transitions, cert_states);
        Ok(pass)
    }

    fn layers(&self, t: &SelfTimes) -> Result<Layers, String> {
        if self.transitions == 0 {
            return Err("the model check stepped no transitions".into());
        }
        let mc_s = self_seconds(t, "analysis.mc");
        Ok(vec![
            ("analysis.mc_s".into(), mc_s),
            ("analysis.mc_states".into(), self.states as f64),
            ("analysis.mc_transitions".into(), self.transitions as f64),
            (
                "analysis.ns_per_transition".into(),
                mc_s * 1e9 / self.transitions as f64,
            ),
            ("analysis.cert_s".into(), self_seconds(t, "analysis.cert")),
            (
                "analysis.cert_abstract_states".into(),
                self.cert_states as f64,
            ),
            (
                "analysis.analyze_s".into(),
                self_seconds(t, "analysis.analyze"),
            ),
        ])
    }
}
