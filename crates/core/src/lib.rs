//! # warped-core
//!
//! **Warped-DMR** (Jeon & Annavaram, MICRO 2012): light-weight error
//! detection for GPGPU execution units through opportunistic dual modular
//! redundancy. This crate is the paper's contribution; it attaches to the
//! [`warped_sim`] simulator as an
//! [`IssueObserver`](warped_sim::IssueObserver).
//!
//! Two complementary mechanisms:
//!
//! * **Intra-warp DMR** ([`intra`]) — when a warp is partially utilized,
//!   idle SIMT lanes re-execute active lanes' instructions *in the same
//!   cycle*. Pairing happens inside a 4-lane SIMT cluster through the
//!   [`rfu`] (Register Forwarding Unit), whose MUX priority table is the
//!   paper's Table 1 (`priority(m, k) = m XOR k`). Zero timing cost.
//! * **Inter-warp DMR** ([`checker`]) — fully utilized warps are verified
//!   temporally: the Replay Checker compares the instruction in the RF
//!   stage with the one in DEC; different unit types co-execute the DMR
//!   copy for free, same types go through the [`replayq`] (paper
//!   Algorithm 1). ReplayQ-full and RAW-on-unverified conditions each cost
//!   a one-cycle stall. [`shuffle`] (lane shuffling) guarantees the copy
//!   runs on a *different* physical lane, exposing stuck-at faults.
//!
//! [`mapping`] implements the modified thread→core assignment (§4.2):
//! distributing threads round-robin across clusters raises intra-warp
//! pairing opportunities by ~10%.
//!
//! ```
//! use warped_core::{DmrConfig, WarpedDmr};
//! use warped_kernels::{Benchmark, WorkloadSize};
//! use warped_sim::GpuConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = GpuConfig::small();
//! let w = Benchmark::Scan.build(WorkloadSize::Tiny)?;
//! let mut dmr = WarpedDmr::new(DmrConfig::default(), &cfg);
//! let run = w.run_with(&cfg, &mut dmr)?;
//! w.check(&run)?; // DMR never perturbs architectural results
//! println!("coverage = {:.2}%", dmr.report().coverage_pct());
//! # Ok(())
//! # }
//! ```

pub mod checker;
pub mod comparator;
pub mod config;
pub mod diagnosis;
pub mod engine;
pub mod intra;
pub mod mapping;
pub mod replayq;
pub mod rfu;
pub mod sampling;
pub mod shuffle;

pub use comparator::{CompareStage, DetectedError, ErrorLog, FaultOracle, Judge, Judges, LaneSite};
pub use config::{DmrConfig, ThreadCoreMapping};
pub use diagnosis::{diagnose, Diagnosis};
pub use engine::{DmrReport, WarpedDmr};
pub use sampling::{SamplingConfig, SamplingDmr, SamplingReport};
