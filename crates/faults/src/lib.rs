//! # warped-faults
//!
//! Fault models and Monte-Carlo injection campaigns validating
//! Warped-DMR's analytic coverage (paper §3.3 / Fig. 9a) with *observed*
//! detection rates:
//!
//! * [`model::FaultModel`] — single-event transient bit flips and
//!   permanent stuck-at faults on individual physical SIMT lanes,
//!   implementing [`warped_core::FaultOracle`].
//! * [`injector::ExecutionSampler`] — reservoir-samples real issue events
//!   from a profiling run so transients are injected where computation
//!   actually happened.
//! * [`resilient`] — the one campaign engine: a chunked Monte-Carlo
//!   loop (golden profile, `seed ^ chunk` seeding, per-chunk panic
//!   isolation with retries, an fsynced checkpoint [`journal`]) with two
//!   projections. [`resilient_campaign`] classifies each trial into the
//!   masked / detected / SDC / hang taxonomy ([`outcome`]), including
//!   checker-internal fault sites ([`model::CheckerFault`]);
//!   [`detection_campaign`] runs the detection simulation alone, for
//!   Warped-DMR or the DMTR baseline (demonstrating the hidden-error
//!   problem of core affinity, §3.2).
//! * [`campaign`] — the vocabulary both projections share:
//!   [`Protection`], [`CampaignResult`] and the default geometry.

pub mod campaign;
pub mod injector;
pub mod journal;
pub mod model;
pub mod outcome;
pub mod resilient;

pub use campaign::{CampaignResult, Protection};
pub use injector::ExecutionSampler;
pub use journal::{ChunkCounts, ChunkRecord, Journal, JournalError, JournalHeader};
pub use model::{CheckerFault, CompoundFault, FaultModel};
pub use outcome::{wilson_interval, TrialOutcome};
pub use resilient::{
    detection_campaign, resilient_campaign, CampaignError, FaultSiteClass, ForcedPanic,
    ResilientOptions, ResilientReport,
};
