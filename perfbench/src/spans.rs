//! Benchmark-side spans around each call into a layer.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. A span's self time is its duration minus the part of its
//! interval covered by its child spans.
//!
//! Spans are timed on this process's CPU-time clock, not the wall
//! clock. Every workload is one thread of computation without I/O or
//! sleeps, so on an idle host the two clocks agree; CPU time leaves out
//! the time the guest scheduler gives the CPU to other processes and
//! the time the hypervisor takes the virtual CPU away (steal time). With
//! a busy loop pinned to the same CPU, a `certify` pass read 2.70 s of
//! wall time and 1.35 s of CPU time, the same as alone.

use crate::gauge::{Gauge, PassProbe};
use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};
use std::fmt::Write as _;

/// CPU time used so far by this process (all its threads), in
/// nanoseconds, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
///
/// # Panics
///
/// If the clock cannot be read, which Linux rules out for this clock.
pub fn cpu_now_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s
    // on Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is not negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("CPU time is not negative");
    secs * 1_000_000_000 + nanos
}

/// One recorded span. Times are CPU-time nanoseconds since the tracer
/// started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// Layer call (e.g. `sim.run`) or grouping (`pass`, `bench`).
    pub name: &'static str,
    /// What the call worked on (a benchmark name), or empty.
    pub label: &'static str,
    /// Start, CPU-time nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, CPU-time nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`].
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    start: u64,
    id: Option<usize>,
}

/// Times layer calls and, while enabled, records them as spans.
///
/// Timing is always taken (the end-to-end metrics need it); recording
/// is what a traced run adds. While recording is off, layer calls inside
/// a span named `pass` give the [`Gauge`], if any, its chance to probe.
pub struct Tracer {
    enabled: bool,
    origin: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    names: Vec<&'static str>,
    gauge: Option<Gauge>,
}

impl Tracer {
    /// A tracer whose spans start at zero now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: cpu_now_ns(),
            spans: Vec::new(),
            open: Vec::new(),
            names: Vec::new(),
            gauge: None,
        }
    }

    /// Probe host contention with `gauge` during untraced passes.
    pub fn with_gauge(mut self, gauge: Gauge) -> Self {
        self.gauge = Some(gauge);
        self
    }

    /// The gauge, if any.
    pub fn gauge(&self) -> Option<&Gauge> {
        self.gauge.as_ref()
    }

    /// Close the gauge's view of the pass just ended.
    pub fn end_pass(&mut self) -> PassProbe {
        self.gauge.as_mut().map(Gauge::end_pass).unwrap_or_default()
    }

    /// Turn recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span named `name` on `label`.
    pub fn begin(&mut self, name: &'static str, label: &'static str) -> Open {
        if !self.enabled && self.names.first() == Some(&"pass") {
            if let Some(gauge) = &mut self.gauge {
                gauge.boundary();
            }
        }
        self.names.push(name);
        let start = cpu_now_ns();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name,
                label,
                start_ns: start - self.origin,
                end_ns: start - self.origin,
            });
            self.open.push(id);
            id
        });
        Open { start, id }
    }

    /// Close `span` and return its duration in CPU seconds.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order (a bug in the
    /// benchmark).
    pub fn end(&mut self, span: Open) -> f64 {
        let end = cpu_now_ns();
        self.names.pop();
        if let Some(id) = span.id {
            assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
            self.spans[id].end_ns = end - self.origin;
        }
        (end - span.start) as f64 * 1e-9
    }
}

/// Render `spans` as one JSON object per line, tagged with `run_id`.
pub fn to_jsonl(spans: &[Span], run_id: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run_id\":\"{run_id}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.label, s.start_ns, s.end_ns
        );
    }
    out
}

/// Self time of every span in `spans`, in nanoseconds, indexed like the
/// slice. Children are the spans whose `parent` is a span's `id`; only
/// the part of a child's interval inside its parent counts, and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let pos: BTreeMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| pos.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time in seconds per `(name, label)`.
pub type SelfTimes = BTreeMap<(&'static str, &'static str), f64>;

/// Total self time in seconds per `(name, label)` over `spans`.
pub fn self_seconds_by_call(spans: &[Span]) -> SelfTimes {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.name, s.label)).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Total self time in seconds of the spans named `name` (any label).
pub fn self_seconds(by_call: &SelfTimes, name: &str) -> f64 {
    by_call
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            label: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 90),
            span(3, Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 40, 70),
            span(3, Some(0), 90, 130),
        ];
        // Covered: [10, 70) and [90, 100).
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn a_slice_without_its_parent_keeps_full_duration() {
        let spans = [span(5, Some(4), 10, 20), span(6, Some(5), 12, 15)];
        assert_eq!(self_times(&spans), vec![7, 3]);
    }

    #[test]
    fn cpu_clock_advances_with_computation() {
        // Other tests run on other threads of this process and add to
        // its CPU time, so only the lower bound is checked.
        let t0 = cpu_now_ns();
        let mut x = 1u64;
        while cpu_now_ns() < t0 + 20_000_000 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(cpu_now_ns() >= t0 + 20_000_000);
    }

    #[test]
    fn tracer_records_nesting_only_while_enabled() {
        let mut t = Tracer::new(true);
        let outer = t.begin("pass", "");
        let inner = t.begin("sim.run", "BFS");
        assert!(t.end(inner) >= 0.0);
        t.set_enabled(false);
        let skipped = t.begin("core.run", "BFS");
        let _ = t.end(skipped);
        t.set_enabled(true);
        let _ = t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_call = self_seconds_by_call(spans);
        assert_eq!(by_call.len(), 2);
        assert!(self_seconds(&by_call, "sim.run") <= spans[1].duration_ns() as f64 * 1e-9);
        let jsonl = to_jsonl(spans, "r1");
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":0,\"name\":\"sim.run\",\"label\":\"BFS\""));
    }
}
