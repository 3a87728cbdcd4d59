//! Measurement probes that reach the program only through its public
//! surface: a wrapper around every `Activity::func` of a workflow the
//! benchmark builds, and a steering client that times the
//! `provenance::steering` queries while a run is in flight.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cumulus::workflow::{ActivityFn, WorkflowDef};
use provenance::{steering, ProvenanceStore};

/// One executed activity function: which activity, on which thread, when.
#[derive(Debug, Clone, Copy)]
struct Call {
    act: usize,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects the calls of every wrapped activity function.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tags: Mutex<Vec<String>>,
    calls: Mutex<Vec<Call>>,
}

/// Busy time of the wrapped functions, folded per activity tag and per
/// executing thread.
#[derive(Debug, Clone, Default)]
pub struct Busy {
    /// Seconds inside activity functions, per tag.
    pub by_tag: BTreeMap<String, f64>,
    /// Calls, failed attempts included.
    pub calls: u64,
    /// Idle gaps between consecutive calls on one thread, microseconds,
    /// sorted.
    pub gaps_us: Vec<f64>,
}

impl Busy {
    /// Total seconds inside activity functions.
    pub fn total_s(&self) -> f64 {
        self.by_tag.values().sum()
    }

    /// Seconds inside the named activities.
    pub fn sum_s(&self, tags: &[&str]) -> f64 {
        tags.iter().filter_map(|t| self.by_tag.get(*t)).sum()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            tags: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        })
    }

    fn tag_index(&self, tag: &str) -> usize {
        let mut tags = self.tags.lock().expect("recorder tags poisoned");
        match tags.iter().position(|t| t == tag) {
            Some(i) => i,
            None => {
                tags.push(tag.to_string());
                tags.len() - 1
            }
        }
    }

    /// Wrap every activity function of `def` so its calls are recorded.
    /// The wrapped function's inputs, outputs and errors are untouched.
    pub fn instrument(self: &Arc<Self>, def: &mut WorkflowDef) {
        for activity in &mut def.activities {
            let act = self.tag_index(&activity.tag);
            let inner = Arc::clone(&activity.func);
            let rec = Arc::clone(self);
            let wrapped: ActivityFn = Arc::new(move |tuples, ctx| {
                let start = rec.epoch.elapsed().as_nanos() as u64;
                let out = inner(tuples, ctx);
                let end_ns = rec.epoch.elapsed().as_nanos() as u64;
                let thread = THREAD.with(|t| *t);
                let call = Call { act, thread, start_ns: start, end_ns };
                rec.calls.lock().expect("recorder calls poisoned").push(call);
                out
            });
            activity.func = wrapped;
        }
    }

    /// Fold and clear everything recorded so far.
    pub fn take(&self) -> Busy {
        let mut calls = std::mem::take(&mut *self.calls.lock().expect("recorder calls poisoned"));
        let tags = self.tags.lock().expect("recorder tags poisoned").clone();
        let mut busy = Busy { calls: calls.len() as u64, ..Default::default() };
        for c in &calls {
            let tag = tags[c.act].clone();
            *busy.by_tag.entry(tag).or_default() += (c.end_ns - c.start_ns) as f64 / 1e9;
        }
        calls.sort_by_key(|c| (c.thread, c.start_ns));
        busy.gaps_us = calls
            .windows(2)
            .filter(|w| w[0].thread == w[1].thread)
            .map(|w| w[1].start_ns.saturating_sub(w[0].end_ns) as f64 / 1e3)
            .collect();
        busy.gaps_us.sort_by(f64::total_cmp);
        busy
    }
}

/// Latencies of the three steering queries, milliseconds. One tick issues
/// all three, as a steering dashboard refreshing its view would.
#[derive(Debug, Clone, Default)]
pub struct SteerSamples {
    /// One whole tick: the three queries back to back.
    pub tick_ms: Vec<f64>,
    /// `steering::status_summary`.
    pub status_ms: Vec<f64>,
    /// `steering::failures_by_activity`.
    pub failures_ms: Vec<f64>,
    /// `steering::problematic_pairs(_, 1)`.
    pub pairs_ms: Vec<f64>,
}

impl SteerSamples {
    /// Append another run's samples.
    pub fn extend(&mut self, other: &SteerSamples) {
        self.tick_ms.extend(&other.tick_ms);
        self.status_ms.extend(&other.status_ms);
        self.failures_ms.extend(&other.failures_ms);
        self.pairs_ms.extend(&other.pairs_ms);
    }
}

fn timed_ms<T, E: std::fmt::Debug>(f: impl FnOnce() -> Result<T, E>) -> f64 {
    let t = Instant::now();
    f().expect("steering query on a live store");
    t.elapsed().as_secs_f64() * 1e3
}

/// Issue the three steering queries against `store` when `body` starts and
/// then every `tick` until it returns; return its result and the
/// latencies. The querying thread is joined before this returns.
pub fn with_steering<R>(
    store: &Arc<ProvenanceStore>,
    tick: Duration,
    body: impl FnOnce() -> R,
) -> (R, SteerSamples) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let steer = s.spawn(|| {
            let mut samples = SteerSamples::default();
            let mut next = Instant::now();
            loop {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(Duration::from_millis(5)));
                } else {
                    next += tick;
                    let t = Instant::now();
                    samples.status_ms.push(timed_ms(|| steering::status_summary(store)));
                    samples.failures_ms.push(timed_ms(|| steering::failures_by_activity(store)));
                    samples.pairs_ms.push(timed_ms(|| steering::problematic_pairs(store, 1)));
                    samples.tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            samples
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        (out, steer.join().expect("steering thread panicked"))
    })
}
