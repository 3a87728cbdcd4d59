//! `perfbench` — the end-to-end benchmark of the SciDock pipeline.
//!
//! One command runs the real eight-activity workflow (Babel → … →
//! AutoDock 4 / Vina) on one of four seeded workloads, checks every run's
//! output against a reference, and prints its metrics by name and unit:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload screen-kernel --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with every probe
//! off. With `--trace 1` it runs one untimed-probe round and one round with
//! telemetry attached and activity functions wrapped, and prints the
//! per-layer breakdown instead. The benchmark reaches the program only
//! through public functions and public config fields.

pub mod check;
pub mod gen;
pub mod probe;
pub mod serve;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use provenance::{steering, ProvenanceStore};

use check::Digests;
use stats::{median, quantile, ratio};
use workload::{Plan, Probe, Round, Sizes, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the input generator.
    pub seed: u64,
    /// Measured seconds: timed rounds start while the next one is expected
    /// to end within this budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed one.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for durable stores and grid caches; removed at
    /// the end.
    pub workdir: PathBuf,
    /// Corrupt the reference digests (the output check's own test).
    pub tamper_reference: bool,
}

impl Options {
    /// Full-size options for `workload`, scratch under `.bench_build`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::full(workload),
            workdir: Path::new(".bench_build").join(format!("perfbench-{}", std::process::id())),
            tamper_reference: false,
        }
    }
}

/// Load the benchmark generates, for the `≤ nproc` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadShape {
    /// Threads that generate load (the one submitting runs or campaigns).
    pub generator_threads: usize,
    /// Connections the benchmark opens or makes the program open to
    /// itself (SDC1 clients, SDW1 workers).
    pub connections: usize,
}

impl LoadShape {
    /// The load shape of workload `w`.
    pub fn of(w: Workload) -> LoadShape {
        match w {
            Workload::ScreenKernel | Workload::IngestDurable => {
                LoadShape { generator_threads: 1, connections: 0 }
            }
            Workload::DistWire => LoadShape { generator_threads: 1, connections: w.slots() },
            Workload::ServeTenants => LoadShape { generator_threads: 1, connections: 1 },
        }
    }
}

/// Activity busy time against the slots available to it, from a traced
/// round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotBudget {
    /// Σ seconds inside activity functions.
    pub busy_s: f64,
    /// Slots × `tet_s`.
    pub capacity_s: f64,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Activations plus checked runs or campaigns.
    pub attempted: u64,
    /// Unrecovered activations plus runs or campaigns failing their check.
    pub failed: u64,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Load generated.
    pub load: LoadShape,
    /// Traced runs only: activity busy time against slot capacity.
    pub slot_budget: Option<SlotBudget>,
}

enum Reference {
    OneShot(Digests),
    Serve(BTreeMap<String, Digests>),
}

impl Reference {
    fn of(plan: &Plan, tamper: bool) -> Reference {
        let t = |d: Digests| if tamper { d.tampered() } else { d };
        match plan.workload {
            Workload::ServeTenants => Reference::Serve(
                serve::reference(plan).into_iter().map(|(k, d)| (k, t(d))).collect(),
            ),
            _ => Reference::OneShot(t(workload::oneshot_reference(plan))),
        }
    }
}

fn round(plan: &Plan, reference: &Reference, probe: &Probe, dir: &Path, seed: u64) -> Round {
    match reference {
        Reference::OneShot(d) => workload::oneshot_round(plan, *d, probe, dir),
        Reference::Serve(m) => serve::round(plan, m, probe, dir, seed),
    }
}

/// Post-round work on a round's store — the paper's analysis, a
/// checkpoint, reopening the durable store — as samples, so a run can pool
/// them over all its rounds.
struct Tail {
    analysis_s: Vec<f64>,
    query1_ms: Vec<f64>,
    query2_ms: Vec<f64>,
    export_ms: Vec<f64>,
    page_hit_ratio: f64,
    checkpoint_ms: f64,
    reopen_s: Vec<f64>,
    reopen_ok: bool,
}

const QUERY1: &str = "SELECT a.tag, \
       min(extract('epoch' from (t.endtime-t.starttime))), \
       max(extract('epoch' from (t.endtime-t.starttime))), \
       sum(extract('epoch' from (t.endtime-t.starttime))), \
       avg(extract('epoch' from (t.endtime-t.starttime))) \
     FROM hworkflow w, hactivity a, hactivation t \
     WHERE w.wkfid = a.wkfid AND a.actid = t.actid \
     GROUP BY a.tag ORDER BY a.tag";

const QUERY2: &str = "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir \
     FROM hworkflow w, hactivity a, hactivation t, hfile f \
     WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND t.taskid = f.taskid \
     AND f.fname LIKE '%.dlg' ORDER BY f.fname";

const MAX_REPEATS: usize = 40;

/// Repeat a short measurement at least `min` times and until the repeats
/// add up to `min_s` seconds (at most [`MAX_REPEATS`]), so its median is
/// steady however short one repeat is.
fn more(samples_s: &[f64], min: usize, min_s: f64) -> bool {
    let n = samples_s.len();
    n < min || (n < MAX_REPEATS && samples_s.iter().sum::<f64>() < min_s)
}

/// Seconds of analysis and of reopening measured after each round.
const TAIL_S: f64 = 0.05;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn tail(store: Arc<ProvenanceStore>, dir: &Path, ligands: &[&str]) -> Tail {
    let (mut total, mut q1, mut q2, mut ex) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while more(&total, 2, TAIL_S) {
        let t = Instant::now();
        let t1 = Instant::now();
        std::hint::black_box(store.query_rows(QUERY1, &[]).expect("query 1"));
        q1.push(ms_since(t1));
        let t2 = Instant::now();
        std::hint::black_box(store.query_rows(QUERY2, &[]).expect("query 2"));
        q2.push(ms_since(t2));
        let results = scidock::analysis::results_from_provenance(&store);
        let mut engines: Vec<&str> = results.iter().map(|r| r.engine.as_str()).collect();
        engines.sort_unstable();
        engines.dedup();
        for e in engines {
            std::hint::black_box(scidock::table3(&results, e, ligands));
        }
        let t3 = Instant::now();
        std::hint::black_box(provenance::export_provn_canonical(&store));
        ex.push(ms_since(t3));
        total.push(t.elapsed().as_secs_f64());
    }
    let cs = store.cache_stats();
    let page_hit_ratio = ratio(cs.hits as f64, (cs.hits + cs.misses) as f64);
    let t = Instant::now();
    store.checkpoint();
    let checkpoint_ms = ms_since(t);
    let before = steering::status_summary(&store).expect("status summary");
    assert_eq!(Arc::strong_count(&store), 1, "the benchmark holds the last handle");
    drop(store);

    let mut reopen = Vec::new();
    let mut reopen_ok = true;
    while more(&reopen, 1, TAIL_S) {
        let t = Instant::now();
        let s = ProvenanceStore::open(dir).expect("reopen durable store");
        let after = steering::status_summary(&s).expect("status summary");
        reopen.push(t.elapsed().as_secs_f64());
        reopen_ok &= after == before;
    }
    Tail {
        analysis_s: total,
        query1_ms: q1,
        query2_ms: q2,
        export_ms: ex,
        page_hit_ratio,
        checkpoint_ms,
        reopen_s: reopen,
        reopen_ok,
    }
}

/// Run one benchmark invocation.
pub fn run(opts: &Options) -> Outcome {
    std::fs::create_dir_all(&opts.workdir).expect("create scratch dir");
    let plan = Plan::new(opts.workload, opts.sizes.clone(), opts.seed);
    let reference = Reference::of(&plan, opts.tamper_reference);
    let out =
        if opts.trace { traced(opts, &plan, &reference) } else { timed(opts, &plan, &reference) };
    let _ = std::fs::remove_dir_all(&opts.workdir);
    out
}

fn timed(opts: &Options, plan: &Plan, reference: &Reference) -> Outcome {
    let start = Instant::now();
    let (mut tet, mut rate, mut campaigns, mut setups, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut steer, mut attempted, mut failed) = (probe::SteerSamples::default(), 0u64, 0u64);
    let (mut analysis, mut reopen) = (Vec::new(), Vec::new());
    let mut spans: Vec<f64> = Vec::new();
    loop {
        let k = spans.len();
        let est = if spans.is_empty() { 0.0 } else { median(&spans) };
        if k >= opts.sizes.min_rounds && start.elapsed().as_secs_f64() + est > opts.seconds {
            break;
        }
        let t = Instant::now();
        let dir = opts.workdir.join(format!("round-{k}"));
        peak_rss_reset();
        let r = round(plan, reference, &Probe::off(), &dir, opts.seed * 1000 + k as u64);
        peaks.push(peak_rss_mb());
        tet.push(r.tet_s);
        rate.push(r.counts.docked as f64 / r.tet_s);
        campaigns.extend(&r.campaign_s);
        setups.push(r.setup_s);
        steer.extend(&r.steer);
        attempted += r.counts.activations + r.checked;
        failed += r.counts.unrecovered + r.mismatched;
        let tail = tail(r.store, &r.dir, &plan.picks.ligands);
        failed += u64::from(!tail.reopen_ok);
        analysis.extend(tail.analysis_s);
        reopen.extend(tail.reopen_s);
        let _ = std::fs::remove_dir_all(&dir);
        // spread the extra set-ups over the run, like every other sample
        let mut extra = Vec::new();
        while more(&extra, 1, TAIL_S) {
            extra.push(workload::setup_only(plan, &opts.workdir.join("setup")));
        }
        setups.extend(extra);
        spans.push(t.elapsed().as_secs_f64());
    }
    let n_rounds = spans.len();
    while more(&setups, 5, 1.0) {
        setups.push(workload::setup_only(plan, &opts.workdir.join("setup")));
    }
    let steer = steer.tick_ms;

    let metrics = vec![
        metric("tet_s", "s", median(&tet)),
        metric("pairs_per_s", "pairs/s", median(&rate)),
        metric("setup_s", "s", median(&setups)),
        metric("campaign_p50_s", "s", quantile(&campaigns, 0.5)),
        metric("campaign_p90_s", "s", quantile(&campaigns, 0.9)),
        metric("peak_rss_mb", "MiB", median(&peaks)),
    ];
    // reported, but not gated: they swing with the machine's memory
    // contention and store-lock waits far more than the bounds allow
    // (see README.md)
    let unbounded = [
        metric("steer_p50_ms", "ms", quantile(&steer, 0.5)),
        metric("steer_p90_ms", "ms", quantile(&steer, 0.9)),
        metric("analysis_s", "s", median(&analysis)),
        metric("reopen_s", "s", median(&reopen)),
        metric("failed_frac", "ratio", failed as f64 / attempted.max(1) as f64),
    ];
    let mut lines = stamp(opts, &plan.sizes);
    lines.push(format!(
        "# samples: {} rounds (tet_s {:.3?}), {} setups, {} results, {} steering ticks, \
         {} analyses, {} reopens",
        n_rounds,
        tet,
        setups.len(),
        campaigns.len(),
        steer.len(),
        analysis.len(),
        reopen.len(),
    ));
    for m in metrics.iter().chain(&unbounded) {
        lines.push(format!("{:<24} {:>14.6} {}", m.name, m.value, m.unit));
    }
    Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        lines,
        load: LoadShape::of(opts.workload),
        slot_budget: None,
    }
}

fn traced(opts: &Options, plan: &Plan, reference: &Reference) -> Outcome {
    let plain =
        round(plan, reference, &Probe::off(), &opts.workdir.join("plain"), opts.seed * 1000);
    let plain_tet = plain.tet_s;
    let plain_counts =
        (plain.counts.activations + plain.checked, plain.counts.unrecovered + plain.mismatched);
    drop(plain);
    let _ = std::fs::remove_dir_all(opts.workdir.join("plain"));
    let probe = Probe::traced();
    let r = round(plan, reference, &probe, &opts.workdir.join("traced"), opts.seed * 1000);
    let busy = r.busy.expect("traced round records busy time");
    let (steer, extras) = (r.steer, r.extras);
    let slots = opts.workload.slots() as f64;
    let tet = r.tet_s;
    let docked = r.counts.docked as f64;
    let activations = r.counts.activations as f64;
    let (attempted, failed_round) = (
        plain_counts.0 + r.counts.activations + r.checked,
        plain_counts.1 + r.counts.unrecovered + r.mismatched,
    );
    let tail = tail(r.store, &r.dir, &plan.picks.ligands);
    // read after the tail, so its explicit checkpoint is counted
    let snap = probe.tel.snapshot().expect("attached telemetry");
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    // histogram quantiles are bucket midpoints; mean and max are exact
    let hist = |n: &str| probe.tel.histogram(n).map_or((0.0, 0.0), |h| (h.mean(), h.max() as f64));
    let (wal_mean, wal_max) = hist("provstore.wal_append");
    let (commit_mean, _) = hist("provstore.group_commit");
    let failed = failed_round + u64::from(!tail.reopen_ok);

    let prep = busy.sum_s(&["babel", "prepligand", "prepreceptor"]);
    let grid = busy.sum_s(&["autogrid4"]);
    let search = busy.sum_s(&["autodock4", "vina"]);
    let params = busy.sum_s(&["autogpf4", "dockfilter", "autodpf4", "vinaconfig"]);
    let capacity = slots * tet;
    let unattributed = capacity - busy.total_s();
    let builds = counter("gridcache.miss") - counter("gridcache.persist.hit");
    let metrics = vec![
        metric("molkit.prep_busy_s", "s", prep),
        metric("docking.grid_busy_s", "s", grid),
        metric("docking.grid_builds", "count", builds),
        metric("docking.search_busy_s", "s", search),
        metric("docking.search_ms_per_pair", "ms", ratio(search * 1e3, docked)),
        metric("docking.evals_per_s", "1/s", ratio(counter("dock.evaluations"), search)),
        metric("scidock.params_busy_s", "s", params),
        metric(
            "scidock.gridcache_hit_ratio",
            "ratio",
            ratio(counter("gridcache.hit"), counter("gridcache.hit") + counter("gridcache.miss")),
        ),
        metric("cumulus.slot_util", "ratio", ratio(busy.total_s(), capacity)),
        metric("cumulus.overhead_us_per_act", "us", ratio(unattributed * 1e6, activations)),
        metric("cumulus.slot_gap_p50_us", "us", quantile(&busy.gaps_us, 0.5)),
        metric("cumulus.slot_gap_p90_us", "us", quantile(&busy.gaps_us, 0.9)),
        metric("provenance.wal_append_mean_us", "us", wal_mean / 1e3),
        metric("provenance.wal_append_max_us", "us", wal_max / 1e3),
        metric("provenance.group_commit_mean_ms", "ms", commit_mean / 1e6),
        metric("provenance.wal_appends", "count", counter("provstore.wal_appends")),
        metric("provenance.checkpoints", "count", counter("provstore.checkpoints")),
        metric("provenance.steer_status_ms", "ms", median(&steer.status_ms)),
        metric("provenance.steer_failures_ms", "ms", median(&steer.failures_ms)),
        metric("provenance.steer_pairs_ms", "ms", median(&steer.pairs_ms)),
        metric("provenance.query1_ms", "ms", median(&tail.query1_ms)),
        metric("provenance.query2_ms", "ms", median(&tail.query2_ms)),
        metric("provenance.export_ms", "ms", median(&tail.export_ms)),
        metric("provenance.analysis_s", "s", median(&tail.analysis_s)),
        metric("provenance.reopen_s", "s", median(&tail.reopen_s)),
        metric("provenance.checkpoint_ms", "ms", tail.checkpoint_ms),
        metric("provenance.page_cache_hit_ratio", "ratio", tail.page_hit_ratio),
        metric("telemetry.trace_overhead_frac", "ratio", (tet - plain_tet) / plain_tet),
    ];
    let mut lines = stamp(opts, &plan.sizes);
    lines.push(format!(
        "# traced round: tet_s {tet:.4} (untraced {plain_tet:.4}), {} slots, {} activity calls",
        slots, busy.calls
    ));
    for m in &metrics {
        lines.push(format!("{:<36} {:>14.6} {}", m.name, m.value, m.unit));
    }
    for (name, unit, value) in &extras {
        lines.push(format!("{name:<36} {value:>14.6} {unit}"));
    }
    lines.push(format!(
        "{:<36} {:>14.6} s   (slots x tet_s - activity busy: dispatch, commit, retries, idle)",
        "unattributed_s", unattributed
    ));
    Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        lines,
        load: LoadShape::of(opts.workload),
        slot_budget: Some(SlotBudget { busy_s: busy.total_s(), capacity_s: capacity }),
    }
}

/// The environment stamp printed with every result.
fn stamp(opts: &Options, sizes: &Sizes) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![format!(
        "# env: workload={} seed={} trace={} available_parallelism={nproc} commit={} \
         source_digest={:016x} profile={profile} sizes=[{}]",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        commit(),
        source_digest(),
        sizes.describe(opts.workload),
    )]
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of the sources the benchmark builds (`Cargo.*`, `crates/`,
/// `shims/`, `perfbench/src`): identifies the code measured when no
/// commit is known.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml" | "lock"))
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for d in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    check::fnv(&bytes)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the heap's free pages back to the kernel, then reset the kernel's
/// peak-RSS mark for this process (best effort), so the next peak is the
/// round's own and not what earlier rounds left cached in the allocator.
fn peak_rss_reset() {
    // SAFETY: malloc_trim only releases free memory; no Rust invariant is
    // involved.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The JSON result line.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
