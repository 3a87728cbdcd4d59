//! The four workloads, what each one runs, and the one-shot round that
//! three of them share.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudsim::FailureModel;
use cumulus::distbackend::worker::WorkflowResolver;
use cumulus::workflow::{FileStore, WorkflowDef};
use cumulus::{Backend, DistBackend, DistConfig, LocalBackend, LocalConfig, Relation, Workflow};
use molkit::synth::{LigandParams, ReceptorParams};
use provenance::{DurableOptions, ProvenanceStore};
use scidock::{build_scidock, stage_inputs, DatasetParams, EngineMode, SciDockConfig};
use telemetry::Telemetry;

use crate::check::{self, Counts, Digests};
use crate::gen::{self, Picks};
use crate::probe::{self, Busy, Recorder, SteerSamples};

/// Steering tick: how often the steering client queries a live run.
pub const STEER_TICK: Duration = Duration::from_millis(100);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Kernel-bound: default search budget and structures on 1 local slot.
    ScreenKernel,
    /// Workflow-overhead-bound: many cheap activations into a durable store.
    IngestDurable,
    /// The distributed backend's master loop and wire protocol.
    DistWire,
    /// Many small campaigns from several tenants through the daemon.
    ServeTenants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ScreenKernel,
        Workload::IngestDurable,
        Workload::DistWire,
        Workload::ServeTenants,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScreenKernel => "screen-kernel",
            Workload::IngestDurable => "ingest-durable",
            Workload::DistWire => "dist-wire",
            Workload::ServeTenants => "serve-tenants",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Slots that execute activations: local threads, dist workers or
    /// daemon workers. `screen-kernel` keeps its one compute-bound slot
    /// below the machine's cores, so the benchmark's own threads and the
    /// host's other work do not take turns with the kernels on it.
    pub fn slots(self) -> usize {
        match self {
            Workload::ScreenKernel => 1,
            _ => 2,
        }
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Receptors per run (serve: the pool campaigns draw from).
    pub receptors: usize,
    /// Ligands per run (serve: the pool campaigns draw from).
    pub ligands: usize,
    /// Hg-carrying receptors among `receptors`.
    pub hg: usize,
    /// Serve: campaigns per round.
    pub campaigns: usize,
    /// Fewest timed rounds per run, whatever `--seconds` says.
    pub min_rounds: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub fn full(w: Workload) -> Sizes {
        let (receptors, ligands, hg, campaigns) = match w {
            Workload::ScreenKernel => (4, 8, 0, 0),
            Workload::IngestDurable => (48, 12, 1, 0),
            Workload::DistWire => (24, 8, 0, 0),
            Workload::ServeTenants => (24, 4, 0, 36),
        };
        Sizes { receptors, ligands, hg, campaigns, min_rounds: 3 }
    }

    /// Tiny sizes for the benchmark's own tests.
    pub fn smoke(w: Workload) -> Sizes {
        let (receptors, ligands, hg, campaigns) = match w {
            Workload::ScreenKernel => (2, 1, 0, 0),
            Workload::IngestDurable => (3, 2, 1, 0),
            Workload::DistWire => (2, 2, 0, 0),
            Workload::ServeTenants => (8, 2, 0, 6),
        };
        Sizes { receptors, ligands, hg, campaigns, min_rounds: 1 }
    }

    /// One-line description for the environment stamp.
    pub fn describe(&self, w: Workload) -> String {
        match w {
            Workload::ServeTenants => format!(
                "{} campaigns/round of 4x2 pairs from a {}x{} pool",
                self.campaigns, self.receptors, self.ligands
            ),
            _ => format!("{}x{} pairs ({} Hg receptors)", self.receptors, self.ligands, self.hg),
        }
    }
}

/// The search budget of the integration tests: small LGA/MC budgets and a
/// coarse grid.
pub fn fast_cfg() -> SciDockConfig {
    SciDockConfig {
        dock: docking::engine::DockConfig {
            ad4_runs: 1,
            lga: docking::search::LgaConfig { population: 6, generations: 4, ..Default::default() },
            mc: docking::search::McConfig { restarts: 2, steps: 3, ..Default::default() },
            grid_spacing: 1.5,
            box_edge: 14.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Small structures: 30–40 residue receptors, 8–14 heavy-atom ligands.
pub fn small_params() -> DatasetParams {
    DatasetParams {
        receptor: ReceptorParams { min_residues: 30, max_residues: 40, ..Default::default() },
        ligand: LigandParams { min_heavy: 8, max_heavy: 14, ..Default::default() },
        ..Default::default()
    }
}

/// Everything a workload runs, fixed by its name, sizes and seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// Engine mode of the SciDock workflow.
    pub mode: EngineMode,
    /// Workflow configuration (search budget, grid cache).
    pub cfg: SciDockConfig,
    /// Structure generation parameters.
    pub params: DatasetParams,
    /// Injected failures.
    pub failures: FailureModel,
    /// Retry budget per activation.
    pub retries: u32,
    /// What the seed picked.
    pub picks: Picks,
}

impl Plan {
    /// The plan of workload `w` at `sizes` for `seed`.
    pub fn new(w: Workload, sizes: Sizes, seed: u64) -> Plan {
        let (cfg, params) = match w {
            Workload::ScreenKernel => (SciDockConfig::default(), DatasetParams::default()),
            Workload::IngestDurable => (fast_cfg(), small_params()),
            Workload::DistWire | Workload::ServeTenants => (fast_cfg(), DatasetParams::default()),
        };
        let picks = gen::pick(seed, sizes.receptors, sizes.ligands, sizes.hg, &params);
        let failures = match w {
            Workload::IngestDurable => FailureModel {
                fail_rate: 0.08,
                hang_rate: 0.0,
                fail_at_fraction: 0.6,
                seed: picks.failure_seed,
            },
            _ => FailureModel::none(),
        };
        Plan {
            workload: w,
            sizes,
            mode: EngineMode::Adaptive,
            cfg,
            params,
            failures,
            retries: 5,
            picks,
        }
    }

    /// The SciDock workflow over `files`, with its docking telemetry routed
    /// to `tel` and its activity functions wrapped by `rec`.
    pub fn workflow_def(
        &self,
        files: Arc<FileStore>,
        tel: &Telemetry,
        rec: Option<&Arc<Recorder>>,
    ) -> WorkflowDef {
        let mut cfg = self.cfg.clone();
        cfg.dock.telemetry = tel.clone();
        let mut def = build_scidock(self.mode, &cfg, files);
        if let Some(rec) = rec {
            rec.instrument(&mut def);
        }
        def
    }
}

/// Per-round instrumentation: disabled for timed rounds, attached for the
/// traced one.
#[derive(Clone)]
pub struct Probe {
    /// Telemetry sink handed to the program through its config fields.
    pub tel: Telemetry,
    /// Activity-function wrapper.
    pub rec: Option<Arc<Recorder>>,
}

impl Probe {
    /// No instrumentation at all.
    pub fn off() -> Probe {
        Probe { tel: Telemetry::disabled(), rec: None }
    }

    /// Telemetry attached and every activity function wrapped.
    pub fn traced() -> Probe {
        Probe { tel: Telemetry::attached(), rec: Some(Recorder::new()) }
    }

    /// Durable-store options carrying this probe's telemetry.
    pub fn durable_options(&self) -> DurableOptions {
        DurableOptions { telemetry: self.tel.clone(), ..Default::default() }
    }
}

/// What one timed round measured.
pub struct Round {
    /// Seconds to set the round up.
    pub setup_s: f64,
    /// First dispatch → last result.
    pub tet_s: f64,
    /// Result latencies: submit → `Finished` of each campaign (serve), or
    /// run start → each docked pair's result (one-shot runs, whose whole
    /// input is one campaign).
    pub campaign_s: Vec<f64>,
    /// Activation accounting of the round's store.
    pub counts: Counts,
    /// Runs or campaigns checked, and how many of them failed the check.
    pub checked: u64,
    /// Checks failed.
    pub mismatched: u64,
    /// Steering query latencies during the round.
    pub steer: SteerSamples,
    /// The round's durable store, kept open for the analysis tail.
    pub store: Arc<ProvenanceStore>,
    /// Where that store lives.
    pub dir: PathBuf,
    /// Activity-function busy time (traced rounds).
    pub busy: Option<Busy>,
    /// Workload-specific per-layer extras (name, unit, value), printed in
    /// the traced report only.
    pub extras: Vec<(&'static str, &'static str, f64)>,
}

/// The reference a one-shot run must reproduce: the same seeded input run
/// through `LocalBackend` into an in-memory store on the reference engine.
pub fn oneshot_reference(plan: &Plan) -> Digests {
    let files = Arc::new(FileStore::new());
    let input = stage_inputs(&plan.picks.dataset(&plan.params), &files, &plan.cfg.expdir);
    let def = plan.workflow_def(Arc::clone(&files), &Telemetry::disabled(), None);
    let store = Arc::new(ProvenanceStore::new());
    let backend = LocalBackend::new(
        LocalConfig::new()
            .with_threads(plan.workload.slots())
            .with_failures(plan.failures)
            .with_max_retries(plan.retries),
    );
    let out =
        backend.run(&Workflow::new(def, input).with_files(files), &store).expect("reference run");
    Digests::of_run(&out.outputs, &store)
}

/// A one-shot round, set up and ready to run.
struct OneShot {
    workflow: Workflow,
    store: Arc<ProvenanceStore>,
    dir: PathBuf,
    backend: Box<dyn Backend>,
}

fn dist_resolver(plan: &Plan, probe: &Probe) -> WorkflowResolver {
    let plan = plan.clone();
    let probe = probe.clone();
    Arc::new(move |_spec: &str| {
        Some(plan.workflow_def(Arc::new(FileStore::new()), &probe.tel, probe.rec.as_ref()))
    })
}

/// Generate the dataset, stage it, open a fresh durable store and build
/// the backend.
fn setup_oneshot(plan: &Plan, probe: &Probe, dir: &Path) -> OneShot {
    let ds = plan.picks.dataset(&plan.params);
    let files = Arc::new(FileStore::new());
    let input: Relation = stage_inputs(&ds, &files, &plan.cfg.expdir);
    let def = plan.workflow_def(Arc::clone(&files), &probe.tel, probe.rec.as_ref());
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(
        ProvenanceStore::open_with(dir, probe.durable_options()).expect("open durable store"),
    );
    let backend: Box<dyn Backend> = match plan.workload {
        Workload::DistWire => Box::new(DistBackend::new(
            DistConfig::new()
                .with_workers(plan.workload.slots())
                .with_max_in_flight(1)
                .with_resolver(dist_resolver(plan, probe))
                .with_spec(format!("perfbench:{}", plan.workload.name()))
                .with_failures(plan.failures)
                .with_max_retries(plan.retries)
                .with_telemetry(probe.tel.clone()),
        )),
        _ => Box::new(LocalBackend::new(
            LocalConfig::new()
                .with_threads(plan.workload.slots())
                .with_failures(plan.failures)
                .with_max_retries(plan.retries)
                .with_telemetry(probe.tel.clone()),
        )),
    };
    OneShot {
        workflow: Workflow::new(def, input).with_files(files),
        store,
        dir: dir.into(),
        backend,
    }
}

/// Time one set-up that is thrown away (extra samples for `setup_s`).
pub fn setup_only(plan: &Plan, dir: &Path) -> f64 {
    let t = Instant::now();
    match plan.workload {
        Workload::ServeTenants => crate::serve::setup_only(plan, dir),
        _ => drop(setup_oneshot(plan, &Probe::off(), dir)),
    }
    let s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    s
}

/// Set up, run under the steering client, and check one one-shot round.
pub fn oneshot_round(plan: &Plan, reference: Digests, probe: &Probe, dir: &Path) -> Round {
    let t = Instant::now();
    let one = setup_oneshot(plan, probe, dir);
    let setup_s = t.elapsed().as_secs_f64();

    let (out, steer) =
        probe::with_steering(&one.store, STEER_TICK, || one.backend.run(&one.workflow, &one.store));
    let out = out.expect("workflow run");
    let busy = probe.rec.as_ref().map(|r| r.take());

    let ok = Digests::of_run(&out.outputs, &one.store) == reference;
    let counts = check::counts(&one.store, plan.retries);
    let mut extras = Vec::new();
    if let Some(snap) = probe.tel.snapshot() {
        if plan.workload == Workload::DistWire {
            let wakeups = snap.counter("dist.master.wakeups").unwrap_or(0);
            extras.push(("cumulus.dist.master_wakeups", "count", wakeups as f64));
        } else if let Some(h) = probe.tel.histogram("pool.queue_wait") {
            extras.push(("cumulus.pool.queue_wait_p50_ms", "ms", h.quantile(0.5) / 1e6));
        }
    }
    Round {
        setup_s,
        tet_s: out.total_seconds,
        campaign_s: check::result_times(&one.store),
        counts,
        checked: 1,
        mismatched: u64::from(!ok),
        steer,
        store: one.store,
        dir: one.dir,
        busy,
        extras,
    }
}
