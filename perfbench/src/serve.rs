//! The `serve-tenants` workload: one generator thread on one SDC1
//! connection keeps two campaigns outstanding for each of three tenants, in
//! a closed loop, against an in-process daemon.
//!
//! Campaign specs name a balanced group of 4 pool receptors and a pair of
//! pool ligands (`g<group>l<pair>`), so campaigns overlap in receptors and
//! the persistent grid cache is shared across them, and every spec has a
//! solo reference run to check campaigns against.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::serve::{CampaignResolver, CampaignState, Daemon, ServeClient, ServeConfig};
use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, LocalConfig, SubmitOutcome, Workflow};
use provenance::{ProvenanceStore, Value, WorkflowId};
use scidock::dataset::Dataset;
use scidock::stage_inputs;

use crate::check::{self, fnv, tuples_digest, Digests};
use crate::gen::Rng;
use crate::probe;
use crate::stats::{median, ratio};
use crate::workload::{Plan, Probe, Round, STEER_TICK};

/// Tenants sharing the daemon.
pub const TENANTS: usize = 3;
/// Campaigns each tenant keeps outstanding.
pub const OUTSTANDING: usize = 2;
/// Pause between status sweeps that change nothing. Status is polled (the
/// protocol has no completion push); polling back to back would keep the
/// client and its connection handler busy on the cores the two workers
/// run on. 5 ms is under 1% of a campaign's median latency.
const POLL: Duration = Duration::from_millis(5);

/// Pool indices (stratum order) of each balanced group of 4 receptors:
/// snake-drafted so every group holds one receptor from each size quarter.
fn receptor_groups(n: usize) -> Vec<Vec<usize>> {
    let groups = n / 4;
    let mut out = vec![Vec::new(); groups];
    for k in 0..4 {
        for (g, group) in out.iter_mut().enumerate() {
            group.push(if k % 2 == 0 { k * groups + g } else { (k + 1) * groups - 1 - g });
        }
    }
    out
}

/// Ligand pairs: the smallest with the largest, and so on inwards.
fn ligand_pairs(n: usize) -> Vec<[usize; 2]> {
    (0..n / 2).map(|p| [p, n - 1 - p]).collect()
}

/// Every campaign spec of a plan.
pub fn specs(plan: &Plan) -> Vec<String> {
    let (g, l) =
        (receptor_groups(plan.sizes.receptors).len(), ligand_pairs(plan.sizes.ligands).len());
    (0..g).flat_map(|g| (0..l).map(move |l| format!("g{g}l{l}"))).collect()
}

/// The workflow a spec names: its receptors and ligands drawn from `pool`,
/// staged into a fresh file store. The workflow tag carries the spec, so a
/// campaign's rows can be found in the shared store.
fn campaign_workflow(plan: &Plan, pool: &Dataset, spec: &str, probe: &Probe) -> Option<Workflow> {
    let (g, l) = spec.strip_prefix('g')?.split_once('l')?;
    let group = receptor_groups(pool.receptors.len()).get(g.parse::<usize>().ok()?)?.clone();
    let pair = *ligand_pairs(pool.ligands.len()).get(l.parse::<usize>().ok()?)?;
    let ds = Dataset {
        receptors: group.iter().map(|&i| pool.receptors[i].clone()).collect(),
        ligands: pair.iter().map(|&i| pool.ligands[i].clone()).collect(),
        params: pool.params.clone(),
    };
    let files = Arc::new(FileStore::new());
    let input = stage_inputs(&ds, &files, &plan.cfg.expdir);
    let mut def = plan.workflow_def(Arc::clone(&files), &probe.tel, probe.rec.as_ref());
    def.tag = format!("SciDock/{spec}");
    Some(Workflow::new(def, input).with_files(files))
}

/// Solo reference of every spec: each campaign run alone through
/// `LocalBackend` into a fresh in-memory store.
pub fn reference(plan: &Plan) -> BTreeMap<String, Digests> {
    let pool = plan.picks.dataset(&plan.params);
    specs(plan)
        .into_iter()
        .map(|spec| {
            let wf = campaign_workflow(plan, &pool, &spec, &Probe::off()).expect("known spec");
            let store = Arc::new(ProvenanceStore::new());
            let backend = LocalBackend::new(
                LocalConfig::new()
                    .with_threads(plan.workload.slots())
                    .with_max_retries(plan.retries),
            );
            let out = backend.run(&wf, &store).expect("solo reference run");
            let d = Digests {
                tuples: tuples_digest(&out.final_output().tuples),
                provn: fnv(provenance::export_provn_canonical(&store).as_bytes()),
            };
            (spec, d)
        })
        .collect()
}

struct Served {
    daemon: Daemon,
    client: ServeClient,
    store: Arc<ProvenanceStore>,
}

/// Generate the pool, open a fresh durable store and grid-cache directory,
/// start the daemon and connect the client.
fn setup(plan: &Plan, probe: &Probe, dir: &Path) -> Served {
    let pool = Arc::new(plan.picks.dataset(&plan.params));
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(
        ProvenanceStore::open_with(dir.join("store"), probe.durable_options())
            .expect("open durable store"),
    );
    let grid_dir = dir.join("grids");
    std::fs::create_dir_all(&grid_dir).expect("grid cache dir");
    let (retries, slots) = (plan.retries, plan.workload.slots());
    let mut plan = plan.clone();
    plan.cfg.grid_cache_dir = Some(grid_dir);
    let probe2 = probe.clone();
    let resolver: CampaignResolver =
        Arc::new(move |spec: &str| campaign_workflow(&plan, &pool, spec, &probe2));
    let daemon = Daemon::start(
        ServeConfig::new()
            .with_workers(slots)
            .with_steering_tick(STEER_TICK)
            .with_max_retries(retries)
            .with_telemetry(probe.tel.clone()),
        resolver,
        Arc::clone(&store),
    )
    .expect("daemon starts");
    let client = ServeClient::connect(daemon.addr()).expect("connect to daemon");
    Served { daemon, client, store }
}

/// Time-only set-up, torn down at once.
pub fn setup_only(plan: &Plan, dir: &Path) {
    let s = setup(plan, &Probe::off(), dir);
    drop(s.client);
    s.daemon.shutdown();
}

struct Live {
    tenant: usize,
    id: u64,
    spec: String,
    first_attempt: Instant,
}

struct Due {
    tenant: usize,
    spec: String,
    first_attempt: Option<Instant>,
    not_before: Instant,
}

/// Client-side observations of one round.
#[derive(Default)]
struct Load {
    latency_s: Vec<f64>,
    by_tenant: Vec<Vec<f64>>,
    admit_wait_s: Vec<f64>,
    submit_rtt_ms: Vec<f64>,
    status_rtt_ms: Vec<f64>,
    rejects: u64,
    ended_badly: u64,
    done: Vec<(u64, String)>,
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

/// The closed loop: each tenant keeps [`OUTSTANDING`] campaigns live until
/// its share of `total` has been submitted. Returns the observations and
/// the first-submit → last-finish time.
fn drive(client: &mut ServeClient, plan: &Plan, round_seed: u64, total: usize) -> (Load, f64) {
    // every spec once per cycle, in a seeded order: rounds carry the same
    // mix of campaigns, so their work does not vary with the draw
    let mut rng = Rng::new(round_seed, 3);
    let mut order = specs(plan);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut drawn = 0;
    let mut load = Load { by_tenant: vec![Vec::new(); TENANTS], ..Default::default() };
    let mut budget: Vec<usize> =
        (0..TENANTS).map(|t| total / TENANTS + usize::from(t < total % TENANTS)).collect();
    let t0 = Instant::now();
    let mut due: VecDeque<Due> = VecDeque::new();
    let mut next = |tenant: usize, budget: &mut Vec<usize>, due: &mut VecDeque<Due>| {
        if budget[tenant] > 0 {
            budget[tenant] -= 1;
            let spec = order[drawn % order.len()].clone();
            drawn += 1;
            due.push_back(Due { tenant, spec, first_attempt: None, not_before: Instant::now() });
        }
    };
    for tenant in 0..TENANTS {
        for _ in 0..OUTSTANDING {
            next(tenant, &mut budget, &mut due);
        }
    }
    let mut live: Vec<Live> = Vec::new();
    let mut last_finish = t0;
    let mut ended = 0;
    while ended < total {
        let mut progressed = false;
        for _ in 0..due.len() {
            let mut d = due.pop_front().expect("counted");
            let now = Instant::now();
            if now < d.not_before {
                due.push_back(d);
                continue;
            }
            let first = *d.first_attempt.get_or_insert(now);
            let tenant_name = format!("tenant-{}", d.tenant);
            let outcome =
                timed(&mut load.submit_rtt_ms, || client.submit(&tenant_name, 0, &d.spec))
                    .expect("submit");
            progressed = true;
            match outcome {
                SubmitOutcome::Accepted { id } => {
                    load.admit_wait_s.push(first.elapsed().as_secs_f64());
                    live.push(Live { tenant: d.tenant, id, spec: d.spec, first_attempt: first });
                }
                SubmitOutcome::Rejected { retry_after_ms, reason } => {
                    assert!(retry_after_ms > 0, "permanent reject: {reason}");
                    load.rejects += 1;
                    d.not_before = Instant::now() + Duration::from_millis(retry_after_ms);
                    due.push_back(d);
                }
            }
        }
        let mut i = 0;
        while i < live.len() {
            let st = timed(&mut load.status_rtt_ms, || client.status(live[i].id)).expect("status");
            match st.state {
                CampaignState::Pending | CampaignState::Running => i += 1,
                state => {
                    let c = live.swap_remove(i);
                    last_finish = Instant::now();
                    ended += 1;
                    progressed = true;
                    if state == CampaignState::Finished {
                        let s = c.first_attempt.elapsed().as_secs_f64();
                        load.latency_s.push(s);
                        load.by_tenant[c.tenant].push(s);
                        load.done.push((c.id, c.spec));
                    } else {
                        load.ended_badly += 1;
                    }
                    next(c.tenant, &mut budget, &mut due);
                }
            }
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
    (load, (last_finish - t0).as_secs_f64())
}

/// Check every finished campaign against its spec's solo reference: its
/// final output relation, and the canonical PROV-N of its `wkfid`. Returns
/// the number of campaigns that failed the check.
fn check_campaigns(
    client: &mut ServeClient,
    store: &ProvenanceStore,
    load: &Load,
    reference: &BTreeMap<String, Digests>,
) -> u64 {
    let mut bad = load.ended_badly;
    let mut per_spec: BTreeMap<&str, usize> = BTreeMap::new();
    for (id, spec) in &load.done {
        *per_spec.entry(spec).or_default() += 1;
        let (_, tuples) = client.results(*id).expect("results");
        if tuples_digest(&tuples) != reference[spec].tuples {
            bad += 1;
        }
    }
    for (spec, n) in per_spec {
        let rs = store
            .query_rows(
                "SELECT wkfid FROM hworkflow WHERE tag = ?",
                &[Value::from(format!("SciDock/{spec}").as_str())],
            )
            .expect("workflow lookup");
        let wkfs: Vec<i64> =
            rs.rows.iter().filter_map(|r| r[0].as_f64()).map(|f| f as i64).collect();
        let matching = wkfs
            .iter()
            .filter(|&&w| {
                let doc = provenance::export_provn_canonical_for(store, WorkflowId(w));
                fnv(doc.as_bytes()) == reference[spec].provn
            })
            .count();
        bad += n.abs_diff(matching) as u64;
    }
    bad
}

/// Set up, drive, and check one round of campaigns.
pub fn round(
    plan: &Plan,
    reference: &BTreeMap<String, Digests>,
    probe: &Probe,
    dir: &Path,
    round_seed: u64,
) -> Round {
    let t = Instant::now();
    let Served { daemon, mut client, store } = setup(plan, probe, dir);
    let setup_s = t.elapsed().as_secs_f64();

    let total = plan.sizes.campaigns;
    let ((load, tet_s), steer) =
        probe::with_steering(&store, STEER_TICK, || drive(&mut client, plan, round_seed, total));
    let busy = probe.rec.as_ref().map(|r| r.take());
    let mismatched = check_campaigns(&mut client, &store, &load, reference);
    drop(client);
    daemon.shutdown();

    let counts = check::counts(&store, plan.retries);
    let mut extras = Vec::new();
    if let Some(busy) = &busy {
        let medians: Vec<f64> =
            load.by_tenant.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
        let spread = ratio(
            medians.iter().copied().fold(0.0, f64::max),
            medians.iter().copied().fold(f64::INFINITY, f64::min),
        );
        extras = vec![
            ("cumulus.serve.submit_rtt_ms", "ms", median(&load.submit_rtt_ms)),
            ("cumulus.serve.status_rtt_ms", "ms", median(&load.status_rtt_ms)),
            ("cumulus.serve.admit_wait_s", "s", median(&load.admit_wait_s)),
            ("cumulus.serve.rejects", "count", load.rejects as f64),
            (
                "cumulus.serve.slot_util",
                "ratio",
                ratio(busy.total_s(), plan.workload.slots() as f64 * tet_s),
            ),
            ("cumulus.serve.tenant_spread", "ratio", spread),
        ];
    }
    Round {
        setup_s,
        tet_s,
        campaign_s: load.latency_s,
        counts,
        checked: total as u64,
        mismatched,
        steer,
        dir: dir.join("store"),
        store,
        busy,
        extras,
    }
}
