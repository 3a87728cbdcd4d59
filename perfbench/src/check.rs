//! Output checks: digests of what a run produced, compared against the
//! seed's reference run.

use cumulus::{Relation, Tuple};
use provenance::{ProvenanceStore, Value};

/// FNV-1a, 64 bit: a stable digest (identical across processes and builds).
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// A value with the numeric segments of paths masked: working directories
/// are numbered in dispatch order, which is schedule, not output (the
/// canonical PROV-N export masks them the same way).
fn canonical_value(v: &Value) -> String {
    let s = v.to_string();
    if !s.contains('/') {
        return s;
    }
    let masked: Vec<&str> = s
        .split('/')
        .map(
            |seg| {
                if !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_digit()) {
                    "*"
                } else {
                    seg
                }
            },
        )
        .collect();
    masked.join("/")
}

/// Digest of a multiset of tuples, independent of their order and of the
/// dispatch-order numbering of working directories.
pub fn tuples_digest<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> u64 {
    let mut rows: Vec<String> = tuples
        .into_iter()
        .map(|t| t.iter().map(canonical_value).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort_unstable();
    fnv(rows.join("\n").as_bytes())
}

/// Is this an output relation of a docking activity (`autodock4`/`vina`)?
fn is_docked(rel: &Relation) -> bool {
    rel.columns.iter().any(|c| c == "feb")
}

/// What one run produced, reduced to comparable digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// The sorted docked tuples (one-shot runs) or the final output
    /// relation (campaigns).
    pub tuples: u64,
    /// The canonical PROV-N document.
    pub provn: u64,
}

impl Digests {
    /// Digests of a one-shot run: every docked tuple, plus the whole
    /// store's canonical PROV-N.
    pub fn of_run(outputs: &[Relation], store: &ProvenanceStore) -> Digests {
        let docked = outputs.iter().filter(|r| is_docked(r)).flat_map(|r| r.tuples.iter());
        Digests {
            tuples: tuples_digest(docked),
            provn: fnv(provenance::export_provn_canonical(store).as_bytes()),
        }
    }

    /// A deliberately wrong copy, for the check's own test.
    pub fn tampered(self) -> Digests {
        Digests { tuples: self.tuples ^ 1, provn: self.provn }
    }
}

/// Activation accounting of one store, by final status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// FINISHED activations of `autodock4` and `vina`: docked pairs.
    pub docked: u64,
    /// Activations that reached a terminal state (FINISHED, BLACKLISTED,
    /// ABORTED, or FAILED with the retry budget spent).
    pub activations: u64,
    /// FAILED with the retry budget spent, plus ABORTED: the activations
    /// that did not finish for a reason other than the Hg blacklist rule.
    pub unrecovered: u64,
}

/// Seconds from the start of the run to each docking result: the end
/// times of the FINISHED `autodock4`/`vina` activations of a one-shot run.
pub fn result_times(store: &ProvenanceStore) -> Vec<f64> {
    let rs = store
        .query_rows(
            "SELECT a.tag, t.endtime FROM hactivity a, hactivation t \
             WHERE a.actid = t.actid AND t.status = 'FINISHED'",
            &[],
        )
        .expect("result time query");
    rs.rows
        .iter()
        .filter(|r| matches!(r[0].as_str(), Some("autodock4" | "vina")))
        .filter_map(|r| r[1].as_f64())
        .collect()
}

/// Count activations by status through the SQL engine.
pub fn counts(store: &ProvenanceStore, max_retries: u32) -> Counts {
    let rs = store
        .query_rows(
            "SELECT a.tag, t.status, count(*) FROM hactivity a, hactivation t \
             WHERE a.actid = t.actid GROUP BY a.tag, t.status",
            &[],
        )
        .expect("status count query");
    let mut c = Counts::default();
    for row in &rs.rows {
        let (tag, status) = (row[0].as_str().unwrap_or(""), row[1].as_str().unwrap_or(""));
        let n = row[2].as_f64().unwrap_or(0.0) as u64;
        match status {
            "FINISHED" => {
                c.activations += n;
                if tag == "autodock4" || tag == "vina" {
                    c.docked += n;
                }
            }
            "BLACKLISTED" => c.activations += n,
            "ABORTED" => {
                c.activations += n;
                c.unrecovered += n;
            }
            _ => {}
        }
    }
    let spent = store
        .query_rows(
            "SELECT count(*) FROM hactivation WHERE status = 'FAILED' AND retries >= ?",
            &[Value::Int(max_retries as i64)],
        )
        .expect("terminal failure query");
    let spent = spent.rows.first().and_then(|r| r[0].as_f64()).unwrap_or(0.0) as u64;
    c.activations += spent;
    c.unrecovered += spent;
    c
}
