//! The seeded input generator.
//!
//! A workload seed picks which Table 2 receptor ids and ligand codes a run
//! docks, and the failure-injection seed; the program under test only ever
//! sees the [`Dataset`] built from those picks.
//!
//! Picks are *size-matched*: a workload of `n` receptors fixes `n` target
//! sizes (the midpoints of `n` equal strata of the candidates sorted by
//! heavy-atom count), and the seed chooses, for each target, one of the
//! [`NEAREST`] candidates closest to it, on the same side of the AD4/Vina
//! routing threshold. Ligands are picked the same way. Every seed therefore
//! docks a set with the same size profile and engine split, so the work per
//! run — and the timings — vary little from seed to seed while the
//! identities change.

use scidock::dataset::{make_ligand, make_receptor};
use scidock::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};

/// SplitMix64: a tiny, well-mixed deterministic stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted so each use of one seed draws its own
    /// numbers.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a seed picked for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Picks {
    /// Receptor ids, smallest target size first.
    pub receptors: Vec<&'static str>,
    /// Ligand codes, smallest target size first.
    pub ligands: Vec<&'static str>,
    /// Seed of the injected-failure stream.
    pub failure_seed: u64,
}

impl Picks {
    /// Generate the structures of these picks: the only input the program
    /// receives.
    pub fn dataset(&self, params: &DatasetParams) -> Dataset {
        Dataset::subset(&self.receptors, &self.ligands, params.clone())
    }
}

/// Candidates a seed chooses among for each target size.
pub const NEAREST: usize = 3;

/// For each of `n` targets — the midpoints of `n` equal strata of
/// `sorted` (ascending `(size, name)`) — one of the [`NEAREST`] unpicked
/// candidates closest in size on the target's side of `threshold`.
fn size_matched(
    sorted: &[(usize, &'static str)],
    n: usize,
    threshold: usize,
    rng: &mut Rng,
) -> Vec<&'static str> {
    assert!(n > 0 && n <= sorted.len(), "cannot pick {n} of {}", sorted.len());
    let mut left: Vec<(usize, &'static str)> = sorted.to_vec();
    (0..n)
        .map(|k| {
            let target = sorted[(2 * k + 1) * sorted.len() / (2 * n)].0;
            let side = |s: usize| s <= threshold;
            let mut near: Vec<usize> = (0..left.len()).collect();
            near.sort_by_key(|&i| (side(left[i].0) != side(target), left[i].0.abs_diff(target), i));
            let choice = near[rng.below(NEAREST.min(near.len()))];
            left.remove(choice).1
        })
        .collect()
}

/// Pick `nr` receptors and `nl` ligands for `seed` under `params`.
///
/// Receptors carrying the poison Hg atom are kept out of the size targets;
/// `hg` of them are added on top, so the Hg blacklist rule fires a fixed number
/// of times whatever the seed.
pub fn pick(seed: u64, nr: usize, nl: usize, hg: usize, params: &DatasetParams) -> Picks {
    let mut rng = Rng::new(seed, 1);
    let mut clean: Vec<(usize, &'static str)> = Vec::new();
    let mut poisoned: Vec<&'static str> = Vec::new();
    for id in RECEPTOR_IDS {
        let r = make_receptor(id, params);
        if r.has_hg {
            poisoned.push(id);
        } else {
            clean.push((r.heavy_atoms, id));
        }
    }
    clean.sort();
    let threshold = params.size_threshold_atoms;
    let mut receptors = size_matched(&clean, nr - hg.min(nr), threshold, &mut rng);
    for _ in 0..hg.min(nr) {
        let id = poisoned.remove(rng.below(poisoned.len()));
        receptors.push(id);
    }

    let mut ligs: Vec<(usize, &'static str)> = LIGAND_CODES
        .iter()
        .map(|c| (make_ligand(c, params).structure.heavy_atom_count(), *c))
        .collect();
    ligs.sort();
    let ligands = size_matched(&ligs, nl, usize::MAX, &mut rng);

    Picks { receptors, ligands, failure_seed: Rng::new(seed, 2).next_u64() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_picks_and_seeds_differ() {
        let p = DatasetParams::default();
        let a = pick(7, 6, 3, 1, &p);
        assert_eq!(a, pick(7, 6, 3, 1, &p));
        assert_ne!(a, pick(8, 6, 3, 1, &p));
        assert_eq!(a.receptors.len(), 6);
        assert_eq!(a.ligands.len(), 3);
        let ds = a.dataset(&p);
        assert_eq!(ds.receptors.iter().filter(|r| r.has_hg).count(), 1);
    }
}
