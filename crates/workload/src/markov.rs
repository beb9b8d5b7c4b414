//! The file-lifecycle Markov model (Tarasov et al., USENIX ATC'12).
//!
//! Each file is in one of four states — New, Modified, Unmodified, Deleted
//! — and transitions at every snapshot. The paper extracts the transition
//! matrix from the public "Homes" dataset; the dataset itself is not
//! redistributable, so the matrix here is calibrated to reproduce the
//! aggregate statistics the paper reports for its generated trace
//! (§5.2.1): with ~356 live files on average over 100 snapshots, 72
//! UPDATEs and 228 REMOVEs imply per-snapshot modify ≈ 0.002 and delete
//! ≈ 0.0064.

use rand::Rng;

/// Lifecycle state of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileState {
    /// Created in the current snapshot.
    New,
    /// Modified in the current snapshot.
    Modified,
    /// Present and untouched.
    Unmodified,
    /// Deleted (absorbing).
    Deleted,
}

/// Row-stochastic transition matrix over [`FileState`].
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    /// `p[from][to]` with state order N, M, U, D.
    p: [[f64; 4]; 4],
}

fn index(s: FileState) -> usize {
    match s {
        FileState::New => 0,
        FileState::Modified => 1,
        FileState::Unmodified => 2,
        FileState::Deleted => 3,
    }
}

const STATES: [FileState; 4] = [
    FileState::New,
    FileState::Modified,
    FileState::Unmodified,
    FileState::Deleted,
];

impl MarkovModel {
    /// Builds a model from a row-stochastic matrix (state order N,M,U,D).
    ///
    /// # Panics
    ///
    /// Panics if any row does not sum to 1 (±1e-9) or has negative entries.
    pub fn new(p: [[f64; 4]; 4]) -> Self {
        for (i, row) in p.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "row {i} sums to {sum}, expected 1"
            );
            assert!(row.iter().all(|&x| x >= 0.0), "row {i} has negative entry");
        }
        MarkovModel { p }
    }

    /// The calibrated "Homes"-like matrix (see module docs).
    pub fn homes() -> Self {
        MarkovModel::new([
            // from New: mostly settle to Unmodified, rarely touched again
            [0.0, 0.0060, 0.9850, 0.0090],
            // from Modified: usually settle, sometimes modified again
            [0.0, 0.0300, 0.9500, 0.0200],
            // from Unmodified: the common state; updates and deletes rare
            [0.0, 0.0020, 0.9916, 0.0064],
            // Deleted is absorbing
            [0.0, 0.0, 0.0, 1.0],
        ])
    }

    /// Transition probability.
    pub fn prob(&self, from: FileState, to: FileState) -> f64 {
        self.p[index(from)][index(to)]
    }

    /// Samples the next state.
    pub fn step<R: Rng>(&self, from: FileState, rng: &mut R) -> FileState {
        let row = &self.p[index(from)];
        let mut x: f64 = rng.gen();
        for (i, &p) in row.iter().enumerate() {
            if x < p {
                return STATES[i];
            }
            x -= p;
        }
        // Floating point slack: fall back to the last state with mass.
        STATES[3]
    }
}

impl Default for MarkovModel {
    fn default() -> Self {
        Self::homes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn homes_rows_are_stochastic() {
        let m = MarkovModel::homes();
        for s in STATES {
            let total: f64 = STATES.iter().map(|&t| m.prob(s, t)).sum();
            assert!((total - 1.0).abs() < 1e-9, "row {s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn non_stochastic_matrix_panics() {
        let _ = MarkovModel::new([[0.5; 4]; 4]);
    }

    #[test]
    fn deleted_is_absorbing() {
        let m = MarkovModel::homes();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(m.step(FileState::Deleted, &mut rng), FileState::Deleted);
        }
    }

    #[test]
    fn step_frequencies_match_probabilities() {
        let m = MarkovModel::homes();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut deletes = 0;
        let mut modifies = 0;
        for _ in 0..n {
            match m.step(FileState::Unmodified, &mut rng) {
                FileState::Deleted => deletes += 1,
                FileState::Modified => modifies += 1,
                _ => {}
            }
        }
        let p_del = deletes as f64 / n as f64;
        let p_mod = modifies as f64 / n as f64;
        assert!((p_del - 0.0064).abs() < 0.001, "delete rate {p_del}");
        assert!((p_mod - 0.0020).abs() < 0.001, "modify rate {p_mod}");
    }

    #[test]
    fn lifetime_estimate_is_sane() {
        let m = MarkovModel::homes();
        // Steps before deletion from Unmodified: for this matrix class the
        // delete hazard from U dominates, so a geometric estimate will do.
        let life = 1.0 / m.prob(FileState::Unmodified, FileState::Deleted);
        assert!((100.0..300.0).contains(&life), "lifetime {life}");
    }
}
