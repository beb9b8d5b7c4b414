//! Modification patterns (paper §5.2.1): where an UPDATE touches a file.
//!
//! Probabilities from the "Homes" change pattern: B(eginning) 38%, E(nd)
//! 8%, M(iddle) 3%; the remaining 51% is split uniformly across the
//! combinations BE, BM and EM. Patterns are only applied to files smaller
//! than 4 MB, as in the paper.

use rand::Rng;

/// Where a modification touches the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangePattern {
    /// Prepend bytes at the beginning.
    B,
    /// Append bytes at the end.
    E,
    /// Overwrite bytes somewhere in the middle.
    M,
    /// Beginning + end.
    BE,
    /// Beginning + middle.
    BM,
    /// End + middle.
    EM,
}

impl ChangePattern {
    /// Samples a pattern with the paper's probabilities.
    pub fn sample<R: Rng>(rng: &mut R) -> Self {
        let x: f64 = rng.gen();
        match x {
            x if x < 0.38 => ChangePattern::B,
            x if x < 0.46 => ChangePattern::E,
            x if x < 0.49 => ChangePattern::M,
            x if x < 0.66 => ChangePattern::BE,
            x if x < 0.83 => ChangePattern::BM,
            _ => ChangePattern::EM,
        }
    }

    /// Applies the pattern to `data`, mutating roughly `edit_size` bytes
    /// per touched location. Prepends/appends insert fresh bytes; middle
    /// changes overwrite in place.
    pub fn apply<R: Rng>(&self, data: &[u8], edit_size: usize, rng: &mut R) -> Vec<u8> {
        let mut out = data.to_vec();
        let fresh =
            |rng: &mut R| -> Vec<u8> { (0..edit_size.max(1)).map(|_| rng.gen::<u8>()).collect() };
        if matches!(
            self,
            ChangePattern::B | ChangePattern::BE | ChangePattern::BM
        ) {
            let mut prefixed = fresh(rng);
            prefixed.extend_from_slice(&out);
            out = prefixed;
        }
        if matches!(
            self,
            ChangePattern::M | ChangePattern::BM | ChangePattern::EM
        ) && !out.is_empty()
        {
            let len = edit_size.max(1).min(out.len());
            let start = rng.gen_range(0..=out.len() - len);
            for b in &mut out[start..start + len] {
                *b = rng.gen();
            }
        }
        if matches!(
            self,
            ChangePattern::E | ChangePattern::BE | ChangePattern::EM
        ) {
            out.extend(fresh(rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_matches_paper_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts
                .entry(ChangePattern::sample(&mut rng))
                .or_insert(0u32) += 1;
        }
        let frac = |p: ChangePattern| counts.get(&p).copied().unwrap_or(0) as f64 / n as f64;
        assert!((frac(ChangePattern::B) - 0.38).abs() < 0.01);
        assert!((frac(ChangePattern::E) - 0.08).abs() < 0.01);
        assert!((frac(ChangePattern::M) - 0.03).abs() < 0.01);
        assert!((frac(ChangePattern::BE) - 0.17).abs() < 0.01);
        assert!((frac(ChangePattern::BM) - 0.17).abs() < 0.01);
        assert!((frac(ChangePattern::EM) - 0.17).abs() < 0.01);
    }

    #[test]
    fn b_prepends() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = vec![7u8; 100];
        let out = ChangePattern::B.apply(&data, 10, &mut rng);
        assert_eq!(out.len(), 110);
        assert_eq!(&out[10..], &data[..]);
    }

    #[test]
    fn e_appends() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = vec![7u8; 100];
        let out = ChangePattern::E.apply(&data, 10, &mut rng);
        assert_eq!(out.len(), 110);
        assert_eq!(&out[..100], &data[..]);
    }

    #[test]
    fn m_preserves_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = vec![7u8; 100];
        let out = ChangePattern::M.apply(&data, 10, &mut rng);
        assert_eq!(out.len(), 100);
        assert_ne!(out, data, "middle overwrite must change bytes");
    }

    #[test]
    fn combos_apply_both_edits() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = vec![7u8; 100];
        assert_eq!(ChangePattern::BE.apply(&data, 10, &mut rng).len(), 120);
        assert_eq!(ChangePattern::BM.apply(&data, 10, &mut rng).len(), 110);
        assert_eq!(ChangePattern::EM.apply(&data, 10, &mut rng).len(), 110);
    }

    #[test]
    fn empty_file_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [
            ChangePattern::B,
            ChangePattern::E,
            ChangePattern::M,
            ChangePattern::BE,
            ChangePattern::BM,
            ChangePattern::EM,
        ] {
            let out = p.apply(&[], 10, &mut rng);
            // Must not panic; prepend/append (every pattern but M) still
            // grow the file.
            if !matches!(p, ChangePattern::M) {
                assert!(!out.is_empty());
            }
        }
    }
}
