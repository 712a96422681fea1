//! Per-stage, per-chunk seed streams.
//!
//! The generator used to thread one `StdRng` through every stage, which
//! forced a single serial draw order. Downstream consumers only ever see
//! *distributions* (percentile ladders, tail fits, shares), never the draw
//! order, so the sampling schedule is free to change as long as a given
//! `(master seed, stage, chunk)` always produces the same values. Each
//! stage therefore derives an independent RNG stream per fixed-size chunk:
//!
//! ```text
//! seed(stage, chunk) = splitmix64(splitmix64(master ^ fnv1a(stage)) ^ chunk·φ)
//! ```
//!
//! * the FNV-1a hash of the stage tag separates stages: no two tags share a
//!   stream, and adding a stage never perturbs another stage's draws;
//! * the golden-ratio multiply spreads consecutive chunk indices across the
//!   64-bit space before the final mix, so chunk 0 and chunk 1 are as
//!   unrelated as two random seeds;
//! * the double splitmix64 finalization is the same mixer `StdRng`'s own
//!   `seed_from_u64` expansion builds on, giving well-distributed state even
//!   for small master seeds.
//!
//! Chunk sizes are compile-time constants (see [`crate::par`]) and **never**
//! depend on the worker count, which is what makes `--jobs N` byte-identical
//! for every N.

use rand::rngs::StdRng;
use rand::SeedableRng;
use steam_obs::splitmix64;

/// 64-bit FNV-1a over the stage tag.
fn fnv1a64(tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in tag.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives the seed for one `(stage, chunk)` stream of a master seed.
pub fn derive_seed(master: u64, stage: &str, chunk: u64) -> u64 {
    let stage_mixed = splitmix64(master ^ fnv1a64(stage));
    splitmix64(stage_mixed ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A fresh RNG positioned at the start of the `(stage, chunk)` stream.
pub fn stage_rng(master: u64, stage: &str, chunk: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, stage, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        assert_eq!(derive_seed(1, "accounts", 0), derive_seed(1, "accounts", 0));
        let mut a = stage_rng(42, "catalog.products", 3);
        let mut b = stage_rng(42, "catalog.products", 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stages_and_chunks_separate_streams() {
        let base = derive_seed(7, "accounts", 0);
        assert_ne!(base, derive_seed(7, "accounts", 1));
        assert_ne!(base, derive_seed(7, "ownership", 0));
        assert_ne!(base, derive_seed(8, "accounts", 0));
    }

    #[test]
    fn no_collisions_across_a_plausible_schedule() {
        // Every stage tag × 4k chunks × a few seeds: all seeds distinct.
        let tags = [
            "accounts",
            "catalog.products",
            "catalog.popularity",
            "catalog.achievements",
            "friends.targets",
            "friends.stubs",
            "friends.times",
            "ownership",
            "groups.universe",
            "groups.memberships",
            "groups.recruit",
            "evolve.catalog",
            "evolve.users",
            "panel.sample",
            "panel.days",
        ];
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 1, 2016] {
            for tag in tags {
                for chunk in 0..256u64 {
                    assert!(
                        seen.insert(derive_seed(master, tag, chunk)),
                        "collision at {master}/{tag}/{chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn small_master_seeds_produce_spread_draws() {
        // Guard against a weak mixer: adjacent chunk streams must not emit
        // correlated first draws.
        let firsts: Vec<f64> =
            (0..64).map(|c| stage_rng(0, "accounts", c).gen::<f64>()).collect();
        let mean = firsts.iter().sum::<f64>() / firsts.len() as f64;
        assert!((mean - 0.5).abs() < 0.2, "mean of first draws = {mean}");
    }
}
