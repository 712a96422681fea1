//! Fixed-chunk decomposition for the generator stages.
//!
//! The decomposition contract: every stage splits its item range into chunks
//! of a **compile-time size** (never a function of the worker count), gives
//! each chunk its own seed stream (see [`crate::seed`]), and merges chunk
//! outputs in chunk-index order. [`run_chunks`] hands the chunks to
//! `steam_par::map`, whose workers claim them from a shared cursor, so the
//! schedule balances load while the output stays byte-identical for any
//! `jobs`, including `jobs = 1`, which runs inline without spawning.

/// Users per chunk in the per-user stages (accounts, ownership, groups,
/// evolve). Changing this re-baselines every seed-sensitive assertion.
pub const USERS_CHUNK: usize = 4096;
/// Products per chunk in catalog generation.
pub const PRODUCTS_CHUNK: usize = 1024;
/// Games per chunk in the achievement-assignment pass.
pub const GAMES_CHUNK: usize = 512;
/// Edges per chunk when drawing friendship timestamps.
pub const EDGES_CHUNK: usize = 16_384;
/// Panel users per chunk when drawing the seven-day diaries.
pub const PANEL_CHUNK: usize = 1_024;

/// Splits `0..n_items` into `chunk_size`-sized chunks, runs `f(chunk_idx,
/// range)` for each on up to `jobs` workers, and returns the results in
/// chunk order.
pub fn run_chunks<T, F>(jobs: usize, n_items: usize, chunk_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    steam_par::map(jobs, 0..n_items.div_ceil(chunk_size), |c| {
        f(c, c * chunk_size..((c + 1) * chunk_size).min(n_items))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_items_in_order() {
        for jobs in [1, 2, 8] {
            let out = run_chunks(jobs, 1000, 64, |c, r| (c, r.start, r.end));
            assert_eq!(out.len(), 1000usize.div_ceil(64));
            for (i, (c, lo, hi)) in out.iter().enumerate() {
                assert_eq!(*c, i);
                assert_eq!(*lo, i * 64);
                assert_eq!(*hi, (1000).min((i + 1) * 64));
            }
            assert!(run_chunks(jobs, 0, 64, |c, _| c).is_empty());
        }
    }
}
