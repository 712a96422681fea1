//! # steam-par
//!
//! The one parallel runner of the workspace. Synthesis, the v3 codec, the
//! CSR build, the tail fits and the report engine spread their work over
//! `--jobs` threads through [`map`], and each promises the same output
//! bytes for any worker count.
//!
//! ## Contract
//!
//! * [`map`] calls `f` once on every item and returns the results in item
//!   order. Workers claim the next item from one shared cursor, so uneven
//!   items balance, but the claim order never reaches the output.
//! * It runs on `min(jobs, items)` scoped workers. With `jobs <= 1`, or at
//!   most one item, it runs on the caller's thread and spawns nothing.
//! * Zero items means no call and an empty result.
//! * A panicking item panics the caller with its own payload.
//!
//! The caller keeps the rest of the promise: either its items do not depend
//! on `jobs` (a compile-time synthesis chunk, one codec chunk, one
//! experiment), or it merges [`split`]'s `jobs`-dependent ranges by
//! concatenation, exact sums or the serial reduction rule.

use std::ops::Range;
use std::sync::Mutex;

/// Runs `f` on every item of `items` on up to `jobs` scoped workers and
/// returns the results in item order. Items may be indices or owned parts,
/// such as disjoint `&mut` slices.
pub fn map<I, T, F>(jobs: usize, items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.map(f).collect();
    }
    let cursor = Mutex::new(items.enumerate());
    let (cursor, f) = (&cursor, &f);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // A poisoned cursor means another worker panicked
                        // while claiming; its panic is the one that surfaces.
                        let Some((i, item)) = cursor.lock().ok().and_then(|mut rest| rest.next())
                        else {
                            break done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => done.into_iter().for_each(|(i, out)| slots[i] = Some(out)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is claimed exactly once"))
        .collect()
}

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges of
/// `n.div_ceil(parts)` indices (the last may be shorter), in index order.
/// `parts <= 1` gives one range, and `n == 0` none.
pub fn split(n: usize, parts: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Send {
    let per = n.div_ceil(parts.max(1));
    let count = if per == 0 { 0 } else { n.div_ceil(per) };
    (0..count).map(move |j| j * per..((j + 1) * per).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn every_item_once_in_item_order() {
        for jobs in [0, 1, 2, 3, 8] {
            for n in [0, 1, 2, 17] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = map(jobs, 0..n, |i| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    i * i
                });
                assert_eq!(
                    out,
                    (0..n).map(|i| i * i).collect::<Vec<_>>(),
                    "jobs={jobs} n={n}"
                );
                assert!(
                    calls.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "jobs={jobs} n={n}"
                );
            }
        }
    }

    #[test]
    fn completion_order_never_reaches_the_output() {
        // Items 0 and 1 meet at `first`, so each of the two workers holds one
        // of them. Item 1 then waits at `second` for item 2, which only the
        // worker that ran item 0 is free to claim.
        let (first, second) = (Barrier::new(2), Barrier::new(2));
        let out = map(2, 0..3, |i| {
            if i < 2 {
                first.wait();
            }
            if i > 0 {
                second.wait();
            }
            (i, thread::current().id())
        });
        let items: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(items, [0, 1, 2]);
        assert_eq!(out[0].1, out[2].1);
        assert_ne!(out[0].1, out[1].1);
    }

    #[test]
    fn one_job_or_one_item_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        for (jobs, n) in [(0, 17), (1, 17), (8, 1)] {
            let ids = map(jobs, 0..n, |_| thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "jobs={jobs} n={n}");
        }
        // Two items that wait for each other must be on two spawned workers.
        let meet = Barrier::new(2);
        let ids = map(2, 0..2, |_| {
            meet.wait();
            thread::current().id()
        });
        assert!(ids[0] != ids[1] && !ids.contains(&caller));
    }

    #[test]
    fn a_panicking_item_panics_the_caller_with_its_payload() {
        for jobs in [1, 4] {
            let payload = std::panic::catch_unwind(|| {
                map(jobs, 0..17, |i| {
                    if i == 11 {
                        panic!("item {i} failed")
                    } else {
                        i
                    }
                })
            })
            .expect_err("item 11 panics");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("item 11 failed"), "jobs={jobs}");
        }
    }

    #[test]
    fn owned_mut_parts_are_items() {
        for jobs in [1, 3] {
            let mut data: Vec<u32> = (0..100).rev().collect();
            let lens = map(jobs, data.chunks_mut(7), |part| {
                part.sort_unstable();
                part.len()
            });
            assert_eq!(lens.len(), 15);
            assert_eq!(lens.iter().sum::<usize>(), 100);
            for (k, part) in data.chunks(7).enumerate() {
                let mut want: Vec<u32> = (0..100).rev().skip(7 * k).take(7).collect();
                want.sort_unstable();
                assert_eq!(part, want, "jobs={jobs} part={k}");
            }
        }
    }

    #[test]
    fn split_covers_every_index_once_in_at_most_parts_ranges() {
        for parts in [0, 1, 2, 3, 5, 32] {
            for n in [0, 1, 2, 17, 23] {
                let ranges: Vec<_> = split(n, parts).collect();
                assert!(ranges.len() <= parts.max(1), "parts={parts} n={n}");
                assert!(ranges.iter().all(|r| !r.is_empty()), "parts={parts} n={n}");
                let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "parts={parts} n={n}");
            }
        }
        assert_eq!(
            split(17, 5).collect::<Vec<_>>(),
            [0..4, 4..8, 8..12, 12..16, 16..17]
        );
        assert!(split(17, 1).eq(std::iter::once(0..17)));
    }
}
