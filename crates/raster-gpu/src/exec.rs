//! Scoped-thread fan-out: the stand-in for the GPU's SPMD parallelism.
//!
//! Shader invocations in the paper run as a single program over multiple
//! data (§3). We model that by splitting the item range into one contiguous
//! chunk per worker and running the same closure on every chunk with
//! `crossbeam`'s scoped threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Number of workers: the `RJ_WORKERS` environment variable when set to a
/// positive integer, otherwise the available CPU parallelism (or 1 when
/// unknown). The override lets a 1-core CI box exercise the multi-worker
/// paths — and a many-core dev box pin them down — without code edits.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("RJ_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(start, end)` over disjoint chunks of `0..len` on `workers`
/// threads. `f` is `Sync`, so whatever it shares the borrow checker has
/// already made safe to share (atomics, a lock, read-only data); a task
/// that owns what it writes wants [`parallel_ranges_with`] or
/// [`parallel_tasks`].
pub fn parallel_ranges<F>(len: usize, workers: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let workers = workers.max(1).min(len.max(1));
    if workers == 1 || len == 0 {
        f(0, len);
        return;
    }
    let chunk = len.div_ceil(workers);
    crossbeam::thread::scope(|s| {
        for w in 0..workers {
            let start = w * chunk;
            let end = ((w + 1) * chunk).min(len);
            if start >= end {
                continue;
            }
            let f = &f;
            s.spawn(move |_| f(start, end));
        }
    })
    .expect("worker thread panicked");
}

/// [`parallel_ranges`] with a private `&mut` state per worker:
/// `f(&mut states[w], start, end)` on the `w`-th of `states.len()`
/// contiguous chunks of `0..len`, every state exactly once (an idle one
/// with an empty range). Chunk order is state order, so what the workers
/// stage concatenates back in item order.
pub fn parallel_ranges_with<S, F>(len: usize, states: &mut [S], f: F)
where
    S: Send,
    F: Fn(&mut S, usize, usize) + Sync,
{
    let chunk = len.div_ceil(states.len().max(1));
    crossbeam::thread::scope(|s| {
        for (w, state) in states.iter_mut().enumerate() {
            let (start, end) = ((w * chunk).min(len), ((w + 1) * chunk).min(len));
            let f = &f;
            // No thread for an empty range, nor when one chunk is all.
            if start == end || chunk == len {
                f(state, start, end);
            } else {
                s.spawn(move |_| f(state, start, end));
            }
        }
    })
    .expect("worker thread panicked");
}

/// Accumulate the wall-clock time of one pipeline stage into `acc` and
/// return the stage's result. Each executor attributes its processing
/// time to the stage that spent it (point blend, polygon scan,
/// binning); the planner's calibration bench records the breakdown
/// alongside every measured run so fitted weights can be sanity-checked
/// against where the time actually went.
pub fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed();
    v
}

/// Block size for [`parallel_dynamic`] over `len` items on `workers`
/// threads: aim for ~8 blocks per worker (enough granularity to absorb
/// skewed per-item costs without paying a cursor `fetch_add` per item),
/// clamped to [1, 256]. Callers used to hard-code guesses (4, 16, …) that
/// degraded to one block per worker on small inputs and to thousands of
/// cursor bumps on large ones.
pub fn block_for(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 8)).clamp(1, 256)
}

/// Dynamic work stealing over items `0..len` in blocks of `block` — used
/// where per-item cost is highly skewed (e.g. polygons with very different
/// fragment counts).
pub fn parallel_dynamic<F>(len: usize, workers: usize, block: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = workers.max(1).min(len.max(1));
    if workers == 1 || len == 0 {
        for i in 0..len {
            f(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let block = block.max(1);
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            s.spawn(move |_| loop {
                let start = cursor.fetch_add(block, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + block).min(len);
                for i in start..end {
                    f(i);
                }
            });
        }
    })
    .expect("worker thread panicked");
}

/// Run `f` on every task of `tasks` on up to `workers` threads, each
/// task taken whole, in order, by the first idle worker — for tasks that
/// own disjoint `&mut` slices of one output.
pub fn parallel_tasks<T, F>(tasks: Vec<T>, workers: usize, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let workers = workers.clamp(1, tasks.len().max(1));
    if workers == 1 {
        tasks.into_iter().for_each(f);
        return;
    }
    let queue = parking_lot::Mutex::new(tasks.into_iter());
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                // The guard drops before the task runs.
                let next = queue.lock().next();
                match next {
                    Some(task) => f(task),
                    None => break,
                }
            });
        }
    })
    .expect("worker thread panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_ranges_covers_every_index_once() {
        let n = 10_001;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_ranges(n, 8, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_ranges_handles_empty_and_single() {
        parallel_ranges(0, 4, |s, e| assert_eq!(s, e));
        let sum = AtomicU64::new(0);
        parallel_ranges(1, 4, |s, e| {
            sum.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_ranges_with_hands_each_state_its_chunk_in_order() {
        for (len, workers) in [(0, 3), (1, 4), (10, 1), (10, 3), (10, 4), (1_000, 7)] {
            let mut seen: Vec<Vec<usize>> = vec![Vec::new(); workers];
            parallel_ranges_with(len, &mut seen, |mine, s, e| {
                assert!(mine.is_empty(), "one call per state");
                mine.extend(s..e);
                mine.push(usize::MAX);
            });
            assert!(seen.iter().all(|v| v.last() == Some(&usize::MAX)));
            let flat: Vec<usize> = seen.concat();
            let items: Vec<usize> = flat.into_iter().filter(|&i| i != usize::MAX).collect();
            assert_eq!(items, (0..len).collect::<Vec<_>>(), "{len} over {workers}");
        }
    }

    #[test]
    fn parallel_dynamic_covers_every_index_once() {
        let n = 5_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_dynamic(n, 6, 37, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn block_for_scales_with_len_and_workers() {
        assert_eq!(block_for(0, 4), 1);
        assert_eq!(block_for(10, 4), 1);
        assert_eq!(block_for(320, 4), 10);
        assert_eq!(block_for(1 << 20, 8), 256); // clamped
        assert_eq!(block_for(100, 0), 12); // degenerate workers treated as 1
    }

    #[test]
    fn workers_capped_by_len() {
        // Must not spawn more work than items; just exercises the path.
        let count = AtomicU64::new(0);
        parallel_ranges(3, 64, |s, e| {
            count.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}
