//! Deterministic host-parallel execution for the `winograd-mpt` workspace.
//!
//! The paper's whole premise is that Winograd training decomposes into
//! independent work units — batch chunks across `N_c` clusters, tile
//! elements across `N_g` groups — yet the reproduction long executed every
//! one of them on a single host thread. This crate supplies the missing
//! substrate: a scoped thread pool ([`ParPool`]) with *chunked* map/reduce
//! primitives whose results are **bit-identical for any job count**.
//!
//! # The determinism contract
//!
//! Two rules make `f32` results independent of `jobs`:
//!
//! 1. **Chunk boundaries are fixed by the input length** (and an explicit
//!    chunk size), never by the thread count. Changing `jobs` changes only
//!    *which thread* computes a chunk, not *what* any chunk computes.
//! 2. **Partial results merge in chunk-index order.** Floating-point
//!    addition is not associative, so the merge walks chunks `0, 1, 2, …`
//!    regardless of completion order. Threads race for chunks through an
//!    atomic cursor (load balancing), but the reduction sequence is a pure
//!    function of the input.
//!
//! A corollary used throughout the workspace: an entry point built from
//! these primitives returns the same bits at `jobs = 1, 2, 7, …` (the
//! 1-job pool runs inline and is the serial path), so every job count
//! renders identical checkpoints.
//!
//! No dependencies, no unsafe, no global state: workers are
//! [`std::thread::scope`] threads that borrow the caller's data, and a
//! worker panic propagates to the caller when the scope joins.
//!
//! # Examples
//!
//! ```
//! use wmpt_par::ParPool;
//!
//! let xs: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
//! let serial = ParPool::serial();
//! let wide = ParPool::new(7);
//! let sum = |pool: &ParPool| {
//!     pool.reduce_ordered(
//!         &xs,
//!         1024,
//!         |_, chunk| chunk.iter().sum::<f32>(),
//!         |a, b| a + b,
//!     )
//!     .unwrap()
//! };
//! // Bit-identical, not merely approximately equal.
//! assert_eq!(sum(&serial).to_bits(), sum(&wide).to_bits());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

/// Number of jobs to use when the user asks for "all of the machine":
/// [`std::thread::available_parallelism`], or 1 if it cannot be queried.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scoped thread pool with deterministic chunked map/reduce.
///
/// `ParPool` is a plain value holding only the job count; each call
/// spawns scoped workers that borrow the inputs, so closures need no
/// `'static` bounds and nothing leaks past the call. Work is handed out
/// chunk-by-chunk through an atomic cursor (so a straggler chunk does not
/// idle the other workers), while results are always assembled in chunk
/// order — see the crate docs for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParPool {
    jobs: usize,
}

impl ParPool {
    /// Creates a pool running `jobs` worker threads per call; `jobs = 0`
    /// means [`available_jobs`].
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: if jobs == 0 { available_jobs() } else { jobs },
        }
    }

    /// A single-job pool: every primitive runs inline on the caller's
    /// thread, spawning nothing.
    pub fn serial() -> Self {
        Self { jobs: 1 }
    }

    /// The number of jobs this pool uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the pool and returns the
    /// results **in index order**. Indices are claimed through an atomic
    /// cursor, so slow tasks do not serialize the rest.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.fold_indexed(n, Vec::with_capacity(n), f, |out, r| out.push(r))
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the pool and folds each result
    /// into `acc` on the calling thread **in index order** —
    /// `merge(&mut acc, r0)`, then `r1`, … — as soon as every earlier
    /// result has been merged. Only results that finish ahead of an
    /// unfinished earlier index wait in memory, so a reduction over many
    /// large results does not hold all of them at once.
    pub fn fold_indexed<R, A, F, M>(&self, n: usize, mut acc: A, f: F, mut merge: M) -> A
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        M: FnMut(&mut A, R),
    {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            for i in 0..n {
                merge(&mut acc, f(i));
            }
            return acc;
        }
        let cursor = AtomicUsize::new(0);
        let mut waiting: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut next = 0;
        thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<(usize, R)>();
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                s.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Ends when every worker has exited; a worker panic then
            // propagates from the scope join.
            for (i, r) in rx {
                waiting[i] = Some(r);
                while let Some(r) = waiting.get_mut(next).and_then(Option::take) {
                    merge(&mut acc, r);
                    next += 1;
                }
            }
        });
        assert_eq!(next, n, "worker completed every claimed index");
        acc
    }

    /// Splits `items` into `⌈len/chunk⌉` contiguous chunks — boundaries
    /// fixed by `items.len()` and `chunk` alone — maps each chunk with
    /// `f(chunk_index, chunk)`, and returns the per-chunk results in
    /// index order.
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let n = items.len().div_ceil(chunk);
        self.map_indexed(n, |i| {
            let lo = i * chunk;
            let hi = (lo + chunk).min(items.len());
            f(i, &items[lo..hi])
        })
    }

    /// [`ParPool::map_chunks`] followed by a left fold of the partial
    /// results **in chunk-index order** — the deterministic reduction:
    /// `merge(merge(r0, r1), r2) …` independent of which thread finished
    /// first. `None` only when `items` is empty.
    pub fn reduce_ordered<T, R, F, M>(
        &self,
        items: &[T],
        chunk: usize,
        map: F,
        merge: M,
    ) -> Option<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        M: FnMut(R, R) -> R,
    {
        self.map_chunks(items, chunk, map).into_iter().reduce(merge)
    }

    /// Splits a mutable slice into `⌈len/chunk⌉` disjoint contiguous
    /// chunks and runs `f(chunk_index, chunk)` on each across the pool.
    /// Because the chunks are disjoint `&mut` borrows handed out by
    /// `chunks_mut`, no two threads ever alias — writers parallelize
    /// without locks on the data itself.
    pub fn for_each_chunk_mut<T, F>(&self, items: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n = items.len().div_ceil(chunk);
        let workers = self.jobs.min(n);
        if workers <= 1 {
            for (i, c) in items.chunks_mut(chunk).enumerate() {
                f(i, c);
            }
            return;
        }
        let queue = Mutex::new(items.chunks_mut(chunk).enumerate());
        thread::scope(|s| {
            for _ in 0..workers {
                let queue = &queue;
                let f = &f;
                s.spawn(move || loop {
                    let next = queue.lock().expect("chunk queue poisoned").next();
                    match next {
                        Some((i, c)) => f(i, c),
                        None => break,
                    }
                });
            }
        });
    }
}

impl Default for ParPool {
    /// Defaults to [`available_jobs`].
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(ParPool::new(0).jobs(), available_jobs());
        assert_eq!(ParPool::default().jobs(), available_jobs());
        assert_eq!(ParPool::serial().jobs(), 1);
        assert_eq!(ParPool::new(5).jobs(), 5);
    }

    #[test]
    fn map_indexed_returns_in_order() {
        for jobs in [1, 2, 3, 8] {
            let pool = ParPool::new(jobs);
            let out = pool.map_indexed(17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(ParPool::new(4).map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn fold_indexed_merges_in_index_order() {
        // Index 0 is slow, so later results arrive first and must wait.
        for jobs in [1, 2, 7] {
            let order = ParPool::new(jobs).fold_indexed(
                9,
                Vec::new(),
                |i| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                },
                |seen, i| seen.push(i),
            );
            assert_eq!(order, (0..9).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert_eq!(ParPool::new(4).fold_indexed(0, 5, |i| i, |a, i| *a += i), 5);
    }

    #[test]
    fn chunk_boundaries_depend_only_on_input() {
        let items: Vec<u32> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let pool = ParPool::new(jobs);
            let spans = pool.map_chunks(&items, 16, |i, c| (i, c[0], c.len()));
            assert_eq!(spans.len(), 7);
            for (i, first, len) in &spans {
                assert_eq!(*first as usize, i * 16);
                assert_eq!(*len, if *i == 6 { 4 } else { 16 });
            }
        }
    }

    #[test]
    fn reduce_ordered_is_bit_identical_across_jobs() {
        // A sum that is sensitive to association order: merging in
        // completion order would (occasionally) flip low bits.
        let xs: Vec<f32> = (0..50_000)
            .map(|i| {
                ((i * 2654435761u64 as usize) as f32).sqrt() * if i % 3 == 0 { -1.0 } else { 1e-4 }
            })
            .collect();
        let sum = |jobs: usize| {
            ParPool::new(jobs)
                .reduce_ordered(&xs, 777, |_, c| c.iter().sum::<f32>(), |a, b| a + b)
                .unwrap()
                .to_bits()
        };
        let reference = sum(1);
        for jobs in [2, 3, 7, 16] {
            assert_eq!(sum(jobs), reference, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn reduce_ordered_empty_is_none() {
        let pool = ParPool::new(4);
        let none: Option<f32> =
            pool.reduce_ordered(&[] as &[f32], 8, |_, c| c.iter().sum(), |a, b| a + b);
        assert!(none.is_none());
    }

    #[test]
    fn for_each_chunk_mut_covers_every_chunk_once() {
        for jobs in [1, 2, 7] {
            let mut data = vec![0u32; 103];
            ParPool::new(jobs).for_each_chunk_mut(&mut data, 10, |i, c| {
                for v in c.iter_mut() {
                    *v += 1 + i as u32;
                }
            });
            for (k, v) in data.iter().enumerate() {
                assert_eq!(*v, 1 + (k / 10) as u32, "slot {k} under jobs={jobs}");
            }
        }
    }

    #[test]
    fn oversubscribed_pool_still_completes() {
        // More jobs than chunks: extra workers find the cursor exhausted.
        let out = ParPool::new(32).map_chunks(&[1, 2, 3], 2, |_, c| c.iter().sum::<i32>());
        assert_eq!(out, vec![3, 3]);
    }

    #[test]
    fn load_imbalance_does_not_reorder_results() {
        // Chunk 0 is much slower than the rest; results must still come
        // back in index order.
        let pool = ParPool::new(4);
        let out = pool.map_indexed(8, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
