//! A bounded work-stealing scheduler for CPU-bound simulation jobs.
//!
//! Replaces the seed's thread-per-job fan-out: a fixed pool of workers
//! (sized to the available parallelism by default) drains per-worker
//! deques, stealing from the back of a neighbour's deque when its own runs
//! dry.  Each job runs under panic isolation, so one diverging simulation
//! surfaces as an [`Err`] for that job only instead of aborting the sweep,
//! and results always come back in submission order regardless of the
//! worker count or steal pattern.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};

/// A job that panicked, with the panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The default worker count: the machine's available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every item on a fixed pool of `workers` threads and
/// returns one result per item, **in item order**.  A panicking job yields
/// `Err(JobPanic)` in its slot; the other jobs are unaffected.
///
/// `workers` is clamped to `1..=items.len()`, so the pool is always
/// bounded and never larger than the work.  A single worker is the
/// calling thread itself: spawning one thread per call would rebuild its
/// thread-local caches (the pooled pipeline, the prepared workloads)
/// every call, and under glibc a thread started while the previous one
/// still frees its caches gets a second malloc arena, which holds its
/// memory.
pub fn run_jobs<T, R>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.iter().map(|item| run_one(&f, item)).collect();
    }

    // Per-worker deques of item indices, filled round-robin.  A worker
    // pops from the front of its own deque and steals from the back of a
    // neighbour's, the classic split that keeps contention low.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..n {
        queues[i % workers]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(i);
    }

    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobPanic>)>();
    std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            s.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    if tx.send((i, run_one(f, &items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);

    // All workers have exited, so the channel holds exactly one result per
    // item; place them back into submission order.
    let mut slots: Vec<Option<Result<R, JobPanic>>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job produced exactly one result"))
        .collect()
}

/// Runs one job under panic isolation.
fn run_one<T, R>(f: &impl Fn(&T) -> R, item: &T) -> Result<R, JobPanic> {
    catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| JobPanic {
        message: panic_message(payload.as_ref()),
    })
}

/// Next index for worker `w`: own queue first, then steal.  Queues only
/// drain (jobs never enqueue new jobs), so an empty full scan means the
/// worker is done.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
    {
        return Some(i);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = &queues[(w + offset) % n];
        if let Some(i) = victim
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
        {
            return Some(i);
        }
    }
    None
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_jobs(&[0u8; 5], 1, |_| std::thread::current().id());
        assert!(out.into_iter().all(|r| r.expect("no panic") == caller));
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = run_jobs(&items, 4, |x| x * 2);
        let values: Vec<u64> = out.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(values, (0..37).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_and_oversized_pool_are_fine() {
        let none: Vec<u32> = Vec::new();
        assert!(run_jobs(&none, 8, |x| *x).is_empty());
        // More workers than items clamps to the item count.
        let out = run_jobs(&[1u32, 2], 64, |x| *x);
        assert_eq!(out.len(), 2);
    }
}
