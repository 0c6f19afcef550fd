//! `mhca-pool` — a parked tile pool owned by one caller.
//!
//! [`TilePool::run`] runs one borrowed job over `tiles` tile indices:
//! the calling thread runs tile 0 and worker `i` always runs tile `i`.
//! That fixed affinity keeps each tile's stripe of the caller's data
//! warm in one core's cache from call to call. Workers are created on
//! the first call that needs them and joined when the pool is dropped.
//! Between calls they sleep on a [`Condvar`] and never spin, so an idle
//! pool costs no CPU time. A warm call allocates nothing: the job is
//! handed over as a borrowed `&dyn Fn(usize)`, and the per-tile data is
//! whatever the job reaches by tile index.
//!
//! A pool is owned, not global: two owners on two threads never share
//! workers or wait on each other, and `run` takes `&mut self`, so one
//! pool never runs two jobs at once.
//!
//! A panic in any tile is caught, every other tile still runs to its
//! end, and then `run` re-raises the payload on the caller: the
//! caller's own panic first, else the lowest panicking tile's.
//!
//! Handing a borrowed job to threads that outlive the call needs its
//! lifetime erased. That is the one `unsafe` block in the crate (the
//! crate is otherwise `#![deny(unsafe_code)]`); its `SAFETY:` comment
//! gives the argument.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// The job type: called once per tile with the tile index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// A panic payload, as `catch_unwind` returns it.
type Payload = Box<dyn Any + Send>;

/// A pool of parked workers; see the crate docs.
#[derive(Default)]
pub struct TilePool {
    shared: Arc<Shared>,
    /// Worker `i` runs tile `i + 1`.
    workers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Workers wait here for the next job (or shutdown).
    start: Condvar,
    /// The caller waits here for `running` to reach zero.
    done: Condvar,
}

#[derive(Default)]
struct State {
    /// The posted job; `Some` only while a `run` is in progress.
    job: Option<&'static Job<'static>>,
    /// Tile count of the posted job.
    tiles: usize,
    /// Bumped once per posted job, so a worker runs each job once.
    epoch: u64,
    /// Workers still running the posted job.
    running: usize,
    /// The lowest panicking worker tile of the posted job, with its payload.
    panic: Option<(usize, Payload)>,
    shutdown: bool,
}

/// Locks the pool state. No code panics while holding the lock (jobs run
/// outside it), so a poisoned lock still guards consistent state.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl TilePool {
    /// An empty pool; workers are created by the first [`TilePool::run`]
    /// with more than one tile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of workers created so far (the caller is not counted).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job(t)` once for every `t` in `0..tiles` and returns when all
    /// have ended: tile 0 on the calling thread, tile `i` on worker `i`
    /// (created on first use). `tiles <= 1` runs inline and wakes no
    /// worker.
    ///
    /// # Panics
    ///
    /// Re-raises a tile's panic payload after every tile has ended (the
    /// caller's own first, else the lowest panicking tile's), and panics
    /// if a worker thread cannot be created.
    pub fn run<F: Fn(usize) + Sync>(&mut self, tiles: usize, job: F) {
        self.run_dyn(tiles, &job);
    }

    fn run_dyn(&mut self, tiles: usize, job: &Job<'_>) {
        if tiles <= 1 {
            if tiles == 1 {
                job(0);
            }
            return;
        }
        self.grow(tiles - 1);
        #[allow(unsafe_code)]
        // SAFETY: only the lifetime is erased; the type is unchanged. The
        // `'static` reference is stored in `State::job` and read by the
        // workers of this epoch only. This function neither returns nor
        // unwinds until every one of them has finished with it: tile 0's
        // panic is caught, then the wait below holds until `running` is
        // zero, and each worker decrements `running` only after its call
        // of the job has returned or unwound (caught). Neither `lock` nor
        // `wait` can panic on poisoning, and the job is cleared before the
        // lock is released for the last time. So the borrow behind `job`
        // outlives every use of the erased reference.
        let erased: &'static Job<'static> =
            unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(erased);
            st.tiles = tiles;
            st.running = tiles - 1;
            st.epoch = st.epoch.wrapping_add(1);
        }
        self.shared.start.notify_all();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        let theirs = {
            let mut st = lock(&self.shared.state);
            while st.running > 0 {
                st = wait(&self.shared.done, st);
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some((_, payload)) = theirs {
            panic::resume_unwind(payload);
        }
    }

    /// Creates workers until there are `n`.
    fn grow(&mut self, n: usize) {
        while self.workers.len() < n {
            let tile = self.workers.len() + 1;
            let shared = Arc::clone(&self.shared);
            let seen = lock(&shared.state).epoch;
            let handle = thread::Builder::new()
                .name(format!("mhca-tile-{tile}"))
                .spawn(move || worker(&shared, tile, seen))
                .expect("failed to create a tile worker");
            self.workers.push(handle);
        }
    }
}

/// Worker loop for tile `tile`: sleep until a job with that tile is
/// posted, run it, report, repeat until shutdown.
fn worker(shared: &Shared, tile: usize, mut seen: u64) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if tile < st.tiles {
                        break st.job.expect("a job is posted while its epoch runs");
                    }
                }
                st = wait(&shared.start, st);
            }
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(tile)));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.as_ref().is_none_or(|&(t, _)| tile < t) {
                st.panic = Some((tile, payload));
            }
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for TilePool {
    /// Wakes every worker with the shutdown flag and joins it.
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.start.notify_all();
        for handle in self.workers.drain(..) {
            // Jobs' panics are caught inside the worker, so a join error
            // can only come from the loop itself; there is nothing to add.
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for TilePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TilePool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_tile_runs_inline_without_workers() {
        let mut pool = TilePool::new();
        let hits = AtomicUsize::new(0);
        pool.run(1, |t| {
            assert_eq!(t, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        pool.run(0, |_| unreachable!("no tile to run"));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.workers(), 0);
    }

    #[test]
    fn smaller_jobs_leave_extra_workers_idle() {
        let mut pool = TilePool::new();
        let sum = AtomicUsize::new(0);
        pool.run(4, |t| {
            sum.fetch_add(t + 1, Ordering::Relaxed);
        });
        assert_eq!(pool.workers(), 3);
        pool.run(2, |t| {
            sum.fetch_add(10 * (t + 1), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10 + 30);
        assert_eq!(pool.workers(), 3);
    }
}
