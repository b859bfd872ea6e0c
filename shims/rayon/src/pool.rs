//! The persistent worker pool behind every parallel adaptor.
//!
//! A parallel call is a [`Job`]: `n` indexed tasks whose indices are
//! claimed one at a time from a shared atomic counter. The calling thread
//! always works on its own job; up to `workers - 1` pool threads join it.
//! Helper threads are spawned lazily, the first time a call asks for more
//! of them than exist, and live for the rest of the process, parked on a
//! [`Condvar`] between jobs — an idle helper never spins, so it takes no
//! CPU from rank threads, serve replicas or anything else on the host.
//!
//! The pool runs one job at a time. A call that finds it busy — a kernel
//! called from inside a chunk, a second serve replica, another in-process
//! rank — runs all of its tasks inline, in index order, which is exactly
//! what a one-worker call does. Nothing ever waits for the pool to become
//! free, so nested and concurrent calls cannot deadlock.
//!
//! The state lock is held only for bookkeeping, never while a task runs. A
//! panicking task is caught (on the caller or on a helper), the remaining
//! indices are cancelled, the caller waits until every helper has left the
//! job — the job lives on the caller's stack — and the first panic is then
//! re-raised on the caller. The pool stays usable afterwards.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One parallel call: tasks `0..n`, each claimed by exactly one thread.
struct Job<'a> {
    task: &'a (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
}

impl Job<'_> {
    /// Claim and run task indices until none are left. `Relaxed` suffices:
    /// the counter only hands out indices, and the tasks' writes reach the
    /// caller through the state lock each helper takes on leaving the job.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            (self.task)(i);
        }
    }

    /// Hand out no further indices (a task panicked).
    fn cancel(&self) {
        self.next.store(self.n, Ordering::Relaxed);
    }
}

/// The posted job, lifetime-erased so it can sit in the shared state.
struct JobPtr(*const Job<'static>);

// SAFETY: a `Job` is `Sync` (an atomic counter and a `Sync` closure
// reference), and its caller does not return — or unwind — before every
// helper that took this pointer has left the job (`State::active == 0`).
unsafe impl Send for JobPtr {}

struct State {
    /// The job helpers may join: posted by its caller, withdrawn once the
    /// caller has run out of indices.
    job: Option<JobPtr>,
    /// A caller owns the pool, from posting its job until the last helper
    /// has left it.
    busy: bool,
    /// Helpers that may still join the posted job.
    seats: usize,
    /// Helpers currently inside the posted job.
    active: usize,
    /// Helper threads spawned so far.
    spawned: usize,
    /// First panic caught on a helper during the current job.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is posted; idle helpers park here.
    work: Condvar,
    /// Signalled when the last helper leaves a job; its caller parks here.
    done: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        job: None,
        busy: false,
        seats: 0,
        active: 0,
        spawned: 0,
        panic: None,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No task runs under the lock, so poisoning cannot leave it torn.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawn helpers until `want` exist. A failed spawn leaves the pool
    /// smaller; calls then run with the helpers it has. Helpers are never
    /// joined: they live as long as the process, and a task's panic is
    /// caught inside the helper and handed to the caller instead.
    fn grow(&'static self, st: &mut State, want: usize) {
        while st.spawned < want {
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{}", st.spawned))
                .spawn(move || self.helper());
            if spawned.is_err() {
                return;
            }
            st.spawned += 1;
        }
    }

    /// Post `job` for up to `helpers` helpers, growing the pool if needed.
    /// Returns the seats offered, or `None` if another job holds the pool.
    fn post(&'static self, job: &Job<'_>, helpers: usize) -> Option<usize> {
        let mut st = self.lock();
        if st.busy {
            return None;
        }
        self.grow(&mut st, helpers);
        st.busy = true;
        st.seats = helpers.min(st.spawned);
        st.job = Some(JobPtr(std::ptr::from_ref(job).cast::<Job<'static>>()));
        Some(st.seats)
    }

    /// Withdraw the posted job, wait until every helper has left it, free
    /// the pool, and return the first panic a helper caught.
    fn finish(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.lock();
        st.job = None;
        st.seats = 0;
        while st.active > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.busy = false;
        st.panic.take()
    }

    /// A helper thread's whole life: join posted jobs while seats remain,
    /// park otherwise.
    fn helper(&self) {
        let mut st = self.lock();
        loop {
            let job = match &st.job {
                Some(job) if st.seats > 0 => job.0,
                _ => {
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            st.seats -= 1;
            st.active += 1;
            drop(st);
            // SAFETY: the job outlives this use; see `JobPtr`.
            let job = unsafe { &*job };
            let result = panic::catch_unwind(AssertUnwindSafe(|| job.work()));
            if result.is_err() {
                job.cancel();
            }
            st = self.lock();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            st.active -= 1;
            if st.active == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Run `task(i)` for every `i` in `0..n` on up to `workers` threads: the
/// caller plus `workers - 1` pool helpers. With one worker, or when the
/// pool is already running another job, the tasks run inline in index
/// order. Returns once every task has finished; re-raises the first panic.
pub(crate) fn run(n: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
    let helpers = workers.min(n).saturating_sub(1);
    let job = Job {
        task,
        n,
        next: AtomicUsize::new(0),
    };
    let posted = if helpers > 0 {
        POOL.post(&job, helpers)
    } else {
        None
    };
    let Some(seats) = posted else {
        (0..n).for_each(task);
        return;
    };
    // Wake after unlocking, so a woken helper does not block on the lock.
    for _ in 0..seats {
        POOL.work.notify_one();
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(|| job.work()));
    if mine.is_err() {
        job.cancel();
    }
    let theirs = POOL.finish();
    if let Some(payload) = mine.err().or(theirs) {
        panic::resume_unwind(payload);
    }
}
