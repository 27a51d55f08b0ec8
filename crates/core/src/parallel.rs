//! Worker pool for the `2^d` independent per-corner bulk loads.
//!
//! The corner reduction (§2) keeps `2^d` *independent* indexes, and
//! bulk-loading builds them from disjoint corner point sets — the one
//! embarrassingly parallel job left in the engine (box-sum queries are
//! a single sequential loop; see `reduction`). A bulk constructor makes
//! a [`WorkerPool`] of `StoreConfig::parallelism` threads, runs the
//! loads on it and drops it. (Built on `std` channels only: the
//! workspace builds offline, without a thread-pool crate.)
//!
//! Determinism contract: [`WorkerPool::run`] returns results **in task
//! order** and reports the error earliest in task order, exactly like a
//! sequential loop would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use boxagg_common::error::Result;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads fed from one shared
/// injector channel.
///
/// With `threads <= 1` no threads are spawned at all: every submitted
/// closure runs inline on the caller's thread, giving deterministic
/// sequential execution (the paper-faithful mode).
///
/// The pool is self-healing: a worker thread that dies anyway (the
/// ordinary panic path is caught, but a panic *payload* whose `Drop`
/// panics unwinds straight through the catch) is detected and respawned
/// on the next [`execute`](Self::execute) or [`run`](Self::run), so the
/// pool never runs permanently short of threads.
pub struct WorkerPool {
    /// `None` in sequential mode; dropped before joining on shutdown.
    sender: Option<Sender<Job>>,
    /// Shared receiver end of the injector — kept so dead workers can
    /// be respawned onto the same queue. `None` in sequential mode.
    receiver: Option<Arc<Mutex<Receiver<Job>>>>,
    /// Join handles, behind a lock so `&self` callers can reap dead
    /// workers and install replacements.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Worker deaths not yet healed — bumped by [`DeathNotice`] as a
    /// worker thread unwinds, so [`heal`](Self::heal) is one relaxed
    /// atomic load on the happy path instead of a handle scan.
    dead: Arc<AtomicUsize>,
    threads: usize,
}

/// Unwind sentinel held by every worker thread: if the thread dies of a
/// panic that escaped the job catch (see [`worker_loop`]), the `Drop`
/// runs during the unwind and flags the death for the next
/// [`WorkerPool::heal`]. The flagging itself must never panic — it is
/// a single atomic increment.
struct DeathNotice(Arc<AtomicUsize>);

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` workers (`<= 1` means inline
    /// sequential execution, no threads spawned).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return Self {
                sender: None,
                receiver: None,
                workers: Mutex::new(Vec::new()),
                dead: Arc::new(AtomicUsize::new(0)),
                threads,
            };
        }
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let dead = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|_| spawn_worker(&receiver, &dead))
            .collect();
        Self {
            sender: Some(sender),
            receiver: Some(receiver),
            workers: Mutex::new(workers),
            dead,
            threads,
        }
    }

    /// Number of worker threads (1 = inline sequential mode).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers currently alive (== [`threads`](Self::threads) in a
    /// healthy pool; always 1 in sequential mode).
    pub fn live_workers(&self) -> usize {
        if self.receiver.is_none() {
            return 1;
        }
        let workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Reaps any worker thread that died (a panic escaping the
    /// `worker_loop` catch — e.g. a panic payload whose `Drop` panics)
    /// and spawns a replacement onto the same injector queue, so the
    /// pool's capacity is restored before the next batch of jobs.
    /// One relaxed atomic load when every worker is healthy.
    fn heal(&self) {
        if self.dead.load(Ordering::SeqCst) == 0 {
            return;
        }
        let Some(receiver) = &self.receiver else {
            return;
        };
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        let mut reaped = 0usize;
        for slot in workers.iter_mut() {
            if !slot.is_finished() {
                continue;
            }
            let fresh = spawn_worker(receiver, &self.dead);
            if let Err(payload) = std::mem::replace(slot, fresh).join() {
                // The payload already killed a worker once — its `Drop`
                // panicked straight through the job catch. Leak it
                // rather than let it detonate again on this thread
                // (`join`'s Err *is* that payload; `forget` skips its
                // Drop). The panic itself surfaced to the job's
                // submitter long ago, as the task that never reported.
                std::mem::forget(payload);
            }
            reaped += 1;
        }
        if reaped > 0 {
            self.dead.fetch_sub(
                reaped.min(self.dead.load(Ordering::SeqCst)),
                Ordering::SeqCst,
            );
        }
    }

    /// Submits one job. In sequential mode it runs inline before this
    /// returns; otherwise it is queued for the next free worker. A job
    /// that panics does not kill its worker (the panic is caught and the
    /// worker returns to the queue); the submitter notices through
    /// whatever channel the job was supposed to report on.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        match &self.sender {
            Some(sender) => {
                self.heal();
                sender
                    .send(Box::new(job))
                    .expect("worker pool shut down while in use")
            }
            None => job(),
        }
    }

    /// Runs `f(0), …, f(tasks - 1)` on the pool and returns the results
    /// **in task order**. If any task fails, the error earliest in task
    /// order is returned — same as the sequential path would report.
    ///
    /// # Panics
    ///
    /// Panics if a task panics (the panic is observed as the task never
    /// reporting back).
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Result<Vec<T>>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T> + Send + Sync + 'static,
    {
        if self.sender.is_none() || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let f = Arc::new(f);
        let (tx, rx) = channel();
        for i in 0..tasks {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                // lint: allow(discarded-result) -- send fails only if the collector hung up after a panic
                let _ = tx.send((i, f(i)));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Result<T>>> = (0..tasks).map(|_| None).collect();
        for _ in 0..tasks {
            let (i, value) = rx
                .recv()
                .expect("a worker task panicked before reporting its result");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task reports exactly once"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain the queue and exit.
        self.sender.take();
        let workers = self
            .workers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for w in workers.drain(..) {
            if let Err(payload) = w.join() {
                // See `heal`: a payload that killed its worker must not
                // be dropped (its Drop is what panicked); leak it.
                std::mem::forget(payload);
            }
        }
    }
}

fn spawn_worker(receiver: &Arc<Mutex<Receiver<Job>>>, dead: &Arc<AtomicUsize>) -> JoinHandle<()> {
    let receiver = Arc::clone(receiver);
    let notice = DeathNotice(Arc::clone(dead));
    std::thread::spawn(move || {
        // Flags the pool if this thread unwinds out of the loop.
        let _notice = notice;
        worker_loop(&receiver)
    })
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = receiver.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match job {
            // A panicking job must not take the worker down with it —
            // the pool outlives any single task. (A panic *payload*
            // whose own Drop panics still unwinds through this catch
            // and kills the thread; the DeathNotice sentinel flags that
            // and `WorkerPool::heal` respawns a replacement.)
            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::error::invalid_arg;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(13, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_single_task_edge_cases() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run(0, Ok).unwrap(), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| Ok(i + 7)).unwrap(), vec![7]);
    }

    #[test]
    fn first_error_in_task_order_wins() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let err = pool
                .run(8, |i| {
                    if i >= 3 {
                        Err(invalid_arg(format!("task {i}")))
                    } else {
                        Ok(i)
                    }
                })
                .unwrap_err();
            assert!(err.to_string().contains("task 3"), "got: {err}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..20).map(|_| AtomicUsize::new(0)).collect());
        let pool = WorkerPool::new(4);
        let c = Arc::clone(&counts);
        pool.run(20, move |i| {
            c[i].fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_workers_actually_overlap() {
        // With as many threads as tasks, every task can wait for all
        // others to have started — this deadlocks if execution were
        // secretly sequential.
        let started = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(4);
        let s = Arc::clone(&started);
        pool.run(4, move |_| {
            s.fetch_add(1, Ordering::SeqCst);
            while s.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn pool_survives_many_rounds() {
        // Workers are reused across `run` calls. 100 rounds
        // on one pool must neither leak workers nor wedge the channel.
        let pool = WorkerPool::new(3);
        for round in 0..100usize {
            let out = pool.run(5, move |i| Ok(round + i)).unwrap();
            assert_eq!(out, (round..round + 5).collect::<Vec<_>>());
        }
    }

    /// A panic payload whose `Drop` panics: `catch_unwind` in the
    /// worker loop catches the *panic*, but dropping the caught payload
    /// re-panics and unwinds the worker thread itself.
    struct Bomb;

    impl Drop for Bomb {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                std::panic::panic_any("bomb payload detonated on drop");
            }
        }
    }

    #[test]
    fn pool_respawns_a_worker_killed_by_a_drop_bomb_payload() {
        let pool = WorkerPool::new(4);
        pool.execute(|| std::panic::panic_any(Bomb));
        // Wait for the worker thread to actually die (the unwind is
        // asynchronous to the submitter).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.live_workers() == 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never died; the regression this test guards is gone \
                 (fine) or the bomb was defused (check worker_loop)"
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.live_workers(), 3, "exactly one worker died");

        // The next run must heal the pool back to full strength…
        let out = pool.run(8, Ok).unwrap();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.live_workers(), 4, "dead worker was respawned");

        // …and all four workers must be genuinely usable: this barrier
        // task deadlocks unless four workers run it concurrently.
        let started = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&started);
        pool.run(4, move |_| {
            s.fetch_add(1, Ordering::SeqCst);
            while s.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                assert!(i != 2, "task 2 explodes");
                Ok(i)
            })
        }));
        assert!(result.is_err(), "the panic must surface to the caller");
        // Workers caught the panic; the pool still works.
        let out = pool.run(4, Ok).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
