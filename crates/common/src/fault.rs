//! The k-th-operation fault trigger that every fault-injecting wrapper
//! in the workspace runs on.
//!
//! A wrapper — `FaultPager` over a pager, `FaultStream` over a socket —
//! hands each operation to its [`Schedule`] before running it. The
//! schedule counts the operation, advances every armed spec that
//! matches it, and returns the spec that fires, if any. A spec fires on
//! the `at`-th matching operation since it was armed (one-shot), or on
//! every one from there on (sticky); when several fire at once the
//! first armed wins. Counting is exact and deterministic, so a sweep
//! over `at` replays one failure at every operation of a workload, and
//! a failing index reproduces on its own.
//!
//! A spec may *park* its operation instead of failing it: while the
//! schedule's gate is closed, the operation waits there, then runs —
//! and can still be failed by another spec that fired on it. A test
//! uses this to hold a thread at an exact point (a commit inside its
//! log fsync, a read inside a buffer miss) while it lines something up
//! behind it. A parked operation is counted once, like any other.
//!
//! Injected failures are [`Error::Io`] values whose message starts with
//! `"injected fault"`; [`is_injected`] tells them from real I/O errors.
//!
//! The schedule's lock is a leaf: nothing is acquired under it, and it
//! is released before the wrapped operation runs (a parked operation
//! waits on the condition variable, which releases it too).

use std::fmt;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::error::Error;

/// The prefix of every injected error's message.
const MARK: &str = "injected fault";

/// How long a parked operation waits for the gate before it runs
/// anyway: a test whose code under test wrongly waits on the parked
/// thread then fails an assertion instead of hanging.
const PARK_LIMIT: Duration = Duration::from_secs(5);

/// How long [`Schedule::wait_parked`] waits for an arrival.
const ARRIVAL_LIMIT: Duration = Duration::from_secs(10);

/// A wrapper's fault spec, as a [`Schedule`] sees it.
pub trait Trigger: Copy + fmt::Debug + Send {
    /// The operation kinds the wrapper reports.
    type Op: Copy + fmt::Debug + Send;
    /// Per-kind operation counters.
    type Counts: Copy + Default + fmt::Debug + Send;
    /// Adds one `op` to `counts`.
    fn count(counts: &mut Self::Counts, op: Self::Op);
    /// Whether this spec counts, and can fire on, `op`.
    fn matches(&self, op: Self::Op) -> bool;
    /// 1-based index, among matching operations since arming, at which
    /// the spec first fires.
    fn at(&self) -> u64;
    /// `true`: fires on every matching operation from the `at`-th on;
    /// `false`: on the `at`-th only.
    fn sticky(&self) -> bool;
    /// Whether firing parks the operation at the gate instead of
    /// failing it.
    fn parks(&self) -> bool {
        false
    }
}

struct State<T: Trigger> {
    /// Armed specs, each with the matching operations seen since it was
    /// armed.
    armed: Vec<(T, u64)>,
    counts: T::Counts,
    injected: u64,
    /// `Some` while tracing: the exact operation sequence, in order.
    trace: Option<Vec<T::Op>>,
    gate_closed: bool,
    parked: usize,
}

struct Shared<T: Trigger> {
    state: Mutex<State<T>>,
    gate: Condvar,
}

/// A clonable handle onto one fault schedule. Clones share it, so a
/// test keeps one while the wrapper it armed owns another.
pub struct Schedule<T: Trigger>(Arc<Shared<T>>);

impl<T: Trigger> Clone for Schedule<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T: Trigger> Default for Schedule<T> {
    fn default() -> Self {
        Self(Arc::new(Shared {
            state: Mutex::new(State {
                armed: Vec::new(),
                counts: T::Counts::default(),
                injected: 0,
                trace: None,
                gate_closed: false,
                parked: 0,
            }),
            gate: Condvar::new(),
        }))
    }
}

impl<T: Trigger> fmt::Debug for Schedule<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state();
        f.debug_struct("Schedule")
            .field("armed", &s.armed)
            .field("counts", &s.counts)
            .field("injected", &s.injected)
            .finish()
    }
}

impl<T: Trigger> Schedule<T> {
    /// An empty schedule with its gate open.
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `spec` to the schedule. Its operation count starts at zero
    /// now, whatever ran before.
    pub fn arm(&self, spec: T) {
        self.state().armed.push((spec, 0));
    }

    /// Removes every armed spec, fired or not. Counters are kept.
    pub fn disarm(&self) {
        self.state().armed.clear();
    }

    /// Operations counted since construction or the last
    /// [`reset_counts`](Self::reset_counts), failed ones included.
    pub fn counts(&self) -> T::Counts {
        self.state().counts
    }

    /// Faults injected since construction or the last
    /// [`reset_counts`](Self::reset_counts). A park is not a fault.
    pub fn injected(&self) -> u64 {
        self.state().injected
    }

    /// Zeroes the operation and injection counters; armed specs keep
    /// their own progress.
    pub fn reset_counts(&self) {
        let mut s = self.state();
        s.counts = T::Counts::default();
        s.injected = 0;
    }

    /// Starts recording the exact operation sequence, dropping any
    /// previous trace.
    pub fn start_trace(&self) {
        self.state().trace = Some(Vec::new());
    }

    /// Stops recording and returns the operations seen since
    /// [`start_trace`](Self::start_trace), in execution order.
    pub fn take_trace(&self) -> Vec<T::Op> {
        self.state().trace.take().unwrap_or_default()
    }

    /// Counts `op` and returns the spec that fails it, if any. If a
    /// parking spec fires on `op` while the gate is closed, the caller
    /// waits at the gate first; a parking spec is never returned.
    pub fn decide(&self, op: T::Op) -> Option<T> {
        let mut guard = self.state();
        let s = &mut *guard;
        T::count(&mut s.counts, op);
        if let Some(trace) = s.trace.as_mut() {
            trace.push(op);
        }
        let mut fire = None;
        let mut park = false;
        for (spec, seen) in &mut s.armed {
            if !spec.matches(op) {
                continue;
            }
            *seen += 1;
            let hit = if spec.sticky() {
                *seen >= spec.at()
            } else {
                *seen == spec.at()
            };
            if hit && spec.parks() {
                park = true;
            } else if hit && fire.is_none() {
                fire = Some(*spec);
            }
        }
        if fire.is_some() {
            s.injected += 1;
        }
        let park = park && s.gate_closed;
        if park {
            s.parked += 1;
            self.0.gate.notify_all();
            let (mut guard, _) = self
                .0
                .gate
                .wait_timeout_while(guard, PARK_LIMIT, |s| s.gate_closed)
                .unwrap_or_else(PoisonError::into_inner);
            guard.parked -= 1;
        }
        fire
    }

    /// Closes the gate: from now on an operation a parking spec fires
    /// on waits there.
    pub fn close_gate(&self) {
        self.state().gate_closed = true;
    }

    /// Opens the gate, letting every parked operation run.
    pub fn open_gate(&self) {
        self.state().gate_closed = false;
        self.0.gate.notify_all();
    }

    /// Waits until an operation is parked at the gate (`true`), or the
    /// gate is open or ten seconds pass (`false`).
    pub fn wait_parked(&self) -> bool {
        let (s, _) = self
            .0
            .gate
            .wait_timeout_while(self.state(), ARRIVAL_LIMIT, |s| {
                s.parked == 0 && s.gate_closed
            })
            .unwrap_or_else(PoisonError::into_inner);
        s.parked > 0
    }

    /// Whether an operation is parked at the gate right now.
    pub fn is_parked(&self) -> bool {
        self.state().parked > 0
    }
}

/// The I/O error an injected fault reports, of `kind`, for `what`.
pub fn injected_error(kind: io::ErrorKind, what: impl fmt::Display) -> io::Error {
    io::Error::new(kind, format!("{MARK}: {what}"))
}

/// Whether `err` was produced by fault injection, as opposed to a real
/// I/O failure or a typed error.
pub fn is_injected(err: &Error) -> bool {
    matches!(err, Error::Io(e) if e.to_string().starts_with(MARK))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec over bare `u8` operations: fires on op kind `on`.
    #[derive(Debug, Clone, Copy)]
    struct Spec {
        on: u8,
        at: u64,
        sticky: bool,
        parks: bool,
    }

    impl Trigger for Spec {
        type Op = u8;
        type Counts = u64;
        fn count(counts: &mut u64, _: u8) {
            *counts += 1;
        }
        fn matches(&self, op: u8) -> bool {
            op == self.on
        }
        fn at(&self) -> u64 {
            self.at
        }
        fn sticky(&self) -> bool {
            self.sticky
        }
        fn parks(&self) -> bool {
            self.parks
        }
    }

    fn spec(on: u8, at: u64, sticky: bool) -> Spec {
        Spec {
            on,
            at,
            sticky,
            parks: false,
        }
    }

    #[test]
    fn one_shot_and_sticky_fire_at_their_matching_index() {
        let s = Schedule::new();
        s.arm(spec(1, 2, false));
        s.arm(spec(2, 2, true));
        let fired: Vec<bool> = [1, 2, 1, 2, 1, 2]
            .iter()
            .map(|&op| s.decide(op).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, true, false, true]);
        assert_eq!((s.counts(), s.injected()), (6, 3));
        s.reset_counts();
        assert_eq!((s.counts(), s.injected()), (0, 0));
        s.disarm();
        assert!(s.decide(2).is_none());
    }

    #[test]
    fn the_first_armed_spec_wins_and_every_spec_counts() {
        let s = Schedule::new();
        s.arm(spec(1, 1, false));
        s.arm(spec(1, 1, true));
        assert!(!s.decide(1).expect("fires").sticky);
        // The first spec counted the op too: it is spent.
        assert!(s.decide(1).expect("sticky fires").sticky);
        assert_eq!(s.injected(), 2);
    }

    #[test]
    fn an_open_gate_parks_nothing() {
        let s = Schedule::new();
        s.arm(Spec {
            parks: true,
            ..spec(7, 1, true)
        });
        assert!(s.decide(7).is_none());
        assert!(!s.wait_parked());
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn injected_errors_are_told_apart() {
        let e = Error::Io(injected_error(io::ErrorKind::Other, "write"));
        assert!(is_injected(&e), "{e}");
        assert!(!is_injected(&Error::Io(io::Error::other("disk full"))));
        assert!(!is_injected(&crate::error::corrupt("injected fault")));
    }
}
