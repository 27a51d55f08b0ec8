//! Everything a workload feeds the product, derived from `--seed`:
//! the paper's §6 objects, the mixed-QBS query set `Q`, functional
//! value functions, the writer's fresh objects, Poisson due times —
//! and the independent `O(n)` scans answers are checked against.

use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_core::functional::FunctionalObject;
use boxagg_workload::{assign_functions, gen_objects, gen_queries, DatasetConfig};

/// Query-box sizes of Fig. 9b, as fractions of the space.
pub const QBS: [f64; 4] = [1e-4, 1e-3, 1e-2, 1e-1];

/// Mean object side of the paper's dataset, reused for written objects.
const MEAN_SIDE: f64 = 1e-4;

/// Queries checked against the `O(n)` scan per operation type.
pub const ORACLE_SAMPLE: usize = 500;

pub struct Inputs {
    pub space: Rect,
    pub objects: Vec<(Rect, f64)>,
    /// `Q`: equal shares of every [`QBS`], shuffled once.
    pub queries: Vec<Rect>,
}

/// Generates `n` paper objects and `per_qbs` queries at each QBS.
pub fn generate(n: usize, per_qbs: usize, seed: u64) -> Inputs {
    let cfg = DatasetConfig::paper(n, seed);
    let objects = gen_objects(&cfg);
    let mut queries = Vec::with_capacity(per_qbs * QBS.len());
    for (i, qbs) in QBS.iter().enumerate() {
        queries.extend(gen_queries(2, per_qbs, *qbs, seed ^ (0x51_0000 + i as u64)));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5487_FF1E);
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.gen_range(0..i + 1));
    }
    Inputs {
        space: cfg.space(),
        objects,
        queries,
    }
}

/// Degree-2 value functions over the first `n` objects.
pub fn functional_objects(objects: &[(Rect, f64)], n: usize, seed: u64) -> Vec<FunctionalObject> {
    assign_functions(&objects[..n.min(objects.len())], 2, seed ^ 0xF0_0D)
        .into_iter()
        .map(|(rect, f)| FunctionalObject::new(rect, f).expect("2-d function on a 2-d box"))
        .collect()
}

/// The `k`-th fresh object a writer inserts: paper-sized, seeded.
pub struct FreshObjects {
    rng: StdRng,
}

impl FreshObjects {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x77_1735),
        }
    }

    pub fn next_object(&mut self) -> (Rect, f64) {
        let rng = &mut self.rng;
        let center = [rng.gen::<f64>(), rng.gen::<f64>()];
        let low = Point::from_fn(2, |i| {
            (center[i] - rng.gen::<f64>() * MEAN_SIDE).clamp(0.0, 1.0)
        });
        let high = Point::from_fn(2, |i| {
            (center[i] + rng.gen::<f64>() * MEAN_SIDE).clamp(0.0, 1.0)
        });
        (Rect::new(low, high), 1.0 + rng.gen::<f64>() * 99.0)
    }
}

/// `count` distinct-ish seeded positions in `0..len`.
pub fn sample_indices(len: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0_5A3F);
    (0..count.min(len)).map(|_| rng.gen_range(0..len)).collect()
}

/// Independent box-sum: a scan over every object, no index code.
pub fn scan_box_sum<'a>(objects: impl IntoIterator<Item = &'a (Rect, f64)>, q: &Rect) -> f64 {
    objects
        .into_iter()
        .filter(|(r, _)| r.intersects(q))
        .map(|(_, v)| v)
        .sum()
}

/// Independent functional box-sum: every object's exact integral over
/// its intersection with `q`.
pub fn scan_functional_sum(objects: &[FunctionalObject], q: &Rect) -> f64 {
    objects.iter().map(|o| o.contribution(q)).sum()
}

/// Absolute tolerance for comparing an index answer with a scan:
/// `1e-9 · Σ|v|` — the `2^d` dominance sums being subtracted are each
/// as large as the whole dataset, so that is the scale of the
/// cancellation error.
pub fn scan_tolerance(total_abs_value: f64) -> f64 {
    1e-9 * total_abs_value.max(1.0)
}

pub fn total_abs_value(objects: &[(Rect, f64)]) -> f64 {
    objects.iter().map(|(_, v)| v.abs()).sum()
}

/// Sum of the absolute masses (`|∫ f|` over each box) of functional
/// objects: the scale a functional box-sum is compared at.
pub fn total_abs_mass(objects: &[FunctionalObject]) -> f64 {
    objects.iter().map(|o| o.mass().abs()).sum()
}

/// Due times (ns from the window's start) of a Poisson process of
/// `rate_hz` over `horizon_ns`, seeded.
pub fn poisson_due_times(rate_hz: f64, horizon_ns: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9015_5011);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u = (1.0 - rng.gen::<f64>()).max(1e-12);
        t += -u.ln() / rate_hz * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// One request of an open loop: how late it left against its schedule
/// and how long its caller waited, both from the due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSample {
    pub lateness_ns: u64,
    pub latency_ns: u64,
}

/// Drives one synchronous connection through an open-loop schedule.
/// Request `i` is sent at `max(due[i], previous reply)`: the schedule
/// never slips, so when a reply is late the requests queued behind it
/// are charged their wait — latency runs from the *due* time.
///
/// `now` reads the clock (ns), `wait_until` blocks until a clock value,
/// `call` performs request `i` synchronously.
pub fn run_open_loop(
    due: &[u64],
    now: impl Fn() -> u64,
    wait_until: impl Fn(u64),
    mut call: impl FnMut(usize),
) -> Vec<OpenSample> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &due_ns) in due.iter().enumerate() {
        if now() < due_ns {
            wait_until(due_ns);
        }
        let sent = now();
        call(i);
        out.push(OpenSample {
            lateness_ns: sent.saturating_sub(due_ns),
            latency_ns: now().saturating_sub(due_ns),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn inputs_follow_the_seed() {
        let a = generate(500, 25, 7);
        let b = generate(500, 25, 7);
        let c = generate(500, 25, 8);
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.objects, c.objects);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.queries.len(), 100);
        // Shuffled: the first QBS no longer fills the first quarter.
        let side = |q: &Rect| q.extent(0);
        assert!(a.queries[..25].iter().any(|q| side(q) > 0.05));
        let mut x = FreshObjects::new(7);
        let mut y = FreshObjects::new(7);
        assert_eq!(x.next_object(), y.next_object());
        assert_eq!(sample_indices(100, 10, 7), sample_indices(100, 10, 7));
    }

    #[test]
    fn scan_counts_closed_intersections() {
        let objs = vec![
            (Rect::from_bounds(&[(0.0, 0.2), (0.0, 0.2)]), 1.0),
            (Rect::from_bounds(&[(0.2, 0.4), (0.2, 0.4)]), 2.0),
            (Rect::from_bounds(&[(0.6, 0.8), (0.6, 0.8)]), 4.0),
        ];
        let q = Rect::from_bounds(&[(0.1, 0.2), (0.1, 0.2)]);
        assert_eq!(scan_box_sum(&objs, &q), 3.0, "touching corners intersect");
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_due_times(1000.0, 10_000_000_000, 42);
        assert_eq!(a, poisson_due_times(1000.0, 10_000_000_000, 42));
        assert_ne!(a, poisson_due_times(1000.0, 10_000_000_000, 43));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < 10_000_000_000));
        let n = a.len() as f64;
        assert!((9_600.0..10_400.0).contains(&n), "{n} arrivals in 10 s");
    }

    /// A simulated clock and a server that takes `service` ns, except
    /// request `slow`, which stalls for `stall` ns.
    fn simulate(due: &[u64], service: u64, slow: usize, stall: u64) -> Vec<OpenSample> {
        let clock = Cell::new(0u64);
        run_open_loop(
            due,
            || clock.get(),
            |t| clock.set(t),
            |i| clock.set(clock.get() + if i == slow { stall } else { service }),
        )
    }

    #[test]
    fn on_time_requests_cost_their_service_time() {
        let due = [1_000, 5_000, 9_000];
        let got = simulate(&due, 300, usize::MAX, 0);
        for s in got {
            assert_eq!(
                s,
                OpenSample {
                    lateness_ns: 0,
                    latency_ns: 300
                }
            );
        }
    }

    #[test]
    fn a_late_reply_is_charged_to_the_requests_queued_behind_it() {
        // Request 0 stalls for 10 µs; requests 1 and 2 were due at 2 µs
        // and 3 µs and leave as soon as the connection frees up.
        let due = [1_000, 2_000, 3_000, 50_000];
        let got = simulate(&due, 300, 0, 10_000);
        assert_eq!(got[0].latency_ns, 10_000);
        assert_eq!(got[1].lateness_ns, 11_000 - 2_000);
        assert_eq!(got[1].latency_ns, 11_300 - 2_000);
        assert_eq!(got[2].lateness_ns, 11_300 - 3_000);
        assert_eq!(got[2].latency_ns, 11_600 - 3_000);
        // A closed loop would have reported 300 ns for both. Once the
        // backlog drains the schedule is met again.
        assert_eq!(
            got[3],
            OpenSample {
                lateness_ns: 0,
                latency_ns: 300
            }
        );
    }
}
