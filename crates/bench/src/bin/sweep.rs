//! **Sweeps** — every fault sweep of [`boxagg_bench::sweep`] at its
//! recorded full size, each report printed and written as JSON:
//!
//! * retry, BAT and ECDFu, error and torn-write faults, about 1000 of
//!   each domain's ops: `BENCH_PR4_FAULTS.json`;
//! * crash, BAT and ECDFu, kill, torn-kill and queued-kill, about 1000
//!   kill positions each: `BENCH_PR5_CRASH.json`;
//! * connection kill and server kill over the served conversation, at
//!   every op: `BENCH_PR10_CHAOS.json`.
//!
//! Every faulted run asserts its scenario's properties and panics on
//! the first violation. The smoke sizes, with their exact tallies, are
//! gated by `tests/sweeps.rs`.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin sweep -- [--seed S]`

use boxagg_bench::sweep::{
    self, ConnKill, Crash, Kill, Points, Retry, Scheme, Served, ServerKill, EXHAUSTIVE,
};

/// Faulted runs per full-size retry or crash sweep.
const RUNS: u64 = 1000;

fn seed() -> u64 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [] => 20020601,
        [flag, seed] if flag == "--seed" => seed.parse().expect("--seed takes an integer"),
        _ => {
            eprintln!("usage: sweep [--seed S]");
            std::process::exit(2);
        }
    }
}

/// Prints and writes one report, whose top-level members are `body`.
fn report(path: &str, body: &str) {
    let json = format!("{{\n{body}\n}}\n");
    print!("{json}");
    std::fs::write(path, json).expect("write the sweep report");
    println!("wrote {path}\n");
}

/// The `sweeps` array of the retry and crash reports.
fn sweeps(bench: &str, rows: &[String]) -> String {
    format!(
        "  \"bench\": \"{bench}\",\n  \"sweeps\": [\n{}\n  ]",
        rows.join(",\n")
    )
}

fn main() {
    let seed = seed();
    let schemes = [Scheme::BaTree, Scheme::EcdfB];

    let mut rows = Vec::new();
    for scheme in schemes {
        for (mode, torn) in [("error", false), ("torn-write", true)] {
            let t = sweep::run(&mut Retry::new(Points::full(scheme, seed), torn), RUNS);
            rows.push(format!(
                concat!(
                    "    {{\"scheme\": \"{}\", \"mode\": \"{}\", \"total_ops\": {}, ",
                    "\"ks_tested\": {}, \"build_failures\": {}, \"query_failures\": {}, ",
                    "\"typed_errors_only\": true, \"invariants_held\": true, ",
                    "\"retries_bit_identical\": true}}"
                ),
                scheme.name(),
                mode,
                t.domain,
                t.swept,
                t.get("build"),
                t.get("query"),
            ));
        }
    }
    report("BENCH_PR4_FAULTS.json", &sweeps("faults", &rows));

    let mut rows = Vec::new();
    for scheme in schemes {
        for kill in [Kill::Clean, Kill::Torn, Kill::Queued] {
            let mut crash = Crash::new(Points::full(scheme, seed), kill);
            let t = sweep::run(&mut crash, RUNS);
            let [c1, c2] = crash.commits();
            rows.push(format!(
                concat!(
                    "    {{\"scheme\": \"{}\", \"mode\": \"{}\", \"total_ops\": {}, ",
                    "\"commit1_ops\": {}, \"commit2_ops\": {}, \"ks_tested\": {}, ",
                    "\"recovered_initial\": {}, \"recovered_txn1\": {}, \"recovered_txn2\": {}, ",
                    "\"txns_replayed\": {}, \"tails_discarded\": {}, ",
                    "\"committed_state_always_bit_identical\": true, ",
                    "\"no_committed_txn_lost\": true, \"no_uncommitted_txn_surfaced\": true}}"
                ),
                scheme.name(),
                kill.name(),
                t.domain,
                c1,
                c2,
                t.swept,
                t.get("empty"),
                t.get("txn1"),
                t.get("txn2"),
                t.get("replays"),
                t.get("tails"),
            ));
        }
    }
    report("BENCH_PR5_CRASH.json", &sweeps("crashes", &rows));

    let cfg = Served::full(seed);
    let conn = sweep::run(&mut ConnKill::new(cfg.clone()), EXHAUSTIVE);
    let server = sweep::run(&mut ServerKill::new(cfg.clone()), EXHAUSTIVE);
    let boundaries: Vec<String> = (0..=cfg.batches)
        .map(|m| server.get(&format!("boundary {m}")).to_string())
        .collect();
    let both = |label: &str| conn.get(label) + server.get(label);
    let body = format!(
        concat!(
            "  \"bench\": \"chaos\",\n",
            "  \"workload\": {{\"base_objects\": {}, \"batches\": {}, \"ops_per_batch\": {}, ",
            "\"queries\": {}, \"seed\": {}, \"stride\": 1}},\n",
            "  \"connection_sweep\": {{\"domain_ops\": {}, \"kills_tested\": {}, ",
            "\"kills_fired\": {}, \"reconnect_replay_paths\": {}}},\n",
            "  \"server_sweep\": {{\"domain_ops\": {}, \"kills_tested\": {}, ",
            "\"server_restarts\": {}, \"wal_txns_replayed\": {}, ",
            "\"recovered_boundaries\": [{}], \"in_flight_commits_landed\": {}}},\n",
            "  \"replays_skipped\": {},\n",
            "  \"answer_vectors_checked\": {},\n",
            "  \"every_kill_one_committed_state\": true,\n",
            "  \"writes_applied_exactly_once\": true,\n",
            "  \"answers_bit_identical_to_fault_free\": true"
        ),
        cfg.base_objects,
        cfg.batches,
        cfg.ops_per_batch,
        cfg.queries,
        cfg.seed,
        conn.domain,
        conn.swept,
        conn.swept - conn.get("unfired"),
        conn.get("reconnect"),
        server.domain,
        server.swept,
        server.swept,
        server.get("wal replays"),
        boundaries.join(", "),
        server.get("in-flight landed"),
        both("replays"),
        both("answers"),
    );
    report("BENCH_PR10_CHAOS.json", &body);
}
