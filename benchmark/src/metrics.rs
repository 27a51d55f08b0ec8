//! The names the benchmark is known by. `BENCHMARK.json` at the root
//! of the repository carries the same tables (a unit test holds the two
//! together); later issues cite these names verbatim.

/// A metric's name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

pub const WORKLOADS: [&str; 4] = ["warm-inproc", "cold-inproc", "serve-read", "serve-mixed"];

/// What a caller of the system sees; every workload reports every one,
/// with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.15),
    e2e("box_sum_qps", "1/s", true, 0.25),
    e2e("box_sum_p50_us", "us", false, 0.25),
    e2e("bytes_per_object", "B", false, 0.06),
];

/// Costs of single layers, from the traced run. A metric reads 0 on a
/// workload that does not exercise it. The first eight are caller-side
/// numbers only one workload can produce; the rest are prefixed with
/// the crate they measure.
pub const PER_LAYER: &[MetricDef] = &[
    down("error_rate", "ratio"),
    down("ios_per_query", "pages"),
    up("ecdf_sum_qps", "1/s"),
    up("func_sum_qps", "1/s"),
    down("open_p50_us", "us"),
    down("open_p99_us", "us"),
    up("write_objs_s", "1/s"),
    down("commit_p50_ms", "ms"),
    down("common.slab_scan_ns_per_entry", "ns"),
    down("common.horner_ns_per_eval", "ns"),
    down("pagestore.read_node_hit_ns", "ns"),
    down("pagestore.snapshot_read_node_ns", "ns"),
    down("pagestore.page_miss_us", "us"),
    down("pagestore.node_accesses_per_query", "count"),
    up("pagestore.buffer_hit_rate", "ratio"),
    up("pagestore.decode_hit_rate", "ratio"),
    down("pagestore.snapshot_pin_ns", "ns"),
    down("pagestore.commit_ms", "ms"),
    down("pagestore.wal_pages_per_object", "pages"),
    down("pagestore.wal_syncs_per_commit", "count"),
    down("pagestore.data_syncs_per_commit", "count"),
    down("pagestore.page_writes_per_commit", "pages"),
    down("pagestore.reopen_s", "s"),
    down("batree.dominance_sum_us", "us"),
    down("batree.insert_us_per_object", "us"),
    down("batree.bulk_load_s", "s"),
    down("ecdf.bulk_load_s", "s"),
    down("ecdf.dominance_sum_us", "us"),
    down("ecdf.node_accesses_per_query", "count"),
    down("core.reduction_self_ns", "ns"),
    down("core.oifbs_us", "us"),
    down("core.snapshot_open_us", "us"),
    down("core.snapshot_query_us", "us"),
    down("core.persist_us", "us"),
    down("serve.proto_encode_ns", "ns"),
    down("serve.proto_decode_ns", "ns"),
    down("serve.single_conn_p50_us", "us"),
    down("serve.overhead_us", "us"),
    up("serve.group_size", "count"),
    down("serve.decodes_per_query", "count"),
    up("serve.commits_per_round", "count"),
    down("serve.commit_p90_ms", "ms"),
    down("serve.shed", "count"),
    down("serve.expired", "count"),
    down("serve.protocol_errors", "count"),
    down("serve.gen_lateness_p99_us", "us"),
    down("workload.gen_s", "s"),
    down("harness.box_sum_p99_us", "us"),
    down("harness.trace_overhead_pct", "%"),
    down("harness.timer_ns", "ns"),
];

/// Measured values by metric name, in recording order.
#[derive(Debug, Default)]
pub struct Measured(Vec<(&'static str, f64)>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn rows<'a>(doc: &'a Value, key: &str) -> Vec<&'a Value> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .collect()
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = rows(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (row, def) in listed.iter().zip(table) {
                let s = |k: &str| row.get(k).and_then(Value::as_str).unwrap();
                assert_eq!(s("name"), def.name);
                assert_eq!(s("unit"), def.unit, "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(s("better"), better, "{}", def.name);
                if key == "end_to_end" {
                    let bound = row.get("bound").and_then(Value::as_f64);
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                }
            }
        }
    }
}
