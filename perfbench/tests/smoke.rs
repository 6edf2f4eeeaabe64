//! Tiny-size smoke runs of every workload: each run passes its checks and
//! emits every named metric with its unit, and `BENCHMARK.json` lists only
//! metrics the runs emit, in the same units, that apply to every workload.

use aqf_perfbench::report::Report;
use aqf_perfbench::workloads::Workload;
use aqf_perfbench::{timed, traced};
use std::time::Duration;

const END_TO_END: [(&str, &str); 10] = [
    ("events_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("timely_read_frac", "fraction"),
    ("failed_frac", "fraction"),
];

/// Read-only metrics: not applicable on the write-only workloads.
const READ_ONLY: [&str; 7] = [
    "read_p50_ms",
    "read_p99_ms",
    "timely_read_frac",
    "core.client.select_us_p50",
    "core.client.select_us_p99",
    "core.client.cdf_cache_hit_frac",
    "core.client.replicas_per_read",
];

const PER_LAYER: [(&str, &str); 42] = [
    ("trace.wall_s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.timers_fired", "count"),
    ("sim.net.delivered", "count"),
    ("sim.net.dropped", "count"),
    ("sim.net.duplicated", "count"),
    ("workload.self_s", "s"),
    ("group.self_s", "s"),
    ("group.calls", "count"),
    ("group.multicasts_sent", "count"),
    ("group.retransmissions", "count"),
    ("group.retransmits_per_multicast", "ratio"),
    ("group.duplicates_dropped", "count"),
    ("group.views_installed", "count"),
    ("core.server.self_s", "s"),
    ("core.server.calls", "count"),
    ("core.server.us_per_commit", "us"),
    ("core.server.updates_committed", "count"),
    ("core.server.reads_served", "count"),
    ("core.server.reads_deferred", "count"),
    ("core.server.lazy_updates_sent", "count"),
    ("core.server.dedup_hits", "count"),
    ("core.client.select_s", "s"),
    ("core.client.select_calls", "count"),
    ("core.client.select_us_p50", "us"),
    ("core.client.select_us_p99", "us"),
    ("core.client.submit_update_s", "s"),
    ("core.client.reply_s", "s"),
    ("core.client.cdf_cache_hit_frac", "fraction"),
    ("core.client.cdf_base_rebuilds", "count"),
    ("core.client.replicas_per_read", "replicas"),
    ("core.client.retries", "count"),
    ("core.client.hedges", "count"),
    ("core.client.give_ups", "count"),
    ("store.wal_appends", "count"),
    ("store.snapshots", "count"),
    ("obs.overhead_frac", "fraction"),
    ("history.overhead_frac", "fraction"),
    ("alloc.per_event", "allocs/event"),
    ("trace.overhead_frac", "fraction"),
];

/// The layer self-times that partition the traced wall time.
const SELF_TIMES: [&str; 7] = [
    "sim.self_s",
    "workload.self_s",
    "group.self_s",
    "core.server.self_s",
    "core.client.select_s",
    "core.client.submit_update_s",
    "core.client.reply_s",
];

fn tiny(w: Workload) -> u64 {
    match w {
        Workload::PaperRead => 8,
        Workload::WideWrite | Workload::CausalWrite => 4,
    }
}

fn assert_emits(report: &Report, expected: &[(&str, &str)], w: Workload) {
    assert_eq!(report.metrics.len(), expected.len(), "{}", w.name());
    for &(name, unit) in expected {
        let m = report
            .get(name)
            .unwrap_or_else(|| panic!("{}: {name} missing", w.name()));
        assert_eq!(m.unit, unit, "{}: {name}", w.name());
        let applicable = w == Workload::PaperRead || !READ_ONLY.contains(&name);
        assert_eq!(m.value.is_some(), applicable, "{}: {name}", w.name());
    }
}

#[test]
fn timed_runs_pass_the_gate_and_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = timed::run(w, 1, tiny(w), Duration::ZERO);
        assert!(r.correct, "{}: {:?}", w.name(), r.notes);
        assert!(r.attempted > 0);
        assert_emits(&r, &END_TO_END, w);
        let json = r.json_line();
        for (name, _) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
        }
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_run_and_emit_every_layer_metric() {
    for w in Workload::ALL {
        let r = traced::run(w, 1, tiny(w), Duration::ZERO, || 0)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(r.correct);
        assert_emits(&r, &PER_LAYER, w);
        let wall = r.value("trace.wall_s").unwrap();
        let sum: f64 = SELF_TIMES.iter().map(|n| r.value(n).unwrap()).sum();
        assert!(
            (sum - wall).abs() <= 1e-9 * wall.max(1.0),
            "{sum} vs {wall}"
        );
        let selects = r.value("core.client.select_calls").unwrap();
        assert_eq!(selects > 0.0, w == Workload::PaperRead, "{}", w.name());
        let wal = r.value("store.wal_appends").unwrap();
        assert_eq!(wal > 0.0, w == Workload::WideWrite, "{}", w.name());
    }
}

/// `(name, unit)` of every entry in the `key` list of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("list closes")];
    let field = |entry: &str, name: &str| {
        let at = entry.find(&format!("\"{name}\": \"")).expect("field") + name.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_owned()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_emitted_metrics_that_apply_everywhere() {
    let json = include_str!("../../BENCHMARK.json");
    for (key, emitted) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = listed(json, key);
        assert!(!entries.is_empty(), "{key}");
        for (name, unit) in entries {
            assert!(
                emitted.contains(&(name.as_str(), unit.as_str())),
                "{key}: {name} in {unit} is not emitted"
            );
            assert!(!READ_ONLY.contains(&name.as_str()), "{key}: {name}");
        }
    }
}
