//! The metric names this benchmark defines. `BENCHMARK.json` lists the
//! same names (a test keeps the two in step).

use crate::metrics::Metrics;

/// End-to-end metrics: gated, printed by every untraced run of every
/// workload. Each has one definition per workload (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("generate_cpu_s", "s"),
    ("work_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The 23 experiments of the report, by `Experiment::name()`.
pub fn experiments() -> impl Iterator<Item = &'static str> {
    steam_analysis::Experiment::ALL.iter().map(|e| e.name())
}

/// Per-layer metrics, printed by every traced run of every workload; a
/// layer a workload does not run reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |names: &[&str], unit: &'static str| {
        v.extend(names.iter().map(|n| (n.to_string(), unit)));
    };
    add(
        &[
            "generate_s",
            "work_s",
            "crawl_s",
            "report_s",
            "report_in_memory_s",
        ],
        "s",
    );
    add(&["req_per_s"], "1/s");
    add(&["p50_ms", "p99_ms"], "ms");
    add(&["p99_samples"], "count");
    add(&["failed_frac"], "ratio");
    add(
        &[
            "synth.accounts_s",
            "synth.catalog_s",
            "synth.friendships_s",
            "synth.ownership_s",
            "synth.groups_s",
            "synth.evolve_s",
            "synth.panel_s",
        ],
        "s",
    );
    add(&["synth.utilization"], "ratio");
    add(
        &[
            "model.write_v3_s",
            "model.open_v3_s",
            "model.decode_full_s",
            "model.write_crawl_s",
        ],
        "s",
    );
    add(&["core.ctx_stream_s", "core.ctx_mem_s"], "s");
    let exp: Vec<String> = experiments().map(|e| format!("core.exp.{e}_s")).collect();
    let mem: Vec<String> = experiments()
        .map(|e| format!("core.mem.exp.{e}_s"))
        .collect();
    v.extend(exp.into_iter().chain(mem).map(|n| (n, "s")));
    let mut add = |names: &[&str], unit: &'static str| {
        v.extend(names.iter().map(|n| (n.to_string(), unit)));
    };
    add(&["core.utilization", "core.mem.utilization"], "ratio");
    add(&["service.handle_us_p50", "service.handle_us_p99"], "us");
    add(&["service.busy_s"], "s");
    add(&["cache.hit_ratio"], "ratio");
    add(
        &[
            "cache.entries",
            "cache.misses",
            "limiter.keys",
            "limiter.refused",
        ],
        "count",
    );
    add(
        &[
            "net.transport_us_p50",
            "net.transport_us_p99",
            "net.loop_us_p99",
        ],
        "us",
    );
    add(&["net.epoll_wait_s"], "s");
    add(&["net.events_per_wake", "net.accepts"], "count");
    add(
        &["crawler.census_s", "crawler.harvest_s", "crawler.merge_s"],
        "s",
    );
    add(&["crawler.fetch_us_p50", "crawler.fetch_us_p99"], "us");
    add(
        &["crawler.requests", "crawler.retries", "crawler.reconnects"],
        "count",
    );
    add(&["crawler.census_yield"], "ratio");
    add(&["checkpoint.records"], "count");
    add(&["checkpoint.bytes"], "B");
    add(
        &[
            "router.handle_us_p50",
            "router.handle_us_p99",
            "router.self_us_p50",
            "router.self_us_p99",
        ],
        "us",
    );
    add(&["router.fanout_mean", "router.pool_reuse_ratio"], "ratio");
    add(&["router.retries", "router.errors"], "count");
    add(&["shard.split_s", "shard.load_s"], "s");
    add(&["shard.bytes_ratio"], "ratio");
    add(&["shard.bytes"], "B");
    add(&["sut.cpu_s"], "s");
    add(&["sut.cpu_util"], "ratio");
    add(&["trace_overhead_pct"], "%");
    v
}

/// Every per-layer metric in list order, taking measured values from
/// `measured` and 0 for layers the workload did not run.
pub fn fill_per_layer(measured: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in per_layer() {
        out.put(name.clone(), measured.get(&name).unwrap_or(0.0), unit);
    }
    for (name, _, _) in measured.iter() {
        assert!(
            out.get(name).is_some(),
            "measured metric {name} is not in the per-layer list"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which way a per-layer metric improves.
    pub fn better(name: &str) -> &'static str {
        const HIGHER: [&str; 8] = [
            "req_per_s",
            "p99_samples",
            "utilization",
            "hit_ratio",
            "reuse_ratio",
            "census_yield",
            "events_per_wake",
            "cpu_util",
        ];
        if HIGHER.iter().any(|h| name.ends_with(h)) {
            "higher"
        } else {
            "lower"
        }
    }

    /// `BENCHMARK.json` and this file define the same metrics.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = steam_net::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(steam_net::Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(steam_net::Json::as_str)
                            .expect(k)
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<String> = names("end_to_end")
            .into_iter()
            .map(|(n, u, b)| format!("{n} {u} {b}"))
            .collect();
        let want: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u)| format!("{n} {u} lower"))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n.clone(), u.to_string(), better(&n).to_string()))
            .collect();
        if names("per_layer") != layers {
            for (n, u, b) in &layers {
                println!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}},");
            }
            panic!("BENCHMARK.json per_layer differs from this list (printed above)");
        }
        assert!(layers.len() <= 128);
    }

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let all = fill_per_layer(&Metrics::default());
        assert_eq!(all.iter().count(), per_layer().len());
        assert!(all.iter().all(|(_, v, _)| v == 0.0));
    }
}
