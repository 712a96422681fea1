//! The `crawl` workload: the paper's own measurement procedure. One direct
//! server with the program's defaults serves the 30k-user world; the
//! repository's `Crawler` (2 workers, a shared pool of 2 connections, a
//! checkpoint journal) crawls it back, and the crawl, written as v3, must
//! equal the served file byte for byte. The crawler finds groups only
//! through their members' group lists, so on a world with a group nobody
//! belongs to the reference is the served world without such groups (see
//! [`observable`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_api::{ApiService, Crawler, CrawlerConfig, RateLimit};
use steam_model::{codec, Snapshot};
use steam_net::{Handler, HttpClient, HttpServer};
use steam_obs::{Registry, SpanKind};

use crate::program::{self, ReqKey, Timed};
use crate::spans::Recorder;
use crate::stats::{low_quartile, median, percentile, sorted};
use crate::sys::{self, get, get_all, get_text, nproc, Reply, Sut};
use crate::{offline, Args, Opts, Outcome};

/// Setups timed before the first crawl, on top of one per crawl.
const EXTRA_SETUPS: usize = 8;
/// Crawler phase-2 workers and pooled connections: nproc on the 2-CPU
/// host this workload was sized for.
const WORKERS: usize = 2;

/// A served world: the program's defaults (epoll reactor, wire cache,
/// default rate limit) and a registry shared with the crawler.
struct Served {
    server: HttpServer,
    service: Arc<ApiService>,
    registry: Arc<Registry>,
    setup_s: f64,
}

/// Loads the snapshot, builds the service, binds, and answers a first
/// request: the workload's set-up.
fn serve(snapshot: &Path, rec: Option<&Arc<Recorder>>) -> Result<Served, String> {
    let t0 = Instant::now();
    let snap = Arc::new(codec::read_snapshot(snapshot).map_err(|e| e.to_string())?);
    let first = snap.accounts.first().map(|a| a.id).ok_or("empty world")?;
    let service = Arc::new(ApiService::new(snap, RateLimit::default()));
    let registry = Arc::new(Registry::new());
    service.attach_registry(&registry);
    let handler = Arc::clone(&service) as Arc<dyn Handler>;
    let server = program::bind(
        Timed::wrap(handler, rec, "service", "client", ReqKey::Span),
        &registry,
    )?;
    let resp = HttpClient::new(server.addr())
        .get(&format!(
            "/ISteamUser/GetPlayerSummaries/v2?steamids={first}"
        ))
        .map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("first request answered {}", resp.status));
    }
    Ok(Served {
        server,
        service,
        registry,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// What a crawl can see of a served world: a group nobody belongs to is in
/// no member's group list, so the crawler never learns of it (the
/// repository's own `crawl_reconstructs_snapshot` test states the same).
/// Drops such groups and renumbers memberships; returns the world and how
/// many groups were dropped.
fn observable(mut world: Snapshot) -> (Snapshot, usize) {
    let mut renumber: Vec<Option<u32>> = vec![None; world.groups.len()];
    for &g in world.memberships.iter().flatten() {
        renumber[g as usize] = Some(0);
    }
    for (next, r) in renumber.iter_mut().flatten().enumerate() {
        *r = next as u32;
    }
    let mut i = 0;
    world.groups.retain(|_| {
        i += 1;
        renumber[i - 1].is_some()
    });
    for g in world.memberships.iter_mut().flatten() {
        *g = renumber[*g as usize].expect("a group with a member is kept");
    }
    let dropped = renumber.len() - world.groups.len();
    (world, dropped)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Collects the crawler's client spans from the program's flight recorder
/// while a traced crawl runs. The recorder is a ring, so it is drained
/// often enough that no span is overwritten before it is read.
fn drain_client_spans(stop: &AtomicBool) -> HashMap<u64, u64> {
    let mut seen = HashMap::new();
    loop {
        let done = stop.load(Ordering::Acquire);
        for s in steam_obs::recent_spans() {
            if s.kind == SpanKind::Client && s.target == "crawl" {
                seen.insert(s.span.0, s.duration_us);
            }
        }
        if done {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `sut crawl --snapshot FILE --dir DIR --seconds S --trace 0|1`.
pub fn sut(args: &Args) -> Result<(), String> {
    let snapshot = PathBuf::from(args.need("--snapshot")?);
    let dir = PathBuf::from(args.need("--dir")?);
    let seconds = Duration::from_secs(args.num("--seconds")?);
    let trace = args.need("--trace")? == "1";
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        setups.push(serve(&snapshot, None)?.setup_s);
    }
    let started = Instant::now();
    let mut k = 0;
    while crate::another(k, started.elapsed(), seconds) {
        let traced = trace && k % 2 == 1;
        let rec = traced.then(|| Arc::new(Recorder::new()));
        let served = serve(&snapshot, rec.as_ref())?;
        setups.push(served.setup_s);
        let journal = dir.join(format!("journal-{k}"));
        let out = dir.join(format!("crawl-{k}.bin"));
        let config = CrawlerConfig {
            workers: WORKERS,
            pool_size: Some(WORKERS),
            checkpoint_dir: Some(journal.clone()),
            ..CrawlerConfig::default()
        };
        let collected_at = served.service.snapshot().collected_at;
        let mut crawler =
            Crawler::with_registry(served.server.addr(), config, Arc::clone(&served.registry));
        let stop = AtomicBool::new(false);
        let cpu0 = sys::cpu_seconds();
        let (crawl, clients) = std::thread::scope(|s| {
            let drain = traced.then(|| s.spawn(|| drain_client_spans(&stop)));
            let t0 = Instant::now();
            let crawl = crawler
                .crawl(collected_at)
                .map_err(|e| e.to_string())
                .and_then(|snap| {
                    let tw = Instant::now();
                    codec::write_snapshot_v3(&out, &snap, 1).map_err(|e| e.to_string())?;
                    Ok((t0.elapsed().as_secs_f64(), tw.elapsed().as_secs_f64()))
                });
            stop.store(true, Ordering::Release);
            (crawl, drain.map(|h| h.join().expect("span drain thread")))
        });
        let (crawl_s, write_s) = crawl?;
        let cpu_s = sys::cpu_seconds() - cpu0;
        let stats = crawler.stats();
        let reg = &served.registry;
        let phase = |p: &str| {
            reg.histogram("crawl_phase_duration_seconds", &[("phase", p)])
                .sum() as f64
                / 1e6
        };
        let progress = crawler.progress();
        let latency = progress.request_latency();
        let cache = served
            .service
            .cache()
            .ok_or("wire cache is on by default")?;
        let [loop_p99, epoll_s, per_wake, accepts] = program::reactor(reg);
        let mut reply = Reply::default()
            .num("traced", f64::from(u8::from(traced)))
            .num("crawl_s", crawl_s)
            .num("write_crawl_s", write_s)
            .num("cpu_s", cpu_s)
            .num("requests", stats.requests as f64)
            .num("retries", stats.retries_observed as f64)
            .num("reconnects", stats.reconnects as f64)
            .num("ids_scanned", stats.ids_scanned as f64)
            .num("profiles_found", stats.profiles_found as f64)
            .num("checkpoint_records", stats.checkpoint_records as f64)
            .num("checkpoint_bytes", dir_bytes(&journal) as f64)
            .num("census_s", phase("census"))
            .num("harvest_s", phase("harvest"))
            .num("fetch_us_p50", latency.quantile(0.5))
            .num("fetch_us_p99", latency.quantile(0.99))
            .num("cache_hits", cache.hits() as f64)
            .num("cache_misses", cache.misses() as f64)
            .num("cache_entries", cache.len() as f64)
            .num("limiter_keys", served.service.rate_limiter_keys() as f64)
            .num(
                "limiter_refused",
                program::series_sum(reg, "http_requests_total", "status=\"429\""),
            )
            .num("loop_us_p99", loop_p99)
            .num("epoll_wait_s", epoll_s)
            .num("events_per_wake", per_wake)
            .num("accepts", accepts)
            .text("out", &out.to_string_lossy());
        if let (Some(rec), Some(clients)) = (rec, clients) {
            let handled = rec.take();
            let handle: Vec<f64> = sorted(handled.iter().map(|s| s.dur_us() as f64).collect());
            let transport: Vec<f64> = sorted(
                handled
                    .iter()
                    .filter_map(|s| {
                        clients
                            .get(&s.req)
                            .map(|&c| c.saturating_sub(s.dur_us()) as f64)
                    })
                    .collect(),
            );
            reply = reply
                .num("handle_us_p50", percentile(&handle, 0.5).unwrap_or(0.0))
                .num("handle_us_p99", percentile(&handle, 0.99).unwrap_or(0.0))
                .num("busy_s", handle.iter().sum::<f64>() / 1e6)
                .num(
                    "transport_us_p50",
                    percentile(&transport, 0.5).unwrap_or(0.0),
                )
                .num(
                    "transport_us_p99",
                    percentile(&transport, 0.99).unwrap_or(0.0),
                );
        }
        reply.send();
        drop(served);
        let _ = std::fs::remove_dir_all(&journal);
        k += 1;
    }
    Reply::default()
        .nums("setup_s", &setups)
        .num("peak_rss_mb", sys::peak_rss_mb())
        .send();
    Ok(())
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = offline::small_world(o)?;
    let generated = &input.1;
    let served = input.0.join(offline::FILES[0]);
    let served_bytes = std::fs::read(&served).map_err(|e| e.to_string())?;
    let world = codec::read_snapshot(&served).map_err(|e| e.to_string())?;
    let (world, unreachable_groups) = observable(world);
    let expected = if unreachable_groups == 0 {
        served_bytes
    } else {
        codec::encode_snapshot_v3(&world, nproc()).to_vec()
    };
    drop(world);

    let args = [
        "crawl",
        "--snapshot",
        &served.to_string_lossy(),
        "--dir",
        &o.dir.to_string_lossy(),
        "--seconds",
        &o.seconds.as_secs().to_string(),
        "--trace",
        if o.trace { "1" } else { "0" },
    ];
    let mut sut = Sut::spawn(&args.map(String::from))?;
    let mut crawls = Vec::new();
    let last = loop {
        let reply = sut.recv()?;
        if reply.get("crawl_s").is_none() {
            break reply;
        }
        let path = get_text(&reply, "out")?;
        let crawled = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
        let requests = get(&reply, "requests")?;
        out.attempted += requests as u64;
        out.failed += (get(&reply, "retries")? + get(&reply, "reconnects")?) as u64;
        if crawled != expected {
            out.failed += requests as u64;
            out.problems.push(format!(
                "crawl {} differs from the served snapshot ({unreachable_groups} groups \
                 without members left out)",
                crawls.len()
            ));
        }
        let _ = std::fs::remove_file(&path);
        crawls.push(reply);
    };
    sut.finish()?;

    // Exact-repeat counts: every crawl of one world must agree.
    for key in ["requests", "cache_misses", "checkpoint_records"] {
        let v: Result<Vec<f64>, String> = crawls.iter().map(|c| get(c, key)).collect();
        let v = v?;
        if v.iter().any(|x| *x != v[0]) {
            out.problems
                .push(format!("{key} differs between crawls of one world: {v:?}"));
        }
        out.counts
            .push((format!("crawl.{key}"), format!("{}", v[0])));
    }
    out.counts.push((
        "crawl_digest".into(),
        format!("{:016x}", sys::digest(&expected)),
    ));
    out.scale = format!(
        "\"users\": {}, \"unreachable_groups\": {unreachable_groups}, \"crawls\": {}, \
         \"crawler_workers\": {WORKERS}, \"connections\": {WORKERS}, \"nproc\": {}, \
         \"generator_threads\": {WORKERS}, \"oversubscribed\": {}",
        get(generated, "users")?,
        crawls.len(),
        nproc(),
        WORKERS > nproc()
    );

    let plain: Vec<&steam_net::Json> = crawls
        .iter()
        .filter(|c| get(c, "traced").unwrap_or(0.0) == 0.0)
        .collect();
    let lq = |rs: &[&steam_net::Json], key: &str| -> Result<f64, String> {
        let v: Result<Vec<f64>, String> = rs.iter().map(|c| get(c, key)).collect();
        Ok(low_quartile(&v?))
    };
    let crawl_s = lq(&plain, "crawl_s")?;
    let setup_s = median(&get_all(&last, "setup_s")?).unwrap_or(0.0);
    let (generate_s, generate_cpu_s) = offline::small_world_again(o, &input, &mut out)?;
    let rss = get(&last, "peak_rss_mb")?;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.put("setup_s", setup_s, "s");
    out.e2e.put("generate_cpu_s", generate_cpu_s, "s");
    out.e2e.put("work_cpu_s", lq(&plain, "cpu_s")?, "s");
    out.e2e.put("peak_rss_mb", rss, "MiB");
    let requests = lq(&plain, "requests")?;
    for m in [&mut out.figures, &mut out.layers] {
        m.put("generate_s", generate_s, "s");
        m.put("work_s", crawl_s, "s");
        m.put("crawl_s", crawl_s, "s");
        m.put("req_per_s", requests / crawl_s.max(1e-9), "1/s");
        m.put("failed_frac", failed_frac, "ratio");
    }
    out.figures.extend(&out.e2e);

    if o.trace {
        let traced: Vec<&steam_net::Json> = crawls
            .iter()
            .filter(|c| get(c, "traced").unwrap_or(0.0) == 1.0)
            .collect();
        let l = &mut out.layers;
        offline::gen_layers(generated, l)?;
        let t = |key: &str| lq(&traced, key);
        let traced_crawl_s = t("crawl_s")?;
        l.put("model.write_crawl_s", t("write_crawl_s")?, "s");
        l.put("service.handle_us_p50", t("handle_us_p50")?, "us");
        l.put("service.handle_us_p99", t("handle_us_p99")?, "us");
        l.put("service.busy_s", t("busy_s")?, "s");
        let (hits, misses) = (t("cache_hits")?, t("cache_misses")?);
        l.put("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        l.put("cache.entries", t("cache_entries")?, "count");
        l.put("cache.misses", misses, "count");
        l.put("limiter.keys", t("limiter_keys")?, "count");
        l.put("limiter.refused", t("limiter_refused")?, "count");
        l.put("net.transport_us_p50", t("transport_us_p50")?, "us");
        l.put("net.transport_us_p99", t("transport_us_p99")?, "us");
        l.put("net.loop_us_p99", t("loop_us_p99")?, "us");
        l.put("net.epoll_wait_s", t("epoll_wait_s")?, "s");
        l.put("net.events_per_wake", t("events_per_wake")?, "count");
        l.put("net.accepts", t("accepts")?, "count");
        let (census, harvest) = (t("census_s")?, t("harvest_s")?);
        l.put("crawler.census_s", census, "s");
        l.put("crawler.harvest_s", harvest, "s");
        l.put("crawler.merge_s", traced_crawl_s - census - harvest, "s");
        l.put("crawler.fetch_us_p50", t("fetch_us_p50")?, "us");
        l.put("crawler.fetch_us_p99", t("fetch_us_p99")?, "us");
        l.put("crawler.requests", t("requests")?, "count");
        l.put("crawler.retries", t("retries")?, "count");
        l.put("crawler.reconnects", t("reconnects")?, "count");
        l.put(
            "crawler.census_yield",
            t("profiles_found")? / t("ids_scanned")?.max(1.0),
            "ratio",
        );
        l.put("checkpoint.records", t("checkpoint_records")?, "count");
        l.put("checkpoint.bytes", t("checkpoint_bytes")?, "B");
        let cpu = t("cpu_s")?;
        l.put("sut.cpu_s", cpu, "s");
        l.put(
            "sut.cpu_util",
            cpu / (traced_crawl_s * nproc() as f64).max(1e-9),
            "ratio",
        );
        l.put(
            "trace_overhead_pct",
            (traced_crawl_s / crawl_s - 1.0) * 100.0,
            "%",
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use steam_model::{Group, GroupId, GroupKind};
    use steam_synth::{Generator, SynthConfig};

    #[test]
    fn observable_drops_only_groups_without_members() {
        let mut cfg = SynthConfig::small(91);
        cfg.n_users = 300;
        cfg.n_products = 120;
        cfg.n_groups = 25;
        let world = Generator::new(cfg).generate();
        let (seen, dropped) = observable(world.clone());
        assert!(seen
            .memberships
            .iter()
            .flatten()
            .all(|&g| (g as usize) < seen.groups.len()));

        // A group nobody joins, placed first, shifts every membership by one.
        let mut with_orphan = world;
        with_orphan.groups.insert(
            0,
            Group {
                id: GroupId(0),
                kind: GroupKind::ALL[0],
                name: "nobody".into(),
            },
        );
        for g in with_orphan.memberships.iter_mut().flatten() {
            *g += 1;
        }
        let (seen_again, dropped_again) = observable(with_orphan);
        assert_eq!(dropped_again, dropped + 1);
        assert_eq!(seen_again.groups, seen.groups);
        assert_eq!(seen_again.memberships, seen.memberships);
    }
}
