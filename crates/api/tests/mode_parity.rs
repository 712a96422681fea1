//! Mode parity: the epoll reactor and the threaded worker pool must be
//! interchangeable all the way up the stack. Every scenario here runs the
//! full serve→crawl round trip against both [`ServerMode`]s and compares
//! the crawled snapshots byte-for-byte — plain crawls, fault-injected
//! crawls, and kill-and-resume from a checkpoint journal.
//!
//! Off Linux only the threaded mode exists (`ServerMode::Epoll` resolves to
//! `Threaded`), so the comparisons degenerate to self-consistency checks.

use std::sync::Arc;

use steam_api::{serve_service_config, ApiService, Crawler, CrawlerConfig, RateLimit};
use steam_model::{codec, Snapshot};
use steam_net::client::HttpClient;
use steam_net::http::Request;
use steam_net::{Backoff, FaultInjector, FaultPlan, ServerConfig, ServerMode};
use steam_obs::{SpanId, SpanKind, SpanRecord, TraceId};
use steam_synth::{Generator, SynthConfig};

fn tiny_snapshot(seed: u64) -> Arc<Snapshot> {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = 120;
    cfg.n_products = 60;
    cfg.n_groups = 10;
    Arc::new(Generator::new(cfg).generate())
}

fn modes() -> Vec<ServerMode> {
    let mut modes = vec![ServerMode::Threaded];
    if cfg!(target_os = "linux") {
        modes.push(ServerMode::Epoll);
    }
    modes
}

fn bind(
    original: &Arc<Snapshot>,
    mode: ServerMode,
    faults: Option<Arc<FaultInjector>>,
) -> (steam_net::HttpServer, Arc<ApiService>) {
    let config = ServerConfig { workers: 2, mode, ..Default::default() };
    serve_service_config(
        ApiService::new(Arc::clone(original), RateLimit::default()),
        "127.0.0.1:0",
        config,
        None,
        faults,
    )
    .unwrap()
}

fn crawl_config(workers: usize) -> CrawlerConfig {
    CrawlerConfig { empty_batches_to_stop: 2, workers, ..CrawlerConfig::default() }
}

#[test]
fn plain_round_trip_is_identical_across_modes() {
    let original = tiny_snapshot(601);
    let mut snapshots = Vec::new();
    for mode in modes() {
        let (server, _svc) = bind(&original, mode, None);
        assert_eq!(server.mode(), mode, "requested mode must actually run");
        let crawled = Crawler::new(server.addr(), crawl_config(4))
            .crawl(original.collected_at)
            .unwrap();
        snapshots.push((mode, codec::encode_snapshot_v3(&crawled, 1)));
    }
    let (_, reference) = &snapshots[0];
    for (mode, bytes) in &snapshots {
        assert_eq!(
            bytes,
            reference,
            "{} crawl diverged from {}",
            mode.label(),
            snapshots[0].0.label()
        );
    }
}

#[test]
fn faulty_round_trip_is_identical_across_modes() {
    // Every fault kind in one plan; the crawler's retry budget absorbs
    // them. The final snapshot must not depend on which server mode
    // injected the faults.
    let original = tiny_snapshot(602);
    let mut snapshots = Vec::new();
    for mode in modes() {
        let plan = FaultPlan::parse(
            "drop=0.02,500=0.01,503=0.01,truncate=0.01,corrupt=0.02,stall=0.01;stall-ms=2",
            777,
        )
        .unwrap();
        // The registry exists so injected_total() counts (it reads the
        // injector's metric counters).
        let registry = steam_obs::Registry::new();
        let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
        let (server, _svc) = bind(&original, mode, Some(Arc::clone(&injector)));
        let crawled = Crawler::new(server.addr(), crawl_config(2))
            .crawl(original.collected_at)
            .unwrap();
        assert!(injector.injected_total() > 0, "{}: no faults injected", mode.label());
        snapshots.push((mode, codec::encode_snapshot_v3(&crawled, 1)));
    }
    let (_, reference) = &snapshots[0];
    for (mode, bytes) in &snapshots {
        assert_eq!(bytes, reference, "{} faulty crawl diverged", mode.label());
    }
}

#[test]
fn debug_surface_and_trace_echo_are_identical_across_modes() {
    let original = tiny_snapshot(605);
    let mut echoes = Vec::new();
    for mode in modes() {
        let (server, _svc) = bind(&original, mode, None);
        let mut client = HttpClient::new(server.addr());
        // Every introspection endpoint answers with the same JSON shape in
        // both modes — including the app-layer ones the dispatcher forwards.
        for (target, prefix) in [
            ("/debug/spans", "{\"spans\":["),
            ("/debug/slow", "{\"slow\":["),
            ("/debug/conns", "{\"conns\":["),
            ("/debug/cache", "{\"enabled\":"),
            ("/debug/limiter", "{\"keys\":"),
        ] {
            let resp = client.get(target).unwrap();
            assert_eq!(resp.status, 200, "{}: {target}", mode.label());
            assert!(
                resp.body_text().starts_with(prefix),
                "{}: {target} answered {}",
                mode.label(),
                resp.body_text()
            );
            assert_eq!(
                resp.header("x-steam-trace"),
                None,
                "{}: operational {target} must not be traced",
                mode.label()
            );
        }
        // And a client-supplied trace id comes back on the wire identically.
        let req = Request::get("/ISteamApps/GetAppList/v2");
        let (trace, kind) = (TraceId(0x5eed), SpanKind::Client);
        let span = SpanRecord::new(trace, SpanId(1), SpanId(0), kind, "test", &req.path);
        let resp = client.exchange(&[(&req, Some(span))]).pop().unwrap().result.unwrap();
        assert_eq!(resp.status, 200, "{}", mode.label());
        let echoed = resp.header("x-steam-trace").expect("app response must echo the trace");
        assert_eq!(echoed, TraceId(0x5eed).to_hex(), "{}", mode.label());
        echoes.push(echoed.to_string());
    }
    assert!(echoes.windows(2).all(|w| w[0] == w[1]), "modes disagree on the trace echo");
}

#[test]
fn traces_survive_faults_and_checkpoint_resume() {
    // A fault-heavy crawl with a thin retry budget: some fetches retry and
    // succeed (same trace id, attempt=2), some die and resume from the
    // journal. Afterwards the flight recorder must hold complete joined
    // traces, retrievable over the wire via `/debug/spans?trace=`.
    let original = tiny_snapshot(606);
    for mode in modes() {
        let plan = FaultPlan::parse("500=0.12", 999).unwrap();
        let injector = Arc::new(FaultInjector::new(plan, None));
        let (server, _svc) = bind(&original, mode, Some(injector));
        let dir = std::env::temp_dir().join(format!(
            "steam-parity-trace-{}-{}",
            mode.label(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let mut finished = None;
        for run in 0..1000 {
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                backoff: Backoff {
                    base: std::time::Duration::from_millis(1),
                    max: std::time::Duration::from_millis(1),
                    attempts: 2,
                },
                workers: 2,
                checkpoint_dir: Some(dir.clone()),
                resume: run > 0,
                ..CrawlerConfig::default()
            };
            match Crawler::new(server.addr(), config).crawl(original.collected_at) {
                Ok(snapshot) => {
                    finished = Some(snapshot);
                    break;
                }
                Err(_) => continue,
            }
        }
        finished.expect("crawl must complete across resumes");
        std::fs::remove_dir_all(&dir).ok();

        // A retried fetch keeps its trace id across attempts. Concurrent
        // tests share the process-global ring, so the oldest retried spans
        // may have had their siblings lapped out — any surviving pair will
        // do.
        let spans = steam_obs::recent_spans();
        let retries: Vec<_> = spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::Client && s.target == "crawl" && s.annotation() == "attempt=2"
            })
            .collect();
        assert!(!retries.is_empty(), "{}: no retried client span recorded", mode.label());
        let retried = retries
            .iter()
            .find(|r| {
                spans.iter().any(|s| {
                    s.trace == r.trace && s.span != r.span && s.annotation() == "attempt=1"
                })
            })
            .unwrap_or_else(|| {
                panic!(
                    "{}: no first attempt shares a retried fetch's trace id",
                    mode.label()
                )
            });
        // ...and the joined trace is retrievable over the wire.
        let mut client = HttpClient::new(server.addr());
        let resp = client
            .get(&format!("/debug/spans?trace={}", retried.trace.to_hex()))
            .unwrap();
        let body = resp.body_text();
        assert!(
            body.contains(&retried.trace.to_hex()),
            "{}: /debug/spans?trace= lost the trace",
            mode.label()
        );
        assert!(
            body.contains("\"kind\":\"client\"") && body.contains("\"kind\":\"server\""),
            "{}: trace is not a joined client+server trace: {body}",
            mode.label()
        );
    }
}

#[test]
fn checkpoint_resume_round_trip_is_identical_across_modes() {
    // Kill-and-resume against each mode: a retry-less crawler dies on the
    // first fault, leaves its journal, and resumes until done. Both modes
    // must converge to the same snapshot as a clean baseline crawl.
    let original = tiny_snapshot(603);
    let (clean_server, _s) = bind(&original, ServerMode::Threaded, None);
    let baseline = Crawler::new(clean_server.addr(), crawl_config(2))
        .crawl(original.collected_at)
        .unwrap();
    let baseline_bytes = codec::encode_snapshot_v3(&baseline, 1);
    drop(clean_server);

    for mode in modes() {
        let plan = FaultPlan::parse("drop=0.02,500=0.02,corrupt=0.02", 888).unwrap();
        let injector = Arc::new(FaultInjector::new(plan, None));
        let (server, _svc) = bind(&original, mode, Some(injector));
        let dir = std::env::temp_dir().join(format!(
            "steam-parity-{}-{}",
            mode.label(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let mut aborted = 0u32;
        let mut finished = None;
        for run in 0..1000 {
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                backoff: Backoff {
                    base: std::time::Duration::from_millis(1),
                    max: std::time::Duration::from_millis(1),
                    attempts: 1,
                },
                workers: 2,
                checkpoint_dir: Some(dir.clone()),
                resume: run > 0,
                ..CrawlerConfig::default()
            };
            match Crawler::new(server.addr(), config).crawl(original.collected_at) {
                Ok(snapshot) => {
                    finished = Some(snapshot);
                    break;
                }
                Err(_) => aborted += 1,
            }
        }
        let resumed = finished.expect("crawl must complete across resumes");
        assert!(aborted > 0, "{}: the fault plan never killed a run", mode.label());
        assert_eq!(
            codec::encode_snapshot_v3(&resumed, 1),
            baseline_bytes,
            "{}: resumed snapshot differs from the clean baseline",
            mode.label()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
