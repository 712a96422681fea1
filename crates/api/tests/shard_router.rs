//! The sharded fleet's contract: a routed fleet is indistinguishable from
//! one process on the wire, and fails clean when it can't be.
//!
//! * Crawling *through the router* reconstructs the same bytes as crawling
//!   the unsharded server — the census batches straddle every shard, so
//!   this exercises the full split → fan-out → merge path thousands of
//!   times. The router is the only way the crawler reaches a fleet, so it
//!   also carries the fleet's journal tests: one exchange per journal
//!   record, and kill-and-resume against fault-injected shards.
//! * A dead or fault-injected shard yields a clean 502/503 with a
//!   `Retry-After` hint — never a partially-merged 200.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_api::{
    serve_router_config, serve_service_config, shard_of, ApiService, Crawler, CrawlerConfig,
    RateLimit, RouterConfig, RouterService, StreamSplitter,
};
use steam_model::{codec, Snapshot, SteamId, WorldView};
use steam_net::http::{write_request, Request, Response};
use steam_net::{
    Backoff, FaultInjector, FaultPlan, Handler, HttpClient, HttpServer, NetError, ServerConfig,
};
use steam_synth::{Generator, SynthConfig};

const SHARDS: usize = 4;

fn tiny_snapshot(seed: u64) -> Arc<Snapshot> {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = 150;
    cfg.n_products = 60;
    cfg.n_groups = 12;
    Arc::new(Generator::new(cfg).generate())
}

/// Crawl of the unsharded server: the byte baseline every fleet variant
/// must reproduce.
fn baseline_bytes(original: &Arc<Snapshot>) -> Vec<u8> {
    let (server, _s) = serve_service_config(
        ApiService::new(Arc::clone(original), RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        None,
        None,
    )
    .unwrap();
    let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
    let snapshot = Crawler::new(server.addr(), config).crawl(original.collected_at).unwrap();
    codec::encode_snapshot_v3(&snapshot, 1).to_vec()
}

/// Binds one server per shard of a `shards`-way split; `faults[i]` arms
/// shard `i`'s injector.
fn bind_fleet(
    original: &Snapshot,
    shards: usize,
    faults: &[Option<Arc<FaultInjector>>],
) -> (Vec<steam_net::HttpServer>, Vec<SocketAddr>) {
    let mut servers = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    let splitter = StreamSplitter::from_world(WorldView::mem(original), shards).unwrap();
    for i in 0..shards {
        let service = ApiService::new(splitter.shard(i).unwrap(), RateLimit::default());
        let config = ServerConfig { workers: 4, ..Default::default() };
        let (server, _s) = serve_service_config(
            service,
            "127.0.0.1:0",
            config,
            None,
            faults.get(i).cloned().flatten(),
        )
        .unwrap();
        addrs.push(server.addr());
        servers.push(server);
    }
    (servers, addrs)
}

fn bind_router(
    addrs: Vec<SocketAddr>,
    config: RouterConfig,
) -> (steam_net::HttpServer, Arc<RouterService>) {
    serve_router_config(
        RouterService::new(addrs, config),
        "127.0.0.1:0",
        ServerConfig { workers: 4, ..Default::default() },
        None,
    )
    .unwrap()
}

/// An address that refuses connections: bound, observed, dropped.
fn dead_addr() -> SocketAddr {
    std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
}

#[test]
fn crawl_through_router_is_byte_identical_to_direct_crawl() {
    let original = tiny_snapshot(601);
    let baseline = baseline_bytes(&original);
    let (_servers, addrs) = bind_fleet(&original, SHARDS, &[]);
    let (router, _r) = bind_router(addrs, RouterConfig::default());

    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 4,
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(router.addr(), config);
    let routed = crawler.crawl(original.collected_at).unwrap();
    assert_eq!(
        codec::encode_snapshot_v3(&routed, 1).to_vec(),
        baseline,
        "crawl through the router produced different bytes"
    );
}

#[test]
fn fleet_crawl_makes_one_exchange_per_journal_record_but_the_census_end() {
    let original = tiny_snapshot(609);
    let (_servers, addrs) = bind_fleet(&original, SHARDS, &[]);
    let (router, _r) = bind_router(addrs, RouterConfig::default());
    let dir = std::env::temp_dir().join(format!("steam-shard-exchanges-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(router.addr(), config);
    crawler.crawl(original.collected_at).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stats = crawler.stats();
    assert_eq!(stats.retries_observed, 0, "a fault-free crawl: {stats:?}");
    // The one CensusComplete is the only record without a request; every
    // other record was fetched in one exchange with the router, however
    // many shards it fanned out to.
    assert_eq!(stats.exchanges, stats.checkpoint_records - 1, "{stats:?}");
}

#[test]
fn dead_shard_yields_clean_errors_never_partial_200() {
    let original = tiny_snapshot(603);
    let (_servers, mut addrs) = bind_fleet(&original, SHARDS, &[]);
    const DEAD: usize = 2;
    addrs[DEAD] = dead_addr();
    let config = RouterConfig {
        backoff: Backoff {
            base: std::time::Duration::from_millis(1),
            max: std::time::Duration::from_millis(2),
            attempts: 2,
        },
        ..RouterConfig::default()
    };
    let (router, _r) = bind_router(addrs, config);
    let mut client = HttpClient::new(router.addr());

    // A batch straddling every shard: with one shard down this must be a
    // clean 502 with a Retry-After hint — never a 200 missing a shard's
    // players.
    let batch: Vec<String> =
        original.accounts.iter().take(8).map(|a| a.id.to_string()).collect();
    let target = format!(
        "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
        batch.join(",")
    );
    for _ in 0..5 {
        match client.get(&target) {
            Ok(resp) => panic!(
                "batch over a dead shard must not succeed (got {} with {} bytes)",
                resp.status,
                resp.body.len()
            ),
            Err(NetError::Status { code, body, retry_after }) => {
                assert_eq!(code, 502, "expected 502, got {code}: {body}");
                assert!(body.contains(&format!("shard {DEAD} unavailable")), "body: {body}");
                assert!(retry_after.is_some(), "502 must carry Retry-After");
            }
            Err(other) => panic!("unexpected transport error: {other}"),
        }
    }

    // Single-ID requests owned by live shards still answer.
    let live = original
        .accounts
        .iter()
        .find(|a| shard_of(a.id, SHARDS) != DEAD)
        .unwrap();
    let resp = client
        .get(&format!("/ISteamUser/GetFriendList/v1?steamid={}", live.id))
        .unwrap();
    assert_eq!(resp.status, 200);

    // Single-ID requests owned by the dead shard fail clean too.
    let dead_owned = original
        .accounts
        .iter()
        .find(|a| shard_of(a.id, SHARDS) == DEAD)
        .unwrap();
    match client.get(&format!("/ISteamUser/GetFriendList/v1?steamid={}", dead_owned.id)) {
        Err(NetError::Status { code: 502, retry_after: Some(_), .. }) => {}
        other => panic!("expected clean 502 for the dead shard's account, got {other:?}"),
    }
}

#[test]
fn fault_injected_shard_gives_up_with_503_and_retry_after() {
    let original = tiny_snapshot(604);
    let plan = FaultPlan::parse("503=1.0", 7).unwrap();
    let registry = Arc::new(steam_obs::Registry::new());
    let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
    let mut faults: Vec<Option<Arc<FaultInjector>>> = vec![None; SHARDS];
    const SICK: usize = 1;
    faults[SICK] = Some(injector);
    let (_servers, addrs) = bind_fleet(&original, SHARDS, &faults);
    let config = RouterConfig {
        backoff: Backoff {
            base: std::time::Duration::from_millis(1),
            max: std::time::Duration::from_millis(2),
            attempts: 2,
        },
        ..RouterConfig::default()
    };
    let (router, _r) = bind_router(addrs, config);
    let mut client = HttpClient::new(router.addr());

    let batch: Vec<String> =
        original.accounts.iter().take(8).map(|a| a.id.to_string()).collect();
    let target = format!(
        "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
        batch.join(",")
    );
    match client.get(&target) {
        Ok(resp) => panic!("expected 503, got {}", resp.status),
        Err(NetError::Status { code, body, retry_after }) => {
            assert_eq!(code, 503, "expected 503, got {code}: {body}");
            assert!(body.contains(&format!("shard {SICK} busy")), "body: {body}");
            assert!(retry_after.is_some(), "503 must carry Retry-After");
        }
        Err(other) => panic!("unexpected transport error: {other}"),
    }
}

#[test]
fn routed_crawl_survives_fault_injected_shard_byte_identical() {
    let original = tiny_snapshot(605);
    let baseline = baseline_bytes(&original);
    let plan =
        FaultPlan::parse("drop=0.05,500=0.05,503=0.03,stall=0.02;stall-ms=2", 11).unwrap();
    let registry = Arc::new(steam_obs::Registry::new());
    let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
    let mut faults: Vec<Option<Arc<FaultInjector>>> = vec![None; SHARDS];
    faults[0] = Some(Arc::clone(&injector));
    let (_servers, addrs) = bind_fleet(&original, SHARDS, &faults);
    // Router retries transport faults and 5xx; the crawler's own backoff
    // retries whatever still leaks through as a terminal 502/503.
    let (router, _r) = bind_router(addrs, RouterConfig::default());
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 2,
        backoff: Backoff {
            base: std::time::Duration::from_millis(2),
            max: std::time::Duration::from_millis(50),
            attempts: 8,
        },
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(router.addr(), config);
    let routed = crawler.crawl(original.collected_at).unwrap();
    assert!(injector.injected_total() > 0, "no faults were actually injected");
    assert_eq!(
        codec::encode_snapshot_v3(&routed, 1).to_vec(),
        baseline,
        "faults changed the crawled bytes"
    );
}

#[test]
fn killed_sharded_crawl_resumes_to_identical_snapshot() {
    let original = tiny_snapshot(606);
    let baseline = baseline_bytes(&original);
    // Every shard is fault-injected. The router and the crawler below each
    // make one attempt, so the crawl dies on the first fault any shard
    // serves it — the deterministic analog of `kill -9` mid-fleet-crawl.
    let mut faults: Vec<Option<Arc<FaultInjector>>> = Vec::new();
    let mut injectors = Vec::new();
    for i in 0..SHARDS {
        let plan = FaultPlan::parse(
            "drop=0.01,500=0.01,503=0.005,truncate=0.005,corrupt=0.01",
            800 + i as u64,
        )
        .unwrap();
        let registry = Arc::new(steam_obs::Registry::new());
        let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
        injectors.push(Arc::clone(&injector));
        faults.push(Some(injector));
    }
    let (_servers, addrs) = bind_fleet(&original, SHARDS, &faults);
    let one_attempt = Backoff {
        base: std::time::Duration::from_millis(1),
        max: std::time::Duration::from_millis(1),
        attempts: 1,
    };
    let router_config = RouterConfig { backoff: one_attempt, ..RouterConfig::default() };
    let (router, _r) = bind_router(addrs, router_config);

    let dir = std::env::temp_dir()
        .join(format!("steam-shard-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut aborted_runs = 0u32;
    let mut finished = None;
    for run in 0..1000 {
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            backoff: one_attempt,
            workers: 2,
            checkpoint_dir: Some(dir.clone()),
            resume: run > 0,
            ..CrawlerConfig::default()
        };
        match Crawler::new(router.addr(), config).crawl(original.collected_at) {
            Ok(snapshot) => {
                finished = Some(snapshot);
                break;
            }
            Err(_) => aborted_runs += 1,
        }
    }
    let resumed = finished.expect("the fleet crawl must eventually complete across resumes");
    assert!(
        aborted_runs > 0,
        "the fault plans never killed a run; the test exercised nothing"
    );
    assert!(
        injectors.iter().map(|i| i.injected_total()).sum::<u64>() > 0,
        "no faults were actually injected"
    );
    assert_eq!(
        codec::encode_snapshot_v3(&resumed, 1).to_vec(),
        baseline,
        "resumed fleet crawl differs from the uninterrupted baseline"
    );
    // The journal is one file, however many sessions appended to it.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, ["seg-00000000.log"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// One request with `Connection: close` and no trace header: the raw
/// response, status line and headers included.
fn fetch_raw(addr: SocketAddr, target: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut req = Request::get(target);
    req.headers.push(("Connection".into(), "close".into()));
    write_request(&mut stream, &req).unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    bytes
}

/// A routed fleet must put the unsharded service's bytes on the wire. With
/// one shard the router forwards batches verbatim on the caller's thread
/// (no id parse, no `thread::scope`); with four it splits, fans out and
/// merges them. The probe set: batches of 10 consecutive accounts, which
/// name every shard of four; friend, games and group-list reads; group
/// pages; app details; the app list; and batches out of id order, with
/// duplicate ids, misses, single ids or malformed ids.
#[test]
fn fleets_of_one_and_four_shards_route_raw_bytes_identical_to_unsharded_service() {
    let original = tiny_snapshot(608);
    let ids: Vec<_> = original.accounts.iter().map(|a| a.id).collect();
    let batches: Vec<Vec<_>> = (0..8)
        .map(|k| (0..10).map(|j| ids[(k * ids.len() / 8 + j) % ids.len()]).collect())
        .collect();
    for batch in &batches {
        let shards: std::collections::BTreeSet<_> =
            batch.iter().map(|&id| shard_of(id, SHARDS)).collect();
        assert_eq!(shards.len(), SHARDS, "batch {batch:?} misses a shard");
    }
    let join = |batch: &[SteamId]| {
        batch.iter().map(|id| id.to_string()).collect::<Vec<_>>().join(",")
    };
    let mut targets: Vec<String> = batches
        .iter()
        .map(|batch| format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", join(batch)))
        .collect();
    for (k, id) in ids.iter().enumerate().take(32) {
        targets.push(match k % 3 {
            0 => format!("/ISteamUser/GetFriendList/v1?steamid={id}"),
            1 => format!("/IPlayerService/GetOwnedGames/v1?steamid={id}"),
            _ => format!("/ISteamUser/GetUserGroupList/v1?steamid={id}"),
        });
    }
    for g in original.groups.iter().take(8) {
        targets.push(format!("/community/group/{}", g.id.0));
    }
    for g in original.catalog.iter().take(8) {
        targets.push(format!("/api/appdetails?appids={}", g.app_id.0));
    }
    targets.extend([
        "/ISteamApps/GetAppList/v2".to_string(),
        format!("/ISteamUser/GetPlayerSummaries/v2?steamids={},{},999999999999", ids[0], ids[0]),
        // Out of id order, with a duplicate and an id no account holds.
        format!(
            "/ISteamUser/GetPlayerSummaries/v2?steamids={},{},{},{}",
            ids[9],
            ids[0],
            ids[9],
            SteamId::from_index(original.scanned_id_space + 7)
        ),
        format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", ids[2]),
        "/ISteamUser/GetPlayerSummaries/v2?steamids=notanumber".to_string(),
        "/ISteamUser/GetPlayerSummaries/v2".to_string(),
    ]);

    for shards in [1, SHARDS] {
        // A server mints the trace id it echoes on an untraced request from
        // its own request count, so both front doors start fresh.
        let (direct_server, _s) = serve_service_config(
            ApiService::new(Arc::clone(&original), RateLimit::default()),
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
            None,
            None,
        )
        .unwrap();
        let (_servers, addrs) = bind_fleet(&original, shards, &[]);
        let (router, _r) = bind_router(addrs, RouterConfig::default());
        for target in &targets {
            let routed = fetch_raw(router.addr(), target);
            let direct = fetch_raw(direct_server.addr(), target);
            assert!(routed.starts_with(b"HTTP/1.1 "), "{shards} shards: {target}");
            assert_eq!(routed, direct, "{shards} shards: {target}");
        }
    }
}

#[test]
fn routed_request_joins_client_router_and_shard_spans() {
    let original = tiny_snapshot(607);
    let (_servers, addrs) = bind_fleet(&original, SHARDS, &[]);
    let (router, _r) = bind_router(addrs, RouterConfig::default());

    let trace = steam_obs::mint_trace_id();
    let mut client = HttpClient::new(router.addr());
    let batch: Vec<String> =
        original.accounts.iter().take(8).map(|a| a.id.to_string()).collect();
    let req = Request::get(&format!(
        "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
        batch.join(",")
    ));
    let span = steam_obs::SpanRecord::new(
        trace,
        steam_obs::next_span_id(),
        steam_obs::SpanId(0),
        steam_obs::SpanKind::Client,
        "test",
        &req.path,
    );
    let resp = client.exchange(&[(&req, Some(span))]).pop().unwrap().result.unwrap();
    assert_eq!(resp.status, 200);

    // Everything ran in-process, so the flight recorder holds every hop:
    // the router's outbound client spans plus server spans on both the
    // router and the shards it fanned out to.
    let spans = steam_obs::recent_spans();
    let ours: Vec<_> = spans.iter().filter(|s| s.trace == trace).collect();
    let router_clients = ours
        .iter()
        .filter(|s| s.kind == steam_obs::SpanKind::Client && s.target == "router")
        .count();
    let servers = ours
        .iter()
        .filter(|s| s.kind == steam_obs::SpanKind::Server)
        .count();
    assert!(
        router_clients >= 2,
        "expected fan-out client spans from the router, got {router_clients}"
    );
    assert!(
        servers >= 3,
        "expected router + shard server spans on one trace, got {servers}"
    );
}

/// A stand-in shard that answers every request with `resp`, counting them.
fn canned_shard(resp: Response) -> (HttpServer, Arc<AtomicUsize>) {
    let hits = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&hits);
    let handler: Arc<dyn Handler> = Arc::new(move |_req: Request| {
        seen.fetch_add(1, Ordering::Relaxed);
        resp.clone()
    });
    (HttpServer::bind("127.0.0.1:0", 2, handler).unwrap(), hits)
}

fn router_with(addrs: Vec<SocketAddr>, backoff: Backoff) -> (HttpServer, Arc<steam_obs::Registry>) {
    let registry = Arc::new(steam_obs::Registry::new());
    let (router, _r) = serve_router_config(
        RouterService::new(addrs, RouterConfig { backoff, ..RouterConfig::default() }),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        Some(Arc::clone(&registry)),
    )
    .unwrap();
    (router, registry)
}

/// `Retry-After: 0` is no hint: the router spaces its retries by its own
/// schedule (10 + 20 ms here), as the crawler does, instead of retrying
/// back to back.
#[test]
fn a_shard_503_saying_retry_now_is_retried_on_the_backoff_schedule() {
    let busy = Response::error(503, "busy").with_header("Retry-After", "0");
    let (shard, hits) = canned_shard(busy);
    let backoff = Backoff { base: Duration::from_millis(10), attempts: 3, ..Backoff::default() };
    let (router, registry) = router_with(vec![shard.addr()], backoff);
    let mut client = HttpClient::new(router.addr());
    let t0 = Instant::now();
    let outcome = client.get("/ISteamApps/GetAppList/v2");
    let took = t0.elapsed();
    assert!(took >= Duration::from_millis(30), "three attempts took {took:?}");
    assert_eq!(hits.load(Ordering::Relaxed), 3, "every attempt reached the shard");
    match outcome {
        Err(NetError::Status { code: 503, body, retry_after }) => {
            assert!(body.contains("shard 0 busy"), "body: {body}");
            assert_eq!(retry_after, Some(Duration::ZERO), "the shard's own hint");
        }
        other => panic!("expected the router's 503, got {other:?}"),
    }
    let retries = registry.counter("router_retries_total", &[("shard", "0")]).get();
    assert_eq!(retries, 2, "retries made, not attempts");
}

/// The router forwards a busy shard's hint as `check_status` read it:
/// clamped to the backoff policy's max, in whole seconds.
#[test]
fn a_shard_503_hint_is_clamped_before_the_router_forwards_it() {
    let busy = Response::error(503, "busy").with_header("Retry-After", "99999");
    let (shard, _hits) = canned_shard(busy);
    let once = Backoff { attempts: 1, ..Backoff::default() };
    let (router, _registry) = router_with(vec![shard.addr()], once);
    let mut client = HttpClient::new(router.addr());
    let resp = client.send(&Request::get("/ISteamApps/GetAppList/v2")).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("5"));
}

/// A shard's 429 is the caller's own key being limited: it is never
/// retried, and it reaches the caller verbatim — status, body, content
/// type and `Retry-After` — from a single read or from a fanned-out batch.
#[test]
fn a_shard_429_is_forwarded_verbatim_and_never_retried() {
    let limited = Response::error(429, "slow down").with_header("Retry-After", "7");
    let (shard, hits) = canned_shard(limited);
    let (ok_shard, _) = canned_shard(Response::json("{\"response\":{\"players\":[]}}".into()));
    let backoff = Backoff { base: Duration::from_millis(1), attempts: 3, ..Backoff::default() };
    let (router, registry) = router_with(vec![ok_shard.addr(), shard.addr()], backoff);
    let batch = format!(
        "/ISteamUser/GetPlayerSummaries/v2?steamids={},{}",
        SteamId::from_index(0),
        SteamId::from_index(1)
    );
    let read = format!("/ISteamUser/GetFriendList/v1?steamid={}", SteamId::from_index(1));
    let mut client = HttpClient::new(router.addr());
    for target in [batch, read] {
        let resp = client.send(&Request::get(&target)).unwrap();
        assert_eq!((resp.status, resp.body_text().as_str()), (429, "slow down"), "{target}");
        assert_eq!(resp.header("content-type"), Some("text/plain"), "{target}");
        assert_eq!(resp.header("retry-after"), Some("7"), "{target}");
    }
    assert_eq!(hits.load(Ordering::Relaxed), 2, "one attempt per request");
    assert_eq!(registry.counter("router_retries_total", &[("shard", "1")]).get(), 0);
}
