//! The sharded fleet's contract: a routed fleet is indistinguishable from
//! one process on the wire, and fails clean when it can't be.
//!
//! * Crawling *through the router* reconstructs the same bytes as crawling
//!   the unsharded server — the census batches straddle every shard, so
//!   this exercises the full split → fan-out → merge path thousands of
//!   times.
//! * `crawl_sharded` (the crawler talking to every shard directly) merges
//!   the same bytes too, including under kill-and-resume with per-shard
//!   checkpoint journals.
//! * A dead or fault-injected shard yields a clean 502/503 with a
//!   `Retry-After` hint — never a partially-merged 200.

use std::net::SocketAddr;
use std::sync::Arc;

use steam_api::{
    crawl_sharded, crawl_sharded_observed, serve_router_config, serve_service_config, shard_of,
    split_snapshot, ApiService, CrawlProgress, Crawler, CrawlerConfig, RateLimit, RouterConfig,
    RouterService,
};
use steam_model::{codec, Snapshot};
use steam_net::{Backoff, FaultInjector, FaultPlan, HttpClient, NetError, ServerConfig};
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
    codec::encode_snapshot(&snapshot).to_vec()
}

/// Binds one server per shard; `faults[i]` arms shard `i`'s injector.
fn bind_fleet(
    original: &Snapshot,
    faults: &[Option<Arc<FaultInjector>>],
) -> (Vec<steam_net::HttpServer>, Vec<SocketAddr>) {
    let mut servers = Vec::with_capacity(SHARDS);
    let mut addrs = Vec::with_capacity(SHARDS);
    for (i, store) in split_snapshot(original.clone(), SHARDS).unwrap().into_iter().enumerate() {
        let service = ApiService::new(store, RateLimit::default());
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
    let (_servers, addrs) = bind_fleet(&original, &[]);
    let (router, _r) = bind_router(addrs, RouterConfig::default());

    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 4,
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(router.addr(), config);
    let routed = crawler.crawl(original.collected_at).unwrap();
    assert_eq!(
        codec::encode_snapshot(&routed).to_vec(),
        baseline,
        "crawl through the router produced different bytes"
    );
}

#[test]
fn sharded_fleet_crawl_merges_byte_identical_snapshot() {
    let original = tiny_snapshot(602);
    let baseline = baseline_bytes(&original);
    let (_servers, addrs) = bind_fleet(&original, &[]);
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 2,
        ..CrawlerConfig::default()
    };
    let merged = crawl_sharded(&addrs, &config, original.collected_at).unwrap();
    assert_eq!(
        codec::encode_snapshot(&merged).to_vec(),
        baseline,
        "direct fleet crawl produced different bytes"
    );
}

#[test]
fn fleet_crawl_makes_one_exchange_per_journal_record_but_each_census_end() {
    let original = tiny_snapshot(609);
    let (_servers, addrs) = bind_fleet(&original, &[]);
    let dir = std::env::temp_dir().join(format!("steam-shard-exchanges-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..CrawlerConfig::default()
    };
    let registry = Arc::new(steam_obs::Registry::new());
    let progress = CrawlProgress::attach(&registry);
    crawl_sharded_observed(&addrs, &config, original.collected_at, registry).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stats = progress.stats();
    assert_eq!(stats.retries_observed, 0, "a fault-free crawl: {stats:?}");
    // Each shard journals one CensusComplete, the only record without a
    // request; every other record was fetched in one exchange.
    assert_eq!(stats.exchanges, stats.checkpoint_records - SHARDS as u64, "{stats:?}");
}

#[test]
fn dead_shard_yields_clean_errors_never_partial_200() {
    let original = tiny_snapshot(603);
    let (_servers, mut addrs) = bind_fleet(&original, &[]);
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
    let (_servers, addrs) = bind_fleet(&original, &faults);
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
    let (_servers, addrs) = bind_fleet(&original, &faults);
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
        codec::encode_snapshot(&routed).to_vec(),
        baseline,
        "faults changed the crawled bytes"
    );
}

#[test]
fn killed_sharded_crawl_resumes_to_identical_snapshot() {
    let original = tiny_snapshot(606);
    let baseline = baseline_bytes(&original);
    // Every shard is fault-injected; the retry-less crawler below dies on
    // the first fault any shard serves it — the deterministic analog of
    // `kill -9` mid-fleet-crawl.
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
    let (_servers, addrs) = bind_fleet(&original, &faults);

    let dir = std::env::temp_dir()
        .join(format!("steam-shard-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut aborted_runs = 0u32;
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
        match crawl_sharded(&addrs, &config, original.collected_at) {
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
        codec::encode_snapshot(&resumed).to_vec(),
        baseline,
        "resumed fleet crawl differs from the uninterrupted baseline"
    );
    // Per-shard journals landed where the next session expects them.
    for i in 0..SHARDS {
        assert!(
            dir.join(format!("shard-{i}-of-{SHARDS}")).is_dir(),
            "missing per-shard journal dir for shard {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression test for the single-shard fast path: a one-shard fleet
/// behind the router forwards batches verbatim on the caller's thread
/// (no id parse, no `thread::scope`), and that shortcut must stay
/// byte-identical to the unsharded service — including for duplicate
/// ids, misses, single ids, and malformed batches.
#[test]
fn single_shard_fleet_routes_byte_identical_to_unsharded_service() {
    let original = tiny_snapshot(608);
    let (direct_server, _s) = serve_service_config(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        None,
        None,
    )
    .unwrap();
    let store = split_snapshot((*original).clone(), 1).unwrap().pop().unwrap();
    let (shard_server, _sh) = serve_service_config(
        ApiService::new(store, RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        None,
        None,
    )
    .unwrap();
    let (router, _r) = bind_router(vec![shard_server.addr()], RouterConfig::default());

    let mut via_router = HttpClient::new(router.addr());
    let mut via_direct = HttpClient::new(direct_server.addr());
    let ids: Vec<String> =
        original.accounts.iter().take(6).map(|a| a.id.to_string()).collect();
    let targets = [
        format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", ids.join(",")),
        format!(
            "/ISteamUser/GetPlayerSummaries/v2?steamids={},{},999999999999",
            ids[0], ids[0]
        ),
        format!("/ISteamUser/GetPlayerSummaries/v2?steamids={}", ids[2]),
        "/ISteamUser/GetPlayerSummaries/v2?steamids=notanumber".to_string(),
        "/ISteamUser/GetPlayerSummaries/v2".to_string(),
        format!("/ISteamUser/GetFriendList/v1?steamid={}", ids[0]),
    ];
    for target in &targets {
        match (via_router.get(target), via_direct.get(target)) {
            (Ok(routed), Ok(direct)) => {
                assert_eq!(routed.status, direct.status, "{target}");
                assert_eq!(routed.body, direct.body, "routed bytes diverged for {target}");
            }
            (
                Err(NetError::Status { code: rc, body: rb, .. }),
                Err(NetError::Status { code: dc, body: db, .. }),
            ) => {
                assert_eq!(rc, dc, "{target}");
                assert_eq!(rb, db, "routed error bytes diverged for {target}");
            }
            (routed, direct) => {
                panic!("outcome shape diverged for {target}: {routed:?} vs {direct:?}")
            }
        }
    }
}

#[test]
fn routed_request_joins_client_router_and_shard_spans() {
    let original = tiny_snapshot(607);
    let (_servers, addrs) = bind_fleet(&original, &[]);
    let (router, _r) = bind_router(addrs, RouterConfig::default());

    let trace = steam_obs::mint_trace_id();
    let mut client = HttpClient::new(router.addr());
    client.set_trace(Some(steam_obs::TraceContext {
        trace,
        span: steam_obs::next_span_id(),
    }));
    let batch: Vec<String> =
        original.accounts.iter().take(8).map(|a| a.id.to_string()).collect();
    let resp = client
        .get(&format!(
            "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
            batch.join(",")
        ))
        .unwrap();
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
