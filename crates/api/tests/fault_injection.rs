//! Fault injection: the crawler must survive an unreliable server.
//!
//! A wrapper handler around the real [`ApiService`] injects transient
//! failures — 500s, 429s, and `Connection: close` responses — at a
//! configurable rate. The crawl must still reconstruct the snapshot
//! exactly, because the paper's six-month phase-2 crawl survived the same
//! kinds of interruptions against the live API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use steam_api::{ApiService, Crawler, CrawlerConfig, RateLimit};
use steam_model::Snapshot;
use steam_net::http::{Request, Response};
use steam_net::server::{Handler, HttpServer};
use steam_net::Backoff;
use steam_synth::{Generator, SynthConfig};

/// Deterministically injects failures for a fraction of requests.
struct FlakyHandler {
    inner: Arc<ApiService>,
    counter: AtomicU64,
    /// Inject a failure every `period` requests (1 = always fail).
    period: u64,
}

impl Handler for FlakyHandler {
    fn handle(&self, req: Request) -> Response {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if n % self.period == 1 {
            return Response::error(500, "injected server error");
        }
        if n % self.period == 2 {
            return Response::error(429, "injected rate limit");
        }
        if n % self.period == 3 {
            // Successful response that also tears the connection down,
            // forcing the client's reconnect path.
            let mut resp = self.inner.handle(req);
            resp.headers.push(("Connection".into(), "close".into()));
            return resp;
        }
        self.inner.handle(req)
    }
}

fn tiny_snapshot(seed: u64) -> Arc<Snapshot> {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = 150;
    cfg.n_products = 80;
    cfg.n_groups = 12;
    Arc::new(Generator::new(cfg).generate())
}

fn crawl_against(handler: Arc<dyn Handler>, original: &Snapshot) -> (Snapshot, steam_api::CrawlStats) {
    let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        backoff: Backoff {
            base: std::time::Duration::from_millis(2),
            max: std::time::Duration::from_millis(50),
            attempts: 12,
        },
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(server.addr(), config);
    let crawled = crawler.crawl(original.collected_at).expect("crawl survives faults");
    (crawled, crawler.stats())
}

#[test]
fn crawl_survives_every_fifth_request_failing() {
    let original = tiny_snapshot(301);
    let service = Arc::new(ApiService::new(Arc::clone(&original), RateLimit::default()));
    let flaky: Arc<dyn Handler> = Arc::new(FlakyHandler {
        inner: service,
        counter: AtomicU64::new(0),
        period: 5,
    });
    let (crawled, stats) = crawl_against(flaky, &original);
    assert_eq!(crawled.n_users(), original.n_users());
    assert_eq!(crawled.friendships, original.friendships);
    assert_eq!(crawled.ownerships, original.ownerships);
    assert_eq!(crawled.catalog, original.catalog);
    assert!(stats.retries_observed > 10, "retries = {}", stats.retries_observed);
}

#[test]
fn crawl_survives_heavy_fault_rate() {
    // Every third request misbehaves; with enough retry budget the crawl
    // still completes losslessly.
    let original = tiny_snapshot(302);
    let service = Arc::new(ApiService::new(Arc::clone(&original), RateLimit::default()));
    let flaky: Arc<dyn Handler> = Arc::new(FlakyHandler {
        inner: service,
        counter: AtomicU64::new(0),
        period: 3,
    });
    let (crawled, _stats) = crawl_against(flaky, &original);
    assert_eq!(crawled.n_users(), original.n_users());
    assert_eq!(crawled.ownerships, original.ownerships);
    crawled.validate().unwrap();
}

#[test]
fn crawl_survives_seeded_fault_plan() {
    // The real fault injector (steam-cli serve --faults ...): every fault
    // kind armed at once — dropped connections, 5xx, truncated and
    // corrupted bodies, stalls. With a sane retry budget the crawl is
    // still lossless, and the retry causes show up where expected.
    use steam_net::{FaultInjector, FaultPlan};

    let original = tiny_snapshot(303);
    let plan = FaultPlan::parse(
        "drop=0.03,500=0.02,503=0.02,truncate=0.03,corrupt=0.04,stall=0.02;stall-ms=2",
        777,
    )
    .unwrap();
    let registry = Arc::new(steam_obs::Registry::new());
    let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
    let (server, _service) = steam_api::serve_service_config(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        steam_net::ServerConfig { workers: 2, ..Default::default() },
        Some(Arc::clone(&registry)),
        Some(Arc::clone(&injector)),
    )
    .unwrap();
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        backoff: Backoff {
            base: std::time::Duration::from_millis(2),
            max: std::time::Duration::from_millis(50),
            attempts: 12,
        },
        workers: 2,
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::with_registry(server.addr(), config, Arc::clone(&registry));
    let crawled = crawler.crawl(original.collected_at).expect("crawl survives the fault plan");
    assert_eq!(crawled.n_users(), original.n_users());
    assert_eq!(crawled.friendships, original.friendships);
    assert_eq!(crawled.ownerships, original.ownerships);
    assert_eq!(crawled.catalog, original.catalog);
    crawled.validate().unwrap();

    let stats = crawler.stats();
    assert!(injector.injected_total() > 0, "the plan injected nothing");
    assert!(stats.retries_observed > 0);
    assert!(
        stats.retries_corrupt > 0,
        "corrupt bodies must be retried as parse failures (stats: {stats:?})"
    );
    // A drop/truncation surfaces as an io-classified retry only when it
    // hits a fresh connection; on a pooled connection the client absorbs
    // it as a transparent reconnect-and-resend (counted in `reconnects`).
    // Which path wins is a race on pool occupancy, so accept either — the
    // byte-identity assertions above prove nothing was lost either way.
    assert!(
        stats.retries_io + stats.reconnects > 0,
        "drops/truncations must surface as io retries or pooled reconnects (stats: {stats:?})"
    );
    // The injector's metrics land in the shared registry.
    let text = registry.render_prometheus();
    assert!(text.contains("crawl_faults_injected_total"));
}

#[test]
fn permanent_failures_are_reported_not_hidden() {
    // A handler that 404s everything: the crawler must fail fast with a
    // status error, not retry forever or fabricate data.
    struct AlwaysMissing;
    impl Handler for AlwaysMissing {
        fn handle(&self, _req: Request) -> Response {
            Response::error(404, "nothing here")
        }
    }
    let server = HttpServer::bind("127.0.0.1:0", 1, Arc::new(AlwaysMissing)).unwrap();
    let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
    let mut crawler = Crawler::new(server.addr(), config);
    let result = crawler.crawl(steam_model::SimTime::from_unix(0));
    assert!(result.is_err(), "a 404-only server cannot produce a snapshot");
}
