//! The crawler: reconstructs a [`Snapshot`] by walking the emulated Steam
//! Web API exactly the way the paper's collection pipeline did (§3.1).
//!
//! * **Phase 1 — ID-space census.** Walk the 64-bit ID space from the base
//!   ID in batches of 100 (the batch endpoint is why this phase took weeks,
//!   not months). Valid accounts come back; invalid IDs are silently absent.
//!   Stop after a long run of fully-empty batches.
//! * **Phase 2 — per-user harvest.** For every valid account, fetch the
//!   friend list, owned games, and group list — one account per call (this
//!   is the six-month phase). Group metadata comes from the community-page
//!   analog.
//! * **Phase 3 — catalog.** The unpublicized app-list endpoint, then
//!   `appdetails` per product and achievement percentages per game.
//!
//! Throughout, the crawler throttles itself to a configurable rate —
//! the paper used ~85% of the allowed maximum, and so does the default,
//! against the server's default limit — and retries transient failures
//! (429/5xx, dropped connections, corrupt response bodies) with
//! exponential backoff.
//!
//! Each unit of work the journal records goes out as one HTTP exchange:
//! a user's three reads, or an app's two, are written together on one
//! connection and their responses read back in order. Each read is still
//! its own logical fetch, with its own trace and its own retries.
//!
//! With a [`CrawlerConfig::checkpoint_dir`] set, every unit of completed
//! work is journaled through [`crate::checkpoint::CheckpointStore`]; with
//! [`CrawlerConfig::resume`] a crawl replays the journal first and
//! re-fetches only what is missing, so a killed crawl loses at most the
//! unflushed journal tail.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use steam_model::{
    Account, AppId, Friendship, Game, Group, GroupId, SimTime, Snapshot, SteamId,
};
use steam_net::backoff::{transient, Backoff};
use steam_net::client::{check_status, HttpClient, Reply};
use steam_net::http::Request;
use steam_net::pool::ConnectionPool;
use steam_net::ratelimit::TokenBucket;
use steam_net::NetError;
use steam_obs::{
    mint_trace_id, next_span_id, Counter, Gauge, Histogram, Registry, SpanId, SpanKind, SpanRecord,
    TraceId,
};

use crate::checkpoint::{CheckpointStore, Record, Replay, UserRecord};
use crate::service::RateLimit;
use crate::service::MAX_BATCH_IDS;
use crate::shard::{shard_of, shard_of_app, shard_of_group};
use crate::wire;

/// The share of a server's allowed rate the crawler uses by default, as the
/// paper did (§3.1).
const THROTTLE_SHARE: f64 = 0.85;

/// Crawler configuration.
#[derive(Clone, Debug)]
pub struct CrawlerConfig {
    /// API key sent with every request.
    pub api_key: String,
    /// Self-imposed request rate (requests/second). The paper throttled to
    /// ~85% of the allowed maximum; the default is 85% of the server's
    /// default limit ([`RateLimit::default`]). `None` disables the throttle.
    pub self_throttle_rps: Option<f64>,
    /// Consecutive fully-empty profile batches before the census stops.
    pub empty_batches_to_stop: usize,
    /// Retry policy for transient failures.
    pub backoff: Backoff,
    /// Worker threads for the per-user harvest (phase 2). The result is
    /// byte-identical regardless of worker count; the throttle is shared.
    pub workers: usize,
    /// Directory for the crash-safe checkpoint journal. `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Replay an existing journal in `checkpoint_dir` and skip the work it
    /// records, instead of starting fresh (which wipes the journal).
    pub resume: bool,
    /// Size of the keep-alive connection pool shared by every fetcher
    /// (phases 1–3 and all phase-2 workers): the whole crawl then runs over
    /// at most this many sockets. `None` keeps one private connection per
    /// fetcher. Size it to the phase-2 worker count — smaller starves
    /// concurrent workers into opening throwaway connections.
    pub pool_size: Option<usize>,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            api_key: "reproduction-key".into(),
            self_throttle_rps: Some(THROTTLE_SHARE * RateLimit::default().per_key_rps),
            empty_batches_to_stop: 25,
            backoff: Backoff::default(),
            workers: 1,
            checkpoint_dir: None,
            resume: false,
            pool_size: None,
        }
    }
}

/// Progress counters (useful for the CLI and the throughput benches).
///
/// A snapshot of [`CrawlProgress`]; see [`Crawler::stats`]. `retries_observed`
/// is the sum of the per-cause counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrawlStats {
    /// Logical fetches: one per API read, however many attempts it took.
    pub requests: u64,
    /// Round trips: one write of one or more requests, then their
    /// responses. A user's three reads and an app's two share one; every
    /// retry is one more.
    pub exchanges: u64,
    pub profiles_found: u64,
    pub ids_scanned: u64,
    pub retries_observed: u64,
    pub retries_429: u64,
    pub retries_5xx: u64,
    pub retries_io: u64,
    /// Retries after a response body that failed to parse (server-side
    /// corruption looks like a transient fault, not a fatal one).
    pub retries_corrupt: u64,
    pub census_batches: u64,
    pub users_harvested: u64,
    pub groups_fetched: u64,
    pub apps_fetched: u64,
    pub reconnects: u64,
    /// Records appended to the checkpoint journal (0 without a journal).
    pub checkpoint_records: u64,
    /// Journal flushes that wrote to disk (0 without a journal).
    pub checkpoint_flushes: u64,
    /// Time those flushes spent writing and syncing.
    pub checkpoint_flush_time: Duration,
    /// Units of work skipped on resume because the journal already had them.
    pub resume_skipped: u64,
    /// Total time spent waiting on the self-imposed throttle.
    pub throttle_wait: Duration,
    /// Total time slept in retry backoff (including server `Retry-After`
    /// hints).
    pub backoff_wait: Duration,
}

/// Live, cloneable view of a crawl in flight: every instrument is an
/// `Arc`'d atomic registered in the crawler's [`Registry`], so a clone
/// handed to a display thread observes the crawl at zero cost to it.
#[derive(Clone)]
pub struct CrawlProgress {
    requests: Arc<Counter>,
    exchanges: Arc<Counter>,
    retries_429: Arc<Counter>,
    retries_5xx: Arc<Counter>,
    retries_io: Arc<Counter>,
    retries_corrupt: Arc<Counter>,
    census_batches: Arc<Counter>,
    users_harvested: Arc<Counter>,
    groups_fetched: Arc<Counter>,
    apps_fetched: Arc<Counter>,
    reconnects: Arc<Counter>,
    checkpoint_records: Arc<Counter>,
    /// Write + sync time per journal flush.
    checkpoint_flush: Arc<Histogram>,
    resume_skipped: Arc<Counter>,
    throttle_wait: Arc<Counter>,
    backoff_wait: Arc<Counter>,
    ids_scanned: Arc<Gauge>,
    profiles_found: Arc<Gauge>,
    phase_census: Arc<Histogram>,
    phase_harvest: Arc<Histogram>,
    phase_catalog: Arc<Histogram>,
    /// Wall time per logical fetch (including retries and backoff) — the
    /// latency distribution the crawl benchmark reports p50/p99 from.
    request_latency: Arc<Histogram>,
}

impl CrawlProgress {
    fn new(registry: &Registry) -> Self {
        registry.describe("crawl_requests_total", "API requests issued by the crawler");
        registry.describe(
            "crawl_exchanges_total",
            "HTTP round trips: one write of one or more requests",
        );
        registry.describe("crawl_retries_total", "Retries after transient failures, by cause");
        registry.describe("crawl_census_batches_total", "Phase-1 ID batches fetched");
        registry.describe("crawl_users_harvested_total", "Phase-2 accounts fully harvested");
        registry.describe("crawl_groups_fetched_total", "Group community pages fetched");
        registry.describe("crawl_apps_fetched_total", "Phase-3 catalog products fetched");
        registry.describe("crawl_reconnects_total", "Stale-connection reconnects");
        registry.describe(
            "crawl_checkpoint_records_total",
            "Records appended to the checkpoint journal",
        );
        registry.describe(
            "crawl_checkpoint_flush_duration_seconds",
            "Write + sync time per checkpoint journal flush",
        );
        registry.describe(
            "crawl_resume_skipped_total",
            "Units of work skipped on resume (already journaled)",
        );
        registry.describe(
            "crawl_throttle_wait_seconds_total",
            "Time spent waiting on the self-imposed throttle",
        );
        registry.describe(
            "crawl_backoff_wait_seconds_total",
            "Time slept in retry backoff (incl. Retry-After hints)",
        );
        registry.describe("crawl_ids_scanned", "IDs covered by the census so far");
        registry.describe("crawl_profiles_found", "Valid accounts discovered so far");
        registry.describe("crawl_phase_duration_seconds", "Wall time per crawl phase");
        registry.describe(
            "crawl_request_duration_seconds",
            "Wall time per logical fetch, including retries",
        );
        CrawlProgress {
            requests: registry.counter("crawl_requests_total", &[]),
            exchanges: registry.counter("crawl_exchanges_total", &[]),
            retries_429: registry.counter("crawl_retries_total", &[("cause", "429")]),
            retries_5xx: registry.counter("crawl_retries_total", &[("cause", "5xx")]),
            retries_io: registry.counter("crawl_retries_total", &[("cause", "io")]),
            retries_corrupt: registry.counter("crawl_retries_total", &[("cause", "corrupt")]),
            census_batches: registry.counter("crawl_census_batches_total", &[]),
            users_harvested: registry.counter("crawl_users_harvested_total", &[]),
            groups_fetched: registry.counter("crawl_groups_fetched_total", &[]),
            apps_fetched: registry.counter("crawl_apps_fetched_total", &[]),
            reconnects: registry.counter("crawl_reconnects_total", &[]),
            checkpoint_records: registry.counter("crawl_checkpoint_records_total", &[]),
            checkpoint_flush: registry.histogram("crawl_checkpoint_flush_duration_seconds", &[]),
            resume_skipped: registry.counter("crawl_resume_skipped_total", &[]),
            throttle_wait: registry.counter("crawl_throttle_wait_seconds_total", &[]),
            backoff_wait: registry.counter("crawl_backoff_wait_seconds_total", &[]),
            ids_scanned: registry.gauge("crawl_ids_scanned", &[]),
            profiles_found: registry.gauge("crawl_profiles_found", &[]),
            phase_census: registry
                .histogram("crawl_phase_duration_seconds", &[("phase", "census")]),
            phase_harvest: registry
                .histogram("crawl_phase_duration_seconds", &[("phase", "harvest")]),
            phase_catalog: registry
                .histogram("crawl_phase_duration_seconds", &[("phase", "catalog")]),
            request_latency: registry.histogram("crawl_request_duration_seconds", &[]),
        }
    }

    /// The per-fetch latency histogram (see the crawl benchmark).
    pub fn request_latency(&self) -> &Histogram {
        &self.request_latency
    }

    /// A live view attached to `registry`. Instruments are shared with any
    /// crawler recording there — with [`crawl_sharded`] every per-shard
    /// crawler records into one registry, so this view observes the whole
    /// fleet's aggregate progress.
    pub fn attach(registry: &Registry) -> Self {
        Self::new(registry)
    }

    fn record_retry(&self, err: &NetError, delay: Duration) {
        match err {
            NetError::Status { code: 429, .. } => self.retries_429.inc(),
            NetError::Status { .. } => self.retries_5xx.inc(),
            NetError::Json { .. } => self.retries_corrupt.inc(),
            _ => self.retries_io.inc(),
        }
        self.backoff_wait.add_duration(delay);
    }

    /// Point-in-time snapshot of every counter.
    pub fn stats(&self) -> CrawlStats {
        let retries_429 = self.retries_429.get();
        let retries_5xx = self.retries_5xx.get();
        let retries_io = self.retries_io.get();
        let retries_corrupt = self.retries_corrupt.get();
        CrawlStats {
            requests: self.requests.get(),
            exchanges: self.exchanges.get(),
            profiles_found: self.profiles_found.get().max(0) as u64,
            ids_scanned: self.ids_scanned.get().max(0) as u64,
            retries_observed: retries_429 + retries_5xx + retries_io + retries_corrupt,
            retries_429,
            retries_5xx,
            retries_io,
            retries_corrupt,
            census_batches: self.census_batches.get(),
            users_harvested: self.users_harvested.get(),
            groups_fetched: self.groups_fetched.get(),
            apps_fetched: self.apps_fetched.get(),
            reconnects: self.reconnects.get(),
            checkpoint_records: self.checkpoint_records.get(),
            checkpoint_flushes: self.checkpoint_flush.count(),
            checkpoint_flush_time: Duration::from_micros(self.checkpoint_flush.sum()),
            resume_skipped: self.resume_skipped.get(),
            throttle_wait: self.throttle_wait.as_duration(),
            backoff_wait: self.backoff_wait.as_duration(),
        }
    }

    /// One-line human summary of the crawl so far — what `steam-cli crawl`
    /// repaints as its live progress display.
    pub fn progress_line(&self) -> String {
        let s = self.stats();
        format!(
            "reqs {} | ids {} | profiles {} | harvested {} | retries {} | reconnects {}",
            s.requests,
            s.ids_scanned,
            s.profiles_found,
            s.users_harvested,
            s.retries_observed,
            s.reconnects,
        )
    }
}

/// One throttled, retrying connection to the API server. Worker threads in
/// the parallel harvest each own one, sharing the throttle and counters.
struct Fetcher {
    client: HttpClient,
    backoff: Backoff,
    throttle: Arc<Option<TokenBucket>>,
    progress: CrawlProgress,
    /// `client.reconnects()` at the last sync into the shared counter.
    synced_reconnects: u64,
}

/// A logical fetch whose first attempt went out in an exchange, waiting for
/// [`Fetcher::finish`].
struct Started {
    target: String,
    trace: TraceId,
    /// When the exchange was written: the fetch's latency runs from here.
    sent: Instant,
    first: Reply,
}

impl Fetcher {
    /// Starts one logical fetch per target and sends them all as one
    /// exchange. The throttle takes one token per request before anything
    /// is written, and each fetch mints its own trace id.
    /// Returns every fetch's first attempt, for [`finish`](Self::finish).
    fn start<const N: usize>(&mut self, targets: [String; N]) -> [Started; N] {
        if let Some(t) = self.throttle.as_ref() {
            for _ in 0..N {
                let waited = t.acquire();
                if !waited.is_zero() {
                    self.progress.throttle_wait.add_duration(waited);
                }
            }
        }
        self.progress.requests.add(N as u64);
        let traces = [(); N].map(|()| mint_trace_id());
        let sent = Instant::now();
        let mut replies = Self::exchange(&mut self.client, &targets, &traces, 1).into_iter();
        self.progress.exchanges.inc();
        self.sync_reconnects();
        let mut traces = traces.into_iter();
        targets.map(|target| Started {
            target,
            trace: traces.next().expect("one trace per request"),
            sent,
            first: replies.next().expect("one reply per request"),
        })
    }

    /// Completes a [`start`](Self::start)ed fetch, parsing the body *inside*
    /// the retry loop: a response that parses as garbage (an injected
    /// corruption, a truncated proxy body) is retried like any other
    /// transient fault instead of killing a crawl that may be months in.
    /// The exchange's reply is the first of `Backoff::attempts`; every
    /// retry goes out alone.
    ///
    /// The whole logical fetch shares one trace id; each
    /// attempt gets its own span id (propagated via `X-Steam-Trace`) and a
    /// client span annotated `attempt=N` — so a fetch that survived two
    /// injected faults shows up on `/debug/spans` as one trace with three
    /// client hops, the last joined to a server span.
    fn finish<T>(
        &mut self,
        started: Started,
        parse: impl Fn(&str) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let Started { target, trace, sent, first } = started;
        let mut first = Some(first);
        let mut attempt = 1u32;
        let mut end = sent;
        let client = &mut self.client;
        let progress = &self.progress;
        let result = self.backoff.run_observed(
            || {
                let reply = first.take().unwrap_or_else(|| {
                    attempt += 1;
                    let target = std::slice::from_ref(&target);
                    let mut one = Self::exchange(client, target, &[trace], attempt);
                    one.pop().expect("one reply per request")
                });
                end = reply.at;
                parse(wire::body_text(&reply.result?.body)?)
            },
            |e| transient(e) || matches!(e, NetError::Json { .. }),
            |err, delay| progress.record_retry(err, delay),
        );
        self.progress.exchanges.add(u64::from(attempt - 1));
        self.progress.request_latency.record_duration(end.duration_since(sent));
        self.sync_reconnects();
        result
    }

    /// One logical fetch on its own: the one-target case of
    /// [`start`](Self::start) and [`finish`](Self::finish).
    fn get_parsed<T>(
        &mut self,
        target: String,
        parse: impl Fn(&str) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let [started] = self.start([target]);
        self.finish(started, parse)
    }

    /// One account's three phase-2 reads — friend list, owned games and
    /// group list — in one exchange.
    fn harvest_user(&mut self, key: &str, index: u32, id: SteamId) -> Result<UserRecord, NetError> {
        let [friends, games, groups] = self.start([
            format!("/ISteamUser/GetFriendList/v1?key={key}&steamid={id}"),
            format!("/IPlayerService/GetOwnedGames/v1?key={key}&steamid={id}"),
            format!("/ISteamUser/GetUserGroupList/v1?key={key}&steamid={id}"),
        ]);
        Ok(UserRecord {
            index,
            friends: self.finish(friends, wire::parse_friend_list)?,
            games: self.finish(games, wire::parse_owned_games)?,
            groups: self.finish(groups, wire::parse_group_list)?,
        })
    }

    /// One catalog product's two phase-3 reads — store details and global
    /// achievement percentages — in one exchange.
    fn fetch_app(&mut self, app: AppId) -> Result<Game, NetError> {
        let [details, achievements] = self.start([
            format!("/api/appdetails?appids={}", app.0),
            format!("/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid={}", app.0),
        ]);
        let mut game = self.finish(details, |body| wire::parse_app_details(app, body))?;
        game.achievements = self.finish(achievements, wire::parse_achievement_percentages)?;
        Ok(game)
    }

    /// One exchange of GETs, attempt number `attempt` of each fetch. Each
    /// request goes out under a fresh span id in its fetch's trace, and the
    /// client records its client span; non-2xx statuses become
    /// [`NetError::Status`].
    fn exchange(
        client: &mut HttpClient,
        targets: &[String],
        traces: &[TraceId],
        attempt: u32,
    ) -> Vec<Reply> {
        let requests: Vec<Request> = targets.iter().map(|t| Request::get(t)).collect();
        let note = format!("attempt={attempt}");
        let slots: Vec<(&Request, Option<SpanRecord>)> = requests
            .iter()
            .zip(targets.iter().zip(traces))
            .map(|(req, (target, &trace))| {
                let span = SpanRecord::new(
                    trace,
                    next_span_id(),
                    SpanId(0),
                    SpanKind::Client,
                    "crawl",
                    target,
                );
                (req, Some(span.with_annotation(&note)))
            })
            .collect();
        client
            .exchange(&slots)
            .into_iter()
            .map(|Reply { result, at }| Reply {
                result: result.and_then(check_status),
                at,
            })
            .collect()
    }

    fn sync_reconnects(&mut self) {
        let reconnects = self.client.reconnects();
        if reconnects > self.synced_reconnects {
            self.progress.reconnects.add(reconnects - self.synced_reconnects);
            self.synced_reconnects = reconnects;
        }
    }
}

/// The crawler.
pub struct Crawler {
    addr: SocketAddr,
    fetcher: Fetcher,
    config: CrawlerConfig,
    throttle: Arc<Option<TokenBucket>>,
    registry: Arc<Registry>,
    progress: CrawlProgress,
    /// Shared keep-alive pool behind every fetcher (see
    /// [`CrawlerConfig::pool_size`]); `None` means private connections.
    pool: Option<Arc<ConnectionPool>>,
}

impl Crawler {
    /// A crawler with a private metrics registry (see
    /// [`with_registry`](Self::with_registry) to share one, e.g. so a CLI
    /// can expose crawl metrics alongside others).
    pub fn new(addr: SocketAddr, config: CrawlerConfig) -> Self {
        Self::with_registry(addr, config, Arc::new(Registry::new()))
    }

    /// A crawler recording its metrics into `registry`.
    pub fn with_registry(addr: SocketAddr, config: CrawlerConfig, registry: Arc<Registry>) -> Self {
        // The throttle banks at most a millisecond of its rate. A server's
        // bucket banks more (the default 2 ms, `steam-cli serve` 100 ms), so
        // a crawler throttled under a server's rate never bursts past it.
        let throttle = Arc::new(
            config
                .self_throttle_rps
                .map(|rps| TokenBucket::new(rps, (rps / 1000.0).max(1.0))),
        );
        let progress = CrawlProgress::new(&registry);
        let pool = config.pool_size.map(ConnectionPool::shared);
        let fetcher = Fetcher {
            client: Self::make_client(addr, pool.as_ref()),
            backoff: config.backoff,
            throttle: Arc::clone(&throttle),
            progress: progress.clone(),
            synced_reconnects: 0,
        };
        Crawler { addr, fetcher, config, throttle, registry, progress, pool }
    }

    fn make_client(addr: SocketAddr, pool: Option<&Arc<ConnectionPool>>) -> HttpClient {
        match pool {
            Some(pool) => HttpClient::with_pool(addr, Arc::clone(pool)),
            None => HttpClient::new(addr),
        }
    }

    /// The shared connection pool, when one is configured.
    pub fn pool(&self) -> Option<&Arc<ConnectionPool>> {
        self.pool.as_ref()
    }

    pub fn stats(&self) -> CrawlStats {
        self.progress.stats()
    }

    /// A cloneable live view of the crawl (share with a display thread).
    pub fn progress(&self) -> CrawlProgress {
        self.progress.clone()
    }

    /// The registry the crawler records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn new_fetcher(&self) -> Fetcher {
        Fetcher {
            client: Self::make_client(self.addr, self.pool.as_ref()),
            backoff: self.config.backoff,
            throttle: Arc::clone(&self.throttle),
            progress: self.progress.clone(),
            synced_reconnects: 0,
        }
    }

    /// Collects the week panel for the given snapshot's users, probing the
    /// `/reproduction/panel` endpoint for every account (the paper sampled
    /// 0.5% of users; only sampled accounts answer).
    pub fn crawl_panel(
        &mut self,
        accounts: &[Account],
    ) -> Result<steam_model::WeekPanel, NetError> {
        let key = self.config.api_key.clone();
        let mut panel = steam_model::WeekPanel::default();
        for (u, acct) in accounts.iter().enumerate() {
            let target = format!("/reproduction/panel?key={key}&steamid={}", acct.id);
            match self.fetcher.get_parsed(target, wire::parse_panel) {
                Ok(days) => {
                    panel.users.push(u as u32);
                    panel.daily_minutes.push(days);
                }
                Err(NetError::Status { code: 404, .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(panel)
    }

    /// Runs all three phases and assembles the snapshot: the one-shard case
    /// of [`crawl_sharded`].
    ///
    /// `collected_at` stamps the result (the crawler has no other way to
    /// know the nominal collection instant).
    ///
    /// With [`CrawlerConfig::checkpoint_dir`] set, completed work is
    /// journaled as it happens and the journal is flushed on *every* exit
    /// path — a crawl that dies mid-phase leaves a resumable journal behind.
    pub fn crawl(&mut self, collected_at: SimTime) -> Result<Snapshot, NetError> {
        let dir = self.config.checkpoint_dir.clone();
        let (journal, replay) = open_journal(dir.as_deref(), self.config.resume, &self.progress)?;
        let journals = [journal];
        let result = crawl_fleet(
            std::slice::from_mut(self),
            &journals,
            std::slice::from_ref(&replay),
            collected_at,
        );
        flush_journals(&journals, result)
    }

    /// Phase 1 against one shard of a mod-`n` fleet: walks the shard's
    /// residue class (global indices `shard`, `shard + n`, `shard + 2n`, …)
    /// in batches of up to [`MAX_BATCH_IDS`] *owned* IDs. An unsharded
    /// census is shard 0 of 1.
    ///
    /// The stop rule counts consecutive empty owned batches, so each stop
    /// window spans `n×` the ID positions of the unsharded rule — a shard
    /// can never give up before the unsharded census would have. Returned
    /// accounts are sorted by ID; `scanned` is the shard's last valid
    /// *global* index + 1, and the fleet's scanned space is the max over
    /// shards.
    ///
    /// Journaled batches are keyed by the global index of their first owned
    /// ID, so a resumed sharded crawl replays its own journal and an `n = 1`
    /// "fleet" journal is record-compatible with an unsharded one. Batches
    /// journaled before the census-complete marker all survived (damage
    /// tolerance is strictly tail-shaped), so with the marker nothing is
    /// re-fetched.
    fn shard_census(
        &mut self,
        shard: u64,
        n: u64,
        journal: Option<&Mutex<CheckpointStore>>,
        replay: &Replay,
    ) -> Result<(Vec<Account>, u64), NetError> {
        let _timer = steam_obs::span("crawl", "census")
            .with_histogram(Arc::clone(&self.progress.phase_census));
        let mut accounts = Vec::new();
        let mut batch_no: u64 = 0; // walk position, in owned batches
        let mut empty_run = 0usize;
        let mut last_valid: Option<u64> = None;
        let stride = MAX_BATCH_IDS as u64 * n;
        let key_of = |b: u64| shard + b * stride;

        let scanned = loop {
            let first = key_of(batch_no);
            // Journaled batches replay first. Past them the census-complete
            // marker ends the walk, or else the empty-batch rule does.
            let batch = if let Some(batch) = replay.census_batches.get(&first) {
                self.progress.resume_skipped.inc();
                Cow::Borrowed(batch.as_slice())
            } else if let Some(scanned) = replay.census_complete {
                break scanned;
            } else if empty_run >= self.config.empty_batches_to_stop {
                let scanned = last_valid.map_or(0, |v| v + 1);
                if let Some(j) = journal {
                    j.lock().append(&Record::CensusComplete { scanned_id_space: scanned })?;
                }
                break scanned;
            } else {
                let ids: Vec<String> = (0..MAX_BATCH_IDS as u64)
                    .map(|j| SteamId::from_index(first + j * n).to_string())
                    .collect();
                let players = self.fetcher.get_parsed(
                    format!(
                        "/ISteamUser/GetPlayerSummaries/v2?key={}&steamids={}",
                        self.config.api_key,
                        ids.join(",")
                    ),
                    wire::parse_player_summaries,
                )?;
                self.progress.census_batches.inc();
                if let Some(j) = journal {
                    j.lock().append(&Record::CensusBatch {
                        start_index: first,
                        accounts: Cow::Borrowed(&players),
                    })?;
                }
                Cow::Owned(players)
            };
            if batch.is_empty() {
                empty_run += 1;
            } else {
                empty_run = 0;
                for p in batch.into_owned() {
                    last_valid = last_valid.max(Some(p.id.index()));
                    self.progress.profiles_found.inc();
                    accounts.push(p);
                }
            }
            batch_no += 1;
            self.progress.ids_scanned.set_max(key_of(batch_no) as i64);
        };
        accounts.sort_by_key(|a| a.id);
        Ok((accounts, scanned))
    }
}

/// Opens the checkpoint journal in `dir` — replaying it first when `resume`
/// is set — with appends counted in `progress`. No directory, no journal.
fn open_journal(
    dir: Option<&Path>,
    resume: bool,
    progress: &CrawlProgress,
) -> Result<(Option<Mutex<CheckpointStore>>, Replay), NetError> {
    let Some(dir) = dir else { return Ok((None, Replay::default())) };
    let (store, replay) = if resume {
        CheckpointStore::resume(dir)?
    } else {
        (CheckpointStore::create(dir)?, Replay::default())
    };
    let store = store.with_metrics(
        Arc::clone(&progress.checkpoint_records),
        Arc::clone(&progress.checkpoint_flush),
    );
    Ok((Some(Mutex::new(store)), replay))
}

/// Flushes every journal, on every exit path. A failed final flush matters
/// only on success; on the error path the original failure is the story
/// (the journal keeps whatever did make it to disk).
fn flush_journals(
    journals: &[Option<Mutex<CheckpointStore>>],
    result: Result<Snapshot, NetError>,
) -> Result<Snapshot, NetError> {
    for journal in journals.iter().flatten() {
        let flushed = journal.lock().flush();
        if result.is_ok() {
            flushed?;
        }
    }
    result
}

/// Crawls a sharded fleet into one merged snapshot, byte-identical to an
/// unsharded crawl of the same world.
///
/// One [`Crawler`] per shard address, all recording fleet-wide metrics into
/// `registry` (attach a [`CrawlProgress`] to the same registry for a live
/// progress line). Phase 1 censuses every residue class concurrently;
/// phase 2 harvests every shard concurrently ([`CrawlerConfig::workers`]
/// worker threads *per shard*); groups and catalog fetches go to the shard
/// that owns each gid/app id.
///
/// With [`CrawlerConfig::checkpoint_dir`] set, each shard journals into its
/// own `shard-{i}-of-{n}` subdirectory, flushed on every exit path; with
/// [`CrawlerConfig::resume`] each shard replays its own journal. Global user
/// indices are stable across resume because the merged census is
/// deterministic.
///
/// Other knobs apply per shard: `self_throttle_rps` and `pool_size` bound
/// each shard's crawlers separately (fleet-wide rate is `n ×` the knob).
pub fn crawl_sharded(
    addrs: &[SocketAddr],
    config: &CrawlerConfig,
    collected_at: SimTime,
    registry: Arc<Registry>,
) -> Result<Snapshot, NetError> {
    assert!(!addrs.is_empty(), "crawl_sharded needs at least one shard address");
    let n = addrs.len();
    let mut crawlers = Vec::with_capacity(n);
    let mut journals = Vec::with_capacity(n);
    let mut replays = Vec::with_capacity(n);
    for (i, &addr) in addrs.iter().enumerate() {
        // Journals are managed here (one per shard), not by Crawler::crawl.
        let shard_config = CrawlerConfig { checkpoint_dir: None, ..config.clone() };
        let crawler = Crawler::with_registry(addr, shard_config, Arc::clone(&registry));
        let dir = config.checkpoint_dir.as_ref().map(|d| d.join(format!("shard-{i}-of-{n}")));
        let (journal, replay) = open_journal(dir.as_deref(), config.resume, &crawler.progress)?;
        crawlers.push(crawler);
        journals.push(journal);
        replays.push(replay);
    }
    let result = crawl_fleet(&mut crawlers, &journals, &replays, collected_at);
    flush_journals(&journals, result)
}

/// The three phases over one crawler per shard, with each shard's journal
/// and replay; a direct crawl is the one-shard fleet. Every fetch goes to
/// the shard that owns its id, and users, groups and apps merge in global
/// order, so the snapshot is the same bytes for any shard or worker count.
fn crawl_fleet(
    crawlers: &mut [Crawler],
    journals: &[Option<Mutex<CheckpointStore>>],
    replays: &[Replay],
    collected_at: SimTime,
) -> Result<Snapshot, NetError> {
    let n = crawlers.len();

    // --- phase 1: every shard censuses its residue class concurrently. The
    // classes partition the ID space, so the union is exactly the unsharded
    // census; sorting by ID reproduces its order, and the fleet's scanned
    // space is the max of the per-shard last-valid watermarks.
    let census: Vec<Result<(Vec<Account>, u64), NetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = crawlers
            .iter_mut()
            .zip(journals)
            .zip(replays)
            .enumerate()
            .map(|(i, ((crawler, journal), replay))| {
                scope.spawn(move || {
                    crawler.shard_census(i as u64, n as u64, journal.as_ref(), replay)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("census thread panicked")).collect()
    });
    let mut accounts: Vec<Account> = Vec::new();
    let mut scanned_id_space = 0u64;
    for result in census {
        let (shard_accounts, shard_scanned) = result?;
        accounts.extend(shard_accounts);
        scanned_id_space = scanned_id_space.max(shard_scanned);
    }
    accounts.sort_by_key(|a| a.id);
    let progress = crawlers[0].progress.clone();
    progress.profiles_found.set(accounts.len() as i64);
    let index_of: HashMap<SteamId, u32> =
        accounts.iter().enumerate().map(|(i, a)| (a.id, i as u32)).collect();

    // --- phase 2: per-shard harvest, all shards concurrent. Workers claim
    // the next unharvested account of their shard from a shared atomic
    // cursor (no static chunking: a straggler can't strand the rest of its
    // chunk), and results land in per-user slots keyed by *global* index.
    let harvest_timer =
        steam_obs::span("crawl", "harvest").with_histogram(Arc::clone(&progress.phase_harvest));
    let key = crawlers[0].config.api_key.clone();
    let mut user_records: Vec<Option<UserRecord>> = (0..accounts.len() as u32)
        .map(|u| replays.iter().find_map(|r| r.users.get(&u)).cloned())
        .collect();
    let replayed = user_records.iter().filter(|r| r.is_some()).count();
    progress.resume_skipped.add(replayed as u64);
    let mut todo: Vec<Vec<u32>> = vec![Vec::new(); n];
    for u in 0..accounts.len() as u32 {
        if user_records[u as usize].is_none() {
            todo[shard_of(accounts[u as usize].id, n)].push(u);
        }
    }
    let cursors: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let harvest = |shard: usize, fetcher: &mut Fetcher| -> Result<Vec<UserRecord>, NetError> {
        let mut out = Vec::new();
        loop {
            let k = cursors[shard].fetch_add(1, Ordering::Relaxed);
            let Some(&u) = todo[shard].get(k) else { break };
            let rec = fetcher.harvest_user(&key, u, accounts[u as usize].id)?;
            // Journal only fully harvested users: all three reads parsed,
            // so resume can skip this account entirely.
            if let Some(j) = &journals[shard] {
                j.lock().append(&Record::User(Cow::Borrowed(&rec)))?;
            }
            fetcher.progress.users_harvested.inc();
            out.push(rec);
        }
        Ok(out)
    };
    let worker_results: Vec<Result<Vec<UserRecord>, NetError>> = std::thread::scope(|scope| {
        let harvest = &harvest;
        let mut handles = Vec::new();
        for (shard, crawler) in crawlers.iter_mut().enumerate() {
            let workers = crawler.config.workers.max(1).min(todo[shard].len().max(1));
            if workers == 1 {
                // A lone worker harvests on the crawler's own fetcher.
                let fetcher = &mut crawler.fetcher;
                handles.push(scope.spawn(move || harvest(shard, fetcher)));
            } else {
                for _ in 0..workers {
                    let mut fetcher = crawler.new_fetcher();
                    handles.push(scope.spawn(move || harvest(shard, &mut fetcher)));
                }
            }
        }
        handles.into_iter().map(|h| h.join().expect("harvest worker panicked")).collect()
    });
    for result in worker_results {
        for rec in result? {
            let slot = rec.index as usize;
            user_records[slot] = Some(rec);
        }
    }

    // Merge in global index order; replayed and freshly fetched users take
    // the same path, including the friendship filter (each reciprocal edge
    // is reported from both endpoints; keep it when reported by the
    // lower-index side).
    let mut friendships: Vec<Friendship> = Vec::new();
    let mut ownerships = Vec::with_capacity(accounts.len());
    let mut raw_memberships: Vec<Vec<GroupId>> = Vec::with_capacity(accounts.len());
    for rec in user_records {
        let rec = rec.expect("every user harvested or replayed");
        for &(fid, since) in &rec.friends {
            if let Some(&v) = index_of.get(&fid) {
                if rec.index < v {
                    friendships.push(Friendship::new(rec.index, v, since));
                }
            }
        }
        ownerships.push(rec.games);
        raw_memberships.push(rec.groups);
    }
    let seen_groups: BTreeSet<GroupId> = raw_memberships.iter().flatten().copied().collect();

    // Group metadata via the community-page analog, each page from the
    // shard that owns the gid. The BTreeSet gives the groups in ascending
    // gid order, which becomes their dense index.
    let mut groups: Vec<Group> = Vec::with_capacity(seen_groups.len());
    let mut group_index: HashMap<GroupId, u32> = HashMap::with_capacity(seen_groups.len());
    for gid in seen_groups {
        let page = if let Some(g) = replays.iter().find_map(|r| r.groups.get(&gid)) {
            progress.resume_skipped.inc();
            g.clone()
        } else {
            let s = shard_of_group(gid, n);
            let page = crawlers[s]
                .fetcher
                .get_parsed(format!("/community/group/{}", gid.0), wire::parse_group_page)?;
            if let Some(j) = &journals[s] {
                j.lock().append(&Record::GroupPage(Cow::Borrowed(&page)))?;
            }
            progress.groups_fetched.inc();
            page
        };
        group_index.insert(gid, groups.len() as u32);
        groups.push(page);
    }
    let memberships: Vec<Vec<u32>> = raw_memberships
        .into_iter()
        .map(|gids| {
            let mut m: Vec<u32> = gids.iter().map(|g| group_index[g]).collect();
            m.sort_unstable();
            m
        })
        .collect();

    drop(harvest_timer);

    // --- phase 3: the catalog is replicated to every shard; the app list
    // comes from shard 0 and per-app reads from the shard that owns the
    // app id (pure load spreading — any shard could answer).
    let catalog_timer =
        steam_obs::span("crawl", "catalog").with_histogram(Arc::clone(&progress.phase_catalog));
    let app_ids = if let Some(list) = &replays[0].app_list {
        progress.resume_skipped.inc();
        list.clone()
    } else {
        let list = crawlers[0]
            .fetcher
            .get_parsed("/ISteamApps/GetAppList/v2".into(), wire::parse_app_list)?;
        if let Some(j) = &journals[0] {
            j.lock().append(&Record::AppList(Cow::Borrowed(&list)))?;
        }
        list
    };
    let mut catalog = Vec::with_capacity(app_ids.len());
    for app in app_ids {
        if let Some(game) = replays.iter().find_map(|r| r.apps.get(&app)) {
            progress.resume_skipped.inc();
            catalog.push(game.clone());
            continue;
        }
        let s = shard_of_app(app, n);
        let game = crawlers[s].fetcher.fetch_app(app)?;
        if let Some(j) = &journals[s] {
            j.lock().append(&Record::App(Cow::Borrowed(&game)))?;
        }
        progress.apps_fetched.inc();
        catalog.push(game);
    }
    catalog.sort_by_key(|g| g.app_id);
    drop(catalog_timer);

    friendships.sort_by_key(|e| (e.a, e.b));
    Ok(Snapshot {
        collected_at,
        scanned_id_space,
        accounts,
        friendships,
        ownerships,
        groups,
        memberships,
        catalog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{serve, serve_service_config, ApiService, RateLimit};
    use std::sync::Arc;
    use steam_net::http::Response;
    use steam_obs::TraceContext;
    use steam_synth::{Generator, SynthConfig};

    fn tiny_world() -> Arc<Snapshot> {
        let mut cfg = SynthConfig::small(91);
        cfg.n_users = 300;
        cfg.n_products = 120;
        cfg.n_groups = 25;
        Arc::new(Generator::new(cfg).generate())
    }

    /// Asserts that a crawl of `original` gave back the served world.
    fn assert_reconstructs(crawled: &Snapshot, original: &Snapshot) {
        crawled.validate().unwrap();
        assert_eq!(crawled.n_users(), original.n_users());
        assert_eq!(crawled.scanned_id_space, original.scanned_id_space);
        // Accounts match field-by-field.
        for (a, b) in crawled.accounts.iter().zip(&original.accounts) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.created_at, b.created_at);
            assert_eq!(a.country, b.country);
            assert_eq!(a.city, b.city);
            assert_eq!(a.level, b.level);
            assert_eq!(a.facebook_linked, b.facebook_linked);
        }
        assert_eq!(crawled.friendships, original.friendships);
        assert_eq!(crawled.ownerships, original.ownerships);
        assert_eq!(crawled.catalog, original.catalog);
        // Memberships compared semantically (by group id): the crawler can
        // only see groups that have at least one member.
        for (cm, om) in crawled.memberships.iter().zip(&original.memberships) {
            let cg: Vec<GroupId> = cm.iter().map(|&g| crawled.groups[g as usize].id).collect();
            let og: Vec<GroupId> = om.iter().map(|&g| original.groups[g as usize].id).collect();
            assert_eq!(cg, og);
        }
    }

    #[test]
    fn crawl_reconstructs_snapshot() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let crawled = crawler.crawl(original.collected_at).unwrap();
        assert_reconstructs(&crawled, &original);
        let stats = crawler.stats();
        assert!(stats.requests > original.n_users() as u64 * 3);
        assert_eq!(stats.profiles_found, original.n_users() as u64);
    }

    /// A crawl lands in the chunked v3 container, the only one the program
    /// writes, and every reader gives back the crawled world: the file
    /// decode at 1 and 4 jobs and the streaming reader. Archived v1 and v2
    /// files stay readable through the golden files in `steam-model`.
    #[test]
    fn crawled_snapshot_round_trips_identically_through_the_v3_file() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let crawled = crawler.crawl(original.collected_at).unwrap();

        let dir = std::env::temp_dir()
            .join(format!("crawl-versions-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v3 = dir.join("crawl-v3.bin");
        steam_model::codec::write_snapshot_v3(&v3, &crawled, 2).unwrap();
        assert_eq!(
            steam_model::codec::snapshot_file_version(&v3).unwrap(),
            steam_model::codec::VERSION_CHUNKED
        );
        let baseline = steam_model::codec::encode_snapshot_v3(&crawled, 1).to_vec();
        assert_eq!(std::fs::read(&v3).unwrap(), baseline, "the file is the in-memory encoding");
        let streamed = {
            let reader = steam_model::SnapshotReader::open(&v3).unwrap();
            let world = steam_model::WorldView::stream(&reader).unwrap();
            let mut s = steam_model::Snapshot {
                collected_at: world.collected_at(),
                scanned_id_space: world.scanned_id_space(),
                groups: world.groups().to_vec(),
                catalog: world.catalog().to_vec(),
                ..Default::default()
            };
            world.for_each_account(|_, a| s.accounts.push(a.clone())).unwrap();
            world.for_each_library(|_, lib| s.ownerships.push(lib.to_vec())).unwrap();
            world.for_each_memberships(|_, ms| s.memberships.push(ms.to_vec())).unwrap();
            world.for_each_friendship(|e| s.friendships.push(*e)).unwrap();
            s
        };
        let reads = [
            ("read_snapshot", steam_model::codec::read_snapshot(&v3).unwrap()),
            ("read_snapshot_jobs", steam_model::codec::read_snapshot_jobs(&v3, 4).unwrap()),
            ("SnapshotReader", streamed),
        ];
        for (how, read) in reads {
            assert_eq!(
                steam_model::codec::encode_snapshot_v3(&read, 1).to_vec(),
                baseline,
                "{how} did not round-trip the crawl"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crawl_survives_rate_limiting() {
        // A tight server-side limit forces 429s; backoff must get through.
        let original = {
            let mut cfg = SynthConfig::small(92);
            cfg.n_users = 40;
            cfg.n_products = 30;
            cfg.n_groups = 5;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) = serve(
            Arc::clone(&original),
            "127.0.0.1:0",
            2,
            // Capped far below the crawl's natural rate even on a loaded
            // host running the whole suite in parallel, so 429s are
            // guaranteed regardless of server mode or CPU contention.
            RateLimit { per_key_rps: 100.0, burst: 5.0 },
        )
        .unwrap();
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            backoff: Backoff {
                base: std::time::Duration::from_millis(5),
                max: std::time::Duration::from_millis(100),
                attempts: 10,
            },
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        let crawled = crawler.crawl(original.collected_at).unwrap();
        assert_eq!(crawled.n_users(), original.n_users());
        assert!(crawler.stats().retries_observed > 0, "expected 429 retries");
    }

    #[test]
    fn panel_crawl_reconstructs_week_panel() {
        let mut cfg = SynthConfig::small(95);
        cfg.n_users = 2_000;
        cfg.n_products = 120;
        cfg.n_groups = 20;
        let world = Generator::new(cfg).generate_world();
        // Panel rows index into the population; the service is keyed by the
        // second snapshot's accounts (same ids as the first).
        let snapshot = Arc::new(world.second_snapshot.clone());
        let service = crate::service::ApiService::new(
            Arc::clone(&snapshot),
            RateLimit::default(),
        )
        .with_panel(world.panel.clone());
        let config = steam_net::ServerConfig { workers: 2, ..Default::default() };
        let (server, _service) =
            serve_service_config(service, "127.0.0.1:0", config, None, None).unwrap();
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let crawled = crawler.crawl_panel(&snapshot.accounts).unwrap();
        // The generated panel is ordered by day-one playtime, the crawl by
        // account id; compare as user → days maps.
        let as_map = |p: &steam_model::WeekPanel| -> HashMap<u32, [u32; 7]> {
            p.users.iter().copied().zip(p.daily_minutes.iter().copied()).collect()
        };
        assert_eq!(as_map(&crawled), as_map(&world.panel));
    }

    #[test]
    fn parallel_crawl_is_identical_to_sequential() {
        let original = {
            let mut cfg = SynthConfig::small(94);
            cfg.n_users = 250;
            cfg.n_products = 100;
            cfg.n_groups = 20;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 4, RateLimit::default()).unwrap();
        let crawl_with = |workers: usize| {
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                workers,
                ..CrawlerConfig::default()
            };
            let mut crawler = Crawler::new(server.addr(), config);
            crawler.crawl(original.collected_at).unwrap()
        };
        let sequential = crawl_with(1);
        let parallel = crawl_with(4);
        assert_eq!(sequential.accounts.len(), parallel.accounts.len());
        assert_eq!(sequential.friendships, parallel.friendships);
        assert_eq!(sequential.ownerships, parallel.ownerships);
        assert_eq!(sequential.memberships, parallel.memberships);
        assert_eq!(sequential.catalog, parallel.catalog);
        parallel.validate().unwrap();
    }

    /// The fast path (wire cache and connection pool) must not change a
    /// crawled byte: a crawl of an uncached server without a pool, a
    /// pooled crawl of a cached server, and a warm re-crawl of that server
    /// all reconstruct the same snapshot.
    #[test]
    fn pooled_cached_crawls_reuse_sockets_hit_on_recrawl_and_match_baseline_bytes() {
        let original = {
            let mut cfg = SynthConfig::small(97);
            cfg.n_users = 250;
            cfg.n_products = 100;
            cfg.n_groups = 20;
            Arc::new(Generator::new(cfg).generate())
        };
        const WORKERS: usize = 4;
        // A fresh server per configuration, so connection counts aren't
        // conflated.
        let serve_with = |cached: bool| {
            let registry = Arc::new(steam_obs::Registry::new());
            let service = ApiService::new(Arc::clone(&original), RateLimit::default());
            let (server, service) = serve_service_config(
                if cached { service } else { service.without_cache() },
                "127.0.0.1:0",
                steam_net::ServerConfig { workers: WORKERS + 1, ..Default::default() },
                Some(Arc::clone(&registry)),
                None,
            )
            .unwrap();
            let connections = move || registry.counter("http_connections_total", &[]).get();
            (server, service, connections)
        };
        let crawl = |addr: SocketAddr, pool_size: Option<usize>| {
            let config = CrawlerConfig {
                empty_batches_to_stop: 2,
                workers: WORKERS,
                pool_size,
                ..CrawlerConfig::default()
            };
            let mut crawler = Crawler::new(addr, config);
            let crawled = crawler.crawl(original.collected_at).unwrap();
            (steam_model::codec::encode_snapshot_v3(&crawled, 1), crawler)
        };

        // Baseline: no cache, and a socket per fetcher (main + workers).
        let (server, _service, connections) = serve_with(false);
        let (baseline, _) = crawl(server.addr(), None);
        let unpooled_conns = connections();
        assert!(
            unpooled_conns > WORKERS as u64,
            "unpooled crawl was expected to open a socket per fetcher, got {unpooled_conns}"
        );

        // Cache and pool: the whole crawl fits in pool-size sockets.
        let (server, service, connections) = serve_with(true);
        let (cold, crawler) = crawl(server.addr(), Some(WORKERS));
        let pooled_conns = connections();
        assert!(
            pooled_conns <= WORKERS as u64,
            "pooled crawl opened {pooled_conns} server connections (pool is {WORKERS})"
        );
        let pool = crawler.pool().expect("pooled crawl must expose its pool");
        assert_eq!(pool.connects(), pooled_conns, "client and server disagree on sockets");
        assert!(pool.reuses() > 0, "pooled crawl never reused a connection");

        // A re-crawl of the same server finds the bodies already cached.
        let cache = service.cache().expect("cached service");
        let cold_hits = cache.hits();
        let (warm, _) = crawl(server.addr(), Some(WORKERS));
        assert!(cache.hits() > cold_hits, "warm re-crawl got no cache hits");

        assert_eq!(cold, baseline, "pool and cache changed the crawled bytes");
        assert_eq!(warm, baseline, "the warm re-crawl changed the crawled bytes");
    }

    #[test]
    fn crawl_metrics_mirror_the_crawl() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let registry = Arc::new(steam_obs::Registry::new());
        let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
        let mut crawler = Crawler::with_registry(server.addr(), config, Arc::clone(&registry));
        let progress = crawler.progress();
        let crawled = crawler.crawl(original.collected_at).unwrap();

        let stats = crawler.stats();
        assert_eq!(stats.users_harvested, crawled.n_users() as u64);
        assert_eq!(stats.groups_fetched, crawled.groups.len() as u64);
        assert_eq!(stats.apps_fetched, crawled.catalog.len() as u64);
        assert_eq!(stats.profiles_found, crawled.n_users() as u64);
        assert!(stats.census_batches > 0);
        assert!(stats.ids_scanned >= crawled.scanned_id_space);
        // census batches + 3 per user + 1 per group + app list + 2 per app +
        // nothing else.
        let expected_requests = stats.census_batches
            + 3 * stats.users_harvested
            + stats.groups_fetched
            + 1
            + 2 * stats.apps_fetched;
        assert_eq!(stats.requests, expected_requests);
        // The cloned progress handle observes the same counters.
        assert_eq!(progress.stats().requests, stats.requests);
        assert!(!progress.progress_line().is_empty());
        // And everything lands in the shared registry's exposition.
        let text = registry.render_prometheus();
        assert!(text.contains(&format!("crawl_requests_total {}", stats.requests)));
        assert!(text.contains("crawl_phase_duration_seconds_count{phase=\"census\"} 1"));
        assert!(text.contains("crawl_phase_duration_seconds_count{phase=\"harvest\"} 1"));
        assert!(text.contains("crawl_phase_duration_seconds_count{phase=\"catalog\"} 1"));
    }

    #[test]
    fn journaled_crawl_makes_one_exchange_per_record_but_census_complete() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("crawl-exchanges-{}", std::process::id()));
        let config = CrawlerConfig {
            workers: 2,
            checkpoint_dir: Some(dir.clone()),
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        crawler.crawl(original.collected_at).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Every record but CensusComplete is one unit of work fetched in one
        // exchange: a census batch, a user, a group page, the app list or an
        // app.
        let stats = crawler.stats();
        assert_eq!(stats.retries_observed, 0, "a fault-free crawl: {stats:?}");
        assert_eq!(stats.exchanges, stats.checkpoint_records - 1, "{stats:?}");
    }

    /// Serves `original` through `wrap`, which sees each request and may
    /// rewrite the service's response to it.
    fn serve_wrapped(
        original: &Arc<Snapshot>,
        wrap: impl Fn(&steam_net::http::Request, Response) -> Response + Send + Sync + 'static,
    ) -> steam_net::HttpServer {
        let service = crate::service::ApiService::new(Arc::clone(original), RateLimit::default());
        let handler: Arc<dyn steam_net::Handler> =
            Arc::new(move |req: steam_net::http::Request| {
                let seen = req.clone();
                wrap(&seen, steam_net::Handler::handle(&service, req))
            });
        steam_net::HttpServer::bind("127.0.0.1:0", 2, handler).unwrap()
    }

    fn fast_backoff(attempts: u32) -> Backoff {
        Backoff { base: Duration::from_millis(1), max: Duration::from_millis(20), attempts }
    }

    #[test]
    fn reads_behind_an_early_close_are_retried_alone_without_changing_bytes() {
        let original = tiny_world();
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let clean = Crawler::new(server.addr(), CrawlerConfig::default())
            .crawl(original.collected_at)
            .unwrap();
        // The first five friend lists close their connection: the owned
        // games and group list queued behind each never get an answer.
        let closed = AtomicUsize::new(0);
        let server = serve_wrapped(&original, move |req, resp| {
            let friends = req.path.ends_with("/GetFriendList/v1");
            if friends && closed.fetch_add(1, Ordering::SeqCst) < 5 {
                resp.with_header("Connection", "close")
            } else {
                resp
            }
        });
        let config = CrawlerConfig { backoff: fast_backoff(6), ..CrawlerConfig::default() };
        let mut crawler = Crawler::new(server.addr(), config);
        let crawled = crawler.crawl(original.collected_at).unwrap();
        assert_eq!(
            steam_model::codec::encode_snapshot_v3(&crawled, 1),
            steam_model::codec::encode_snapshot_v3(&clean, 1),
            "an early close must not change the crawled bytes"
        );
        let stats = crawler.stats();
        assert_eq!(stats.retries_io, 10, "two reads behind each of five closes: {stats:?}");
        assert_eq!(stats.retries_observed, 10, "{stats:?}");
        assert_eq!(stats.reconnects, 0, "a closed connection is not stale: {stats:?}");
    }

    /// Harvests the tiny world's first account from a server whose n-th
    /// owned-games answer (counting from 1) goes through `games`. Returns
    /// the outcome, every path the server saw, and the crawler's counters.
    fn harvest_first_user(
        attempts: u32,
        games: impl Fn(usize, Response) -> Response + Send + Sync + 'static,
    ) -> (Result<UserRecord, NetError>, Vec<String>, CrawlStats) {
        let original = tiny_world();
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let log = Arc::clone(&seen);
        let server = serve_wrapped(&original, move |req, resp| {
            let mut log = log.lock();
            log.push(req.path.clone());
            let n = log.iter().filter(|p| p.ends_with("/GetOwnedGames/v1")).count();
            if req.path.ends_with("/GetOwnedGames/v1") {
                games(n, resp)
            } else {
                resp
            }
        });
        let config = CrawlerConfig { backoff: fast_backoff(attempts), ..CrawlerConfig::default() };
        let mut crawler = Crawler::new(server.addr(), config);
        let key = crawler.config.api_key.clone();
        let outcome = crawler.fetcher.harvest_user(&key, 0, original.accounts[0].id);
        let paths = seen.lock().clone();
        (outcome, paths, crawler.stats())
    }

    fn hits(paths: &[String], suffix: &str) -> usize {
        paths.iter().filter(|p| p.ends_with(suffix)).count()
    }

    #[test]
    fn a_429_mid_exchange_is_retried_alone_and_the_other_reads_are_kept() {
        let (outcome, paths, stats) = harvest_first_user(4, |n, resp| {
            if n == 1 {
                Response::error(429, "slow down").with_header("Retry-After", "1")
            } else {
                resp
            }
        });
        assert_eq!(outcome.unwrap().games, tiny_world().ownerships[0]);
        assert_eq!(hits(&paths, "/GetFriendList/v1"), 1, "the friend list was kept");
        assert_eq!(hits(&paths, "/GetUserGroupList/v1"), 1, "the group list was kept");
        assert_eq!(hits(&paths, "/GetOwnedGames/v1"), 2, "only the 429 went again");
        assert_eq!((stats.requests, stats.exchanges, stats.retries_429), (3, 2, 1), "{stats:?}");
        // The one-second hint was honored only up to the policy's max.
        assert!(stats.backoff_wait <= Duration::from_millis(20), "{stats:?}");
    }

    #[test]
    fn a_read_that_always_fails_reaches_the_server_attempts_times() {
        let (outcome, paths, stats) =
            harvest_first_user(3, |_, _| Response::error(503, "down"));
        let err = outcome.unwrap_err();
        assert!(matches!(err, NetError::RetriesExhausted { attempts: 3, .. }), "{err}");
        assert_eq!(hits(&paths, "/GetOwnedGames/v1"), 3, "the exchange is the first attempt");
        assert_eq!(hits(&paths, "/GetFriendList/v1"), 1);
        assert_eq!(stats.exchanges, 3, "{stats:?}");
    }

    #[test]
    fn each_read_of_an_exchange_has_its_own_trace_and_span_end() {
        let original = tiny_world();
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let log = Arc::clone(&seen);
        let server = serve_wrapped(&original, move |req, resp| {
            log.lock().push(req.header("x-steam-trace").unwrap_or("none").to_string());
            resp
        });
        let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
        let (key, id) = (crawler.config.api_key.clone(), original.accounts[0].id);
        let started = crawler.fetcher.start([
            format!("/ISteamUser/GetFriendList/v1?key={key}&steamid={id}"),
            format!("/IPlayerService/GetOwnedGames/v1?key={key}&steamid={id}"),
            format!("/ISteamUser/GetUserGroupList/v1?key={key}&steamid={id}"),
        ]);
        let traces: Vec<TraceId> = started.iter().map(|s| s.trace).collect();
        let headers = seen.lock().clone();
        assert_eq!(headers.len(), 3);
        for (header, trace) in headers.iter().zip(&traces) {
            let ctx = TraceContext::parse(header).expect("every request carries a context");
            assert_eq!(ctx.trace, *trace);
        }
        assert!(traces[0] != traces[1] && traces[1] != traces[2] && traces[0] != traces[2]);
        // One client span per request, all started with the exchange, each
        // ending at its own response: in slot order, ends never decrease.
        let spans = steam_obs::recent_spans();
        let mine: Vec<&SpanRecord> = traces
            .iter()
            .map(|t| {
                let mut of_trace =
                    spans.iter().filter(|s| s.kind == SpanKind::Client && s.trace == *t);
                let span = of_trace.next().expect("a client span per request");
                assert!(of_trace.next().is_none(), "one client span per request");
                span
            })
            .collect();
        assert!(mine.iter().all(|s| s.start_us == mine[0].start_us), "one exchange, one start");
        let ends: Vec<u64> = mine.iter().map(|s| s.start_us + s.duration_us).collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]), "span ends {ends:?}");
    }

    #[test]
    fn non_utf8_body_is_retried_as_corrupt_not_read_lossily() {
        use crate::service::ApiService;
        use std::sync::atomic::AtomicBool;
        use steam_net::http::{Request, Response};
        use steam_net::{Handler, HttpServer};
        // The first group page served carries a byte that is not UTF-8
        // inside its name. Read lossily, it parses as a different name.
        let original = tiny_world();
        let service = ApiService::new(Arc::clone(&original), RateLimit::default());
        let garbled = AtomicBool::new(false);
        let handler: Arc<dyn Handler> = Arc::new(move |req: Request| {
            let group_page = req.path.starts_with("/community/group/");
            let mut resp: Response = service.handle(req);
            if group_page && !garbled.swap(true, Ordering::SeqCst) {
                let name = resp
                    .body
                    .windows(8)
                    .position(|w| w == b"\"name\":\"")
                    .expect("a group page carries a name");
                resp.body[name + 8] = 0xff;
            }
            resp
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let config = CrawlerConfig {
            backoff: Backoff { base: Duration::from_millis(1), ..Backoff::default() },
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        let crawled = crawler.crawl(original.collected_at).unwrap();
        assert_eq!(crawler.stats().retries_corrupt, 1, "the bad body must be retried once");
        assert!(!crawled.groups.is_empty());
        for group in &crawled.groups {
            let served = original.groups.iter().find(|g| g.id == group.id).unwrap();
            assert_eq!(group.name, served.name, "group {:?}", group.id);
        }
    }

    #[test]
    fn rate_limited_crawl_counts_429_retries_and_backoff_wait() {
        let original = {
            let mut cfg = SynthConfig::small(96);
            cfg.n_users = 40;
            cfg.n_products = 20;
            cfg.n_groups = 5;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) = serve(
            Arc::clone(&original),
            "127.0.0.1:0",
            2,
            // Capped far below the crawl's natural rate even on a loaded
            // host running the whole suite in parallel, so 429s are
            // guaranteed regardless of server mode or CPU contention.
            RateLimit { per_key_rps: 100.0, burst: 5.0 },
        )
        .unwrap();
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            backoff: Backoff {
                base: std::time::Duration::from_millis(5),
                max: std::time::Duration::from_millis(100),
                attempts: 10,
            },
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        crawler.crawl(original.collected_at).unwrap();
        let stats = crawler.stats();
        assert!(stats.retries_429 > 0, "expected 429-classified retries");
        assert_eq!(
            stats.retries_observed,
            stats.retries_429 + stats.retries_5xx + stats.retries_io + stats.retries_corrupt
        );
        assert!(
            stats.backoff_wait > Duration::ZERO,
            "retries must account their sleep time"
        );
    }

    #[test]
    fn traced_crawl_joins_client_and_server_spans_without_changing_bytes() {
        let original = {
            let mut cfg = SynthConfig::small(98);
            cfg.n_users = 60;
            cfg.n_products = 30;
            cfg.n_groups = 6;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
        let traced = Crawler::new(server.addr(), config).crawl(original.collected_at).unwrap();
        assert_reconstructs(&traced, &original);
        // The server ran in-process, so the flight recorder holds both sides
        // of every recent hop: find a crawl-issued client span whose trace id
        // also tagged a server span — a complete joined trace.
        let spans = steam_obs::recent_spans();
        let joined = spans.iter().any(|c| {
            c.kind == steam_obs::SpanKind::Client
                && c.target == "crawl"
                && spans
                    .iter()
                    .any(|s| s.kind == steam_obs::SpanKind::Server && s.trace == c.trace)
        });
        assert!(joined, "no trace with both a client and a server span");
    }

    #[test]
    fn self_throttle_limits_request_rate() {
        let original = {
            let mut cfg = SynthConfig::small(93);
            cfg.n_users = 30;
            cfg.n_products = 20;
            cfg.n_groups = 4;
            Arc::new(Generator::new(cfg).generate())
        };
        let (server, _service) =
            serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
        // The cap must sit well below the server's natural rate in *any*
        // mode, or the burst + refill could absorb this small crawl whole
        // and the throttle would never engage.
        let rps = 150.0;
        let config = CrawlerConfig {
            empty_batches_to_stop: 2,
            self_throttle_rps: Some(rps),
            ..CrawlerConfig::default()
        };
        let mut crawler = Crawler::new(server.addr(), config);
        let start = std::time::Instant::now();
        let crawled = crawler.crawl(original.collected_at).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(crawled.n_users(), original.n_users());
        let requests = crawler.stats().requests;
        // The bucket bursts one token (a millisecond of 150 rps) and refills
        // at rps tokens/sec, so n requests need at least ~(n - burst)/rps
        // seconds end to end.
        let burst = 1.0;
        let min_expected =
            std::time::Duration::from_secs_f64((requests as f64 - burst).max(0.0) / rps);
        assert!(
            elapsed >= min_expected,
            "crawl of {requests} requests finished in {elapsed:?} (< {min_expected:?})"
        );
        assert!(
            crawler.stats().throttle_wait > Duration::ZERO,
            "a rate-capped crawl must record throttle wait time"
        );
    }

    #[test]
    fn default_throttle_never_outruns_the_default_server_limit() {
        // Each request takes a token from the default crawler's throttle,
        // then from a bucket built like the default server's. The throttle
        // refills slower and banks less, so the server always has a token;
        // a throttle that banked more than the server (it once banked a
        // quarter second) spends the server's bucket in its first burst.
        let limit = RateLimit::default();
        let crawler = Crawler::new("127.0.0.1:9".parse().unwrap(), CrawlerConfig::default());
        let throttle = crawler.throttle.as_ref().as_ref().expect("throttled by default");
        let server = TokenBucket::new(limit.per_key_rps, limit.burst);
        for i in 0..5_000 {
            throttle.acquire();
            assert!(server.try_acquire(), "request {i} outran the server's limit");
        }
    }
}
