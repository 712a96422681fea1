//! The emulated Steam Web API service.
//!
//! Serves a [`ShardStore`] — a whole snapshot as shard 0 of 1, or one shard
//! of a fleet — through the endpoint surface the paper crawled (§3.1), with
//! per-key token-bucket rate limiting in the spirit of Valve's terms of
//! service:
//!
//! | Endpoint | Notes |
//! |---|---|
//! | `/ISteamUser/GetPlayerSummaries/v2?key=..&steamids=a,b,…` | ≤ 100 ids per call (this is why the paper's phase 1 was fast) |
//! | `/ISteamUser/GetFriendList/v1?key=..&steamid=..` | one user per call |
//! | `/IPlayerService/GetOwnedGames/v1?key=..&steamid=..` | one user per call |
//! | `/ISteamUser/GetUserGroupList/v1?key=..&steamid=..` | one user per call |
//! | `/ISteamApps/GetAppList/v2` | the unpublicized app-list endpoint |
//! | `/api/appdetails?appids=..` | storefront shape, one product per call |
//! | `/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid=..` | |
//! | `/community/group/<gid>` | group-page scrape analog (name + kind) |

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use steam_model::{AppId, Snapshot, SteamId, WeekPanel};
use steam_net::http::{Request, Response};
use steam_net::ratelimit::KeyedLimiter;
use steam_net::server::{Handler, HttpServer};
use steam_net::NetError;
use steam_obs::Gauge;

use crate::cache::{CacheKey, WireCache};
use crate::shard::ShardStore;
use crate::wire;

/// Maximum Steam IDs accepted by the batch profile endpoint.
pub const MAX_BATCH_IDS: usize = 100;

/// The batch endpoint's `steamids`, parsed and de-duplicated in
/// first-occurrence order, or the message of the 400 the service answers.
/// The router splits batches with the same parser, so it sends a shard
/// exactly the ids the unsharded service would answer for.
pub(crate) fn batch_ids(req: &Request) -> Result<Vec<SteamId>, &'static str> {
    let raw = req.query_param("steamids").ok_or("missing steamids")?;
    let segments: Vec<&str> = raw.split(',').filter(|s| !s.is_empty()).collect();
    if segments.len() > MAX_BATCH_IDS {
        return Err("too many steamids (max 100)");
    }
    let mut ids: Vec<SteamId> = Vec::with_capacity(segments.len());
    for s in segments {
        let id: SteamId = s.parse().map_err(|_| "malformed steamid")?;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    Ok(ids)
}

/// Rate-limit configuration for the service.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Requests per second granted to each API key.
    pub per_key_rps: f64,
    /// Burst capacity.
    pub burst: f64,
}

impl Default for RateLimit {
    fn default() -> Self {
        // Generous enough for tests; the crawler self-throttles to 85% of
        // whatever this is set to.
        RateLimit {
            per_key_rps: 100_000.0,
            burst: 200.0,
        }
    }
}

/// The API service state. Wrap in [`Arc`] and serve with [`serve`] or
/// [`serve_service_config`].
pub struct ApiService {
    store: ShardStore,
    /// Per-key token buckets, bounded with idle-key LRU eviction (an
    /// adversary cycling random `key=` values cannot grow the map without
    /// bound).
    limiter: KeyedLimiter,
    /// Cached serialized response bodies — safe because the store is
    /// immutable; `None` only for baseline benchmarking (`--no-cache`).
    cache: Option<WireCache>,
    /// Live limiter-key gauge, bound when a metrics registry is attached.
    limiter_keys: OnceLock<Arc<Gauge>>,
    /// store slot of each owned account, by steam id
    by_id: HashMap<SteamId, u32>,
    /// app id -> catalog index
    app_index: HashMap<AppId, u32>,
    /// group id -> group index (the community-page endpoint is hit once per
    /// group by the crawler; a scan per hit would be quadratic overall)
    group_index: HashMap<u32, u32>,
    /// Optional week panel served at `/reproduction/panel` (the Figure 12
    /// sample, pre-aggregated as the paper's daily queries would have
    /// produced it).
    panel: Option<(WeekPanel, HashMap<u32, usize>)>,
}

/// Another name for [`ApiService`], kept only because the repository
/// benchmark (`perfbench/`) spells it. Everything else names `ApiService`.
pub type ShardService = ApiService;

impl ApiService {
    /// A service over `store`. An `Arc<Snapshot>` converts to the 1-of-1
    /// store (see `ShardStore`'s `From` impl).
    pub fn new(store: impl Into<ShardStore>, limits: RateLimit) -> Self {
        let store = store.into();
        let by_id = store
            .accounts
            .iter()
            .enumerate()
            .map(|(i, a)| (a.id, i as u32))
            .collect();
        let app_index = store
            .catalog
            .iter()
            .enumerate()
            .map(|(i, g)| (g.app_id, i as u32))
            .collect();
        let group_index = store
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| (g.id.0, i as u32))
            .collect();
        ApiService {
            store,
            limiter: KeyedLimiter::new(limits.per_key_rps, limits.burst),
            cache: Some(WireCache::new()),
            limiter_keys: OnceLock::new(),
            by_id,
            app_index,
            group_index,
            panel: None,
        }
    }

    /// Disables the wire-response cache (baseline measurements; the served
    /// bytes are identical either way).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// The wire-response cache, if enabled.
    pub fn cache(&self) -> Option<&WireCache> {
        self.cache.as_ref()
    }

    /// Live per-key rate-limit buckets (bounded — see [`KeyedLimiter`]).
    pub fn rate_limiter_keys(&self) -> usize {
        self.limiter.len()
    }

    /// Binds cache hit/miss counters and the `api_rate_limiter_keys` gauge
    /// to `registry`, the gauge labeled with the store's shard index so a
    /// fleet scraping into one place stays tellable apart. Called by
    /// [`serve_service_config`] when a registry is passed.
    pub fn attach_registry(&self, registry: &steam_obs::Registry) {
        if let Some(cache) = &self.cache {
            cache.attach_registry(registry);
        }
        let shard = self.store.shard_index.to_string();
        let _ = self
            .limiter_keys
            .set(registry.gauge("api_rate_limiter_keys", &[("shard", shard.as_str())]));
    }

    /// Attaches a week panel; enables the `/reproduction/panel` endpoint.
    /// Panel rows name global account indices, which are store slots only
    /// in a 1-of-1 store.
    pub fn with_panel(mut self, panel: WeekPanel) -> Self {
        assert_eq!(
            self.store.shard_count, 1,
            "a week panel needs the 1-of-1 store"
        );
        let index = panel
            .users
            .iter()
            .enumerate()
            .map(|(row, &u)| (u, row))
            .collect();
        self.panel = Some((panel, index));
        self
    }

    /// The store being served.
    pub fn snapshot(&self) -> &ShardStore {
        &self.store
    }

    fn check_rate(&self, req: &Request) -> Result<(), Response> {
        let key = req.query_param("key").unwrap_or("anonymous");
        let (bucket, live_keys) = self.limiter.bucket(key);
        if let Some(g) = self.limiter_keys.get() {
            g.set(live_keys as i64);
        }
        if bucket.try_acquire() {
            Ok(())
        } else {
            // Tell the client when to come back, like real rate-limited APIs
            // do: whole seconds, rounded up — the crawler's backoff honors a
            // non-zero hint over its own exponential schedule. A token less
            // than a second away is sent as 0, so the client keeps its own
            // sub-second schedule instead of parking for a full second.
            let wait = bucket.time_until_available().as_secs_f64();
            let secs = if wait < 1.0 { 0 } else { wait.ceil() as u64 };
            Err(Response::error(429, "rate limit exceeded")
                .with_header("Retry-After", &secs.to_string()))
        }
    }

    /// Serves `key` from the wire cache, writing (and caching) the body on a
    /// miss. With the cache disabled, just writes it. Only reached after
    /// request validation, so error responses are never cached.
    fn cached(&self, key: CacheKey, build: impl FnOnce() -> String) -> Response {
        match &self.cache {
            Some(cache) => {
                if let Some(body) = cache.lookup(&key) {
                    return Response::json_bytes(body.as_ref().clone());
                }
                let bytes = build().into_bytes();
                cache.store(key, bytes.clone());
                Response::json_bytes(bytes)
            }
            None => Response::json(build()),
        }
    }

    fn user_index(&self, req: &Request) -> Result<u32, Response> {
        let raw = match req.query_param("steamid") {
            Some(raw) => raw,
            None => return Err(Response::error(400, "missing steamid")),
        };
        let id: SteamId = match raw.parse() {
            Ok(id) => id,
            Err(_) => return Err(Response::error(400, "malformed steamid")),
        };
        match self.by_id.get(&id) {
            Some(&idx) => Ok(idx),
            None => Err(Response::error(404, "no such account")),
        }
    }

    fn get_player_summaries(&self, req: &Request) -> Response {
        // Parse before keying: the cache key is the decoded, order-preserving
        // id list with duplicates collapsed, so equivalent batches that
        // differ only in percent-encoding, empty segments (`a,,b`), or
        // repeated ids share one entry — and the router's re-batched
        // sub-requests hit entries a direct crawl warmed.
        let ids = match batch_ids(req) {
            Ok(ids) => ids,
            Err(message) => return Response::error(400, message),
        };
        let key = CacheKey::Summaries(ids.iter().map(|id| id.as_u64()).collect());
        self.cached(key, || {
            // Unknown ids are silently absent from the response, exactly how
            // the crawler discovers the ID space's density (§3.1).
            let found: Vec<_> = ids
                .iter()
                .filter_map(|id| self.by_id.get(id))
                .map(|&idx| &self.store.accounts[idx as usize])
                .collect();
            wire::player_summaries_response(&found)
        })
    }

    fn get_friend_list(&self, req: &Request) -> Response {
        let idx = match self.user_index(req) {
            Ok(i) => i,
            Err(resp) => return resp,
        };
        self.cached(CacheKey::Friends(idx), || {
            wire::friend_list_response(&self.store.friends[idx as usize])
        })
    }

    fn get_owned_games(&self, req: &Request) -> Response {
        let idx = match self.user_index(req) {
            Ok(i) => i,
            Err(resp) => return resp,
        };
        self.cached(CacheKey::Games(idx), || {
            wire::owned_games_response(&self.store.games[idx as usize])
        })
    }

    fn get_group_list(&self, req: &Request) -> Response {
        let idx = match self.user_index(req) {
            Ok(i) => i,
            Err(resp) => return resp,
        };
        self.cached(CacheKey::Groups(idx), || {
            wire::group_list_response(&self.store.member_gids[idx as usize])
        })
    }

    fn get_app_list(&self) -> Response {
        self.cached(CacheKey::AppList, || {
            wire::app_list_response(&self.store.catalog)
        })
    }

    fn get_app_details(&self, req: &Request) -> Response {
        let app = match req
            .query_param("appids")
            .and_then(|s| s.parse::<u32>().ok())
        {
            Some(a) => AppId(a),
            None => return Response::error(400, "missing or malformed appids"),
        };
        match self.app_index.get(&app) {
            Some(&gi) => self.cached(CacheKey::AppDetails(gi), || {
                wire::app_details_response(&self.store.catalog[gi as usize])
            }),
            None => Response::error(404, "unknown app"),
        }
    }

    fn get_achievements(&self, req: &Request) -> Response {
        let app = match req
            .query_param("gameid")
            .and_then(|s| s.parse::<u32>().ok())
        {
            Some(a) => AppId(a),
            None => return Response::error(400, "missing or malformed gameid"),
        };
        match self.app_index.get(&app) {
            Some(&gi) => self.cached(CacheKey::Achievements(gi), || {
                wire::achievement_percentages_response(
                    &self.store.catalog[gi as usize].achievements,
                )
            }),
            None => Response::error(404, "unknown app"),
        }
    }

    fn get_panel(&self, req: &Request) -> Response {
        let Some((panel, index)) = &self.panel else {
            return Response::error(404, "no panel attached to this service");
        };
        let idx = match self.user_index(req) {
            Ok(i) => i,
            Err(resp) => return resp,
        };
        match index.get(&idx) {
            Some(&row) => self.cached(CacheKey::Panel(row as u32), || {
                wire::panel_response(&panel.daily_minutes[row])
            }),
            None => Response::error(404, "user not in the panel sample"),
        }
    }

    /// `GET /debug/cache` — wire-cache occupancy and hit/miss totals. Like
    /// `/metrics`, this is operational: never rate-limited, never faulted,
    /// never traced (the server's dispatcher guarantees the latter two).
    fn debug_cache(&self) -> Response {
        let body = match &self.cache {
            Some(cache) => format!(
                "{{\"enabled\":true,\"entries\":{},\"capacity\":{},\"hits\":{},\"misses\":{}}}",
                cache.len(),
                cache.capacity(),
                cache.hits(),
                cache.misses()
            ),
            None => "{\"enabled\":false,\"entries\":0,\"capacity\":0,\"hits\":0,\"misses\":0}"
                .to_string(),
        };
        Response::json(body)
    }

    /// `GET /debug/limiter` — live rate-limiter key count against its bound.
    fn debug_limiter(&self) -> Response {
        Response::json(format!(
            "{{\"keys\":{},\"max_keys\":{}}}",
            self.limiter.len(),
            self.limiter.capacity()
        ))
    }

    fn get_group_page(&self, gid_str: &str) -> Response {
        let gid: u32 = match gid_str.parse() {
            Ok(g) => g,
            Err(_) => return Response::error(400, "malformed gid"),
        };
        match self.group_index.get(&gid) {
            Some(&gi) => self.cached(CacheKey::GroupPage(gi), || {
                wire::group_page_response(&self.store.groups[gi as usize])
            }),
            None => Response::error(404, "unknown group"),
        }
    }
}

impl Handler for ApiService {
    fn handle(&self, req: Request) -> Response {
        if req.method != "GET" {
            return Response::error(400, "only GET is supported");
        }
        // Introspection answers before rate limiting: an operator debugging
        // a throttled crawl must not be throttled out of the debugger.
        match req.path.as_str() {
            "/debug/cache" => return self.debug_cache(),
            "/debug/limiter" => return self.debug_limiter(),
            _ => {}
        }
        if let Err(resp) = self.check_rate(&req) {
            return resp;
        }
        if let Some(gid) = req.path.strip_prefix("/community/group/") {
            return self.get_group_page(gid);
        }
        match req.path.as_str() {
            "/ISteamUser/GetPlayerSummaries/v2" => self.get_player_summaries(&req),
            "/ISteamUser/GetFriendList/v1" => self.get_friend_list(&req),
            "/IPlayerService/GetOwnedGames/v1" => self.get_owned_games(&req),
            "/ISteamUser/GetUserGroupList/v1" => self.get_group_list(&req),
            "/ISteamApps/GetAppList/v2" => self.get_app_list(),
            "/api/appdetails" => self.get_app_details(&req),
            "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2" => {
                self.get_achievements(&req)
            }
            "/reproduction/panel" => self.get_panel(&req),
            _ => Response::error(404, "unknown endpoint"),
        }
    }
}

/// Binds an HTTP server serving the snapshot as shard 0 of 1. Port 0 picks
/// an ephemeral port; read it back from [`HttpServer::addr`].
pub fn serve(
    snapshot: Arc<Snapshot>,
    addr: &str,
    workers: usize,
    limits: RateLimit,
) -> Result<(HttpServer, Arc<ApiService>), NetError> {
    let config = steam_net::ServerConfig {
        workers,
        ..Default::default()
    };
    serve_service_config(ApiService::new(snapshot, limits), addr, config, None, None)
}

/// Binds an HTTP server around a built service (one shard's store, or one
/// with a week panel attached via [`ApiService::with_panel`]). `config`
/// picks the server mode ([`ServerMode::Epoll`] reactor vs
/// [`ServerMode::Threaded`] worker pool — both serve byte-identical
/// responses) and the idle timeout. A `registry` gets per-endpoint
/// request/latency metrics plus `GET /metrics` and `GET /healthz`; a
/// `faults` injector makes the server misbehave per its seeded plan (drop
/// connections, inject 5xx, truncate/corrupt bodies, stall) — see
/// `steam_net::fault`.
///
/// [`ServerMode::Epoll`]: steam_net::ServerMode::Epoll
/// [`ServerMode::Threaded`]: steam_net::ServerMode::Threaded
pub fn serve_service_config(
    service: ApiService,
    addr: &str,
    config: steam_net::ServerConfig,
    registry: Option<Arc<steam_obs::Registry>>,
    faults: Option<Arc<steam_net::FaultInjector>>,
) -> Result<(HttpServer, Arc<ApiService>), NetError> {
    if let Some(registry) = &registry {
        service.attach_registry(registry);
    }
    let service = Arc::new(service);
    let handler: Arc<dyn Handler> = Arc::clone(&service) as Arc<dyn Handler>;
    let server = HttpServer::bind_config(addr, config, handler, registry, faults)?;
    Ok((server, service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use steam_model::codec;
    use steam_synth::{Generator, SynthConfig};

    fn tiny_snapshot() -> Arc<Snapshot> {
        let mut cfg = SynthConfig::small(55);
        cfg.n_users = 500;
        cfg.n_products = 300;
        cfg.n_groups = 40;
        Arc::new(Generator::new(cfg).generate())
    }

    fn request(service: &ApiService, target: &str) -> Response {
        service.handle(Request::get(target))
    }

    #[test]
    fn summaries_batch_and_missing_ids() {
        let snap = tiny_snapshot();
        let service = ApiService::new(Arc::clone(&snap), RateLimit::default());
        let id0 = snap.accounts[0].id;
        let id1 = snap.accounts[1].id;
        // One valid, one invalid (base + huge offset) id.
        let bogus = SteamId::from_index(999_999_999);
        let resp = request(
            &service,
            &format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id0},{id1},{bogus}"),
        );
        assert_eq!(resp.status, 200);
        let players = wire::parse_player_summaries(&resp.body_text()).unwrap();
        assert_eq!(players.len(), 2);
        assert_eq!(players[0].id, id0);
    }

    #[test]
    fn equivalent_summary_batches_share_one_cache_entry() {
        // Regression: the cache used to key summaries by the raw `steamids`
        // query string, so batches differing only in percent-encoding,
        // empty segments, or duplicate ids occupied distinct entries.
        let snap = tiny_snapshot();
        let service = ApiService::new(Arc::clone(&snap), RateLimit::default());
        let id0 = snap.accounts[0].id;
        let id1 = snap.accounts[1].id;
        // Percent-encode the first digit of id0 — the HTTP layer decodes
        // query params, so the service sees the same id either way.
        let id0s = id0.to_string();
        let encoded = format!("%{:02X}{}", id0s.as_bytes()[0], &id0s[1..]);
        let variants = [
            format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id0},{id1}"),
            format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id0},,{id1},"),
            format!("/ISteamUser/GetPlayerSummaries/v2?steamids={encoded},{id1}"),
            format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id0},{id0},{id1}"),
        ];
        let first = request(&service, &variants[0]);
        assert_eq!(first.status, 200);
        for v in &variants {
            let resp = request(&service, v);
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.body, first.body,
                "variant {v} must serve identical bytes"
            );
        }
        let cache = service.cache().unwrap();
        assert_eq!(cache.len(), 1, "all encoding variants must share one entry");
        assert_eq!(
            cache.hits(),
            4,
            "every variant after the first fill must hit"
        );
    }

    #[test]
    fn batch_limit_enforced() {
        let snap = tiny_snapshot();
        let service = ApiService::new(snap, RateLimit::default());
        let ids: Vec<String> = (0..101)
            .map(|i| SteamId::from_index(i).to_string())
            .collect();
        let resp = request(
            &service,
            &format!(
                "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
                ids.join(",")
            ),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn friend_list_matches_snapshot() {
        let snap = tiny_snapshot();
        let service = ApiService::new(Arc::clone(&snap), RateLimit::default());
        // Find a user with friends.
        let deg = snap.degrees();
        let u = deg
            .iter()
            .position(|&d| d > 0)
            .expect("someone has friends");
        let id = snap.accounts[u].id;
        let resp = request(
            &service,
            &format!("/ISteamUser/GetFriendList/v1?steamid={id}"),
        );
        let friends = wire::parse_friend_list(&resp.body_text()).unwrap();
        assert_eq!(friends.len(), deg[u] as usize);
    }

    #[test]
    fn owned_games_match_snapshot() {
        let snap = tiny_snapshot();
        let service = ApiService::new(Arc::clone(&snap), RateLimit::default());
        let u = snap.ownerships.iter().position(|l| !l.is_empty()).unwrap();
        let id = snap.accounts[u].id;
        let resp = request(
            &service,
            &format!("/IPlayerService/GetOwnedGames/v1?steamid={id}"),
        );
        let games = wire::parse_owned_games(&resp.body_text()).unwrap();
        assert_eq!(games, snap.ownerships[u]);
    }

    #[test]
    fn unknown_routes_and_users_404() {
        let snap = tiny_snapshot();
        let service = ApiService::new(snap, RateLimit::default());
        assert_eq!(request(&service, "/nope").status, 404);
        let ghost = SteamId::from_index(987_654_321);
        assert_eq!(
            request(
                &service,
                &format!("/ISteamUser/GetFriendList/v1?steamid={ghost}")
            )
            .status,
            404
        );
        assert_eq!(
            request(&service, "/ISteamUser/GetFriendList/v1?steamid=banana").status,
            400
        );
        assert_eq!(
            request(&service, "/api/appdetails?appids=99999999").status,
            404
        );
    }

    #[test]
    fn rate_limit_fires() {
        let snap = tiny_snapshot();
        let service = ApiService::new(
            snap,
            RateLimit {
                per_key_rps: 0.001,
                burst: 2.0,
            },
        );
        let ok1 = request(&service, "/ISteamApps/GetAppList/v2");
        let ok2 = request(&service, "/ISteamApps/GetAppList/v2");
        let limited = request(&service, "/ISteamApps/GetAppList/v2");
        assert_eq!(ok1.status, 200);
        assert_eq!(ok2.status, 200);
        assert_eq!(limited.status, 429);
        let retry_after: u64 = limited
            .header("retry-after")
            .expect("429 must carry Retry-After")
            .parse()
            .expect("Retry-After must be whole seconds");
        assert!(retry_after >= 1, "hint must be at least one second");
        // A different key has its own bucket.
        let other = request(&service, "/ISteamApps/GetAppList/v2?key=other");
        assert_eq!(other.status, 200);
    }

    #[test]
    fn group_page_serves_kind() {
        let snap = tiny_snapshot();
        let service = ApiService::new(Arc::clone(&snap), RateLimit::default());
        let g = &snap.groups[0];
        let resp = request(&service, &format!("/community/group/{}", g.id.0));
        let page = wire::parse_group_page(&resp.body_text()).unwrap();
        assert_eq!(page.kind, g.kind);
    }

    #[test]
    fn post_rejected() {
        let snap = tiny_snapshot();
        let service = ApiService::new(snap, RateLimit::default());
        let mut req = Request::get("/ISteamApps/GetAppList/v2");
        req.method = "POST".into();
        assert_eq!(service.handle(req).status, 400);
    }

    #[test]
    fn sub_second_wait_is_sent_as_retry_after_zero() {
        // At 100 req/s the next token is 10ms away: a whole-second hint
        // would park the client 100 times longer than needed.
        let snap = tiny_snapshot();
        let service = ApiService::new(
            snap,
            RateLimit {
                per_key_rps: 100.0,
                burst: 1.0,
            },
        );
        // Back-to-back requests outrun 100 req/s within a few tries, however
        // the test threads are scheduled.
        let limited = (0..1000)
            .map(|_| request(&service, "/ISteamApps/GetAppList/v2"))
            .find(|resp| resp.status == 429)
            .expect("a 100 req/s key must refuse a back-to-back burst");
        assert_eq!(limited.header("retry-after"), Some("0"));
    }

    #[test]
    fn bucket_map_growth_is_bounded() {
        // Regression: every unseen `key=` once grew the bucket map forever,
        // so a client cycling random keys exhausted memory. The limiter now
        // fills to exactly its cap, and every view of it says so.
        use steam_net::ratelimit::DEFAULT_MAX_KEYS;
        let snap = tiny_snapshot();
        let service = ApiService::new(snap, RateLimit::default());
        let registry = steam_obs::Registry::new();
        service.attach_registry(&registry);
        for i in 0..20_000 {
            let resp = request(&service, &format!("/ISteamApps/GetAppList/v2?key=k{i}"));
            assert_eq!(resp.status, 200);
        }
        assert_eq!(service.rate_limiter_keys(), DEFAULT_MAX_KEYS);
        let debug = request(&service, "/debug/limiter").body_text();
        assert_eq!(
            debug,
            format!("{{\"keys\":{DEFAULT_MAX_KEYS},\"max_keys\":{DEFAULT_MAX_KEYS}}}")
        );
        let gauge = registry
            .gauge("api_rate_limiter_keys", &[("shard", "0")])
            .get();
        assert_eq!(gauge, DEFAULT_MAX_KEYS as i64);
    }

    #[test]
    fn cache_growth_is_bounded() {
        // The cache twin of the limiter bound: distinct batches of unknown
        // ids each answer 200 with an empty player list and are cached, so
        // a client cycling ids fills the cache to exactly its cap.
        use crate::cache::DEFAULT_MAX_ENTRIES;
        let snap = tiny_snapshot();
        let unlimited = RateLimit {
            per_key_rps: 1e12,
            burst: 1e12,
        };
        let service = ApiService::new(snap, unlimited);
        let registry = steam_obs::Registry::new();
        service.attach_registry(&registry);
        for i in 0..10_000 {
            let ghost = SteamId::from_index(900_000_000 + i);
            let resp = request(
                &service,
                &format!("/ISteamUser/GetPlayerSummaries/v2?steamids={ghost}"),
            );
            assert_eq!(resp.status, 200);
        }
        let cache = service.cache().unwrap();
        assert_eq!(cache.len(), DEFAULT_MAX_ENTRIES);
        assert_eq!(cache.capacity(), DEFAULT_MAX_ENTRIES);
        let debug = request(&service, "/debug/cache").body_text();
        assert_eq!(
            debug,
            format!(
                "{{\"enabled\":true,\"entries\":{DEFAULT_MAX_ENTRIES},\
                 \"capacity\":{DEFAULT_MAX_ENTRIES},\"hits\":0,\"misses\":10000}}"
            )
        );
        let gauge = registry.gauge("api_cache_entries", &[]).get();
        assert_eq!(gauge, DEFAULT_MAX_ENTRIES as i64);
    }

    #[test]
    fn cached_body_is_byte_identical_to_fresh_serialization() {
        let snap = tiny_snapshot();
        let cached = ApiService::new(Arc::clone(&snap), RateLimit::default());
        let uncached = ApiService::new(Arc::clone(&snap), RateLimit::default()).without_cache();
        assert!(uncached.cache().is_none());
        let deg = snap.degrees();
        let u = deg
            .iter()
            .position(|&d| d > 0)
            .expect("someone has friends");
        let id = snap.accounts[u].id;
        let targets = [
            format!("/ISteamUser/GetFriendList/v1?steamid={id}"),
            format!("/IPlayerService/GetOwnedGames/v1?steamid={id}"),
            format!("/ISteamUser/GetUserGroupList/v1?steamid={id}"),
            format!("/ISteamUser/GetPlayerSummaries/v2?steamids={id}"),
            "/ISteamApps/GetAppList/v2".to_string(),
            format!("/community/group/{}", snap.groups[0].id.0),
        ];
        for target in &targets {
            let miss = request(&cached, target);
            let hit = request(&cached, target);
            let fresh = request(&uncached, target);
            assert_eq!(miss.status, 200, "{target}");
            assert_eq!(
                miss.body, hit.body,
                "hit must replay the miss body: {target}"
            );
            assert_eq!(
                miss.body, fresh.body,
                "cache must not change bytes: {target}"
            );
        }
        let cache = cached.cache().unwrap();
        assert_eq!(cache.misses(), targets.len() as u64);
        assert_eq!(cache.hits(), targets.len() as u64);
        assert_eq!(uncached.cache().map(|c| c.hits()), None);
    }

    #[test]
    fn error_responses_are_never_cached() {
        let snap = tiny_snapshot();
        let service = ApiService::new(snap, RateLimit::default());
        let before = service.cache().unwrap().len();
        assert_eq!(
            request(&service, "/ISteamUser/GetFriendList/v1?steamid=zzz").status,
            400
        );
        assert_eq!(
            request(&service, "/api/appdetails?appids=99999999").status,
            404
        );
        assert_eq!(
            request(
                &service,
                "/ISteamUser/GetPlayerSummaries/v2?steamids=banana"
            )
            .status,
            400
        );
        assert_eq!(
            service.cache().unwrap().len(),
            before,
            "errors must not be cached"
        );
    }

    #[test]
    fn debug_cache_and_limiter_report_live_state() {
        let snap = tiny_snapshot();
        let service = ApiService::new(snap, RateLimit::default());
        let before = request(&service, "/debug/cache");
        assert_eq!(before.status, 200);
        assert!(before.body_text().contains("\"enabled\":true"));
        assert!(before.body_text().contains("\"entries\":0"));
        // Populate one entry, observe the counters move.
        assert_eq!(request(&service, "/ISteamApps/GetAppList/v2").status, 200);
        assert_eq!(request(&service, "/ISteamApps/GetAppList/v2").status, 200);
        let after = request(&service, "/debug/cache");
        assert!(
            after.body_text().contains("\"entries\":1"),
            "{}",
            after.body_text()
        );
        assert!(
            after.body_text().contains("\"hits\":1"),
            "{}",
            after.body_text()
        );
        assert!(
            after.body_text().contains("\"misses\":1"),
            "{}",
            after.body_text()
        );

        let limiter = request(&service, "/debug/limiter");
        assert_eq!(limiter.status, 200);
        assert!(
            limiter.body_text().contains("\"keys\":"),
            "{}",
            limiter.body_text()
        );
        assert!(
            limiter.body_text().contains(&format!(
                "\"max_keys\":{}",
                steam_net::ratelimit::DEFAULT_MAX_KEYS
            )),
            "{}",
            limiter.body_text()
        );

        let uncached = ApiService::new(tiny_snapshot(), RateLimit::default()).without_cache();
        assert!(request(&uncached, "/debug/cache")
            .body_text()
            .contains("\"enabled\":false"));
    }

    #[test]
    fn debug_endpoints_are_never_rate_limited() {
        let snap = tiny_snapshot();
        let service = ApiService::new(
            snap,
            RateLimit {
                per_key_rps: 0.001,
                burst: 1.0,
            },
        );
        assert_eq!(request(&service, "/ISteamApps/GetAppList/v2").status, 200);
        assert_eq!(request(&service, "/ISteamApps/GetAppList/v2").status, 429);
        // A throttled-out key can still introspect the throttle.
        for _ in 0..5 {
            assert_eq!(request(&service, "/debug/cache").status, 200);
            assert_eq!(request(&service, "/debug/limiter").status, 200);
        }
    }

    #[test]
    fn snapshot_codec_compatible() {
        // The service can serve a decoded snapshot (catalog indexes etc.
        // survive the round trip).
        let snap = tiny_snapshot();
        let bytes = codec::encode_snapshot_v3(&snap, 1);
        let decoded = Arc::new(codec::decode_snapshot(bytes).unwrap());
        let service = ApiService::new(decoded, RateLimit::default());
        assert_eq!(request(&service, "/ISteamApps/GetAppList/v2").status, 200);
    }
}
