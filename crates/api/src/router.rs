//! The scatter-gather router: one front door over a fleet of shard servers.
//!
//! The router owns no snapshot data. It classifies each request by the
//! entity it names, maps that entity to its shard by residue class (the
//! same `id % N` rule `shard-split` used — see [`crate::shard`]), and
//! proxies over pooled keep-alive connections from one address-keyed
//! [`ConnectionPool`]. The batch `GetPlayerSummaries` endpoint is the
//! interesting case: its id list is split per shard, the sub-batches fan
//! out concurrently, and the per-shard answers are merged back **in the
//! original request order**, which makes the routed response byte-identical
//! to the unsharded service's. The ordering argument: the unsharded service
//! emits found players in (deduplicated) request order; each shard does the
//! same for the subsequence it owns; re-emitting by walking the original
//! deduplicated list and picking each id's account from whichever shard
//! returned it reconstructs exactly that interleaving. A single-shard
//! fleet (and the single-id endpoints) skip the scatter entirely and
//! forward on the caller's thread: a per-request `thread::scope` spawn was
//! a large slice of routing overhead (DESIGN.md, "Sharded serving").
//!
//! Failure policy: a sub-request that keeps failing after bounded retries
//! never yields a partially merged 200 — the client gets a clean 502
//! (`shard unavailable`) or 503 (`shard busy`, `Retry-After` propagated),
//! both transient for the crawler's backoff. A shard's 429 is the caller's
//! own key being limited and is forwarded verbatim, `Retry-After` intact.
//!
//! Tracing: when a request arrives with `X-Steam-Trace`, every proxied
//! attempt is stamped with a fresh span under the same trace id and records
//! a `router`-component client span, so `/debug/spans?trace=` shows
//! client → router → shard for one routed request.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use steam_model::{AppId, GroupId, SteamId};
use steam_net::http::{Request, Response};
use steam_net::server::{Handler, HttpServer};
use steam_net::url::build_target;
use steam_net::{Backoff, ConnectionPool, HttpClient, NetError};
use steam_obs::{
    next_span_id, now_us, record_span, Counter, SpanKind, SpanRecord, TraceContext, TRACE_HEADER,
};

use crate::service::MAX_BATCH_IDS;
use crate::shard::{shard_of, shard_of_app, shard_of_group};
use crate::wire;

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Idle keep-alive connections kept per shard.
    pub pool_size: usize,
    /// Retry policy for each proxied sub-request (transport failures and
    /// shard 5xx are retried up to `attempts` times; `Retry-After` hints
    /// are honored, already clamped by the client to the backoff max).
    pub backoff: Backoff,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { pool_size: 4, backoff: Backoff::default() }
    }
}

/// Per-shard counters, labeled `shard="<index>"` in the registry.
struct RouterMetrics {
    requests: Vec<Arc<Counter>>,
    retries: Vec<Arc<Counter>>,
    errors: Vec<Arc<Counter>>,
}

/// The scatter-gather routing service. Wrap in [`Arc`] and serve with
/// [`serve_router_config`].
pub struct RouterService {
    shards: Vec<SocketAddr>,
    pool: Arc<ConnectionPool>,
    backoff: Backoff,
    metrics: OnceLock<RouterMetrics>,
}

impl RouterService {
    pub fn new(shards: Vec<SocketAddr>, config: RouterConfig) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        RouterService {
            shards,
            pool: Arc::new(ConnectionPool::new(config.pool_size)),
            backoff: config.backoff,
            metrics: OnceLock::new(),
        }
    }

    /// The shard fleet, in ring order.
    pub fn shards(&self) -> &[SocketAddr] {
        &self.shards
    }

    /// The shared address-keyed connection pool.
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// Registers per-shard request/retry/error counters.
    pub fn attach_registry(&self, registry: &steam_obs::Registry) {
        let make = |name: &str| -> Vec<Arc<Counter>> {
            (0..self.shards.len())
                .map(|i| {
                    let shard = i.to_string();
                    registry.counter(name, &[("shard", shard.as_str())])
                })
                .collect()
        };
        let _ = self.metrics.set(RouterMetrics {
            requests: make("router_requests_total"),
            retries: make("router_retries_total"),
            errors: make("router_errors_total"),
        });
    }

    fn count(&self, pick: impl Fn(&RouterMetrics) -> &Vec<Arc<Counter>>, shard: usize) {
        if let Some(m) = self.metrics.get() {
            pick(m)[shard].inc();
        }
    }

    /// One proxied exchange with bounded retries. Transport failures and
    /// shard 5xx responses are retried on the backoff schedule (honoring a
    /// clamped `Retry-After` when the shard sent one); everything else —
    /// including 429 — returns to the caller as-is. Records one client span
    /// per attempt when the incoming request carried a trace.
    fn exchange(
        &self,
        shard: usize,
        target: &str,
        incoming: Option<TraceContext>,
    ) -> Result<Response, NetError> {
        let mut client = HttpClient::with_pool(self.shards[shard], Arc::clone(&self.pool));
        let req = Request::get(target);
        self.count(|m| &m.requests, shard);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Each attempt is a span of its own in the incoming trace.
            let ctx =
                incoming.map(|inc| TraceContext { trace: inc.trace, span: next_span_id() });
            let start_us = now_us();
            let t0 = std::time::Instant::now();
            let mut replies = client.exchange(&[(&req, ctx)]);
            let outcome = replies.pop().expect("one reply per request").result;
            if let (Some(inc), Some(ctx)) = (incoming, ctx) {
                let status = match &outcome {
                    Ok(resp) => resp.status,
                    Err(_) => 0,
                };
                record_span(
                    SpanRecord::new(
                        ctx.trace,
                        ctx.span,
                        inc.span,
                        SpanKind::Client,
                        "router",
                        target,
                    )
                    .with_timing(start_us, t0.elapsed().as_micros() as u64)
                    .with_status(status)
                    .with_annotation(&format!("shard={shard} attempt={attempt}")),
                );
            }
            let retryable = match &outcome {
                Ok(resp) => resp.status >= 500,
                Err(_) => true,
            };
            if !retryable || attempt >= self.backoff.attempts.max(1) {
                return outcome;
            }
            self.count(|m| &m.retries, shard);
            // Prefer the shard's own (clamped) hint over the schedule.
            let hinted = match &outcome {
                Ok(resp) => resp
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(|s| Duration::from_secs(s).min(self.backoff.max)),
                Err(_) => None,
            };
            std::thread::sleep(hinted.unwrap_or_else(|| self.backoff.delay(attempt - 1)));
        }
    }

    /// A shard response (or transport error) the retry loop gave up on,
    /// mapped to the router's clean failure surface.
    fn give_up(&self, shard: usize, outcome: Result<Response, NetError>) -> Response {
        self.count(|m| &m.errors, shard);
        match outcome {
            Ok(resp) if resp.status == 503 => {
                let retry_after =
                    resp.header("retry-after").unwrap_or("1").to_string();
                Response::error(503, &format!("shard {shard} busy"))
                    .with_header("Retry-After", &retry_after)
            }
            _ => Response::error(502, &format!("shard {shard} unavailable"))
                .with_header("Retry-After", "1"),
        }
    }

    /// Forwards a shard response verbatim: status, body, content type, and
    /// `Retry-After` survive; connection framing is re-synthesized by our
    /// own dispatcher.
    fn forwarded(resp: Response) -> Response {
        let retry_after = resp.header("retry-after").map(str::to_string);
        let content_type = resp
            .headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
            .map(|(_, v)| v.clone());
        let mut out = Response::json_bytes(resp.body);
        out.status = resp.status;
        if let Some(ct) = content_type {
            out.headers[0].1 = ct;
        }
        if let Some(ra) = retry_after {
            out = out.with_header("Retry-After", &ra);
        }
        out
    }

    /// Proxies one request to one shard, mapping terminal failures to the
    /// router's clean 502/503 surface.
    fn proxy(&self, shard: usize, target: &str, incoming: Option<TraceContext>) -> Response {
        match self.exchange(shard, target, incoming) {
            Ok(resp) if resp.status >= 500 => self.give_up(shard, Ok(resp)),
            Ok(resp) => Self::forwarded(resp),
            Err(e) => self.give_up(shard, Err(e)),
        }
    }

    /// Rebuilds the request target (path + query) for proxying. The HTTP
    /// layer decoded both; re-encoding round-trips through the shard's
    /// parser to the same decoded values.
    fn rebuild_target(req: &Request) -> String {
        let pairs: Vec<(&str, &str)> =
            req.query.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        build_target(&req.path, &pairs)
    }

    /// Rebuilds the target with the `steamids` parameter replaced by
    /// `ids` (other parameters — notably `key` — survive in order).
    fn subbatch_target(req: &Request, ids: &[SteamId]) -> String {
        let joined =
            ids.iter().map(|id| id.to_string()).collect::<Vec<_>>().join(",");
        let pairs: Vec<(&str, &str)> = req
            .query
            .iter()
            .map(|(k, v)| (k.as_str(), if k == "steamids" { joined.as_str() } else { v.as_str() }))
            .collect();
        build_target(&req.path, &pairs)
    }

    /// The shard that owns the entity a request names. Requests the shards
    /// would reject anyway (missing/malformed parameters, unknown paths)
    /// go to shard 0, whose error response is byte-identical to any
    /// other's.
    fn pick_shard(&self, req: &Request) -> usize {
        let n = self.shards.len();
        if let Some(gid) = req.path.strip_prefix("/community/group/") {
            return match gid.parse::<u32>() {
                Ok(g) => shard_of_group(GroupId(g), n),
                Err(_) => 0,
            };
        }
        match req.path.as_str() {
            "/ISteamUser/GetFriendList/v1"
            | "/IPlayerService/GetOwnedGames/v1"
            | "/ISteamUser/GetUserGroupList/v1"
            | "/reproduction/panel" => req
                .query_param("steamid")
                .and_then(|s| s.parse::<SteamId>().ok())
                .map_or(0, |id| shard_of(id, n)),
            "/api/appdetails" => req
                .query_param("appids")
                .and_then(|s| s.parse::<u32>().ok())
                .map_or(0, |a| shard_of_app(AppId(a), n)),
            "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2" => req
                .query_param("gameid")
                .and_then(|s| s.parse::<u32>().ok())
                .map_or(0, |a| shard_of_app(AppId(a), n)),
            // `/ISteamApps/GetAppList/v2` (replicated catalog), `/debug/*`,
            // and anything unknown: shard 0 answers for the fleet.
            _ => 0,
        }
    }

    /// The batch endpoint: split per shard, fan out, merge in request
    /// order. Invalid batches (malformed id, too many ids, missing or
    /// empty parameter) are forwarded whole to shard 0, whose validation
    /// response is byte-identical to the unsharded service's.
    fn route_summaries(&self, req: &Request, incoming: Option<TraceContext>) -> Response {
        let n = self.shards.len();
        let target = Self::rebuild_target(req);
        // Single-shard fleet fast path: every id hashes to shard 0 by
        // construction, so parsing, deduplicating, and re-encoding the id
        // list can only reproduce the request we already have. The shard
        // deduplicates in the same first-occurrence order, so forwarding
        // the original target verbatim is byte-identical to the
        // split/merge below — minus its parse and thread-scope cost.
        if n == 1 {
            return self.proxy(0, &target, incoming);
        }
        let Some(raw) = req.query_param("steamids") else {
            return self.proxy(0, &target, incoming);
        };
        let segments: Vec<&str> = raw.split(',').filter(|s| !s.is_empty()).collect();
        if segments.len() > MAX_BATCH_IDS {
            return self.proxy(0, &target, incoming);
        }
        // Deduplicate in first-occurrence order, exactly as the shards (and
        // the unsharded service) do — the merge below walks this list.
        let mut ids: Vec<SteamId> = Vec::with_capacity(segments.len());
        for s in segments {
            let Ok(id) = s.parse::<SteamId>() else {
                return self.proxy(0, &target, incoming);
            };
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut per_shard: Vec<Vec<SteamId>> = vec![Vec::new(); n];
        for &id in &ids {
            per_shard[shard_of(id, n)].push(id);
        }
        let parts: Vec<(usize, String)> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(shard, ids)| (shard, Self::subbatch_target(req, ids)))
            .collect();
        if parts.is_empty() {
            // No ids at all: any shard serves the canonical empty response.
            return self.proxy(0, &target, incoming);
        }
        if parts.len() == 1 {
            return self.proxy(parts[0].0, &parts[0].1, incoming);
        }
        // Fan out: spawn threads for every part but the first, which runs
        // on the caller's thread — a two-part batch costs one spawn, not
        // two. Outcomes are collected in part order either way, so the
        // all-or-nothing merge below reports the same shard's failure the
        // all-spawned version would.
        let outcomes: Vec<(usize, Result<Response, NetError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = parts[1..]
                    .iter()
                    .map(|(shard, target)| {
                        let shard = *shard;
                        let target = target.as_str();
                        scope.spawn(move || (shard, self.exchange(shard, target, incoming)))
                    })
                    .collect();
                let first = (parts[0].0, self.exchange(parts[0].0, &parts[0].1, incoming));
                std::iter::once(first)
                    .chain(handles.into_iter().map(|h| h.join().expect("fan-out thread")))
                    .collect()
            });
        // All-or-nothing merge: any failed sub-request fails the whole
        // batch cleanly; a partially merged 200 would be silently wrong.
        let mut by_id: HashMap<SteamId, steam_model::Account> = HashMap::new();
        for (shard, outcome) in outcomes {
            match outcome {
                Ok(resp) if resp.status == 200 => {
                    match wire::body_text(&resp.body).and_then(wire::parse_player_summaries) {
                        Ok(players) => {
                            for p in players {
                                by_id.insert(p.id, p);
                            }
                        }
                        // Corrupt body (e.g. an injected fault): transient.
                        Err(e) => return self.give_up(shard, Err(e)),
                    }
                }
                Ok(resp) if resp.status == 429 => return Self::forwarded(resp),
                other => return self.give_up(shard, other),
            }
        }
        let found: Vec<&steam_model::Account> =
            ids.iter().filter_map(|id| by_id.get(id)).collect();
        Response::json(wire::player_summaries_response(&found))
    }
}

impl Handler for RouterService {
    fn handle(&self, req: Request) -> Response {
        if req.method != "GET" {
            return Response::error(400, "only GET is supported");
        }
        let incoming = req.header(TRACE_HEADER).and_then(TraceContext::parse);
        if req.path == "/ISteamUser/GetPlayerSummaries/v2" {
            return self.route_summaries(&req, incoming);
        }
        let shard = self.pick_shard(&req);
        let target = Self::rebuild_target(&req);
        self.proxy(shard, &target, incoming)
    }
}

/// Binds an HTTP server around the router. The server's own dispatcher
/// contributes `/metrics`, `/healthz`, and `/debug/spans`, so a routed
/// fleet is introspectable at the front door.
pub fn serve_router_config(
    service: RouterService,
    addr: &str,
    config: steam_net::ServerConfig,
    registry: Option<Arc<steam_obs::Registry>>,
) -> Result<(HttpServer, Arc<RouterService>), NetError> {
    if let Some(registry) = &registry {
        service.attach_registry(registry);
    }
    let service = Arc::new(service);
    let handler: Arc<dyn Handler> = Arc::clone(&service) as Arc<dyn Handler>;
    let server = HttpServer::bind_config(addr, config, handler, registry, None)?;
    Ok((server, service))
}
