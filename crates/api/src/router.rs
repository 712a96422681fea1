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
//! returned it reconstructs exactly that interleaving. A batch whose ids
//! all live on one shard (every batch, in a one-shard fleet) and the
//! single-id endpoints skip the scatter and forward on the caller's
//! thread: a per-request `thread::scope` spawn was a large slice of routing
//! overhead (DESIGN.md, "Sharded serving").
//!
//! Failure policy: the router retries with the crawler's policy,
//! [`Backoff::run_observed`]. A transport failure or a shard 5xx goes
//! again, after the shard's `Retry-After` as [`check_status`] read it
//! (clamped to the policy's max) or the computed delay. A sub-request that
//! keeps failing never yields a partially merged 200 — the client gets a
//! clean 502 (`shard unavailable`) or 503 (`shard busy`, with the shard's
//! hint in whole seconds), both transient for the crawler's backoff. A
//! shard's 429 is the caller's own key being limited and is forwarded
//! verbatim, `Retry-After` intact.
//!
//! Tracing: when a request arrives with `X-Steam-Trace`, every proxied
//! attempt goes out under a fresh span of the same trace, and the client
//! records it as a `router`-component client span, so
//! `/debug/spans?trace=` shows client → router → shard for one routed
//! request.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};

use steam_model::{AppId, GroupId, SteamId};
use steam_net::client::check_status;
use steam_net::http::{Request, Response};
use steam_net::server::{Handler, HttpServer};
use steam_net::url::build_target;
use steam_net::{Backoff, ConnectionPool, HttpClient, NetError};
use steam_obs::{next_span_id, Counter, SpanKind, SpanRecord, TraceContext, TRACE_HEADER};

use crate::service::batch_ids;
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
        RouterConfig {
            pool_size: 4,
            backoff: Backoff::default(),
        }
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

    /// One proxied exchange, retried on the router's [`Backoff`]: a
    /// transport failure or a shard 5xx ([`NetError::Status`] through
    /// [`check_status`], with the shard's clamped hint) goes again; every
    /// other response, 429 included, returns as it is. When the incoming
    /// request carried a trace, each attempt is a client span of its own.
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
        let op = || {
            attempt += 1;
            if attempt > 1 {
                self.count(|m| &m.retries, shard);
            }
            let span = incoming.map(|inc| {
                SpanRecord::new(
                    inc.trace,
                    next_span_id(),
                    inc.span,
                    SpanKind::Client,
                    "router",
                    target,
                )
                .with_annotation(&format!("shard={shard} attempt={attempt}"))
            });
            let reply = client.exchange(&[(&req, span)]).pop();
            match reply.expect("one reply per request").result? {
                resp if resp.status >= 500 => check_status(resp),
                resp => Ok(resp),
            }
        };
        // Every error `op` returns is a transport failure or a shard 5xx.
        self.backoff.run_observed(op, |_| true, |_, _| {})
    }

    /// The router's clean failure surface for an exchange that gave up: a
    /// final 503 is `shard busy` with the shard's hint in whole seconds
    /// (or 1), anything else `shard unavailable`.
    fn give_up(&self, shard: usize, err: &NetError) -> Response {
        self.count(|m| &m.errors, shard);
        let last = match err {
            NetError::RetriesExhausted { last, .. } => last,
            other => other,
        };
        match last {
            NetError::Status {
                code: 503,
                retry_after,
                ..
            } => {
                let secs = retry_after.map_or(1, |hint| hint.as_secs());
                Response::error(503, &format!("shard {shard} busy"))
                    .with_header("Retry-After", &secs.to_string())
            }
            _ => Response::error(502, &format!("shard {shard} unavailable"))
                .with_header("Retry-After", "1"),
        }
    }

    /// Forwards a shard response verbatim: status, body and the headers the
    /// shard's service set (its content type, a 429's `Retry-After`)
    /// survive. The length, close intent and trace echo are our own
    /// dispatcher's to write.
    fn forwarded(mut resp: Response) -> Response {
        let ours = ["content-length", "connection", TRACE_HEADER];
        resp.headers
            .retain(|(k, _)| !ours.iter().any(|h| k.eq_ignore_ascii_case(h)));
        resp
    }

    /// Proxies one request to one shard, mapping terminal failures to the
    /// router's clean 502/503 surface.
    fn proxy(&self, shard: usize, target: &str, incoming: Option<TraceContext>) -> Response {
        match self.exchange(shard, target, incoming) {
            Ok(resp) => Self::forwarded(resp),
            Err(e) => self.give_up(shard, &e),
        }
    }

    /// Rebuilds the request target (path + query) for proxying. The HTTP
    /// layer decoded both; re-encoding round-trips through the shard's
    /// parser to the same decoded values.
    fn rebuild_target(req: &Request) -> String {
        let pairs: Vec<(&str, &str)> = req
            .query
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        build_target(&req.path, &pairs)
    }

    /// Rebuilds the target with the `steamids` parameter replaced by
    /// `ids` (other parameters — notably `key` — survive in order).
    fn subbatch_target(req: &Request, ids: &[SteamId]) -> String {
        let joined = ids
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let pairs: Vec<(&str, &str)> = req
            .query
            .iter()
            .map(|(k, v)| match k.as_str() {
                "steamids" => (k.as_str(), joined.as_str()),
                _ => (k.as_str(), v.as_str()),
            })
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
    /// order. Invalid batches (malformed id, too many ids, missing
    /// parameter) and empty ones are forwarded whole to shard 0, whose
    /// response is byte-identical to the unsharded service's.
    fn route_summaries(&self, req: &Request, incoming: Option<TraceContext>) -> Response {
        let n = self.shards.len();
        // The service's own parser: the merge below walks the ids in the
        // shards' (and the unsharded service's) first-occurrence order.
        let ids = match batch_ids(req) {
            Ok(ids) if !ids.is_empty() => ids,
            _ => return self.proxy(0, &Self::rebuild_target(req), incoming),
        };
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
        if parts.len() == 1 {
            return self.proxy(parts[0].0, &parts[0].1, incoming);
        }
        // Fan out: spawn threads for every part but the first, which runs
        // on the caller's thread — a two-part batch costs one spawn, not
        // two. Outcomes are collected in part order either way, so the
        // all-or-nothing merge below reports the same shard's failure the
        // all-spawned version would.
        let outcomes: Vec<(usize, Result<Response, NetError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts[1..]
                .iter()
                .map(|(shard, target)| {
                    let shard = *shard;
                    let target = target.as_str();
                    scope.spawn(move || (shard, self.exchange(shard, target, incoming)))
                })
                .collect();
            let first = (parts[0].0, self.exchange(parts[0].0, &parts[0].1, incoming));
            let rest = handles
                .into_iter()
                .map(|h| h.join().expect("fan-out thread"));
            std::iter::once(first).chain(rest).collect()
        });
        // All-or-nothing merge: any failed sub-request fails the whole
        // batch cleanly; a partially merged 200 would be silently wrong.
        let mut by_id: HashMap<SteamId, steam_model::Account> = HashMap::new();
        for (shard, outcome) in outcomes {
            // A status other than 200 or 429, or a corrupt body (e.g. an
            // injected fault), fails the batch as unavailable.
            let players = match outcome {
                Ok(resp) if resp.status == 429 => return Self::forwarded(resp),
                Ok(resp) if resp.status == 200 => {
                    wire::body_text(&resp.body).and_then(wire::parse_player_summaries)
                }
                Ok(resp) => Err(NetError::status(resp.status, "")),
                Err(e) => Err(e),
            };
            match players {
                Ok(players) => by_id.extend(players.into_iter().map(|p| (p.id, p))),
                Err(e) => return self.give_up(shard, &e),
            }
        }
        let found: Vec<&steam_model::Account> = ids.iter().filter_map(|id| by_id.get(id)).collect();
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
