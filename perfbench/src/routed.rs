//! The `routed` workload: the 30k-user world split into two shard files,
//! each served by `ShardService` behind `RouterService`, driven closed-loop
//! by a seeded, skewed read mix. Only this workload runs the router.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use steam_api::{
    read_shard, serve_service_config, shard_of, write_shard, ApiService, RateLimit, RouterConfig,
    RouterService, ShardService, StreamSplitter,
};
use steam_model::{codec, SnapshotReader};
use steam_net::http::{read_response, write_request, Request, Response};
use steam_net::{Handler, HttpClient, HttpServer, ServerConfig};
use steam_obs::{Registry, SpanId, TraceContext, TraceId, TRACE_HEADER};

use crate::mix::{Mix, Universe, KEYS};
use crate::program::{self, ReqKey, Timed};
use crate::spans::{self, Recorder};
use crate::stats::{low_quartile, median, percentile, sorted, supported};
use crate::sys::{self, get, get_all, get_text, nproc, Reply, Sut};
use crate::{offline, Args, Opts, Outcome};

const SHARDS: usize = 2;
/// Closed-loop client connections: nproc on the 2-CPU host this workload
/// was sized for.
const CONNS: usize = 2;
/// Requests per block; `work_s` is the lower quartile of the time to
/// complete one, `work_cpu_s` the program's CPU time per block.
const BLOCK: usize = 1000;
/// Set-ups of the fleet per run (split, load, bind, first request).
const SETUPS: usize = 5;
/// Timed windows per run (1 s each at `--seconds 30`). Each replays the
/// same request sequence, so they differ only in how busy the host was,
/// and `work_cpu_s` is the lower quartile over them. A traced run
/// alternates the untraced and the traced fleet between windows, so drift
/// in the host's speed falls on both alike.
const WINDOWS: usize = 30;

/// Two shard servers and the router in front of them; with a recorder,
/// every handler call of the fleet is recorded as a span.
struct Fleet {
    shards: Vec<(HttpServer, Arc<Registry>)>,
    router: HttpServer,
    service: Arc<RouterService>,
    registry: Arc<Registry>,
    rec: Option<Arc<Recorder>>,
}

/// Splits the v3 snapshot into shard files the way `steam-cli
/// shard-split` does (streaming, one shard at a time).
fn split(snapshot: &Path, dir: &Path) -> Result<(Vec<PathBuf>, f64), String> {
    let t0 = Instant::now();
    let reader = SnapshotReader::open(snapshot).map_err(|e| e.to_string())?;
    let open_s = t0.elapsed().as_secs_f64();
    let splitter = StreamSplitter::new(&reader, SHARDS).map_err(|e| e.to_string())?;
    (0..SHARDS)
        .map(|i| {
            let path = dir.join(format!("shard-{i}-of-{SHARDS}.bin"));
            let store = splitter.shard(i).map_err(|e| e.to_string())?;
            write_shard(&path, &store).map_err(|e| e.to_string())?;
            Ok(path)
        })
        .collect::<Result<Vec<_>, String>>()
        .map(|paths| (paths, open_s))
}

/// Loads the shard files, binds shards and router with the program's
/// defaults, and answers a first request. Returns the fleet and the load
/// time.
fn bind(paths: &[PathBuf], rec: Option<Arc<Recorder>>) -> Result<(Fleet, f64), String> {
    let t0 = Instant::now();
    let stores: Result<Vec<_>, String> = paths
        .iter()
        .map(|p| read_shard(p).map_err(|e| e.to_string()))
        .collect();
    let stores = stores?;
    let load_s = t0.elapsed().as_secs_f64();
    let first = stores[0]
        .accounts
        .first()
        .map(|a| a.id)
        .ok_or("empty shard")?;
    let mut shards = Vec::new();
    for store in stores {
        let registry = Arc::new(Registry::new());
        let service = Arc::new(ShardService::new(store, RateLimit::default()));
        service.attach_registry(&registry);
        let handler = Timed::wrap(service, rec.as_ref(), "shard", "router", ReqKey::Trace);
        shards.push((program::bind(handler, &registry)?, registry));
    }
    let addrs: Vec<SocketAddr> = shards.iter().map(|(s, _)| s.addr()).collect();
    let registry = Arc::new(Registry::new());
    let service = Arc::new(RouterService::new(addrs, RouterConfig::default()));
    service.attach_registry(&registry);
    let handler = Arc::clone(&service) as Arc<dyn Handler>;
    let router = program::bind(
        Timed::wrap(handler, rec.as_ref(), "router", "client", ReqKey::Trace),
        &registry,
    )?;
    let resp = HttpClient::new(router.addr())
        .get(&format!(
            "/ISteamUser/GetPlayerSummaries/v2?steamids={first}"
        ))
        .map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("first routed request answered {}", resp.status));
    }
    Ok((
        Fleet {
            shards,
            router,
            service,
            registry,
            rec,
        },
        load_s,
    ))
}

/// Names of the counters [`Fleet::counters`] reads, in order.
const COUNTERS: [&str; 9] = [
    "cache_hits",
    "cache_misses",
    "limiter_refused",
    "shard_requests",
    "router_retries",
    "router_errors",
    "pool_connects",
    "pool_reuses",
    "cpu_s",
];

impl Fleet {
    /// Cumulative counters of the fleet, read from its registries, and the
    /// process's CPU time.
    fn counters(&self) -> [f64; 9] {
        let shard_sum = |name: &str, label: &str| -> f64 {
            self.shards
                .iter()
                .map(|(_, r)| program::series_sum(r, name, label))
                .sum()
        };
        let refused = "status=\"429\"";
        [
            shard_sum("api_cache_hits_total", ""),
            shard_sum("api_cache_misses_total", ""),
            shard_sum("http_requests_total", refused)
                + program::series_sum(&self.registry, "http_requests_total", refused),
            program::series_sum(&self.registry, "router_requests_total", ""),
            program::series_sum(&self.registry, "router_retries_total", ""),
            program::series_sum(&self.registry, "router_errors_total", ""),
            self.service.pool().connects() as f64,
            self.service.pool().reuses() as f64,
            sys::cpu_seconds(),
        ]
    }
}

/// `sut routed --snapshot FILE --dir DIR --trace 0|1`: sets up the fleet
/// (and, traced, a second fleet that records spans), replies with their
/// addresses and set-up times, then answers `start F`, `stop F` (F = 0 for
/// the untraced fleet, 1 for the traced one) and `exit` on stdin.
pub fn sut(args: &Args) -> Result<(), String> {
    let snapshot = PathBuf::from(args.need("--snapshot")?);
    let dir = PathBuf::from(args.need("--dir")?);
    let trace = args.need("--trace")? == "1";
    let (mut setup, mut split_s, mut load_s, mut open_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut fleet: Option<Fleet> = None;
    let mut paths = Vec::new();
    for _ in 0..SETUPS {
        // The previous fleet shuts down before the next one is set up.
        drop(fleet.take());
        let t0 = Instant::now();
        let (p, open) = split(&snapshot, &dir)?;
        paths = p;
        split_s.push(t0.elapsed().as_secs_f64());
        open_s.push(open);
        let (f, load) = bind(&paths, None)?;
        setup.push(t0.elapsed().as_secs_f64());
        load_s.push(load);
        fleet = Some(f);
    }
    let mut fleets = vec![fleet.expect("at least one set-up")];
    if trace {
        fleets.push(bind(&paths, Some(Arc::new(Recorder::new())))?.0);
    }
    let shard_bytes: u64 = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    let mut ready = Reply::default();
    for (f, fleet) in fleets.iter().enumerate() {
        ready = ready.text(&format!("addr{f}"), &fleet.router.addr().to_string());
    }
    ready
        .nums("setup_s", &setup)
        .nums("split_s", &split_s)
        .nums("load_s", &load_s)
        .nums("open_s", &open_s)
        .num("shard_bytes", shard_bytes as f64)
        .num("snapshot_bytes", snapshot_bytes as f64)
        .send();
    let mut base = [0.0; 9];
    let mut stops = 0;
    loop {
        let command = sys::command();
        let (verb, f) = command.split_once(' ').unwrap_or((&command, ""));
        let Some(fleet) = f.parse::<usize>().ok().and_then(|f| fleets.get(f)) else {
            break;
        };
        match verb {
            "start" => {
                if let Some(r) = &fleet.rec {
                    r.take();
                }
                base = fleet.counters();
                Reply::default().num("ok", 1.0).send();
            }
            "stop" => {
                let now = fleet.counters();
                let mut reply = Reply::default();
                for ((name, n), b) in COUNTERS.iter().zip(now).zip(base) {
                    reply = reply.num(name, n - b);
                }
                let gauge = |name: &str| -> f64 {
                    fleet
                        .shards
                        .iter()
                        .map(|(_, r)| program::series_sum(r, name, ""))
                        .sum()
                };
                let [loop_p99, epoll_s, per_wake, accepts] = program::reactor(&fleet.registry);
                reply = reply
                    .num("cache_entries", gauge("api_cache_entries"))
                    .num("limiter_keys", gauge("api_rate_limiter_keys"))
                    .num("loop_us_p99", loop_p99)
                    .num("epoll_wait_s", epoll_s)
                    .num("events_per_wake", per_wake)
                    .num("accepts", accepts);
                if let Some(r) = &fleet.rec {
                    let path = dir.join(format!("spans-{stops}.tsv"));
                    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
                    spans::write_tsv(std::io::BufWriter::new(file), &r.take())
                        .map_err(|e| e.to_string())?;
                    reply = reply.text("spans", &path.to_string_lossy());
                }
                stops += 1;
                reply.send();
            }
            _ => break,
        }
    }
    drop(fleets);
    Reply::default()
        .num("peak_rss_mb", sys::peak_rss_mb())
        .send();
    Ok(())
}

/// One keep-alive client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    fn exchange(&mut self, target: &str, trace: u64) -> Result<Response, String> {
        let mut req = Request::get(target);
        let ctx = TraceContext {
            trace: TraceId(trace),
            span: SpanId(trace),
        };
        req.headers.push((TRACE_HEADER.into(), ctx.header_value()));
        write_request(&mut self.writer, &req).map_err(|e| e.to_string())?;
        read_response(&mut self.reader).map_err(|e| e.to_string())
    }
}

/// Fetches every distinct target of the mix from the fleet and from the
/// direct server under the same trace header, and compares status,
/// headers and body. Returns the mismatches.
fn probe(mix: &Mix, fleet: SocketAddr, direct: SocketAddr) -> Result<Vec<String>, String> {
    let (mut a, mut b) = (Conn::open(fleet)?, Conn::open(direct)?);
    let mut bad = Vec::new();
    for (i, target) in mix.targets.iter().enumerate() {
        let sep = if target.contains('?') { '&' } else { '?' };
        let target = format!("{target}{sep}key=probe");
        let trace = 0x7072_6f62_0000_0000 | (i as u64 + 1);
        let (x, y) = (a.exchange(&target, trace)?, b.exchange(&target, trace)?);
        if x.status != 200 || (x.status, &x.headers, &x.body) != (y.status, &y.headers, &y.body) {
            bad.push(format!(
                "{target}: routed {} vs direct {}",
                x.status, y.status
            ));
        }
    }
    Ok(bad)
}

struct Load {
    /// Latency per request, µs, from the start of the write until the
    /// whole response is read.
    latency_us: Vec<f64>,
    /// Completion time of each request, µs since the window opened.
    done_us: Vec<f64>,
    non_200: u64,
    /// Latency by trace id.
    by_trace: HashMap<u64, f64>,
    window_s: f64,
}

/// One connection's `(trace id, latency µs, completion µs)` rows and its
/// count of non-200 responses.
type ConnLoad = (Vec<(u64, f64, f64)>, u64);

/// Closed loop: each connection sends its next request only after the
/// previous response has been read, until the window closes. Every window
/// replays the same request sequence; `w` numbers the window in the trace
/// ids.
fn drive(mix: &Mix, seed: u64, addr: SocketAddr, window: Duration, w: u64) -> Result<Load, String> {
    let start = Instant::now();
    let results: Vec<Result<ConnLoad, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    let mut rows = Vec::with_capacity(1 << 16);
                    let mut non_200 = 0;
                    for (n, (t, k)) in mix.stream(seed, c).enumerate() {
                        if start.elapsed() >= window {
                            break;
                        }
                        let target = mix.request(t, k);
                        let trace = (w << 48) | ((c + 1) << 40) | n as u64;
                        let t0 = Instant::now();
                        let resp = conn.exchange(&target, trace)?;
                        let t1 = Instant::now();
                        if resp.status != 200 {
                            non_200 += 1;
                        }
                        rows.push((
                            trace,
                            (t1 - t0).as_secs_f64() * 1e6,
                            (t1 - start).as_secs_f64() * 1e6,
                        ));
                    }
                    Ok((rows, non_200))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut load = Load {
        latency_us: Vec::new(),
        done_us: Vec::new(),
        non_200: 0,
        by_trace: HashMap::new(),
        window_s,
    };
    for r in results {
        let (rows, non_200) = r?;
        load.non_200 += non_200;
        for (trace, lat, done) in rows {
            load.latency_us.push(lat);
            load.done_us.push(done);
            load.by_trace.insert(trace, lat);
        }
    }
    load.done_us = sorted(std::mem::take(&mut load.done_us));
    Ok(load)
}

/// Times to complete each whole block of `BLOCK` requests in one window,
/// in seconds.
fn block_times(done_us: &[f64]) -> Vec<f64> {
    let mut prev = 0.0;
    done_us
        .iter()
        .skip(BLOCK - 1)
        .step_by(BLOCK)
        .map(|&end| {
            let b = (end - prev) / 1e6;
            prev = end;
            b
        })
        .collect()
}

/// The timed windows of one fleet: their loads and the fleet's replies to
/// `stop`.
#[derive(Default)]
struct Windows(Vec<(Load, steam_net::Json)>);

impl Windows {
    fn requests(&self) -> usize {
        self.0.iter().map(|(l, _)| l.latency_us.len()).sum()
    }

    fn seconds(&self) -> f64 {
        self.0.iter().map(|(l, _)| l.window_s).sum()
    }

    fn latencies_us(&self) -> Vec<f64> {
        sorted(
            self.0
                .iter()
                .flat_map(|(l, _)| l.latency_us.iter().copied())
                .collect(),
        )
    }

    /// Lower quartile of the block times of every window.
    fn block_s(&self) -> f64 {
        let blocks: Vec<f64> = self
            .0
            .iter()
            .flat_map(|(l, _)| block_times(&l.done_us))
            .collect();
        low_quartile(&blocks)
    }

    /// Lower quartile over the windows of the program's CPU seconds per
    /// block.
    fn cpu_per_block_s(&self) -> Result<f64, String> {
        let per: Result<Vec<f64>, String> = self
            .0
            .iter()
            .map(|(l, st)| Ok(get(st, "cpu_s")? * BLOCK as f64 / l.latency_us.len().max(1) as f64))
            .collect();
        Ok(low_quartile(&per?))
    }

    /// A counter summed over the windows.
    fn total(&self, key: &str) -> Result<f64, String> {
        self.0.iter().map(|(_, st)| get(st, key)).sum()
    }

    /// A gauge as the last window left it.
    fn last(&self, key: &str) -> Result<f64, String> {
        self.0.last().map_or(Ok(0.0), |(_, st)| get(st, key))
    }
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let input = offline::small_world(o)?;
    let generated = &input.1;
    let served = input.0.join(offline::FILES[0]);
    let snap = Arc::new(codec::read_snapshot(&served).map_err(|e| e.to_string())?);
    let mix = Mix::new(
        &Universe::rank(&snap, o.seed, |id| shard_of(id, SHARDS)),
        o.seed,
    );
    // The reference: one direct server on the same world, idle while the
    // fleet is timed. It runs in this process, outside the program under
    // test's memory.
    let (direct, _) = serve_service_config(
        ApiService::new(Arc::clone(&snap), RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig::default(),
        None,
        None,
    )
    .map_err(|e| e.to_string())?;

    let shard_dir = o.dir.join("shards");
    std::fs::create_dir_all(&shard_dir).map_err(|e| e.to_string())?;
    let args = [
        "routed",
        "--snapshot",
        &served.to_string_lossy(),
        "--dir",
        &shard_dir.to_string_lossy(),
        "--trace",
        if o.trace { "1" } else { "0" },
    ];
    let mut sut = Sut::spawn(&args.map(String::from))?;
    let ready = sut.recv()?;
    let fleets = if o.trace { 2 } else { 1 };
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for f in 0..fleets {
        let addr = get_text(&ready, &format!("addr{f}"))?;
        addrs.push(
            addr.parse()
                .map_err(|_| format!("bad fleet address {addr:?}"))?,
        );
        // Byte identity with the direct server; this also fills the caches.
        let bad = probe(&mix, addrs[f], direct.addr())?;
        out.attempted += mix.targets.len() as u64;
        out.failed += bad.len() as u64;
        if let Some(first) = bad.first() {
            out.problems
                .push(format!("{} probe targets differ, e.g. {first}", bad.len()));
        }
    }
    let window = o.seconds / WINDOWS as u32;
    let mut timed: [Windows; 2] = Default::default();
    for w in 0..WINDOWS {
        let f = w % fleets;
        sut.send(&format!("start {f}"))?;
        sut.recv()?;
        let load = drive(&mix, o.seed, addrs[f], window, w as u64)?;
        sut.send(&format!("stop {f}"))?;
        let stats = sut.recv()?;
        out.attempted += load.latency_us.len() as u64;
        out.failed += load.non_200;
        if load.non_200 > 0 {
            out.problems
                .push(format!("{} timed requests were not 200", load.non_200));
        }
        timed[f].0.push((load, stats));
    }
    sut.send("exit")?;
    let last = sut.recv()?;
    sut.finish()?;
    drop(direct);

    let shard_bytes = get(&ready, "shard_bytes")?;
    out.counts
        .push(("shard.bytes".into(), format!("{shard_bytes}")));
    out.scale = format!(
        "\"users\": {}, \"shards\": {SHARDS}, \"distinct_targets\": {}, \"api_keys\": {KEYS}, \
         \"windows\": {WINDOWS}, \"generator_threads\": {CONNS}, \"connections\": {CONNS}, \
         \"nproc\": {}, \"oversubscribed\": {}",
        get(generated, "users")?,
        mix.targets.len(),
        nproc(),
        CONNS > nproc()
    );

    let plain = &timed[0];
    let n = plain.requests();
    let latency = plain.latencies_us();
    let req_per_s = n as f64 / plain.seconds();
    let p50 = percentile(&latency, 0.5).unwrap_or(0.0) / 1e3;
    let p99 = if supported(n, 0.99) {
        percentile(&latency, 0.99).unwrap_or(0.0) / 1e3
    } else {
        0.0
    };
    let setup_s = median(&get_all(&ready, "setup_s")?).unwrap_or(0.0);
    let (generate_s, generate_cpu_s) = offline::small_world_again(o, &input, &mut out)?;
    let rss = get(&last, "peak_rss_mb")?;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let work_s = plain.block_s();
    out.e2e.put("setup_s", setup_s, "s");
    out.e2e.put("generate_cpu_s", generate_cpu_s, "s");
    out.e2e.put("work_cpu_s", plain.cpu_per_block_s()?, "s");
    out.e2e.put("peak_rss_mb", rss, "MiB");
    for m in [&mut out.figures, &mut out.layers] {
        m.put("generate_s", generate_s, "s");
        m.put("work_s", work_s, "s");
        m.put("req_per_s", req_per_s, "1/s");
        m.put("p50_ms", p50, "ms");
        m.put("p99_ms", p99, "ms");
        m.put("p99_samples", n as f64, "count");
        m.put("failed_frac", failed_frac, "ratio");
    }
    out.figures.extend(&out.e2e);

    if o.trace {
        let t = &timed[1];
        let mut spans = Vec::new();
        for (_, st) in &t.0 {
            let path = get_text(st, "spans")?;
            let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
            spans.extend(spans::read_tsv(BufReader::new(file)).map_err(|e| e.to_string())?);
        }
        let durs = |name: &str| -> Vec<f64> {
            sorted(
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_us() as f64)
                    .collect(),
            )
        };
        let (shard, router) = (durs("shard"), durs("router"));
        let selfs = sorted(
            spans::self_times(&spans, "router")
                .into_iter()
                .map(|v| v as f64)
                .collect(),
        );
        let client: HashMap<u64, f64> =
            t.0.iter()
                .flat_map(|(l, _)| l.by_trace.iter().map(|(&k, &v)| (k, v)))
                .collect();
        let transport = sorted(
            spans
                .iter()
                .filter(|s| s.name == "router")
                .filter_map(|s| client.get(&s.req).map(|c| (c - s.dur_us() as f64).max(0.0)))
                .collect(),
        );
        let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
        let l = &mut out.layers;
        offline::gen_layers(generated, l)?;
        l.put(
            "model.open_v3_s",
            low_quartile(&get_all(&ready, "open_s")?),
            "s",
        );
        l.put("service.handle_us_p50", p(&shard, 0.5), "us");
        l.put("service.handle_us_p99", p(&shard, 0.99), "us");
        l.put("service.busy_s", shard.iter().sum::<f64>() / 1e6, "s");
        let (hits, misses) = (t.total("cache_hits")?, t.total("cache_misses")?);
        l.put("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        l.put("cache.entries", t.last("cache_entries")?, "count");
        l.put("cache.misses", misses, "count");
        l.put("limiter.keys", t.last("limiter_keys")?, "count");
        l.put("limiter.refused", t.total("limiter_refused")?, "count");
        l.put("net.transport_us_p50", p(&transport, 0.5), "us");
        l.put("net.transport_us_p99", p(&transport, 0.99), "us");
        for (name, unit) in [
            ("loop_us_p99", "us"),
            ("epoll_wait_s", "s"),
            ("events_per_wake", "count"),
            ("accepts", "count"),
        ] {
            l.put(format!("net.{name}"), t.last(name)?, unit);
        }
        l.put("router.handle_us_p50", p(&router, 0.5), "us");
        l.put("router.handle_us_p99", p(&router, 0.99), "us");
        l.put("router.self_us_p50", p(&selfs, 0.5), "us");
        l.put("router.self_us_p99", p(&selfs, 0.99), "us");
        l.put(
            "router.fanout_mean",
            t.total("shard_requests")? / (t.requests() as f64).max(1.0),
            "ratio",
        );
        let (connects, reuses) = (t.total("pool_connects")?, t.total("pool_reuses")?);
        l.put(
            "router.pool_reuse_ratio",
            reuses / (connects + reuses).max(1.0),
            "ratio",
        );
        l.put("router.retries", t.total("router_retries")?, "count");
        l.put("router.errors", t.total("router_errors")?, "count");
        l.put(
            "shard.split_s",
            low_quartile(&get_all(&ready, "split_s")?),
            "s",
        );
        l.put(
            "shard.load_s",
            low_quartile(&get_all(&ready, "load_s")?),
            "s",
        );
        l.put(
            "shard.bytes_ratio",
            shard_bytes / get(&ready, "snapshot_bytes")?,
            "ratio",
        );
        l.put("shard.bytes", shard_bytes, "B");
        let cpu = t.total("cpu_s")?;
        l.put("sut.cpu_s", cpu, "s");
        l.put(
            "sut.cpu_util",
            cpu / (t.seconds() * nproc() as f64).max(1e-9),
            "ratio",
        );
        l.put(
            "trace_overhead_pct",
            (t.block_s() / work_s.max(1e-9) - 1.0) * 100.0,
            "%",
        );
    }
    Ok(out)
}
