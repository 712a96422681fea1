//! `steam-cli` — generate / serve / crawl / report for the *Condensing
//! Steam* reproduction.
//!
//! ```text
//! steam-cli generate --scale small|medium|large --seed 42 --out snap.bin
//!                    [--second-out snap2.bin] [--panel-out panel.bin]
//!                    [--jobs N] [--timings]
//! steam-cli serve    --snapshot snap.bin --addr 127.0.0.1:8571 [--rps 5000]
//!                    [--faults SPEC --fault-seed N] [--threaded] [--shard I/N]
//! steam-cli shard-split --snapshot snap.bin --shards 4 --out shard
//! steam-cli route    --shards 127.0.0.1:9001,127.0.0.1:9002,…
//!                    [--addr 127.0.0.1:8570] [--pool N] [--threaded]
//! steam-cli crawl    --addr 127.0.0.1:8571 --out crawled.bin [--rps 1000]
//!                    [--checkpoint-dir DIR [--resume]] [--trace-slow N]
//! steam-cli trace    --id TRACE_ID [--addr 127.0.0.1:8571]
//! steam-cli report   --snapshot snap.bin [--second snap2.bin]
//!                    [--panel panel.bin] [--experiment table3|figure6|...|all]
//!                    [--jobs N] [--timings]
//! steam-cli validate --snapshot snap.bin
//! ```
//!
//! Every command accepts `--log-level error|warn|info|debug|trace`
//! (structured trace events to stderr; default warn); any flag a command
//! does not read is an error. `serve` additionally
//! exposes `GET /metrics` (Prometheus text) and `GET /healthz`.

mod args;
mod trace_view;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use args::Args;
use steam_analysis::{
    render_experiments_timed, render_full_report, render_full_report_timed, render_with_jobs,
    Ctx, Experiment, ReportInput,
};
use steam_api::{ApiService, Crawler, CrawlerConfig, RateLimit};
use steam_net::{FaultInjector, FaultPlan};
use steam_model::{codec, WorldView};
use steam_obs::Registry;
use steam_synth::{Generator, SynthConfig};

fn main() -> ExitCode {
    let argv = std::env::args().skip(1);
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_flags(&args).and_then(|()| init_tracing(&args)) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "serve" => cmd_serve(&args),
        "shard-split" => cmd_shard_split(&args),
        "route" => cmd_route(&args),
        "crawl" => cmd_crawl(&args),
        "report" => cmd_report(&args),
        "export" => cmd_export(&args),
        "validate" => cmd_validate(&args),
        "trace" => cmd_trace(&args),
        "" | "help" | "--help" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `steam-cli help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
steam-cli — Condensing Steam (IMC 2016) reproduction tool

COMMANDS
  generate   Generate a synthetic Steam population snapshot
             --scale small|medium|large   population preset (default small)
             --users N                    override user count
             --seed N                     RNG seed (default 2016)
             --out PATH                   snapshot output (default snapshot.bin);
                                          written as the chunked (v3) container,
                                          one chunk at a time — the encoder never
                                          holds the full serialized image
             --second-out PATH            also write the second snapshot
             --panel-out PATH             also write the week panel
             --jobs N                     worker threads for synthesis and
                                          snapshot encoding (default: all
                                          cores; output is byte-identical
                                          for any N)
             --timings                    print a per-stage timing table to
                                          stderr
  serve      Serve a snapshot as the emulated Steam Web API
             --snapshot PATH   snapshot to serve (default snapshot.bin)
             --addr HOST:PORT  bind address (default 127.0.0.1:8571)
             --rps N           per-key rate limit (default 100000)
             --faults SPEC     deterministic fault injection, e.g.
                               'drop=0.02,500=0.01' or with a path scope
                               '/community:corrupt=0.05;stall-ms=40'
                               (kinds: drop, 500, 503, truncate, corrupt,
                               stall; /metrics and /healthz never fault)
             --fault-seed N    fault plan RNG seed (default 2016)
             --no-cache        disable the wire-response cache (baseline
                               measurements; served bytes are identical
                               either way)
             --threaded        use the blocking worker-pool server instead
                               of the epoll reactor (the Linux default);
                               concurrency is then capped at the worker
                               count, but served bytes are identical
             --shard I/N       serve one shard file written by shard-split
                               (--snapshot then names the shard file; the
                               file's recorded index/count must match);
                               without it the snapshot is served as 0/1
             Also serves GET /metrics (Prometheus text exposition with
             per-endpoint request counts and latency histograms),
             GET /healthz (liveness), and GET /debug/spans|slow|conns|
             cache|limiter (the introspection surface; see `trace`) —
             none are rate-limited, faulted, or traced
  shard-split
             Cut a snapshot into N self-contained shard files
             --snapshot PATH   snapshot to split (default snapshot.bin)
             --shards N        shard count (default 4)
             --out PREFIX      output prefix (default shard); writes
                               PREFIX-I-of-N.bin for each shard I
             v3 snapshots are split by streaming chunk passes, one shard
             at a time, so peak memory stays near one shard's size; a
             v1/v2 file is decoded whole and walked by the same splitter,
             so its peak is the world plus one shard
  route      Scatter-gather router over a shard fleet
             --shards A,B,…    shard addresses in ring order (required;
                               order and count must match shard-split)
             --addr HOST:PORT  bind address (default 127.0.0.1:8570)
             --pool N          idle keep-alive connections per shard
                               (default 4)
             --threaded        use the blocking worker-pool server, as for
                               serve
             Single-id endpoints proxy to the owning shard; batch
             GetPlayerSummaries splits per shard, fans out, and merges in
             request order. X-Steam-Trace propagates through, so a routed
             request shows client→router→shard spans in /debug/spans.
  crawl      Crawl a served API back into a snapshot file
             --addr HOST:PORT  server address (default 127.0.0.1:8571); a
                               shard fleet is crawled through its router
             --out PATH        output snapshot (default crawled.bin)
             --rps N           self-throttle requests/sec (default 85000,
                               85% of serve's default limit)
             --workers N       phase-2 worker threads (default 4)
             --pool N          share a keep-alive pool of N connections
                               across all workers (default: one private
                               connection per worker; size it to --workers)
             --checkpoint-dir DIR  journal completed work for crash recovery
             --resume          replay DIR's journal and fetch only the rest
             --trace-slow N    print the N slowest recorded spans at exit
  trace      Render one trace from a server's flight recorder as a span tree
             --id TRACE_ID     16-hex-char trace id (as echoed in the
                               X-Steam-Trace response header or listed by
                               /debug/spans and /debug/slow)
             --addr HOST:PORT  server address (default 127.0.0.1:8571)
  report     Render the paper's tables and figures from a snapshot
             --snapshot PATH   snapshot (default snapshot.bin)
             --second PATH     second snapshot (enables Table 4 2nd rows, §8)
             --panel PATH      week panel (enables Figure 12)
             --experiment X    one of table1..4, figure1..12, correlations,
                               evolution, achievements, locality, aggregates,
                               or `all` (default all)
             --jobs N          worker threads for the report engine (default:
                               all cores; output is identical for any N)
             --in-memory       fully decode the snapshot before analysing.
                               Chunked (v3) snapshots stream by default:
                               report passes decode one chunk at a time, so
                               peak memory stays bounded by the per-user
                               aggregate columns instead of the whole world.
                               Output is byte-identical in both modes.
             --timings         print a per-experiment timing table to stderr
                               (stdout stays byte-identical)
  export     Write the figures' underlying series as TSV files
             --snapshot PATH   snapshot (default snapshot.bin)
             --panel PATH      week panel (adds figure12.tsv)
             --dir PATH        output directory (default figures/)
  validate   Check a snapshot's structural invariants
             --snapshot PATH   snapshot (default snapshot.bin)

GLOBAL FLAGS
  --log-level LEVEL  error|warn|info|debug|trace — structured trace events
                     to stderr (default warn)
  Any other flag a command does not list above is an error.
";

/// The flags each command reads, besides the global `--log-level`; `None`
/// for an unknown command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => {
            &["scale", "users", "seed", "out", "second-out", "panel-out", "jobs", "timings"]
        }
        "serve" => {
            &["snapshot", "addr", "rps", "faults", "fault-seed", "no-cache", "threaded", "shard"]
        }
        "shard-split" => &["snapshot", "shards", "out"],
        "route" => &["shards", "addr", "pool", "threaded"],
        "crawl" => {
            &["addr", "out", "rps", "workers", "pool", "checkpoint-dir", "resume", "trace-slow"]
        }
        "trace" => &["id", "addr"],
        "report" => &["snapshot", "second", "panel", "experiment", "jobs", "in-memory", "timings"],
        "export" => &["snapshot", "panel", "dir"],
        "validate" => &["snapshot"],
        "" | "help" | "--help" => &[],
        _ => return None,
    })
}

/// Refuses any flag the command does not read, before it does any work: a
/// misspelt or retired option would otherwise be ignored and the run go on
/// with the default. An unknown command is left to the dispatch.
fn check_flags(args: &Args) -> Result<(), String> {
    match command_flags(&args.command) {
        Some(known) => args.check_flags(&[known, &["log-level"]].concat()),
        None => Ok(()),
    }
}

/// Wires `--log-level` (default warn) to the tracing layer: events at or
/// above the level go to stderr, stdout (report text) is never touched.
fn init_tracing(args: &Args) -> Result<(), String> {
    if let Some(raw) = args.get("log-level") {
        let level: steam_obs::Level =
            raw.parse().map_err(|_| format!("bad --log-level {raw:?} (error|warn|info|debug|trace)"))?;
        steam_obs::set_level(level);
    }
    steam_obs::set_sink(Arc::new(steam_obs::StderrSink));
    Ok(())
}

fn scale_config(args: &Args) -> Result<SynthConfig, String> {
    let seed = args.get_parse("seed", 2016u64)?;
    let mut cfg = match args.get_or("scale", "small") {
        "small" => SynthConfig::small(seed),
        "medium" => SynthConfig::medium(seed),
        "large" => SynthConfig::large(seed),
        other => return Err(format!("unknown scale {other:?}")),
    };
    if let Some(n) = args.get("users") {
        cfg.n_users = n.parse().map_err(|_| format!("bad --users {n:?}"))?;
        cfg.n_groups = (cfg.n_users / 33).max(10);
    }
    cfg.validate()?;
    Ok(cfg)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let cfg = scale_config(args)?;
    let out = args.get_or("out", "snapshot.bin");
    let default_jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = args.get_count("jobs", default_jobs)?;
    eprintln!("generating {} users (seed {}, {jobs} jobs)...", cfg.n_users, cfg.seed);
    let (world, timings) = Generator::new(cfg).generate_world_timed(jobs);
    eprintln!(
        "generated in {:.1?}: {} friendships, {} owned games, {} memberships",
        timings.wall,
        world.snapshot.n_friendships(),
        world.snapshot.n_owned_games(),
        world.snapshot.n_memberships()
    );
    if args.has("timings") {
        eprint!("{}", timings.render_table());
    }
    codec::write_snapshot_v3(Path::new(out), &world.snapshot, jobs)
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {out}");
    if let Some(second) = args.get("second-out") {
        codec::write_snapshot_v3(Path::new(second), &world.second_snapshot, jobs)
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {second}");
    }
    if let Some(panel) = args.get("panel-out") {
        std::fs::write(panel, codec::encode_panel(&world.panel)).map_err(|e| e.to_string())?;
        eprintln!("wrote {panel}");
    }
    Ok(())
}

fn parse_faults(
    args: &Args,
    registry: &Arc<Registry>,
) -> Result<Option<Arc<FaultInjector>>, String> {
    match args.get("faults") {
        Some(spec) => {
            let seed = args.get_parse("fault-seed", 2016u64)?;
            let plan = FaultPlan::parse(spec, seed).map_err(|e| e.to_string())?;
            eprintln!("fault injection armed: {spec} (seed {seed})");
            Ok(Some(Arc::new(FaultInjector::new(plan, Some(registry)))))
        }
        None => Ok(None),
    }
}

fn server_config(args: &Args) -> steam_net::ServerConfig {
    let mode = if args.has("threaded") {
        steam_net::ServerMode::Threaded
    } else {
        steam_net::ServerMode::default()
    };
    steam_net::ServerConfig { workers: 8, mode, ..Default::default() }
}

/// Prints the listening banner and parks the main thread forever.
///
/// Not `eprintln!`: a supervisor that closes our stderr right after parsing
/// the address line must lose banner lines, not the server (eprintln!
/// panics on EPIPE).
fn serve_forever(server: &steam_net::HttpServer) -> ! {
    {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr().lock(),
            "listening on http://{0} ({1} mode, ctrl-c to stop)\n\
             metrics at http://{0}/metrics, liveness at http://{0}/healthz\n\
             introspection at http://{0}/debug/spans|slow|conns|cache|limiter",
            server.addr(),
            server.mode().label()
        );
    }
    // Serve until interrupted.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// A token bucket needs a positive rate: refuse 0, a negative number and
/// NaN before anything binds or connects. `inf` passes and lifts the limit.
fn positive_rps(rps: f64) -> Result<f64, String> {
    if rps > 0.0 {
        Ok(rps)
    } else {
        Err("--rps must be a positive number".into())
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let path = args.get_or("snapshot", "snapshot.bin");
    let addr = args.get_or("addr", "127.0.0.1:8571");
    let rps = positive_rps(args.get_parse("rps", 100_000.0)?)?;
    let limits = RateLimit { per_key_rps: rps, burst: (rps / 10.0).max(10.0) };
    let registry = Arc::new(Registry::new());
    let config = server_config(args);

    let store = match args.get("shard") {
        // `--shard I/N`: --snapshot names a shard file from shard-split.
        Some(spec) => {
            let (index, count) = spec
                .split_once('/')
                .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)))
                .ok_or_else(|| format!("bad --shard {spec:?} (expected I/N, e.g. 0/4)"))?;
            let store = steam_api::read_shard(Path::new(path)).map_err(|e| e.to_string())?;
            if (store.shard_index, store.shard_count) != (index, count) {
                return Err(format!(
                    "{path} is shard {}/{} but --shard asked for {index}/{count}",
                    store.shard_index, store.shard_count
                ));
            }
            store
        }
        // A whole snapshot is shard 0 of 1: its records move into the store.
        None => {
            let snapshot = codec::read_snapshot(Path::new(path)).map_err(|e| e.to_string())?;
            steam_api::ShardStore::try_from(snapshot).map_err(|e| e.to_string())?
        }
    };
    eprintln!(
        "serving shard {}/{} ({} accounts, {} groups) from {path}",
        store.shard_index,
        store.shard_count,
        store.accounts.len(),
        store.groups.len()
    );
    let faults = parse_faults(args, &registry)?;
    let mut service = ApiService::new(store, limits);
    if args.has("no-cache") {
        eprintln!("wire-response cache disabled");
        service = service.without_cache();
    }
    let (server, _service) =
        steam_api::serve_service_config(service, addr, config, Some(registry), faults)
            .map_err(|e| e.to_string())?;
    serve_forever(&server);
}

fn cmd_shard_split(args: &Args) -> Result<(), String> {
    let path = args.get_or("snapshot", "snapshot.bin");
    let n = args.get_count("shards", 4)?;
    let prefix = args.get_or("out", "shard");
    let p = Path::new(path);
    let write = |store: &steam_api::ShardStore| -> Result<(), String> {
        let out = format!("{prefix}-{}-of-{n}.bin", store.shard_index);
        steam_api::write_shard(Path::new(&out), store).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {out} ({} accounts, {} groups, {} products)",
            store.accounts.len(),
            store.groups.len(),
            store.catalog.len()
        );
        Ok(())
    };
    // v3 streams, one shard at a time: peak memory is one shard's store
    // plus the id column, never the whole world. v1/v2 decode whole first.
    let version = codec::snapshot_file_version(p).map_err(|e| e.to_string())?;
    let loaded = if version == codec::VERSION_CHUNKED {
        Loaded::Stream(steam_model::SnapshotReader::open(p).map_err(|e| e.to_string())?)
    } else {
        Loaded::Mem(codec::read_snapshot(p).map_err(|e| e.to_string())?)
    };
    let world = loaded.world()?;
    eprintln!("splitting {} users {n} ways...", world.n_users());
    let splitter = steam_api::StreamSplitter::from_world(world, n).map_err(|e| e.to_string())?;
    for i in 0..n {
        write(&splitter.shard(i).map_err(|e| e.to_string())?)?;
    }
    Ok(())
}

fn parse_shard_addrs(raw: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().map_err(|_| format!("bad shard address {s:?}")))
        .collect()
}

fn cmd_route(args: &Args) -> Result<(), String> {
    let raw = args.get("shards").ok_or("missing --shards ADDR,ADDR,…")?;
    let shards = parse_shard_addrs(raw)?;
    if shards.is_empty() {
        return Err("--shards needs at least one address".into());
    }
    let addr = args.get_or("addr", "127.0.0.1:8570");
    let config = steam_api::RouterConfig {
        pool_size: args.get_count("pool", 4)?,
        ..Default::default()
    };
    eprintln!("routing across {} shards: {raw}", shards.len());
    let service = steam_api::RouterService::new(shards, config);
    let registry = Arc::new(Registry::new());
    let (server, _service) =
        steam_api::serve_router_config(service, addr, server_config(args), Some(registry))
            .map_err(|e| e.to_string())?;
    serve_forever(&server);
}

fn cmd_crawl(args: &Args) -> Result<(), String> {
    let addr: std::net::SocketAddr = args
        .get_or("addr", "127.0.0.1:8571")
        .parse()
        .map_err(|_| "bad --addr".to_string())?;
    let out = args.get_or("out", "crawled.bin");
    let mut config = CrawlerConfig::default();
    if let Some(rps) = args.get("rps") {
        config.self_throttle_rps =
            Some(positive_rps(rps.parse().map_err(|_| format!("bad --rps {rps:?}"))?)?);
    }
    config.workers = args.get_count("workers", 4)?;
    if args.get("pool").is_some() {
        config.pool_size = Some(args.get_count("pool", 0)?);
    }
    config.checkpoint_dir = args.get("checkpoint-dir").map(std::path::PathBuf::from);
    config.resume = args.has("resume");
    if config.resume && config.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }
    let trace_slow = args.get_parse("trace-slow", 0usize)?;
    let resuming = config.resume;
    let mut crawler = Crawler::new(addr, config);
    eprintln!("crawling {addr}...");
    let started = std::time::Instant::now();

    // Live progress line, repainted in place while the crawl runs. Only on
    // an interactive stderr: redirected logs get the final summary only.
    let display_progress = crawler.progress();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let display = {
        use std::io::IsTerminal;
        let stop = Arc::clone(&stop);
        std::io::stderr().is_terminal().then(|| {
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    eprint!("\r{}\x1b[K", display_progress.progress_line());
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                eprint!("\r\x1b[K");
            })
        })
    };
    let crawl_result = crawler.crawl(steam_model::SimTime::from_ymd(2013, 11, 5));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(handle) = display {
        handle.join().ok();
    }
    let snapshot = crawl_result.map_err(|e| e.to_string())?;

    let stats = crawler.stats();
    eprintln!(
        "crawled {} users with {} requests in {} exchanges in {:.1?}",
        stats.profiles_found,
        stats.requests,
        stats.exchanges,
        started.elapsed()
    );
    eprintln!(
        "  census: {} batches, {} ids scanned, {} profiles found",
        stats.census_batches, stats.ids_scanned, stats.profiles_found
    );
    eprintln!(
        "  harvest: {} users, {} groups, {} apps",
        stats.users_harvested, stats.groups_fetched, stats.apps_fetched
    );
    eprintln!(
        "  retries: {} (429: {}, 5xx: {}, io: {}, corrupt: {}), reconnects: {}",
        stats.retries_observed,
        stats.retries_429,
        stats.retries_5xx,
        stats.retries_io,
        stats.retries_corrupt,
        stats.reconnects
    );
    if stats.checkpoint_records > 0 || resuming {
        eprintln!(
            "  checkpoint: {} records journaled in {} flushes ({:.1?} writing and syncing), \
             {} units skipped on resume",
            stats.checkpoint_records,
            stats.checkpoint_flushes,
            stats.checkpoint_flush_time,
            stats.resume_skipped
        );
    }
    eprintln!(
        "  waited: {:.1?} throttled, {:.1?} backing off",
        stats.throttle_wait, stats.backoff_wait
    );
    if trace_slow > 0 {
        let slow = steam_obs::slowest_spans();
        eprintln!("slowest {} of {} recorded spans:", trace_slow.min(slow.len()), slow.len());
        for s in slow.iter().take(trace_slow) {
            eprintln!(
                "  {:>9}µs  {} {}:{}  trace={} status={}{}",
                s.duration_us,
                s.kind.as_str(),
                s.target,
                s.name(),
                s.trace.to_hex(),
                s.status,
                if s.annotation().is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", s.annotation())
                },
            );
        }
        eprintln!("  (inspect one with: steam-cli trace --id TRACE_ID --addr {addr})");
    }
    codec::write_snapshot_v3(Path::new(out), &snapshot, 1).map_err(|e| e.to_string())?;
    eprintln!("wrote {out}");
    Ok(())
}

/// `steam-cli trace --id <hex>` — fetch one trace's spans from a running
/// server's `/debug/spans` and render them as an indented tree.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let addr: std::net::SocketAddr = args
        .get_or("addr", "127.0.0.1:8571")
        .parse()
        .map_err(|_| "bad --addr".to_string())?;
    let raw = args.get("id").ok_or("missing --id TRACE_ID (16 hex chars)")?;
    let trace = steam_obs::TraceId::from_hex(raw.trim())
        .ok_or_else(|| format!("bad trace id {raw:?} (expected 16 hex chars)"))?;
    let mut client = steam_net::HttpClient::new(addr);
    let resp = client
        .get(&format!("/debug/spans?trace={}", trace.to_hex()))
        .map_err(|e| e.to_string())?;
    let json = steam_net::Json::parse(&resp.body_text()).map_err(|e| e.to_string())?;
    let spans = json
        .get("spans")
        .and_then(steam_net::Json::as_arr)
        .ok_or("malformed /debug/spans response")?;
    let rows = trace_view::rows(spans);
    if rows.is_empty() {
        return Err(format!(
            "no spans recorded for trace {} on {addr} (the flight recorder keeps the \
             most recent spans only — old traces age out)",
            trace.to_hex()
        ));
    }
    print!("{}", trace_view::render(&rows, &trace.to_hex()));
    Ok(())
}

/// A snapshot opened for reporting: fully decoded, or left on disk behind a
/// chunk-streaming reader (the bounded-memory path for v3 files).
enum Loaded {
    Mem(steam_model::Snapshot),
    Stream(steam_model::SnapshotReader),
}

impl Loaded {
    /// The world to walk: the decoded snapshot, or a streaming view of the
    /// file, which decodes its groups and catalog now.
    fn world(&self) -> Result<WorldView<'_>, String> {
        match self {
            Loaded::Mem(s) => Ok(WorldView::mem(s)),
            Loaded::Stream(r) => WorldView::stream(r).map_err(|e| e.to_string()),
        }
    }
}

/// Opens a snapshot for `report`. Chunked (v3) files stream by default —
/// the report passes then decode one chunk at a time instead of
/// materializing the world — unless `--in-memory` forces a full decode.
/// v1/v2 files always decode fully.
fn load_for_report(path: &str, in_memory: bool, jobs: usize) -> Result<Loaded, String> {
    let p = Path::new(path);
    let version = codec::snapshot_file_version(p).map_err(|e| e.to_string())?;
    if version == codec::VERSION_CHUNKED && !in_memory {
        let reader = steam_model::SnapshotReader::open(p).map_err(|e| e.to_string())?;
        eprintln!(
            "streaming {} users from {path} (--in-memory forces a full decode)",
            reader.n_users()
        );
        return Ok(Loaded::Stream(reader));
    }
    Ok(Loaded::Mem(codec::read_snapshot_jobs(p, jobs).map_err(|e| e.to_string())?))
}

/// The `report --timings` pass table: for every streamed snapshot, full
/// passes over each section (chunks decoded ÷ the section's chunk count),
/// counted from open, so the context build is included. Empty when nothing
/// streamed.
fn render_passes(files: &[(&str, &Loaded)]) -> String {
    let streamed: Vec<(&str, Vec<steam_model::SectionReads>)> = files
        .iter()
        .filter_map(|&(label, loaded)| match loaded {
            Loaded::Stream(r) => Some((label, r.section_reads())),
            Loaded::Mem(_) => None,
        })
        .collect();
    let Some((_, first)) = streamed.first() else {
        return String::new();
    };
    let mut out =
        String::from("passes per section (chunks decoded / chunks, context build included)\n");
    out.push_str(&format!("{:<12}", "section"));
    for (label, _) in &streamed {
        out.push_str(&format!("  {label:>10}"));
    }
    out.push('\n');
    for (i, s) in first.iter().enumerate() {
        out.push_str(&format!("{:<12}", s.section));
        for (_, reads) in &streamed {
            out.push_str(&format!("  {:>10.2}", reads[i].passes()));
        }
        out.push('\n');
    }
    out
}

fn report_ctx<'a>(loaded: &'a Loaded, jobs: usize) -> Result<Ctx<'a>, String> {
    Ctx::from_world(loaded.world()?, jobs).map_err(|e| e.to_string())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let default_jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = args.get_count("jobs", default_jobs)?;
    let in_memory = args.has("in-memory");

    let path = args.get_or("snapshot", "snapshot.bin");
    let loaded = load_for_report(path, in_memory, jobs)?;
    let second = match args.get("second") {
        Some(p) => Some(load_for_report(p, in_memory, jobs)?),
        None => None,
    };
    let panel = match args.get("panel") {
        Some(p) => {
            let raw = std::fs::read(p).map_err(|e| e.to_string())?;
            Some(codec::decode_panel(bytes::Bytes::from(raw)).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    let ctx = report_ctx(&loaded, jobs)?;
    let second_ctx = match &second {
        Some(l) => Some(report_ctx(l, jobs)?),
        None => None,
    };
    let input = ReportInput { ctx: &ctx, second: second_ctx.as_ref(), panel: panel.as_ref() };

    let which = args.get_or("experiment", "all");
    let timings = args.has("timings");
    let mut files = vec![("snapshot", &loaded)];
    files.extend(second.as_ref().map(|l| ("second", l)));
    if which == "all" {
        if timings {
            let (text, t) = render_full_report_timed(&input, jobs);
            print!("{text}");
            eprint!("{}{}", t.render_table(), render_passes(&files));
        } else {
            print!("{}", render_full_report(&input, jobs));
        }
    } else {
        let e = Experiment::from_name(which)
            .ok_or_else(|| format!("unknown experiment {which:?}"))?;
        if timings {
            let (rendered, t) = render_experiments_timed(&input, &[e], jobs);
            println!("{}", rendered[0].1);
            eprint!("{}{}", t.render_table(), render_passes(&files));
        } else {
            println!("{}", render_with_jobs(&input, e, jobs));
        }
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let path = args.get_or("snapshot", "snapshot.bin");
    let dir = args.get_or("dir", "figures");
    let snapshot = codec::read_snapshot(Path::new(path)).map_err(|e| e.to_string())?;
    let panel = match args.get("panel") {
        Some(p) => {
            let raw = std::fs::read(p).map_err(|e| e.to_string())?;
            Some(codec::decode_panel(bytes::Bytes::from(raw)).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let ctx = Ctx::from_world(WorldView::mem(&snapshot), 1).map_err(|e| e.to_string())?;
    let written = steam_analysis::export::write_all(&ctx, panel.as_ref(), Path::new(dir))
        .map_err(|e| e.to_string())?;
    for p in written {
        eprintln!("wrote {}", p.display());
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let path = args.get_or("snapshot", "snapshot.bin");
    let snapshot = codec::read_snapshot(Path::new(path)).map_err(|e| e.to_string())?;
    snapshot.validate().map_err(|e| e.to_string())?;
    println!(
        "ok: {} users, {} friendships, {} owned games, {} groups, {} products",
        snapshot.n_users(),
        snapshot.n_friendships(),
        snapshot.n_owned_games(),
        snapshot.groups.len(),
        snapshot.catalog.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--flag` names in `text`, in order.
    fn flags_in(text: &str) -> Vec<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
                &rest[..end.unwrap_or(rest.len())]
            })
            .filter(|name| !name.is_empty())
            .collect()
    }

    /// `HELP` split into its command sections: (command, section text).
    fn help_sections() -> Vec<(&'static str, String)> {
        let body = HELP.split("COMMANDS\n").nth(1).unwrap().split("GLOBAL FLAGS").next().unwrap();
        let mut sections: Vec<(&str, String)> = Vec::new();
        for line in body.lines() {
            match line.strip_prefix("  ") {
                Some(rest) if !rest.starts_with(' ') => {
                    let command = rest.split_whitespace().next().unwrap();
                    sections.push((command, line[2 + command.len()..].to_string()));
                }
                _ => sections.last_mut().unwrap().1.push_str(line),
            }
        }
        sections
    }

    /// The help text and the flag lists cannot drift: every flag listed
    /// under a command is one it accepts, and every flag it accepts is
    /// listed under it.
    #[test]
    fn help_lists_exactly_the_flags_each_command_accepts() {
        let sections = help_sections();
        assert_eq!(sections.len(), 9, "{sections:?}");
        for (command, text) in sections {
            let known = command_flags(command).unwrap_or_else(|| panic!("{command} unknown"));
            let listed = flags_in(&text);
            for flag in &listed {
                assert!(known.contains(flag), "help lists --{flag} under {command}");
            }
            for flag in known {
                assert!(listed.contains(flag), "{command} accepts --{flag}, help omits it");
            }
        }
        assert_eq!(flags_in(HELP.split("GLOBAL FLAGS").nth(1).unwrap()), ["log-level"]);
    }
}
