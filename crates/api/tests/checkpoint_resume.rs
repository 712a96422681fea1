//! Kill-and-resume: the tentpole property of the checkpointed crawler.
//!
//! A crawler with `attempts: 1` dies on the first injected fault — the
//! closest deterministic analog to `kill -9` at an arbitrary point in the
//! crawl (every fault point in the schedule becomes an abort point, and the
//! fault counter advances across runs, so successive runs die later and
//! later). Each death leaves a checkpoint journal behind; `--resume` must
//! pick it up, skip everything journaled, and finish the crawl with a
//! snapshot byte-identical to a never-interrupted one — without refetching
//! a single already-harvested phase-2 user.

use std::sync::Arc;

use steam_api::{serve_service_config, ApiService, Crawler, CrawlerConfig, RateLimit};
use steam_model::{codec, Snapshot};
use steam_net::{Backoff, FaultInjector, FaultPlan, ServerConfig};
use steam_synth::{Generator, SynthConfig};

fn tiny_snapshot(seed: u64) -> Arc<Snapshot> {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = 120;
    cfg.n_products = 60;
    cfg.n_groups = 10;
    Arc::new(Generator::new(cfg).generate())
}

fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("steam-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// A crawl that aborts on the very first fault it sees (no retry budget).
fn kill_prone_config(dir: &std::path::Path, resume: bool, workers: usize) -> CrawlerConfig {
    CrawlerConfig {
        empty_batches_to_stop: 2,
        backoff: Backoff {
            base: std::time::Duration::from_millis(1),
            max: std::time::Duration::from_millis(1),
            attempts: 1,
        },
        workers,
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
        ..CrawlerConfig::default()
    }
}

fn run_kill_resume(workers: usize, fault_seed: u64, world_seed: u64, tag: &str) {
    let original = tiny_snapshot(world_seed);

    // Baseline: a clean crawl against a fault-free server.
    let (clean_server, _s) = serve_service_config(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        None,
        None,
    )
    .unwrap();
    let clean_config =
        CrawlerConfig { empty_batches_to_stop: 2, workers, ..CrawlerConfig::default() };
    let mut clean_crawler = Crawler::new(clean_server.addr(), clean_config);
    let baseline = clean_crawler.crawl(original.collected_at).unwrap();
    let baseline_bytes = codec::encode_snapshot(&baseline);

    // The faulty server: every kind of fault, each request a potential
    // abort point for the retry-less crawler below.
    let plan = FaultPlan::parse(
        "drop=0.02,500=0.01,503=0.01,truncate=0.01,corrupt=0.02,stall=0.01;stall-ms=2",
        fault_seed,
    )
    .unwrap();
    let registry = Arc::new(steam_obs::Registry::new());
    let injector = Arc::new(FaultInjector::new(plan, Some(&registry)));
    let (server, _service) = serve_service_config(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        Some(registry),
        Some(Arc::clone(&injector)),
    )
    .unwrap();

    let dir = checkpoint_dir(tag);
    let mut harvested_total = 0u64;
    let mut aborted_runs = 0u32;
    let mut resumed_skips = 0u64;
    let mut finished = None;
    // First run starts fresh; every later run resumes the journal.
    for run in 0..1000 {
        let config = kill_prone_config(&dir, run > 0, workers);
        let mut crawler = Crawler::new(server.addr(), config);
        let result = crawler.crawl(original.collected_at);
        let stats = crawler.stats();
        harvested_total += stats.users_harvested;
        if run > 0 {
            resumed_skips += stats.resume_skipped;
        }
        match result {
            Ok(snapshot) => {
                finished = Some((snapshot, stats));
                break;
            }
            Err(_) => aborted_runs += 1,
        }
    }
    let (resumed, final_stats) =
        finished.expect("the crawl must eventually complete across resumes");

    assert!(
        aborted_runs > 0,
        "the fault plan never killed a run; the test exercised nothing"
    );
    assert!(injector.injected_total() > 0, "no faults were actually injected");
    assert!(resumed_skips > 0, "resume never skipped journaled work");

    // Byte-identical reconstruction.
    assert_eq!(
        codec::encode_snapshot(&resumed),
        baseline_bytes,
        "resumed snapshot differs from the uninterrupted baseline"
    );

    // No phase-2 refetching: every user was harvested exactly once across
    // all runs (users_harvested counts only fresh fetch-triples, and each
    // one is journaled before it is counted).
    assert_eq!(
        harvested_total,
        original.n_users() as u64,
        "phase-2 users were refetched across resumes"
    );
    assert!(final_stats.checkpoint_records > 0 || final_stats.resume_skipped > 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_crawl_resumes_to_identical_snapshot() {
    run_kill_resume(1, 401, 501, "seq");
}

#[test]
fn killed_parallel_crawl_resumes_to_identical_snapshot() {
    run_kill_resume(4, 402, 502, "par");
}

#[test]
fn checkpointed_crawl_without_kill_matches_plain_crawl() {
    // The journal must be a pure observer: checkpointing on a healthy
    // server changes nothing about the result.
    let original = tiny_snapshot(503);
    let (server, _service) = serve_service_config(
        ApiService::new(Arc::clone(&original), RateLimit::default()),
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
        None,
        None,
    )
    .unwrap();
    let plain = {
        let config = CrawlerConfig { empty_batches_to_stop: 2, ..CrawlerConfig::default() };
        Crawler::new(server.addr(), config).crawl(original.collected_at).unwrap()
    };
    let dir = checkpoint_dir("observer");
    let config = CrawlerConfig {
        empty_batches_to_stop: 2,
        checkpoint_dir: Some(dir.clone()),
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(server.addr(), config);
    let checkpointed = crawler.crawl(original.collected_at).unwrap();
    assert_eq!(codec::encode_snapshot(&checkpointed), codec::encode_snapshot(&plain));
    assert!(crawler.stats().checkpoint_records > 0);

    // And resuming a *complete* journal refetches nothing at all.
    let resume_config = CrawlerConfig {
        empty_batches_to_stop: 2,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
        ..CrawlerConfig::default()
    };
    let mut resumer = Crawler::new(server.addr(), resume_config);
    let replayed = resumer.crawl(original.collected_at).unwrap();
    assert_eq!(codec::encode_snapshot(&replayed), codec::encode_snapshot(&plain));
    let stats = resumer.stats();
    assert_eq!(stats.users_harvested, 0, "complete journal must not refetch users");
    assert_eq!(stats.groups_fetched, 0);
    assert_eq!(stats.apps_fetched, 0);
    assert_eq!(stats.census_batches, 0);
    assert!(stats.resume_skipped > 0);
    std::fs::remove_dir_all(&dir).ok();
}
