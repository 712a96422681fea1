//! Cross-crate integration: the full pipeline the paper ran.
//!
//! The key equivalence: analyzing a snapshot directly must give the same
//! results as serving that snapshot over the emulated Steam Web API,
//! crawling it back over real TCP, and analyzing the crawl.

use std::sync::Arc;

use condensing_steam::analysis::{render, Ctx, Experiment, ReportInput};
use condensing_steam::api::{serve, Crawler, CrawlerConfig, RateLimit};
use condensing_steam::model::codec;
use condensing_steam::synth::{Generator, SynthConfig};

fn small_world_cfg(seed: u64, users: usize) -> SynthConfig {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = users;
    cfg.n_products = 400;
    cfg.n_groups = 60;
    cfg
}

#[test]
fn crawl_equals_direct_analysis() {
    let original = Arc::new(Generator::new(small_world_cfg(101, 600)).generate());
    let (server, _service) =
        serve(Arc::clone(&original), "127.0.0.1:0", 2, RateLimit::default()).unwrap();
    let mut crawler = Crawler::new(server.addr(), CrawlerConfig::default());
    let crawled = crawler.crawl(original.collected_at).unwrap();
    crawled.validate().unwrap();

    // Every report rendered from the crawl matches the direct render
    // byte-for-byte (the crawl is lossless for all analyzed quantities).
    let direct_ctx = Ctx::new(&original);
    let crawled_ctx = Ctx::new(&crawled);
    let direct = ReportInput { ctx: &direct_ctx, second: None, panel: None };
    let via_api = ReportInput { ctx: &crawled_ctx, second: None, panel: None };
    for e in [
        Experiment::Table1,
        Experiment::Table3,
        Experiment::Figure1,
        Experiment::Figure4,
        Experiment::Figure6,
        Experiment::Figure8,
        Experiment::Figure10,
        Experiment::Correlations,
        Experiment::Locality,
        Experiment::Aggregates,
    ] {
        assert_eq!(
            render(&direct, e),
            render(&via_api, e),
            "experiment {} differs between direct and crawled analysis",
            e.name()
        );
    }
}

#[test]
fn snapshot_survives_disk_round_trip_at_scale() {
    let world = Generator::new(small_world_cfg(103, 2_000)).generate_world();
    let dir = std::env::temp_dir().join("condensing-steam-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.bin");
    codec::write_snapshot_v3(&path, &world.snapshot, 1).unwrap();
    let loaded = codec::read_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    loaded.validate().unwrap();
    assert_eq!(loaded.n_users(), world.snapshot.n_users());
    assert_eq!(loaded.friendships, world.snapshot.friendships);
    assert_eq!(loaded.ownerships, world.snapshot.ownerships);
    assert_eq!(loaded.catalog, world.snapshot.catalog);

    // The loaded snapshot renders identical reports.
    let a = Ctx::new(&world.snapshot);
    let b = Ctx::new(&loaded);
    let ia = ReportInput { ctx: &a, second: None, panel: None };
    let ib = ReportInput { ctx: &b, second: None, panel: None };
    assert_eq!(render(&ia, Experiment::Table3), render(&ib, Experiment::Table3));
}

#[test]
fn full_report_suite_runs_on_generated_world() {
    let world = Generator::new(small_world_cfg(107, 3_000)).generate_world();
    let ctx = Ctx::new(&world.snapshot);
    let second = Ctx::new(&world.second_snapshot);
    let input = ReportInput { ctx: &ctx, second: Some(&second), panel: Some(&world.panel) };
    for e in Experiment::ALL {
        let text = render(&input, e);
        assert!(text.len() > 30, "{} rendered {} bytes", e.name(), text.len());
    }
}

#[test]
fn deterministic_across_full_pipeline() {
    let w1 = Generator::new(small_world_cfg(109, 1_000)).generate_world();
    let w2 = Generator::new(small_world_cfg(109, 1_000)).generate_world();
    let c1 = Ctx::new(&w1.snapshot);
    let c2 = Ctx::new(&w2.snapshot);
    let i1 = ReportInput { ctx: &c1, second: None, panel: None };
    let i2 = ReportInput { ctx: &c2, second: None, panel: None };
    for e in [Experiment::Table3, Experiment::Figure6, Experiment::Correlations] {
        assert_eq!(render(&i1, e), render(&i2, e));
    }
}

#[test]
fn rate_limited_crawl_still_lossless() {
    let original = Arc::new(Generator::new(small_world_cfg(113, 120)).generate());
    let (server, _service) = serve(
        Arc::clone(&original),
        "127.0.0.1:0",
        2,
        RateLimit { per_key_rps: 500.0, burst: 20.0 },
    )
    .unwrap();
    let config = CrawlerConfig {
        empty_batches_to_stop: 3,
        backoff: condensing_steam::net::Backoff {
            base: std::time::Duration::from_millis(5),
            max: std::time::Duration::from_millis(200),
            attempts: 12,
        },
        ..CrawlerConfig::default()
    };
    let mut crawler = Crawler::new(server.addr(), config);
    let crawled = crawler.crawl(original.collected_at).unwrap();
    assert_eq!(crawled.n_users(), original.n_users());
    assert_eq!(crawled.ownerships, original.ownerships);
}
