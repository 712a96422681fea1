//! The out-of-core contract at report level: the full report, Table 4 and a
//! second snapshot included, renders the same text from decoded snapshots
//! and from v3 files streamed through the reader, for any worker count; and
//! a streamed report keeps to its budget of friendship passes.

use std::path::PathBuf;
use std::sync::OnceLock;

use steam_analysis::{render_full_report, Ctx, ReportInput};
use steam_model::{codec, SnapshotReader};
use steam_synth::{Generator, SynthConfig, World};

struct Fixture {
    world: World,
    first: PathBuf,
    second: PathBuf,
}

/// An 8k-user world with second snapshot and panel, both snapshots written
/// as v3 once per test binary.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = SynthConfig::small(2016);
        cfg.n_users = 8_000;
        cfg.n_groups = 250;
        let world = Generator::new(cfg).generate_world();
        let dir = std::env::temp_dir().join(format!("streaming-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (first, second) = (dir.join("first.v3"), dir.join("second.v3"));
        codec::write_snapshot_v3(&first, &world.snapshot, 2).unwrap();
        codec::write_snapshot_v3(&second, &world.second_snapshot, 2).unwrap();
        Fixture { world, first, second }
    })
}

/// The full report over both snapshots' contexts and the fixture's panel.
fn render(first: &Ctx, second: &Ctx, jobs: usize) -> String {
    let panel = Some(&fixture().world.panel);
    render_full_report(&ReportInput { ctx: first, second: Some(second), panel }, jobs)
}

/// Renders the full report from both snapshots streamed through readers;
/// returns the text and the friendship passes of the first and second
/// snapshot.
fn render_streamed(jobs: usize) -> (String, f64, f64) {
    let f = fixture();
    let open = |path: &PathBuf| SnapshotReader::open(path).unwrap();
    let (ra, rb) = (open(&f.first), open(&f.second));
    let text = {
        let (ca, cb) = (Ctx::from_reader(&ra, jobs).unwrap(), Ctx::from_reader(&rb, jobs).unwrap());
        render(&ca, &cb, jobs)
    };
    let friendship_passes = |r: &SnapshotReader| {
        r.section_reads().iter().find(|s| s.section == "friendships").unwrap().passes()
    };
    (text, friendship_passes(&ra), friendship_passes(&rb))
}

#[test]
fn full_report_is_identical_in_memory_and_streamed() {
    let f = fixture();
    let render_mem = |jobs: usize| {
        let ca = Ctx::new_with_jobs(&f.world.snapshot, jobs);
        let cb = Ctx::new_with_jobs(&f.world.second_snapshot, jobs);
        render(&ca, &cb, jobs)
    };
    let reference = render_mem(1);
    assert!(reference.contains("==== table4 ===="));
    assert!(reference.contains("(2nd snapshot)"), "Table 4 must carry second-snapshot rows");
    assert!(reference.contains("==== figure12 ===="));
    for jobs in [1usize, 2] {
        if jobs > 1 {
            assert_eq!(render_mem(jobs), reference, "in memory, jobs={jobs}");
        }
        let (streamed, ..) = render_streamed(jobs);
        assert_eq!(streamed, reference, "streamed, jobs={jobs}");
    }
}

#[test]
fn streamed_report_keeps_its_friendship_pass_budget() {
    // First snapshot: two passes for the CSR, then one each for Figure 1,
    // Figure 2, Table 4 and locality. Second snapshot: the CSR only.
    let (_, first, second) = render_streamed(2);
    assert!(first <= 6.0, "first snapshot read its friendships {first} times");
    assert!(second <= 2.0, "second snapshot read its friendships {second} times");
}
