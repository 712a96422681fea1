//! Jobs-invariance matrix: world synthesis must produce byte-identical
//! output for any worker count. Each module in `steam-synth` carries its own
//! stage-level invariance test; this is the end-to-end guarantee across the
//! whole pipeline — snapshot, second snapshot, and week panel — encoded to
//! actual wire bytes so even a field the unit tests forget to compare would
//! show up here.

use steam_model::codec::{encode_panel, encode_snapshot_v3};
use steam_synth::{Generator, SynthConfig};

fn tiny_config(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_users = 400;
    cfg.n_groups = 16;
    cfg.validate().expect("config");
    cfg
}

#[test]
fn jobs_matrix_is_byte_identical_across_seeds() {
    for seed in [2016u64, 7, 404] {
        let baseline = Generator::new(tiny_config(seed)).generate_world_jobs(1);
        let base_snap = encode_snapshot_v3(&baseline.snapshot, 1);
        let base_second = encode_snapshot_v3(&baseline.second_snapshot, 1);
        let base_panel = encode_panel(&baseline.panel);
        for jobs in [2usize, 8] {
            let world = Generator::new(tiny_config(seed)).generate_world_jobs(jobs);
            assert_eq!(
                base_snap,
                encode_snapshot_v3(&world.snapshot, 1),
                "snapshot diverged at seed {seed}, jobs {jobs}"
            );
            assert_eq!(
                base_second,
                encode_snapshot_v3(&world.second_snapshot, 1),
                "second snapshot diverged at seed {seed}, jobs {jobs}"
            );
            assert_eq!(
                base_panel,
                encode_panel(&world.panel),
                "panel diverged at seed {seed}, jobs {jobs}"
            );
        }
    }
}

#[test]
fn parallel_section_encoding_matches_serial_bytes() {
    // The codec side of the same guarantee: the chunked container must not
    // let the encoding job count leak into the bytes.
    let world = Generator::new(tiny_config(2016)).generate_world_jobs(4);
    let serial = encode_snapshot_v3(&world.snapshot, 1);
    for jobs in [2usize, 3, 8] {
        assert_eq!(
            serial,
            encode_snapshot_v3(&world.snapshot, jobs),
            "v3 encoding diverged at jobs {jobs}"
        );
    }
}
