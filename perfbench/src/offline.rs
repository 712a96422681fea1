//! World synthesis (every workload's input) and the `offline` workload:
//! the full report over the 300k-user world, streamed from the mmap reader
//! and decoded in memory, which must render the same text.

use std::path::{Path, PathBuf};
use std::time::Instant;

use steam_analysis::{render_full_report, render_full_report_timed, Ctx, ReportInput};
use steam_model::{codec, SnapshotReader};
use steam_synth::{Generator, SynthConfig};

use crate::metrics::Metrics;
use crate::stats::{low_quartile, median};
use crate::sys::{self, get, get_all, nproc, Reply, Sut};
use crate::{Args, Opts, Outcome};

pub const FILES: [&str; 3] = ["snap.bin", "second.bin", "panel.bin"];
/// Generations of the small world before and again after the measured
/// work of `crawl` and `routed`; the lower quartile of all of them is
/// `generate_s` (wall) and `generate_cpu_s` (CPU).
pub const GEN_REPEAT: usize = 5;

/// `sut gen --scale small|medium --seed N --out DIR --repeat R`: what
/// `steam-cli generate --second-out --panel-out` does, with `jobs` =
/// nproc, `R` times over the same files. Replies with every repetition's
/// wall and CPU time, and the stage timings of the lower-quartile one.
pub fn gen_child(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("--seed")?;
    let cfg = match args.need("--scale")? {
        "small" => SynthConfig::small(seed),
        "medium" => SynthConfig::medium(seed),
        other => return Err(format!("unknown scale {other:?}")),
    };
    let out = PathBuf::from(args.need("--out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let jobs = nproc();
    let mut reps = Vec::new();
    for _ in 0..args.num::<usize>("--repeat")?.max(1) {
        let (t0, cpu0) = (Instant::now(), sys::cpu_seconds());
        let (world, timings) = Generator::new(cfg.clone()).generate_world_timed(jobs);
        let tw = Instant::now();
        let write = |name: &str, snap| {
            codec::write_snapshot_v3(&out.join(name), snap, jobs).map_err(|e| e.to_string())
        };
        write(FILES[0], &world.snapshot)?;
        write(FILES[1], &world.second_snapshot)?;
        let write_v3_s = tw.elapsed().as_secs_f64();
        std::fs::write(out.join(FILES[2]), codec::encode_panel(&world.panel))
            .map_err(|e| e.to_string())?;
        let generate_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        reps.push((
            generate_s,
            cpu_s,
            write_v3_s,
            world.snapshot.n_users(),
            timings,
        ));
    }
    let all: Vec<f64> = reps.iter().map(|r| r.0).collect();
    let all_cpu: Vec<f64> = reps.iter().map(|r| r.1).collect();
    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, _, write_v3_s, users, timings) = &reps[reps.len().div_ceil(4) - 1];
    let mut reply = Reply::default()
        .nums("all_s", &all)
        .nums("all_cpu_s", &all_cpu)
        .num("write_v3_s", *write_v3_s)
        .num("users", *users as f64)
        .num(
            "utilization",
            timings.busy().as_secs_f64() / (timings.wall.as_secs_f64() * jobs as f64).max(1e-9),
        );
    for st in &timings.stages {
        reply = reply.num(&format!("stage.{}", st.stage), st.wall.as_secs_f64());
    }
    reply.send();
    Ok(())
}

/// Runs `sut gen` into `dir` and returns its reply.
pub fn generate(
    scale: &str,
    seed: u64,
    dir: &Path,
    repeat: usize,
) -> Result<steam_net::Json, String> {
    let args = [
        "gen",
        "--scale",
        scale,
        "--seed",
        &seed.to_string(),
        "--out",
        &dir.to_string_lossy(),
        "--repeat",
        &repeat.to_string(),
    ];
    Sut::run(&args.map(String::from))
}

/// The 30k-user input of `crawl` and `routed`: its directory and the
/// `sut gen` reply.
pub fn small_world(o: &Opts) -> Result<(PathBuf, steam_net::Json), String> {
    let dir = o.dir.join("gen");
    let reply = generate("small", o.seed, &dir, GEN_REPEAT)?;
    Ok((dir, reply))
}

/// Generates the small world again after the measured work, so that
/// generation is sampled at both ends of the run. Checks that the seed gave
/// the same world, records its digest, and returns `generate_s` and
/// `generate_cpu_s`.
pub fn small_world_again(
    o: &Opts,
    (first_dir, first): &(PathBuf, steam_net::Json),
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let dir = o.dir.join("gen-again");
    let again = generate("small", o.seed, &dir, GEN_REPEAT)?;
    let (a, b) = (world_digest(first_dir)?, world_digest(&dir)?);
    if a != b {
        out.problems
            .push(format!("one seed generated different worlds: {a} and {b}"));
    }
    out.counts.push(("world_digest".into(), a));
    let both = |key: &str| -> Result<f64, String> {
        let mut v = get_all(first, key)?;
        v.extend(get_all(&again, key)?);
        Ok(low_quartile(&v))
    };
    Ok((both("all_s")?, both("all_cpu_s")?))
}

/// Per-layer metrics of one `sut gen` reply.
pub fn gen_layers(g: &steam_net::Json, m: &mut Metrics) -> Result<(), String> {
    for stage in [
        "accounts",
        "catalog",
        "friendships",
        "ownership",
        "groups",
        "evolve",
        "panel",
    ] {
        m.put(
            format!("synth.{stage}_s"),
            get(g, &format!("stage.{stage}"))?,
            "s",
        );
    }
    m.put("synth.utilization", get(g, "utilization")?, "ratio");
    m.put("model.write_v3_s", get(g, "write_v3_s")?, "s");
    Ok(())
}

/// Digests of a generated world's files, `snap,second,panel` in hex.
pub fn world_digest(dir: &Path) -> Result<String, String> {
    let d: Result<Vec<String>, String> = FILES
        .iter()
        .map(|f| sys::file_digest(&dir.join(f)).map(|h| format!("{h:016x}")))
        .collect();
    Ok(d?.join(","))
}

/// Set-ups (open plus context build) per streaming report; the last one
/// renders.
const STREAM_SETUPS: usize = 2;

/// `sut report --mode stream|mem --world DIR --out FILE --timed 0|1`: the
/// report over a generated world with jobs = nproc.
pub fn report_child(args: &Args) -> Result<(), String> {
    let world = PathBuf::from(args.need("--world")?);
    let timed = args.need("--timed")? == "1";
    let jobs = nproc();
    let raw = std::fs::read(world.join(FILES[2])).map_err(|e| e.to_string())?;
    let panel = codec::decode_panel(bytes::Bytes::from(raw)).map_err(|e| e.to_string())?;
    let [a, b] = [world.join(FILES[0]), world.join(FILES[1])];
    let render = |input: &ReportInput| {
        if timed {
            let (text, t) = render_full_report_timed(input, jobs);
            (text, Some(t))
        } else {
            (render_full_report(input, jobs), None)
        }
    };
    let mut reply = Reply::default();
    let (text, timings, report_s) = match args.need("--mode")? {
        "stream" => {
            let (mut setup, mut open, mut ctx) = (Vec::new(), Vec::new(), Vec::new());
            let mut rendered = None;
            for i in 0..STREAM_SETUPS {
                let t0 = Instant::now();
                let ra = SnapshotReader::open(&a).map_err(|e| e.to_string())?;
                let rb = SnapshotReader::open(&b).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                let ca = Ctx::from_reader(&ra, jobs).map_err(|e| e.to_string())?;
                let cb = Ctx::from_reader(&rb, jobs).map_err(|e| e.to_string())?;
                let t2 = Instant::now();
                setup.push((t2 - t0).as_secs_f64());
                open.push((t1 - t0).as_secs_f64());
                ctx.push((t2 - t1).as_secs_f64());
                if i + 1 == STREAM_SETUPS {
                    let input = ReportInput {
                        ctx: &ca,
                        second: Some(&cb),
                        panel: Some(&panel),
                    };
                    let (t3, cpu3) = (Instant::now(), sys::cpu_seconds());
                    let (text, t) = render(&input);
                    rendered = Some((text, t, t3.elapsed().as_secs_f64()));
                    reply = reply.num("render_cpu_s", sys::cpu_seconds() - cpu3);
                }
            }
            reply = reply
                .nums("setup_s", &setup)
                .nums("open_s", &open)
                .nums("ctx_s", &ctx);
            rendered.expect("at least one setup renders")
        }
        "mem" => {
            let t0 = Instant::now();
            let sa = codec::read_snapshot_jobs(&a, jobs).map_err(|e| e.to_string())?;
            let sb = codec::read_snapshot_jobs(&b, jobs).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let ca = Ctx::new_with_jobs(&sa, jobs);
            let cb = Ctx::new_with_jobs(&sb, jobs);
            let t2 = Instant::now();
            let (text, t) = render(&ReportInput {
                ctx: &ca,
                second: Some(&cb),
                panel: Some(&panel),
            });
            reply = reply
                .num("decode_s", (t1 - t0).as_secs_f64())
                .num("ctx_s", (t2 - t1).as_secs_f64());
            (text, t, t0.elapsed().as_secs_f64())
        }
        other => return Err(format!("unknown mode {other:?}")),
    };
    std::fs::write(args.need("--out")?, &text).map_err(|e| e.to_string())?;
    if let Some(t) = timings {
        reply = reply.num("utilization", t.utilization());
        for e in &t.per_experiment {
            reply = reply.num(
                &format!("exp.{}", e.experiment.name()),
                e.wall.as_secs_f64(),
            );
        }
    }
    reply
        .num("report_s", report_s)
        .num("cpu_s", sys::cpu_seconds())
        .num("peak_rss_mb", sys::peak_rss_mb())
        .send();
    Ok(())
}

struct Round {
    traced: bool,
    gen: steam_net::Json,
    stream: steam_net::Json,
    mem: steam_net::Json,
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let world = o.dir.join("gen-0");
    let mut rounds: Vec<Round> = Vec::new();
    let mut world_digests = Vec::new();
    let mut report_digests = Vec::new();
    while crate::another(rounds.len(), started.elapsed(), o.seconds) {
        let k = rounds.len();
        let traced = o.trace && k % 2 == 1;
        let gdir = o.dir.join(format!("gen-{k}"));
        let gen = generate("medium", o.seed, &gdir, 1)?;
        world_digests.push(world_digest(&gdir)?);
        if k > 0 {
            let _ = std::fs::remove_dir_all(&gdir);
        }
        let report = |mode: &str| {
            let out = o.dir.join(format!("{mode}.txt"));
            let args = [
                "report",
                "--mode",
                mode,
                "--world",
                &world.to_string_lossy(),
                "--out",
                &out.to_string_lossy(),
                "--timed",
                if traced { "1" } else { "0" },
            ];
            Sut::run(&args.map(String::from)).map(|j| (j, out))
        };
        let (stream, stream_txt) = report("stream")?;
        let (mem, mem_txt) = report("mem")?;
        let a = std::fs::read(&stream_txt).map_err(|e| e.to_string())?;
        let b = std::fs::read(&mem_txt).map_err(|e| e.to_string())?;
        out.attempted += 2;
        if a != b {
            out.failed += 2;
            out.problems
                .push(format!("round {k}: streaming and in-memory reports differ"));
        }
        report_digests.push(format!("{:016x}", sys::digest(&a)));
        rounds.push(Round {
            traced,
            gen,
            stream,
            mem,
        });
    }
    for (what, d) in [("world", &world_digests), ("report", &report_digests)] {
        if d.iter().any(|x| x != &d[0]) {
            out.problems.push(format!(
                "{what} digest differs between rounds of one seed: {d:?}"
            ));
        }
    }
    out.counts
        .push(("world_digest".into(), world_digests[0].clone()));
    out.counts
        .push(("report_digest".into(), report_digests[0].clone()));
    let users = get(&rounds[0].gen, "users")?;
    out.scale = format!(
        "\"users\": {users}, \"rounds\": {}, \"jobs\": {}, \"nproc\": {}, \
         \"generator_threads\": 1, \"connections\": 0, \"oversubscribed\": false",
        rounds.len(),
        nproc(),
        nproc()
    );

    let pick =
        |traced: bool| -> Vec<&Round> { rounds.iter().filter(|r| r.traced == traced).collect() };
    let all = |rs: &[&Round],
               f: &dyn Fn(&Round) -> Result<f64, String>|
     -> Result<Vec<f64>, String> { rs.iter().map(|r| f(r)).collect() };
    let lq = |rs: &[&Round], f: &dyn Fn(&Round) -> Result<f64, String>| {
        all(rs, f).map(|v| low_quartile(&v))
    };
    let plain = pick(false);
    let report_s = lq(&plain, &|r| get(&r.stream, "report_s"))?;
    let render_cpu_s = lq(&plain, &|r| get(&r.stream, "render_cpu_s"))?;
    let mem_s = lq(&plain, &|r| get(&r.mem, "report_s"))?;
    // One generation per round.
    let generate_s = lq(&plain, &|r| get_all(&r.gen, "all_s").map(|v| v[0]))?;
    let generate_cpu_s = lq(&plain, &|r| get_all(&r.gen, "all_cpu_s").map(|v| v[0]))?;
    let mut setups = Vec::new();
    for r in &plain {
        setups.extend(get_all(&r.stream, "setup_s")?);
    }
    let rss = median(&all(&plain, &|r| get(&r.stream, "peak_rss_mb"))?).unwrap_or(0.0);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;

    let setup_s = median(&setups).unwrap_or(0.0);
    out.e2e.put("setup_s", setup_s, "s");
    out.e2e.put("generate_cpu_s", generate_cpu_s, "s");
    out.e2e.put("work_cpu_s", render_cpu_s, "s");
    out.e2e.put("peak_rss_mb", rss, "MiB");
    for m in [&mut out.figures, &mut out.layers] {
        m.put("generate_s", generate_s, "s");
        m.put("work_s", report_s, "s");
        m.put("report_s", report_s, "s");
        m.put("report_in_memory_s", mem_s, "s");
        m.put("failed_frac", failed_frac, "ratio");
    }
    out.figures.extend(&out.e2e);

    if o.trace {
        let traced = pick(true);
        let l = &mut out.layers;
        gen_layers(&traced[0].gen, l)?;
        let t = traced[0];
        let open: Vec<f64> = get_all(&t.stream, "open_s")?;
        let ctx: Vec<f64> = get_all(&t.stream, "ctx_s")?;
        l.put("model.open_v3_s", low_quartile(&open), "s");
        l.put("core.ctx_stream_s", low_quartile(&ctx), "s");
        l.put("model.decode_full_s", get(&t.mem, "decode_s")?, "s");
        l.put("core.ctx_mem_s", get(&t.mem, "ctx_s")?, "s");
        for e in crate::layers::experiments() {
            l.put(
                format!("core.exp.{e}_s"),
                get(&t.stream, &format!("exp.{e}"))?,
                "s",
            );
            l.put(
                format!("core.mem.exp.{e}_s"),
                get(&t.mem, &format!("exp.{e}"))?,
                "s",
            );
        }
        l.put("core.utilization", get(&t.stream, "utilization")?, "ratio");
        l.put("core.mem.utilization", get(&t.mem, "utilization")?, "ratio");
        let cpu = get(&t.stream, "cpu_s")?;
        let wall: f64 =
            get_all(&t.stream, "setup_s")?.iter().sum::<f64>() + get(&t.stream, "report_s")?;
        l.put("sut.cpu_s", cpu, "s");
        l.put(
            "sut.cpu_util",
            cpu / (wall * nproc() as f64).max(1e-9),
            "ratio",
        );
        let traced_s = lq(&traced, &|r| get(&r.stream, "report_s"))?;
        l.put(
            "trace_overhead_pct",
            (traced_s / report_s - 1.0) * 100.0,
            "%",
        );
    }
    Ok(out)
}
