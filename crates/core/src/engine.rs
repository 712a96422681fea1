//! Work-stealing parallel report engine.
//!
//! Experiments are independent reads over the immutable [`Ctx`] snapshot
//! view, so the full report is an embarrassingly parallel job list — except
//! that experiment costs span four orders of magnitude (Table 4 runs the
//! whole heavy-tail fitting pipeline; Figure 10 is three divisions). Static
//! chunking would leave most workers idle behind Table 4, so workers pull
//! the next experiment from `steam_par::map`'s shared cursor, and the expensive
//! kernels additionally fan out internally (see
//! [`render_with_jobs`]).
//!
//! ## Determinism contract
//!
//! The parallel report renders **byte-identical** text for any `jobs` value:
//!
//! * `steam_par::map` returns one text per experiment in `Experiment::ALL`
//!   order — scheduling order never reaches the output;
//! * every parallel kernel underneath reduces per-chunk results in index
//!   order with the serial rule (x_min scan) or sorts whole rows (CSR), so
//!   each experiment's text is itself thread-count invariant.
//!
//! [`Ctx`]: crate::context::Ctx

use std::time::{Duration, Instant};

use crate::report::{render_with_jobs, Experiment, ReportInput};

/// Wall time of one experiment within a timed report run.
#[derive(Clone, Debug)]
pub struct ExperimentTiming {
    pub experiment: Experiment,
    pub wall: Duration,
}

/// Timing breakdown of a timed report run (see
/// [`render_experiments_timed`]). Purely observational: the rendered report
/// text is byte-identical whether or not timings are collected.
#[derive(Clone, Debug)]
pub struct ReportTimings {
    /// Worker count the run was scheduled on.
    pub jobs: usize,
    /// End-to-end wall time of the whole run.
    pub wall: Duration,
    /// Per-experiment wall times, in [`Experiment::ALL`]/input order.
    pub per_experiment: Vec<ExperimentTiming>,
}

impl ReportTimings {
    /// Total time spent inside experiment kernels (the sum of per-experiment
    /// wall times; exceeds [`wall`](Self::wall) when workers overlap).
    pub fn busy(&self) -> Duration {
        self.per_experiment.iter().map(|t| t.wall).sum()
    }

    /// Fraction of the worker pool kept busy: `busy / (jobs · wall)`.
    /// 1.0 means perfect overlap; 1/jobs means fully serialized.
    pub fn utilization(&self) -> f64 {
        let denom = self.jobs as f64 * self.wall.as_secs_f64();
        if denom > 0.0 {
            (self.busy().as_secs_f64() / denom).min(1.0)
        } else {
            0.0
        }
    }

    /// Human-readable timing table, slowest experiment first — what
    /// `steam-cli report --timings` prints to stderr.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<&ExperimentTiming> = self.per_experiment.iter().collect();
        rows.sort_by_key(|t| std::cmp::Reverse(t.wall));
        let name_w = rows
            .iter()
            .map(|t| t.experiment.name().len())
            .max()
            .unwrap_or(10)
            .max("experiment".len());
        let mut out = String::new();
        out.push_str(&format!("{:<name_w$}  {:>10}  {:>6}\n", "experiment", "wall", "share"));
        let busy = self.busy().as_secs_f64();
        for t in rows {
            let share = if busy > 0.0 { t.wall.as_secs_f64() / busy * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "{:<name_w$}  {:>10.3?}  {:>5.1}%\n",
                t.experiment.name(),
                t.wall,
                share
            ));
        }
        out.push_str(&format!(
            "total {:.3?} on {} workers ({:.0}% utilization)\n",
            self.wall,
            self.jobs,
            self.utilization() * 100.0
        ));
        out
    }
}

/// Renders `experiments` concurrently on `jobs` workers, returning each
/// experiment's text in input order. `jobs <= 1` renders inline.
pub fn render_experiments(
    input: &ReportInput,
    experiments: &[Experiment],
    jobs: usize,
) -> Vec<(Experiment, String)> {
    render_experiments_timed(input, experiments, jobs).0
}

/// [`render_experiments`] plus a timing breakdown. Timing collection writes
/// only to each experiment's result and the returned struct — the rendered
/// text is byte-identical to the untimed path.
pub fn render_experiments_timed(
    input: &ReportInput,
    experiments: &[Experiment],
    jobs: usize,
) -> (Vec<(Experiment, String)>, ReportTimings) {
    let jobs = jobs.max(1);
    let run_start = Instant::now();
    let (rendered, per_experiment) = steam_par::map(jobs, experiments, |&e| {
        let _span = steam_obs::span("report", e.name());
        let start = Instant::now();
        let text = render_with_jobs(input, e, jobs);
        ((e, text), ExperimentTiming { experiment: e, wall: start.elapsed() })
    })
    .into_iter()
    .unzip();
    let timings = ReportTimings { jobs, wall: run_start.elapsed(), per_experiment };
    (rendered, timings)
}

/// The complete report — every experiment in [`Experiment::ALL`] under a
/// `==== name ====` banner — rendered on `jobs` workers. This is what
/// `steam-cli report --experiment all` prints.
pub fn render_full_report(input: &ReportInput, jobs: usize) -> String {
    render_full_report_timed(input, jobs).0
}

/// [`render_full_report`] plus the timing breakdown (for `--timings`).
pub fn render_full_report_timed(input: &ReportInput, jobs: usize) -> (String, ReportTimings) {
    let (rendered, timings) = render_experiments_timed(input, &Experiment::ALL, jobs);
    let mut out = String::new();
    for (experiment, text) in rendered {
        out.push_str("==== ");
        out.push_str(experiment.name());
        out.push_str(" ====\n");
        out.push_str(&text);
        out.push('\n');
    }
    (out, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Ctx;
    use crate::testworld;

    /// The fast experiments (everything but Table 4, which the integration
    /// test covers) must render identically serial and parallel.
    #[test]
    fn parallel_engine_matches_serial_rendering() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let input = ReportInput { ctx: &ctx, second: None, panel: Some(&world.panel) };
        let experiments: Vec<Experiment> = Experiment::ALL
            .into_iter()
            .filter(|&e| e != Experiment::Table4)
            .collect();
        let serial = render_experiments(&input, &experiments, 1);
        for jobs in [2, 8] {
            let parallel = render_experiments(&input, &experiments, jobs);
            assert_eq!(parallel.len(), serial.len());
            for ((se, st), (pe, pt)) in serial.iter().zip(&parallel) {
                assert_eq!(se, pe, "jobs={jobs}");
                assert_eq!(st, pt, "jobs={jobs}: {} diverged", se.name());
            }
        }
    }

    /// The report contract for the out-of-core path: a streamed context must
    /// render every experiment byte-identically to the in-memory context,
    /// for any worker count — the jobs × {in-memory, streaming} matrix.
    #[test]
    fn streamed_report_matches_in_memory_for_any_jobs() {
        let world = testworld::world();
        let dir = std::env::temp_dir().join(format!("report-matrix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        steam_model::codec::write_snapshot_v3(&path, &world.snapshot, 2).unwrap();
        let reader = steam_model::SnapshotReader::open(&path).unwrap();

        // Table 4 is exercised by the integration suite; skip it here to
        // keep the 2×2 matrix fast.
        let experiments: Vec<Experiment> = Experiment::ALL
            .into_iter()
            .filter(|&e| e != Experiment::Table4)
            .collect();
        let mem = Ctx::new(&world.snapshot);
        let mem_input = ReportInput { ctx: &mem, second: None, panel: Some(&world.panel) };
        let reference = render_experiments(&mem_input, &experiments, 1);
        for jobs in [1usize, 4] {
            let streamed = Ctx::from_reader(&reader, jobs).unwrap();
            let input = ReportInput { ctx: &streamed, second: None, panel: Some(&world.panel) };
            for got in [
                render_experiments(&mem_input, &experiments, jobs),
                render_experiments(&input, &experiments, jobs),
            ] {
                assert_eq!(got.len(), reference.len());
                for ((re, rt), (ge, gt)) in reference.iter().zip(&got) {
                    assert_eq!(re, ge, "jobs={jobs}");
                    assert_eq!(rt, gt, "jobs={jobs}: {} diverged", re.name());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timed_run_reports_every_experiment_and_identical_text() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let input = ReportInput { ctx: &ctx, second: None, panel: None };
        let experiments = [Experiment::Table1, Experiment::Figure10, Experiment::Aggregates];
        let plain = render_experiments(&input, &experiments, 2);
        let (timed, timings) = render_experiments_timed(&input, &experiments, 2);
        assert_eq!(plain, timed, "timing collection must not perturb the text");
        assert_eq!(timings.jobs, 2);
        assert_eq!(timings.per_experiment.len(), experiments.len());
        for (t, &e) in timings.per_experiment.iter().zip(&experiments) {
            assert_eq!(t.experiment, e, "timings keep input order");
        }
        assert!(timings.wall > Duration::ZERO);
        assert!(timings.busy() > Duration::ZERO);
        let util = timings.utilization();
        assert!((0.0..=1.0).contains(&util), "utilization {util} out of range");
        let table = timings.render_table();
        assert!(table.contains("experiment"));
        assert!(table.contains("workers"));
        for e in experiments {
            assert!(table.contains(e.name()), "{} missing from table", e.name());
        }
    }

    #[test]
    fn engine_preserves_experiment_order() {
        let world = testworld::world();
        let ctx = Ctx::new(&world.snapshot);
        let input = ReportInput { ctx: &ctx, second: None, panel: None };
        let experiments = [Experiment::Table1, Experiment::Figure10, Experiment::Aggregates];
        let rendered = render_experiments(&input, &experiments, 4);
        assert_eq!(rendered.len(), 3);
        assert_eq!(rendered[0].0, Experiment::Table1);
        assert_eq!(rendered[2].0, Experiment::Aggregates);
    }
}
