//! # geobench — experiment harness for the RLCut reproduction
//!
//! One binary per paper table/figure (see `DESIGN.md` §4 for the index),
//! plus the shared plumbing here: dataset construction, method runners
//! with overhead timing, and plain-text table rendering. System
//! performance is not measured here: that is `benchmark/` (one pipeline,
//! four workloads, an append-only trajectory).
//!
//! Every binary accepts exactly:
//!
//! * `--scale <f>`  — fraction of the paper's dataset sizes (default varies
//!   per experiment; raise toward 1.0 on big machines),
//! * `--seed <n>`   — RNG seed (default 42),
//! * `--threads <n>` — worker threads (default: available parallelism).

pub mod experiments;

use std::time::{Duration, Instant};

use geobase::{ginger::GingerConfig, PlanKind};
use geoengine::Algorithm;
use geograph::locality::LocalityConfig;
use geograph::{Dataset, GeoGraph};
use geosim::CloudEnv;
use rlcut::RlCutConfig;

/// Common CLI options of every experiment binary.
#[derive(Clone, Copy, Debug)]
pub struct ExpContext {
    pub scale: f64,
    pub seed: u64,
    pub threads: usize,
}

impl ExpContext {
    /// Parses `--scale`, `--seed` and `--threads` from `std::env::args`,
    /// with the experiment's default scale; prints the problem and exits 2
    /// on anything else.
    pub fn from_args(default_scale: f64) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, default_scale).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// [`Self::from_args`] over an explicit argument list (program name
    /// already stripped). An unknown flag, a flag with no value after it,
    /// a value that does not parse, a scale that is not a positive finite
    /// number and zero threads are all errors — never a silent run.
    pub(crate) fn parse(args: &[String], default_scale: f64) -> Result<Self, String> {
        let mut ctx = ExpContext {
            scale: default_scale,
            seed: 42,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        };
        fn value<T: std::str::FromStr>(
            flag: &str,
            what: &str,
            value: Option<&String>,
        ) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            value.parse().map_err(|_| format!("{flag} takes {what}, got {value:?}"))
        }
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => {
                    ctx.scale = value(flag, "a float", args.next())?;
                    if !(ctx.scale.is_finite() && ctx.scale > 0.0) {
                        return Err(format!("--scale takes a positive number, got {}", ctx.scale));
                    }
                }
                "--seed" => ctx.seed = value(flag, "an integer", args.next())?,
                "--threads" => {
                    ctx.threads = value(flag, "an integer", args.next())?;
                    if ctx.threads == 0 {
                        return Err("--threads takes at least 1".to_string());
                    }
                }
                other => {
                    return Err(format!(
                        "unknown option {other} (expected --scale/--seed/--threads)"
                    ))
                }
            }
        }
        Ok(ctx)
    }

    /// Builds the geo-distributed analog of a paper dataset at this
    /// context's scale, with the paper's 8-DC skewed locality.
    pub(crate) fn build_geo(&self, dataset: Dataset) -> GeoGraph {
        let graph = dataset.generate(self.scale, self.seed);
        GeoGraph::from_graph(graph, &LocalityConfig::paper_default(self.seed))
    }
}

/// Times a closure.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One partitioner's run: the plan it produced and what it cost to produce.
pub(crate) struct MethodRun<'g> {
    pub name: &'static str,
    pub plan: PlanKind<'g>,
    pub overhead: Duration,
}

/// Which methods to run (Geo-Cut and Revolver are orders of magnitude
/// slower; the paper only runs them on LJ/OT — mirror that).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MethodSet {
    pub include_slow: bool,
}

/// Runs the six comparison methods plus RLCut on one workload, timing each.
/// RLCut's `T_opt` defaults to Ginger's measured overhead (§VI-A.4).
pub(crate) fn run_all_methods<'g>(
    geo: &'g GeoGraph,
    env: &CloudEnv,
    algo: &Algorithm,
    budget: f64,
    set: MethodSet,
    ctx: &ExpContext,
) -> Vec<MethodRun<'g>> {
    let profile = algo.profile(geo);
    let iters = algo.expected_iterations();
    let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
    let mut runs = Vec::new();

    let (plan, overhead) =
        timed(|| PlanKind::Vertex(geobase::randpg(geo, env, profile.clone(), iters, ctx.seed)));
    runs.push(MethodRun { name: "RandPG", plan, overhead });

    if set.include_slow {
        let (plan, overhead) = timed(|| {
            PlanKind::Vertex(geobase::geocut(
                geo,
                env,
                geobase::geocut::GeoCutConfig::new(budget),
                profile.clone(),
                iters,
            ))
        });
        runs.push(MethodRun { name: "Geo-Cut", plan, overhead });
    }

    let (plan, overhead) = timed(|| {
        PlanKind::Hybrid(geobase::hashpl(geo, env, theta, profile.clone(), iters, ctx.seed))
    });
    runs.push(MethodRun { name: "HashPL", plan, overhead });

    let (plan, ginger_overhead) = timed(|| {
        PlanKind::Hybrid(geobase::ginger(
            geo,
            env,
            GingerConfig::new(theta, ctx.seed),
            profile.clone(),
            iters,
        ))
    });
    runs.push(MethodRun { name: "Ginger", plan, overhead: ginger_overhead });

    if set.include_slow {
        let (plan, overhead) = timed(|| {
            PlanKind::Edge(geobase::revolver(
                geo,
                env,
                geobase::revolver::RevolverConfig { seed: ctx.seed, ..Default::default() },
                profile.clone(),
                iters,
            ))
        });
        runs.push(MethodRun { name: "Revolver", plan, overhead });
    }

    let config = RlCutConfig::new(budget)
        .with_seed(ctx.seed)
        .with_threads(ctx.threads)
        .with_t_opt(default_t_opt(ginger_overhead));
    let (result, overhead) = timed(|| rlcut::partition(geo, env, profile.clone(), iters, &config));
    runs.push(MethodRun { name: "RLCut", plan: PlanKind::Hybrid(result.state), overhead });

    runs
}

/// The paper sets `T_opt` to Ginger's overhead (§VI-A.4). Its Ginger runs
/// inside PowerLyra (ingestion + greedy placement on 48 cores, ~15-613 s,
/// Table III); our standalone streaming Ginger is roughly an order of
/// magnitude faster relative to an RLCut training step, so we calibrate by
/// that constant — keeping RLCut at the paper's intended "comparable
/// overhead" operating point — and floor tiny-graph cases at 100 ms.
pub(crate) fn default_t_opt(ginger_overhead: Duration) -> Duration {
    (ginger_overhead * 20).max(Duration::from_millis(100))
}

/// A plain-text table that renders like the paper's.
pub(crate) struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub(crate) fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header row first).
    pub(crate) fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table; additionally, when `GEOBENCH_CSV_DIR` is set,
    /// writes a machine-readable CSV named after the table title into that
    /// directory.
    pub(crate) fn print(&self) {
        print!("{}", self.render());
        if let Ok(dir) = std::env::var("GEOBENCH_CSV_DIR") {
            let slug: String = self
                .title
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
                .collect::<String>()
                .split('_')
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join("_");
            let truncated: String = slug.chars().take(64).collect();
            let path = std::path::Path::new(&dir).join(format!("{truncated}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {path:?}: {e}");
            }
        }
    }
}

/// Formats a float with 3 significant-ish digits, falling back to
/// scientific notation for values that would round to 0.000.
pub(crate) fn f3(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else if x.abs() >= 0.005 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

/// Formats a duration in seconds.
pub(crate) fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosim::regions::ec2_eight_regions;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
    }

    #[test]
    fn all_methods_run_on_a_tiny_graph() {
        let ctx = ExpContext { scale: 1e-9, seed: 1, threads: 2 };
        let geo = ctx.build_geo(Dataset::LiveJournal); // floors at 1024 vertices
        let env = ec2_eight_regions();
        let algo = Algorithm::pagerank();
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let runs =
            run_all_methods(&geo, &env, &algo, budget, MethodSet { include_slow: true }, &ctx);
        assert_eq!(runs.len(), 6);
        let names: Vec<_> = runs.iter().map(|r| r.name).collect();
        assert_eq!(names, ["RandPG", "Geo-Cut", "HashPL", "Ginger", "Revolver", "RLCut"]);
        // RLCut must respect the budget and beat every other method that
        // does (the paper's Fig 10/11 point: HashPL/Ginger win some time by
        // blowing the budget several times over).
        let rlcut = runs.last().unwrap().plan.objective(&env);
        assert!(rlcut.total_cost() <= budget, "rlcut over budget");
        let best_feasible = runs
            .iter()
            .map(|r| r.plan.objective(&env))
            .filter(|o| o.total_cost() <= budget * 1.0001)
            .map(|o| o.transfer_time)
            .fold(f64::INFINITY, f64::min);
        assert!(
            rlcut.transfer_time <= best_feasible * 1.05,
            "rlcut {} vs best feasible {best_feasible}",
            rlcut.transfer_time
        );
    }

    #[test]
    fn baseline_plans_ignore_the_thread_count() {
        // Every method but RLCut (whose T_opt is wall-clock) is a function
        // of (graph, seed): one and two threads give the same plan, and the
        // sequential Ginger and Geo-Cut plans stay pinned.
        const GINGER_MASTERS_FNV: u64 = 0xbfd1_f478_390f_78bf;
        const GEOCUT_EDGE_DCS_FNV: u64 = 0x2e2b_81c2_4e59_b822;
        let ctx = ExpContext { scale: 1e-9, seed: 42, threads: 1 };
        let geo = ctx.build_geo(Dataset::LiveJournal);
        let env = ec2_eight_regions();
        let algo = Algorithm::pagerank();
        let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
        let plans = |threads| -> Vec<(&str, Vec<geograph::DcId>)> {
            let ctx = ExpContext { threads, ..ctx };
            run_all_methods(&geo, &env, &algo, budget, MethodSet { include_slow: true }, &ctx)
                .into_iter()
                .filter(|run| run.name != "RLCut")
                .map(|run| {
                    let plan = match run.plan {
                        PlanKind::Hybrid(s) => s.core().masters().to_vec(),
                        PlanKind::Vertex(s) => s.edge_dcs().to_vec(),
                        PlanKind::Edge(s) => s.assignment().to_vec(),
                    };
                    (run.name, plan)
                })
                .collect()
        };
        let one = plans(1);
        let two = plans(2);
        let moved: Vec<&str> =
            one.iter().zip(&two).filter(|(a, b)| a.1 != b.1).map(|(a, _)| a.0).collect();
        assert!(moved.is_empty(), "plans that depend on the thread count: {moved:?}");
        let fnv = |name| geograph::wire::fnv1a(&one.iter().find(|(n, _)| *n == name).unwrap().1);
        assert_eq!(
            fnv("Ginger"),
            GINGER_MASTERS_FNV,
            "Ginger masters moved: {:#018x}",
            fnv("Ginger")
        );
        assert_eq!(
            fnv("Geo-Cut"),
            GEOCUT_EDGE_DCS_FNV,
            "Geo-Cut plan moved: {:#018x}",
            fnv("Geo-Cut")
        );
    }

    #[test]
    fn substrate_scale_runs_at_the_floor_scale() {
        experiments::substrate_scale::run(&ExpContext { scale: 1e-9, seed: 1, threads: 2 });
    }

    #[test]
    fn parse_reads_flags_and_rejects_what_it_cannot() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ctx =
            ExpContext::parse(&args(&["--seed", "7", "--scale", "0.25", "--threads", "3"]), 1.0)
                .expect("well-formed flags");
        assert_eq!((ctx.scale, ctx.seed, ctx.threads), (0.25, 7, 3));
        let defaults = ExpContext::parse(&[], 0.5).expect("no flags");
        assert_eq!((defaults.scale, defaults.seed), (0.5, 42));

        // A trailing flag whose value was forgotten used to run at the defaults.
        let err = ExpContext::parse(&args(&["--seed", "7", "--threads"]), 1.0).unwrap_err();
        assert!(err.contains("--threads needs a value"), "{err}");
        let err = ExpContext::parse(&args(&["--scale"]), 1.0).unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
        let err = ExpContext::parse(&args(&["--out", "x.json"]), 1.0).unwrap_err();
        assert!(err.contains("unknown option --out"), "{err}");
        let err = ExpContext::parse(&args(&["--seed", "seven"]), 1.0).unwrap_err();
        assert!(err.contains("--seed takes an integer"), "{err}");
        // Values that parse but cannot run used to panic (threads 0) or run
        // a table silently (scale 0, negative, NaN).
        for bad in ["0", "-1", "nan", "inf"] {
            let err = ExpContext::parse(&args(&["--scale", bad]), 1.0).unwrap_err();
            assert!(err.contains("--scale takes a positive number"), "{bad}: {err}");
        }
        let err = ExpContext::parse(&args(&["--threads", "0"]), 1.0).unwrap_err();
        assert!(err.contains("--threads takes at least 1"), "{err}");
    }

    #[test]
    fn csv_escapes_and_round_trips() {
        let mut t = Table::new("csv demo", &["name", "value"]);
        t.row(vec!["plain".into(), "1.0".into()]);
        t.row(vec!["with,comma".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1.0");
        assert_eq!(lines[2], "\"with,comma\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.0), "0");
        assert_eq!(f3(123.4), "123");
        assert_eq!(f3(1.234), "1.23");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(f3(0.000123), "1.23e-4");
    }
}
