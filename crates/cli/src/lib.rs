//! # rlcut-cli — command-line driver
//!
//! ```text
//! rlcut info      <edge-list>
//! rlcut partition <edge-list> --out <plan> [options]
//! rlcut evaluate  <edge-list> --plan <plan> [options]
//! rlcut serve     <durable-dir> [--lookups N] [options]
//! ```
//!
//! Works on plain SNAP/LAW-style edge lists. `partition` geo-distributes
//! the graph over the 8-region EC2 environment (or a uniform `--dcs N`
//! one), runs the chosen method, prints the objective, and persists the
//! master assignment with `geopart::plan_io`. `evaluate` re-loads a plan
//! and scores it, so plans can be compared across runs and methods.
//! `serve` boots the placement-serving daemon from a durable directory
//! written by `partition --durable-dir` — no retraining — and answers a
//! batch of routing lookups against the recovered plan.
//!
//! Logic lives here (string-in/string-out) so it is unit-testable; the
//! binary in `main.rs` is a thin shell.

use std::path::PathBuf;
use std::time::Duration;

use geobase::ginger::GingerConfig;
use geograph::locality::LocalityConfig;
use geograph::GeoGraph;
use geopart::{HybridState, TrafficProfile};
use geosim::{CloudEnv, Datacenter};
use rlcut::RlCutConfig;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Info { graph: PathBuf },
    Partition { graph: PathBuf, out: Option<PathBuf>, options: Options },
    Evaluate { graph: PathBuf, plan: PathBuf, options: Options },
    Serve { store: PathBuf, lookups: u64, options: Options },
}

/// Options shared by `partition` and `evaluate`.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Partitioning method (partition only).
    pub method: Method,
    /// Custom environment file (overrides --dcs and the EC2 preset).
    pub env_file: Option<PathBuf>,
    /// Number of DCs; 0 = the 8-region EC2 preset.
    pub dcs: usize,
    /// Budget as a fraction of the centralization cost.
    pub budget_frac: f64,
    /// Required optimization overhead in milliseconds (0 = unconstrained).
    pub topt_ms: u64,
    pub threads: usize,
    pub seed: u64,
    /// WAL + snapshot directory (partition with rlcut only): first run
    /// creates it, later runs recover the pipeline and train another
    /// window on top of it.
    pub durable_dir: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            method: Method::RlCut,
            env_file: None,
            dcs: 0,
            budget_frac: 0.4,
            topt_ms: 0,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            seed: 42,
            durable_dir: None,
        }
    }
}

/// Supported partitioning methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    RlCut,
    Ginger,
    HashPl,
    Natural,
}

impl Method {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rlcut" => Ok(Method::RlCut),
            "ginger" => Ok(Method::Ginger),
            "hashpl" => Ok(Method::HashPl),
            "natural" => Ok(Method::Natural),
            other => Err(format!("unknown method {other:?} (rlcut|ginger|hashpl|natural)")),
        }
    }
}

pub(crate) const USAGE: &str = "\
usage:
  rlcut info      <edge-list>
  rlcut partition <edge-list> [--out plan.txt] [--method rlcut|ginger|hashpl|natural]
                  [--dcs N | --env dcs.txt] [--budget-frac F] [--topt-ms N]
                  [--threads N] [--seed N] [--durable-dir DIR]
  rlcut evaluate  <edge-list> --plan plan.txt [--dcs N | --env dcs.txt] [--seed N]
  rlcut serve     <durable-dir> [--lookups N] [--dcs N | --env dcs.txt]";

/// Parses the argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut iter = args.iter();
    let sub = iter.next().ok_or_else(|| USAGE.to_string())?;
    let graph = PathBuf::from(iter.next().ok_or("missing <edge-list> argument")?.clone());
    let mut out = None;
    let mut plan = None;
    let mut lookups = 100_000u64;
    let mut options = Options::default();
    while let Some(flag) = iter.next() {
        let mut value = || -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value()?.clone())),
            "--plan" => plan = Some(PathBuf::from(value()?.clone())),
            "--method" => options.method = Method::parse(value()?)?,
            "--dcs" => options.dcs = value()?.parse().map_err(|e| format!("--dcs: {e}"))?,
            "--env" => options.env_file = Some(PathBuf::from(value()?.clone())),
            "--budget-frac" => {
                options.budget_frac = value()?.parse().map_err(|e| format!("--budget-frac: {e}"))?
            }
            "--topt-ms" => {
                options.topt_ms = value()?.parse().map_err(|e| format!("--topt-ms: {e}"))?
            }
            "--threads" => {
                options.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if options.threads == 0 {
                    return Err("--threads: must be at least 1".to_string());
                }
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--durable-dir" => options.durable_dir = Some(PathBuf::from(value()?.clone())),
            "--lookups" => lookups = value()?.parse().map_err(|e| format!("--lookups: {e}"))?,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    match sub.as_str() {
        "info" => Ok(Command::Info { graph }),
        "partition" => Ok(Command::Partition { graph, out, options }),
        "evaluate" => {
            let plan = plan.ok_or("evaluate needs --plan <file>")?;
            Ok(Command::Evaluate { graph, plan, options })
        }
        "serve" => Ok(Command::Serve { store: graph, lookups, options }),
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

fn build_env(options: &Options) -> Result<CloudEnv, String> {
    if let Some(path) = &options.env_file {
        return geosim::env_io::read_env(path).map_err(|e| format!("{}: {e}", path.display()));
    }
    // The plan machinery's replica sets are u64 bitmasks: --dcs past that
    // limit must be a CLI error, not the CloudEnv constructor's assert.
    if options.dcs > geograph::MAX_DCS {
        return Err(format!(
            "--dcs {} exceeds the supported maximum of {}",
            options.dcs,
            geograph::MAX_DCS
        ));
    }
    Ok(if options.dcs == 0 {
        geosim::regions::ec2_eight_regions()
    } else {
        CloudEnv::new(
            (0..options.dcs)
                .map(|i| Datacenter::from_gb_units(&format!("dc{i}"), 0.5, 2.5, 0.10))
                .collect(),
        )
    })
}

fn load_geo(path: &std::path::Path, env: &CloudEnv, seed: u64) -> Result<GeoGraph, String> {
    let graph = geograph::io::read_edge_list(path).map_err(|e| e.to_string())?;
    let mut locality = LocalityConfig::paper_default(seed);
    if env.num_dcs() != 8 {
        locality = LocalityConfig::uniform(env.num_dcs(), seed);
    }
    Ok(GeoGraph::from_graph(graph, &locality))
}

/// Runs a command, returning the report text.
pub fn run(command: Command) -> Result<String, String> {
    match command {
        Command::Info { graph } => {
            let g = geograph::io::read_edge_list(&graph).map_err(|e| e.to_string())?;
            let stats = geograph::degree::DegreeStats::compute(&g);
            let theta = geograph::degree::suggest_theta(&g, 0.05);
            Ok(format!(
                "graph      : {:?}\nvertices   : {}\nedges      : {}\nmax in/out : {} / {}\n\
                 mean in    : {:.2}\np99 in     : {}\ntop-1% edge share: {:.1}%\n\
                 suggested θ (5% high-degree): {theta}",
                graph,
                g.num_vertices(),
                g.num_edges(),
                stats.max_in,
                stats.max_out,
                stats.mean_in,
                stats.p99_in,
                stats.top1pct_edge_share * 100.0,
            ))
        }
        Command::Partition { graph, out, options } => {
            if options.durable_dir.is_some() && options.method != Method::RlCut {
                return Err("--durable-dir requires --method rlcut".to_string());
            }
            let env = build_env(&options)?;
            let geo = load_geo(&graph, &env, options.seed)?;
            let budget = geosim::cost::default_budget(
                &env,
                &geo.locations,
                &geo.data_sizes,
                options.budget_frac,
            );
            let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let start = std::time::Instant::now();
            let mut durable_note: Option<String> = None;
            let masters: Vec<geograph::DcId> = match options.method {
                Method::Natural => geo.locations.clone(),
                Method::HashPl => {
                    geobase::hashpl(&geo, &env, theta, profile.clone(), 10.0, options.seed)
                        .core()
                        .masters()
                        .to_vec()
                }
                Method::Ginger => geobase::ginger(
                    &geo,
                    &env,
                    GingerConfig::new(theta, options.seed),
                    profile.clone(),
                    10.0,
                )
                .core()
                .masters()
                .to_vec(),
                Method::RlCut => {
                    let mut config = RlCutConfig::new(budget)
                        .with_seed(options.seed)
                        .with_threads(options.threads);
                    if options.topt_ms > 0 {
                        config = config.with_t_opt(Duration::from_millis(options.topt_ms));
                    }
                    if let Some(dir) = &options.durable_dir {
                        let (masters, note) =
                            durable_partition(dir, &geo, &env, config, &options, profile.clone())?;
                        durable_note = Some(note);
                        masters
                    } else {
                        rlcut::partition(&geo, &env, profile.clone(), 10.0, &config)
                            .state
                            .core()
                            .masters()
                            .to_vec()
                    }
                }
            };
            let overhead = start.elapsed();
            // Methods produce the masters, but the final scoring state is
            // still built from them — keep any defect (a baseline emitting
            // an out-of-range DC) a typed error rather than a panic.
            let state = HybridState::try_from_masters(&geo, &env, masters, theta, profile, 10.0)
                .map_err(|e| format!("{:?} produced an invalid plan: {e}", options.method))?;
            let obj = state.objective(&env);
            let mut report = format!(
                "method        : {:?}\nvertices/edges: {} / {}\nDCs           : {}\n\
                 transfer time : {:.6e} s/iteration\ntotal cost    : ${:.6} (budget ${budget:.6}, {})\n\
                 replication λ : {:.2}\noverhead      : {:?}",
                options.method,
                geo.num_vertices(),
                geo.num_edges(),
                env.num_dcs(),
                obj.transfer_time,
                obj.total_cost(),
                if obj.total_cost() <= budget { "OK" } else { "EXCEEDED" },
                state.core().replication_factor(),
                overhead,
            );
            if let Some(note) = durable_note {
                report.push_str(&format!("\ndurable dir   : {note}"));
            }
            if let Some(path) = out {
                geopart::plan_io::save_assignment(state.core().masters(), &path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                report.push_str(&format!("\nplan written  : {path:?}"));
            }
            Ok(report)
        }
        Command::Evaluate { graph, plan, options } => {
            let env = build_env(&options)?;
            let geo = load_geo(&graph, &env, options.seed)?;
            // The checked loader validates length and every DC id against
            // the environment, naming file and line; try_from_masters keeps
            // any remaining plan defect a typed error rather than a panic.
            let masters =
                geopart::plan_io::load_assignment_for(&plan, geo.num_vertices(), env.num_dcs())
                    .map_err(|e| format!("{}: {e}", plan.display()))?;
            let theta = geograph::degree::suggest_theta(&geo.graph, 0.05);
            let profile = TrafficProfile::uniform(geo.num_vertices(), 8.0);
            let state = HybridState::try_from_masters(&geo, &env, masters, theta, profile, 10.0)
                .map_err(|e| format!("{}: {e}", plan.display()))?;
            let obj = state.objective(&env);
            let algo = geoengine::Algorithm::pagerank();
            let report = geoengine::execute_plan(&geo, &env, state.core(), None, &algo);
            Ok(format!(
                "plan          : {plan:?}\ntransfer time : {:.6e} s/iteration (static model)\n\
                 PR execution  : {:.6e} s total over {} iterations\nmovement cost : ${:.6}\n\
                 runtime cost  : ${:.6}\nreplication λ : {:.2}\nWAN/iteration : {:.1} KB",
                obj.transfer_time,
                report.transfer_time,
                report.iterations,
                obj.movement_cost,
                obj.runtime_cost,
                state.core().replication_factor(),
                state.core().wan_bytes_per_iteration() / 1024.0,
            ))
        }
        Command::Serve { store, lookups, options } => {
            let env = build_env(&options)?;
            let (server, boot) = geoserve::PlacementServer::boot_from_store(&store, &env)
                .map_err(|e| format!("{}: {e}", store.display()))?;
            let mut reader = server.reader();
            let n = reader.pin().num_vertices() as u64;
            if n == 0 {
                return Err(format!("{}: recovered an empty graph", store.display()));
            }
            // A deterministic full-period probe stream (Weyl sequence), so
            // repeated invocations route the identical lookups.
            let mut out = Vec::new();
            let mut per_dc = vec![0u64; env.num_dcs()];
            let batch_size = 1024;
            let mut batch: Vec<geograph::VertexId> = Vec::with_capacity(batch_size);
            let start = std::time::Instant::now();
            let mut served = 0u64;
            while served < lookups {
                batch.clear();
                let take = batch_size.min((lookups - served) as usize);
                for i in 0..take as u64 {
                    batch.push((((served + i).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % n) as u32);
                }
                reader.lookup_many(&batch, &mut out);
                for &m in &out {
                    per_dc[m as usize] += 1;
                }
                served += take as u64;
            }
            let elapsed = start.elapsed();
            let rate = served as f64 / elapsed.as_secs_f64().max(1e-9);
            let dist = per_dc
                .iter()
                .enumerate()
                .map(|(d, &c)| format!("{d}:{:.1}%", 100.0 * c as f64 / served.max(1) as f64))
                .collect::<Vec<_>>()
                .join(" ");
            Ok(format!(
                "store         : {}\nserved window : {} ({} replayed{})\nsnapshot      : {}\n\
                 masters fnv   : {:#018x}\nepoch         : {}\n\
                 lookups       : {served} ({rate:.0}/s)\nmaster mix    : {dist}",
                store.display(),
                boot.window,
                boot.replayed_windows,
                if boot.rolled_back { ", uncommitted tail ignored" } else { "" },
                snapshot_note(&boot.recovery),
                boot.masters_fnv,
                server.published_epoch(),
            ))
        }
    }
}

/// The snapshot a recovery started from: size and read + checksum + decode
/// time, plus anything the scan had to skip or sweep.
fn snapshot_note(report: &geodur::RecoveryReport) -> String {
    let mut note = format!(
        "{} B loaded in {:.1} ms",
        report.snapshot_bytes,
        report.snapshot_load.as_secs_f64() * 1e3
    );
    if report.snapshots_skipped > 0 {
        note.push_str(&format!(", {} undecodable skipped", report.snapshots_skipped));
    }
    if report.tmp_swept > 0 {
        note.push_str(&format!(", {} orphaned tmp swept", report.tmp_swept));
    }
    note
}

/// Runs the partition as one committed window of the durable pipeline.
/// A fresh directory is created at genesis; an existing one is recovered
/// (rolling back any uncommitted tail) and trained one window further, so
/// repeated invocations against the same directory keep refining the same
/// crash-safe placement.
fn durable_partition(
    dir: &std::path::Path,
    geo: &GeoGraph,
    env: &CloudEnv,
    config: RlCutConfig,
    options: &Options,
    profile: TrafficProfile,
) -> Result<(Vec<geograph::DcId>, String), String> {
    let t_opt = if options.topt_ms > 0 {
        Duration::from_millis(options.topt_ms)
    } else {
        Duration::from_secs(60)
    };
    let (mut durable, provenance) = if dir.join("wal").is_dir() {
        let (d, summary) =
            rlcut::DurableAdaptive::recover(dir, config, Some(options.budget_frac), env, 1)
                .map_err(|e| format!("{}: recovery failed: {e}", dir.display()))?;
        if d.geo().num_vertices() != geo.num_vertices() {
            return Err(format!(
                "{}: durable state holds {} vertices but the graph has {}",
                dir.display(),
                d.geo().num_vertices(),
                geo.num_vertices()
            ));
        }
        let note = format!(
            "recovered at window {} ({} replayed{}; snapshot {})",
            summary.next_window,
            summary.replayed_windows,
            if summary.rolled_back { ", tail rolled back" } else { "" },
            snapshot_note(&summary.report),
        );
        (d, note)
    } else {
        let d = rlcut::DurableAdaptive::create(
            dir,
            config,
            Some(options.budget_frac),
            geo.clone(),
            env,
            1,
        )
        .map_err(|e| format!("{}: {e}", dir.display()))?;
        (d, "created".to_string())
    };
    durable
        .window(env, None, &[], &[], profile, 10.0, t_opt)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let committed = durable.next_window() - 1;
    let (core, _) = durable
        .inner()
        .carried_parts()
        .ok_or_else(|| format!("{}: committed window carried no state", dir.display()))?;
    let note = format!("{} ({provenance}; window {committed} committed)", dir.display());
    Ok((core.masters().to_vec(), note))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_info() {
        let cmd = parse_args(&args(&["info", "g.txt"])).unwrap();
        assert_eq!(cmd, Command::Info { graph: PathBuf::from("g.txt") });
    }

    #[test]
    fn parse_partition_with_flags() {
        let cmd = parse_args(&args(&[
            "partition",
            "g.txt",
            "--out",
            "p.txt",
            "--method",
            "ginger",
            "--dcs",
            "4",
            "--budget-frac",
            "0.2",
            "--threads",
            "2",
            "--seed",
            "7",
        ]))
        .unwrap();
        let Command::Partition { graph, out, options } = cmd else { panic!() };
        assert_eq!(graph, PathBuf::from("g.txt"));
        assert_eq!(out, Some(PathBuf::from("p.txt")));
        assert_eq!(options.method, Method::Ginger);
        assert_eq!(options.dcs, 4);
        assert_eq!(options.budget_frac, 0.2);
        assert_eq!(options.threads, 2);
        assert_eq!(options.seed, 7);
    }

    #[test]
    fn parse_durable_dir() {
        let cmd = parse_args(&args(&["partition", "g.txt", "--durable-dir", "state.d"])).unwrap();
        let Command::Partition { options, .. } = cmd else { panic!() };
        assert_eq!(options.durable_dir, Some(PathBuf::from("state.d")));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["bogus", "g.txt"])).is_err());
        assert!(parse_args(&args(&["evaluate", "g.txt"])).is_err(), "evaluate needs --plan");
        assert!(parse_args(&args(&["partition", "g.txt", "--method", "magic"])).is_err());
        assert!(parse_args(&args(&["partition", "g.txt", "--seed"])).is_err());
        let err = parse_args(&args(&["partition", "g.txt", "--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn file_errors_name_the_offending_file() {
        let err = run(Command::Info { graph: PathBuf::from("/no/such/graph.txt") }).unwrap_err();
        assert!(err.contains("graph.txt"), "error must name the file: {err}");

        let dir = std::env::temp_dir().join("rlcut_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let env_path = dir.join("bad_env.txt");
        std::fs::write(&env_path, "us-east NaN 2.5 0.1\n").unwrap();
        let options = Options { env_file: Some(env_path), ..Options::default() };
        let err =
            run(Command::Partition { graph: PathBuf::from("unused.txt"), out: None, options })
                .unwrap_err();
        assert!(err.contains("bad_env.txt") && err.contains("line 1"), "{err}");
    }

    #[test]
    fn oversized_dcs_is_a_typed_error() {
        // --dcs past the bitmask replica-set limit must come back through
        // the CLI error plumbing, not the CloudEnv constructor's assert.
        let options = Options { dcs: geograph::MAX_DCS + 1, ..Options::default() };
        let err =
            run(Command::Partition { graph: PathBuf::from("unused.txt"), out: None, options })
                .unwrap_err();
        assert!(err.contains("--dcs") && err.contains("64"), "{err}");
    }

    fn demo_graph_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rlcut_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let g = geograph::generators::erdos_renyi(300, 2400, 3);
        geograph::io::write_edge_list(&g, &path).unwrap();
        path
    }

    #[test]
    fn info_runs() {
        let path = demo_graph_file("info.txt");
        let report = run(Command::Info { graph: path }).unwrap();
        assert!(report.contains("vertices   : 300"));
        assert!(report.contains("suggested θ"));
    }

    #[test]
    fn info_on_an_edge_free_file_is_a_report_or_typed_error() {
        let dir = std::env::temp_dir().join("rlcut_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("comments_only.txt");
        std::fs::write(&path, "# no edges here\n").unwrap();
        // Either outcome is fine; reaching this line means no panic.
        match run(Command::Info { graph: path }) {
            Ok(report) => assert!(report.contains("vertices   : 0"), "{report}"),
            Err(e) => assert!(!e.is_empty()),
        }
    }

    #[test]
    fn partition_and_evaluate_round_trip() {
        let graph = demo_graph_file("pipeline.txt");
        let plan = std::env::temp_dir().join("rlcut_cli_tests/pipeline.plan");
        let mut options = Options { topt_ms: 100, threads: 2, ..Default::default() };
        options.method = Method::RlCut;
        let report = run(Command::Partition {
            graph: graph.clone(),
            out: Some(plan.clone()),
            options: options.clone(),
        })
        .unwrap();
        assert!(report.contains("OK"), "partition over budget?\n{report}");
        let eval = run(Command::Evaluate { graph, plan, options }).unwrap();
        assert!(eval.contains("replication λ"));
        assert!(eval.contains("PR execution"));
    }

    #[test]
    fn evaluate_rejects_mismatched_plan() {
        let graph = demo_graph_file("mismatch.txt");
        let plan = std::env::temp_dir().join("rlcut_cli_tests/short.plan");
        geopart::plan_io::save_assignment(&[0, 1, 2], &plan).unwrap();
        let err = run(Command::Evaluate { graph, plan, options: Options::default() }).unwrap_err();
        assert!(
            err.contains("short.plan") && err.contains("3 entries") && err.contains("300"),
            "{err}"
        );
    }

    #[test]
    fn evaluate_rejects_out_of_range_dc_naming_file_and_line() {
        let graph = demo_graph_file("badplan_graph.txt");
        let plan = std::env::temp_dir().join("rlcut_cli_tests/badplan.plan");
        // 300 masters for the 300-vertex demo graph, one of them (vertex 7,
        // file line 9 behind the header) outside the default 8-DC env.
        let mut masters = vec![0 as geopart::DcId; 300];
        masters[7] = 9;
        geopart::plan_io::save_assignment(&masters, &plan).unwrap();
        let err = run(Command::Evaluate { graph, plan, options: Options::default() }).unwrap_err();
        assert!(
            err.contains("badplan.plan") && err.contains("line 9") && err.contains("DC id 9"),
            "{err}"
        );
    }

    #[test]
    fn durable_partition_creates_then_recovers() {
        let graph = demo_graph_file("durable.txt");
        let dir = std::env::temp_dir().join("rlcut_cli_tests/durable_state.d");
        let _ = std::fs::remove_dir_all(&dir);
        let options = Options {
            topt_ms: 100,
            threads: 2,
            durable_dir: Some(dir.clone()),
            ..Default::default()
        };

        // First invocation: genesis + window 0 committed to the WAL.
        let report =
            run(Command::Partition { graph: graph.clone(), out: None, options: options.clone() })
                .unwrap();
        assert!(report.contains("created; window 0 committed"), "{report}");
        assert!(dir.join("wal").is_dir(), "first run must leave a WAL behind");

        // Second invocation recovers the pipeline and trains window 1.
        let report =
            run(Command::Partition { graph, out: None, options: options.clone() }).unwrap();
        assert!(report.contains("recovered at window 1"), "{report}");
        assert!(report.contains("; snapshot ") && report.contains(" B loaded in "), "{report}");
        assert!(report.contains("window 1 committed"), "{report}");

        // A different graph against the same state directory is refused.
        let other = demo_graph_file("durable_other.txt");
        let big = geograph::generators::erdos_renyi(301, 2400, 3);
        geograph::io::write_edge_list(&big, &other).unwrap();
        let err = run(Command::Partition { graph: other, out: None, options: options.clone() })
            .unwrap_err();
        assert!(err.contains("301"), "vertex-count mismatch must be typed: {err}");

        // `serve` boots the committed plan out of the same directory —
        // no graph file, no retraining — and answers lookups from it.
        let report = run(Command::Serve { store: dir.clone(), lookups: 5_000, options }).unwrap();
        assert!(report.contains("served window : 2"), "{report}");
        assert!(
            report.contains("snapshot      : ") && report.contains(" B loaded in "),
            "{report}"
        );
        assert!(report.contains("lookups       : 5000"), "{report}");
        assert!(report.contains("epoch         : 1"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_serve() {
        let cmd = parse_args(&args(&["serve", "state.d", "--lookups", "250000"])).unwrap();
        match cmd {
            Command::Serve { store, lookups, .. } => {
                assert_eq!(store, PathBuf::from("state.d"));
                assert_eq!(lookups, 250_000);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn durable_dir_requires_rlcut() {
        let options = Options {
            method: Method::Ginger,
            durable_dir: Some(PathBuf::from("x.d")),
            ..Default::default()
        };
        let err =
            run(Command::Partition { graph: PathBuf::from("unused.txt"), out: None, options })
                .unwrap_err();
        assert!(err.contains("--durable-dir"), "{err}");
    }

    #[test]
    fn natural_method_has_zero_movement() {
        let graph = demo_graph_file("natural.txt");
        let options = Options { method: Method::Natural, ..Default::default() };
        let report = run(Command::Partition { graph, out: None, options }).unwrap();
        assert!(report.contains("OK"));
    }
}
