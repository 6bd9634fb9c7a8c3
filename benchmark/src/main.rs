//! `pipeline-bench`: one workload per process.
//!
//! ```text
//! pipeline-bench --workload <name> --seconds <s> --work-dir <dir>
//!                [--seed 42] [--trace 0|1] [--smoke]
//! ```
//!
//! A run is one or more *rounds*. A round sets up from the seed and drives
//! the whole pipeline once over a fixed amount of work, about 3 s of
//! measured stages on a quiet 2-core host; a further round is run only
//! while a whole one still fits in `--seconds`. Times are medians over
//! rounds or percentiles over the pooled samples; counts must repeat
//! exactly from round to round.
//!
//! `--trace 0` runs the production composition and prints the end-to-end
//! metrics; `--trace 1` alternates production and unrolled rounds and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod host;
mod metrics;
mod pipeline;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use host::Host;
use metrics::Metric;
use pipeline::{extra_reading, run_round, ExtraReading, Ops, Round};
use workload::Workload;

/// Readings an untraced run takes of set-up time and of the reader's
/// fastest pass: one in every round, and then extra ones from the seed alone
/// until there are this many, whatever number of rounds the host's speed
/// allowed. They are the two wall-clock readings that carry a bound; each
/// metric is the fastest of its readings, and the extra ones spread over
/// the seconds after the rounds find a quiet moment that one round's may
/// not.
const READINGS: usize = 9;
/// Share of a delta window no layer span may leave unaccounted.
const MAX_RESIDUAL: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (42u64, None, false, false);
    let mut work_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = Some(
                    value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = if smoke { workload.smoke() } else { workload };
    let seconds = seconds.ok_or("--seconds is required")?;
    let work_dir = work_dir.ok_or("--work-dir is required")?;
    Ok(Args { workload, seed, seconds, trace, smoke, work_dir })
}

/// Runs rounds of `args.workload`: one, and then more while a whole
/// further one fits in the budget. Returns the production rounds, with
/// `--trace 1` the unrolled round run after each, and the extra readings.
fn run_rounds(args: &Args, ops: &mut Ops) -> (Vec<Round>, Vec<Round>, Vec<ExtraReading>) {
    let dir = args.work_dir.join(format!("{}-{}", args.workload.name, std::process::id()));
    let (mut production, mut unrolled) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    loop {
        let before = measured;
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let store = dir.join(format!("round-{}", production.len() + unrolled.len()));
            let _ = std::fs::remove_dir_all(&store);
            std::fs::create_dir_all(&store).expect("create the store directory");
            let round = run_round(&args.workload, args.seed, &store, traced, ops);
            let _ = std::fs::remove_dir_all(&store);
            measured += round.measured_s;
            if traced { &mut unrolled } else { &mut production }.push(round);
        }
        // A smoke run is one round whatever the budget.
        if args.smoke || measured + (measured - before) > args.seconds {
            break;
        }
    }
    // After the rounds, so that their memory reading is not disturbed.
    let mut extra = Vec::new();
    while !args.trace && !args.smoke && production.len() + extra.len() < READINGS {
        extra.push(extra_reading(&args.workload, args.seed, &dir.join("extra"), ops));
    }
    let _ = std::fs::remove_dir(&dir);
    (production, unrolled, extra)
}

/// Fixed work: every round must end in the same masters after every
/// window and report the same counts, whichever composition drove it.
fn check_repeats(rounds: &[&Round], ops: &mut Ops) {
    let first = rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        ops.check(r.fnv == first.fnv, || {
            format!("round {i}: per-window masters FNV sequence differs from round 0")
        });
        ops.check(r.counters.exact() == first.counters.exact(), || {
            format!(
                "round {i}: counts differ from round 0: {:?} vs {:?}",
                r.counters.exact(),
                first.counters.exact()
            )
        });
    }
}

fn write_trace(args: &Args, round: &Round) {
    let path = args.work_dir.join(format!("trace-{}.json", args.workload.name));
    let spans = round.tracer.as_ref().expect("traced round").to_json();
    if let Err(e) = std::fs::write(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn result_json(ops: &Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(Ops, Vec<Metric>), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let host = Host::probe(&args.work_dir);
    let w = &args.workload;
    if host.nproc < w.threads() {
        return Err(format!(
            "{} runs {} threads at once and this host has {} CPUs",
            w.name,
            w.threads(),
            host.nproc
        ));
    }
    println!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"threads\": {}, \"smoke\": {}}}",
        host.to_json(),
        w.name,
        args.seed,
        w.threads(),
        args.smoke
    );

    let mut ops = Ops::default();
    let (production, unrolled, extra) = run_rounds(args, &mut ops);
    let all: Vec<&Round> = production.iter().chain(&unrolled).collect();
    check_repeats(&all, &mut ops);

    let metrics = if args.trace {
        write_trace(args, unrolled.last().expect("a traced run has an unrolled round"));
        metrics::per_layer(&production, &unrolled)
    } else {
        metrics::end_to_end(&production, &extra)
    };
    let (windows, batches) = metrics::sample_counts(&production, &unrolled);
    if args.trace {
        let residual = metrics.iter().find(|m| m.name == "trace.residual_frac").map(|m| m.value);
        ops.check(residual.is_some_and(|r| r <= MAX_RESIDUAL), || {
            format!("trace residual {residual:?} over {MAX_RESIDUAL}")
        });
    }
    ops.check(metrics.iter().all(|m| m.value.is_finite()), || {
        "a metric is not a finite number".to_string()
    });

    println!(
        "# {} seed {}: {} production + {} unrolled rounds, {:.1} s measured",
        w.name,
        args.seed,
        production.len(),
        unrolled.len(),
        all.iter().map(|r| r.measured_s).sum::<f64>(),
    );
    if args.trace {
        // A tail is the named percentile only when at least ten samples lie
        // beyond it; otherwise the highest percentile that has them.
        println!(
            "# window_p95_ms is the {} of {windows} windows; lookup_batch_p99_us the {} and \
             geoserve.reader.batch_p999_us the {} of {batches} timed batches",
            stats::tail_quantile(windows, stats::P95).0,
            stats::tail_quantile(batches, stats::P99).0,
            stats::tail_quantile(batches, stats::P999).0,
        );
    }
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<44} {:>16}", "ops_attempted", ops.attempted);
    println!("{:<44} {:>16}", "ops_failed", ops.failed);
    for failure in &ops.failures {
        println!("FAILED: {failure}");
    }
    Ok((ops, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((ops, metrics)) => {
            let sane: Vec<Metric> = metrics
                .into_iter()
                .map(|m| Metric { value: if m.value.is_finite() { m.value } else { 0.0 }, ..m })
                .collect();
            println!("{}", result_json(&ops, &sane));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipeline-bench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
pub mod tests_support {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One production and one unrolled round of a tiny churn workload.
    pub fn smoke_round_pair() -> (Vec<Round>, Vec<Round>, Ops) {
        let w = Workload { scale: 0.001, lookup_batches: 500, ..workload::WORKLOADS[2].smoke() };
        // Tests run on parallel threads: one directory per call.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"))
            .join(format!("test-{}-{call}", std::process::id()));
        let mut ops = Ops::default();
        let mut rounds = [false, true].map(|traced| {
            let store = dir.join(format!("{traced}"));
            let _ = std::fs::remove_dir_all(&store);
            std::fs::create_dir_all(&store).unwrap();
            vec![run_round(&w, 42, &store, traced, &mut ops)]
        });
        let _ = std::fs::remove_dir_all(&dir);
        let unrolled = std::mem::take(&mut rounds[1]);
        (std::mem::take(&mut rounds[0]), unrolled, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_passes_every_check_in_both_compositions() {
        let (production, unrolled, mut ops) = tests_support::smoke_round_pair();
        check_repeats(&[&production[0], &unrolled[0]], &mut ops);
        assert_eq!(ops.failed, 0, "{:?}", ops.failures);
        assert!(ops.attempted > 500);
        assert_eq!(production[0].fnv.len(), production[0].window_ns.len() + 1);
        let layers = metrics::per_layer(&production, &unrolled);
        let residual = layers.iter().find(|m| m.name == "trace.residual_frac").unwrap().value;
        assert!(residual <= MAX_RESIDUAL, "residual {residual}");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let ops = Ops { attempted: 3, failed: 0, failures: Vec::new() };
        let line = result_json(&ops, &[Metric { name: "setup_s", unit: "s", value: 0.25 }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
