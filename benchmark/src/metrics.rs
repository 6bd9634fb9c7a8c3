//! The metrics, by name and unit, computed from finished rounds.
//!
//! The names and units here are the ones `BENCHMARK.json` lists (a test
//! keeps the two in step). End-to-end metrics read only the production
//! composition's clock pairs; per-layer metrics read the unrolled
//! composition's spans and the counts the program reports.

use crate::pipeline::{ExtraReading, Round};
use crate::stats::{median, quantile_or_zero, tail_quantile, P95};
use crate::trace::{self_times, Span, NO_WINDOW};
use crate::workload::{BATCH, KEY_POOL_BATCHES};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// All rounds' samples, pooled and sorted ascending.
fn pooled<T: Copy + Ord>(rounds: &[Round], f: impl Fn(&Round) -> &[T]) -> Vec<T> {
    let mut all: Vec<T> = rounds.iter().flat_map(|r| f(r).iter().copied()).collect();
    all.sort_unstable();
    all
}

fn window_seconds(r: &Round) -> f64 {
    r.window_ns.iter().sum::<u64>() as f64 / 1e9
}

/// Samples behind the percentiles: delta-window latencies pooled over the
/// production rounds, and the fewest per-batch lookup latencies any one
/// unrolled round kept.
pub fn sample_counts(production: &[Round], unrolled: &[Round]) -> (usize, usize) {
    (
        production.iter().map(|r| r.window_ns.len()).sum(),
        unrolled.iter().map(|r| r.reader.samples).min().unwrap_or(0),
    )
}

/// Set-up time: of each of its four parts the fastest of the run's
/// readings, summed. A part is tens of milliseconds and finds a quiet
/// moment of the host where the whole sequence does not.
fn setup_s(readings: &[[f64; 4]]) -> f64 {
    (0..4).map(|part| readings.iter().map(|r| r[part]).fold(f64::INFINITY, f64::min)).sum()
}

/// Lookups per second of the fastest pass over the key pool any of the
/// run's readers made - or, when none timed a whole pass (a smoke run),
/// of the first round's reader over its whole wall.
fn lookup_mops(rounds: &[Round], extra: &[ExtraReading]) -> f64 {
    let passes = rounds.iter().map(|r| r.reader.fastest_pass_s);
    let fastest = passes
        .chain(extra.iter().map(|e| e.fastest_pass_s))
        .filter(|&s| s > 0.0)
        .fold(f64::INFINITY, f64::min);
    if fastest.is_finite() {
        (KEY_POOL_BATCHES * BATCH) as f64 / fastest / 1e6
    } else {
        rounds[0].reader.lookups() as f64 / rounds[0].reader.wall_s / 1e6
    }
}

/// The end-to-end metrics, from production-composition rounds and the
/// extra readings taken after them: the ones two sets of runs of the same
/// code agree on within a tenth on a shared host. The wall-clock readings
/// that do not are in [`timings`].
pub fn end_to_end(rounds: &[Round], extra: &[ExtraReading]) -> Vec<Metric> {
    let first = &rounds[0].counters;
    let setups: Vec<[f64; 4]> = rounds
        .iter()
        .map(|r| r.setup_parts_s)
        .chain(extra.iter().map(|e| e.setup_parts_s))
        .collect();
    vec![
        metric("setup_s", "s", setup_s(&setups)),
        metric("plan_time_ratio", "ratio", first.plan_time_ratio),
        metric("store_disk_mb", "MB", first.store_bytes as f64 / 1e6),
        metric("lookup_mops", "Mlookups/s", lookup_mops(rounds, extra)),
        // The first round's: later rounds add only what the allocator does
        // not give back, by a round count that follows the host's speed.
        metric("peak_rss_mb", "MB", rounds[0].peak_rss_bytes as f64 / 1e6),
    ]
}

/// The wall-clock readings of the production composition, two clock reads
/// around each call: what a user of the pipeline waits for. On a host
/// shared with other tenants they did not repeat within a tenth, so they
/// carry no bound and are printed with the per-layer metrics.
fn timings(rounds: &[Round]) -> Vec<Metric> {
    let windows = pooled(rounds, |r| &r.window_ns);
    vec![
        metric(
            "ingest_medges_per_s",
            "Medges/s",
            per_round(rounds, |r| r.counters.raw_edges as f64 / r.ingest_s / 1e6),
        ),
        metric("partition_s", "s", per_round(rounds, |r| r.partition_s)),
        metric("window_p50_ms", "ms", quantile_or_zero(&windows, 0.50) / 1e6),
        metric(
            "window_p95_ms",
            "ms",
            quantile_or_zero(&windows, tail_quantile(windows.len(), P95).1) / 1e6,
        ),
        metric(
            "delta_kedges_per_s",
            "kedges/s",
            per_round(rounds, |r| r.counters.edge_changes as f64 / window_seconds(r) / 1e3),
        ),
        metric("recover_s", "s", per_round(rounds, |r| r.recover_s)),
        metric(
            "lookup_mean_mops",
            "Mlookups/s",
            per_round(rounds, |r| r.reader.lookups() as f64 / r.reader.wall_s / 1e6),
        ),
    ]
}

/// Spans named `name` over all `traced` rounds, delta windows only when
/// `in_windows` (window 0 is set-up and takes the rebuild path).
fn spans<'a>(
    traced: &'a [Round],
    name: &'static str,
    in_windows: bool,
) -> impl Iterator<Item = (&'a Span, u64)> + 'a {
    traced.iter().flat_map(move |r| {
        let tracer = r.tracer.as_ref().expect("traced round");
        let selfs = self_times(tracer.spans());
        let keep = move |s: &Span| {
            s.name == name && (!in_windows || (s.window != NO_WINDOW && s.window > 0))
        };
        let picked: Vec<(&Span, u64)> =
            tracer.spans().iter().zip(selfs).filter(|(s, _)| keep(s)).collect();
        picked
    })
}

/// Median duration of the spans named `name`, in `unit_ns` nanoseconds.
fn span_median(traced: &[Round], name: &'static str, in_windows: bool, unit_ns: f64) -> f64 {
    median(
        &spans(traced, name, in_windows).map(|(s, _)| s.ns() as f64 / unit_ns).collect::<Vec<_>>(),
    )
}

/// Median self time of the spans named `name`.
fn self_median(traced: &[Round], name: &'static str, in_windows: bool, unit_ns: f64) -> f64 {
    median(
        &spans(traced, name, in_windows).map(|(_, own)| own as f64 / unit_ns).collect::<Vec<_>>(),
    )
}

/// Share of the delta windows' wall that no layer span accounts for: the
/// window roots' self time (benchmark glue) over their spans. Summed over
/// the windows, not the worst window: on a shared host one descheduling
/// between two spans (it read 0.23 in one window of 800) says nothing
/// about whether the layers add up.
fn residual_frac(traced: &[Round]) -> f64 {
    let (glue, wall) = spans(traced, "window", true)
        .fold((0u64, 0u64), |(glue, wall), (s, own)| (glue + own, wall + s.ns()));
    glue as f64 / wall.max(1) as f64
}

/// The per-layer metrics, from unrolled-composition rounds (`traced`) and
/// the production rounds run beside them (`untraced`, for the overhead).
pub fn per_layer(untraced: &[Round], traced: &[Round]) -> Vec<Metric> {
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    const S: f64 = 1e9;
    let c = &traced[0].counters;
    let windows = traced[0].window_ns.len().max(1) as f64;

    let partition_s = per_round(traced, |r| r.partition_s);
    let from_masters_s = span_median(traced, "geopart.state.from_masters", false, S);
    let migrate_s = span_median(traced, "rlcut.train.migrate", false, S);
    let recover_s = per_round(traced, |r| r.recover_s);
    let (snapshot_ns, snapshot_count) = spans(traced, "geodur.snapshot.write", false)
        .fold((0u64, 0u64), |(ns, n), (s, _)| (ns + s.ns(), n + 1));
    let snapshot_bytes: u64 = traced.iter().map(|r| r.counters.snapshot_bytes).sum();
    // Medians, not means: the two compositions run minutes apart on a host
    // whose speed shifts, and a median forgives the stretches that differ.
    let median_window_ns =
        |rounds: &[Round]| quantile_or_zero(&pooled(rounds, |r| &r.window_ns), 0.50);

    let mut metrics = timings(untraced);
    metrics.extend([
        metric("lookup_batch_p99_us", "us", per_round(traced, |r| r.reader.p99_ns) / US),
        metric("geograph.stream.build_s", "s", per_round(traced, |r| r.ingest_s)),
        metric("geograph.stream.peak_over_final", "ratio", c.ingest_peak_over_final),
        metric("geograph.csr.bytes_per_edge", "B/edge", c.csr_bytes as f64 / c.csr_edges as f64),
        metric(
            "geograph.delta.from_events_ms",
            "ms",
            span_median(traced, "geograph.delta.from_events", true, MS),
        ),
        metric(
            "geograph.delta.apply_ms",
            "ms",
            span_median(traced, "geograph.delta.apply", true, MS),
        ),
        metric("geopart.state.from_masters_s", "s", from_masters_s),
        metric("geopart.state.bytes_per_edge", "B/edge", c.state_bytes as f64 / c.csr_edges as f64),
        metric(
            "geopart.state.apply_delta_ms",
            "ms",
            span_median(traced, "geopart.state.apply_delta", true, MS),
        ),
        metric("rlcut.train.score_s", "s", span_median(traced, "rlcut.train.score", false, S)),
        metric("rlcut.train.migrate_s", "s", migrate_s),
        metric("rlcut.train.migrate_share", "ratio", migrate_s / partition_s),
        metric(
            "rlcut.train.other_s",
            "s",
            self_median(traced, "rlcut.partition", false, S) - from_masters_s,
        ),
        metric("rlcut.train.agent_steps", "count", c.partition_agent_steps as f64),
        metric("rlcut.train.migrations", "count", c.partition_migrations as f64),
        metric("rlcut.window.train_ms", "ms", span_median(traced, "rlcut.window.train", true, MS)),
        metric("rlcut.window.other_ms", "ms", self_median(traced, "rlcut.window", true, MS)),
        metric("rlcut.window.migrations", "count", c.window_migrations as f64 / windows),
        metric(
            "bench.profile_build_ms",
            "ms",
            span_median(traced, "bench.profile_build", true, MS),
        ),
        metric(
            "geodur.wal.window_start_ms",
            "ms",
            span_median(traced, "geodur.wal.window_start", true, MS),
        ),
        metric("geodur.wal.batches_ms", "ms", span_median(traced, "geodur.wal.batches", true, MS)),
        metric("geodur.wal.commit_ms", "ms", span_median(traced, "geodur.wal.commit", true, MS)),
        metric("geodur.wal.bytes_per_window", "B", c.wal_bytes as f64 / windows),
        metric(
            "geodur.wal.bytes_per_delta_edge",
            "B/edge",
            c.wal_bytes as f64 / c.edge_changes.max(1) as f64,
        ),
        metric(
            "geodur.snapshot.write_ms",
            "ms",
            span_median(traced, "geodur.snapshot.write", false, MS),
        ),
        metric(
            "geodur.snapshot.mb",
            "MB",
            snapshot_bytes as f64 / snapshot_count.max(1) as f64 / 1e6,
        ),
        metric(
            "geodur.snapshot.mb_per_s",
            "MB/s",
            snapshot_bytes as f64 / 1e6 / (snapshot_ns.max(1) as f64 / S),
        ),
        metric("geodur.recover.s", "s", recover_s),
        metric("geodur.recover.replayed_windows", "count", c.replayed_windows as f64),
        metric("geodur.recover.windows_per_s", "1/s", c.replayed_windows as f64 / recover_s),
        metric(
            "geoserve.table.build_ms",
            "ms",
            span_median(traced, "geoserve.table.build", true, MS),
        ),
        metric(
            "geoserve.table.bytes_per_vertex",
            "B/vertex",
            c.table_bytes as f64 / c.table_vertices.max(1) as f64,
        ),
        metric(
            "geoserve.board.publish_us",
            "us",
            span_median(traced, "geoserve.board.publish", true, US),
        ),
        metric(
            "geoserve.reader.ns_per_key_p50",
            "ns",
            per_round(traced, |r| r.reader.p50_ns) / BATCH as f64,
        ),
        metric("geoserve.reader.batch_p999_us", "us", per_round(traced, |r| r.reader.p999_ns) / US),
        metric(
            "geoserve.reader.batch_max_us",
            "us",
            traced.iter().map(|r| r.reader.max_ns).fold(0.0, f64::max) / US,
        ),
        metric(
            "geoserve.reader.first_batch_after_flip_us",
            "us",
            per_round(traced, |r| r.reader.first_after_flip_ns) / US,
        ),
        metric(
            "geoserve.reader.flip_retries",
            "count",
            per_round(traced, |r| r.reader.flip_retries as f64),
        ),
        metric(
            "geoserve.reader.epochs_seen",
            "count",
            per_round(traced, |r| r.reader.epochs_seen as f64),
        ),
        metric("geoserve.boot_s", "s", per_round(traced, |r| r.boot_s)),
        metric("geoserve.evacuate_ms", "ms", per_round(traced, |r| r.evacuate_s * 1e3)),
        metric(
            "geoengine.pagerank.exec_s",
            "s",
            span_median(traced, "geoengine.pagerank", false, S),
        ),
        metric("geoengine.pagerank.transfer_s", "s", c.pagerank_transfer_s),
        metric("geoengine.pagerank.wan_gb", "GB", c.pagerank_wan_bytes / 1e9),
        metric("trace.residual_frac", "ratio", residual_frac(traced)),
        metric(
            "trace.overhead_frac",
            "ratio",
            median_window_ns(traced) / median_window_ns(untraced) - 1.0,
        ),
    ]);
    metrics
}

#[cfg(test)]
mod tests {
    #[test]
    fn setup_time_sums_the_fastest_reading_of_each_part() {
        let readings = [[1.0, 5.0, 2.0, 9.0], [3.0, 4.0, 1.0, 8.0], [2.0, 6.0, 3.0, 8.5]];
        assert_eq!(super::setup_s(&readings), 1.0 + 4.0 + 1.0 + 8.0);
        assert_eq!(super::setup_s(&readings[..1]), 17.0);
    }

    /// `BENCHMARK.json` must list exactly the metrics this file computes,
    /// with the same units, and the workloads `workload.rs` defines.
    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let open = start + json[start..].find('[').unwrap();
            &json[open..open + json[open..].find(']').unwrap()]
        };
        let names = |text: &str, field: &str| -> Vec<String> {
            let needle = format!("\"{field}\": \"");
            text.match_indices(&needle)
                .map(|(i, _)| {
                    let rest = &text[i + needle.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let round = crate::tests_support::smoke_round_pair();
        let e2e = super::end_to_end(&round.0, &[]);
        let layers = super::per_layer(&round.0, &round.1);
        for (key, metrics) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            let listed = section(key);
            assert_eq!(
                names(listed, "name"),
                metrics.iter().map(|m| m.name.to_string()).collect::<Vec<_>>(),
                "{key} names"
            );
            assert_eq!(
                names(listed, "unit"),
                metrics.iter().map(|m| m.unit.to_string()).collect::<Vec<_>>(),
                "{key} units"
            );
        }
        assert_eq!(
            names(section("workloads"), "name"),
            crate::workload::WORKLOADS.iter().map(|w| w.name.to_string()).collect::<Vec<_>>()
        );
    }
}
