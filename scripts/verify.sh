#!/usr/bin/env bash
# Full verification gate: release build + tests, lints, formatting.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate reads the tree; it must not write it (checked at the end).
tree_state() { git status --porcelain; git diff | sha256sum; }
tree_before=$(tree_state)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one training loop, one dispatch (deleted paths stay deleted)"
# TrainerSession owns the only step loop, and its scoring fans out through
# rlcut::pool::fan_out on geograph's ScopedPool, the one place a scoped
# thread is spawned; the knobs that selected the deleted twins must not
# come back under crates/core/src/, nor a second spawn site, nor the
# uncapped one-hop focus rule beside focus_window.
if git grep -n -E 'use_worker_pool|with_worker_pool|with_rebuild_per_window|thread::scope\(|fn focus_on\(' \
    -- crates/core/src/; then
  echo "a deleted dispatch path, knob or focus rule reappeared in crates/core/src/"; exit 1
fi

echo "==> one CSR builder, one migration arm (deleted paths stay deleted)"
# build_chunked is the only count/scatter/transpose core and it sorts
# nothing: a comparison sort must not come back into the builder or its
# staged callers outside their test modules (the only comparison sort left
# on a graph path is apply_delta_in_place's, in csr.rs). migration_phase runs on the
# caller thread; the barrier-fenced pooled arm must not come back.
for f in crates/geograph/src/builder.rs crates/geograph/src/stream.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'sort_unstable'; then
    echo "a comparison sort reappeared on the build path in $f"; exit 1
  fi
done
if git grep -n 'Barrier' -- crates/core/src/trainer.rs; then
  echo "the pooled migration arm reappeared in crates/core/src/trainer.rs"; exit 1
fi

echo "==> one form per thing in the substrate (deleted forms stay deleted)"
# A Graph is u32-offset raw CSR by type: the width-tagged offset plane and
# the compressed in-memory twin must not come back, and crates/core/src/
# grows no private byte codec beside geodur's.
if git grep -n -E 'OffsetWidth|Offsets::|CompressedGraph|CompressPolicy' \
    -- crates tests examples; then
  echo "a width-tagged offset plane or the compressed graph reappeared"; exit 1
fi
if git grep -n -E 'RLCP|fn fnv1a|struct Reader' -- crates/core/src; then
  echo "a private checkpoint codec reappeared in crates/core/src/"; exit 1
fi
for f in crates/geograph/src/offsets.rs crates/geograph/src/compress.rs; do
  if [ -e "$f" ]; then
    echo "$f exists again"; exit 1
  fi
done

echo "==> one address space (deleted paths stay deleted)"
# The trainer, the placement state and the graph live in one process:
# vertex-range sharding (views, placement replicas, the shuffle layer, the
# Proposer seam that selected it), the one-variant CheckpointError it left
# behind and the uncalled mmap edge-list loader must not come back.
if git grep -n -E 'ShardView|ShardSpec|ShardPlacement|ShardRuntime|ShardCarry|ShuffleTransport|InProcessShuffle|RowSync|with_shards|partition_sharded|enum Proposer|CheckpointError|read_edge_list_mmap' \
    -- crates tests examples; then
  echo "vertex-range sharding, its seam or the mmap loader reappeared"; exit 1
fi
for f in crates/core/src/shard.rs crates/partition/src/shard.rs crates/geograph/src/shard.rs; do
  if [ -e "$f" ]; then
    echo "$f exists again"; exit 1
  fi
done

echo "==> one fault path (deleted paths stay deleted)"
# A DC outage is carried state: note_fault, then windows that re-seed
# stranded masters with geopart::reseed_stranded_masters as logged moves
# and mask the dead DCs, then DurableAdaptive::recover. The step-granular
# in-memory recovery driver, its restore point, the kernel-scored second
# re-seed rule, the one-variant TrainError and the uncalled engine
# extensions must not come back.
if git grep -n -E 'train_under_faults|TrainerCheckpoint|FaultTrainReport|on_environment_change|EvacuationReport|TrainError|EdgeWeights|count_embeddings|fn dijkstra' \
    -- crates tests examples; then
  echo "a deleted fault-recovery path or engine extension reappeared"; exit 1
fi
for f in crates/core/src/recovery.rs crates/core/src/checkpoint.rs \
    crates/engine/src/algorithms/dijkstra.rs crates/engine/src/algorithms/patterns.rs \
    crates/geograph/src/weights.rs; do
  if [ -e "$f" ]; then
    echo "$f exists again"; exit 1
  fi
done

echo "==> a DC fault is a dead set (deleted paths stay deleted)"
# Every consumer of a DC outage takes one dead flag per DC (note_fault,
# reseed_stranded_masters, validate_against_faults, evacuate, the WAL's
# WindowStart.dead, execute_plan_under_faults). The seeded fault-schedule
# simulator (degrades, price surges, flaps, pair and regional faults, the
# materialized faulty environment, per-pair loads), the uncalled training
# observer seam and the never-changed parallel-threshold knob must not come
# back.
if git grep -n -E 'FaultSchedule|FaultModel|FaultyEnv|FaultKind|FaultEvent|PairLoads|geo_region_groups|TrainingObserver|partition_with_observer|step_observed|parallel_threshold' \
    -- crates tests examples; then
  echo "a deleted fault-simulator, observer or threshold name reappeared"; exit 1
fi
for f in crates/geosim/src/faults.rs crates/core/src/observer.rs; do
  if [ -e "$f" ]; then
    echo "$f exists again"; exit 1
  fi
done

echo "==> one window path (the fault rebuild and the one-window mask stay deleted)"
# A DC fault is carried state: every window after window 0 resumes the
# carried placement, and a dead DC's re-seed is journaled moves under
# RESEED_STEP, so replay's own call to the re-seed rule must not come back;
# nor the uncalled Fennel baseline.
if git grep -n 'reseed_stranded_masters' -- crates/durable/src/replay.rs; then
  echo "replay calls the re-seed rule again instead of replaying logged moves"; exit 1
fi
if [ -e crates/baselines/src/fennel.rs ]; then
  echo "crates/baselines/src/fennel.rs exists again"; exit 1
fi

echo "==> one sample per step (the scan cap and the SR_0 knob stay deleted)"
# A step's cost is bounded by one mechanism, the sample rate (Eq 14 under
# T_opt, or a pinned rate): every step scores its whole sampled prefix, and
# agent slot i is prefix position i. The CUTTANA-style per-step scan cap,
# its rotating window and the configurable SR_0 (now
# sampling::INITIAL_SAMPLE_RATE) must not come back.
if git grep -n -E 'max_scan|scan_window|scan_start|initial_sample_rate' -- crates tests examples; then
  echo "the per-step scan cap or the SR_0 knob reappeared"; exit 1
fi

echo "==> placement state at half the bytes (the wide plane and the copies stay deleted)"
# A count row is 2·M u16 lanes with a u32 escape for the rare row that
# outgrows them, and the VertexMeta records are the placement state's only
# copy of the traffic profile and the degree class: the u32 plane, the
# is_high / profile fields beside the records and the accessor that lent
# the profile out must not come back.
if git grep -n -E 'pub\(crate\) (counts: Vec<u32>|is_high: Vec<bool>|profile: TrafficProfile)|fn profile\(&self\)' \
    -- crates/partition/src/state.rs; then
  echo "a u32 count plane or a second profile / degree-class copy reappeared in PlacementState"; exit 1
fi

echo "==> a window allocates what changed (the copying overlay and the dense pool stay deleted)"
# A delta window advances the live CSR in place (Graph::apply_delta_in_place;
# apply_delta is a clone plus that call), and the trainer's agent pool is
# indexed by position in the sampling order and grown to the prefix a step
# samples: the copying overlay, a pool sized to the graph and the per-action
# mean reward no decision read must not come back.
if git grep -n -e 'mean_reward' -e 'fn overlay_direction' -e 'AgentPool::new(geo.num_vertices()' \
    -- crates/; then
  echo "the copying overlay, a graph-sized agent pool or the mean-reward plane reappeared"; exit 1
fi

echo "==> one move kernel, one session end (deleted paths stay deleted)"
# PlacementState::evaluate_moves takes its destinations as a mask, so a
# migration proposal is a one-bit call of the kernel that scores: the
# single-destination copy and its buffers, the thread-local scratch behind
# the scratch-less entry points, the rebuilding session end and the
# one-caller partition chain must not come back.
if git grep -n -E 'fn evaluate_move_to|one_gu|fn rebuild_from_masters|fn unplace_all|TLS_SCRATCH|fn with_scratch|fn partition_from' \
    -- crates/; then
  echo "a second move kernel, a thread-local scratch or a second session end reappeared"; exit 1
fi

echo "==> exact objective arithmetic (the order-dependence workarounds stay deleted)"
# Loads are integer load units and Eq 4 is the priced moved bytes per home
# DC, so a state is a function of (graph, masters, profile): replay
# re-prices and compares instead of overriding the movement cost, a
# snapshot rebuilds its loads instead of storing them, the per-vertex
# move-cost delta has no caller, and validate_plan has no float tolerance.
if git grep -n -E 'fn override_movement_cost|fn put_loads|fn take_loads|fn vertex_move_cost' \
    -- crates/; then
  echo "an order-dependence workaround reappeared under crates/"; exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/partition/src/hybrid.rs | grep -n -E '1e-6 \*|1e-9 \*'; then
  echo "a floating-point tolerance reappeared in crates/partition/src/hybrid.rs"; exit 1
fi

echo "==> one plan per baseline (the frozen-batch forks and the ingest seam stay deleted)"
# Ginger and Geo-Cut are one sequential stream each, so no thread count
# selects a second plan; ingest threads are geograph's ScopedPool, and the
# baselines depend on neither the trainer they are compared against nor
# its locks.
if git grep -n -E 'fn ginger_with_pool|fn geocut_with_pool|IngestPool' -- crates/; then
  echo "a pooled baseline fork or the ingest-pool seam reappeared under crates/"; exit 1
fi
if grep -n -E '^rlcut' crates/baselines/Cargo.toml; then
  echo "crates/baselines/Cargo.toml depends on rlcut again"; exit 1
fi

echo "==> one fan-out (the persistent worker pool and its lock shim stay deleted)"
# The trainer scores on ScopedPool with arenas its session carries, so the
# condvar-epoch pool (its lifetime-erasing dispatch, its thread-id probes,
# the cross-window pool carry) and the parking_lot shim it needed must not
# come back.
if git grep -n -E 'WorkerPool|run_on_all|pool_thread_ids|fn pool_for' -- crates tests examples; then
  echo "the persistent worker pool or one of its probes reappeared"; exit 1
fi
if git grep -n 'parking_lot' -- '*Cargo.toml'; then
  echo "a Cargo.toml depends on parking_lot again"; exit 1
fi
if [ -e crates/shims/parking_lot ]; then
  echo "crates/shims/parking_lot exists again"; exit 1
fi

echo "==> one publication point (the hazard-pointer board stays deleted)"
# A flip swaps the board's Arc under a lock readers only ever try, and each
# PlanReader holds an Arc of the table it serves, so the serving crate needs
# no raw pointer and no guard type: the hand-rolled hazard pointers and
# TableGuard must not come back. The lookup's speed comes from reading its
# plane through a local slice, not from skipping the bounds check.
if git grep -n -E 'AtomicPtr|TableGuard|hazard' -- crates/serve/src/; then
  echo "the hazard-pointer board reappeared in crates/serve/src/"; exit 1
fi

echo "==> safe by construction (no unsafe outside the shims and the test allocator)"
# The root manifest forbids unsafe code for every member that opts into the
# workspace lints, so rustc refuses it in each lib, bin, bench and unit-test
# target; every member but the shims and tests/ (whose counting allocator is
# an unsafe GlobalAlloc impl by definition) must opt in, and no unsafe
# block, impl, fn, trait or extern may appear outside those two places.
if git grep -n -E '(^|[^_[:alnum:]])unsafe[[:space:]]*(\{|impl|fn|trait|extern)' \
    -- crates examples tests ':!crates/shims/' ':!tests/tests/counting_alloc/'; then
  echo "unsafe code reappeared outside crates/shims/ and tests/tests/counting_alloc/"; exit 1
fi
if ! awk '/^\[/ { in_lints = ($0 == "[workspace.lints.rust]") }
    in_lints && /^unsafe_code[[:space:]]*=[[:space:]]*"forbid"[[:space:]]*$/ { found = 1 }
    END { exit !found }' Cargo.toml; then
  echo "Cargo.toml's [workspace.lints.rust] no longer forbids unsafe_code"; exit 1
fi
members=$(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -o -E '"[^"]+"' | tr -d '"')
[ -n "$members" ] || { echo "no workspace members found in Cargo.toml"; exit 1; }
for m in $members; do
  case "$m" in crates/shims/* | tests) continue ;; esac
  if ! awk '/^\[/ { in_lints = ($0 == "[lints]") }
      in_lints && /^workspace[[:space:]]*=[[:space:]]*true[[:space:]]*$/ { found = 1 }
      END { exit !found }' "$m/Cargo.toml"; then
    echo "$m/Cargo.toml does not inherit the workspace lints ([lints] workspace = true)"; exit 1
  fi
done

echo "==> snapshots carry the plan, not its index (the stored count plane stays deleted)"
# A snapshot's hybrid-cut count plane is rebuilt at decode by the kernel
# from_masters uses (PlacementState::place_hybrid_edges); the decoder's
# checks on a stored plane must not come back with the plane.
if git grep -n -E 'occupied cell holds no edges|occupancy bit beyond the DC count' -- crates/; then
  echo "a stored snapshot count plane reappeared under crates/"; exit 1
fi

echo "==> the store in bits (the byte-coded wire forms stay deleted)"
# Vertex ids travel through one bit codec (geograph::wire's BitWriter and
# BitReader, rows as Rice codes): the raw 8-byte delta pairs, the varint
# out-rows of graph_v3 and the out-row graph constructor that decoded them
# must not come back.
if git grep -n -E 'put_pairs|fn pairs|from_out_rows|graph_v3' -- crates/; then
  echo "a byte-coded wire form reappeared under crates/"; exit 1
fi

echo "==> one measurement surface (the bench_* bins and their JSON stay deleted)"
# System performance is read from benchmark/ (bash benchmark/run.sh,
# benchmark/results/trajectory.jsonl) and every deterministic gate lives in
# a test: the six private-arg-parser bench bins, the tracked JSON they
# overwrote in place and the accounting types only they called must not
# come back.
if ls crates/bench/src/bin/bench_*.rs EXPERIMENTS-data/BENCH_*.json 2>/dev/null | grep .; then
  echo "a bench_* bin or an overwritten BENCH_*.json reappeared"; exit 1
fi
if git grep -n -E 'MemReport|mem_json_field' -- crates tests examples; then
  echo "the bench-only memory accounting reappeared"; exit 1
fi

echo "==> one plane in the routing table, no WCC, no community generator (deleted paths stay deleted)"
# Under the hybrid cut a plan is its master vector, so the routing table
# serves masters only: the replica and degree-class planes and the lookups
# that read them must not come back under crates/serve/src/
# (geopart::from_edge_placement is a different thing and stays). WCC through
# the engine and the stochastic-block-model generator had no caller in any
# table, workload or command and must not come back either;
# geograph::transform::weakly_connected_components stays for largest_wcc.
if git grep -n -E 'community_graph|CommunityConfig|ConnectedComponents|ComponentLabels|fn wcc\(' \
    -- crates tests examples; then
  echo "WCC through the engine or the community generator reappeared"; exit 1
fi
if git grep -n -E 'replica_set|fn edge_placement|replicas:' -- crates/serve/src/; then
  echo "a second plane or its lookup reappeared in crates/serve/src/"; exit 1
fi
for f in crates/engine/src/algorithms/wcc.rs crates/geograph/src/generators/community.rs; do
  if [ -e "$f" ]; then
    echo "$f exists again"; exit 1
  fi
done

echo "==> no orphan pub fn (an item no other unit names is pub(crate))"
# rustc's dead_code lint sees through pub(crate) but not through pub, so a
# pub fn no other compilation unit names hides dead code from the
# compiler. The units are each library's src/ (minus its bin targets), each
# bin and bench target, tests/, examples/ and benchmark/; a pub fn of a
# library under crates/ (the shims aside) or of tests/src/ must be named,
# as a word, in a file of some other unit.
all_rs=$(git ls-files -- 'crates/*.rs' 'tests/*.rs' 'examples/*.rs' 'benchmark/src/*.rs')
orphans=""
for lib in crates/*/src tests/src; do
  case "$lib" in crates/shims/*) continue ;; esac
  own=$(git ls-files -- "$lib/*.rs" | grep -v -E "^$lib/(bin/|main\.rs$)" || true)
  [ -n "$own" ] || continue
  names=$(grep -h -o -E '^[[:space:]]*pub fn [A-Za-z_][A-Za-z0-9_]*' $own | awk '{print $3}' | sort -u || true)
  [ -n "$names" ] || continue
  others=$(grep -v -x -F "$own" <<<"$all_rs")
  named=$(grep -h -o -w -F "$names" $others | sort -u || true)
  for n in $(comm -23 <(echo "$names") <(echo "$named")); do
    orphans="$orphans $lib:$n"
  done
done
if [ -n "$orphans" ]; then
  echo "pub fn named by no other compilation unit (make it pub(crate)):$orphans"; exit 1
fi

# Aim 2's number, read from the gate instead of from prose.
rust_files=$(git ls-files -- 'crates/*.rs' 'tests/*.rs' 'examples/*.rs')
echo "    $(cat $rust_files | wc -l) lines of Rust in $(echo "$rust_files" | wc -l) files under crates/ tests/ examples/"

echo "==> every named gate test still exists (cargo test -- --list)"
# Stanza 2 already ran each of these once. What a filtered re-run could
# never notice is a gate that was renamed or deleted (a filter matching
# nothing passes with "running 0 tests"), so the names are checked against
# the suite's own listing. Each comment says why the gate exists.
listed=$(cargo test -q --workspace -- --list)
require_tests() {
  for t in "$@"; do
    grep -q -E "(^|::)${t}: test\$" <<<"$listed" \
      || { echo "gate test '${t}' is gone from the suite (renamed or deleted?)"; exit 1; }
  done
}
# Pool determinism: every thread count trains the bit-identical plan and
# applies the same number of moves.
require_tests deterministic_across_thread_counts
# A window's journal replays: committed state + delta + journalled moves,
# in order, is the live carried state to the last movement-cost bit.
require_tests journaled_windows_replay_to_the_committed_state
# Incremental == rebuild, with ==: every delta window's carried state, moved
# at random and re-seeded off a dead DC under a profile that is mostly not
# whole load units, equals a from-scratch rebuild, and its work is
# proportional to the delta, not the graph. Since the rebuild and the
# snapshot decoder share one count kernel, every count, mirror mask, per-DC
# balance, gather/apply load unit and Eq 4 moved byte is also held against
# an edge-by-edge oracle that shares no code with geopart, live, rebuilt and
# after a snapshot round trip; from_masters equals the rule fed edge by
# edge. A profile value that is NaN, negative or past u32::MAX units is a
# typed error at every door into a state.
require_tests resumed_state_matches_rebuild \
  row_sequential_build_equals_the_per_edge_placement \
  profile_values_that_are_not_loads_are_typed_errors
# Replay verifies instead of trusting: a commit whose movement cost is not
# the re-priced replayed state's is ReplayDiverged, and a NaN logged in a
# window start's profile suffix is a typed plan error, not NaN loads.
require_tests replay_verifies_the_committed_movement_cost \
  nan_profile_suffix_is_a_typed_replay_error
# The scoring arenas survive across sessions and windows: a session adopts
# the carried ones, resized to its thread count, and a delta window's
# arenas only grow. A worker's panic is the typed WorkerPanicked of the
# lowest panicking index, and the next fan-out on the same arenas runs.
require_tests delta_windows_reuse_the_scoring_arenas \
  resources_carry_the_pool_across_sessions mismatched_carried_pool_is_replaced \
  panic_surfaces_as_typed_error_and_pool_survives earliest_worker_index_wins_on_multi_panic
# A durable window whose profile holds a value that is not a load is a
# typed plan error refused before its start is logged or the graph
# advances: the retried window commits and recovery rolls nothing back.
require_tests refused_profile_leaves_the_pipeline_usable
# What a window samples. Hot is the delta's endpoints plus the neighbors of
# the ones below theta, at most half the first sample: a hub's edge must
# not front the graph.
require_tests focus_on_fronts_touched_neighborhoods \
  hub_touching_delta_fronts_a_bounded_hot_set
# The ring walks every agent below theta through the sample once per
# 1/rate windows, so a quiet pipeline keeps migrating after window 0 and
# ends within 15 % of a cold partition given the same agent-steps.
require_tests ring_covers_every_low_degree_agent_in_one_over_rate_windows \
  quiet_pipeline_keeps_converging
# The counting sort is the comparison sort's permutation (ties by id).
require_tests counting_order_equals_the_comparison_sort
# Crash recovery: a multi-window durable run (with and without snapshots,
# each of which rolls the log to a new segment) is rebuilt as it stood at
# every record boundary, seeded mid-record offsets of whichever segment
# was the tail, and between each snapshot's rename and the roll; every
# recovery must equal the uninterrupted run at that boundary plane for
# plane: masters, every count, mirror mask and per-DC balance, stage load
# and moved byte, and the movement cost to the last f64 bit. Behind the
# roll, the snapshot prune deletes every segment replay can no longer reach.
require_tests kill_at_every_record_boundary_and_mid_record \
  snapshots_roll_the_log_so_the_prune_frees_it
# A dead DC stays dead until the all-clear: windows K … K + 5 after a noted
# fault hold no master and no replica there, new vertices homed there
# included, across a kill and recovery by replay or by a snapshot cut inside
# the span (the mask rides in the snapshot's trainer slot). And a delta
# that does not fit the carried state is a typed error that keeps it.
require_tests dead_dc_stays_dead_across_windows_and_recovery \
  rejected_delta_keeps_the_carried_state
# The ring's cursor is the window index and is not logged: recovery at
# every committed boundary, then the rest of the stream, must end on the
# uninterrupted run's plan to the bit. And the snapshot cadence counts
# windows since the last snapshot across a restart.
require_tests recovery_at_every_boundary_continues_the_ring_bit_exactly \
  recovery_keeps_the_snapshot_cadence
# A window start's run-coded profile suffix declares its length: one past
# what the replayed graph justifies is Malformed before it is allocated,
# and a segment written before the run coding (v1) or before the delta's
# Rice-coded rows (v2) is a typed version error.
require_tests oversized_run_is_refused_before_it_is_expanded \
  older_format_version_is_a_typed_error
# The WAL's frame scanner reads through the bounds-checked wire::Reader:
# every header fault keeps its typed reason (zero-length, short, magic,
# checksum, sequence), as a torn tail, a truncated interior segment and a
# corrupt record keep theirs.
require_tests every_header_fault_keeps_its_reason zero_length_segment_rejected \
  truncated_interior_segment_rejected
# Cutting a snapshot streams a borrowed view of the live state: under a
# counting allocator snapshot_now on a 60k-vertex graph stays below 512 KiB
# above its entry watermark (a clone + staged blob is >2x the state), and
# the snapshot costs <= 1.5 B per graph edge (measured 1.481; 2.130 with
# varint out-rows, 2.81 with the count plane stored, 15.8 in the dense
# pre-v3 layout).
require_tests snapshot_now_allocates_a_buffer_not_a_copy_of_the_state
# The bit codec round-trips and re-encodes to the same bytes: random rows
# (empty, one id, every id, ids up to n - 1), random field sequences with
# widths 0, 31 and 32, and DC-id planes at M in {1, 2, 8, 64}. Every value
# has one accepted form: a Rice parameter other than the derived one, set
# padding bits, a delta source gap of 0, an empty delta row and a unary run
# past its bound are typed Malformed errors; a flipped bit never decodes
# to the same graph; graph, snapshot and WAL versions before the bit
# layout are typed errors.
require_tests row_wire_round_trip bit_fields_round_trip dcs_wire_round_trip \
  rows_take_only_the_derived_rice_parameter_and_zero_padding \
  malformed_deltas_rejected corrupt_length_prefix_is_truncation_not_alloc \
  structural_corruption_rejected graph_truncations_and_bit_flips_never_panic \
  older_graph_layouts_are_a_typed_error malformed_master_rejected
# The placement section is hostile input: a vertex or DC count that is not
# the decoded geo's, a master >= M or set padding in the masters or is_high
# section is a typed Malformed before any count is derived; a version-2,
# -3, -4 or -5 snapshot is a typed UnsupportedVersion that load_latest skips.
require_tests hostile_placement_sections_rejected \
  older_snapshot_versions_are_typed_and_skipped
# Recovering a durable store against a CloudEnv other than the one it was
# created under must be a typed EnvMismatch error, never a silent recovery.
require_tests recovering_with_a_different_env_is_a_typed_error
# An analytics job whose plan uses a DC that goes dark aborts at that round,
# and the rounds it ran are the healthy run's to the bit.
require_tests outage_of_hosting_dc_aborts_the_round
# The serving layer's contract: every response is served from exactly one
# published epoch across concurrent plan flips, a DC killed mid-traffic
# never yields a dead-master response after the evacuation epoch, the
# trainer's fault window after that evacuation publishes no master on the
# dead DC (and its carried plan holds no master or replica there), and a
# daemon rebooted from the DurableStore serves bit-exact masters without
# retraining. A table is its master plane, one byte a vertex, and it
# routes exactly as the placement it snapshots and the trainer's re-seed. A
# fault report check_fault_report refuses (wrong length, every DC dead) is
# a typed ServeError::Plan and publishes nothing.
require_tests every_response_matches_exactly_one_published_epoch \
  evacuation_mid_traffic_never_serves_a_dead_master \
  fault_window_after_evacuation_never_publishes_a_dead_master \
  boot_from_store_matches_the_live_server_bit_exactly \
  table_mirrors_the_placement_it_snapshots evacuation_reroutes_exactly_like_the_trainer_reseed \
  refused_fault_report_publishes_nothing
# A reader never waits on the board's lock: while a publisher holds it, a
# pin serves the whole epoch the reader holds and counts one flip retry. A
# displaced table lives exactly as long as a reader holds it.
require_tests a_pin_never_waits_for_the_publisher \
  a_displaced_table_is_freed_at_its_last_readers_next_pin
# A batched lookup keeps its bounds check: a key past the table panics on
# the table and through a reader, so no unchecked or masked index returns.
require_tests lookup_many_panics_on_a_key_past_the_table \
  reader_lookup_panics_on_a_key_past_the_table
# The one CSR builder must equal a naive push-sort-dedup oracle that shares
# no code with it.
require_tests build_core_matches_naive_oracle
# The R-MAT sampler is branch-free and bit-identical to the branchy level
# loop it replaced: both generator streams are pinned to that loop, inlined
# verbatim, and a config whose weights or noise the sampler would silently
# floor or flip is refused.
require_tests legacy_rmat_unchanged_by_sampler_extraction \
  rmat_chunks_match_the_branchy_sampler negative_quadrant_weight_is_rejected \
  non_finite_quadrant_weight_is_rejected nan_noise_is_rejected \
  noise_outside_the_unit_interval_is_rejected
# The substrate's byte budgets on the LJ analog (exact for a seed): CSR
# <= 9.0 B per directed edge (u32 offsets, measured 8.62; usize offsets
# measured 9.25+), streamed build peak <= 1.25x the final CSR (no O(E)
# staging copy).
require_tests lj_analog_ingest_stays_inside_its_byte_budgets
# The same build peak, measured: under a counting allocator the streamed
# build's peak heap on the LJ analog stays <= 1.25x the CSR it returns
# (measured 1.047x, the dedup pass's shrink counted as a copy), and it is
# the same at one and at two threads.
require_tests streamed_build_peak_heap_stays_inside_its_budget
# The placement state's byte budget on the same graph: <= 4.5 B per edge
# over 8 DCs (u16 count rows + one 24-byte meta record + a master, 57 B a
# vertex; measured 4.42, 7.59 with u32 rows and the profile and degree
# classes copied beside the records). A row past u16::MAX escapes to u32
# lanes, keeps every count through moves, deltas and a snapshot round
# trip, and equals a rebuild by value.
require_tests lj_analog_placement_state_stays_inside_its_byte_budget \
  rows_past_u16_escape_to_u32_lanes
# A delta window allocates what changed: under a counting allocator, every
# 400-insert window at rate 0.05 x 2 past the first delta window on a 60 k-
# vertex graph stays below 1/8 of the CSR above its entry watermark
# (measured 0.089x; a second CSR and a graph-sized agent pool read 1.46x).
# The in-place overlay equals a from-scratch build of the edited edge set
# over random streams and its edge cases, and the agent pool holds the
# sampled prefix, not the graph.
require_tests delta_window_allocates_neither_a_csr_nor_a_dense_pool \
  in_place_overlay_matches_a_scratch_build in_place_overlay_edge_cases_match_a_scratch_build \
  agent_pool_holds_the_sampled_prefix_not_the_graph
# One kernel: a random destination mask, evaluated on an arena a full
# sweep of another vertex just dirtied, equals the full sweep's slots bit
# for bit, and so does every one-bit (single-destination) call. One session
# end: a partition whose best step precedes its last ends on the masters
# the deleted from-scratch rebuild returned, by applying moves.
require_tests batched_evaluation_is_bitwise_sequential \
  best_before_last_partition_keeps_its_masters
# Train only what can change: the kernel's projection over just the lanes
# a move touches equals the dense projection it replaced (kept as a test
# oracle) bit for bit at M = 2, 3, 8 and 64; every accept bit the score
# phase hands migration equals a full evaluation; carrying a no-move
# step's verdicts trains what re-scoring trains, and an evacuation drops
# them; a session builds its LPT groups once per sampled prefix; a
# trained plan still passes check_consistency.
require_tests sparse_lanes_equal_the_dense_oracle clean_verdicts_equal_full_evaluation \
  no_move_carry_equals_rescoring lpt_groups_are_built_once_per_prefix \
  incremental_state_stays_consistent
# Re-price, don't rebuild: every post-accept verdict re-priced from cached
# lane deltas equals a full evaluation at M = 2, 3, 8 and 64, priced and
# unpriced, on a cleaned graph and on a verbatim multigraph (a staleness
# guard that ignores edge multiplicity fails it); the step counters are
# bit-stable at one and two threads. Ingest through per-worker planes keeps
# the typed StreamMismatch at one, two and four threads.
require_tests repriced_verdicts_equal_full_evaluation \
  step_counters_are_bit_stable_across_thread_counts \
  a_second_pass_that_differs_is_a_typed_error
# One FNV-1a (geograph::wire::fnv1a) behind the WAL, the snapshot, the
# commit records' masters hash and the plan file: the header save_assignment
# writes for a fixed plan is pinned, so the on-disk plan format is unmoved.
require_tests header_line_is_pinned
# One plan per baseline: run_all_methods at one and two threads gives every
# method but RLCut (wall-clock T_opt) the same plan, and the sequential
# Ginger masters and Geo-Cut edge DCs at seed 42 stay pinned.
require_tests baseline_plans_ignore_the_thread_count

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> fault-window smoke run (exp6)"
cargo run --release -p geobench --bin exp6_faults -- --scale 0.0003 --seed 42 --threads 2

echo "==> move-evaluation kernel, post-accept re-price and reader lookup micro-bench smoke runs"
cargo bench -p geobench --bench micro -- evaluate_all_moves_tw8dc
cargo bench -p geobench --bench micro -- evaluate_all_moves_low_degree
cargo bench -p geobench --bench micro -- migrate/post_accept
cargo bench -p geobench --bench micro -- serve/lookup_many/reader

echo "==> the tree is as the gate found it"
if [ "$(tree_state)" != "$tree_before" ]; then
  echo "verify.sh changed or left behind files:"; git status --porcelain; exit 1
fi

echo "verify: OK"
