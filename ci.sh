#!/bin/sh
# The tier-1 gate, runnable on a machine with no network and no registry
# cache: the workspace has zero external dependencies, so --offline --locked
# must always succeed. Benches are compiled (not run) to keep them honest.
set -eu
cd "$(dirname "$0")"

# Static analysis first; a non-zero exit fails CI before any test runs.
# rased-lint keeps the two interprocedural checks no tool provides: lock
# ranks across call edges and no blocking work reachable from the event
# loop (policy in lint.toml). Clippy owns the rest through the root
# Cargo.toml's [workspace.lints.clippy] table and clippy.toml: no
# unwrap/expect/panic/unreachable/todo/unimplemented, no unchecked
# indexing or str slicing, and no wall clock, environment or socket outside
# the files that expect them. -D warnings also fails an #[expect] whose
# lint no longer fires. Hermeticity is tests/hermetic.rs over the lockfiles.
cargo run -p rased-lint --release --offline --locked -- --workspace
cargo clippy --workspace --offline --locked -- -D warnings

cargo build --workspace --release --offline --locked --all-targets
# The frozen benchmark package compiles against this workspace's public
# surface from outside it: a refactor that breaks that surface must fail
# here, not in the benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Every test target of every crate, once, under one wall-clock budget: a
# hang in the worker pool, keep-alive loop, shutdown path or a property
# suite must fail CI as a timeout, not stall it forever. This run *is* the
# gate for each battery below — the lines that follow only add what it
# does not already do (a pinned-seed replay, the bench smoke runs).
#   serving tier:   http_parser, http_api, concurrency, failure_injection
#                   (incl. the event loop's wake tests: misses then hits
#                   on one connection, a pipelined miss+hit+miss, a lone
#                   miss on an idle server, a stalled reader reaped at
#                   write_timeout; the response cache admits a key on its
#                   second render, so each hit follows a warming request)
#   executor:       parallel_props (parallel at every thread count ==
#                   record-scan oracle), epoch_isolation
#   write path:     crash_recovery (WAL truncated at every byte boundary
#                   vs. a never-crashed oracle)
#   response cache: respcache_props (cached tier byte-identical to cold
#                   renders across epoch bumps), dettest's per-run seed
#   sharded store:  shard_props (every shard count x thread count ==
#                   single store == oracle, under a concurrent publisher),
#                   shard_recovery (a torn tail in one shard costs the
#                   others nothing)
#   spatial lattice: geo_props, lattice_props (banked viewport == grid
#                   scan == oracle, under publishes and ragged covers)
timeout 1500 cargo test --workspace -q --offline --locked

# The same cache-equivalence suite replaying a pinned seed — proves
# DETTEST_SEED replay stays wired end-to-end, not just documented.
DETTEST_SEED=20260808 timeout 120 cargo test -q --offline --locked --test respcache_props
# The cube codec property (either encoding round-trips, the borrowed view
# folds what the owned cube folds, corrupt bytes give typed errors) at a
# pinned seed, plus the 2 880-cell density-boundary case.
DETTEST_SEED=20261015 timeout 120 cargo test -q --offline --locked --test proptests cube_
# The cold-miss equivalences at a pinned seed: packed group keys round-trip
# and keep GroupKey's order, the aggregator equals a BTreeMap reference
# through fork/absorb, the incremental sparse fold equals a coords_of
# fold, and the row writer equals the renderer it replaced.
DETTEST_SEED=20261017 timeout 120 cargo test -q --offline --locked --test proptests cold_

# Bench smoke runs. Each harness exits non-zero when its gate fails, so
# these lines are regression gates, not build checks. All three gate on
# *counters* no test and no benchmark/ workload checks (serving latency
# and throughput are gated per PR by BENCHMARK.json's bounds instead):
#   fig11  parallel scaling, incl. its single-flight stampede check
#   fig14  shard scaling: a country-filtered query reading a non-owning
#          shard, or no fan-out speedup at 4 shards
#   fig15  viewport: banked and scanned rows diverging, a single-band
#          viewport reading a foreign band, a marked day falling back to
#          a scan, the month roll-up never engaging, or the warm block
#          cache failing to beat the grid-scan baseline's modeled I/O.
#          Smoke mode writes its BENCH_fig15.json into its own scratch dir
#          (full runs refresh the committed copy).
for fig in fig11_parallel_scaling fig14_shard_scaling fig15_viewport; do
    BENCH_MEASURE_MS=20 timeout 120 "./target/release/$fig"
done
