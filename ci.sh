#!/bin/sh
# The tier-1 gate, runnable on a machine with no network and no registry
# cache: the workspace has zero external dependencies, so --offline --locked
# must always succeed.
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
# here, not in the benchmark run. --locked: so must a new crate edge that
# cargo would have to write into benchmark/Cargo.lock (a dropped edge
# passes --locked; tests/hermetic.rs catches both).
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

# Every test target of every crate, once, under one wall-clock budget: a
# hang in the worker pool, keep-alive loop, shutdown path or a property
# suite must fail CI as a timeout, not stall it forever. This run *is* the
# gate for each battery below — the lines that follow only replay pinned
# seeds. (The root's default-members make a bare `cargo test` run the
# same set.)
#   serving tier:   http_parser, http_api, concurrency, failure_injection
#                   (incl. the event loop's wake tests: misses then hits
#                   on one connection, a pipelined miss+hit+miss, a lone
#                   miss on an idle server, a stalled reader reaped at
#                   write_timeout; the response cache admits a key on its
#                   second render, so each hit follows a warming request)
#   executor:       parallel_props (parallel at every thread count ==
#                   record-scan oracle), epoch_isolation
#   write path:     crash_recovery (WAL truncated at every byte boundary
#                   vs. a never-crashed oracle; a crash after every store
#                   commit of a two-month batch, resumed day by day, vs. a
#                   never-crashed run: a_crash_between_any_two_store_commits_
#                   resumes_to_the_never_crashed_state)
#   response cache: respcache_props (cached tier byte-identical to cold
#                   renders across epoch bumps), dettest's per-run seed
#   sharded store:  shard_props (every shard count x thread count ==
#                   single store == oracle, under a concurrent publisher),
#                   shard_recovery (a torn tail in one shard costs the
#                   others nothing)
#   spatial lattice: geo_props, lattice_props (banked viewport == grid
#                   scan == oracle, under publishes and ragged covers)
#   figures:        figures_smoke (every entry of rased_bench::FIGURES at
#                   smoke scale, asserting the gates a full `figures` run
#                   checks: fig7-10's shapes, fig11's cold speedup, fig14's
#                   routing and fan-out, fig15's six viewport gates, the
#                   maintenance bounds; the planner ablation only runs)
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
