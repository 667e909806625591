//! Every figure of `rased_bench::FIGURES` at smoke scale: the gates that a
//! full `figures` run checks, computed by the same code from a small
//! workload, on every `cargo test` run.

use rased_bench::{run_figure, Scale};

fn smoke(name: &str) {
    let failures = run_figure(name, Scale::Smoke).unwrap();
    assert!(failures.is_empty(), "{name} gates failed:\n  {}", failures.join("\n  "));
}

#[test]
fn fig7_shape_more_cache_never_more_disk() {
    smoke("fig7");
}

#[test]
fn fig8_shape_extra_levels_are_cheap() {
    smoke("fig8");
}

#[test]
fn fig9_shape_each_component_helps() {
    smoke("fig9");
}

#[test]
fn fig10_shape_dbms_cost_is_constant_rased_is_not() {
    smoke("fig10");
}

#[test]
fn fig11_cold_speedup_at_four_threads() {
    smoke("fig11");
}

#[test]
fn fig14_routing_and_fan_out_speedup() {
    smoke("fig14");
}

#[test]
fn fig15_viewports_from_blocks() {
    smoke("fig15");
}

#[test]
fn maintenance_io_stays_bounded() {
    smoke("maintenance");
}

#[test]
fn planner_ablation_runs() {
    smoke("planner");
}
