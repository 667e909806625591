//! End-to-end analysis-query latency on a prebuilt index —
//! backing the paper's headline claim that "RASED queries are always
//! supported in the order of milliseconds, regardless of how large is the
//! query temporal window".

use rased_bench::harness::{BenchmarkId, Harness};
use rased_bench::{bench_dir, one_cell_query, Workload};
use rased_core::{
    AnalysisQuery, CacheConfig, GroupDim, IoCostModel, QueryEngine, TemporalIndex,
};
use rased_temporal::{Date, DateRange};

fn window(w: &Workload, years: i32) -> DateRange {
    let end = w.range.end();
    DateRange::new(Date::new(end.year() - years + 1, 1, 1).expect("valid"), end)
}

fn bench_query_latency(c: &mut Harness) {
    let w = Workload::years(4, 200, 0xBE4C);
    let dir = bench_dir("crit-query");
    rased_bench::build_index(&dir.file("index"), &w, 4, CacheConfig::disabled(), IoCostModel::free())
        .expect("build index");
    let index = TemporalIndex::open(
        &dir.file("index"),
        w.schema,
        4,
        CacheConfig { slots: 200, ..CacheConfig::paper_default() },
        IoCostModel::free(),
    )
    .expect("open");
    index.warm_cache().expect("warm");
    let engine = QueryEngine::new(&index);

    let mut group = c.benchmark_group("one_cell_query");
    for years in [1i32, 2, 4] {
        let q = one_cell_query(window(&w, years));
        group.bench_with_input(BenchmarkId::from_parameter(years), &q, |b, q| {
            b.iter(|| engine.execute(q).expect("query"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("grouped_query");
    for years in [1i32, 4] {
        let q = AnalysisQuery::over(window(&w, years))
            .group(GroupDim::Country)
            .group(GroupDim::ElementType);
        group.bench_with_input(BenchmarkId::from_parameter(years), &q, |b, q| {
            b.iter(|| engine.execute(q).expect("query"))
        });
    }
    group.finish();

    // Daily time series over a year: the most cube-hungry query shape.
    let mut group = c.benchmark_group("daily_timeseries");
    group.sample_size(20);
    let q = AnalysisQuery::over(window(&w, 1))
        .group(GroupDim::Country)
        .group(GroupDim::Date(rased_temporal::Granularity::Day));
    group.bench_function("1y", |b| b.iter(|| engine.execute(&q).expect("query")));
    group.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_query_latency(&mut h);
}
