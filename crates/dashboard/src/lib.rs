//! The RASED dashboard: the User Interface module of §III.
//!
//! The demo paper's public deployment is a web dashboard over the query
//! backend. This crate provides that thin client three ways:
//!
//! * [`charts`] — terminal renderers (tables, bar charts, time series) used
//!   by the examples to reproduce the visualizations of Figures 2–5;
//! * [`json`] — a minimal JSON writer (output only; the API never parses
//!   JSON) backing the HTTP API;
//! * [`http`] — limit-enforcing HTTP/1.1 request parsing;
//! * [`metrics`] — lock-free serving-tier telemetry behind `/api/metrics`;
//! * [`admission`] — per-client fair-share admission control and global
//!   load shedding for the expensive query endpoints;
//! * [`respcache`] — an epoch-keyed, LRU-bounded cache of fully
//!   serialized responses for the expensive GETs, invalidated by publish
//!   epoch bumps and coalescing concurrent cold renders;
//! * [`server`] — an HTTP/1.1 server on `std::net` with a nonblocking
//!   accept/read/write event loop in front of a bounded worker pool,
//!   keep-alive, per-request limits and graceful shutdown, exposing
//!   `GET /api/analysis`, `GET /api/sample`, `GET /api/meta`,
//!   `GET /api/metrics`, and an embedded single-page dashboard at `/`;
//! * the `rased` CLI binary — generate / ingest / query / serve.

pub mod admission;
pub mod charts;
pub mod http;
pub mod json;
pub mod metrics;
pub mod respcache;
pub mod server;

mod api;
mod evloop;
mod poll;

pub use api::{
    form_urlencode, parse_analysis_query, parse_query_string, result_to_json, url_decode, ApiError,
};
pub use metrics::ServerMetrics;
pub use respcache::{CachedResponse, RespKey, ResponseCache};
pub use server::{DashboardServer, StopHandle};
