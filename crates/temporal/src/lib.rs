//! Civil (Gregorian) calendar arithmetic for RASED.
//!
//! The hierarchical temporal index of RASED (ICDE 2022, §VI-A) is organized
//! around four granularities — days, weeks, months, and years — and the level
//! optimizer (§VII-B) constantly converts between them: "is this day the
//! start of a week?", "which month cube covers Jan 2022?", "enumerate every
//! week fully contained in this range". This crate provides that arithmetic
//! with no external dependencies.
//!
//! Conventions:
//! * [`Date`] is a civil date stored as days since 1970-01-01 (the Unix
//!   epoch), proleptic Gregorian. The supported range is generous
//!   (years 1600..=9999) — far beyond OSM's 2004 inception.
//! * Weeks start on **Sunday**, matching the paper's worked example
//!   ("weeks of Jan 2, 9, 16, 23, 30" for January 2022 — all Sundays).
//! * All ranges are **inclusive** of both endpoints, mirroring the SQL
//!   `BETWEEN date1 AND date2` in the paper's query signature.

mod date;
mod period;
mod range;

pub use date::{Date, DateError, Weekday};
pub use period::{Granularity, Period};
pub use range::{DateRange, DayIter, PeriodIter};

/// The roll-up laws the planner relies on, checked over [`Period`].
#[cfg(test)]
mod hierarchy;
