//! The Data Collection & Processing module (§V).
//!
//! Two crawlers turn OSM's published files into the eight-attribute
//! *UpdateList*:
//!
//! * the **daily crawler** joins a day's `osmChange` diff against its
//!   changeset metadata. It fills seven attributes directly; for the
//!   eighth (*UpdateType*) it "can only infer whether an update is a new
//!   or updated tuple" — modifications come out as
//!   [`UpdateType::Unclassified`]. Ways and relations carry no coordinates
//!   in diffs, so their location is the changeset bounding-box center,
//!   mapped to a country through a [`CountryResolver`](rased_osm_model::CountryResolver).
//! * the **monthly crawler** walks the full-history dump, "compares every
//!   two consecutive versions of an element", and classifies each update
//!   as create / delete / geometry / metadata — the refined records that
//!   the index's monthly rebuild ingests.
//!
//! Elements without a recognized `highway=*` tag are outside RASED's road
//! network scope and are skipped (counted in [`CrawlStats`]).

mod daily;
mod monthly;

pub use daily::DailyCrawler;
pub use monthly::MonthlyCrawler;

use rased_osm_model::UpdateType;
use std::fmt;

/// Collector error: a file-format error or I/O problem underneath.
#[derive(Debug)]
pub enum CollectError {
    Doc(rased_osm_xml::OsmDocError),
    Io(std::io::Error),
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Doc(e) => write!(f, "{e}"),
            CollectError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<rased_osm_xml::OsmDocError> for CollectError {
    fn from(e: rased_osm_xml::OsmDocError) -> Self {
        CollectError::Doc(e)
    }
}

impl From<std::io::Error> for CollectError {
    fn from(e: std::io::Error) -> Self {
        CollectError::Io(e)
    }
}

/// Why updates were skipped during a crawl — surfaced so operators can see
/// data-quality issues instead of silently losing records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Records emitted.
    pub emitted: u64,
    /// Element had no (known) `highway=*` tag — not a road update.
    pub skipped_not_road: u64,
    /// Way/relation whose changeset metadata (and thus location) is missing.
    pub skipped_no_changeset: u64,
    /// Location resolved to no country (e.g. open ocean).
    pub skipped_no_country: u64,
}

/// Accumulate one crawl's statistics into a running total (a batch run's
/// report, the streaming writer's status).
impl std::ops::AddAssign for CrawlStats {
    fn add_assign(&mut self, other: CrawlStats) {
        self.emitted += other.emitted;
        self.skipped_not_road += other.skipped_not_road;
        self.skipped_no_changeset += other.skipped_no_changeset;
        self.skipped_no_country += other.skipped_no_country;
    }
}

impl CrawlStats {
    /// Total updates inspected.
    pub fn inspected(&self) -> u64 {
        self.emitted + self.skipped_not_road + self.skipped_no_changeset + self.skipped_no_country
    }
}

/// Map an exact update type to what the daily crawler can observe — used by
/// tests and the end-to-end pipeline to compare daily output against ground
/// truth.
pub fn coarse(update: UpdateType) -> UpdateType {
    match update {
        UpdateType::Geometry | UpdateType::Metadata => UpdateType::Unclassified,
        other => other,
    }
}
