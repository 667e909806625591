//! Seeded request streams, one per client.
//!
//! A [`Stream`] is a pure function of `(seed, client, mix)`: the same seed
//! reproduces the same byte-identical request sequence, so two compared
//! runs can be shown (by `inputs_digest`) to have sent the same requests.
//! The one exception is the `ingest_live` reader, whose window follows the
//! newest published day and therefore depends on when the writer publishes.

use rased_core::{Date, DateRange, Rased};
use rased_osm_gen::rng::{Rng, Zipf};
use rased_osm_gen::WorldAtlas;
use std::sync::Arc;

/// What the streams draw from: codes and values the API accepts, the date
/// window that holds data, and the 64 fixed viewport boxes.
pub struct Vocab {
    pub range: DateRange,
    pub countries: Vec<String>,
    pub roads: Vec<String>,
    /// `min_lat,min_lon,max_lat,max_lon` in degrees, hottest first.
    pub boxes: Vec<String>,
}

/// Viewport boxes are 4°–40° wide and half as tall, centred on the generated
/// countries (Zipf rank 0 sits on the most active one), so hot boxes hold
/// data and covers mix interior with boundary cells. Their geometry is a
/// fixed ladder, not drawn from the seed: the tail of the viewport workload
/// is set by its largest boxes, and a seed that happened to draw more big
/// ones would read as a slower system.
const N_BOXES: usize = 64;
const ZIPF_SKEW: f64 = 1.0;

impl Vocab {
    pub fn new(system: &Rased, atlas: &WorldAtlas, range: DateRange) -> Vocab {
        let zones = atlas.countries();
        let boxes = (0..N_BOXES)
            .map(|i| {
                let centre = zones
                    .get(i % zones.len().max(1))
                    .map(|z| z.polygon.bbox().center())
                    .unwrap_or_else(|| rased_geo::Point::from_deg(0.0, 0.0));
                // 29 is coprime with 64: every width of the ladder once,
                // sizes interleaved across the popularity ranks.
                let width = 4.0 + 36.0 * ((i * 29) % N_BOXES) as f64 / (N_BOXES - 1) as f64;
                let (lat, lon) = (centre.lat(), centre.lon());
                format!(
                    "{:.2},{:.2},{:.2},{:.2}",
                    (lat - width / 4.0).max(-85.0),
                    (lon - width / 2.0).max(-179.0),
                    (lat + width / 4.0).min(85.0),
                    (lon + width / 2.0).min(179.0),
                )
            })
            .collect();
        Vocab {
            range,
            countries: system
                .countries()
                .ids()
                .filter_map(|id| system.countries().code(id).map(str::to_string))
                .collect(),
            roads: system
                .roads()
                .ids()
                .filter_map(|id| system.roads().value(id).map(str::to_string))
                .collect(),
            boxes,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A dashboard user session: tile views, drill-downs, pans, the odd
    /// `/api/meta` and `/api/sample`, over a trailing two-week window.
    Hot,
    /// Every request a distinct temporal `/api/analysis`.
    Cold,
    /// Every request a distinct `bbox=` drill-down.
    Viewport,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Analysis,
    Sample,
    Meta,
}

pub struct Request {
    pub kind: Kind,
    pub target: String,
}

pub struct Stream {
    mix: Mix,
    rng: Rng,
    vocab: Arc<Vocab>,
    client: usize,
    sent: u64,
    /// Append a cache-busting nonce to every cacheable request.
    fresh: bool,
    country_zipf: Zipf,
    road_zipf: Zipf,
    box_zipf: Zipf,
    // Hot-session state: focused country and the visible window, as day
    // offsets into `vocab.range`; `frontier` is the newest day with data.
    country: usize,
    win_lo: i64,
    win_hi: i64,
    frontier: i64,
}

const HOT_WINDOW_DAYS: i64 = 14;
const COLD_WINDOWS: [i64; 5] = [7, 30, 90, 180, 365];
const COLD_GROUPS: [&str; 5] = [
    "update,week",
    "country",
    "country,road",
    "day,update",
    "country,road,month",
];
const VIEWPORT_WINDOWS: [i64; 3] = [30, 90, 365];
const VIEWPORT_GROUPS: [&str; 3] = ["month", "day,update", "road"];

impl Stream {
    pub fn new(mix: Mix, seed: u64, client: usize, vocab: Arc<Vocab>) -> Stream {
        let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let country_zipf = Zipf::new(vocab.countries.len().max(1), ZIPF_SKEW);
        let road_zipf = Zipf::new(vocab.roads.len().max(1), ZIPF_SKEW);
        let box_zipf = Zipf::new(vocab.boxes.len().max(1), ZIPF_SKEW);
        let country = country_zipf.sample(&mut rng);
        let frontier = vocab.range.len_days() as i64 - 1;
        let mut stream = Stream {
            mix,
            rng,
            vocab,
            client,
            sent: 0,
            fresh: mix != Mix::Hot,
            country_zipf,
            road_zipf,
            box_zipf,
            country,
            win_lo: 0,
            win_hi: 0,
            frontier: 0,
        };
        stream.set_frontier(frontier);
        stream
    }

    pub fn client(&self) -> usize {
        self.client
    }

    /// Move the newest day with data (an offset into the vocabulary range)
    /// and snap the hot window's trailing edge onto it.
    pub fn set_frontier(&mut self, offset: i64) {
        self.frontier = offset.max(0);
        self.win_hi = self.frontier;
        self.win_lo = (self.win_hi - (HOT_WINDOW_DAYS - 1)).max(0);
    }

    fn date(&self, offset: i64) -> Date {
        self.vocab
            .range
            .start()
            .add_days(offset.clamp(0, i32::MAX as i64) as i32)
    }

    fn pick(items: &[String], rank: usize) -> &str {
        items.get(rank).map(String::as_str).unwrap_or("")
    }

    /// A window of `len` days at a uniform offset over the data so far.
    fn uniform_window(&mut self, len: i64) -> (Date, Date) {
        let len = len.min(self.frontier + 1);
        let lo = self.rng.range_i64(0, self.frontier + 1 - len);
        (self.date(lo), self.date(lo + len - 1))
    }

    /// Make every view of a hot session fresh, as the cold mixes always are.
    /// The `ingest_live` reader needs it: with publishes sweeping its tiles
    /// every few requests its hit ratio hovers near one half, and a median
    /// that sits on the line between the hit path and the (one loop back-off
    /// slower) miss path jumps 600 ↔ 1000 µs between runs. The price: the
    /// reader never hits, so how wide a publish invalidates does not reach
    /// its numbers; the writer's freshness probe and the traced run's
    /// `dashboard.respcache_invalidations` are what see the sweep.
    pub fn always_fresh(mut self) -> Stream {
        self.fresh = true;
        self
    }

    pub fn next_request(&mut self) -> Request {
        self.sent += 1;
        let mut req = match self.mix {
            Mix::Hot => self.next_hot(),
            Mix::Cold => self.next_cold(),
            Mix::Viewport => self.next_viewport(),
        };
        // The nonce is ignored by the query parser and part of the
        // response-cache key, so the request is a miss by construction and
        // not by the luck of the draw. `/api/meta` is never cached.
        if self.fresh && req.kind != Kind::Meta {
            req.target
                .push_str(&format!("&cb={}-{}", self.client, self.sent));
        }
        req
    }

    /// The overview tiles of the focused country over the visible window.
    fn tiles(&self) -> Request {
        Request {
            kind: Kind::Analysis,
            target: format!(
                "/api/analysis?start={}&end={}&countries={}&group=update,week",
                self.date(self.win_lo),
                self.date(self.win_hi),
                Self::pick(&self.vocab.countries, self.country),
            ),
        }
    }

    fn next_hot(&mut self) -> Request {
        match self.rng.below(100) {
            // 35%: reload the overview tiles.
            0..=34 => self.tiles(),
            // 25%: drill into one road class, daily, over the trailing week.
            35..=59 => {
                let road = Self::pick(&self.vocab.roads, self.road_zipf.sample(&mut self.rng));
                let lo = (self.win_hi - 6).max(self.win_lo);
                Request {
                    kind: Kind::Analysis,
                    target: format!(
                        "/api/analysis?start={}&end={}&countries={}&roads={road}&group=day,update",
                        self.date(lo),
                        self.date(self.win_hi),
                        Self::pick(&self.vocab.countries, self.country),
                    ),
                }
            }
            // 25%: pan — the focus switches, the window random-walks by
            // whole weeks, or the user jumps back to the newest data; then
            // the overview reloads.
            60..=84 => {
                match self.rng.below(4) {
                    0 => self.country = self.country_zipf.sample(&mut self.rng),
                    1 => self.set_frontier(self.frontier),
                    _ => {
                        let step = 7
                            * self.rng.range_i64(1, 4)
                            * if self.rng.below(2) == 0 { -1 } else { 1 };
                        let width = self.win_hi - self.win_lo;
                        self.win_lo = (self.win_lo + step).clamp(0, (self.frontier - width).max(0));
                        self.win_hi = self.win_lo + width;
                    }
                }
                self.tiles()
            }
            // 7%: vocabulary refresh.
            85..=91 => Request {
                kind: Kind::Meta,
                target: "/api/meta".to_string(),
            },
            // 8%: map sample over one of the hottest boxes.
            _ => {
                let rank = self.box_zipf.sample(&mut self.rng) % 8;
                Request {
                    kind: Kind::Sample,
                    target: sample_target(Self::pick(&self.vocab.boxes, rank), 100),
                }
            }
        }
    }

    fn next_cold(&mut self) -> Request {
        let len = COLD_WINDOWS[self.rng.below(COLD_WINDOWS.len() as u64) as usize];
        let (start, end) = self.uniform_window(len);
        let group = COLD_GROUPS[self.rng.below(COLD_GROUPS.len() as u64) as usize];
        let mut target = format!("/api/analysis?start={start}&end={end}&group={group}");
        if self.rng.below(2) == 0 {
            let n = self.rng.range_i64(1, 3);
            let picks: Vec<&str> = (0..n)
                .map(|_| {
                    Self::pick(
                        &self.vocab.countries,
                        self.country_zipf.sample(&mut self.rng),
                    )
                })
                .collect();
            target.push_str("&countries=");
            target.push_str(&picks.join(","));
        }
        Request {
            kind: Kind::Analysis,
            target,
        }
    }

    fn next_viewport(&mut self) -> Request {
        let bbox = Self::pick(&self.vocab.boxes, self.box_zipf.sample(&mut self.rng)).to_string();
        if self.rng.below(10) == 0 {
            return Request {
                kind: Kind::Sample,
                target: sample_target(&bbox, 100),
            };
        }
        let len = VIEWPORT_WINDOWS[self.rng.below(VIEWPORT_WINDOWS.len() as u64) as usize];
        let (start, end) = self.uniform_window(len);
        let group = VIEWPORT_GROUPS[self.rng.below(VIEWPORT_GROUPS.len() as u64) as usize];
        let target = format!("/api/analysis?start={start}&end={end}&bbox={bbox}&group={group}");
        Request {
            kind: Kind::Analysis,
            target,
        }
    }
}

fn sample_target(bbox: &str, limit: u32) -> String {
    let mut parts = bbox.split(',');
    let mut next = || parts.next().unwrap_or("0");
    format!(
        "/api/sample?min_lat={}&min_lon={}&max_lat={}&max_lon={}&limit={limit}",
        next(),
        next(),
        next(),
        next()
    )
}
