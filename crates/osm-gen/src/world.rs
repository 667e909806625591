//! The synthetic world atlas: country rectangles with activity weights.

use crate::rng::{Rng, Zipf};
use rased_geo::{BBox, GridSpec, Point};
use rased_osm_model::{CountryId, CountryResolver, CountryTable};

/// The inhabited band the atlas grid covers, in degrees.
const LAT_LO: f64 = -60.0;
const LAT_HI: f64 = 70.0;
const LON_LO: f64 = -180.0;
const LON_HI: f64 = 180.0;

/// Configuration of the synthetic world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of countries (zones of the country table are not given
    /// territory; they are aggregates).
    pub n_countries: usize,
    /// Zipf exponent for editing-activity skew across countries.
    pub activity_skew: f64,
    /// RNG seed for the inset jitter.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig { n_countries: 60, activity_skew: 1.0, seed: 0xA71A5 }
    }
}

/// One country: its id, territory, and activity weight.
#[derive(Debug, Clone)]
pub struct CountryZone {
    pub id: CountryId,
    /// The territory: an inset rectangle of the atlas grid. The field keeps
    /// its older name because `benchmark/src` reads `zone.polygon.bbox()`.
    pub polygon: BBox,
    /// Probability mass of edits landing in this country.
    pub activity: f64,
}

/// The synthetic world: a grid of country rectangles over the inhabited
/// latitudes, each inset from its grid cell by a jittered margin, plus a
/// Zipf activity distribution.
///
/// Real country shapes are irrelevant to RASED's backend — only the
/// *mapping* from coordinates to countries matters — so a point resolves
/// through the grid to the one cell whose rectangle may hold it, and the
/// margins between rectangles are ocean (no country).
pub struct WorldAtlas {
    countries: Vec<CountryZone>,
    /// Zone `i` lies in the cell of row-major index `i`.
    grid: GridSpec,
    zipf: Zipf,
}

impl WorldAtlas {
    /// Generate the atlas.
    pub fn generate(config: &WorldConfig) -> WorldAtlas {
        assert!(config.n_countries >= 1);
        let mut rng = Rng::new(config.seed);
        let n = config.n_countries;
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let cell_h = (LAT_HI - LAT_LO) / rows as f64;
        let cell_w = (LON_HI - LON_LO) / cols as f64;

        let zipf = Zipf::new(n, config.activity_skew);
        let mut countries = Vec::with_capacity(n);
        for i in 0..n {
            let r = i / cols;
            let c = i % cols;
            // Shrink each cell a little so neighbors never overlap, and
            // jitter the inset so borders are not axis-identical.
            let inset_lat = cell_h * (0.05 + 0.05 * rng.f64());
            let inset_lon = cell_w * (0.05 + 0.05 * rng.f64());
            let polygon = BBox::from_deg(
                LAT_LO + r as f64 * cell_h + inset_lat,
                LON_LO + c as f64 * cell_w + inset_lon,
                LAT_LO + (r + 1) as f64 * cell_h - inset_lat,
                LON_LO + (c + 1) as f64 * cell_w - inset_lon,
            );
            let id = CountryId(i as u16);
            countries.push(CountryZone { id, polygon, activity: zipf.mass(i) });
        }
        let extent = BBox::from_deg(LAT_LO, LON_LO, LAT_HI, LON_HI);
        let grid = GridSpec::new(extent, rows as u32, cols as u32);
        WorldAtlas { countries, grid, zipf }
    }

    /// Number of countries with territory.
    pub fn len(&self) -> usize {
        self.countries.len()
    }

    /// True when the atlas has no countries (never, per config assert).
    pub fn is_empty(&self) -> bool {
        self.countries.is_empty()
    }

    /// The zones in id order.
    pub fn countries(&self) -> &[CountryZone] {
        &self.countries
    }

    /// One zone by id.
    pub fn zone(&self, id: CountryId) -> Option<&CountryZone> {
        self.countries.get(id.index())
    }

    /// Sample a country according to the activity distribution.
    pub(crate) fn sample_country(&self, rng: &mut Rng) -> CountryId {
        CountryId(self.zipf.sample(rng) as u16)
    }

    /// A uniformly random point inside a country's territory.
    ///
    /// Panics on an id this atlas did not issue.
    pub(crate) fn random_point_in(&self, id: CountryId, rng: &mut Rng) -> Point {
        #[expect(clippy::expect_used, reason = "country ids come from this atlas; another is a caller bug")]
        let zone = self.zone(id).expect("valid country id");
        let b = zone.polygon;
        Point::new(rng.range_i32(b.min_lat7, b.max_lat7), rng.range_i32(b.min_lon7, b.max_lon7))
    }

    /// A [`CountryTable`] covering this atlas (prefix of the real country
    /// list with matching cardinality).
    pub fn country_table(&self) -> CountryTable {
        CountryTable::with_cardinality(self.countries.len())
    }
}

impl CountryResolver for WorldAtlas {
    /// O(1): the grid cell under the point names the only zone that can
    /// hold it, and that zone's rectangle decides. The cell is exact for
    /// every point of a zone: `GridSpec`'s fixed-point cell borders lie
    /// within `rows` units (1e-7° each) of the degree borders `generate`
    /// insets from, and every inset is at least 5 % of a cell.
    fn locate7(&self, lat7: i32, lon7: i32) -> Option<CountryId> {
        let p = Point::new(lat7, lon7);
        let zone = self.countries.get(self.grid.index(self.grid.cell_of(p)?))?;
        zone.polygon.contains(p).then_some(zone.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::det_proptest;
    use rased_geo::CellId;

    fn atlas() -> WorldAtlas {
        WorldAtlas::generate(&WorldConfig { n_countries: 12, activity_skew: 1.0, seed: 99 })
    }

    #[test]
    fn atlas_has_disjoint_countries() {
        let a = atlas();
        assert_eq!(a.len(), 12);
        for (i, x) in a.countries().iter().enumerate() {
            for y in &a.countries()[i + 1..] {
                assert!(
                    !x.polygon.intersects(&y.polygon),
                    "{:?} overlaps {:?}",
                    x.id,
                    y.id
                );
            }
        }
    }

    #[test]
    fn points_resolve_to_their_country() {
        let a = atlas();
        let mut rng = Rng::new(1);
        for zone in a.countries() {
            for _ in 0..20 {
                let p = a.random_point_in(zone.id, &mut rng);
                assert_eq!(a.locate7(p.lat7, p.lon7), Some(zone.id));
            }
        }
    }

    #[test]
    fn ocean_points_resolve_to_none() {
        let a = atlas();
        // The poles are outside the inhabited band.
        assert_eq!(a.locate7(Point::from_deg(89.0, 0.0).lat7, 0), None);
        assert_eq!(a.locate7(Point::from_deg(-89.0, 0.0).lat7, 0), None);
    }

    #[test]
    fn activity_masses_sum_to_one_and_skew() {
        let a = atlas();
        let total: f64 = a.countries().iter().map(|z| z.activity).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(a.countries()[0].activity > a.countries()[11].activity * 3.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = WorldConfig { n_countries: 8, activity_skew: 1.0, seed: 5 };
        let a = WorldAtlas::generate(&c);
        let b = WorldAtlas::generate(&c);
        for (x, y) in a.countries().iter().zip(b.countries()) {
            assert_eq!(x.polygon, y.polygon);
        }
    }

    det_proptest! {
        /// The grid lookup answers what a scan of every zone's rectangle
        /// answers: inside, on corners and edges, one unit past them into
        /// the inset gaps, on the grid lines between cells, beyond the
        /// atlas's latitude band and anywhere at all.
        #[test]
        fn locate7_equals_a_scan_of_every_zone(
            n in 1usize..=300,
            seed in 0u64..=u64::MAX,
            pick in 0usize..300,
            anywhere in (i32::MIN..=i32::MAX, i32::MIN..=i32::MAX),
        ) {
            let a = WorldAtlas::generate(&WorldConfig { n_countries: n, activity_skew: 1.0, seed });
            let k = pick % n;
            let b = a.countries()[k].polygon;
            let c = b.center();
            let mut points = vec![anywhere, (c.lat7, c.lon7)];
            for lat in [b.min_lat7, c.lat7, b.max_lat7] {
                for lon in [b.min_lon7, c.lon7, b.max_lon7] {
                    for (dl, dn) in [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1), (-1, -1)] {
                        points.push((lat + dl, lon + dn));
                    }
                }
            }
            let cols = a.grid.cols() as usize;
            let cell = CellId { row: (k / cols) as u16, col: (k % cols) as u16 };
            let g = a.grid.cell_bbox(cell).expect("a zone's cell is occupied");
            for lat in [g.min_lat7, g.max_lat7] {
                for lon in [g.min_lon7, c.lon7, g.max_lon7] {
                    points.push((lat, lon));
                }
            }
            for lat in [-90.0, LAT_LO - 1e-7, LAT_HI + 1e-7, 90.0] {
                points.push((Point::from_deg(lat, 0.0).lat7, c.lon7));
            }
            for (lat7, lon7) in points {
                let p = Point::new(lat7, lon7);
                let scan = a.countries().iter().find(|z| z.polygon.contains(p)).map(|z| z.id);
                assert_eq!(a.locate7(lat7, lon7), scan, "n={n} seed={seed} point {p}");
            }
        }
    }

    #[test]
    fn sampled_countries_follow_zipf() {
        let a = atlas();
        let mut rng = Rng::new(3);
        let mut counts = vec![0u32; a.len()];
        for _ in 0..10_000 {
            counts[a.sample_country(&mut rng).index()] += 1;
        }
        assert!(counts[0] > counts[6] * 2, "{counts:?}");
    }
}
