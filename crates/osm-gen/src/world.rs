//! The synthetic world atlas: country polygons with activity weights.

use crate::rng::{Rng, Zipf};
use rased_geo::{BBox, Point, Polygon, PolygonIndex};
use rased_osm_model::{CountryId, CountryResolver, CountryTable};

/// Configuration of the synthetic world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of countries (zones of the country table are not given
    /// territory; they are aggregates).
    pub n_countries: usize,
    /// Zipf exponent for editing-activity skew across countries.
    pub activity_skew: f64,
    /// RNG seed for the polygon jitter.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig { n_countries: 60, activity_skew: 1.0, seed: 0xA71A5 }
    }
}

/// One country: its id, territory polygon, and activity weight.
#[derive(Debug, Clone)]
pub struct CountryZone {
    pub id: CountryId,
    pub polygon: Polygon,
    /// Probability mass of edits landing in this country.
    pub activity: f64,
}

/// The synthetic world: a grid of jittered country rectangles over the
/// inhabited latitudes, plus a Zipf activity distribution.
///
/// Real country shapes are irrelevant to RASED's backend — only the
/// *mapping* from coordinates to countries matters — so rectangles with
/// perturbed corners exercise the same point-in-polygon and bbox-center
/// code paths the real atlas would.
pub struct WorldAtlas {
    countries: Vec<CountryZone>,
    index: PolygonIndex<CountryId>,
    zipf: Zipf,
}

impl WorldAtlas {
    /// Generate the atlas.
    pub fn generate(config: &WorldConfig) -> WorldAtlas {
        assert!(config.n_countries >= 1);
        let mut rng = Rng::new(config.seed);
        let n = config.n_countries;
        // Grid layout over lat −60°..70°, lon −180°..180°.
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let lat_lo = -60.0f64;
        let lat_hi = 70.0f64;
        let lon_lo = -180.0f64;
        let lon_hi = 180.0f64;
        let cell_h = (lat_hi - lat_lo) / rows as f64;
        let cell_w = (lon_hi - lon_lo) / cols as f64;

        let zipf = Zipf::new(n, config.activity_skew);
        let mut countries = Vec::with_capacity(n);
        for i in 0..n {
            let r = i / cols;
            let c = i % cols;
            // Shrink each cell a little so neighbors never overlap, and
            // jitter the inset so borders are not axis-identical.
            let inset_lat = cell_h * (0.05 + 0.05 * rng.f64());
            let inset_lon = cell_w * (0.05 + 0.05 * rng.f64());
            let bbox = BBox::from_deg(
                lat_lo + r as f64 * cell_h + inset_lat,
                lon_lo + c as f64 * cell_w + inset_lon,
                lat_lo + (r + 1) as f64 * cell_h - inset_lat,
                lon_lo + (c + 1) as f64 * cell_w - inset_lon,
            );
            countries.push(CountryZone {
                id: CountryId(i as u16),
                polygon: Polygon::rect(bbox),
                activity: zipf.mass(i),
            });
        }
        let index =
            PolygonIndex::build(countries.iter().map(|z| (z.polygon.clone(), z.id)).collect());
        WorldAtlas { countries, index, zipf }
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
    pub fn sample_country(&self, rng: &mut Rng) -> CountryId {
        CountryId(self.zipf.sample(rng) as u16)
    }

    /// A uniformly random point inside a country's territory.
    ///
    /// Panics on an id this atlas did not issue.
    pub fn random_point_in(&self, id: CountryId, rng: &mut Rng) -> Point {
        #[expect(clippy::expect_used, reason = "country ids come from this atlas; another is a caller bug")]
        let zone = self.zone(id).expect("valid country id");
        let b = zone.polygon.bbox();
        // Rectangular territories: any bbox point is inside. (Kept general:
        // retry for non-rectangular future shapes.)
        for _ in 0..64 {
            let p = Point::new(
                rng.range_i32(b.min_lat7, b.max_lat7),
                rng.range_i32(b.min_lon7, b.max_lon7),
            );
            if zone.polygon.contains(p) {
                return p;
            }
        }
        b.center()
    }

    /// A [`CountryTable`] covering this atlas (prefix of the real country
    /// list with matching cardinality).
    pub fn country_table(&self) -> CountryTable {
        CountryTable::with_cardinality(self.countries.len())
    }
}

impl CountryResolver for WorldAtlas {
    fn locate7(&self, lat7: i32, lon7: i32) -> Option<CountryId> {
        self.index.locate(Point::new(lat7, lon7))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    !x.polygon.bbox().intersects(&y.polygon.bbox()),
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
            assert_eq!(x.polygon.bbox(), y.polygon.bbox());
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
