//! Zones of interest (§VI-A): aggregate dimension values.
//!
//! The paper's Country dimension holds "all countries plus some selected
//! zones of interest (e.g., continents and US states)": an update in
//! Germany also counts toward the Europe zone. A [`ZoneMap`] records, per
//! country, which zone ids the update must additionally be attributed to;
//! the ingest pipeline expands records accordingly before cube building
//! (the warehouse keeps only the original row — samples are points, not
//! aggregates).
//!
//! US states are present in the country table as dimension values but
//! receive no counts from the synthetic generator (it does not model
//! sub-national boundaries); this is a documented simplification.

use crate::taxonomy::{CountryId, CountryTable};
use crate::update::UpdateRecord;
use std::collections::HashMap;

/// Continent assignment for the real country list, by country code.
/// Z-AF Africa, Z-AS Asia, Z-EU Europe, Z-NA North America, Z-OC Oceania,
/// Z-SA South America (Z-AN Antarctica holds no countries).
const CONTINENT_OF: &[(&str, &[&str])] = &[
    (
        "Z-EU",
        &[
            "DE", "FR", "GB", "IT", "PL", "ES", "NL", "AT", "CZ", "BE", "CH", "SE", "NO", "FI",
            "DK", "PT", "IE", "IS", "GR", "HU", "RO", "BG", "RS", "HR", "SI", "SK", "BA", "MK",
            "AL", "ME", "XK", "BY", "LT", "LV", "EE", "MD", "LU", "MT", "MC", "AD", "SM", "LI",
            "UA", "RU", "CY", "GI", "VA", "FO",
        ],
    ),
    (
        "Z-AS",
        &[
            "IN", "ID", "JP", "VN", "CN", "PH", "TR", "IR", "TH", "MY", "SG", "QA", "AE", "SA",
            "IQ", "SY", "IL", "JO", "LB", "PK", "BD", "LK", "NP", "MM", "KH", "LA", "KR", "KP",
            "MN", "KZ", "UZ", "TM", "KG", "TJ", "AF", "GE", "AM", "AZ", "BN", "TL", "MV", "BT",
            "OM", "YE", "KW", "BH", "PS", "TW", "HK", "MO",
        ],
    ),
    (
        "Z-NA",
        &[
            "US", "CA", "MX", "CU", "HT", "DO", "JM", "TT", "BS", "BB", "GT", "HN", "SV", "NI",
            "CR", "PA", "BZ", "GL",
        ],
    ),
    ("Z-SA", &["BR", "AR", "CO", "CL", "PE", "VE", "EC", "BO", "PY", "UY", "GY", "SR"]),
    (
        "Z-AF",
        &[
            "NG", "TZ", "CD", "ZA", "EG", "KE", "ET", "MA", "DZ", "TN", "LY", "SD", "SS", "ML",
            "NE", "TD", "MR", "SN", "GM", "GN", "GW", "SL", "LR", "CI", "GH", "TG", "BJ", "BF",
            "CM", "CF", "GA", "CG", "GQ", "AO", "ZM", "ZW", "MW", "MZ", "BW", "NA", "SZ", "LS",
            "MG", "MU", "SC", "KM", "DJ", "ER", "SO", "UG", "RW", "BI", "EH",
        ],
    ),
    (
        "Z-OC",
        &[
            "AU", "NZ", "PG", "FJ", "SB", "VU", "WS", "TO", "FM", "PW", "MH", "KI", "NR", "TV",
        ],
    ),
];

/// Per-country zone membership: expands an update's attribution to the
/// zones containing its country.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    /// `parents[country.index()]` = zone ids to also credit.
    parents: Vec<Vec<CountryId>>,
}

impl ZoneMap {
    /// No zones: every record attributes to its country only.
    pub fn none() -> ZoneMap {
        ZoneMap::default()
    }

    /// Build the continent zone map for a table: countries map to their
    /// continent when both the country and the `Z-*` zone entry are present
    /// in the table (truncated tables silently get partial coverage).
    pub fn continents(table: &CountryTable) -> ZoneMap {
        let mut by_code: HashMap<&str, CountryId> = HashMap::new();
        for (zone_code, members) in CONTINENT_OF {
            if let Some(zone_id) = table.by_code(zone_code) {
                for code in *members {
                    by_code.insert(code, zone_id);
                }
            }
        }
        let parents = table
            .ids()
            .map(|id| table.code(id).and_then(|code| by_code.get(code)).copied().into_iter().collect())
            .collect();
        ZoneMap { parents }
    }

    /// Build from explicit `(zone, members)` pairs (tests, custom regions).
    pub fn from_members(n_countries: usize, groups: &[(CountryId, &[CountryId])]) -> ZoneMap {
        let mut parents = vec![Vec::new(); n_countries];
        for (zone, members) in groups {
            for m in *members {
                if let Some(slot) = parents.get_mut(m.index()) {
                    slot.push(*zone);
                }
            }
        }
        ZoneMap { parents }
    }

    /// The zones containing `country` (empty when unmapped).
    pub fn parents(&self, country: CountryId) -> &[CountryId] {
        self.parents.get(country.index()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// True when no country has any parent zone.
    pub fn is_empty(&self) -> bool {
        self.parents.iter().all(|p| p.is_empty())
    }

    /// Expand one record into itself plus one copy per containing zone —
    /// the attribution rule for cube building.
    pub fn expand<'a>(&'a self, r: &'a UpdateRecord) -> impl Iterator<Item = UpdateRecord> + 'a {
        std::iter::once(*r).chain(
            self.parents(r.country).iter().map(move |&zone| UpdateRecord { country: zone, ..*r }),
        )
    }

    /// Expand a batch of records (convenience over [`ZoneMap::expand`]).
    pub fn expand_all(&self, records: &[UpdateRecord]) -> Vec<UpdateRecord> {
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            out.extend(self.expand(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementType;
    use crate::ids::ChangesetId;
    use crate::taxonomy::RoadTypeId;
    use crate::update::UpdateType;

    fn rec(country: CountryId) -> UpdateRecord {
        UpdateRecord {
            element_type: ElementType::Way,
            update_type: UpdateType::Create,
            country,
            road_type: RoadTypeId(0),
            date: rased_temporal::Date::from_days(18_700),
            lat7: 0,
            lon7: 0,
            changeset: ChangesetId(1),
        }
    }

    #[test]
    fn continents_cover_every_real_country() {
        let table = CountryTable::full();
        let zones = ZoneMap::continents(&table);
        // Every non-zone entry of the real list must have a continent.
        let mut unmapped = Vec::new();
        for id in table.ids() {
            let code = table.code(id).unwrap();
            let is_zone = code.starts_with("Z-") || code.starts_with("US-");
            if !is_zone && zones.parents(id).is_empty() {
                unmapped.push(code.to_string());
            }
        }
        assert!(unmapped.is_empty(), "countries without a continent: {unmapped:?}");
    }

    #[test]
    fn germany_maps_to_europe() {
        let table = CountryTable::full();
        let zones = ZoneMap::continents(&table);
        let de = table.resolve("DE").unwrap();
        let eu = table.resolve("Z-EU").unwrap();
        assert_eq!(zones.parents(de), &[eu]);
        // Zones themselves have no parents.
        assert!(zones.parents(eu).is_empty());
    }

    #[test]
    fn truncated_table_yields_no_zones() {
        // 12-country table has no Z-* entries → empty map, not a panic.
        let table = CountryTable::with_cardinality(12);
        let zones = ZoneMap::continents(&table);
        assert!(zones.is_empty());
        assert!(zones.parents(CountryId(0)).is_empty());
    }

    #[test]
    fn expansion_duplicates_into_zones() {
        let table = CountryTable::full();
        let zones = ZoneMap::continents(&table);
        let us = table.resolve("US").unwrap();
        let na = table.resolve("Z-NA").unwrap();
        let expanded: Vec<UpdateRecord> = zones.expand(&rec(us)).collect();
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0].country, us);
        assert_eq!(expanded[1].country, na);
        // Everything except the country is preserved.
        assert_eq!(expanded[1].changeset, expanded[0].changeset);

        let batch = zones.expand_all(&[rec(us), rec(na)]);
        assert_eq!(batch.len(), 3, "zone-attributed records do not re-expand");
    }

    #[test]
    fn custom_zone_groups() {
        let zones = ZoneMap::from_members(
            5,
            &[(CountryId(4), &[CountryId(0), CountryId(1)]), (CountryId(3), &[CountryId(0)])],
        );
        assert_eq!(zones.parents(CountryId(0)), &[CountryId(4), CountryId(3)]);
        assert_eq!(zones.parents(CountryId(1)), &[CountryId(4)]);
        assert!(zones.parents(CountryId(2)).is_empty());
        let expanded = zones.expand_all(&[rec(CountryId(0))]);
        assert_eq!(expanded.len(), 3);
    }
}
