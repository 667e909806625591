//! Dimension taxonomies: countries/zones and road types (§VI-A).
//!
//! The paper's cube dimensions: *Country* — "300+ values presenting all
//! countries plus some selected zones of interest (e.g., continents and US
//! states)" — and *RoadType* — "150 possible road types, including highway,
//! residential, service, and truck roads".
//!
//! Both tables are **cardinality-parameterized**: the algorithms downstream
//! (cube roll-up, level optimization, caching) are generic over dimension
//! sizes, so tests use tiny tables while the benchmark harness can run
//! paper-scale ones. Ids are dense `u16` indexes into the table — exactly
//! the cube-dimension coordinates.

use std::collections::HashMap;
use std::fmt;

/// Dense id of a country or zone: the cube-dimension coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryId(pub u16);

impl CountryId {
    /// Cube-dimension index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CountryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Dense id of a road type: the cube-dimension coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoadTypeId(pub u16);

impl RoadTypeId {
    /// Cube-dimension index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RoadTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Real countries: `(ISO-like code, display name)`. The first entries are the
/// world's most actively mapped countries (per OSM edit statistics), so a
/// truncated table still exercises realistic names.
const COUNTRIES: &[(&str, &str)] = &[
    ("US", "United States"),
    ("DE", "Germany"),
    ("FR", "France"),
    ("IN", "India"),
    ("BR", "Brazil"),
    ("RU", "Russia"),
    ("GB", "United Kingdom"),
    ("IT", "Italy"),
    ("PL", "Poland"),
    ("ID", "Indonesia"),
    ("JP", "Japan"),
    ("CA", "Canada"),
    ("ES", "Spain"),
    ("MX", "Mexico"),
    ("NL", "Netherlands"),
    ("VN", "Vietnam"),
    ("CN", "China"),
    ("AU", "Australia"),
    ("UA", "Ukraine"),
    ("PH", "Philippines"),
    ("AT", "Austria"),
    ("CZ", "Czechia"),
    ("BE", "Belgium"),
    ("CH", "Switzerland"),
    ("SE", "Sweden"),
    ("NO", "Norway"),
    ("FI", "Finland"),
    ("DK", "Denmark"),
    ("TR", "Turkey"),
    ("IR", "Iran"),
    ("NG", "Nigeria"),
    ("TZ", "Tanzania"),
    ("CD", "DR Congo"),
    ("AR", "Argentina"),
    ("CO", "Colombia"),
    ("CL", "Chile"),
    ("PE", "Peru"),
    ("ZA", "South Africa"),
    ("EG", "Egypt"),
    ("KE", "Kenya"),
    ("ET", "Ethiopia"),
    ("TH", "Thailand"),
    ("MY", "Malaysia"),
    ("SG", "Singapore"),
    ("QA", "Qatar"),
    ("AE", "United Arab Emirates"),
    ("SA", "Saudi Arabia"),
    ("IQ", "Iraq"),
    ("SY", "Syria"),
    ("IL", "Israel"),
    ("JO", "Jordan"),
    ("LB", "Lebanon"),
    ("PK", "Pakistan"),
    ("BD", "Bangladesh"),
    ("LK", "Sri Lanka"),
    ("NP", "Nepal"),
    ("MM", "Myanmar"),
    ("KH", "Cambodia"),
    ("LA", "Laos"),
    ("KR", "South Korea"),
    ("KP", "North Korea"),
    ("MN", "Mongolia"),
    ("KZ", "Kazakhstan"),
    ("UZ", "Uzbekistan"),
    ("TM", "Turkmenistan"),
    ("KG", "Kyrgyzstan"),
    ("TJ", "Tajikistan"),
    ("AF", "Afghanistan"),
    ("PT", "Portugal"),
    ("IE", "Ireland"),
    ("IS", "Iceland"),
    ("GR", "Greece"),
    ("HU", "Hungary"),
    ("RO", "Romania"),
    ("BG", "Bulgaria"),
    ("RS", "Serbia"),
    ("HR", "Croatia"),
    ("SI", "Slovenia"),
    ("SK", "Slovakia"),
    ("BA", "Bosnia and Herzegovina"),
    ("MK", "North Macedonia"),
    ("AL", "Albania"),
    ("ME", "Montenegro"),
    ("XK", "Kosovo"),
    ("BY", "Belarus"),
    ("LT", "Lithuania"),
    ("LV", "Latvia"),
    ("EE", "Estonia"),
    ("MD", "Moldova"),
    ("GE", "Georgia"),
    ("AM", "Armenia"),
    ("AZ", "Azerbaijan"),
    ("LU", "Luxembourg"),
    ("MT", "Malta"),
    ("CY", "Cyprus"),
    ("MC", "Monaco"),
    ("AD", "Andorra"),
    ("SM", "San Marino"),
    ("LI", "Liechtenstein"),
    ("VE", "Venezuela"),
    ("EC", "Ecuador"),
    ("BO", "Bolivia"),
    ("PY", "Paraguay"),
    ("UY", "Uruguay"),
    ("GY", "Guyana"),
    ("SR", "Suriname"),
    ("CU", "Cuba"),
    ("HT", "Haiti"),
    ("DO", "Dominican Republic"),
    ("JM", "Jamaica"),
    ("TT", "Trinidad and Tobago"),
    ("BS", "Bahamas"),
    ("BB", "Barbados"),
    ("GT", "Guatemala"),
    ("HN", "Honduras"),
    ("SV", "El Salvador"),
    ("NI", "Nicaragua"),
    ("CR", "Costa Rica"),
    ("PA", "Panama"),
    ("BZ", "Belize"),
    ("MA", "Morocco"),
    ("DZ", "Algeria"),
    ("TN", "Tunisia"),
    ("LY", "Libya"),
    ("SD", "Sudan"),
    ("SS", "South Sudan"),
    ("ML", "Mali"),
    ("NE", "Niger"),
    ("TD", "Chad"),
    ("MR", "Mauritania"),
    ("SN", "Senegal"),
    ("GM", "Gambia"),
    ("GN", "Guinea"),
    ("GW", "Guinea-Bissau"),
    ("SL", "Sierra Leone"),
    ("LR", "Liberia"),
    ("CI", "Ivory Coast"),
    ("GH", "Ghana"),
    ("TG", "Togo"),
    ("BJ", "Benin"),
    ("BF", "Burkina Faso"),
    ("CM", "Cameroon"),
    ("CF", "Central African Republic"),
    ("GA", "Gabon"),
    ("CG", "Congo-Brazzaville"),
    ("GQ", "Equatorial Guinea"),
    ("AO", "Angola"),
    ("ZM", "Zambia"),
    ("ZW", "Zimbabwe"),
    ("MW", "Malawi"),
    ("MZ", "Mozambique"),
    ("BW", "Botswana"),
    ("NA", "Namibia"),
    ("SZ", "Eswatini"),
    ("LS", "Lesotho"),
    ("MG", "Madagascar"),
    ("MU", "Mauritius"),
    ("SC", "Seychelles"),
    ("KM", "Comoros"),
    ("DJ", "Djibouti"),
    ("ER", "Eritrea"),
    ("SO", "Somalia"),
    ("UG", "Uganda"),
    ("RW", "Rwanda"),
    ("BI", "Burundi"),
    ("NZ", "New Zealand"),
    ("PG", "Papua New Guinea"),
    ("FJ", "Fiji"),
    ("SB", "Solomon Islands"),
    ("VU", "Vanuatu"),
    ("WS", "Samoa"),
    ("TO", "Tonga"),
    ("FM", "Micronesia"),
    ("PW", "Palau"),
    ("MH", "Marshall Islands"),
    ("KI", "Kiribati"),
    ("NR", "Nauru"),
    ("TV", "Tuvalu"),
    ("BN", "Brunei"),
    ("TL", "Timor-Leste"),
    ("MV", "Maldives"),
    ("BT", "Bhutan"),
    ("OM", "Oman"),
    ("YE", "Yemen"),
    ("KW", "Kuwait"),
    ("BH", "Bahrain"),
    ("PS", "Palestine"),
    ("EH", "Western Sahara"),
    ("GL", "Greenland"),
    ("FO", "Faroe Islands"),
    ("GI", "Gibraltar"),
    ("VA", "Vatican City"),
    ("TW", "Taiwan"),
    ("HK", "Hong Kong"),
    ("MO", "Macao"),
];

/// Zones of interest appended after the countries (paper: continents and US
/// states). `(code, name)`.
const ZONES: &[(&str, &str)] = &[
    ("Z-AF", "Africa"),
    ("Z-AN", "Antarctica"),
    ("Z-AS", "Asia"),
    ("Z-EU", "Europe"),
    ("Z-NA", "North America"),
    ("Z-OC", "Oceania"),
    ("Z-SA", "South America"),
    ("US-AL", "Alabama"),
    ("US-AK", "Alaska"),
    ("US-AZ", "Arizona"),
    ("US-AR", "Arkansas"),
    ("US-CA", "California"),
    ("US-CO", "Colorado"),
    ("US-CT", "Connecticut"),
    ("US-DE", "Delaware"),
    ("US-FL", "Florida"),
    ("US-GA", "Georgia (US)"),
    ("US-HI", "Hawaii"),
    ("US-ID", "Idaho"),
    ("US-IL", "Illinois"),
    ("US-IN", "Indiana"),
    ("US-IA", "Iowa"),
    ("US-KS", "Kansas"),
    ("US-KY", "Kentucky"),
    ("US-LA", "Louisiana"),
    ("US-ME", "Maine"),
    ("US-MD", "Maryland"),
    ("US-MA", "Massachusetts"),
    ("US-MI", "Michigan"),
    ("US-MN", "Minnesota"),
    ("US-MS", "Mississippi"),
    ("US-MO", "Missouri"),
    ("US-MT", "Montana"),
    ("US-NE", "Nebraska"),
    ("US-NV", "Nevada"),
    ("US-NH", "New Hampshire"),
    ("US-NJ", "New Jersey"),
    ("US-NM", "New Mexico"),
    ("US-NY", "New York"),
    ("US-NC", "North Carolina"),
    ("US-ND", "North Dakota"),
    ("US-OH", "Ohio"),
    ("US-OK", "Oklahoma"),
    ("US-OR", "Oregon"),
    ("US-PA", "Pennsylvania"),
    ("US-RI", "Rhode Island"),
    ("US-SC", "South Carolina"),
    ("US-SD", "South Dakota"),
    ("US-TN", "Tennessee"),
    ("US-TX", "Texas"),
    ("US-UT", "Utah"),
    ("US-VT", "Vermont"),
    ("US-VA", "Virginia"),
    ("US-WA", "Washington"),
    ("US-WV", "West Virginia"),
    ("US-WI", "Wisconsin"),
    ("US-WY", "Wyoming"),
    ("US-DC", "District of Columbia"),
];

/// Real countries + zones available without synthetic padding.
pub const COUNTRY_COUNT_FULL: usize = COUNTRIES.len() + ZONES.len();

/// Real OSM `highway=*` values, ordered roughly by importance. Sub-typed
/// entries (`service:driveway`, `track:grade1`) mirror OSM's secondary tags
/// that RASED folds into its road-type dimension.
const ROAD_TYPES: &[&str] = &[
    "motorway",
    "trunk",
    "primary",
    "secondary",
    "tertiary",
    "unclassified",
    "residential",
    "service",
    "motorway_link",
    "trunk_link",
    "primary_link",
    "secondary_link",
    "tertiary_link",
    "living_street",
    "pedestrian",
    "track",
    "busway",
    "bus_guideway",
    "escape",
    "raceway",
    "road",
    "footway",
    "bridleway",
    "steps",
    "corridor",
    "path",
    "cycleway",
    "construction",
    "proposed",
    "abandoned",
    "platform",
    "rest_area",
    "services",
    "elevator",
    "emergency_bay",
    "crossing",
    "mini_roundabout",
    "motorway_junction",
    "passing_place",
    "speed_camera",
    "street_lamp",
    "stop",
    "give_way",
    "traffic_signals",
    "turning_circle",
    "turning_loop",
    "toll_gantry",
    "milestone",
    "service:driveway",
    "service:parking_aisle",
    "service:alley",
    "service:emergency_access",
    "service:drive-through",
    "track:grade1",
    "track:grade2",
    "track:grade3",
    "track:grade4",
    "track:grade5",
    "footway:sidewalk",
    "footway:crossing",
    "cycleway:lane",
    "cycleway:track",
    "path:mtb",
    "disused",
    "razed",
    "planned",
    "trailhead",
    "ford",
    "traffic_mirror",
    "ladder",
];

/// Real road types available without synthetic padding.
pub const ROAD_TYPE_COUNT_FULL: usize = ROAD_TYPES.len();

/// Maps a coordinate to the country/zone containing it.
///
/// The daily crawler (§V) resolves way/relation updates to countries via
/// their changeset's bounding-box center; the generator's synthetic world
/// atlas implements this trait, and tests can plug in trivial resolvers.
pub trait CountryResolver {
    /// Locate a point given in 1e-7° fixed-point coordinates. `None` when
    /// the point is in no known country (e.g. open ocean).
    fn locate7(&self, lat7: i32, lon7: i32) -> Option<CountryId>;
}

impl<F> CountryResolver for F
where
    F: Fn(i32, i32) -> Option<CountryId>,
{
    fn locate7(&self, lat7: i32, lon7: i32) -> Option<CountryId> {
        self(lat7, lon7)
    }
}

/// A dense table mapping [`CountryId`]s to codes/names and back.
#[derive(Debug, Clone)]
pub struct CountryTable {
    codes: Vec<String>,
    names: Vec<String>,
    by_code: HashMap<String, CountryId>,
    by_name: HashMap<String, CountryId>,
}

impl CountryTable {
    /// The full paper-scale table: every real country followed by every zone
    /// (continents, US states).
    pub fn full() -> CountryTable {
        Self::with_cardinality(COUNTRY_COUNT_FULL)
    }

    /// A table with exactly `n` entries. `n` up to [`COUNTRY_COUNT_FULL`]
    /// takes a prefix of the real list; beyond that, synthetic
    /// `ZZn`/`Region n` entries are appended (documented substitution — the
    /// cube algorithms only care about cardinality).
    pub fn with_cardinality(n: usize) -> CountryTable {
        assert!(n >= 1, "country table must have at least one entry");
        assert!(n <= u16::MAX as usize, "country cardinality exceeds u16 id space");
        let (codes, names): (Vec<String>, Vec<String>) = COUNTRIES
            .iter()
            .chain(ZONES)
            .map(|(c, nm)| (c.to_string(), nm.to_string()))
            .chain((COUNTRY_COUNT_FULL..).map(|i| (format!("ZZ{i}"), format!("Region {i}"))))
            .take(n)
            .unzip();
        let by_code = codes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), CountryId(i as u16)))
            .collect();
        let by_name = names
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), CountryId(i as u16)))
            .collect();
        CountryTable { codes, names, by_code, by_name }
    }

    /// Number of entries (the cube-dimension cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty (never, given the constructor assertion).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code for an id, or `None` if out of range.
    pub fn code(&self, id: CountryId) -> Option<&str> {
        self.codes.get(id.index()).map(|s| s.as_str())
    }

    /// The display name for an id.
    pub fn name(&self, id: CountryId) -> Option<&str> {
        self.names.get(id.index()).map(|s| s.as_str())
    }

    /// Resolve a code (`"US"`) to an id.
    pub fn by_code(&self, code: &str) -> Option<CountryId> {
        self.by_code.get(code).copied()
    }

    /// Resolve a display name (`"United States"`) to an id.
    pub fn by_name(&self, name: &str) -> Option<CountryId> {
        self.by_name.get(name).copied()
    }

    /// Resolve either a code or a display name.
    pub fn resolve(&self, s: &str) -> Option<CountryId> {
        self.by_code(s).or_else(|| self.by_name(s))
    }

    /// Iterate all ids in table order.
    pub fn ids(&self) -> impl Iterator<Item = CountryId> + '_ {
        (0..self.codes.len() as u16).map(CountryId)
    }
}

/// A dense table mapping [`RoadTypeId`]s to `highway=*` values and back.
#[derive(Debug, Clone)]
pub struct RoadTypeTable {
    values: Vec<String>,
    by_value: HashMap<String, RoadTypeId>,
}

impl RoadTypeTable {
    /// The paper-scale table (150 road types): every real value plus
    /// synthetic `special_n` padding.
    pub fn paper_scale() -> RoadTypeTable {
        Self::with_cardinality(150)
    }

    /// The table of real `highway=*` values only.
    pub fn full() -> RoadTypeTable {
        Self::with_cardinality(ROAD_TYPE_COUNT_FULL)
    }

    /// A table with exactly `n` entries; a prefix of the real values,
    /// extended with synthetic `special_n` values when `n` exceeds
    /// [`ROAD_TYPE_COUNT_FULL`].
    pub fn with_cardinality(n: usize) -> RoadTypeTable {
        assert!(n >= 1, "road-type table must have at least one entry");
        assert!(n <= u16::MAX as usize, "road-type cardinality exceeds u16 id space");
        let mut values: Vec<String> =
            ROAD_TYPES.iter().take(n).map(|v| v.to_string()).collect();
        for i in values.len()..n {
            values.push(format!("special_{i}"));
        }
        let by_value = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), RoadTypeId(i as u16)))
            .collect();
        RoadTypeTable { values, by_value }
    }

    /// Number of entries (the cube-dimension cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty (never, given the constructor assertion).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `highway=*` value for an id.
    pub fn value(&self, id: RoadTypeId) -> Option<&str> {
        self.values.get(id.index()).map(|s| s.as_str())
    }

    /// Resolve a `highway=*` value to an id.
    pub fn by_value(&self, value: &str) -> Option<RoadTypeId> {
        self.by_value.get(value).copied()
    }

    /// Iterate all ids in table order.
    pub fn ids(&self) -> impl Iterator<Item = RoadTypeId> + '_ {
        (0..self.values.len() as u16).map(RoadTypeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_tables_meet_paper_cardinalities() {
        let c = CountryTable::full();
        // "300+ values presenting all countries plus some selected zones".
        assert!(c.len() >= 240, "got {}", c.len());
        let r = RoadTypeTable::paper_scale();
        assert_eq!(r.len(), 150);
    }

    #[test]
    fn code_and_name_lookups_roundtrip() {
        let t = CountryTable::full();
        for id in t.ids() {
            assert_eq!(t.by_code(t.code(id).unwrap()), Some(id));
            assert_eq!(t.by_name(t.name(id).unwrap()), Some(id));
        }
    }

    #[test]
    fn resolve_accepts_code_or_name() {
        let t = CountryTable::full();
        let us = t.resolve("US").unwrap();
        assert_eq!(t.resolve("United States"), Some(us));
        assert_eq!(t.name(us), Some("United States"));
        assert_eq!(t.resolve("Atlantis"), None);
    }

    #[test]
    fn zones_follow_countries() {
        let t = CountryTable::full();
        let africa = t.resolve("Africa").unwrap();
        assert!(africa.index() >= COUNTRIES.len());
        let mn = t.resolve("US-MN").unwrap();
        assert_eq!(t.name(mn), Some("Minnesota"));
    }

    #[test]
    fn truncated_and_padded_tables() {
        let small = CountryTable::with_cardinality(10);
        assert_eq!(small.len(), 10);
        assert_eq!(small.code(CountryId(0)), Some("US"));
        assert_eq!(small.code(CountryId(10)), None);

        let padded = CountryTable::with_cardinality(COUNTRY_COUNT_FULL + 5);
        assert!(padded.code(CountryId((COUNTRY_COUNT_FULL + 2) as u16)).unwrap().starts_with("ZZ"));
    }

    #[test]
    fn road_type_lookups() {
        let t = RoadTypeTable::paper_scale();
        let res = t.by_value("residential").unwrap();
        assert_eq!(t.value(res), Some("residential"));
        assert!(t.by_value("special_149").is_some());
        assert_eq!(t.by_value("not_a_road"), None);
        // Dense ids.
        assert_eq!(t.ids().count(), 150);
    }

    #[test]
    fn road_type_values_are_unique() {
        let t = RoadTypeTable::paper_scale();
        let mut seen = std::collections::HashSet::new();
        for id in t.ids() {
            assert!(seen.insert(t.value(id).unwrap().to_string()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_cardinality_rejected() {
        let _ = RoadTypeTable::with_cardinality(0);
    }
}
