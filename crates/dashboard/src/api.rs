//! HTTP API plumbing: query-string → [`AnalysisQuery`], results → JSON.

use crate::json::Json;
use rased_core::model::{ElementType, UpdateType};
use rased_core::{AnalysisQuery, DateRange, Granularity, GroupDim, QueryResult, Rased};
use std::fmt;

/// API request error (reported as HTTP 400 with a message).
#[derive(Debug, PartialEq, Eq)]
pub struct ApiError(pub String);

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ApiError {}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError(msg.into())
}

/// Percent-decode a URL component (`%41` → `A`, `+` → space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| std::str::from_utf8(h).ok());
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode a URL component — the exact inverse of [`url_decode`]:
/// `url_decode(&form_urlencode(s)) == s` for every string. Unreserved
/// characters (`A–Z a–z 0–9 - _ . ~`) pass through, space becomes `+`,
/// everything else is `%XX`-escaped byte-wise.
pub fn form_urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Split a query string into decoded key/value pairs.
pub fn parse_query_string(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect()
}

/// Build an [`AnalysisQuery`] from API parameters.
///
/// Recognized keys (all except `start`/`end` optional):
/// * `start`, `end` — `YYYY-MM-DD` window bounds;
/// * `countries` — comma-separated codes or names;
/// * `elements` — comma-separated of `node,way,relation`;
/// * `roads` — comma-separated `highway=*` values;
/// * `updates` — comma-separated of `create,delete,geometry,metadata,update`;
/// * `group` — comma-separated of `country,element,road,update,day,week,month,year`;
/// * `value` — `count` (default) or `percentage`;
/// * `bbox` (alias `viewport`) — `min_lat,min_lon,max_lat,max_lon` in
///   degrees: restrict to updates inside the box (spatial drill-down,
///   answered from the spatial block bank where materialized).
pub fn parse_analysis_query(system: &Rased, params: &[(String, String)]) -> Result<AnalysisQuery, ApiError> {
    let get = |k: &str| params.iter().find(|(pk, _)| pk == k).map(|(_, v)| v.as_str());
    let start: rased_core::Date = get("start")
        .ok_or_else(|| bad("missing `start`"))?
        .parse()
        .map_err(|e| bad(format!("bad start: {e}")))?;
    let end: rased_core::Date = get("end")
        .ok_or_else(|| bad("missing `end`"))?
        .parse()
        .map_err(|e| bad(format!("bad end: {e}")))?;
    let mut q = AnalysisQuery::over(DateRange::new(start, end));

    if let Some(cs) = get("countries") {
        let mut ids = Vec::new();
        for c in cs.split(',').filter(|c| !c.is_empty()) {
            ids.push(system.countries().resolve(c).ok_or_else(|| bad(format!("unknown country `{c}`")))?);
        }
        q = q.countries(ids);
    }
    if let Some(es) = get("elements") {
        let mut types = Vec::new();
        for e in es.split(',').filter(|e| !e.is_empty()) {
            types.push(
                ElementType::from_xml_name(e).ok_or_else(|| bad(format!("unknown element type `{e}`")))?,
            );
        }
        q = q.elements(types);
    }
    if let Some(rs) = get("roads") {
        let mut ids = Vec::new();
        for r in rs.split(',').filter(|r| !r.is_empty()) {
            ids.push(system.roads().by_value(r).ok_or_else(|| bad(format!("unknown road type `{r}`")))?);
        }
        q = q.roads(ids);
    }
    if let Some(us) = get("updates") {
        let mut types = Vec::new();
        for u in us.split(',').filter(|u| !u.is_empty()) {
            types.push(UpdateType::from_label(u).ok_or_else(|| bad(format!("unknown update type `{u}`")))?);
        }
        q = q.updates(types);
    }
    if let Some(gs) = get("group") {
        for g in gs.split(',').filter(|g| !g.is_empty()) {
            let dim = match g {
                "country" => GroupDim::Country,
                "element" => GroupDim::ElementType,
                "road" => GroupDim::RoadType,
                "update" => GroupDim::UpdateType,
                "day" => GroupDim::Date(Granularity::Day),
                "week" => GroupDim::Date(Granularity::Week),
                "month" => GroupDim::Date(Granularity::Month),
                "year" => GroupDim::Date(Granularity::Year),
                other => return Err(bad(format!("unknown group dimension `{other}`"))),
            };
            q = q.group(dim);
        }
    }
    match get("value") {
        None | Some("count") => {}
        Some("percentage") => q = q.percentage(),
        Some(other) => return Err(bad(format!("unknown value mode `{other}`"))),
    }
    if let Some(bs) = get("bbox").or_else(|| get("viewport")) {
        q = q.within(parse_bbox(bs)?);
    }
    Ok(q)
}

/// Parse `min_lat,min_lon,max_lat,max_lon` (degrees) into a [`BBox`].
pub fn parse_bbox(s: &str) -> Result<rased_geo::BBox, ApiError> {
    let parts: Vec<&str> = s.split(',').collect();
    let [a, b, c, d] = parts.as_slice() else {
        return Err(bad(format!("bad bbox `{s}`: expected min_lat,min_lon,max_lat,max_lon")));
    };
    let deg = |v: &str| -> Result<f64, ApiError> {
        let x: f64 = v.trim().parse().map_err(|e| bad(format!("bad bbox coordinate `{v}`: {e}")))?;
        if !x.is_finite() || x.abs() > 360.0 {
            return Err(bad(format!("bbox coordinate `{v}` out of range")));
        }
        Ok(x)
    };
    Ok(rased_geo::BBox::from_deg(deg(a)?, deg(b)?, deg(c)?, deg(d)?))
}

/// Serialize a query result (rows + execution stats) to JSON.
pub fn result_to_json(system: &Rased, result: &QueryResult) -> String {
    let mut j = Json::new();
    j.begin_object();
    j.key("rows").begin_array();
    for row in &result.rows {
        j.begin_object();
        if let Some(d) = row.key.date {
            j.key("date").string(&d.to_string());
        }
        if let Some(c) = row.key.country {
            j.key("country").string(system.countries().name(c).unwrap_or("?"));
        }
        if let Some(e) = row.key.element_type {
            j.key("element").string(e.xml_name());
        }
        if let Some(r) = row.key.road_type {
            j.key("road").string(system.roads().value(r).unwrap_or("?"));
        }
        if let Some(u) = row.key.update_type {
            j.key("update").string(u.label());
        }
        j.key("count").uint(row.count);
        j.key("value").number(row.value);
        j.end_object();
    }
    j.end_array();
    j.key("stats").begin_object();
    j.key("cubes_from_cache").uint(result.stats.cubes_from_cache as u64);
    j.key("cubes_from_disk").uint(result.stats.cubes_from_disk as u64);
    j.key("empty_days").uint(result.stats.empty_days as u64);
    j.key("blocks_from_cache").uint(result.stats.blocks_from_cache as u64);
    j.key("blocks_from_disk").uint(result.stats.blocks_from_disk as u64);
    j.key("scan_days").uint(result.stats.scan_days as u64);
    j.key("scan_rows").uint(result.stats.scan_rows);
    j.key("physical_reads").uint(result.stats.io.reads);
    j.key("modeled_io_micros").uint(result.stats.io.modeled.as_micros() as u64);
    j.key("io_critical_micros").uint(result.stats.io_critical.as_micros() as u64);
    j.key("wall_micros").uint(result.stats.wall.as_micros() as u64);
    j.end_object();
    j.end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_core::Rased;

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a+b%20c%41"), "a b cA");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%zz"), "bad%zz");
        assert_eq!(url_decode("%4"), "%4");
    }

    #[test]
    fn url_encoding_round_trips() {
        for s in ["", "plain", "a b&c=d", "käse+100%", "\u{1}\u{7f}", "~.-_"] {
            let enc = form_urlencode(s);
            assert_eq!(url_decode(&enc), s, "via {enc}");
            assert!(enc.bytes().all(|b| b.is_ascii_graphic()), "{enc}");
        }
    }

    /// A fresh empty system; the returned [`TempDir`] must outlive it.
    fn empty_system(tag: &str) -> (TempDir, Rased) {
        let dir = TempDir::new(&format!("api-{tag}"));
        let system = Rased::create(rased_core::RasedConfig::new(dir.path())).expect("create");
        (dir, system)
    }

    fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn parse_full_query() {
        let (_dir, system) = empty_system("full");
        let q = parse_analysis_query(
            &system,
            &params(&[
                ("start", "2021-01-01"),
                ("end", "2021-12-31"),
                ("countries", "US,Germany"),
                ("elements", "way,node"),
                ("roads", "residential,primary"),
                ("updates", "create,update"),
                ("group", "country,element,month"),
                ("value", "percentage"),
            ]),
        )
        .expect("parse");
        assert_eq!(q.range.len_days(), 365);
        assert_eq!(q.countries.as_ref().map(|c| c.len()), Some(2));
        assert_eq!(q.element_types.as_ref().map(|e| e.len()), Some(2));
        assert_eq!(q.road_types.as_ref().map(|r| r.len()), Some(2));
        assert_eq!(q.update_types.as_ref().map(|u| u.len()), Some(2));
        assert_eq!(q.group_by.len(), 3);
        assert_eq!(q.date_granularity(), Some(Granularity::Month));
        assert_eq!(q.value, rased_core::ValueMode::Percentage);
    }

    #[test]
    fn parse_rejects_bad_parameters() {
        let (_dir, system) = empty_system("bad");
        let base = [("start", "2021-01-01"), ("end", "2021-12-31")];
        // Missing start.
        assert!(parse_analysis_query(&system, &params(&[("end", "2021-12-31")])).is_err());
        // Unknown vocabulary values.
        for (k, v) in [
            ("countries", "Atlantis"),
            ("elements", "polygon"),
            ("roads", "hyperloop"),
            ("updates", "explode"),
            ("group", "color"),
            ("value", "mean"),
        ] {
            let mut p = params(&base);
            p.push((k.to_string(), v.to_string()));
            let err = parse_analysis_query(&system, &p).expect_err(k);
            assert!(err.to_string().contains(v), "{k}: {err}");
        }
        // Malformed date.
        assert!(parse_analysis_query(
            &system,
            &params(&[("start", "yesterday"), ("end", "2021-12-31")])
        )
        .is_err());
    }

    #[test]
    fn query_string_parsing() {
        let kvs = parse_query_string("a=1&b=two+words&flag&c=%2C");
        assert_eq!(
            kvs,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "two words".to_string()),
                ("flag".to_string(), String::new()),
                ("c".to_string(), ",".to_string()),
            ]
        );
    }

    #[test]
    fn parse_bbox_accepts_degree_boxes() {
        let b = parse_bbox("-10.5, 20, 30.25 ,40").expect("box");
        assert_eq!(b, rased_geo::BBox::from_deg(-10.5, 20.0, 30.25, 40.0));
        // Whole-world and point boxes are fine; ordering is the caller's
        // contract (BBox normalizes nothing — an empty box matches nothing).
        assert!(parse_bbox("-90,-180,90,180").is_ok());
        assert!(parse_bbox("1,2,1,2").is_ok());
    }

    #[test]
    fn parse_bbox_rejects_malformed_boxes() {
        for bad in [
            "",
            "1,2,3",          // wrong arity
            "1,2,3,4,5",      // wrong arity
            "1,2,3,north",    // non-numeric
            "1,2,3,NaN",      // non-finite
            "1,2,3,inf",      // non-finite
            "1,2,3,400",      // out of range
            "-361,2,3,4",     // out of range
        ] {
            assert!(parse_bbox(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn bbox_and_viewport_params_attach_a_spatial_filter() {
        let (_dir, system) = empty_system("bbox");
        let base = [("start", "2021-01-01"), ("end", "2021-01-31")];
        for key in ["bbox", "viewport"] {
            let mut p = params(&base);
            p.push((key.to_string(), "10,20,30,40".to_string()));
            let q = parse_analysis_query(&system, &p).expect(key);
            assert_eq!(q.bbox, Some(rased_geo::BBox::from_deg(10.0, 20.0, 30.0, 40.0)), "{key}");
        }
        // Without either key the query stays purely temporal.
        let q = parse_analysis_query(&system, &params(&base)).expect("plain");
        assert_eq!(q.bbox, None);
        // A malformed box is a 400-class parse error, not a silent scan.
        let mut p = params(&base);
        p.push(("bbox".to_string(), "10,20,30".to_string()));
        assert!(parse_analysis_query(&system, &p).is_err());
    }
}
