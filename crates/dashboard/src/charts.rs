//! Terminal renderers for query results: tables, bar charts, time series —
//! the textual equivalents of the dashboard's Figures 2–5 visualizations.

use rased_core::{QueryResult, Rased, ResultRow};
use rased_temporal::Period;
use std::fmt::Write;

/// Human-readable label for one result row's group key, resolved against
/// the system's taxonomy tables.
pub fn key_label(system: &Rased, row: &ResultRow) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(p) = row.key.date {
        parts.push(period_label(p));
    }
    if let Some(c) = row.key.country {
        parts.push(system.countries().name(c).unwrap_or("?").to_string());
    }
    if let Some(e) = row.key.element_type {
        parts.push(e.to_string());
    }
    if let Some(r) = row.key.road_type {
        parts.push(system.roads().value(r).unwrap_or("?").to_string());
    }
    if let Some(u) = row.key.update_type {
        parts.push(u.to_string());
    }
    if parts.is_empty() {
        parts.push("(all)".to_string());
    }
    parts.join(" / ")
}

fn period_label(p: Period) -> String {
    match p {
        Period::Day(d) => d.to_string(),
        Period::Week(d) => format!("wk {d}"),
        Period::Month(y, m) => format!("{y:04}-{m:02}"),
        Period::Year(y) => format!("{y:04}"),
    }
}

/// Render a result as an aligned table sorted by value descending
/// (Fig. 3's format).
pub fn table(system: &Rased, result: &QueryResult, limit: usize) -> String {
    let sorted = result.clone().sorted_desc();
    let mut out = String::new();
    let width = sorted
        .rows
        .iter()
        .take(limit)
        .map(|r| key_label(system, r).len())
        .max()
        .unwrap_or(5)
        .max(5);
    let _ = writeln!(out, "{:<width$}  {:>14}  {:>10}", "group", "count", "value");
    let _ = writeln!(out, "{}", "-".repeat(width + 28));
    for row in sorted.rows.iter().take(limit) {
        let _ = writeln!(
            out,
            "{:<width$}  {:>14}  {:>10.3}",
            key_label(system, row),
            group_thousands(row.count),
            row.value
        );
    }
    if sorted.rows.len() > limit {
        let _ = writeln!(out, "... {} more rows", sorted.rows.len() - limit);
    }
    out
}

/// Render a horizontal bar chart of the top `limit` rows (Fig. 2's format).
pub fn bar_chart(system: &Rased, result: &QueryResult, limit: usize, bar_width: usize) -> String {
    let sorted = result.clone().sorted_desc();
    let max = sorted.rows.first().map(|r| r.value).unwrap_or(0.0).max(f64::MIN_POSITIVE);
    let label_width = sorted
        .rows
        .iter()
        .take(limit)
        .map(|r| key_label(system, r).len())
        .max()
        .unwrap_or(5)
        .min(32);
    let mut out = String::new();
    for row in sorted.rows.iter().take(limit) {
        let mut label = key_label(system, row);
        if label.len() > label_width {
            label.truncate(label_width);
        }
        let filled = ((row.value / max) * bar_width as f64).round() as usize;
        let _ = writeln!(
            out,
            "{label:<label_width$} |{}{} {}",
            "█".repeat(filled),
            " ".repeat(bar_width - filled.min(bar_width)),
            group_thousands(row.count),
        );
    }
    out
}

/// Render a multi-series time chart: one labeled row per series, one column
/// per date bucket, intensity-coded (Fig. 5's comparative time series,
/// rendered with terminal shades).
pub fn time_series(system: &Rased, result: &QueryResult, width: usize) -> String {
    // Partition rows into (series key = non-date part, date, value).
    let mut dates: Vec<Period> = result.rows.iter().filter_map(|r| r.key.date).collect();
    dates.sort();
    dates.dedup();
    let (Some(&first_date), Some(&last_date)) = (dates.first(), dates.last()) else {
        return "(no date-grouped rows)\n".to_string();
    };
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for row in &result.rows {
        let Some(date) = row.key.date else { continue };
        let mut keyless = row.clone();
        keyless.key.date = None;
        let label = key_label(system, &keyless);
        // Every row date was collected into `dates` above; a miss would mean
        // the vecs diverged, in which case dropping the row beats a panic.
        let Ok(idx) = dates.binary_search(&date) else { continue };
        let values = match series.iter().position(|(l, _)| *l == label) {
            Some(pos) => series.get_mut(pos),
            None => {
                series.push((label, vec![0.0; dates.len()]));
                series.last_mut()
            }
        };
        if let Some(slot) = values.and_then(|(_, v)| v.get_mut(idx)) {
            *slot = row.value;
        }
    }
    series.sort_by(|a, b| a.0.cmp(&b.0));

    let max = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(f64::MIN_POSITIVE, f64::max);
    let label_width = series.iter().map(|(l, _)| l.len()).max().unwrap_or(4).min(24);
    let shades = [' ', '░', '▒', '▓', '█'];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<label_width$}  {} .. {}  (max {max:.3})",
        "series",
        period_label(first_date),
        period_label(last_date),
    );
    for (label, values) in &series {
        let mut line = String::new();
        // Downsample the buckets into `width` columns by averaging.
        for col in 0..width.min(values.len()).max(1) {
            let lo = col * values.len() / width.max(1);
            let hi = (((col + 1) * values.len()) / width.max(1)).max(lo + 1);
            let bucket = values.get(lo..hi.min(values.len())).unwrap_or_default();
            let avg: f64 = bucket.iter().sum::<f64>() / (hi - lo).max(1) as f64;
            let shade = ((avg / max) * (shades.len() - 1) as f64).round() as usize;
            line.push(shades.get(shade).copied().unwrap_or('█'));
        }
        let mut label = label.clone();
        if label.len() > label_width {
            label.truncate(label_width);
        }
        let _ = writeln!(out, "{label:<label_width$} |{line}|");
    }
    out
}

/// Render a country-level result as a terminal **choropleth**: countries on
/// a grid (the synthetic atlas's layout — id-ordered, ~square), each cell
/// shaded by its value. The paper's dashboard offers the same view over a
/// world map; shading per country is the information content.
pub fn choropleth(system: &Rased, result: &QueryResult, n_countries: usize) -> String {
    let mut values = vec![0.0f64; n_countries];
    for row in &result.rows {
        if let Some(c) = row.key.country {
            if let Some(slot) = values.get_mut(c.index()) {
                *slot += row.value;
            }
        }
    }
    render_choropleth_frame(system, &values, "")
}

/// One frame of a choropleth; `caption` is printed above the grid.
fn render_choropleth_frame(system: &Rased, values: &[f64], caption: &str) -> String {
    let shades = ['·', '░', '▒', '▓', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
    let cols = (values.len() as f64).sqrt().ceil() as usize;
    let mut out = String::new();
    if !caption.is_empty() {
        let _ = writeln!(out, "{caption}");
    }
    for (i, v) in values.iter().enumerate() {
        if i % cols == 0 && i > 0 {
            out.push('\n');
        }
        let code = system
            .countries()
            .code(rased_core::model::CountryId(i as u16))
            .unwrap_or("??");
        let shade = ((v / max) * (shades.len() - 1) as f64).round() as usize;
        let shade = shades.get(shade).copied().unwrap_or('█');
        let _ = write!(out, "{code:<3}{shade}{shade}  ");
    }
    out.push('\n');
    let _ = writeln!(out, "scale: · = 0 .. █ = {max:.3}");
    out
}

/// Render a **timelapse**: one choropleth frame per date bucket of a
/// `Country × Date` grouped result, in chronological order — the textual
/// equivalent of the dashboard's "timelapse video showing the road network
/// evolution" (§IV-A).
pub fn timelapse(system: &Rased, result: &QueryResult, n_countries: usize) -> Vec<String> {
    let mut dates: Vec<Period> = result.rows.iter().filter_map(|r| r.key.date).collect();
    dates.sort();
    dates.dedup();
    dates
        .iter()
        .map(|&period| {
            let mut values = vec![0.0f64; n_countries];
            for row in &result.rows {
                if row.key.date != Some(period) {
                    continue;
                }
                if let Some(c) = row.key.country {
                    if let Some(slot) = values.get_mut(c.index()) {
                        *slot += row.value;
                    }
                }
            }
            render_choropleth_frame(system, &values, &format!("— {} —", period_label(period)))
        })
        .collect()
}

/// Export a result as CSV with human-readable key columns — the dashboard's
/// tabular download format.
pub fn csv(system: &Rased, result: &QueryResult) -> String {
    let mut out = String::from("date,country,element,road,update,count,value\n");
    for row in &result.rows {
        let cell = |s: Option<String>| s.unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            cell(row.key.date.map(period_label)),
            cell(row.key.country.and_then(|c| system.countries().name(c)).map(escape_csv)),
            cell(row.key.element_type.map(|e| e.to_string())),
            cell(row.key.road_type.and_then(|r| system.roads().value(r)).map(escape_csv)),
            cell(row.key.update_type.map(|u| u.to_string())),
            row.count,
            row.value,
        );
    }
    out
}

fn escape_csv(s: impl AsRef<str>) -> String {
    let s = s.as_ref();
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Format an integer with thousands separators (`1234567` → `1,234,567`).
pub fn group_thousands(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_separator() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(9_142_858), "9,142,858");
    }

    #[test]
    fn period_labels() {
        assert_eq!(period_label(Period::Month(2021, 3)), "2021-03");
        assert_eq!(period_label(Period::Year(2021)), "2021");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
