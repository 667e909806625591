//! The answer check: a served `/api/analysis` body must carry exactly the
//! rows the record-scan oracle computes from the warehouse.

use rased_core::model::UpdateRecord;
use rased_core::{naive_execute, NetworkSizes, Rased};
use rased_dashboard::{parse_analysis_query, parse_query_string, result_to_json};
use std::collections::HashMap;

/// `naive_execute` over every warehouse row, rendered by the server's own
/// `result_to_json`. Expected rows are memoised per target: the hot
/// workloads repeat a small set of tiles.
pub struct Oracle<'a> {
    system: &'a Rased,
    rows: Vec<UpdateRecord>,
    sizes: NetworkSizes,
    memo: HashMap<String, String>,
}

/// The `"rows":[…]` array of a `result_to_json` document (the `stats`
/// object after it differs between engine and oracle by design).
pub fn rows_of(body: &str) -> Option<&str> {
    let start = body.find("\"rows\":[")?;
    let end = body.rfind("],\"stats\":")?;
    body.get(start..=end)
}

impl<'a> Oracle<'a> {
    pub fn new(system: &'a Rased) -> Result<Oracle<'a>, String> {
        let mut rows = Vec::with_capacity(system.warehouse().row_count() as usize);
        system
            .warehouse()
            .scan(|_, r| rows.push(*r))
            .map_err(|e| format!("warehouse scan: {e}"))?;
        Ok(Oracle {
            system,
            rows,
            sizes: system.network_sizes(),
            memo: HashMap::new(),
        })
    }

    pub fn warehouse_rows(&self) -> usize {
        self.rows.len()
    }

    /// `Ok(())` when `body` carries the oracle's rows for `target`.
    pub fn check(&mut self, target: &str, body: &str) -> Result<(), String> {
        let got = rows_of(body).ok_or_else(|| format!("no rows array in the reply to {target}"))?;
        if !self.memo.contains_key(target) {
            let query = target.split_once('?').map_or("", |(_, q)| q);
            let q = parse_analysis_query(self.system, &parse_query_string(query))
                .map_err(|e| format!("oracle cannot parse {target}: {e}"))?;
            let want = result_to_json(
                self.system,
                &naive_execute(&self.rows, &q, Some(&self.sizes)),
            );
            let want = rows_of(&want).unwrap_or_default().to_string();
            self.memo.insert(target.to_string(), want);
        }
        let want = self
            .memo
            .get(target)
            .map(String::as_str)
            .unwrap_or_default();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "wrong answer for {target}: {} bytes of rows, oracle has {}",
                got.len(),
                want.len()
            ))
        }
    }
}
