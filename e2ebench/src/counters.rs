//! Counter deltas from `Database::metrics_json()`.

use std::collections::BTreeMap;

use mb2_engine::Database;

use crate::json;

/// One registry snapshot, summed per metric family over its label sets:
/// counters and gauges by value, histograms by count and sum.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    values: BTreeMap<String, f64>,
    hist_count: BTreeMap<String, f64>,
    hist_sum: BTreeMap<String, f64>,
}

impl Snapshot {
    pub fn take(db: &Database) -> Snapshot {
        let mut snap = Snapshot::default();
        let doc = match json::parse(&db.metrics_json()) {
            Ok(doc) => doc,
            Err(e) => panic!("metrics_json is not valid JSON: {e}"),
        };
        for entry in doc.as_arr() {
            let name = entry.get("name").and_then(|n| n.as_str()).unwrap_or("");
            let field = |k: &str| entry.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            match entry.get("type").and_then(|t| t.as_str()) {
                Some("histogram") => {
                    *snap.hist_count.entry(name.into()).or_default() += field("count");
                    *snap.hist_sum.entry(name.into()).or_default() += field("sum");
                }
                _ => *snap.values.entry(name.into()).or_default() += field("value"),
            }
        }
        snap
    }

    pub fn value(&self, family: &str) -> f64 {
        self.values.get(family).copied().unwrap_or(0.0)
    }
}

/// The change between two snapshots of one database.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    pub fn count(&self, family: &str) -> f64 {
        self.after.value(family) - self.before.value(family)
    }

    /// Mean of the histogram observations made between the snapshots.
    pub fn hist_mean(&self, family: &str) -> f64 {
        let get = |m: &BTreeMap<String, f64>| m.get(family).copied().unwrap_or(0.0);
        let n = get(&self.after.hist_count) - get(&self.before.hist_count);
        let sum = get(&self.after.hist_sum) - get(&self.before.hist_sum);
        ratio(sum, n)
    }

    pub fn hist_count(&self, family: &str) -> f64 {
        let get = |m: &BTreeMap<String, f64>| m.get(family).copied().unwrap_or(0.0);
        get(&self.after.hist_count) - get(&self.before.hist_count)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
