//! Per-layer attribution from `tsfm_obs` spans.
//!
//! The traced run wraps each public call it makes in a span of its own
//! and keeps the program's existing spans (`engine.build`, `hnsw.insert`,
//! `catalog.commit`, ...). A span's *self* time is its duration minus its
//! direct children's, so the self times of every span nested in a phase,
//! plus the phase's own self time (reported as `other`), add back up to
//! the phase. [`Partition::check`] verifies that sum against the phase's
//! wall time taken independently with `Instant`.

use std::collections::{BTreeMap, HashMap};
use tsfm_obs::trace::SpanRecord;

/// How far the summed self times of a phase may stray from its wall time
/// before the attribution is called broken (dropped or mis-nested spans).
pub const PARTITION_BOUND: f64 = 0.05;

/// Self time of every record. `records` must be in [`tsfm_obs::trace::drain`]
/// order (chronological, parents before children).
fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let mut child_sum = vec![0u64; records.len()];
    let mut stacks: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        let stack = stacks.entry(r.tid).or_default();
        while stack
            .last()
            .is_some_and(|&top| records[top].depth >= r.depth)
        {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            if records[parent].depth + 1 == r.depth {
                child_sum[parent] += r.dur_us;
            }
        }
        stack.push(i);
    }
    records
        .iter()
        .zip(child_sum)
        .map(|(r, c)| r.dur_us.saturating_sub(c))
        .collect()
}

/// Total duration of the spans of each name, over all threads.
pub fn totals_us(records: &[SpanRecord]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for r in records {
        *out.entry(r.name).or_insert(0) += r.dur_us;
    }
    out
}

/// One phase split into the self times of the layers nested in it.
pub struct Partition {
    pub phase: &'static str,
    pub wall_us: f64,
    pub layers: BTreeMap<&'static str, u64>,
    pub other_us: u64,
}

impl Partition {
    /// Split the single span named `phase` in `records` into layer self
    /// times. `wall_us` is the phase's independently measured wall time.
    pub fn of(records: &[SpanRecord], phase: &'static str, wall_us: f64) -> Option<Partition> {
        let selfs = self_times(records);
        let p = records.iter().position(|r| r.name == phase)?;
        let (tid, start, end, depth) = {
            let r = &records[p];
            (r.tid, r.ts_us, r.ts_us + r.dur_us, r.depth)
        };
        let mut layers = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            if i != p && r.tid == tid && r.depth > depth && r.ts_us >= start && r.ts_us <= end {
                *layers.entry(r.name).or_insert(0) += selfs[i];
            }
        }
        Some(Partition {
            phase,
            wall_us,
            layers,
            other_us: selfs[p],
        })
    }

    pub fn attributed_us(&self) -> u64 {
        self.layers.values().sum::<u64>() + self.other_us
    }

    /// The unattributed remainder as a share of the phase.
    pub fn other_share(&self) -> f64 {
        self.other_us as f64 / self.wall_us.max(1.0)
    }

    /// Whether the layer self times plus `other` add up to the wall time
    /// within [`PARTITION_BOUND`].
    pub fn check(&self) -> Result<(), String> {
        let gap = (self.attributed_us() as f64 - self.wall_us).abs() / self.wall_us.max(1.0);
        if gap <= PARTITION_BOUND {
            Ok(())
        } else {
            Err(format!(
                "layers of {} sum to {} us against {:.0} us wall ({:.1}% apart, bound {:.0}%)",
                self.phase,
                self.attributed_us(),
                self.wall_us,
                gap * 100.0,
                PARTITION_BOUND * 100.0
            ))
        }
    }

    /// `{"phase":...,"wall_us":...,"layers":{...},"other_us":...}`.
    pub fn json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(n, us)| format!("\"{n}\":{us}"))
            .collect();
        format!(
            "{{\"phase\":\"{}\",\"wall_us\":{:.0},\"layers\":{{{}}},\"other_us\":{}}}",
            self.phase,
            self.wall_us,
            layers.join(","),
            self.other_us
        )
    }
}
