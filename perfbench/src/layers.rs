//! Per-layer metrics shared by the workloads: device-call accounting from
//! the probe's records, TimeSSD counters from statistics deltas, span
//! times, and the flash-state digest.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use almanac_core::{DeviceStats, TimeSsd};
use almanac_flash::{BlockId, DeltaBody, FlashArray, FlashStats, PageData, PageState, Ppa};

use crate::metrics::quantile;
use crate::probe::{Record, KINDS};
use crate::spans::Total;

/// Per-layer metrics of one traced iteration.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to metric `name`.
pub fn add(out: &mut Layers, name: &'static str, v: f64) {
    *out.entry(name).or_insert(0.0) += v;
}

/// Seconds of span `name`: its self time or its whole duration.
pub fn span_s(totals: &BTreeMap<&'static str, Total>, name: &str, own: bool) -> f64 {
    totals.get(name).map_or(
        0.0,
        |t| if own { t.self_ns } else { t.total_ns } as f64 / 1e9,
    )
}

/// Calls and busy seconds per operation kind of probed devices of one kind;
/// with `percentiles`, also the host p50/p99 per call over all of them.
pub fn device_calls(out: &mut Layers, records: &[&Record], percentiles: bool) {
    let Some(first) = records.first() else {
        return;
    };
    for k in 0..KINDS.len() {
        let span = first.names[k];
        let calls: u64 = records.iter().map(|r| r.busy[k].calls).sum();
        let ns: u64 = records.iter().map(|r| r.busy[k].ns).sum();
        add(out, declared(&format!("{span}.calls")), calls as f64);
        add(out, declared(&format!("{span}.busy_s")), ns as f64 / 1e9);
        if percentiles {
            let samples: Vec<u64> = records
                .iter()
                .flat_map(|r| &r.host_ns[k])
                .copied()
                .collect();
            add(
                out,
                declared(&format!("{span}.host_p50_ns")),
                quantile(&samples, 0.50) as f64,
            );
            add(
                out,
                declared(&format!("{span}.host_p99_ns")),
                quantile(&samples, 0.99) as f64,
            );
        }
    }
}

/// GC and idle-compression call attribution of probed TimeSSDs.
pub fn timessd_attribution(out: &mut Layers, records: &[&Record]) {
    for r in records {
        add(out, "core.timessd.gc_calls", r.gc.calls as f64);
        add(out, "core.timessd.gc_busy_s", r.gc.ns as f64 / 1e9);
        add(out, "core.timessd.bgc_calls", r.bgc.calls as f64);
        add(out, "core.timessd.bgc_busy_s", r.bgc.ns as f64 / 1e9);
    }
}

/// The declared metric named `name`.
fn declared(name: &str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// TimeSSD work counters over a window: device statistics and flash
/// counters since the window opened, map-cache faults since `faults0`.
pub fn timessd_counters(
    out: &mut Layers,
    ssd: &TimeSsd,
    stats: &DeviceStats,
    flash: &FlashStats,
    faults0: u64,
) {
    add(out, "core.gc_runs", stats.gc_runs as f64);
    add(out, "core.gc_programs", stats.gc_programs as f64);
    add(out, "core.gc_erases", stats.gc_erases as f64);
    add(out, "core.delta_programs", stats.delta_programs as f64);
    add(out, "core.flush_pages", stats.flush_pages as f64);
    add(out, "core.aging_flushes", stats.aging_flushes as f64);
    add(
        out,
        "core.map_cache_faults",
        (ssd.map_cache_traffic().0 - faults0) as f64,
    );
    add(out, "core.gc_time_ns", stats.gc_time_ns as f64);
    add(out, "bloom.filters_dropped", stats.filters_dropped as f64);
    add(out, "bloom.live_filters", ssd.live_filters() as f64);
    add(out, "flash.reads", flash.reads as f64);
    add(out, "flash.programs", flash.programs as f64);
    add(out, "flash.erases", flash.erases as f64);
}

/// Folds a flash state digest into a running one (order-sensitive).
pub fn fold_digest(acc: u64, digest: u64) -> u64 {
    acc.rotate_left(17) ^ digest
}

/// Compressed versions whose payload went through the byte codec, counted
/// in the delta pages on flash: one codec encode each. Modelled deltas of
/// synthetic pages never call the codec and are not counted.
pub fn byte_deltas(ssd: &TimeSsd) -> u64 {
    let flash = ssd.flash();
    (0..flash.geometry().total_pages())
        .filter_map(|p| match flash.peek(Ppa(p)) {
            Ok((PageData::DeltaPage(page), _)) => Some(
                page.deltas
                    .iter()
                    .filter(|d| matches!(d.body, DeltaBody::Bytes(_)))
                    .count() as u64,
            ),
            _ => None,
        })
        .sum()
}

/// Digest of the persistent flash state: every block's write pointer and
/// erase count and the content and OOB of every written page — what
/// `FlashArray::state_digest` covers, hashed from the values instead of
/// their debug text, which is too slow for gigabytes of byte pages.
pub fn state_digest(flash: &FlashArray) -> u64 {
    let mut h = DefaultHasher::new();
    for b in 0..flash.geometry().total_blocks() {
        let block = flash.block(BlockId(b)).expect("block in range");
        (block.write_ptr, block.erase_count).hash(&mut h);
        for page in block.pages.iter().filter(|p| p.state == PageState::Written) {
            hash_data(&page.data, &mut h);
            page.oob
                .map(|o| (o.lpa.0, o.back_ptr.map(|p| p.0), o.timestamp))
                .hash(&mut h);
        }
    }
    h.finish()
}

fn hash_data(data: &PageData, h: &mut DefaultHasher) {
    match data {
        PageData::Zeros => 0u8.hash(h),
        PageData::Synthetic { seed, version } => (1u8, seed, version).hash(h),
        PageData::Bytes(bytes) => (2u8, bytes.as_slice()).hash(h),
        PageData::DeltaPage(page) => {
            3u8.hash(h);
            for d in &page.deltas {
                (
                    d.lpa.0,
                    d.back_ptr.map(|p| p.0),
                    d.timestamp,
                    d.ref_timestamp,
                    d.size,
                )
                    .hash(h);
                match &d.body {
                    DeltaBody::Synthetic { seed, version } => (0u8, seed, version).hash(h),
                    DeltaBody::Zeros => 1u8.hash(h),
                    DeltaBody::Bytes(bytes) => (2u8, bytes.as_slice()).hash(h),
                    DeltaBody::Trim => 3u8.hash(h),
                }
            }
        }
    }
}
