//! Version chains survive stale back-pointers into expired delta segments.
//!
//! A heavy trim and flush-barrier stream through the NVMe host driver, with
//! a 1 s minimum retention so GC expires history and drops Bloom filters
//! while the stream runs. At this seed a back-pointer lands on a delta page
//! of an expired segment while the page's newest compressed version sits in
//! a live flushed delta page; the chain walk must fall back to the IMT head
//! there and reach it, or `check_consistency` reports
//! `UnreachableFlushedDelta`.

use std::collections::HashSet;

use almanac::core::{SsdConfig, TimeSsd};
use almanac::flash::{Geometry, Lpa, Nanos, SEC_NS};
use almanac::nvme::{HostDriver, NvmeController, Ticket};

const COMMANDS: u64 = 20_000;
const GAP: Nanos = 2_000_000;
const QUEUE_DEPTH: usize = 16;
const HOT_PAGES: u64 = 2048;
const AUDIT_EVERY: u64 = 4_000;

/// A per-page pattern with the version stamped in, so successive versions
/// delta-compress like content-local updates.
fn page_bytes(lpa: u64, version: u64, size: usize) -> Vec<u8> {
    let mut page: Vec<u8> = (0..size)
        .map(|i| (lpa as usize * 31 + i / 64) as u8)
        .collect();
    let at = (version as usize * 8) % (size - 8);
    page[at..at + 8].copy_from_slice(&version.to_le_bytes());
    page
}

/// Advances `now` to the next completion and reaps it; false when idle.
fn wait(driver: &mut HostDriver, now: &mut Nanos, pending: &mut HashSet<Ticket>) -> bool {
    let Some(at) = driver.next_completion_at() else {
        return false;
    };
    *now = (*now).max(at);
    reap(driver, *now, pending);
    true
}

fn reap(driver: &mut HostDriver, now: Nanos, pending: &mut HashSet<Ticket>) {
    for io in driver.poll(now) {
        assert!(
            io.is_success(),
            "{:?} failed: {:#06x}",
            io.opcode,
            io.status
        );
        pending.remove(&io.ticket);
    }
}

#[test]
fn heavy_trim_stream_keeps_every_flushed_delta_reachable() {
    let config = SsdConfig::new(Geometry::medium_test()).with_min_retention(SEC_NS);
    let page_size = config.geometry.page_size as usize;
    let mut driver = HostDriver::new(NvmeController::new(TimeSsd::new(config)));
    let qid = driver.create_queue(QUEUE_DEPTH);
    // xorshift64: 50% writes and 30% reads of 1-4 pages, 15% trims of 1-2
    // pages, 5% flush barriers, one command every 2 ms.
    let mut state = 4u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut pending = HashSet::new();
    let mut now = SEC_NS;
    for i in 0..COMMANDS {
        let due = SEC_NS + i * GAP;
        now = now.max(due);
        while driver.in_flight() >= QUEUE_DEPTH && wait(&mut driver, &mut now, &mut pending) {}
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = state;
        let lpa = (r >> 16) % HOT_PAGES;
        let pages = (1 + (r >> 8) % 4).min(HOT_PAGES - lpa);
        let ticket = match r % 100 {
            0..=49 => {
                let data = (0..pages)
                    .map(|p| page_bytes(lpa + p, i, page_size))
                    .collect();
                driver.submit_write(qid, Lpa(lpa), data)
            }
            50..=79 => driver.submit_read(qid, Lpa(lpa), pages as u32),
            80..=94 => driver.submit_trim(qid, Lpa(lpa), pages.min(2) as u32),
            _ => driver.submit_flush(qid),
        }
        .expect("command accepted");
        pending.insert(ticket);
        reap(&mut driver, now, &mut pending);
        if (i + 1) % AUDIT_EVERY == 0 {
            // Drain, then an as-of query through the wire over the second
            // half of the commands since the last audit.
            while driver.in_flight() > 0 && wait(&mut driver, &mut now, &mut pending) {}
            let as_of = due - AUDIT_EVERY / 2 * GAP;
            driver
                .addr_query_parallel(Lpa(0), HOT_PAGES as u32, as_of, 2, now)
                .expect("wire query");
        }
    }
    while driver.in_flight() > 0 && wait(&mut driver, &mut now, &mut pending) {}
    assert!(
        pending.is_empty(),
        "{} commands never completed",
        pending.len()
    );
    let report = driver.controller().ssd().check_consistency();
    assert!(report.is_clean(), "{:?}", report.violations);
}
