//! `live-audit`: a host drives [`STREAMS`] `medium_test` TimeSSDs (8k
//! pages each), one after another, through the NVMe `HostDriver`, and
//! every few thousand commands runs a forensic audit over the hot span.
//!
//! Open loop: one command every [`GAP`] of virtual time, each timed from
//! its due instant, with at most [`QUEUE_DEPTH`] outstanding — below the
//! device's QD-16 saturation. The stream mixes multi-page writes of real
//! bytes, reads, trims and flush barriers over a 2048-page hot span that
//! fits in host cache. Its shares come from the repository's own workloads:
//! a flush barrier every [`FLUSH_EVERY`] commands (the `trimwa` figure's
//! cadence), one trim in [`TRIM_ONE_IN`] of the rest (the `shardscale`
//! history's share), and the remainder split into writes and reads by the
//! MSR `usr` profile's write ratio, with request sizes drawn from its
//! geometric size distribution. The audit runs `AddrQuery` all-versions,
//! as-of and range over the span at one and at two workers through
//! `read_view()`, plus one as-of query through the wire
//! (`addr_query_parallel`). A short minimum retention (1 s) lets GC expire
//! history and drop Bloom filters within each stream's 30 virtual seconds.
//! NVMe queueing, trims, flush barriers and TimeKits queries are stressed
//! only here.

use std::collections::HashMap;

use almanac_core::{SsdConfig, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, Lpa, Nanos, MS_NS, SEC_NS};
use almanac_kits::{AddrQuery, AddrQueryOutcome};
use almanac_nvme::{CompletedIo, HostDriver, NvmeController, Ticket};
use almanac_workloads::profiles::{profile_by_name, TraceProfile};

use crate::calib;
use crate::layers::{self, add, span_s, Layers};
use crate::metrics::{median, Iteration, Virt};
use crate::spans;

/// Streams per iteration, each from its own seed on its own device. The
/// host time of the audits varies severalfold between stream histories
/// with the same query work (see `README.md`), so the timed phase is
/// reported as the median stream's time times the streams, which one slow
/// stream cannot move.
const STREAMS: usize = 3;
/// Commands per stream.
const COMMANDS: u64 = 10_000;
/// Commands between audits.
const AUDIT_EVERY: u64 = 5_000;
/// Most commands outstanding.
const QUEUE_DEPTH: usize = 16;
/// Pages the stream and the audits address.
const HOT_PAGES: u64 = 2048;
/// Virtual time between command arrivals.
const GAP: Nanos = 3_000_000;
/// Commands per flush barrier, as the `trimwa` figure's stream.
const FLUSH_EVERY: u64 = 128;
/// One trim in this many of the other commands, as the `shardscale`
/// figure's history.
const TRIM_ONE_IN: u64 = 23;
/// Most pages per read or write command, as the profile generator caps
/// its geometric request sizes.
const MAX_PAGES: u64 = 64;
/// Rounds of device creation per set-up; the set-up time is the median
/// round's.
const SETUPS: usize = 25;

/// Deterministic page content: a per-page pattern with the version stamped
/// in, so successive versions delta-compress like content-local updates.
fn page_bytes(lpa: u64, version: u64, size: usize) -> Vec<u8> {
    let mut page: Vec<u8> = (0..size)
        .map(|i| (lpa as usize * 31 + i / 64) as u8)
        .collect();
    let at = (version as usize * 8) % (size - 8);
    page[at..at + 8].copy_from_slice(&version.to_le_bytes());
    page
}

/// xorshift64 stream from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// Pages of one request: geometric with the profile's mean, capped.
    fn pages(&mut self, profile: &TraceProfile) -> u64 {
        let p = 1.0 / profile.req_pages_mean.max(1.0);
        let mut n = 1;
        while n < MAX_PAGES && !self.chance(p) {
            n += 1;
        }
        n
    }
}

/// Command kinds of the stream.
#[derive(Clone, Copy)]
enum Op {
    Write,
    Read,
    Trim,
    Flush,
}

/// Host-side state of the open-loop generator.
#[derive(Default)]
struct Generator {
    due: HashMap<Ticket, Nanos>,
    responses: Vec<Nanos>,
    /// Completions with an error status (refused submissions never
    /// complete and count as missing responses instead).
    failed_completions: u64,
    /// One line per failed or refused command.
    errors: Vec<String>,
    page_ops: u64,
    queue_full_waits: u64,
    peak_outstanding: usize,
    lag_ns: u64,
}

impl Generator {
    fn complete(&mut self, done: Vec<CompletedIo>) {
        for io in done {
            let due = self.due.remove(&io.ticket).unwrap_or(io.finish);
            self.responses.push(io.finish.saturating_sub(due));
            if !io.is_success() {
                self.failed_completions += 1;
                self.errors.push(format!(
                    "{:?} failed with status {:#06x}",
                    io.opcode, io.status
                ));
            }
        }
    }

    /// Polls at `now` (a span per call).
    fn poll(&mut self, driver: &mut HostDriver, now: Nanos) {
        let done = spans::timed("nvme.poll", 0, || driver.poll(now));
        self.complete(done);
    }

    /// Advances virtual time to the next completion; false when none.
    fn wait(&mut self, driver: &mut HostDriver, now: &mut Nanos) -> bool {
        match driver.next_completion_at() {
            Some(at) => {
                *now = (*now).max(at);
                self.poll(driver, *now);
                true
            }
            None => false,
        }
    }
}

/// Query results of one audit, for the per-layer metrics.
#[derive(Default)]
struct Audits {
    checks: u64,
    hits: u64,
    decodes: u64,
    makespan_ns: u64,
}

/// One device with its submission queue.
struct Device {
    driver: HostDriver,
    qid: u16,
}

/// Creates [`STREAMS`] devices, [`SETUPS`] times over; returns the last set
/// and the median time of one set.
fn set_up(config: &SsdConfig) -> (Vec<Device>, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut devices = Vec::new();
    for _ in 0..SETUPS {
        let t0 = calib::mark();
        devices = (0..STREAMS)
            .map(|_| {
                let mut driver = HostDriver::new(NvmeController::new(TimeSsd::new(config.clone())));
                let qid = driver.create_queue(QUEUE_DEPTH);
                Device { driver, qid }
            })
            .collect();
        times.push(t0.host_s());
    }
    (devices, median(&times))
}

/// One iteration: create the devices (set-up), then one stream with its
/// audits on each (timed).
pub fn iterate(seed: u64, traced: bool) -> Iteration {
    let config = SsdConfig::new(Geometry::medium_test()).with_min_retention(SEC_NS);
    let (mut devices, setup_s) = set_up(&config);
    let profile = profile_by_name("usr").expect("usr is an MSR profile");

    let bases: Vec<_> = devices
        .iter()
        .map(|d| {
            let ssd = d.driver.controller().ssd();
            (
                *ssd.stats(),
                *ssd.flash().stats(),
                ssd.map_cache_traffic().0,
            )
        })
        .collect();
    let mut gen = Generator::default();
    let mut audits = Audits::default();
    let mut mismatches: Vec<String> = Vec::new();

    let mut stream_s = Vec::with_capacity(STREAMS);
    for (k, dev) in devices.iter_mut().enumerate() {
        let rng = Rng((seed ^ (k as u64) << 32).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let t1 = calib::mark();
        stream(dev, rng, &profile, &mut gen, &mut audits, &mut mismatches);
        stream_s.push(t1.host_s());
    }
    let wall_s = median(&stream_s) * STREAMS as f64;

    let commands = STREAMS as u64 * COMMANDS;
    let stats: Vec<_> = devices
        .iter()
        .zip(&bases)
        .map(|(d, (base, _, _))| d.driver.controller().ssd().stats().since(base))
        .collect();
    let programs: u64 = stats
        .iter()
        .map(|s| s.user_programs + s.gc_programs + s.delta_programs + s.wl_programs)
        .sum();
    let user_programs: u64 = stats.iter().map(|s| s.user_programs).sum();
    gen.responses.sort_unstable();
    let mut it = Iteration {
        setup_s,
        wall_s,
        slice_s: 0.0,
        page_ops: gen.page_ops,
        attempted: commands,
        failed: 0,
        failures: Vec::new(),
        virt: Virt {
            responses: gen.responses.clone(),
            write_amp: programs as f64 / user_programs.max(1) as f64,
            headline: (
                "virt_query_ms",
                "ms",
                audits.makespan_ns as f64 / MS_NS as f64,
            ),
        },
        digest: devices.iter().fold(0, |acc, d| {
            layers::fold_digest(
                acc,
                layers::state_digest(d.driver.controller().ssd().flash()),
            )
        }),
        layers: Layers::new(),
    };
    // A refused command never completes: it counts once, as missing.
    let lost = commands - gen.responses.len() as u64;
    it.failed += gen.failed_completions + lost;
    it.failures.extend(gen.errors.iter().take(5).cloned());
    if lost > 0 {
        it.failures.push(format!("{lost} commands never completed"));
    }
    it.attempted += audits.checks;
    it.failed += mismatches.len() as u64;
    it.failures.extend(mismatches);
    for (k, d) in devices.iter().enumerate() {
        let consistency = d.driver.controller().ssd().check_consistency();
        it.check(consistency.is_clean(), || {
            format!("TimeSSD {k} inconsistent after its stream: {consistency:?}")
        });
    }

    if traced {
        let totals = spans::totals();
        let out = &mut it.layers;
        add(out, "nvme.submit_s", span_s(&totals, "nvme.submit", false));
        add(out, "nvme.poll_s", span_s(&totals, "nvme.poll", false));
        add(
            out,
            "nvme.wire_query_s",
            span_s(&totals, "nvme.wire_query", false),
        );
        add(out, "nvme.commands", commands as f64);
        add(out, "nvme.queue_full_waits", gen.queue_full_waits as f64);
        add(out, "nvme.peak_outstanding", gen.peak_outstanding as f64);
        add(
            out,
            "nvme.submit_lag_us",
            gen.lag_ns as f64 / commands as f64 / 1e3,
        );
        for (kind, span) in QUERY_SPANS {
            add(out, kind, span_s(&totals, span, false));
        }
        add(out, "kits.hits", audits.hits as f64);
        add(
            out,
            "kits.virt_makespan_ms",
            audits.makespan_ns as f64 / 1e6,
        );
        add(out, "compress.decodes", audits.decodes as f64);
        for ((d, stats), (_, flash0, faults0)) in devices.iter().zip(&stats).zip(&bases) {
            let ssd = d.driver.controller().ssd();
            add(
                out,
                "nvme.ooo_completions",
                d.driver.controller().ooo_completions() as f64,
            );
            let flash = ssd.flash().stats().since(flash0);
            layers::timessd_counters(out, ssd, stats, &flash, *faults0);
            add(out, "compress.encodes", layers::byte_deltas(ssd) as f64);
        }
    }
    it
}

/// Runs one stream of [`COMMANDS`] on `dev`, auditing every
/// [`AUDIT_EVERY`] commands, and drains it.
fn stream(
    dev: &mut Device,
    mut rng: Rng,
    profile: &TraceProfile,
    gen: &mut Generator,
    audits: &mut Audits,
    mismatches: &mut Vec<String>,
) {
    let Device { driver, qid } = dev;
    let qid = *qid;
    let page_size = driver.controller().ssd().geometry().page_size as usize;
    let start: Nanos = SEC_NS;
    let mut now = start;
    for i in 0..COMMANDS {
        calib::tick();
        let due = start + i * GAP;
        now = now.max(due);
        while driver.in_flight() >= QUEUE_DEPTH {
            gen.queue_full_waits += 1;
            if !gen.wait(driver, &mut now) {
                break;
            }
        }
        let op = if (i + 1) % FLUSH_EVERY == 0 {
            Op::Flush
        } else if rng.next().is_multiple_of(TRIM_ONE_IN) {
            Op::Trim
        } else if rng.chance(profile.write_ratio) {
            Op::Write
        } else {
            Op::Read
        };
        let lpa = rng.next() % HOT_PAGES;
        // Pages the command covers (a flush counts as one operation).
        let pages = match op {
            Op::Flush | Op::Trim => 1,
            Op::Write | Op::Read => rng.pages(profile).min(HOT_PAGES - lpa),
        };
        let submitted = spans::timed("nvme.submit", i, || match op {
            Op::Write => {
                let data = (0..pages)
                    .map(|p| page_bytes(lpa + p, i, page_size))
                    .collect();
                driver.submit_write(qid, Lpa(lpa), data)
            }
            Op::Read => driver.submit_read(qid, Lpa(lpa), pages as u32),
            Op::Trim => driver.submit_trim(qid, Lpa(lpa), pages as u32),
            Op::Flush => driver.submit_flush(qid),
        });
        match submitted {
            Ok(ticket) => {
                gen.due.insert(ticket, due);
                gen.lag_ns += now - due;
                gen.page_ops += pages;
                gen.peak_outstanding = gen.peak_outstanding.max(driver.in_flight());
            }
            Err(e) => gen.errors.push(format!("command {i} refused: {e}")),
        }
        gen.poll(driver, now);
        if (i + 1) % AUDIT_EVERY == 0 {
            while driver.in_flight() > 0 && gen.wait(driver, &mut now) {}
            audit(driver, due, now, audits, mismatches);
        }
    }
    while driver.in_flight() > 0 && gen.wait(driver, &mut now) {}
}

/// Per-layer metric and span of each audit query at one and two workers.
const QUERY_SPANS: [(&str, &str); 6] = [
    ("kits.addr_query.all.t1_s", "kits.addr_query.all.t1"),
    ("kits.addr_query.all.t2_s", "kits.addr_query.all.t2"),
    ("kits.addr_query.as_of.t1_s", "kits.addr_query.as_of.t1"),
    ("kits.addr_query.as_of.t2_s", "kits.addr_query.as_of.t2"),
    ("kits.addr_query.range.t1_s", "kits.addr_query.range.t1"),
    ("kits.addr_query.range.t2_s", "kits.addr_query.range.t2"),
];

/// One forensic audit at `now` over the hot span: each query kind at one
/// and two workers (results must agree), then the as-of query through the
/// wire (must agree with the host side). `last_due` is the due time of the
/// last command before the audit; the as-of point and the range cover the
/// second half of the commands since the previous audit.
fn audit(
    driver: &mut HostDriver,
    last_due: Nanos,
    now: Nanos,
    audits: &mut Audits,
    mismatches: &mut Vec<String>,
) {
    let as_of = last_due - AUDIT_EVERY / 2 * GAP;
    let as_of_hits = {
        let view = driver.read_view();
        let query = || AddrQuery::new(view, Lpa(0), HOT_PAGES);
        let kinds: [(&str, AddrQuery<'_>); 3] = [
            ("all", query().all_versions()),
            ("as_of", query().as_of(as_of)),
            ("range", query().range(as_of, last_due)),
        ];
        let mut as_of_hits = Vec::new();
        for (k, (kind, q)) in kinds.into_iter().enumerate() {
            let run = |threads: u32| {
                calib::check();
                spans::timed(QUERY_SPANS[2 * k + threads as usize - 1].1, now, || {
                    q.threads(threads).run()
                })
            };
            audits.checks += 1;
            let (one, two): (AddrQueryOutcome, AddrQueryOutcome) = match (run(1), run(2)) {
                (Ok(one), Ok(two)) => (one, two),
                (Err(e), _) | (_, Err(e)) => {
                    mismatches.push(format!("{kind} query failed: {e}"));
                    continue;
                }
            };
            if one.hits != two.hits {
                mismatches.push(format!("{kind} query: 1 and 2 workers disagree"));
            }
            audits.hits += one.hits.len() as u64;
            audits.decodes += one.cost.decompressions + two.cost.decompressions;
            audits.makespan_ns += one.makespan(1) + two.makespan(2);
            if kind == "as_of" {
                as_of_hits = one.hits;
            }
        }
        as_of_hits
    };
    audits.checks += 1;
    let page_size = driver.controller().ssd().geometry().page_size as usize;
    calib::check();
    let wire = spans::timed("nvme.wire_query", now, || {
        driver.addr_query_parallel(Lpa(0), HOT_PAGES as u32, as_of, 2, now)
    });
    match wire {
        Ok(pages) => {
            let host: Vec<Vec<u8>> = as_of_hits
                .iter()
                .map(|h| h.data.materialize(page_size))
                .collect();
            if pages != host {
                mismatches.push("wire as-of query disagrees with the host-side query".to_string());
            }
        }
        Err(e) => mismatches.push(format!("wire query failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream after which `check_consistency` first failed: 50% writes
    /// and 30% reads of 1–4 pages, 15% trims of 1–2 pages, 5% flush
    /// barriers, one command every 2 ms, an audit every 4,000 commands.
    /// At seed 4 a page's newest compressed version sits in a live flushed
    /// delta page that its version chain never reaches, because
    /// `TimeSsd::version_chain` stops at a delta page of an expired segment
    /// instead of falling back to the IMT head.
    #[test]
    #[ignore = "known defect: version chains stop at delta pages of expired segments"]
    fn heavy_trim_stream_stays_consistent() {
        const GAP: Nanos = 2_000_000;
        let config = SsdConfig::new(Geometry::medium_test()).with_min_retention(SEC_NS);
        let page_size = config.geometry.page_size as usize;
        let mut driver = HostDriver::new(NvmeController::new(TimeSsd::new(config)));
        let qid = driver.create_queue(QUEUE_DEPTH);
        let mut rng = Rng(4u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut gen = Generator::default();
        let mut now = SEC_NS;
        for i in 0..20_000 {
            let due = SEC_NS + i * GAP;
            now = now.max(due);
            while driver.in_flight() >= QUEUE_DEPTH && gen.wait(&mut driver, &mut now) {}
            let r = rng.next();
            let lpa = (r >> 16) % HOT_PAGES;
            let pages = (1 + (r >> 8) % 4).min(HOT_PAGES - lpa);
            let submitted = match r % 100 {
                0..=49 => {
                    let data = (0..pages)
                        .map(|p| page_bytes(lpa + p, i, page_size))
                        .collect();
                    driver.submit_write(qid, Lpa(lpa), data)
                }
                50..=79 => driver.submit_read(qid, Lpa(lpa), pages as u32),
                80..=94 => driver.submit_trim(qid, Lpa(lpa), pages.min(2) as u32),
                _ => driver.submit_flush(qid),
            };
            submitted.expect("command accepted");
            gen.poll(&mut driver, now);
            if (i + 1) % 4_000 == 0 {
                while driver.in_flight() > 0 && gen.wait(&mut driver, &mut now) {}
                let mut mismatches = Vec::new();
                audit(
                    &mut driver,
                    due,
                    now,
                    &mut Audits::default(),
                    &mut mismatches,
                );
                assert!(mismatches.is_empty(), "{mismatches:?}");
            }
        }
        while driver.in_flight() > 0 && gen.wait(&mut driver, &mut now) {}
        assert_eq!(gen.failed_completions, 0, "{:?}", gen.errors);
        let consistency = driver.controller().ssd().check_consistency();
        assert!(consistency.is_clean(), "{consistency:?}");
    }
}
