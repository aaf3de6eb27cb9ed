//! `retention-replay`: a few weeks of the write-heaviest MSR profile
//! (`usr`) replayed at 80% usage on a bench-geometry TimeSSD, then the same
//! trace on a regular SSD.
//!
//! Open loop in virtual time (records arrive on the trace's schedule),
//! single-threaded on the host. This is the hot path of Figures 6–8 and the
//! bulk of `--bin all`: trace generation, replay, the FTL write path, GC and
//! victim selection, Bloom-chain drops and retention sampling. Pages are
//! synthetic, so the codec, TimeKits and NVMe are bypassed.

use almanac_bench::{make_regular, make_timessd, profile_trace, warm_fill};
use almanac_core::SsdReadOps;
use almanac_flash::{Nanos, DAY_NS, SEC_NS};
use almanac_trace::{replay, replay_with_sampler, ReplayReport};
use almanac_workloads::profiles::profile_by_name;

use crate::calib;
use crate::layers::{self, add, span_s, Layers};
use crate::metrics::{Iteration, Virt};
use crate::probe::{Probe, REGULAR, TIMESSD};
use crate::spans;

/// Trace length. At 14 days the retention window is still rising; by 28 it
/// has levelled off after dozens of Bloom-filter drops.
pub const DAYS: u32 = 28;
/// Share of the exported space warm-filled before the replay.
pub const USAGE: f64 = 0.8;
/// Records between retention samples, as Figure 8 samples.
const SAMPLE_EVERY: u64 = 64;

/// One iteration: warm both devices (set-up), then replay on each (timed).
pub fn iterate(seed: u64, traced: bool) -> Iteration {
    let t0 = calib::mark();
    let mut ssd = make_timessd();
    let warm_end = warm_fill(&mut ssd, USAGE);
    let mut regular = make_regular();
    warm_fill(&mut regular, USAGE);
    let setup_s = t0.host_s();

    let base = *ssd.stats();
    let flash0 = *ssd.flash().stats();
    let faults0 = ssd.map_cache_traffic().0;
    let regular_base = *regular.stats();
    let profile = profile_by_name("usr").expect("usr is an MSR profile");

    let t1 = calib::mark();
    let trace = spans::timed("workloads.tracegen", 0, || {
        profile_trace(
            &profile,
            DAYS,
            USAGE,
            ssd.exported_pages(),
            warm_end + SEC_NS,
            seed,
        )
    });
    let mut ssd = Probe::new(ssd, TIMESSD, traced).grouped();
    let mut samples: Vec<Nanos> = Vec::new();
    let mut records = 0u64;
    let ts_report = spans::timed("trace.replay", 0, || {
        replay_with_sampler(&trace, &mut ssd, |d, now| {
            d.end_request();
            records += 1;
            if records.is_multiple_of(SAMPLE_EVERY) {
                let _g = spans::enter("core.timessd.retention_sample", records);
                samples.push(d.inner().retention_window(now));
            }
        })
    });
    let mut regular = Probe::new(regular, REGULAR, traced);
    let reg_report = spans::timed("trace.replay", 1, || replay(&trace, &mut regular));
    let wall_s = t1.host_s();

    let (ssd, rec) = ssd.finish();
    let (regular, reg_rec) = regular.finish();
    let stats = ssd.stats().since(&base);
    let reg_stats = regular.stats().since(&regular_base);
    let page_ops = [stats, reg_stats]
        .iter()
        .map(|s| s.user_reads + s.user_writes + s.user_trims + s.host_flushes)
        .sum();
    let steady = &samples[samples.len() / 2..];
    let retention_days =
        steady.iter().sum::<Nanos>() as f64 / steady.len().max(1) as f64 / DAY_NS as f64;
    let mut responses = rec.responses.clone();
    responses.sort_unstable();

    let mut it = Iteration {
        setup_s,
        wall_s,
        slice_s: 0.0,
        page_ops,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        virt: Virt {
            responses,
            write_amp: stats.write_amplification(),
            headline: ("retention_days", "d", retention_days),
        },
        digest: layers::state_digest(ssd.flash()),
        layers: Layers::new(),
    };
    let records = trace.records.len() as u64;
    for (name, report) in [("timessd", &ts_report), ("regular", &reg_report)] {
        replayed(&mut it, name, records, report);
    }
    let min_days = ssd.config().min_retention as f64 / DAY_NS as f64;
    it.check(retention_days >= min_days, || {
        format!("retention window {retention_days:.2} d below the {min_days} d minimum")
    });
    let consistency = ssd.check_consistency();
    it.check(consistency.is_clean(), || {
        format!("TimeSSD inconsistent after replay: {consistency:?}")
    });

    if traced {
        let totals = spans::totals();
        let out = &mut it.layers;
        add(
            out,
            "workloads.tracegen_s",
            span_s(&totals, "workloads.tracegen", false),
        );
        add(
            out,
            "trace.replay_self_s",
            span_s(&totals, "trace.replay", true),
        );
        add(
            out,
            "core.timessd.retention_sample_s",
            span_s(&totals, "core.timessd.retention_sample", false),
        );
        layers::device_calls(out, &[&rec], true);
        layers::device_calls(out, &[&reg_rec], false);
        layers::timessd_attribution(out, &[&rec]);
        let flash = ssd.flash().stats().since(&flash0);
        layers::timessd_counters(out, &ssd, &stats, &flash, faults0);
        let encodes = layers::byte_deltas(&ssd);
        add(out, "compress.encodes", encodes as f64);
    }
    it
}

/// Counts a replay's records as attempted and the ones not replayed (a
/// stall or a device error) as failed.
fn replayed(
    it: &mut Iteration,
    device: &str,
    records: u64,
    report: &Result<ReplayReport, almanac_core::AlmanacError>,
) {
    it.attempted += records;
    match report {
        Ok(r) if !r.stalled => {}
        Ok(r) => {
            it.failed += records - r.replayed as u64;
            it.failures.push(format!(
                "{device}: stalled after {} of {records} records",
                r.replayed
            ));
        }
        Err(e) => {
            it.failed += records;
            it.failures.push(format!("{device}: replay failed: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
    use almanac_flash::Geometry;

    use super::*;
    use crate::probe::Record;

    /// Replays three days of `usr` on a warm `medium_test` TimeSSD, bare
    /// or through the probe (`Some(traced)`).
    fn replay_on(seed: u64, probe: Option<bool>) -> (ReplayReport, TimeSsd, Option<Record>) {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let warm_end = warm_fill(&mut ssd, USAGE);
        let profile = profile_by_name("usr").expect("usr is an MSR profile");
        let exported = ssd.exported_pages();
        let trace = profile_trace(&profile, 3, USAGE, exported, warm_end + SEC_NS, seed);
        match probe {
            None => {
                let report = replay(&trace, &mut ssd).expect("replay");
                (report, ssd, None)
            }
            Some(traced) => {
                if traced {
                    spans::start();
                }
                let mut dev = Probe::new(ssd, TIMESSD, traced).grouped();
                let report =
                    replay_with_sampler(&trace, &mut dev, |d, _| d.end_request()).expect("replay");
                let _ = spans::stop();
                let (ssd, rec) = dev.finish();
                (report, ssd, Some(rec))
            }
        }
    }

    #[test]
    fn the_probe_changes_nothing() {
        for seed in [1, 2] {
            let (bare, bare_ssd, _) = replay_on(seed, None);
            let (plain, plain_ssd, plain_rec) = replay_on(seed, Some(false));
            let (traced, traced_ssd, traced_rec) = replay_on(seed, Some(true));
            assert!(bare.user_writes > 0 && !bare.stalled);
            assert_eq!(plain, bare);
            assert_eq!(traced, bare);
            let digest = bare_ssd.flash().state_digest();
            assert_eq!(plain_ssd.flash().state_digest(), digest);
            assert_eq!(traced_ssd.flash().state_digest(), digest);
            assert_eq!(
                layers::state_digest(traced_ssd.flash()),
                layers::state_digest(bare_ssd.flash())
            );
            assert_eq!(*traced_ssd.stats(), *bare_ssd.stats());
            let (plain_rec, traced_rec) = (plain_rec.unwrap(), traced_rec.unwrap());
            assert_eq!(plain_rec.responses, traced_rec.responses);
            assert_eq!(plain_rec.responses.len() as u64, bare.replayed as u64);
            let traced_calls: u64 = traced_rec.busy.iter().map(|b| b.calls).sum();
            assert_eq!(traced_calls, bare.user_writes + bare.user_reads);
        }
    }

    #[test]
    fn grouped_responses_take_the_slowest_page() {
        let mut dev = Probe::new(
            TimeSsd::new(SsdConfig::new(Geometry::small_test())),
            TIMESSD,
            false,
        )
        .grouped();
        let a = dev
            .write(
                almanac_flash::Lpa(0),
                almanac_flash::PageData::Zeros,
                SEC_NS,
            )
            .unwrap();
        let b = dev
            .write(
                almanac_flash::Lpa(1),
                almanac_flash::PageData::Zeros,
                SEC_NS,
            )
            .unwrap();
        dev.end_request();
        let (_, rec) = dev.finish();
        assert_eq!(rec.responses, vec![a.finish.max(b.finish) - SEC_NS]);
    }
}
