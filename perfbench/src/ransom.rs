//! `ransomware-recovery`: the Figure 10 pipeline on a TimeSSD and on a
//! FlashGuard SSD at 50% usage, for one in-place encryptor (Petya) and one
//! copy-and-delete encryptor (CTB-Locker) at the full-scale victim size.
//!
//! Closed loop: scripted file-system calls, each issued when the previous
//! one returns. Per family and device: the attack through `AlmanacFs`; an
//! idle settle, in which TimeSSD's idle compressor delta-compresses the
//! retained plaintext; then on TimeSSD a flush barrier, a power cut and
//! `recover_from_flash`, and TimeKits `time_query`, `snapshot_at` and
//! `roll_back_set`; on FlashGuard its retained-page restore. This is the
//! only workload where real bytes reach the codec, and the only one that
//! runs `fs`, the FlashGuard FTL, rebuild and rollback.

use std::collections::{HashMap, HashSet};

use almanac_bench::{bench_config, warm_fill};
use almanac_core::{FlashGuardSsd, SsdDevice, SsdReadOps, TimeSsd};
use almanac_flash::{Lpa, Nanos, PageData, MINUTE_NS, SEC_NS};
use almanac_fs::{AlmanacFs, FsMode};
use almanac_kits::TimeKits;
use almanac_workloads::ransomware::{attack, families, AttackReport, Family};

use crate::calib;
use crate::layers::{self, add, span_s, Layers};
use crate::metrics::{Iteration, Virt};
use crate::probe::{Probe, Record, FLASHGUARD, TIMESSD};
use crate::spans;

/// Share of the exported space warm-filled before the attack.
const USAGE: f64 = 0.5;
/// Full-scale victim size: the base family volume times this.
const VICTIM_SCALE: u64 = 3;
/// Host threads TimeKits fans queries over.
const HOST_THREADS: u32 = 2;
/// Recovery threads of the Figure 10 restore-time model (the device's
/// channel count).
const MODEL_THREADS: u32 = 8;

/// The two families: one encrypts in place, one copies and deletes.
fn attack_families() -> Vec<Family> {
    families()
        .into_iter()
        .filter(|f| f.name == "Petya" || f.name == "CTB-Locker")
        .map(|mut f| {
            f.victim_mib *= VICTIM_SCALE;
            f
        })
        .collect()
}

/// Idle minutes after the ransom note, as Figure 10 settles: each idle
/// window lets the firmware compress one victim block.
fn settle<D: SsdDevice>(dev: &mut D, from: Nanos) -> Nanos {
    let mut t = from;
    for _ in 0..400 {
        t += 2 * MINUTE_NS;
        let _ = dev.write(Lpa(0), PageData::Zeros, t);
    }
    t
}

/// Accumulates host seconds over the timed parts of an iteration, so
/// output checks stay outside `wall_s`.
#[derive(Default)]
struct Stopwatch(f64);

impl Stopwatch {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = calib::mark();
        let out = f();
        self.0 += t.host_s();
        out
    }
}

/// Victim pages of an attack, in file order.
fn victim_pages(report: &AttackReport) -> Vec<Lpa> {
    report
        .victims
        .iter()
        .flat_map(|v| v.lpas.iter().copied())
        .collect()
}

/// Checks `got` against the pre-attack content of every victim page.
fn check_pages(
    it: &mut Iteration,
    what: &str,
    victims: &[Lpa],
    expected: &HashMap<Lpa, &PageData>,
    got: &HashMap<Lpa, PageData>,
) {
    let page = bench_config().geometry.page_size as usize;
    let bad = victims
        .iter()
        .filter(|lpa| match (expected.get(lpa), got.get(lpa)) {
            (Some(e), Some(g)) => e.materialize(page) != g.materialize(page),
            _ => true,
        })
        .count() as u64;
    it.attempted += victims.len() as u64;
    it.failed += bad;
    if bad > 0 {
        it.failures.push(format!(
            "{what}: {bad} of {} victim pages not byte-exact",
            victims.len()
        ));
    }
}

/// One iteration: warm both devices (set-up), then every family on a copy
/// of each (timed, checks excluded).
pub fn iterate(seed: u64, traced: bool) -> Iteration {
    let t0 = calib::mark();
    let mut timessd = TimeSsd::new(bench_config());
    let warm_end = warm_fill(&mut timessd, USAGE);
    let mut flashguard = FlashGuardSsd::new(bench_config());
    warm_fill(&mut flashguard, USAGE);
    let setup_s = t0.host_s();

    let mut it = Iteration {
        setup_s,
        wall_s: 0.0,
        slice_s: 0.0,
        page_ops: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        virt: Virt {
            responses: Vec::new(),
            write_amp: 0.0,
            headline: ("virt_recovery_s", "s", 0.0),
        },
        digest: 0,
        layers: Layers::new(),
    };
    let mut clock = Stopwatch::default();
    let mut ts_records: Vec<Record> = Vec::new();
    let mut fg_records: Vec<Record> = Vec::new();
    let (mut programs, mut user_programs, mut recovery_ns) = (0u64, 0u64, 0u64);
    let (mut decodes, mut encodes, mut hits, mut makespan_ns) = (0u64, 0u64, 0u64, 0u64);

    for (req, family) in attack_families().into_iter().enumerate() {
        let req = req as u64;
        let start = warm_end + SEC_NS;

        // TimeSSD: attack, settle, barrier, power cut, rebuild, TimeKits.
        let base = *timessd.stats();
        let flash0 = *timessd.flash().stats();
        let faults0 = timessd.map_cache_traffic().0;
        let dev = Probe::new(timessd.clone(), TIMESSD, traced).logging_writes();
        let Some((dev, report)) = run_attack(&mut it, &mut clock, dev, family, seed, start, req)
        else {
            continue;
        };
        let (barrier, ssd, rec) = clock.time(|| {
            let mut dev = dev;
            let t = settle(&mut dev, report.attack_end);
            let barrier = dev.flush(t);
            let (ssd, rec) = dev.finish();
            (barrier, ssd, rec)
        });
        let barrier_at = match barrier {
            Ok(c) => c.finish,
            Err(e) => {
                it.check(false, || {
                    format!("{}: flush barrier failed: {e}", family.name)
                });
                continue;
            }
        };
        let stats = ssd.stats().since(&base);
        it.page_ops += stats.user_reads + stats.user_writes + stats.user_trims + stats.host_flushes;
        programs +=
            stats.user_programs + stats.gc_programs + stats.delta_programs + stats.wl_programs;
        user_programs += stats.user_programs;
        if traced {
            let flash = ssd.flash().stats().since(&flash0);
            layers::timessd_counters(&mut it.layers, &ssd, &stats, &flash, faults0);
        }
        let config = ssd.config().clone();
        let mut ssd = clock.time(|| {
            let mut flash = ssd.into_flash();
            flash.revive();
            spans::timed("core.timessd.rebuild", req, || {
                TimeSsd::recover_from_flash(flash, config)
            })
        });
        let consistency = ssd.check_consistency();
        it.check(consistency.is_clean(), || {
            format!(
                "{}: rebuilt TimeSSD inconsistent: {consistency:?}",
                family.name
            )
        });
        if traced {
            encodes += layers::byte_deltas(&ssd);
        }

        let victims = victim_pages(&report);
        let expected = rec.logged_as_of(report.pre_attack_time);
        let pre = report.pre_attack_time;
        let kits_out = clock.time(|| {
            let mut kits = TimeKits::new(&mut ssd).with_threads(HOST_THREADS);
            calib::check();
            let changed = spans::timed("kits.time_query", req, || {
                kits.time_query(report.attack_start)
            });
            calib::check();
            let snapshot = spans::timed("kits.snapshot", req, || kits.snapshot_at(&victims, pre));
            calib::check();
            let estimate = kits.restore_cost_estimate(&victims, pre, MODEL_THREADS);
            calib::check();
            let rollback = spans::timed("kits.rollback", req, || {
                kits.roll_back_set(&victims, pre, barrier_at)
            });
            (changed, snapshot, estimate, rollback)
        });
        let (changed, snapshot, estimate, rollback) = kits_out;
        recovery_ns += estimate;
        decodes += changed.1.decompressions;
        makespan_ns += changed.1.makespan(HOST_THREADS);
        hits += changed.0.len() as u64;
        if !family.deletes_originals {
            let changed: HashSet<Lpa> = changed.0.iter().map(|h| h.lpa).collect();
            let missed = victims.iter().filter(|l| !changed.contains(l)).count();
            it.check(missed == 0, || {
                format!(
                    "{}: time query missed {missed} overwritten victim pages",
                    family.name
                )
            });
        }
        match snapshot {
            Ok((snap, cost)) => {
                decodes += cost.decompressions;
                makespan_ns += cost.makespan(HOST_THREADS);
                hits += snap.len() as u64;
                let got = snap.into_iter().map(|h| (h.lpa, h.data)).collect();
                check_pages(
                    &mut it,
                    &format!("{} snapshot", family.name),
                    &victims,
                    &expected,
                    &got,
                );
            }
            Err(e) => it.check(false, || format!("{}: snapshot failed: {e}", family.name)),
        }
        match rollback {
            Ok(out) => {
                decodes += out.cost.decompressions;
                makespan_ns += out.cost.makespan(HOST_THREADS);
                hits += out.restored.len() as u64;
                let got = victims
                    .iter()
                    .filter_map(|&lpa| {
                        let head = ssd.version_as_of(lpa, Nanos::MAX)?;
                        Some((lpa, ssd.version_content(lpa, head.timestamp).ok()?))
                    })
                    .collect();
                check_pages(
                    &mut it,
                    &format!("{} TimeSSD rollback", family.name),
                    &victims,
                    &expected,
                    &got,
                );
            }
            Err(e) => it.check(false, || format!("{}: rollback failed: {e}", family.name)),
        }
        it.virt.responses.extend_from_slice(&rec.responses);
        it.digest = layers::fold_digest(it.digest, layers::state_digest(ssd.flash()));
        // The write log pins every logged page; only the counters stay.
        ts_records.push(Record {
            log: Vec::new(),
            ..rec
        });

        // FlashGuard: attack, settle, restore its retained pre-attack pages.
        let base = *flashguard.stats();
        let dev = Probe::new(flashguard.clone(), FLASHGUARD, traced).logging_writes();
        let Some((dev, report)) = run_attack(&mut it, &mut clock, dev, family, seed, start, req)
        else {
            continue;
        };
        let victims = victim_pages(&report);
        let pre = report.pre_attack_time;
        let (missing, at, dev) = clock.time(|| {
            let mut dev = dev;
            let mut at = settle(&mut dev, report.attack_end);
            let mut missing = 0u64;
            for &lpa in &victims {
                let retained = dev.inner().retained_versions(lpa);
                let Some(&(_, ppa)) = retained.iter().find(|(ts, _)| *ts <= pre) else {
                    missing += 1;
                    continue;
                };
                let written = dev
                    .inner()
                    .retained_content(ppa)
                    .and_then(|data| dev.write(lpa, data, at));
                match written {
                    Ok(c) => at = c.finish,
                    Err(_) => missing += 1,
                }
            }
            (missing, at, dev)
        });
        let (mut ssd, rec) = dev.finish();
        let stats = ssd.stats().since(&base);
        it.page_ops += stats.user_reads + stats.user_writes + stats.user_trims + stats.host_flushes;
        it.check(missing == 0, || {
            format!(
                "{}: FlashGuard could not restore {missing} pages",
                family.name
            )
        });
        let expected = rec.logged_as_of(pre);
        let got = victims
            .iter()
            .filter_map(|&lpa| Some((lpa, ssd.read(lpa, at).ok()?.0)))
            .collect();
        check_pages(
            &mut it,
            &format!("{} FlashGuard restore", family.name),
            &victims,
            &expected,
            &got,
        );
        fg_records.push(Record {
            log: Vec::new(),
            ..rec
        });
    }

    it.wall_s = clock.0;
    it.virt.responses.sort_unstable();
    it.virt.write_amp = programs as f64 / user_programs.max(1) as f64;
    it.virt.headline.2 = recovery_ns as f64 / 1e9;
    if traced {
        let totals = spans::totals();
        let out = &mut it.layers;
        add(
            out,
            "workloads.attack_self_s",
            span_s(&totals, "workloads.attack", true),
        );
        add(
            out,
            "core.timessd.rebuild_s",
            span_s(&totals, "core.timessd.rebuild", false),
        );
        add(
            out,
            "kits.time_query_s",
            span_s(&totals, "kits.time_query", false),
        );
        add(
            out,
            "kits.snapshot_s",
            span_s(&totals, "kits.snapshot", false),
        );
        add(
            out,
            "kits.rollback_s",
            span_s(&totals, "kits.rollback", false),
        );
        add(out, "kits.hits", hits as f64);
        add(out, "kits.virt_makespan_ms", makespan_ns as f64 / 1e6);
        add(out, "compress.encodes", encodes as f64);
        add(out, "compress.decodes", decodes as f64);
        let ts: Vec<&Record> = ts_records.iter().collect();
        let fg: Vec<&Record> = fg_records.iter().collect();
        layers::device_calls(out, &ts, true);
        layers::device_calls(out, &fg, false);
        layers::timessd_attribution(out, &ts);
    }
    it
}

/// Plants the victim set and runs `family`'s attack through the file
/// system on `dev`; a failure is recorded and ends this family's run.
fn run_attack<D: SsdDevice>(
    it: &mut Iteration,
    clock: &mut Stopwatch,
    dev: Probe<D>,
    family: Family,
    seed: u64,
    start: Nanos,
    req: u64,
) -> Option<(Probe<D>, AttackReport)> {
    let kind = dev.inner().kind();
    let result = clock.time(|| {
        let mut fs = AlmanacFs::new(dev, FsMode::Ext4NoJournal)?;
        let report = spans::timed("workloads.attack", req, || {
            attack(&mut fs, family, seed, start)
        })?;
        Ok::<_, almanac_fs::FsError>((fs.into_device(), report))
    });
    it.attempted += 1;
    match result {
        Ok(out) => Some(out),
        Err(e) => {
            it.failed += 1;
            it.failures
                .push(format!("{} on {kind}: attack failed: {e}", family.name));
            None
        }
    }
}
