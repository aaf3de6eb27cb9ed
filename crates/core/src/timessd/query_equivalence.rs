//! Equivalence of the single-walk version decoder with the recursive one it
//! replaced, which walked the version chain again at every reference step.

use almanac_bloom::ChainConfig;
use almanac_flash::{
    DeltaBody, DeltaRecord, FaultPlan, FlashError, Geometry, Lpa, Nanos, PageData, SEC_NS,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::config::SsdConfig;
use crate::device::{SsdDevice, SsdReadOps};
use crate::error::{AlmanacError, Result};
use crate::timessd::query::VersionLocation;
use crate::timessd::{TimeSsd, REF_ZEROS};

/// Pages written with real bytes; the rest of the traffic is synthetic.
const HOT: u64 = 48;

impl TimeSsd {
    /// The decoder before single-walk decoding, kept as the reference: it
    /// walks `version_chain` afresh at every reference depth.
    fn version_content_rewalk(
        &self,
        lpa: Lpa,
        timestamp: Nanos,
        key: Option<u64>,
        depth: u32,
    ) -> Result<PageData> {
        if depth > 64 {
            return Err(AlmanacError::DecodeFailed("reference chain too deep"));
        }
        let chain = self.version_chain(lpa);
        let Some(v) = chain.iter().find(|v| v.timestamp == timestamp) else {
            return Err(AlmanacError::NoSuchVersion { lpa, at: timestamp });
        };
        match v.location {
            VersionLocation::DataPage(ppa) => {
                let (data, _) = self.flash.peek(ppa)?;
                Ok(data.clone())
            }
            VersionLocation::DeltaPage(ppa) | VersionLocation::BufferedDelta(ppa) => {
                let dp = self
                    .delta_page_at(ppa)
                    .ok_or(AlmanacError::DecodeFailed("delta page vanished"))?;
                let rec = dp
                    .find(lpa, timestamp)
                    .ok_or(AlmanacError::DecodeFailed("delta record vanished"))?;
                match &rec.body {
                    DeltaBody::Synthetic { seed, version } => Ok(PageData::Synthetic {
                        seed: *seed,
                        version: *version,
                    }),
                    DeltaBody::Zeros => Ok(PageData::Zeros),
                    DeltaBody::Trim => Err(AlmanacError::DecodeFailed(
                        "trim journal record is not a version",
                    )),
                    DeltaBody::Bytes(encoded) => {
                        let page_size = self.config.geometry.page_size as usize;
                        let ref_bytes = if rec.ref_timestamp == REF_ZEROS {
                            vec![0u8; page_size]
                        } else {
                            self.version_content_rewalk(lpa, rec.ref_timestamp, key, depth + 1)?
                                .materialize(page_size)
                        };
                        let mut payload = encoded.clone();
                        if self.config.retention_key.is_some() {
                            crate::crypt::apply_keystream(
                                key.unwrap_or(0),
                                lpa,
                                rec.timestamp,
                                &mut payload,
                            );
                        }
                        let old = almanac_compress::delta::decode(&ref_bytes, &payload)
                            .map_err(|_| AlmanacError::DecodeFailed("delta payload corrupt"))?;
                        Ok(PageData::bytes(old))
                    }
                }
            }
        }
    }
}

fn cfg() -> SsdConfig {
    // Small Bloom segments so filters fill, and with a short retention
    // expire, while the history is written.
    SsdConfig::new(Geometry::medium_test()).with_bloom(ChainConfig {
        bits_per_filter: 1 << 13,
        hashes: 4,
        capacity: 512,
    })
}

/// A random history: real-byte versions of the [`HOT`] pages (scattered
/// byte edits, random runs, zero pages) and trims among synthetic traffic
/// over a third of the device, enough to make GC compress retained
/// versions.
/// Returns false when a power cut stopped it early.
fn history(ssd: &mut TimeSsd, seed: u64, steps: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let page_size = ssd.geometry().page_size as usize;
    let set = ssd.exported_pages() / 3;
    let mut pages: Vec<Vec<u8>> = (0..HOT).map(|l| vec![l as u8; page_size]).collect();
    let mut now = SEC_NS;
    for i in 0..steps {
        let hot = rng.gen_bool(0.15);
        let lpa = if hot {
            rng.gen_range(0..HOT)
        } else {
            HOT + i % (set - HOT)
        };
        let done = if hot && rng.gen_bool(0.05) {
            ssd.trim(Lpa(lpa), now)
        } else if hot {
            let page = &mut pages[lpa as usize];
            match rng.gen_range(0..10u32) {
                0 => {
                    let at = rng.gen_range(0..page_size - 512);
                    rng.fill(&mut page[at..at + 512]);
                }
                1 => page.iter_mut().for_each(|b| *b = 0),
                _ => {
                    for _ in 0..rng.gen_range(1..40usize) {
                        let at = rng.gen_range(0..page_size);
                        page[at] = rng.gen();
                    }
                }
            }
            ssd.write(Lpa(lpa), PageData::bytes(page.clone()), now)
        } else {
            let data = PageData::Synthetic {
                seed: lpa,
                version: i,
            };
            ssd.write(Lpa(lpa), data, now)
        };
        match done {
            Ok(c) => now = c.finish + 50_000,
            Err(AlmanacError::Flash(FlashError::PowerLoss)) => return false,
            Err(e) => panic!("step {i}: {e}"),
        }
    }
    true
}

/// Checks every version in each page's chain, and timestamps the chain
/// does not hold, under each key; returns how many decoded versions came
/// from delta records.
fn assert_equivalent(ssd: &TimeSsd, keys: &[Option<u64>]) -> usize {
    let lpas = (0..HOT).chain(HOT..HOT + 8).map(Lpa);
    let mut from_deltas = 0;
    for lpa in lpas {
        let chain = ssd.version_chain(lpa);
        let mut stamps: Vec<Nanos> = vec![0, 1, Nanos::MAX - 1, REF_ZEROS];
        for v in &chain {
            stamps.extend([v.timestamp, v.timestamp + 1, v.timestamp - 1]);
        }
        for &ts in &stamps {
            for &key in keys {
                let new = ssd.version_content_with_key(lpa, ts, key);
                assert_eq!(
                    new,
                    ssd.version_content_rewalk(lpa, ts, key, 0),
                    "{lpa:?} at {ts} with key {key:?}"
                );
                let delta = chain.iter().any(|v| {
                    v.timestamp == ts && !matches!(v.location, VersionLocation::DataPage(_))
                });
                if delta && new.is_ok() {
                    from_deltas += 1;
                }
            }
            assert_eq!(
                ssd.version_content(lpa, ts),
                ssd.version_content_rewalk(lpa, ts, ssd.config.retention_key, 0)
            );
        }
    }
    from_deltas
}

#[test]
fn single_walk_matches_rewalk_without_a_key() {
    for seed in 0..2 {
        let mut ssd = TimeSsd::new(cfg());
        assert!(history(&mut ssd, seed, 10_000));
        assert!(ssd.stats().gc_erases > 0, "no GC pressure");
        assert!(assert_equivalent(&ssd, &[None, Some(7)]) > 0);
    }
}

#[test]
fn single_walk_matches_rewalk_with_right_and_wrong_keys() {
    let key = 0xDEAD_BEEF;
    let mut ssd = TimeSsd::new(cfg().with_retention_key(key));
    assert!(history(&mut ssd, 11, 10_000));
    assert!(assert_equivalent(&ssd, &[Some(key), Some(key ^ 1), None]) > 0);
}

#[test]
fn single_walk_matches_rewalk_as_history_expires() {
    // No minimum retention: GC drops whole segments, leaving chains that
    // end in (or point into) expired history.
    let mut ssd = TimeSsd::new(cfg().with_min_retention(0));
    assert!(history(&mut ssd, 21, 14_000));
    assert!(ssd.stats().gc_erases > 0);
    assert!(assert_equivalent(&ssd, &[None]) > 0);
}

#[test]
fn single_walk_matches_rewalk_after_power_cut_rebuild() {
    for (seed, cut) in [(31, 9_000), (32, 14_000)] {
        let config = cfg()
            .with_min_retention(SEC_NS)
            .with_retention_key(5)
            .with_fault_plan(FaultPlan::new(seed).with_power_cut_at(cut));
        let mut ssd = TimeSsd::new(config.clone());
        assert!(!history(&mut ssd, seed, 20_000), "the cut never fired");
        let mut flash = ssd.into_flash();
        flash.revive();
        let rebuilt = TimeSsd::recover_from_flash(flash, config);
        assert_equivalent(&rebuilt, &[Some(5), Some(6)]);
    }
}

#[test]
fn reference_chain_deeper_than_64_fails_the_same_way() {
    let mut ssd = TimeSsd::new(cfg());
    let page_size = ssd.geometry().page_size as usize;
    let lpa = Lpa(3);
    let head_bytes = vec![0x42u8; page_size];
    let c = ssd
        .write(lpa, PageData::bytes(head_bytes.clone()), 1_000 * SEC_NS)
        .unwrap();
    let head = ssd.amt.get(lpa).mapped().unwrap();
    // 70 older versions, each delta-encoded against the next newer one and
    // the newest against the head: decoding version k resolves 70 - k
    // references.
    let depth = 70u64;
    let contents: Vec<Vec<u8>> = (0..depth)
        .map(|k| {
            let mut page = head_bytes.clone();
            page[k as usize * 7] = k as u8;
            page
        })
        .collect();
    let stamp = |k: u64| (k + 1) * SEC_NS;
    let fid = ssd.chain.insert(ssd.group_of(head), stamp(0));
    let mut back_ptr = None;
    let mut t = c.finish;
    for k in 0..depth {
        let (reference, ref_timestamp) = match contents.get(k as usize + 1) {
            Some(newer) => (newer, stamp(k + 1)),
            None => (&head_bytes, c.start),
        };
        let encoded = almanac_compress::delta::encode(reference, &contents[k as usize]);
        let record = DeltaRecord {
            lpa,
            back_ptr,
            timestamp: stamp(k),
            ref_timestamp,
            size: encoded.len() as u32,
            body: DeltaBody::Bytes(encoded),
        };
        let out = ssd
            .deltas
            .append(fid, record, &mut ssd.alloc, &mut ssd.bst, &mut ssd.flash, t)
            .unwrap();
        t = out.finish;
        back_ptr = Some(out.page);
        ssd.imt.set_head(lpa, out.page, stamp(k));
    }
    let chain = ssd.version_chain(lpa);
    assert_eq!(chain.len(), depth as usize + 1);
    for k in 0..depth {
        let got = ssd.version_content(lpa, stamp(k));
        assert_eq!(got, ssd.version_content_rewalk(lpa, stamp(k), None, 0));
        if 70 - k > 64 {
            assert_eq!(
                got,
                Err(AlmanacError::DecodeFailed("reference chain too deep"))
            );
        } else {
            assert_eq!(got, Ok(PageData::bytes(contents[k as usize].clone())));
        }
    }
}
