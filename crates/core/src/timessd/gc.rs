//! Garbage collection (Algorithm 1, §3.8), delta compression of retained
//! versions (§3.6–3.7), background idle-time compression, and wear leveling.

use almanac_bloom::FilterId;
use almanac_flash::{BlockId, DeltaBody, DeltaRecord, Lpa, Nanos, Oob, PageData, Ppa};

use crate::error::Result;
use crate::tables::{AmtEntry, BlockKind};

use super::{TimeSsd, REF_ZEROS};

/// Who initiated a compression pass — determines which statistics and
/// Equation-1 counters it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Foreground GC: counts into Equation 1.
    Gc,
    /// Background idle-cycle compression: free as far as Equation 1 is
    /// concerned (it steals no bandwidth from the host).
    Background,
}

/// A time budget for background work; `None` means unbounded (foreground).
pub(crate) struct Budget {
    remaining: Option<Nanos>,
}

impl Budget {
    pub(crate) fn unbounded() -> Self {
        Budget { remaining: None }
    }

    pub(crate) fn bounded(ns: Nanos) -> Self {
        Budget {
            remaining: Some(ns),
        }
    }

    /// Tries to charge `cost`; returns false (and charges nothing) when the
    /// budget cannot cover it.
    fn charge(&mut self, cost: Nanos) -> bool {
        match &mut self.remaining {
            None => true,
            Some(rem) => {
                if *rem >= cost {
                    *rem -= cost;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn exhausted(&self) -> bool {
        matches!(self.remaining, Some(0))
    }
}

impl TimeSsd {
    /// Models the compressed size of one synthetic old version: a Gaussian
    /// compression ratio (mean/std from the config, as in §5.2 of the paper)
    /// drawn deterministically from the page identity.
    fn model_delta_size(&self, lpa: Lpa, ts: Nanos) -> u32 {
        let mut z = lpa
            .0
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(ts.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(0x1234_5678);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Box-Muller from two uniforms in (0, 1).
        let u1 = ((z >> 11) as f64 + 1.0) / (((1u64 << 53) + 1) as f64);
        let u2 = (((z.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 11) as f64 + 1.0)
            / (((1u64 << 53) + 1) as f64);
        let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let ratio = (self.config.synthetic_delta_mean + self.config.synthetic_delta_std * n)
            .clamp(0.02, 0.95);
        (ratio * self.config.geometry.page_size as f64) as u32
    }

    /// Builds the delta body and size for one old version against the
    /// reference (latest) version.
    fn make_delta(
        &self,
        reference: &PageData,
        old: &PageData,
        lpa: Lpa,
        ts: Nanos,
    ) -> (DeltaBody, u32) {
        match old {
            PageData::Synthetic { seed, version } => (
                DeltaBody::Synthetic {
                    seed: *seed,
                    version: *version,
                },
                self.model_delta_size(lpa, ts),
            ),
            PageData::Zeros => (DeltaBody::Zeros, 8),
            PageData::Bytes(bytes) => {
                let page_size = self.config.geometry.page_size as usize;
                let ref_bytes = reference.materialize(page_size);
                let mut old_bytes = bytes.as_ref().clone();
                old_bytes.resize(page_size, 0);
                let mut encoded = almanac_compress::delta::encode(&ref_bytes, &old_bytes);
                // §3.10: retained data may be encrypted under the user key so
                // stolen history is unreadable without it.
                if let Some(key) = self.config.retention_key {
                    crate::crypt::apply_keystream(key, lpa, ts, &mut encoded);
                }
                let size = encoded.len() as u32;
                (DeltaBody::Bytes(encoded), size)
            }
            PageData::DeltaPage(_) => {
                debug_assert!(false, "delta pages never appear in a data chain");
                (DeltaBody::Zeros, 8)
            }
        }
    }

    /// Compresses every retained, uncompressed invalid version of `lpa` into
    /// deltas (the §3.7 procedure triggered when GC breaks a data-page
    /// chain). Marks compressed pages reclaimable and updates the IMT head.
    ///
    /// Respects `budget` when bounded, compressing an oldest-first prefix so
    /// a partial pass still leaves the chain consistent.
    pub(crate) fn compress_versions_of(
        &mut self,
        lpa: Lpa,
        mut t: Nanos,
        budget: &mut Budget,
        cause: Cause,
    ) -> Result<Nanos> {
        let lat = self.config.latency;
        // Resolve the reference (latest) version.
        let entry = self.amt.get(lpa);
        let (reference, ref_ts, walk_start) = match entry {
            AmtEntry::Mapped(head) => {
                if !budget.charge(lat.read_total()) {
                    return Ok(t);
                }
                let (data, oob, rt) = self.flash.read(head, t)?;
                t = rt;
                self.note_read(cause);
                (data, oob.timestamp, oob.back_ptr)
            }
            AmtEntry::Trimmed(head, _) => (PageData::Zeros, REF_ZEROS, Some(head)),
            AmtEntry::Unmapped => return Ok(t),
        };

        // Walk the data-page chain collecting retained uncompressed versions
        // (newest first), verifying LPA and decreasing timestamps as §3.7.
        let mut versions: Vec<(Ppa, Oob, PageData)> = Vec::new();
        let mut prev_ts = if ref_ts == REF_ZEROS {
            Nanos::MAX
        } else {
            ref_ts
        };
        let mut cursor = walk_start;
        while let Some(ppa) = cursor {
            if self.prt.is_reclaimable(ppa) {
                break; // already compressed from here down
            }
            if !budget.charge(lat.read_total()) {
                break;
            }
            let read = self.flash.read(ppa, t);
            let Ok((data, oob, rt)) = read else {
                break; // page erased or reused: chain end
            };
            t = rt;
            self.note_read(cause);
            if oob.lpa != lpa || oob.timestamp >= prev_ts {
                break; // chain broken: page was reused for something else
            }
            let group = self.group_of(ppa);
            if !self.chain.contains(group) {
                break; // expired tail: discarded lazily by GC
            }
            prev_ts = oob.timestamp;
            cursor = oob.back_ptr;
            versions.push((ppa, oob, data));
        }
        if versions.is_empty() {
            return Ok(t);
        }

        // The oldest new delta links to the existing delta chain if there is
        // one, otherwise to whatever the oldest data version pointed at.
        let oldest_back = versions.last().and_then(|(_, oob, _)| oob.back_ptr);
        let mut next_older: Option<Ppa> = self.imt.head(lpa).map(|(p, _)| p).or(oldest_back);

        for (ppa, oob, data) in versions.iter().rev() {
            if budget.exhausted() {
                break;
            }
            let group = self.group_of(*ppa);
            let Some(fid) = self.chain.find(group) else {
                // Raced to expiry; safe to discard without a delta.
                self.mark_reclaimable(*ppa);
                continue;
            };
            if !budget.charge(lat.compress_ns) {
                break;
            }
            let (body, size) = self.make_delta(&reference, data, lpa, oob.timestamp);
            t += lat.compress_ns;
            let record = DeltaRecord {
                lpa,
                back_ptr: next_older,
                timestamp: oob.timestamp,
                ref_timestamp: ref_ts,
                body,
                size,
            };
            let out = self.deltas.append(
                fid,
                record,
                &mut self.alloc,
                &mut self.bst,
                &mut self.flash,
                t,
            )?;
            t = out.finish;
            self.stats.delta_programs += out.programs;
            self.note_compression(cause, out.programs);
            budget.charge(out.programs * self.config.latency.program_total());
            next_older = Some(out.page);
            self.mark_reclaimable(*ppa);
            self.imt.set_head(lpa, out.page, oob.timestamp);
        }
        Ok(t)
    }

    fn mark_reclaimable(&mut self, ppa: Ppa) {
        if !self.prt.is_reclaimable(ppa) {
            self.prt.mark(ppa);
            self.bst
                .get_mut(self.config.geometry.block_of(ppa))
                .reclaimable += 1;
        }
    }

    fn note_read(&mut self, cause: Cause) {
        match cause {
            Cause::Gc => {
                self.stats.gc_reads += 1;
                self.period.reads += 1;
            }
            Cause::Background => self.stats.bg_reads += 1,
        }
    }

    fn note_compression(&mut self, cause: Cause, programs: u64) {
        match cause {
            Cause::Gc => {
                self.stats.gc_compressions += 1;
                self.period.compressions += 1;
                self.period.programs += programs;
            }
            Cause::Background => self.stats.bg_compressions += 1,
        }
    }

    /// Finds a delta block whose Bloom filter is gone: every delta in it is
    /// expired, so it can be erased with zero migration (Algorithm 1, line 2).
    /// The lowest such block id wins.
    fn find_expired_delta_block(&self) -> Option<(BlockId, FilterId)> {
        self.bst
            .delta_blocks()
            .find(|(_, fid)| !self.chain.is_live(*fid))
    }

    fn erase_block(&mut self, block: BlockId, t: Nanos) -> Result<Nanos> {
        let finish = self.flash.erase(block, t)?;
        let geo = self.config.geometry;
        self.pvt.clear_block(&geo, block);
        self.prt.clear_block(&geo, block);
        self.bst.reset(block);
        self.alloc.release(block);
        Ok(finish)
    }

    /// One pass of Algorithm 1. Returns false when no victim was available.
    pub(crate) fn gc_once(&mut self, now: Nanos) -> Result<bool> {
        // Line 2-3: expired delta blocks first — free space with no work.
        if let Some((block, fid)) = self.find_expired_delta_block() {
            let t = self.erase_block(block, now)?;
            self.deltas.forget_block(fid, block);
            self.stats.gc_erases += 1;
            self.period.erases += 1;
            self.stats.gc_time_ns += t.saturating_sub(now);
            self.busy_until = self.busy_until.max(t);
            return Ok(true);
        }
        // Line 5: victim data block with the most invalid pages.
        let Some(victim) = self.bst.gc_victim(|b| self.alloc.is_active(b)) else {
            return Ok(false);
        };
        let geo = self.config.geometry;
        let ppb = geo.pages_per_block;
        let mut t = now;
        let mut budget = Budget::unbounded();
        for off in 0..ppb {
            let ppa = geo.ppa(victim.0, off);
            if self.pvt.is_valid(ppa) {
                // Line 7-9: migrate valid pages. Baseline FTL work (a
                // regular SSD pays it too), so it does not feed Equation 1 —
                // only retention-caused operations drive the window.
                t = self.migrate_valid(ppa, t)?;
                self.stats.gc_reads += 1;
                self.stats.gc_programs += 1;
                continue;
            }
            // Lines 10-13: reclaimable pages are discarded by the erase.
            if self.prt.is_reclaimable(ppa) {
                continue;
            }
            // Lines 15-17: pages missing every Bloom filter have expired.
            let group = self.group_of(ppa);
            if !self.chain.contains(group) {
                continue;
            }
            // Lines 19-25: retained page — compress its LPA's whole
            // uncompressed tail (including this page) into deltas.
            let (_, oob, rt) = self.flash.read(ppa, t)?;
            t = rt;
            self.note_read(Cause::Gc);
            t = self.compress_versions_of(oob.lpa, t, &mut budget, Cause::Gc)?;
            if !self.prt.is_reclaimable(ppa) {
                // The page was unreachable from its chain head (e.g. the
                // chain was truncated by expiry); compress it standalone so
                // the history is still preserved.
                t = self.compress_single(ppa, t)?;
            }
        }
        // Line 26: erase the victim (baseline work: not in Equation 1).
        let t = self.erase_block(victim, t)?;
        self.stats.gc_erases += 1;
        self.stats.gc_time_ns += t.saturating_sub(now);
        self.busy_until = self.busy_until.max(t);
        Ok(true)
    }

    /// Fallback: compress one orphaned retained page as its own delta.
    fn compress_single(&mut self, ppa: Ppa, mut t: Nanos) -> Result<Nanos> {
        let (data, oob, rt) = self.flash.read(ppa, t)?;
        t = rt;
        self.note_read(Cause::Gc);
        // A stale twin left by an aborted pass (the page was migrated, then
        // a failed program stopped GC before the victim erase) still carries
        // a version that lives on elsewhere in the chain. Recording it again
        // would plant a duplicate delta whose timestamp collides with the
        // live copy; the bytes are already safe, so just reclaim the page.
        if self
            .version_chain(oob.lpa)
            .iter()
            .any(|v| v.timestamp == oob.timestamp && v.location.ppa() != ppa)
        {
            self.mark_reclaimable(ppa);
            return Ok(t);
        }
        let Some(fid) = self.chain.find(self.group_of(ppa)) else {
            self.mark_reclaimable(ppa);
            return Ok(t);
        };
        let reference = match self.amt.get(oob.lpa).mapped() {
            Some(head) => {
                let (d, _, rt2) = self.flash.read(head, t)?;
                t = rt2;
                self.note_read(Cause::Gc);
                d
            }
            None => PageData::Zeros,
        };
        let ref_ts = match self.amt.get(oob.lpa).mapped() {
            Some(_) => self
                .imt
                .head(oob.lpa)
                .map(|(_, ts)| ts)
                .unwrap_or(REF_ZEROS),
            None => REF_ZEROS,
        };
        let (body, size) = self.make_delta(&reference, &data, oob.lpa, oob.timestamp);
        t += self.config.latency.compress_ns;
        let record = DeltaRecord {
            lpa: oob.lpa,
            back_ptr: oob.back_ptr,
            timestamp: oob.timestamp,
            ref_timestamp: ref_ts,
            body,
            size,
        };
        let out = self.deltas.append(
            fid,
            record,
            &mut self.alloc,
            &mut self.bst,
            &mut self.flash,
            t,
        )?;
        t = out.finish;
        self.stats.delta_programs += out.programs;
        self.note_compression(Cause::Gc, out.programs);
        // Only promote the IMT head if this version is newer than it.
        match self.imt.head(oob.lpa) {
            Some((_, newest)) if newest >= oob.timestamp => {}
            _ => self.imt.set_head(oob.lpa, out.page, oob.timestamp),
        }
        self.mark_reclaimable(ppa);
        Ok(t)
    }

    /// Shrinks the retention window under space pressure; returns false when
    /// the minimum-retention guarantee forbids it (the stall case of §3.4).
    pub(crate) fn force_shrink(&mut self, now: Nanos) -> bool {
        if !super::retention::may_drop_oldest(
            now,
            self.chain.retention_start_after_drop(),
            self.config.min_retention,
        ) {
            return false;
        }
        if let Some(info) = self.chain.drop_oldest() {
            self.deltas.drop_filter(info.id);
            self.stats.filters_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Runs GC until the free pool is above the watermark; shrinks the
    /// retention window when GC alone cannot make progress.
    pub(crate) fn maybe_gc(&mut self, now: Nanos) -> Result<()> {
        let watermark = self.config.gc_low_watermark as u64;
        let mut stuck = 0u32;
        let guard_limit = self.config.geometry.total_blocks() as u32 * 2;
        let mut guard = 0u32;
        while self.alloc.free_blocks() < watermark {
            guard += 1;
            if guard > guard_limit {
                break;
            }
            self.stats.gc_runs += 1;
            let start = now.max(self.busy_until);
            // A GC pass can itself run out of blocks (delta pages need
            // space). That is the §3.4 pressure point: shrink the window and
            // retry; only a window at its guaranteed minimum stalls the
            // device.
            let progressed = match self.gc_once(start) {
                Ok(p) => p,
                Err(crate::error::AlmanacError::DeviceStalled { .. }) => {
                    if self.force_shrink(start) {
                        continue;
                    }
                    return Err(crate::error::AlmanacError::DeviceStalled {
                        now: start,
                        retention_window: self.retention_window(start),
                    });
                }
                Err(e) => return Err(e),
            };
            // Only a genuine lack of victims forces the window shorter —
            // a pass that erased something made progress even if the freed
            // block was immediately re-opened for an active stream.
            if !progressed {
                stuck += 1;
            } else {
                stuck = 0;
            }
            if stuck >= 1 {
                if !self.force_shrink(now.max(self.busy_until)) {
                    break;
                }
                stuck = 0;
            }
        }
        self.maybe_wear_level(now.max(self.busy_until))?;
        Ok(())
    }

    /// Wear leveling (§3.8): when the erase-count spread grows too large,
    /// force-clean the coldest closed data block — valid pages migrate,
    /// retained pages are compressed exactly like a GC pass. Delta blocks
    /// are never touched (their chains must not break; they are erased in
    /// time order anyway).
    fn maybe_wear_level(&mut self, now: Nanos) -> Result<()> {
        if !self.config.wear_leveling || self.flash.wear_spread() <= self.config.wl_spread_threshold
        {
            return Ok(());
        }
        // Rate limit: at most one swap per 64 block erases, otherwise the
        // leveler itself burns endurance faster than it spreads it.
        let erases = self.flash.stats().erases;
        if erases < self.wl_mark + 64 {
            return Ok(());
        }
        self.wl_mark = erases;
        let ppb = self.config.geometry.pages_per_block;
        let coldest = self
            .bst
            .iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data && info.written == ppb && !self.alloc.is_active(*b)
            })
            .min_by_key(|(b, _)| self.flash.erase_count(*b).unwrap_or(u32::MAX));
        let Some((victim, _)) = coldest else {
            return Ok(());
        };
        // Park the cold data on the most-worn free block, retiring it from
        // the hot rotation (the §3.8 cold-to-old swap).
        let flash_counts = |b: almanac_flash::BlockId| self.flash.erase_count(b).unwrap_or(0);
        let Some(dest) = self.alloc.take_block_by_max(flash_counts) else {
            return Ok(());
        };
        self.bst.get_mut(dest).kind = BlockKind::Data;
        let geo = self.config.geometry;
        let mut t = now;
        let mut budget = Budget::unbounded();
        let mut dest_off = 0u32;
        for off in 0..ppb {
            let ppa = geo.ppa(victim.0, off);
            if self.pvt.is_valid(ppa) {
                // Move the cold valid page straight onto the worn block.
                let (data, oob, rt) = self.flash.read(ppa, t)?;
                t = rt;
                // Same OOB-owner cross-check as `migrate_valid`: corrupt
                // metadata must not misdirect the remap.
                let owner = if self.amt.get(oob.lpa).chain_head() == Some(ppa) {
                    Some(oob.lpa)
                } else {
                    self.amt
                        .iter()
                        .find(|(_, e)| e.chain_head() == Some(ppa))
                        .map(|(l, _)| l)
                };
                self.pvt.set(ppa, false);
                self.bst.get_mut(geo.block_of(ppa)).valid -= 1;
                let new_ppa = geo.ppa(dest.0, dest_off);
                dest_off += 1;
                let fixed_oob = Oob::new(owner.unwrap_or(oob.lpa), oob.back_ptr, oob.timestamp);
                t = self.flash.program(new_ppa, data, fixed_oob, t)?;
                self.bst.count_program(dest, true);
                self.pvt.set(new_ppa, true);
                if let Some(owner) = owner {
                    let entry = match self.amt.get(owner) {
                        AmtEntry::Trimmed(_, at) => AmtEntry::Trimmed(new_ppa, at),
                        _ => AmtEntry::Mapped(new_ppa),
                    };
                    self.amt.set(owner, entry);
                    self.gmd.note_update(owner);
                }
                self.stats.wl_programs += 1;
                continue;
            }
            if self.prt.is_reclaimable(ppa) || !self.chain.contains(self.group_of(ppa)) {
                continue;
            }
            let (_, oob, rt) = self.flash.read(ppa, t)?;
            t = rt;
            t = self.compress_versions_of(oob.lpa, t, &mut budget, Cause::Gc)?;
            if !self.prt.is_reclaimable(ppa) {
                t = self.compress_single(ppa, t)?;
            }
        }
        let t = self.erase_block(victim, t)?;
        self.stats.wl_swaps += 1;
        self.busy_until = self.busy_until.max(t);
        Ok(())
    }

    /// Spends a just-elapsed idle window on background compression when the
    /// predictor had cleared the threshold (§3.6).
    pub(crate) fn background_compress_window(&mut self, now: Nanos) -> Result<()> {
        if now <= self.last_io_end || !self.idle.worth_compressing() || self.bg_scan_pointless {
            return Ok(());
        }
        let window = now - self.last_io_end;
        // Too short for even one read and one delta program.
        let floor = self.config.latency.program_total() + self.config.latency.read_total();
        if window < self.config.idle_threshold || window < floor {
            return Ok(());
        }
        let mut budget = Budget::bounded(window);
        // §3.6: each idle period compresses ONE victim flash block — the
        // block with the most retained (uncompressed) invalid pages.
        let Some(victim) = self.bst.compress_victim(|b| self.alloc.is_active(b)) else {
            self.bg_scan_pointless = true;
            return Ok(());
        };
        let geo = self.config.geometry;
        let mut t = self.last_io_end;
        for off in 0..geo.pages_per_block {
            if budget.exhausted() {
                break;
            }
            let ppa = geo.ppa(victim.0, off);
            if self.pvt.is_valid(ppa)
                || self.prt.is_reclaimable(ppa)
                || !self.chain.contains(self.group_of(ppa))
            {
                continue;
            }
            if !budget.charge(self.config.latency.read_total()) {
                break;
            }
            let (_, oob, rt) = self.flash.read(ppa, t)?;
            t = rt;
            self.note_read(Cause::Background);
            t = self.compress_versions_of(oob.lpa, t, &mut budget, Cause::Background)?;
        }
        Ok(())
    }
}
