//! TimeSSD: the time-traveling FTL (§3 of the paper).
//!
//! TimeSSD retains invalidated flash pages for a workload-adaptive retention
//! window instead of reclaiming them eagerly. The moving pieces:
//!
//! - invalidations are recorded in a time-ordered [Bloom filter
//!   chain](almanac_bloom) at group granularity ([`retention`], §3.4–3.5);
//! - retained versions get delta-compressed against the latest version into
//!   per-filter delta blocks ([`deltas`], §3.6);
//! - every logical page keeps a reverse version chain across data pages
//!   (OOB back-pointers) and delta pages (index mapping table) ([`query`],
//!   §3.7);
//! - GC prefers expired delta blocks, discards reclaimable pages, and
//!   compresses retained ones instead of migrating them ([`gc`], §3.8);
//! - Equation 1 monitors GC overhead and shrinks the retention window when
//!   it exceeds 20% of a page-write cost, never below the three-day
//!   guarantee ([`retention`]).

pub mod check;
pub mod deltas;
pub mod gc;
pub mod idle;
pub mod query;
pub mod rebuild;
pub mod retention;

#[cfg(test)]
mod query_equivalence;
#[cfg(test)]
mod tests;

use almanac_bloom::BloomChain;
use almanac_flash::{FlashArray, Lpa, Nanos, Oob, PageData, Ppa};

use crate::alloc::Allocator;
use crate::config::SsdConfig;
use crate::device::{Completion, SsdDevice, SsdReadOps};
use crate::error::{AlmanacError, Result};
use crate::mapcache::ShardedMapCache;
use crate::stats::DeviceStats;
use crate::tables::{AmtEntry, BlockKind, Bst, Gmd, Prt, Pvt, ShardedAmt, ShardedImt};

use deltas::DeltaManager;
use idle::IdlePredictor;
use retention::PeriodCounters;

/// Sentinel `ref_timestamp` meaning "the reference is the all-zero page"
/// (used when compressing versions of a trimmed LPA, which has no valid
/// reference version).
pub const REF_ZEROS: Nanos = Nanos::MAX;

/// The time-traveling SSD.
///
/// # Examples
///
/// ```
/// use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
/// use almanac_flash::{Geometry, Lpa, PageData};
///
/// let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::small_test()));
/// ssd.write(Lpa(0), PageData::Synthetic { seed: 0, version: 1 }, 1_000).unwrap();
/// ssd.write(Lpa(0), PageData::Synthetic { seed: 0, version: 2 }, 2_000).unwrap();
/// // Both versions are now reachable through the version chain.
/// assert_eq!(ssd.version_chain(Lpa(0)).len(), 2);
/// ```
#[derive(Clone)]
pub struct TimeSsd {
    pub(crate) config: SsdConfig,
    pub(crate) flash: FlashArray,
    pub(crate) amt: ShardedAmt,
    pub(crate) gmd: Gmd,
    pub(crate) pvt: Pvt,
    pub(crate) prt: Prt,
    pub(crate) bst: Bst,
    pub(crate) imt: ShardedImt,
    pub(crate) alloc: Allocator,
    pub(crate) chain: BloomChain,
    pub(crate) deltas: DeltaManager,
    pub(crate) stats: DeviceStats,
    pub(crate) busy_until: Nanos,
    pub(crate) period: PeriodCounters,
    pub(crate) idle: IdlePredictor,
    pub(crate) last_io_end: Nanos,
    /// Last timestamp assigned to a write; version timestamps must be
    /// strictly increasing per device so chain verification (decreasing
    /// timestamps, §3.7) stays sound even for back-to-back writes.
    pub(crate) last_ts: Nanos,
    /// Set when the last idle-compression victim lookup found no candidate
    /// block; background compression is skipped until the next
    /// invalidation clears it.
    pub(crate) bg_scan_pointless: bool,
    /// DFTL-style demand cache of the AMT's translation pages, sliced per
    /// shard alongside the AMT itself.
    pub(crate) map_cache: ShardedMapCache,
    /// Erase count at the last wear-leveling attempt (rate limiter).
    pub(crate) wl_mark: u64,
    /// Repair index built by the §3.7 rebuild scan: every on-flash delta
    /// record per LPA, newest first. Delta records link through back-pointers
    /// that may name a delta *buffer* page lost in a power cut; this index
    /// lets the version chain reconnect across such torn links. Empty on a
    /// normally-constructed device.
    pub(crate) recovered_deltas: std::collections::HashMap<Lpa, Vec<(Nanos, Ppa)>>,
}

impl TimeSsd {
    /// Creates a fully-erased TimeSSD.
    pub fn new(config: SsdConfig) -> Self {
        let mut flash = FlashArray::new(config.geometry, config.latency);
        if let Some(e) = config.endurance {
            flash = flash.with_endurance(e);
        }
        if let Some(plan) = config.fault_plan.clone() {
            flash = flash.with_fault_plan(plan);
        }
        let geo = config.geometry;
        let exported = config.exported_pages();
        let mappings_per_page = (geo.page_size / 8) as u64;
        TimeSsd {
            flash,
            amt: ShardedAmt::new(exported, config.amt_shards),
            gmd: Gmd::new(exported, mappings_per_page),
            pvt: Pvt::new(geo.total_pages()),
            prt: Prt::new(geo.total_pages()),
            bst: Bst::new(geo.total_blocks(), geo.pages_per_block),
            imt: ShardedImt::new(config.amt_shards),
            alloc: Allocator::new(geo),
            chain: BloomChain::new(config.bloom),
            deltas: DeltaManager::new(geo, config.trim_journal_watermark),
            stats: DeviceStats::default(),
            busy_until: 0,
            period: PeriodCounters::default(),
            idle: IdlePredictor::new(config.idle_alpha, config.idle_threshold),
            last_io_end: 0,
            last_ts: 0,
            bg_scan_pointless: false,
            map_cache: ShardedMapCache::new(
                mappings_per_page,
                config.amt_cache_pages,
                config.amt_shards,
            ),
            wl_mark: 0,
            recovered_deltas: std::collections::HashMap::new(),
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Direct access to the simulated flash (tests and tooling).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Consumes the device, surrendering the raw flash array.
    ///
    /// This is the §3.7 power-loss handoff: after a cut, everything volatile
    /// (AMT, IMT, Bloom chain, delta buffers) is gone, and the only thing
    /// that survives is the flash itself. Call
    /// [`FlashArray::revive`] on the result, then
    /// [`TimeSsd::recover_from_flash`] to bring the device back.
    pub fn into_flash(self) -> FlashArray {
        self.flash
    }

    /// Free blocks currently in the pool.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free_blocks()
    }

    /// Current width of the retention window: from the creation of the
    /// oldest live Bloom filter to `now` (§3.5).
    pub fn retention_window(&self, now: Nanos) -> Nanos {
        match self.chain.retention_start() {
            Some(start) => now.saturating_sub(start),
            None => 0,
        }
    }

    /// Number of live Bloom filters (time segments).
    pub fn live_filters(&self) -> usize {
        self.chain.len()
    }

    /// Number of flash blocks currently dedicated to live delta segments.
    pub fn delta_block_count(&self) -> usize {
        self.deltas.block_count()
    }

    /// Number of delta pages still sitting in volatile RAM buffers. Zero
    /// immediately after an acknowledged [`flush`](SsdDevice::flush).
    pub fn buffered_delta_pages(&self) -> usize {
        self.deltas.buffered_pages().count()
    }

    /// Translation-page cache traffic: `(fault reads, dirty writebacks)`.
    pub fn map_cache_traffic(&self) -> (u64, u64) {
        (
            self.map_cache.fault_reads(),
            self.map_cache.writeback_writes(),
        )
    }

    /// Number of mapping-table shards this device was built with.
    pub fn amt_shards(&self) -> u32 {
        self.amt.shard_count()
    }

    /// Flushes all pending delta buffers to flash. This is the host
    /// [`flush`](SsdDevice::flush) barrier's engine (also a shutdown hook):
    /// on success every buffered delta and tombstone is durable and the
    /// barrier point advances; on failure nothing is acked and a retry
    /// re-targets the surviving buffers.
    pub fn flush_buffers(&mut self, now: Nanos) -> Result<Nanos> {
        let out = self.deltas.flush_all(
            &mut self.bst,
            &mut self.flash,
            now.max(self.busy_until),
            self.config.flush_page_cost,
        );
        // Bank partial work *before* surfacing any mid-loop fault: the
        // buffers flushed before the fault programmed real flash and spent
        // real controller time, so `busy_until` and the program counters
        // must advance even when the barrier as a whole is not acked.
        self.stats.delta_programs += out.programs;
        self.stats.flush_pages += out.programs;
        self.busy_until = self.busy_until.max(out.finish);
        let (t, _) = out.into_result()?;
        Ok(t)
    }

    /// Age-based group-flush scheduler (§3.6 maintenance path): flushes any
    /// delta buffer whose oldest pending tombstone was enqueued more than
    /// `tombstone_flush_deadline` ago, bounding how long an acked trim stays
    /// volatile between host barriers on rarely-trimming workloads.
    ///
    /// Runs at every host-op arrival, so the bound holds at op boundaries
    /// without an idle-predictor gate. Like background compression it does
    /// not advance `busy_until` — flash programs are charged to the chips
    /// and the stats, but host traffic arriving mid-flush is not delayed.
    pub(crate) fn flush_aged_tombstones(&mut self, now: Nanos) -> Result<()> {
        let deadline = self.config.tombstone_flush_deadline;
        for fid in self.deltas.aged_trim_filters(now, deadline) {
            let (_, programs) =
                self.deltas
                    .flush_filter(fid, &mut self.bst, &mut self.flash, now)?;
            self.stats.delta_programs += programs;
            self.stats.aging_flushes += programs;
        }
        Ok(())
    }

    /// The Bloom-filter group key of a physical page (§3.5: invalidations
    /// are tracked for N consecutive pages at once).
    pub(crate) fn group_of(&self, ppa: Ppa) -> u64 {
        ppa.0 / self.config.group_size as u64
    }

    fn check_lpa(&self, lpa: Lpa) -> Result<()> {
        if lpa.0 < self.amt.len() {
            Ok(())
        } else {
            Err(AlmanacError::LpaOutOfRange {
                lpa,
                exported: self.amt.len(),
            })
        }
    }

    /// Invalidates a page while *retaining* it: the page stays on flash and
    /// its invalidation time is recorded in the active Bloom filter.
    pub(crate) fn invalidate_retain(&mut self, old: Ppa, now: Nanos) {
        self.pvt.set(old, false);
        let block = self.config.geometry.block_of(old);
        self.bst.get_mut(block).valid -= 1;
        let group = self.group_of(old);
        self.chain.insert(group, now);
        self.bg_scan_pointless = false;
    }

    /// Writes one host page (internal; range checks done by callers).
    pub(crate) fn write_page(
        &mut self,
        lpa: Lpa,
        data: PageData,
        back_ptr: Option<Ppa>,
        ts: Nanos,
        at: Nanos,
    ) -> Result<Nanos> {
        let (ppa, opened) = self
            .alloc
            .next_data_page()
            .ok_or(AlmanacError::DeviceStalled {
                now: at,
                retention_window: self.retention_window(at),
            })?;
        if let Some(b) = opened {
            self.bst.get_mut(b).kind = BlockKind::Data;
        }
        let finish = match self
            .flash
            .program(ppa, data, Oob::new(lpa, back_ptr, ts), at)
        {
            Ok(t) => t,
            Err(e) => {
                // The chip never wrote the page; return the offset so the
                // block's program sequence stays aligned (a retry succeeds).
                self.alloc.unreserve_page(ppa);
                return Err(e.into());
            }
        };
        self.bst
            .count_program(self.config.geometry.block_of(ppa), true);
        self.pvt.set(ppa, true);
        if let AmtEntry::Mapped(old) = self.amt.set(lpa, AmtEntry::Mapped(ppa)) {
            self.invalidate_retain(old, ts);
        }
        self.gmd.note_update(lpa);
        Ok(finish)
    }

    /// Migrates a page during GC/wear leveling: the rewritten page keeps its
    /// original OOB (timestamp and back-pointer), so the version chain is
    /// unaffected.
    pub(crate) fn migrate_valid(&mut self, old: Ppa, at: Nanos) -> Result<Nanos> {
        let (data, oob, rt) = self.flash.read(old, at)?;
        // §3.7 defence: trust the OOB owner only if the AMT agrees. Corrupt
        // OOB metadata (bit-rot, ECC escapes) must not misdirect the remap —
        // the RAM-resident AMT is authoritative, so on mismatch recover the
        // true owner by reverse lookup and write the corrected OOB forward.
        let owner = if self.amt.get(oob.lpa).chain_head() == Some(old) {
            Some(oob.lpa)
        } else {
            self.amt
                .iter()
                .find(|(_, e)| e.chain_head() == Some(old))
                .map(|(l, _)| l)
        };
        // Secure a destination page *before* touching the old copy's
        // validity: when the allocator comes up empty the error below must
        // leave the tables untouched, or a stalled device ends with the
        // owner mapped to a page just marked invalid (found by the
        // differential oracle under GC pressure).
        let (ppa, opened) = self
            .alloc
            .next_gc_page()
            .ok_or(AlmanacError::DeviceStalled {
                now: at,
                retention_window: self.retention_window(at),
            })?;
        if let Some(b) = opened {
            self.bst.get_mut(b).kind = BlockKind::Data;
        }
        // Program the new copy while the old one is still valid and mapped:
        // a failed program (injected fault, power loss) must leave the old
        // copy untouched — invalidating first would strand the owner mapped
        // to a page already marked invalid.
        let fixed_oob = Oob::new(owner.unwrap_or(oob.lpa), oob.back_ptr, oob.timestamp);
        let finish = match self.flash.program(ppa, data, fixed_oob, rt) {
            Ok(t) => t,
            Err(e) => {
                self.alloc.unreserve_page(ppa);
                return Err(e.into());
            }
        };
        // The old physical copy ceases to exist; it is not an invalidation
        // in the version-history sense, so it does not enter the Bloom
        // filters.
        self.pvt.set(old, false);
        self.bst.get_mut(self.config.geometry.block_of(old)).valid -= 1;
        self.bst
            .count_program(self.config.geometry.block_of(ppa), true);
        self.pvt.set(ppa, true);
        if let Some(owner) = owner {
            // A trimmed head stays trimmed: migration moves bytes, not state.
            let entry = match self.amt.get(owner) {
                AmtEntry::Trimmed(_, at) => AmtEntry::Trimmed(ppa, at),
                _ => AmtEntry::Mapped(ppa),
            };
            self.amt.set(owner, entry);
            self.gmd.note_update(owner);
        }
        Ok(finish)
    }

    /// Fraction of the physical pages holding live data: valid pages plus
    /// the pages of delta blocks dedicated to live filters.
    fn space_utilization(&self) -> f64 {
        let mut used = 0u64;
        for (_, info) in self.bst.iter() {
            match info.kind {
                BlockKind::Data => used += info.valid as u64,
                BlockKind::Delta(_) => used += info.written as u64,
                BlockKind::Free => {}
            }
        }
        used as f64 / self.config.geometry.total_pages() as f64
    }

    /// Evaluates Equation 1 at the end of each `N_fixed`-write period and
    /// shrinks the retention window when the retention machinery's overhead
    /// is too high (§3.4), or when retained data crowds the device past the
    /// space high-water mark.
    fn maybe_evaluate_period(&mut self, now: Nanos) {
        if self.period.user_writes < self.config.n_fixed {
            return;
        }
        let over = self.period.over_threshold(
            &self.config.latency,
            self.config.n_fixed,
            self.config.gc_overhead_threshold,
        );
        let crowded = self.space_utilization() > 0.90;
        if (over || crowded)
            && retention::may_drop_oldest(
                now,
                self.chain.retention_start_after_drop(),
                self.config.min_retention,
            )
        {
            if let Some(info) = self.chain.drop_oldest() {
                self.deltas.drop_filter(info.id);
                self.stats.filters_dropped += 1;
            }
        }
        self.period.reset();
    }
}

impl SsdDevice for TimeSsd {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        self.check_lpa(lpa)?;
        self.background_compress_window(now)?;
        self.flush_aged_tombstones(now)?;
        self.idle.on_arrival(now);
        self.maybe_gc(now)?;
        let mut start = now.max(self.busy_until).max(self.last_ts + 1);
        start += self.map_cache.access(lpa, true, &self.config.latency);
        self.last_ts = start;
        let back_ptr = self.amt.get(lpa).chain_head();
        let finish = self.write_page(lpa, data, back_ptr, start, start)?;
        self.stats.user_writes += 1;
        self.stats.user_programs += 1;
        self.period.user_writes += 1;
        self.maybe_evaluate_period(start);
        self.last_io_end = self.last_io_end.max(finish);
        let completion = Completion { start, finish };
        self.stats.write_lat.record(completion.response(now));
        Ok(completion)
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        self.check_lpa(lpa)?;
        self.background_compress_window(now)?;
        self.flush_aged_tombstones(now)?;
        self.idle.on_arrival(now);
        let mut start = now.max(self.busy_until);
        start += self.map_cache.access(lpa, false, &self.config.latency);
        let completion;
        let data = match self.amt.get(lpa) {
            AmtEntry::Mapped(ppa) => {
                let (data, _oob, finish) = self.flash.read(ppa, start)?;
                completion = Completion { start, finish };
                data
            }
            _ => {
                let finish = start + self.config.latency.transfer_ns;
                completion = Completion { start, finish };
                PageData::Zeros
            }
        };
        self.stats.user_reads += 1;
        self.last_io_end = self.last_io_end.max(completion.finish);
        self.stats.read_lat.record(completion.response(now));
        Ok((data, completion))
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        self.check_lpa(lpa)?;
        self.flush_aged_tombstones(now)?;
        self.idle.on_arrival(now);
        self.maybe_gc(now)?;
        let start = now.max(self.busy_until);
        let mut finish = start + self.config.latency.transfer_ns;
        if let AmtEntry::Mapped(old) = self.amt.get(lpa) {
            // Invalidation times recorded in the Bloom chain must never
            // regress: back-to-back writes push `last_ts` ahead of wall
            // time, and a filter whose creation time exceeds an earlier
            // filter's youngest entry would let `may_drop_oldest`
            // overestimate those entries' ages and expire them early.
            let inv_ts = start.max(self.last_ts);
            // Journal the tombstone into the filter segment that records
            // this invalidation *before* any RAM state changes, so record
            // and versions expire together with the filter. The journal
            // batches tombstones (`trim_journal_watermark`) and flushes on
            // watermark, capacity, or a host flush barrier — between
            // flushes an acked trim is volatile like any buffered delta
            // (fsync semantics, §3.7 crash contract). A failed journal
            // append leaves the trim un-applied — only a spurious Bloom
            // insert remains, a false positive the filters tolerate by
            // design.
            let group = self.group_of(old);
            let fid = self.chain.insert(group, inv_ts);
            let out = self.deltas.journal_trim(
                fid,
                almanac_flash::DeltaRecord::trim(lpa, old, inv_ts),
                &mut self.alloc,
                &mut self.bst,
                &mut self.flash,
                start,
            )?;
            self.stats.delta_programs += out.programs;
            finish = finish.max(out.finish);
            // Remember the chain head (and when it stopped existing) so
            // deleted data stays recoverable and as-of queries know the
            // page read as zeros from here on.
            self.amt.set(lpa, AmtEntry::Trimmed(old, inv_ts));
            self.pvt.set(old, false);
            let block = self.config.geometry.block_of(old);
            self.bst.get_mut(block).valid -= 1;
            self.bg_scan_pointless = false;
            self.gmd.note_update(lpa);
            // Later writes must timestamp strictly after the trim, or the
            // on-flash order (journal record vs. rewrite) is ambiguous at
            // rebuild time.
            self.last_ts = inv_ts;
        }
        self.stats.user_trims += 1;
        self.last_io_end = self.last_io_end.max(finish);
        Ok(Completion { start, finish })
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        self.idle.on_arrival(now);
        // A barrier fences every in-flight host op: it can start no earlier
        // than the device frees up and finish no earlier than the last
        // outstanding completion (`last_io_end`) — an fsync acked before the
        // writes it fences would break the crash contract.
        let start = now.max(self.busy_until);
        let flushed = self.flush_buffers(start)?;
        let finish = flushed
            .max(self.last_io_end)
            .saturating_add(self.config.flush_barrier_cost);
        self.busy_until = self.busy_until.max(finish);
        self.stats.host_flushes += 1;
        self.last_io_end = self.last_io_end.max(finish);
        let completion = Completion { start, finish };
        self.stats.flush_lat.record(completion.response(now));
        Ok(completion)
    }
}

impl SsdReadOps for TimeSsd {
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn exported_pages(&self) -> u64 {
        self.amt.len()
    }

    fn kind(&self) -> &'static str {
        "timessd"
    }

    fn read_view(&self) -> Option<query::SsdReadView<'_>> {
        Some(TimeSsd::read_view(self))
    }
}
