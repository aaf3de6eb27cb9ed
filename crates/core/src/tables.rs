//! FTL mapping and status tables.
//!
//! These mirror Figure 3 of the paper. Structures ①–④ exist in a regular
//! SSD: the address mapping table (AMT), global mapping directory (GMD),
//! block status table (BST), and page validity table (PVT). TimeSSD adds
//! ⑤–⑧: the index mapping table (IMT), page reclamation table (PRT), the
//! Bloom filters (in `almanac-bloom`), and the delta buffers (in
//! `timessd::deltas`).

use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, DerefMut};
use std::sync::{RwLock, RwLockReadGuard};

use almanac_bloom::FilterId;
use almanac_flash::{BlockId, Geometry, Lpa, Nanos, Ppa};

/// Acquires a shard read lock, tolerating poison: a panicking reader cannot
/// have left the table in a torn state (readers never mutate), and the write
/// path goes through `get_mut`, which bypasses the lock entirely.
fn read_shard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Mutable access to a shard through `&mut self` — no lock is taken, so the
/// single-writer FTL path stays exactly as fast as the unsharded table.
fn shard_mut<T>(lock: &mut RwLock<T>) -> &mut T {
    match lock.get_mut() {
        Ok(v) => v,
        Err(e) => e.into_inner(),
    }
}

/// One entry of the address mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AmtEntry {
    /// Never written.
    #[default]
    Unmapped,
    /// Mapped to a valid flash page.
    Mapped(Ppa),
    /// Trimmed: reads return zeros, but the old version chain stays
    /// reachable through the remembered head so TimeKits can recover
    /// deleted data. Carries the trim time so as-of queries know when the
    /// page stopped existing. A rewrite forgets the tombstone; a power cut
    /// does not — every trim journals a durable TRIM record into the delta
    /// stream, and the rebuild scan replays the newest surviving record
    /// back into this state.
    Trimmed(Ppa, Nanos),
}

impl AmtEntry {
    /// The valid physical page, if mapped.
    pub fn mapped(&self) -> Option<Ppa> {
        match self {
            AmtEntry::Mapped(p) => Some(*p),
            _ => None,
        }
    }

    /// The head of the version chain (valid page or pre-trim head).
    pub fn chain_head(&self) -> Option<Ppa> {
        match self {
            AmtEntry::Mapped(p) | AmtEntry::Trimmed(p, _) => Some(*p),
            AmtEntry::Unmapped => None,
        }
    }

    /// When the page was trimmed, if it currently is.
    pub fn trimmed_at(&self) -> Option<Nanos> {
        match self {
            AmtEntry::Trimmed(_, at) => Some(*at),
            _ => None,
        }
    }
}

/// Address mapping table ①: LPA → PPA for the latest valid version.
#[derive(Debug, Clone)]
pub struct Amt {
    entries: Vec<AmtEntry>,
}

impl Amt {
    /// Creates an all-unmapped table for `exported_pages` logical pages.
    pub fn new(exported_pages: u64) -> Self {
        Amt {
            entries: vec![AmtEntry::Unmapped; exported_pages as usize],
        }
    }

    /// Number of logical pages.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True if the table covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry. Out-of-range addresses read as `Unmapped`: LPAs
    /// recovered from flash OOB metadata may be corrupt (bit-rot, ECC
    /// escapes), and the index must degrade to "no such page" rather than
    /// panic.
    pub fn get(&self, lpa: Lpa) -> AmtEntry {
        self.entries
            .get(lpa.0 as usize)
            .copied()
            .unwrap_or(AmtEntry::Unmapped)
    }

    /// Replaces an entry, returning the previous one. Out-of-range addresses
    /// are ignored (and read back as `Unmapped`) for the same reason as
    /// [`Amt::get`].
    pub fn set(&mut self, lpa: Lpa, entry: AmtEntry) -> AmtEntry {
        match self.entries.get_mut(lpa.0 as usize) {
            Some(slot) => std::mem::replace(slot, entry),
            None => AmtEntry::Unmapped,
        }
    }

    /// Iterates over `(lpa, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Lpa, AmtEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (Lpa(i as u64), *e))
    }
}

/// Global mapping directory ②: tracks the translation pages that would hold
/// the AMT in flash.
///
/// The simulator keeps the AMT RAM-resident (the paper's board demand-caches
/// it); the GMD still tracks which translation pages are dirty so the
/// metadata write traffic can be studied in ablations.
#[derive(Debug, Clone)]
pub struct Gmd {
    mappings_per_page: u64,
    dirty: Vec<bool>,
    flushes: u64,
}

impl Gmd {
    /// Creates a directory for `exported_pages` mappings stored
    /// `mappings_per_page` to a translation page.
    pub fn new(exported_pages: u64, mappings_per_page: u64) -> Self {
        let pages = exported_pages.div_ceil(mappings_per_page.max(1));
        Gmd {
            mappings_per_page: mappings_per_page.max(1),
            dirty: vec![false; pages as usize],
            flushes: 0,
        }
    }

    /// Marks the translation page covering `lpa` dirty.
    pub fn note_update(&mut self, lpa: Lpa) {
        let idx = (lpa.0 / self.mappings_per_page) as usize;
        if let Some(d) = self.dirty.get_mut(idx) {
            *d = true;
        }
    }

    /// Flushes all dirty translation pages, returning how many would be
    /// written to flash.
    pub fn flush(&mut self) -> u64 {
        let n = self.dirty.iter().filter(|d| **d).count() as u64;
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.flushes += n;
        n
    }

    /// Cumulative translation-page writes across all flushes.
    pub fn total_flushed(&self) -> u64 {
        self.flushes
    }

    /// Number of currently dirty translation pages.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty.iter().filter(|d| **d).count() as u64
    }
}

/// Page validity table ④: one bit per physical page.
#[derive(Debug, Clone)]
pub struct Pvt {
    valid: Vec<bool>,
}

impl Pvt {
    /// All-invalid table over the whole array.
    pub fn new(total_pages: u64) -> Self {
        Pvt {
            valid: vec![false; total_pages as usize],
        }
    }

    /// Is the page valid? Out-of-range addresses (e.g. a corrupt OOB
    /// back-pointer) read as invalid rather than panicking.
    pub fn is_valid(&self, ppa: Ppa) -> bool {
        self.valid.get(ppa.0 as usize).copied().unwrap_or(false)
    }

    /// Sets validity; out-of-range addresses are ignored.
    pub fn set(&mut self, ppa: Ppa, valid: bool) {
        if let Some(v) = self.valid.get_mut(ppa.0 as usize) {
            *v = valid;
        }
    }

    /// Clears every page of a block (on erase).
    pub fn clear_block(&mut self, geometry: &Geometry, block: BlockId) {
        let start = block.0 * geometry.pages_per_block as u64;
        for i in 0..geometry.pages_per_block as u64 {
            self.valid[(start + i) as usize] = false;
        }
    }
}

/// Page reclamation table ⑥: marks invalid pages whose content has been
/// delta-compressed (or found expired) and may be discarded by GC.
#[derive(Debug, Clone)]
pub struct Prt {
    reclaimable: Vec<bool>,
}

impl Prt {
    /// All-clear table over the whole array.
    pub fn new(total_pages: u64) -> Self {
        Prt {
            reclaimable: vec![false; total_pages as usize],
        }
    }

    /// Is the page reclaimable? Out-of-range addresses (e.g. a corrupt OOB
    /// back-pointer) read as not-reclaimable rather than panicking.
    pub fn is_reclaimable(&self, ppa: Ppa) -> bool {
        self.reclaimable
            .get(ppa.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Marks a page reclaimable; out-of-range addresses are ignored.
    pub fn mark(&mut self, ppa: Ppa) {
        if let Some(r) = self.reclaimable.get_mut(ppa.0 as usize) {
            *r = true;
        }
    }

    /// Clears every page of a block (on erase).
    pub fn clear_block(&mut self, geometry: &Geometry, block: BlockId) {
        let start = block.0 * geometry.pages_per_block as u64;
        for i in 0..geometry.pages_per_block as u64 {
            self.reclaimable[(start + i) as usize] = false;
        }
    }
}

/// What a block currently stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockKind {
    /// In the free pool.
    #[default]
    Free,
    /// Holds host data pages.
    Data,
    /// Holds packed delta pages dedicated to one Bloom filter segment
    /// (the BST extension of §3.6/§3.8).
    Delta(FilterId),
}

/// Per-block status ③.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockInfo {
    /// Block role.
    pub kind: BlockKind,
    /// Pages programmed so far.
    pub written: u32,
    /// Pages currently valid (latest version of some LPA).
    pub valid: u32,
    /// Pages marked reclaimable in the PRT (subset of invalid pages).
    pub reclaimable: u32,
}

impl BlockInfo {
    /// Invalid pages = programmed pages that are not the valid latest
    /// version (includes retained and reclaimable pages).
    pub fn invalid(&self) -> u32 {
        self.written - self.valid
    }
}

/// Closed data blocks bucketed by one integer score in `1..=max_score`:
/// per score, a count of the blocks in the bucket followed by a bitset over
/// the block ids, so the best-scoring block is found by walking scores down
/// from the top instead of scanning every block. Blocks scoring 0 are never
/// indexed. One flat allocation keeps device construction cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScoreBuckets {
    /// `u64`s per score row: one count plus the bitset words.
    stride: usize,
    /// Score `s` owns `rows[s * stride..(s + 1) * stride]`: the count, then
    /// the bitset.
    rows: Vec<u64>,
}

impl ScoreBuckets {
    fn new(total_blocks: usize, max_score: u32) -> Self {
        let stride = 1 + total_blocks.div_ceil(64);
        ScoreBuckets {
            stride,
            rows: vec![0; (max_score as usize + 1) * stride],
        }
    }

    /// Sets or clears `block`'s bit in `score`'s bucket, keeping the count
    /// in step. Idempotent, and a no-op for score 0, so it cannot panic on
    /// the guard's drop path.
    fn set(&mut self, score: u32, block: usize, present: bool) {
        if score == 0 {
            return;
        }
        let row = score as usize * self.stride;
        let word = &mut self.rows[row + 1 + block / 64];
        let mask = 1u64 << (block % 64);
        if (*word & mask != 0) == present {
            return;
        }
        *word ^= mask;
        if present {
            self.rows[row] += 1;
        } else {
            self.rows[row] -= 1;
        }
    }

    /// Moves `block` from bucket `from` to bucket `to`.
    fn rescore(&mut self, from: u32, to: u32, block: usize) {
        if from != to {
            self.set(from, block, false);
            self.set(to, block, true);
        }
    }

    /// The highest-scoring block that `skip` does not reject; ties go to the
    /// highest block id — the block a `max_by_key` scan in block order
    /// returns.
    fn best(&self, skip: impl Fn(BlockId) -> bool) -> Option<BlockId> {
        for row in self.rows.chunks_exact(self.stride).skip(1).rev() {
            if row[0] == 0 {
                continue;
            }
            for (w, &word) in row[1..].iter().enumerate().rev() {
                let mut word = word;
                while word != 0 {
                    let bit = 63 - word.leading_zeros() as usize;
                    let block = BlockId((w * 64 + bit) as u64);
                    if !skip(block) {
                        return Some(block);
                    }
                    word &= !(1 << bit);
                }
            }
        }
        None
    }
}

/// The two victim scores of a *closed* data block (every page programmed):
/// invalid pages (greedy GC, §3.8) and invalid pages not yet reclaimable
/// (retained, uncompressed — the §3.6 idle-compression victim). Any other
/// block scores `(0, 0)` and sits in no bucket.
fn victim_scores(info: &BlockInfo, pages_per_block: u32) -> (u32, u32) {
    if info.kind != BlockKind::Data || info.written != pages_per_block {
        return (0, 0);
    }
    let invalid = info.written.saturating_sub(info.valid);
    (invalid, invalid.saturating_sub(info.reclaimable))
}

/// Block status table ③ plus the delta-block extension.
///
/// Besides the per-block entries it keeps three indices, updated at the
/// table's only mutation points ([`Bst::get_mut`]'s guard and
/// [`Bst::reset`]), so the GC and idle-compression victims and the expired
/// delta blocks are found without scanning every block:
/// - closed data blocks bucketed by invalid pages;
/// - closed data blocks bucketed by invalid minus reclaimable pages;
/// - an ordered map of the delta blocks to their Bloom filter.
#[derive(Debug, Clone)]
pub struct Bst {
    blocks: Vec<BlockInfo>,
    pages_per_block: u32,
    by_invalid: ScoreBuckets,
    by_retained: ScoreBuckets,
    delta_blocks: BTreeMap<BlockId, FilterId>,
}

/// Mutable access to one [`BlockInfo`]; re-indexes the block when dropped.
pub struct BlockInfoMut<'a> {
    bst: &'a mut Bst,
    block: BlockId,
    before: BlockInfo,
}

impl Deref for BlockInfoMut<'_> {
    type Target = BlockInfo;

    fn deref(&self) -> &BlockInfo {
        &self.bst.blocks[self.block.0 as usize]
    }
}

impl DerefMut for BlockInfoMut<'_> {
    fn deref_mut(&mut self) -> &mut BlockInfo {
        &mut self.bst.blocks[self.block.0 as usize]
    }
}

impl Drop for BlockInfoMut<'_> {
    fn drop(&mut self) {
        self.bst.reindex(self.block, self.before);
    }
}

impl Bst {
    /// All-free table over `total_blocks` blocks of `pages_per_block` pages.
    pub fn new(total_blocks: u64, pages_per_block: u32) -> Self {
        let n = total_blocks as usize;
        Bst {
            blocks: vec![BlockInfo::default(); n],
            pages_per_block,
            by_invalid: ScoreBuckets::new(n, pages_per_block),
            by_retained: ScoreBuckets::new(n, pages_per_block),
            delta_blocks: BTreeMap::new(),
        }
    }

    /// Immutable block info.
    pub fn get(&self, block: BlockId) -> &BlockInfo {
        &self.blocks[block.0 as usize]
    }

    /// Mutable block info. The returned guard re-indexes the block when it
    /// drops, so no caller can leave the indices stale.
    pub fn get_mut(&mut self, block: BlockId) -> BlockInfoMut<'_> {
        let before = self.blocks[block.0 as usize];
        BlockInfoMut {
            bst: self,
            block,
            before,
        }
    }

    /// Counts one newly programmed page of `block`; `valid` when it holds
    /// the live version of its LPA.
    pub fn count_program(&mut self, block: BlockId, valid: bool) {
        let mut info = self.get_mut(block);
        info.written += 1;
        info.valid += u32::from(valid);
    }

    /// Iterates `(block, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockInfo)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u64), b))
    }

    /// Resets a block to free (after erase).
    pub fn reset(&mut self, block: BlockId) {
        *self.get_mut(block) = BlockInfo::default();
    }

    /// Moves `block` from the index slots `before` placed it in to the ones
    /// its current entry belongs in.
    fn reindex(&mut self, block: BlockId, before: BlockInfo) {
        let i = block.0 as usize;
        let after = self.blocks[i];
        let (old_inv, old_ret) = victim_scores(&before, self.pages_per_block);
        let (new_inv, new_ret) = victim_scores(&after, self.pages_per_block);
        self.by_invalid.rescore(old_inv, new_inv, i);
        self.by_retained.rescore(old_ret, new_ret, i);
        if before.kind != after.kind {
            match after.kind {
                BlockKind::Delta(fid) => self.delta_blocks.insert(block, fid),
                _ => self.delta_blocks.remove(&block),
            };
        }
    }

    /// The greedy GC victim (§3.8): the closed data block with the most
    /// invalid pages, skipping blocks `skip` rejects (open blocks). Ties go
    /// to the highest block id.
    pub fn gc_victim(&self, skip: impl Fn(BlockId) -> bool) -> Option<BlockId> {
        self.by_invalid.best(skip)
    }

    /// The idle-compression victim (§3.6): the closed data block with the
    /// most retained (invalid, not yet reclaimable) pages, skipping blocks
    /// `skip` rejects. Ties go to the highest block id.
    pub fn compress_victim(&self, skip: impl Fn(BlockId) -> bool) -> Option<BlockId> {
        self.by_retained.best(skip)
    }

    /// Delta blocks and their filters, in block order.
    pub fn delta_blocks(&self) -> impl Iterator<Item = (BlockId, FilterId)> + '_ {
        self.delta_blocks.iter().map(|(b, f)| (*b, *f))
    }

    /// Test hook: overwrites a block entry *without* re-indexing, forging
    /// the stale-index corruption the consistency audit exists to catch.
    #[cfg(test)]
    pub(crate) fn set_unindexed(&mut self, block: BlockId, info: BlockInfo) {
        self.blocks[block.0 as usize] = info;
    }

    /// True when the indices equal ones rebuilt from scratch through the
    /// table's own mutators — the consistency checker's audit.
    pub fn indices_consistent(&self) -> bool {
        let mut fresh = Bst::new(self.blocks.len() as u64, self.pages_per_block);
        for (block, info) in self.iter() {
            *fresh.get_mut(block) = *info;
        }
        fresh.by_invalid == self.by_invalid
            && fresh.by_retained == self.by_retained
            && fresh.delta_blocks == self.delta_blocks
    }
}

/// Index mapping table ⑤: LPA → PPA of the delta page holding the newest
/// compressed version of that LPA.
#[derive(Debug, Clone, Default)]
pub struct Imt {
    heads: HashMap<Lpa, (Ppa, Nanos)>,
}

impl Imt {
    /// Empty table.
    pub fn new() -> Self {
        Imt::default()
    }

    /// Head of the delta chain for `lpa`: the delta page and the timestamp of
    /// the newest compressed version.
    pub fn head(&self, lpa: Lpa) -> Option<(Ppa, Nanos)> {
        self.heads.get(&lpa).copied()
    }

    /// Updates the chain head.
    pub fn set_head(&mut self, lpa: Lpa, page: Ppa, newest_ts: Nanos) {
        self.heads.insert(lpa, (page, newest_ts));
    }

    /// Removes the chain head (when the whole delta chain expired).
    pub fn remove(&mut self, lpa: Lpa) -> Option<(Ppa, Nanos)> {
        self.heads.remove(&lpa)
    }

    /// Iterates every `(lpa, (delta page, newest ts))` head — used by the
    /// consistency checker's reachability audit.
    pub fn iter(&self) -> impl Iterator<Item = (Lpa, (Ppa, Nanos))> + '_ {
        self.heads.iter().map(|(l, h)| (*l, *h))
    }

    /// Number of LPAs with compressed versions.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if no LPA has compressed versions.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }
}

/// Address mapping table ① sharded by `lpa % shards`.
///
/// Shard `s` owns every exported LPA congruent to `s`, stored densely at
/// local slot `lpa / shards`. Each shard sits behind its own `RwLock`:
/// storage-state queries (`&self`) take shared locks per lookup, while the
/// FTL write path reaches the shard through `&mut self` without locking at
/// all (`RwLock::get_mut`). Host-visible behaviour is identical to [`Amt`]
/// for every shard count; only lock granularity changes.
#[derive(Debug)]
pub struct ShardedAmt {
    shards: Vec<RwLock<Vec<AmtEntry>>>,
    nshards: u64,
    exported: u64,
}

impl Clone for ShardedAmt {
    fn clone(&self) -> Self {
        ShardedAmt {
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(read_shard(s).clone()))
                .collect(),
            nshards: self.nshards,
            exported: self.exported,
        }
    }
}

impl ShardedAmt {
    /// All-unmapped table over `exported_pages` LPAs split into `shards`
    /// partitions (clamped to at least 1).
    pub fn new(exported_pages: u64, shards: u32) -> Self {
        let nshards = u64::from(shards.max(1));
        let shards = (0..nshards)
            .map(|s| {
                // LPAs in [0, exported) congruent to s mod nshards.
                let local = exported_pages.saturating_sub(s).div_ceil(nshards);
                RwLock::new(vec![AmtEntry::Unmapped; local as usize])
            })
            .collect();
        ShardedAmt {
            shards,
            nshards,
            exported: exported_pages,
        }
    }

    /// Number of logical pages (across all shards).
    pub fn len(&self) -> u64 {
        self.exported
    }

    /// True if the table covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.exported == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.nshards as u32
    }

    /// Entries currently held by shard `s` that are not `Unmapped` — the
    /// occupancy the [`ShardSkew`](crate::Violation) audit compares across
    /// shards. Out-of-range shards read as 0.
    pub fn shard_occupancy(&self, shard: u32) -> u64 {
        self.shards
            .get(shard as usize)
            .map(|s| {
                read_shard(s)
                    .iter()
                    .filter(|e| !matches!(e, AmtEntry::Unmapped))
                    .count() as u64
            })
            .unwrap_or(0)
    }

    /// Looks up an entry through the owning shard's read lock. Out-of-range
    /// addresses read as `Unmapped`, as in [`Amt::get`].
    pub fn get(&self, lpa: Lpa) -> AmtEntry {
        if lpa.0 >= self.exported {
            return AmtEntry::Unmapped;
        }
        let shard = read_shard(&self.shards[(lpa.0 % self.nshards) as usize]);
        shard
            .get((lpa.0 / self.nshards) as usize)
            .copied()
            .unwrap_or(AmtEntry::Unmapped)
    }

    /// Replaces an entry, returning the previous one. Reaches the shard via
    /// `&mut` (no lock). Out-of-range addresses are ignored, as in
    /// [`Amt::set`].
    pub fn set(&mut self, lpa: Lpa, entry: AmtEntry) -> AmtEntry {
        if lpa.0 >= self.exported {
            return AmtEntry::Unmapped;
        }
        let local = (lpa.0 / self.nshards) as usize;
        let shard = shard_mut(&mut self.shards[(lpa.0 % self.nshards) as usize]);
        match shard.get_mut(local) {
            Some(slot) => std::mem::replace(slot, entry),
            None => AmtEntry::Unmapped,
        }
    }

    /// Iterates over `(lpa, entry)` pairs in global LPA order — the same
    /// order [`Amt::iter`] yields, which GC's reverse lookup and the
    /// consistency checker rely on for determinism. Holds every shard's read
    /// lock for the iterator's lifetime, giving a coherent snapshot.
    pub fn iter(&self) -> impl Iterator<Item = (Lpa, AmtEntry)> + '_ {
        let guards: Vec<RwLockReadGuard<'_, Vec<AmtEntry>>> =
            self.shards.iter().map(read_shard).collect();
        let nshards = self.nshards;
        (0..self.exported).map(move |lpa| {
            let entry = guards[(lpa % nshards) as usize]
                .get((lpa / nshards) as usize)
                .copied()
                .unwrap_or(AmtEntry::Unmapped);
            (Lpa(lpa), entry)
        })
    }
}

/// Index mapping table ⑤ sharded by `lpa % shards`, mirroring
/// [`ShardedAmt`]: delta-chain heads live with the shard that owns the LPA,
/// so a ranged query touches only the shards its LPAs hash to.
#[derive(Debug, Default)]
pub struct ShardedImt {
    shards: Vec<RwLock<Imt>>,
    nshards: u64,
}

impl Clone for ShardedImt {
    fn clone(&self) -> Self {
        ShardedImt {
            shards: self
                .shards
                .iter()
                .map(|s| RwLock::new(read_shard(s).clone()))
                .collect(),
            nshards: self.nshards,
        }
    }
}

impl ShardedImt {
    /// Empty table split into `shards` partitions (clamped to at least 1).
    pub fn new(shards: u32) -> Self {
        let nshards = u64::from(shards.max(1));
        ShardedImt {
            shards: (0..nshards).map(|_| RwLock::new(Imt::new())).collect(),
            nshards,
        }
    }

    /// Head of the delta chain for `lpa`, through the owning shard's read
    /// lock.
    pub fn head(&self, lpa: Lpa) -> Option<(Ppa, Nanos)> {
        read_shard(&self.shards[(lpa.0 % self.nshards) as usize]).head(lpa)
    }

    /// Updates the chain head (lock-free via `&mut`).
    pub fn set_head(&mut self, lpa: Lpa, page: Ppa, newest_ts: Nanos) {
        shard_mut(&mut self.shards[(lpa.0 % self.nshards) as usize]).set_head(lpa, page, newest_ts)
    }

    /// Removes the chain head (when the whole delta chain expired).
    pub fn remove(&mut self, lpa: Lpa) -> Option<(Ppa, Nanos)> {
        shard_mut(&mut self.shards[(lpa.0 % self.nshards) as usize]).remove(lpa)
    }

    /// Iterates every `(lpa, (delta page, newest ts))` head, shard by shard.
    /// Order within a shard is hash order (as with [`Imt::iter`]); callers
    /// must already be order-independent.
    pub fn iter(&self) -> impl Iterator<Item = (Lpa, (Ppa, Nanos))> + '_ {
        let guards: Vec<RwLockReadGuard<'_, Imt>> = self.shards.iter().map(read_shard).collect();
        guards.into_iter().flat_map(|g| {
            g.iter()
                .collect::<Vec<_>>() // detach from the guard's lifetime
                .into_iter()
        })
    }

    /// Number of LPAs with compressed versions (across all shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).len()).sum()
    }

    /// True if no LPA has compressed versions.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| read_shard(s).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amt_transitions() {
        let mut amt = Amt::new(4);
        assert_eq!(amt.get(Lpa(0)), AmtEntry::Unmapped);
        amt.set(Lpa(0), AmtEntry::Mapped(Ppa(5)));
        assert_eq!(amt.get(Lpa(0)).mapped(), Some(Ppa(5)));
        amt.set(Lpa(0), AmtEntry::Trimmed(Ppa(5), 42));
        assert_eq!(amt.get(Lpa(0)).mapped(), None);
        assert_eq!(amt.get(Lpa(0)).chain_head(), Some(Ppa(5)));
        assert_eq!(amt.get(Lpa(0)).trimmed_at(), Some(42));
        assert_eq!(AmtEntry::Mapped(Ppa(5)).trimmed_at(), None);
    }

    #[test]
    fn gmd_tracks_dirty_translation_pages() {
        let mut gmd = Gmd::new(100, 10);
        gmd.note_update(Lpa(0));
        gmd.note_update(Lpa(5)); // same translation page
        gmd.note_update(Lpa(95));
        assert_eq!(gmd.dirty_pages(), 2);
        assert_eq!(gmd.flush(), 2);
        assert_eq!(gmd.dirty_pages(), 0);
        assert_eq!(gmd.total_flushed(), 2);
    }

    #[test]
    fn pvt_block_clear() {
        let geo = Geometry::small_test();
        let mut pvt = Pvt::new(geo.total_pages());
        let ppa = geo.ppa(1, 3);
        pvt.set(ppa, true);
        assert!(pvt.is_valid(ppa));
        pvt.clear_block(&geo, BlockId(1));
        assert!(!pvt.is_valid(ppa));
    }

    #[test]
    fn prt_block_clear() {
        let geo = Geometry::small_test();
        let mut prt = Prt::new(geo.total_pages());
        let ppa = geo.ppa(2, 0);
        prt.mark(ppa);
        assert!(prt.is_reclaimable(ppa));
        prt.clear_block(&geo, BlockId(2));
        assert!(!prt.is_reclaimable(ppa));
    }

    #[test]
    fn bst_invalid_derives_from_counts() {
        let mut bst = Bst::new(2, 8);
        {
            let mut info = bst.get_mut(BlockId(0));
            info.kind = BlockKind::Data;
            info.written = 8;
            info.valid = 5;
        }
        assert_eq!(bst.get(BlockId(0)).invalid(), 3);
        assert_eq!(bst.gc_victim(|_| false), Some(BlockId(0)));
        bst.reset(BlockId(0));
        assert_eq!(bst.get(BlockId(0)).kind, BlockKind::Free);
        assert_eq!(bst.gc_victim(|_| false), None);
    }

    // Reference implementations: the linear scans the BST indices replace.
    // The bucket queries must return exactly what these return.

    fn scan_gc_victim(bst: &Bst, ppb: u32, active: &[bool]) -> Option<BlockId> {
        bst.iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data
                    && info.written == ppb
                    && info.invalid() > 0
                    && !active[b.0 as usize]
            })
            .max_by_key(|(_, info)| info.invalid())
            .map(|(b, _)| b)
    }

    fn scan_compress_victim(bst: &Bst, ppb: u32, active: &[bool]) -> Option<BlockId> {
        bst.iter()
            .filter(|(b, info)| {
                info.kind == BlockKind::Data
                    && info.written == ppb
                    && info.invalid() > info.reclaimable
                    && !active[b.0 as usize]
            })
            .max_by_key(|(_, info)| info.invalid() - info.reclaimable)
            .map(|(b, _)| b)
    }

    fn scan_expired_delta(bst: &Bst, live: &[bool]) -> Option<(BlockId, FilterId)> {
        bst.iter().find_map(|(b, info)| match info.kind {
            BlockKind::Delta(fid) if !live[fid as usize] => Some((b, fid)),
            _ => None,
        })
    }

    #[test]
    fn bst_indices_match_linear_scans_under_random_mutation() {
        // Few pages per block and few filters force many score ties; 70
        // blocks span two bitset words, the second one partial.
        const BLOCKS: u64 = 70;
        const PPB: u32 = 4;
        const FILTERS: u64 = 4;
        for case in 0..40 {
            let mut rng = proptest::TestRng::for_case("bst_indices_match_linear_scans", case);
            let mut bst = Bst::new(BLOCKS, PPB);
            for _ in 0..400 {
                let block = BlockId(rng.below(BLOCKS));
                match rng.below(6) {
                    0 => bst.reset(block),
                    1 => bst.count_program(block, rng.below(2) == 0),
                    2 => {
                        let mut info = bst.get_mut(block);
                        info.valid = info.valid.saturating_sub(1);
                    }
                    3 => {
                        let mut info = bst.get_mut(block);
                        if info.reclaimable < info.invalid() {
                            info.reclaimable += 1;
                        }
                    }
                    _ => {
                        let kind = match rng.below(3) {
                            0 => BlockKind::Free,
                            1 => BlockKind::Data,
                            _ => BlockKind::Delta(rng.below(FILTERS)),
                        };
                        let written = if rng.below(2) == 0 {
                            PPB
                        } else {
                            rng.below(u64::from(PPB) + 1) as u32
                        };
                        let valid = rng.below(u64::from(written) + 1) as u32;
                        let reclaimable = rng.below(u64::from(written - valid) + 1) as u32;
                        *bst.get_mut(block) = BlockInfo {
                            kind,
                            written,
                            valid,
                            reclaimable,
                        };
                    }
                }
                let active: Vec<bool> = (0..BLOCKS).map(|_| rng.below(5) == 0).collect();
                let live: Vec<bool> = (0..FILTERS).map(|_| rng.below(2) == 0).collect();
                let skip = |b: BlockId| active[b.0 as usize];
                assert_eq!(bst.gc_victim(skip), scan_gc_victim(&bst, PPB, &active));
                assert_eq!(
                    bst.compress_victim(skip),
                    scan_compress_victim(&bst, PPB, &active)
                );
                assert_eq!(
                    bst.delta_blocks().find(|(_, f)| !live[*f as usize]),
                    scan_expired_delta(&bst, &live)
                );
                assert!(bst.indices_consistent());
            }
        }
    }

    #[test]
    fn bst_ties_go_to_the_highest_block_and_skip_open_blocks() {
        let mut bst = Bst::new(130, 4);
        for b in [3u64, 64, 129] {
            *bst.get_mut(BlockId(b)) = BlockInfo {
                kind: BlockKind::Data,
                written: 4,
                valid: 2,
                reclaimable: 0,
            };
        }
        assert_eq!(bst.gc_victim(|_| false), Some(BlockId(129)));
        assert_eq!(bst.gc_victim(|b| b.0 == 129), Some(BlockId(64)));
        assert_eq!(bst.compress_victim(|b| b.0 > 3), Some(BlockId(3)));
        assert_eq!(bst.gc_victim(|_| true), None);
    }

    #[test]
    fn stale_bst_index_is_detected() {
        let mut bst = Bst::new(8, 4);
        assert!(bst.indices_consistent());
        bst.set_unindexed(
            BlockId(2),
            BlockInfo {
                kind: BlockKind::Delta(1),
                ..BlockInfo::default()
            },
        );
        assert!(!bst.indices_consistent());
    }

    #[test]
    fn imt_head_roundtrip() {
        let mut imt = Imt::new();
        assert!(imt.head(Lpa(1)).is_none());
        imt.set_head(Lpa(1), Ppa(9), 77);
        assert_eq!(imt.head(Lpa(1)), Some((Ppa(9), 77)));
        assert_eq!(imt.remove(Lpa(1)), Some((Ppa(9), 77)));
        assert!(imt.is_empty());
    }

    #[test]
    fn sharded_amt_matches_flat_amt_for_every_shard_count() {
        // Byte-identical behaviour regardless of shard count, including an
        // exported size that does not divide evenly.
        let exported = 37u64;
        let mut flat = Amt::new(exported);
        for shards in [1u32, 2, 3, 4, 8, 64] {
            let mut sharded = ShardedAmt::new(exported, shards);
            assert_eq!(sharded.len(), exported);
            assert_eq!(sharded.shard_count(), shards);
            for i in 0..exported {
                let entry = match i % 3 {
                    0 => AmtEntry::Mapped(Ppa(i * 7)),
                    1 => AmtEntry::Trimmed(Ppa(i), i as Nanos),
                    _ => AmtEntry::Unmapped,
                };
                assert_eq!(flat.set(Lpa(i), entry), sharded.set(Lpa(i), entry));
            }
            for i in 0..exported + 4 {
                assert_eq!(flat.get(Lpa(i)), sharded.get(Lpa(i)));
            }
            assert!(flat.iter().eq(sharded.iter()), "iter order diverged");
            // Reset the flat table for the next shard count.
            flat = Amt::new(exported);
        }
    }

    #[test]
    fn sharded_amt_out_of_range_reads_unmapped_and_ignores_set() {
        let mut amt = ShardedAmt::new(8, 4);
        assert_eq!(amt.get(Lpa(8)), AmtEntry::Unmapped);
        assert_eq!(amt.get(Lpa(u64::MAX)), AmtEntry::Unmapped);
        assert_eq!(
            amt.set(Lpa(u64::MAX), AmtEntry::Mapped(Ppa(1))),
            AmtEntry::Unmapped
        );
        assert_eq!(amt.get(Lpa(u64::MAX)), AmtEntry::Unmapped);
    }

    #[test]
    fn sharded_amt_clone_is_deep() {
        let mut a = ShardedAmt::new(16, 4);
        a.set(Lpa(5), AmtEntry::Mapped(Ppa(50)));
        let b = a.clone();
        a.set(Lpa(5), AmtEntry::Unmapped);
        assert_eq!(b.get(Lpa(5)), AmtEntry::Mapped(Ppa(50)));
    }

    #[test]
    fn sharded_amt_occupancy_counts_mapped_and_trimmed() {
        let mut amt = ShardedAmt::new(16, 4);
        amt.set(Lpa(0), AmtEntry::Mapped(Ppa(1))); // shard 0
        amt.set(Lpa(4), AmtEntry::Trimmed(Ppa(2), 9)); // shard 0
        amt.set(Lpa(1), AmtEntry::Mapped(Ppa(3))); // shard 1
        assert_eq!(amt.shard_occupancy(0), 2);
        assert_eq!(amt.shard_occupancy(1), 1);
        assert_eq!(amt.shard_occupancy(2), 0);
        assert_eq!(amt.shard_occupancy(99), 0);
    }

    #[test]
    fn sharded_imt_matches_flat_imt() {
        let mut flat = Imt::new();
        let mut sharded = ShardedImt::new(4);
        for i in 0..20u64 {
            flat.set_head(Lpa(i), Ppa(i * 3), i as Nanos);
            sharded.set_head(Lpa(i), Ppa(i * 3), i as Nanos);
        }
        for i in 0..24u64 {
            assert_eq!(flat.head(Lpa(i)), sharded.head(Lpa(i)));
        }
        assert_eq!(flat.len(), sharded.len());
        let mut a: Vec<_> = flat.iter().collect();
        let mut b: Vec<_> = sharded.iter().collect();
        a.sort_by_key(|(l, _)| l.0);
        b.sort_by_key(|(l, _)| l.0);
        assert_eq!(a, b);
        assert_eq!(sharded.remove(Lpa(3)), Some((Ppa(9), 3)));
        assert!(sharded.head(Lpa(3)).is_none());
        assert!(!sharded.is_empty());
    }
}
