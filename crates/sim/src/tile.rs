//! The per-tile cache state managed by the simulator.
//!
//! A tile couples a core with its L2 slice (plus a small victim buffer). The
//! simulator stores per-block metadata in the slice — the block's access
//! class and a dirty bit — and the tile exposes the small set of operations
//! the design policies need, including the single-probe
//! [`Tile::access`]/[`Tile::fill_at`] pair the hot loop uses.

use rnuca_cache::{CacheArray, CacheStats, EntryRef, ProbeEntry, SetRef, VictimCache};
use rnuca_types::access::AccessClass;
use rnuca_types::addr::{BlockAddr, PageAddr};
use rnuca_types::config::SystemConfig;
use rnuca_types::ids::TileId;

/// Outcome of a single-probe [`Tile::access`]: a located resident block, or
/// the slice set a subsequent [`Tile::fill_at`] should fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileAccess {
    /// The block is resident (in the slice, or re-promoted from the victim
    /// buffer); the handle addresses its metadata.
    Hit(EntryRef),
    /// The block is absent from the tile; the handle locates the fill set.
    Miss(SetRef),
}

impl TileAccess {
    /// Returns `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, TileAccess::Hit(_))
    }
}

/// Metadata stored with every block resident in an L2 slice: the block's
/// access class and whether the resident copy is dirty.
///
/// One byte whose unused bit patterns leave the compiler a niche, so the
/// slice's `Option<BlockMeta>` slab costs one byte per way too. The
/// metadata slab is touched on every hit and fill, so its footprint is
/// hot-loop state. (R-NUCA page shoot-downs walk the page's block
/// addresses, so blocks do not need to remember their page.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta(MetaByte);

/// The six `(class, dirty)` states of a [`BlockMeta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaByte {
    Instruction,
    PrivateData,
    SharedData,
    DirtyInstruction,
    DirtyPrivateData,
    DirtySharedData,
}

impl BlockMeta {
    /// Metadata for a block of `class`, dirty or clean.
    pub fn new(class: AccessClass, dirty: bool) -> Self {
        BlockMeta(match (class, dirty) {
            (AccessClass::Instruction, false) => MetaByte::Instruction,
            (AccessClass::PrivateData, false) => MetaByte::PrivateData,
            (AccessClass::SharedData, false) => MetaByte::SharedData,
            (AccessClass::Instruction, true) => MetaByte::DirtyInstruction,
            (AccessClass::PrivateData, true) => MetaByte::DirtyPrivateData,
            (AccessClass::SharedData, true) => MetaByte::DirtySharedData,
        })
    }

    /// Ground-truth access class of the block (used only for statistics).
    pub fn class(self) -> AccessClass {
        match self.0 {
            MetaByte::Instruction | MetaByte::DirtyInstruction => AccessClass::Instruction,
            MetaByte::PrivateData | MetaByte::DirtyPrivateData => AccessClass::PrivateData,
            MetaByte::SharedData | MetaByte::DirtySharedData => AccessClass::SharedData,
        }
    }

    /// Whether the resident copy is dirty with respect to memory.
    pub fn is_dirty(self) -> bool {
        matches!(
            self.0,
            MetaByte::DirtyInstruction | MetaByte::DirtyPrivateData | MetaByte::DirtySharedData
        )
    }

    /// Marks the resident copy dirty, keeping its class.
    pub fn mark_dirty(&mut self) {
        *self = BlockMeta::new(self.class(), true);
    }
}

/// One tile: an L2 slice plus its victim buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    id: TileId,
    slice: CacheArray<BlockMeta>,
    victims: VictimCache<BlockMeta>,
}

impl Tile {
    /// Builds the tile's cache structures from the system configuration.
    pub fn new(id: TileId, config: &SystemConfig) -> Self {
        Tile {
            id,
            slice: CacheArray::new(config.l2_slice.geometry),
            victims: VictimCache::new(config.l2_slice.victim_entries),
        }
    }

    /// The tile's identifier.
    pub fn id(&self) -> TileId {
        self.id
    }

    /// Hints the CPU to pull the slice set a probe of `block` will scan into
    /// cache (see [`CacheArray::prefetch`]). Performance hint only.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        self.slice.prefetch(block);
    }

    /// The block a fill-after-miss would push out of the tile entirely — the
    /// victim buffer's oldest entry, which is what [`Tile::fill_at`] reports
    /// and the directory is told about. `None` while the buffer still has
    /// room (then nothing departs). Read-only; prefetch hints use it to warm
    /// the departing block's directory entry ahead of the eviction.
    pub fn peek_departing(&self) -> Option<BlockAddr> {
        self.victims.peek_oldest()
    }

    /// Looks up a block in the slice (checking the victim buffer on a miss and
    /// re-promoting on a victim hit). Returns `true` on a hit.
    pub fn probe(&mut self, block: BlockAddr) -> bool {
        self.access(block).is_hit()
    }

    /// Single-probe lookup: like [`Tile::probe`], but the returned handle
    /// lets the caller update a hit's metadata or fill the missed set via
    /// [`Tile::fill_at`] without a second tag search. A victim-buffer hit is
    /// re-promoted into the slice (anything displaced goes back to the
    /// buffer) and reported as a hit.
    pub fn access(&mut self, block: BlockAddr) -> TileAccess {
        match self.slice.probe_entry(block) {
            ProbeEntry::Hit(entry) => TileAccess::Hit(entry),
            ProbeEntry::Miss(slot) => match self.victims.recall(block) {
                Some(meta) => {
                    let (entry, evicted) = self.slice.fill_at(slot, block, meta);
                    if let Some(ev) = evicted {
                        self.victims.insert(ev.block, ev.meta);
                    }
                    TileAccess::Hit(entry)
                }
                None => TileAccess::Miss(slot),
            },
        }
    }

    /// The metadata of a resident block located by [`Tile::access`].
    pub fn meta_mut(&mut self, entry: EntryRef) -> &mut BlockMeta {
        self.slice.entry_meta_mut(entry)
    }

    /// Fills a block into the slice set a preceding [`Tile::access`] miss
    /// searched, skipping the re-scan [`Tile::fill`] would perform. Returns
    /// the block that left the tile entirely (fell out of both the slice and
    /// the victim buffer), which is what the directory needs to know about.
    pub fn fill_at(
        &mut self,
        slot: SetRef,
        block: BlockAddr,
        meta: BlockMeta,
    ) -> Option<(BlockAddr, BlockMeta)> {
        let (_, evicted) = self.slice.fill_at(slot, block, meta);
        let evicted = evicted?;
        self.victims.insert(evicted.block, evicted.meta)
    }

    /// Checks residency without disturbing replacement state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.slice.contains(block) || self.victims.contains(block)
    }

    /// Fills a block into the slice, returning the displaced block (if any)
    /// after it has been parked in the victim buffer and finally dropped.
    ///
    /// The returned eviction is the block that left the tile entirely (fell
    /// out of both the slice and the victim buffer), which is what the
    /// directory needs to know about.
    pub fn fill(&mut self, block: BlockAddr, meta: BlockMeta) -> Option<(BlockAddr, BlockMeta)> {
        let evicted = self.slice.insert(block, meta)?;
        self.victims.insert(evicted.block, evicted.meta)
    }

    /// Invalidates a block everywhere in the tile, returning its metadata if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<BlockMeta> {
        let from_slice = self.slice.invalidate(block);
        let from_victims = self.victims.invalidate(block);
        from_slice.or(from_victims)
    }

    /// Invalidates every block belonging to `page` (an R-NUCA shoot-down),
    /// returning how many blocks were dropped from the slice.
    ///
    /// The shoot-down walks the page's block addresses — a page holds a
    /// fixed, small number of blocks — instead of scanning every set of the
    /// slice for matching metadata, keeping re-classification cost
    /// proportional to the page size rather than the slice size. The victim
    /// buffer is deliberately left alone, mirroring the metadata-scan
    /// behaviour this replaces.
    pub fn invalidate_page(&mut self, page: PageAddr, page_bytes: usize) -> usize {
        let block_bytes = self.slice.geometry().block_bytes;
        page.blocks(block_bytes, page_bytes)
            .filter(|&block| self.slice.invalidate(block).is_some())
            .count()
    }

    /// Number of blocks resident in the slice (excluding the victim buffer).
    pub fn resident_blocks(&self) -> usize {
        self.slice.len()
    }

    /// Heap bytes of the slice array's and the victim buffer's slabs.
    pub fn slab_bytes(&self) -> usize {
        self.slice.slab_bytes() + self.victims.slab_bytes()
    }

    /// Statistics of the slice array.
    pub fn slice_stats(&self) -> &CacheStats {
        self.slice.stats()
    }

    /// Number of resident blocks of each class `(instructions, private, shared)`.
    pub fn class_occupancy(&self) -> (usize, usize, usize) {
        let mut instr = 0;
        let mut private = 0;
        let mut shared = 0;
        for (_, meta) in self.slice.iter() {
            match meta.class() {
                AccessClass::Instruction => instr += 1,
                AccessClass::PrivateData => private += 1,
                AccessClass::SharedData => shared += 1,
            }
        }
        (instr, private, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(class: AccessClass) -> BlockMeta {
        BlockMeta::new(class, false)
    }

    fn tile() -> Tile {
        Tile::new(TileId::new(0), &SystemConfig::server_16())
    }

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_block_number(n)
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut t = tile();
        assert!(!t.probe(b(1)));
        assert!(t.fill(b(1), meta(AccessClass::PrivateData)).is_none());
        assert!(t.probe(b(1)));
        assert!(t.contains(b(1)));
        assert_eq!(t.resident_blocks(), 1);
    }

    #[test]
    fn victim_buffer_catches_recent_evictions() {
        let mut t = tile();
        // The server L2 slice has 1024 sets x 16 ways; blocks that share set 0
        // are multiples of 1024. Fill 17 of them to force one eviction.
        for i in 0..17u64 {
            t.fill(b(i * 1024), meta(AccessClass::PrivateData));
        }
        // The LRU block (block 0) fell out of the slice but sits in the victim buffer.
        assert_eq!(t.resident_blocks(), 16);
        assert!(
            t.contains(b(0)),
            "victim buffer should still hold the evicted block"
        );
        assert!(t.probe(b(0)), "probing re-promotes from the victim buffer");
    }

    #[test]
    fn block_meta_is_one_byte_and_keeps_a_niche() {
        assert_eq!(std::mem::size_of::<BlockMeta>(), 1);
        assert_eq!(std::mem::size_of::<Option<BlockMeta>>(), 1);
        for class in [
            AccessClass::Instruction,
            AccessClass::PrivateData,
            AccessClass::SharedData,
        ] {
            for dirty in [false, true] {
                let m = BlockMeta::new(class, dirty);
                assert_eq!((m.class(), m.is_dirty()), (class, dirty));
                let mut d = m;
                d.mark_dirty();
                assert_eq!((d.class(), d.is_dirty()), (class, true));
            }
        }
    }

    #[test]
    fn invalidate_page_drops_only_that_page() {
        let mut t = tile();
        // 8 KB pages of 64 B blocks: page 7 spans blocks 896..1024.
        let page_bytes = 8192;
        let first = 7 * (page_bytes as u64 / 64);
        t.fill(b(first), meta(AccessClass::PrivateData));
        t.fill(b(first + 1), meta(AccessClass::PrivateData));
        let other = 8 * (page_bytes as u64 / 64);
        t.fill(b(other), meta(AccessClass::PrivateData));
        assert_eq!(
            t.invalidate_page(PageAddr::from_page_number(7), page_bytes),
            2
        );
        assert!(!t.contains(b(first)));
        assert!(t.contains(b(other)));
        // A second shoot-down finds nothing left.
        assert_eq!(
            t.invalidate_page(PageAddr::from_page_number(7), page_bytes),
            0
        );
    }

    #[test]
    fn invalidate_single_block() {
        let mut t = tile();
        t.fill(b(5), meta(AccessClass::Instruction));
        assert!(t.invalidate(b(5)).is_some());
        assert!(t.invalidate(b(5)).is_none());
    }

    #[test]
    fn class_occupancy_counts() {
        let mut t = tile();
        t.fill(b(1), meta(AccessClass::Instruction));
        t.fill(b(2), meta(AccessClass::PrivateData));
        t.fill(b(3), meta(AccessClass::PrivateData));
        t.fill(b(4), meta(AccessClass::SharedData));
        assert_eq!(t.class_occupancy(), (1, 2, 1));
    }
}
