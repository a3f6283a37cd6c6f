//! 32-bit LLC tags at every geometry the simulator builds.
//!
//! A [`CacheArray`] stores each block's number above the set-index bits in
//! 32 bits. That is exact for a 42-bit physical address once a geometry has
//! 16 or more sets. This suite fills the blocks at the very top of the
//! physical space into every preset slice, every slice the sweeps build,
//! and the Ideal design's aggregate array at every core count, and checks
//! that they hit, evict and iterate back as the identical [`BlockAddr`].

use rnuca_cache::{CacheArray, ProbeEntry};
use rnuca_types::addr::{BlockAddr, PHYS_ADDR_BITS};
use rnuca_types::config::{CacheGeometry, SystemConfig};

/// Every LLC geometry: each preset's slice and the sweeps' slice
/// capacities, plus the aggregate array the Ideal design builds from each
/// of those slices at every swept core count.
fn geometries() -> Vec<(String, CacheGeometry)> {
    let mut out = Vec::new();
    for (name, preset) in [
        ("server_16", SystemConfig::server_16()),
        ("desktop_8", SystemConfig::desktop_8()),
    ] {
        let mut slices = vec![preset];
        for kb in [512, 1024, 2048] {
            slices.push(preset.with_slice_capacity(kb * 1024).unwrap());
        }
        for cfg in slices {
            let slice = cfg.l2_slice.geometry;
            let kb = slice.capacity_bytes / 1024;
            out.push((format!("{name} {kb} KB slice"), slice));
            for cores in [8, 16, 32, 64] {
                let aggregate =
                    CacheGeometry::new(slice.capacity_bytes * cores, slice.ways, slice.block_bytes)
                        .unwrap();
                out.push((format!("{name} {kb} KB x {cores} ideal"), aggregate));
            }
        }
    }
    out
}

#[test]
fn top_of_the_physical_space_fills_hits_evicts_and_iterates_exactly() {
    for (label, geometry) in geometries() {
        let sets = geometry.num_sets() as u64;
        let ways = geometry.ways as u64;
        let top = 1u64 << (PHYS_ADDR_BITS - geometry.block_bytes.trailing_zeros());
        // The last set's `ways + 1` highest blocks: all of them share the
        // set, so the last fill evicts the first.
        let blocks: Vec<BlockAddr> = (0..=ways)
            .map(|i| BlockAddr::from_block_number(top - 1 - i * sets))
            .collect();
        let mut cache: CacheArray<u64> = CacheArray::new(geometry);
        for (i, &block) in blocks[..ways as usize].iter().enumerate() {
            match cache.probe_entry(block) {
                ProbeEntry::Miss(slot) => {
                    let (_, evicted) = cache.fill_at(slot, block, i as u64);
                    assert!(evicted.is_none(), "{label}: the set had room");
                }
                ProbeEntry::Hit(_) => panic!("{label}: {block:?} hit before its fill"),
            }
        }
        let mut resident: Vec<(BlockAddr, u64)> = cache.iter().map(|(b, &m)| (b, m)).collect();
        resident.sort_unstable();
        let mut expected: Vec<(BlockAddr, u64)> = blocks[..ways as usize]
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, i as u64))
            .collect();
        expected.sort_unstable();
        assert_eq!(resident, expected, "{label}: iteration");
        for (i, &block) in blocks[1..ways as usize].iter().enumerate() {
            assert_eq!(cache.probe(block), Some(&(i as u64 + 1)), "{label}: hit");
        }
        // Block 0 is now the LRU way: the extra fill evicts it intact.
        let ev = cache
            .insert(blocks[ways as usize], ways)
            .unwrap_or_else(|| panic!("{label}: a full set evicts"));
        assert_eq!((ev.block, ev.meta), (blocks[0], 0), "{label}: eviction");
        assert!(!cache.contains(blocks[0]), "{label}");
    }
}

#[test]
#[should_panic(expected = "tag wider than 32 bits in a 8-set cache")]
fn a_geometry_with_too_few_sets_panics_on_fill_instead_of_aliasing() {
    // 8 sets leave 33 tag bits for a 36-bit block number.
    let geometry = CacheGeometry::new(8 * 4 * 64, 4, 64).unwrap();
    let mut cache: CacheArray<()> = CacheArray::new(geometry);
    let top = 1u64 << (PHYS_ADDR_BITS - 6);
    cache.insert(BlockAddr::from_block_number(top - 1), ());
}
