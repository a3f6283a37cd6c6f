//! Component replay: each model component driven alone by the workload's
//! own reference stream, at that workload's geometry, timed per call.
//!
//! The stream is decoded once up front, so the timed loops contain only the
//! component calls. Each timed pass starts from fresh component state and
//! runs [`PASSES`] times; the reported figure is the median pass.

use crate::stats;
use rnuca::{PlacementConfig, PlacementEngine};
use rnuca_cache::{CacheArray, ProbeEntry};
use rnuca_coherence::Directory;
use rnuca_os::{OsClassifier, PageClass};
use rnuca_sim::{CmpSimulator, ScenarioJob, WarmupClass};
use rnuca_types::{AccessClass, BlockAddr, MemoryAccess, TileId};
use rnuca_workloads::TraceArena;
use std::hint::black_box;
use std::time::Instant;

/// References replayed per component pass.
const COMPONENT_REFS: usize = 200_000;
/// Timed passes per component.
const PASSES: usize = 5;
/// Simulators built when sampling construction time.
const CONSTRUCT_SAMPLES: usize = 24;
/// TLB entries per core, as the simulator configures its classifier.
const TLB_ENTRIES: usize = 512;

/// Nanoseconds per call of each replayed component, plus construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentTimes {
    /// `CacheArray::probe_entry` plus `fill_at` on a miss.
    pub probe_fill_ns: f64,
    /// `Directory::handle_read` / `handle_write` / `handle_eviction`.
    pub dir_op_ns: f64,
    /// `OsClassifier::access`.
    pub os_access_ns: f64,
    /// `PlacementEngine::place`.
    pub place_ns: f64,
    /// Median `CmpSimulator::with_seed`, in milliseconds.
    pub construct_ms_p50: f64,
}

/// One directory request of the replay.
#[derive(Debug, Clone, Copy)]
enum DirOp {
    Read(BlockAddr, TileId),
    Write(BlockAddr, TileId),
    Evict(BlockAddr, TileId),
}

/// The median over [`PASSES`] of `pass`'s time, in ns per one of `calls`.
/// Each pass runs on fresh state from `setup`, which is not timed.
fn ns_per_call<S>(calls: usize, mut setup: impl FnMut() -> S, mut pass: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            pass(&mut state);
            let ns = t.elapsed().as_nanos() as f64;
            black_box(state);
            ns / calls.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

fn page_class(class: AccessClass) -> PageClass {
    match class {
        AccessClass::Instruction => PageClass::Instruction,
        AccessClass::PrivateData => PageClass::Private,
        AccessClass::SharedData => PageClass::Shared,
    }
}

/// Replays the first job's stream through each component, and samples
/// simulator construction over up to [`CONSTRUCT_SAMPLES`] jobs spread
/// evenly over `jobs`.
pub fn replay(jobs: &[ScenarioJob], seed: u64) -> ComponentTimes {
    let spec = &jobs[0].workload;
    let cfg = spec.system_config();
    let geometry = cfg.l2_slice.geometry;
    let block_bytes = geometry.block_bytes;
    let page_bytes = cfg.memory.page_bytes;
    let tiles = cfg.num_tiles();
    let slab = TraceArena::new().slab(spec, seed, COMPONENT_REFS);
    let refs: Vec<MemoryAccess> = (0..COMPONENT_REFS).map(|i| slab.get(i)).collect();

    // Each tile's slice as a private cache: probe, fill on a miss. The
    // untimed first pass also records the directory requests the same
    // accesses and evictions would make.
    let new_slices =
        || -> Vec<CacheArray<u8>> { (0..tiles).map(|_| CacheArray::new(geometry)).collect() };
    let cache_pass = |slices: &mut Vec<CacheArray<u8>>, mut ops: Option<&mut Vec<DirOp>>| {
        for a in &refs {
            let block = a.addr.block(block_bytes);
            let tile = a.core.tile();
            let slice = &mut slices[tile.index()];
            let evicted = match slice.probe_entry(block) {
                ProbeEntry::Miss(set) => slice.fill_at(set, block, 0).1,
                ProbeEntry::Hit(_) => None,
            };
            if let Some(ops) = ops.as_deref_mut() {
                if let Some(ev) = evicted {
                    ops.push(DirOp::Evict(ev.block, tile));
                }
                ops.push(if a.kind.is_write() {
                    DirOp::Write(block, tile)
                } else {
                    DirOp::Read(block, tile)
                });
            }
        }
    };
    let mut dir_ops = Vec::with_capacity(refs.len() * 2);
    cache_pass(&mut new_slices(), Some(&mut dir_ops));
    let probe_fill_ns = ns_per_call(refs.len(), new_slices, |slices| cache_pass(slices, None));

    let dir_op_ns = ns_per_call(
        dir_ops.len(),
        || Directory::new(tiles),
        |dir| {
            for op in &dir_ops {
                match *op {
                    DirOp::Read(b, t) => {
                        black_box(dir.handle_read(b, t));
                    }
                    DirOp::Write(b, t) => {
                        black_box(dir.handle_write(b, t));
                    }
                    DirOp::Evict(b, t) => {
                        black_box(dir.handle_eviction(b, t));
                    }
                }
            }
        },
    );

    let os_access_ns = ns_per_call(
        refs.len(),
        || OsClassifier::new(cfg.num_cores, TLB_ENTRIES),
        |os| {
            for a in &refs {
                black_box(os.access(a.addr.page(page_bytes), a.core, a.kind.is_instr_fetch()));
            }
        },
    );

    let placement = PlacementEngine::new(PlacementConfig::from_system(&cfg));
    let place_ns = ns_per_call(
        refs.len(),
        || (),
        |_| {
            for a in &refs {
                black_box(placement.place(page_class(a.class), a.addr.block(block_bytes), a.core));
            }
        },
    );

    let step = jobs.len().div_ceil(CONSTRUCT_SAMPLES).max(1);
    let construct_ms: Vec<f64> = jobs
        .iter()
        .step_by(step)
        .map(|job| {
            let design = WarmupClass::of(job.design).canonical_design();
            let t = Instant::now();
            let sim = black_box(CmpSimulator::with_seed(design, &job.workload, seed));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(sim);
            ms
        })
        .collect();

    ComponentTimes {
        probe_fill_ns,
        dir_op_ns,
        os_access_ns,
        place_ns,
        construct_ms_p50: stats::median(&construct_ms),
    }
}
