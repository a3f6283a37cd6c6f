//! Warmed checkpoints: warm each simulator state once, fork it to every
//! design that shares it.
//!
//! Warm-up dominates the cost of a comparison: every design starts from
//! caches, page tables and directory state warmed over the same reference
//! prefix, and the ASR best-of-six sweep is the worst case — six variants,
//! one shared warmed state. A [`SimSnapshot`] is that warmed state: a
//! canonical simulator of one [`WarmupClass`] that has consumed the prefix.
//! A design forks it with [`SimSnapshot::fork`], a `clone` of the template
//! rebound to the design's own configuration, or takes it outright with
//! [`SimSnapshot::into_fork`] when it is the last consumer.
//!
//! Fused groups ([`run_group_forked`]) own their checkpoints: each distinct
//! [`SnapshotKey`] of a group is warmed in place (or taken from the
//! [`SnapshotArena`] when a caller pre-populated it), earlier members of a
//! class clone the template and the last one moves it, and nothing outlives
//! the group. The arena memoizes checkpoints for callers that share one
//! across calls ([`SnapshotArena::snapshot`]).
//!
//! Determinism guarantee: a fork carries every field warm-up mutates —
//! cache slabs with their occupancy masks and age vectors, victim-buffer
//! FIFO links, the coherence entry table, the OS page table and per-core
//! TLB LRU lists, the dirty-block map, the RNG, the clock — bit for bit, so
//! `fork + run_measured` produces the byte-identical [`MeasuredRun`] that
//! `run_warmup + run_measured` on a fresh simulator produces. The
//! differential suite in `tests/snapshot_differential.rs` pins this down
//! for every design, and the golden-result digests would catch any drift.
//!
//! Sharing across designs: warm-up state depends on the design's *placement
//! and allocation* behaviour, not on the parameters measurement sweeps. All
//! six ASR variants warm identically (see `ASR_WARMUP_PROBABILITY` in the
//! simulator), so they collapse onto one [`WarmupClass::Asr`] checkpoint —
//! the best-of-six sweep warms once, not six times.
//!
//! [`run_group_forked`]: crate::fused::run_group_forked
//! [`MeasuredRun`]: crate::simulator::MeasuredRun

use crate::design::{AsrPolicy, LlcDesign};
use crate::simulator::CmpSimulator;
use rnuca_workloads::{TraceArena, WorkloadSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The warm-up equivalence class of a design: two designs share a class
/// exactly when they build bit-identical state from the same warm-up
/// stream, and therefore can fork from one checkpoint.
///
/// The six ASR variants collapse onto [`WarmupClass::Asr`] because warm-up
/// allocation decisions use a canonical probability for all of them (and
/// the adaptive controller never runs outside measurement). R-NUCA keeps
/// its instruction-cluster size in the class — cluster size changes where
/// warm-up places instruction blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmupClass {
    /// The private design.
    Private,
    /// Any ASR variant (static probability or adaptive).
    Asr,
    /// The address-interleaved shared design.
    Shared,
    /// R-NUCA with the given rotational-cluster size.
    RNuca {
        /// Instruction-cluster size of the design being warmed.
        instr_cluster_size: usize,
    },
    /// The ideal (aggregate capacity, local latency) design.
    Ideal,
}

impl WarmupClass {
    /// The warm-up class of `design`.
    pub fn of(design: LlcDesign) -> Self {
        match design {
            LlcDesign::Private => WarmupClass::Private,
            LlcDesign::Asr { .. } => WarmupClass::Asr,
            LlcDesign::Shared => WarmupClass::Shared,
            LlcDesign::RNuca { instr_cluster_size } => WarmupClass::RNuca { instr_cluster_size },
            LlcDesign::Ideal => WarmupClass::Ideal,
        }
    }

    /// The representative design the arena warms for this class. Any design
    /// in the class forks from the representative's checkpoint.
    pub fn canonical_design(self) -> LlcDesign {
        match self {
            WarmupClass::Private => LlcDesign::Private,
            WarmupClass::Asr => LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            WarmupClass::Shared => LlcDesign::Shared,
            WarmupClass::RNuca { instr_cluster_size } => LlcDesign::RNuca { instr_cluster_size },
            WarmupClass::Ideal => LlcDesign::Ideal,
        }
    }
}

/// FNV-1a over the spec's full `Debug` rendering.
///
/// Deliberately *stricter* than the trace arena's profile fingerprint: the
/// trace key may exclude cost-only fields (slice capacity, latencies)
/// because they cannot change stream contents, but they absolutely change
/// the *warmed state* the stream builds — a 512 KB slice warms a different
/// tag array than a 1 MB slice. Fingerprinting every field keeps a
/// capacity-sweep scenario from ever aliasing another point's checkpoint.
fn spec_fingerprint(spec: &WorkloadSpec) -> u64 {
    let mut h = rnuca_types::Fnv64::new();
    h.write(format!("{spec:?}").as_bytes());
    h.finish()
}

/// The memoization key of one warmed checkpoint.
///
/// Two jobs share a checkpoint exactly when their warmed state is
/// guaranteed identical: same workload (name plus full-spec fingerprint,
/// which covers the trace geometry *and* every cost parameter that shapes
/// cache state), same seed, same [`WarmupClass`], and same warm-up length.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    workload: String,
    fingerprint: u64,
    seed: u64,
    class: WarmupClass,
    warmup_refs: usize,
}

impl SnapshotKey {
    /// The key of `design`'s warmed state over `spec`'s stream.
    pub fn new(design: LlcDesign, spec: &WorkloadSpec, seed: u64, warmup_refs: usize) -> Self {
        SnapshotKey {
            workload: spec.name.clone(),
            fingerprint: spec_fingerprint(spec),
            seed,
            class: WarmupClass::of(design),
            warmup_refs,
        }
    }

    /// The warm-up class this key belongs to.
    pub fn class(&self) -> WarmupClass {
        self.class
    }

    /// The warm-up length (in L2 references) the checkpoint covers.
    pub fn warmup_refs(&self) -> usize {
        self.warmup_refs
    }
}

/// One warmed checkpoint: a canonical simulator of one warm-up class that
/// has consumed the warm-up prefix of its stream.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    class: WarmupClass,
    fingerprint: u64,
    template: CmpSimulator,
}

impl SimSnapshot {
    /// Warms a canonical simulator for `design`'s class over `spec`'s
    /// arena-shared stream and captures the checkpoint.
    ///
    /// `min_trace_len` sizes the underlying trace slab (pass the *total*
    /// run length, warm-up plus measurement, so the measured phase that
    /// follows a fork replays the same slab instead of regrowing it).
    pub fn capture(
        traces: &TraceArena,
        design: LlcDesign,
        spec: &WorkloadSpec,
        seed: u64,
        warmup_refs: usize,
        min_trace_len: usize,
    ) -> Self {
        let class = WarmupClass::of(design);
        let mut slice = traces.slice(spec, seed, min_trace_len.max(warmup_refs));
        let mut template = CmpSimulator::with_seed(class.canonical_design(), spec, seed);
        template.run_warmup(&mut slice, warmup_refs);
        SimSnapshot {
            class,
            fingerprint: spec_fingerprint(spec),
            template,
        }
    }

    /// A simulator for `design` carrying the warmed state: a clone of the
    /// template rebound to `design` — bit-identical (in simulation
    /// behaviour) to a simulator that streamed the warm-up itself.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not in the class this checkpoint was warmed
    /// for, or `spec` is not the spec it was warmed over: state from a
    /// different class or configuration would be silently wrong, never
    /// just slower.
    pub fn fork(&self, design: LlcDesign, spec: &WorkloadSpec) -> CmpSimulator {
        self.check(design, spec);
        let mut sim = self.template.clone();
        sim.rebind_design(design);
        sim
    }

    /// [`SimSnapshot::fork`] for the checkpoint's last consumer: moves the
    /// template into the fork instead of copying it.
    ///
    /// # Panics
    ///
    /// As [`SimSnapshot::fork`].
    pub fn into_fork(self, design: LlcDesign, spec: &WorkloadSpec) -> CmpSimulator {
        self.check(design, spec);
        let mut sim = self.template;
        sim.rebind_design(design);
        sim
    }

    fn check(&self, design: LlcDesign, spec: &WorkloadSpec) {
        assert_eq!(
            WarmupClass::of(design),
            self.class,
            "cannot fork a {design} simulator from a {:?} checkpoint",
            self.class
        );
        assert_eq!(
            spec_fingerprint(spec),
            self.fingerprint,
            "cannot fork a {} simulator from a checkpoint warmed for another spec",
            spec.name
        );
    }

    /// Heap bytes of every slab the template owns (see
    /// [`CmpSimulator::slab_bytes`]).
    pub fn packed_bytes(&self) -> usize {
        self.template.slab_bytes()
    }
}

/// Per-key slot: its own lock, so warming one checkpoint never blocks
/// requests for a different one.
#[derive(Debug, Default)]
struct Cell {
    snap: Mutex<Option<Arc<SimSnapshot>>>,
}

/// A thread-safe store of warmed checkpoints.
///
/// Two access paths:
///
/// * [`SnapshotArena::snapshot`] / [`SnapshotArena::populate`] memoize:
///   each unique [`SnapshotKey`] is warmed exactly once, even under
///   concurrent requests — the same exactly-once discipline as
///   [`TraceArena`]: the key map hands out per-key cells, and warm-up runs
///   under the cell's own lock (two workers asking for the *same*
///   checkpoint serialize on it and the second finds it filled; workers
///   asking for *different* checkpoints warm in parallel).
/// * [`SnapshotArena::take_or_capture`] consumes: it removes a
///   pre-populated checkpoint from the arena, or warms one in place without
///   storing it. Fused groups resolve their checkpoints this way, so a sweep
///   holds only the checkpoints of the groups currently running.
///
/// [`SnapshotArena::warmups`] counts every warm-up either path ran.
#[derive(Debug, Default)]
pub struct SnapshotArena {
    cells: Mutex<HashMap<SnapshotKey, Arc<Cell>>>,
    generations: AtomicUsize,
    warmups: AtomicUsize,
}

impl SnapshotArena {
    /// An empty arena.
    pub fn new() -> Self {
        SnapshotArena::default()
    }

    /// Number of distinct checkpoints held.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("snapshot key map poisoned").len()
    }

    /// Whether the arena holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many checkpoints were warmed into the arena (diagnostics:
    /// equals [`SnapshotArena::len`] exactly when every memoized request was
    /// deduplicated and nothing was taken).
    pub fn generations(&self) -> usize {
        self.generations.load(Ordering::Relaxed)
    }

    /// How many warm-ups ran through the arena: those warmed into it plus
    /// those [`SnapshotArena::take_or_capture`] ran in place.
    pub fn warmups(&self) -> usize {
        self.warmups.load(Ordering::Relaxed)
    }

    /// Total slab bytes of all checkpoints currently held.
    pub fn packed_bytes(&self) -> usize {
        let cells: Vec<Arc<Cell>> = self
            .cells
            .lock()
            .expect("snapshot key map poisoned")
            .values()
            .cloned()
            .collect();
        cells
            .iter()
            .filter_map(|c| {
                c.snap
                    .lock()
                    .expect("snapshot cell poisoned")
                    .as_ref()
                    .map(|s| s.packed_bytes())
            })
            .sum()
    }

    /// The shared checkpoint for `design`'s class over `spec`'s stream —
    /// warmed on first request, memoized after.
    ///
    /// `min_trace_len` sizes the trace slab the warm-up replays; pass the
    /// total run length so later measured phases reuse the slab (see
    /// [`SimSnapshot::capture`]).
    pub fn snapshot(
        &self,
        traces: &TraceArena,
        design: LlcDesign,
        spec: &WorkloadSpec,
        seed: u64,
        warmup_refs: usize,
        min_trace_len: usize,
    ) -> Arc<SimSnapshot> {
        let cell = {
            let mut cells = self.cells.lock().expect("snapshot key map poisoned");
            Arc::clone(
                cells
                    .entry(SnapshotKey::new(design, spec, seed, warmup_refs))
                    .or_default(),
            )
        };
        let mut slot = cell.snap.lock().expect("snapshot cell poisoned");
        if let Some(snap) = slot.as_ref() {
            return Arc::clone(snap);
        }
        let snap = Arc::new(self.capture(traces, design, spec, seed, warmup_refs, min_trace_len));
        self.generations.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&snap));
        snap
    }

    /// Ensures the checkpoint exists, without returning it — the parallel
    /// pre-population entry point.
    pub fn populate(
        &self,
        traces: &TraceArena,
        design: LlcDesign,
        spec: &WorkloadSpec,
        seed: u64,
        warmup_refs: usize,
        min_trace_len: usize,
    ) {
        self.snapshot(traces, design, spec, seed, warmup_refs, min_trace_len);
    }

    /// The checkpoint for `design`'s class over `spec`'s stream, owned by
    /// the caller: removed from the arena when it was pre-populated there
    /// (the checkpoint leaves the arena), otherwise warmed in place and
    /// never stored.
    ///
    /// A taken checkpoint that another holder of [`SnapshotArena::snapshot`]
    /// still shares is copied rather than moved.
    pub fn take_or_capture(
        &self,
        traces: &TraceArena,
        design: LlcDesign,
        spec: &WorkloadSpec,
        seed: u64,
        warmup_refs: usize,
        min_trace_len: usize,
    ) -> SimSnapshot {
        let key = SnapshotKey::new(design, spec, seed, warmup_refs);
        let cell = self
            .cells
            .lock()
            .expect("snapshot key map poisoned")
            .remove(&key);
        // Taking the cell's lock waits out a warm-up still running into it.
        let held = cell.and_then(|c| c.snap.lock().expect("snapshot cell poisoned").take());
        match held {
            Some(snap) => Arc::try_unwrap(snap).unwrap_or_else(|shared| (*shared).clone()),
            None => self.capture(traces, design, spec, seed, warmup_refs, min_trace_len),
        }
    }

    fn capture(
        &self,
        traces: &TraceArena,
        design: LlcDesign,
        spec: &WorkloadSpec,
        seed: u64,
        warmup_refs: usize,
        min_trace_len: usize,
    ) -> SimSnapshot {
        let snap = SimSnapshot::capture(traces, design, spec, seed, warmup_refs, min_trace_len);
        self.warmups.fetch_add(1, Ordering::Relaxed);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asr_variants_collapse_onto_one_class() {
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(
                WarmupClass::of(LlcDesign::Asr {
                    policy: AsrPolicy::Static(p)
                }),
                WarmupClass::Asr
            );
        }
        assert_eq!(
            WarmupClass::of(LlcDesign::Asr {
                policy: AsrPolicy::Adaptive
            }),
            WarmupClass::Asr
        );
        assert_eq!(
            WarmupClass::Asr.canonical_design(),
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive
            }
        );
    }

    #[test]
    fn rnuca_cluster_size_separates_classes() {
        let a = WarmupClass::of(LlcDesign::RNuca {
            instr_cluster_size: 4,
        });
        let b = WarmupClass::of(LlcDesign::RNuca {
            instr_cluster_size: 8,
        });
        assert_ne!(a, b);
        assert_eq!(
            a.canonical_design(),
            LlcDesign::RNuca {
                instr_cluster_size: 4
            }
        );
    }

    #[test]
    fn every_class_canonical_design_round_trips() {
        for design in LlcDesign::speedup_set() {
            let class = WarmupClass::of(design);
            assert_eq!(WarmupClass::of(class.canonical_design()), class);
        }
    }

    #[test]
    fn keys_separate_what_must_not_share_checkpoints() {
        let spec = WorkloadSpec::oltp_db2();
        let base = SnapshotKey::new(LlcDesign::Shared, &spec, 7, 10_000);
        assert_eq!(
            base,
            SnapshotKey::new(LlcDesign::Shared, &WorkloadSpec::oltp_db2(), 7, 10_000)
        );
        assert_eq!(base.class(), WarmupClass::Shared);
        assert_eq!(base.warmup_refs(), 10_000);
        assert_ne!(
            base,
            SnapshotKey::new(LlcDesign::Shared, &spec, 8, 10_000),
            "seed separates"
        );
        assert_ne!(
            base,
            SnapshotKey::new(LlcDesign::Shared, &spec, 7, 20_000),
            "warm-up length separates"
        );
        assert_ne!(
            base,
            SnapshotKey::new(LlcDesign::Private, &spec, 7, 10_000),
            "class separates"
        );
        assert_ne!(
            base,
            SnapshotKey::new(LlcDesign::Shared, &WorkloadSpec::apache(), 7, 10_000),
            "workload separates"
        );

        // All six ASR variants share one key.
        let asr = |policy| SnapshotKey::new(LlcDesign::Asr { policy }, &spec, 7, 10_000);
        assert_eq!(asr(AsrPolicy::Static(0.0)), asr(AsrPolicy::Adaptive));
        assert_eq!(asr(AsrPolicy::Static(1.0)), asr(AsrPolicy::Static(0.25)));

        // Cost-only spec fields (which share trace slabs) still separate
        // snapshots: a different slice capacity warms different state.
        let point = rnuca_types::config::ConfigPoint {
            slice_capacity_kb: Some(512),
            ..Default::default()
        };
        let resized = spec.at_config_point(&point).unwrap();
        assert_ne!(
            base,
            SnapshotKey::new(LlcDesign::Shared, &resized, 7, 10_000),
            "slice capacity separates"
        );
    }

    #[test]
    fn arena_warms_each_unique_key_exactly_once() {
        let traces = TraceArena::new();
        let arena = SnapshotArena::new();
        let spec = WorkloadSpec::em3d();
        let a = arena.snapshot(&traces, LlcDesign::Shared, &spec, 3, 2_000, 4_000);
        let b = arena.snapshot(&traces, LlcDesign::Shared, &spec, 3, 2_000, 4_000);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.generations(), 1);
        assert!(arena.packed_bytes() > 0);
        assert!(!arena.is_empty());

        // A different class warms separately.
        arena.populate(&traces, LlcDesign::Private, &spec, 3, 2_000, 4_000);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.generations(), 2);
        // Both warmed off one shared trace slab.
        assert_eq!(traces.len(), 1);
        assert_eq!(traces.generations(), 1);
    }

    #[test]
    fn take_or_capture_removes_a_populated_checkpoint_or_warms_in_place() {
        let traces = TraceArena::new();
        let arena = SnapshotArena::new();
        let spec = WorkloadSpec::em3d();
        arena.populate(&traces, LlcDesign::Shared, &spec, 3, 2_000, 4_000);
        let taken = arena.take_or_capture(&traces, LlcDesign::Shared, &spec, 3, 2_000, 4_000);
        assert!(arena.is_empty(), "a taken checkpoint leaves the arena");
        assert_eq!((arena.generations(), arena.warmups()), (1, 1));
        assert!(taken.packed_bytes() > 0);

        // Absent: warmed in place, counted, never stored.
        let warmed = arena.take_or_capture(&traces, LlcDesign::Shared, &spec, 3, 2_000, 4_000);
        assert!(arena.is_empty());
        assert_eq!((arena.generations(), arena.warmups()), (1, 2));
        assert!(warmed.fork(LlcDesign::Shared, &spec) == taken.fork(LlcDesign::Shared, &spec));

        // The moving fork equals the copying one.
        let copied = taken.fork(LlcDesign::Shared, &spec);
        assert!(taken.into_fork(LlcDesign::Shared, &spec) == copied);
    }

    #[test]
    #[should_panic(expected = "warmed for another spec")]
    fn forking_across_specs_panics() {
        let traces = TraceArena::new();
        let spec = WorkloadSpec::em3d();
        let snap = SimSnapshot::capture(&traces, LlcDesign::Shared, &spec, 1, 500, 500);
        let resized = spec
            .at_config_point(&rnuca_types::config::ConfigPoint {
                slice_capacity_kb: Some(2048),
                ..Default::default()
            })
            .unwrap();
        snap.fork(LlcDesign::Shared, &resized);
    }

    #[test]
    #[should_panic(expected = "cannot fork")]
    fn forking_across_classes_panics() {
        let traces = TraceArena::new();
        let spec = WorkloadSpec::em3d();
        let snap = SimSnapshot::capture(&traces, LlcDesign::Shared, &spec, 1, 500, 500);
        snap.fork(LlcDesign::Private, &spec);
    }
}
