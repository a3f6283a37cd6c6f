//! Fused multi-design stepping: one trace pass drives N design instances.
//!
//! The paper's headline comparison runs five LLC designs (and six ASR
//! variants) over *identical* reference streams. Since the trace arena every
//! design already replays the same memoized slab — but as independent jobs
//! that each re-walk the stream through their own `CmpSimulator::drive`
//! loop: five passes over the cursor, five rounds of batch decode, five
//! trips through memory for the same 11-byte-per-reference slab.
//!
//! The [`FusedDriver`] turns those N passes into one. It decodes a stride of
//! references from a shared [`TraceSource`] cursor exactly once and steps
//! every design instance over it in 4096-reference chunks via
//! [`CmpSimulator::step_batch`] — the per-batch stepping interface `drive`
//! itself is built on — before pulling the next stride. The chunk boundaries
//! each instance observes are `remaining.min(TRACE_BATCH)`, exactly the
//! batch boundaries independent execution uses, so each simulator sees the
//! identical access sequence sliced identically; the multi-batch stride
//! only controls how long a member's working set stays hot in the *host's*
//! caches between member switches.
//!
//! # What is shared, what is per-design
//!
//! Shared across the group: the trace cursor and the decoded batch buffer —
//! pure inputs. Per-design and fully independent: tiles (cache slices and
//! victim buffers), the coherence directory, the OS page classifier with its
//! page table and per-core TLBs, the RNG, the clock, and every statistics
//! accumulator. OS/page classification *looks* shareable — every design
//! observes the same references — but R-NUCA writes its classifier on every
//! access (touch poisoning, pending migrations) while the private designs
//! never consult it, so there is no read-only window to share; each instance
//! keeps its own. The batch buffer is caller-owned scratch that is excluded
//! from warmed state and simulator equality, so fusing is architecturally
//! invisible: each instance emits the bit-identical [`MeasuredRun`] it would
//! emit running alone (the `fused_differential` suite pins this across all
//! five designs, three core counts, and three seeds).
//!
//! # Grouping
//!
//! A fused group is keyed by shared trace: every member must resolve to the
//! same [`TraceKey`] (same workload profile, same `TraceGeometry`, same
//! seed). Members may differ in design *and* in configuration fields the
//! trace key deliberately ignores (slice capacity, latencies) — each member
//! forks its own warmed checkpoint, so per-member warm-up state is
//! untouched by fusion.
//!
//! A group owns its checkpoints ([`GroupForks`]): it warms each distinct
//! one in place, or takes it from the [`SnapshotArena`] when a caller
//! pre-populated it; members of one warm-up class clone the template and
//! the last one moves it. A checkpoint's consumers all step its stream and
//! so all sit in one group, so nothing a group warms outlives it.
//! [`group_indices`] builds groups from any job list while preserving job
//! order for scattering results back.

use crate::design::LlcDesign;
use crate::experiment::ExperimentConfig;
use crate::simulator::{CmpSimulator, MeasuredRun, TRACE_BATCH};
use crate::snapshot::{SimSnapshot, SnapshotArena, SnapshotKey};
use rnuca_types::access::MemoryAccess;
use rnuca_workloads::{TraceArena, TraceKey, TraceSource, WorkloadSpec};
use std::collections::HashMap;
use std::hash::Hash;

/// Batches decoded per stride: the driver fills `FUSE_STRIDE_BATCHES ×`
/// [`TRACE_BATCH`] references at a time and lets each member step the whole
/// stride — in [`TRACE_BATCH`]-bounded chunks — before the next member
/// touches it. Decoding still happens exactly once per reference; the wide
/// stride exists for *host*-cache locality: a simulator's slabs stay hot
/// across 16 consecutive batches instead of being evicted by its group
/// peers after every single batch. Results are invariant in this constant —
/// chunk boundaries are the solo driver's batch boundaries regardless.
const FUSE_STRIDE_BATCHES: usize = 16;

/// Steps N design instances over one shared reference stream, decoding
/// every reference exactly once.
///
/// The driver owns the reusable stride buffer, so a fused pass performs no
/// per-batch allocation — the same property `CmpSimulator::drive` has for
/// a solo pass via its internal `trace_buf`.
#[derive(Debug, Default)]
pub struct FusedDriver {
    stride: Vec<MemoryAccess>,
}

impl FusedDriver {
    /// A driver with an empty stride buffer (grown on first use).
    pub fn new() -> Self {
        FusedDriver::default()
    }

    /// Drives `n` references from `src` through every simulator in `sims`
    /// in one pass: each stride (up to `FUSE_STRIDE_BATCHES` batches) is
    /// decoded once into the shared buffer, then every instance steps it in
    /// `TRACE_BATCH`-bounded chunks before the next stride is pulled.
    ///
    /// The chunk boundaries each simulator observes are exactly the batch
    /// boundaries of `CmpSimulator::drive` (`remaining.min(TRACE_BATCH)`
    /// repeatedly), so per-design results are bit-identical to driving each
    /// simulator over its own cursor.
    pub fn drive(&mut self, sims: &mut [CmpSimulator], src: &mut impl TraceSource, n: usize) {
        let mut remaining = n;
        while remaining > 0 {
            let stride = remaining.min(FUSE_STRIDE_BATCHES * TRACE_BATCH);
            src.fill_into(stride, &mut self.stride);
            for sim in sims.iter_mut() {
                for chunk in self.stride.chunks(TRACE_BATCH) {
                    sim.step_batch(chunk);
                }
            }
            remaining -= stride;
        }
    }

    /// Runs one measured window of `n` references over every simulator in a
    /// single fused pass and returns each instance's [`MeasuredRun`], in
    /// `sims` order.
    ///
    /// Equivalent to calling [`CmpSimulator::run_measured`] on each
    /// simulator with its own cursor at the same position — the window
    /// bracket ([`CmpSimulator::begin_measured`] /
    /// [`CmpSimulator::finish_measured`]) is applied per instance.
    pub fn run_measured(
        &mut self,
        sims: &mut [CmpSimulator],
        src: &mut impl TraceSource,
        n: usize,
    ) -> Vec<MeasuredRun> {
        for sim in sims.iter_mut() {
            sim.begin_measured();
        }
        self.drive(sims, src, n);
        sims.iter().map(CmpSimulator::finish_measured).collect()
    }
}

/// The identity of one fused group: the [`TraceKey`] of the stream every
/// member steps. Jobs fuse exactly when their streams are guaranteed equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FusedGroupKey {
    key: TraceKey,
}

impl FusedGroupKey {
    /// The group `spec` belongs to under `seed`.
    pub fn of(spec: &WorkloadSpec, seed: u64) -> Self {
        FusedGroupKey {
            key: TraceKey::new(spec, seed),
        }
    }

    /// The underlying trace key.
    pub fn trace_key(&self) -> &TraceKey {
        &self.key
    }

    /// Human-readable group label: `workload@Ncores#seed`, e.g.
    /// `OLTP DB2@16c#42`. Derived from the spec's trace key — never from a
    /// display label — so label casing cannot affect grouping.
    pub fn label(&self) -> String {
        format!(
            "{}@{}c#{}",
            self.key.workload(),
            self.key.geometry().num_cores,
            self.key.seed()
        )
    }
}

/// Groups `items` by a key, preserving first-seen group order and, within
/// each group, item order. Returns `(key, indices-into-items)` pairs, so
/// callers can fuse each group and scatter results back to job order.
pub fn group_indices<T, K: Eq + Hash + Clone>(
    items: &[T],
    key_of: impl Fn(&T) -> K,
) -> Vec<(K, Vec<usize>)> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    let mut index: HashMap<K, usize> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let key = key_of(item);
        match index.get(&key) {
            Some(&g) => groups[g].1.push(i),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![i]));
            }
        }
    }
    groups
}

/// The warmed checkpoints of one fused group, handed out as forks.
///
/// Each distinct [`SnapshotKey`] among the members is resolved exactly
/// once, on its first fork, through [`SnapshotArena::take_or_capture`]:
/// taken from the arena when a caller pre-populated it, otherwise warmed in
/// place. Earlier members of a warm-up class clone the template; the last
/// one moves it. Every consumer of a key belongs to one group (the key's
/// spec fingerprint fixes its [`TraceKey`]), so nothing a group warms is
/// needed after it and nothing outlives it.
#[derive(Debug)]
pub struct GroupForks<'a> {
    cfg: &'a ExperimentConfig,
    traces: &'a TraceArena,
    snapshots: &'a SnapshotArena,
    /// Per key: forks still to hand out, and the template once resolved.
    keys: HashMap<SnapshotKey, (usize, Option<SimSnapshot>)>,
}

impl<'a> GroupForks<'a> {
    /// Plans the forks of `members`; warms nothing yet.
    pub fn new(
        members: &[(&WorkloadSpec, LlcDesign)],
        cfg: &'a ExperimentConfig,
        traces: &'a TraceArena,
        snapshots: &'a SnapshotArena,
    ) -> Self {
        let mut keys: HashMap<SnapshotKey, (usize, Option<SimSnapshot>)> = HashMap::new();
        for (spec, design) in members {
            let key = SnapshotKey::new(*design, spec, cfg.seed, cfg.warmup_refs);
            keys.entry(key).or_insert((0, None)).0 += 1;
        }
        GroupForks {
            cfg,
            traces,
            snapshots,
            keys,
        }
    }

    /// The warmed simulator of one member: a clone of its class's template,
    /// or the template itself for the class's last member.
    ///
    /// # Panics
    ///
    /// Panics if the member was not planned by [`GroupForks::new`] or has
    /// already been forked as often as it was planned.
    pub fn fork(&mut self, spec: &WorkloadSpec, design: LlcDesign) -> CmpSimulator {
        let key = SnapshotKey::new(design, spec, self.cfg.seed, self.cfg.warmup_refs);
        let (left, held) = self
            .keys
            .get_mut(&key)
            .filter(|(left, _)| *left > 0)
            .expect("every fork was planned for the group");
        let snap = held.take().unwrap_or_else(|| {
            self.snapshots.take_or_capture(
                self.traces,
                design,
                spec,
                self.cfg.seed,
                self.cfg.warmup_refs,
                self.cfg.total_refs(),
            )
        });
        *left -= 1;
        if *left == 0 {
            snap.into_fork(design, spec)
        } else {
            let sim = snap.fork(design, spec);
            *held = Some(snap);
            sim
        }
    }
}

/// Runs one fused group from warmed checkpoints: forks every member (see
/// [`GroupForks`]), seats one shared cursor on the group's stream directly
/// after the warm-up prefix, and drives all members through a single
/// measured pass. Returns each member's [`MeasuredRun`] in `members` order.
///
/// Members may carry different specs as long as all resolve to one
/// [`TraceKey`] (slice capacity and latencies are deliberately outside the
/// key); each member forks its own spec's checkpoint, so warm-up state is
/// exactly what the independent [`run_single_forked`] path forks.
///
/// [`run_single_forked`]: crate::experiment::DesignComparison::run_single_forked
///
/// # Panics
///
/// Panics if `members` is empty or if any member's stream key differs from
/// the first member's.
pub fn run_group_forked(
    members: &[(&WorkloadSpec, LlcDesign)],
    cfg: &ExperimentConfig,
    traces: &TraceArena,
    snapshots: &SnapshotArena,
) -> Vec<MeasuredRun> {
    let (first_spec, _) = members.first().expect("a fused group has members");
    let key = TraceKey::new(first_spec, cfg.seed);
    let mut forks = GroupForks::new(members, cfg, traces, snapshots);
    let mut sims: Vec<CmpSimulator> = members
        .iter()
        .map(|(spec, design)| {
            assert_eq!(
                TraceKey::new(spec, cfg.seed),
                key,
                "every member of a fused group steps the same stream"
            );
            // Per-member injection site for the quarantine tests: the site
            // name pins one scenario regardless of worker count or group
            // composition, so a chaos test can poison exactly one job.
            if rnuca_types::failpoint::enabled() {
                rnuca_types::failpoint::panic_point(&format!(
                    "sim::member::{}::{}::{}c",
                    spec.name,
                    design,
                    spec.num_cores()
                ));
            }
            forks.fork(spec, *design)
        })
        .collect();
    let mut slice = traces.slice(first_spec, cfg.seed, cfg.total_refs());
    slice.skip(cfg.warmup_refs);
    FusedDriver::new().run_measured(&mut sims, &mut slice, cfg.measured_refs)
}

/// [`run_group_forked`] for the common case of one workload under many
/// designs: fuses `designs` over `spec`'s stream and returns one
/// [`MeasuredRun`] per design, in `designs` order.
pub fn run_fused_forked(
    spec: &WorkloadSpec,
    designs: &[LlcDesign],
    cfg: &ExperimentConfig,
    traces: &TraceArena,
    snapshots: &SnapshotArena,
) -> Vec<MeasuredRun> {
    let members: Vec<(&WorkloadSpec, LlcDesign)> =
        designs.iter().map(|&design| (spec, design)).collect();
    run_group_forked(&members, cfg, traces, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::AsrPolicy;
    use crate::experiment::DesignComparison;

    #[test]
    fn fused_group_matches_independent_forks_per_design() {
        let spec = WorkloadSpec::oltp_db2();
        let cfg = ExperimentConfig::smoke();
        let designs = [
            LlcDesign::Private,
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            LlcDesign::Shared,
            LlcDesign::rnuca_default(),
            LlcDesign::Ideal,
        ];
        let traces = TraceArena::new();
        let snapshots = SnapshotArena::new();
        let fused = run_fused_forked(&spec, &designs, &cfg, &traces, &snapshots);
        for (design, fused_run) in designs.iter().zip(&fused) {
            let solo =
                DesignComparison::run_single_forked(&spec, *design, &cfg, &traces, &snapshots);
            assert_eq!(
                fused_run, &solo.run,
                "{design} must be unaffected by fusion"
            );
        }
        assert_eq!(traces.generations(), 1, "one stream for the whole group");
    }

    #[test]
    fn fused_pass_consumes_the_stream_once() {
        // The point of fusion: N designs, one pass. The arena generates the
        // stream once and the group shares a single cursor, so the slab is
        // walked once per comparison instead of once per design.
        let spec = WorkloadSpec::em3d();
        let cfg = ExperimentConfig::smoke();
        let traces = TraceArena::new();
        let snapshots = SnapshotArena::new();
        let runs = run_fused_forked(
            &spec,
            &[LlcDesign::Private, LlcDesign::Shared, LlcDesign::Ideal],
            &cfg,
            &traces,
            &snapshots,
        );
        assert_eq!(runs.len(), 3);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces.generations(), 1);
    }

    #[test]
    fn group_members_may_differ_outside_the_trace_key() {
        // Slice capacity is outside the trace key, so two specs differing
        // only in capacity fuse into one group — each forking its own
        // capacity's checkpoint.
        let base = WorkloadSpec::oltp_db2();
        let mut small = base.clone();
        small.config_override = Some(
            base.system_config()
                .with_slice_capacity(512 * 1024)
                .expect("512 KiB slices are a valid sweep point"),
        );
        let cfg = ExperimentConfig::smoke();
        let traces = TraceArena::new();
        let snapshots = SnapshotArena::new();
        let members = [(&base, LlcDesign::Shared), (&small, LlcDesign::Shared)];
        let fused = run_group_forked(&members, &cfg, &traces, &snapshots);
        for ((spec, design), fused_run) in members.iter().zip(&fused) {
            let solo =
                DesignComparison::run_single_forked(spec, *design, &cfg, &traces, &snapshots);
            assert_eq!(fused_run, &solo.run);
        }
        assert_eq!(traces.len(), 1, "capacity does not change the stream");
        assert_eq!(snapshots.len(), 2, "capacity does change warm-up state");
    }

    #[test]
    #[should_panic(expected = "every member of a fused group steps the same stream")]
    fn mixed_stream_groups_are_rejected() {
        let a = WorkloadSpec::oltp_db2();
        let b = WorkloadSpec::em3d();
        let cfg = ExperimentConfig::smoke();
        run_group_forked(
            &[(&a, LlcDesign::Shared), (&b, LlcDesign::Shared)],
            &cfg,
            &TraceArena::new(),
            &SnapshotArena::new(),
        );
    }

    #[test]
    fn group_indices_preserves_first_seen_and_intra_group_order() {
        let jobs = ["a1", "b1", "a2", "c1", "b2", "a3"];
        let groups = group_indices(&jobs, |j| j.as_bytes()[0]);
        assert_eq!(
            groups,
            vec![(b'a', vec![0, 2, 5]), (b'b', vec![1, 4]), (b'c', vec![3]),]
        );
    }

    #[test]
    fn group_labels_derive_from_the_spec_not_from_display_strings() {
        let spec = WorkloadSpec::oltp_db2();
        let key = FusedGroupKey::of(&spec, 42);
        assert_eq!(key.label(), "OLTP DB2@16c#42");
        // Same spec, same seed → same group, regardless of how any caller
        // cases its display labels.
        assert_eq!(key, FusedGroupKey::of(&spec, 42));
        assert_ne!(key, FusedGroupKey::of(&spec, 43));
    }
}
