//! The checker-style cycle simulator (§7) and evaluation statistics.

use f1_arch::energy::{EnergyModel, PowerBreakdown};
use f1_arch::ArchConfig;
use f1_compiler::expand::Expanded;
use f1_compiler::movement::TrafficBreakdown;
use f1_compiler::{CycleSchedule, MovePlan};
use f1_isa::dfg::ValueId;
use f1_isa::streams::MemDir;
use f1_isa::{ComponentId, FuType};
use serde::{Deserialize, Serialize};

/// Per-window utilization series — the data behind Fig 10.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    /// Window width in cycles.
    pub window: u64,
    /// Active-FU count per window, per class (Ntt, Aut, Mul, Add).
    pub fu_active: [Vec<f64>; 4],
    /// HBM bandwidth utilization per window, percent.
    pub hbm_util: Vec<f64>,
}

/// The simulator's verdict and statistics for one compiled program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Total cycles.
    pub makespan: u64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Off-chip traffic split (Fig 9a).
    pub traffic: TrafficBreakdown,
    /// Average-power split (Fig 9b).
    pub power: PowerBreakdown,
    /// Utilization series (Fig 10).
    pub timeline: Timeline,
    /// Average FU utilization (0..1) across the run (§8.2 reports ~30%).
    pub avg_fu_utilization: f64,
    /// Instruction-stream bytes as a fraction of off-chip traffic
    /// (§3: "<0.1%").
    pub instr_fetch_fraction: f64,
}

/// Per-value lists in compressed sparse row form: value `v`'s items are
/// `items[offsets[v]..offsets[v + 1]]`, in the order they were given.
struct PerValue<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> PerValue<T> {
    /// Buckets `(value, item)` pairs by value with a counting pass, so
    /// each value's items keep their iteration order. `pairs` is walked
    /// twice: once to count, once to place.
    fn build(values: usize, pairs: impl Iterator<Item = (u32, T)> + Clone) -> Self {
        let mut offsets = vec![0usize; values + 1];
        for (v, _) in pairs.clone() {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..values {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..values].to_vec();
        let mut items = vec![T::default(); offsets[values]];
        for (v, item) in pairs {
            let slot = &mut next[v as usize];
            items[*slot] = item;
            *slot += 1;
        }
        Self { offsets, items }
    }
}

impl<T> PerValue<T> {
    fn get(&self, v: u32) -> &[T] {
        &self.items[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// One on-chip residency interval of a value, reconstructed from the
/// emitted streams alone (loads, production cycles, evictions).
#[derive(Debug, Clone, Copy, Default)]
struct Residency {
    /// Cycle the scratchpad bytes are claimed (load start / issue).
    start: u64,
    /// Cycle the data is usable (load completion / producer done).
    avail: u64,
    /// Cycle the bytes are freed (`u64::MAX` = resident to the end).
    end: u64,
    /// Whether this interval began with an off-chip load.
    loaded: bool,
}

/// One allocation or release of a value's scratchpad bytes.
#[derive(Debug, Clone, Copy, Default)]
struct ResidencyEvent {
    cycle: u64,
    /// 0 = release, 1 = allocation: at equal cycles the release happens
    /// first (byte lineage: an allocation may reuse bytes freed that cycle).
    phase: u8,
    /// Whether an allocation is an off-chip load (else a production).
    loaded: bool,
    /// Cycle an allocation's data is usable.
    avail: u64,
}

/// Per-value residency intervals, derived independently of the scheduler
/// by pairing allocation events (loads, production) with [`f1_isa::streams::EvictEntry`]s
/// in time order.
///
/// # Panics
///
/// Panics when the streams are malformed: two allocations without an
/// intervening eviction, an eviction of a value with no on-chip copy, or
/// a refetch starting before the previous copy's bytes are released.
fn residency_intervals(
    expanded: &Expanded,
    cs: &CycleSchedule,
    arch: &ArchConfig,
) -> PerValue<Residency> {
    let dfg = &expanded.dfg;
    let values = dfg.values().len();
    // Each value's events in push order — loads, productions, evictions —
    // so the stable sort below breaks (cycle, phase) ties the same way.
    let loads = cs.schedule.mem.iter().filter(|m| m.dir == MemDir::Load).map(|m| {
        let avail = m.cycle + arch.mem_channel_cycles(m.bytes) + arch.hbm_latency_cycles;
        (m.value.0, ResidencyEvent { cycle: m.cycle, phase: 1, loaded: true, avail })
    });
    let productions =
        cs.issue_cycle.iter().zip(&cs.done_cycle).enumerate().map(|(instr, (&issue, &done))| {
            let out = dfg.instrs()[instr].output;
            (out.0, ResidencyEvent { cycle: issue, phase: 1, loaded: false, avail: done })
        });
    let evictions = cs.schedule.evict.iter().map(|e| {
        assert_eq!(
            e.bytes,
            dfg.value(e.value).bytes,
            "evict byte-count mismatch for {:?}",
            e.value
        );
        (e.value.0, ResidencyEvent { cycle: e.cycle, phase: 0, ..Default::default() })
    });
    let mut events = PerValue::build(values, loads.chain(productions).chain(evictions));

    let mut offsets = Vec::with_capacity(values + 1);
    let mut items = Vec::new();
    offsets.push(0);
    for v in 0..values as u32 {
        let (lo, hi) = (events.offsets[v as usize], events.offsets[v as usize + 1]);
        let evs = &mut events.items[lo..hi];
        evs.sort_by_key(|ev| (ev.cycle, ev.phase));
        let mut open: Option<Residency> = None;
        for ev in evs.iter() {
            let cycle = ev.cycle;
            if ev.phase == 1 {
                assert!(
                    open.is_none(),
                    "value {v}: refetch at {cycle} before the previous copy is evicted"
                );
                open = Some(Residency {
                    start: cycle,
                    avail: ev.avail,
                    end: u64::MAX,
                    loaded: ev.loaded,
                });
            } else {
                let mut cur = open.take().unwrap_or_else(|| {
                    panic!("value {v}: eviction at {cycle} with no on-chip copy")
                });
                cur.end = cycle;
                items.push(cur);
            }
        }
        items.extend(open);
        offsets.push(items.len());
    }
    PerValue { offsets, items }
}

/// Validates a schedule's emitted streams without computing statistics.
///
/// Independently re-verifies the overlapped schedule the list scheduler
/// emits: per-(cluster, FU, instance) occupancy, per-HBM-channel
/// exclusivity, per-crossbar-lane exclusivity, load/store ordering
/// against value production, streaming dependence timing, and the
/// scheduler's own availability/occupancy counters.
///
/// Capacity faithfulness (§4.3) is checked from the streams alone, with
/// no access to the scheduler's internal state:
///
/// * **Residency**: every consumer must read each operand inside one of
///   the value's on-chip residency intervals — a value whose last copy
///   was evicted may not be read until its refetch *completes*.
/// * **Capacity**: the byte-weighted overlap of all residency intervals
///   must stay within the scratchpad at every cycle.
/// * **Ordering**: a refetch may not start before the previous copy's
///   release; a spilled intermediate's refetch additionally requires its
///   writeback to have completed.
///
/// This is the right entry for re-verifying a schedule that did *not*
/// come out of an in-process compile — e.g. one deserialized from the
/// schedule cache — since it needs no [`MovePlan`].
///
/// Returns the verified makespan: re-derived from the streams the way
/// the cycle scheduler defines it — the latest compute drain
/// (`issue + occupancy + latency`) or off-chip transfer end (`start +`
/// channel streaming time) — and asserted equal to both the schedule's
/// recorded makespans.
///
/// # Cost
///
/// Per-value state lives in dense arrays indexed by `ValueId`, with no
/// per-value hashing. Residency events, residency intervals and crossbar
/// arrivals are bucketed per value in compressed sparse row form: an
/// offsets array of length `values + 1` plus one flat array. Producer
/// clusters and earliest writeback completions take one array slot per
/// value. Each value's few events are sorted on their own; the capacity
/// sweep and the per-channel and per-lane exclusivity checks each sort
/// one flat array. Time is O(E log E) in the stream entries E.
///
/// # Panics
///
/// Panics (like the paper's checker) on any missed dependence, resource
/// double-booking, capacity overflow, or accounting mismatch.
pub fn check_streams(expanded: &Expanded, cs: &CycleSchedule, arch: &ArchConfig) -> u64 {
    let dfg = &expanded.dfg;
    let n = dfg.n;
    let values = dfg.values().len();
    check_structural(cs, arch, n);

    // --- Residency intervals (from the streams alone) and the capacity
    // invariant: the byte-weighted overlap of all on-chip intervals must
    // never exceed the scratchpad. Every allocation (load or production)
    // opens one interval and every eviction closes one —
    // `residency_intervals` rejects anything else — so the sweep walks
    // the allocations, sorted here, merged with the already-sorted evict
    // stream. Releases go first at equal cycles: bytes freed at cycle t
    // may be reused by an allocation starting at t.
    let intervals = residency_intervals(expanded, cs, arch);
    {
        let cap = arch.scratchpad_bytes();
        let bytes = |v: ValueId| dfg.value(v).bytes as i64;
        let loads = cs.schedule.mem.iter().filter(|m| m.dir == MemDir::Load);
        let mut allocs: Vec<(u64, i64)> = loads
            .map(|m| (m.cycle, bytes(m.value)))
            .chain(cs.issue_cycle.iter().zip(dfg.instrs()).map(|(&t, i)| (t, bytes(i.output))))
            .collect();
        allocs.sort_unstable_by_key(|&(cycle, _)| cycle);
        let mut releases = cs.schedule.evict.iter().map(|e| (e.cycle, bytes(e.value))).peekable();
        let mut occupied = 0i64;
        for (cycle, b) in allocs {
            while let Some((_, freed)) = releases.next_if(|&(t, _)| t <= cycle) {
                occupied -= freed;
            }
            occupied += b;
            assert!(
                occupied <= cap as i64,
                "resident set ({occupied} bytes) exceeds scratchpad capacity ({cap}) at cycle {cycle}"
            );
        }
    }
    let covering = |v: u32, t: u64| -> Option<Residency> {
        intervals.get(v).iter().find(|r| r.avail <= t && t <= r.end).copied()
    };

    // --- Dependences under rate-matched streaming semantics. A value is
    // available `latency` (plus the slow-producer catch-up) after its
    // producer issues, or once a load of it completes; either way the
    // read must fall inside an on-chip residency interval — a value whose
    // last copy was evicted may not be read until its refetch completes.
    // Remote consumption additionally needs a crossbar transfer, within
    // the same interval, that lands before the consumer issues.
    let weight = FuType::ALL.map(|fu| f1_compiler::cycle::stream_weight(arch, fu, n));
    let drain = FuType::ALL.map(|fu| arch.occupancy(fu, n) + arch.latency(fu, n));
    let mut makespan = 0u64;
    // Producer cluster per value (`u32::MAX` = lives in a scratchpad bank).
    let mut cluster_of = vec![u32::MAX; values];
    for (c, stream) in cs.schedule.compute.iter().enumerate() {
        for e in stream {
            cluster_of[dfg.instr(e.instr).output.0 as usize] = c as u32;
        }
    }
    for e in &cs.schedule.net {
        assert!(
            covering(e.value.0, e.cycle).is_some(),
            "net transfer of {:?} at {} outside any on-chip residency interval",
            e.value,
            e.cycle
        );
    }
    // Crossbar deliveries to a cluster, per value: (cluster, start); the
    // transfer lands `XBAR_HOP_CYCLES` after it starts.
    let arrivals = PerValue::build(
        values,
        cs.schedule.net.iter().filter_map(|e| match e.to {
            ComponentId::Cluster(c) => Some((e.value.0, (c, e.cycle))),
            _ => None,
        }),
    );
    for (c, stream) in cs.schedule.compute.iter().enumerate() {
        for e in stream {
            let instr = dfg.instr(e.instr);
            let fu = instr.op.fu_type().index();
            assert_eq!(
                cs.issue_cycle[e.instr.0 as usize], e.cycle,
                "stream/issue mismatch for {:?}",
                e.instr
            );
            assert_eq!(
                cs.done_cycle[e.instr.0 as usize],
                e.cycle + weight[fu],
                "availability mismatch for {:?}",
                e.instr
            );
            makespan = makespan.max(e.cycle + drain[fu]);
            for &v in &instr.inputs {
                let r = covering(v.0, e.cycle).unwrap_or_else(|| {
                    panic!(
                        "instr {:?} at {} reads {v:?} while it is evicted \
                         (no completed on-chip copy: refetch not done or value never loaded)",
                        e.instr, e.cycle
                    )
                });
                let local = !r.loaded && cluster_of[v.0 as usize] == c as u32;
                if !local {
                    // Remote (bank-resident or other-cluster) operands MUST
                    // arrive over the crossbar within this same residency
                    // interval — a missing transfer is a scheduler bug, and
                    // a transfer from before the eviction carries stale
                    // bytes, not a free pass.
                    let ok = arrivals.get(v.0).iter().any(|&(to, s)| {
                        let arrive = s + f1_compiler::cycle::XBAR_HOP_CYCLES;
                        to == c && arrive <= e.cycle && s >= r.start && s <= r.end
                    });
                    assert!(
                        ok,
                        "instr {:?} on cluster {c} consumes remote {v:?} with no \
                         crossbar transfer inside the value's residency interval",
                        e.instr
                    );
                }
            }
        }
    }

    // --- Memory ordering against production and spills: a store must not
    // start before its value exists, and a spilled intermediate's refetch
    // must not start before its writeback completes.
    // Earliest writeback completion per value (`u64::MAX` = never stored).
    let mut first_store_done = vec![u64::MAX; values];
    for m in &cs.schedule.mem {
        if m.dir == MemDir::Store {
            let done = &mut first_store_done[m.value.0 as usize];
            *done = (*done).min(m.cycle + arch.mem_channel_cycles(m.bytes));
        }
    }
    for m in &cs.schedule.mem {
        makespan = makespan.max(m.cycle + arch.mem_channel_cycles(m.bytes));
        if m.dir == MemDir::Store {
            // A store reads the scratchpad: the value must be resident
            // (within an on-chip interval) when the transfer starts.
            assert!(
                covering(m.value.0, m.cycle).is_some(),
                "store of {:?} at {} reads a value with no on-chip copy",
                m.value,
                m.cycle
            );
        }
        if let Some(p) = dfg.producer(m.value) {
            assert!(
                m.cycle >= cs.done_cycle[p.0 as usize],
                "{:?} transfer of {:?} at {} before production",
                m.dir,
                m.value,
                m.cycle
            );
            if m.dir == MemDir::Load {
                // An intermediate can only be in HBM because it was spilled.
                assert!(
                    first_store_done[m.value.0 as usize] <= m.cycle,
                    "refetch of spilled {:?} at {} before any writeback completes",
                    m.value,
                    m.cycle
                );
            }
        }
    }

    // --- The makespan the scheduler recorded must be the one its
    // streams imply.
    assert_eq!(cs.makespan, makespan, "recorded makespan differs from the streams' last drain");
    assert_eq!(
        cs.schedule.makespan, makespan,
        "stream makespan differs from the streams' last drain"
    );
    makespan
}

/// Structural-resource validation from the streams alone — the subset of
/// [`check_streams`] that needs no DFG: per-(cluster, FU, instance)
/// occupancy spacing, per-HBM-channel exclusivity, per-crossbar-lane
/// exclusivity, stream monotonicity, and the occupancy-counter
/// cross-checks. [`check_streams`] runs it before the checks that read
/// the DFG.
fn check_structural(cs: &CycleSchedule, arch: &ArchConfig, n: usize) {
    cs.schedule.validate_monotone();

    // --- Structural hazards: per (cluster, fu, slot), issues must be at
    // least `occupancy` apart (fully pipelined units, one vector each).
    // Each cluster's stream is monotone, so every slot sees its issues in
    // cycle order and only the previous one can conflict.
    let occ = FuType::ALL.map(|fu| arch.occupancy(fu, n));
    for (c, stream) in cs.schedule.compute.iter().enumerate() {
        let mut last_issue = FuType::ALL.map(|fu| vec![None; arch.fus_per_cluster(fu)]);
        for e in stream {
            let (fu, slot) = (e.fu, e.fu_index);
            assert!(slot < arch.fus_per_cluster(fu), "cluster {c} has no {fu:?} instance {slot}");
            if let Some(prev) = last_issue[fu.index()][slot].replace(e.cycle) {
                assert!(
                    e.cycle >= prev + occ[fu.index()],
                    "structural hazard on cluster {c} {fu:?}[{slot}]: issues at {} and {}",
                    prev,
                    e.cycle
                );
            }
        }
    }

    // --- HBM channels: each channel is exclusive; transfers on it must
    // be spaced by their per-channel streaming time.
    {
        let mut by_channel: Vec<Vec<(u64, u64)>> = vec![Vec::new(); arch.hbm_channels];
        for m in &cs.schedule.mem {
            assert!(m.channel < arch.hbm_channels, "unknown HBM channel {}", m.channel);
            by_channel[m.channel].push((m.cycle, m.bytes));
        }
        for (ch, mut xs) in by_channel.into_iter().enumerate() {
            xs.sort_unstable();
            for w in xs.windows(2) {
                assert!(
                    w[1].0 >= w[0].0 + arch.mem_channel_cycles(w[0].1),
                    "HBM channel {ch} double-booked: transfers at {} and {}",
                    w[0].0,
                    w[1].0
                );
            }
        }
    }

    // --- Crossbar ports: per ((from, to), lane), transfers must be
    // spaced by their streaming time.
    {
        let mut by_lane: Vec<((ComponentId, ComponentId, usize), u64, u64)> =
            Vec::with_capacity(cs.schedule.net.len());
        for e in &cs.schedule.net {
            assert!(e.port < arch.xbar_ports, "unknown crossbar lane {}", e.port);
            by_lane.push(((e.from, e.to, e.port), e.cycle, e.bytes));
        }
        by_lane.sort_unstable();
        for w in by_lane.windows(2) {
            let lane = w[0].0;
            assert!(
                w[1].0 != lane || w[1].1 >= w[0].1 + arch.net_cycles(w[0].2),
                "crossbar lane {lane:?} double-booked: transfers at {} and {}",
                w[0].1,
                w[1].1
            );
        }
    }

    // --- Counter cross-checks: the scheduler's occupancy bookkeeping
    // must match the streams it emitted.
    {
        let chan_busy: u64 = cs.schedule.mem.iter().map(|m| arch.mem_channel_cycles(m.bytes)).sum();
        assert_eq!(
            cs.counters.hbm_channel_busy_cycles, chan_busy,
            "HBM channel busy-cycle counter mismatch"
        );
        let xbar_busy: u64 = cs.schedule.net.iter().map(|e| arch.net_cycles(e.bytes)).sum();
        assert_eq!(cs.counters.xbar_busy_cycles, xbar_busy, "crossbar busy-cycle counter mismatch");
        let hbm_bytes: u64 = cs.schedule.mem.iter().map(|m| m.bytes).sum();
        assert_eq!(cs.counters.hbm_bytes, hbm_bytes, "HBM byte counter mismatch");
    }
}

/// Validates a schedule ([`check_streams`]) and derives its statistics.
///
/// # Panics
///
/// Panics (like the paper's checker) on any missed dependence, resource
/// double-booking, capacity overflow, or accounting mismatch.
pub fn check_schedule(
    expanded: &Expanded,
    plan: &MovePlan,
    cs: &CycleSchedule,
    arch: &ArchConfig,
) -> SimReport {
    // Statistics divide by the makespan: an empty schedule counts as one cycle.
    let makespan = check_streams(expanded, cs, arch).max(1);
    let dfg = &expanded.dfg;
    let n = dfg.n;

    // --- Statistics.
    let window = (makespan / 160).max(1);
    let buckets = makespan.div_ceil(window) as usize;
    let mut timeline = Timeline {
        window,
        fu_active: [vec![0.0; buckets], vec![0.0; buckets], vec![0.0; buckets], vec![0.0; buckets]],
        hbm_util: vec![0.0; buckets],
    };
    let fu_idx = |fu: FuType| match fu {
        FuType::Ntt => 0usize,
        FuType::Aut => 1,
        FuType::Mul => 2,
        FuType::Add => 3,
    };
    let add_interval = |series: &mut Vec<f64>, start: u64, end: u64| {
        let mut c = start;
        while c < end {
            let b = (c / window) as usize;
            let bucket_end = (c / window + 1) * window;
            let step = bucket_end.min(end) - c;
            if b < series.len() {
                series[b] += step as f64;
            }
            c += step;
        }
    };
    let mut total_busy = 0u64;
    for stream in &cs.schedule.compute {
        for e in stream {
            let occ = arch.occupancy(e.fu, n);
            total_busy += occ;
            add_interval(&mut timeline.fu_active[fu_idx(e.fu)], e.cycle, e.cycle + occ);
        }
    }
    for m in &cs.schedule.mem {
        let mc = arch.mem_channel_cycles(m.bytes);
        add_interval(&mut timeline.hbm_util, m.cycle, m.cycle + mc);
    }
    for series in timeline.fu_active.iter_mut() {
        for v in series.iter_mut() {
            *v /= window as f64; // busy-cycles -> average active units
        }
    }
    // Channel busy-cycles over window × channels = bandwidth utilization.
    for v in timeline.hbm_util.iter_mut() {
        *v = *v / (window * arch.hbm_channels.max(1) as u64) as f64 * 100.0;
    }

    let total_fus: usize = (0..arch.clusters)
        .map(|_| FuType::ALL.iter().map(|&f| arch.fus_per_cluster(f)).sum::<usize>())
        .sum();
    let avg_fu_utilization = total_busy as f64 / (total_fus as u64 * makespan) as f64;

    let model = EnergyModel::default();
    let power = model.power_breakdown(&cs.counters, makespan, arch);
    let instr_fetch_fraction =
        cs.schedule.encoded_bytes() as f64 / cs.schedule.offchip_bytes().max(1) as f64;

    SimReport {
        makespan,
        seconds: cs.seconds(arch),
        traffic: plan.traffic,
        power,
        timeline,
        avg_fu_utilization,
        instr_fetch_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_compiler::dsl::Program;

    fn run(p: &Program) -> (Expanded, MovePlan, CycleSchedule, ArchConfig) {
        let arch = ArchConfig::f1_default();
        let (ex, plan, cs) = f1_compiler::compile(p, &arch);
        (ex, plan, cs, arch)
    }

    #[test]
    fn matvec_schedule_validates_and_reports() {
        let p = Program::listing2_matvec(1 << 12, 8, 4);
        let (ex, plan, cs, arch) = run(&p);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(report.makespan > 0);
        assert!(report.seconds > 0.0);
        assert!(report.traffic.total() > 0);
        assert!(report.power.total_w() > 0.0);
        // At this test's N = 4096 the residue vectors are 16 KB; the
        // paper's 64 KB vectors (N = 16K) push the ratio ~4x lower, under
        // its 0.1% claim.
        assert!(
            report.instr_fetch_fraction < 0.02,
            "instruction fetches {} must be a tiny fraction of traffic",
            report.instr_fetch_fraction
        );
        assert!((0.0..=1.0).contains(&report.avg_fu_utilization));
    }

    #[test]
    fn timeline_conserves_busy_cycles() {
        let p = Program::listing2_matvec(1 << 12, 4, 2);
        let (ex, plan, cs, arch) = run(&p);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        let t = &report.timeline;
        // Sum of (avg active × window) over buckets equals total busy
        // cycles per class.
        let ntt_busy: f64 = t.fu_active[0].iter().map(|v| v * t.window as f64).sum();
        let expected = cs.counters.fu_busy_cycles[0] as f64;
        assert!(
            (ntt_busy - expected).abs() / expected.max(1.0) < 0.01,
            "timeline NTT busy {ntt_busy} vs counters {expected}"
        );
    }

    #[test]
    fn power_is_dominated_by_data_movement() {
        // §8.2: computation is 20-30% of power for realistic programs.
        let p = Program::listing2_matvec(1 << 13, 8, 4);
        let (ex, plan, cs, arch) = run(&p);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(
            report.power.data_movement_fraction() > 0.4,
            "data movement fraction {}",
            report.power.data_movement_fraction()
        );
    }

    /// A hand-built four-instruction schedule exercising the full
    /// capacity machinery: load → read → evict → refetch → read → store.
    /// `pad_values` sizes the scratchpad in 4 KB value slots; `i1_issue`
    /// places the post-refetch consumer.
    fn handmade(pad_values: u64, i1_issue: u64) -> (Expanded, MovePlan, CycleSchedule, ArchConfig) {
        use f1_isa::dfg::{Dfg, ValueId, ValueKind, VectorOp};
        use f1_isa::streams::{ComputeEntry, EvictEntry, MemEntry, NetEntry, StaticSchedule};
        use f1_isa::ComponentId;

        let n = 1024usize; // 4 KB values
        let mut dfg = Dfg::new(n);
        let a = dfg.add_value(ValueKind::Input, Some("a".into()));
        let v1 = dfg.add_instr(VectorOp::Ntt, vec![a], 0); // i0: reads a pre-evict
        let v2 = dfg.add_instr(VectorOp::Ntt, vec![a], 1); // i1: reads a post-refetch
        let v3 = dfg.add_instr(VectorOp::Add, vec![v1, v2], 2); // i2
        dfg.mark_output(v3);

        let mut arch = ArchConfig::f1_default();
        arch.scratchpad_banks = 1;
        arch.bank_bytes = pad_values * 4096;

        let dur = arch.mem_channel_cycles(4096); // 64
        let lat = arch.hbm_latency_cycles; // 250
        let avail1 = dur + lat; // first load of `a` completes: 314
        let refetch_start = 448;
        let avail2 = refetch_start + dur + lat; // 762

        let mut s = StaticSchedule::new(arch.clusters);
        s.mem.push(MemEntry {
            cycle: 0,
            dir: MemDir::Load,
            value: a,
            bytes: 4096,
            bank: 0,
            channel: 0,
        });
        s.mem.push(MemEntry {
            cycle: refetch_start,
            dir: MemDir::Load,
            value: a,
            bytes: 4096,
            bank: 0,
            channel: 0,
        });
        s.mem.push(MemEntry {
            cycle: 950,
            dir: MemDir::Store,
            value: v3,
            bytes: 4096,
            bank: 0,
            channel: 1,
        });
        s.evict.push(EvictEntry { cycle: 400, value: a, bytes: 4096 });
        let hop = f1_compiler::cycle::XBAR_HOP_CYCLES;
        s.net.push(NetEntry {
            cycle: avail1,
            value: a,
            from: ComponentId::Bank(0),
            to: ComponentId::Cluster(0),
            bytes: 4096,
            port: 0,
        });
        s.net.push(NetEntry {
            cycle: avail2,
            value: a,
            from: ComponentId::Bank(0),
            to: ComponentId::Cluster(0),
            bytes: 4096,
            port: 0,
        });
        let _ = hop;
        let w_ntt = f1_compiler::cycle::stream_weight(&arch, FuType::Ntt, n);
        let w_add = f1_compiler::cycle::stream_weight(&arch, FuType::Add, n);
        let issue = [320u64, i1_issue, 900];
        let done = [issue[0] + w_ntt, issue[1] + w_ntt, issue[2] + w_add];
        for (i, fu) in [(0usize, FuType::Ntt), (1, FuType::Ntt), (2, FuType::Add)] {
            s.compute[0].push(ComputeEntry {
                cycle: issue[i],
                instr: f1_isa::dfg::InstrId(i as u32),
                fu,
                fu_index: 0,
            });
        }
        s.compute[0].sort_by_key(|e| e.cycle);
        // The output store drains last: i2 finishes at 900 + 8 + 4 and
        // i1 by 775 + 8 + 86, while the store streams until 950 + 64.
        let makespan = 950 + dur;
        s.makespan = makespan;

        let counters = f1_arch::energy::EnergyCounters {
            hbm_bytes: 3 * 4096,
            hbm_channel_busy_cycles: 3 * dur,
            xbar_busy_cycles: 2 * arch.net_cycles(4096),
            ..Default::default()
        };

        let cs = CycleSchedule {
            schedule: s,
            issue_cycle: issue.to_vec(),
            done_cycle: done.to_vec(),
            makespan,
            counters,
        };
        let plan = MovePlan {
            order: (0..3).map(f1_isa::dfg::InstrId).collect(),
            events: Vec::new(),
            traffic: TrafficBreakdown::default(),
            approx_cycles: makespan,
        };
        let _ = ValueId(0);
        let ex = Expanded {
            dfg,
            hint_values: std::collections::BTreeMap::new(),
            used_ghs: false,
            n,
            output_values: vec![vec![v3]],
            hom_order: vec![],
        };
        (ex, plan, cs, arch)
    }

    #[test]
    fn handmade_capacity_schedule_validates() {
        // Baseline sanity: the hand-built evict/refetch schedule is legal
        // at a 4-value pad with the consumer after refetch completion.
        let (ex, plan, cs, arch) = handmade(4, 775);
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(report.makespan > 0);
    }

    #[test]
    #[should_panic(expected = "while it is evicted")]
    fn checker_rejects_read_before_refetch_completes() {
        // i1 issues at 700: after `a`'s eviction (400) but before its
        // refetch completes (762). The value has no on-chip copy there.
        let (ex, plan, cs, arch) = handmade(4, 700);
        check_schedule(&ex, &plan, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "exceeds scratchpad capacity")]
    fn checker_rejects_resident_set_over_capacity() {
        // Same legal-timing schedule, but a 3-value pad: at cycle 900 the
        // resident set is {a, v1, v2, v3} = 4 values.
        let (ex, plan, cs, arch) = handmade(3, 775);
        check_schedule(&ex, &plan, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "before the previous copy is evicted")]
    fn checker_rejects_overlapping_residency() {
        // Drop the evict entry: two loads of `a` with no release between
        // them is a malformed residency stream.
        let (ex, plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.evict.clear();
        check_schedule(&ex, &plan, &cs, &arch);
    }

    /// Value `i`'s id in the [`handmade`] fixture: 0 = `a`, 1..=3 = the
    /// outputs of instructions 0..=2.
    fn hv(i: u32) -> ValueId {
        ValueId(i)
    }

    /// Adds a 4 KB load of `value` at `cycle` on the otherwise idle HBM
    /// channel 2, keeping the memory stream sorted and the HBM counters in
    /// step.
    fn push_load(cs: &mut CycleSchedule, arch: &ArchConfig, value: ValueId, cycle: u64) {
        let m = f1_isa::streams::MemEntry {
            cycle,
            dir: MemDir::Load,
            value,
            bytes: 4096,
            bank: 0,
            channel: 2,
        };
        cs.schedule.mem.push(m);
        cs.schedule.mem.sort_by_key(|m| m.cycle);
        cs.counters.hbm_bytes += 4096;
        cs.counters.hbm_channel_busy_cycles += arch.mem_channel_cycles(4096);
    }

    /// Adds a 4 KB eviction of `value` at `cycle`, keeping the evict
    /// stream sorted.
    fn push_evict(cs: &mut CycleSchedule, value: ValueId, cycle: u64) {
        cs.schedule.evict.push(f1_isa::streams::EvictEntry { cycle, value, bytes: 4096 });
        cs.schedule.evict.sort_by_key(|e| e.cycle);
    }

    #[test]
    fn handmade_makespan_is_the_last_drained_store() {
        // The output store starts at 950 and streams for 64 cycles; every
        // compute entry drains before it.
        let (ex, _plan, cs, arch) = handmade(4, 775);
        assert_eq!(check_streams(&ex, &cs, &arch), 1014);
    }

    #[test]
    #[should_panic(expected = "evict byte-count mismatch")]
    fn checker_rejects_evict_byte_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.evict[0].bytes = 2048;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "eviction at 100 with no on-chip copy")]
    fn checker_rejects_eviction_without_copy() {
        // v1 is produced at 320; releasing it at 100 frees nothing.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        push_evict(&mut cs, hv(1), 100);
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "outside any on-chip residency interval")]
    fn checker_rejects_net_transfer_outside_residency() {
        // `a`'s first load completes at 314: nothing to send at 100.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.net[0].cycle = 100;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "stream/issue mismatch")]
    fn checker_rejects_stream_issue_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.issue_cycle[0] += 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "availability mismatch")]
    fn checker_rejects_availability_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.done_cycle[0] += 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "consumes remote")]
    fn checker_rejects_remote_operand_without_transfer() {
        // Drop the post-refetch delivery of `a`: i1 then reads a bank
        // value with only a stale, pre-eviction transfer.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.net.pop();
        cs.counters.xbar_busy_cycles -= arch.net_cycles(4096);
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "reads a value with no on-chip copy")]
    fn checker_rejects_store_without_copy() {
        // v3 is released at 940; its store starts at 950.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        push_evict(&mut cs, hv(3), 940);
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "Load transfer of ValueId(1) at 100 before production")]
    fn checker_rejects_transfer_before_production() {
        // Load the intermediate v1 at 100 (released at 200): i0 only
        // produces it at 320.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        push_load(&mut cs, &arch, hv(1), 100);
        push_evict(&mut cs, hv(1), 200);
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(
        expected = "refetch of spilled ValueId(1) at 520 before any writeback completes"
    )]
    fn checker_rejects_refetch_before_writeback() {
        // Release v1 at 500 and refetch it at 520 (delivered to i2 at
        // 834), but v1 was never stored: HBM holds no copy.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        push_evict(&mut cs, hv(1), 500);
        push_load(&mut cs, &arch, hv(1), 520);
        let mut net = cs.schedule.net[1].clone();
        net.cycle = 834;
        net.value = hv(1);
        cs.schedule.net.push(net);
        cs.counters.xbar_busy_cycles += arch.net_cycles(4096);
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "HBM channel 0 double-booked: transfers at 0 and 448")]
    fn checker_rejects_hbm_channel_double_booking() {
        // An 8x larger first load streams past the refetch's start.
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.mem[0].bytes *= 8;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "double-booked: transfers at 314 and 315")]
    fn checker_rejects_crossbar_lane_double_booking() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.net[1].cycle = 315;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "HBM channel busy-cycle counter mismatch")]
    fn checker_rejects_channel_busy_counter_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.counters.hbm_channel_busy_cycles += 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "crossbar busy-cycle counter mismatch")]
    fn checker_rejects_crossbar_busy_counter_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.counters.xbar_busy_cycles += 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "HBM byte counter mismatch")]
    fn checker_rejects_hbm_byte_counter_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.counters.hbm_bytes += 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "unknown HBM channel 16")]
    fn checker_rejects_unknown_channel() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.mem[2].channel = arch.hbm_channels;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "unknown crossbar lane 1")]
    fn checker_rejects_unknown_crossbar_lane() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.net[0].port = arch.xbar_ports;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "cluster 0 has no Ntt instance")]
    fn checker_rejects_unknown_fu_instance() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.compute[0][0].fu_index = arch.fus_per_cluster(FuType::Ntt);
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "recorded makespan differs from the streams' last drain")]
    fn checker_rejects_recorded_makespan_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.makespan += 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    #[should_panic(expected = "stream makespan differs from the streams' last drain")]
    fn checker_rejects_stream_makespan_mismatch() {
        let (ex, _plan, mut cs, arch) = handmade(4, 775);
        cs.schedule.makespan -= 1;
        check_streams(&ex, &cs, &arch);
    }

    #[test]
    fn compiled_tiny_pad_schedule_validates() {
        // The real pipeline at a thrashing 2 MB scratchpad must satisfy
        // the strengthened checker end to end.
        let p = Program::listing2_matvec(1 << 12, 8, 4);
        let arch = ArchConfig::f1_default().with_scratchpad_mb(2);
        let (ex, plan, cs) = f1_compiler::compile(&p, &arch);
        assert!(plan.traffic.non_compulsory() > 0, "2 MB pad must thrash");
        let report = check_schedule(&ex, &plan, &cs, &arch);
        assert!(report.traffic.total() > report.traffic.compulsory());
    }

    #[test]
    #[should_panic(expected = "structural hazard")]
    fn checker_catches_fu_hazards() {
        let p = Program::listing2_matvec(1 << 12, 4, 2);
        let (ex, plan, mut cs, arch) = run(&p);
        // Corrupt: delay the first of two same-slot NTT issues onto the
        // second's cycle (delaying keeps dependences satisfied, so the
        // checker must trip on the structural hazard specifically).
        let mut found = None;
        'outer: for stream in cs.schedule.compute.iter_mut() {
            let mut first: Option<usize> = None;
            for idx in 0..stream.len() {
                if stream[idx].fu == FuType::Ntt {
                    if let Some(fidx) = first {
                        if stream[fidx].fu_index == stream[idx].fu_index {
                            stream[fidx].cycle = stream[idx].cycle;
                            found = Some(());
                            break 'outer;
                        }
                    } else {
                        first = Some(idx);
                    }
                }
            }
        }
        assert!(found.is_some(), "test needs two NTT entries on one slot");
        // Re-sort so monotonicity holds but the hazard remains.
        for stream in cs.schedule.compute.iter_mut() {
            stream.sort_by_key(|e| e.cycle);
        }
        check_schedule(&ex, &plan, &cs, &arch);
    }
}
