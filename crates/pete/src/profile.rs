//! Per-routine cycle and activity attribution (PC-range buckets plus a
//! shadow call stack).
//!
//! The assembler already knows every routine's start address
//! (`Program::text_symbols`), so profiling needs no instrumentation in
//! the software suite: when enabled, the machine bills the cycle delta
//! of what it retired into the routine owning the PC (binary search
//! over sorted routine starts). The reference interpreter bills one
//! instruction at a time; the fast engine bills a *stretch* of
//! dispatches that stays inside one routine and ends at the first
//! linking or register jump (DESIGN.md §11), so each bill lies inside
//! one routine either way. Because `cycle` only advances inside a
//! dispatch, the totals sum *exactly* to the machine's total cycles —
//! the invariant the attribution test pins.
//!
//! The profiler bills into a call tree kept by a **shadow call stack**
//! driven by retirement of the link instructions:
//!
//! * `jal`, and `jalr` with a non-zero destination, push a frame
//!   recording the architectural return address (`pc + 8`, past the
//!   delay slot), the call-tree node the call was made from, and the
//!   context that node sat in;
//! * any register jump (`jr`, or `jalr` with `rd == $zero`) whose
//!   target matches a recorded return address pops back to that
//!   frame's caller — intervening frames abandoned by tail calls are
//!   discarded in the same pop. The return's delay slot still bills
//!   under the caller node; at the first bill outside the returning
//!   routine, or before the next push, the frame's call-time context
//!   comes back, so code reached after a return (the caller, or
//!   another label of it) is a sibling of the calling node, never its
//!   child;
//! * a register jump that matches nothing (a `jalr`-style tail call or
//!   computed jump) leaves the stack alone: the leaf routine simply
//!   changes under the same caller, so the tail-callee appears as a
//!   sibling of the tail-caller — and the original frame still pops
//!   when the tail-callee eventually returns through the shared `$ra`.
//!
//! The current call-tree node is always `child(caller-node, routine of
//! pc)`, with one folding rule: if the caller node already *is* that
//! routine, the node folds into it. The fold makes the delay slot of a
//! call bill to the caller (its PC is still in the caller) and makes
//! direct recursion accumulate in the existing frame's node instead of
//! growing a chain, exactly like a collapsed flamegraph.
//!
//! Each call-tree node also carries an [`ActivitySlice`] of
//! memory-system and coprocessor counters, deltaed per bill. All
//! *counted* traffic happens inside a dispatch (harness `poke`/`peek`
//! are uncounted by design), so the per-routine slices sum exactly to
//! the run's `RawStats`. Every node has exactly one routine, so the
//! flat buckets are the sums of their routine's nodes, derived once at
//! [`PcProfiler::finish`] instead of accumulated beside the nodes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel parent id for call-tree roots (and the profiler's initial
/// context before any call has been observed).
pub const ROOT: u32 = u32::MAX;

/// Shadow-stack depth cap; calls beyond it are folded into the current
/// node so a pathological (or leaked) stack cannot grow without bound.
const MAX_SHADOW_DEPTH: usize = 512;

/// Memory-system and coprocessor activity attributed to one routine or
/// call-tree node (the per-instruction delta of the machine's counted
/// statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivitySlice {
    /// ROM word reads (uncached instruction fetches + data reads).
    pub rom_reads: u64,
    /// ROM line reads (I-cache fills and prefetches).
    pub rom_line_reads: u64,
    /// RAM reads on Pete's port plus accelerator DMA reads.
    pub ram_reads: u64,
    /// RAM writes on Pete's port plus accelerator DMA writes.
    pub ram_writes: u64,
    /// Instruction-cache lookups (hits = accesses − misses).
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Coprocessor multiply/square datapath operations started.
    pub cop_mul_ops: u64,
    /// Coprocessor load/store (DMA transfer) commands executed.
    pub cop_ls_ops: u64,
}

impl ActivitySlice {
    /// Adds another slice onto this one, field by field.
    ///
    /// The exhaustive destructuring (no `..`) is deliberate: adding a
    /// counter to this struct without deciding how it accumulates —
    /// and without exporting it to the metrics schema — fails to
    /// compile here.
    pub fn accumulate(&mut self, other: &ActivitySlice) {
        let ActivitySlice {
            rom_reads,
            rom_line_reads,
            ram_reads,
            ram_writes,
            icache_accesses,
            icache_misses,
            cop_mul_ops,
            cop_ls_ops,
        } = *other;
        self.rom_reads += rom_reads;
        self.rom_line_reads += rom_line_reads;
        self.ram_reads += ram_reads;
        self.ram_writes += ram_writes;
        self.icache_accesses += icache_accesses;
        self.icache_misses += icache_misses;
        self.cop_mul_ops += cop_mul_ops;
        self.cop_ls_ops += cop_ls_ops;
    }

    /// The per-instruction delta between two monotonic snapshots.
    pub fn delta(before: &ActivitySlice, after: &ActivitySlice) -> ActivitySlice {
        let ActivitySlice {
            rom_reads,
            rom_line_reads,
            ram_reads,
            ram_writes,
            icache_accesses,
            icache_misses,
            cop_mul_ops,
            cop_ls_ops,
        } = *after;
        ActivitySlice {
            rom_reads: rom_reads - before.rom_reads,
            rom_line_reads: rom_line_reads - before.rom_line_reads,
            ram_reads: ram_reads - before.ram_reads,
            ram_writes: ram_writes - before.ram_writes,
            icache_accesses: icache_accesses - before.icache_accesses,
            icache_misses: icache_misses - before.icache_misses,
            cop_mul_ops: cop_mul_ops - before.cop_mul_ops,
            cop_ls_ops: cop_ls_ops - before.cop_ls_ops,
        }
    }
}

/// Control-flow event observed at an instruction's retirement, as far
/// as the shadow call stack is concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlEvent {
    /// A link-register write (`jal`, or `jalr` with `rd != $zero`):
    /// push a frame expecting a return to `ret`.
    Call {
        /// Architectural return address (`pc + 8`, past the delay slot).
        ret: u32,
    },
    /// A register jump (`jr`, or `jalr` with `rd == $zero`): pop if
    /// `target` matches a recorded return address.
    JumpReg {
        /// The jump target (the register's value at retirement).
        target: u32,
    },
}

/// One routine's share of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineCycles {
    /// Routine name; aliases sharing a start address come pre-merged as
    /// `"a/b"` by `Program::text_symbols`.
    pub name: String,
    /// Start address of the routine's PC range.
    pub start: u32,
    /// Retired instructions attributed to the range.
    pub instructions: u64,
    /// Cycles (issue + all stalls) attributed to the range.
    pub cycles: u64,
    /// Memory-system and coprocessor activity attributed to the range.
    pub activity: ActivitySlice,
}

/// One node of the call tree: a routine reached along a specific call
/// path. Counters are **exclusive** (cycles spent at PCs of this
/// routine while this path was live); inclusive totals are derived by
/// [`CallGraph::inclusive_cycles`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallNode {
    /// Parent node id, or [`ROOT`] for a top-level node.
    pub parent: u32,
    /// Index into [`RoutineProfile::routines`].
    pub routine: u32,
    /// Retired instructions attributed to this node.
    pub instructions: u64,
    /// Exclusive cycles attributed to this node.
    pub cycles: u64,
    /// Exclusive activity attributed to this node.
    pub activity: ActivitySlice,
}

/// The call tree of a run. Node ids are creation-ordered, so a parent's
/// id is always smaller than its children's — reverse iteration folds
/// children into parents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// Creation-ordered nodes (deterministic for a deterministic run).
    pub nodes: Vec<CallNode>,
}

impl CallGraph {
    /// Sum of exclusive cycles over all nodes (equals the flat bucket
    /// total and the machine's total cycles).
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles).sum()
    }

    /// Inclusive cycles per node (self + all descendants), parallel to
    /// [`CallGraph::nodes`].
    pub fn inclusive_cycles(&self) -> Vec<u64> {
        let mut inc: Vec<u64> = self.nodes.iter().map(|n| n.cycles).collect();
        for i in (0..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            if p != ROOT {
                inc[p as usize] += inc[i];
            }
        }
        inc
    }

    /// Sum of inclusive cycles over the root nodes (equals
    /// [`CallGraph::total_cycles`]; pinned by tests).
    pub fn root_inclusive_cycles(&self) -> u64 {
        let inc = self.inclusive_cycles();
        self.nodes
            .iter()
            .zip(&inc)
            .filter(|(n, _)| n.parent == ROOT)
            .map(|(_, c)| *c)
            .sum()
    }

    /// The routine-index path from a root down to `node` (inclusive).
    pub fn path(&self, node: usize) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut i = node as u32;
        while i != ROOT {
            let n = &self.nodes[i as usize];
            rev.push(n.routine);
            i = n.parent;
        }
        rev.reverse();
        rev
    }

    /// Accumulates another call tree into this one, matching nodes by
    /// routine path (workloads run the same program image several
    /// times, e.g. Sign + Verify).
    pub fn merge(&mut self, other: &CallGraph) {
        let mut children: HashMap<(u32, u32), u32> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            children.insert((n.parent, n.routine), i as u32);
        }
        // Creation order guarantees parents precede children, so the
        // id map is always populated before it is consulted.
        let mut map = vec![ROOT; other.nodes.len()];
        for (i, n) in other.nodes.iter().enumerate() {
            let parent = if n.parent == ROOT {
                ROOT
            } else {
                map[n.parent as usize]
            };
            let id = *children.entry((parent, n.routine)).or_insert_with(|| {
                let id = self.nodes.len() as u32;
                self.nodes.push(CallNode {
                    parent,
                    routine: n.routine,
                    instructions: 0,
                    cycles: 0,
                    activity: ActivitySlice::default(),
                });
                id
            });
            let s = &mut self.nodes[id as usize];
            s.instructions += n.instructions;
            s.cycles += n.cycles;
            s.activity.accumulate(&n.activity);
            map[i] = id;
        }
    }
}

/// The finished per-routine breakdown of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutineProfile {
    /// Buckets in ascending address order; zero-activity routines are
    /// retained so the table shape is config-independent.
    pub routines: Vec<RoutineCycles>,
    /// The call tree (exclusive counters per call path).
    pub calls: CallGraph,
}

impl RoutineProfile {
    /// Sum of all bucket cycles (equals the machine's total cycles).
    pub fn total_cycles(&self) -> u64 {
        self.routines.iter().map(|r| r.cycles).sum()
    }

    /// Sum of all bucket instructions.
    pub fn total_instructions(&self) -> u64 {
        self.routines.iter().map(|r| r.instructions).sum()
    }

    /// The bucket for `name`, if present (exact match against the
    /// possibly alias-merged name).
    pub fn routine(&self, name: &str) -> Option<&RoutineCycles> {
        self.routines.iter().find(|r| r.name == name)
    }

    /// The bucket whose (alias-merged) name contains `part` — e.g.
    /// `find("fmul")` matches a `"fsqr/fmul"` merge.
    pub fn find(&self, part: &str) -> Option<&RoutineCycles> {
        self.routines
            .iter()
            .find(|r| r.name.split('/').any(|n| n == part))
    }

    /// The buckets in reporting order: cycles descending, then name
    /// ascending. All human-facing and serialized output uses this
    /// order so profiles are byte-stable across runs and thread counts.
    pub fn sorted_routines(&self) -> Vec<&RoutineCycles> {
        let mut v: Vec<&RoutineCycles> = self.routines.iter().collect();
        v.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
        v
    }

    /// Every call path as a `;`-joined name string (root first, leaf
    /// last) with its node, in node-creation order.
    pub fn call_paths(&self) -> Vec<(String, &CallNode)> {
        (0..self.calls.nodes.len())
            .map(|i| {
                let names: Vec<&str> = self
                    .calls
                    .path(i)
                    .into_iter()
                    .map(|r| self.routines[r as usize].name.as_str())
                    .collect();
                (names.join(";"), &self.calls.nodes[i])
            })
            .collect()
    }

    /// Accumulates another profile over the same routine table
    /// (workloads run the same program image several times, e.g.
    /// Sign + Verify).
    pub fn merge(&mut self, other: &RoutineProfile) {
        if self.routines.is_empty() {
            self.routines = other.routines.clone();
            self.calls = other.calls.clone();
            return;
        }
        assert_eq!(
            self.routines.len(),
            other.routines.len(),
            "merging profiles over different routine tables"
        );
        for (a, b) in self.routines.iter_mut().zip(&other.routines) {
            debug_assert_eq!(a.start, b.start);
            a.instructions += b.instructions;
            a.cycles += b.cycles;
            a.activity.accumulate(&b.activity);
        }
        self.calls.merge(&other.calls);
    }

    /// Accumulates a profile taken over a *different* program image
    /// (e.g. the handshake's companion ECDSA program riding next to the
    /// ladder program). Foreign buckets are appended under
    /// `{prefix}{name}` so same-named routines from the two images stay
    /// distinct, and the foreign call tree is appended with its routine
    /// indices rebased onto the combined table. Bucket totals keep
    /// summing to the combined headline counters; the ascending-address
    /// bucket order holds only within each image (the two address
    /// spaces are unrelated), so an absorbed profile must not be fed
    /// back into [`RoutineProfile::merge`].
    pub fn absorb(&mut self, other: &RoutineProfile, prefix: &str) {
        let routine_base = self.routines.len() as u32;
        self.routines
            .extend(other.routines.iter().map(|r| RoutineCycles {
                name: format!("{prefix}{}", r.name),
                ..r.clone()
            }));
        let node_base = self.calls.nodes.len() as u32;
        self.calls
            .nodes
            .extend(other.calls.nodes.iter().map(|n| CallNode {
                parent: if n.parent == ROOT {
                    ROOT
                } else {
                    n.parent + node_base
                },
                routine: n.routine + routine_base,
                ..n.clone()
            }));
    }
}

/// A live shadow-stack frame: where to return to, which node the call
/// was made from, and the context that node sat in.
#[derive(Clone, Copy, Debug)]
struct Frame {
    ret: u32,
    caller: u32,
    context: u32,
}

/// Hashes a packed `(parent, routine)` key with one multiply and a
/// fold. Billing looks a node up at every routine change, and with
/// every label a routine that is once per few dispatches: SipHash
/// would cost more than the rest of the bill.
#[derive(Clone, Copy, Debug, Default)]
struct NodeKeyHasher(u64);

impl Hasher for NodeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("node keys are hashed as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        // Fold the well-mixed high half into the low bits the table
        // indexes by, so a parent id reaches the bucket index too.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// `(parent << 32 | routine) -> node id`.
type Children = HashMap<u64, u32, BuildHasherDefault<NodeKeyHasher>>;

/// The live profiler attached to a [`Machine`](crate::cpu::Machine).
#[derive(Clone, Debug)]
pub struct PcProfiler {
    /// Sorted bucket start addresses (parallel to `buckets`).
    starts: Vec<u32>,
    /// Routine names and starts, with zero counters until
    /// [`PcProfiler::finish`] sums the nodes into them.
    buckets: Vec<RoutineCycles>,
    /// Call-tree nodes (creation-ordered).
    nodes: Vec<CallNode>,
    /// `(parent, routine) -> node id` lookup, consulted only on
    /// call/return/leaf transitions, not per bill.
    children: Children,
    /// The shadow call stack.
    stack: Vec<Frame>,
    /// The node calls are currently made from ([`ROOT`] at top level).
    context: u32,
    /// The context to go back to after a return: the popped frame's
    /// call-time context, restored at the first bill outside the
    /// returning routine or before the next push.
    restore: Option<u32>,
    /// Bucket index of the previous instruction (`usize::MAX` before
    /// the first), so the common straight-line case skips node lookup.
    cur_routine: usize,
    /// The node currently accumulating exclusive counters.
    cur_node: u32,
}

impl PcProfiler {
    /// Builds buckets from `Program::text_symbols` output (sorted,
    /// alias-merged `(start, name)` pairs). A synthetic `(prelude)`
    /// bucket covers any code before the first label.
    pub fn new(text_symbols: &[(u32, String)]) -> Self {
        let mut buckets = Vec::with_capacity(text_symbols.len() + 1);
        if text_symbols.first().is_none_or(|&(a, _)| a != 0) {
            buckets.push(RoutineCycles {
                name: "(prelude)".to_owned(),
                start: 0,
                instructions: 0,
                cycles: 0,
                activity: ActivitySlice::default(),
            });
        }
        for (start, name) in text_symbols {
            buckets.push(RoutineCycles {
                name: name.clone(),
                start: *start,
                instructions: 0,
                cycles: 0,
                activity: ActivitySlice::default(),
            });
        }
        let starts = buckets.iter().map(|b| b.start).collect();
        PcProfiler {
            starts,
            buckets,
            nodes: Vec::new(),
            children: Children::default(),
            stack: Vec::new(),
            context: ROOT,
            restore: None,
            cur_routine: usize::MAX,
            cur_node: ROOT,
        }
    }

    /// The node for `routine` under `context`, folding into `context`
    /// itself when it already is that routine (delay slots of calls and
    /// direct recursion).
    fn node_for(&mut self, context: u32, routine: u32) -> u32 {
        if context != ROOT && self.nodes[context as usize].routine == routine {
            return context;
        }
        match self
            .children
            .entry(u64::from(context) << 32 | u64::from(routine))
        {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.nodes.len() as u32;
                self.nodes.push(CallNode {
                    parent: context,
                    routine,
                    instructions: 0,
                    cycles: 0,
                    activity: ActivitySlice::default(),
                });
                e.insert(id);
                id
            }
        }
    }

    /// Sorted start addresses of the buckets (the routine boundaries a
    /// profiled dispatch may not cross).
    pub(crate) fn routine_starts(&self) -> &[u32] {
        &self.starts
    }

    /// The routine (bucket index) owning `pc`.
    pub(crate) fn routine_at(&self, pc: u32) -> usize {
        // Most lookups land in the last billed routine.
        let cur = self.cur_routine;
        if cur != usize::MAX && pc.wrapping_sub(self.starts[cur]) < self.routine_len(cur) {
            return cur;
        }
        match self.starts.binary_search(&pc) {
            Ok(i) => i,
            Err(i) => i - 1, // starts[0] == 0 covers every pc
        }
    }

    /// Bytes from `routine`'s start to the next routine's start (to the
    /// top of the address space for the last one), so `pc` lies in the
    /// routine iff `pc.wrapping_sub(start) < len`.
    pub(crate) fn routine_len(&self, routine: usize) -> u32 {
        let end = self.starts.get(routine + 1).copied().unwrap_or(u32::MAX);
        end - self.starts[routine]
    }

    /// Attributes `instructions` retired instructions at `pc`, all
    /// inside one routine, with their cycle delta and counted activity;
    /// `event` is the last instruction's. See [`PcProfiler::bill`].
    #[inline]
    pub fn record(
        &mut self,
        pc: u32,
        instructions: u64,
        cycles: u64,
        activity: &ActivitySlice,
        event: Option<ControlEvent>,
    ) {
        let routine = self.routine_at(pc);
        self.bill(routine, instructions, cycles, activity, event);
    }

    /// Bills a run of retired instructions that all lie in `routine`:
    /// the cycle delta and counted activity go to the current call-tree
    /// node (and through it to the routine's bucket), then `event` (the
    /// run's last instruction's) advances the shadow stack. Sums are
    /// associative, so billing a run whole equals billing its
    /// instructions one by one.
    pub(crate) fn bill(
        &mut self,
        routine: usize,
        instructions: u64,
        cycles: u64,
        activity: &ActivitySlice,
        event: Option<ControlEvent>,
    ) {
        if routine != self.cur_routine {
            self.cur_routine = routine;
            if let Some(context) = self.restore.take() {
                self.context = context;
            }
            self.cur_node = self.node_for(self.context, routine as u32);
        }
        let n = &mut self.nodes[self.cur_node as usize];
        n.instructions += instructions;
        n.cycles += cycles;
        n.activity.accumulate(activity);

        match event {
            Some(ControlEvent::Call { ret }) if self.stack.len() < MAX_SHADOW_DEPTH => {
                // A call right after a return that landed in the
                // returning routine is made from the restored context.
                if let Some(context) = self.restore.take() {
                    self.context = context;
                    self.cur_node = self.node_for(context, self.cur_routine as u32);
                }
                self.stack.push(Frame {
                    ret,
                    caller: self.cur_node,
                    context: self.context,
                });
                self.context = self.cur_node;
                self.cur_node = self.node_for(self.context, self.cur_routine as u32);
            }
            Some(ControlEvent::JumpReg { target }) => {
                // Pop to the youngest frame expecting this return
                // address; frames above it were abandoned by tail
                // calls. A miss means a tail call or computed jump:
                // the stack is untouched and the leaf just changes.
                if let Some(pos) = self.stack.iter().rposition(|f| f.ret == target) {
                    let frame = self.stack[pos];
                    self.stack.truncate(pos);
                    // The delay slot still runs in the returning
                    // routine, under the caller; whatever runs next
                    // outside it is the caller's sibling, not its
                    // child (a branch to another label after a return
                    // must not nest one level per loop iteration).
                    self.context = frame.caller;
                    self.restore = Some(frame.context);
                    self.cur_node = self.node_for(self.context, self.cur_routine as u32);
                }
            }
            // Calls past MAX_SHADOW_DEPTH fold into the current node.
            Some(ControlEvent::Call { .. }) | None => {}
        }
    }

    /// Finishes the run, yielding the per-routine breakdown.
    pub fn finish(self) -> RoutineProfile {
        let mut routines = self.buckets;
        for n in &self.nodes {
            let b = &mut routines[n.routine as usize];
            b.instructions += n.instructions;
            b.cycles += n.cycles;
            b.activity.accumulate(&n.activity);
        }
        RoutineProfile {
            routines,
            calls: CallGraph { nodes: self.nodes },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> Vec<(u32, String)> {
        vec![(0x10, "a".to_owned()), (0x40, "b/c".to_owned())]
    }

    fn act(ram_reads: u64) -> ActivitySlice {
        ActivitySlice {
            ram_reads,
            ..Default::default()
        }
    }

    #[test]
    fn attribution_covers_prelude_and_boundaries() {
        let mut p = PcProfiler::new(&syms());
        p.record(0x0, 1, 3, &act(1), None); // prelude
        p.record(0x10, 1, 2, &act(0), None); // first instr of a
        p.record(0x3c, 1, 1, &act(2), None); // last instr of a
        p.record(0x40, 1, 5, &act(0), None); // b/c
        p.record(0x1000, 1, 7, &act(4), None); // past last label -> b/c
        let prof = p.finish();
        assert_eq!(prof.total_cycles(), 18);
        assert_eq!(prof.total_instructions(), 5);
        assert_eq!(prof.routine("(prelude)").unwrap().cycles, 3);
        assert_eq!(prof.routine("a").unwrap().cycles, 3);
        assert_eq!(prof.routine("a").unwrap().activity.ram_reads, 2);
        assert_eq!(prof.routine("b/c").unwrap().cycles, 12);
        assert_eq!(prof.routine("b/c").unwrap().activity.ram_reads, 4);
        assert_eq!(prof.find("c").unwrap().start, 0x40);
        assert!(prof.find("zz").is_none());
        // Flat and call-tree exclusive totals agree.
        assert_eq!(prof.calls.total_cycles(), 18);
        assert_eq!(prof.calls.root_inclusive_cycles(), 18);
    }

    #[test]
    fn no_prelude_bucket_when_label_at_zero() {
        let mut p = PcProfiler::new(&[(0, "start".to_owned())]);
        p.record(0, 1, 1, &act(0), None);
        let prof = p.finish();
        assert_eq!(prof.routines.len(), 1);
        assert_eq!(prof.routine("start").unwrap().cycles, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RoutineProfile::default();
        let mut p = PcProfiler::new(&syms());
        p.record(0x10, 1, 2, &act(1), None);
        a.merge(&p.finish());
        let mut p = PcProfiler::new(&syms());
        p.record(0x10, 1, 3, &act(1), None);
        p.record(0x40, 1, 4, &act(0), None);
        a.merge(&p.finish());
        assert_eq!(a.routine("a").unwrap().cycles, 5);
        assert_eq!(a.routine("a").unwrap().activity.ram_reads, 2);
        assert_eq!(a.routine("b/c").unwrap().cycles, 4);
        assert_eq!(a.total_cycles(), 9);
        // Call trees merged by path: one node for `a`, one for `b/c`.
        assert_eq!(a.calls.nodes.len(), 2);
        assert_eq!(a.calls.total_cycles(), 9);
    }

    /// A scripted call scenario: main calls a (twice), a calls b; with
    /// the delay slot of each call billed to the caller.
    #[test]
    fn shadow_stack_builds_call_tree() {
        let syms = vec![
            (0x00, "main".to_owned()),
            (0x40, "a".to_owned()),
            (0x80, "b".to_owned()),
        ];
        let mut p = PcProfiler::new(&syms);
        let a0 = act(0);
        // main: jal a (ret 0x10), delay slot, then a runs.
        p.record(0x08, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x10 }));
        p.record(0x0c, 1, 1, &a0, None); // delay slot -> main's node
                                         // a: jal b (ret 0x50), delay slot, b body, jr back to a.
        p.record(0x40, 1, 1, &a0, None);
        p.record(0x48, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x50 }));
        p.record(0x4c, 1, 1, &a0, None); // delay slot -> main;a
        p.record(0x80, 1, 2, &a0, None); // b body -> main;a;b
        p.record(
            0x84,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x50 }),
        );
        p.record(0x88, 1, 1, &a0, None); // return delay slot -> main;a;b
                                         // back in a; jr back to main.
        p.record(
            0x50,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x10 }),
        );
        p.record(0x54, 1, 1, &a0, None); // return delay slot -> main;a
                                         // main again; second call to a.
        p.record(0x10, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x18 }));
        p.record(0x14, 1, 1, &a0, None);
        p.record(
            0x40,
            1,
            3,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x18 }),
        );
        p.record(0x44, 1, 1, &a0, None);
        p.record(0x18, 1, 1, &a0, None);
        let prof = p.finish();

        let paths: Vec<(String, u64)> = prof
            .call_paths()
            .into_iter()
            .map(|(path, n)| (path, n.cycles))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("main".to_owned(), 5),
                ("main;a".to_owned(), 9),
                ("main;a;b".to_owned(), 4),
            ]
        );
        // Exclusive sums == root inclusive == flat total.
        assert_eq!(prof.calls.total_cycles(), prof.total_cycles());
        assert_eq!(prof.calls.root_inclusive_cycles(), prof.total_cycles());
        let inc = prof.calls.inclusive_cycles();
        assert_eq!(inc, vec![18, 13, 4]);
    }

    /// Direct recursion folds into the existing frame: f -> f -> f
    /// yields a single `main;f` node, and the same-site return
    /// addresses pop one frame at a time.
    #[test]
    fn direct_recursion_folds() {
        let syms = vec![(0x00, "main".to_owned()), (0x40, "f".to_owned())];
        let mut p = PcProfiler::new(&syms);
        let a0 = act(0);
        p.record(0x00, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x08 }));
        // f calls itself twice from the same site (ret 0x50 both times).
        p.record(0x40, 1, 1, &a0, None);
        p.record(0x48, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x50 }));
        p.record(0x40, 1, 1, &a0, None);
        p.record(0x48, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x50 }));
        p.record(0x40, 1, 1, &a0, None);
        // Innermost returns, then the outer recursive call returns.
        p.record(
            0x5c,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x50 }),
        );
        p.record(
            0x50,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x50 }),
        );
        p.record(
            0x50,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x08 }),
        );
        p.record(0x08, 1, 1, &a0, None);
        let prof = p.finish();
        let paths: Vec<String> = prof.call_paths().into_iter().map(|(s, _)| s).collect();
        assert_eq!(paths, vec!["main".to_owned(), "main;f".to_owned()]);
        assert_eq!(prof.calls.nodes[1].cycles, 8);
        assert_eq!(prof.calls.total_cycles(), prof.total_cycles());
    }

    /// A tail call (`jr` to a routine entry, matching no return
    /// address) swaps the leaf under the same caller; the tail-callee's
    /// eventual `jr $ra` pops the original frame.
    #[test]
    fn tail_call_is_sibling_and_return_pops_original_frame() {
        let syms = vec![
            (0x00, "main".to_owned()),
            (0x40, "a".to_owned()),
            (0x80, "c".to_owned()),
        ];
        let mut p = PcProfiler::new(&syms);
        let a0 = act(0);
        p.record(0x00, 1, 1, &a0, Some(ControlEvent::Call { ret: 0x08 }));
        p.record(0x40, 1, 2, &a0, None); // a body
                                         // a tail-jumps to c: target 0x80 matches no frame.
        p.record(
            0x44,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x80 }),
        );
        p.record(0x80, 1, 3, &a0, None); // c body -> main;c (sibling of main;a)
                                         // c returns through the shared $ra, popping main's frame.
        p.record(
            0x84,
            1,
            1,
            &a0,
            Some(ControlEvent::JumpReg { target: 0x08 }),
        );
        p.record(0x08, 1, 1, &a0, None);
        let prof = p.finish();
        let paths: Vec<(String, u64)> = prof
            .call_paths()
            .into_iter()
            .map(|(path, n)| (path, n.cycles))
            .collect();
        assert_eq!(
            paths,
            vec![
                ("main".to_owned(), 2),
                ("main;a".to_owned(), 3),
                ("main;c".to_owned(), 4),
            ]
        );
        assert_eq!(prof.calls.root_inclusive_cycles(), prof.total_cycles());
    }

    /// Billing a dispatch whole equals billing its instructions one by
    /// one, event included, when the dispatch stays in one routine.
    #[test]
    fn dispatch_billing_equals_per_instruction_billing() {
        let mut whole = PcProfiler::new(&syms());
        let mut single = PcProfiler::new(&syms());
        let call = Some(ControlEvent::Call { ret: 0x20 });
        whole.record(0x10, 3, 7, &act(3), None);
        whole.record(0x1c, 1, 1, &act(0), call);
        whole.record(0x40, 2, 2, &act(1), None);
        for (pc, cycles, ram_reads) in [(0x10, 2, 1), (0x14, 4, 2), (0x18, 1, 0)] {
            single.record(pc, 1, cycles, &act(ram_reads), None);
        }
        single.record(0x1c, 1, 1, &act(0), call);
        single.record(0x40, 1, 1, &act(1), None);
        single.record(0x44, 1, 1, &act(0), None);
        assert_eq!(whole.finish(), single.finish());
    }

    #[test]
    fn sorted_routines_orders_by_cycles_then_name() {
        let syms = vec![
            (0x00, "zz".to_owned()),
            (0x40, "aa".to_owned()),
            (0x80, "mm".to_owned()),
        ];
        let mut p = PcProfiler::new(&syms);
        p.record(0x00, 1, 5, &act(0), None);
        p.record(0x40, 1, 5, &act(0), None);
        p.record(0x80, 1, 9, &act(0), None);
        let prof = p.finish();
        let order: Vec<&str> = prof
            .sorted_routines()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(order, vec!["mm", "aa", "zz"]);
    }
}
