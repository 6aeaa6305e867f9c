//! The timestamp-based out-of-order pipeline model.

use crate::profile::{CpiAccum, CpiStack, StallCause, NUM_REGIONS};
use crate::{Gshare, PipeConfig};
use serde::{Deserialize, Serialize};
use simdsim_emu::{DynInstr, EmuError, Machine, MemAccess, RunStats, TraceSink};
use simdsim_isa::Decoded;
use simdsim_isa::{
    ClassCounts, DecodedInstr, FuKind, Instr, Program, Region, NUM_FLAT_REGS, RENAME_NONE,
};
use simdsim_mem::{CacheStats, MemSystem, MemTimingStats};
use std::cell::RefCell;
use std::collections::VecDeque;

const RING: usize = 1 << 14;

/// Slots of the direct-mapped store-line table.  Workload images are
/// sized to their `Layout` (at most 1.4 MiB today, the JPEG apps') and a
/// layout refuses to pass `Layout::MAX_IMAGE` (4 MiB, `1 << 17` 32-byte
/// lines); doubling that leaves headroom, and larger addresses wrap
/// (aliasing only ever *delays* a load, conservatively, and stays
/// deterministic).  Each 8-byte slot packs a store completion time (low
/// [`STORE_TIME_BITS`]) with the epoch it was written in (high 16 bits),
/// so a reset or a cleanup retires every slot by opening a new epoch
/// instead of rewriting the 2 MB table.
const STORE_LINE_SLOTS: usize = 1 << 18;
/// Width of a store-line slot's time field.  Completion times saturate at
/// `2^48 - 1` cycles (days of simulated time at 1 GHz).
const STORE_TIME_BITS: u32 = 48;
const STORE_TIME_MASK: u64 = (1 << STORE_TIME_BITS) - 1;
/// Committed instructions between two store-line cleanups.
const CLEANUP_INTERVAL: u64 = 1 << 16;
/// Resource-ring classes: the issue limits that can refuse a claim.
const CLS_MEM: usize = 0;
const CLS_SIMD: usize = 1;
const CLS_VMEM: usize = 2;
const RING_CLASSES: usize = 3;

/// Timing statistics of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipeStats {
    /// Total execution cycles (cycle of the last commit).
    pub cycles: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Committed instructions per Figure-7 class.
    pub counts: ClassCounts,
    /// Cycles attributed to scalar-region code (Figure 6).
    pub scalar_region_cycles: u64,
    /// Cycles attributed to vector-region (kernel) code.
    pub vector_region_cycles: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// L1 cache counters.
    pub l1: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// Memory-system timing counters.
    pub memsys: MemTimingStats,
}

impl PipeStats {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction ratio.
    #[must_use]
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Register-ready timestamps in one flat array across all architectural
/// register files, indexed by [`simdsim_isa::RegId::flat`].  The
/// predecoded table carries the flat indices of every operand
/// (`DecodedInstr::flat_uses`/`flat_defs`), so an operand lookup on the
/// commit path is a single array index — no per-register-file match.
/// Registers never written report cycle 0.
#[derive(Debug)]
struct Scoreboard {
    t: [u64; NUM_FLAT_REGS],
}

impl Scoreboard {
    const fn new() -> Self {
        Self {
            t: [0; NUM_FLAT_REGS],
        }
    }
}

/// Popped entries [`IssueQueue`] keeps before it moves its live run down.
const IQ_COMPACT: usize = 64;

/// The issue queue's leave times as one ascending run, `buf[head..]`.
///
/// The earliest entry is `buf[head]` and a pop is `head += 1`.  An insert
/// walks back from the tail, which is where new leave times land: each is
/// at most 64 cycles past its own dispatch, and dispatch mostly grows.
/// The run always holds the same multiset as a binary heap fed the same
/// operations, so it is exact by construction: every minimum, length and
/// pop agrees (the tests drive both side by side).  The popped prefix is
/// moved out once it outgrows the live run, so a pop costs O(1)
/// amortised; the live run never exceeds `PipeConfig::iq` entries.
#[derive(Debug, Default)]
struct IssueQueue {
    buf: Vec<u64>,
    head: usize,
}

impl IssueQueue {
    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Inserts a leave time, keeping the run ascending.
    #[inline]
    fn push(&mut self, t: u64) {
        if self.head >= self.len().max(IQ_COMPACT) {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
        let mut i = self.buf.len();
        self.buf.push(t);
        while i > self.head && self.buf[i - 1] > t {
            self.buf[i] = self.buf[i - 1];
            i -= 1;
        }
        self.buf[i] = t;
    }

    /// Admits an instruction that would dispatch at `dispatch` into a
    /// queue of `cap` entries: every entry that has left by `dispatch`
    /// is dropped, and while the queue is full dispatch waits for the
    /// earliest leave (one cycle after it).  Returns the dispatch cycle.
    #[inline]
    fn admit(&mut self, mut dispatch: u64, cap: usize) -> u64 {
        while let Some(&t) = self.buf.get(self.head) {
            if t <= dispatch {
                self.head += 1;
            } else if self.len() >= cap {
                self.head += 1;
                dispatch = dispatch.max(t + 1);
            } else {
                break;
            }
        }
        dispatch
    }
}

/// The pipeline model; implements [`TraceSink`] so the emulator can
/// stream instructions straight into it.
#[derive(Debug)]
pub struct Pipeline {
    cfg: PipeConfig,
    mem: MemSystem,
    bpred: Gshare,
    reg_ready: Scoreboard,
    int_fu: Vec<u64>,
    fp_fu: Vec<u64>,
    simd_fu: Vec<u64>,
    /// Cycle-bucketed issue-slot counts, each entry tagged with
    /// `cycle + ring_base`; an entry whose tag differs is free.
    ring: Vec<(u64, [u8; RING_CLASSES])>,
    /// Tag offset of the current cell.  [`Pipeline::reset`] moves it past
    /// every tag the previous cell wrote, which retires the whole ring
    /// without touching it.
    ring_base: u64,
    limits: [u8; RING_CLASSES],
    next_fetch: u64,
    fetch_used: usize,
    rob: VecDeque<u64>,
    iq: IssueQueue,
    commit_cursor: u64,
    commit_used: usize,
    rename: [VecDeque<u64>; 3],
    rename_caps: [usize; 3],
    /// Direct-mapped completion times of in-flight stores, indexed by
    /// 32-byte line index (the last per-commit hash on the memory path),
    /// each tagged with its epoch (see [`STORE_LINE_SLOTS`]).  A slot
    /// reading 0 means "no store recorded", exactly like a hash miss did.
    store_lines: Box<[u64]>,
    /// Epoch stamped on store-line writes; every reset and cleanup opens
    /// a new one.  Epoch 0 is never current, so a zeroed slot is empty.
    epoch: u16,
    /// Epoch the current cell started in: older slots read as 0.
    cell_epoch: u16,
    /// Commit cursor at this cell's latest cleanup: slots written before
    /// that cleanup read as 0 when their time is below it.
    clean_cursor: u64,
    region_cycles: [u64; 2],
    last_commit: u64,
    instrs: u64,
    counts: ClassCounts,
    branches: u64,
    mispredicts: u64,
    cleanup_at: u64,
    /// Cycle-accounting accumulator; `None` keeps the hot path free of
    /// profiling work.  Boxed so the (cold) counters stay off the
    /// pipeline's cache-resident core.
    prof: Option<Box<CpiAccum>>,
}

/// Claims the first cycle at or after `from` with a free `cls` slot in the
/// cycle-bucketed resource ring.  A free function over the ring fields so
/// [`Pipeline::fu_issue`] can hold a mutable borrow of an FU pool across
/// the call.
fn slot(
    ring: &mut [(u64, [u8; RING_CLASSES])],
    base: u64,
    limits: &[u8; RING_CLASSES],
    cls: usize,
    from: u64,
) -> u64 {
    let lim = limits[cls];
    let mut c = from;
    loop {
        let e = &mut ring[(c as usize) & (RING - 1)];
        if e.0 != c + base {
            *e = (c + base, [0; RING_CLASSES]);
        }
        if e.1[cls] < lim {
            e.1[cls] += 1;
            return c;
        }
        c += 1;
    }
}

/// Cache-line keys (32-byte granules) touched by one memory access, as an
/// allocation-free iterator shared by store→load ordering and store
/// recording.
fn line_keys(acc: &MemAccess) -> impl Iterator<Item = u64> + '_ {
    (0..u64::from(acc.rows)).flat_map(move |r| {
        let row_addr = (acc.addr as i64 + acc.stride * r as i64) as u64;
        let first = row_addr / 32;
        let last = (row_addr + u64::from(acc.row_bytes).max(1) - 1) / 32;
        first..=last
    })
}

/// Per-class issue limits of the resource ring (`mem`, `simd`, vector
/// memory).  [`PipeConfig::validate`] keeps every count in `1..=255`.
///
/// INT and FP have no class: their issue limits equal their FU pool sizes,
/// and a unit issues at most once per cycle (its next issue is at least
/// this one plus the occupancy, which is ≥ 1), so such a limit can never
/// refuse a claim.  For the same reason SIMD claims a slot only when
/// `simd_issue < simd_fus` (see [`Pipeline::fu_issue`]).
fn issue_limits(cfg: &PipeConfig) -> [u8; RING_CLASSES] {
    [cfg.mem_fus as u8, cfg.simd_issue as u8, 1]
}

/// In-flight budgets of the integer, FP and SIMD rename FIFOs.
fn rename_caps(cfg: &PipeConfig) -> [usize; 3] {
    [
        cfg.phys_int.saturating_sub(simdsim_isa::NUM_IREGS).max(1),
        cfg.phys_fp.saturating_sub(simdsim_isa::NUM_FREGS).max(1),
        cfg.simd_inflight(),
    ]
}

impl Pipeline {
    /// Creates a pipeline in its reset state.
    #[must_use]
    pub fn new(cfg: PipeConfig) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid PipeConfig: {cfg:?}");
        Self {
            mem: MemSystem::new(cfg.mem),
            bpred: Gshare::new(cfg.bpred_entries),
            reg_ready: Scoreboard::new(),
            int_fu: vec![0; cfg.int_fus],
            fp_fu: vec![0; cfg.fp_fus],
            simd_fu: vec![0; cfg.simd_fus],
            // Tag 0 never matches: tags start at `ring_base` = 1.
            ring: vec![(0, [0; RING_CLASSES]); RING],
            ring_base: 1,
            limits: issue_limits(&cfg),
            next_fetch: 0,
            fetch_used: 0,
            rob: VecDeque::with_capacity(cfg.rob + 1),
            iq: IssueQueue::default(),
            commit_cursor: 0,
            commit_used: 0,
            rename: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            rename_caps: rename_caps(&cfg),
            store_lines: vec![0; STORE_LINE_SLOTS].into_boxed_slice(),
            epoch: 1,
            cell_epoch: 1,
            clean_cursor: 0,
            region_cycles: [0; 2],
            last_commit: 0,
            instrs: 0,
            counts: ClassCounts::default(),
            branches: 0,
            mispredicts: 0,
            cleanup_at: CLEANUP_INTERVAL,
            prof: None,
            cfg,
        }
    }

    /// Enables or disables cycle accounting.  Profiling only *observes*
    /// the timestamps the model computes — enabling it never changes
    /// simulated timing (asserted by the model's tests).
    pub fn set_profiling(&mut self, on: bool) {
        match (on, self.prof.is_some()) {
            (true, false) => self.prof = Some(Box::default()),
            (false, true) => self.prof = None,
            _ => {}
        }
    }

    /// Returns the pipeline to its reset state under a (possibly new)
    /// configuration; the next run equals one on
    /// [`Pipeline::new`]`(cfg)`.  The cost does not depend on the
    /// 16K-entry resource ring or the store-line table: both are retired
    /// by moving a tag (`ring_base`, the store-line epoch) rather than
    /// rewritten.  The caches and the predictor are emptied in place, so a
    /// pooled pipeline replaying many cells allocates nothing per cell.
    pub fn reset(&mut self, cfg: PipeConfig) {
        debug_assert!(cfg.validate().is_ok(), "invalid PipeConfig: {cfg:?}");
        // Every claimed ring cycle precedes its instruction's commit, so
        // all tags written so far are below the new base.
        self.ring_base += self.commit_cursor + 1;
        if self.epoch == u16::MAX {
            self.store_lines.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.cell_epoch = self.epoch;
        self.clean_cursor = 0;
        self.limits = issue_limits(&cfg);
        self.rename_caps = rename_caps(&cfg);
        self.mem.reset(cfg.mem);
        self.bpred.reset(cfg.bpred_entries);
        self.reg_ready = Scoreboard::new();
        self.int_fu.clear();
        self.int_fu.resize(cfg.int_fus, 0);
        self.fp_fu.clear();
        self.fp_fu.resize(cfg.fp_fus, 0);
        self.simd_fu.clear();
        self.simd_fu.resize(cfg.simd_fus, 0);
        self.next_fetch = 0;
        self.fetch_used = 0;
        self.rob.clear();
        self.iq.clear();
        self.commit_cursor = 0;
        self.commit_used = 0;
        for fifo in &mut self.rename {
            fifo.clear();
        }
        self.region_cycles = [0; 2];
        self.last_commit = 0;
        self.instrs = 0;
        self.counts = ClassCounts::default();
        self.branches = 0;
        self.mispredicts = 0;
        self.cleanup_at = CLEANUP_INTERVAL;
        if let Some(p) = self.prof.as_deref_mut() {
            p.reset();
        }
        self.cfg = cfg;
    }

    /// The periodic store-line cleanup (same policy the old `HashMap`
    /// scoreboard had): entries already behind the commit cursor read as
    /// "never stored" from here on.  It records the cursor and opens a
    /// new epoch, and [`Pipeline::store_time`] applies it lazily; the
    /// cursor never moves backwards, so checking the latest cleanup equals
    /// zeroing eagerly at every one.
    fn cleanup_store_lines(&mut self) {
        self.clean_cursor = self.commit_cursor;
        if self.epoch < u16::MAX {
            self.epoch += 1;
            return;
        }
        // Epoch space used up mid-cell: apply the cleanup eagerly once and
        // retag the survivors into a fresh epoch space.
        for i in 0..STORE_LINE_SLOTS {
            let raw = self.store_lines[i];
            let t = raw & STORE_TIME_MASK;
            let live = (raw >> STORE_TIME_BITS) as u16 >= self.cell_epoch && t >= self.clean_cursor;
            self.store_lines[i] = if live { t | (1 << STORE_TIME_BITS) } else { 0 };
        }
        self.epoch = 1;
        self.cell_epoch = 1;
    }

    /// The completion time store-line slot `idx` holds for this cell: its
    /// time when written in the current epoch, or earlier in this cell and
    /// not behind the latest cleanup's cursor; otherwise 0.
    #[inline]
    fn store_time(&self, idx: usize) -> u64 {
        let raw = self.store_lines[idx];
        let t = raw & STORE_TIME_MASK;
        let e = (raw >> STORE_TIME_BITS) as u16;
        if e == self.epoch || (e >= self.cell_epoch && t >= self.clean_cursor) {
            t
        } else {
            0
        }
    }

    /// Issues on the earliest-free unit of FU pool `pool` (0 INT, 1 FP,
    /// 2 SIMD) at or after `ready`.  Only a SIMD pool wider than its issue
    /// limit claims a resource-ring slot; every other pool issues at most
    /// its limit per cycle by construction (see [`issue_limits`]).
    fn fu_issue(&mut self, pool: usize, ready: u64, occupancy: u64) -> u64 {
        // One match, mutable borrow up front; `slot` only touches the
        // (disjoint) ring fields.
        let pool_vec = match pool {
            0 => &mut self.int_fu,
            1 => &mut self.fp_fu,
            _ => &mut self.simd_fu,
        };
        let (idx, free) = pool_vec
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| **f)
            .map(|(i, f)| (i, *f))
            .expect("non-empty FU pool");
        let candidate = ready.max(free);
        let issue = if pool == 2 && self.cfg.simd_issue < self.cfg.simd_fus {
            slot(
                &mut self.ring,
                self.ring_base,
                &self.limits,
                CLS_SIMD,
                candidate,
            )
        } else {
            candidate
        };
        pool_vec[idx] = issue + occupancy;
        issue
    }

    /// Front end of one instruction: fetch-group accounting, ROB head
    /// release, issue-queue drain and rename-budget stalls.  Returns the
    /// dispatch cycle.
    #[inline]
    fn stage_front(&mut self, dec: &DecodedInstr) -> u64 {
        // ------------------------------------------------------------
        // Fetch
        // ------------------------------------------------------------
        if self.fetch_used >= self.cfg.way {
            self.next_fetch += 1;
            self.fetch_used = 0;
        }
        let mut fetch = self.next_fetch;
        let fetch_base = fetch;
        if self.rob.len() >= self.cfg.rob {
            let oldest = self.rob.pop_front().expect("rob non-empty");
            fetch = fetch.max(oldest);
        }
        if fetch > self.next_fetch {
            self.next_fetch = fetch;
            self.fetch_used = 0;
        }
        self.fetch_used += 1;

        // ------------------------------------------------------------
        // Rename (physical register budgets) and issue-queue occupancy
        // ------------------------------------------------------------
        // Entries leave the scheduler when they issue; dispatch stalls
        // while the queue is full.
        let mut dispatch = self.iq.admit(fetch + self.cfg.frontend_depth, self.cfg.iq);
        if dec.def_rename != RENAME_NONE {
            let c = dec.def_rename as usize;
            while self.rename[c].len() >= self.rename_caps[c] {
                let t = self.rename[c].pop_front().expect("rename fifo non-empty");
                dispatch = dispatch.max(t);
            }
        }
        if let Some(p) = self.prof.as_deref_mut() {
            p.begin_instr();
            // ROB-release raise plus issue-queue/rename-budget raise: both
            // are back-pressure on dispatch, charged as queue pressure.
            p.cur_front = (fetch - fetch_base) + (dispatch - (fetch + self.cfg.frontend_depth));
            p.cur_branch = p.redirect_until != 0 && fetch_base <= p.redirect_until;
        }
        dispatch
    }

    /// Issue-and-execute stage: claims a functional unit (and the memory
    /// system for loads/stores) from `ready` and returns the completion
    /// cycle.
    #[inline]
    fn stage_execute(&mut self, di: &DynInstr, dec: &DecodedInstr, ready: u64) -> u64 {
        match dec.fu {
            FuKind::None => ready,
            FuKind::IntAlu => {
                let issue = self.fu_issue(0, ready, u64::from(dec.occ));
                self.prof_exec(issue - ready, u64::from(dec.lat), 0);
                issue + u64::from(dec.lat)
            }
            FuKind::IntMul => {
                let issue = self.fu_issue(0, ready, u64::from(dec.occ));
                self.prof_exec(issue - ready, u64::from(dec.lat), 0);
                issue + u64::from(dec.lat)
            }
            FuKind::Fp => {
                let issue = self.fu_issue(1, ready, u64::from(dec.occ));
                self.prof_exec(issue - ready, u64::from(dec.lat), 0);
                issue + u64::from(dec.lat)
            }
            FuKind::Simd => {
                let base = u64::from(dec.lat);
                let occ = if dec.is_full_vl {
                    u64::from(di.vl).div_ceil(self.cfg.lanes as u64).max(1)
                } else {
                    1
                };
                let issue = self.fu_issue(2, ready, occ);
                self.prof_exec(issue - ready, occ - 1 + base, 0);
                issue + occ - 1 + base
            }
            FuKind::Mem => {
                let acc = di.mem.expect("memory instruction carries an access");
                let issue = slot(&mut self.ring, self.ring_base, &self.limits, CLS_MEM, ready);
                let start = self.order_against_stores(issue, &acc);
                let done =
                    self.mem
                        .scalar_access(start, acc.addr, u64::from(acc.row_bytes), acc.store);
                self.record_store(&acc, done);
                if acc.store {
                    self.prof_exec(start - ready, 0, 0);
                    start + 1 // retire via store buffer
                } else {
                    self.prof_exec(start - ready, 0, done - start);
                    done
                }
            }
            FuKind::VecMem => {
                let acc = di.mem.expect("vector memory instruction carries an access");
                let issue = slot(
                    &mut self.ring,
                    self.ring_base,
                    &self.limits,
                    CLS_VMEM,
                    ready,
                );
                let start = self.order_against_stores(issue, &acc);
                let done = self.mem.vector_access(start, &acc);
                self.record_store(&acc, done);
                if acc.store {
                    self.prof_exec(start - ready, 0, 0);
                    start + 1
                } else {
                    self.prof_exec(start - ready, 0, done - start);
                    done
                }
            }
        }
    }

    /// Records the in-flight instruction's issue wait, execution latency
    /// and load latency into the profiling scratch.  A no-op (one branch)
    /// when profiling is off.
    #[inline]
    fn prof_exec(&mut self, fu_wait: u64, exec_lat: u64, mem_wait: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.cur_fu_wait = fu_wait;
            p.cur_exec_lat = exec_lat;
            p.cur_mem_wait = mem_wait;
        }
    }

    /// Back end of one instruction: scheduler-slot release time, branch
    /// prediction, in-order commit, ROB/rename occupancy and statistics.
    #[inline]
    fn stage_retire(
        &mut self,
        di: &DynInstr,
        dec: &DecodedInstr,
        dispatch: u64,
        ready: u64,
        complete: u64,
    ) {
        // Scheduler entry is held from dispatch to issue; completion is a
        // safe upper bound for memory operations whose issue the memory
        // system decides.
        let iq_leave = match dec.fu {
            FuKind::None => dispatch,
            FuKind::Mem | FuKind::VecMem => ready.max(dispatch),
            _ => complete.saturating_sub(1).max(dispatch),
        };
        self.iq.push(iq_leave.min(dispatch + 64));

        // ------------------------------------------------------------
        // Control flow
        // ------------------------------------------------------------
        match di.instr {
            Instr::Branch { .. } => {
                self.branches += 1;
                let actual = di.taken.is_some();
                let predicted = self.bpred.predict(di.pc);
                self.bpred.update(di.pc, actual);
                if predicted != actual {
                    self.mispredicts += 1;
                    let restart = complete + self.cfg.redirect_penalty;
                    if restart > self.next_fetch {
                        self.next_fetch = restart;
                        self.fetch_used = 0;
                        if let Some(p) = self.prof.as_deref_mut() {
                            p.redirect_until = p.redirect_until.max(restart);
                        }
                    }
                } else {
                    // One branch prediction per cycle: every branch ends
                    // its fetch group (era-typical front end; this is what
                    // keeps wide fetch from scaling on branchy scalar
                    // code).
                    self.next_fetch += 1;
                    self.fetch_used = 0;
                }
            }
            Instr::Jump { .. } => {
                self.next_fetch += 1;
                self.fetch_used = 0;
            }
            _ => {}
        }

        // ------------------------------------------------------------
        // Commit (in order, `way` per cycle)
        // ------------------------------------------------------------
        let mut c = (complete + 1).max(self.commit_cursor);
        if c == self.commit_cursor && self.commit_used >= self.cfg.way {
            c += 1;
        }
        if c > self.commit_cursor {
            self.commit_cursor = c;
            self.commit_used = 0;
        }
        self.commit_used += 1;

        self.rob.push_back(c);
        if dec.def_rename != RENAME_NONE {
            self.rename[dec.def_rename as usize].push_back(c);
        }

        let region_idx = match di.region {
            Region::Scalar => 0,
            Region::Vector => 1,
        };
        let prev_commit = self.last_commit;
        self.region_cycles[region_idx] += c.saturating_sub(self.last_commit);
        self.last_commit = c;
        self.instrs += 1;
        self.counts.add(dec.class, 1);

        if self.prof.is_some() {
            let way = self.cfg.way as u64;
            let l1_lat = self.cfg.mem.l1.latency;
            let mem_lat = self.cfg.mem.mem_latency;
            let redirect_pen = self.cfg.redirect_penalty;
            let used = self.commit_used as u64;
            let p = self.prof.as_deref_mut().expect("profiling enabled");
            // Commit slots are ordered `(cycle, position)`; this commit
            // landed in slot `(c-1)·way + (used-1)`, strictly after the
            // previous one (the cursor never moves backwards and `used`
            // is capped at `way`).
            let slot_idx = (c - 1) * way + (used - 1);
            let gap = slot_idx - p.next_slot;
            if gap > 0 {
                // Charge the whole gap to the dominant component of the
                // instruction that ended it.  Every weight is the
                // *incremental* delay the component added beyond the
                // previous commit: commit is in order, so anything bounded
                // by an older instruction's completion (operand readiness,
                // window-occupancy releases) is already behind
                // `prev_commit` — measuring from dispatch instead would
                // double-count every upstream stall and drown the
                // per-instruction latencies that actually pace a full
                // window.  Ties break in evaluation order below — memory
                // first, width last — so attribution is deterministic.
                let over = dispatch.saturating_sub(prev_commit);
                let w_branch = if p.cur_branch { over + redirect_pen } else { 0 };
                let w_queue = if !p.cur_branch && p.cur_front > 0 {
                    over
                } else {
                    0
                };
                let w_dep = ready.saturating_sub(dispatch.max(prev_commit)) + p.cur_exec_lat;
                let mem_cause = if p.cur_mem_wait >= mem_lat {
                    StallCause::Memory
                } else if p.cur_mem_wait > l1_lat {
                    StallCause::L2
                } else {
                    StallCause::L1
                };
                let mut cause = StallCause::IssueWidth;
                let mut best = 0;
                for (w, cs) in [
                    (p.cur_mem_wait, mem_cause),
                    (w_branch, StallCause::BranchRecovery),
                    (w_dep, StallCause::DataDep),
                    (p.cur_fu_wait, StallCause::FuContention),
                    (w_queue, StallCause::RenameQueue),
                ] {
                    if w > best {
                        best = w;
                        cause = cs;
                    }
                }
                p.stall_slots[cause as usize * NUM_REGIONS + region_idx] += gap;
            }
            p.issue_slots[region_idx] += 1;
            p.class_slots[dec.class as usize] += 1;
            p.next_slot = slot_idx + 1;
            p.last_region = region_idx;
        }

        if self.instrs >= self.cleanup_at {
            self.cleanup_store_lines();
            self.cleanup_at = self.instrs + CLEANUP_INTERVAL;
        }
    }

    fn order_against_stores(&self, issue: u64, acc: &MemAccess) -> u64 {
        let mut start = issue;
        for key in line_keys(acc) {
            start = start.max(self.store_time((key as usize) & (STORE_LINE_SLOTS - 1)));
        }
        start
    }

    fn record_store(&mut self, acc: &MemAccess, done: u64) {
        if !acc.store {
            return;
        }
        let tag = u64::from(self.epoch) << STORE_TIME_BITS;
        for key in line_keys(acc) {
            let idx = (key as usize) & (STORE_LINE_SLOTS - 1);
            let t = self.store_time(idx).max(done).min(STORE_TIME_MASK);
            self.store_lines[idx] = t | tag;
        }
    }

    /// Consumes the pipeline and returns the run statistics.
    #[must_use]
    pub fn finalize(self) -> PipeStats {
        self.stats()
    }

    /// The run statistics so far.  A pooled pipeline reads these before
    /// being [`reset`](Pipeline::reset) for the next cell.
    #[must_use]
    pub fn stats(&self) -> PipeStats {
        PipeStats {
            cycles: self.last_commit,
            instrs: self.instrs,
            counts: self.counts,
            scalar_region_cycles: self.region_cycles[0],
            vector_region_cycles: self.region_cycles[1],
            branches: self.branches,
            mispredicts: self.mispredicts,
            l1: self.mem.l1_stats(),
            l2: self.mem.l2_stats(),
            memsys: self.mem.stats(),
        }
    }

    /// The run's CPI stack, or `None` when profiling is off.
    ///
    /// The drained tail after the last commit (`cycles × way` minus the
    /// slots walked so far) is charged to [`StallCause::IssueWidth`] in
    /// the last committed region at read time, so the returned stack
    /// always satisfies `issue_total() + stall_total() == slots`.
    #[must_use]
    pub fn cpi_stack(&self) -> Option<CpiStack> {
        let p = self.prof.as_deref()?;
        let way = self.cfg.way as u64;
        let cycles = self.last_commit;
        let slots = cycles * way;
        let mut stall_slots = p.stall_slots;
        // `next_slot` never exceeds `last_commit × way`: the last commit
        // used at most `way` positions of cycle `last_commit`.
        stall_slots[StallCause::IssueWidth as usize * NUM_REGIONS + p.last_region] +=
            slots - p.next_slot;
        Some(CpiStack {
            cycles,
            way,
            slots,
            issue_slots: p.issue_slots,
            class_slots: p.class_slots,
            stall_slots,
        })
    }
}

impl TraceSink for Pipeline {
    /// Times one committed instruction: front end, operand readiness from
    /// the flat scoreboard, execute, destination write-back, retire.
    fn push(&mut self, di: &DynInstr, dec: &DecodedInstr) {
        let dispatch = self.stage_front(dec);
        let mut ready = dispatch;
        for k in 0..dec.du.uses().len() {
            ready = ready.max(self.reg_ready.t[dec.flat_uses[k] as usize]);
        }
        let complete = self.stage_execute(di, dec, ready);
        if !dec.du.defs().is_empty() {
            self.reg_ready.t[dec.flat_defs[0] as usize] = complete;
        }
        self.stage_retire(di, dec, dispatch, ready, complete);
    }
}

thread_local! {

    /// Per-thread scratch machine behind [`simulate_decoded`], which must
    /// leave its input machine untouched: each call copies the input into
    /// this one resident image ([`Machine::reset_from`]) instead of
    /// cloning a fresh machine.
    static SCRATCH: RefCell<Option<Machine>> = const { RefCell::new(None) };

    /// Per-thread pooled [`Pipeline`]s behind every `simulate*` entry
    /// point, one per configuration of the widest call so far.
    /// [`Pipeline::reset`] retires each one's resource ring and store-line
    /// table by moving tags, so a pooled run's fixed cost does not grow
    /// with those tables.
    static PIPE_POOL: RefCell<Vec<Pipeline>> = const { RefCell::new(Vec::new()) };
}

/// Dynamic instructions the fan-out sink buffers before replaying them
/// into each pipeline.  Each buffered [`DynInstr`] is 56 bytes, so a chunk
/// is 112 KB: small enough to stay cache-resident while every pipeline
/// replays it, large enough that switching pipelines is rare.
///
/// Buffering beats pushing each instruction straight into every pipeline
/// (a broadcast).  On a 2-vCPU Xeon, timing three apps and four kernels
/// at the paper's three widths, emulation included, took a median 1.48 s
/// buffered against 1.60 s broadcast (10 alternated runs, 8 won by
/// buffering).  Without emulation (`pipe_replay`, mpeg2dec, 5 runs) the
/// broadcast took a median 101 ms and 1K, 2K and 4K chunks 69–83 ms.
const CHUNK: usize = 2048;

/// One configuration's result from [`simulate_in`]: its timing statistics
/// and, when profiling, its CPI stack.
type Timed = (PipeStats, Option<CpiStack>);

/// The [`TraceSink`] that times one trace on several pipelines: it
/// buffers [`CHUNK`] instructions, then replays the chunk into every
/// pipeline in turn.  The predecoded entry of a buffered instruction is
/// looked up again by its `pc`.
struct FanOut<'a> {
    table: &'a [DecodedInstr],
    pipes: &'a mut [Pipeline],
    buf: Vec<DynInstr>,
}

impl FanOut<'_> {
    fn flush(&mut self) {
        for pipe in self.pipes.iter_mut() {
            for di in &self.buf {
                pipe.push(di, &self.table[di.pc as usize]);
            }
        }
        self.buf.clear();
    }
}

impl TraceSink for FanOut<'_> {
    fn push(&mut self, di: &DynInstr, _dec: &DecodedInstr) {
        self.buf.push(*di);
        if self.buf.len() == CHUNK {
            self.flush();
        }
    }
}

/// Runs the decoded program on `machine` **in place** (its registers and
/// memory are consumed as the run's working state) and times the one
/// dynamic trace on every configuration of `cfgs`, each on a per-thread
/// pooled [`Pipeline`] reset to it.  Returns each configuration's
/// statistics, in order, with its [`CpiStack`] when `profile` is set.
///
/// The functional run does not depend on the configuration, so a group of
/// configurations shares one build, decode and emulation.  A lone
/// configuration streams straight into its pipeline; several are fed
/// through a sink that buffers `CHUNK` instructions and replays each
/// chunk into every pipeline in turn.  Either way each pipeline sees the
/// trace in order, so its statistics equal a run of its own.
///
/// This is the entry point for callers that own a machine they will not
/// reuse, such as the sweep engine running a freshly built workload; the
/// other `simulate*` functions copy their input machine first.
///
/// # Errors
///
/// Propagates emulation errors ([`EmuError`]); one error fails the whole
/// group.
pub fn simulate_in(
    machine: &mut Machine,
    dec: &Decoded,
    cfgs: &[PipeConfig],
    max_instrs: u64,
    profile: bool,
) -> Result<(RunStats, Vec<Timed>), EmuError> {
    PIPE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        for (i, cfg) in cfgs.iter().enumerate() {
            match pool.get_mut(i) {
                Some(pipe) => pipe.reset(*cfg),
                None => pool.push(Pipeline::new(*cfg)),
            }
            pool[i].set_profiling(profile);
        }
        let pipes = &mut pool[..cfgs.len()];
        let rs = if let [pipe] = pipes {
            machine.run_decoded(dec, pipe, max_instrs)?
        } else {
            let mut fan = FanOut {
                table: dec.instrs(),
                pipes,
                buf: Vec::with_capacity(CHUNK),
            };
            let rs = machine.run_decoded(dec, &mut fan, max_instrs)?;
            fan.flush();
            rs
        };
        let runs = pool[..cfgs.len()]
            .iter()
            .map(|pipe| (pipe.stats(), pipe.cpi_stack()))
            .collect();
        Ok((rs, runs))
    })
}

/// Runs `program` on a copy of `machine`'s state (the input machine is
/// untouched), streaming the dynamic trace through a [`Pipeline`]
/// configured by `cfg`.
///
/// Returns the architectural statistics (from the emulator) and the
/// timing statistics (from the pipeline).
///
/// # Errors
///
/// Propagates emulation errors ([`EmuError`]).
pub fn simulate(
    program: &Program,
    machine: &Machine,
    cfg: &PipeConfig,
    max_instrs: u64,
) -> Result<(RunStats, PipeStats), EmuError> {
    simulate_decoded(&program.decode(), machine, cfg, max_instrs)
}

/// [`simulate`] for callers that already hold the program's predecoded
/// table, skipping the per-call [`Program::decode`].
///
/// # Errors
///
/// Propagates emulation errors ([`EmuError`]).
pub fn simulate_decoded(
    dec: &Decoded,
    machine: &Machine,
    cfg: &PipeConfig,
    max_instrs: u64,
) -> Result<(RunStats, PipeStats), EmuError> {
    let (rs, (stats, _)) = scratch_run(dec, machine, cfg, max_instrs, false)?;
    Ok((rs, stats))
}

/// [`simulate_decoded`] with cycle accounting enabled: additionally
/// returns the run's [`CpiStack`].  Profiling observes the timestamps the
/// model already computes, so the `PipeStats` are identical to an
/// unprofiled run's (asserted by this crate's tests) at a small
/// throughput cost.
///
/// # Errors
///
/// Propagates emulation errors ([`EmuError`]).
pub fn simulate_decoded_profiled(
    dec: &Decoded,
    machine: &Machine,
    cfg: &PipeConfig,
    max_instrs: u64,
) -> Result<(RunStats, PipeStats, CpiStack), EmuError> {
    let (rs, (stats, cpi)) = scratch_run(dec, machine, cfg, max_instrs, true)?;
    Ok((rs, stats, cpi.expect("profiling was enabled")))
}

/// [`simulate_in`] of one configuration on the per-thread scratch copy of
/// `machine`.
fn scratch_run(
    dec: &Decoded,
    machine: &Machine,
    cfg: &PipeConfig,
    max_instrs: u64,
    profile: bool,
) -> Result<(RunStats, Timed), EmuError> {
    SCRATCH.with(|s| {
        let mut slot = s.borrow_mut();
        let m = match slot.as_mut() {
            Some(m) => {
                m.reset_from(machine);
                m
            }
            None => slot.insert(machine.clone()),
        };
        let (rs, mut runs) = simulate_in(m, dec, std::slice::from_ref(cfg), max_instrs, profile)?;
        Ok((rs, runs.pop().expect("one run per configuration")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdsim_asm::Asm;
    use simdsim_isa::{Cond, Esz, Ext, VOp};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn run(cfg: &PipeConfig, build: impl FnOnce(&mut Asm)) -> PipeStats {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let prog = a.finish();
        let machine = Machine::new(cfg.ext, 1 << 20);
        let (_, stats) = simulate(&prog, &machine, cfg, 10_000_000).unwrap();
        stats
    }

    #[test]
    fn wider_machine_is_faster_on_parallel_code() {
        // Independent ALU ops: 8-way should beat 2-way clearly.
        let body = |a: &mut Asm| {
            let regs: Vec<_> = (0..16).map(|_| a.ireg()).collect();
            for r in &regs {
                a.li(*r, 1);
            }
            for _ in 0..200 {
                for r in &regs {
                    a.addi(*r, *r, 1);
                }
            }
        };
        let s2 = run(&PipeConfig::paper(2, Ext::Mmx64), body);
        let s8 = run(&PipeConfig::paper(8, Ext::Mmx64), body);
        assert!(
            s2.cycles > s8.cycles * 2,
            "2-way {} vs 8-way {}",
            s2.cycles,
            s8.cycles
        );
    }

    #[test]
    fn dependent_chain_limits_ipc() {
        let stats = run(&PipeConfig::paper(8, Ext::Mmx64), |a| {
            let r = a.ireg();
            a.li(r, 0);
            for _ in 0..1000 {
                a.addi(r, r, 1);
            }
        });
        assert!(stats.ipc() < 1.3, "serial chain IPC {}", stats.ipc());
    }

    #[test]
    fn loads_wait_for_memory() {
        let cfg = PipeConfig::paper(2, Ext::Mmx64);
        let stats = run(&cfg, |a| {
            let (p, t) = (a.ireg(), a.ireg());
            a.li(p, 4096);
            // 64 cold loads, each to a fresh line, dependent on the last.
            for _ in 0..64 {
                a.ld(t, p, 0);
                a.add(p, p, t); // fake dependency
                a.addi(p, p, 64);
            }
        });
        // Every second access misses to memory (~500 cycles), the rest hit
        // the 128-byte L2 lines.
        assert!(stats.cycles > 15_000, "cycles {}", stats.cycles);
        assert!(stats.l1.misses >= 64);
    }

    #[test]
    fn branch_mispredicts_counted() {
        let cfg = PipeConfig::paper(2, Ext::Mmx64);
        let stats = run(&cfg, |a| {
            // Data-dependent branch pattern from a pseudo-random register.
            let (x, i, t) = (a.ireg(), a.ireg(), a.ireg());
            a.li(x, 0x9e3779b9);
            a.li(i, 0);
            a.for_loop(i, 500, |a| {
                a.muli(x, x, 1103515245);
                a.addi(x, x, 12345);
                a.srli(t, x, 16);
                a.and(t, t, 1);
                a.if_(Cond::Eq, t, 0, |a| {
                    a.addi(x, x, 7);
                });
            });
        });
        assert!(stats.branches >= 1000);
        assert!(stats.mispredicts > 50, "mispredicts {}", stats.mispredicts);
        assert!(stats.mispredict_ratio() < 0.9);
    }

    #[test]
    fn vector_occupancy_scales_with_vl() {
        // Same number of matrix ops at VL=4 vs VL=16: the latter should
        // take roughly 4x the SIMD execution time.
        let cfg = PipeConfig::paper(2, Ext::Vmmx128);
        let mk = |vl: i32| {
            move |a: &mut Asm| {
                let (m1, m2) = (a.mreg(), a.mreg());
                let p = a.arg(0);
                a.setvl(vl);
                a.mload(m1, p, 16, 16);
                a.mload(m2, p, 16, 16);
                // long dependent chain of full-VL ops
                for _ in 0..300 {
                    a.mop(VOp::Add(Esz::H), m1, m1, m2);
                }
            }
        };
        let s4 = run(&cfg, mk(4));
        let s16 = run(&cfg, mk(16));
        let ratio = s16.cycles as f64 / s4.cycles as f64;
        assert!(ratio > 2.0, "occupancy ratio {ratio}");
    }

    #[test]
    fn store_load_ordering_respected() {
        let cfg = PipeConfig::paper(4, Ext::Mmx64);
        let stats = run(&cfg, |a| {
            let (p, t) = (a.ireg(), a.ireg());
            a.li(p, 8192);
            a.li(t, 42);
            for _ in 0..50 {
                a.sd(t, p, 0);
                a.ld(t, p, 0); // must wait for the store
                a.addi(t, t, 1);
            }
        });
        assert!(stats.instrs > 100);
    }

    /// Profiled run of `build` under `cfg`, via an explicit pipeline so
    /// the pooled thread-local state cannot leak between assertions.
    fn run_profiled(cfg: &PipeConfig, build: impl FnOnce(&mut Asm)) -> (PipeStats, CpiStack) {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let prog = a.finish();
        let dec = prog.decode();
        let mut m = Machine::new(cfg.ext, 1 << 20);
        let mut pipe = Pipeline::new(*cfg);
        pipe.set_profiling(true);
        m.run_decoded(&dec, &mut pipe, 10_000_000).unwrap();
        let stats = pipe.stats();
        let stack = pipe.cpi_stack().expect("profiling enabled");
        (stats, stack)
    }

    fn assert_accounts(stats: &PipeStats, stack: &CpiStack) {
        assert_eq!(stack.cycles, stats.cycles);
        assert_eq!(stack.slots, stack.cycles * stack.way);
        assert_eq!(
            stack.issue_total() + stack.stall_total(),
            stack.slots,
            "CPI stack must account for every commit slot"
        );
        assert_eq!(stack.issue_total(), stats.instrs);
        assert_eq!(stack.class_slots.iter().sum::<u64>(), stats.instrs);
    }

    #[test]
    fn cpi_stack_sums_to_total_slots() {
        // A branchy/memory/dependence mix across all three widths: every
        // slot must be accounted for.
        for way in [2, 4, 8] {
            let cfg = PipeConfig::paper(way, Ext::Mmx64);
            let (stats, stack) = run_profiled(&cfg, |a| {
                let (x, i, t, p) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
                a.li(x, 0x1234_5678);
                a.li(p, 4096);
                a.li(i, 0);
                a.for_loop(i, 200, |a| {
                    a.muli(x, x, 1103515245);
                    a.sd(x, p, 0);
                    a.ld(t, p, 0);
                    a.add(x, x, t);
                    a.srli(t, x, 13);
                    a.if_(Cond::Eq, t, 0, |a| {
                        a.addi(x, x, 7);
                    });
                    a.addi(p, p, 32);
                });
            });
            assert_eq!(stack.way, way as u64);
            assert_accounts(&stats, &stack);
            assert!(stack.stall_total() > 0, "{way}-way run saw no stalls");
        }
    }

    #[test]
    fn profiling_does_not_change_timing() {
        let body = |a: &mut Asm| {
            let (x, i, p, t) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            a.li(x, 0x9e37_79b9);
            a.li(p, 8192);
            a.li(i, 0);
            a.for_loop(i, 300, |a| {
                a.muli(x, x, 1103515245);
                a.ld(t, p, 0);
                a.add(x, x, t);
                a.sd(x, p, 8);
                a.addi(p, p, 64);
            });
        };
        let cfg = PipeConfig::paper(4, Ext::Mmx64);
        let plain = run(&cfg, body);
        let (profiled, stack) = run_profiled(&cfg, body);
        assert_eq!(plain, profiled, "profiling must not perturb timing");
        assert_accounts(&profiled, &stack);
    }

    #[test]
    fn dependence_chain_attributed_to_data_dep() {
        let cfg = PipeConfig::paper(8, Ext::Mmx64);
        let (stats, stack) = run_profiled(&cfg, |a| {
            let r = a.ireg();
            a.li(r, 0);
            for _ in 0..2000 {
                a.addi(r, r, 1);
            }
        });
        assert_accounts(&stats, &stack);
        let dep = stack.stall(StallCause::DataDep, 0);
        assert!(
            dep * 2 > stack.stall_total(),
            "serial chain: data-dep stalls {} of {}",
            dep,
            stack.stall_total()
        );
    }

    #[test]
    fn cold_loads_attributed_to_memory_hierarchy() {
        let cfg = PipeConfig::paper(2, Ext::Mmx64);
        let (stats, stack) = run_profiled(&cfg, |a| {
            let (p, t) = (a.ireg(), a.ireg());
            a.li(p, 4096);
            for _ in 0..64 {
                a.ld(t, p, 0);
                a.add(p, p, t);
                a.addi(p, p, 64);
            }
        });
        assert_accounts(&stats, &stack);
        let mem = stack.stall(StallCause::Memory, 0)
            + stack.stall(StallCause::L2, 0)
            + stack.stall(StallCause::L1, 0);
        assert!(
            mem * 2 > stack.stall_total(),
            "cold-miss chain: memory stalls {} of {}",
            mem,
            stack.stall_total()
        );
        assert!(
            stack.stall(StallCause::Memory, 0) > 0,
            "main-memory misses must surface as Memory stalls"
        );
    }

    /// Stores that miss the L1, each followed by a load of the line the
    /// previous iteration stored: the stores run ahead of commit, so every
    /// cleanup leaves store lines still in flight that the next loads must
    /// wait for.  About 200K instructions, so a run crosses three
    /// 64K-instruction store-line cleanups.
    fn store_load_loop() -> Program {
        let mut a = Asm::new();
        let (x, i, t, p) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
        a.li(x, 0x1234_5678);
        a.li(i, 0);
        a.for_loop(i, 30_000, |a| {
            a.and(p, i, 0x1fff);
            a.slli(p, p, 6);
            a.sd(x, p, 4096);
            a.ld(t, p, 4096 - 64);
            a.addi(x, x, 1);
        });
        a.halt();
        a.finish()
    }

    fn run_with(pipe: &mut Pipeline, prog: &Program) -> (PipeStats, CpiStack) {
        let mut m = Machine::new(pipe.cfg.ext, 1 << 20);
        pipe.set_profiling(true);
        m.run_decoded(&prog.decode(), pipe, 10_000_000).unwrap();
        (pipe.stats(), pipe.cpi_stack().expect("profiling enabled"))
    }

    #[test]
    fn store_epoch_wrap_mid_cell_matches_a_fresh_pipeline() {
        let cfg = PipeConfig::paper(2, Ext::Mmx64);
        let prog = store_load_loop();
        let fresh = run_with(&mut Pipeline::new(cfg), &prog);
        assert!(fresh.0.instrs > 3 * CLEANUP_INTERVAL);

        // Two epochs short of the end: the third cleanup wraps the epoch
        // space mid-cell and settles the table eagerly.
        let mut pipe = Pipeline::new(cfg);
        pipe.epoch = u16::MAX - 2;
        pipe.cell_epoch = pipe.epoch;
        assert_eq!(run_with(&mut pipe, &prog), fresh);
        assert_eq!(pipe.epoch, 1, "the run wrapped the epoch space");
    }

    /// One splitmix64 step: the stream the issue-queue test draws from.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// [`IssueQueue::admit`] on the binary heap the issue queue replaced.
    fn heap_admit(heap: &mut BinaryHeap<Reverse<u64>>, mut dispatch: u64, cap: usize) -> u64 {
        while let Some(&Reverse(t)) = heap.peek() {
            if t <= dispatch {
                heap.pop();
            } else if heap.len() >= cap {
                heap.pop();
                dispatch = dispatch.max(t + 1);
            } else {
                break;
            }
        }
        dispatch
    }

    /// The issue queue against a binary heap, on seeded operation
    /// sequences shaped like `stage_front`/`stage_retire`: a
    /// non-decreasing base dispatch, raises of up to several hundred
    /// cycles, full-queue pops, leave times capped 64 cycles past
    /// dispatch, and a `clear` now and then.  Every step must agree on
    /// the dispatch cycle, the drained count, the length and the minimum.
    #[test]
    fn issue_queue_matches_a_binary_heap() {
        for cap in [1, 16, 24, 36, 255] {
            for case in 0..40 {
                let seed = (cap as u64) << 32 | case;
                let mut rng = seed;
                let mut iq = IssueQueue::default();
                let mut heap = BinaryHeap::new();
                let mut base = 0;
                for step in 0..3000 {
                    let at = format!("seed {seed:#x} (iq {cap}), step {step}");
                    base += mix(&mut rng) % 3;
                    let raise = match mix(&mut rng) % 16 {
                        0 => mix(&mut rng) % 500,
                        1..=3 => mix(&mut rng) % 20,
                        _ => 0,
                    };
                    if mix(&mut rng).is_multiple_of(700) {
                        iq.clear();
                        heap.clear();
                    }
                    let (iq_len, heap_len) = (iq.len(), heap.len());
                    let dispatch = iq.admit(base + raise, cap);
                    assert_eq!(dispatch, heap_admit(&mut heap, base + raise, cap), "{at}");
                    assert_eq!(iq_len - iq.len(), heap_len - heap.len(), "{at}: drained");
                    let leave = match mix(&mut rng) % 4 {
                        0 => dispatch,
                        1 => dispatch + mix(&mut rng) % 4,
                        2 => dispatch + mix(&mut rng) % 40,
                        _ => dispatch + mix(&mut rng) % 600,
                    };
                    iq.push(leave.min(dispatch + 64));
                    heap.push(Reverse(leave.min(dispatch + 64)));
                    assert_eq!(iq.len(), heap.len(), "{at}: length");
                    assert!(iq.len() <= cap, "{at}: {} entries", iq.len());
                    let min = heap.peek().map(|r| r.0);
                    assert_eq!(iq.buf.get(iq.head).copied(), min, "{at}: minimum");
                }
                let mut rest = heap.into_sorted_vec();
                rest.reverse();
                let rest: Vec<u64> = rest.into_iter().map(|r| r.0).collect();
                assert_eq!(
                    iq.buf[iq.head..],
                    rest,
                    "seed {seed:#x} (iq {cap}): contents"
                );
            }
        }
    }

    #[test]
    fn ipc_bounded_by_width() {
        let cfg = PipeConfig::paper(2, Ext::Mmx64);
        let stats = run(&cfg, |a| {
            let regs: Vec<_> = (0..8).map(|_| a.ireg()).collect();
            for r in &regs {
                a.li(*r, 1);
            }
            for _ in 0..500 {
                for r in &regs {
                    a.addi(*r, *r, 1);
                }
            }
        });
        assert!(stats.ipc() <= 2.05, "IPC {} exceeds width", stats.ipc());
        assert!(
            stats.ipc() > 1.2,
            "IPC {} too low for parallel code",
            stats.ipc()
        );
    }
}
