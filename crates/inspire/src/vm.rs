//! The register-bytecode virtual machine.
//!
//! Functionally executes compiled kernels over host buffers, exactly as an
//! OpenCL device would run the kernel body for each global id. While
//! executing it counts basic-block executions; dot multiplying the block
//! counters with the per-block static histograms yields exact dynamic
//! operation counts at a cost of one increment per block.
//!
//! Two engines share the bytecode semantics, each with exactly one
//! instruction walk:
//! - the **scalar engine** ([`Vm::run_range_scalar`]) interprets one
//!   work-item at a time by matching on the [`Instr`] enum of each block
//!   — the reference implementation;
//! - the **lane engine** ([`Vm::run_range_lanes`], `vm_batch`)
//!   executes batches of up to [`LANES`] work-items in lockstep over
//!   structure-of-arrays register files, walking the function's
//!   pre-decoded op array and handling divergent branches with masked
//!   SIMT execution and a post-dominator reconvergence stack.
//!
//! The public entry points ([`Vm::run_range`], [`Vm::run_sampled`],
//! [`Vm::run_items`]) dispatch to the lane engine for anything beyond a
//! handful of items; the differential test suite keeps the two engines
//! bit-identical on buffers, counters, and sample statistics. Every entry
//! rejects work-items outside the launch's NDRange with
//! [`VmError::OutsideNdRange`] before executing anything.
//!
//! Every entry runs against [`LaunchBuffers`]: the caller's own buffers,
//! or a copy-on-write [`Scratch`] view for probes whose stores must not be
//! observed. Both engines reach either through one accessor, [`Mem`].

use std::ops::Range;

use crate::bytecode::{
    CmpOp, FBinOp, Function, IBinOp, Instr, MathFn1, MathFn2, OpClass, Terminator, N_OP_CLASSES,
};
use crate::error::VmError;
use crate::ir::{NdRange, ParamKind, ScalarType};
use crate::vm_batch::{CountSink, LaneEngine};

pub use crate::vm_mem::{LaunchBuffers, Mem, Scratch};

pub use crate::vm_batch::{lane_tier, LANES};

/// A typed host buffer, the VM's model of an OpenCL `cl_mem` object.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    F32(Vec<f32>),
    I32(Vec<i32>),
    U32(Vec<u32>),
}

impl BufferData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            BufferData::F32(v) => v.len(),
            BufferData::I32(v) => v.len(),
            BufferData::U32(v) => v.len(),
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.elem_bytes()
    }

    /// Bytes per element of this buffer's scalar type. Every current
    /// variant is 4 bytes wide, but transfer planning must ask the buffer
    /// rather than hardcode the width (see `runtime`'s `transfer_bytes`).
    pub fn elem_bytes(&self) -> usize {
        match self {
            BufferData::F32(_) => std::mem::size_of::<f32>(),
            BufferData::I32(_) => std::mem::size_of::<i32>(),
            BufferData::U32(_) => std::mem::size_of::<u32>(),
        }
    }

    /// Element scalar type.
    pub fn elem_type(&self) -> ScalarType {
        match self {
            BufferData::F32(_) => ScalarType::Float,
            BufferData::I32(_) => ScalarType::Int,
            BufferData::U32(_) => ScalarType::UInt,
        }
    }

    /// View as `f32` slice if this is a float buffer.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            BufferData::F32(v) => Some(v),
            _ => None,
        }
    }

    /// View as `i32` slice if this is an int buffer.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            BufferData::I32(v) => Some(v),
            _ => None,
        }
    }

    /// View as `u32` slice if this is a uint buffer.
    pub fn as_u32(&self) -> Option<&[u32]> {
        match self {
            BufferData::U32(v) => Some(v),
            _ => None,
        }
    }

    /// Allocate a zero-filled buffer of the same type/length as `self`.
    pub fn zeros_like(&self) -> BufferData {
        match self {
            BufferData::F32(v) => BufferData::F32(vec![0.0; v.len()]),
            BufferData::I32(v) => BufferData::I32(vec![0; v.len()]),
            BufferData::U32(v) => BufferData::U32(vec![0; v.len()]),
        }
    }
}

/// A kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    Int(i32),
    UInt(u32),
    Float(f32),
    /// Index into the buffer slice passed to the run call.
    Buffer(usize),
}

/// Per-run execution counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Executions of each basic block.
    pub block_counts: Vec<u64>,
    /// Work-items executed.
    pub items: u64,
}

impl Counters {
    /// Fresh counters for `f`.
    pub fn new(f: &Function) -> Self {
        Self {
            block_counts: vec![0; f.blocks.len()],
            items: 0,
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        assert_eq!(self.block_counts.len(), other.block_counts.len());
        for (a, b) in self.block_counts.iter_mut().zip(&other.block_counts) {
            *a += b;
        }
        self.items += other.items;
    }
}

/// Exact dynamic operation counts derived from block counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynamicCounts {
    /// Dynamic executions per [`OpClass`].
    pub per_class: [u64; N_OP_CLASSES],
    /// Elements loaded per kernel parameter.
    pub buf_reads: Vec<u64>,
    /// Elements stored per kernel parameter.
    pub buf_writes: Vec<u64>,
    /// Work-items covered by these counts.
    pub items: u64,
}

impl DynamicCounts {
    /// Total ALU operations (int + float + transcendental).
    pub fn alu_ops(&self) -> u64 {
        self.per_class[OpClass::IntOp as usize]
            + self.per_class[OpClass::FloatOp as usize]
            + self.per_class[OpClass::Transcendental as usize]
    }

    /// Total dynamic instructions of every class.
    pub fn total_ops(&self) -> u64 {
        self.per_class.iter().sum()
    }

    /// Total bytes moved by loads and stores (4-byte elements).
    pub fn mem_bytes(&self) -> u64 {
        4 * (self.per_class[OpClass::Load as usize] + self.per_class[OpClass::Store as usize])
    }

    /// Scale all counts by `factor` (used to extrapolate sampled runs).
    pub fn scaled(&self, factor: f64) -> DynamicCounts {
        let s = |v: u64| (v as f64 * factor).round() as u64;
        DynamicCounts {
            per_class: self.per_class.map(s),
            buf_reads: self.buf_reads.iter().map(|&v| s(v)).collect(),
            buf_writes: self.buf_writes.iter().map(|&v| s(v)).collect(),
            items: s(self.items),
        }
    }
}

/// Aggregate block counters into dynamic operation counts.
pub fn dynamic_counts(f: &Function, c: &Counters) -> DynamicCounts {
    let n_params = f.params.len();
    let mut out = DynamicCounts {
        per_class: [0; N_OP_CLASSES],
        buf_reads: vec![0; n_params],
        buf_writes: vec![0; n_params],
        items: c.items,
    };
    for (block, &count) in f.blocks.iter().zip(&c.block_counts) {
        if count == 0 {
            continue;
        }
        for (cls, &n) in block.histo.classes.iter().enumerate() {
            out.per_class[cls] += count * u64::from(n);
        }
        for (p, &n) in block.histo.buf_reads.iter().enumerate() {
            out.buf_reads[p] += count * u64::from(n);
        }
        for (p, &n) in block.histo.buf_writes.iter().enumerate() {
            out.buf_writes[p] += count * u64::from(n);
        }
    }
    out
}

/// Default per-work-item instruction budget.
pub const DEFAULT_STEP_LIMIT: u64 = 200_000_000;

/// Runs of at most this many work-items stay on the scalar engine: the
/// lane engine's register-file broadcast costs more than interpreting a
/// couple of items outright. Both engines produce identical results, so
/// the cutoff is purely a performance choice.
const SCALAR_CUTOFF_ITEMS: usize = 8;

/// Numerically stable online mean/variance (Welford's algorithm).
///
/// The naive `sum_sq/n - mean²` form catastrophically cancels for large
/// per-item op counts (both terms can exceed 1e18 while their difference
/// is tiny); Welford keeps full precision at any magnitude.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`/n`, matching the divergence convention).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// Coefficient of variation: `stddev / mean`, 0 for a non-positive
    /// mean.
    pub fn cv(&self) -> f64 {
        if self.mean > 0.0 {
            self.population_variance().sqrt() / self.mean
        } else {
            0.0
        }
    }
}

/// The virtual machine. Reusable across runs; holds only register state.
#[derive(Debug, Clone)]
pub struct Vm {
    pub(crate) iregs: Vec<i64>,
    pub(crate) fregs: Vec<f64>,
    /// Maximum instructions one work-item may execute (runaway-loop guard).
    pub step_limit: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Create a VM with the default step limit.
    pub fn new() -> Self {
        Self {
            iregs: Vec::new(),
            fregs: Vec::new(),
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Validate `args` against the kernel signature and buffer types.
    pub fn check_args(f: &Function, args: &[ArgValue], bufs: &[BufferData]) -> Result<(), VmError> {
        if args.len() != f.params.len() {
            return Err(VmError::ArgumentMismatch(format!(
                "kernel `{}` expects {} arguments, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        for (i, (p, a)) in f.params.iter().zip(args).enumerate() {
            match (p.kind, a) {
                (ParamKind::Scalar(ScalarType::Int), ArgValue::Int(_))
                | (ParamKind::Scalar(ScalarType::UInt), ArgValue::UInt(_))
                | (ParamKind::Scalar(ScalarType::Float), ArgValue::Float(_)) => {}
                (ParamKind::Buffer { elem, .. }, ArgValue::Buffer(b)) => {
                    let Some(buf) = bufs.get(*b) else {
                        return Err(VmError::ArgumentMismatch(format!(
                            "argument {i}: buffer index {b} out of range"
                        )));
                    };
                    if buf.elem_type() != elem {
                        return Err(VmError::ArgumentMismatch(format!(
                            "argument {i}: buffer element type {} does not match parameter type {}",
                            buf.elem_type().name(),
                            elem.name()
                        )));
                    }
                }
                _ => {
                    return Err(VmError::ArgumentMismatch(format!(
                        "argument {i} does not match the kernel signature"
                    )))
                }
            }
        }
        Ok(())
    }

    fn bind_scalars(&mut self, f: &Function, args: &[ArgValue]) {
        self.iregs.clear();
        self.iregs.resize(f.n_iregs as usize, 0);
        self.fregs.clear();
        self.fregs.resize(f.n_fregs as usize, 0.0);
        for (p, a) in f.params.iter().zip(args) {
            match (p.kind, a) {
                (ParamKind::Scalar(ScalarType::Int), ArgValue::Int(v)) => {
                    self.iregs[p.reg as usize] = i64::from(*v)
                }
                (ParamKind::Scalar(ScalarType::UInt), ArgValue::UInt(v)) => {
                    self.iregs[p.reg as usize] = i64::from(*v)
                }
                (ParamKind::Scalar(ScalarType::Float), ArgValue::Float(v)) => {
                    self.fregs[p.reg as usize] = f64::from(*v)
                }
                _ => {}
            }
        }
    }

    /// Map buffer-parameter positions to indices into `bufs`.
    fn buffer_map(f: &Function, args: &[ArgValue]) -> Vec<usize> {
        f.params
            .iter()
            .zip(args)
            .map(|(p, a)| match (p.kind, a) {
                (ParamKind::Buffer { .. }, ArgValue::Buffer(b)) => *b,
                _ => usize::MAX,
            })
            .collect()
    }

    /// Validate a launch and set up the scalar register state; returns
    /// the buffer map. Every run entry starts here, after checking its
    /// work-items lie inside the NDRange: an item outside it is not part
    /// of the launch, and would see a global id the kernel's own guards
    /// (written against `get_global_size`) never expect.
    pub(crate) fn start_launch(
        &mut self,
        f: &Function,
        args: &[ArgValue],
        bufs: &[BufferData],
    ) -> Result<Vec<usize>, VmError> {
        Self::check_args(f, args, bufs)?;
        self.bind_scalars(f, args);
        Ok(Self::buffer_map(f, args))
    }

    /// Reject a split range reaching past the NDRange's split extent.
    fn check_split_range(nd: &NdRange, split_range: &Range<usize>) -> Result<(), VmError> {
        if split_range.end > nd.split_extent() {
            return Err(VmError::OutsideNdRange {
                dim: nd.split_dim(),
                index: split_range.end - 1,
                size: nd.split_extent(),
            });
        }
        Ok(())
    }

    /// Reject any explicit work-item outside the global size.
    fn check_items(gids: &[[usize; 3]], gsize: [usize; 3]) -> Result<(), VmError> {
        for g in gids {
            if let Some(dim) = (0..3).find(|&d| g[d] >= gsize[d]) {
                return Err(VmError::OutsideNdRange {
                    dim,
                    index: g[dim],
                    size: gsize[dim],
                });
            }
        }
        Ok(())
    }

    /// Execute every work-item whose split-dimension coordinate lies in
    /// `split_range`, in row-major order. Returns the block counters.
    ///
    /// Dispatches to the lane-batched engine; tiny runs stay scalar. Both
    /// engines are bit-identical for race-free kernels.
    pub fn run_range(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
    ) -> Result<Counters, VmError> {
        if split_range.len() * nd.items_per_slice() <= SCALAR_CUTOFF_ITEMS {
            self.run_range_scalar(f, nd, split_range, args, bufs)
        } else {
            self.run_range_lanes(f, nd, split_range, args, bufs)
        }
    }

    /// [`Vm::run_range`] on the scalar reference engine: one work-item at
    /// a time, in item order.
    pub fn run_range_scalar(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
    ) -> Result<Counters, VmError> {
        let total = split_range.len() * nd.items_per_slice();
        self.exec_scalar(f, nd, &split_range, args, bufs, total, |k| k, None)
    }

    /// [`Vm::run_range`] on the lane-batched engine: batches of up to
    /// [`LANES`] consecutive work-items execute each instruction in
    /// lockstep (see the `vm_batch` module).
    pub fn run_range_lanes(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
    ) -> Result<Counters, VmError> {
        let total = split_range.len() * nd.items_per_slice();
        self.exec_lanes(f, nd, &split_range, args, bufs, total, |k| k, None)
    }

    /// Execute a deterministic stratified sample of at most `max_items`
    /// work-items from the given split range, returning the counters (for
    /// extrapolation) and the per-item total-op statistics used to estimate
    /// control-flow divergence.
    ///
    /// The sampled items *do* store to `bufs`. When their results must not
    /// be observed, run them on a [`Scratch`] view of the buffers: it
    /// copies only the buffers the items store to.
    pub fn run_sampled(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
        max_items: usize,
    ) -> Result<SampleResult, VmError> {
        let chunk_items = split_range.len() * nd.items_per_slice();
        if chunk_items.min(max_items.max(1)) <= SCALAR_CUTOFF_ITEMS {
            self.run_sampled_scalar(f, nd, split_range, args, bufs, max_items)
        } else {
            self.run_sampled_lanes(f, nd, split_range, args, bufs, max_items)
        }
    }

    /// [`Vm::run_sampled`] on the scalar reference engine.
    pub fn run_sampled_scalar(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
        max_items: usize,
    ) -> Result<SampleResult, VmError> {
        let chunk_items = split_range.len() * nd.items_per_slice();
        let n = chunk_items.min(max_items.max(1));
        let mut stats = OnlineStats::default();
        let index = |k| sample_index(k, n, chunk_items);
        let counters =
            self.exec_scalar(f, nd, &split_range, args, bufs, n, index, Some(&mut stats))?;
        Ok(SampleResult::new(counters, n, chunk_items, &stats))
    }

    /// [`Vm::run_sampled`] on the lane-batched engine.
    pub fn run_sampled_lanes(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
        max_items: usize,
    ) -> Result<SampleResult, VmError> {
        let chunk_items = split_range.len() * nd.items_per_slice();
        let n = chunk_items.min(max_items.max(1));
        let mut stats = OnlineStats::default();
        let index = |k| sample_index(k, n, chunk_items);
        let counters =
            self.exec_lanes(f, nd, &split_range, args, bufs, n, index, Some(&mut stats))?;
        Ok(SampleResult::new(counters, n, chunk_items, &stats))
    }

    /// The scalar loop behind [`Vm::run_range_scalar`] and
    /// [`Vm::run_sampled_scalar`]: executes `n` work-items of the split
    /// range one at a time, item `k` at linear index `index(k)`
    /// (row-major from the range start), folding each item's step count
    /// into `stats` when given.
    #[allow(clippy::too_many_arguments)]
    fn exec_scalar(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: &Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
        n: usize,
        index: impl Fn(usize) -> usize,
        mut stats: Option<&mut OnlineStats>,
    ) -> Result<Counters, VmError> {
        Self::check_split_range(nd, split_range)?;
        let mut mem = bufs.mem();
        let bmap = self.start_launch(f, args, mem.layout())?;
        let mut counters = Counters::new(f);
        let gsize = [nd.dim(0), nd.dim(1), nd.dim(2)];
        let (inner, split_dim) = (nd.items_per_slice(), nd.split_dim());
        for k in 0..n {
            let gid = gid_at(index(k), split_range.start, inner, split_dim, gsize);
            let steps = self.exec_item(f, gid, gsize, &bmap, &mut mem, &mut counters)?;
            if let Some(stats) = stats.as_deref_mut() {
                stats.push(steps as f64);
            }
        }
        Ok(counters)
    }

    /// The lane-engine twin of [`Vm::exec_scalar`]: the same items, in
    /// batches of up to [`LANES`].
    #[allow(clippy::too_many_arguments)]
    fn exec_lanes(
        &mut self,
        f: &Function,
        nd: &NdRange,
        split_range: &Range<usize>,
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
        n: usize,
        index: impl Fn(usize) -> usize,
        mut stats: Option<&mut OnlineStats>,
    ) -> Result<Counters, VmError> {
        Self::check_split_range(nd, split_range)?;
        let mut mem = bufs.mem();
        let bmap = self.start_launch(f, args, mem.layout())?;
        let mut counters = Counters::new(f);
        let gsize = [nd.dim(0), nd.dim(1), nd.dim(2)];
        let (inner, split_dim) = (nd.items_per_slice(), nd.split_dim());
        let mut engine = LaneEngine::new(f, self);
        let mut gids = [[0usize; 3]; LANES];
        let mut done = 0usize;
        while done < n {
            let bn = LANES.min(n - done);
            for (k, gid) in gids[..bn].iter_mut().enumerate() {
                *gid = gid_at(index(done + k), split_range.start, inner, split_dim, gsize);
            }
            counters.items += bn as u64;
            engine.exec_batch(
                f,
                &gids[..bn],
                gsize,
                &bmap,
                &mut mem,
                CountSink::Aggregate(&mut counters),
            )?;
            if let Some(stats) = stats.as_deref_mut() {
                for &steps in &engine.lane_steps()[..bn] {
                    stats.push(steps as f64);
                }
            }
            done += bn;
        }
        Ok(counters)
    }

    /// Execute an explicit list of work-items (lane-batched), returning
    /// one [`Counters`] per item. This is the launch-profiler's entry
    /// point: it turns hundreds of single-item probe executions into a
    /// handful of lockstep batches.
    ///
    /// Each returned counter set covers exactly one work-item
    /// (`items == 1`), bit-identical to running that item alone on the
    /// scalar engine.
    pub fn run_items(
        &mut self,
        f: &Function,
        nd: &NdRange,
        gids: &[[usize; 3]],
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
    ) -> Result<Vec<Counters>, VmError> {
        let gsize = [nd.dim(0), nd.dim(1), nd.dim(2)];
        Self::check_items(gids, gsize)?;
        let mut mem = bufs.mem();
        let bmap = self.start_launch(f, args, mem.layout())?;
        let mut engine = LaneEngine::new(f, self);
        let mut per_item: Vec<Counters> = gids.iter().map(|_| Counters::new(f)).collect();
        for (batch, counters) in gids.chunks(LANES).zip(per_item.chunks_mut(LANES)) {
            for c in counters.iter_mut() {
                c.items = 1;
            }
            engine.exec_batch(
                f,
                batch,
                gsize,
                &bmap,
                &mut mem,
                CountSink::PerLane(counters),
            )?;
        }
        Ok(per_item)
    }

    /// Scalar reference for [`Vm::run_items`].
    pub fn run_items_scalar(
        &mut self,
        f: &Function,
        nd: &NdRange,
        gids: &[[usize; 3]],
        args: &[ArgValue],
        bufs: &mut (impl LaunchBuffers + ?Sized),
    ) -> Result<Vec<Counters>, VmError> {
        let gsize = [nd.dim(0), nd.dim(1), nd.dim(2)];
        Self::check_items(gids, gsize)?;
        let mut mem = bufs.mem();
        let bmap = self.start_launch(f, args, mem.layout())?;
        gids.iter()
            .map(|&gid| {
                let mut c = Counters::new(f);
                self.exec_item(f, gid, gsize, &bmap, &mut mem, &mut c)?;
                Ok(c)
            })
            .collect()
    }

    /// Execute one work-item from block 0 to `Ret` with the current
    /// register state, returning its step count (checked against the
    /// step limit after every block).
    fn exec_item(
        &mut self,
        f: &Function,
        gid: [usize; 3],
        gsize: [usize; 3],
        bmap: &[usize],
        mem: &mut Mem<'_>,
        counters: &mut Counters,
    ) -> Result<u64, VmError> {
        counters.items += 1;
        let mut steps: u64 = 0;
        let mut block = 0usize;
        loop {
            counters.block_counts[block] += 1;
            let b = &f.blocks[block];
            steps += b.step_cost();
            if steps > self.step_limit {
                return Err(VmError::StepLimitExceeded {
                    limit: self.step_limit,
                });
            }
            for ins in &b.instrs {
                self.exec_instr(ins, gid, gsize, bmap, mem)?;
            }
            match b.term {
                Terminator::Jump(t) => block = t as usize,
                Terminator::Branch { cond, then, els } => {
                    block = if self.iregs[cond as usize] != 0 {
                        then as usize
                    } else {
                        els as usize
                    };
                }
                Terminator::BranchCmp {
                    op,
                    float,
                    a,
                    b,
                    then,
                    els,
                } => {
                    let taken = if float {
                        cmp(op, &self.fregs[a as usize], &self.fregs[b as usize])
                    } else {
                        cmp(op, &self.iregs[a as usize], &self.iregs[b as usize])
                    };
                    block = if taken { then as usize } else { els as usize };
                }
                Terminator::Ret => return Ok(steps),
            }
        }
    }

    /// Execute one instruction for the current work-item.
    #[inline]
    fn exec_instr(
        &mut self,
        ins: &Instr,
        gid: [usize; 3],
        gsize: [usize; 3],
        bmap: &[usize],
        mem: &mut Mem<'_>,
    ) -> Result<(), VmError> {
        use Instr::*;
        match *ins {
            ConstI { dst, v } => self.iregs[dst as usize] = v,
            ConstF { dst, v } => self.fregs[dst as usize] = v,
            MovI { dst, src } => self.iregs[dst as usize] = self.iregs[src as usize],
            MovF { dst, src } => self.fregs[dst as usize] = self.fregs[src as usize],
            IBin {
                op,
                dst,
                a,
                b,
                unsigned,
            } => {
                let x = self.iregs[a as usize];
                let y = self.iregs[b as usize];
                self.iregs[dst as usize] = int_bin(op, x, y, unsigned)?;
            }
            IBinImm {
                op,
                dst,
                a,
                imm,
                unsigned,
            } => {
                let x = self.iregs[a as usize];
                self.iregs[dst as usize] = int_bin(op, x, imm, unsigned)?;
            }
            FBin { op, dst, a, b } => {
                let x = self.fregs[a as usize];
                let y = self.fregs[b as usize];
                self.fregs[dst as usize] = match op {
                    FBinOp::Add => x + y,
                    FBinOp::Sub => x - y,
                    FBinOp::Mul => x * y,
                    FBinOp::Div => x / y,
                };
            }
            CmpI { op, dst, a, b } => {
                let x = self.iregs[a as usize];
                let y = self.iregs[b as usize];
                self.iregs[dst as usize] = i64::from(cmp(op, &x, &y));
            }
            CmpF { op, dst, a, b } => {
                let x = self.fregs[a as usize];
                let y = self.fregs[b as usize];
                let r = match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                };
                self.iregs[dst as usize] = i64::from(r);
            }
            NegI { dst, a, unsigned } => {
                let v = self.iregs[a as usize];
                self.iregs[dst as usize] = wrap32(0i64.wrapping_sub(v), unsigned);
            }
            NegF { dst, a } => self.fregs[dst as usize] = -self.fregs[a as usize],
            NotI { dst, a } => self.iregs[dst as usize] = i64::from(self.iregs[a as usize] == 0),
            BitNotI { dst, a, unsigned } => {
                self.iregs[dst as usize] = wrap32(!self.iregs[a as usize], unsigned);
            }
            CastIF { dst, a } => self.fregs[dst as usize] = self.iregs[a as usize] as f64,
            CastFI { dst, a, unsigned } => {
                let v = self.fregs[a as usize];
                self.iregs[dst as usize] = if unsigned {
                    i64::from(v as u32)
                } else {
                    i64::from(v as i32)
                };
            }
            CastII {
                dst,
                a,
                to_unsigned,
            } => {
                self.iregs[dst as usize] = wrap32(self.iregs[a as usize], to_unsigned);
            }
            Math1 { f, dst, a } => {
                let x = self.fregs[a as usize];
                self.fregs[dst as usize] = match f {
                    MathFn1::Sqrt => x.sqrt(),
                    MathFn1::Rsqrt => 1.0 / x.sqrt(),
                    MathFn1::Exp => x.exp(),
                    MathFn1::Log => x.ln(),
                    MathFn1::Sin => x.sin(),
                    MathFn1::Cos => x.cos(),
                    MathFn1::Tan => x.tan(),
                    MathFn1::Fabs => x.abs(),
                    MathFn1::Floor => x.floor(),
                    MathFn1::Ceil => x.ceil(),
                };
            }
            Math2 { f, dst, a, b } => {
                let x = self.fregs[a as usize];
                let y = self.fregs[b as usize];
                self.fregs[dst as usize] = match f {
                    MathFn2::Pow => x.powf(y),
                    MathFn2::Fmin => x.min(y),
                    MathFn2::Fmax => x.max(y),
                    MathFn2::Fmod => x % y,
                };
            }
            IMin { dst, a, b } => {
                self.iregs[dst as usize] = self.iregs[a as usize].min(self.iregs[b as usize])
            }
            IMax { dst, a, b } => {
                self.iregs[dst as usize] = self.iregs[a as usize].max(self.iregs[b as usize])
            }
            IAbs { dst, a } => {
                self.iregs[dst as usize] = wrap32(self.iregs[a as usize].wrapping_abs(), false)
            }
            LoadF { dst, buf, idx } => {
                let i = self.iregs[idx as usize];
                let b = mem.load(bmap[buf as usize]);
                let BufferData::F32(v) = b else {
                    unreachable!("type-checked load");
                };
                let Some(val) = usize::try_from(i).ok().and_then(|i| v.get(i)) else {
                    return Err(VmError::OutOfBounds {
                        buffer: buf as usize,
                        index: i,
                        len: v.len(),
                    });
                };
                self.fregs[dst as usize] = f64::from(*val);
            }
            LoadI { dst, buf, idx } => {
                let i = self.iregs[idx as usize];
                let b = mem.load(bmap[buf as usize]);
                let val = match b {
                    BufferData::I32(v) => usize::try_from(i)
                        .ok()
                        .and_then(|i| v.get(i))
                        .map(|&x| i64::from(x)),
                    BufferData::U32(v) => usize::try_from(i)
                        .ok()
                        .and_then(|i| v.get(i))
                        .map(|&x| i64::from(x)),
                    BufferData::F32(_) => unreachable!("type-checked load"),
                };
                let Some(val) = val else {
                    return Err(VmError::OutOfBounds {
                        buffer: buf as usize,
                        index: i,
                        len: b.len(),
                    });
                };
                self.iregs[dst as usize] = val;
            }
            StoreF { buf, idx, src } => {
                let i = self.iregs[idx as usize];
                let val = self.fregs[src as usize] as f32;
                let b = mem.store(bmap[buf as usize]);
                let len = b.len();
                let BufferData::F32(v) = b else {
                    unreachable!("type-checked store");
                };
                let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                    return Err(VmError::OutOfBounds {
                        buffer: buf as usize,
                        index: i,
                        len,
                    });
                };
                *slot = val;
            }
            StoreI { buf, idx, src } => {
                let i = self.iregs[idx as usize];
                let val = self.iregs[src as usize];
                let b = mem.store(bmap[buf as usize]);
                let len = b.len();
                match b {
                    BufferData::I32(v) => {
                        let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                            return Err(VmError::OutOfBounds {
                                buffer: buf as usize,
                                index: i,
                                len,
                            });
                        };
                        *slot = val as i32;
                    }
                    BufferData::U32(v) => {
                        let Some(slot) = usize::try_from(i).ok().and_then(|i| v.get_mut(i)) else {
                            return Err(VmError::OutOfBounds {
                                buffer: buf as usize,
                                index: i,
                                len,
                            });
                        };
                        *slot = val as u32;
                    }
                    BufferData::F32(_) => unreachable!("type-checked store"),
                }
            }
            GlobalId { dst, dim } => self.iregs[dst as usize] = gid[dim as usize] as i64,
            GlobalSize { dst, dim } => self.iregs[dst as usize] = gsize[dim as usize] as i64,
        }
        Ok(())
    }
}

/// Global id of the `li`-th work-item (row-major) of a chunk starting at
/// `split_start` in the split dimension.
#[inline]
fn gid_at(
    li: usize,
    split_start: usize,
    inner: usize,
    split_dim: usize,
    gsize: [usize; 3],
) -> [usize; 3] {
    let mut gid = [0usize; 3];
    gid[split_dim] = split_start + li / inner;
    // Decompose the inner linear index over the non-split dims.
    let mut rem = li % inner;
    for d in 0..split_dim {
        gid[d] = rem % gsize[d];
        rem /= gsize[d];
    }
    gid
}

/// Chunk-linear index of the `j`-th of `n` evenly spaced samples over
/// `chunk_items` work-items.
#[inline]
fn sample_index(j: usize, n: usize, chunk_items: usize) -> usize {
    if n == chunk_items {
        j
    } else {
        (j as u128 * chunk_items as u128 / n as u128) as usize
    }
}

/// Result of a sampled execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleResult {
    /// Block counters accumulated over the sampled items.
    pub counters: Counters,
    /// Items actually executed.
    pub sampled_items: u64,
    /// Items in the full chunk the sample represents.
    pub total_items: u64,
    /// Mean dynamic instructions per sampled item.
    pub mean_ops_per_item: f64,
    /// Coefficient of variation of per-item instruction counts — the
    /// dynamic divergence estimate (0 for uniform control flow).
    pub ops_cv: f64,
}

impl SampleResult {
    /// The result of sampling `n` of a chunk's `chunk_items` items.
    fn new(counters: Counters, n: usize, chunk_items: usize, stats: &OnlineStats) -> Self {
        Self {
            counters,
            sampled_items: n as u64,
            total_items: chunk_items as u64,
            mean_ops_per_item: stats.mean(),
            ops_cv: stats.cv(),
        }
    }

    /// Extrapolate the sampled counters to the full chunk.
    pub fn extrapolated(&self, f: &Function) -> DynamicCounts {
        let d = dynamic_counts(f, &self.counters);
        if self.sampled_items == 0 {
            return d;
        }
        d.scaled(self.total_items as f64 / self.sampled_items as f64)
    }
}

pub(crate) fn cmp<T: PartialOrd>(op: CmpOp, x: &T, y: &T) -> bool {
    match op {
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
    }
}

/// Canonicalize a 64-bit value to 32-bit semantics (sign- or zero-extend).
#[inline]
pub(crate) fn wrap32(v: i64, unsigned: bool) -> i64 {
    if unsigned {
        i64::from(v as u32)
    } else {
        i64::from(v as i32)
    }
}

pub(crate) fn int_bin(op: IBinOp, x: i64, y: i64, unsigned: bool) -> Result<i64, VmError> {
    let r = match op {
        IBinOp::Add => x.wrapping_add(y),
        IBinOp::Sub => x.wrapping_sub(y),
        IBinOp::Mul => x.wrapping_mul(y),
        IBinOp::Div => {
            if y == 0 {
                return Err(VmError::DivisionByZero);
            }
            // Values are canonical 32-bit; i64 division cannot overflow
            // except i32::MIN / -1, which wraps like C on x86 would trap —
            // we define it to wrap.
            x.wrapping_div(y)
        }
        IBinOp::Rem => {
            if y == 0 {
                return Err(VmError::DivisionByZero);
            }
            x.wrapping_rem(y)
        }
        IBinOp::And => x & y,
        IBinOp::Or => x | y,
        IBinOp::Xor => x ^ y,
        IBinOp::Shl => {
            // OpenCL defines shifts modulo the bit width.
            let s = (y & 31) as u32;
            x.wrapping_shl(s)
        }
        IBinOp::Shr => {
            let s = (y & 31) as u32;
            if unsigned {
                // Value is zero-extended (non-negative): logical shift.
                ((x as u64) >> s) as i64
            } else {
                (x as i32 >> s) as i64
            }
        }
    };
    Ok(wrap32(r, unsigned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn run1d(src: &str, n: usize, args: Vec<ArgValue>, bufs: &mut [BufferData]) -> Counters {
        let k = compile(src).unwrap();
        let mut vm = Vm::new();
        vm.run_range(&k.bytecode, &NdRange::d1(n), 0..n, &args, bufs)
            .unwrap()
    }

    #[test]
    fn vec_add_computes() {
        let src = "kernel void k(global const float* a, global const float* b,
                                 global float* c, int n) {
            int i = get_global_id(0);
            if (i < n) { c[i] = a[i] + b[i]; }
        }";
        let mut bufs = vec![
            BufferData::F32(vec![1.0, 2.0, 3.0]),
            BufferData::F32(vec![0.5, 0.25, 0.125]),
            BufferData::F32(vec![0.0; 3]),
        ];
        run1d(
            src,
            3,
            vec![
                ArgValue::Buffer(0),
                ArgValue::Buffer(1),
                ArgValue::Buffer(2),
                ArgValue::Int(3),
            ],
            &mut bufs,
        );
        assert_eq!(bufs[2].as_f32().unwrap(), &[1.5, 2.25, 3.125]);
    }

    #[test]
    fn loop_sum_matches_reference() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float s = 0.0;
            for (int j = 0; j <= i; j++) { s += a[j]; }
            o[i] = s;
        }";
        let a: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let mut bufs = vec![BufferData::F32(a.clone()), BufferData::F32(vec![0.0; 8])];
        run1d(
            src,
            8,
            vec![ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Int(8)],
            &mut bufs,
        );
        let out = bufs[1].as_f32().unwrap();
        let mut acc = 0.0f32;
        for (i, &o) in out.iter().enumerate() {
            acc += a[i];
            assert_eq!(o, acc, "prefix sum at {i}");
        }
    }

    #[test]
    fn two_dimensional_ids() {
        let src = "kernel void k(global float* o, int w) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            o[y * w + x] = (float)(y * w + x);
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::F32(vec![0.0; 12])];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d2(4, 3),
            0..3,
            &[ArgValue::Buffer(0), ArgValue::Int(4)],
            &mut bufs,
        )
        .unwrap();
        let out = bufs[0].as_f32().unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }

    #[test]
    fn chunked_execution_only_touches_chunk_rows() {
        let src = "kernel void k(global float* o, int w) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            o[y * w + x] = 1.0;
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::F32(vec![0.0; 12])];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d2(4, 3),
            1..2,
            &[ArgValue::Buffer(0), ArgValue::Int(4)],
            &mut bufs,
        )
        .unwrap();
        let out = bufs[0].as_f32().unwrap();
        assert_eq!(&out[0..4], &[0.0; 4]);
        assert_eq!(&out[4..8], &[1.0; 4]);
        assert_eq!(&out[8..12], &[0.0; 4]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            o[i + n] = 1.0;
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::F32(vec![0.0; 4])];
        let mut vm = Vm::new();
        let err = vm
            .run_range(
                &k.bytecode,
                &NdRange::d1(4),
                0..4,
                &[ArgValue::Buffer(0), ArgValue::Int(4)],
                &mut bufs,
            )
            .unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { .. }));
    }

    #[test]
    fn negative_index_is_out_of_bounds() {
        let src = "kernel void k(global float* o) {
            int i = get_global_id(0);
            o[i - 10] = 1.0;
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::F32(vec![0.0; 16])];
        let mut vm = Vm::new();
        let err = vm
            .run_range(
                &k.bytecode,
                &NdRange::d1(1),
                0..1,
                &[ArgValue::Buffer(0)],
                &mut bufs,
            )
            .unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { index: -10, .. }));
    }

    #[test]
    fn division_by_zero_detected() {
        let src = "kernel void k(global int* o, int n) {
            int i = get_global_id(0);
            o[i] = 10 / n;
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::I32(vec![0; 1])];
        let mut vm = Vm::new();
        let err = vm
            .run_range(
                &k.bytecode,
                &NdRange::d1(1),
                0..1,
                &[ArgValue::Buffer(0), ArgValue::Int(0)],
                &mut bufs,
            )
            .unwrap_err();
        assert_eq!(err, VmError::DivisionByZero);
    }

    #[test]
    fn step_limit_stops_runaway_loop() {
        let src = "kernel void k(global int* o, int n) {
            int i = 0;
            while (n < 1) { i = i + 1; }
            o[0] = i;
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::I32(vec![0; 1])];
        let mut vm = Vm::new();
        vm.step_limit = 10_000;
        let err = vm
            .run_range(
                &k.bytecode,
                &NdRange::d1(1),
                0..1,
                &[ArgValue::Buffer(0), ArgValue::Int(0)],
                &mut bufs,
            )
            .unwrap_err();
        assert!(matches!(err, VmError::StepLimitExceeded { .. }));
    }

    #[test]
    fn uint_arithmetic_wraps_like_opencl() {
        let src = "kernel void k(global uint* o, uint seed) {
            uint x = seed;
            x = x ^ (x << 13);
            x = x ^ (x >> 17);
            x = x ^ (x << 5);
            o[0] = x;
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::U32(vec![0; 1])];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d1(1),
            0..1,
            &[ArgValue::Buffer(0), ArgValue::UInt(2463534242)],
            &mut bufs,
        )
        .unwrap();
        // Reference xorshift32 step in Rust.
        let mut x: u32 = 2463534242;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        assert_eq!(bufs[0].as_u32().unwrap()[0], x);
    }

    #[test]
    fn signed_shift_right_is_arithmetic() {
        let src = "kernel void k(global int* o, int v) { o[0] = v >> 1; }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::I32(vec![0; 1])];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d1(1),
            0..1,
            &[ArgValue::Buffer(0), ArgValue::Int(-8)],
            &mut bufs,
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32().unwrap()[0], -4);
    }

    #[test]
    fn int_overflow_wraps_to_32_bits() {
        let src = "kernel void k(global int* o, int v) { o[0] = v * v; }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::I32(vec![0; 1])];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d1(1),
            0..1,
            &[ArgValue::Buffer(0), ArgValue::Int(100_000)],
            &mut bufs,
        )
        .unwrap();
        assert_eq!(
            bufs[0].as_i32().unwrap()[0],
            100_000i32.wrapping_mul(100_000)
        );
    }

    #[test]
    fn dynamic_counts_scale_with_range() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            o[i] = a[i] * 2.0;
        }";
        let k = compile(src).unwrap();
        let mk = || {
            vec![
                BufferData::F32(vec![1.0; 64]),
                BufferData::F32(vec![0.0; 64]),
            ]
        };
        let args = vec![ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Int(64)];
        let mut vm = Vm::new();
        let mut b1 = mk();
        let c16 = vm
            .run_range(&k.bytecode, &NdRange::d1(64), 0..16, &args, &mut b1)
            .unwrap();
        let mut b2 = mk();
        let c64 = vm
            .run_range(&k.bytecode, &NdRange::d1(64), 0..64, &args, &mut b2)
            .unwrap();
        let d16 = dynamic_counts(&k.bytecode, &c16);
        let d64 = dynamic_counts(&k.bytecode, &c64);
        assert_eq!(d16.items, 16);
        assert_eq!(d64.items, 64);
        assert_eq!(d64.per_class[OpClass::Load as usize], 64);
        assert_eq!(d16.per_class[OpClass::Load as usize], 16);
        assert_eq!(d64.buf_reads[0], 64);
        assert_eq!(d64.buf_writes[1], 64);
        assert_eq!(d64.alu_ops(), d16.alu_ops() * 4);
    }

    #[test]
    fn sampled_execution_extrapolates_uniform_kernel_exactly() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            o[i] = a[i] + 1.0;
        }";
        let k = compile(src).unwrap();
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(1024),
        ];
        let mut vm = Vm::new();
        let mut scratch = vec![
            BufferData::F32(vec![0.0; 1024]),
            BufferData::F32(vec![0.0; 1024]),
        ];
        let s = vm
            .run_sampled(
                &k.bytecode,
                &NdRange::d1(1024),
                0..1024,
                &args,
                &mut scratch,
                32,
            )
            .unwrap();
        assert_eq!(s.sampled_items, 32);
        assert_eq!(s.total_items, 1024);
        assert!(s.ops_cv < 1e-9, "uniform kernel must have zero divergence");
        let d = s.extrapolated(&k.bytecode);
        assert_eq!(d.per_class[OpClass::Load as usize], 1024);
        assert_eq!(d.per_class[OpClass::Store as usize], 1024);
    }

    #[test]
    fn sampled_execution_detects_divergence() {
        let src = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            float s = 0.0;
            for (int j = 0; j < i % 64; j++) { s += (float)j; }
            o[i] = s;
        }";
        let k = compile(src).unwrap();
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(256)];
        let mut vm = Vm::new();
        let mut scratch = vec![BufferData::F32(vec![0.0; 256])];
        let s = vm
            .run_sampled(
                &k.bytecode,
                &NdRange::d1(256),
                0..256,
                &args,
                &mut scratch,
                64,
            )
            .unwrap();
        assert!(
            s.ops_cv > 0.2,
            "variable-trip-count kernel must show divergence, cv={}",
            s.ops_cv
        );
    }

    #[test]
    fn check_args_rejects_bad_shapes() {
        let src = "kernel void k(global const float* a, int n) { }";
        let k = compile(src).unwrap();
        let bufs = vec![BufferData::I32(vec![0; 4])];
        // Wrong count.
        assert!(Vm::check_args(&k.bytecode, &[ArgValue::Int(1)], &bufs).is_err());
        // Wrong buffer element type.
        assert!(
            Vm::check_args(&k.bytecode, &[ArgValue::Buffer(0), ArgValue::Int(1)], &bufs).is_err()
        );
        // Scalar/buffer mixup.
        assert!(
            Vm::check_args(&k.bytecode, &[ArgValue::Int(0), ArgValue::Buffer(0)], &bufs).is_err()
        );
        // Buffer index out of range.
        assert!(
            Vm::check_args(&k.bytecode, &[ArgValue::Buffer(7), ArgValue::Int(1)], &bufs).is_err()
        );
    }

    #[test]
    fn counters_merge_accumulates() {
        let src = "kernel void k(global float* o) { o[get_global_id(0)] = 1.0; }";
        let k = compile(src).unwrap();
        let mut vm = Vm::new();
        let mut b1 = vec![BufferData::F32(vec![0.0; 8])];
        let mut c1 = vm
            .run_range(
                &k.bytecode,
                &NdRange::d1(8),
                0..4,
                &[ArgValue::Buffer(0)],
                &mut b1,
            )
            .unwrap();
        let c2 = vm
            .run_range(
                &k.bytecode,
                &NdRange::d1(8),
                4..8,
                &[ArgValue::Buffer(0)],
                &mut b1,
            )
            .unwrap();
        c1.merge(&c2);
        assert_eq!(c1.items, 8);
        assert_eq!(
            dynamic_counts(&k.bytecode, &c1).per_class[OpClass::Store as usize],
            8
        );
    }

    #[test]
    fn select_evaluates_only_taken_arm() {
        // The untaken arm would be out of bounds; short-circuit Select must
        // not evaluate it.
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            o[i] = i < n ? a[i] : a[i + 1000000];
        }";
        let k = compile(src).unwrap();
        let mut bufs = vec![BufferData::F32(vec![7.0; 4]), BufferData::F32(vec![0.0; 4])];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d1(4),
            0..4,
            &[ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Int(4)],
            &mut bufs,
        )
        .unwrap();
        assert_eq!(bufs[1].as_f32().unwrap(), &[7.0; 4]);
    }

    #[test]
    fn lane_engine_matches_scalar_on_divergent_kernel() {
        // Variable trip counts force divergence; an odd size forces
        // a partial tail batch. Buffers and counters must agree exactly.
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float s = a[i % n];
            for (int j = 0; j < i % 13; j++) { s = s * 1.5 + (float)j; }
            if (i % 3 == 0) { s = -s; }
            o[i] = s;
        }";
        let k = compile(src).unwrap();
        let n = 197usize; // not divisible by LANES
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(n as i32),
        ];
        let mk = || {
            vec![
                BufferData::F32((0..n).map(|i| i as f32 * 0.25).collect()),
                BufferData::F32(vec![0.0; n]),
            ]
        };
        let mut vm = Vm::new();
        let mut b_scalar = mk();
        let c_scalar = vm
            .run_range_scalar(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b_scalar)
            .unwrap();
        let mut b_lanes = mk();
        let c_lanes = vm
            .run_range_lanes(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b_lanes)
            .unwrap();
        assert_eq!(b_scalar, b_lanes);
        assert_eq!(c_scalar, c_lanes);
    }

    #[test]
    fn lane_engine_sampled_statistics_match_scalar() {
        let src = "kernel void k(global float* o, int n) {
            int i = get_global_id(0);
            float s = 0.0;
            for (int j = 0; j < i % 64; j++) { s += (float)j; }
            o[i] = s;
        }";
        let k = compile(src).unwrap();
        let n = 500usize;
        let args = vec![ArgValue::Buffer(0), ArgValue::Int(n as i32)];
        let mut vm = Vm::new();
        let mut b1 = vec![BufferData::F32(vec![0.0; n])];
        let s_scalar = vm
            .run_sampled_scalar(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b1, 77)
            .unwrap();
        let mut b2 = vec![BufferData::F32(vec![0.0; n])];
        let s_lanes = vm
            .run_sampled_lanes(&k.bytecode, &NdRange::d1(n), 0..n, &args, &mut b2, 77)
            .unwrap();
        assert_eq!(b1, b2);
        assert_eq!(s_scalar.counters, s_lanes.counters);
        assert_eq!(
            s_scalar.mean_ops_per_item.to_bits(),
            s_lanes.mean_ops_per_item.to_bits()
        );
        assert_eq!(s_scalar.ops_cv.to_bits(), s_lanes.ops_cv.to_bits());
    }

    #[test]
    fn run_items_per_item_counters_match_scalar() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            float s = 0.0;
            for (int j = 0; j <= i % 7; j++) { s += a[(i + j) % n]; }
            o[i] = s;
        }";
        let k = compile(src).unwrap();
        let n = 300usize;
        let args = vec![
            ArgValue::Buffer(0),
            ArgValue::Buffer(1),
            ArgValue::Int(n as i32),
        ];
        let gids: Vec<[usize; 3]> = (0..n).step_by(3).map(|i| [i, 0, 0]).collect();
        let mk = || vec![BufferData::F32(vec![1.0; n]), BufferData::F32(vec![0.0; n])];
        let mut vm = Vm::new();
        let mut b1 = mk();
        let per_scalar = vm
            .run_items_scalar(&k.bytecode, &NdRange::d1(n), &gids, &args, &mut b1)
            .unwrap();
        let mut b2 = mk();
        let per_lanes = vm
            .run_items(&k.bytecode, &NdRange::d1(n), &gids, &args, &mut b2)
            .unwrap();
        assert_eq!(b1, b2);
        assert_eq!(per_scalar, per_lanes);
        for c in &per_lanes {
            assert_eq!(c.items, 1);
        }
    }

    #[test]
    fn online_stats_is_stable_for_huge_op_counts() {
        // The naive sum_sq/n - mean² form loses all precision here: the
        // values are ~1e9 with a spread of 1, so sum_sq ~ 1e18.
        let mut s = OnlineStats::default();
        for i in 0..1000u64 {
            s.push(1.0e9 + (i % 2) as f64);
        }
        assert_eq!(s.count(), 1000);
        assert!((s.mean() - 1.0e9 - 0.5).abs() < 1e-6);
        assert!((s.population_variance() - 0.25).abs() < 1e-9);
        assert!(s.cv() > 0.0);
        let mut c = OnlineStats::default();
        for _ in 0..10 {
            c.push(42.0);
        }
        assert_eq!(c.population_variance(), 0.0);
        assert_eq!(c.cv(), 0.0);
    }

    #[test]
    fn logical_and_short_circuits() {
        let src = "kernel void k(global const float* a, global float* o, int n) {
            int i = get_global_id(0);
            if (i < n && a[i] > 0.0) { o[i] = 1.0; } else { o[i] = 0.0; }
        }";
        let k = compile(src).unwrap();
        // a has only n=2 valid entries but the range is 4: i<n guards a[i].
        let mut bufs = vec![
            BufferData::F32(vec![1.0, -1.0]),
            BufferData::F32(vec![9.0; 4]),
        ];
        let mut vm = Vm::new();
        vm.run_range(
            &k.bytecode,
            &NdRange::d1(4),
            0..4,
            &[ArgValue::Buffer(0), ArgValue::Buffer(1), ArgValue::Int(2)],
            &mut bufs,
        )
        .unwrap();
        assert_eq!(bufs[1].as_f32().unwrap(), &[1.0, 0.0, 0.0, 0.0]);
    }
}
