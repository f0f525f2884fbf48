//! Launch memory: the one accessor both VM engines reach buffers through.
//!
//! A real launch runs against the caller's `&mut [BufferData]` and writes
//! its results there. A probe — the sampled runs behind runtime features
//! and launch profiles — runs against a [`Scratch`]: a
//! copy-on-write view that borrows the caller's buffers and clones one
//! only on the first store to it. Most launch buffers are read-only
//! inputs that no sampled work-item ever stores to, so a probe copies
//! only the buffers it writes.
//!
//! Both reach the engines as a [`Mem`]: a load returns `&BufferData`, a
//! store returns `&mut BufferData`. Copies are keyed by buffer index, not
//! by parameter, so two parameters bound to one buffer share one copy and
//! a load through either sees a store through the other — exactly as on
//! the caller's buffers.

use crate::vm::BufferData;

/// A copy-on-write scratch view of a launch's buffers.
///
/// Runs against a scratch view read the borrowed buffers until they store
/// to one; the first store to a buffer index clones that buffer, and every
/// later load or store of the index uses the clone. The borrowed buffers
/// are never modified. One view can serve several runs in a row: each run
/// sees the stores of the runs before it.
#[derive(Debug, Clone)]
pub struct Scratch<'a> {
    base: &'a [BufferData],
    copies: Vec<Option<BufferData>>,
}

impl<'a> Scratch<'a> {
    /// A view of `bufs` that has copied nothing yet.
    pub fn new(bufs: &'a [BufferData]) -> Self {
        Self {
            base: bufs,
            copies: vec![None; bufs.len()],
        }
    }

    /// Buffer `i` as the runs so far left it.
    pub fn get(&self, i: usize) -> Option<&BufferData> {
        match self.copies.get(i)? {
            Some(copy) => Some(copy),
            None => self.base.get(i),
        }
    }

    /// Indices of the buffers copied so far — those some run stored to —
    /// in ascending order.
    pub fn copied(&self) -> impl Iterator<Item = usize> + '_ {
        self.copies
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
    }
}

/// The buffers one launch reads and writes: either the caller's own
/// buffers or a [`Scratch`] view of them (see [`LaunchBuffers`]).
#[derive(Debug)]
pub struct Mem<'m>(Backing<'m>);

#[derive(Debug)]
enum Backing<'m> {
    Direct(&'m mut [BufferData]),
    Scratch {
        base: &'m [BufferData],
        copies: &'m mut [Option<BufferData>],
    },
}

impl Mem<'_> {
    /// Buffer `i` for reading.
    #[inline(always)]
    pub(crate) fn load(&self, i: usize) -> &BufferData {
        match &self.0 {
            Backing::Direct(bufs) => &bufs[i],
            Backing::Scratch { base, copies } => match &copies[i] {
                Some(copy) => copy,
                None => &base[i],
            },
        }
    }

    /// Buffer `i` for writing; a scratch view copies it on first use.
    #[inline(always)]
    pub(crate) fn store(&mut self, i: usize) -> &mut BufferData {
        match &mut self.0 {
            Backing::Direct(bufs) => &mut bufs[i],
            Backing::Scratch { base, copies } => copies[i].get_or_insert_with(|| base[i].clone()),
        }
    }

    /// Buffers with this launch's lengths and element types, for argument
    /// validation. Stores never change either, so a scratch view answers
    /// from the borrowed buffers.
    pub(crate) fn layout(&self) -> &[BufferData] {
        match &self.0 {
            Backing::Direct(bufs) => bufs,
            Backing::Scratch { base, .. } => base,
        }
    }
}

/// Storage a launch can run against: the caller's own buffers
/// (`[BufferData]`, `Vec<BufferData>`) or a [`Scratch`] view of them.
/// Every `Vm` run entry takes `&mut impl LaunchBuffers`.
pub trait LaunchBuffers {
    /// The accessor the engines reach this storage through.
    fn mem(&mut self) -> Mem<'_>;
}

impl LaunchBuffers for [BufferData] {
    fn mem(&mut self) -> Mem<'_> {
        Mem(Backing::Direct(self))
    }
}

impl LaunchBuffers for Vec<BufferData> {
    fn mem(&mut self) -> Mem<'_> {
        Mem(Backing::Direct(self))
    }
}

impl LaunchBuffers for Scratch<'_> {
    fn mem(&mut self) -> Mem<'_> {
        Mem(Backing::Scratch {
            base: self.base,
            copies: &mut self.copies,
        })
    }
}
