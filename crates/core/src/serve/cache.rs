//! The service's two memo tiers: plans keyed by launch shape
//! ([`PlanKey`]) and, opt-in, whole results keyed by shape plus buffer
//! contents, both held in a lock-striped FIFO ([`StripedCache`]).

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_inspire::{CompiledKernel, ScalarType};
use hetpart_runtime::{ExecutionReport, Partition};

use super::lock_recover;

/// The shape-identity of one kernel argument inside a [`PlanKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArgKey {
    Int(i32),
    UInt(u32),
    /// Bit pattern — floats hash by representation.
    Float(u32),
    /// Binding index plus element type and length of the bound buffer.
    /// The index matters: `[Buffer(0), Buffer(1)]` and
    /// `[Buffer(1), Buffer(0)]` bind the same buffers to different
    /// parameters and must not share a plan (or a memoized result).
    Buffer {
        index: usize,
        elem: ScalarType,
        len: usize,
    },
    /// A buffer argument whose index has no backing buffer (the launch
    /// will be rejected by `Vm::check_args`, but the key must still be
    /// well-defined and distinct).
    DanglingBuffer {
        index: usize,
    },
}

/// What makes two launches "the same" to the prediction cache: the kernel
/// fingerprint plus the launch shape (NDRange dimensions, scalar argument
/// values, buffer lengths and element types). Buffer *contents* are
/// deliberately excluded — see the [`serve`](super) module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    fingerprint: u64,
    dims: Vec<usize>,
    args: Vec<ArgKey>,
}

impl PlanKey {
    /// Build the cache key of a launch.
    pub fn of(
        kernel: &CompiledKernel,
        nd: &NdRange,
        args: &[ArgValue],
        bufs: &[BufferData],
    ) -> Self {
        let dims = (0..3).map(|d| nd.dim(d)).collect();
        let args = args
            .iter()
            .map(|a| match a {
                ArgValue::Int(v) => ArgKey::Int(*v),
                ArgValue::UInt(v) => ArgKey::UInt(*v),
                ArgValue::Float(v) => ArgKey::Float(v.to_bits()),
                ArgValue::Buffer(b) => match bufs.get(*b) {
                    Some(bd) => ArgKey::Buffer {
                        index: *b,
                        elem: bd.elem_type(),
                        len: bd.len(),
                    },
                    None => ArgKey::DanglingBuffer { index: *b },
                },
            })
            .collect();
        Self {
            fingerprint: kernel.fingerprint,
            dims,
            args,
        }
    }
}

/// 64-bit content hash of a launch's buffers (FxHash-style word folding —
/// fast enough that hashing is orders of magnitude cheaper than kernel
/// execution).
pub(super) fn content_hash(bufs: &[BufferData]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    for bd in bufs {
        // Type tag then length: two same-bits buffers of different
        // scalar types must not collide.
        fold(match bd {
            BufferData::F32(_) => 1,
            BufferData::I32(_) => 2,
            BufferData::U32(_) => 3,
        });
        fold(bd.len() as u64);
        match bd {
            BufferData::F32(v) => v.iter().for_each(|x| fold(u64::from(x.to_bits()))),
            BufferData::I32(v) => v.iter().for_each(|x| fold(*x as u32 as u64)),
            BufferData::U32(v) => v.iter().for_each(|x| fold(u64::from(*x))),
        }
    }
    h
}

/// Bounded FIFO memo, generic over the cached value (plans and results).
/// One stripe of a [`StripedCache`].
struct FifoCache<K, V> {
    capacity: usize,
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> FifoCache<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(evict) = self.order.pop_front() {
                    self.map.remove(&evict);
                }
            }
        }
    }
}

/// A bounded FIFO memo sharded across `N` independently locked stripes
/// by key hash — the serving-scale successor to one `Mutex<FifoCache>`.
///
/// With a single mutex every worker of the pool serializes on the cache
/// for each lookup and fill, even when they touch unrelated keys. Keys
/// hash to a fixed stripe, so concurrent operations on different stripes
/// never contend, and operations on the same key keep the same
/// consistency they had under one lock (a stripe *is* one lock).
///
/// The capacity splits evenly across stripes (rounded up), so eviction is
/// per-stripe FIFO: total occupancy never exceeds `capacity + stripes`.
/// `stripes == 1` is exactly the old single-mutex cache.
pub struct StripedCache<K, V> {
    stripes: Vec<Mutex<FifoCache<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> StripedCache<K, V> {
    /// A cache holding ~`capacity` entries across `stripes` locks
    /// (`stripes` is clamped to at least 1; `capacity == 0` disables
    /// caching entirely).
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let per_stripe = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(stripes)
        };
        Self {
            stripes: (0..stripes)
                .map(|_| Mutex::new(FifoCache::new(per_stripe)))
                .collect(),
        }
    }

    fn stripe(&self, key: &K) -> &Mutex<FifoCache<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.stripes[(h.finish() as usize) % self.stripes.len()]
    }

    /// Clone out the cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        lock_recover(self.stripe(key)).get(key)
    }

    /// Memoize `value` under `key` (no-op when the capacity is 0).
    pub fn insert(&self, key: K, value: V) {
        lock_recover(self.stripe(&key)).insert(key, value);
    }
}

/// A memoized launch outcome: everything a repeat of a bit-identical
/// launch needs to answer without executing. Shared via `Arc` so a cache
/// hit clones two words plus the output buffers it hands out.
pub(super) struct CachedResult {
    pub(super) partition: Partition,
    pub(super) report: ExecutionReport,
    pub(super) bufs: Vec<BufferData>,
}
