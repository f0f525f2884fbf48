//! Golden digest of every generated input.
//!
//! The training database, the predictor and Figure 1 all rest on the
//! suite's inputs, so any change to a generator must keep them bit for
//! bit. This test folds every `(program, size)` instance of the suite —
//! at the default seed and at one far-away seed whose splitmix counter
//! wraps — into one FNV-1a digest over the NDRange, the arguments, the
//! buffer bits and the output list. FNV-1a is written out here because
//! `std`'s `DefaultHasher` is not stable across releases.

use hetpart_inspire::vm::{ArgValue, BufferData};
use hetpart_suite::{all, Instance};

/// Digest of the whole suite's inputs, recorded before the generators
/// moved onto the shared fill.
const GOLDEN_SUITE_DIGEST: u64 = 0xAFC5_A8DE_2FAA_F7C0;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fold_instance(h: &mut Fnv1a, inst: &Instance) {
    let dims = inst.nd.dims();
    h.u64(dims.len() as u64);
    for &d in dims {
        h.u64(d as u64);
    }
    h.u64(inst.args.len() as u64);
    for a in &inst.args {
        match *a {
            ArgValue::Int(v) => {
                h.u32(0);
                h.u32(v as u32);
            }
            ArgValue::UInt(v) => {
                h.u32(1);
                h.u32(v);
            }
            ArgValue::Float(v) => {
                h.u32(2);
                h.u32(v.to_bits());
            }
            ArgValue::Buffer(i) => {
                h.u32(3);
                h.u64(i as u64);
            }
        }
    }
    h.u64(inst.bufs.len() as u64);
    for b in &inst.bufs {
        h.u64(b.len() as u64);
        match b {
            BufferData::F32(v) => {
                h.u32(0);
                v.iter().for_each(|x| h.u32(x.to_bits()));
            }
            BufferData::I32(v) => {
                h.u32(1);
                v.iter().for_each(|&x| h.u32(x as u32));
            }
            BufferData::U32(v) => {
                h.u32(2);
                v.iter().for_each(|&x| h.u32(x));
            }
        }
    }
    h.u64(inst.outputs.len() as u64);
    for &o in &inst.outputs {
        h.u64(o as u64);
    }
}

#[test]
fn every_suite_instance_matches_its_golden_digest() {
    let mut h = Fnv1a::new();
    for b in all() {
        h.bytes(b.name.as_bytes());
        for &n in b.sizes {
            fold_instance(&mut h, &b.instance(n));
            fold_instance(&mut h, &(b.setup)(n, u64::MAX - n as u64));
        }
    }
    assert_eq!(
        h.0, GOLDEN_SUITE_DIGEST,
        "suite inputs changed: digest {:#018x}",
        h.0
    );
}
