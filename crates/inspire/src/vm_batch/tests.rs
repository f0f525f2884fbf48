use super::lanes::exact_recip;
use super::mem::{index_shape, Shape};
use super::*;
use crate::bytecode::CmpOp;
use crate::compile;
use crate::ir::NdRange;
use crate::opt::decode::{F_ADD, F_CONST, F_DIV, F_MUL, I_UNSIGNED};
use crate::vm::{ArgValue, LaunchBuffers};

/// Everything a sequence of batches leaves behind; floats and buffer
/// elements as bit patterns, so NaNs compare too.
#[derive(Debug, PartialEq)]
struct Trace {
    results: Vec<Result<(), VmError>>,
    iregs: Vec<Vec<i64>>,
    fregs: Vec<Vec<u64>>,
    steps: Vec<Vec<u64>>,
    counts: Vec<Vec<Counters>>,
    bufs: Vec<Vec<u32>>,
}

/// Run items `0..n` of `src` batch by batch on `tier`, recording the
/// engine state after every batch; stops at the first fault.
fn trace(src: &str, n: usize, args: &[ArgValue], bufs: &[BufferData], tier: Tier) -> Trace {
    let k = compile(src).expect("test kernel compiles");
    let f = &k.bytecode;
    let mut vm = Vm::new();
    let mut bufs = bufs.to_vec();
    let mut mem = bufs.mem();
    let bmap = vm
        .start_launch(f, args, mem.layout())
        .expect("valid launch");
    let mut eng = LaneEngine::new(f, &vm);
    eng.tier = tier;
    let gids: Vec<[usize; 3]> = (0..n).map(|i| [i, 0, 0]).collect();
    let mut t = Trace {
        results: vec![],
        iregs: vec![],
        fregs: vec![],
        steps: vec![],
        counts: vec![],
        bufs: vec![],
    };
    for batch in gids.chunks(LANES) {
        let mut counts = vec![Counters::new(f); batch.len()];
        let sink = CountSink::PerLane(&mut counts);
        let r = eng.exec_batch(f, batch, [n, 1, 1], &bmap, &mut mem, sink);
        let failed = r.is_err();
        t.results.push(r);
        t.iregs.push(eng.iregs.iter().flat_map(|r| r.0).collect());
        t.fregs.push(
            eng.fregs
                .iter()
                .flat_map(|r| r.0.map(f64::to_bits))
                .collect(),
        );
        t.steps.push(eng.lane_steps()[..batch.len()].to_vec());
        t.counts.push(counts);
        if failed {
            break;
        }
    }
    t.bufs = bufs
        .iter()
        .map(|b| match b {
            BufferData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            BufferData::I32(v) => v.iter().map(|&x| x as u32).collect(),
            BufferData::U32(v) => v.clone(),
        })
        .collect();
    t
}

/// Run `src` on every tier this CPU supports and require identical
/// traces. Returns the portable trace.
fn assert_tier_parity(src: &str, n: usize, args: &[ArgValue], bufs: &[BufferData]) -> Trace {
    let portable = trace(src, n, args, bufs, Tier::Portable);
    for tier in Tier::supported().into_iter().skip(1) {
        let wide = trace(src, n, args, bufs, tier);
        assert_eq!(portable, wide, "tier divergence on {}", tier.name());
    }
    portable
}

#[test]
fn supported_tiers_climb_the_ladder_to_the_detected_one() {
    let tiers = Tier::supported();
    assert_eq!(tiers[0], Tier::Portable);
    assert_eq!(tiers.last(), Some(&Tier::detect()));
    assert_eq!(lane_tier(), Tier::detect().name());
    let names: Vec<_> = tiers.iter().map(|t| t.name()).collect();
    let ladder = ["portable", "avx2", "avx512"];
    assert_eq!(names, ladder[..names.len()], "a rung is missing");
}

fn f32_buf(n: usize, g: impl Fn(usize) -> f32) -> BufferData {
    BufferData::F32((0..n).map(g).collect())
}

// 150 items: two full batches and a 22-lane tail batch.
const N: usize = 150;

#[test]
fn tiers_match_on_uniform_loops() {
    let src = "kernel void k(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        float acc = 0.0;
        int s = 0;
        for (int j = 0; j < 16; j++) {
            acc = acc * 0.5 + a[i] * (float)j - 1.0 / (a[i] + 3.0);
            s = s * 3 + j - i;
        }
        o[i] = acc + (float)s;
    }";
    let bufs = [f32_buf(N, |i| i as f32 * 0.25 - 7.0), f32_buf(N, |_| 0.0)];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Int(N as i32),
    ];
    assert_tier_parity(src, N, &args, &bufs);
}

#[test]
fn tiers_match_on_divergent_branches_and_early_returns() {
    let src = "kernel void k(global const float* a, global int* o, int n) {
        int i = get_global_id(0);
        if (i % 3 == 0) {
            if (i % 2 == 0) { o[i] = -1; return; }
            o[i] = i * 7;
        } else {
            int s = 0;
            for (int j = 0; j < i % 13; j++) {
                if (j == i % 4) { continue; }
                s = s + j * i;
                if (s > 400 && i % 5 == 1) { break; }
            }
            if (a[i] > 10.0 || s < 3) { s = -s; }
            o[i] = s;
        }
    }";
    let bufs = [
        f32_buf(N, |i| (i as f32).sin() * 20.0),
        BufferData::I32(vec![0; N]),
    ];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Int(N as i32),
    ];
    assert_tier_parity(src, N, &args, &bufs);
}

#[test]
fn tiers_match_on_unsigned_xorshift() {
    let src = "kernel void k(global uint* hits, uint seed, int samples) {
        int i = get_global_id(0);
        uint s = seed + (uint)i * 2654435761u;
        if (s == 0u) { s = 1u; }
        uint count = 0u;
        for (int j = 0; j < samples; j++) {
            s = s ^ (s << 13);
            s = s ^ (s >> 17);
            s = s ^ (s << 5);
            float x = (float)(s & 65535u) / 65536.0;
            s = s ^ (s << 13);
            s = s ^ (s >> 17);
            s = s ^ (s << 5);
            float y = (float)(s & 65535u) / 65536.0;
            if (x * x + y * y <= 1.0) { count = count + 1u; }
        }
        hits[i] = count ^ (s >> (uint)(i % 32));
    }";
    let bufs = [BufferData::U32(vec![0; N])];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::UInt(12345),
        ArgValue::Int(40),
    ];
    assert_tier_parity(src, N, &args, &bufs);
}

#[test]
fn tiers_match_on_float_math() {
    let src = "kernel void k(global const float* a, global float* o, global int* c, int n) {
        int i = get_global_id(0);
        float x = a[i];
        float y = sqrt(fabs(x)) + exp(x * 0.01) - log(fabs(x) + 1.0);
        y = y + sin(x) * cos(x) + tan(x * 0.1) + rsqrt(fabs(x) + 0.5);
        y = fmin(y, fmax(x, 0.0)) + floor(x) - ceil(y) + pow(fabs(x), 0.3);
        y = y + fmod(x, 3.0) + x / (x - x) + sqrt(x);
        o[i] = y * 2.0 - 1.0;
        c[i] = (int)(x * 1.0e9) + (int)y;
    }";
    let bufs = [
        f32_buf(N, |i| (i as f32 - 75.0) * 0.73),
        f32_buf(N, |_| 0.0),
        BufferData::I32(vec![0; N]),
    ];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Buffer(2),
        ArgValue::Int(N as i32),
    ];
    assert_tier_parity(src, N, &args, &bufs);
}

#[test]
fn tiers_match_on_gathers_and_scatters() {
    let src = "kernel void k(global const float* a, global const int* ix,
                         global float* o, global int* p, int n) {
        int i = get_global_id(0);
        int j = ix[i];
        float v = a[j] * 2.0 + a[i];
        o[(i * 7) % n] = v;
        p[i] = j + ix[(i + 1) % n];
        o[i] = o[i] + a[j];
    }";
    let bufs = [
        f32_buf(N, |i| i as f32 * 0.5),
        BufferData::I32((0..N).map(|i| ((i * 31) % N) as i32).collect()),
        f32_buf(N, |_| 0.0),
        BufferData::I32(vec![0; N]),
    ];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Buffer(2),
        ArgValue::Buffer(3),
        ArgValue::Int(N as i32),
    ];
    assert_tier_parity(src, N, &args, &bufs);
}

#[test]
fn tiers_fault_identically_out_of_bounds() {
    // Items past 140 store past the end: the third batch faults on
    // every tier at the same lane, after the same partial writes.
    let src = "kernel void k(global const float* a, global float* o, int n) {
        int i = get_global_id(0);
        float v = a[i] + 1.0;
        if (i % 2 == 0) { v = v * 3.0; }
        o[i + 10] = v;
    }";
    let bufs = [f32_buf(N, |i| i as f32), f32_buf(N, |_| 0.0)];
    let args = [
        ArgValue::Buffer(0),
        ArgValue::Buffer(1),
        ArgValue::Int(N as i32),
    ];
    let t = assert_tier_parity(src, N, &args, &bufs);
    assert!(
        matches!(t.results.last(), Some(Err(VmError::OutOfBounds { .. }))),
        "expected an out-of-bounds fault, got {:?}",
        t.results
    );
}

#[test]
fn lane_rows_start_on_cache_lines() {
    let src = "kernel void k(global float* o, int n) {
        int i = get_global_id(0);
        o[i] = (float)(i * n) + 0.5;
    }";
    let k = compile(src).expect("test kernel compiles");
    let mut vm = Vm::new();
    let mut bufs = vec![f32_buf(8, |_| 0.0)];
    let args = [ArgValue::Buffer(0), ArgValue::Int(8)];
    vm.run_range(&k.bytecode, &NdRange::d1(8), 0..8, &args, &mut bufs)
        .expect("kernel runs");
    let eng = LaneEngine::new(&k.bytecode, &vm);
    assert!(!eng.iregs.is_empty() && !eng.fregs.is_empty());
    let addrs = eng
        .iregs
        .iter()
        .map(|r| r.as_ptr() as usize)
        .chain(eng.fregs.iter().map(|r| r.as_ptr() as usize))
        .chain(eng.gid.iter().map(|r| r.as_ptr() as usize))
        .chain([eng.steps.as_ptr() as usize]);
    for a in addrs {
        assert_eq!(a % 64, 0, "row at {a:#x} is not 64-byte aligned");
    }
}

// Op-by-op lane-set parity. Every `OpCode` runs as a `DecOp` literal
// on hand-built register files, under `Prefix` and under `Masked`, on
// every codegen tier this CPU supports.

/// Buffer length; index rows `I_IDX0`/`I_IDX1` are in-bounds
/// permutations, `I_OOB` is out of bounds on some hazard lanes.
const LEN: usize = 80;
const I_IDX0: u16 = 0;
const I_IDX1: u16 = 1;
const I_OOB: u16 = 6;
/// A divisor row that is zero on some hazard lanes.
const I_ZDIV: u16 = 5;
/// Index rows with a row-pass shape, or nearly one (see
/// [`index_shape`]): `I_SHAPED` in bounds on every lane, `I_SHAPED_OOB`
/// out of bounds on some.
const I_SHAPED: [u16; 6] = [10, 11, 12, 13, 14, 15];
const I_SHAPED_OOB: [u16; 4] = [16, 17, 18, 19];
const N_IREGS: usize = 20;
const N_FREGS: usize = 8;
/// The lanes where `I_ZDIV` is zero or `I_OOB` is out of bounds.
const HAZARDS: [usize; 5] = [20, 37, 41, 45, 50];
/// A sparse mask over the safe lanes, and the same plus every hazard.
const SPARSE: u64 = 0x8A51_3C0F_F00D_B6E3 & !HAZARD_BITS;
const HAZARD_BITS: u64 = 1 << 20 | 1 << 37 | 1 << 41 | 1 << 45 | 1 << 50;
const GSIZE: [usize; 3] = [100, 3, 2];

fn irow(r: usize, l: usize) -> i64 {
    let li = l as i64;
    match r {
        0 => ((l * 37 + 5) % 64) as i64,
        1 => ((l * 13 + 11) % 64 + 16) as i64,
        2 => match l {
            10 => i64::from(i32::MIN),
            11 => i64::from(u32::MAX),
            _ => ((l * 7919) % 201) as i64 - 100,
        },
        3 => match li % 7 - 3 {
            0 => 5,
            d => d,
        },
        4 => (li << 33) | ((li * 12345) * if l.is_multiple_of(3) { -1 } else { 1 }),
        5 => match l {
            20 | 41 => 0,
            _ => li + 1,
        },
        6 => match l {
            37 => LEN as i64 + 3,
            45 => -3,
            50 => LEN as i64 + 50,
            _ => li,
        },
        7 => li,
        8 => i64::from(!l.is_multiple_of(3)),
        // Uniform, unit-stride, and shapes one lane off them, where
        // the first and last lanes fail (12, 14) or pass (13, 15) the
        // O(1) screen.
        10 => 17,
        11 => li + 9,
        12 => 17 + i64::from(l == 63),
        13 => 17 + 23 * i64::from(l == 30),
        14 => li + 9 - 4 * i64::from(l == 63),
        15 => li + 9 + i64::from(l == 30),
        // Out of bounds: a uniform row past the end, a unit-stride
        // row running off the end at lane 50 (in bounds over a
        // 22-lane prefix), one starting before element 0, and a
        // uniform row with one out-of-bounds lane.
        16 => LEN as i64 + 5,
        17 => li + 30,
        18 => li - 3,
        19 => match l {
            37 => LEN as i64 + 3,
            _ => 17,
        },
        _ => li * -123_456_789,
    }
}

fn frow(r: usize, l: usize) -> f64 {
    let x = l as f64;
    match (r, l) {
        (2, 0) => f64::NAN,
        (2, 1) => f64::INFINITY,
        (2, 2) => f64::NEG_INFINITY,
        (2, 3) => -0.0,
        (2, 4) => 0.0,
        (0, _) => (x - 30.0) * 0.37,
        (1, _) => x * 0.5 + 0.25,
        (2, _) => (x * 1.7).sin() * 100.0,
        (3, _) => (x - 32.0) * 1.3e8,
        _ => (x * 0.9 + r as f64).cos() * 3.0 + 0.5,
    }
}

/// A fresh engine; `patched` makes every hazard lane safe.
fn engine(patched: bool) -> LaneEngine {
    let mut iregs: Vec<Row<i64>> = (0..N_IREGS)
        .map(|r| Row(std::array::from_fn(|l| irow(r, l))))
        .collect();
    if patched {
        for l in HAZARDS {
            iregs[I_ZDIV as usize][l] = 1;
            iregs[I_OOB as usize][l] = l as i64;
        }
    }
    LaneEngine {
        iregs,
        fregs: (0..N_FREGS)
            .map(|r| Row(std::array::from_fn(|l| frow(r, l))))
            .collect(),
        gid: std::array::from_fn(|d| Row(std::array::from_fn(|l| (l * (d + 2)) as i64))),
        steps: Row([0; LANES]),
        stack: Vec::new(),
        tier: Tier::Portable,
        step_limit: u64::MAX,
    }
}

/// Buffer 0 is `F32`, 1 `I32`, 2 `U32`.
fn buffers() -> Vec<BufferData> {
    vec![
        f32_buf(LEN, |i| i as f32 * 1.25 - 9.0),
        BufferData::I32((0..LEN as i32).map(|i| i * 3 - 70).collect()),
        BufferData::U32(
            (0..LEN as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        ),
    ]
}

/// Everything one op leaves behind; floats and buffer elements as bit
/// patterns.
#[derive(Debug, PartialEq, Clone)]
struct Snap {
    result: Result<(), VmError>,
    iregs: Vec<[i64; LANES]>,
    fregs: Vec<[u64; LANES]>,
    bufs: Vec<Vec<u32>>,
}

fn snap(eng: &LaneEngine, bufs: &[BufferData], result: Result<(), VmError>) -> Snap {
    Snap {
        result,
        iregs: eng.iregs.iter().map(|r| r.0).collect(),
        fregs: eng.fregs.iter().map(|r| r.0.map(f64::to_bits)).collect(),
        bufs: bufs
            .iter()
            .map(|b| match b {
                BufferData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
                BufferData::I32(v) => v.iter().map(|&x| x as u32).collect(),
                BufferData::U32(v) => v.clone(),
            })
            .collect(),
    }
}

/// Run `op` once on `s`, with `exec_dec` instantiated with `tier`'s body
/// (compiled with the tier's features on a wide tier, as in
/// `exec_batch_wide`).
fn exec_on<S: LaneSet>(
    tier: Tier,
    eng: &mut LaneEngine,
    op: &DecOp,
    s: S,
    mem: &mut Mem<'_>,
) -> Result<(), VmError> {
    crate::tier_dispatch!(
        tier,
        type K = PortableBody | WideBody,
        fn exec_wide<S: LaneSet>(
            eng: &mut LaneEngine,
            op: &DecOp,
            s: S,
            mem: &mut Mem<'_>,
        ) -> Result<(), VmError> {
            eng.exec_dec::<K, S>(op, s, GSIZE, &[0, 1, 2], mem)
        }
    )
}

/// Run `op` once on `s` from a fresh state on `tier` (see [`exec_on`]).
fn run_op<S: LaneSet>(tier: Tier, op: &DecOp, s: S, patched: bool) -> Snap {
    let mut eng = engine(patched);
    let mut bufs = buffers();
    let r = exec_on(tier, &mut eng, op, s, &mut bufs.mem());
    snap(&eng, &bufs, r)
}

fn dec(code: OpCode, dst: u16, a: u16, b: u16) -> DecOp {
    DecOp {
        code,
        dst,
        a,
        b,
        c: 0,
        d: 0,
        e: 0,
        sub1: 0,
        sub2: 0,
        unsigned: false,
        imm: 0,
        fimm: 0.0,
    }
}

/// A fused pair `c = sub1(a, b)`-style op with the extra fields set.
#[allow(clippy::too_many_arguments)]
fn fused(code: OpCode, c: u16, a: u16, b: u16, dst: u16, d: u16, e: u16, s1: u8, s2: u8) -> DecOp {
    DecOp {
        c,
        d,
        e,
        sub1: s1,
        sub2: s2,
        fimm: 2.5,
        ..dec(code, dst, a, b)
    }
}

/// Every shape of `code` the parity test runs; the match is
/// exhaustive, so a new opcode cannot go untested.
fn cases(code: OpCode) -> Vec<DecOp> {
    use OpCode::*;
    let signs = |ops: Vec<DecOp>| -> Vec<DecOp> {
        ops.into_iter()
            .flat_map(|o| {
                [false, true].map(|u| DecOp {
                    unsigned: u,
                    ..o.clone()
                })
            })
            .collect()
    };
    let ibin = [
        (8, 2, 4),
        (2, 2, 4),
        (4, 2, 4),
        (2, 2, 2),
        (8, 4, 4),
        (8, 2, 7),
    ];
    let fbin = [(7, 0, 2), (0, 0, 2), (2, 0, 2), (0, 0, 0)];
    match code {
        ConstI => vec![DecOp {
            imm: -77,
            ..dec(code, 8, 0, 0)
        }],
        ConstF => vec![DecOp {
            fimm: -1.5,
            ..dec(code, 7, 0, 0)
        }],
        MovI => vec![dec(code, 8, 2, 0), dec(code, 2, 2, 0)],
        MovF => vec![dec(code, 7, 2, 0), dec(code, 2, 2, 0)],
        IAdd | ISub | IMul | IAnd | IOr | IXor | IShl | IShr | ICmpLt | ICmpLe | ICmpGt
        | ICmpGe | ICmpEq | ICmpNe | IMin | IMax => {
            signs(ibin.iter().map(|&(d, a, b)| dec(code, d, a, b)).collect())
        }
        IDiv | IRem => signs(vec![
            dec(code, 8, 2, 3),
            dec(code, 3, 2, 3),
            dec(code, 8, 2, I_ZDIV),
        ]),
        ImmAdd | ImmSub | ImmMul | ImmAnd | ImmOr | ImmXor | ImmShl | ImmShr => signs(
            [-7, 3, 45]
                .into_iter()
                .flat_map(|imm| {
                    [dec(code, 8, 4, 0), dec(code, 4, 4, 0)].map(|o| DecOp { imm, ..o })
                })
                .collect(),
        ),
        ImmDiv | ImmRem => signs(
            [-7, 3, 0]
                .into_iter()
                .map(|imm| DecOp {
                    imm,
                    ..dec(code, 8, 2, 0)
                })
                .collect(),
        ),
        FAdd | FSub | FMul | FDiv | Pow | Fmin | Fmax | Fmod => {
            fbin.iter().map(|&(d, a, b)| dec(code, d, a, b)).collect()
        }
        FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe => {
            vec![dec(code, 8, 0, 2), dec(code, 8, 2, 2)]
        }
        NegI | NotI | BitNotI | CastII | IAbs => signs(vec![
            dec(code, 8, 4, 0),
            dec(code, 4, 4, 0),
            dec(code, 8, 9, 0),
        ]),
        NegF | Sqrt | Rsqrt | Exp | Log | Sin | Cos | Tan | Fabs | Floor | Ceil => {
            vec![dec(code, 7, 2, 0), dec(code, 2, 2, 0), dec(code, 7, 0, 0)]
        }
        CastIF => vec![dec(code, 7, 4, 0), dec(code, 7, 2, 0)],
        CastFI => signs(vec![dec(code, 8, 3, 0), dec(code, 8, 2, 0)]),
        LoadF => vec![dec(code, 7, I_IDX0, 0), dec(code, 7, I_OOB, 0)],
        LoadI => vec![
            dec(code, 8, I_IDX0, 1),
            dec(code, 8, I_IDX1, 2),
            dec(code, I_IDX0, I_IDX0, 1),
            dec(code, 8, I_OOB, 1),
        ],
        StoreF => vec![dec(code, 2, I_IDX0, 0), dec(code, 3, I_OOB, 0)],
        StoreI => vec![
            dec(code, 2, I_IDX1, 1),
            dec(code, 4, I_IDX0, 2),
            dec(code, I_IDX0, I_IDX0, 2),
            dec(code, 2, I_OOB, 1),
        ],
        GlobalId => (0..3).map(|dim| dec(code, 8, dim, 0)).collect(),
        GlobalSize => (0..3).map(|dim| dec(code, 8, dim, 0)).collect(),
        FOp2 => {
            let shapes = [
                (6, 0, 1, 7, 6, 2),
                (6, 0, 1, 7, 2, 6),
                (6, 0, 1, 0, 6, 6),
                (6, 6, 1, 6, 6, 3),
                (6, 0, 1, 7, 2, 3),
            ];
            let mut v = vec![];
            for s1 in 0..=F_CONST {
                for s2 in (0..=F_CONST).filter(|&s2| s1 != F_CONST || s2 != F_CONST) {
                    for (c, a, b, d, p, q) in shapes {
                        v.push(fused(code, c, a, b, d, p, q, s1, s2));
                    }
                }
            }
            v
        }
        IOp2 => {
            let mut v = vec![];
            for s1 in [0, 1, 2, I_UNSIGNED, 1 | I_UNSIGNED, 2 | I_UNSIGNED] {
                for s2 in [0, 1, 2, I_UNSIGNED | 2] {
                    for (c, a, b, d, p, q) in
                        [(8, 2, 4, 9, 8, 3), (8, 2, 4, 2, 8, 8), (8, 8, 2, 8, 3, 8)]
                    {
                        v.push(fused(code, c, a, b, d, p, q, s1, s2));
                    }
                }
            }
            v
        }
        Load2F => vec![
            fused(code, 6, I_IDX0, 0, 7, I_IDX1, 0, 0, 0),
            fused(code, 6, I_OOB, 0, 7, I_IDX0, 0, 0, 0),
            fused(code, 6, I_IDX0, 0, 7, I_OOB, 0, 0, 0),
        ],
        LoadFOp => {
            let mut v = vec![];
            for s2 in 0..F_CONST {
                for (idx, d, p, q) in [(I_IDX0, 7, 6, 2), (I_IDX1, 7, 2, 7), (I_OOB, 7, 6, 6)] {
                    v.push(fused(code, 6, idx, 0, d, p, q, 0, s2));
                }
            }
            v
        }
        FOpStore => {
            let mut v = vec![];
            for s1 in 0..=F_CONST {
                for (a, b, z, idx) in [(0, 2, 7, I_IDX0), (7, 2, 7, I_IDX1), (0, 2, 7, I_OOB)] {
                    let mut o = fused(code, idx, a, b, z, 0, 0, s1, 0);
                    o.d = 0;
                    v.push(o);
                }
            }
            v
        }
    }
}

const ALL_OPCODES: [OpCode; 75] = {
    use OpCode::*;
    [
        ConstI, ConstF, MovI, MovF, IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor, IShl, IShr,
        ImmAdd, ImmSub, ImmMul, ImmDiv, ImmRem, ImmAnd, ImmOr, ImmXor, ImmShl, ImmShr, FAdd, FSub,
        FMul, FDiv, ICmpLt, ICmpLe, ICmpGt, ICmpGe, ICmpEq, ICmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
        FCmpEq, FCmpNe, NegI, NegF, NotI, BitNotI, CastIF, CastFI, CastII, Sqrt, Rsqrt, Exp, Log,
        Sin, Cos, Tan, Fabs, Floor, Ceil, Pow, Fmin, Fmax, Fmod, IMin, IMax, IAbs, LoadF, LoadI,
        StoreF, StoreI, GlobalId, GlobalSize, FOp2, IOp2, Load2F, LoadFOp, FOpStore,
    ]
};

/// The buffer elements lane `l` of `op` stores to, as (buffer, index).
fn store_target(op: &DecOp, eng: &LaneEngine, l: usize) -> Option<(usize, usize)> {
    let (idx, buf) = if matches!(op.code, OpCode::StoreF | OpCode::StoreI) {
        (op.a, op.b)
    } else if op.code == OpCode::FOpStore {
        (op.c, op.d)
    } else {
        return None;
    };
    Some((buf as usize, eng.iregs[idx as usize][l] as usize))
}

/// Whether `code` can fault on some operand values: such an op never
/// runs under [`Select`] (see [`crate::cfg::CfgInfo::if_arm`]).
fn can_fault(code: OpCode) -> bool {
    use OpCode::*;
    matches!(
        code,
        IDiv | IRem
            | ImmDiv
            | ImmRem
            | LoadF
            | LoadI
            | StoreF
            | StoreI
            | Load2F
            | LoadFOp
            | FOpStore
    )
}

/// The rows `op` writes, as `(float file, row)`: under `Prefix(n)`, the
/// only rows whose lanes `n..` may change.
fn dests(op: &DecOp) -> Vec<(bool, u16)> {
    use OpCode::*;
    match op.code {
        StoreF | StoreI => vec![],
        FOp2 | Load2F | LoadFOp => vec![(true, op.c), (true, op.dst)],
        IOp2 => vec![(false, op.c), (false, op.dst)],
        ConstF | MovF | FAdd | FSub | FMul | FDiv | NegF | CastIF | Sqrt | Rsqrt | Exp | Log
        | Sin | Cos | Tan | Fabs | Floor | Ceil | Pow | Fmin | Fmax | Fmod | LoadF | FOpStore => {
            vec![(true, op.dst)]
        }
        _ => vec![(false, op.dst)],
    }
}

/// Assert that `Prefix(n)` left `p` where a lane set that touches only
/// lanes `..n` left `other`: the same state at `n == LANES`. Below it the
/// same result, buffers and lanes `..n`, and every row `op` does not
/// write unchanged in every lane; only the destination rows' lanes `n..`
/// are scratch, which `Prefix`'s full-width passes may overwrite.
fn assert_prefix_agrees(p: &Snap, other: &Snap, op: &DecOp, n: usize, what: &str) {
    if n == LANES {
        return assert_eq!(p, other, "{what}");
    }
    assert_eq!(p.result, other.result, "result: {what}");
    assert_eq!(p.bufs, other.bufs, "buffers: {what}");
    fn rows<T: PartialEq + std::fmt::Debug>(
        p: &[[T; LANES]],
        other: &[[T; LANES]],
        float: bool,
        op: &DecOp,
        n: usize,
        what: &str,
    ) {
        assert_eq!(p.len(), other.len(), "{what}");
        let scratch = dests(op);
        for (r, (x, y)) in p.iter().zip(other).enumerate() {
            let upto = if scratch.contains(&(float, r as u16)) {
                n
            } else {
                LANES
            };
            assert_eq!(
                x[..upto],
                y[..upto],
                "float {float} row {r}, lanes ..{upto}: {what}"
            );
        }
    }
    rows(&p.iregs, &other.iregs, false, op, n, what);
    rows(&p.fregs, &other.fregs, true, op, n, what);
}

/// Check one op on one tier.
fn check_lane_sets(tier: Tier, op: &DecOp) {
    let ctx = format!("{op:?} on {}", tier.name());
    let select = !can_fault(op.code);
    // Prefix(n), Masked(full(n)) and, for an op that cannot fault,
    // Select(full(n)) leave the same state, faults included, but for
    // the dead lanes past a partial prefix (see `assert_prefix_agrees`).
    let mut faults = false;
    for n in [LANES, 22] {
        let p = run_op(tier, op, Prefix(n), false);
        let m = run_op(tier, op, Masked(ExecMask::full(n)), false);
        let what = format!("Prefix({n}) vs Masked(full({n})): {ctx}");
        assert_prefix_agrees(&p, &m, op, n, &what);
        if select {
            let s = run_op(tier, op, Select(ExecMask::full(n)), false);
            let what = format!("Prefix({n}) vs Select(full({n})): {ctx}");
            assert_prefix_agrees(&p, &s, op, n, &what);
        }
        faults |= p.result.is_err();
    }
    // Under a sparse mask over safe lanes, active lanes match the
    // full-width run (with the hazards patched away) and inactive
    // lanes' rows and buffer elements keep their values, even where
    // an inactive lane holds an out-of-bounds index or zero divisor.
    let init = snap(&engine(false), &buffers(), Ok(()));
    let full = run_op(tier, op, Prefix(LANES), true);
    let sparse = run_op(tier, op, Masked(ExecMask(SPARSE)), false);
    if full.result.is_ok() {
        assert_eq!(sparse.result, Ok(()), "sparse mask faulted: {ctx}");
        let on = |l: usize| SPARSE >> l & 1 != 0;
        fn blend<T: Copy>(
            on: impl Fn(usize) -> bool,
            new: &[[T; LANES]],
            old: &[[T; LANES]],
        ) -> Vec<[T; LANES]> {
            new.iter()
                .zip(old)
                .map(|(n, o)| std::array::from_fn(|l| if on(l) { n[l] } else { o[l] }))
                .collect()
        }
        assert_eq!(
            sparse.iregs,
            blend(on, &full.iregs, &init.iregs),
            "I rows: {ctx}"
        );
        assert_eq!(
            sparse.fregs,
            blend(on, &full.fregs, &init.fregs),
            "F rows: {ctx}"
        );
        let mut want = init.bufs.clone();
        let eng = engine(false);
        for l in (0..LANES).filter(|&l| on(l)) {
            if let Some((b, i)) = store_target(op, &eng, l) {
                want[b][i] = full.bufs[b][i];
            }
        }
        assert_eq!(sparse.bufs, want, "buffers: {ctx}");
        // Select computes the inactive lanes too, but stores only the
        // active ones: the same rows and buffers as the masked walk.
        if select {
            let s = run_op(tier, op, Select(ExecMask(SPARSE)), false);
            assert_eq!(s, sparse, "Select vs Masked under a sparse mask: {ctx}");
        }
    }
    // With the hazard lanes active too, the fault is the one the
    // lowest faulting active lane raises on its own.
    let hazardous = ExecMask(SPARSE | HAZARD_BITS);
    let m = run_op(tier, op, Masked(hazardous), false);
    if !faults && m.result.is_ok() {
        return;
    }
    let lowest = hazardous.lanes().find_map(|l| {
        run_op(tier, op, Masked(ExecMask(1 << l)), false)
            .result
            .err()
    });
    assert_eq!(m.result, lowest.map_or(Ok(()), Err), "fault lane: {ctx}");
}

#[test]
fn lane_sets_agree_op_by_op() {
    let tiers = Tier::supported();
    let mut faulting = 0;
    for code in ALL_OPCODES {
        let ops = cases(code);
        assert!(!ops.is_empty(), "{code:?} has no case");
        for op in &ops {
            for &tier in &tiers {
                check_lane_sets(tier, op);
            }
            if run_op(Tier::Portable, op, Prefix(LANES), false)
                .result
                .is_err()
            {
                faulting += 1;
            }
        }
    }
    // The faulting shapes: zero divisors (IDiv, IRem, ImmDiv and
    // ImmRem by zero, each signed and unsigned) and out-of-bounds
    // accesses (LoadF, LoadI, StoreF, StoreI, two Load2F halves, 16
    // LoadFOp and 17 FOpStore sub-ops).
    assert_eq!(faulting, 8 + 1 + 1 + 1 + 1 + 2 + 16 + 17);
    // The gathers again on index rows with a row-pass shape, one lane
    // off one, or out of bounds on some lanes; `Select` too.
    for op in shaped_cases() {
        for &tier in &tiers {
            check_shaped(tier, &op);
        }
    }
}

/// Every gather on every row of `I_SHAPED` and `I_SHAPED_OOB`.
/// (Scatters have no row-pass shape, and the sparse-mask check above
/// assumes lanes store to distinct elements.)
fn shaped_cases() -> Vec<DecOp> {
    use OpCode::*;
    let mut v = vec![];
    for r in I_SHAPED.into_iter().chain(I_SHAPED_OOB) {
        let ops = [
            dec(LoadF, 7, r, 0),
            dec(LoadI, 8, r, 1),
            dec(LoadI, 8, r, 2),
            dec(LoadI, r, r, 1),
            fused(Load2F, 6, r, 0, 7, I_IDX0, 0, 0, 0),
            fused(Load2F, 6, I_IDX1, 0, 7, r, 0, 0, 0),
            fused(Load2F, 6, r, 0, 7, r, 0, 0, 0),
            // The compute half reads the fresh load, updates in
            // place, or is a `math` op.
            fused(LoadFOp, 6, r, 0, 7, 6, 2, 0, F_ADD),
            fused(LoadFOp, 6, r, 0, 7, 2, 7, 0, F_MUL),
            fused(LoadFOp, 6, r, 0, 7, 6, 6, 0, 7),
        ];
        v.extend(ops);
    }
    v
}

/// [`check_lane_sets`], plus `Select`, whose gathers walk the active
/// lanes as `Masked` does: it leaves `Prefix`'s state under a full mask
/// (up to `Prefix`'s dead lanes) and `Masked`'s under a partial one,
/// faults included.
fn check_shaped(tier: Tier, op: &DecOp) {
    check_lane_sets(tier, op);
    let ctx = format!("{op:?} on {}", tier.name());
    for n in [LANES, 22] {
        let p = run_op(tier, op, Prefix(n), false);
        let s = run_op(tier, op, Select(ExecMask::full(n)), false);
        let what = format!("Prefix({n}) vs Select(full({n})): {ctx}");
        assert_prefix_agrees(&p, &s, op, n, &what);
    }
    for m in [SPARSE, SPARSE | HAZARD_BITS] {
        let s = run_op(tier, op, Select(ExecMask(m)), false);
        let w = run_op(tier, op, Masked(ExecMask(m)), false);
        assert_eq!(s, w, "Select vs Masked under {m:#x}: {ctx}");
    }
}

#[test]
fn index_rows_classify_by_shape() {
    let row = |r: u16| Row(std::array::from_fn(|l| irow(r as usize, l)));
    let shapes = |n| I_SHAPED.map(|r| index_shape(&row(r), n));
    use Shape::*;
    assert_eq!(
        shapes(LANES),
        [
            Uniform(17),
            Stride(9, LANES),
            Scattered,
            Scattered,
            Scattered,
            Scattered
        ]
    );
    // Over a 22-lane prefix the odd lanes fall outside.
    assert_eq!(
        shapes(22),
        [
            Uniform(17),
            Stride(9, 22),
            Uniform(17),
            Uniform(17),
            Stride(9, 22),
            Stride(9, 22)
        ]
    );
    assert_eq!(index_shape(&row(I_IDX0), LANES), Scattered);
    assert_eq!(index_shape(&row(7), 1), Uniform(0));
}

/// A branch mask on `tier`: the fused `BranchCmp` form (`Some(op)`)
/// or the boolean `v != 0` form of `Branch` on `a` (`None`), compiled
/// with the tier's features on a wide tier, as in `exec_batch_wide`.
fn branch_mask<T: Copy + PartialOrd + Default>(
    tier: Tier,
    op: Option<CmpOp>,
    a: &Row<T>,
    b: &Row<T>,
) -> u64 {
    crate::tier_dispatch!(
        tier,
        type K = PortableBody | WideBody,
        fn mask_wide<T: Copy + PartialOrd + Default>(
            op: Option<CmpOp>,
            a: &Row<T>,
            b: &Row<T>,
        ) -> u64 {
            match op {
                Some(op) => cmp_rows::<K, T>(op, a, b),
                None => pack_rows::<K, _, _>(a, a, |v, _| v != T::default()),
            }
        }
    )
}

/// Check every mask form on `a`, `b` against a per-lane reference,
/// over all lanes and with the rows past a 22-lane prefix stale.
fn check_masks<T: Copy + PartialOrd + Default + std::fmt::Debug>(
    tier: Tier,
    a: &Row<T>,
    b: &Row<T>,
) {
    use CmpOp::*;
    // The condition lane `l` evaluates on its own.
    let holds = |op: Option<CmpOp>, l: usize| {
        let (x, y) = (a[l], b[l]);
        match op {
            Some(Lt) => x < y,
            Some(Le) => x <= y,
            Some(Gt) => x > y,
            Some(Ge) => x >= y,
            Some(Eq) => x == y,
            Some(Ne) => x != y,
            None => x != T::default(),
        }
    };
    let live = ExecMask::full(22).0;
    for op in [
        Some(Lt),
        Some(Le),
        Some(Gt),
        Some(Ge),
        Some(Eq),
        Some(Ne),
        None,
    ] {
        let reference =
            |lanes: usize| (0..lanes).fold(0u64, |m, l| m | u64::from(holds(op, l)) << l);
        let got = branch_mask(tier, op, a, b);
        let ctx = format!("{op:?} on {}: {:?} vs {:?}", tier.name(), a.0, b.0);
        assert_eq!(got, reference(LANES), "{ctx}");
        assert_eq!(got & live, reference(22), "22-lane prefix: {ctx}");
    }
}

#[test]
fn branch_masks_match_a_per_lane_reference_on_every_tier() {
    let tiers = Tier::supported();
    let ints = [
        i64::MIN,
        i64::MIN + 1,
        -7,
        -1,
        0,
        1,
        7,
        i64::MAX - 1,
        i64::MAX,
    ];
    let floats = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.5,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        1.5,
        f64::INFINITY,
        -f64::NAN,
    ];
    // Rows pairing every special value with every other somewhere,
    // and equal on some lanes; lanes 22 and up are the stale tail of
    // a partial batch, so they differ from the live lanes' pattern.
    let pick = |vals: &[i64; 9], seed: usize, l: usize| {
        let k = if l < 22 { l * seed } else { l * l + seed };
        vals[(k + l / 9) % 9]
    };
    let ia = Row(std::array::from_fn(|l| pick(&ints, 1, l)));
    let ib = Row(std::array::from_fn(|l| pick(&ints, 4, l)));
    let fa = Row(std::array::from_fn(|l| floats[(l + l / 9) % 9]));
    let fb = Row(std::array::from_fn(|l| floats[(4 * l + l / 9 + 1) % 9]));
    for &tier in &tiers {
        check_masks(tier, &ia, &ib);
        check_masks(tier, &ia, &ia);
        check_masks(tier, &fa, &fb);
        check_masks(tier, &fb, &fa);
        check_masks(tier, &fa, &fa);
        // Rows of one value each, so that every bit is set or clear.
        for &x in &ints {
            check_masks(tier, &Row([x; LANES]), &ib);
        }
        for &x in &floats {
            check_masks(tier, &Row([x; LANES]), &fb);
        }
    }
}

/// `2^k` for `-1074 <= k <= 1023`, built from its bits.
fn pow2(k: i32) -> f64 {
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (k + 1074))
    }
}

#[test]
fn constant_division_becomes_a_multiply_exactly_when_bit_identical() {
    // Divisors, each with whether its reciprocal is finite and exact:
    // every ±2^k (2^-1074 up to 2^-1024 have reciprocals that overflow),
    // then values with no exact or no finite reciprocal.
    let mut divisors: Vec<(f64, bool)> = (-1074..=1023)
        .flat_map(|k| {
            let c = pow2(k);
            [(c, k >= -1023), (-c, k >= -1023)]
        })
        .collect();
    for c in [
        3.0,
        0.1,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        divisors.push((c, false));
    }
    assert_eq!(exact_recip(pow2(-1074)), None);
    assert_eq!(exact_recip(pow2(-1023)), Some(pow2(1023)));
    // Inputs: the special values, then a dense sweep of bit patterns
    // over every exponent, both signs and NaN payloads; 8 rows.
    let specials = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        -f64::from_bits((1 << 52) - 1),
        1.0,
        -1.0,
        f64::MAX,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let inputs: Vec<f64> = specials
        .into_iter()
        .chain((0u64..).map(|i| f64::from_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
        .take(8 * LANES)
        .collect();
    // `dst = x / c` as an `FOp2` whose first half loads the constant.
    let op = fused(OpCode::FOp2, 1, 0, 0, 2, 0, 1, F_CONST, F_DIV);
    for tier in Tier::supported() {
        let mut eng = engine(false);
        for &(c, exact) in &divisors {
            assert_eq!(exact_recip(c).is_some(), exact, "fires on {c:e}");
            let op = DecOp {
                fimm: c,
                ..op.clone()
            };
            for xs in inputs.chunks(LANES) {
                eng.fregs[0] = Row(std::array::from_fn(|l| xs[l]));
                let r = exec_on(tier, &mut eng, &op, Prefix(LANES), &mut buffers().mem());
                assert_eq!(r, Ok(()));
                for (l, &x) in xs.iter().enumerate() {
                    let (got, want) = (eng.fregs[2][l], x / c);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{x:e} / {c:e} on {}: {got:e}, want {want:e}",
                        tier.name()
                    );
                }
            }
        }
    }
}
