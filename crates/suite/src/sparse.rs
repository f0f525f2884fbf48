//! Sparse / irregular workloads (SHOC): `spmv_csr`.

use hetpart_inspire::ir::NdRange;
use hetpart_inspire::vm::{ArgValue, BufferData};

use crate::workload::{hash_f32, hash_series, hash_u64, reduce, Benchmark, Instance};

/// Average non-zeros per row of the generated matrices.
pub const NNZ_PER_ROW: usize = 8;

const SPMV_SRC: &str = r#"
kernel void spmv_csr(global const int* row_ptr, global const int* col_idx,
                     global const float* vals, global const float* x,
                     global float* y, int n) {
    int i = get_global_id(0);
    float s = 0.0;
    int start = row_ptr[i];
    int end = row_ptr[i + 1];
    for (int j = start; j < end; j++) {
        s += vals[j] * x[col_idx[j]];
    }
    y[i] = s;
}
"#;

/// `spmv_csr` — CSR sparse matrix-vector product; the canonical
/// irregular-gather workload (data-dependent inner loop bounds and
/// indices).
pub fn spmv_csr() -> Benchmark {
    Benchmark {
        name: "spmv_csr",
        origin: "SHOC",
        description: "CSR sparse matrix-vector multiplication",
        source: SPMV_SRC,
        sizes: &[1024, 4096, 16384, 65536, 262144, 1048576],
        setup: |n, seed| {
            // Deterministic sparsity: row i has 1 + (hash % (2*avg-1))
            // entries at pseudo-random columns, so row lengths diverge.
            // Row i's entries hash indices i*131 + j. The modulus is a
            // constant, so the row lengths compile to a multiply.
            let lens: Vec<usize> = (0..n as u64)
                .map(|i| 1 + hash_u64(seed ^ 41, i) as usize % (2 * NNZ_PER_ROW - 1))
                .collect();
            let mut row_ptr = Vec::with_capacity(n + 1);
            row_ptr.push(0i32);
            for len in &lens {
                row_ptr.push(row_ptr[row_ptr.len() - 1] + *len as i32);
            }
            let nnz = row_ptr[n] as usize;
            let mut col_idx = Vec::with_capacity(nnz);
            let mut vals = Vec::with_capacity(nnz);
            for (i, &len) in lens.iter().enumerate() {
                for j in 0..len {
                    let k = (i * 131 + j) as u64;
                    col_idx.push(reduce(hash_u64(seed ^ 42, k), n) as i32);
                    vals.push(hash_f32(seed ^ 43, k, -1.0, 1.0));
                }
            }
            let x = hash_series(seed ^ 44, n, -1.0, 1.0);
            Instance {
                nd: NdRange::d1(n),
                args: vec![
                    ArgValue::Buffer(0),
                    ArgValue::Buffer(1),
                    ArgValue::Buffer(2),
                    ArgValue::Buffer(3),
                    ArgValue::Buffer(4),
                    ArgValue::Int(n as i32),
                ],
                bufs: vec![
                    BufferData::I32(row_ptr),
                    BufferData::I32(col_idx),
                    BufferData::F32(vals),
                    BufferData::F32(x),
                    BufferData::F32(vec![0.0; n]),
                ],
                outputs: vec![4],
            }
        },
        reference: |inst| {
            let row_ptr = inst.bufs[0].as_i32().expect("i32");
            let col_idx = inst.bufs[1].as_i32().expect("i32");
            let vals = inst.bufs[2].as_f32().expect("f32");
            let x = inst.bufs[3].as_f32().expect("f32");
            let n = inst.bufs[4].len();
            let mut y = vec![0.0f32; n];
            for (i, yo) in y.iter_mut().enumerate() {
                let mut s = 0.0f64;
                for j in row_ptr[i] as usize..row_ptr[i + 1] as usize {
                    s += f64::from(vals[j]) * f64::from(x[col_idx[j] as usize]);
                }
                *yo = s as f32;
            }
            vec![(4, BufferData::F32(y))]
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_verifies() {
        spmv_csr().run_and_verify(1024).unwrap();
    }

    #[test]
    fn spmv_has_irregular_rows() {
        let b = spmv_csr();
        let inst = (b.setup)(1024, 3);
        let row_ptr = inst.bufs[0].as_i32().unwrap();
        let lens: Vec<i32> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        assert!(max > min, "row lengths must vary: min={min} max={max}");
        assert!(*max as usize <= 2 * NNZ_PER_ROW);
    }

    /// The generator as one per-index loop, with `%` for every column.
    fn per_index(n: usize, seed: u64) -> [BufferData; 4] {
        let mut row_ptr = vec![0i32];
        let (mut col_idx, mut vals) = (Vec::new(), Vec::new());
        for i in 0..n {
            let nnz = 1 + (hash_u64(seed ^ 41, i as u64) as usize) % (2 * NNZ_PER_ROW - 1);
            for j in 0..nnz {
                let k = (i * 131 + j) as u64;
                col_idx.push((hash_u64(seed ^ 42, k) as usize % n) as i32);
                vals.push(hash_f32(seed ^ 43, k, -1.0, 1.0));
            }
            row_ptr.push(col_idx.len() as i32);
        }
        let x = (0..n as u64).map(|i| hash_f32(seed ^ 44, i, -1.0, 1.0));
        [
            BufferData::I32(row_ptr),
            BufferData::I32(col_idx),
            BufferData::F32(vals),
            BufferData::F32(x.collect()),
        ]
    }

    #[test]
    fn spmv_matches_its_per_index_form() {
        // 1000 divides; 1024 masks.
        for n in [1000, 1024] {
            for seed in [0, 7, u64::MAX] {
                let inst = (spmv_csr().setup)(n, seed);
                assert_eq!(inst.bufs[..4], per_index(n, seed), "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn spmv_is_flagged_indirect_by_the_compiler() {
        let k = spmv_csr().compile();
        assert!(k.static_features.indirect_accesses >= 1);
    }
}
