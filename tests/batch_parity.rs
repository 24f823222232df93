//! Parity guarantees of the batched inference path: `vdp_batch` tiles,
//! the im2col patch gather, and block-parallel conv forward must all be
//! bit-identical to their single-vector / per-pixel references — for the
//! exact engine, the noiseless stochastic engine, and the noisy engine
//! with keyed ADC error. The weight-stationary extensions obey the same
//! bar: `PreparedWeights` tiles and whole-batch stacked tiles must be
//! bit-equal to the unprepared per-request paths.

use proptest::prelude::*;
use sconna::accel::SconnaEngine;
use sconna::photonics::pca::AdcModel;
use sconna::sc::Precision;
use sconna::tensor::arena::BatchArena;
use sconna::tensor::engine::{
    combine_keys, mix_key, ExactEngine, PatchMatrix, VdpEngine, WeightMatrix,
};
use sconna::tensor::layers::QConv2d;
use sconna::tensor::quant::{ActivationQuant, Requant, WeightQuant};
use sconna::tensor::Tensor;

fn unit_requant() -> Requant {
    Requant::new(
        ActivationQuant {
            scale: 1.0,
            bits: 8,
        },
        WeightQuant {
            scale: 1.0,
            bits: 8,
        },
        ActivationQuant {
            scale: 1.0,
            bits: 8,
        },
    )
}

/// Asserts the `vdp_batch` contract on one engine: entry `(p, k)` equals
/// the single-vector call under the combined key, bit for bit — and the
/// weight-stationary `vdp_batch_prepared` path reproduces the same tile
/// exactly.
fn assert_batch_parity(
    engine: &dyn VdpEngine,
    patches: &PatchMatrix,
    wm: &WeightMatrix<'_>,
    keys: &[u64],
) {
    let got = engine.vdp_batch(patches, wm, keys);
    assert_eq!(got.len(), patches.rows() * wm.rows());
    for p in 0..patches.rows() {
        for k in 0..wm.rows() {
            let want = engine.vdp_keyed(patches.row(p), wm.row(k), combine_keys(keys[p], k as u64));
            assert_eq!(
                got[p * wm.rows() + k].to_bits(),
                want.to_bits(),
                "{}: tile entry ({p}, {k}) diverged from per-vector path",
                engine.name()
            );
        }
    }
    let prepared = engine.prepare_weights(wm);
    let fast = engine.vdp_batch_prepared(patches, &prepared, keys);
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{}: prepared tile diverged from raw tile",
        engine.name()
    );
}

proptest! {
    /// Tile ≡ per-vector for both engines across precisions, VDPE sizes
    /// (ragged tail chunks included) and ADC on/off.
    #[test]
    fn prop_vdp_batch_matches_per_vector(
        bits in 2u8..=9,
        vdpe in 3usize..=40,
        cols in 0usize..=90,
        rows in 1usize..=4,
        kernels in 1usize..=6,
        seed in 0u64..=1000,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let precision = Precision::new(bits);
        let qmax = precision.max_value();
        let patches = PatchMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as u32 * 37 + seed as u32) % (qmax + 1)).collect(),
        );
        let wdata: Vec<i32> = (0..kernels * cols)
            .map(|i| ((i as i64 * 53 + seed as i64) % (2 * qmax as i64 + 1)) as i32 - qmax as i32)
            .collect();
        let wm = WeightMatrix::new(&wdata, kernels, cols);
        let keys: Vec<u64> = (0..rows as u64).map(|p| p.wrapping_mul(seed | 1)).collect();

        let adc = noisy.then(AdcModel::sconna_default);
        let sconna = SconnaEngine::new(precision, vdpe, adc, seed);
        assert_batch_parity(&sconna, &patches, &wm, &keys);
        assert_batch_parity(&ExactEngine, &patches, &wm, &keys);
    }

    /// The column-stationary prepared tile ≡ per-vector `vdp_keyed`, bit
    /// for bit, across its block boundaries (0, 1, 127, 128, 129 and 300
    /// patch rows against 128-patch blocks), odd chunk boundaries (VDPE
    /// sizes 1, 3, 175, 176, 177), every LUT precision B1–B10 plus the
    /// table-less B12 fallback, with and without the ADC, and at 0 %,
    /// 50 %, 90 % and 100 % zero inputs (the sparse sweep skips zeros).
    /// Operands run past the representable range, so the clamp is
    /// exercised too.
    #[test]
    fn prop_prepared_tile_matches_per_vector(
        rows_i in 0usize..6,
        vdpe_i in 0usize..5,
        bits_i in 0usize..11,
        cols in 0usize..=360,
        kernels in 1usize..=3,
        seed in 0u64..=1000,
        noisy in 0u8..=1,
        zeros_i in 0usize..4,
    ) {
        let rows = [0usize, 1, 127, 128, 129, 300][rows_i];
        let zero_tenths = [0u64, 5, 9, 10][zeros_i];
        let vdpe = [1usize, 3, 175, 176, 177][vdpe_i];
        let bits = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12][bits_i];
        let qmax = Precision::new(bits).max_value();
        let patches = PatchMatrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| {
                    let zero = mix_key(i as u64 ^ seed << 32) % 10 < zero_tenths;
                    if zero { 0 } else { (i as u32 * 37 + seed as u32) % (qmax + 3) }
                })
                .collect(),
        );
        let span = 2 * qmax as i64 + 5;
        let wdata: Vec<i32> = (0..kernels * cols)
            .map(|i| ((i as i64 * 53 + seed as i64) % span - span / 2) as i32)
            .collect();
        let wm = WeightMatrix::new(&wdata, kernels, cols);
        let keys: Vec<u64> = (0..rows as u64).map(|p| p.wrapping_mul(seed | 1) ^ seed).collect();

        let adc = (noisy == 1).then(AdcModel::sconna_default);
        let engine = SconnaEngine::new(Precision::new(bits), vdpe, adc, seed);
        let prepared = engine.prepare_weights(&wm);
        let got = engine.vdp_batch_prepared(&patches, &prepared, &keys);
        prop_assert_eq!(got.len(), rows * kernels);
        for p in 0..rows {
            for k in 0..kernels {
                let want = engine.vdp_keyed(patches.row(p), wm.row(k), combine_keys(keys[p], k as u64));
                prop_assert_eq!(
                    got[p * kernels + k].to_bits(),
                    want.to_bits(),
                    "B{} vdpe {} rows {} cols {} zeros {}/10: entry ({}, {})",
                    bits, vdpe, rows, cols, zero_tenths, p, k
                );
            }
        }
    }

    /// im2col + batched tiles ≡ per-pixel gather + single-vector calls on
    /// random conv geometries (stride / padding / groups / kernel size),
    /// and the block-parallel forward is worker-count invariant — all
    /// checked on the *noisy* engine, where any key or gather mismatch
    /// shows up as a bit difference.
    #[test]
    fn prop_conv_forward_matches_reference_gather(
        d_g in 1usize..=3,
        groups in 1usize..=3,
        kpg in 1usize..=3,
        k in 1usize..=2,
        stride in 1usize..=2,
        padding in 0usize..=1,
        extra_h in 0usize..=5,
        extra_w in 0usize..=5,
        seed in 0u64..=500,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let k = 2 * k - 1; // kernel side 1 or 3
        let d_in = d_g * groups;
        let l = kpg * groups;
        let (h, w) = (k + extra_h, k + extra_w);
        let conv = QConv2d {
            name: format!("prop-{seed}"),
            weights: Tensor::from_fn(&[l, d_g, k, k], |i| ((i as i64 + seed as i64) % 255) as i32 - 127),
            bias: (0..l).map(|b| b as f64 - 1.0).collect(),
            stride,
            padding,
            groups,
            requant: unit_requant(),
        };
        let input = Tensor::<u32>::from_fn(&[d_in, h, w], |i| ((i as u64 * 31 + seed) % 256) as u32);

        let engine: Box<dyn VdpEngine> = if noisy {
            Box::new(SconnaEngine::paper_default(seed))
        } else {
            Box::new(ExactEngine)
        };
        let reference = conv.forward_reference(&input, engine.as_ref());
        let batched = conv.forward(&input, engine.as_ref());
        prop_assert_eq!(reference.as_slice(), batched.as_slice());

        for workers in [2usize, 8] {
            let parallel = conv.forward_keyed(&input, engine.as_ref(), conv.layer_key(), workers);
            prop_assert_eq!(batched.as_slice(), parallel.as_slice(), "workers {}", workers);
        }
    }

    /// The weight-stationary serving path — prepared per-group handles +
    /// the im2col patches of a whole request batch stacked into one tile
    /// — must be bit-equal to running each request through the plain
    /// per-request `forward_keyed`, for every worker count, on random
    /// conv geometries and batch compositions, with and without ADC
    /// noise.
    #[test]
    fn prop_prepared_batch_tiles_match_per_request_forward(
        d_g in 1usize..=2,
        groups in 1usize..=3,
        kpg in 1usize..=3,
        k in 1usize..=2,
        stride in 1usize..=2,
        padding in 0usize..=1,
        extra in 0usize..=4,
        n_images in 1usize..=4,
        seed in 0u64..=500,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let k = 2 * k - 1; // kernel side 1 or 3
        let d_in = d_g * groups;
        let l = kpg * groups;
        let (h, w) = (k + extra, k + 1);
        let conv = QConv2d {
            name: format!("prep-{seed}"),
            weights: Tensor::from_fn(&[l, d_g, k, k], |i| ((i as i64 * 3 + seed as i64) % 255) as i32 - 127),
            bias: (0..l).map(|b| b as f64 * 0.5).collect(),
            stride,
            padding,
            groups,
            requant: unit_requant(),
        };
        let images: Vec<Tensor<u32>> = (0..n_images)
            .map(|b| Tensor::<u32>::from_fn(&[d_in, h, w], |i| ((i as u64 * 23 + seed + b as u64 * 101) % 256) as u32))
            .collect();
        let base_keys: Vec<u64> = (0..n_images as u64).map(|b| seed.wrapping_mul(31).wrapping_add(b * 7919)).collect();

        let engine: Box<dyn VdpEngine> = if noisy {
            Box::new(SconnaEngine::paper_default(seed))
        } else {
            Box::new(ExactEngine)
        };
        // Per-request reference: plain unprepared single-image forwards.
        let singles: Vec<Tensor<u32>> = images
            .iter()
            .zip(&base_keys)
            .map(|(im, &bk)| conv.forward_keyed(im, engine.as_ref(), bk, 1))
            .collect();

        let prepared = conv.prepare(engine.as_ref());
        let refs: Vec<&Tensor<u32>> = images.iter().collect();
        for workers in [1usize, 2, 8] {
            let stacked = conv.forward_batch_keyed(&refs, engine.as_ref(), Some(&prepared), &base_keys, workers);
            prop_assert_eq!(stacked.len(), singles.len());
            for (b, (got, want)) in stacked.iter().zip(&singles).enumerate() {
                prop_assert_eq!(got.as_slice(), want.as_slice(), "image {} workers {}", b, workers);
            }
        }
        // Single-image prepared forward is the same contract at batch 1.
        let one = conv.forward_prepared_keyed(&images[0], engine.as_ref(), &prepared, base_keys[0], 2);
        prop_assert_eq!(one.as_slice(), singles[0].as_slice());

        // Arena-reused scratch is observationally pure: running the same
        // batch repeatedly through one (increasingly dirty) arena, at any
        // worker count, must reproduce the allocating path bit-for-bit.
        let arena = BatchArena::new();
        for workers in [1usize, 2, 8] {
            let pooled = conv.forward_batch_keyed_in(
                &refs, engine.as_ref(), Some(&prepared), &base_keys, workers, &arena);
            for (b, (got, want)) in pooled.iter().zip(&singles).enumerate() {
                prop_assert_eq!(got.as_slice(), want.as_slice(), "arena image {} workers {}", b, workers);
            }
            // Recycle the outputs so the next round draws dirty buffers.
            for t in pooled {
                arena.recycle(t);
            }
        }
    }

    /// Whole-network arena threading: `forward_batch_in` through one
    /// long-lived arena (dirtied across calls, layers and images — the
    /// serving-instance usage) is bit-identical to the allocating
    /// `forward_batch`, logits compared exactly.
    #[test]
    fn prop_network_forward_batch_in_arena_is_bit_identical(
        n_images in 1usize..=3,
        seed in 0u64..=200,
        noisy in 0u8..=1,
    ) {
        let noisy = noisy == 1;
        let aq = ActivationQuant { scale: 1.0 / 255.0, bits: 8 };
        let wq = WeightQuant { scale: 1.0 / 127.0, bits: 8 };
        let net = sconna::tensor::network::QuantizedNetwork {
            input_quant: aq,
            layers: vec![
                sconna::tensor::network::QLayer::Conv(QConv2d {
                    name: format!("net-c1-{seed}"),
                    weights: Tensor::from_fn(&[4, 1, 3, 3], |i| ((i as u64 * 29 + seed) % 255) as i32 - 127),
                    bias: vec![0.0; 4],
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    requant: Requant::new(aq, wq, aq),
                }),
                sconna::tensor::network::QLayer::MaxPool(sconna::tensor::layers::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                }),
                sconna::tensor::network::QLayer::GlobalAvgPool,
                sconna::tensor::network::QLayer::Fc(sconna::tensor::layers::QFc {
                    name: format!("net-fc-{seed}"),
                    weights: Tensor::from_fn(&[3, 4], |i| ((i as u64 * 67 + seed) % 255) as i32 - 127),
                    bias: vec![0.0; 3],
                    dequant: aq.scale * wq.scale,
                }),
            ],
        };
        let engine: Box<dyn VdpEngine> = if noisy {
            Box::new(SconnaEngine::paper_default(seed))
        } else {
            Box::new(ExactEngine)
        };
        let prepared = net.prepare(engine.as_ref());
        let images: Vec<Tensor<f32>> = (0..n_images)
            .map(|b| Tensor::from_fn(&[1, 12, 12], |i| ((i as u64 * 13 + seed + b as u64 * 71) % 256) as f32 / 255.0))
            .collect();
        let refs: Vec<&Tensor<f32>> = images.iter().collect();
        let keys: Vec<u64> = (0..n_images as u64).map(|b| seed.wrapping_add(b * 977)).collect();

        let want = prepared.forward_batch(&refs, &keys, 1);
        let arena = BatchArena::new();
        for round in 0..3 {
            for workers in [1usize, 2, 8] {
                let got = prepared.forward_batch_in(&refs, &keys, workers, &arena);
                prop_assert_eq!(&got, &want, "round {} workers {}", round, workers);
            }
        }
    }
}

/// The conv row-block split counts patches over the whole batch, so a
/// layer with an 8×8 output splits into more blocks as the batch grows
/// (one block up to 2 images, eight from 16). Every split must leave
/// each image bit-equal to its own per-image `forward_keyed`, prepared or
/// not, at any worker count.
#[test]
fn conv_batch_split_matches_per_image_forward_on_8x8_output() {
    let conv = QConv2d {
        name: "split8x8".into(),
        weights: Tensor::from_fn(&[6, 2, 3, 3], |i| ((i as i64 * 41) % 255) as i32 - 127),
        bias: (0..6).map(|b| b as f64 - 2.5).collect(),
        stride: 1,
        padding: 1,
        groups: 2,
        requant: unit_requant(),
    };
    let engine = SconnaEngine::paper_default(17);
    let prepared = conv.prepare(&engine);
    let images: Vec<Tensor<u32>> = (0..20u64)
        .map(|b| Tensor::<u32>::from_fn(&[4, 8, 8], |i| ((i as u64 * 29 + b * 113) % 256) as u32))
        .collect();
    let keys: Vec<u64> = (0..20u64)
        .map(|b| 0xC0FFEE ^ b.wrapping_mul(7919))
        .collect();
    let singles: Vec<Tensor<u32>> = images
        .iter()
        .zip(&keys)
        .map(|(im, &k)| conv.forward_keyed(im, &engine, k, 1))
        .collect();
    assert_eq!(conv.output_hw(8, 8), (8, 8));
    for n in 1..=20 {
        let refs: Vec<&Tensor<u32>> = images[..n].iter().collect();
        for workers in [1usize, 2, 8] {
            for handles in [None, Some(prepared.as_slice())] {
                let got = conv.forward_batch_keyed(&refs, &engine, handles, &keys[..n], workers);
                assert_eq!(got.len(), n);
                for (b, (g, want)) in got.iter().zip(&singles).enumerate() {
                    assert_eq!(
                        g.as_slice(),
                        want.as_slice(),
                        "batch {n} image {b} workers {workers} prepared {}",
                        handles.is_some()
                    );
                }
            }
        }
    }
}
