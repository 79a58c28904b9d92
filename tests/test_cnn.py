import struct
import zlib

import numpy as np
import pytest

from radclust.cnn import (
    CnnSpec,
    FeatureVector,
    WeightSet,
    conv2d,
    dense,
    dropout,
    flatten,
    forward,
    init_weights,
    load_weights,
    maxpool2d,
    relu,
    save_weights,
)
from radclust.errors import ParseError, ShapeError
from radclust.imaging import PixelTensor

from oracles import naive_conv2d_same, naive_dense, naive_maxpool2x2


class TestConv2d:
    def test_all_ones_kernel_center_is_total(self):
        x = np.arange(1.0, 10.0).reshape(3, 3, 1)
        k = np.ones((1, 1, 3, 3))
        out = conv2d(x, k, np.zeros(1))
        assert out[1, 1, 0] == 45.0

    def test_delta_kernel_is_identity(self):
        rng = np.random.RandomState(0)
        x = rng.randn(6, 5, 2)
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        out = conv2d(x, k, np.zeros(2))
        assert np.allclose(out, x, atol=0)

    def test_matches_naive_loops(self):
        rng = np.random.RandomState(1)
        x = rng.randn(5, 5, 3)
        k = rng.randn(4, 3, 3, 3)
        b = rng.randn(4)
        assert np.abs(conv2d(x, k, b) - naive_conv2d_same(x, k, b)).max() <= 1e-12

    def test_matches_naive_loops_5x5_kernel_multichannel(self):
        rng = np.random.RandomState(11)
        x = rng.randn(6, 6, 4)
        k = rng.randn(3, 4, 5, 5)
        b = rng.randn(3)
        assert np.abs(conv2d(x, k, b) - naive_conv2d_same(x, k, b)).max() <= 1e-12

    def test_matches_naive_loops_non_square(self):
        rng = np.random.RandomState(12)
        x = rng.randn(7, 5, 3)
        k = rng.randn(2, 3, 3, 5)
        b = rng.randn(2)
        out = conv2d(x, k, b)
        assert out.shape == (7, 5, 2)
        assert np.abs(out - naive_conv2d_same(x, k, b)).max() <= 1e-12

    def test_channel_mismatch_names_both_counts(self):
        with pytest.raises(ShapeError, match="2.*3|3.*2"):
            conv2d(np.zeros((4, 4, 3)), np.zeros((1, 2, 3, 3)), np.zeros(1))

    def test_linear_in_input_with_zero_bias(self):
        rng = np.random.RandomState(2)
        x = rng.randn(6, 6, 2)
        y = rng.randn(6, 6, 2)
        k = rng.randn(3, 2, 3, 3)
        b = np.zeros(3)
        lhs = conv2d(2.5 * x + y, k, b)
        rhs = 2.5 * conv2d(x, k, b) + conv2d(y, k, b)
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestPointwiseLayers:
    def test_relu_clamps_and_passes(self):
        assert np.array_equal(relu(np.array([-1.0, 2.0, 0.0])), [0.0, 2.0, 0.0])

    def test_relu_idempotent(self):
        rng = np.random.RandomState(3)
        x = rng.randn(4, 4, 2)
        assert np.array_equal(relu(relu(x)), relu(x))

    def test_dropout_is_identity_without_scaling(self):
        x = np.random.RandomState(4).randn(3, 3, 1)
        assert dropout(x, rate=0.5) is x

    def test_maxpool_basic(self):
        out = maxpool2d(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0

    def test_maxpool_constant(self):
        out = maxpool2d(np.full((6, 4, 2), 3.25))
        assert out.shape == (3, 2, 2)
        assert np.all(out == 3.25)

    def test_maxpool_matches_naive(self):
        x = np.random.RandomState(5).randn(8, 8, 3)
        assert np.array_equal(maxpool2d(x), naive_maxpool2x2(x))

    def test_maxpool_matches_naive_on_transposed_view(self):
        # conv2d returns an (h, w, c) view of a channel-first array
        x = np.random.RandomState(13).randn(3, 6, 4).transpose(1, 2, 0)
        assert not x.flags.c_contiguous
        assert np.array_equal(maxpool2d(x), naive_maxpool2x2(x))

    def test_maxpool_rejects_odd_dims(self):
        with pytest.raises(ShapeError):
            maxpool2d(np.zeros((3, 4, 1)))

    def test_dense_identity_and_bias_only(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(dense(v, np.eye(3), np.zeros(3)), v)
        assert np.array_equal(dense(v, np.zeros((3, 3)), np.ones(3)), np.ones(3))

    def test_dense_matches_naive(self):
        rng = np.random.RandomState(6)
        v = rng.randn(8)
        w = rng.randn(4, 8)
        b = rng.randn(4)
        assert np.abs(dense(v, w, b) - naive_dense(v, w, b)).max() <= 1e-12

    def test_dense_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    def test_flatten_is_channel_major_then_row_then_column(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        assert np.array_equal(flatten(t), [0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0])


class TestInitWeights:
    def test_same_seed_bit_identical(self):
        a = init_weights(CnnSpec(), 42)
        b = init_weights(CnnSpec(), 42)
        for (wa, ba), (wb, bb) in zip(a.tensors(), b.tensors()):
            assert wa.tobytes() == wb.tobytes()
            assert ba.tobytes() == bb.tobytes()
        assert a.provenance == "seed:42"

    def test_first_conv_std_near_he_target(self):
        w = init_weights(CnnSpec(), 7).conv_kernels[0]
        target = np.sqrt(2.0 / 9.0)
        assert 0.8 * target <= w.std() <= 1.2 * target

    def test_biases_exactly_zero(self):
        ws = init_weights(CnnSpec(), 9)
        for b in list(ws.conv_biases) + list(ws.dense_biases):
            assert np.all(b == 0.0)

    def test_weights_are_float32(self):
        ws = init_weights(CnnSpec(), 1)
        assert all(k.dtype == np.float32 for k in ws.conv_kernels)
        assert all(w.dtype == np.float32 for w in ws.dense_weights)


class TestForward:
    def test_zero_input_zero_biases_gives_zero_vector(self):
        ws = init_weights(CnnSpec(), 3)
        fv = forward(np.zeros((128, 128, 1)), ws)
        assert np.array_equal(fv.values, np.zeros(16))

    def test_shape_chain(self):
        spec = CnnSpec()
        assert spec.shape_chain() == [
            (64, 64, 64), (32, 32, 64), (16, 16, 128), (8, 8, 128), 8192, 64, 16,
        ]
        ws = init_weights(spec, 4)
        t = PixelTensor(RngStream_like_input())
        fv, acts = forward(t, ws, return_activations=True)
        assert [a.shape for a in acts[:4]] == [(64, 64, 64), (32, 32, 64), (16, 16, 128), (8, 8, 128)]
        assert acts[4].shape == (8192,)
        assert acts[5].shape == (64,)
        assert acts[6].shape == (16,)
        assert fv.values.shape == (16,)

    def test_positive_homogeneity_with_zero_biases(self):
        # all layers are positively homogeneous when biases are zero; raw
        # ndarray input bypasses the unit-range check a PixelTensor enforces
        ws = init_weights(CnnSpec(), 5)
        x = np.asarray(RngStream_like_input())
        base = forward(x, ws).values
        for alpha in (0.5, 2.0):
            scaled = forward(alpha * x, ws).values
            scale = max(np.abs(alpha * base).max(), 1e-30)
            assert np.abs(scaled - alpha * base).max() / scale <= 1e-9

    def test_pure_function(self):
        ws = init_weights(CnnSpec(), 6)
        x = RngStream_like_input()
        assert np.array_equal(forward(x, ws).values, forward(x, ws).values)

    def test_dropout_stage_is_identity(self):
        from radclust.cnn import conv2d as c2d, dense as dn, maxpool2d as mp, relu as rl, flatten as fl

        ws = init_weights(CnnSpec(), 8)
        x = np.asarray(RngStream_like_input())
        manual = x
        for k, b in zip(ws.conv_kernels, ws.conv_biases):
            manual = mp(rl(c2d(manual, k, b)))
        manual = dn(rl(dn(fl(manual), ws.dense_weights[0], ws.dense_biases[0])),
                    ws.dense_weights[1], ws.dense_biases[1])
        assert np.array_equal(forward(x, ws).values, manual)

    def test_nonzero_biases_match_relu_before_pool_order(self):
        # forward pools before ReLU; with non-zero biases every activation
        # must still carry the bytes of the conv, ReLU, pool composition
        rng = np.random.RandomState(14)
        base = init_weights(CnnSpec(), 10)
        ws = WeightSet(
            conv_kernels=base.conv_kernels,
            conv_biases=[rng.randn(*b.shape).astype(np.float32) for b in base.conv_biases],
            dense_weights=base.dense_weights,
            dense_biases=[rng.randn(*b.shape).astype(np.float32) for b in base.dense_biases],
        )
        padded = np.zeros((128, 128, 1))
        padded[24:104, 32:96] = rng.rand(80, 64, 1)
        for x in (np.asarray(RngStream_like_input()), padded):
            _, acts = forward(x, ws, return_activations=True)
            expect = []
            manual = x
            for k, b in zip(ws.conv_kernels, ws.conv_biases):
                manual = maxpool2d(relu(conv2d(manual, k, b)))
                expect.append(manual)
            expect.append(flatten(manual))
            expect.append(relu(dense(expect[-1], ws.dense_weights[0], ws.dense_biases[0])))
            expect.append(dense(expect[-1], ws.dense_weights[1], ws.dense_biases[1]))
            assert len(acts) == len(expect) == 7
            for got, want in zip(acts, expect):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_wrong_input_shape(self):
        ws = init_weights(CnnSpec(), 2)
        with pytest.raises(ShapeError, match="input"):
            forward(np.zeros((64, 64, 1)), ws)

    def test_feature_vector_validation(self):
        with pytest.raises(ShapeError):
            FeatureVector(values=np.zeros(8))


def RngStream_like_input():
    from radclust.numerics import RngStream

    return RngStream(99).uniforms(128 * 128).reshape(128, 128, 1)


class TestWeightsIO:
    def test_round_trip_bit_exact(self):
        ws = init_weights(CnnSpec(), 42)
        data = save_weights(ws)
        back = load_weights(data)
        for (wa, ba), (wb, bb) in zip(ws.tensors(), back.tensors()):
            assert wa.tobytes() == wb.tobytes()
            assert ba.tobytes() == bb.tobytes()
        assert back.provenance == "external"
        assert save_weights(back) == data

    def test_bad_magic(self):
        data = b"XXXX" + save_weights(init_weights(CnnSpec(), 1))[4:]
        with pytest.raises(ParseError, match="magic") as exc:
            load_weights(data)
        assert exc.value.offset == 0

    def test_shape_table_mismatch(self):
        data = bytearray(save_weights(init_weights(CnnSpec(), 1)))
        # first layer's first dim (filter count 64) sits after magic(4) +
        # version(1) + layer count(4) + ndim(4)
        data[13:17] = struct.pack("<I", 32)
        with pytest.raises(ParseError, match="shape table"):
            load_weights(bytes(data))

    def test_truncated_payload(self):
        data = save_weights(init_weights(CnnSpec(), 1))
        with pytest.raises(ParseError, match="truncated"):
            load_weights(data[:-2000])

    def test_checksum_mismatch(self):
        data = bytearray(save_weights(init_weights(CnnSpec(), 1)))
        data[-100] ^= 0xFF  # flip a payload byte, keep the stored CRC
        with pytest.raises(ParseError, match="checksum"):
            load_weights(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(save_weights(init_weights(CnnSpec(), 1)))
        data[4] = 2
        with pytest.raises(ParseError, match="version"):
            load_weights(bytes(data))

    def test_non_finite_value_names_layer_and_offset(self):
        ws = init_weights(CnnSpec(), 1)
        data = save_weights(ws)
        start = len(data) - 4 - sum(4 * (w.size + b.size) for w, b in ws.tensors())
        # the first conv kernel float, then the last dense bias float
        for value, at, layer in ((np.nan, start, 0), (-np.inf, len(data) - 8, 5)):
            bad = bytearray(data)
            bad[at:at + 4] = struct.pack("<f", value)
            bad[-4:] = struct.pack("<I", zlib.crc32(bytes(bad[start:-4])) & 0xFFFFFFFF)
            with pytest.raises(ParseError, match=f"layer {layer} .*non-finite") as exc:
                load_weights(bytes(bad))
            assert exc.value.offset == at

    def test_weightset_built_in_code_keeps_shape_error_for_non_finite(self):
        ws = init_weights(CnnSpec(), 1)
        kernels = [k.copy() for k in ws.conv_kernels]
        kernels[0][0, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError, match="finite"):
            WeightSet(kernels, ws.conv_biases, ws.dense_weights, ws.dense_biases)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("layer, name", [
        (0, "conv1"), (1, "conv2"), (2, "conv3"), (3, "conv4"), (4, "dense1"), (5, "dense2"),
    ])
    def test_weightset_non_finite_bias_names_its_tensor(self, layer, name, value):
        ws = init_weights(CnnSpec(), 1)
        biases = [b.copy() for b in ws.conv_biases + ws.dense_biases]
        biases[layer][-1] = value
        with pytest.raises(ShapeError, match=f"^{name} bias must be finite$"):
            WeightSet(ws.conv_kernels, biases[:4], ws.dense_weights, biases[4:])

    def test_weightset_non_finite_weights_name_their_tensor(self):
        ws = init_weights(CnnSpec(), 1)
        dense = [w.copy() for w in ws.dense_weights]
        dense[1][0, 0] = np.inf
        with pytest.raises(ShapeError, match="^dense2 weights must be finite$"):
            WeightSet(ws.conv_kernels, ws.conv_biases, dense, ws.dense_biases)
