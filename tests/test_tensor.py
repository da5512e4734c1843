import math
import zlib

import numpy as np
import pytest
from scipy.special import erf

from upband import tensor as tt
from upband.errors import ConfigError, NumericError, ShapeError
from upband.tensor import Tensor


def t64(arr, grad=True):
    return Tensor(np.asarray(arr), requires_grad=grad, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = tt.matmul(eye, m)
        np.testing.assert_allclose(out.data, m.data)

    def test_hand_value(self):
        out = tt.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(4, 5)))
        tt.backward(tt.tsum(tt.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T, rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        ins = [t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(4, 2)))]
        err = tt.check_gradients(lambda x: tt.tsum(tt.matmul(x[0], x[1])), ins, rel_tol=1e-6)
        assert err < 1e-6

    def test_refuses_2d_times_batched(self):
        # only a batched first operand may meet a 2-D second one
        with pytest.raises(ShapeError):
            tt.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 5))))


# [B, T, d_in, d_out] at the widths the presets run: desk FFN and input
# projection over 64-frame training windows, a desk key projection over
# two 33-frame inference windows, a default FFN over 65-frame windows
MODEL_SHAPES = [(4, 64, 128, 512), (4, 64, 257, 128), (2, 33, 128, 128), (2, 65, 512, 2048)]


def _projection(op, shape, rng):
    """Forward and gradients of op ("linear" or "matmul") on float32 inputs
    of ``shape`` under a random output gradient, and those inputs."""
    B, T, d_in, d_out = shape
    x = Tensor(rng.normal(size=(B, T, d_in)), requires_grad=True, dtype=np.float32)
    w = Tensor(rng.normal(size=(d_in, d_out)) / math.sqrt(d_in), requires_grad=True,
               dtype=np.float32)
    b = Tensor(rng.normal(size=d_out), requires_grad=True, dtype=np.float32)
    g = rng.normal(size=(B, T, d_out)).astype(np.float32)
    out = tt.linear(x, w, b) if op == "linear" else tt.matmul(x, w)
    tt.backward(tt.tsum(tt.mul(out, g)))
    got = [out.data, x.grad, w.grad] + ([b.grad] if op == "linear" else [])
    return got, x.data, w.data, b.data, g


def _batched_reference(op, x, w, b, g):
    """The same forward and gradients by numpy's batched product, one GEMM
    per batch entry, with the weight gradient summed as each op sums it."""
    out = np.matmul(x, w)
    dx = np.matmul(g, w.T)
    if op == "matmul":
        return [out, dx, np.matmul(np.swapaxes(x, -1, -2), g).sum(axis=0)]
    g2, x2 = g.reshape(-1, g.shape[-1]), x.reshape(-1, x.shape[-1])
    return [out + b, dx, np.matmul(x2.T, g2), g2.sum(axis=0)]


class TestProjection:
    @pytest.mark.parametrize("op", ["linear", "matmul"])
    @pytest.mark.parametrize("shape", MODEL_SHAPES)
    def test_bytes_match_batched_product(self, op, shape):
        got, *inputs = _projection(op, shape, np.random.default_rng(shape[2]))
        for a, ref in zip(got, _batched_reference(op, *inputs), strict=True):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, ref)

    @pytest.mark.parametrize("op", ["linear", "matmul"])
    def test_few_rows_per_batch_entry(self, op):
        # OpenBLAS runs other kernels on so few rows, so only the values agree
        got, *inputs = _projection(op, (3, 5, 33, 17), np.random.default_rng(3))
        for a, ref in zip(got, _batched_reference(op, *inputs), strict=True):
            np.testing.assert_allclose(a, ref, rtol=1e-5, atol=1e-5)

    def test_four_dim_input(self):
        rng = np.random.default_rng(4)
        x, w = t64(rng.normal(size=(2, 3, 5, 7))), t64(rng.normal(size=(7, 4)))
        err = tt.check_gradients(lambda i: tt.tsum(tt.mul(tt.matmul(i[0], i[1]), 1.5)),
                                 [x, w], rel_tol=1e-6)
        assert err < 1e-6
        np.testing.assert_allclose(tt.matmul(x, w).data, np.matmul(x.data, w.data), rtol=1e-12)


def _gelu_reference(x, g):
    """GELU and its input gradient in the op order of the elementwise form."""
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
    return x * cdf, g * (cdf + x * pdf)


class TestGelu:
    @pytest.mark.parametrize("case", ["small", "ffn_sized", "odd_size", "transposed_view",
                                      "float64"])
    def test_bytes_match_elementwise_form(self, case):
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        dtype = np.float64 if case == "float64" else np.float32
        shape = {"small": (7, 11), "ffn_sized": (4, 124, 2048), "odd_size": (1310727,),
                 "transposed_view": (12293, 64), "float64": (4, 262144)}[case]
        x = (4.0 * rng.normal(size=shape)).astype(dtype)
        if case == "transposed_view":
            x = x.T
            assert not x.flags.c_contiguous
        g = rng.normal(size=x.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = tt.gelu(xt)
        tt.backward(tt.tsum(tt.mul(out, g)))
        ref_out, ref_dx = _gelu_reference(x, g)
        assert out.dtype == dtype and xt.grad.dtype == dtype
        np.testing.assert_array_equal(out.data, ref_out)
        np.testing.assert_array_equal(xt.grad, ref_dx)

    def test_input_untouched(self):
        x = np.random.default_rng(8).normal(size=(4, 262144)).astype(np.float32)
        before = x.copy()
        tt.gelu(Tensor(x))
        np.testing.assert_array_equal(x, before)


class TestConv1dGrouped:
    def test_output_length(self):
        x = Tensor(np.zeros((1, 512, 100)))
        w = Tensor(np.zeros((8, 512, 4)))
        b = Tensor(np.zeros(8))
        out = tt.conv1d_grouped(x, w, b, stride=2, padding=1)
        assert out.shape == (1, 8, 50)

    def test_per_channel_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 6, 9)))
        w = Tensor(np.ones((6, 1, 1)))
        b = Tensor(np.zeros(6))
        out = tt.conv1d_grouped(x, w, b, groups=6)
        np.testing.assert_array_equal(out.data, x.data)

    def test_group_independence_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 8, 10)).astype(np.float32)
        w = Tensor(rng.normal(size=(8, 4, 3)).astype(np.float32))
        b = Tensor(rng.normal(size=8).astype(np.float32))
        with tt.no_grad():
            base = tt.conv1d_grouped(Tensor(x), w, b, padding=1, groups=2).data
            x2 = x.copy()
            x2[:, 4:] = 0.0  # zero group 2's input channels
            out2 = tt.conv1d_grouped(Tensor(x2), w, b, padding=1, groups=2).data
        np.testing.assert_array_equal(base[:, :4], out2[:, :4])

    def test_bad_group_divisibility(self):
        x = Tensor(np.zeros((1, 6, 8)))
        w = Tensor(np.zeros((6, 2, 3)))
        b = Tensor(np.zeros(6))
        with pytest.raises(ConfigError):
            tt.conv1d_grouped(x, w, b, groups=4)

    def test_gradcheck_strided(self):
        rng = np.random.default_rng(4)
        ins = [t64(rng.normal(size=(2, 8, 12))), t64(rng.normal(size=(8, 2, 4))),
               t64(rng.normal(size=8))]
        err = tt.check_gradients(
            lambda x: tt.tsum(tt.conv1d_grouped(x[0], x[1], x[2], stride=2, padding=1,
                                                groups=4)),
            ins, rel_tol=1e-6)
        assert err < 1e-6

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError):
            tt.conv1d_grouped(Tensor(np.zeros((6, 8))), Tensor(np.zeros((6, 1, 3))),
                              Tensor(np.zeros(6)), groups=6)


class TestElementwise:
    def test_max_with_scalar(self):
        out = tt.max_with_scalar(Tensor([-0.5, 1.5]), 0.0)
        np.testing.assert_array_equal(out.data, [0.0, 1.5])

    def test_scalar_broadcast_only(self):
        with pytest.raises(ShapeError):
            tt.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_constant_is_not_an_input(self):
        x = t64([1.0, 2.0])
        tt.reset_tape()
        tt.mul(x, 2.0)
        (node,) = tt.active_tape().nodes
        assert node.inputs == (x,)
        # only a constant broadcasts; two tensors must match, scalar or not
        for op in (tt.add, tt.sub, tt.mul):
            with pytest.raises(ShapeError):
                op(x, t64(3.0))
            with pytest.raises(ShapeError):
                op(t64([[3.0]]), x)
        with pytest.raises(ShapeError):
            tt.add(x, np.ones(3))


class TestReductions:
    def test_mean(self):
        assert tt.tmean(Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_mean_grad_is_one_over_n(self):
        x = t64([1.0, 5.0, -2.0, 0.5])
        tt.backward(tt.tmean(x))
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(tt.softmax(Tensor([0.0, 0.0, 0.0])).data,
                                   np.full(3, 1 / 3), rtol=1e-6)

    def test_large_inputs_stable(self):
        out = tt.softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], rtol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = tt.softmax(Tensor(rng.normal(size=(6, 9))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_nan_off_the_row_max_rejected(self, axis):
        x = np.zeros((3, 4), dtype=np.float32)
        x[1, 2] = 5.0
        x[1, 1] = x[2, 2] = np.nan
        with pytest.raises(NumericError):
            tt.softmax(Tensor(x), axis=axis)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((2, 8), 3.3))
        out = tt.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, np.zeros((2, 8)), atol=1e-4)

    def test_zero_mean(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 16)))
        out = tt.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-5)

    @pytest.mark.parametrize("shape", [(3, 8), (4, 64, 128), (2, 33, 512), (5, 257)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_bytes_match_np_var(self, shape, scale):
        rng = np.random.default_rng(shape[-1])
        x = (scale * rng.normal(size=shape) + scale).astype(np.float32)
        gain = rng.normal(size=shape[-1]).astype(np.float32)
        shift = rng.normal(size=shape[-1]).astype(np.float32)
        mu = np.mean(x, axis=-1, keepdims=True)
        y = (x - mu) * (1.0 / np.sqrt(np.var(x, axis=-1, keepdims=True) + 1e-5))
        out = tt.layer_norm(Tensor(x), Tensor(gain), Tensor(shift))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, y * gain + shift)

    def test_gradcheck_f32(self):
        rng = np.random.default_rng(7)
        ins = [Tensor(rng.normal(size=(3, 8)), requires_grad=True) for _ in range(2)]
        ins.insert(1, Tensor(rng.normal(size=8), requires_grad=True))
        ins.insert(2, Tensor(rng.normal(size=8), requires_grad=True))
        err = tt.check_gradients(
            lambda x: tt.tsum(tt.mul(tt.layer_norm(x[0], x[1], x[2]), x[3])),
            ins, rel_tol=1e-3)
        assert err < 1e-3


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = t64([1.0, 2.0, 3.0])
        tt.backward(tt.tsum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic_grad(self):
        x = t64([1.0, 2.0])
        tt.backward(tt.tsum(tt.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_grad_accumulates_across_backwards(self):
        x = t64([1.0, 2.0])
        tt.backward(tt.tsum(x))
        tt.backward(tt.tsum(tt.mul(x, 2.0)))
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_two_losses_share_one_tape(self):
        x = t64([1.0, -2.0, 3.0])
        first = tt.tsum(tt.mul(x, x))
        second = tt.tsum(tt.mul(tt.gelu(x), 3.0))
        kept = tt.active_tape().nodes[2:]
        tt.backward(first)
        assert tt.active_tape().nodes == kept
        x.zero_grad()
        tt.backward(second)
        assert not tt.active_tape().nodes
        shared = x.grad
        x.zero_grad()
        tt.backward(tt.tsum(tt.mul(tt.gelu(x), 3.0)))
        np.testing.assert_array_equal(shared, x.grad)

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0])
        y = tt.mul(x, 2.0)
        with pytest.raises(ShapeError):
            tt.backward(y)

    def test_loss_off_tape_rejected(self):
        x = t64([1.0])
        tt.reset_tape()
        y = tt.tsum(x)
        tt.backward(y)  # consumes the nodes that made y
        with pytest.raises(ShapeError):
            tt.backward(y)

    def test_no_grad_suppresses_recording(self):
        x = t64([1.0, 2.0])
        tt.reset_tape()
        with tt.no_grad():
            y = tt.tsum(tt.mul(x, x))
        assert not tt.active_tape().nodes
        assert y.item() == 5.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scalar_operand_takes_tensor_dtype(dtype):
    x = Tensor(np.ones(3), requires_grad=True, dtype=dtype)
    for out in (tt.add(x, 0.5), tt.sub(x, np.ones(3)), tt.mul(x, np.float64(2.0)),
                tt.mul(x, np.float32(2.0)), tt.tmean(x)):
        assert out.dtype == dtype


@pytest.mark.parametrize("name,fn,shapes", [
    ("add", lambda x: tt.tsum(tt.add(x[0], x[1])), [(4, 3), (4, 3)]),
    ("sub", lambda x: tt.tsum(tt.mul(tt.sub(x[0], x[1]), x[2])), [(4, 3), (4, 3), (4, 3)]),
    ("mul", lambda x: tt.tsum(tt.mul(x[0], x[1])), [(5,), (5,)]),
    ("mul_constant", lambda x: tt.tsum(tt.mul(tt.mul(x[0], np.linspace(-2.0, 1.0, 4)), x[1])),
     [(3, 4), (3, 4)]),
    ("softmax", lambda x: tt.tsum(tt.mul(tt.softmax(x[0]), x[1])), [(3, 4), (3, 4)]),
    ("gelu", lambda x: tt.tsum(tt.gelu(x[0])), [(7,)]),
    ("leaky", lambda x: tt.tsum(tt.leaky_relu(x[0], 0.2)), [(7,)]),
    ("transpose", lambda x: tt.tsum(tt.mul(tt.transpose(x[0], (1, 0)), x[1])), [(3, 4), (4, 3)]),
    ("concat", lambda x: tt.tsum(tt.mul(tt.concat([x[0], x[1]], axis=0), x[2])),
     [(2, 3), (4, 3), (6, 3)]),
    ("reshape", lambda x: tt.tsum(tt.mul(tt.reshape(x[0], (5, 3)), x[1])), [(3, 5), (5, 3)]),
    ("linear", lambda x: tt.tsum(tt.linear(x[0], x[1], x[2])), [(3, 4), (4, 2), (2,)]),
])
def test_primitive_gradcheck(name, fn, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    ins = [t64(rng.normal(size=s)) for s in shapes]
    err = tt.check_gradients(fn, ins, rel_tol=1e-6)
    assert err < 1e-6
