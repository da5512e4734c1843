import zlib

import numpy as np
import pytest

from upband import tensor as tt
from upband.errors import ConfigError, ShapeError
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

    def test_sum_axis0(self):
        out = tt.tsum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

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
