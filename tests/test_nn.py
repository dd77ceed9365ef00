"""Network building blocks: forward/backward against finite differences,
Adam closed forms, determinism, output ranges, flat parameter views."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmi import (
    NumericError,
    ShapeError,
    adam_new,
    adam_step,
    backward_with_input_grads,
    forward,
    mlp_new,
)
from gcmi.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    Mlp,
    ParamGrads,
    _sigmoid,
    _sigmoid_clip,
    mlp_stack,
)


def finite_difference_grads(mlp, inputs, output_grads, h=1e-5):
    """Central differences of sum(forward(mlp, x) * output_grads)."""

    def objective():
        return float(np.sum(forward(mlp, inputs) * output_grads))

    d_weights, d_biases = [], []
    for arrs, store in ((mlp.weights, d_weights), (mlp.biases, d_biases)):
        for arr in arrs:
            grad = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = objective()
                arr[idx] = orig - h
                down = objective()
                arr[idx] = orig
                grad[idx] = (up - down) / (2 * h)
            store.append(grad)
    return ParamGrads(d_weights, d_biases)


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for a, n in zip(analytic.d_weights + analytic.d_biases, numeric.d_weights + numeric.d_biases):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        assert np.all(np.abs(a - n) / denom < rtol)


def assert_input_grads_close(mlp, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, mlp.input_dim))
    g = rng.normal(size=(3, mlp.output_dim))
    _, input_grads = backward_with_input_grads(mlp, x, g)
    h = 1e-5
    fd = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd[idx] = (np.sum(forward(mlp, xp) * g) - np.sum(forward(mlp, xm) * g)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(input_grads)), 1e-3)
    assert np.all(np.abs(fd - input_grads) / denom < 1e-4)


class TestMlpNew:
    def test_single_hidden_layer_dims(self):
        mlp = mlp_new(3, [100], 1, "identity", 42)
        assert [w.shape for w in mlp.weights] == [(3, 100), (100, 1)]

    def test_two_hidden_layer_dims(self):
        mlp = mlp_new(5, [200, 100], 1, "scaled_sigmoid_0_2", 7)
        assert [w.shape for w in mlp.weights] == [(5, 200), (200, 100), (100, 1)]

    def test_same_seed_bit_identical(self):
        a = mlp_new(4, [8], 2, "sigmoid", 123)
        b = mlp_new(4, [8], 2, "sigmoid", 123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seed_differs(self):
        a = mlp_new(4, [8], 2, "sigmoid", 123)
        b = mlp_new(4, [8], 2, "sigmoid", 124)
        assert not np.array_equal(a.weights[0], b.weights[0])

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_dims_rejected(self, bad):
        with pytest.raises(ValueError):
            mlp_new(bad, [4], 1, "identity", 0)
        with pytest.raises(ValueError):
            mlp_new(3, [4], bad, "identity", 0)

    def test_he_scaling(self):
        mlp = mlp_new(1000, [2000], 1, "identity", 5)
        assert mlp.weights[0].std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_mismatched_layer_dims_rejected(self):
        with pytest.raises(ShapeError, match="chain"):
            Mlp(
                [np.zeros((3, 4)), np.zeros((5, 1))],
                [np.zeros(4), np.zeros(1)],
                "identity",
            )

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(NumericError):
            Mlp([np.array([[np.inf]])], [np.zeros(1)], "identity")


class TestForward:
    def test_zero_net_identity_outputs_zero(self):
        mlp = mlp_new(3, [4], 2, "identity", 0)
        for w in mlp.weights:
            w[:] = 0.0
        out = forward(mlp, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_single_linear_layer_hand_value(self):
        # one layer: w=[[2]], b=[1]; input 3 -> 7
        mlp = Mlp([np.array([[2.0]])], [np.array([1.0])], "identity")
        assert forward(mlp, np.array([[3.0]]))[0, 0] == 7.0

    def test_scaled_sigmoid_at_zero_preactivation(self):
        mlp = mlp_new(2, [4], 1, "scaled_sigmoid_0_2", 0)
        for w in mlp.weights:
            w[:] = 0.0
        for b in mlp.biases:
            b[:] = 0.0
        assert forward(mlp, np.ones((1, 2)))[0, 0] == pytest.approx(1.0)

    def test_scaled_sigmoid_range_open_interval(self):
        mlp = mlp_new(2, [4], 1, "scaled_sigmoid_0_2", 3)
        extreme = np.array([[1e6, -1e6], [-1e6, 1e6], [1e6, 1e6]])
        out = forward(mlp, extreme)
        assert np.all(out > 0.0) and np.all(out < 2.0)

    def test_sigmoid_range_open_interval(self):
        mlp = mlp_new(2, [4], 1, "sigmoid", 3)
        out = forward(mlp, np.array([[1e6, 1e6], [-1e6, -1e6]]))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_width_mismatch_raises(self):
        mlp = mlp_new(3, [4], 1, "identity", 0)
        with pytest.raises(ShapeError):
            forward(mlp, np.zeros((2, 5)))


class TestBackward:
    def test_zero_output_grads_zero_param_grads(self):
        mlp = mlp_new(3, [4], 2, "identity", 1)
        grads, _ = backward_with_input_grads(mlp, np.ones((5, 3)), np.zeros((5, 2)))
        for g in grads.d_weights + grads.d_biases:
            assert np.array_equal(g, np.zeros_like(g))

    def test_one_layer_linear_chain_rule(self):
        # single linear layer: d/dW of sum(g * (xW + b)) = x' g
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 2))
        mlp = Mlp([rng.normal(size=(3, 2))], [rng.normal(size=2)], "identity")
        grads, _ = backward_with_input_grads(mlp, x, g)
        assert np.allclose(grads.d_weights[0], x.T @ g)
        assert np.allclose(grads.d_biases[0], g.sum(axis=0))

    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "scaled_sigmoid_0_2"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(11)
        mlp = mlp_new(3, [4], 1, activation, 11)
        x = rng.normal(size=(5, 3))
        g = rng.normal(size=(5, 1))
        grads, _ = backward_with_input_grads(mlp, x, g)
        assert_grads_close(grads, finite_difference_grads(mlp, x, g))

    @pytest.mark.parametrize("activation", ["identity", "sigmoid", "scaled_sigmoid_0_2"])
    def test_two_hidden_layers_match_finite_differences(self, activation):
        rng = np.random.default_rng(17)
        mlp = mlp_new(3, [5, 4], 2, activation, 17)
        mlp.params += rng.normal(scale=0.1, size=mlp.params.size)  # non-zero biases
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 2))
        grads, _ = backward_with_input_grads(mlp, x, g)
        assert_grads_close(grads, finite_difference_grads(mlp, x, g))

    def test_input_grads_match_finite_differences(self):
        assert_input_grads_close(mlp_new(4, [6], 2, "scaled_sigmoid_0_2", 5), 13)

    def test_two_hidden_layer_input_grads_match_finite_differences(self):
        assert_input_grads_close(mlp_new(4, [5, 4], 2, "scaled_sigmoid_0_2", 5), 13)

    def test_shape_mismatch_raises(self):
        mlp = mlp_new(3, [4], 1, "identity", 0)
        with pytest.raises(ShapeError):
            backward_with_input_grads(mlp, np.zeros((2, 3)), np.zeros((2, 2)))


class TestAdam:
    def test_zero_grads_no_l2_fixed_point(self):
        mlp = mlp_new(3, [4], 1, "identity", 2)
        before = [w.copy() for w in mlp.weights]
        state = adam_new(mlp, learning_rate=0.01, l2_coeff=0.0)
        zero = ParamGrads(
            [np.zeros_like(w) for w in mlp.weights], [np.zeros_like(b) for b in mlp.biases]
        )
        adam_step(mlp, zero, state)
        for w, b4 in zip(mlp.weights, before):
            assert np.array_equal(w, b4)
        assert state.step_count == 1

    def test_first_step_is_signed_learning_rate(self):
        # first bias-corrected step: -lr * g / (|g| + eps) ~= -lr * sign(g)
        mlp = mlp_new(2, [3], 1, "identity", 4)
        before = [w.copy() for w in mlp.weights]
        state = adam_new(mlp, learning_rate=1e-3)
        rng = np.random.default_rng(0)
        grads = ParamGrads(
            [rng.normal(size=w.shape) for w in mlp.weights],
            [rng.normal(size=b.shape) for b in mlp.biases],
        )
        adam_step(mlp, grads, state)
        for w, b4, g in zip(mlp.weights, before, grads.d_weights):
            assert np.allclose(w - b4, -1e-3 * np.sign(g), atol=1e-9)

    def test_pure_l2_decay_shrinks_weights(self):
        mlp = mlp_new(2, [3], 1, "identity", 4)
        for w in mlp.weights:
            w[:] = np.where(np.abs(w) < 0.1, 0.5, w)  # keep magnitudes clear of the step size
        before = [w.copy() for w in mlp.weights]
        state = adam_new(mlp, learning_rate=1e-3, l2_coeff=0.0001)
        zero = ParamGrads(
            [np.zeros_like(w) for w in mlp.weights], [np.zeros_like(b) for b in mlp.biases]
        )
        adam_step(mlp, zero, state)
        for w, b4 in zip(mlp.weights, before):
            assert np.all(np.abs(w) < np.abs(b4))
            assert np.all(np.sign(w) == np.sign(b4))

    def test_nonfinite_gradient_names_layer(self):
        mlp = mlp_new(2, [3], 1, "identity", 4)
        state = adam_new(mlp, learning_rate=1e-3)
        grads = ParamGrads(
            [np.zeros_like(w) for w in mlp.weights], [np.zeros_like(b) for b in mlp.biases]
        )
        grads.d_weights[1][0, 0] = np.nan
        with pytest.raises(NumericError, match="layer 1"):
            adam_step(mlp, grads, state)

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_matches_plain_adam_bit_for_bit(self, l2):
        # every temporary allocated afresh, in adam_step's order of operations
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, 0.01
        mlp = mlp_new(4, [6], 2, "sigmoid", 3)
        state = adam_new(mlp, learning_rate=lr, l2_coeff=l2)
        param, m, v = mlp.params.copy(), np.zeros_like(mlp.params), np.zeros_like(mlp.params)
        rng = np.random.default_rng(5)
        for t in range(1, 6):
            grads = ParamGrads.zeros_like(mlp)
            grads.flat[:] = rng.normal(size=grads.flat.size)
            adam_step(mlp, grads, state)
            g = grads.flat + l2 * param if l2 else grads.flat
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * np.square(g)
            param = param - (m / (1.0 - b1**t)) * lr / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert mlp.params.tobytes() == param.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_update_deterministic_per_seed(self, seed):
        results = []
        for _ in range(2):
            mlp = mlp_new(3, [5], 2, "sigmoid", seed)
            state = adam_new(mlp, learning_rate=0.01, l2_coeff=1e-4)
            x = np.random.default_rng(seed).normal(size=(4, 3))
            g = np.ones((4, 2))
            adam_step(mlp, backward_with_input_grads(mlp, x, g)[0], state)
            results.append(np.concatenate([w.ravel() for w in mlp.weights]))
        assert np.array_equal(results[0], results[1])


class TestFlatParameters:
    def test_weights_and_biases_are_views_of_params(self):
        mlp = mlp_new(3, [4], 2, "identity", 1)
        mlp.params[:] = 0.0
        assert all(not w.any() for w in mlp.weights + mlp.biases)

    def test_layers_are_weights_over_biases(self):
        mlp = mlp_new(3, [4, 5], 2, "identity", 1)
        grads, _ = backward_with_input_grads(mlp, np.ones((2, 3)), np.ones((2, 2)))
        for owner, layers, weights, biases in (
            (mlp.params, mlp.layers, mlp.weights, mlp.biases),
            (grads.flat, grads.layers, grads.d_weights, grads.d_biases),
        ):
            assert [a.shape for a in layers] == [(4, 4), (5, 5), (6, 2)]
            assert np.array_equal(np.concatenate([a.ravel() for a in layers]), owner)
            for layer, w, b in zip(layers, weights, biases):
                assert layer.base is owner
                assert np.shares_memory(layer[:-1], w) and np.array_equal(layer[:-1], w)
                assert np.shares_memory(layer[-1], b) and np.array_equal(layer[-1], b)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_copies_keep_their_own_flat_buffer(self, clone):
        mlp = mlp_new(3, [4], 2, "identity", 1)
        twin = clone(mlp)
        state = adam_new(twin, learning_rate=0.1)
        grads, _ = backward_with_input_grads(twin, np.ones((2, 3)), np.ones((2, 2)))
        adam_step(twin, clone(grads), state)
        assert twin.weights[0].base is twin.params
        assert not np.array_equal(twin.weights[0], mlp.weights[0])
        assert np.array_equal(twin.params, np.concatenate([a.ravel() for a in (
            twin.weights[0], twin.biases[0], twin.weights[1], twin.biases[1])]))


class TestSigmoid:
    @staticmethod
    def _two_branch_sigmoid(z):
        """1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below, clamped by the
        clip of z's dtype."""
        e = np.exp(-np.abs(z))
        out = np.where(z >= 0, 1.0, e) / (1.0 + e)
        clip = max(1e-12, float(np.finfo(z.dtype).eps))
        return np.minimum(np.maximum(out, clip), 1.0 - clip)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clip_is_cached_per_dtype(self, dtype):
        expect = max(1e-12, float(np.finfo(dtype).eps))
        assert _sigmoid_clip(np.dtype(dtype)) == expect
        assert _sigmoid_clip(np.dtype(dtype)) is _sigmoid_clip(np.dtype(dtype))
        assert _sigmoid_clip(np.dtype(np.float64)) == 1e-12
        assert _sigmoid_clip(np.dtype(np.float32)) == 2.0**-23

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_keep_the_two_branch_bits(self, dtype):
        rng = np.random.default_rng(97)
        random = rng.normal(scale=6.0, size=(512, 1))
        saturated = np.array([0.0, -0.0, 1e-30, -1e-30, 15.0, -15.0, 40.0, -40.0, 800.0, -800.0])
        huge = np.finfo(dtype).max
        for z in (random, saturated[:, None], np.array([[huge, -huge, np.inf, -np.inf]])):
            z = z.astype(dtype)
            out = _sigmoid(z)
            assert out.dtype == dtype
            assert out.tobytes() == self._two_branch_sigmoid(z).tobytes()
            assert np.all((out > 0.0) & (out < 1.0))


class TestDtype:
    def test_float32_network_computes_in_float32(self):
        net = mlp_new(3, [5], 2, "sigmoid", 4, dtype=np.float32)
        ref = mlp_new(3, [5], 2, "sigmoid", 4)
        assert ref.params.dtype == np.float64
        # the same draws, rounded
        assert np.array_equal(net.params, ref.params.astype(np.float32))
        x = np.random.default_rng(0).normal(size=(4, 3))  # float64 inputs are cast
        assert forward(net, x).dtype == np.float32
        grads, input_grads = backward_with_input_grads(net, x, np.ones((4, 2)))
        state = adam_new(net, 0.01, 0.1)
        adam_step(net, grads, state)
        arrays = [net.params, grads.flat, input_grads, state.m, state.v, state.scratch]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert copy.deepcopy(net).params.dtype == np.float32
        assert pickle.loads(pickle.dumps(net)).params.dtype == np.float32


class TestStacks:
    """A stack of K nets of one shape computes, for each member, bit for bit
    what that net computes on its own."""

    @staticmethod
    def _nets(hidden=(6, 5), out=1, head="sigmoid", dtype=np.float32):
        rng = np.random.default_rng(83)
        nets = [mlp_new(4, list(hidden), out, head, seed, dtype=dtype) for seed in (5, 8, 13)]
        for net in nets:
            net.params += rng.normal(scale=0.1, size=net.params.size).astype(dtype)
        return nets

    def test_members_are_rows_of_one_buffer_and_copy_out(self):
        nets = self._nets()
        stack = mlp_stack(nets)
        assert stack.stack == (3,) and stack.params.shape == (3, nets[0].params.size)
        assert (stack.input_dim, stack.hidden_dims, stack.output_dim) == (4, [6, 5], 1)
        for layer in stack.layers:
            assert layer.base is stack.params
        for k, net in enumerate(nets):
            assert stack.params[k].tobytes() == net.params.tobytes()
            member = stack.member(k)
            assert member.stack == () and member.weights[0].base is member.params
            assert member.params.tobytes() == net.params.tobytes()
            assert not np.shares_memory(member.params, stack.params)
        with pytest.raises(TypeError):
            stack.member([2, 0])  # one net at a time: a stack is never restacked

    def test_nets_of_different_shapes_do_not_stack(self):
        with pytest.raises(ShapeError):
            mlp_stack([mlp_new(4, [6], 1, seed=1), mlp_new(4, [7], 1, seed=1)])

    @pytest.mark.parametrize(
        "hidden,out,head", [((6,), 1, "scaled_sigmoid_0_2"), ((6, 5), 3, "sigmoid")]
    )
    def test_passes_and_adam_step_equal_each_member_alone(self, hidden, out, head):
        nets = self._nets(hidden, out, head)
        stack = mlp_stack(nets)
        rng = np.random.default_rng(89)
        x = rng.normal(size=(3, 7, 4)).astype(np.float32)
        g = rng.normal(size=(3, 7, out)).astype(np.float32)
        outputs = forward(stack, x)
        grads, input_grads = backward_with_input_grads(stack, x, g)
        state = adam_new(stack, 0.01, 0.1)
        adam_step(stack, grads, state)
        for k, net in enumerate(nets):
            assert outputs[k].tobytes() == forward(net, x[k]).tobytes()
            alone, alone_input = backward_with_input_grads(net, x[k], g[k])
            assert grads.flat[k].tobytes() == alone.flat.tobytes()
            assert input_grads[k].tobytes() == alone_input.tobytes()
            alone_state = adam_new(net, 0.01, 0.1)
            adam_step(net, alone, alone_state)
            assert stack.params[k].tobytes() == net.params.tobytes()
            assert state.m[k].tobytes() == alone_state.m.tobytes()
            assert state.v[k].tobytes() == alone_state.v.tobytes()

    def test_inputs_without_the_stack_axis_rejected(self):
        stack = mlp_stack(self._nets())
        with pytest.raises(ShapeError):
            forward(stack, np.zeros((7, 4)))
        with pytest.raises(ShapeError):
            forward(stack, np.zeros((2, 7, 4)))
