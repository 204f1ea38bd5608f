import json

import numpy as np
import pytest

from sidalign.errors import BadDims, DimensionMismatch, ShapeMismatch
from sidalign.mlp import (
    AdamState,
    LrSchedule,
    adam_step,
    backward,
    forward,
    gradient_check,
    lr_at,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
)
from sidalign.numerics import Prng


class TestInit:
    def test_deterministic(self):
        a = mlp_init([4, 8, 8, 4], seed=7)
        b = mlp_init([4, 8, 8, 4], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_glorot_bound(self):
        m = mlp_init([10, 20, 20, 10], seed=0)
        for w, (fan_in, fan_out) in zip(m.weights, zip(m.layer_dims[:-1], m.layer_dims[1:])):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)

    def test_zero_biases(self):
        m = mlp_init([4, 8, 8, 4], seed=1)
        for b in m.biases:
            np.testing.assert_array_equal(b, 0)

    def test_full_scale_parameter_count(self):
        m = mlp_init([400, 800, 800, 400], seed=0)
        assert m.n_parameters() == 1_282_000

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            mlp_init([4], seed=0)
        with pytest.raises(BadDims):
            mlp_init([4, 0, 4], seed=0)


class TestForward:
    def test_zero_parameters_zero_output(self):
        m = mlp_init([3, 5, 5, 3], seed=0)
        for w in m.weights:
            w[:] = 0
        y, _ = forward(m, np.ones(3))
        np.testing.assert_array_equal(y, 0)

    def test_relu_gates_negative(self):
        m = mlp_init([1, 1, 1, 1], seed=0)
        for w in m.weights:
            w[:] = 1
        y, _ = forward(m, np.array([-5.0]))
        np.testing.assert_array_equal(y, [0.0])

    def test_matches_straight_line_recomputation(self):
        m = mlp_init([4, 6, 6, 4], seed=3)
        x = Prng(0).standard_normal(4)
        y, _ = forward(m, x)
        h1 = np.maximum(m.weights[0] @ x + m.biases[0], 0)
        h2 = np.maximum(m.weights[1] @ h1 + m.biases[1], 0)
        expect = m.weights[2] @ h2 + m.biases[2]
        np.testing.assert_allclose(y, expect, rtol=1e-12)

    def test_dim_mismatch(self):
        m = mlp_init([4, 6, 6, 4], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.ones(5))

    def test_positive_homogeneity_with_zero_bias(self):
        m = mlp_init([5, 9, 9, 5], seed=4)
        x = Prng(1).standard_normal(5)
        y1, _ = forward(m, x)
        y2, _ = forward(m, 3.0 * x)
        np.testing.assert_allclose(y2, 3.0 * y1, rtol=1e-10)

    def test_batch_matches_single(self):
        m = mlp_init([4, 6, 6, 4], seed=5)
        xs = Prng(2).standard_normal(7, 4)
        ys, _ = forward(m, xs)
        for i in range(7):
            yi, _ = forward(m, xs[i])
            np.testing.assert_allclose(ys[i], yi, rtol=1e-12)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        m = mlp_init([3, 4, 4, 3], seed=0)
        y, cache = forward(m, np.ones(3))
        gw, gb, dx = backward(m, cache, np.zeros(3))
        for g in gw + gb:
            np.testing.assert_array_equal(g, 0)
        np.testing.assert_array_equal(dx, 0)

    def test_single_linear_layer_closed_form(self):
        m = mlp_init([3, 2], seed=1)
        x = np.array([1.0, 2.0, 3.0])
        _, cache = forward(m, x)
        dy = np.array([0.5, -1.5])
        gw, gb, dx = backward(m, cache, dy)
        np.testing.assert_allclose(gw[0], np.outer(dy, x))
        np.testing.assert_allclose(gb[0], dy)
        np.testing.assert_allclose(dx, m.weights[0].T @ dy)

    def test_against_finite_differences(self):
        m = mlp_init([4, 7, 7, 4], seed=6)
        x = Prng(3).standard_normal(5, 4)
        target = Prng(4).standard_normal(5, 4)

        def loss():
            y, _ = forward(m, x)
            return float(np.mean((y - target) ** 2))

        y, cache = forward(m, x)
        dy = 2 * (y - target) / y.size
        gw, gb, _ = backward(m, cache, dy)
        grads = []
        for w, b in zip(gw, gb):
            grads.extend([w, b])
        err = gradient_check(m.parameters(), loss, grads, seed=0)
        assert err <= 1e-7

    def test_corrupted_gradient_flagged(self):
        m = mlp_init([3, 5, 5, 3], seed=7)
        x = Prng(5).standard_normal(4, 3)

        def loss():
            y, _ = forward(m, x)
            return float(np.mean(y**2))

        y, cache = forward(m, x)
        gw, gb, _ = backward(m, cache, 2 * y / y.size)
        gw[0] = gw[0] * 1.05
        grads = []
        for w, b in zip(gw, gb):
            grads.extend([w, b])
        err = gradient_check(m.parameters(), loss, grads, seed=0)
        assert err >= 5e-3


class TestAdam:
    def test_zero_grad_no_change(self):
        p = [np.array([1.0, 2.0])]
        state = AdamState(p)
        adam_step(p, [np.zeros(2)], state, lr=1e-3)
        np.testing.assert_array_equal(p[0], [1.0, 2.0])
        assert state.t == 1

    def test_first_step_magnitude(self):
        # bias-corrected first step moves by about -lr * sign(grad)
        p = [np.array([0.0])]
        state = AdamState(p)
        adam_step(p, [np.array([1.0])], state, lr=1e-3)
        assert p[0][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_lr_zero_advances_state(self):
        p = [np.array([1.0])]
        state = AdamState(p)
        adam_step(p, [np.array([0.5])], state, lr=0.0)
        np.testing.assert_array_equal(p[0], [1.0])
        assert state.t == 1
        assert state.m[0][0] != 0.0

    def test_deterministic_trajectory(self):
        def run():
            m = mlp_init([3, 4, 4, 3], seed=9)
            params = m.parameters()
            state = AdamState(params)
            x = Prng(6).standard_normal(8, 3)
            for _ in range(20):
                y, cache = forward(m, x)
                gw, gb, _ = backward(m, cache, 2 * y / y.size)
                grads = []
                for w, b in zip(gw, gb):
                    grads.extend([w, b])
                adam_step(params, grads, state, lr=1e-3)
            return m

        m1, m2 = run(), run()
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        p = [np.zeros(3)]
        state = AdamState(p)
        with pytest.raises(ShapeMismatch):
            adam_step(p, [np.zeros(4)], state, lr=1e-3)


class TestLrSchedule:
    def test_epoch_zero(self):
        assert lr_at(LrSchedule(), 0) == 1e-3

    def test_epoch_one(self):
        assert lr_at(LrSchedule(), 1) == pytest.approx(9.6e-4)

    def test_epoch_fifty(self):
        assert lr_at(LrSchedule(), 50) == pytest.approx(1.2989e-4, rel=1e-4)

    def test_invalid(self):
        with pytest.raises(BadDims):
            LrSchedule(lr0=0.0)


class TestCheckpointIO:
    def test_round_trip_exact(self, tmp_path):
        m = mlp_init([4, 6, 6, 4], seed=11)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(mlp_to_dict(m, seed=11, trained_epochs=3)))
        back = mlp_from_dict(json.loads(path.read_text()))
        assert back.layer_dims == m.layer_dims
        for a, b in zip(back.parameters(), m.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_bytes_equal_to_17_digit_formatting(self):
        """The writer once printed every parameter with "%.17g" and parsed it
        back; for float64 that round trip is the identity, so the JSON bytes
        of a checkpoint do not change."""
        m = mlp_init([16, 64, 64, 16], seed=5)
        rng = np.random.default_rng(5)
        for p in m.parameters():
            p += rng.standard_normal(p.shape) * 10.0 ** rng.integers(-300, 300, p.shape)
        m.biases[0][:3] = [-0.0, 5e-324, np.finfo(float).max]
        new = mlp_to_dict(m, seed=5, trained_epochs=2)
        old = dict(new)
        old["weights"] = [[float("%.17g" % x) for x in w.ravel()] for w in m.weights]
        old["biases"] = [[float("%.17g" % x) for x in b.ravel()] for b in m.biases]
        assert json.dumps(new) == json.dumps(old)
