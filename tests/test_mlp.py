import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidalign.align import NessaConfig, PairedData, train
from sidalign.errors import ConfigInvalid, DimensionMismatch
from sidalign.mlp import (
    AdamState,
    adam_step,
    backward,
    forward,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
)
from sidalign.numerics import Prng
from sidalign.synth import SynthConfig, generate

from gradcheck import gradient_check


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
        assert sum(p.size for p in m.parameters()) == 1_282_000

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            mlp_init([4], seed=0)
        with pytest.raises(DimensionMismatch):
            mlp_init([4, 0, 4], seed=0)


class TestForward:
    def test_zero_parameters_zero_output(self):
        m = mlp_init([3, 5, 5, 3], seed=0)
        for w in m.weights:
            w[:] = 0
        y, _ = forward(m, np.ones((1, 3)))
        np.testing.assert_array_equal(y, 0)

    def test_relu_gates_negative(self):
        m = mlp_init([1, 1, 1, 1], seed=0)
        for w in m.weights:
            w[:] = 1
        (y,), _ = forward(m, np.array([[-5.0]]))
        np.testing.assert_array_equal(y, [0.0])

    def test_matches_straight_line_recomputation(self):
        m = mlp_init([4, 6, 6, 4], seed=3)
        x = Prng(0).standard_normal(4)
        (y,), _ = forward(m, x[None, :])
        h1 = np.maximum(m.weights[0] @ x + m.biases[0], 0)
        h2 = np.maximum(m.weights[1] @ h1 + m.biases[1], 0)
        expect = m.weights[2] @ h2 + m.biases[2]
        np.testing.assert_allclose(y, expect, rtol=1e-12)

    def test_dim_mismatch(self):
        m = mlp_init([4, 6, 6, 4], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.ones((2, 5)))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_input_not_rows(self, shape):
        # Only (n, d) rows are input: a vector is a DimensionMismatch too.
        m = mlp_init([4, 6, 6, 4], seed=0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.ones(shape))

    def test_positive_homogeneity_with_zero_bias(self):
        m = mlp_init([5, 9, 9, 5], seed=4)
        x = Prng(1).standard_normal(1, 5)
        y1, _ = forward(m, x)
        y2, _ = forward(m, 3.0 * x)
        np.testing.assert_allclose(y2, 3.0 * y1, rtol=1e-10)

    def test_batch_matches_single(self):
        m = mlp_init([4, 6, 6, 4], seed=5)
        xs = Prng(2).standard_normal(7, 4)
        ys, _ = forward(m, xs)
        for i in range(7):
            (yi,), _ = forward(m, xs[i:i + 1])
            np.testing.assert_allclose(ys[i], yi, rtol=1e-12)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        m = mlp_init([3, 4, 4, 3], seed=0)
        y, cache = forward(m, np.ones((1, 3)))
        grads = backward(m, cache, np.zeros((1, 3)))
        assert [g.shape for g in grads] == [p.shape for p in m.parameters()]
        for g in grads:
            np.testing.assert_array_equal(g, 0)

    def test_single_linear_layer_closed_form(self):
        m = mlp_init([3, 2], seed=1)
        x = np.array([1.0, 2.0, 3.0])
        _, cache = forward(m, x[None, :])
        dy = np.array([0.5, -1.5])
        gw, gb = backward(m, cache, dy[None, :])
        np.testing.assert_allclose(gw, np.outer(dy, x))
        np.testing.assert_allclose(gb, dy)

    def test_against_finite_differences(self):
        m = mlp_init([4, 7, 7, 4], seed=6)
        x = Prng(3).standard_normal(5, 4)
        target = Prng(4).standard_normal(5, 4)

        def loss():
            y, _ = forward(m, x)
            return float(np.mean((y - target) ** 2))

        y, cache = forward(m, x)
        grads = backward(m, cache, 2 * (y - target) / y.size)
        err = gradient_check(m.parameters(), loss, grads, seed=0)
        assert err <= 1e-7

    def test_corrupted_gradient_flagged(self):
        m = mlp_init([3, 5, 5, 3], seed=7)
        x = Prng(5).standard_normal(4, 3)

        def loss():
            y, _ = forward(m, x)
            return float(np.mean(y**2))

        y, cache = forward(m, x)
        grads = backward(m, cache, 2 * y / y.size)
        grads[0] = grads[0] * 1.05
        err = gradient_check(m.parameters(), loss, grads, seed=0)
        assert err >= 5e-3


def reference_forward(m, x):
    """The forward pass with a fresh array per operation that keeps each
    pre-activation, and the backward pass that masks with it."""
    h = np.asarray(x, dtype=np.float64)
    acts, pre = [h], []
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < len(m.weights) - 1 else z
        acts.append(h)
    return h, (acts, pre)


def reference_backward(m, cache, dy):
    acts, pre = cache
    grad = np.asarray(dy, dtype=np.float64)
    grads = []
    for i in range(len(m.weights) - 1, -1, -1):
        if i < len(m.weights) - 1:
            grad = (grad @ m.weights[i + 1]) * (pre[i] > 0.0)
        grads += [grad.sum(axis=0), grad.T @ acts[i]]
    return grads[::-1]


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.sampled_from([1, 37, 256, 768, 2000]),
           dims=st.sampled_from([[8, 16, 16, 8], [5, 3, 4], [32, 64, 64, 32], [3, 2]]),
           nan=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_forward_backward_bit_for_bit(self, rows, dims, nan, seed):
        # nan puts one NaN into the input, which the ReLU mask must treat as
        # the pre-activation mask did.
        prng = Prng(seed)
        m = mlp_init(dims, seed % 1000)
        for b in m.biases:
            b += prng.standard_normal(b.size)
        shape = (rows, dims[0])
        x = prng.standard_normal(*shape)
        if nan:
            x.reshape(-1)[int(prng.integers(0, x.size))] = np.nan
        dy = prng.standard_normal(*(shape[:-1] + (dims[-1],)))
        y, cache = forward(m, x)
        want_y, want_cache = reference_forward(m, x)
        assert y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
        got = backward(m, cache, dy)
        want = reference_backward(m, want_cache, dy)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    def test_dtype_follows_weights(self):
        # float32 weights compute in float32, close to the float64 pass;
        # float64 weights keep the reference's float64 bits for float32 rows.
        prng = Prng(4)
        m64 = mlp_init([8, 16, 16, 8], seed=4)
        m32 = m64.astype(np.float32)
        x = prng.standard_normal(37, 8).astype(np.float32)
        dy = prng.standard_normal(37, 8).astype(np.float32)
        y32, cache32 = forward(m32, x)
        grads32 = backward(m32, cache32, dy)
        assert y32.dtype == np.float32
        assert all(a.dtype == np.float32 for a in list(cache32) + grads32)
        y64, cache64 = forward(m64, x)
        want_y, want_cache = reference_forward(m64, x.astype(np.float64))
        assert y64.dtype == np.float64 and y64.tobytes() == want_y.tobytes()
        grads64 = backward(m64, cache64, dy)
        want = reference_backward(m64, want_cache, dy.astype(np.float64))
        assert [g.tobytes() for g in grads64] == [g.tobytes() for g in want]
        np.testing.assert_allclose(y32, y64, rtol=1e-5, atol=1e-5)
        for g32, g64 in zip(grads32, grads64):
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4)


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
                adam_step(params, backward(m, cache, 2 * y / y.size), state, lr=1e-3)
            return m

        m1, m2 = run(), run()
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        p = [np.zeros(3)]
        state = AdamState(p)
        with pytest.raises(DimensionMismatch):
            adam_step(p, [np.zeros(4)], state, lr=1e-3)

    @given(shapes=st.lists(st.sampled_from([(1,), (3,), (4, 2), (5, 3), (2, 2, 2)]),
                           min_size=1, max_size=4),
           steps=st.integers(1, 6),
           lr=st.sampled_from([0.0, 1e-3, 0.37, 5.0]),
           dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_temporaries_reference(self, shapes, steps, lr, dtype, seed):
        # Parameters and moments after several steps equal, bit for bit,
        # those of the update written with temporaries, in float64 and in
        # training's float32.
        prng = Prng(seed)
        params = [prng.standard_normal(*s).astype(dtype) for s in shapes]
        ref_params = [p.copy() for p in params]
        state, ref = AdamState(params), ReferenceAdam(ref_params)
        for _ in range(steps):
            grads = []
            for s in shapes:
                g = prng.standard_normal(*s) * 10.0 ** float(prng.integers(-8, 4))
                g[prng.uniform(0, 1, g.size).reshape(s) < 0.2] = 0.0
                grads.append(g.astype(dtype))
            adam_step(params, grads, state, lr)
            ref.step(ref_params, grads, lr)
        assert state.t == ref.t == steps
        for got, want in zip(params + state.m + state.v, ref_params + ref.m + ref.v):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


class ReferenceAdam:
    """The textbook Adam update, with its betas and eps as arguments: one
    temporary per operation."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, params, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def logged_lrs(epochs, **settings):
    """The lr of each epoch's log entry of a tiny m2 training run."""
    cx, cy, _ = generate(SynthConfig(n_speakers=4, n_enroll_utts=1, n_runtime_utts=1,
                                     latent_dim=2, embed_dim=2))
    cfg = NessaConfig(variant="m2", epochs=epochs, steps_per_epoch=1, batch_size=2,
                      hidden=2, **settings)
    return [entry["lr"] for entry in train(cfg, PairedData(cx, cy), None).log]


class TestLrSchedule:
    """train's learning rate lr0 * lr_decay**epoch, and NessaConfig.validate's
    checks on its two settings."""

    def test_epoch_zero(self):
        assert logged_lrs(1)[0] == 1e-3

    def test_epoch_one(self):
        assert logged_lrs(2)[1] == pytest.approx(9.6e-4)

    def test_epoch_fifty(self):
        assert logged_lrs(51)[50] == pytest.approx(1.2989e-4, rel=1e-4)

    @pytest.mark.parametrize("lr0, lr_decay", [(1e-3, 0.96), (3e-3, 0.9), (0.1, 1.0)])
    def test_every_epoch_bit_for_bit(self, lr0, lr_decay):
        lrs = logged_lrs(12, lr0=lr0, lr_decay=lr_decay)
        assert lrs == [lr0 * lr_decay**epoch for epoch in range(12)]

    def test_invalid(self):
        for lr0, lr_decay in [(0.0, 0.96), (-1e-3, 0.96), (1e-3, 0.0), (1e-3, 1.5),
                              (1e-3, -0.5)]:
            with pytest.raises(ConfigInvalid):
                NessaConfig(lr0=lr0, lr_decay=lr_decay).validate()

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_hidden_below_one(self, hidden):
        with pytest.raises(ConfigInvalid, match="hidden"):
            NessaConfig(hidden=hidden).validate()

    @pytest.mark.parametrize("lr0, decay", [(float("nan"), 0.96), (float("inf"), 0.96),
                                            (1e-3, float("nan"))])
    def test_non_finite(self, lr0, decay):
        with pytest.raises(ConfigInvalid):
            NessaConfig(lr0=lr0, lr_decay=decay).validate()


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
