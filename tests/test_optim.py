"""Adam update exactness and plateau scheduler timing."""

import numpy as np
import pytest

from sarberg.nn import AdamState, PlateauScheduler, adam_step


class TestAdamStep:
    def test_first_step_closed_form(self):
        # Fresh state, scalar gradient 1: m_hat = v_hat = 1 exactly, so the
        # parameter moves by lr / (1 + eps).
        param = np.array([2.0])
        state = AdamState.zeros_like(param)
        out = adam_step(param, np.array([1.0]), state, lr=0.001)
        expected_move = 0.001 / (1.0 + 1e-8)
        assert abs((param[0] - out[0]) - expected_move) < 1e-12
        assert state.t == 1

    def test_zero_gradient_zero_state_no_move(self):
        param = np.array([1.0, -2.0, 3.0])
        state = AdamState.zeros_like(param)
        out = adam_step(param, np.zeros(3), state, lr=0.01)
        assert np.array_equal(out, param)

    def test_fresh_state_direction_is_negative_sign(self):
        rng = np.random.default_rng(0)
        param = rng.normal(size=(4, 5))
        grad = rng.normal(size=(4, 5))
        state = AdamState.zeros_like(param)
        out = adam_step(param, grad, state, lr=1e-3)
        move = out - param
        assert np.array_equal(np.sign(move), -np.sign(grad))

    def test_bias_correction_over_steps(self):
        # Constant gradient g: m_hat stays g after correction, so every step
        # moves by ~lr regardless of beta warmup.
        param = np.array([0.0])
        state = AdamState.zeros_like(param)
        for _ in range(5):
            param = adam_step(param, np.array([2.0]), state, lr=0.1)
        assert param[0] == pytest.approx(-0.5, rel=1e-6)
        assert state.t == 5

    def test_non_finite_gradient_rejected(self):
        param = np.zeros(2)
        state = AdamState.zeros_like(param)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(param, np.array([1.0, np.nan]), state, lr=0.1)

    def test_shape_mismatch_rejected(self):
        param = np.zeros(3)
        state = AdamState.zeros_like(param)
        with pytest.raises(ValueError, match="shape"):
            adam_step(param, np.zeros(2), state, lr=0.1)

    def test_preserves_dtype(self):
        param = np.zeros(3, dtype=np.float32)
        state = AdamState.zeros_like(param)
        out = adam_step(param, np.ones(3, dtype=np.float32), state, lr=0.1)
        assert out.dtype == np.float32


class TestPlateauScheduler:
    def test_improving_losses_keep_lr(self):
        sched = PlateauScheduler(lr=0.001, patience=5)
        for loss in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4):
            assert sched.update(loss) == 0.001

    def test_drop_exactly_at_patience_expiry(self):
        sched = PlateauScheduler(lr=0.001, patience=5, factor=0.1)
        assert sched.update(1.0) == 0.001
        for _ in range(4):
            assert sched.update(1.0) == 0.001
        # fifth consecutive non-improving epoch triggers the 90% cut
        assert sched.update(1.0) == pytest.approx(0.0001)

    def test_never_below_min_lr(self):
        sched = PlateauScheduler(lr=0.001, patience=1, factor=0.1, min_lr=1e-6)
        sched.update(1.0)
        for _ in range(20):
            lr = sched.update(1.0)
        assert lr == 1e-6

    def test_improvement_resets_patience(self):
        sched = PlateauScheduler(lr=0.1, patience=3, factor=0.5)
        sched.update(1.0)
        sched.update(1.0)
        sched.update(1.0)  # 2 stale epochs so far
        assert sched.update(0.5) == 0.1  # improvement clears the counter
        sched.update(0.5)
        sched.update(0.5)
        assert sched.update(0.5) == pytest.approx(0.05)  # 3 stale again

    def test_tiny_improvement_counts_as_stale(self):
        # A fall of 1e-9 is within the fixed threshold of 1e-6; 1e-5 is not.
        sched = PlateauScheduler(lr=0.1, patience=2, factor=0.5)
        sched.update(1.0)
        sched.update(1.0 - 1e-9)
        assert sched.update(1.0 - 2e-9) == pytest.approx(0.05)
        sched.update(1.0 - 1e-5)
        assert sched.update(1.0 - 2e-5) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlateauScheduler(lr=0.001, factor=1.5)
        with pytest.raises(ValueError):
            PlateauScheduler(lr=1e-7, min_lr=1e-6)
