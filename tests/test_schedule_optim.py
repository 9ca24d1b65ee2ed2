"""Schedules against closed-form values; optimizer against hand updates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forge.tensor import Tensor
from forge.train.optim import adamw_step, clip_grad_norm, init_state
from forge.train.schedule import (
    DPO_SCHEDULE,
    PRETRAIN_SCHEDULE,
    RL_SCHEDULE,
    SFT_SCHEDULE,
    ScheduleSpec,
    lr_at,
)


def pretrain_spec(total=1000):
    return ScheduleSpec(total_steps=total, **PRETRAIN_SCHEDULE)


# -- schedule -------------------------------------------------------------------


def test_peak_at_end_of_warmup():
    spec = pretrain_spec()
    assert lr_at(spec, spec.warmup_steps) == pytest.approx(2.5e-5, abs=1e-12)


def test_min_at_total():
    spec = pretrain_spec()
    assert lr_at(spec, spec.total_steps) == pytest.approx(9e-6, abs=1e-12)


def test_midpoint_of_decay():
    spec = pretrain_spec(total=1050)  # decay span 1000
    mid = spec.warmup_steps + 500
    assert lr_at(spec, mid) == pytest.approx((2.5e-5 + 9e-6) / 2, abs=1e-12)


def test_warmup_is_linear_from_first_step():
    spec = pretrain_spec()
    assert lr_at(spec, 0) == pytest.approx(2.5e-5 / 50)
    assert lr_at(spec, 24) == pytest.approx(2.5e-5 * 25 / 50)


def test_warmup_continuity():
    for spec in (pretrain_spec(), ScheduleSpec(total_steps=400, **SFT_SCHEDULE)):
        gap = abs(lr_at(spec, spec.warmup_steps - 1) - lr_at(spec, spec.warmup_steps))
        assert gap <= spec.peak_lr / spec.warmup_steps + 1e-12


def test_constant_shape_after_warmup():
    spec = ScheduleSpec(total_steps=500, **SFT_SCHEDULE)
    assert spec.peak_lr == 5e-6 and spec.warmup_steps == 100
    for step in (100, 250, 500):
        assert lr_at(spec, step) == 5e-6


def test_stage_defaults():
    assert DPO_SCHEDULE["peak_lr"] == 5e-7 and DPO_SCHEDULE["warmup_steps"] == 50
    assert RL_SCHEDULE["peak_lr"] == 1e-6
    assert PRETRAIN_SCHEDULE["warmup_steps"] == 50


def test_step_out_of_range():
    spec = pretrain_spec(total=100)
    with pytest.raises(ValueError):
        lr_at(spec, -1)
    with pytest.raises(ValueError):
        lr_at(spec, 101)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(peak_lr=1e-5, min_lr=2e-5, total_steps=10)
    with pytest.raises(ValueError):
        ScheduleSpec(peak_lr=1e-5, warmup_steps=20, total_steps=10)
    with pytest.raises(ValueError):
        ScheduleSpec(peak_lr=1e-5, total_steps=10, shape="linear")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_cosine_bounded(step):
    spec = pretrain_spec(total=1000)
    lr = lr_at(spec, step)
    assert 0.0 < lr <= spec.peak_lr + 1e-18
    if step >= spec.warmup_steps:
        assert lr >= spec.min_lr - 1e-18


# -- clipping -------------------------------------------------------------------


def test_clip_scales_when_over():
    grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}  # norm 2
    clipped, norm = clip_grad_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(2.0)
    np.testing.assert_allclose(clipped["a"], [1.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clip_scales_the_input_arrays_in_place(dtype):
    rng = np.random.default_rng(1)
    grads = {f"p{i}": (rng.standard_normal((4, 3)) * 3).astype(dtype) for i in range(3)}
    inputs, copies = dict(grads), {k: g.copy() for k, g in grads.items()}
    clipped, norm = clip_grad_norm(grads, max_norm=1.0)
    scale = 1.0 / norm
    for k, g in clipped.items():
        assert g is inputs[k]
        assert g.dtype == dtype
        assert np.array_equal(g, copies[k] * scale)


def test_clip_noop_when_under():
    grads = {"a": np.array([0.3, 0.4])}  # norm .5
    clipped, norm = clip_grad_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    assert clipped["a"] is grads["a"]


def test_post_clip_norm_is_min():
    rng = np.random.default_rng(0)
    for _ in range(10):
        grads = {f"p{i}": rng.standard_normal(5) * rng.uniform(0.1, 3) for i in range(3)}
        clipped, norm = clip_grad_norm(grads, max_norm=1.0)
        post = math.sqrt(sum(float((g ** 2).sum()) for g in clipped.values()))
        assert post == pytest.approx(min(norm, 1.0), abs=1e-9)


def test_clip_nonfinite_names_parameter():
    with pytest.raises(ValueError, match="embed"):
        clip_grad_norm({"embed": np.array([np.inf])})


# -- adamw ---------------------------------------------------------------------


def test_adamw_hand_step():
    params = {"w": Tensor(np.array([1.0]))}
    state = init_state(params)
    adamw_step(params, {"w": np.array([1.0])}, state, lr=0.1, weight_decay=0.0)
    # fresh state: m_hat = v_hat = 1, update = lr / (1 + eps)
    assert params["w"].data[0] == pytest.approx(0.9, abs=1e-8)
    assert state.t == 1


def test_adamw_zero_grad_no_motion():
    params = {"w": Tensor(np.array([1.0, -2.0]))}
    state = init_state(params)
    before = params["w"].data.copy()
    adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params["w"].data, before)


def test_adamw_decay_only():
    params = {"w": Tensor(np.array([1.0]))}
    state = init_state(params)
    adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.1)
    assert params["w"].data[0] == pytest.approx(0.99, abs=1e-12)


def test_adamw_matches_reference_trajectory():
    """Multi-step AdamW against an independent scalar re-implementation."""
    rng = np.random.default_rng(1)
    theta = 0.7
    params = {"w": Tensor(np.array([theta]))}
    state = init_state(params)
    m = v = 0.0
    b1, b2, eps, lr, wd = 0.9, 0.95, 1e-8, 0.01, 0.05
    for t in range(1, 8):
        g = float(rng.standard_normal())
        adamw_step(params, {"w": np.array([g])}, state, lr=lr, beta1=b1, beta2=b2,
                   eps=eps, weight_decay=wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps) - lr * wd * theta
        assert params["w"].data[0] == pytest.approx(theta, abs=1e-12)


def test_adamw_second_moment_nonnegative():
    rng = np.random.default_rng(2)
    params = {"w": Tensor(rng.standard_normal(4))}
    state = init_state(params)
    for _ in range(5):
        adamw_step(params, {"w": rng.standard_normal(4)}, state, lr=0.01)
    assert np.all(state.v["w"] >= 0.0)


def test_adamw_shape_mismatch():
    params = {"w": Tensor(np.zeros(3))}
    state = init_state(params)
    with pytest.raises(ValueError, match="shape"):
        adamw_step(params, {"w": np.zeros(4)}, state, lr=0.1)
