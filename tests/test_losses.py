"""Objectives: hand-valued examples, identities, gradient checks, and the
single-node loss heads against their composites in ``reference.py``."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import reference

from forge import tensor as T
from forge.tensor import Graph, Tensor
from forge.train.losses import (
    GrpoGroup,
    PreferenceBatch,
    dpo_loss,
    dpop_loss,
    grpo_advantages,
    grpo_objective,
    kl_k3,
    sft_loss,
)

GRAD_TOL = 1e-4


def rand(rng, *shape):
    return rng.standard_normal(shape).astype(np.float64)


# -- sft -------------------------------------------------------------------------


def test_sft_uniform_logits():
    vocab = 7
    logits = Tensor(np.zeros((4, vocab), dtype=np.float64))
    loss = sft_loss(logits, [1, 2, 3, 4], [True] * 4)
    assert abs(loss.item() - math.log(vocab)) < 1e-12


def test_sft_hand_value():
    logits = Tensor(np.array([[0.0, 0.0, math.log(2.0)]]))
    loss = sft_loss(logits, [2], [True])
    assert abs(loss.item() - math.log(2.0)) < 1e-12  # -log(2/4)


def test_sft_masked_positions_no_gradient():
    rng = np.random.default_rng(0)
    logits = Tensor(rand(rng, 5, 6), requires_grad=True)
    mask = np.array([True, False, True, False, True])
    with Graph() as g:
        loss = sft_loss(logits, [0, 1, 2, 3, 4], mask)
    g.backward(loss)
    grad = g.grad(logits)
    assert np.all(grad[~mask] == 0.0)
    assert np.any(grad[mask] != 0.0)


def test_sft_all_false_mask_rejected():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="all false"):
        sft_loss(logits, [0, 1, 2], [False, False, False])


def test_sft_mask_restricts_value():
    rng = np.random.default_rng(1)
    logits_np = rand(rng, 4, 5)
    targets = [1, 2, 3, 0]
    full = sft_loss(Tensor(logits_np), targets, [True] * 4).item()
    # masked mean over a subset equals the plain mean of those positions
    sub = sft_loss(Tensor(logits_np), targets, [True, False, True, False]).item()
    logp = logits_np - np.log(np.exp(logits_np).sum(-1, keepdims=True))
    expected = -(logp[0, 1] + logp[2, 3]) / 2
    assert abs(sub - expected) < 1e-12
    expected_full = -np.mean([logp[i, t] for i, t in enumerate(targets)])
    assert abs(full - expected_full) < 1e-12


def test_sft_gradient_check():
    rng = np.random.default_rng(2)
    logits = Tensor(rand(rng, 6, 9), requires_grad=True)
    mask = np.array([True, True, False, True, False, True])
    targets = rng.integers(0, 9, size=6)
    err = T.gradient_check(lambda p: sft_loss(p["logits"], targets, mask), {"logits": logits})
    assert err < GRAD_TOL


# -- dpo / dpo-p -------------------------------------------------------------------


def pair_batch(pw, pl, rw, rl, beta=0.1, lam=5.0, grad=False):
    return PreferenceBatch(
        policy_chosen=Tensor(np.atleast_1d(np.array(pw, dtype=np.float64)), requires_grad=grad),
        policy_rejected=Tensor(np.atleast_1d(np.array(pl, dtype=np.float64)), requires_grad=grad),
        ref_chosen=np.atleast_1d(np.array(rw, dtype=np.float64)),
        ref_rejected=np.atleast_1d(np.array(rl, dtype=np.float64)),
        beta=beta,
        lam_dpop=lam,
    )


def test_dpo_identical_policies_ln2():
    batch = pair_batch([-3.0, -1.5], [-4.0, -2.5], [-3.0, -1.5], [-4.0, -2.5])
    assert abs(dpo_loss(batch).item() - math.log(2.0)) < 1e-12


def test_dpo_hand_margin():
    # chosen margin 1.0, rejected margin -1.0, beta 0.1 -> softplus(-0.2)
    batch = pair_batch([-1.0], [-3.0], [-2.0], [-2.0])
    expected = math.log(1.0 + math.exp(-0.2))
    assert abs(dpo_loss(batch).item() - expected) < 1e-12
    assert abs(expected - 0.59814) < 1e-5


def test_dpo_monotone_in_margin():
    losses = []
    for delta in np.linspace(-2.0, 2.0, 9):
        batch = pair_batch([delta], [0.0], [0.0], [0.0])
        losses.append(dpo_loss(batch).item())
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_dpo_shift_invariance():
    base = pair_batch([-1.0, -2.0], [-3.0, -1.0], [-1.5, -2.5], [-2.0, -1.5])
    shifted = pair_batch(
        [-1.0 + 7.0, -2.0 + 7.0], [-3.0 - 3.0, -1.0 - 3.0],
        [-1.5 + 7.0, -2.5 + 7.0], [-2.0 - 3.0, -1.5 - 3.0],
    )
    assert abs(dpo_loss(base).item() - dpo_loss(shifted).item()) < 1e-12


def test_dpo_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        pair_batch([np.nan], [0.0], [0.0], [0.0])


def test_dpop_lambda_zero_equals_dpo_exactly():
    batch = pair_batch([-1.3], [-2.7], [-1.1], [-2.0], lam=0.0)
    assert dpop_loss(batch).item() == dpo_loss(batch).item()


def test_dpop_inactive_hinge_equals_dpo():
    # policy gained mass on chosen: penalty is zero
    batch = pair_batch([-1.0], [-3.0], [-1.5], [-2.5], lam=5.0)
    assert abs(dpop_loss(batch).item() - dpo_loss(batch).item()) < 1e-12


def test_dpop_hand_value():
    # both margins -0.5, so dpo term 0; hinge = 0.5, lam 5 -> argument -0.25
    batch = pair_batch([-1.5], [-2.5], [-1.0], [-2.0], beta=0.1, lam=5.0)
    expected = math.log(1.0 + math.exp(0.25))
    assert abs(dpop_loss(batch).item() - expected) < 1e-12
    assert abs(expected - 0.82593) < 1e-5


def test_preference_losses_gradient_check():
    rng = np.random.default_rng(3)
    rw, rl = rand(rng, 4), rand(rng, 4)

    def build(fn):
        def loss(p):
            batch = PreferenceBatch(
                policy_chosen=p["pw"], policy_rejected=p["pl"],
                ref_chosen=rw, ref_rejected=rl, beta=0.3, lam_dpop=2.0,
            )
            return fn(batch)
        return loss

    for fn in (dpo_loss, dpop_loss):
        params = {
            "pw": Tensor(rand(rng, 4), requires_grad=True),
            "pl": Tensor(rand(rng, 4), requires_grad=True),
        }
        err = T.gradient_check(build(fn), params)
        assert err < GRAD_TOL, f"{fn.__name__}: {err:.2e}"


# -- grpo pieces --------------------------------------------------------------------


def test_advantages_all_equal_are_zero():
    for variant in ("grpo", "dr_grpo"):
        np.testing.assert_array_equal(grpo_advantages([0.7] * 4, variant), np.zeros(4))


def test_advantages_hand_values():
    np.testing.assert_allclose(grpo_advantages([1, 0, 0, 1], "grpo"), [1, -1, -1, 1])
    np.testing.assert_allclose(grpo_advantages([1, 0, 0, 1], "dr_grpo"), [0.5, -0.5, -0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=2, max_size=10))
def test_advantages_properties(rewards):
    for variant in ("grpo", "dr_grpo"):
        a = grpo_advantages(rewards, variant)
        assert abs(a.sum()) < 1e-9
    a = grpo_advantages(rewards, "grpo")
    if np.std(rewards) >= 1e-8:
        assert abs(a.std() - 1.0) < 1e-9  # unit population variance


def test_advantages_require_group():
    with pytest.raises(ValueError):
        grpo_advantages([1.0], "grpo")


def test_k3_zero_at_equality():
    lp = Tensor(np.array([-1.0, -2.0]))
    assert np.allclose(kl_k3(lp, np.array([-1.0, -2.0])).numpy(), 0.0)


def test_k3_hand_value():
    lp = Tensor(np.array([-2.0 - math.log(2.0)]))
    ref = np.array([-2.0])
    expected = 2.0 - math.log(2.0) - 1.0
    assert abs(kl_k3(lp, ref).numpy()[0] - expected) < 1e-12
    assert abs(expected - 0.30685) < 1e-5


def test_k3_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(4)
    pol = rand(rng, 10_000)
    ref = pol + rng.standard_normal(10_000) * (rng.random(10_000) < 0.5)
    vals = kl_k3(Tensor(pol), ref).numpy()
    assert np.all(vals >= 0.0)
    same = pol == ref
    assert np.all(vals[same] == 0.0)
    assert np.all(vals[~same] > 0.0)


# -- grpo objective ------------------------------------------------------------------


def make_group(rng, g=4, tokens=(3, 5, 2, 4), variant="grpo", rewards=None, **kw):
    lp = [Tensor(-np.abs(rand(rng, t)) - 0.1, requires_grad=True) for t in tokens[:g]]
    old = [t.data.copy() for t in lp]
    ref = [t.data + 0.05 * rand(rng, t.shape[0]) for t in lp]
    rewards = np.array([1.0, 0.0, 0.0, 1.0][:g]) if rewards is None else rewards
    return GrpoGroup(
        logp_policy=lp, logp_old=old, logp_ref=ref, rewards=rewards, variant=variant, **kw
    )


def test_grpo_stationary_start_zero_loss():
    rng = np.random.default_rng(5)
    lp = [Tensor(-np.abs(rand(rng, t))) for t in (3, 4)]
    group = GrpoGroup(
        logp_policy=lp,
        logp_old=[t.data.copy() for t in lp],
        logp_ref=[t.data.copy() for t in lp],
        rewards=np.array([0.5, 0.5]),  # equal rewards: advantages 0
    )
    assert abs(grpo_objective(group).item()) < 1e-12


def test_grpo_clip_arithmetic():
    lp = Tensor(np.array([math.log(1.5)]))  # rho = 1.5 against old = 0
    group = GrpoGroup(
        logp_policy=[lp, Tensor(np.array([0.0]))],
        logp_old=[np.array([0.0]), np.array([0.0])],
        logp_ref=[np.array([math.log(1.5)]), np.array([0.0])],
        rewards=np.array([1.0, 0.0]),
        clip_eps=0.2,
        kl_coef=0.0,
    )
    # advantages (1,-1); response 0 surrogate = min(1.5, 1.2) = 1.2
    # response 1: rho=1, surrogate = -1; loss = -(1.2 + -1)/2
    assert abs(grpo_objective(group).item() - (-(1.2 - 1.0) / 2.0)) < 1e-12


def test_grpo_saturated_clip_has_zero_gradient():
    lp = Tensor(np.array([math.log(1.5)]), requires_grad=True)
    other = Tensor(np.array([0.0]))
    group = GrpoGroup(
        logp_policy=[lp, other],
        logp_old=[np.array([0.0]), np.array([0.0])],
        logp_ref=[np.array([math.log(1.5)]), np.array([0.0])],
        rewards=np.array([1.0, 0.0]),
        clip_eps=0.2,
        kl_coef=0.0,
    )
    with Graph() as g:
        loss = grpo_objective(group)
    g.backward(loss)
    np.testing.assert_allclose(g.grad(lp), [0.0])  # clip saturates upward


def test_grpo_dr_variant_divides_by_budget():
    rng = np.random.default_rng(6)
    group = make_group(rng, variant="dr_grpo", max_tokens=10, kl_coef=0.0)
    loss = grpo_objective(group).item()
    adv = grpo_advantages(group.rewards, "dr_grpo")
    # at rho == 1 (policy == old) the surrogate per token is just the advantage
    expected = -sum(adv[i] * group.logp_policy[i].shape[0] for i in range(4)) / (4 * 10)
    assert abs(loss - expected) < 1e-12


def test_grpo_length_misalignment_rejected():
    lp = [Tensor(np.zeros(3)), Tensor(np.zeros(2))]
    with pytest.raises(ValueError, match="lengths differ"):
        GrpoGroup(
            logp_policy=lp,
            logp_old=[np.zeros(3), np.zeros(3)],
            logp_ref=[np.zeros(3), np.zeros(2)],
            rewards=np.array([1.0, 0.0]),
        )


@pytest.mark.parametrize("variant", ["grpo", "dr_grpo"])
def test_grpo_gradient_check(variant):
    rng = np.random.default_rng(7)
    tokens = (3, 5, 2, 4)
    old = [-np.abs(rand(rng, t)) - 0.1 for t in tokens]
    ref = [o + 0.05 * rand(rng, len(o)) for o in old]
    rewards = np.array([1.0, 0.0, 0.0, 1.0])

    def loss(p):
        group = GrpoGroup(
            logp_policy=[p[f"lp{i}"] for i in range(4)],
            logp_old=old,
            logp_ref=ref,
            rewards=rewards,
            clip_eps=0.5,  # wide clip: stay differentiable at the sample point
            kl_coef=0.01,
            variant=variant,
            max_tokens=8,
        )
        return grpo_objective(group)

    params = {
        f"lp{i}": Tensor(old[i] + 0.03 * rand(rng, tokens[i]), requires_grad=True)
        for i in range(4)
    }
    err = T.gradient_check(loss, params)
    assert err < GRAD_TOL, f"{variant}: {err:.2e}"


# -- bad shapes -----------------------------------------------------------------------


@pytest.mark.parametrize("chosen,rejected,refs", [
    ((3,), (3,), (1,)),  # one reference for three pairs
    ((2,), (2, 1), (2,)),  # a column against a row: 4 "pairs"
    ((2, 1), (2, 1), (2, 1)),
])
def test_preference_batch_rejects_shapes_that_would_broadcast(chosen, rejected, refs):
    with pytest.raises(ValueError, match=r"\(B,\) log-prob arrays.*" + re.escape(str(rejected))):
        PreferenceBatch(policy_chosen=Tensor(np.full(chosen, -1.0)), policy_rejected=Tensor(np.full(rejected, -2.0)),
                        ref_chosen=np.full(refs, -1.5), ref_rejected=np.full(refs, -2.5))


def test_preference_batch_rejects_mixed_dtypes():
    with pytest.raises(ValueError, match="float64 and float32"):
        PreferenceBatch(policy_chosen=Tensor(np.zeros(2)), policy_rejected=Tensor(np.zeros(2, dtype=np.float32)),
                        ref_chosen=np.zeros(2), ref_rejected=np.zeros(2))


@pytest.mark.parametrize("policy,old", [((3, 1), (3, 1)), ((3, 1), (3,)), ((3,), (3, 1))])
def test_grpo_group_rejects_per_token_arrays_that_are_not_flat(policy, old):
    with pytest.raises(ValueError, match=r"response 0: .*" + re.escape(str(policy))):
        GrpoGroup(logp_policy=[Tensor(np.zeros(policy)), Tensor(np.zeros(2))],
                  logp_old=[np.zeros(old), np.zeros(2)], logp_ref=[np.zeros(old), np.zeros(2)],
                  rewards=np.array([1.0, 0.0]))


def test_preference_batch_rejects_no_pairs():
    # an empty batch would average over nothing and return NaN
    with pytest.raises(ValueError, match=r"B >= 1.*\(0,\)"):
        PreferenceBatch(policy_chosen=Tensor(np.zeros(0)), policy_rejected=Tensor(np.zeros(0)),
                        ref_chosen=np.zeros(0), ref_rejected=np.zeros(0))


def test_grpo_group_rejects_an_empty_response():
    # a response without tokens would take the mean of an empty slice: NaN
    with pytest.raises(ValueError, match=r"response 1: .*are 0"):
        GrpoGroup(logp_policy=[Tensor(np.zeros(2)), Tensor(np.zeros(0))],
                  logp_old=[np.zeros(2), np.zeros(0)], logp_ref=[np.zeros(2), np.zeros(0)],
                  rewards=np.array([1.0, 0.0]))


def test_grpo_group_rejects_mixed_dtypes():
    with pytest.raises(ValueError, match="float32, float64"):
        GrpoGroup(logp_policy=[Tensor(np.zeros(2)), Tensor(np.zeros(2, dtype=np.float32))],
                  logp_old=[np.zeros(2)] * 2, logp_ref=[np.zeros(2)] * 2, rewards=np.array([1.0, 0.0]))


# -- single-node loss heads against their composites ---------------------------------

DTYPES = st.sampled_from([np.float32, np.float64])
# few distinct values, so that rows tie at their maximum and log-ratios repeat
VALUES = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.5]) | st.floats(-4, 4, width=32)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes()  # the bytes also see the sign of a zero


def taped(fn, inputs, weight):
    """fn's value and the gradient of sum(fn * weight) for each input, in order."""
    with Graph() as g:
        y = fn()
        loss = (y * weight).sum()
    g.backward(loss)
    return [y.data] + [g.grad(x) for x in inputs]


@settings(max_examples=150, deadline=None)
@given(dtype=DTYPES, rows=st.integers(1, 5), vocab=st.integers(1, 6), data=st.data())
def test_target_logprobs_node_matches_composite(dtype, rows, vocab, data):
    logits = data.draw(arrays(dtype, (rows, vocab), elements=VALUES))
    if data.draw(st.booleans()):
        logits[:, -1] = logits.max(axis=-1)  # every row's maximum tied
    targets = data.draw(arrays(np.int64, rows, elements=st.integers(0, vocab - 1)))
    mask = data.draw(st.none() | arrays(bool, rows))
    weight = data.draw(arrays(dtype, (rows, vocab), elements=st.floats(-2, 2, width=32)))
    x = Tensor(logits, requires_grad=True)
    got = taped(lambda: T.target_logprobs(x, targets, mask), [x], weight)
    assert_same_bits(got, taped(lambda: reference.target_logprobs(x, targets, mask), [x], weight))


@settings(max_examples=150, deadline=None)
@given(dtype=DTYPES, pairs=st.integers(1, 4), data=st.data())
def test_preference_node_matches_composite(dtype, pairs, data):
    def log_probs():
        return data.draw(arrays(dtype, pairs, elements=VALUES)) - dtype(3)

    ref_c, ref_r = log_probs(), log_probs()
    # chosen log-probs below, at and above the reference: the DPOP hinge active and inactive
    chosen = Tensor(ref_c + data.draw(arrays(dtype, pairs, elements=st.sampled_from([-0.5, 0.0, 0.5]) | VALUES)),
                    requires_grad=True)
    rejected = chosen if data.draw(st.booleans()) else Tensor(log_probs(), requires_grad=True)
    beta = data.draw(st.sampled_from([0.1, 0.3, 2.0]))
    lam = data.draw(st.sampled_from([0.0, 0.5, 5.0]))
    weight = dtype(data.draw(st.sampled_from([1.0, -0.75, 3.0])))
    batch = PreferenceBatch(policy_chosen=chosen, policy_rejected=rejected, ref_chosen=ref_c, ref_rejected=ref_r,
                            beta=beta, lam_dpop=lam)
    for fn, want_lam in ((dpo_loss, 0.0), (dpop_loss, lam)):
        got = taped(lambda: fn(batch), [chosen, rejected], weight)
        assert_same_bits(got, taped(lambda: reference.preference_loss(batch, want_lam), [chosen, rejected], weight))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dpop_with_a_constant_rejected_score_keeps_the_chosen_gradient(dtype):
    """The rejected log-probs need no gradient: they get none, and the chosen
    ones, which take the hinge's part and the margin's, keep the bytes of the
    run in which both need one."""
    ref_c, ref_r = np.array([-3.0, -2.5, -4.0], dtype=dtype), np.array([-3.5, -2.0, -1.5], dtype=dtype)
    policy_c, policy_r = ref_c + np.array([-0.5, 0.25, -0.125], dtype=dtype), ref_r - dtype(0.75)

    def run(rejected_grad):
        chosen, rejected = Tensor(policy_c, requires_grad=True), Tensor(policy_r, requires_grad=rejected_grad)
        batch = PreferenceBatch(policy_chosen=chosen, policy_rejected=rejected, ref_chosen=ref_c,
                                ref_rejected=ref_r, beta=0.3, lam_dpop=5.0)
        return taped(lambda: dpop_loss(batch), [chosen, rejected], dtype(-0.75))

    got, want = run(False), run(True)
    assert got[2] is None and want[2] is not None
    assert_same_bits(got[:2], want[:2])


@settings(max_examples=150, deadline=None)
@given(dtype=DTYPES, lengths=st.lists(st.integers(1, 4), min_size=2, max_size=4), data=st.data())
def test_grpo_node_matches_composite(dtype, lengths, data):
    alias = data.draw(st.booleans())  # the same tensor for the first two responses
    if alias:
        lengths[1] = lengths[0]
    policy = [data.draw(arrays(dtype, n, elements=VALUES)) - dtype(2) for n in lengths]
    # log-ratios that put rho below, inside and above the clip band 1 +- 0.2
    ratio = st.sampled_from([-0.5, -0.125, 0.0, 0.125, 0.5]) | st.floats(-0.625, 0.625, width=32)
    old = [p - data.draw(arrays(dtype, len(p), elements=ratio)) for p in policy]
    ref = [p + data.draw(arrays(dtype, len(p), elements=ratio)) for p in policy]
    lp = [Tensor(p, requires_grad=data.draw(st.booleans()) or i == 0) for i, p in enumerate(policy)]
    if alias:
        lp[1], old[1] = lp[0], old[0]
    rewards = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(lp), max_size=len(lp))))
    weight = dtype(data.draw(st.sampled_from([1.0, -0.75, 3.0])))
    for variant in ("grpo", "dr_grpo"):
        group = GrpoGroup(logp_policy=lp, logp_old=old, logp_ref=ref, rewards=rewards, clip_eps=0.2,
                          kl_coef=data.draw(st.sampled_from([0.0, 0.001, 0.5])), variant=variant, max_tokens=8)
        got = taped(lambda: grpo_objective(group), lp, weight)
        assert_same_bits(got, taped(lambda: reference.grpo_objective(group), lp, weight))
