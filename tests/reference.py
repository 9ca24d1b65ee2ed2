"""Composite loss heads and the composite FFN that single-node ops in
``forge`` replace, kept as test references. Each body is the composite as it
was written before it became one tape node, over the primitives it recorded
(``log_softmax``, ``where``, ``concat``, ``exp``, ``mean``, ``block_matmul``,
``silu``, ...), so a property can require the node to give the same value and
gradients bit for bit.
"""

from __future__ import annotations

import numpy as np

from forge import tensor as T
from forge.tensor import Tensor
from forge.train.losses import GrpoGroup, PreferenceBatch, grpo_advantages, kl_k3


def target_logprobs(logits: Tensor, targets, mask=None) -> Tensor:
    """Dense masked product ``log_softmax(logits) * onehot(targets)``."""
    logits = T._as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(len(targets)) if mask is None else np.flatnonzero(mask)
    onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
    onehot[rows, targets[rows]] = 1.0
    return T.log_softmax(logits, axis=-1) * onehot


def swiglu_ffn(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor, block: T.RowBlock | None = None) -> Tensor:
    """``model.swiglu_ffn`` as five nodes: the gate and up ``block_matmul``, ``silu(a) * b``, the down
    ``block_matmul``."""
    a = T.block_matmul(x, w_gate, block)
    return T.block_matmul(a.silu() * T.block_matmul(x, w_up, block), w_down, block)


def _softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed as max(x,0) + log1p(e^-|x|) to avoid overflow."""
    zero = Tensor(np.zeros_like(x.data))
    pos = x.data > 0
    absx = T.where(pos, x, -x)
    return T.where(pos, x, zero) + (1.0 + (-absx).exp()).log()


def preference_loss(batch: PreferenceBatch, lam: float) -> Tensor:
    margin = (batch.policy_chosen - batch.ref_chosen) - (
        batch.policy_rejected - batch.ref_rejected
    )
    if lam != 0.0:
        short = batch.ref_chosen - batch.policy_chosen  # >0 when policy lost mass
        zero = Tensor(np.zeros_like(short.data))
        margin = margin - lam * T.where(short.data > 0, short, zero)
    # -log sigmoid(beta * margin) = softplus(-beta * margin)
    return _softplus(margin * (-batch.beta)).mean()


def grpo_objective(group: GrpoGroup) -> Tensor:
    """Clipped-surrogate policy loss plus KL penalty, one node per primitive."""
    adv = grpo_advantages(group.rewards, group.variant)
    g = len(group.logp_policy)
    lo, hi = 1.0 - group.clip_eps, 1.0 + group.clip_eps

    surrogate_terms: list[Tensor] = []
    kl_terms: list[Tensor] = []
    for i in range(g):
        lp = group.logp_policy[i]
        old = np.asarray(group.logp_old[i], dtype=lp.data.dtype)
        rho = (lp - old).exp()
        clipped = T.where(
            rho.data < lo,
            Tensor(np.full_like(rho.data, lo)),
            T.where(rho.data > hi, Tensor(np.full_like(rho.data, hi)), rho),
        )
        a = float(adv[i])
        s_un = rho * a
        s_cl = clipped * a
        surr = T.where(s_un.data < s_cl.data, s_un, s_cl)
        kl = kl_k3(lp, group.logp_ref[i])
        if group.variant == "grpo":
            surrogate_terms.append(surr.mean())
            kl_terms.append(kl.mean())
        else:
            surrogate_terms.append(surr.sum())
            kl_terms.append(kl.sum())

    stacked_s = T.concat([t.reshape(1) for t in surrogate_terms], axis=0)
    stacked_k = T.concat([t.reshape(1) for t in kl_terms], axis=0)
    if group.variant == "grpo":
        agg_s = stacked_s.mean()
        agg_k = stacked_k.mean()
    else:
        budget = float(g * group.max_tokens)
        agg_s = stacked_s.sum() / budget
        agg_k = stacked_k.sum() / budget
    return -agg_s + group.kl_coef * agg_k
