"""Training objectives: masked cross-entropy, preference losses, and
group-relative policy optimization with a low-variance KL penalty.

Losses take log-probabilities or logits as tape tensors so every objective
is differentiable end to end through the model; reference/behavior-policy
quantities enter as plain arrays (constants under the tape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..tensor import Tensor


def _softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed as max(x,0) + log1p(e^-|x|) to avoid overflow."""
    zero = Tensor(np.zeros_like(x.data))
    pos = x.data > 0
    absx = T.where(pos, x, -x)
    return T.where(pos, x, zero) + (1.0 + (-absx).exp()).log()


def sft_loss(logits: Tensor, targets, loss_mask) -> Tensor:
    """Mean over masked positions of -log softmax(logits)[target].

    Masked-out positions contribute nothing to the value or the gradient.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(loss_mask, dtype=bool)
    t_len, _ = logits.shape
    if len(targets) != t_len or len(mask) != t_len:
        raise ValueError(
            f"sft_loss: logits rows {t_len}, targets {len(targets)}, mask {len(mask)}"
        )
    n_active = int(mask.sum())
    if n_active == 0:
        raise ValueError("sft_loss: loss mask is all false")
    return -T.target_logprobs(logits, targets, mask).sum() / n_active


@dataclass
class PreferenceBatch:
    """Per-pair summed response log-probs under the policy and a frozen
    reference, for chosen (w) and rejected (l) responses."""

    policy_chosen: Tensor  # shape (B,)
    policy_rejected: Tensor
    ref_chosen: np.ndarray
    ref_rejected: np.ndarray
    beta: float = 0.1
    lam_dpop: float = 5.0

    def __post_init__(self):
        self.ref_chosen = np.asarray(self.ref_chosen, dtype=self.policy_chosen.data.dtype)
        self.ref_rejected = np.asarray(self.ref_rejected, dtype=self.policy_rejected.data.dtype)
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.lam_dpop < 0:
            raise ValueError(f"lam_dpop must be non-negative, got {self.lam_dpop}")
        for arr in (
            self.policy_chosen.data, self.policy_rejected.data,
            self.ref_chosen, self.ref_rejected,
        ):
            if not np.all(np.isfinite(arr)):
                raise ValueError("preference batch contains non-finite log-probs")


def _preference_loss(batch: PreferenceBatch, lam: float) -> Tensor:
    margin = (batch.policy_chosen - batch.ref_chosen) - (
        batch.policy_rejected - batch.ref_rejected
    )
    if lam != 0.0:
        short = batch.ref_chosen - batch.policy_chosen  # >0 when policy lost mass
        zero = Tensor(np.zeros_like(short.data))
        margin = margin - lam * T.where(short.data > 0, short, zero)
    # -log sigmoid(beta * margin) = softplus(-beta * margin)
    return _softplus(margin * (-batch.beta)).mean()


def dpo_loss(batch: PreferenceBatch) -> Tensor:
    """Mean over pairs of -log sigmoid(beta * (chosen margin - rejected margin))."""
    return _preference_loss(batch, lam=0.0)


def dpop_loss(batch: PreferenceBatch) -> Tensor:
    """DPO plus a hinge penalty when the policy loses mass on the chosen
    response: margin term gains -lam * max(0, ref_w - policy_w)."""
    return _preference_loss(batch, lam=batch.lam_dpop)


def grpo_advantages(rewards, variant: str = "grpo") -> np.ndarray:
    """Group-relative advantages.

    grpo: (r - mean) / population std, all zeros when std < 1e-8.
    dr_grpo: r - mean (no std normalization).
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError(f"need a flat group of >= 2 rewards, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("rewards must be finite")
    centered = r - r.mean()
    if variant == "dr_grpo":
        return centered
    if variant != "grpo":
        raise ValueError(f"unknown variant {variant!r}")
    std = r.std()  # population std
    if std < 1e-8:
        return np.zeros_like(r)
    return centered / std


def kl_k3(logp_policy: Tensor, logp_ref) -> Tensor:
    """Low-variance per-token KL estimate: rho - log(rho) - 1, rho = p_ref/p_policy.

    Non-negative, zero iff the log-probs agree; log(rho) is formed directly
    from the log-prob difference for stability.
    """
    ref = np.asarray(logp_ref if not isinstance(logp_ref, Tensor) else logp_ref.data)
    log_rho = -logp_policy + ref
    return log_rho.exp() - log_rho - 1.0


@dataclass
class GrpoGroup:
    """G rollouts for one prompt.

    Per response: per-token log-probs under the updating policy (tape
    tensors), the behavior policy that sampled them, and the frozen
    reference. Rewards are scalars from a verifier.
    """

    logp_policy: list[Tensor]
    logp_old: list[np.ndarray]
    logp_ref: list[np.ndarray]
    rewards: np.ndarray
    clip_eps: float = 0.2
    kl_coef: float = 0.001
    variant: str = "grpo"
    max_tokens: int = 64  # fixed dr_grpo divisor (configured generation budget)

    def __post_init__(self):
        g = len(self.logp_policy)
        if g < 2:
            raise ValueError(f"group size must be >= 2, got {g}")
        if not (len(self.logp_old) == len(self.logp_ref) == g == len(self.rewards)):
            raise ValueError("group fields disagree on G")
        for i in range(g):
            n = self.logp_policy[i].shape[0]
            if len(self.logp_old[i]) != n or len(self.logp_ref[i]) != n:
                raise ValueError(f"response {i}: per-token log-prob lengths differ")


def grpo_objective(group: GrpoGroup) -> Tensor:
    """Clipped-surrogate policy loss plus KL penalty.

    Per token: rho = exp(logp_policy - logp_old), surrogate =
    min(rho * a, clip(rho, 1-eps, 1+eps) * a). The grpo variant averages
    tokens within each response then across the group; dr_grpo sums all
    tokens and divides by G * max_tokens, dropping per-length normalization.
    """
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
