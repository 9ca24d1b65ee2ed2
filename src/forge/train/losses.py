"""Training objectives: masked cross-entropy, preference losses, and
group-relative policy optimization with a low-variance KL penalty.

Losses take log-probabilities or logits as tape tensors so every objective
is differentiable end to end through the model; reference/behavior-policy
quantities enter as plain arrays (constants under the tape).

Each loss head is one tape node: ``tensor.target_logprobs`` under ``sft_loss``,
the DPO/DPOP loss and ``grpo_objective``. Their VJPs replay the composites they
replaced, which ``tests/reference.py`` keeps, so gradients keep their bits.
``kl_k3`` stays a composite; ``grpo_objective`` computes the same estimate inline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..tensor import Tensor


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
        pc, pr = self.policy_chosen, self.policy_rejected
        self.ref_chosen = np.asarray(self.ref_chosen, dtype=pc.data.dtype)
        self.ref_rejected = np.asarray(self.ref_rejected, dtype=pr.data.dtype)
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.lam_dpop < 0:
            raise ValueError(f"lam_dpop must be non-negative, got {self.lam_dpop}")
        shapes = (pc.shape, pr.shape, self.ref_chosen.shape, self.ref_rejected.shape)
        if len(pc.shape) != 1 or len(set(shapes)) != 1 or not pc.shape[0]:
            raise ValueError("preference batch needs four (B,) log-prob arrays, B >= 1, got policy_chosen {}, "
                             "policy_rejected {}, ref_chosen {}, ref_rejected {}".format(*shapes))
        if pc.dtype != pr.dtype:
            raise ValueError(f"preference batch mixes dtypes {pc.dtype.name} and {pr.dtype.name}")
        for arr in (pc.data, pr.data, self.ref_chosen, self.ref_rejected):
            if not np.all(np.isfinite(arr)):
                raise ValueError("preference batch contains non-finite log-probs")


def _preference_loss(batch: PreferenceBatch, lam: float) -> Tensor:
    """Mean over pairs of softplus(-beta * margin) = -log sigmoid(beta * margin), as one node. The
    margin is (pc - rc) - (pr - rr), less lam * max(0, rc - pc) unless lam is 0; softplus(x) is
    max(x, 0) + log(1 + e^-|x|), which never raises e to a positive power. The VJP replays the
    composite's (``where``, ``neg``, ``exp``, ``log``, ``mean`` and the margin's subs): x takes
    its parts from max(x, 0), |x| and -x in that order, and the chosen log-probs take the
    hinge's part before the margin's."""
    pc, pr, rc, rr = batch.policy_chosen, batch.policy_rejected, batch.ref_chosen, batch.ref_rejected
    dtype = pc.dtype
    zero, neg_beta, lam_d = dtype.type(0), np.asarray(-batch.beta, dtype=dtype), np.asarray(lam, dtype=dtype)
    margin = (pc.data - rc) - (pr.data - rr)
    if lam != 0.0:
        short = rc - pc.data
        hinge = short > 0  # the policy lost mass on the chosen response
        margin = margin - np.where(hinge, short, zero) * lam_d
    x = margin * neg_beta
    pos = x > 0
    e = np.exp(-np.where(pos, x, -x))
    one_e = e + dtype.type(1.0)
    soft = np.where(pos, x, zero) + np.log(one_e)
    parts: dict = {}

    def vjp(key, g):
        if not parts:  # the first call computes every part
            g_soft = np.broadcast_to(g, soft.shape) / soft.size
            g_abs = -(g_soft / one_e * e)
            g_x = np.where(pos, g_soft, zero) + np.where(pos, g_abs, zero) + -np.where(pos, zero, g_abs)
            g_margin = g_x * neg_beta
            if lam != 0.0:
                parts["hinge"] = -np.where(hinge, -g_margin * lam_d, zero)
            parts["rejected"], parts["chosen"] = -g_margin, g_margin
        return parts.pop(key)

    entries = [(pc, "hinge")] if lam != 0.0 else []
    entries += [(pr, "rejected"), (pc, "chosen")]
    return T._make("preference_loss", soft.mean(), [(t, lambda g, key=key: vjp(key, g)) for t, key in entries])


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
        for i, lp in enumerate(self.logp_policy):
            old, ref = np.shape(self.logp_old[i]), np.shape(self.logp_ref[i])
            if lp.ndim != 1 or old != lp.shape or ref != lp.shape or not lp.size:
                raise ValueError(f"response {i}: per-token log-prob lengths differ, are 0 or are not 1-D: "
                                 f"policy {lp.shape}, old {old}, ref {ref}")
        dtypes = sorted({lp.dtype.name for lp in self.logp_policy})
        if len(dtypes) > 1:
            raise ValueError(f"policy log-probs mix dtypes {', '.join(dtypes)}")


def grpo_objective(group: GrpoGroup) -> Tensor:
    """Clipped-surrogate policy loss plus KL penalty, as one node over the group's ``logp_policy``.

    Per token: rho = exp(logp_policy - logp_old), surrogate =
    min(rho * a, clip(rho, 1-eps, 1+eps) * a), and ``kl_k3`` against the
    reference. The grpo variant averages tokens within each response then
    across the group; dr_grpo sums all tokens and divides by G * max_tokens,
    dropping per-length normalization. The loss is -surrogate + kl_coef * KL.

    Each response keeps its own arrays, as the composite of ``where``, ``exp``,
    ``kl_k3``, ``concat`` and ``mean`` it replaces computed them, and the VJP
    replays that composite's: each log-prob tensor, last response first, takes
    the KL chain's part, then the surrogate's, where rho takes the unclipped
    product's part before the clip's.
    """
    adv = grpo_advantages(group.rewards, group.variant)
    g = len(group.logp_policy)
    lo, hi = 1.0 - group.clip_eps, 1.0 + group.clip_eps
    dtype, per_response = group.logp_policy[0].dtype, group.variant == "grpo"
    zero, kl_coef = dtype.type(0), np.asarray(group.kl_coef, dtype=dtype)
    saved, surr_terms, kl_terms = [], [], []
    for i, lp in enumerate(group.logp_policy):
        rho = np.exp(lp.data - np.asarray(group.logp_old[i], dtype=dtype))
        below, above = rho < lo, rho > hi
        a = np.asarray(float(adv[i]), dtype=dtype)
        s_un = rho * a
        s_cl = np.where(below, dtype.type(lo), np.where(above, dtype.type(hi), rho)) * a
        unclipped = s_un < s_cl
        surr = np.where(unclipped, s_un, s_cl)
        log_rho = -lp.data + np.asarray(group.logp_ref[i], dtype=dtype)
        e = np.exp(log_rho)
        kl = e - log_rho - dtype.type(1.0)
        surr_terms.append(surr.mean() if per_response else surr.sum())
        kl_terms.append(kl.mean() if per_response else kl.sum())
        saved.append((rho, e, a, below, above, unclipped))
    stacked_s, stacked_k = np.array(surr_terms), np.array(kl_terms)
    if per_response:
        agg_s, agg_k = stacked_s.mean(), stacked_k.mean()
    else:
        budget = np.asarray(float(g * group.max_tokens), dtype=dtype)
        agg_s, agg_k = stacked_s.sum() / budget, stacked_k.sum() / budget
    parts: dict = {}

    def spread(total, n):  # mean's or sum's VJP
        return np.broadcast_to(total, (n,)) / n if per_response else np.broadcast_to(total, (n,)).copy()

    def vjp(key, g_loss):
        if not parts:  # the first call computes every part
            g_s, g_k = -g_loss, g_loss * kl_coef
            if not per_response:
                g_s, g_k = g_s / budget, g_k / budget
            g_s, g_k = spread(g_s, g), spread(g_k, g)
            for i, (rho, e, a, below, above, unclipped) in enumerate(saved):
                n = len(rho)
                g_kl, g_surr = spread(g_k[i], n), spread(g_s[i], n)
                parts["kl", i] = -(-g_kl + g_kl * e)
                g_clipped = np.where(unclipped, zero, g_surr) * a
                g_rho = np.where(unclipped, g_surr, zero) * a + np.where(above, zero, np.where(below, zero, g_clipped))
                parts["surr", i] = g_rho * rho
            saved.clear()
        return parts.pop(key)

    entries = [(lp, (part, i)) for i, lp in reversed(list(enumerate(group.logp_policy))) for part in ("kl", "surr")]
    return T._make("grpo_objective", -agg_s + agg_k * kl_coef, [(t, lambda g, key=key: vjp(key, g)) for t, key in entries])
