"""AdamW with decoupled weight decay, and global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tensor import Tensor


@dataclass
class OptimizerState:
    """First/second moment estimates per parameter plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_state(params: dict[str, Tensor]) -> OptimizerState:
    state = OptimizerState()
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def clip_grad_norm(
    grads: dict[str, np.ndarray], max_norm: float = 1.0
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it.
    The arrays are scaled in place (``g *= scale``, the same multiply as
    ``g * scale``), so clipping allocates no second set of gradients.

    Returns (grads, pre-clip global norm). Non-finite gradients are an error
    naming the offending parameter.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    sq = 0.0
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in parameter {name!r}")
        sq += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(sq))
    if norm <= max_norm:
        return grads, norm
    scale = max_norm / norm
    for g in grads.values():
        g *= scale
    return grads, norm


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.95,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One update, in place: bias-corrected Adam plus decoupled decay.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta
    """
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name} shape {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay:
            update = update + lr * weight_decay * p.data
        p.data -= update.astype(p.data.dtype, copy=False)
