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
        g_sq = float(np.square(g, dtype=np.float64).sum())
        if not np.isfinite(g_sq) and not np.all(np.isfinite(g)):  # a float64 square can overflow
            raise ValueError(f"non-finite gradient in parameter {name!r}")
        sq += g_sq
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
    Each parameter takes three temporaries, written by in-place ufuncs in the
    expressions' order and dtypes: g's terms in g's dtype, the update in m's.
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
        g_term = np.multiply(1.0 - beta1, g)
        m *= beta1
        m += g_term
        np.multiply(1.0 - beta2, g, out=g_term)
        g_term *= g
        v *= beta2
        v += g_term
        update = np.divide(m, bc1)
        np.multiply(lr, update, out=update)
        den = np.divide(v, bc2, out=g_term if g_term.dtype == v.dtype else None)
        update /= np.add(np.sqrt(den, out=den), eps, out=den)
        if weight_decay:
            update += np.multiply(lr * weight_decay, p.data, out=den)
        p.data -= update.astype(p.data.dtype, copy=False)
