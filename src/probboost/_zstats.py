"""W statistics, optimal alphas, and Z normalizers shared by all learners."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

ALPHA_SMOOTHING = 1e-8


class WStats(NamedTuple):
    """W^{ab}: weight mass with classifier output a on examples of label b
    (for a block of sampling rounds, a list with one value per round)."""

    pp: float
    pm: float
    mp: float
    mm: float


def w_statistics(weights: np.ndarray, q_plus: np.ndarray, labels: np.ndarray) -> WStats:
    """W from per-example q(+) estimates.  ``q_plus`` may also hold one row
    per sampling round, shape (R, N): each field is then a list of R floats,
    each bit for bit the W of that row alone."""
    weights = np.asarray(weights, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    if (q_plus < 0.0).any() or (q_plus > 1.0).any():
        raise ValueError("q estimates must lie in [0, 1]")
    pos = labels == 1
    neg = ~pos
    w_pos, w_neg = weights[pos], weights[neg]
    # compress keeps rows C-ordered, so each row is summed pairwise as a
    # 1-D array is; q_plus[..., pos] comes out F-ordered and sums sequentially
    q_pos, q_neg = q_plus.compress(pos, axis=-1), q_plus.compress(neg, axis=-1)
    return WStats(
        pp=(w_pos * q_pos).sum(axis=-1).tolist(),
        pm=(w_neg * q_neg).sum(axis=-1).tolist(),
        mp=(w_pos * (1.0 - q_pos)).sum(axis=-1).tolist(),
        mm=(w_neg * (1.0 - q_neg)).sum(axis=-1).tolist(),
    )


def optimal_alphas(w: WStats) -> tuple[float, float]:
    """Z-minimizing domain-partitioned weights, smoothed against empty cells."""
    alpha_plus = 0.5 * math.log((w.pp + ALPHA_SMOOTHING) / (w.pm + ALPHA_SMOOTHING))
    alpha_minus = 0.5 * math.log((w.mm + ALPHA_SMOOTHING) / (w.mp + ALPHA_SMOOTHING))
    return alpha_plus, alpha_minus


def z_value(w: WStats, alpha_plus: float, alpha_minus: float) -> float:
    """Weight-update normalizer at arbitrary alphas.

    At the exact optimal alphas this reduces to
    2 sqrt(W++ W+-) + 2 sqrt(W-+ W--).
    """
    return (
        w.pp * math.exp(-alpha_plus)
        + w.pm * math.exp(alpha_plus)
        + w.mp * math.exp(alpha_minus)
        + w.mm * math.exp(-alpha_minus)
    )


def z_min(w: WStats) -> float:
    """Minimized normalizer 2 sqrt(W++ W+-) + 2 sqrt(W-+ W--)."""
    return 2.0 * math.sqrt(w.pp * w.pm) + 2.0 * math.sqrt(w.mp * w.mm)
