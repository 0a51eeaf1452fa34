"""W statistics, optimal alphas, Z normalizers, edge kernels and the tie rule of all learners."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ALPHA_SMOOTHING = 1e-8


@dataclass(frozen=True)
class LabelSplit:
    """Labels (+1 / -1) prepared once per dataset for the W sums and edge
    scales of plain nodes: the positive-first permutation of the examples,
    its count of positives, and the labels as floats."""

    order: np.ndarray
    n_pos: int
    y: np.ndarray

    @classmethod
    def of(cls, labels) -> "LabelSplit":
        """``labels`` prepared; a ``LabelSplit`` is returned as it is."""
        if isinstance(labels, cls):
            return labels
        labels = np.asarray(labels)
        positive = labels == 1
        first = np.flatnonzero(positive)
        return cls(np.concatenate((first, np.flatnonzero(~positive))), len(first), labels.astype(float))


class WStats(NamedTuple):
    """W^{ab}: weight mass with classifier output a on examples of label b
    (for a block of sampling rounds, a list with one value per round)."""

    pp: float
    pm: float
    mp: float
    mm: float


def w_statistics(weights: np.ndarray, q_plus: np.ndarray, labels) -> WStats:
    """W from per-example q(+) estimates; ``labels`` may be a ``LabelSplit``.
    ``q_plus`` may also hold one row per sampling round, shape (R, N): each
    field is then a list of R floats, each bit for bit the W of that row alone."""
    return _w_of_mass(_weighted_mass(weights, q_plus), LabelSplit.of(labels))


def _weighted_mass(weights: np.ndarray, q_plus: np.ndarray) -> np.ndarray:
    """The mass on the + and the - edge, [w q, w (1 - q)]: (2, N), or (2, R, N) for rows of q."""
    q_plus = np.asarray(q_plus, dtype=float)
    mass = np.array((q_plus, 1.0 - q_plus))
    if np.minimum.reduce(mass, axis=None, initial=0.0) < 0.0:  # 1 - q < 0 exactly where q > 1
        raise ValueError("q estimates must lie in [0, 1]")
    mass *= weights
    return mass


def _scale_edges(mass: np.ndarray, y: np.ndarray, alpha_plus: float, alpha_minus: float) -> np.ndarray:
    """A plain node's or stage's (2, N) + and - edge rows, scaled in place by
    exp(-alpha_s s y), where ``y`` is the labels as floats: from
    ``_weighted_mass`` the children's unnormalized weights, from [q, 1 - q]
    the edge factors q e^{-alpha+ y} and (1 - q) e^{alpha- y}."""
    mass *= np.exp(np.multiply.outer((-alpha_plus, alpha_minus), y))
    return mass


def _stage_factor(q: np.ndarray, y: np.ndarray, alpha_plus: float, alpha_minus: float) -> np.ndarray:
    """A plain stage's expected edge factor on each example, the sum of
    ``_scale_edges``' rows from [q, 1 - q]: q e^{-alpha+ y} + (1 - q) e^{alpha- y}."""
    return np.add(*_scale_edges(np.array((q, 1.0 - q)), y, alpha_plus, alpha_minus))


def _side(scores: np.ndarray, sign: int) -> np.ndarray:
    """The drawn or walk scores that take the edge ``sign``: sign(h), ties to +,
    a NaN score to -.  Every branch on a score reads this rule."""
    return scores >= 0.0 if sign == 1 else ~(scores >= 0.0)


def _exp_table(alpha: float, h: np.ndarray) -> np.ndarray:
    """exp(-alpha * y * h_k) for y = +1, then for y = -1.  Labels are +/-1,
    so these 2K values are every exp(-alpha * y_n * h_k), bit for bit."""
    return np.exp(np.concatenate((-alpha * h, alpha * h)))


def _check_size(stored: np.ndarray, y: np.ndarray) -> None:
    """Refuse labels ``y`` unless as many as ``stored``, a model's values per training example."""
    if len(stored) != len(y):
        raise ValueError("dataset size does not match the stored model")


class ClassTable(NamedTuple):
    """A composite's outcomes on the training examples, by class of examples:
    ``reach`` (C, K) of its K walks on each class, their ``scores`` (K,), and
    each example's class (N,), numbered in order of first example."""

    reach: np.ndarray
    scores: np.ndarray
    classes: np.ndarray

    def rows(self, index: np.ndarray | None = None) -> np.ndarray:
        """The reach of every training example, or of those ``index`` picks: the
        table as it is where the classes read are 0..C-1 in order, as all N are when C = N."""
        classes = self.classes if index is None else self.classes[index]
        in_order = len(classes) == len(self.reach) and (index is None or (classes == np.arange(len(classes))).all())
        return self.reach if in_order else self.reach[classes]

    def label_sums(self, weights: np.ndarray, positive: np.ndarray) -> np.ndarray:
        """(2, K): weight * reach summed over the examples where ``positive``, then
        the others.  einsum without ``optimize`` adds the rows in order, given two
        or more columns (a lone column it adds in blocks, so it gets a zero column
        beside it), and calls no BLAS, whose sum order varies with the thread
        count.  The (N, K) gather of ``rows`` is freed on return."""
        rows, width = self.rows(), self.reach.shape[1]
        rows = rows if width > 1 else np.pad(rows, ((0, 0), (0, 1)))
        sums = np.empty((2, rows.shape[1]))
        np.einsum("n,nk->k", np.where(positive, weights, 0.0), rows, out=sums[0])
        np.einsum("n,nk->k", np.where(positive, 0.0, weights), rows, out=sums[1])
        return sums[:, :width]

    def factor(self, side: np.ndarray, exps: np.ndarray, negative: np.ndarray) -> np.ndarray:
        """Per-example sum of p(outcome) * exp(-alpha * h * y) over an edge's
        outcomes ``side``, from ``exps``, their ``_exp_table`` at its alpha, and
        ``negative`` (labels < 0).  Each class is summed once per label, as a
        C-ordered row (``compress``) of products, so each example gets the bits of
        the pairwise sum over its own row of the (N, K) table.  The -1 label
        scales the columns in place."""
        columns = self.reach.compress(side, axis=1)
        k, sums = columns.shape[1], np.empty((len(columns), 2))  # y = +1, then y = -1
        np.sum(columns * exps[:k], axis=1, out=sums[:, 0])
        np.sum(np.multiply(columns, exps[k:], out=columns), axis=1, out=sums[:, 1])
        return sums.ravel()[2 * self.classes + negative]

    def edge_factors(self, y: np.ndarray, alpha_plus: float, alpha_minus: float) -> list[np.ndarray]:
        """The + and - ``factor`` at their alphas, ``y`` the training labels as floats."""
        _check_size(self.classes, y)
        scores, negative = self.scores, y < 0.0
        return [self.factor(side, _exp_table(alpha, scores[side]), negative)
                for side, alpha in ((_side(scores, 1), alpha_plus), (_side(scores, -1), alpha_minus))]


def _w_of_mass(mass: np.ndarray, labels: LabelSplit) -> WStats:
    """W from ``_weighted_mass``: one take by the positive-first order, then a
    sum over each label's slice.  take keeps rows C-ordered, so each slice row
    sums pairwise as a 1-D array does; a boolean index comes out F-ordered and
    sums sequentially."""
    sides = mass.take(labels.order, axis=-1)
    pp, mp = np.add.reduce(sides[..., : labels.n_pos], axis=-1).tolist()
    pm, mm = np.add.reduce(sides[..., labels.n_pos :], axis=-1).tolist()
    return WStats(pp, pm, mp, mm)


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
