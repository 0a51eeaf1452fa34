"""Datasets, path indices and deterministic randomness."""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._zstats import LabelSplit

__all__ = [
    "Dataset",
    "normalize_weights",
    "load_csv",
    "validate_path",
    "RandomStream",
    "make_synthetic_dataset",
]

_SIGNS = ("+", "-")


def normalize_weights(raw: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to sum 1, surviving extreme magnitudes."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(raw)):
        raise ValueError("weights must be finite")
    if np.any(raw < 0.0):
        raise ValueError("weights must be nonnegative")
    top = raw.max()
    if top == 0.0:
        raise ValueError("all weights are zero")
    if top < 1e-100 or top > 1e100:
        out = raw / top  # rescale before summing so tiny weights survive
    else:
        out = raw.astype(float, copy=True)
    # Bitwise idempotence: inputs whose sum already sits within floating
    # point noise of 1 are returned unchanged.  One division leaves the sum
    # within (1 + log2 n) ulps of 1 — far inside the window — so a second
    # call always takes the early exit and reproduces the same bits.
    total = out.sum()
    if abs(total - 1.0) <= 1e-13:
        return out
    return out / total


def _checked_weights(weights, n: int) -> np.ndarray:
    """A dataset's weights as floats: n of them, nonnegative and summing to 1."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("labels/weights must match the number of examples")
    if not weights.min() >= 0.0 or abs(weights.sum() - 1.0) > 1e-12:  # a nan minimum fails >= 0, inf the sum
        raise ValueError("weights must be finite, nonnegative and sum to 1")
    return weights


@dataclass(frozen=True)
class Dataset:
    """Weighted binary-labeled examples (X_n, y_n, D(n)), weights summing to 1."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) values in {-1, +1}
    weights: np.ndarray  # (N,) nonnegative, sums to 1

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        weights = np.asarray(self.weights, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("features must be a non-empty (N, d) array")
        if features.shape[1] == 0:
            raise ValueError("features need at least one column: no learner can split examples without any")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        n = features.shape[0]
        if labels.shape != (n,) or weights.shape != (n,):
            raise ValueError("labels/weights must match the number of examples")
        if not (np.abs(labels) == 1).all():  # np.isin would sort; builders make many Datasets
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", _checked_weights(weights, n))

    @cached_property
    def label_split(self) -> LabelSplit:
        """The labels prepared for plain-node kernels, built on first read."""
        return LabelSplit.of(self.labels)

    def reweighted(self, weights) -> "Dataset":
        """These examples under other weights; they share this ``label_split``.
        Only the weights are checked: the features and labels are these."""
        dataset = object.__new__(Dataset)
        dataset.__dict__.update(self.__dict__, weights=_checked_weights(weights, self.n_examples),
                                label_split=self.label_split)
        return dataset

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_arrays(cls, features, labels, weights=None) -> "Dataset":
        if weights is None:
            weights = np.full(len(labels), 1.0 / max(len(labels), 1))
        else:
            weights = normalize_weights(weights)
        return cls(features, labels, weights)


def _check_trials(trials: int) -> None:
    """Monte-Carlo trials: below 2^32, the width of a tree walk's trial key."""
    if not 1 <= trials < 2**32:
        raise ValueError(f"trials must be >= 1 and below 2^32, got {trials}")


def _mc_summary(scores: np.ndarray, dataset: Dataset) -> tuple[float, float]:
    """Monte-Carlo weighted 0/1 loss of sampled scores H, one row per trial
    and one column per example, ties H = 0 counted as errors: the mean over
    trials and its standard error (inf for one trial)."""
    per_trial = (scores * dataset.labels <= 0.0) @ dataset.weights
    trials = len(per_trial)
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return float(per_trial.mean()), se


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from a CSV with header ``f0..f{d-1},label[,weight]``;
    the header decides whether there is a weight column.  A UTF-8 byte order
    mark and blank lines are skipped; errors name the row's line."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: header must contain a 'label' column")
        has_weight = "weight" in header
        expected = [f"f{i}" for i in range(header.index("label"))] + ["label"]
        if has_weight:
            expected.append("weight")
        if header != expected:
            raise ValueError(
                f"{path}: header must be f0..f{{d-1}},label"
                f"{',weight' if has_weight else ''}, got {header}"
            )
        dim = len(expected) - (2 if has_weight else 1)
        features, labels, weights = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:  # a blank line
                continue
            if len(row) != len(expected):
                raise ValueError(f"{path}: row {row_no}: expected {len(expected)} fields")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: row {row_no}: non-numeric value") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {row_no}: non-finite value")
            label = values[dim]
            if label not in (-1.0, 1.0):
                raise ValueError(f"{path}: row {row_no}: label must be -1 or +1, got {label}")
            features.append(values[:dim])
            labels.append(int(label))
            if has_weight:
                weights.append(values[dim + 1])
        if not features:
            raise ValueError(f"{path}: no data rows")
    return Dataset.from_arrays(features, labels, weights if has_weight else None)


# ---------------------------------------------------------------------------
# Path indices.  A node is addressed by a string over {'+', '-'}; the empty
# string is the root.

def validate_path(s: str) -> str:
    if any(c not in _SIGNS for c in s):
        raise ValueError(f"path index must consist of '+'/'-', got {s!r}")
    return s


_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Constants that meet a uint64 word are np.uint64: on numpy 1.x a Python-int
# operand turns a 0-d uint64 word into float64.
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10
# One Philox evaluation covers at most this many uniforms: a larger
# ``RandomStream.uniforms`` call runs in blocks of this size, whose
# temporaries stay in cache, and strategy A draws its rounds in such blocks.
MAX_BLOCK_DRAWS = 4096

_KeySchedule = tuple[tuple[np.uint64, np.uint64], ...]


def _key_schedule(key: tuple[int, int]) -> _KeySchedule:
    """The round keys of Philox4x32-10 for two 32-bit key words: one pair
    of np.uint64 words per round, bumped by the Weyl constants between
    rounds."""
    k0, k1 = key
    schedule = []
    for _ in range(_PHILOX_ROUNDS):
        schedule.append((np.uint64(k0), np.uint64(k1)))
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return tuple(schedule)


def _philox4x32(counter: tuple, key: _KeySchedule) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 (Salmon et al., SC'11): four 32-bit counter words (arrays
    that broadcast, c0 and c1 of one shape and c2 and c3 of another) and the
    ``_key_schedule`` of two 32-bit key words to four 32-bit output words
    held in uint64 arrays.

    The first round runs out of place: its words take the full broadcast
    shape and share no memory with the counter.  Each later round builds its
    words in place from its own two products."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    (k0, k1), *rounds = key
    p0 = _PHILOX_M[0] * c0
    p1 = _PHILOX_M[1] * c2
    c0, c1, c2, c3 = (p1 >> _SHIFT32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> _SHIFT32) ^ c3 ^ k1, p0 & _MASK32
    for k0, k1 in rounds:
        p0 = _PHILOX_M[0] * c0
        p1 = _PHILOX_M[1] * c2
        c0 = p1 >> _SHIFT32
        c0 ^= c1
        c0 ^= k0
        c2 = p0 >> _SHIFT32
        c2 ^= c3
        c2 ^= k1
        p1 &= _MASK32
        p0 &= _MASK32
        c1, c3 = p1, p0
    return c0, c1, c2, c3


def _uniforms(example: np.ndarray, counter: np.ndarray, key: _KeySchedule) -> np.ndarray:
    """One Philox evaluation: the uniform of each (example, counter) pair of
    the broadcast of two uint64 arrays."""
    w0, w1, _, _ = _philox4x32((example & _MASK32, example >> _SHIFT32, counter & _MASK32, counter >> _SHIFT32), key)
    w0 <<= np.uint64(21)  # the kernel's own words: 53 bits built in place
    w1 >>= np.uint64(11)
    w0 ^= w1
    u = w0.astype(float)
    u *= 2.0**-53
    return u


class RandomStream:
    """Deterministic, order-independent random draws keyed by stream id.

    A uniform is Philox4x32-10 keyed by a hash of (seed, purpose) and counted
    by (example, counter), so each draw is a pure function of where it sits
    in the stream: one call returns a whole array of draws, and concurrent
    or reordered sampling reproduces bit-exactly.  A stream builds the key
    schedule of a (seed, purpose) once and keeps it for its own lifetime.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._schedules: dict[tuple[int, str], _KeySchedule] = {}

    def _key(self, purpose: str) -> tuple[int, int]:
        digest = hashlib.blake2s(f"{self.seed}\x00{purpose}".encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")

    def _schedule(self, purpose: str) -> _KeySchedule:
        stream_id = (self.seed, purpose)  # the seed too: it is a public attribute
        schedule = self._schedules.get(stream_id)
        if schedule is None:
            schedule = self._schedules[stream_id] = _key_schedule(self._key(purpose))
        return schedule

    def uniforms(self, purpose: str, example, counter) -> np.ndarray:
        """Uniforms in [0, 1) on a 2^-53 grid, one per element of the
        broadcast of ``example`` and ``counter`` (non-negative integers
        below 2^64).  A draw depends only on its own pair, so a call of more
        than ``MAX_BLOCK_DRAWS`` draws is evaluated in blocks of that many
        with the same bits."""
        example = np.asarray(example, dtype=np.uint64)
        counter = np.asarray(counter, dtype=np.uint64)
        key = self._schedule(purpose)
        pairs = np.broadcast(example, counter)
        if pairs.size <= MAX_BLOCK_DRAWS:
            return _uniforms(example, counter, key)
        example, counter = (a.ravel() for a in np.broadcast_arrays(example, counter))
        out = np.empty(pairs.size)
        for start in range(0, pairs.size, MAX_BLOCK_DRAWS):
            block = slice(start, start + MAX_BLOCK_DRAWS)
            out[block] = _uniforms(example[block], counter[block], key)
        return out.reshape(pairs.shape)

    def generator(self, purpose: str, example: int = 0, counter: int = 0) -> np.random.Generator:
        """A numpy Generator for one (purpose, example, counter).  The library
        draws only with ``uniforms``; this stays for the benchmark's tracer."""
        tag = int.from_bytes(hashlib.blake2s(purpose.encode("utf-8"), digest_size=8).digest(), "big")
        return np.random.default_rng(np.random.SeedSequence([self.seed, tag, int(example), int(counter)]))


def make_synthetic_dataset(n: int = 40, dim: int = 2, seed: int = 0) -> Dataset:
    """Two seeded Gaussian blobs with labels -1/+1 and uniform weights."""
    if n < 2:
        raise ValueError("need at least 2 examples")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5DA7A]))
    half = n // 2
    pos = rng.normal(loc=1.0, scale=1.0, size=(half, dim))
    neg = rng.normal(loc=-1.0, scale=1.0, size=(n - half, dim))
    features = np.vstack([pos, neg])
    labels = np.array([1] * half + [-1] * (n - half))
    return Dataset.from_arrays(features, labels)
