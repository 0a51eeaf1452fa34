"""Datasets, path indices, deterministic randomness, and model persistence."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "Dataset",
    "normalize_weights",
    "load_csv",
    "validate_path",
    "RandomStream",
    "save_record",
    "load_record",
    "make_synthetic_dataset",
]

MODEL_FORMAT_VERSION = 1

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
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        n = features.shape[0]
        if labels.shape != (n,) or weights.shape != (n,):
            raise ValueError("labels/weights must match the number of examples")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if not np.all(weights >= 0.0) or abs(weights.sum() - 1.0) > 1e-12:  # nan fails >= 0, inf the sum
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_arrays(cls, features, labels, weights=None) -> "Dataset":
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if weights is None:
            weights = np.full(len(labels), 1.0 / len(labels))
        else:
            weights = normalize_weights(np.asarray(weights, dtype=float))
        return cls(features, labels, weights)


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from a CSV with header ``f0..f{d-1},label[,weight]``;
    the header decides whether there is a weight column."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
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
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10


def _philox4x32(counter: tuple, key: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Philox4x32-10 (Salmon et al., SC'11): four 32-bit counter words (arrays
    that broadcast) and two 32-bit key words to four 32-bit output words,
    held in uint64 arrays."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = key
    for _ in range(_PHILOX_ROUNDS):
        p0 = _PHILOX_M[0] * c0
        p1 = _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (
            (p1 >> np.uint64(32)) ^ c1 ^ np.uint64(k0),
            p1 & _MASK32,
            (p0 >> np.uint64(32)) ^ c3 ^ np.uint64(k1),
            p0 & _MASK32,
        )
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return c0, c1, c2, c3


class RandomStream:
    """Deterministic, order-independent random draws keyed by stream id.

    A uniform is Philox4x32-10 keyed by a hash of (seed, purpose) and counted
    by (example, counter), so each draw is a pure function of where it sits
    in the stream: one call returns a whole array of draws, and concurrent
    or reordered sampling reproduces bit-exactly.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _key(self, purpose: str) -> tuple[int, int]:
        digest = hashlib.blake2s(f"{self.seed}\x00{purpose}".encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")

    def uniforms(self, purpose: str, example, counter) -> np.ndarray:
        """Uniforms in [0, 1) on a 2^-53 grid, one per element of the
        broadcast of ``example`` and ``counter`` (non-negative integers
        below 2^64)."""
        example = np.asarray(example, dtype=np.uint64)
        counter = np.asarray(counter, dtype=np.uint64)
        shift = np.uint64(32)
        w0, w1, _, _ = _philox4x32(
            (example & _MASK32, example >> shift, counter & _MASK32, counter >> shift),
            self._key(purpose),
        )
        return ((w0 << np.uint64(21)) ^ (w1 >> np.uint64(11))).astype(float) * 2.0**-53

    def generator(self, purpose: str, example: int = 0, counter: int = 0) -> np.random.Generator:
        """A numpy Generator for one (purpose, example, counter).  The library
        draws only with ``uniforms``; this stays for the benchmark's tracer."""
        tag = int.from_bytes(hashlib.blake2s(purpose.encode("utf-8"), digest_size=8).digest(), "big")
        return np.random.default_rng(np.random.SeedSequence([self.seed, tag, int(example), int(counter)]))


# ---------------------------------------------------------------------------
# Persistence: models serialize to one-line JSON documents with stable key
# order and an explicit version field, so identical runs produce identical
# bytes.  Without indentation ``json`` uses its C encoder; older indented
# files load the same.

def save_record(record: dict[str, Any], path: str | Path) -> None:
    record = dict(record)
    record["format_version"] = MODEL_FORMAT_VERSION
    text = json.dumps(record, sort_keys=True, separators=(",", ": "))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_record(path: str | Path) -> dict[str, Any]:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(record, dict):
        raise ValueError(f"{path}: a model file holds one JSON object")
    version = record.pop("format_version", None)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version}")
    return record


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
