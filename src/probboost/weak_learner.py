"""Probabilistic weak learners, Bernoulli-parameter estimation, and the two
parameterless sampling strategies.

A weak learner returns, for any weighting of the training set, a classifier
whose output on X is a Bernoulli draw over {-1, +1} with parameter
q(+, X).  The branch probabilities q are unknown in general and are
estimated by repeated sampling (ML or MAP); the two strategies decide when
to stop spending samples on the current classifier.  Both draw rounds with
``_draw_plus`` and score them with ``map_z_estimate``.  Strategy A is below;
strategy B's rule and loop are ``adaboost._train_strategy_B``.
"""

from __future__ import annotations

import hashlib
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ._zstats import ClassTable, WStats, _check_size, _scale_edges, _side, optimal_alphas, w_statistics, z_value
from .core import MAX_BLOCK_DRAWS, Dataset, RandomStream

__all__ = [
    "ProbClassifier",
    "WeakLearner",
    "map_z_estimate",
    "estimate_q_strategy_A",
    "node_q",
    "builtin_constant_edge_oracle",
    "builtin_noisy_stump",
    "ConstantEdgeClassifier",
    "TrainingSet",
    "StumpClassifier",
    "classifier_from_record",
]

# Strategy A may stop once it has sampled more than R_MIN_DEFAULT rounds and
# stops at R_MAX_DEFAULT; strategy B looks ahead at most R_MAX_DEFAULT * T times.
R_MIN_DEFAULT = 2
R_MAX_DEFAULT = 10_000
PLAIN_SCORES = np.array([1.0, -1.0])  # the outcomes of a plain node: +1, then -1
# a record's JSON text as ``core.save_record`` writes it
_record_text = json.JSONEncoder(sort_keys=True, separators=(",", ": ")).encode


@dataclass
class TrainConfig:
    """What a user chooses for training; the sampling strategies themselves
    take no parameters."""

    seed: int = 0
    exact_q: bool = False
    estimator: str = "map"  # "map" | "ml"
    strategy: str = "A"  # "A" | "B"

    def __post_init__(self) -> None:
        if self.estimator not in ("map", "ml"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.strategy not in ("A", "B"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "B" and self.exact_q:
            raise ValueError("strategy B samples q; it cannot run with exact q")


def _model_metadata(config: TrainConfig, dataset: Dataset, **fields) -> dict[str, Any]:
    """A model's metadata: the training choices every model records, the
    dimension of its training data, and the model's own ``fields``."""
    return {
        "seed": config.seed,
        "exact_q": config.exact_q,
        "estimator": config.estimator,
        "dimension": dataset.dimension,
        **fields,
    }


def _read_metadata(record: dict[str, Any]) -> dict[str, Any]:
    """The ``metadata`` object of a model record, {} when there is none."""
    metadata = record.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TypeError("metadata must be a JSON object")
    return metadata


def _read_number(value, name: str, valid=None, what: str = "a number"):
    """A number of a model record as JSON gave it; a TypeError refuses any
    other value (a bool is not a number) and any that ``valid``, if given, rejects, and
    an integer past a float raises OverflowError.  A nan or an infinity is a
    number: training records one where a bound or an edge fit overflows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or valid and not valid(value):
        raise TypeError(f"{name} must be {what}, got {value!r}")
    float(value)
    return value


def _write_q(classifier, q: np.ndarray | None) -> dict[str, Any]:
    """The stored q fields of a node or stage record.  ``q_plus`` is null where
    q is, bit for bit, the q the classifier rebuilds from the model file
    (``_training_q``), or where there is none (a composite).  A q that repeats
    a value is its distinct values (bitwise, so ``0.0`` and ``-0.0`` stay apart)
    in ``q_plus`` and each example's place among them in ``q_index`` where that
    text is shorter than the list; any other q is its list of numbers."""
    if q is None:
        return {"q_plus": None}
    rebuilt = classifier._training_q()
    if rebuilt is not None and q.dtype == rebuilt.dtype and q.shape == rebuilt.shape \
            and q.tobytes() == rebuilt.tobytes():
        return {"q_plus": None}
    # q's distinct bit patterns in ascending order, as np.unique gives them; at
    # this size its hash path is slower, and its first call takes about 14 ms
    q_bits = np.asarray(q, dtype=float).view(np.uint64)
    ordered = np.sort(q_bits)
    first = np.empty(len(q), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    bits = ordered[first]
    if len(bits) == len(q):
        return {"q_plus": q.tolist()}
    index, values = bits.searchsorted(q_bits), bits.view(float).tolist()
    # Beside the list, the indexed form writes each example's index instead of
    # its value, each value once more, a comma between values and the 14
    # characters of ',"q_index": []'.  JSON writes a float as its repr, of 3
    # characters or more, so the values' text is read only where that bound
    # leaves the choice open.
    extra = len(values) - 1 + 14
    if 3 * (len(q) - len(values)) - len(q) * len(str(len(values) - 1)) <= extra:
        saved = sum((count - 1) * len(repr(value)) - count * len(str(k))
                    for k, (value, count) in enumerate(zip(values, np.bincount(index).tolist())))
        if saved <= extra:
            return {"q_plus": q.tolist()}
    return {"q_plus": values, "q_index": index.tolist()}


def _read_q(record: dict[str, Any], classifier) -> np.ndarray:
    """The q(+) of a node or stage record: where it stores null, the q its
    classifier rebuilds from the file; otherwise the stored numbers, in [0, 1]
    (a nan fails both bounds), as floats, and where the record has a
    ``q_index``, those numbers at its indices.  A null that the file cannot
    rebuild, or that stands beside a ``q_index``, is refused as any other value
    that is not such a list."""
    values, index = record["q_plus"], record.get("q_index")
    rebuilt = classifier._training_q() if values is None and index is None else None
    if rebuilt is not None:
        return rebuilt
    q = _array(values)
    if q.ndim != 1 or q.dtype.kind not in "iuf" or not q.min(initial=0.0) >= 0.0 or not q.max(initial=1.0) <= 1.0:
        raise TypeError("q_plus must be a list of numbers in [0, 1]")
    q = q.astype(float, copy=False)
    if index is None:
        return q
    index = _array(index)
    if index.ndim != 1 or index.dtype.kind not in "iu" or index.min(initial=0) < 0 or index.max(initial=0) >= len(q):
        raise TypeError(f"q_index must be a list of ints in [0, {len(q)})")
    return q[index]


def _array(values) -> np.ndarray:
    """``values`` of a record as numpy reads them; a ragged nesting of lists is a 0-d array."""
    try:
        return np.asarray(values)
    except ValueError:
        return np.empty(())


class ProbClassifier(ABC):
    """A per-input Bernoulli oracle over {-1, +1}."""

    #: None for a plain +/-1 classifier.  A classifier whose tree edges carry
    #: real-valued scores (a collected subtree) gives its ``outcomes`` on the
    #: training examples here, as a ``ClassTable``.
    leaf_table: ClassTable | None = None

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(reach (len(X), K), scores (K,)): the probability of each outcome
        the classifier can draw on each row of X, and that outcome's score.
        Only a classifier whose q is known has them."""
        raise NotImplementedError("exact q unavailable; sample instead")

    def _q(self, X: np.ndarray) -> np.ndarray:
        """Exact q(+, x) on each row of X, which draws, exact q and a plain node's
        walk columns read: the reach of the outcomes on the + side (``_side``)."""
        reach, scores = self.outcomes(X)
        return reach[:, _side(scores, 1)].sum(axis=1)

    def q_plus(self, x: np.ndarray) -> float:
        """Exact q(+, x) on one row."""
        return float(self._q(np.asarray(x, dtype=float)[None])[0])

    def sample_batch(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Draws from uniforms u in [0, 1) of shape (..., len(X)), whose last
        axis runs over the rows of X: the scores drawn, in u's shape, whose
        sign is the branch a tree takes.  By default +1 where u < q(+, x),
        else -1; a classifier without exact q overrides this."""
        return np.where(np.asarray(u) < self._q(X), 1.0, -1.0)

    def _plain_records(self, record: dict[str, Any], found: dict) -> None:
        """Add to ``found`` (``_plain_records``) the plain classifiers (those that
        draw +/-1) this one is made of, ``record`` being a node or stage record
        that writes this one: itself, or a collected subtree's inner ones."""
        group = found.get(id(self))
        if group is None:
            group = found[id(self)] = (self, [])
        group[1].append(record)

    def _training_q(self) -> np.ndarray | None:
        """Exact q(+) on the rows the classifier was trained on, where its
        record and the model file rebuild it: a node or stage with that q
        then stores none.  None where the file cannot."""
        return None

    @abstractmethod
    def to_record(self) -> dict[str, Any]: ...


def _plain_outcomes(q_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcome table of a plain classifier that draws +1 with
    probability ``q_plus`` on each row: (reach, ``PLAIN_SCORES``)."""
    return np.array((q_plus, 1.0 - q_plus)).T.copy(), PLAIN_SCORES  # a C-ordered (N, 2) copy


class _PlainClassifier(ProbClassifier):
    """A built-in plain classifier: it defines its exact q(+, x) on rows X,
    ``_q(X)``, once, and its outcome table is read from that q."""

    @abstractmethod
    def _q(self, X: np.ndarray) -> np.ndarray: ...

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _plain_outcomes(self._q(X))


class WeakLearner(ABC):
    """Example weights to a classifier whose draws are random; nothing else."""

    @abstractmethod
    def train(self, dataset: Dataset, weights: np.ndarray) -> ProbClassifier: ...


def _train_step(learner: WeakLearner, dataset: Dataset, weights, where: str, *args) -> ProbClassifier:
    """One weak-learner call.  A ValueError (bad input) passes through; any
    other failure is the learner's, at ``where.format(*args)`` ("round 2",
    "node '+' (step 3)"), formatted only then."""
    try:
        return learner.train(dataset, weights)
    except ValueError:
        raise
    except Exception as exc:
        raise RuntimeError(f"weak learner failed at {where.format(*args)}") from exc


def _q_estimate(counts_plus: np.ndarray, rounds, estimator: str) -> np.ndarray:
    """q(+) estimates from the counts of draws on the + side after
    ``rounds`` rounds: an int, or a column of ints for one row per round."""
    if estimator == "map":
        return (1.0 + counts_plus) / (rounds + 2)
    if estimator == "ml":
        if np.any(rounds < 1):
            raise ValueError("ML estimate undefined without observations")
        return counts_plus / rounds
    raise ValueError(f"unknown estimator {estimator!r}")


def _draw_plus(classifier, dataset: Dataset, stream: RandomStream, purpose: str, rounds) -> np.ndarray:
    """The sampling rounds numbered ``rounds`` (a 1-D sequence) on the N
    training rows, one ``uniforms`` and one ``sample_batch`` call: a
    (len(rounds), N) array, True where the score drawn takes the + branch."""
    u = stream.uniforms(purpose, np.arange(dataset.n_examples), np.asarray(rounds)[:, None])
    return _side(classifier.sample_batch(dataset.features, u), 1)


def map_z_estimate(q: np.ndarray, weights: np.ndarray, labels):
    """The Z estimate at the optimal alphas of each row of q estimates
    (R, N), each bit for bit that of the row alone; ``labels`` may be a
    ``LabelSplit``.  One W pass covers the rows; a row's alphas and Z are
    computed when the generator reaches it."""
    for w in map(WStats._make, zip(*w_statistics(weights, q, labels))):
        yield z_value(w, *optimal_alphas(w))


def estimate_q_strategy_A(
    classifier: ProbClassifier,
    dataset: Dataset,
    weights: np.ndarray,
    stream: RandomStream,
    purpose: str = "strategy-A",
    estimator: str = "map",
) -> tuple[np.ndarray, int]:
    """Sample until the Z_T estimate first increases; return the estimates
    from the round preceding the increase.

    Returns (q_plus estimates, rounds spent).  A hard cap of
    ``R_MAX_DEFAULT`` rounds aborts with the current estimates.

    Rounds are drawn in blocks of at most ``MAX_BLOCK_DRAWS`` uniforms (one
    round once N > MAX_BLOCK_DRAWS / 2), each block one ``uniforms`` call, W
    pass and ``sample_batch`` call on the training rows with u of shape
    (rounds, N).
    A draw is a pure function of (example, round) and each round's W is
    summed as that round alone, so the result is bit for bit that of one
    round per call; rounds drawn past the stop are dropped.
    """
    n = dataset.n_examples
    per_block = max(1, min(MAX_BLOCK_DRAWS // n, R_MAX_DEFAULT))
    counts = np.zeros(n, dtype=int)
    prev_z = math.inf
    prev_q = _q_estimate(counts, 0, "map")  # prior mean before any observation
    done = 0
    while done < R_MAX_DEFAULT:
        rounds = np.arange(done + 1, min(done + per_block, R_MAX_DEFAULT) + 1)
        plus = _draw_plus(classifier, dataset, stream, purpose, rounds)
        # a cumsum down the rows costs one call per example; one round needs none
        counts = counts + (plus.cumsum(axis=0) if len(rounds) > 1 else plus)
        q = _q_estimate(counts, rounds[:, None], estimator)
        for r, q_r, z in zip(rounds.tolist(), q, map_z_estimate(q, weights, dataset.label_split)):
            if r > R_MIN_DEFAULT and z > prev_z:
                return prev_q.copy(), r
            prev_z, prev_q = z, q_r
        counts, done = counts[-1], done + len(rounds)
    return prev_q.copy(), R_MAX_DEFAULT


def node_q(classifier, dataset, weights, config, stream, purpose: str) -> np.ndarray | None:
    """Per-example q(+) of a new node or boosting stage: exact, or estimated
    by sampling the stream tagged ``purpose``.  None for a composite, whose
    outcomes on the training set are its ``leaf_table``."""
    if classifier.leaf_table is not None:
        return None
    if config.exact_q:
        return classifier._q(dataset.features)
    return estimate_q_strategy_A(classifier, dataset, weights, stream, purpose, config.estimator)[0]


# ---------------------------------------------------------------------------
# Built-in learners.

def _row_keys(X: np.ndarray) -> np.ndarray:
    """Each row of a float matrix as one opaque byte string; -0.0 is stored
    as 0.0 so that equal rows have equal keys."""
    X = np.ascontiguousarray(X + 0.0)
    return X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()


class TrainingSet:
    """The examples a constant-edge oracle knows, shared by every classifier
    trained on them: their rows sorted by bytes for binary search, the
    oracle's q on the rows themselves for each epsilon, and the fingerprint
    that names them in a model file (a blake2s digest of the shape, the row
    bytes with -0.0 stored as 0.0, and the labels)."""

    def __init__(self, features, labels):
        try:
            self.features = np.asarray(features, dtype=float)
            self.labels = np.asarray(labels, dtype=int)
        except ValueError as exc:  # a ragged row, or a string that is not a number
            raise TypeError(f"malformed training set: {exc}") from None
        if self.features.ndim != 2 or self.labels.shape != (len(self.features),):
            shapes = f"features of shape {self.features.shape}, labels of shape {self.labels.shape}"
            raise TypeError(f"malformed training set: {shapes}")
        digest = hashlib.blake2s(digest_size=16)
        digest.update("{},{}\x00".format(*self.features.shape).encode("ascii"))
        digest.update((self.features + 0.0).astype("<f8").tobytes())
        digest.update(self.labels.astype("<i8").tobytes())
        self.fingerprint = digest.hexdigest()
        self._edge_q: dict[float, np.ndarray] = {}  # filled by ConstantEdgeClassifier._q
        keys = _row_keys(self.features)
        # a repeated row takes the label of its last copy
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    def _search(self, keys: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self._sorted_keys, keys, side="right") - 1
        if np.any(at < 0) or np.any(self._sorted_keys[at] != keys):
            raise ValueError("constant-edge oracle only knows its training examples")
        return self.labels[self._order[at]]

    def labels_of(self, X: np.ndarray) -> np.ndarray:
        """The label of each row of X."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.features.shape[1]:
            raise ValueError(f"expected rows of dimension {self.features.shape[1]}, got shape {X.shape}")
        return self._search(_row_keys(X))


def _plain_records(units, records, found: dict | None = None) -> dict:
    """Each plain classifier of a model's nodes or stages ``units``, composites'
    inner ones included, by object: (classifier, the node or stage records that
    write it), added to ``found``; ``records`` are the units' records, in order."""
    found = {} if found is None else found
    for unit, record in zip(units, records):
        unit.classifier._plain_records(record, found)
    return found


def _write_tables(record: dict[str, Any], plain_records: dict) -> dict[str, Any]:
    """``record`` with the tables of its plain classifiers, as ``_plain_records``
    gives them: ``training_sets``, the rows and labels of each training set they
    name, once each, by fingerprint; and ``classifiers``, each classifier record
    that two or more nodes or stages write as the same JSON text (so ``0.0`` and
    ``-0.0`` stay apart), once, in the order of that text, those records'
    ``classifier`` then its index in the table.  A record written once stays
    inline, and a table with no entry is not written."""
    training_sets, holders = {}, {}
    for plain, records in plain_records.values():
        if isinstance(plain, ConstantEdgeClassifier) and plain.training_set.fingerprint not in training_sets:
            training_sets[plain.training_set.fingerprint] = {
                "features": plain.training_set.features.tolist(),
                "labels": plain.training_set.labels.tolist(),
            }
        # each classifier is encoded once, however many nodes hold it
        holders.setdefault(_record_text(records[0]["classifier"]), []).extend(records)
    if training_sets:
        record["training_sets"] = training_sets
    shared = sorted(text for text, group in holders.items() if len(group) > 1)
    if shared:
        record["classifiers"] = [holders[text][0]["classifier"] for text in shared]
        for index, text in enumerate(shared):
            for holder in holders[text]:
                holder["classifier"] = index
    return record


def _read_training_sets(record: dict[str, Any]) -> dict[str, TrainingSet]:
    """The lookups of a model record's ``training_sets`` table, each entry
    built once; an entry whose rows do not hash to its key is refused."""
    training_sets = {}
    for key, entry in record.get("training_sets", {}).items():
        training_set = TrainingSet(entry["features"], entry["labels"])
        if training_set.fingerprint != key:
            raise ValueError(f"malformed training set {key!r}: its rows hash to {training_set.fingerprint!r}")
        training_sets[key] = training_set
    return training_sets


class _ModelTables(NamedTuple):
    """What the node and stage records of a model record read beyond
    themselves: the lookups of its ``training_sets`` table, the classifiers of
    its ``classifiers`` table, and its feature dimension (None where an older
    AdaBoost file records none)."""

    training_sets: dict[str, TrainingSet]
    classifiers: list[ProbClassifier]
    dimension: int | None

    def classifier(self, entry) -> ProbClassifier:
        """A plain classifier from a record's ``classifier``: an inline record,
        decoded, or an index into the ``classifiers`` table, whose classifier
        every record that names it shares.  A stump whose feature is beyond
        the dimension is refused."""
        if not isinstance(entry, dict):
            if isinstance(entry, bool) or not isinstance(entry, int) or not 0 <= entry < len(self.classifiers):
                raise TypeError(f"classifier must be a record or an index in [0, {len(self.classifiers)}), "
                                f"got {entry!r}")
            return self.classifiers[entry]
        classifier = classifier_from_record(entry, self.training_sets)
        if self.dimension is not None and isinstance(classifier, StumpClassifier) \
                and classifier.feature >= self.dimension:
            raise TypeError(f"feature must be below the model's dimension {self.dimension}, got {classifier.feature}")
        return classifier


def _read_tables(record: dict[str, Any], dimension: int | None = None) -> _ModelTables:
    """A model record's tables, each entry decoded once: ``_read_training_sets``,
    then each entry of ``classifiers``, a list of plain classifier records."""
    tables = _ModelTables(_read_training_sets(record), [], dimension)
    shared = record.get("classifiers", [])
    if not isinstance(shared, list) or not all(isinstance(entry, dict) for entry in shared):
        raise TypeError("classifiers must be a list of plain classifier records")
    tables.classifiers.extend(map(tables.classifier, shared))
    return tables


class ConstantEdgeClassifier(_PlainClassifier):
    """Synthetic oracle: outputs the true label with probability 1/2 + eps."""

    def __init__(self, epsilon: float, training_set: TrainingSet):
        self.epsilon = float(epsilon)
        self.training_set = training_set

    def _q(self, X: np.ndarray) -> np.ndarray:
        """On the training rows themselves, which the file holds, q is built
        once per (training set, epsilon) and shared read-only."""
        own = X is self.training_set.features
        q = self.training_set._edge_q.get(self.epsilon) if own else None
        if q is None:
            q = np.where(self.training_set.labels_of(X) == 1, 0.5 + self.epsilon, 0.5 - self.epsilon)
            if own:
                q.flags.writeable = False
                self.training_set._edge_q[self.epsilon] = q
        return q

    def _training_q(self) -> np.ndarray:
        return self._q(self.training_set.features)

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "constant-edge",
            "epsilon": self.epsilon,
            "training_set": self.training_set.fingerprint,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any], training_sets: dict[str, TrainingSet]):
        if "training_set" not in record:  # older files carry the rows in every record
            training_set = TrainingSet(record["features"], record["labels"])
            training_set = training_sets.setdefault(training_set.fingerprint, training_set)
        elif record["training_set"] in training_sets:
            training_set = training_sets[record["training_set"]]
        else:
            raise ValueError(
                f"malformed constant-edge record: training set {record['training_set']!r} "
                "is not in the model's training_sets table"
            )
        return cls(_read_number(record["epsilon"], "epsilon", lambda e: 0.0 < e <= 0.5, "in (0, 0.5]"), training_set)


class ConstantEdgeLearner(WeakLearner):
    """Training ignores the weights entirely; the error is 1/2 - eps always."""

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon <= 0.5:
            raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
        self.epsilon = epsilon
        # the one classifier of the last dataset trained on, which every node trained on it shares
        self._classifier: ConstantEdgeClassifier | None = None

    def train(self, dataset: Dataset, weights) -> ConstantEdgeClassifier:
        known = self._classifier and self._classifier.training_set
        if known is None or known.features is not dataset.features or known.labels is not dataset.labels:
            self._classifier = ConstantEdgeClassifier(self.epsilon, TrainingSet(dataset.features, dataset.labels))
        return self._classifier


def builtin_constant_edge_oracle(epsilon: float) -> ConstantEdgeLearner:
    return ConstantEdgeLearner(epsilon)


class StumpClassifier(_PlainClassifier):
    """Axis-aligned threshold stump whose decision is flipped w.p. p_flip."""

    def __init__(
        self,
        feature: int,
        threshold: float,
        polarity: int,
        p_flip: float,
        constant: int | None = None,
    ):
        self.feature = feature
        self.threshold = threshold
        self.polarity = polarity
        self.p_flip = p_flip
        self.constant = constant

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """The noiseless +/-1 decision on each row of X."""
        X = np.asarray(X, dtype=float)
        if self.constant is not None:
            return np.full(len(X), self.constant)
        return np.where(X[:, self.feature] >= self.threshold, 1, -1) * self.polarity

    def _q(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decisions(X) == 1, 1.0 - self.p_flip, self.p_flip)

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "stump",
            "feature": self.feature,
            "threshold": self.threshold,
            "polarity": self.polarity,
            "p_flip": self.p_flip,
            "constant": self.constant,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any], training_sets) -> "StumpClassifier":
        constant = record["constant"]
        return cls(
            _read_number(record["feature"], "feature", lambda f: isinstance(f, int) and f >= 0, "an int >= 0"),
            _read_number(record["threshold"], "threshold"),
            _read_number(record["polarity"], "polarity", lambda p: p in (1, -1), "1 or -1"),
            _read_number(record["p_flip"], "p_flip", lambda p: 0.0 <= p < 0.5, "in [0, 0.5)"),
            constant if constant is None else _read_number(constant, "constant", lambda c: c in (1, -1), "1 or -1"),
        )


class NoisyStumpLearner(WeakLearner):
    """Exhaustive scan over (feature, midpoint threshold, polarity)."""

    def __init__(self, p_flip: float = 0.1):
        if not 0.0 <= p_flip < 0.5:
            raise ValueError(f"p_flip must be in [0, 0.5), got {p_flip}")
        self.p_flip = p_flip

    def train(self, dataset: Dataset, weights) -> StumpClassifier:
        weights = np.asarray(weights, dtype=float)
        y = dataset.labels
        best: tuple[float, int, float, int] | None = None  # (err, feature, thr, pol)
        for j in range(dataset.dimension):
            values = dataset.features[:, j]
            order = np.argsort(values, kind="stable")
            sv, sy, sw = values[order], y[order], weights[order]
            cuts = np.flatnonzero(sv[:-1] != sv[1:])  # a threshold goes after position i
            if not cuts.size:
                continue
            # wrong mass for polarity +1 (predict +1 where v >= thr) with the
            # threshold placed after position i: D[y=+1, v<thr] + D[y=-1, v>=thr]
            pos_mass = np.cumsum(np.where(sy == 1, sw, 0.0))
            neg_mass = np.cumsum(np.where(sy == -1, sw, 0.0))
            err_plus = pos_mass[cuts] + (neg_mass[-1] - neg_mass[cuts])
            errs = np.column_stack([err_plus, 1.0 - err_plus]).ravel()  # each cut: pol +1, then -1
            # a candidate no lower than an earlier one fails the test below,
            # which that one already passed or failed
            new_low = np.append(True, errs[1:] < np.minimum.accumulate(errs)[:-1])
            for k in np.flatnonzero(new_low).tolist():
                if best is None or errs[k] < best[0] - 1e-15:
                    i = cuts[k // 2]
                    best = (errs[k], j, 0.5 * (sv[i] + sv[i + 1]), (1, -1)[k % 2])
        if best is None:
            majority = 1 if float(np.sum(weights[y == 1])) >= 0.5 else -1
            return StumpClassifier(0, 0.0, 1, self.p_flip, constant=majority)
        _, feature, thr, pol = best
        return StumpClassifier(feature, thr, pol, self.p_flip)


def builtin_noisy_stump(p_flip: float = 0.1) -> NoisyStumpLearner:
    return NoisyStumpLearner(p_flip)


_PLAIN_KINDS = {"constant-edge": ConstantEdgeClassifier, "stump": StumpClassifier}


def classifier_from_record(
    record: dict[str, Any], training_sets: dict[str, TrainingSet]
) -> ProbClassifier:
    """A plain classifier from its record (``ptree.TreeNode`` decodes
    composites); ``training_sets`` is the model's table, by fingerprint,
    that constant-edge records name."""
    kind = record.get("kind")
    if kind not in _PLAIN_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return _PLAIN_KINDS[kind].from_record(record, training_sets)


@dataclass
class _Edges:
    """A weak classifier and its domain-partitioned edge weights, the unit that an
    AdaBoost stage and a tree node share; each adds the Z fields named in ``_Z``.
    It is the one class that evaluates the unit: ``outcomes`` and ``edge_factors``."""

    classifier: ProbClassifier
    q_plus: np.ndarray | None  # q(+) per training example; None for a composite, whose outcomes are its walks
    alpha_plus: float
    alpha_minus: float
    _Z = ()  # the subclass's Z fields, in record order

    def to_record(self) -> dict[str, Any]:
        record = {
            "classifier": self.classifier.to_record(),
            **_write_q(self.classifier, self.q_plus),
            "alpha_plus": self.alpha_plus,
            "alpha_minus": self.alpha_minus,
        }
        for name in self._Z:
            record[name] = getattr(self, name)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any], tables: _ModelTables):
        """The edges of a plain classifier's record; ``tables`` are the model's (``_read_tables``)."""
        classifier = tables.classifier(record["classifier"])
        return cls._read(record, classifier, _read_q(record, classifier))

    @classmethod
    def _read(cls, record: dict[str, Any], classifier, q_plus):
        """The edges around a decoded classifier, its numbers read in record order."""
        return cls(classifier, q_plus, _read_number(record["alpha_plus"], "alpha_plus"),
                   _read_number(record["alpha_minus"], "alpha_minus"),
                   *[_read_number(record[name], name) for name in cls._Z])

    def outcomes(self, X: np.ndarray | None = None, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(reach, scores) of the classifier on the rows X.  Without X the rows
        are the training examples, or those indexed by ``rows``, and come from
        what training stored.  A plain classifier draws +1 with its q(+), stored
        or its ``_q(X)``, and -1 otherwise; a composite draws its inner walks,
        each example its class's row of the ``leaf_table``."""
        if X is not None:
            return self.classifier.outcomes(X) if self.q_plus is None else _plain_outcomes(self.classifier._q(X))
        if self.q_plus is None:  # a composite
            table = self.classifier.leaf_table
            return table.rows(rows), table.scores
        return _plain_outcomes(self.q_plus if rows is None else self.q_plus[rows])

    def edge_factors(self, y: np.ndarray):
        """The + and - edge factors on the training examples, ``y`` their labels
        as floats: a composite's ``ClassTable.edge_factors``; a plain classifier's
        q e^{-alpha+ y} and (1 - q) e^{alpha- y}, one (2, N) array as training scaled its mass."""
        if self.q_plus is None:
            return self.classifier.leaf_table.edge_factors(y, self.alpha_plus, self.alpha_minus)
        _check_size(self.q_plus, y)
        return _scale_edges(np.array((self.q_plus, 1.0 - self.q_plus)), y, self.alpha_plus, self.alpha_minus)
