"""Model files: one structured JSON document per trained model.

This module alone writes and reads model records.  A record holds the
model's metadata, its nodes (a tree) or stages (AdaBoost), each the record
of one weak classifier with its alphas, Z and stored q, and the tables
``training_sets`` and ``classifiers`` that those records name.  A composite's
record holds its inner nodes, recursively, and shares the model's tables.
Records serialize to one-line JSON with sorted keys and an explicit version
field, so identical runs produce identical bytes.  Without indentation
``json`` uses its C encoder; older indented files load the same.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .adaboost import AdaboostModel, StageRecord
from .core import validate_path
from .ptree import CompositeNode, TreeModel, TreeNode
from .weak_learner import ConstantEdgeClassifier, ProbClassifier, StumpClassifier, TrainingSet

__all__ = ["save_model", "load_model"]

MODEL_FORMAT_VERSION = 1
# a record's JSON text as a model file writes it
_record_text = json.JSONEncoder(sort_keys=True, separators=(",", ": ")).encode
# the Z fields of a node or stage record, in record order
_Z = {TreeNode: ("z_plus", "z_minus"), StageRecord: ("z",)}


def save_model(model, path: str | Path) -> None:
    save_record(model_record(model), path)


def load_model(path: str | Path):
    record = load_record(path)
    kind = record.get("kind")
    if kind not in ("adaboost", "ptree", "matryoshka"):
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        return model_from_record(record)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {kind} record ({type(exc).__name__}: {exc})") from None


def save_record(record: dict[str, Any], path: str | Path) -> None:
    record = dict(record)
    record["format_version"] = MODEL_FORMAT_VERSION
    text = _record_text(record)
    # Overwrite in place, then cut to length.  Truncating an existing file to
    # zero first makes ext4 start its writeback on close (auto_da_alloc):
    # about 1 ms a save, with a tail past 10 ms.
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "wb") as fh:
        fh.write((text + "\n").encode("utf-8"))
        fh.truncate()


def load_record(path: str | Path) -> dict[str, Any]:
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ValueError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}: a model file holds one JSON object")
    version = record.pop("format_version", None)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version}")
    return record


# ---------------------------------------------------------------------------
# Writing.

def model_record(model: TreeModel | AdaboostModel) -> dict[str, Any]:
    """The record of a tree or AdaBoost model; each constant-edge training set,
    and each plain classifier record that nodes or stages repeat, composites'
    inner nodes included, is written once, in ``training_sets`` and
    ``classifiers``."""
    plain = []
    if isinstance(model, AdaboostModel):
        record = {"kind": "adaboost", "metadata": model.metadata,
                  "stages": [_unit_record(stage, plain) for stage in model.stages]}
    else:
        record = {"kind": model.metadata.get("kind", "ptree"), "metadata": model.metadata,
                  "trajectory": list(model.trajectory), "nodes": _node_records(model, plain)}
    return _write_tables(record, plain)


def _node_records(tree: TreeModel, plain: list) -> dict[str, Any]:
    return {path: _unit_record(node, plain) for path, node in tree.nodes.items()}


def _unit_record(unit: TreeNode | StageRecord, plain: list) -> dict[str, Any]:
    """The record of a tree node or AdaBoost stage.  Each plain classifier it
    holds, itself or a composite's inner ones, is added to ``plain`` with the
    record that writes it, in walk order."""
    classifier = unit.classifier
    composite = type(classifier) is CompositeNode
    if composite:
        # the inner nodes only: walk tables and bounds read nothing else
        entry = {"kind": "composite", "inner": {"nodes": _node_records(classifier.inner, plain)}}
    else:
        entry = _plain_record(classifier)
    record = {"classifier": entry, **_write_q(classifier, unit.q_plus),
              "alpha_plus": unit.alpha_plus, "alpha_minus": unit.alpha_minus}
    for name in _Z[type(unit)]:
        record[name] = getattr(unit, name)
    if not composite:
        plain.append((classifier, record))
    return record


def _plain_record(classifier: ProbClassifier) -> dict[str, Any]:
    """The record of a built-in plain classifier.  Any other type, a subclass
    too, is refused: a model file could not load it as itself.  (Types are
    compared, not ``isinstance``: a failed check against an ABC costs about
    0.2 µs, a tenth of a node's record.)"""
    if type(classifier) is StumpClassifier:
        return {"kind": "stump", "feature": classifier.feature, "threshold": classifier.threshold,
                "polarity": classifier.polarity, "p_flip": classifier.p_flip, "constant": classifier.constant}
    if type(classifier) is ConstantEdgeClassifier:
        return {"kind": "constant-edge", "epsilon": classifier.epsilon,
                "training_set": classifier.training_set.fingerprint}
    raise TypeError(f"a model file cannot hold a {type(classifier).__name__} classifier: "
                    "it holds noisy stumps, constant-edge classifiers and composites")


def _write_q(classifier: ProbClassifier, q: np.ndarray | None) -> dict[str, Any]:
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


def _write_tables(record: dict[str, Any], plain: list) -> dict[str, Any]:
    """``record`` with the tables of its plain classifiers, as ``_unit_record``
    gathers them: ``training_sets``, the rows and labels of each training set
    they name, once each, by fingerprint; and ``classifiers``, each classifier
    record that two or more nodes or stages hold, once, in the order of its
    JSON text, those records' ``classifier`` then its index in the table.
    Records are grouped by their values, floats by their bits (``float.hex``,
    so ``0.0`` and ``-0.0`` stay apart, as in the text); only a group's text
    is encoded.  A record held once stays inline, and a table with no entry is
    not written."""
    training_sets, groups, by_object = {}, {}, {}
    for classifier, unit in plain:
        group = by_object.get(id(classifier))  # a classifier that units share is keyed once
        if group is None:
            key = tuple(value.hex() if isinstance(value, float) else repr(value)
                        for value in unit["classifier"].values())
            group = by_object[id(classifier)] = groups.setdefault(key, [])
            if type(classifier) is ConstantEdgeClassifier and classifier.training_set.fingerprint not in training_sets:
                training_sets[classifier.training_set.fingerprint] = {
                    "features": classifier.training_set.features.tolist(),
                    "labels": classifier.training_set.labels.tolist(),
                }
        group.append(unit)
    if training_sets:
        record["training_sets"] = training_sets
    shared = sorted((group for group in groups.values() if len(group) > 1),
                    key=lambda group: _record_text(group[0]["classifier"]))
    if shared:
        record["classifiers"] = [group[0]["classifier"] for group in shared]
        for index, group in enumerate(shared):
            for unit in group:
                unit["classifier"] = index
    return record


# ---------------------------------------------------------------------------
# Reading.

def model_from_record(record: dict[str, Any]) -> TreeModel | AdaboostModel:
    """The model of a record, as ``load_model`` reads it from a file."""
    metadata = _read_metadata(record)
    if record.get("kind") == "adaboost":
        tables = _read_tables(record, metadata.get("dimension"))
        return AdaboostModel(stages=[_read_unit(StageRecord, stage, tables) for stage in record["stages"]],
                             metadata=metadata)
    return TreeModel(
        metadata=metadata,
        nodes=_read_nodes(record["nodes"], _read_tables(record, metadata.get("dimension"))),
        trajectory=[_read_number(c, "trajectory") for c in record.get("trajectory", [])],
    )


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


def _read_nodes(nodes: dict[str, Any], tables: _ModelTables) -> dict[str, TreeNode]:
    """A tree's nodes from their records."""
    nodes = {validate_path(path): _read_unit(TreeNode, node, tables) for path, node in nodes.items()}
    for path in nodes:
        if path and path[:-1] not in nodes:
            raise ValueError(f"node {path!r} has no parent in the record")
    return nodes


def _read_unit(unit_type: type, record: dict[str, Any], tables: _ModelTables):
    """A tree node or AdaBoost stage (``unit_type``) from its record.  A tree
    node's classifier may be a composite, whose inner tree takes the model's
    feature dimension, which its walks on given rows check; the q that older
    files store for a composite is unread."""
    entry = record["classifier"]
    if unit_type is TreeNode and isinstance(entry, dict) and entry.get("kind") == "composite":
        inner = _read_nodes(entry["inner"]["nodes"], tables)
        classifier, q_plus = CompositeNode(TreeModel(nodes=inner, metadata={"dimension": tables.dimension})), None
    else:
        classifier = tables.classifier(entry)
        q_plus = _read_q(record, classifier)
    return unit_type(classifier, q_plus, _read_number(record["alpha_plus"], "alpha_plus"),
                     _read_number(record["alpha_minus"], "alpha_minus"),
                     *[_read_number(record[name], name) for name in _Z[unit_type]])


def _read_q(record: dict[str, Any], classifier: ProbClassifier) -> np.ndarray:
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
        classifier = _read_plain(entry, self.training_sets)
        if self.dimension is not None and isinstance(classifier, StumpClassifier) \
                and classifier.feature >= self.dimension:
            raise TypeError(f"feature must be below the model's dimension {self.dimension}, got {classifier.feature}")
        return classifier


def _read_tables(record: dict[str, Any], dimension: int | None = None) -> _ModelTables:
    """A model record's tables, each entry decoded once: the lookups of
    ``training_sets``, each built once, an entry whose rows do not hash to its
    key refused; then each entry of ``classifiers``, a list of plain
    classifier records."""
    tables = _ModelTables({}, [], dimension)
    for key, entry in record.get("training_sets", {}).items():
        training_set = TrainingSet(entry["features"], entry["labels"])
        if training_set.fingerprint != key:
            raise ValueError(f"malformed training set {key!r}: its rows hash to {training_set.fingerprint!r}")
        tables.training_sets[key] = training_set
    shared = record.get("classifiers", [])
    if not isinstance(shared, list) or not all(isinstance(entry, dict) for entry in shared):
        raise TypeError("classifiers must be a list of plain classifier records")
    tables.classifiers.extend(map(tables.classifier, shared))
    return tables


def _read_plain(record: dict[str, Any], training_sets: dict[str, TrainingSet]) -> ProbClassifier:
    """A plain classifier from its record; ``training_sets`` is the model's
    table, by fingerprint, that constant-edge records name."""
    kind = record.get("kind")
    if kind == "stump":
        constant = record["constant"]
        return StumpClassifier(
            _read_number(record["feature"], "feature", lambda f: isinstance(f, int) and f >= 0, "an int >= 0"),
            _read_number(record["threshold"], "threshold"),
            _read_number(record["polarity"], "polarity", lambda p: p in (1, -1), "1 or -1"),
            _read_number(record["p_flip"], "p_flip", lambda p: 0.0 <= p < 0.5, "in [0, 0.5)"),
            constant if constant is None else _read_number(constant, "constant", lambda c: c in (1, -1), "1 or -1"),
        )
    if kind != "constant-edge":
        raise ValueError(f"unknown classifier kind {kind!r}")
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
    epsilon = _read_number(record["epsilon"], "epsilon", lambda e: 0.0 < e <= 0.5, "in (0, 0.5]")
    return ConstantEdgeClassifier(epsilon, training_set)
