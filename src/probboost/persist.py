"""Model persistence: one structured JSON document per trained model."""

from __future__ import annotations

from pathlib import Path

from .adaboost import AdaboostModel
from .core import load_record, save_record
from .ptree import TreeModel

__all__ = ["save_model", "load_model"]


def save_model(model, path: str | Path) -> None:
    save_record(model.to_record(), path)


def load_model(path: str | Path):
    record = load_record(path)
    kind = record.get("kind")
    if kind not in ("adaboost", "ptree", "matryoshka"):
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        return (AdaboostModel if kind == "adaboost" else TreeModel).from_record(record)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {kind} record ({type(exc).__name__}: {exc})") from None
