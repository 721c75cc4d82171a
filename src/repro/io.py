"""Persistence for keysets and attack results.

Reproduction pipelines want three things on disk: the exact keysets an
experiment used, the poisoning sets an attack produced, and the
summary numbers a run reported.  Keysets and key arrays go to ``.npz``
(lossless int64); result summaries go to JSON so reports and
external plotting tools can consume them without importing this
library.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core.greedy import GreedyResult
from .core.rmi_attack import RMIAttackResult
from .data.keyset import Domain, KeySet

__all__ = [
    "save_keyset",
    "load_keyset",
    "save_arrays",
    "load_arrays",
    "npz_array_names",
    "greedy_result_to_dict",
    "rmi_result_to_dict",
    "json_float",
    "json_fields",
    "parse_json_float",
    "save_json",
    "load_json",
]


def save_keyset(keyset: KeySet, path: str | Path) -> None:
    """Write a keyset (keys + domain) to a ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        keys=keyset.keys,
        domain=np.asarray([keyset.domain.lo, keyset.domain.hi],
                          dtype=np.int64))


def load_keyset(path: str | Path) -> KeySet:
    """Read a keyset written by :func:`save_keyset`."""
    with np.load(Path(path)) as archive:
        keys = archive["keys"]
        lo, hi = archive["domain"].tolist()
    return KeySet(keys, Domain(int(lo), int(hi)))


def save_arrays(path: str | Path, **arrays: np.ndarray) -> None:
    """Write named numpy arrays to a ``.npz`` file (lossless).

    Used by the runtime's checkpoint store for optional per-cell
    artifacts (poison sets, loss trajectories) next to the JSON
    summary.
    """
    if not arrays:
        raise ValueError("save_arrays needs at least one named array")
    path = Path(path)
    if path.suffix != ".npz":
        # Mirror savez's own name normalisation so callers find the
        # file where numpy would have put it.
        path = path.with_name(path.name + ".npz")

    def write(tmp: Path) -> None:
        # A file object, not a name: savez appends ".npz" to names
        # that lack it, which would dodge the atomic rename.
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)

    _atomic_replace(path, write)


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read every array written by :func:`save_arrays`."""
    with np.load(Path(path)) as archive:
        return {name: archive[name] for name in archive.files}


def npz_array_names(path: str | Path) -> list[str]:
    """Names of the arrays in a ``.npz``, without loading their data.

    Used to build artifact manifests over whole checkpoint
    directories, where decompressing every poison set just to list it
    would be wasteful.
    """
    with np.load(Path(path)) as archive:
        return sorted(archive.files)


def greedy_result_to_dict(result: GreedyResult) -> dict[str, Any]:
    """JSON-safe summary of an Algorithm 1 run."""
    return {
        "attack": "greedy-multi-point",
        "n_injected": result.n_injected,
        "poison_keys": result.poison_keys.tolist(),
        "loss_before": result.loss_before,
        "loss_after": result.loss_after,
        "ratio_loss": json_float(result.ratio_loss),
        "exhausted": result.exhausted,
        "loss_trajectory": result.losses.tolist(),
    }


def rmi_result_to_dict(result: RMIAttackResult) -> dict[str, Any]:
    """JSON-safe summary of an Algorithm 2 run."""
    return {
        "attack": "greedy-rmi",
        "n_models": len(result.reports),
        "threshold": result.threshold,
        "exchanges": result.exchanges,
        "total_injected": result.total_injected,
        "poison_keys": result.poison_keys.tolist(),
        "rmi_loss_before": result.rmi_loss_before,
        "rmi_loss_after": result.rmi_loss_after,
        "rmi_ratio_loss": json_float(result.rmi_ratio_loss),
        "per_model": [
            {
                "model": r.model_index,
                "n_keys": r.n_keys,
                "budget": r.budget,
                "n_injected": r.n_injected,
                "loss_before": r.loss_before,
                "loss_after": r.loss_after,
                "ratio_loss": json_float(r.ratio_loss),
            }
            for r in result.reports
        ],
    }


def json_float(value: float) -> float | str:
    """JSON has no inf/nan literals; stringify them explicitly."""
    if value != value:
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return value


def json_fields(row: Any) -> dict[str, Any]:
    """A dataclass row as a JSON-safe dict: every field through
    :func:`json_float`, which passes non-float values unchanged."""
    return {field.name: json_float(getattr(row, field.name))
            for field in dataclasses.fields(row)}


def parse_json_float(value: float | str) -> float:
    """Inverse of :func:`json_float` (``float`` parses the sentinels)."""
    return float(value)


def _atomic_replace(path: Path, write: "Callable[[Path], None]") -> None:
    """Publish a file under ``path`` only after a complete write.

    The temp name embeds pid + a random suffix so concurrent writers
    of the same destination (two sweeps sharing a checkpoint dir)
    never touch each other's half-written files; last replace wins.
    """
    suffix = f".{os.getpid()}.{uuid.uuid4().hex[:8]}{path.suffix}.tmp"
    tmp = path.with_name(path.name + suffix)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_json(payload: dict[str, Any], path: str | Path) -> None:
    """Pretty-print a result dictionary to disk, atomically.

    A killed (or racing) writer can never leave a truncated JSON file
    under the final name — the invariant the checkpoint store's
    resume logic relies on.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_replace(Path(path), lambda tmp: tmp.write_text(text))


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a result dictionary back."""
    return json.loads(Path(path).read_text())
