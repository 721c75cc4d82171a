"""Declarative wire and payload contracts, shared by writers,
readers, and the :mod:`repro.analysis` linter.

Every byte- or key-level agreement between a producer and a consumer
in this repo used to live as string literals duplicated at both ends:
the ``repro.experiments.result/v2`` document keys (written by
:func:`repro.experiments.__main__._write_result`, read back by
:mod:`repro.observe.gallery` and the CI parity scripts), the shard
frame protocol header and message codes
(:mod:`repro.cluster.transport`), and the ``REVB`` columnar event
batch header (:mod:`repro.workload.columnar`).  History shows those
literals drift silently — PR 7's fan-out race was only visible
because a reader happened to crash.  This module is the single
declaration:

* the **runtime** validates against it at load/decode time — loading
  a result tree or decoding a frame with unknown or missing keys
  raises :class:`ContractViolation` (a ``ValueError``) naming the
  offending keys;
* the **linter**'s REP007 rule cross-checks the string literals each
  writer emits and each reader consumes against the same
  declarations, so a drifted key fails CI before it fails a replay.

Nothing here imports numpy — the contract layer must stay importable
from the lint CLI and from worker processes alike.
"""

from __future__ import annotations

import struct

__all__ = [
    "ABLATION_COMPONENT_KEYS",
    "ABLATION_KEYS",
    "ABLATION_METRIC_KEYS",
    "ABLATION_SCENARIO_KEYS",
    "ARTIFACT_KEYS",
    "ContractViolation",
    "FRAME",
    "MSG_DELETE",
    "MSG_DIGEST",
    "MSG_INSERT",
    "MSG_LIVE_KEYS",
    "MSG_LOOKUP",
    "MSG_REBUILD",
    "MSG_REPLAY",
    "MSG_SHUTDOWN",
    "PROTOCOL_VERSION",
    "REPLY_CODES",
    "REPLY_ERR",
    "REPLY_OK",
    "REQUEST_CODES",
    "RESULT_OPTIONAL_KEYS",
    "RESULT_REQUIRED_KEYS",
    "RESULT_SCHEMA",
    "WIRE_HEADER",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "validate_ablation_section",
    "validate_artifact_entry",
    "validate_result",
]


class ContractViolation(ValueError):
    """A payload, frame, or document broke a declared contract.

    Subclasses ``ValueError`` so pre-existing defensive ``except
    ValueError`` readers keep working; raised with the offending
    key/field names so the failure is actionable without a debugger.
    """


# ---------------------------------------------------------------------
# repro.experiments.result/v2 — the sweep result document
# ---------------------------------------------------------------------
RESULT_SCHEMA = "repro.experiments.result/v2"

#: Top-level keys every result/v2 document must carry.
RESULT_REQUIRED_KEYS = (
    "schema",
    "target",
    "profile",
    "jobs",
    "executor",
    "result",
    "artifacts",
)

#: Top-level keys a result/v2 document may carry.  ``instrument`` is
#: the opt-in observability profile — wall-clock, never compared by
#: the jobs-parity gates.
RESULT_OPTIONAL_KEYS = ("instrument",)

#: Keys of one entry in the ``artifacts`` manifest.
ARTIFACT_KEYS = ("file", "arrays")


def validate_artifact_entry(entry: object,
                            where: str = "artifacts entry") -> dict:
    """Check one manifest entry; return it or raise loudly."""
    if not isinstance(entry, dict):
        raise ContractViolation(
            f"{where}: expected an object, got "
            f"{type(entry).__name__}")
    missing = [k for k in ARTIFACT_KEYS if k not in entry]
    unknown = [k for k in entry if k not in ARTIFACT_KEYS]
    if missing or unknown:
        raise ContractViolation(
            f"{where}: missing keys {missing}, unknown keys "
            f"{unknown}; declared keys are {list(ARTIFACT_KEYS)}")
    return entry


# The ``ablation`` result section (the ``ablate`` target's summary).
# Written by ``repro.ablate.importance.to_section``, read back by the
# gallery's importance-bar renderer; REP007 cross-checks both ends.

#: Keys of the ``ablation`` block inside a result payload.
ABLATION_KEYS = ("scenarios",)

#: Keys of one scenario entry under ``ablation.scenarios``.
ABLATION_SCENARIO_KEYS = ("scenario", "baseline", "floor",
                          "components")

#: Keys of the metric summaries (``baseline`` / ``floor``).
ABLATION_METRIC_KEYS = ("amplification", "p95", "slo_violations")

#: Keys of one ranked component entry.
ABLATION_COMPONENT_KEYS = ("component", "rank", "score",
                           "amplification_delta", "p95_delta",
                           "slo_delta", "harmful")


def _check_keys(obj: object, keys: tuple[str, ...],
                where: str) -> dict:
    """Exact-key-set check shared by the ablation validators."""
    if not isinstance(obj, dict):
        raise ContractViolation(
            f"{where}: expected an object, got "
            f"{type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    unknown = [k for k in obj if k not in keys]
    if missing or unknown:
        raise ContractViolation(
            f"{where}: missing keys {missing}, unknown keys "
            f"{unknown}; declared keys are {list(keys)}")
    return obj


def validate_ablation_section(block: object,
                              where: str = "ablation") -> dict:
    """Check an ``ablation`` result section; return it or raise.

    Walks the whole tree — scenario entries, their metric summaries,
    and every ranked component row — so a drifted key anywhere in the
    section fails at write/load time, not at the first reader that
    happens to touch it.
    """
    _check_keys(block, ABLATION_KEYS, where)
    scenarios = block["scenarios"]
    if not isinstance(scenarios, list):
        raise ContractViolation(
            f"{where}: 'scenarios' must be a list, got "
            f"{type(scenarios).__name__}")
    for i, scenario_entry in enumerate(scenarios):
        at = f"{where}.scenarios[{i}]"
        _check_keys(scenario_entry, ABLATION_SCENARIO_KEYS, at)
        _check_keys(scenario_entry["baseline"], ABLATION_METRIC_KEYS,
                    f"{at}.baseline")
        _check_keys(scenario_entry["floor"], ABLATION_METRIC_KEYS,
                    f"{at}.floor")
        rows = scenario_entry["components"]
        if not isinstance(rows, list):
            raise ContractViolation(
                f"{at}: 'components' must be a list, got "
                f"{type(rows).__name__}")
        for j, component_entry in enumerate(rows):
            _check_keys(component_entry, ABLATION_COMPONENT_KEYS,
                        f"{at}.components[{j}]")
    return block


def validate_result(payload: object) -> dict:
    """Validate a result/v2 document tree; return it or raise.

    Both ends call this: the CLI writer immediately before
    ``result.json`` is saved, and every reader (the gallery renderer,
    tests, CI scripts) immediately after loading — so a key added on
    one side only fails at the first run, not at the first consumer
    that happens to touch it.
    """
    if not isinstance(payload, dict):
        raise ContractViolation(
            f"result document: expected an object, got "
            f"{type(payload).__name__}")
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA:
        raise ContractViolation(
            f"result document schema {schema!r} != declared "
            f"{RESULT_SCHEMA!r}")
    allowed = set(RESULT_REQUIRED_KEYS) | set(RESULT_OPTIONAL_KEYS)
    missing = [k for k in RESULT_REQUIRED_KEYS if k not in payload]
    unknown = [k for k in payload if k not in allowed]
    if missing or unknown:
        raise ContractViolation(
            f"result document: missing keys {missing}, unknown keys "
            f"{unknown}; declared keys are "
            f"{sorted(allowed)}")
    artifacts = payload["artifacts"]
    if not isinstance(artifacts, list):
        raise ContractViolation(
            f"result document: 'artifacts' must be a list, got "
            f"{type(artifacts).__name__}")
    for i, entry in enumerate(artifacts):
        validate_artifact_entry(entry, where=f"artifacts[{i}]")
    result = payload["result"]
    if isinstance(result, dict) and "ablation" in result:
        validate_ablation_section(result["ablation"],
                                  where="result.ablation")
    return payload


# ---------------------------------------------------------------------
# Shard frame protocol (repro.cluster.transport)
# ---------------------------------------------------------------------
#: Version byte carried by every frame (and by the build spec).  Bump
#: on any message-layout change; both sides reject a mismatch.
#: Version 3 retired RANGE (code 5); version 4 retired STATS (6),
#: SET_KEEP (8) and SET_THRESHOLD (9).  No code was renumbered.
PROTOCOL_VERSION = 4

#: Frame header: little-endian ``version(u8) code(u8) seq(u64)``.
FRAME = struct.Struct("<BBQ")

# Request codes — REP007 cross-checks both directions: each needs a
# consumer (its dispatch arm) in repro.cluster.transport, and every
# MSG_ name used there must be declared here.
# ``settings`` is the rebuild threshold and the TRIM keep fraction
# (f64 each, NaN for None), applied before serving; ``stats`` is the
# packed WorkerStats after serving.
MSG_REPLAY = 1       # body: settings + event batch -> found + probes
#                                                      + stats
MSG_LOOKUP = 2       # body: i64 keys               -> found + probes
MSG_INSERT = 3       # body: settings + i64 keys    -> stats
MSG_DELETE = 4       # body: settings + i64 keys    -> stats
MSG_LIVE_KEYS = 7    # body: ()                     -> i64 keys
MSG_REBUILD = 10     # body: settings               -> stats
MSG_DIGEST = 11      # body: ()                     -> utf-8 digest
MSG_SHUTDOWN = 12    # body: ()                     -> () then exit

REQUEST_CODES = {
    "MSG_REPLAY": MSG_REPLAY,
    "MSG_LOOKUP": MSG_LOOKUP,
    "MSG_INSERT": MSG_INSERT,
    "MSG_DELETE": MSG_DELETE,
    "MSG_LIVE_KEYS": MSG_LIVE_KEYS,
    "MSG_REBUILD": MSG_REBUILD,
    "MSG_DIGEST": MSG_DIGEST,
    "MSG_SHUTDOWN": MSG_SHUTDOWN,
}

# Reply codes.  A worker's handshake is a REPLY_OK with seq 0 whose
# body is one byte — 1 when an ancestor (the fork server) imported the
# transport module, 0 when the worker imported it itself — followed
# by the replica's first stats.
REPLY_OK = 100
REPLY_ERR = 101      # body: utf-8 "<Type>: <message>"

REPLY_CODES = {
    "REPLY_OK": REPLY_OK,
    "REPLY_ERR": REPLY_ERR,
}

if len(set(REQUEST_CODES.values())) != len(REQUEST_CODES) or \
        set(REQUEST_CODES.values()) & set(REPLY_CODES.values()):
    raise AssertionError("frame message codes must be unique")


# ---------------------------------------------------------------------
# REVB columnar event batch (repro.workload.columnar)
# ---------------------------------------------------------------------
#: Wire format of a serialized event batch (the cross-process unit of
#: ``ServingBackend.replay_ops``): a little-endian header
#: ``magic(4s) version(u8) pad(3) count(u64)`` followed by the three
#: columns as raw bytes — kinds as ``int8``, keys and aux as
#: ``int64``.  Bump :data:`WIRE_VERSION` on any layout change; decode
#: rejects mismatched versions so a stale worker fails loudly instead
#: of misreading columns.
WIRE_MAGIC = b"REVB"
WIRE_VERSION = 1
WIRE_HEADER = struct.Struct("<4sB3xQ")
