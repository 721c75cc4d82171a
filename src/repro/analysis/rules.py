"""The REP rule corpus: this codebase's invariants as AST checks.

Every reproduction guarantee the repo sells rests on conventions the
interpreter does not enforce — seeds derived via ``stable_seed_words``
and never the salted builtin ``hash()``, deterministic cost proxies
instead of wall clock on tick paths, sorted iteration into canonical
JSON and digests, lock discipline on thread-shared state, and wire
keys that match on both ends.  Each rule here encodes one of them:

========  ============================================================
REP001    ambient / one-off-literal RNG seeding (use
          ``stable_seed_words``)
REP002    builtin ``hash()`` (PYTHONHASHSEED hazard) anywhere
REP003    any clock call on simulator/serving/cluster/transport tick
          paths (a layer is timed from outside, in perfbench)
REP004    unsorted iteration or unsorted ``json.dumps`` feeding a
          canonical-JSON / digest sink
REP005    bare non-integral float ``==``/``!=`` in assertions
REP006    attribute of a lock-owning class mutated both inside and
          outside the lock
REP007    writer/reader string keys and frame codes cross-checked
          against :mod:`repro.contracts`
========  ============================================================

A rule is a callable ``rule(tree, relpath, lines, config)`` yielding
``(line, rule_id, message)`` triples; the engine owns pragma
filtering and the baseline.  Rules are registered in :data:`RULES`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["RULES", "KeyBinding", "DispatchBinding",
           "default_bindings"]

RULES: dict = {}


def _register(rule_id: str):
    def wrap(fn):
        fn.rule_id = rule_id
        RULES[rule_id] = fn
        return fn
    return wrap


# ---------------------------------------------------------------------
# Shared resolution helpers
# ---------------------------------------------------------------------
def _alias_map(tree: ast.Module) -> dict:
    """Map local binding names to dotted module/function origins."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else \
                    alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def _dotted(node: ast.expr, aliases: dict) -> "str | None":
    """Resolve ``np.random.default_rng`` style chains to a dotted
    origin path, through the file's import aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = aliases.get(node.id, node.id)
    return ".".join([head] + list(reversed(parts)))


# ---------------------------------------------------------------------
# REP001 — unseeded / one-off-literal RNG
# ---------------------------------------------------------------------
_NP_RNG_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})


def _is_literal_seed(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool)
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(
            _is_literal_seed(el) for el in node.elts)
    return False


@_register("REP001")
def rep001_ambient_rng(tree, relpath, lines, config):
    """Ambient or one-off-literal RNG; seed via stable_seed_words."""
    if config.in_scope(relpath, config.rep001_exclude):
        return
    aliases = _alias_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path = _dotted(node.func, aliases)
        if path is None:
            continue
        if path == "random" or path.startswith("random."):
            yield (node.lineno, "REP001",
                   f"stdlib `{path}` is ambient/interpreter-global "
                   f"RNG; derive a numpy Generator via "
                   f"stable_seed_words instead")
        elif path == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield (node.lineno, "REP001",
                       "default_rng() with no seed is entropy-"
                       "seeded; derive the seed via "
                       "stable_seed_words")
            elif node.args and _is_literal_seed(node.args[0]):
                yield (node.lineno, "REP001",
                       "one-off literal seed; derive it via "
                       "stable_seed_words so streams stay stable "
                       "across processes and refactors")
        elif path.startswith("numpy.random.") \
                and path.split(".")[-1] not in _NP_RNG_OK:
            yield (node.lineno, "REP001",
                   f"`{path}` uses numpy's ambient global RNG; "
                   f"use a Generator from default_rng("
                   f"stable_seed_words(...))")


# ---------------------------------------------------------------------
# REP002 — builtin hash()
# ---------------------------------------------------------------------
@_register("REP002")
def rep002_builtin_hash(tree, relpath, lines, config):
    """Builtin hash() on seed/digest paths (PYTHONHASHSEED hazard)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "hash":
            yield (node.lineno, "REP002",
                   "builtin hash() is salted per interpreter "
                   "(PYTHONHASHSEED); use stable_text_hash / "
                   "stable_seed_words on seed and digest paths")


# ---------------------------------------------------------------------
# REP003 — wall clock on deterministic tick paths
# ---------------------------------------------------------------------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic",
    "time.monotonic_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})


@_register("REP003")
def rep003_wall_clock(tree, relpath, lines, config):
    """Any clock call on deterministic tick paths."""
    if not config.in_scope(relpath, config.rep003_scope):
        return
    aliases = _alias_map(tree)
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        path = _dotted(call.func, aliases)
        if path in _WALL_CLOCK:
            yield (call.lineno, "REP003",
                   f"wall clock `{path}` on a deterministic tick path; "
                   f"costs must be deterministic proxies (time a layer "
                   f"from outside, in perfbench)")


# ---------------------------------------------------------------------
# REP004 — unsorted iteration into canonical-JSON / digest sinks
# ---------------------------------------------------------------------
_DIGEST_SINKS = frozenset({
    "hashlib.sha256", "hashlib.sha1", "hashlib.sha512",
    "hashlib.md5", "hashlib.blake2b", "hashlib.blake2s",
    "zlib.crc32", "zlib.adler32",
})
_UNORDERED_METHODS = frozenset({"keys", "values", "items"})


def _is_digest_sink(path: "str | None", func: ast.expr) -> bool:
    if path in _DIGEST_SINKS:
        return True
    tail = path.split(".")[-1] if path else (
        func.attr if isinstance(func, ast.Attribute) else None)
    return tail is not None and "digest" in tail


def _unordered_nodes(node: ast.expr):
    """Unordered-iterable expressions not wrapped in ``sorted()``."""
    stack: list[tuple[ast.AST, bool]] = [(node, False)]
    while stack:
        current, in_sorted = stack.pop()
        wrapped = in_sorted
        if isinstance(current, ast.Call) \
                and isinstance(current.func, ast.Name) \
                and current.func.id in ("sorted", "min", "max",
                                        "sum", "len"):
            wrapped = True
        if not in_sorted:
            if isinstance(current, (ast.Set, ast.SetComp)):
                yield current
            elif isinstance(current, ast.Call):
                if isinstance(current.func, ast.Name) \
                        and current.func.id in ("set", "frozenset"):
                    yield current
                elif isinstance(current.func, ast.Attribute) \
                        and current.func.attr in _UNORDERED_METHODS \
                        and not current.args:
                    yield current
        for child in ast.iter_child_nodes(current):
            stack.append((child, wrapped))


@_register("REP004")
def rep004_unsorted_digest(tree, relpath, lines, config):
    """Unsorted iteration / json.dumps feeding canonical-JSON or digest sinks."""
    aliases = _alias_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path = _dotted(node.func, aliases)
        if path in ("json.dumps", "json.dump") \
                and config.in_scope(relpath,
                                    config.rep004_json_scope):
            sort_keys = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords)
            if not sort_keys:
                yield (node.lineno, "REP004",
                       f"`{path}` without sort_keys=True: library "
                       f"JSON feeds canonical payloads and digests; "
                       f"key order must not depend on insertion "
                       f"history")
            continue
        if not _is_digest_sink(path, node.func):
            continue
        for arg in list(node.args) + [kw.value
                                      for kw in node.keywords]:
            for bad in _unordered_nodes(arg):
                kind = ("set" if isinstance(
                    bad, (ast.Set, ast.SetComp)) else
                    getattr(getattr(bad, "func", None), "attr",
                            None) or "set()")
                yield (bad.lineno, "REP004",
                       f"unordered `{kind}` iteration feeding "
                       f"digest sink `{path or 'digest'}`; wrap in "
                       f"sorted() — hash input order must be "
                       f"canonical")


# ---------------------------------------------------------------------
# REP005 — bare float equality in assertions
# ---------------------------------------------------------------------
def _fragile_float(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) \
            and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and not isinstance(node.value, bool)
            and (node.value != node.value
                 or node.value in (float("inf"), float("-inf"))
                 or node.value % 1 != 0))


@_register("REP005")
def rep005_float_equality(tree, relpath, lines, config):
    """Bare non-integral float ==/!= in report/parity assertions."""
    if not config.in_scope(relpath, config.rep005_scope):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assert):
            continue
        for sub in ast.walk(node.test):
            if not isinstance(sub, ast.Compare):
                continue
            operands = [sub.left] + list(sub.comparators)
            for op, left, right in zip(sub.ops, operands,
                                       operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _fragile_float(left) or _fragile_float(right):
                    yield (sub.lineno, "REP005",
                           "bare float ==/!= against a non-integral "
                           "literal in an assertion; compare full "
                           "payloads bit-exactly or use an explicit "
                           "tolerance")


# ---------------------------------------------------------------------
# REP006 — lock discipline on thread-shared classes
# ---------------------------------------------------------------------
_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})
_MUTATORS = frozenset({
    "append", "add", "clear", "extend", "insert", "pop", "popitem",
    "remove", "discard", "update", "setdefault", "sort",
    "appendleft", "popleft",
})


def _self_attr(node: ast.expr) -> "str | None":
    """``self.<name>`` (possibly behind a Subscript) -> name."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _lock_attrs(cls: ast.ClassDef, aliases: dict) -> "set[str]":
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Call) \
                and _dotted(node.value.func,
                            aliases) in _LOCK_FACTORIES:
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks.add(attr)
    return locks


def _walk_mutations(node: ast.AST, locks: "set[str]",
                    under: bool, out: dict) -> None:
    if isinstance(node, ast.With):
        holds = under or any(
            _self_attr(item.context_expr) in locks
            for item in node.items)
        for child in node.body:
            _walk_mutations(child, locks, holds, out)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return  # nested scopes analyzed on their own
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is not None and attr not in locks:
                out.setdefault(attr, []).append(
                    (node.lineno, under))
    if isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _MUTATORS:
        attr = _self_attr(node.func.value)
        if attr is not None and attr not in locks:
            out.setdefault(attr, []).append((node.lineno, under))
    for child in ast.iter_child_nodes(node):
        _walk_mutations(child, locks, under, out)


@_register("REP006")
def rep006_lock_discipline(tree, relpath, lines, config):
    """Attribute mutated both inside and outside its owning lock."""
    aliases = _alias_map(tree)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls, aliases)
        if not locks:
            continue
        mutations: dict[str, list] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction is single-threaded
            for stmt in method.body:
                _walk_mutations(stmt, locks, False, mutations)
        for attr, sites in sorted(mutations.items()):
            inside = {ln for ln, under in sites if under}
            outside = sorted(ln for ln, under in sites
                             if not under)
            if inside and outside:
                for lineno in outside:
                    yield (lineno, "REP006",
                           f"`self.{attr}` of lock-owning class "
                           f"`{cls.name}` is mutated here without "
                           f"the lock but under it elsewhere "
                           f"(lines {sorted(inside)}); every "
                           f"mutation of shared state must hold "
                           f"the owning lock")


# ---------------------------------------------------------------------
# REP007 — wire/result contract cross-check
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class KeyBinding:
    """String keys read/written through variable ``var`` must be
    members of the declared ``keys`` universe."""

    var: str
    keys: frozenset
    contract: str


@dataclass(frozen=True)
class DispatchBinding:
    """Constant names with ``prefix`` must match the declared code
    registry, and every declared code must be consumed."""

    prefix: str
    names: frozenset
    contract: str


def default_bindings() -> tuple:
    """The self-hosted bindings, loaded from the declarations in
    :mod:`repro.contracts`."""
    from .. import contracts
    result_keys = frozenset(contracts.RESULT_REQUIRED_KEYS) \
        | frozenset(contracts.RESULT_OPTIONAL_KEYS)
    artifact_keys = frozenset(contracts.ARTIFACT_KEYS)
    request_names = frozenset(contracts.REQUEST_CODES)
    reply_names = frozenset(contracts.REPLY_CODES)
    ablation_keys = frozenset(contracts.ABLATION_KEYS)
    scenario_keys = frozenset(contracts.ABLATION_SCENARIO_KEYS)
    metric_keys = frozenset(contracts.ABLATION_METRIC_KEYS)
    component_keys = frozenset(contracts.ABLATION_COMPONENT_KEYS)
    return (
        ("src/repro/observe/gallery.py", (
            KeyBinding("payload", result_keys, "result/v2"),
            KeyBinding("entry", artifact_keys,
                       "result/v2 artifacts"),
            KeyBinding("ablation", ablation_keys,
                       "result ablation section"),
            KeyBinding("scenario_entry", scenario_keys,
                       "ablation scenario entry"),
            KeyBinding("component_entry", component_keys,
                       "ablation component entry"),
        )),
        ("src/repro/experiments/__main__.py", (
            KeyBinding("document", result_keys, "result/v2"),
        )),
        ("src/repro/ablate/importance.py", (
            KeyBinding("ablation", ablation_keys,
                       "result ablation section"),
            KeyBinding("block", scenario_keys,
                       "ablation scenario entry"),
            KeyBinding("metrics", metric_keys,
                       "ablation metric summary"),
            KeyBinding("row", component_keys,
                       "ablation component entry"),
        )),
        ("src/repro/cluster/transport.py", (
            DispatchBinding("MSG_", request_names,
                            "frame protocol request codes"),
            DispatchBinding("REPLY_", reply_names,
                            "frame protocol reply codes"),
        )),
    )


def _check_key_binding(tree, binding: KeyBinding):
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == binding.var \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, str):
            key = node.slice.value
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == binding.var \
                and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            key = node.args[0].value
        if key is not None and key not in binding.keys:
            yield (node.lineno, "REP007",
                   f"key {key!r} on `{binding.var}` is not declared "
                   f"by the {binding.contract} contract "
                   f"(declared: {sorted(binding.keys)})")
            continue
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name)
                        and t.id == binding.var
                        for t in node.targets) \
                and isinstance(node.value, ast.Dict):
            for key_node in node.value.keys:
                if isinstance(key_node, ast.Constant) \
                        and isinstance(key_node.value, str) \
                        and key_node.value not in binding.keys:
                    yield (key_node.lineno, "REP007",
                           f"emitted key {key_node.value!r} is not "
                           f"declared by the {binding.contract} "
                           f"contract")


def _check_dispatch_binding(tree, binding: DispatchBinding):
    used: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) \
                and node.id.startswith(binding.prefix):
            used.setdefault(node.id, node.lineno)
    for name, lineno in sorted(used.items()):
        if name not in binding.names:
            yield (lineno, "REP007",
                   f"code `{name}` is not declared in the "
                   f"{binding.contract} registry")
    for name in sorted(binding.names - set(used)):
        yield (1, "REP007",
               f"declared code `{name}` from the "
               f"{binding.contract} registry has no consumer in "
               f"this module (missing dispatch arm or wrapper?)")


@_register("REP007")
def rep007_contract_drift(tree, relpath, lines, config):
    """Writer/reader keys and frame codes vs the declared contracts."""
    bindings = config.contract_bindings
    if bindings is None:
        bindings = default_bindings()
    for path, module_bindings in bindings:
        if not (relpath == path or relpath.endswith("/" + path)):
            continue
        for binding in module_bindings:
            if isinstance(binding, KeyBinding):
                yield from _check_key_binding(tree, binding)
            else:
                yield from _check_dispatch_binding(tree, binding)
