"""Command-line entry point: ``python -m repro.experiments <target>``.

Targets mirror the paper's figures and the ablations, plus the
streaming serving grid:

    fig2 fig3 fig4 fig5 fig6 fig7 fig8
    workload closedloop cluster ablate
    a1-bruteforce a2-trim a3-cost a4-alpha a5-allocation a6-deletion
    a7-polynomial a8-blackbox a9-updates a10-ridge a11-adversaries
    all

The target table is built, not hand-written: one entry per
:data:`repro.experiments.ablations.ABLATIONS` spec, one per grid
module with ``quick_config``/``full_config``/``run``/``plan_cells``
(fig6, fig7, workload, closedloop), and one per regression sweep
(fig5, fig8).  Only ``cluster`` (transport and the replica duel) and
``ablate`` (``--components``) keep their own functions.

``--profile quick`` (default, ``--quick`` is an alias) runs the
scaled-down configurations; ``--profile full`` runs the larger grids.

``workload`` replays streaming scenarios (query mixes × poison
schedules × index backends) through the serving simulator.

``closedloop`` runs the control-loop grids (arrival models ×
backends × injection policies × fixed/tuned defense) — the
adaptive-vs-oblivious duel with per-cell ``.npz`` series including
the ``injected``/``keep_fraction``/``rebuild_threshold`` channels.

``cluster`` runs the sharded multi-tenant grids (tenant layouts ×
shard counts × backends × poison placements × static/managed
defense) — the concentrated-vs-uniform placement duel with per-cell
``.npz`` series including the per-tenant (``tenant_*``) and
per-shard (``shard_*``) 2D channels.

``ablate`` runs the leave-one-out defense-ablation grids: per
scenario (the closed-loop drip duel and the sharded victim cluster)
an all-on baseline, one cell per removed defense component, and an
all-off floor, ranked into a per-component importance report
(``--list-components`` prints the registry; ``--components``
restricts the axes).

Runtime flags (engine-backed targets: every target except
fig2-fig4):

``--jobs N``
    Fan the sweep's cells out over N workers.  Results are
    bit-identical to ``--jobs 1``.  (Sole exception:
    ``a1-bruteforce`` is a timing benchmark, so its wall-clock
    columns — and only those — differ between any two runs, and at
    ``--jobs`` > 1 they additionally measure worker contention; its
    equivalence verdicts are deterministic.)
``--executor {process,thread}``
    Pool backend for ``--jobs`` > 1.  ``process`` (default) isolates
    cells in worker processes; ``thread`` skips pickling and suits the
    numpy-heavy cell runners, whose kernels release the GIL.  Both
    backends produce identical results.
``--out DIR``
    Checkpoint completed cells under ``DIR/<target>/`` and write the
    aggregated summary to ``DIR/<target>/result.json``.  Cells that
    emit array artifacts (fig7 poison sets, a2 poison sets) store them
    as sibling ``.npz`` files, indexed by the result's artifact
    manifest.
``--resume``
    With ``--out``, reuse completed cells from a previous (possibly
    interrupted) run instead of recomputing them.
``--transport {inproc,process}`` / ``--replicas K``
    Only the ``cluster`` and ``ablate`` targets (and ``all``) serve
    shards; any other target rejects a non-default value.
``--instrument``
    Opt-in observability: install a
    :class:`repro.observe.MetricsRegistry` for the duration of each
    target and attach its profile (deterministic counters + trace
    event count, wall-clock stage timings) to ``result.json`` under
    the sibling ``instrument`` key.  The ``result`` payload is
    byte-identical with or without the flag.

Targets that are not sweeps ignore ``--jobs``/``--executor``/
``--resume`` and simply skip the ``result.json`` payload.

The ``report`` pseudo-target runs nothing: with ``--out DIR`` it
renders deterministic SVG figure galleries from every
``DIR/<target>/result.json`` already on disk — see
:mod:`repro.observe.gallery`.

Result schema (``repro.experiments.result/v2``)
-----------------------------------------------
``result.json`` carries::

    {
      "schema":    "repro.experiments.result/v2",
      "target":    "<target name>",
      "profile":   "quick" | "full",
      "jobs":      <int>,
      "executor":  "process" | "thread",
      "result":    { ... target-specific summary ... },
      "artifacts": [{"file": "cells/<name>.npz",
                     "arrays": ["<array name>", ...]}, ...]
    }

v1 -> v2 compatibility: v2 adds the ``executor`` and ``artifacts``
keys and changes nothing else — the ``result`` payload of every
pre-existing target is byte-compatible with v1, so readers that only
consume ``result`` keep working unchanged.  Readers that dispatch on
``schema`` should accept both ids and treat a missing ``artifacts``
list (v1) as empty.  Each artifact entry names a ``.npz`` relative to
the target's output directory, loadable with
:func:`repro.io.load_arrays`.  The manifest covers exactly the cells
of the run that wrote the result — stale artifacts of other grids
sharing the (content-addressed) checkpoint directory are never
listed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from .. import ablate, io, observe
from ..contracts import RESULT_SCHEMA, validate_result
from ..observe import gallery
from ..runtime import EXECUTORS, CheckpointStore
from . import (
    ablations,
    closedloop_serving,
    cluster_serving,
    fig2_compound_effect,
    fig3_loss_landscape,
    fig4_greedy_showcase,
    fig6_rmi_synthetic,
    fig7_rmi_realworld,
    workload_serving,
)
from .regression_sweep import fig5_config, fig8_config, run_sweep
from .regression_sweep import plan_cells as plan_regression


@dataclass(frozen=True)
class RunOptions:
    """Parsed runtime flags handed to every target."""

    profile: str = "quick"
    jobs: int = 1
    out: Path | None = None
    resume: bool = False
    executor: str = "process"
    progress: bool = False
    transport: str = "inproc"
    replicas: int = 1
    components: "tuple[str, ...] | None" = None

    def checkpoint_dir(self, target: str) -> Path | None:
        """Per-target checkpoint directory under ``--out`` (if any)."""
        return self.out / target if self.out is not None else None

    def engine_kwargs(self, target: str) -> dict[str, Any]:
        """The runtime keywords every engine-backed target forwards."""
        return {
            "jobs": self.jobs,
            "checkpoint_dir": self.checkpoint_dir(target),
            "resume": self.resume,
            "executor": self.executor,
            "progress": (_stderr_progress(target) if self.progress
                         else None),
        }


def _stderr_progress(target: str) -> Callable[[Any], None]:
    """A ``SweepProgress`` printer for long sweeps (stderr, one line
    per completed cell, so piped stdout tables stay clean)."""
    def report(event: Any) -> None:
        eta = (f", eta {event.eta_seconds:.0f}s"
               if event.eta_seconds is not None else "")
        print(f"[{target}] {event.done}/{event.total} cells "
              f"({event.reused} reused) "
              f"{event.seconds_elapsed:.1f}s elapsed{eta}",
              file=sys.stderr, flush=True)
    return report


# Each target returns (formatted text, JSON payload or None, plan).
# The plan — this run's cells — scopes the artifact manifest: the
# checkpoint directory is content-addressed and shared across runs, so
# only the current plan's artifacts belong in this run's result.json.
TargetOutput = tuple[str, "dict[str, Any] | None", "list[Any]"]
Target = Callable[[RunOptions], TargetOutput]


def _profile_config(module: Any, opts: RunOptions) -> Any:
    """The module's ``full_config()`` or ``quick_config()``."""
    return (module.full_config() if opts.profile == "full"
            else module.quick_config())


def _grid(name: str, module: Any) -> Target:
    """A grid module's target: ``quick_config``/``full_config`` by
    profile, then its ``run`` and ``plan_cells``."""
    def target(opts: RunOptions) -> TargetOutput:
        config = _profile_config(module, opts)
        result = module.run(config, **opts.engine_kwargs(name))
        return result.format(), result.to_dict(), module.plan_cells(config)
    return target


def _regression(name: str, make_config: Callable[[str], Any]) -> Target:
    """Fig. 5 or Fig. 8: the regression sweep on its profile's grid."""
    def target(opts: RunOptions) -> TargetOutput:
        config = make_config(opts.profile)
        result = run_sweep(config, **opts.engine_kwargs(name))
        return result.format(), result.to_dict(), plan_regression(config)
    return target


def _ablation(name: str) -> Target:
    """An A-series target from its :data:`ablations.ABLATIONS` spec."""
    spec = ablations.ABLATIONS[name]

    def target(opts: RunOptions) -> TargetOutput:
        rows = ablations.run(name, **opts.engine_kwargs(name))
        return (spec.format(rows), ablations.payload(name, rows),
                spec.plan())
    return target


def _run_cluster(opts: RunOptions) -> TargetOutput:
    """The sharded grid; ``--transport process`` runs it over worker
    processes (bit-identical numbers — the parity contract), and with
    ``--replicas >= 3`` appends the poisoned-replica duel (quorum
    reads + divergence detection vs naive primary reads)."""
    config = replace(_profile_config(cluster_serving, opts),
                     transport=opts.transport,
                     replicas=opts.replicas)
    result = cluster_serving.run(config,
                                 **opts.engine_kwargs("cluster"))
    text, payload = result.format(), result.to_dict()
    if opts.transport == "process" and opts.replicas >= 3:
        duel = cluster_serving.run_poisoned_replica_scenario(
            replicas=opts.replicas)
        text = f"{text}\n\n{duel.format()}"
        payload["replication_duel"] = duel.to_dict()
    return text, payload, cluster_serving.plan_cells(config)


def _run_ablate(opts: RunOptions) -> TargetOutput:
    """The leave-one-out defense-ablation grid: an all-on baseline,
    one cell per removed component, and an all-off floor per
    scenario, ranked by how much victim damage each removal
    re-admits.  ``--components`` restricts which one-off cells run;
    ``--transport process --replicas >= 3`` adds the replication
    layer (quorum + divergence detection) as an ablation axis."""
    config = replace(_profile_config(ablate, opts),
                     transport=opts.transport, replicas=opts.replicas,
                     components=opts.components)
    result = ablate.run(config, **opts.engine_kwargs("ablate"))
    return (result.format(), result.to_dict(),
            ablate.plan_cells(config))


def _format_components() -> str:
    """The ``--list-components`` registry table."""
    from .report import render_table, section
    body = [[spec.name, spec.title, ",".join(spec.scenarios),
             spec.requires(), spec.description]
            for spec in ablate.COMPONENTS]
    table = render_table(
        ["component", "title", "scenarios", "requires",
         "description"], body)
    return f"{section('ablatable defense components')}\n{table}"


def _plain(render: Callable[[RunOptions], str]) -> Target:
    """Wrap a non-sweep target: formatted text only, no payload."""
    return lambda opts: (render(opts), None, [])


_TARGETS: dict[str, Target] = {
    "fig2": _plain(lambda opts: fig2_compound_effect.run().format()),
    "fig3": _plain(lambda opts: fig3_loss_landscape.run().format()),
    "fig4": _plain(lambda opts: fig4_greedy_showcase.run().format()),
    "fig5": _regression("fig5", fig5_config),
    "fig6": _grid("fig6", fig6_rmi_synthetic),
    "fig7": _grid("fig7", fig7_rmi_realworld),
    "fig8": _regression("fig8", fig8_config),
    "workload": _grid("workload", workload_serving),
    "closedloop": _grid("closedloop", closedloop_serving),
    "cluster": _run_cluster,
    "ablate": _run_ablate,
    **{name: _ablation(name) for name in ablations.ABLATIONS},
}


def _collect_artifacts(out_dir: Path,
                       plan: list[Any]) -> list[dict[str, Any]]:
    """Manifest of this run's ``.npz`` artifacts.

    Scoped to the plan's cells — the checkpoint directory is shared
    across runs (content addressing keeps stale cells of other grids
    around on purpose), but this run's result must only index its own
    artifacts.  Defensive like the checkpoint store: an unreadable
    archive is skipped rather than fatal.
    """
    store = CheckpointStore(out_dir)
    entries = []
    seen: set[str] = set()
    for cell in plan:
        if cell.digest in seen:
            continue
        seen.add(cell.digest)
        path = store.arrays_path(cell)
        if not path.exists():
            continue
        try:
            names = io.npz_array_names(path)
        except Exception:
            continue
        # as_posix keeps the manifest portable: a result written on
        # Windows must still resolve on POSIX readers.
        entries.append({"file": path.relative_to(out_dir).as_posix(),
                        "arrays": names})
    return entries


def _write_result(target: str, opts: RunOptions,
                  payload: dict[str, Any], plan: list[Any],
                  registry: "observe.MetricsRegistry | None" = None,
                  ) -> None:
    """Emit ``<out>/<target>/result.json`` with the stable schema.

    With ``--instrument``, the registry's profile lands under the
    sibling ``instrument`` key — outside ``result``, which is the
    payload the jobs-parity CI check compares, because the timing
    half of the profile is wall-clock and run-specific.
    """
    out_dir = opts.checkpoint_dir(target)
    out_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": RESULT_SCHEMA,
        "target": target,
        "profile": opts.profile,
        "jobs": opts.jobs,
        "executor": opts.executor,
        "result": payload,
        "artifacts": _collect_artifacts(out_dir, plan),
    }
    if registry is not None:
        document["instrument"] = registry.to_profile()
    # Writer-side contract check: a document this CLI cannot itself
    # re-load through the declared schema never reaches disk.
    validate_result(document)
    io.save_json(document, out_dir / "result.json")


def main(argv: list[str] | None = None) -> int:
    """Parse the target and print its tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce a figure or ablation of the paper.")
    parser.add_argument("target",
                        choices=sorted(_TARGETS) + ["all", "report"],
                        help="which experiment to run; 'report' "
                             "renders SVG figure galleries from an "
                             "existing --out tree instead of running "
                             "anything")
    parser.add_argument("--profile", choices=("quick", "full"),
                        default="quick",
                        help="quick (scaled, default) or full grids")
    parser.add_argument("--quick", action="store_true",
                        help="alias for --profile quick")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="workers for sweep targets "
                             "(default 1; results are identical)")
    parser.add_argument("--executor", choices=sorted(EXECUTORS),
                        default="process",
                        help="pool backend for --jobs > 1: isolated "
                             "processes (default) or threads for the "
                             "GIL-releasing numpy runners; results "
                             "are identical")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="checkpoint cells (and .npz artifacts) "
                             "and write result.json under "
                             "DIR/<target>/")
    parser.add_argument("--resume", action="store_true",
                        help="with --out: reuse completed cells from a "
                             "previous run")
    parser.add_argument("--progress", action="store_true",
                        help="print per-cell progress and an ETA to "
                             "stderr (engine-backed targets)")
    parser.add_argument("--transport", choices=("inproc", "process"),
                        default="inproc",
                        help="cluster target: serve shards in-process "
                             "(default) or as worker processes behind "
                             "the versioned batch protocol (results "
                             "are identical)")
    parser.add_argument("--replicas", type=int, default=1, metavar="K",
                        help="cluster/ablate targets with --transport "
                             "process: worker replicas per shard; >= 3 "
                             "also runs the poisoned-replica duel "
                             "(cluster) or ablates the replication "
                             "layer (ablate)")
    parser.add_argument("--components", default=None, metavar="NAMES",
                        help="ablate target: comma-separated defense "
                             "components to ablate (default: every "
                             "applicable component); see "
                             "--list-components")
    parser.add_argument("--list-components", action="store_true",
                        help="ablate target: print the registry of "
                             "ablatable defense components and exit")
    parser.add_argument("--instrument", action="store_true",
                        help="record counters/stage timings/trace "
                             "events while running and attach the "
                             "profile to result.json under the "
                             "'instrument' key (results themselves "
                             "are unchanged)")
    args = parser.parse_args(argv)
    if args.quick and args.profile == "full":
        parser.error("--quick contradicts --profile full")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.resume and args.out is None:
        parser.error("--resume requires --out")
    if args.replicas < 1:
        parser.error("--replicas must be >= 1")
    if args.replicas > 1 and args.transport != "process":
        parser.error("--replicas > 1 requires --transport process")
    if (args.target not in ("cluster", "ablate", "all")
            and (args.transport != "inproc" or args.replicas != 1)):
        parser.error("--transport and --replicas only apply to the "
                     "cluster and ablate targets")
    if args.out is not None and args.out.exists() and not args.out.is_dir():
        parser.error(f"--out {args.out} exists and is not a directory")
    if args.list_components and args.target != "ablate":
        parser.error("--list-components only applies to the ablate "
                     "target")
    components = None
    if args.components is not None:
        if args.target != "ablate":
            parser.error("--components only applies to the ablate "
                         "target")
        components = tuple(
            name.strip() for name in args.components.split(",")
            if name.strip())
        if not components:
            parser.error("--components must name at least one "
                         "defense component")
        for name in components:
            if name not in ablate.COMPONENT_NAMES:
                parser.error(
                    f"--components must name defense components in "
                    f"{list(ablate.COMPONENT_NAMES)}, got {name!r}")
    opts = RunOptions(profile=args.profile, jobs=args.jobs, out=args.out,
                      resume=args.resume, executor=args.executor,
                      progress=args.progress, transport=args.transport,
                      replicas=args.replicas, components=components)

    if args.list_components:
        print(_format_components())
        return 0

    if args.target == "report":
        if args.out is None:
            parser.error("report requires --out")
        for path in gallery.render_out_tree(args.out):
            print(path)
        return 0

    targets = sorted(_TARGETS) if args.target == "all" else [args.target]
    for name in targets:
        # One registry per target, so an "all" run profiles each
        # experiment separately instead of blending them.
        if args.instrument:
            registry = observe.MetricsRegistry()
            with observe.installed(registry):
                text, payload, plan = _TARGETS[name](opts)
        else:
            registry = None
            text, payload, plan = _TARGETS[name](opts)
        print(text)
        print()
        if opts.out is not None and payload is not None:
            _write_result(name, opts, payload, plan, registry=registry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
