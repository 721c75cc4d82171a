"""Experiment harness: one module per paper figure plus ablations.

Every figure module exposes ``run(config) -> result`` and result
objects with a ``format()`` method that prints paper-comparable
tables.  The A-series ablations are one registry instead:
:data:`ablations.ABLATIONS` holds a spec per target, and
``ablations.run(name, **knobs)`` returns its rows.  Every sweep
reaches the engine through :func:`repro.runtime.sweep`.
``python -m repro.experiments <name>`` runs one, from a target table
built out of the same registry.
"""

from . import (
    ablations,
    fig2_compound_effect,
    fig3_loss_landscape,
    fig4_greedy_showcase,
    fig6_rmi_synthetic,
    fig7_rmi_realworld,
    regression_sweep,
    workload_serving,
)
from .regression_sweep import fig5_config, fig8_config, run_sweep
from .report import (
    DuelRow,
    ascii_boxplot,
    format_gap,
    format_ratio,
    render_duel,
    render_table,
    section,
)

__all__ = [
    "fig2_compound_effect",
    "fig3_loss_landscape",
    "fig4_greedy_showcase",
    "regression_sweep",
    "fig5_config",
    "fig8_config",
    "run_sweep",
    "fig6_rmi_synthetic",
    "fig7_rmi_realworld",
    "workload_serving",
    "ablations",
    "section",
    "render_table",
    "ascii_boxplot",
    "format_ratio",
    "format_gap",
    "DuelRow",
    "render_duel",
]
