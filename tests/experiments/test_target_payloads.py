"""Golden ``result`` payloads of the A-series CLI targets.

Each target runs through ``main([name, "--quick", "--out", tmp])`` and
its ``result`` payload must match the recorded golden: the same key
sets, row order, ints, bools and strings, and floats within rel 1e-9
or abs 1e-12 — the BLAS slack ``test_determinism.py`` allows (a7
refits through ``np.linalg.lstsq``, and a8's ``max_slope_error`` is
rounding noise).  A1's wall-clock columns are left out.  a4 and a5
take several seconds each and are not pinned here.

Regenerate only after an intended change to an ablation's numbers::

    PYTHONPATH=src python tests/experiments/test_target_payloads.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments.__main__ import main

GOLDEN_PATH = Path(__file__).parent / "golden_target_payloads.json"

TARGETS = ("a1-bruteforce", "a2-trim", "a3-cost", "a6-deletion",
           "a7-polynomial", "a8-blackbox", "a9-updates", "a10-ridge",
           "a11-adversaries")

#: A1 is a timing benchmark: these columns differ on every run.
WALL_CLOCK = ("fast_seconds", "brute_seconds", "speedup")


def cli_payload(name: str, out_dir: Path) -> dict:
    """The target's ``result`` payload, minus A1's wall clock."""
    assert main([name, "--quick", "--out", str(out_dir)]) == 0
    document = json.loads(
        (out_dir / name / "result.json").read_text())
    payload = document["result"]
    if name == "a1-bruteforce":
        payload = {"rows": [
            {key: value for key, value in row.items()
             if key not in WALL_CLOCK}
            for row in payload["rows"]]}
    return payload


def assert_matches(got, want, where: str) -> None:
    """Exact structure and scalars; floats within the BLAS slack."""
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), where
        assert len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{index}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
            where, got, want)
    else:
        assert type(got) is type(want), where
        assert got == want, where


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_pinned_target(golden):
    assert sorted(golden) == sorted(TARGETS)


@pytest.mark.parametrize("name", TARGETS)
def test_payload_matches_golden(name, golden, tmp_path):
    assert_matches(cli_payload(name, tmp_path), golden[name], name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {name: cli_payload(name, Path(scratch))
                    for name in TARGETS}
    GOLDEN_PATH.write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} payloads to {GOLDEN_PATH}",
          file=sys.stderr)
