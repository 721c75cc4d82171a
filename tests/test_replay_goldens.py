"""Golden digests of serving and cluster replays.

Both parity arms run through one tick driver, so a driver regression
moves them together; these digests pin the production arm's absolute
output.  Each covers ``to_dict()`` plus every array in the report's
``series``, ``tenant_series`` and ``shard_series``.  After an intended
semantics change, regenerate the table with
``PYTHONPATH=src python tests/test_replay_goldens.py``.
"""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from replay_oracle import cluster, serving_fixed, serving_loop, serving_rate
from repro.workload import BACKENDS

CASES = {
    **{f"serving-fixed-{b}": partial(serving_fixed, b) for b in BACKENDS},
    **{f"serving-rate-{b}": partial(serving_rate, b) for b in BACKENDS},
    "serving-fixed-rmi-tick37": partial(serving_fixed, "rmi", 37),
    "serving-loop-rmi": partial(serving_loop, "rmi"),
    "serving-loop-dynamic": partial(serving_loop, "dynamic"),
    **{f"cluster-plain-{b}": partial(cluster, b)
       for b in ("rmi", "dynamic", "binary")},
    "cluster-plain-rmi-tick37": partial(cluster, "rmi", tick_ops=37),
    "cluster-managed-rmi": partial(cluster, "rmi", managed=True),
    "cluster-managed-dynamic": partial(cluster, "dynamic", managed=True),
}

GOLDEN = {
    "cluster-managed-dynamic": "0e62a10cea481a94",
    "cluster-managed-rmi": "f8fc2213c3f3d4a5",
    "cluster-plain-binary": "948575229530a558",
    "cluster-plain-dynamic": "e7d255b2995bede5",
    "cluster-plain-rmi": "d9bc60f742d16204",
    "cluster-plain-rmi-tick37": "ec1fec776ccb81fa",
    "serving-fixed-binary": "1f2053dadb633eb3",
    "serving-fixed-btree": "daae9893c0587678",
    "serving-fixed-dynamic": "14cb6decabb8e330",
    "serving-fixed-linear": "191a7cb32db2fb69",
    "serving-fixed-rmi": "98048e30881a09b2",
    "serving-fixed-rmi-tick37": "ffc1e33477896d77",
    "serving-loop-dynamic": "340334d1f2641696",
    "serving-loop-rmi": "8d837353953c2a54",
    "serving-rate-binary": "d420180cba440c2d",
    "serving-rate-btree": "11357eed4c1e465d",
    "serving-rate-dynamic": "3adde9344f68fc4e",
    "serving-rate-linear": "4b5896917ad04d75",
    "serving-rate-rmi": "910c485a385d295a",
}


def report_digest(report) -> str:
    """sha256 over ``to_dict()`` and every series array (NaN made
    canonical, so only values and shapes count)."""
    h = hashlib.sha256(json.dumps(report.to_dict(),
                                  sort_keys=True).encode())
    for family in ("series", "tenant_series", "shard_series"):
        for name, values in sorted(getattr(report, family, {}).items()):
            values = np.asarray(values, dtype="<f8")
            values = np.where(np.isnan(values), np.nan, values)
            h.update(f"{family}/{name}{values.shape}".encode())
            h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_golden_digest(case):
    assert report_digest(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{report_digest(CASES[case]())}",')
