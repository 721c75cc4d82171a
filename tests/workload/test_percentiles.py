"""The tick loops' percentile helper against ``np.percentile``.

``TickDriver`` records each tick's probe p50/p95/p99 and the replay's
final ones, and the cluster simulator each tenant's and shard's p95,
through ``repro.workload.simulator.percentiles``; every recorded
series and report digest depends on it matching ``np.percentile`` bit
for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.simulator import percentiles


class TestPercentiles:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 500),
           shape=st.sampled_from(["random", "wide", "constant",
                                  "two-valued"]),
           q=st.sampled_from([(50, 95, 99), (95,)]),
           seed=st.integers(0, 2**31 - 1))
    def test_equals_np_percentile_bit_for_bit(self, n, shape, q, seed):
        rng = np.random.default_rng(seed)
        if shape == "random":
            values = rng.integers(0, 64, n)
        elif shape == "wide":
            values = rng.integers(-2**61, 2**61, n)
        elif shape == "constant":
            values = np.full(n, rng.integers(-2**61, 2**61))
        else:
            values = rng.choice(rng.integers(-100, 100, 2), n)
        got = percentiles(values, q)
        assert np.array_equal(got.view(np.int64),
                              np.percentile(values, q).view(np.int64))
        if q == (95,):
            # The cluster's per-tenant and per-shard calls replaced a
            # scalar-q np.percentile.
            scalar = np.float64(np.percentile(values, 95))
            assert got[0].view(np.int64) == scalar.view(np.int64)
