"""Known-bad REP003 corpus: wall clock leaking into tick results."""

import time


def run_tick(events, metrics):
    cost = time.perf_counter()
    deadline = time.time() + 5.0
    started = time.perf_counter()
    metrics.observe("tick", time.perf_counter() - started)
    return {"cost": cost, "deadline": deadline}
