"""Known-clean REP003 twin: a tick with no clock, costed by a proxy."""


def run_tick(events, metrics):
    probes = sum(event.probes for event in events)
    metrics.inc("tick.probes", probes)
    return {"cost": probes}
