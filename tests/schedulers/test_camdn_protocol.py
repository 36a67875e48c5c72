"""The CaMDN schedulers run one layer protocol: ``CaMDNSystem``'s.

Without native code every layer start, page wait, timeout and layer end
of a CaMDN policy reaches a scheduler hook.  Each hook must make exactly
one call into the system's layer protocol: a layer start (or a poll of
a waiting layer) one ``begin_layer``, a timeout one ``retry_layer``, a
layer end one ``finish_layer``.
"""

from collections import Counter

from repro.config import SoCConfig
from repro.core.camdn import CaMDNSystem
from repro.models.zoo import build_model
from repro.schedulers import make_scheduler
from repro.schedulers.camdn_common import CaMDNSchedulerBase
from repro.sim.engine import MultiTenantEngine
from repro.sim.scenario import ScenarioSpec
from repro.sim.workload import ScenarioWorkload

#: Twelve tenants on a 2 MiB cache: layers wait for pages, and some
#: waits time out.
KEYS = ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP.",
        "RS.", "MB.", "EF.", "VT.")

#: Scheduler hook -> the one system call it makes.
PROTOCOL = {
    "begin_layer": "begin_layer",
    "timeout_layer": "retry_layer",
    "on_layer_end": "finish_layer",
}


def _record_protocol(monkeypatch):
    """Log every hook call with the system calls made inside it."""
    log = []
    inside = []

    def wrap_hook(name):
        hook = getattr(CaMDNSchedulerBase, name)

        def logged(scheduler, instance, now):
            calls = []
            log.append((name, calls))
            inside.append(calls)
            try:
                return hook(scheduler, instance, now)
            finally:
                inside.pop()

        monkeypatch.setattr(CaMDNSchedulerBase, name, logged)

    def wrap_system(name):
        step = getattr(CaMDNSystem, name)

        def logged(system, *args):
            assert inside, f"CaMDNSystem.{name} called outside a hook"
            inside[-1].append(name)
            return step(system, *args)

        monkeypatch.setattr(CaMDNSystem, name, logged)

    for hook, step in PROTOCOL.items():
        wrap_hook(hook)
        wrap_system(step)
    return log


def test_every_layer_hook_is_one_system_call(monkeypatch):
    log = _record_protocol(monkeypatch)
    spec = ScenarioSpec.closed_loop(KEYS, inferences=1)
    result = MultiTenantEngine(
        SoCConfig().with_cache_bytes(2 << 20), make_scheduler("camdn-full"),
        ScenarioWorkload(spec), use_native=False,
    ).run()

    for hook, calls in log:
        assert calls == [PROTOCOL[hook]], hook
    counts = Counter(hook for hook, _ in log)
    layers = sum(len(build_model(key).layers) for key in KEYS)
    assert counts["on_layer_end"] == layers
    assert counts["timeout_layer"] == result.scheduler_stats["timeouts"]
    assert counts["timeout_layer"] > 0
    # Every layer starts once; waiting layers are also polled.
    assert counts["begin_layer"] > layers
