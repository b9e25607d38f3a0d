"""Per-layer self-time tracing by wrapping ``repro``'s public entry points.

Installed only in traced rounds.  Each wrapper times its call; a call's
*self* time is its duration minus the time spent in wrapped calls it
made, so the self times of one thread add up to the covered part of the
wall clock and the rest is reported as unattributed.

Callers often bind entry points with ``from x import f``, so a wrapper is
installed in the defining module *and* in every loaded ``repro`` module
that holds the original object.  Methods are wrapped on their class.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time

#: (metric, module, attribute path, call-count metric or None)
ENTRY_POINTS = (
    ("timing.sta_s", "repro.timing.incremental", "TimingSession.report",
     "timing.sta_calls"),
    ("timing.sta_s", "repro.timing.sta", "run_sta", "timing.sta_calls"),
    ("place.global_s", "repro.place.quadratic", "global_place", None),
    ("place.legalize_s", "repro.place.legalizer", "legalize", None),
    ("partition.fm_s", "repro.partition.bins", "bin_fm_partition", None),
    ("partition.fm_s", "repro.partition.fm", "fm_bipartition", None),
    ("partition.pinning_s", "repro.partition.timing_driven",
     "timing_based_pinning", None),
    ("partition.repartition_s", "repro.partition.repartition",
     "repartition_eco", None),
    ("flow.synthesis_s", "repro.flow.synthesis", "initial_sizing", None),
    ("flow.opt_s", "repro.flow.opt", "optimize_timing", None),
    ("flow.opt_s", "repro.flow.opt", "recover_area", None),
    ("flow.finalize_s", "repro.flow.report", "finalize_design", None),
    ("netlist.generate_s", "repro.netlist.generators", "generate_netlist",
     None),
    ("cts.s", "repro.cts.tree", "ClockTreeSynthesizer.run", None),
    ("route.s", "repro.route.report", "route_design", None),
    ("route.s", "repro.route.congestion", "analyze_congestion", None),
    ("power.s", "repro.power.analysis", "analyze_power", None),
    ("power.s", "repro.power.activity", "propagate_activities", None),
    ("experiments.period_search_s", "repro.experiments.runner",
     "find_target_period", None),
    ("experiments.cache_read_s", "repro.experiments.cache", "load_payload",
     None),
    ("experiments.cache_write_s", "repro.experiments.cache", "store_payload",
     None),
    ("dse.evaluate_s", "repro.experiments.dse.search", "evaluate_config",
     None),
    ("integrity.checkpoint_s", "repro.integrity.checkpoint",
     "write_checkpoint", None),
    ("integrity.checkpoint_s", "repro.integrity.checkpoint",
     "load_checkpoint", None),
    ("integrity.checkpoint_s", "repro.integrity.checkpoint",
     "rebind_checkpoint_tier_library", None),
    ("serve.submit_s", "repro.serve.client", "ServeClient.submit", None),
)

TIME_METRICS = tuple(dict.fromkeys(m for m, *_ in ENTRY_POINTS))
COUNT_METRICS = tuple(dict.fromkeys(c for *_, c in ENTRY_POINTS if c))


class Tracer:
    """Self time and call counts per metric, across threads."""

    def __init__(self) -> None:
        self.self_s = {m: 0.0 for m in TIME_METRICS}
        self.calls = {m: 0 for m in COUNT_METRICS}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, metric: str, count_metric: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = stack[-1] if stack else None
            frame = [metric, 0.0]  # metric, time in wrapped children
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if outer is not None:
                    outer[1] += duration
                with tracer._lock:
                    tracer.self_s[metric] += duration - frame[1]
                    if count_metric and (outer is None or outer[0] != metric):
                        tracer.calls[count_metric] += 1

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls)}

    def install(self) -> None:
        """Wrap every entry point wherever ``repro`` modules bind it."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        replaced = {}
        for metric, module_name, path, count_metric in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, name)
            wrapper = self.wrap(original, metric, count_metric)
            setattr(owner, name, wrapper)
            if not parents:
                replaced[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def merge(snapshots) -> dict:
    """Add up several processes' snapshots."""
    total = {"self_s": {m: 0.0 for m in TIME_METRICS},
             "calls": {m: 0 for m in COUNT_METRICS}}
    for snap in snapshots:
        for kind in ("self_s", "calls"):
            for key, value in snap.get(kind, {}).items():
                total[kind][key] = total[kind].get(key, 0) + value
    return total


def install_with_dump(directory: str) -> Tracer:
    """Trace this process and write its totals to ``directory`` at exit.

    For processes whose results the benchmark cannot collect directly:
    the serving daemon's workers, which exit when the daemon drains.
    """
    tracer = Tracer()
    tracer.install()
    path = os.path.join(directory, f"layers-{os.getpid()}.json")

    def dump() -> None:
        with open(path, "w") as fh:
            json.dump(tracer.snapshot(), fh)

    atexit.register(dump)
    return tracer
