"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry point of each layer of ``repro``
and replaces every binding of it across the loaded ``repro.*`` modules
(callers such as ``runners.points`` import kernels by name, so patching
only the defining module would miss them).  Each wrapped call appends one
span (metric, start, end, parent) to an in-memory list and bumps the
layer's work counters; nothing is written until :meth:`Tracer.summary`.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans.  Spans are kept on one stack: the default
execution runs every wrapped call on the main thread.  Pool workers fork
with the wrappers in place, but what they record stays in their memory,
so a parallel pass attributes the workers' time to the backend that waits
for them (the per-process split is ``runners.backends.*_cpu_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional


def _one(arguments: Mapping[str, Any], result: Any) -> int:
    return 1


@dataclass(frozen=True)
class Target:
    """One wrapped entry point and what a call to it adds to the metrics."""

    #: Metric its spans' self time adds to.
    timer: str
    module: str
    #: ``function`` or ``Class.method`` inside ``module``.
    attr: str
    #: Counter metric -> ``fn(bound arguments, result)`` giving the increment.
    counters: Mapping[str, Callable[[Mapping[str, Any], Any], int]] = field(
        default_factory=dict
    )
    #: Metric that accumulates this process's CPU time inside the call.
    cpu: Optional[str] = None


_BACKEND = dict(
    timer="runners.backends.self_s",
    counters={"runners.backends.runs": lambda a, r: len(a["runs"])},
    cpu="runners.backends.parent_cpu_s",
)
_PERCOLATION = {
    "percolation.calls": _one,
    "percolation.sweeps": lambda a, r: a["runs"],
}

TARGETS = (
    Target("experiments.self_s", "repro.experiments.spec", "ExperimentSpec.run"),
    Target("experiments.self_s", "repro.experiments.report", "render_result"),
    Target("runners.campaign.self_s", "repro.runners.campaign", "run_campaign",
           {"runners.campaign.calls": _one}),
    Target(module="repro.runners.backends", attr="SerialBackend.execute", **_BACKEND),
    Target(module="repro.runners.backends", attr="ProcessPoolBackend.execute",
           **_BACKEND),
    Target(module="repro.runners.queue", attr="ShardedBackend.execute", **_BACKEND),
    Target("runners.points.self_s", "repro.runners.points", "evaluate_run_batch",
           {"runners.points.calls": _one}),
    Target("runners.points.self_s", "repro.runners.points", "evaluate_run",
           {"runners.points.calls": _one}),
    # The file tier is what the default execution config builds.
    Target("runners.cache.get_s", "repro.runners.cache", "ResultCache.get_many",
           {"runners.cache.keys_probed": lambda a, r: len(a["keys"]),
            "runners.cache.hits": lambda a, r: len(r)}),
    # Existence checks before memo backfills: read time, but not lookups.
    Target("runners.cache.get_s", "repro.runners.cache", "ResultCache.has"),
    Target("runners.cache.put_s", "repro.runners.cache", "ResultCache.put",
           {"runners.cache.puts": _one}),
    Target("runners.journal.self_s", "repro.runners.journal",
           "CampaignJournal.append_result", {"runners.journal.appends": _one}),
    Target("runners.journal.self_s", "repro.runners.journal",
           "CampaignJournal.discard"),
    Target("scenarios.self_s", "repro.scenarios.spec", "ScenarioSpec.realize",
           {"scenarios.realizations": _one}),
    Target("ideal.self_s", "repro.ideal.simulator", "IdealSimulator.run_campaign",
           {"ideal.broadcasts": lambda a, r: a["n_broadcasts"]}),
    Target("detailed.batched.self_s", "repro.detailed.batched", "run_batch",
           {"detailed.batched.seed_runs": lambda a, r: len(a["sims"])}),
    Target("detailed.reference.self_s", "repro.detailed.simulator",
           "DetailedSimulator.run_reference", {"detailed.reference.runs": _one}),
    Target("percolation.self_s", "repro.percolation.threshold",
           "estimate_critical_bond_fraction", _PERCOLATION),
    Target("percolation.self_s", "repro.percolation.site",
           "coverage_site_fraction", _PERCOLATION),
    Target("analysis.self_s", "repro.analysis.objectives", "operating_points",
           {"analysis.calls": _one}),
    Target("analysis.self_s", "repro.analysis.pareto", "pareto_frontier",
           {"analysis.calls": _one}),
    Target("analysis.self_s", "repro.analysis.selectors", "knee_index",
           {"analysis.calls": _one}),
    Target("analysis.self_s", "repro.analysis.compare", "compare_frontiers",
           {"analysis.calls": _one}),
)

TIMERS = tuple(dict.fromkeys(target.timer for target in TARGETS))
#: Work counts, which repeat exactly across passes at one seed.
COUNTERS = tuple(dict.fromkeys(name for t in TARGETS for name in t.counters))


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


class Tracer:
    """Span and counter store shared by every wrapper of one pass."""

    def __init__(self) -> None:
        #: ``[timer, start, end, parent index]`` per wrapped call.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [target.timer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            cpu_start = cpu_clock() if target.cpu else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if target.cpu:
                    counts[target.cpu] += cpu_clock() - cpu_start
            if target.counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, increment in target.counters.items():
                    counts[metric] += increment(bound.arguments, result)
            return result

        return traced

    def summary(self, regen_s: float) -> Dict[str, float]:
        """Layer self times, counters and derived ratios for one pass."""
        child_time = [0.0] * len(self.spans)
        for _timer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics: Dict[str, float] = {timer: 0.0 for timer in TIMERS}
        for index, (timer, start, end, _parent) in enumerate(self.spans):
            metrics[timer] += (end - start) - child_time[index]
        for target in TARGETS:
            for metric in (*target.counters, *([target.cpu] if target.cpu else ())):
                metrics[metric] = float(self.counts.get(metric, 0.0))
        metrics["unattributed_s"] = regen_s - sum(metrics[t] for t in TIMERS)
        metrics["runners.cache.hit_ratio"] = _ratio(
            metrics["runners.cache.hits"], metrics["runners.cache.keys_probed"]
        )
        metrics["ideal.ms_per_broadcast"] = _ratio(
            metrics["ideal.self_s"], metrics["ideal.broadcasts"], 1000.0
        )
        metrics["detailed.batched.ms_per_seed_run"] = _ratio(
            metrics["detailed.batched.self_s"],
            metrics["detailed.batched.seed_runs"],
            1000.0,
        )
        metrics["detailed.batched_ratio"] = _ratio(
            metrics["detailed.batched.seed_runs"],
            metrics["detailed.batched.seed_runs"] + metrics["detailed.reference.runs"],
        )
        return metrics


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro.*`` module-level binding of ``original`` elsewhere."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def install() -> Tracer:
    """Wrap every target; raises if one no longer exists as a function."""
    tracer = Tracer()
    for target in TARGETS:
        owner: Any = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner).get(name)
        if not inspect.isfunction(original):
            raise TypeError(f"{target.module}.{target.attr} is not a function")
        wrapped = tracer.wrap(target, original)
        if path:
            setattr(owner, name, wrapped)
        elif _rebind(original, wrapped) == 0:
            raise RuntimeError(f"{target.module}.{target.attr} has no binding")
    return tracer
