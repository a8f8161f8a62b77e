"""One benchmark pass, run in a fresh process by ``run.py``.

Usage: ``python pass_main.py '<json spec>'`` with ``PYTHONPATH`` pointing
at the program's ``src``.  The spec names the mode (``probe``: import and
exit; ``seed-check``: render one cheap artifact at two seeds, uncached;
``pass``: regenerate a pinned artifact set), the scale, the artifact ids,
``jobs``, the private cache directory, the seed, whether to trace, and
the file the pass writes its JSON record to.

The process is *ready* once interpreter start-up and the imports every
``run-all`` pays (``repro.cli`` and the experiment registry) are done;
``run.py`` times set-up from its launch to that instant.
"""

import hashlib
import json
import resource
import signal
import sys
import time

#: Reference time of one :func:`calibrate` call: times are reported at the
#: CPU speed that runs it in this long (its median on a 2-core x86 cloud VM).
CALIBRATION_REF_S = 0.006
#: Period of the calibration samples inside a serial artifact.
SAMPLE_INTERVAL_S = 0.5
_CALIBRATION_PAYLOAD = [
    {"key": f"{i:040d}", "version": 3, "metrics": {"a": i * 0.5, "b": [1, 2, 3]}}
    for i in range(300)
]


def _build_scale(Scale, scale_name, seed):
    import dataclasses

    from pins import SCALES

    pinned = SCALES[scale_name]
    scale = dataclasses.replace(Scale(**pinned), base_seed=seed)
    preset = Scale.full() if scale_name == "full" else Scale.fast()
    drift = sorted(
        name for name, value in pinned.items() if getattr(preset, name) != value
    )
    return scale, drift


def calibrate() -> float:
    """Seconds this process takes right now for a fixed mix of the program's
    kinds of work: dict and string building, sorting, JSON and arithmetic."""
    started = time.perf_counter()
    table = {f"key{i}": (i, str(i)) for i in range(5000)}
    sorted(table, reverse=True)
    json.loads(json.dumps(_CALIBRATION_PAYLOAD))
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - started


class _Sampler:
    """Calibration samples taken every ``interval`` seconds (SIGALRM) while
    an artifact renders, so a long artifact's speed is sampled throughout."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _render_all(get_experiment, scale, ids, sample_interval=None):
    """Digest of the rendered artifacts, their wall time and reference time.

    Calibration samples bracket every artifact, and with
    ``sample_interval`` also fall inside it; their time is excluded.  Each
    artifact's wall time is rescaled by the mean of ``CALIBRATION_REF_S /
    sample`` over its samples to the time it would take on a CPU that runs
    :func:`calibrate` in ``CALIBRATION_REF_S``.  That cancels the
    machine-wide speed swings of a shared host, which move the calibration
    and the program alike.
    """
    digest = hashlib.sha256()
    wall = reference = 0.0
    before = calibrate()
    for experiment_id in ids:
        with _Sampler(sample_interval) as inner:
            started = time.perf_counter()
            text = get_experiment(experiment_id).run(scale).render()
            digest.update(f"{experiment_id}\n{text}\n".encode())
            elapsed = time.perf_counter() - started
        after = calibrate()
        samples = [before, *inner.samples, after]
        elapsed -= sum(inner.samples)
        wall += elapsed
        reference += elapsed * sum(CALIBRATION_REF_S / c for c in samples) / len(samples)
        before = after
    return digest.hexdigest(), wall, reference


def main() -> int:
    spec = json.loads(sys.argv[1])
    import repro.cli  # noqa: F401 -- the import cost every run-all pays
    from repro.experiments import Scale, get_experiment
    from repro.runners import execution, get_stats

    record = {"ready": time.monotonic()}
    # Rescales the launch-to-ready time run.py measures, like _render_all.
    record["setup_factor"] = CALIBRATION_REF_S / sorted(calibrate() for _ in range(5))[2]
    if spec["mode"] == "seed-check":
        digests = []
        for seed in (spec["seed"], spec["seed"] + 1):
            scale, _ = _build_scale(Scale, spec["scale"], seed)
            with execution(jobs=1, use_cache=False):
                digests.append(_render_all(get_experiment, scale, spec["ids"])[0])
        record["digests"] = digests
    elif spec["mode"] == "pass":
        scale, record["preset_drift"] = _build_scale(Scale, spec["scale"], spec["seed"])
        tracer = None
        if spec["traced"]:
            import tracer as tracing

            tracer = tracing.install()
        # In-artifact samples only where they cannot skew the result: not
        # inside traced spans, and not competing with pool workers for CPU.
        interval = SAMPLE_INTERVAL_S if spec["jobs"] == 1 and tracer is None else None
        with execution(jobs=spec["jobs"], cache_dir=spec["cache_dir"]):
            record["digest"], record["wall_regen_s"], record["regen_s"] = _render_all(
                get_experiment, scale, spec["ids"], interval
            )
        stats = get_stats()
        record.update(
            computed=stats.computed,
            reused_disk=stats.reused_disk,
            reused_journal=stats.reused_journal,
            failed=stats.failed,
        )
        if tracer is not None:
            record["layers"] = tracer.summary(record["wall_regen_s"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["self_cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
