"""End-to-end paper-regeneration benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload fast-cold --seed 20050610 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes, as tables

Each workload regenerates a pinned set of paper artifacts (see
``pins.py``) through the public experiment API, one *pass* per fresh
Python process (``pass_main.py``) with a private cache directory and the
``REPRO_*`` environment stripped.  Passes repeat until ``--seconds`` is
spent; every metric is the median over the run's passes.

* ``--trace 0`` times untraced passes: ``regen_s`` (ready to last artifact
  rendered), ``setup_s`` (launch to ready: interpreter plus imports),
  ``cpu_s`` and ``peak_rss_mib`` of the pass's process tree (``wait4``).
* ``--trace 1`` alternates untraced and traced passes; the traced pass
  with the median ``regen_s`` gives the per-layer self times and counts
  (``tracer.py``), and the pairs give the tracing overhead.

Times are reported at a reference CPU speed: each pass interleaves a short
fixed calibration workload with the artifacts and rescales their wall
time by it (``pass_main.calibrate``), which cancels the speed swings of a
shared host.  The report lines before the JSON show the wall times too.

Every pass is checked: a SHA-256 over the rendered artifacts must match
across the passes of a run and across runs of one artifact set at one
seed (``.perfbench/digests.json`` in the checkout, keyed by a hash of the
program source), computed/reused point counts must be exactly as pinned,
and a second seed must change the output.  A pass that fails a check
counts all of its points as failed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from pins import ARTIFACT_IDS, DEFAULT_SEED, EXPECTED_POINTS, QSWEEP_IDS, SEED_PROBE_ID
from tracer import COUNTERS

HERE = Path(__file__).resolve().parent
PASS_SCRIPT = HERE / "pass_main.py"
#: Scratch and ledger directory, inside the checkout the benchmark runs in.
STATE_DIR = ".perfbench"
#: A run must end within 180 s; stop starting passes that would cross this.
RUN_BUDGET_S = 165.0
#: ``setup_s`` is a median over at least this many launches (passes plus
#: import-only probes), because long workloads fit few passes in a run.
MIN_SETUP_SAMPLES = 9


@dataclass(frozen=True)
class Workload:
    """What one workload runs; BENCHMARK.json records why each exists."""

    scale: str
    ids: Tuple[str, ...]
    points: int
    jobs: int = 1
    warm: bool = False

    @property
    def family(self) -> str:
        """Runs of one family must render identical artifacts at one seed."""
        return f"{self.scale}:{','.join(self.ids)}"


WORKLOADS: Dict[str, Workload] = {
    "fast-cold": Workload("fast", ARTIFACT_IDS, EXPECTED_POINTS["fast"]),
    "fast-warm": Workload("fast", ARTIFACT_IDS, EXPECTED_POINTS["fast"], warm=True),
    "full-qsweep": Workload("full", QSWEEP_IDS, EXPECTED_POINTS["full-qsweep"]),
    "fast-cold-jobs2": Workload("fast", ARTIFACT_IDS, EXPECTED_POINTS["fast"], jobs=2),
}


class PassFailed(Exception):
    """A pass process exited badly or wrote no record."""


class Bench:
    """Launches and accounts the pass processes of one run."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.started = time.monotonic()
        state = root / STATE_DIR
        state.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=state))
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(root / "src")
        self._launches = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def launch(self, spec: dict) -> dict:
        """Run one pass process to completion; returns its measured record."""
        self._launches += 1
        out = self.tmp / f"pass-{self._launches}.json"
        err = self.tmp / f"pass-{self._launches}.err"
        spec = dict(spec, out=str(out), seed=self.seed)
        with open(err, "wb") as errfile:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(PASS_SCRIPT), json.dumps(spec)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=errfile,
                start_new_session=True,
            )
            # Kill the whole session (pool workers too) if the pass hangs.
            watchdog = threading.Timer(
                max(self.time_left(), 1.0), _kill_group, (proc.pid,)
            )
            watchdog.start()
            try:
                # wait4 gives this pass's own tree: CPU of the process and
                # the workers it reaped, and the largest process's peak RSS
                # (RUSAGE_CHILDREN would accumulate across passes).
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                _kill_group(proc.pid)
                if proc.returncode is None:
                    proc.wait()
        if proc.returncode != 0 or not out.exists():
            tail = err.read_text(errors="replace").strip().splitlines()[-5:]
            raise PassFailed(
                f"{spec['mode']} pass exited {proc.returncode}: " + " | ".join(tail)
            )
        record = json.loads(out.read_text())
        record["wall_setup_s"] = record["ready"] - launched
        record["setup_s"] = record["wall_setup_s"] * record["setup_factor"]
        record["wall_cpu_s"] = usage.ru_utime + usage.ru_stime
        if "regen_s" in record:
            # The pool's CPU is rescaled by the parent's calibration.
            record["cpu_s"] = record["wall_cpu_s"] * record["regen_s"] / record["wall_regen_s"]
        # ru_maxrss is in KiB on Linux.  The launching process stays small
        # (no numpy): a child's figure starts from its parent's footprint.
        record["peak_rss_mib"] = usage.ru_maxrss / 1024.0
        return record


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a pass's session and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _source_fingerprint(root: Path) -> str:
    """Hash of the program source and the pinned inputs (ledger key)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")) + [HERE / "pins.py"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_ledger(root: Path, family: str, seed: int, digest: str) -> List[str]:
    """Cross-run digest check: same family+seed agree, other seeds differ."""
    path = root / STATE_DIR / "digests.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    prefix = f"{_source_fingerprint(root)}|{family}|"
    key = f"{prefix}{seed}"
    problems = []
    if key in ledger and ledger[key] != digest:
        problems.append(
            f"digest {digest[:12]} differs from an earlier run at seed {seed} "
            f"({ledger[key][:12]})"
        )
    clashes = [
        other for other, value in ledger.items()
        if other.startswith(prefix) and other != key and value == digest
    ]
    if clashes:
        problems.append(f"seed {seed} renders the same digest as {clashes[0]}")
    if not problems:
        ledger[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems


class Run:
    """One ``--workload`` invocation: passes, checks and accounting."""

    def __init__(self, bench: Bench, workload: Workload) -> None:
        self.bench = bench
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest: Optional[str] = None
        self._caches = itertools.count()

    def _spec(self, **overrides) -> dict:
        spec = dict(
            mode="pass", scale=self.workload.scale, ids=list(self.workload.ids),
            jobs=self.workload.jobs, cache_dir=None, traced=False,
        )
        spec.update(overrides)
        return spec

    def prepare(self) -> None:
        """Compile bytecode, then prove a second seed changes the output."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro"],
            cwd=self.bench.root, env=self.bench.env, check=True,
            stdout=subprocess.DEVNULL,
        )
        record = self.bench.launch(
            dict(mode="seed-check", scale="fast", ids=[SEED_PROBE_ID])
        )
        first, second = record["digests"]
        if first == second:
            self.problems.append(
                f"{SEED_PROBE_ID} renders identically at seeds {self.bench.seed} "
                f"and {self.bench.seed + 1}: the seed does not reach the program"
            )

    def checked_pass(self, cache_dir: Path, cold: bool, **overrides) -> Optional[dict]:
        """Launch one pass and verify it; its points count as failed if not."""
        points = self.workload.points
        self.attempted += points
        try:
            record = self.bench.launch(self._spec(cache_dir=str(cache_dir), **overrides))
        except PassFailed as exc:
            self.failed += points
            self.problems.append(str(exc))
            return None
        expected = {
            "computed": points if cold else 0,
            "reused_disk": 0 if cold else points,
            "reused_journal": 0,
            "failed": 0,
        }
        problems = [
            f"{field} = {record[field]}, expected {value}"
            for field, value in expected.items() if record[field] != value
        ]
        if self.digest is None:
            self.digest = record["digest"]
        elif record["digest"] != self.digest:
            problems.append(
                f"digest {record['digest'][:12]} differs from this run's "
                f"{self.digest[:12]}"
            )
        if problems:
            self.failed += points
            self.problems.extend(problems)
        else:
            self.failed += record["failed"]
        return record

    def _cache_for_pass(self, fill: Optional[Path]) -> Path:
        cache = self.bench.tmp / f"cache-{next(self._caches)}"
        if fill is not None:
            shutil.copytree(fill, cache)
        return cache

    def measure(self, seconds: float, trace: bool) -> Tuple[List[dict], List[dict]]:
        """Repeat passes (or untraced/traced pairs) for ``seconds``."""
        fill = None
        if self.workload.warm:
            # Filling the cache is preparation; it runs cold on the pool.
            fill = self.bench.tmp / "fill"
            if self.checked_pass(fill, cold=True, jobs=2) is None:
                return [], []
        plain: List[dict] = []
        traced: List[dict] = []
        started = time.monotonic()
        walls: List[float] = []
        while True:
            began = time.monotonic()
            for is_traced in ((False, True) if trace else (False,)):
                record = self.checked_pass(
                    self._cache_for_pass(fill), cold=fill is None, traced=is_traced
                )
                if record is None:
                    return plain, traced
                (traced if is_traced else plain).append(record)
            walls.append(time.monotonic() - began)
            estimate = statistics.median(walls)
            # Stop where the next pass would end nearer past the budget
            # than short of it, so a run measures about ``seconds``.
            if (time.monotonic() - started + estimate / 2 > seconds
                    or self.bench.time_left() < 1.5 * estimate + 5.0):
                return plain, traced

    def setup_samples(self, passes: List[dict]) -> List[dict]:
        samples = list(passes)
        while len(samples) < MIN_SETUP_SAMPLES and self.bench.time_left() > 10.0:
            samples.append(self.bench.launch(dict(mode="probe")))
        return samples


def end_to_end(plain: List[dict], setups: List[dict]) -> Dict[str, float]:
    return {
        "regen_s": statistics.median([r["regen_s"] for r in plain]),
        "setup_s": statistics.median([r["setup_s"] for r in setups]),
        "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
        "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in plain]),
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Layer metrics of the traced pass with the median ``regen_s``."""
    ordered = sorted(traced, key=lambda r: r["regen_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["runners.backends.worker_cpu_s"] = chosen["wall_cpu_s"] - chosen["self_cpu_s"]
    # Layer times are wall times, so the table adds up to the wall regen.
    metrics["trace.regen_s"] = chosen["wall_regen_s"]
    metrics["trace.untraced_regen_s"] = statistics.median([r["wall_regen_s"] for r in plain])
    # Each traced pass runs right after its untraced twin: compare in pairs.
    # Wall times, because only untraced serial passes sample inside artifacts.
    metrics["trace.overhead_ratio"] = statistics.median([
        t["wall_regen_s"] / u["wall_regen_s"] - 1.0 for u, t in zip(plain, traced)
    ])
    return metrics


def count_mismatches(traced: List[dict]) -> List[str]:
    """Work counts are deterministic: every traced pass must agree."""
    first = traced[0]["layers"]
    return [
        f"{name} = {record['layers'][name]} in one traced pass, {first[name]} in another"
        for record in traced[1:] for name in COUNTERS
        if record["layers"][name] != first[name]
    ]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its metrics, accounting, samples and problems."""
    workload = WORKLOADS[name]
    bench = Bench(root, seed)
    run = Run(bench, workload)
    plain: List[dict] = []
    traced: List[dict] = []
    setups: List[dict] = []
    try:
        run.prepare()
        plain, traced = run.measure(seconds, trace)
        if not trace:
            setups = run.setup_samples(plain)
    except PassFailed as exc:
        run.problems.append(str(exc))
    finally:
        bench.close()
    metrics: Dict[str, float] = {}
    if plain and (traced or not trace):
        if trace:
            metrics = per_layer(plain, traced)
            run.problems.extend(count_mismatches(traced))
        else:
            metrics = end_to_end(plain, setups)
    if run.digest is not None:
        run.problems.extend(_check_ledger(root, workload.family, seed, run.digest))
    if run.attempted == 0:
        run.attempted = workload.points  # nothing launched: all of it failed
        run.failed = workload.points
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(plain) + len(traced),
        "digest": run.digest,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "preset_drift": sorted({f for r in plain + traced for f in r["preset_drift"]}),
        "metrics": metrics,
        "samples": {
            "regen_s": [r["regen_s"] for r in plain],
            "wall regen_s": [r["wall_regen_s"] for r in plain],
            "traced regen_s": [r["regen_s"] for r in traced],
            "setup_s": [r["setup_s"] for r in setups],
            "wall setup_s": [r["wall_setup_s"] for r in setups],
        },
    }


def report_lines(outcome: dict, declared: List[dict]) -> List[str]:
    """Human-readable table of one run's metrics."""
    lines = [
        f"== {outcome['workload']}  seed={outcome['seed']}  trace={int(outcome['trace'])}"
        f"  passes={outcome['passes']}  digest={(outcome['digest'] or '-')[:16]} =="
    ]
    for entry in declared:
        value = outcome["metrics"].get(entry["name"])
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {entry['name']:36s} {shown:>12s} {entry['unit']}")
    ratio = outcome["failed"] / outcome["attempted"]
    lines.append(
        f"  {'fail_ratio':36s} {ratio:>12.6g}   "
        f"({outcome['failed']} of {outcome['attempted']} points failed)"
    )
    for label, values in outcome["samples"].items():
        if values:
            lines.append(f"  {label} samples: " + " ".join(f"{v:.4f}" for v in values))
    if outcome["preset_drift"]:
        lines.append(
            "  note: the program's preset no longer matches the pinned scale in "
            + ", ".join(outcome["preset_drift"]) + " (the pinned values ran)"
        )
    for problem in outcome["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return lines


def result_json(outcome: dict, declared: List[dict]) -> dict:
    """The contract's last line; a run missing a declared metric failed."""
    values = outcome["metrics"]
    if any(entry["name"] not in values for entry in declared):
        return {"correct": False, "attempted": outcome["attempted"],
                "failed": outcome["attempted"], "metrics": {}}
    return {
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still kills and reaps its pass (see Bench.launch).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {root / 'src' / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    declared = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}

    if args.workload == "all":
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                outcome = run_workload(root, name, args.seed, args.seconds, bool(trace))
                print("\n".join(report_lines(outcome, declared[trace])), flush=True)
                ok = ok and result_json(outcome, declared[trace])["correct"]
        return 0 if ok else 1

    outcome = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report_lines(outcome, declared[args.trace])))
    result = result_json(outcome, declared[args.trace])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
