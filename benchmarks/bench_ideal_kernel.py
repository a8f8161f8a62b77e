"""Ideal-kernel and percolation-threshold bench: before/after on real shapes.

``python benchmarks/bench_ideal_kernel.py --baseline-src DIR`` times two
source trees against each other — ``DIR`` (a checkout of the commit to
compare with, e.g. made by ``git archive``) and this one — on the shapes
the paper's ideal-MAC and percolation figures run:

* ``IdealSimulator.run_campaign`` at the fast-scale pareto (13x13, 8
  broadcasts) and figure (25x25, 12) shapes, a 15x15 torus, a ~300-node
  random deployment with failed nodes, the full-scale scenario shape
  (30x30, 30) and the paper's 75x75 grid with 50 broadcasts;
* ``estimate_critical_bond_fraction`` on the Figure 6 grids (10-40, 12
  runs, four reliability levels) and ``coverage_site_fraction`` on the
  same grids.

Each side runs in its own fresh process per rep (``--worker``), the sides
alternate which goes first, and every case is run once untimed before
its timed run.  The headline is min and median of the reps.  Every rep
hashes each case's full output (every receive time, hop, parent and
counter; every threshold summary), and the two sides' digests must be
equal inside every rep, so a timing run is also a bit-identity check.
The report is written to ``BENCH_ideal.json`` at the repo root.

``--quick`` (CI) needs no second tree: it times this tree's kernels
against the reference implementations in this tree — the scalar heap
loop for the ideal cases, full ``bond_sweep``/``site_sweep`` curves for
the thresholds — on the smaller shapes, with parity asserted every rep.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent

#: (label, topology kind, size, broadcasts, p, q, failed fraction).
IDEAL_CASES = (
    ("ideal grid 13x13 / 8 broadcasts", "grid", 13, 8, 0.5, 0.6, 0.0),
    ("ideal grid 25x25 / 12 broadcasts", "grid", 25, 12, 0.25, 0.4, 0.0),
    ("ideal torus 15x15 / 8 broadcasts", "torus", 15, 8, 0.5, 0.6, 0.0),
    ("ideal random 300 nodes, 10% failed / 8 broadcasts", "random", 300, 8, 0.5, 0.6, 0.1),
    ("ideal grid 30x30 / 30 broadcasts", "grid", 30, 30, 0.5, 0.6, 0.0),
    ("ideal grid 75x75 / 50 broadcasts", "grid", 75, 50, 0.375, 0.5, 0.0),
)
PERCOLATION_SIDES = (10, 20, 30, 40)
RELIABILITY_LEVELS = (0.8, 0.9, 0.99, 1.0)
PERCOLATION_RUNS = 12
#: Cases too slow for the scalar oracle inside a CI step.
QUICK_SKIP = ("ideal grid 30x30 / 30 broadcasts", "ideal grid 75x75 / 50 broadcasts")


def _build_cases(quick: bool):
    """``{label: (run, oracle)}``: zero-argument callables over this tree's ``repro``."""
    from repro.core.params import PBBFParams
    from repro.ideal.config import AnalysisParameters
    from repro.ideal.simulator import IdealSimulator
    from repro.net.topology import GridTopology, RandomTopology, TorusGridTopology
    from repro.percolation.site import coverage_site_fraction
    from repro.percolation.threshold import estimate_critical_bond_fraction

    config = AnalysisParameters()
    cases = {}
    for label, kind, size, broadcasts, p, q, failed_fraction in IDEAL_CASES:
        if quick and label in QUICK_SKIP:
            continue
        if kind == "grid":
            topology = GridTopology(size)
        elif kind == "torus":
            topology = TorusGridTopology(size)
        else:
            topology = RandomTopology.connected(size, 10.0, 12.0, random.Random(42))
        source = getattr(topology, "center_node", lambda: 0)()
        others = [v for v in topology.nodes() if v != source]
        failed = sorted(
            random.Random(7).sample(others, int(failed_fraction * topology.n_nodes))
        )

        def campaign(topology=topology, p=p, q=q, source=source, failed=failed,
                     broadcasts=broadcasts, fast_path=True):
            sim = IdealSimulator(
                topology, PBBFParams(p, q), config, seed=3, source=source,
                failed_nodes=failed, fast_path=fast_path,
            )
            result = sim.run_campaign(broadcasts)
            return [result.outcomes, result.total_joules]

        cases[label] = (campaign, lambda campaign=campaign: campaign(fast_path=False))

    grids = [GridTopology(side) for side in PERCOLATION_SIDES]
    if quick:
        grids = grids[:2]

    def bond():
        return [
            estimate_critical_bond_fraction(
                grid, RELIABILITY_LEVELS, random.Random(11), runs=PERCOLATION_RUNS
            )
            for grid in grids
        ]

    def site():
        return [
            coverage_site_fraction(grid, 0.9, random.Random(13), runs=PERCOLATION_RUNS)
            for grid in grids
        ]

    sides = "-".join(str(side) for side in PERCOLATION_SIDES[: len(grids)])
    cases[f"bond thresholds grids {sides} / {PERCOLATION_RUNS} runs x 4 levels"] = (
        bond, lambda: _oracle_bond(grids)
    )
    cases[f"site thresholds grids {sides} / {PERCOLATION_RUNS} runs at 0.9"] = (
        site, lambda: _oracle_site(grids)
    )
    return cases


def _oracle_bond(grids):
    """The bond thresholds read off full ``bond_sweep`` curves."""
    from repro.percolation.bond import bond_sweep
    from repro.percolation.threshold import ReliabilityThresholds
    from repro.util.stats import summarize

    results = []
    for grid in grids:
        rng = random.Random(11)
        per_level = {level: [] for level in RELIABILITY_LEVELS}
        for _ in range(PERCOLATION_RUNS):
            sweep = bond_sweep(grid, rng)
            for level in RELIABILITY_LEVELS:
                count = sweep.first_bond_count_reaching(level)
                per_level[level].append(count / sweep.n_edges)
        results.append(ReliabilityThresholds(
            grid_label=repr(grid),
            thresholds=tuple(
                (level, summarize(per_level[level])) for level in RELIABILITY_LEVELS
            ),
        ))
    return results


def _oracle_site(grids):
    """The site thresholds read off full ``site_sweep`` curves."""
    from repro.percolation.site import site_sweep

    results = []
    for grid in grids:
        rng = random.Random(13)
        results.append([
            site_sweep(grid, rng).first_site_count_reaching(0.9) / grid.n_nodes
            for _ in range(PERCOLATION_RUNS)
        ])
    return results


def _digest(value) -> str:
    """SHA-256 of ``repr``: floats print round-trip exact, so equal digests
    mean equal bits."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _timed(fn):
    fn()  # warm-up: lazy topology views, numpy first-call paths
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value
    finally:
        gc.enable()


def _worker(src: Path) -> None:
    """Time every full-mode case once on the ``repro`` under ``src``; print JSON."""
    sys.path.insert(0, str(src))
    cases = _build_cases(quick=False)
    report = {}
    for label, (run, _oracle) in cases.items():
        seconds, value = _timed(run)
        report[label] = {"seconds": seconds, "digest": _digest(value)}
    print(json.dumps(report))


def _run_worker(src: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE), "--worker", str(src)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _summary(baseline: list, current: list) -> dict:
    base_min, cur_min = min(baseline), min(current)
    base_med, cur_med = statistics.median(baseline), statistics.median(current)
    return {
        "baseline_min_s": round(base_min, 5),
        "baseline_median_s": round(base_med, 5),
        "current_min_s": round(cur_min, 5),
        "current_median_s": round(cur_med, 5),
        "speedup_min": round(base_min / cur_min, 2),
        "speedup_median": round(base_med / cur_med, 2),
        "baseline_reps_s": [round(t, 5) for t in baseline],
        "current_reps_s": [round(t, 5) for t in current],
    }


def _compare_trees(baseline_src: Path, reps: int) -> dict:
    timings: dict = {}
    for rep in range(reps):
        sides = [("baseline", baseline_src / "src"), ("current", ROOT / "src")]
        if rep % 2:
            sides.reverse()
        results = {name: _run_worker(src) for name, src in sides}
        for label, base in results["baseline"].items():
            cur = results["current"][label]
            # A timing rep that is not bit-identical is a bug, not a datum.
            assert base["digest"] == cur["digest"], f"{label}: outputs differ in rep {rep}"
            entry = timings.setdefault(label, ([], []))
            entry[0].append(base["seconds"])
            entry[1].append(cur["seconds"])
        print(f"rep {rep + 1}/{reps} done, digests equal", flush=True)
    return {label: _summary(*pair) for label, pair in timings.items()}


def _compare_oracle(reps: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    cases = _build_cases(quick=True)
    timings: dict = {label: ([], []) for label in cases}
    for rep in range(reps):
        for label, (run, oracle) in cases.items():
            oracle_s, expected = _timed(oracle)
            run_s, value = _timed(run)
            assert value == expected, (
                f"{label}: kernel differs from its oracle in rep {rep}"
            )
            timings[label][0].append(oracle_s)
            timings[label][1].append(run_s)
        print(f"rep {rep + 1}/{reps} done, parity holds", flush=True)
    return {label: _summary(*pair) for label, pair in timings.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the ideal kernel and percolation thresholds before/after"
    )
    parser.add_argument("--baseline-src", type=Path,
                        help="checkout of the tree to compare against")
    parser.add_argument("--quick", action="store_true",
                        help="time this tree against its own reference kernels (CI)")
    parser.add_argument("--reps", type=int, default=None,
                        help="interleaved repetitions (default 7; 3 with --quick)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ideal.json",
                        help="where to write the JSON report")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker)
        return 0
    if args.quick == (args.baseline_src is not None):
        parser.error("give exactly one of --baseline-src DIR and --quick")
    reps = args.reps if args.reps is not None else (3 if args.quick else 7)
    if args.quick:
        cases = _compare_oracle(reps)
        baseline = "reference kernels in this tree (scalar heap loop; full sweeps)"
    else:
        cases = _compare_trees(args.baseline_src.resolve(), reps)
        baseline = "the tree given by --baseline-src"
    for label, entry in cases.items():
        print(f"{label:60s} {entry['baseline_min_s']:8.4f}s -> "
              f"{entry['current_min_s']:8.4f}s  x{entry['speedup_min']:.2f} (min)  "
              f"x{entry['speedup_median']:.2f} (median)")
    report = {
        "benchmark": "ideal-kernel-and-percolation-thresholds",
        "description": (
            "IdealSimulator.run_campaign and the percolation threshold "
            "estimators on paper-figure shapes; each case's full output "
            "digest asserted equal between the sides in every rep"
        ),
        "method": (
            f"{reps} interleaved reps, one fresh process per side per rep "
            "(alternating order), one untimed warm-up per case, gc disabled "
            "inside timed regions; min and median reported"
            if not args.quick else
            f"{reps} interleaved reps in one process, one untimed warm-up "
            "per case, gc disabled inside timed regions"
        ),
        "baseline": baseline,
        "host": (
            f"{os.cpu_count()}-core {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {np.__version__}"
        ),
        "command": "python benchmarks/bench_ideal_kernel.py "
                   + ("--quick" if args.quick else "--baseline-src DIR"),
        "quick": args.quick,
        "cases": cases,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
