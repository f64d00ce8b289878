"""The forestcut benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh interpreter (``passes.py``) and is
repeated until ``--seconds`` are used.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, each the
median over the run's passes; with ``--trace 1`` untraced and traced passes
alternate and the object holds the per-layer metrics and the tracing
overhead.  The exit code is 1 when a correctness check fails or a pass
crashes, and 2 when the checkout holds no ``src/forestcut``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("corpus-sweep", "builtin-sweep", "lp-certificate", "families")
SETUP_SAMPLES = 12
GAUGE_WINDOW_S = 1.5
SETUP_CODE = "import time, forestcut; print(time.perf_counter())"
RUN_LIMIT_S = 170  # every pass must have ended by then


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv: list[str], run_start: float) -> str:
    timeout = RUN_LIMIT_S - (perf_counter() - run_start)
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_sample(run_start: float) -> float:
    """Time from starting an interpreter to ``import forestcut`` returning.

    ``perf_counter`` reads the system-wide monotonic clock, so the child's
    reading after the import minus the parent's reading before the spawn is
    the set-up time every CLI invocation pays.
    """
    t0 = perf_counter()
    return float(_child(["-c", SETUP_CODE], run_start)) - t0


def machine_facts() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "loadavg": os.getloadavg()}


def make_input(workload: str, seed: int, scale: float):
    if workload == "corpus-sweep":
        WORK.mkdir(exist_ok=True)
        path = WORK / f"corpus-seed{seed}.g6"
        path.write_text("\n".join(inputs.corpus_lines(seed, scale)) + "\n")
        return str(path.relative_to(ROOT))
    spec = {"builtin-sweep": inputs.builtin_spec, "lp-certificate": inputs.lp_spec,
            "families": inputs.families_spec}[workload]
    return spec(seed, scale)


def run_passes(workload: str, data, seconds: float, trace: bool, spans: Path,
               run_start: float) -> tuple[list[dict], list[float]]:
    """Repeat one cycle of passes until ``seconds`` are used; at least one cycle.

    A cycle is the untraced pass at one worker, at two workers for
    corpus-sweep (only in the first cycle of an untraced run), and a traced
    pass when ``trace`` is set.  Untraced runs also take set-up samples,
    spread evenly over the run.  Pass times and set-up samples are converted
    to reference seconds with the reference-loop gauges taken near them
    (see reference.py).
    """
    kinds = ["w1"] + (["w2"] if workload == "corpus-sweep" else []) + (["traced"] if trace else [])
    gauges: list[tuple[float, float]] = []
    setup: list[tuple[float, float]] = []

    def take_setup(count: int) -> None:
        gauges.append((perf_counter(), reference.reference_s()))
        for _ in range(count):
            setup.append((perf_counter(), setup_sample(run_start)))
        gauges.append((perf_counter(), reference.reference_s()))

    start = perf_counter()
    passes: list[dict] = []
    cycle_s: list[float] = []
    while True:
        if not trace:
            due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * (perf_counter() - start) / seconds) + 1)
            if due > len(setup):
                take_setup(due - len(setup))
        cycle_start = perf_counter()
        for kind in kinds:
            request = {"workload": workload, "traced": kind == "traced",
                       "workers": 2 if kind == "w2" else 1, "pass_id": len(passes),
                       "input": data, "spans": str(spans), "src": str(SRC)}
            out = _child([str(BENCH / "passes.py"), json.dumps(request)], run_start)
            passes.append(dict(json.loads(out.splitlines()[-1]), kind=kind))
            gauges += [(t, g) for t, g, _ in passes[-1]["gauges"]]
        cycle_s.append(perf_counter() - cycle_start)
        if not trace:
            # The two-worker pass feeds the byte-identity check, which needs
            # it once; the rest of an untraced run goes to one-worker passes.
            kinds = ["w1"]
        # Start another cycle only if at least half of it fits.
        if start + seconds - perf_counter() < statistics.median(cycle_s) / 2:
            break
    if not trace and len(setup) < SETUP_SAMPLES:
        take_setup(SETUP_SAMPLES - len(setup))
    for p in passes:
        p["seconds"] = reference_seconds(p["gauges"], gauges)
    return passes, [s * time_scale(t, t + s, gauges) for t, s in setup]


def reference_seconds(own: list, gauges: list[tuple[float, float]]) -> float:
    """A pass's timed work in reference seconds: each stretch of work between
    two of its own gauges, scaled by the ``time_scale`` around that stretch."""
    return sum((w1 - w0) * time_scale(t0, t1, gauges)
               for (t0, _, w0), (t1, _, w1) in zip(own, own[1:]))


def time_scale(start: float, end: float, gauges: list[tuple[float, float]]) -> float:
    """``NOMINAL_S`` over the median gauge taken within ``GAUGE_WINDOW_S`` of
    the interval; pooling a pass's gauges with its neighbours' keeps one
    gauge caught in a brief stall from skewing a short pass."""
    near = [s for t, s in gauges if start - GAUGE_WINDOW_S <= t <= end + GAUGE_WINDOW_S]
    return reference.NOMINAL_S / statistics.median(near)


def _unit(layer_metric: str) -> str:
    for suffix, unit in ((".calls", "count"), (".graphs", "count"), (".rows", "count"),
                         ("_per_call", "count"), ("_ratio", "ratio"), ("_us", "us"),
                         ("_s", "s"), (".order_min", "vertices"), (".order_max", "vertices")):
        if layer_metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {layer_metric}")


def _median(passes: list[dict], kind: str, value) -> float:
    return statistics.median(value(p) for p in passes if p["kind"] == kind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args()
    run_start = perf_counter()
    if not (SRC / "forestcut" / "__init__.py").is_file():
        print(f"error: no forestcut package under {SRC}", file=sys.stderr)
        return 2

    print("machine", json.dumps(machine_facts()))
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.unlink(missing_ok=True)
    data = make_input(args.workload, args.seed, args.scale)
    try:
        # The first import writes the bytecode cache; it is not a sample.
        _child(["-c", SETUP_CODE], run_start)
        passes, setup = run_passes(args.workload, data, args.seconds, bool(args.trace), spans, run_start)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if isinstance(data, str):
            (ROOT / data).unlink(missing_ok=True)

    # Every pass of a run sees the same input, so every output must match the
    # first: the reports at 1 and 2 workers, and the traced replay's flags.
    expected = passes[0]["output"]
    for p in passes:
        if p["output"] != expected:
            p["failed"] = p["items"]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    # Times are in reference seconds (see reference.py); raw figures are printed too.
    def throughput(p):
        return p["items"] / p["seconds"]

    info = {"failed_share": (failed / attempted, "ratio"),
            "passes": (len(passes), "count"),
            "time_scale": (statistics.median(p["seconds"] / p["wall"] for p in passes), "ratio"),
            "items_per_s.raw": (_median(passes, "w1", lambda p: p["items"] / p["wall"]), "items/s")}
    if args.workload == "corpus-sweep":
        info["items_per_s.w2"] = (_median(passes, "w2", throughput), "items/s")
    if args.trace:
        layers = [{name: value * p["seconds"] / p["wall"] if _unit(name) in ("s", "us") else value
                   for name, value in p["layers"].items()}
                  for p in passes if p["kind"] == "traced"]
        metrics = {name: (statistics.median(layer[name] for layer in layers), _unit(name))
                   for name in layers[0]}
        metrics["items_per_s.w2"] = info.get("items_per_s.w2", (0.0, "items/s"))
        metrics["trace.overhead_s"] = (
            _median(passes, "traced", lambda p: p["seconds"])
            - _median(passes, "w1", lambda p: p["seconds"]), "s")
    else:
        metrics = {
            "items_per_s": (_median(passes, "w1", throughput), "items/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (_median(passes, "w1", lambda p: p["rss_mb"]), "MB"),
        }
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
