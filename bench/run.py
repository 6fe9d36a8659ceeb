"""torusdyn benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload survey --seed 1 --seconds 12 --trace 0

Workloads: survey, dioph, perturb, saturation (see bench/README.md).  The
run measures set-up time first, then repeats whole rounds of the
workload's operations, each checked for correctness, until ``--seconds``
have passed (at least one round).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it wraps the package's layers in
spans and reports per-layer metrics instead.  Times are rescaled to a
reference CPU speed by probes made during the timed work (refclock.py).
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Work files go to
bench/.work and are removed at the end; the result and, when traced, the
spans are kept there.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5

# What a user waits for before the package can work: a fresh interpreter
# importing the package and reading the workload's input files.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import torusdyn.cli
for path in sys.argv[2:]:
    with open(path) as fh:
        json.load(fh)
"""


def time_setup(src: str, inputs: list[str]) -> float:
    """One set-up, in seconds at the reference speed."""
    with RefClock(period=0) as clock:
        subprocess.run([sys.executable, "-c", SETUP_CODE, src, *inputs], check=True, timeout=60)
    return clock.ref_s


def run_round(wl, tracer) -> dict:
    """One round: the main operation, survey's --jobs 2 pass, the checks."""
    since = len(tracer.spans) if tracer else 0
    operations = wl.main_checks + wl.job_checks
    wall2 = None
    clock = RefClock()
    try:
        if tracer:
            tracer.active = True
        try:
            with clock:
                main_out = wl.main()
        finally:
            if tracer:
                tracer.active = False
        ops = wl.check(main_out)
        if wl.job_checks:
            t0 = perf_counter()
            wl.jobs2()
            wall2 = perf_counter() - t0
            ops += wl.check_jobs2()
    except Exception:
        traceback.print_exc()
        return {"wall": None, "ops": [("round", False)] * operations}
    if len(ops) != operations:
        raise RuntimeError(f"{wl.name}: checked {len(ops)} operations, expected {operations}")
    probes = [(t0, t1) for t0, t1, _ in clock.marks]
    return {"wall": clock.ref_s, "raw": clock.raw_s, "wall2": wall2, "ops": ops, "probes": probes,
            "covered": tracer.covered_s(since, probes) if tracer else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "torusdyn", "__init__.py")):
        print(f"error: no torusdyn sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import torusdyn

    if not os.path.abspath(torusdyn.__file__).startswith(src + os.sep):
        print(f"error: torusdyn was imported from {torusdyn.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, ".work")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        setup = [time_setup(src, wl.inputs) for _ in range(SETUP_REPEATS)]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < args.seconds:
            rounds.append(run_round(wl, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r["ops"]]
    failed = [label for label, ok in ops if not ok]
    done = [r for r in rounds if r["wall"] is not None]
    correct = len(done) == len(rounds) and set(failed) <= workloads.KNOWN_FAULTS
    if args.trace:
        if done:
            probes = [p for r in done for p in r["probes"]]
            metrics = layer_metrics(tracer.totals(probes), len(done))
            wall = statistics.median(r["wall"] for r in done)
            metrics["bench.main.wall_s"] = wall
            metrics["bench.main.uncovered_share"] = statistics.median(
                1 - r["covered"] / r["raw"] for r in done)
            metrics["bench.jobs2.wall_s"] = (
                statistics.median(r["wall2"] for r in done) if wl.job_checks else 0.0)
        else:
            metrics = {}
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {"setup_s": statistics.median(setup)}
        if done:
            metrics["wall_s"] = statistics.median(r["wall"] for r in done)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "rounds": len(rounds), "failed_labels": sorted(set(failed)),
                   "raw_wall_s": [r["raw"] for r in done]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
