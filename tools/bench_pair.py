"""Paired benchmark runs of the working tree against a base revision.

Checks REV out with ``git worktree`` into a temporary directory, copies the
working tree's tracked files, uncommitted edits included, into another, and
runs ``bench/run.py`` in both, pair by pair, alternating which side runs
first, all on one seed.  Both sides run from new directories, since the
directory alone can move ``peak_rss_mb`` by a few tenths of a MB.  Usage,
from the repository root:

    python tools/bench_pair.py --base HEAD~1 --workload dioph --pairs 10 \\
        --seed 9107 --seconds 6 --out BENCH_dioph.json

The JSON written to ``--out`` holds every raw result line of
``bench/run.py``; per metric, each side's median and quartiles and the
pairs the working tree wins (a strictly better value in the direction
``BENCHMARK.json`` gives); each side's attempted and failed operations;
and the variables of ``RECORDED_ENV``, the CPU count and the load average
before and after.  Runs inherit the environment, so set
``OPENBLAS_NUM_THREADS`` before calling.  The worktree and the copy are
removed even when a run fails.  Nothing under ``bench/`` is changed: each
side runs its own ``bench/run.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SIDES = ("base", "head")
# Environment variables that move the metrics.  With PYTHONDONTWRITEBYTECODE
# set, every run compiles all of src/ in its set-up (about 65 ms on a 2-vCPU
# x86-64 host), while a checkout with stale __pycache__ files compiles only
# its edited modules and reads a different setup_s.
RECORDED_ENV = ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def copy_tracked(dest: str) -> None:
    """Copy the files git tracks in the working tree, as they are on disk,
    into dest; untracked files stay behind."""
    for rel in _git("ls-files", "-z").split("\0"):
        src = os.path.join(ROOT, rel)
        if rel and os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolated between the sorted values."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric present on both sides of every pair: each side's median
    and quartiles, and the pairs whose head value is strictly better than
    its base value ("lower" or "higher" per `better`, lower by default).
    Each pair is {"base": result, "head": result}, a result being a parsed
    result line of bench/run.py."""
    names = set.intersection(*(set(p[s]["metrics"]) for p in pairs for s in SIDES))
    out = {}
    for name in sorted(names):
        vals = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        sign = -1 if better.get(name, "lower") == "higher" else 1
        wins = sum(sign * h < sign * b for b, h in zip(vals["base"], vals["head"]))
        out[name] = {"unit": pairs[0]["base"]["metrics"][name]["unit"],
                     "better": "higher" if sign < 0 else "lower",
                     **{s: quartiles(vals[s]) for s in SIDES},
                     "wins": wins, "pairs": len(pairs)}
    return out


def failures(pairs: list[dict]) -> dict:
    """Per side, the operations attempted and failed over all runs, and
    the runs bench/run.py did not mark correct."""
    out = {}
    for s in SIDES:
        attempted = sum(p[s]["attempted"] for p in pairs)
        failed = sum(p[s]["failed"] for p in pairs)
        out[s] = {"attempted": attempted, "failed": failed,
                  "share": failed / attempted if attempted else 0.0,
                  "incorrect_runs": sum(not p[s]["correct"] for p in pairs)}
    return out


def run_once(checkout: str, args) -> dict:
    """One bench/run.py run in `checkout`: its last stdout line, parsed."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py exited {proc.returncode} in {checkout}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = {"commit": _git("rev-parse", "HEAD"),
            "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m.get("better", "lower") for m in spec["end_to_end"] + spec["per_layer"]}
    load_before = os.getloadavg()

    tmp = tempfile.mkdtemp(prefix="bench-pair-")
    checkouts = {s: os.path.join(tmp, s) for s in SIDES}
    runs, pairs = [], []
    try:
        _git("worktree", "add", "--detach", checkouts["base"], base_commit)
        copy_tracked(checkouts["head"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(checkouts[side], args)
                runs.append({"pair": i, "side": side, "result": pair[side]})
                print(f"pair {i} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
            pairs.append(pair)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", checkouts["base"]], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        _git("worktree", "prune")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "base": {"rev": args.base, "commit": base_commit}, "head": head,
        "environment": {**{name: os.environ.get(name) for name in RECORDED_ENV},
                        "cpu_count": os.cpu_count(), "loadavg_before": list(load_before),
                        "loadavg_after": list(os.getloadavg())},
        "metrics": summarize(pairs, better),
        "failures": failures(pairs),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, m in report["metrics"].items():
        print(f"{name}: base {m['base']['median']:.4g} [{m['base']['q1']:.4g}, "
              f"{m['base']['q3']:.4g}], head {m['head']['median']:.4g} [{m['head']['q1']:.4g}, "
              f"{m['head']['q3']:.4g}] {m['unit']}, head wins {m['wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
