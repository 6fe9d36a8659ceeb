"""Command-line interface.

Subcommands: analyze, survey, pa, dioph, perturb, curve.  Exit codes:
0 ok, 1 input error, 2 outside the supported hypotheses, 3 invariant or
numerical failure, 4 search/iteration budget exceeded.  All stochastic
commands are reproducible from --seed; outputs are byte-identical across
runs and worker counts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .diophantine import (
    ball_table,
    badly_approximable_search_dim4,
    badly_approximable_search_dim6,
    center_norm_minimum,
    center_plane_chart,
    check_witness_search,
    lattice_ball,
)
from .errors import BudgetError, InputError, TorusDynError
from .experiments import (N_COUNT_BUDGET, N_MAX_LIMIT, PHI_SAMPLES_BUDGET, curve_experiment,
                          perturb_experiment)
from .intmatrix import matrix_from_json
from .parts import usable_cpus
from .perturbed import PerturbedMap
from .pseudo_anosov import hypothesis_spectrum, pseudo_anosov_subspace
from .splitting import adapted_norm, classify, compute_splitting
from .survey import SURVEY_BUDGET, run_survey


def _read_json(path: str, what: str):
    """The parsed JSON of the `what` file at `path`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from exc


def _load_matrix(path: str):
    try:
        return matrix_from_json(_read_json(path, "matrix"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_out(*paths) -> None:
    """Reject, before any work, an output path that cannot be written: one
    that is a directory, whose directory is missing or unwritable, or that
    names the same file as another output path: the same existing file
    (device and inode, so hard links too), or the same resolved path."""
    seen = {}
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise InputError(f"output path {path!r} is a directory")
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise InputError(f"output directory {folder!r} is missing or not writable")
        try:
            st = os.stat(path)
            key = (st.st_dev, st.st_ino)
        except OSError:  # not there yet
            key = os.path.realpath(path)
        if key in seen:
            raise InputError(f"output paths {seen[key]!r} and {path!r} name the same file")
        seen[key] = path


def _write(blocks, path, stdout: bool) -> None:
    """Write the text blocks in order to `path`, when one is given, and to
    stdout when `stdout` is true.  The file is created only here, after the
    work, and removed again when a write fails part-way (a full disk), so
    that a failed run leaves none behind."""
    if not (path or stdout):
        return
    created = False
    try:
        with open(path, "w") if path else contextlib.nullcontext() as fh:
            created = bool(path)
            streams = ([fh] if path else []) + ([sys.stdout] if stdout else [])
            for block in blocks:
                for stream in streams:
                    stream.write(block)
    except OSError as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise InputError(f"cannot write output: {exc}") from exc


def _report(obj) -> list[str]:
    return [json.dumps(obj, sort_keys=True, indent=2) + "\n"]


def cmd_analyze(args) -> int:
    report = classify(_load_matrix(args.matrix))
    _write(_report(report), args.out, True)
    return 0 if report["ergodic"] and report["dim_center"] in (0, 2) else 2


def cmd_survey(args) -> int:
    if args.dim < 2 or args.dim > 10:
        raise InputError("survey dimension must be between 2 and 10")
    if args.height < 0 or args.height > 5:
        raise InputError("survey height must be between 0 and 5")
    if args.limit is not None and args.limit < 0:
        raise InputError(f"--limit must be at least 0, got {args.limit}")
    cpus = usable_cpus()
    if not 1 <= args.jobs <= cpus:
        raise InputError(f"--jobs must be between 1 and the usable CPU count {cpus}, got {args.jobs}")
    size = 2 * (2 * args.height + 1) ** (args.dim - 1)
    if args.limit is not None:
        size = min(size, args.limit)
    if size > SURVEY_BUDGET:
        raise BudgetError(f"a survey of {size} polynomials exceeds the budget of {SURVEY_BUDGET}; "
                          "pass a smaller box or --limit")
    lines, summary = run_survey(args.dim, args.height, limit=args.limit,
                                reciprocal_only=args.reciprocal_only, jobs=args.jobs)
    _write(lines, args.out, False)
    _write(_report(summary), args.summary, True)
    return 0


def cmd_pa(args) -> int:
    pa = pseudo_anosov_subspace(_load_matrix(args.matrix))
    _write(_report(pa.to_json()), args.out, True)
    return 0


def cmd_dioph(args) -> int:
    a = _load_matrix(args.matrix)
    split = compute_splitting(a, spectrum=hypothesis_spectrum(a))
    norm = adapted_norm(split)
    pa = pseudo_anosov_subspace(a, split=split)
    check_witness_search(pa.dim_x, args.candidates, args.kmax, args.delta)
    report = center_norm_minimum(pa, norm, args.radius)
    chart = center_plane_chart(split, pa.lam)
    if pa.dim_x == 4:
        witness = badly_approximable_search_dim4(
            pa, norm, chart, candidate_count=args.candidates, k_max=args.kmax)
    else:
        witness = badly_approximable_search_dim6(
            pa, norm, chart, candidate_count=args.candidates, k_max=args.kmax,
            delta=args.delta)
    report.badly_approximable = witness.to_json()
    out = report.to_json()
    out["config"] = {"radius": args.radius, "kmax": args.kmax,
                     "candidates": args.candidates, "delta": args.delta}
    ball = lattice_ball(pa.lam, norm, args.radius) if args.format == "csv" or args.csv else None
    _write(_report(out), args.out, args.format == "json")
    if ball is not None:
        _write(ball_table(ball), args.csv, args.format == "csv")
    return 0


def cmd_perturb(args) -> int:
    f = PerturbedMap.from_json(_read_json(args.map, "map"))
    try:
        amplitudes = [float(t) for t in args.eps.split(",") if t != ""]
    except ValueError as exc:
        raise InputError(f"--eps: {exc}") from exc
    if not amplitudes:
        raise InputError("--eps: no amplitude given")
    result = perturb_experiment(
        f, amplitudes, seed=args.seed, n_max=args.nmax, n_count=args.ncount,
        phi_samples=args.samples)
    table = "".join(["amplitude,norm,deviation\n"] + [
        f"{float(amp)!r},{float(nv)!r},{float(dev)!r}\n" for amp, nv, dev in result.pop("csv_rows")
    ])
    _write([table], args.csv, args.format == "csv")
    _write(_report(result), args.out, args.format == "json")
    failed = any("degeneration" in e and not e["degeneration"]["passed"] for e in result["results"])
    return 3 if failed else 0


def cmd_curve(args) -> int:
    result = curve_experiment(_load_matrix(args.matrix), eps=args.eps, radius=args.radius,
                              seed=args.seed)
    _write(_report(result), args.out, True)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose argument errors are input errors: exit 1 with one
    ``error:`` line, as every other failure.  Subparsers share the class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="torusdyn",
                        description="algebraic classification and perturbation "
                                    "experiments for toral automorphisms")
    p.add_argument("--seed", type=int, default=0, help="seed for all stochastic steps")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("analyze", help="classify one integer matrix")
    q.add_argument("matrix")
    q.add_argument("--out")
    q.set_defaults(func=cmd_analyze)

    q = sub.add_parser("survey", help="classify a whole coefficient box of companions")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--height", type=int, required=True)
    q.add_argument("--limit", type=int)
    q.add_argument("--reciprocal-only", action="store_true")
    q.add_argument("--jobs", type=int, default=1)
    q.add_argument("--out", help="JSONL catalog path")
    q.add_argument("--summary", help="summary JSON path")
    q.set_defaults(func=cmd_survey)

    q = sub.add_parser("pa", help="power-irreducible invariant subspace")
    q.add_argument("matrix")
    q.add_argument("--out")
    q.set_defaults(func=cmd_pa)

    q = sub.add_parser("dioph", help="Diophantine constants of the invariant lattice")
    q.add_argument("matrix")
    q.add_argument("--radius", type=float, default=50.0, help="scan radius (adapted norm)")
    q.add_argument("--kmax", type=int, default=200)
    q.add_argument("--candidates", type=int, default=12)
    q.add_argument("--delta", type=float, default=0.1)
    q.add_argument("--format", choices=("json", "csv"), default="json",
                   help="stdout format: the report, or the scan table")
    q.add_argument("--out")
    q.add_argument("--csv", help="write (norm, center norm) pairs")
    q.set_defaults(func=cmd_dioph)

    q = sub.add_parser("perturb", help="graph/holonomy estimates for a perturbed map")
    q.add_argument("map", help="perturbed-map JSON file")
    q.add_argument("--eps", default="0.01", help="comma-separated shear amplitudes")
    q.add_argument("--nmax", type=float, default=100.0, help=f"largest |n|, at most {N_MAX_LIMIT:g}")
    q.add_argument("--ncount", type=int, default=24, help=f"lattice vectors, at most {N_COUNT_BUDGET}")
    q.add_argument("--samples", type=int, default=1000,
                   help=f"phi-bound samples, at most {PHI_SAMPLES_BUDGET}")
    q.add_argument("--format", choices=("json", "csv"), default="json",
                   help="stdout format: the summary, or the deviation table")
    q.add_argument("--out")
    q.add_argument("--csv")
    q.set_defaults(func=cmd_perturb)

    q = sub.add_parser("curve", help="lattice winding curve around the su-subspace")
    q.add_argument("matrix")
    q.add_argument("--eps", type=float, default=0.2)
    q.add_argument("--radius", type=float, default=10.0)
    q.add_argument("--out")
    q.set_defaults(func=cmd_curve)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(*(getattr(args, name, None) for name in ("out", "summary", "csv")))
        return args.func(args)
    except TorusDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
