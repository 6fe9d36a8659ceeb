"""Print one sha256 per output of torusdyn on fixed inputs.

After a header of ``#`` lines naming the Python, numpy, scipy and OpenBLAS
versions, each line is ``<sha256>  <output>``.  Two checkouts whose lists
agree give byte-identical outputs on these inputs.  The golden list is
``tests/data/output_digest.txt``, which a test compares line by line; a
change that moves an output on purpose regenerates it:

    python tools/output_digest.py > tests/data/output_digest.txt

The outputs are the stdout and the written files of ``analyze`` (Salem; the
cat map; Salem + cat, two factors; cat + the quarter turn, a cyclotomic
factor; cat + cat, a repeated factor), ``survey``
(boxes (4, 2), (5, 2), (7, 1), (6, 1), (3, 5), (8, 1) and (7, 2), and (5, 2)
with ``--reciprocal-only`` and with ``--limit 257``), ``pa``, ``dioph`` (JSON
alone, JSON with ``--csv``, and ``--format csv``; the report always
reduces the streamed slabs, and a table comes from the sorted ball; radii
12 and 20, whose greatest norms lie visibly below the radius, pin the
shells' upper edge at the radius; a pair search at ``--kmax 7`` on 3
candidates; the benchmark's configuration at
radius 80, whose shells are populated; radius 120, whose slabs are cut into
batches; a pair search at ``--kmax 1065`` on 2 candidates, whose k grid
takes many chunks; and the dense conjugate of the Salem companion, whose
logs of norms fall in other binades), ``perturb``
(the benchmark's configuration, amplitudes 0 and 0.02, JSON and CSV, and
amplitude 0 on Salem + cat, whose s block has two dimensions) and
``curve``, run in this process, and the saturation workload's computation on
fixed seeds: both coverage checks and the leaf parameters they invert, the
saturation cloud's points and trails, and the overlap translation.  Leaf
points of every flavor and both intersection pairs are digested on their own
as well, and again on a map whose profiles have several harmonics with
zero gaps, so that a change in the order a profile sums its terms shows;
that map's s and u leaves and its intersections run once more on batches
wide enough for the leaf solver's Taylor tail tables.
So is the ``lattice_ball`` of a dense conjugate of the Salem companion,
whose norms round differently when a scan batches its rows differently.
A run takes about ten seconds.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from torusdyn import cli  # noqa: E402
from torusdyn.diophantine import lattice_ball  # noqa: E402
from torusdyn.intmatrix import IntMatrix  # noqa: E402
from torusdyn.intpoly import IntPoly  # noqa: E402
from torusdyn.manifolds import TAIL_WIDTH, LeafSolver  # noqa: E402
from torusdyn.perturbed import PerturbedMap, Shear, TrigProfile, salem_example  # noqa: E402
from torusdyn.pseudo_anosov import pseudo_anosov_subspace  # noqa: E402
from torusdyn.saturation import (  # noqa: E402
    build_saturation_set,
    coverage_check,
    find_overlap_translation,
    su_sheet_params,
)
from torusdyn.splitting import adapted_norm, compute_splitting  # noqa: E402

SALEM = IntPoly((1, -1, -1, -1, 1))
# U A U^-1 for the Salem companion A and a unimodular U: dense norm factors
SALEM_CONJUGATE = [[0, 8, 6, 5], [1, -2, 2, -1], [0, -5, -4, -3], [-2, 12, 3, 7]]

CAT = IntMatrix([[2, 1], [1, 1]])
QUARTER_TURN = IntMatrix([[0, -1], [1, 0]])

# name -> argv; {salem}, {conj}, {cat}, {salem_cat}, {cat_turn}, {cat_cat}, {map}, {map6}
# and {dir} are filled in, and every file an argv writes under {dir} is digested beside
# the command's stdout
COMMANDS = {
    "analyze": ["analyze", "{salem}"],
    "analyze cat": ["analyze", "{cat}"],
    "analyze salem+cat": ["analyze", "{salem_cat}"],
    # char poly (x^2 - 3x + 1)(x^2 + 1): cyclotomic index 4, exit 2
    "analyze cat+turn": ["analyze", "{cat_turn}"],
    # char poly (x^2 - 3x + 1)^2: one factor of multiplicity 2
    "analyze cat+cat": ["analyze", "{cat_cat}"],
    "survey": ["survey", "--dim", "4", "--height", "2", "--out", "{dir}/catalog.jsonl",
               "--summary", "{dir}/summary.json"],
    # boxes with rows of repeated, mixed and missing cyclotomic factors
    "survey 5,2": ["survey", "--dim", "5", "--height", "2", "--out", "{dir}/catalog.jsonl",
                   "--summary", "{dir}/summary.json"],
    "survey 7,1": ["survey", "--dim", "7", "--height", "1", "--out", "{dir}/catalog.jsonl",
                   "--summary", "{dir}/summary.json"],
    "survey 6,1": ["survey", "--dim", "6", "--height", "1", "--out", "{dir}/catalog.jsonl",
                   "--summary", "{dir}/summary.json"],
    "survey 3,5": ["survey", "--dim", "3", "--height", "5", "--out", "{dir}/catalog.jsonl",
                   "--summary", "{dir}/summary.json"],
    # orbits under negation and reversal: a box of 4 in 4, one that the
    # reciprocal filter cuts at odd N, and a limit that cuts orbits
    "survey 8,1": ["survey", "--dim", "8", "--height", "1", "--out", "{dir}/catalog.jsonl",
                   "--summary", "{dir}/summary.json"],
    # criterion 1's box, where three entries in four are derived
    "survey 7,2": ["survey", "--dim", "7", "--height", "2", "--out", "{dir}/catalog.jsonl",
                   "--summary", "{dir}/summary.json"],
    "survey 5,2 --reciprocal-only": ["survey", "--dim", "5", "--height", "2", "--reciprocal-only",
                                     "--out", "{dir}/catalog.jsonl", "--summary", "{dir}/summary.json"],
    "survey 5,2 --limit 257": ["survey", "--dim", "5", "--height", "2", "--limit", "257",
                               "--out", "{dir}/catalog.jsonl", "--summary", "{dir}/summary.json"],
    "pa": ["pa", "{salem}"],
    "dioph": ["dioph", "{salem}", "--radius", "20", "--out", "{dir}/dioph.json",
              "--csv", "{dir}/dioph.csv"],
    "dioph json": ["dioph", "{salem}", "--radius", "20", "--out", "{dir}/dioph.json"],
    "dioph --format csv": ["dioph", "{salem}", "--radius", "12", "--format", "csv"],
    # a pair search whose grid is smaller than its probe shell, on few candidates
    "dioph --kmax 7": ["dioph", "{salem}", "--radius", "12", "--kmax", "7", "--candidates", "3"],
    # the benchmark's dioph configuration: about 1.3 M points, most in populated shells
    "dioph 80": ["--seed", "1", "dioph", "{salem}", "--radius", "80", "--out", "{dir}/dioph.json"],
    # the scan and the pair search where the whole-array versions held 95 and 155 MB
    "dioph 120": ["--seed", "1", "dioph", "{salem}", "--radius", "120"],
    "dioph --candidates 2 --kmax 1065": ["dioph", "{salem}", "--radius", "12", "--candidates", "2",
                                         "--kmax", "1065"],
    # 71,508 points whose least norm is 10: their logs lie in [2.3, 4.6], two
    # binades, where the Salem companion's start below 1
    "dioph conjugate": ["dioph", "{conj}", "--radius", "100", "--out", "{dir}/dioph.json"],
    "perturb": ["--seed", "7", "perturb", "{map}", "--eps", "0.01,0.001", "--nmax", "100",
                "--ncount", "6", "--samples", "100", "--out", "{dir}/perturb.json",
                "--csv", "{dir}/perturb.csv"],
    "perturb 0,0.02": ["perturb", "{map}", "--eps", "0,0.02", "--nmax", "50", "--ncount", "4",
                       "--samples", "60", "--out", "{dir}/perturb.json", "--csv", "{dir}/perturb.csv"],
    "perturb 0 salem+cat": ["perturb", "{map6}", "--eps", "0", "--out", "{dir}/perturb.json"],
    "perturb --format csv": ["perturb", "{map}", "--eps", "0.02", "--nmax", "20", "--ncount", "3",
                             "--samples", "30", "--format", "csv"],
    "curve": ["--seed", "3", "curve", "{salem}", "--eps", "0.25", "--radius", "8",
              "--out", "{dir}/curve.json"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def cli_digests(tmp: str) -> list[tuple[str, str]]:
    a = IntMatrix.companion(SALEM)
    matrices = {"salem": a, "conj": IntMatrix(SALEM_CONJUGATE), "cat": CAT,
                "salem_cat": IntMatrix.block_diag(a, CAT),
                "cat_turn": IntMatrix.block_diag(CAT, QUARTER_TURN),
                "cat_cat": IntMatrix.block_diag(CAT, CAT)}
    paths = {name: os.path.join(tmp, f"{name}.json") for name in (*matrices, "map", "map6")}
    for name, m in matrices.items():
        with open(paths[name], "w") as fh:
            json.dump({"n": m.n, "rows": [list(r) for r in m.rows]}, fh)
    with open(paths["map"], "w") as fh:
        json.dump(salem_example(0.01).to_json(), fh)
    with open(paths["map6"], "w") as fh:
        json.dump(salem_example(0.01, a=matrices["salem_cat"]).to_json(), fh)
    out = []
    for name, argv in COMMANDS.items():
        work = os.path.join(tmp, name.replace(" ", "_"))
        os.mkdir(work)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([t.format(dir=work, **paths) for t in argv])
        out.append((f"{name}: stdout, exit {code}", _sha(stdout.getvalue().encode())))
        for fname in sorted(os.listdir(work)):
            with open(os.path.join(work, fname), "rb") as fh:
                out.append((f"{name}: {fname}", _sha(fh.read())))
    return out


def saturation_digests() -> list[tuple[str, str]]:
    """The saturation workload's computation, on fixed seeds."""
    a = IntMatrix.companion(SALEM)
    split = compute_splitting(a)
    norm = adapted_norm(split)
    solver = LeafSolver(salem_example(1e-2, a=a), split, norm)
    x = np.zeros(a.n)
    out = []
    for form, seed in (("csu", 1), ("su+c", 2)):
        res = coverage_check(solver, x, 1.0, sample_count=1000, seed=seed, form=form)
        out.append((f"saturation: coverage {form}", _sha(_json_bytes(res.to_json()))))
    # the coverage reports are pass/fail summaries, so the parameters they
    # rest on are digested as well
    ys = np.random.default_rng(3).uniform(-0.5, 0.5, size=(200, a.n))
    out.append(("saturation: to_leaf_params_batch",
                _sha(np.concatenate(solver.to_leaf_params_batch(x, ys), axis=-1).tobytes())))
    out.append(("saturation: su_sheet_params",
                _sha(np.concatenate(su_sheet_params(solver, x, ys), axis=-1).tobytes())))
    rng = np.random.default_rng(4)
    for flavor in ("s", "u", "c", "cs", "cu"):
        params = rng.normal(size=(50, len(solver.param_indices(flavor))))
        out.append((f"solver: leaf_points {flavor}",
                    _sha(solver.leaf_points(rng.uniform(-1, 1, size=a.n), flavor, params).tobytes())))
    for pair in (("s", "cu"), ("u", "cs")):
        z = solver.intersection_batch(rng.uniform(-1, 1, size=(50, a.n)), rng.uniform(-1, 1, size=a.n), pair)
        out.append((f"solver: intersection_batch {pair[0]},{pair[1]}", _sha(z.tobytes())))
    pa = pseudo_anosov_subspace(a, split=split)
    cloud = build_saturation_set(solver, x, 0.35, (2, 20, 20, 2), 11)
    out.append(("saturation: cloud points", _sha(cloud.points.tobytes())))
    out.append(("saturation: cloud trails", _sha(cloud.trails.tobytes())))
    overlap = find_overlap_translation(solver, pa, x, 0.35, kappa_emp=0.05, cloud=cloud, seed=11)
    out.append(("saturation: overlap", _sha(_json_bytes(overlap))))
    return out


def harmonics_digests() -> list[tuple[str, str]]:
    """Leaf points and one intersection batch on a map whose profiles have
    several cos and sin harmonics with zero gaps, so that the order in which
    a profile sums its terms shows in the digest."""
    a = IntMatrix.companion(SALEM)
    split = compute_splitting(a)
    shears = (
        Shear(0, 1, TrigProfile(cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0, 0.2, 0.03)), 5e-3),
        Shear(2, 3, TrigProfile(cos_coeffs=(0.0, 0.08, 0.0, -0.02), sin_coeffs=(0.12, 0.0, -0.04)), 5e-3),
        Shear(1, 0, TrigProfile(cos_coeffs=(-0.06, 0.03), sin_coeffs=(0.0, 0.0, 0.05)), 5e-3),
    )
    solver = LeafSolver(PerturbedMap(a, shears), split, adapted_norm(split))
    rng = np.random.default_rng(5)
    pts = [solver.leaf_points(rng.uniform(-1, 1, size=a.n), flavor,
                              rng.normal(size=(40, len(solver.param_indices(flavor)))))
           for flavor in ("s", "u", "c", "cs", "cu")]
    z = solver.intersection_batch(rng.uniform(-1, 1, size=(40, a.n)), rng.uniform(-1, 1, size=a.n), ("s", "cu"))
    out = [("harmonics: leaf_points s,u,c,cs,cu", _sha(b"".join(p.tobytes() for p in pts))),
           ("harmonics: intersection_batch s,cu", _sha(z.tobytes()))]
    # batches wider than the solver's TAIL_WIDTH, so that the s and u legs
    # take tail increments from one-column and per-row Taylor tables
    wide = 320
    assert wide >= TAIL_WIDTH
    pts = [solver.leaf_points(base, flavor, rng.normal(size=(wide, 1)))
           for flavor in ("s", "u") for base in (rng.uniform(-1, 1, size=a.n), rng.uniform(-1, 1, size=(wide, a.n)))]
    out.append((f"harmonics: leaf_points s,u on {wide} rows", _sha(b"".join(p.tobytes() for p in pts))))
    for pair in (("s", "cu"), ("u", "cs")):
        z = solver.intersection_batch(rng.uniform(-1, 1, size=(wide, a.n)), rng.uniform(-1, 1, size=a.n), pair)
        out.append((f"harmonics: intersection_batch {pair[0]},{pair[1]} on {wide} rows", _sha(z.tobytes())))
    return out


def lattice_digests() -> list[tuple[str, str]]:
    """Every array of a lattice ball on dense norm factors."""
    split = compute_splitting(IntMatrix(SALEM_CONJUGATE))
    pa = pseudo_anosov_subspace(split.matrix, split=split)
    ball = lattice_ball(pa.lam, adapted_norm(split), 25.0)
    arrays = (ball.coords, ball.vectors, ball.norms, ball.center_norms, ball.center_coords)
    return [("lattice_ball: salem conjugate, radius 25",
             _sha(b"".join(np.ascontiguousarray(x).tobytes() for x in arrays)))]


def header() -> list[str]:
    """The versions of the float stack the digests were made with."""
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# scipy {scipy.__version__}", f"# blas {blas['name']} {blas['version']}"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = cli_digests(tmp) + saturation_digests() + harmonics_digests() + lattice_digests()
    print("\n".join(header()))
    for name, digest in rows:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
