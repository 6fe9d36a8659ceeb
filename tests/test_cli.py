import errno
import json
import os
import re

import numpy as np
import pytest

from conftest import shipped_schema_validator
from torusdyn import cli, experiments, manifolds, survey
from torusdyn.cli import main
from torusdyn.perturbed import salem_example


@pytest.fixture()
def files(tmp_path):
    cat = {"n": 2, "rows": [[2, 1], [1, 1]]}
    salem = {"n": 4, "rows": [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]}
    phi5 = {"n": 4, "rows": [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]}
    paths = {}
    for name, obj in (("cat", cat), ("salem", salem), ("phi5", phi5)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    m = tmp_path / "map.json"
    m.write_text(json.dumps(salem_example(0.01).to_json()))
    paths["map"] = str(m)
    m0 = tmp_path / "map0.json"
    m0.write_text(json.dumps(salem_example(0.0).to_json()))
    paths["map0"] = str(m0)
    paths["tmp"] = tmp_path
    return paths


def test_analyze_cat(files, capsys):
    code = main(["analyze", files["cat"]])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["anosov"] is True and out["ergodic"] is True


def test_analyze_salem(files, capsys):
    code = main(["analyze", files["salem"]])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["dim_center"] == 2


def test_analyze_phi5_exits_2(files, capsys):
    code = main(["analyze", files["phi5"]])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["ergodic"] is False


def test_pa_subcommand(files, capsys):
    out_path = files["tmp"] / "pa.json"
    code = main(["pa", files["salem"], "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["k"] == 1 and data["dim_x"] == 4
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/pa_subspace.json").read_text())
    jsonschema.validate(data, schema)


def test_pa_rejects_anosov(files, capsys):
    assert main(["pa", files["cat"]]) == 2


# GL(4, Z) conjugates of the Salem companion by elementary moves I + m e_ij,
# m in {+-1, +-2}, until the largest entry passes 1e5 (first three) and 1e6.
# Their float moduli read the unit pair 6e-8 to 5e-4 off the circle, so a
# splitting that thresholds the moduli at 1e-8 found no center; ranked by
# the exact counts, they split.
LARGE_SALEM_CONJUGATES = [
    [[8287, 45834, -21491, -13979], [14087, 80802, -37683, -23506],
     [34917, 200119, -93339, -58278], [-2588, -15603, 7225, 4251]],
    [[-1042, -15333, 36622, -5894], [-3549, -51719, 123579, -19907],
     [-1888, -27480, 65665, -10579], [-2314, -33491, 80048, -12903]],
    [[-54773, -21323, -10802, -122718], [37759, 14791, 7310, 84659],
     [31975, 12500, 6228, 71674], [15072, 5847, 3003, 33755]],
    [[564525, 1392392, 1046315, 344891], [-320044, -789151, -593656, -196323],
     [189358, 466635, 351805, 117101], [-206399, -508764, -383191, -127178]],
    [[-74997, 416619, -1387716, 16283], [40383, -224306, 747156, -8759],
     [16358, -90863, 302660, -3549], [15441, -85788, 285745, -3356]],
    [[-1061561, -444779, -134365, -729522], [2391785, 1002118, 302596, 1643774],
     [-35666, -14941, -4455, -24553], [93060, 38994, 11853, 63899]],
]


@pytest.mark.parametrize("rows", LARGE_SALEM_CONJUGATES,
                         ids=[str(max(abs(v) for r in rows for v in r)) for rows in LARGE_SALEM_CONJUGATES])
def test_pa_on_large_entry_salem_conjugates(files, rows):
    path = files["tmp"] / "conj.json"
    path.write_text(json.dumps({"n": 4, "rows": rows}))
    assert main(["pa", str(path), "--out", str(files["tmp"] / "pa.json")]) == 0
    data = json.loads((files["tmp"] / "pa.json").read_text())
    assert (data["k"], data["dim_x"], data["p_k_coeffs"]) == (1, 4, [1, -1, -1, -1, 1])


def test_curve_on_a_large_entry_conjugate_exits_3_with_one_line(files):
    # the snap coefficients of its curve triangle reach about 2e21, past
    # int64; the error is the whole of stderr, with no cast warning before
    # it, so the process runs in a subprocess with Python's own warnings
    import subprocess
    import sys
    from pathlib import Path

    import torusdyn

    path = files["tmp"] / "conj.json"
    path.write_text(json.dumps({"n": 4, "rows": LARGE_SALEM_CONJUGATES[3]}))
    env = dict(os.environ, PYTHONPATH=str(Path(torusdyn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "torusdyn", "curve", str(path),
                           "--out", str(files["tmp"] / "c.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "error: the snapped curve vertices exceed the int64 range\n"


def test_dioph_subcommand(files, capsys):
    out_path = files["tmp"] / "dioph.json"
    csv_path = files["tmp"] / "dioph.csv"
    code = main(["dioph", files["salem"], "--radius", "12",
                 "--kmax", "50", "--candidates", "6",
                 "--out", str(out_path), "--csv", str(csv_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["c_prime_empirical"] > 0
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/diophantine.json").read_text())
    jsonschema.validate(data, schema)
    # CSV row count equals the number of enumerated lattice points
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) - 1 == data["point_count"]
    # direct enumeration oracle for the count: every nonzero point of the
    # box range(-25, 26)^4, one slab of fixed first coordinate at a time
    import numpy as np

    from torusdyn.intmatrix import IntMatrix
    from torusdyn.splitting import adapted_norm, compute_splitting

    a = IntMatrix(json.load(open(files["salem"]))["rows"])
    norm = adapted_norm(compute_splitting(a))
    axis = np.arange(-25, 26, dtype=float)
    rest = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    count = 0
    for c0 in axis:
        pts = np.column_stack([np.full(len(rest), c0), rest])
        nonzero = np.any(pts != 0, axis=1)
        count += int(np.sum(nonzero & (norm.norm(pts) <= 12 + 1e-12)))
    assert count == data["point_count"]


def test_dioph_csv_table_and_report(files, capsys):
    # The table lists the sorted ball; the report is the same with or
    # without it (the scan is reduced from the table's ball, not again).
    from test_diophantine import _one_shot_ball

    from torusdyn.intmatrix import IntMatrix
    from torusdyn.pseudo_anosov import pseudo_anosov_subspace
    from torusdyn.splitting import adapted_norm, compute_splitting

    t = files["tmp"]
    argv = ["dioph", files["salem"], "--radius", "12", "--kmax", "50", "--candidates", "6"]
    assert main(argv + ["--out", str(t / "plain.json")]) == 0
    assert main(argv + ["--out", str(t / "csv.json"), "--csv", str(t / "ball.csv")]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(t / "stdout.json"), "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    assert (t / "csv.json").read_bytes() == (t / "plain.json").read_bytes()
    assert (t / "stdout.json").read_bytes() == (t / "plain.json").read_bytes()

    split = compute_splitting(IntMatrix(json.load(open(files["salem"]))["rows"]))
    pa = pseudo_anosov_subspace(split.matrix, 8, split=split)
    ball = _one_shot_ball(pa.lam, adapted_norm(split), 12.0)
    table = "\n".join(["norm,center_norm"] + [
        f"{float(nv)!r},{float(cv)!r}" for nv, cv in zip(ball.norms, ball.center_norms)
    ]) + "\n"
    assert (t / "ball.csv").read_text() == table
    assert stdout == table


def test_perturb_linear_degeneration(files, capsys):
    out_path = files["tmp"] / "p0.json"
    code = main(["perturb", files["map0"], "--eps", "0", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["results"][0]["degeneration"]["passed"] is True


def test_perturb_small(files, capsys):
    out_path = files["tmp"] / "p1.json"
    csv_path = files["tmp"] / "p1.csv"
    code = main(["perturb", files["map"], "--eps", "0.01",
                 "--nmax", "20", "--ncount", "6", "--samples", "60",
                 "--out", str(out_path), "--csv", str(csv_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    entry = data["results"][0]
    assert 0 < entry["kappa_emp"] < 0.5
    assert entry["phi_bounds"]["direct_ok"] and entry["phi_bounds"]["inverse_ok"]
    assert csv_path.read_text().startswith("amplitude,norm,deviation\n")


@pytest.mark.parametrize("eps", ["0", "0.01"])
def test_perturb_on_a_map_with_more_than_four_coordinates(files, capsys, eps):
    """Salem + cat (N = 6): the study's fixed lattice vectors are padded with
    zeros to length N."""
    from torusdyn.intmatrix import IntMatrix

    with open(files["salem"]) as fh:
        a = IntMatrix.block_diag(IntMatrix(json.load(fh)["rows"]), IntMatrix([[2, 1], [1, 1]]))
    path, out_path = files["tmp"] / "salem_cat.json", files["tmp"] / "p6.json"
    path.write_text(json.dumps(salem_example(0.01, a=a).to_json()))
    assert main(["perturb", str(path), "--eps", eps, "--nmax", "10", "--ncount", "3",
                 "--samples", "30", "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert len(data["matrix"]) == 6
    entry = data["results"][0]
    if eps == "0":
        assert entry["degeneration"]["passed"] is True
    else:
        assert 0 < entry["kappa_emp"] < 0.5


def test_curve_subcommand(files, capsys):
    out_path = files["tmp"] / "curve.json"
    code = main(["--seed", "3", "curve", files["salem"], "--eps", "0.25",
                 "--radius", "8", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert abs(data["winding"]) == 1
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/curve.json").read_text())
    jsonschema.validate(data, schema)


def test_survey_subcommand_and_determinism(files, capsys):
    t = files["tmp"]
    args = ["survey", "--dim", "4", "--height", "1",
            "--out", str(t / "cat1.jsonl"), "--summary", str(t / "sum1.json")]
    assert main(args) == 0
    args2 = ["survey", "--dim", "4", "--height", "1", "--jobs", "2",
             "--out", str(t / "cat2.jsonl"), "--summary", str(t / "sum2.json")]
    assert main(args2) == 0
    assert (t / "cat1.jsonl").read_bytes() == (t / "cat2.jsonl").read_bytes()
    assert (t / "sum1.json").read_bytes() == (t / "sum2.json").read_bytes()
    summary = json.loads((t / "sum1.json").read_text())
    assert summary["total"] == 54
    # every catalog entry, its report included, validates against the shipped schemas
    validator = shipped_schema_validator("survey_entry.json")
    for line in (t / "cat1.jsonl").read_text().splitlines():
        validator.validate(json.loads(line))


def test_survey_reciprocal_filter(files, capsys):
    t = files["tmp"]
    assert main(["survey", "--dim", "4", "--height", "1", "--reciprocal-only",
                 "--out", str(t / "rec.jsonl"), "--summary", str(t / "recsum.json")]) == 0
    for line in (t / "rec.jsonl").read_text().splitlines():
        coeffs = json.loads(line)["coeffs"]
        assert coeffs == coeffs[::-1]


def test_survey_limit(files, capsys):
    t = files["tmp"]
    assert main(["survey", "--dim", "5", "--height", "1", "--limit", "7",
                 "--out", str(t / "lim.jsonl"), "--summary", str(t / "limsum.json")]) == 0
    assert len((t / "lim.jsonl").read_text().splitlines()) == 7


def test_survey_limit_zero_gives_an_empty_catalog(files, capsys):
    t = files["tmp"]
    assert main(["survey", "--dim", "4", "--height", "1", "--limit", "0",
                 "--out", str(t / "lim.jsonl"), "--summary", str(t / "limsum.json")]) == 0
    assert (t / "lim.jsonl").read_text() == ""
    assert json.loads((t / "limsum.json").read_text())["total"] == 0


@pytest.mark.parametrize("dim, height, extra, total", [
    (5, 2, ["--limit", "257"], 257),
    (5, 2, ["--limit", "513"], 513),
    (7, 3, ["--reciprocal-only"], 343),
    (5, 2, ["--reciprocal-only"], 25),
    (4, 2, [], 250),
    (5, 2, [], 1250),
    (6, 1, [], 486),
    (3, 5, [], 242),
])
def test_survey_chunk_edges(files, capsys, dim, height, extra, total):
    """Chunks of 256 orbit representatives neither reorder nor drop entries,
    with one process or two, and the records derived from them are those of
    the unbatched path that factors every polynomial.  At odd N the reciprocal
    filter drops each negation, and a limit of 257 cuts orbits."""
    from torusdyn.survey import classify_entry, enumerate_polynomials

    t = files["tmp"]
    outputs = []
    for jobs in ("1", "2"):
        cat, summary = t / f"cat{jobs}.jsonl", t / f"sum{jobs}.json"
        assert main(["survey", "--dim", str(dim), "--height", str(height), *extra,
                     "--jobs", jobs, "--out", str(cat), "--summary", str(summary)]) == 0
        outputs.append((cat.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    lines = outputs[0][0].decode().splitlines(keepends=True)
    assert len(lines) == total
    limit = int(extra[1]) if extra[:1] == ["--limit"] else None
    items = enumerate_polynomials(dim, height, "--reciprocal-only" in extra, limit)
    assert lines == [classify_entry(item) for item in items]


def test_dioph_factors_the_char_poly_once(files, capsys, monkeypatch):
    from torusdyn.intmatrix import IntMatrix

    calls = []
    char_poly = IntMatrix.char_poly

    def counted(self):
        calls.append(self)
        return char_poly(self)

    monkeypatch.setattr(IntMatrix, "char_poly", counted)
    assert main(["dioph", files["salem"], "--radius", "6", "--kmax", "20",
                 "--candidates", "2"]) == 0
    assert len(calls) == 1


def test_perturb_outputs_reproducible(files):
    t = files["tmp"]
    for tag in ("a", "b"):
        assert main(["--seed", "5", "perturb", files["map"], "--eps", "0.01",
                     "--nmax", "10", "--ncount", "4", "--samples", "30",
                     "--out", str(t / f"rep_{tag}.json"),
                     "--csv", str(t / f"rep_{tag}.csv")]) == 0
    assert (t / "rep_a.json").read_bytes() == (t / "rep_b.json").read_bytes()
    assert (t / "rep_a.csv").read_bytes() == (t / "rep_b.csv").read_bytes()


def _malformed_inputs(files):
    """Write the malformed input files; return {name: path}, with {missing}
    a directory that does not exist."""
    from torusdyn.intmatrix import IntMatrix
    from torusdyn.perturbed import PerturbedMap, Shear, TrigProfile

    cat_map = PerturbedMap(IntMatrix([[2, 1], [1, 1]]),
                           [Shear(0, 1, TrigProfile(sin_coeffs=(0.1,)), 0.01)]).to_json()
    bool_map = salem_example(0.01).to_json()
    bool_map["matrix"]["rows"][0][0] = True
    nan_cos_map, huge_sin_map, nan_amplitude_map = (salem_example(0.01).to_json() for _ in range(3))
    nan_cos_map["shears"][0]["cos"] = [float("nan")]
    huge_sin_map["shears"][0]["sin"] = [1e308, 1e308]  # its derivative bound overflows
    nan_amplitude_map["shears"][1]["amplitude"] = float("nan")
    objs = {
        "cat_map": cat_map,
        "bool_map": bool_map,
        "nan_cos_map": nan_cos_map,
        "huge_sin_map": huge_sin_map,
        "nan_amplitude_map": nan_amplitude_map,
        "bool_matrix": {"n": 2, "rows": [[True, 1], [1, 1]]},
        "false_matrix": {"n": 2, "rows": [[2, 1], [1, False]]},
        "flat_rows": {"rows": 5},
        # a sextic whose invariant subspace X has dimension 6
        "sextic": {"n": 6, "rows": [[0, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, 2], [0, 1, 0, 0, 0, -1],
                                    [0, 0, 1, 0, 0, -1], [0, 0, 0, 1, 0, -1], [0, 0, 0, 0, 1, 2]]},
        "ragged_rows": {"rows": [[1, 0], [0]]},
        # the Anosov maps [[a + 1, a], [a, a - 1]], whose large entries
        # defeat the float splitting
        **{f"anosov_1e{e}": {"n": 2, "rows": [[10**e + 1, 10**e], [10**e, 10**e - 1]]}
           for e in (16, 17)},
        "anosov_1e17_map": PerturbedMap(IntMatrix([[10**17 + 1, 10**17], [10**17, 10**17 - 1]]),
                                        [Shear(0, 1, TrigProfile(sin_coeffs=(0.1,)), 0.01)]).to_json(),
    }
    paths = dict(files, missing=str(files["tmp"] / "missing"))
    for name, obj in objs.items():
        p = files["tmp"] / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    for name, data in (("not_json", b"not json"), ("not_utf8", b"\xff\xfe")):
        paths[name] = str(files["tmp"] / f"{name}.json")
        (files["tmp"] / f"{name}.json").write_bytes(data)
    return paths


class _Reached(Exception):
    """Raised in place of a command's first computation."""


def _stop_first_computation(*args, **kwargs):
    raise _Reached


# a row's patch: STOP replaces its command's first computation (FIRST) with
# _stop_first_computation, so that the row shows the command fails before it
STOP = "stop"
FIRST = {"analyze": (cli, "classify"), "pa": (cli, "pseudo_anosov_subspace"),
         "dioph": (cli, "hypothesis_spectrum"), "curve": (cli, "curve_experiment"),
         "perturb": (experiments, "_factor_spectrum"), "survey": (cli, "run_survey")}
# the dioph lattice scan, which a budget stops before
SCAN = (cli, "center_norm_minimum", _stop_first_computation)
CPUS = os.cpu_count() or 1
BOX = ["--dim", "4", "--height", "1"]
# each command's input argument and its output options
OUTPUTS = [(["analyze", "{salem}"], ["--out"]), (["pa", "{salem}"], ["--out"]),
           (["curve", "{salem}"], ["--out"]), (["dioph", "{salem}"], ["--out", "--csv"]),
           (["perturb", "{map}"], ["--out", "--csv"]), (["survey", *BOX], ["--out", "--summary"])]


def _rows(*rows):
    """(argv with {file} placeholders, documented exit code[, patch[, a regex
    the error line must match]]) as pytest params with the argv as the id."""
    return [pytest.param(*row, *(None, "")[len(row) - 2:], id=" ".join(row[0])) for row in rows]


# Every failure the command line documents: 1 input, 2 hypotheses, 3
# invariant or numerics, 4 budget.  2 * 7^8 = 11,529,602 polynomials in the
# survey box (9, 3).
FAILURES = _rows(
    (["perturb", "{map}", "--eps", "abc"], 1),
    (["perturb", "{map}", "--eps", "0.01,x"], 1),
    (["perturb", "{map}", "--eps", ","], 1),
    (["perturb", "{map}", "--eps", "nan"], 1),
    (["perturb", "{map}", "--eps", "0.01,inf"], 1),
    (["perturb", "{map}", "--eps=-inf"], 1),
    (["perturb", "{bool_map}", "--eps", "0.01"], 1),
    (["perturb", "{cat_map}", "--eps", "0.01"], 2),
    (["perturb", "{nan_cos_map}", "--eps", "0.01"], 1),
    (["perturb", "{huge_sin_map}", "--eps", "0.01"], 1),
    (["perturb", "{nan_amplitude_map}", "--eps", "0.01"], 1),
    (["curve", "{salem}", "--eps", "0"], 1),
    (["curve", "{salem}", "--eps", "-0.2"], 1),
    (["curve", "{salem}", "--eps", "nan"], 1),
    (["curve", "{salem}", "--eps", "inf"], 1),
    (["curve", "{salem}", "--radius", "inf"], 1),
    (["curve", "{salem}", "--radius", "nan"], 1),
    (["curve", "{salem}", "--radius=-1"], 1),
    (["curve", "{salem}", "--radius", "1e300"], 4),
    (["curve", "{salem}", "--radius", "1e7"], 4),
    (["survey", "--dim", "4", "--height", "1", "--limit=-1"], 1),
    (["analyze", "{bool_matrix}"], 1),
    (["analyze", "{false_matrix}"], 1),
    (["analyze", "{flat_rows}"], 1),
    (["analyze", "{ragged_rows}"], 1),
    (["analyze", "{not_json}"], 1),
    (["perturb", "{not_utf8}"], 1),
    (["pa", "{bool_matrix}"], 1),
    # pa takes k = 1 (Lemma A): its power bound is no longer an option
    (["pa", "{salem}", "--kmax", "0"], 1, None, "unrecognized arguments"),
    (["dioph", "{salem}", "--kmax-pa", "0"], 1, None, "unrecognized arguments"),
    (["curve", "{salem}", "--kmax", "0"], 1, None, "unrecognized arguments"),
    (["pa", "{salem}", "--kmax", "1000000"], 1, STOP, "unrecognized arguments: --kmax 1000000$"),
    (["dioph", "{salem}", "--radius", "nan"], 1),
    (["dioph", "{salem}", "--radius", "inf"], 1),
    (["dioph", "{salem}", "--radius", "0.5"], 1),
    (["dioph", "{salem}", "--radius", "1e9"], 4),
    # witness search arguments out of range fail before the lattice scan
    (["dioph", "{salem}", "--candidates", "1"], 1, SCAN, "pair search needs candidate_count >= 2"),
    (["dioph", "{salem}", "--candidates", "0"], 1, SCAN),
    (["dioph", "{salem}", "--kmax", "0"], 1, SCAN),
    (["dioph", "{salem}", "--candidates", "1", "--csv", "{tmp}/ball.csv"], 1,
     (cli, "lattice_ball", _stop_first_computation)),
    (["dioph", "{sextic}", "--candidates", "0"], 1, SCAN,
     "witness search needs candidate_count >= 1"),
    (["dioph", "{sextic}", "--kmax", "0"], 1, SCAN),
    (["dioph", "{salem}", "--delta", "nan"], 1),
    # the exact hypotheses are checked before any float work
    *(([cmd, f"{{anosov_1e{e}}}"], 2, None, "^error: center dimension is not 2$")
      for cmd in ("dioph", "curve") for e in (16, 17)),
    (["perturb", "{anosov_1e17_map}", "--eps", "0.01"], 2, None, r"needs a center \(dim_center is 0\)$"),
    # witness searches over more than WITNESS_SEARCH_BUDGET distances stop
    # before the lattice scan
    (["dioph", "{salem}", "--kmax", "4000"], 4, SCAN, "witness search over 5505376086 distances"),
    (["dioph", "{salem}", "--kmax", "381"], 4, SCAN),
    (["dioph", "{salem}", "--candidates", "1000"], 4, SCAN),
    (["dioph", "{salem}", "--kmax", "4000", "--csv", "{tmp}/ball.csv"], 4,
     (cli, "lattice_ball", _stop_first_computation)),
    (["dioph", "{sextic}", "--radius", "8", "--kmax", "2800000", "--candidates", "1"], 4, SCAN),
    # the Salem ball of radius < 3.844 holds no nonzero lattice point; the
    # report fails before the table's sorted ball is built
    (["dioph", "{salem}", "--radius", "3"], 1, None, r"radius 3; the least lattice norm is 3\.844"),
    (["dioph", "{salem}", "--radius", "1", "--csv", "{tmp}/ball.csv"], 1,
     (cli, "lattice_ball", _stop_first_computation), r"norm is 3\.844"),
    (["dioph", "{salem}", "--radius", "1", "--format", "csv"], 1,
     (cli, "lattice_ball", _stop_first_computation), r"norm is 3\.844"),
    (["perturb", "{map}", "--ncount", "0"], 1),
    (["perturb", "{map}", "--nmax", "1"], 1),
    (["perturb", "{map}", "--nmax", "nan"], 1),
    (["perturb", "{map}", "--samples", "0"], 1),
    (["perturb", "{map}", "--samples", str(experiments.PHI_SAMPLES_BUDGET + 1)], 4, STOP),
    (["perturb", "{map}", "--ncount", str(experiments.N_COUNT_BUDGET + 1)], 4, STOP),
    (["perturb", "{map}", "--nmax", repr(float(np.nextafter(experiments.N_MAX_LIMIT, np.inf)))], 1, STOP),
    (["perturb", "{map}", "--eps", "0.01"], 3, (manifolds, "MAX_SWEEPS", 2),
     "^error: fixed-point iteration did not converge .* after 2 sweeps at horizon 57 "),
    (["survey", *BOX, "--jobs", "0"], 1, STOP),
    (["survey", *BOX, "--jobs", "-1"], 1, STOP),
    (["survey", *BOX, "--jobs", str(CPUS + 1)], 1, STOP),
    (["survey", "--dim", "9", "--height", "3"], 4, STOP),
    (["survey", "--dim", "9", "--height", "3", "--limit", str(survey.SURVEY_BUDGET + 1)], 4, STOP),
    # argument errors are input errors
    (["dioph", "{salem}", "--radius", "abc"], 1, None,
     "^error: argument --radius: invalid float value: 'abc'$"),
    (["pa", "{salem}", "--bogus", "1"], 1, None, "unrecognized arguments: --bogus 1$"),
    (["survey", "--dim", "4"], 1, None, "required: --height$"),
    (["--seed", "1"], 1, None, "required: command$"),
    # a path that cannot be read or written
    *((argv[:1] + ["{missing}/x.json"], 1, STOP) for argv, _ in OUTPUTS[:5]),
    *((argv + [option, bad], 1, STOP) for argv, options in OUTPUTS for option in options
      for bad in ("{missing}/x", "{tmp}")),
    # two outputs that name one file
    (["survey", "--dim", "3", "--height", "1", "--out", "{tmp}/x", "--summary", "{tmp}/x"], 1, STOP,
     "^error: output paths '.*/x' and '.*/x' name the same file$"),
    (["survey", *BOX, "--out", "{tmp}/x", "--summary", "{tmp}/./x"], 1, STOP,
     "name the same file$"),
    (["dioph", "{salem}", "--radius", "10", "--out", "{tmp}/x", "--csv", "{tmp}/x"], 1, STOP,
     "name the same file$"),
    (["perturb", "{map}", "--out", "{tmp}/x", "--csv", "{tmp}/x"], 1, STOP, "name the same file$"),
)


@pytest.mark.parametrize("argv,code,patch,says", FAILURES)
def test_malformed_inputs_exit_codes(files, capsys, monkeypatch, argv, code, patch, says):
    """The documented exit code, one error line, no NaN, and no output file."""
    paths = _malformed_inputs(files)
    if patch == STOP:
        patch = (*FIRST[argv[0]], _stop_first_computation)
    if patch is not None:
        monkeypatch.setattr(*patch)
    args = [a.format(**paths) for a in argv]
    # a command line without a subcommand has no --out
    if argv[0] in FIRST and "--out" not in args:
        args += ["--out", str(files["tmp"] / "failed.json")]
    before = sorted(os.listdir(files["tmp"]))
    assert main(args) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and re.search(says, err), err
    assert "Traceback" not in err
    assert "NaN" not in out and "Infinity" not in out
    assert sorted(os.listdir(files["tmp"])) == before


def test_perturb_sizes_at_their_limits_are_allowed(monkeypatch):
    monkeypatch.setattr(*FIRST["perturb"], _stop_first_computation)
    with pytest.raises(_Reached):
        experiments.perturb_experiment(salem_example(1.0), [1e-2], n_max=experiments.N_MAX_LIMIT,
                                       n_count=experiments.N_COUNT_BUDGET,
                                       phi_samples=experiments.PHI_SAMPLES_BUDGET)


@pytest.mark.parametrize("argv", [
    BOX + ["--jobs", "1"],
    BOX + ["--jobs", str(CPUS)],
    ["--dim", "9", "--height", "3", "--limit", str(survey.SURVEY_BUDGET)],
])
def test_survey_at_its_limits_is_allowed(monkeypatch, argv):
    monkeypatch.setattr(cli, "run_survey", _stop_first_computation)
    with pytest.raises(_Reached):
        main(["survey", *argv])


@pytest.mark.parametrize("matrix, argv", [
    ("salem", []),
    ("salem", ["--kmax", "380"]),
    ("salem", ["--kmax", "1065", "--candidates", "2"]),
    ("sextic", ["--radius", "8", "--kmax", "2700000", "--candidates", "1"]),
])
def test_dioph_witness_search_at_its_budget_is_allowed(files, monkeypatch, matrix, argv):
    monkeypatch.setattr(*SCAN)
    with pytest.raises(_Reached):
        main(["dioph", _malformed_inputs(files)[matrix], *argv])


def test_write_failure_removes_the_partial_file(files, capsys, monkeypatch):
    """A write that fails part-way, as on a full disk, exits 1 with one line
    and leaves no partial file."""
    real_open = open

    class DiskFull:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)
            self.blocks = 0

        def write(self, block):
            if self.blocks:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.blocks += 1
            return self.fh.write(block)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(cli, "open", DiskFull, raising=False)
    t = files["tmp"]
    before = sorted(os.listdir(t))
    assert main(["survey", *BOX, "--out", str(t / "cat.jsonl"), "--summary", str(t / "sum.json")]) == 1
    out, err = capsys.readouterr()
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"
    assert sorted(os.listdir(t)) == before


def test_unwritable_output_directory_exits_1(files, capsys, monkeypatch):
    # root passes the real access check, so the check is made to fail here
    monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    monkeypatch.setattr(*FIRST["analyze"], _stop_first_computation)
    assert main(["analyze", files["salem"], "--out", str(files["tmp"] / "x.json")]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: output directory {str(files['tmp'])!r} is missing or not writable\n"
    assert not os.path.exists(files["tmp"] / "x.json")


def test_python_dash_m_help():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import torusdyn

    env = dict(os.environ, PYTHONPATH=str(Path(torusdyn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "torusdyn", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: torusdyn")


# the overlap search, the one numerical step no command runs, on its
# criterion-10 setting (seed 11 finds its translation)
OVERLAP_RUN = (
    "import numpy as np; "
    "from torusdyn.perturbed import salem_example; "
    "from torusdyn.manifolds import LeafSolver; "
    "from torusdyn.pseudo_anosov import pseudo_anosov_subspace; "
    "from torusdyn.saturation import find_overlap_translation; "
    "from torusdyn.splitting import adapted_norm, compute_splitting; "
    "f = salem_example(0.01); split = compute_splitting(f.matrix); "
    "solver = LeafSolver(f, split, adapted_norm(split)); "
    "find_overlap_translation(solver, pseudo_anosov_subspace(f.matrix, 8, split=split), "
    "np.zeros(4), 0.35, 0.05, seed=11); "
)


@pytest.mark.parametrize("argv", [
    [],
    ["perturb", "{map0}", "--eps", "0", "--out", "{tmp}/p0.json"],
    ["perturb", "{map}", "--eps", "0.01", "--nmax", "10", "--ncount", "3", "--samples", "20",
     "--out", "{tmp}/p.json"],
    ["pa", "{salem}", "--out", "{tmp}/pa.json"],
    ["dioph", "{salem}", "--radius", "12", "--out", "{tmp}/d.json"],
    ["curve", "{salem}", "--eps", "0.25", "--radius", "8", "--out", "{tmp}/c.json"],
    None,
], ids=["import", "perturb_eps0", "perturb", "pa", "dioph", "curve", "overlap"])
def test_cli_import_defers_scipy(files, argv):
    # nothing in the package loads scipy, which would take most of a fresh
    # import's time and memory: the splitting is numpy alone, the leaf solver
    # is the one construction of the leaves, down to the amplitude-0 graph
    # check, and the overlap search's neighbour queries are numpy grids.
    # The tests keep scipy as an oracle.
    import subprocess
    import sys
    from pathlib import Path

    import torusdyn

    env = dict(os.environ, PYTHONPATH=str(Path(torusdyn.__file__).resolve().parents[1]))
    if argv is None:
        run = OVERLAP_RUN
    else:
        run = f"assert torusdyn.cli.main({[a.format(**files) for a in argv]!r}) == 0; " if argv else ""
    code = f"import sys, torusdyn.cli; {run}print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
