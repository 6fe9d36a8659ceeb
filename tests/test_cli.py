import json

import pytest

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


def test_analyze_malformed_exits_1(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [[1, 0], [0]]}')
    assert main(["analyze", str(bad)]) == 1
    bad.write_text("not json")
    assert main(["analyze", str(bad)]) == 1


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
    # every catalog entry validates against the shipped schema
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/survey_entry.json").read_text())
    for line in (t / "cat1.jsonl").read_text().splitlines():
        jsonschema.validate(json.loads(line), schema)


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


@pytest.mark.parametrize("dim, height, extra, total", [
    (5, 2, ["--limit", "257"], 257),
    (5, 2, ["--limit", "513"], 513),
    (7, 3, ["--reciprocal-only"], 343),
])
def test_survey_chunk_edges(files, capsys, dim, height, extra, total):
    """Chunks of 256 polynomials neither reorder nor drop entries, with one
    process or two, and give the records of the unbatched path."""
    from torusdyn.survey import classify_entry, enumerate_polynomials

    t = files["tmp"]
    outputs = []
    for jobs in ("1", "2"):
        cat, summary = t / f"cat{jobs}.jsonl", t / f"sum{jobs}.json"
        assert main(["survey", "--dim", str(dim), "--height", str(height), *extra,
                     "--jobs", jobs, "--out", str(cat), "--summary", str(summary)]) == 0
        outputs.append((cat.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    entries = [json.loads(line) for line in outputs[0][0].splitlines()]
    assert len(entries) == total
    limit = int(extra[1]) if extra[0] == "--limit" else None
    items = enumerate_polynomials(dim, height, "--reciprocal-only" in extra, limit)
    assert entries == [classify_entry(item) for item in items]


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
    """Write the malformed input files; return {name: path}."""
    from torusdyn.intmatrix import IntMatrix
    from torusdyn.perturbed import PerturbedMap, Shear, TrigProfile

    cat_map = PerturbedMap(IntMatrix([[2, 1], [1, 1]]),
                           [Shear(0, 1, TrigProfile(sin_coeffs=(0.1,)), 0.01)]).to_json()
    bool_map = salem_example(0.01).to_json()
    bool_map["matrix"]["rows"][0][0] = True
    objs = {
        "cat_map": cat_map,
        "bool_map": bool_map,
        "bool_matrix": {"n": 2, "rows": [[True, 1], [1, 1]]},
        "false_matrix": {"n": 2, "rows": [[2, 1], [1, False]]},
        "flat_rows": {"rows": 5},
    }
    paths = dict(files)
    for name, obj in objs.items():
        p = files["tmp"] / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


# (argv with {file} placeholders, documented exit code): 1 input, 2 hypotheses,
# 4 budget
MALFORMED = [
    (["perturb", "{map}", "--eps", "abc"], 1),
    (["perturb", "{map}", "--eps", "0.01,x"], 1),
    (["perturb", "{map}", "--eps", ","], 1),
    (["perturb", "{map}", "--eps", "nan"], 1),
    (["perturb", "{map}", "--eps", "0.01,inf"], 1),
    (["perturb", "{map}", "--eps=-inf"], 1),
    (["perturb", "{bool_map}", "--eps", "0.01"], 1),
    (["perturb", "{cat_map}", "--eps", "0.01"], 2),
    (["curve", "{salem}", "--eps", "0"], 1),
    (["curve", "{salem}", "--eps", "-0.2"], 1),
    (["curve", "{salem}", "--eps", "nan"], 1),
    (["curve", "{salem}", "--eps", "inf"], 1),
    (["analyze", "{bool_matrix}"], 1),
    (["analyze", "{false_matrix}"], 1),
    (["analyze", "{flat_rows}"], 1),
    (["pa", "{bool_matrix}"], 1),
    (["dioph", "{salem}", "--radius", "nan"], 1),
    (["dioph", "{salem}", "--radius", "inf"], 1),
    (["dioph", "{salem}", "--radius", "0.5"], 1),
    (["dioph", "{salem}", "--radius", "1e9"], 4),
]


@pytest.mark.parametrize("argv,code", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
def test_malformed_inputs_exit_codes(files, capsys, argv, code):
    paths = _malformed_inputs(files)
    out_path = files["tmp"] / "malformed_out.json"
    args = [a.format(**paths) for a in argv] + ["--out", str(out_path)]
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out_path.exists()  # nothing is written, in particular no NaN


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


def test_unconverged_leaf_solve_exits_3_with_one_line(files, capsys, monkeypatch):
    import functools

    from torusdyn import experiments

    monkeypatch.setattr(experiments, "LeafSolver", functools.partial(experiments.LeafSolver, max_sweeps=2))
    out_path = files["tmp"] / "unconverged.json"
    assert main(["perturb", files["map"], "--eps", "0.01", "--out", str(out_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fixed-point iteration did not converge") and err.count("\n") == 1, err
    assert "after 2 sweeps at horizon 57" in err and "Traceback" not in err
    assert not out_path.exists()
