"""tools/src_stats.py on a small package written for the test, and on src/torusdyn."""
import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_stats.py"

MODULES = {
    "src/pkg/__init__.py": "from .a import K, planted, used\n",
    "src/pkg/a.py": """
        def used(x=1):
            return x


        def planted(depth=0):
            return planted(depth - 1) if depth else 0


        class K:
            def __init__(self):
                self.v = used()

            def method(self):
                return self.v
        """,
    "src/pkg/b.py": """
        from .a import K


        def caller():
            return K().method()
        """,
    "tools/report.py": 'NAMES = ["a.planted"]\n',
    "bench/other.py": '"""planted is named in a docstring only."""\n',
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("src_stats", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_stats_lists_the_planted_uncalled_function(tmp_path, capsys):
    for name, text in MODULES.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip("\n"))
    tool = _load_tool()
    # planted calls itself and __init__ exports it, and neither is a use;
    # b.caller is called by nothing either
    assert tool.main([str(tmp_path / "src" / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["     1     0     0  __init__.py",
                         "    14     2     0  a.py",
                         "     5     0     0  b.py",
                         "    20     2     0  total"]
    assert lines[4:] == ["uncalled  a.planted  tools/report.py", "uncalled  b.caller  -"]


# Public functions of src/torusdyn that no module of the package calls, in the
# tool's order.  A new one fails this test until something calls it, it is
# deleted, or it is listed here with the reason it stays.  Kept on purpose:
# the constructors IntMatrix.block_diag and Lattice.standard; IntPoly.leading,
# pa_condition_cyclic and overlap_translation_linear, which only tests name;
# the names only bench/spans.py traces, which go with the next change to
# bench/; and the entry points of the benchmark and the tools.
UNCALLED = [
    "uncalled  intmatrix.IntMatrix.block_diag  tools/output_digest.py",
    "uncalled  intpoly.IntPoly.leading  -",
    "uncalled  intpoly.count_unitary_roots  bench/spans.py",
    "uncalled  lattice.Lattice.standard  -",
    "uncalled  lattice.invariant_factors  bench/spans.py",
    "uncalled  perturbed.PerturbedMap.diff_apply  bench/spans.py",
    "uncalled  perturbed.PerturbedMap.diff_apply_inverse  bench/spans.py",
    "uncalled  perturbed.salem_example  bench/workloads.py tools/output_digest.py tools/seed_sweep.py",
    "uncalled  pseudo_anosov.pa_condition_cyclic  -",
    "uncalled  saturation.coverage_check  bench/spans.py bench/workloads.py tools/output_digest.py",
    "uncalled  saturation.overlap_translation_linear  -",
    "uncalled  saturation.find_overlap_translation  bench/spans.py bench/workloads.py "
    "tools/output_digest.py tools/seed_sweep.py",
    "uncalled  splitting.unit_disk_root_count  bench/spans.py",
    "uncalled  zfactor.is_irreducible_z  bench/spans.py",
]


def test_src_uncalled_names_are_the_listed_ones(capsys):
    tool = _load_tool()
    assert tool.main([str(TOOL.parents[1] / "src" / "torusdyn")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("uncalled ")] == UNCALLED
