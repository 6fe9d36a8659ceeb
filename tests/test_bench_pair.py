"""The summary of tools/bench_pair.py on fixed numbers, and its copy of the
working tree; no benchmark runs."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_on_fixed_numbers():
    tool = _load_tool()
    base = [(0.30, 50.0), (0.32, 52.0), (0.31, 51.0), (0.33, 50.0), (0.34, 53.0)]
    head = [(0.26, 51.0), (0.27, 52.0), (0.31, 50.0), (0.25, 54.0), (0.28, 52.0)]
    pairs = [{"base": _result(*b), "head": _result(*h)} for b, h in zip(base, head)]
    pairs[1]["head"]["failed"] = 2
    pairs[4]["base"]["correct"] = False
    summary = tool.summarize(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    wall = summary["wall_s"]
    assert wall["base"] == {"q1": 0.31, "median": 0.32, "q3": 0.33}
    assert wall["head"] == {"q1": 0.26, "median": 0.27, "q3": 0.28}
    # a tie (0.31 against 0.31) is not a win
    assert (wall["wins"], wall["pairs"], wall["unit"], wall["better"]) == (4, 5, "s", "lower")
    rss = summary["peak_rss_mb"]
    assert rss["base"] == {"q1": 50.0, "median": 51.0, "q3": 52.0}
    assert rss["wins"] == 2
    assert tool.summarize(pairs, {"wall_s": "higher"})["wall_s"]["wins"] == 0
    assert tool.failures(pairs) == {
        "base": {"attempted": 50, "failed": 0, "share": 0.0, "incorrect_runs": 1},
        "head": {"attempted": 50, "failed": 2, "share": 0.04, "incorrect_runs": 0},
    }


def test_summary_of_one_pair_and_of_a_metric_one_side_lacks():
    tool = _load_tool()
    pair = {"base": _result(0.3, 50.0), "head": _result(0.2, 50.0)}
    del pair["head"]["metrics"]["peak_rss_mb"]
    summary = tool.summarize([pair], {})
    assert list(summary) == ["wall_s"]
    assert summary["wall_s"]["head"] == {"q1": 0.2, "median": 0.2, "q3": 0.2}
    assert summary["wall_s"]["wins"] == 1


def test_zero_pairs_exit_before_any_run():
    tool = _load_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main(["--base", "HEAD", "--workload", "dioph", "--pairs", "0", "--seed", "1",
                   "--seconds", "1", "--out", "unused.json"])
    assert exc.value.code == 2


def _edited_repo(tmp_path):
    """A git repository with two committed files, one edited since, and an
    untracked file."""
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    (repo / "a.txt").write_text("committed\n")
    (repo / "sub" / "b.txt").write_text("nested\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "a.txt", "sub/b.txt")
    git("commit", "-q", "-m", "seed")
    (repo / "a.txt").write_text("edited\n")
    (repo / "untracked.txt").write_text("stray\n")
    return repo


def _files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_head_copy_holds_tracked_edits_and_no_untracked_file(tmp_path, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "ROOT", str(_edited_repo(tmp_path)))
    dest = tmp_path / "head"
    tool.copy_tracked(str(dest))
    assert (dest / "a.txt").read_text() == "edited\n"
    assert (dest / "sub" / "b.txt").read_text() == "nested\n"
    assert _files(dest) == ["a.txt", "sub/b.txt"]


def test_base_extract_holds_the_commit_and_registers_nothing(tmp_path, monkeypatch):
    tool = _load_tool()
    repo = _edited_repo(tmp_path)
    git_files = _files(repo / ".git")
    monkeypatch.setattr(tool, "ROOT", str(repo))
    dest = tmp_path / "base"
    tool.extract_commit("HEAD", str(dest))
    assert (dest / "a.txt").read_text() == "committed\n"
    assert _files(dest) == ["a.txt", "sub/b.txt"]
    assert _files(repo / ".git") == git_files


CHILD_ALLOCATES = """
import os
pid = os.fork()
if pid == 0:
    block = bytearray(48 * 2**20)
    os._exit(0)
os.waitpid(pid, 0)
print("done")
"""


def test_run_measured_counts_a_forked_child(tmp_path):
    # the child touches 48 MB; the parent, a bare interpreter, about 10 MB
    tool = _load_tool()
    code, out, err, tree_mb = tool.run_measured([sys.executable, "-c", CHILD_ALLOCATES],
                                                str(tmp_path))
    assert (code, out, err) == (0, "done\n", "")
    assert tree_mb > 48
    assert tool.run_measured([sys.executable, "-c", "import sys; sys.exit(3)"],
                             str(tmp_path))[0] == 3
