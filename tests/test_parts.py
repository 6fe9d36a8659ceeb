"""run_parts: results in part order, OpenBLAS held to one thread while
parts run and restored afterwards; part_count: work with matrix products
splits only where OpenBLAS can be shown to run on one thread."""
import multiprocessing
import sys
from types import SimpleNamespace

import pytest

from torusdyn import parts
from torusdyn.errors import BudgetError

CONTROLS = parts._blas_thread_controls()


def _thread_counts():
    return [get() for get, _ in CONTROLS]


@pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS thread control in this process")
@pytest.mark.parametrize("failing", [None, 0, 1], ids=["none", "here", "in-the-child"])
def test_run_parts_holds_openblas_to_one_thread_and_restores_it(failing):
    def work(part):
        if part == failing:
            raise BudgetError(f"part {part} failed")
        return part, _thread_counts()

    before = _thread_counts()
    try:
        for _, set_threads in CONTROLS:
            set_threads(2)
        if failing is None:
            ones = [1] * len(CONTROLS)
            assert parts.run_parts(work, 3, "test") == [(0, ones), (1, ones), (2, ones)]
        else:
            with pytest.raises(BudgetError, match=f"^part {failing} failed$"):
                parts.run_parts(work, 3, "test")
        assert _thread_counts() == [2] * len(CONTROLS)
        assert multiprocessing.active_children() == []
    finally:
        for (_, set_threads), count in zip(CONTROLS, before):
            set_threads(count)


def test_part_count_needs_one_blas_thread_only_for_blas_work(monkeypatch):
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(parts, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parts, "_blas_thread_controls", lambda: ())
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert parts.part_count(3, blas=True) == 1
    assert parts.part_count(3, blas=False) == 2
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert parts.part_count(3, blas=True) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # read before OMP_NUM_THREADS
    assert parts.part_count(3, blas=True) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert parts.part_count(3, blas=True) == 2
    monkeypatch.setattr(parts, "_blas_thread_controls", lambda: ((lambda: 1, lambda count: None),))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert parts.part_count(3, blas=True) == 2


def _symbol():
    return lambda *args: None  # takes the argtypes and restype the lookup sets


@pytest.mark.parametrize("prefix, suffix", [("scipy_", "64_"), ("", "64_"), ("", "")],
                         ids=["numpy-2-wheel", "numpy-1-wheel", "system-build"])
def test_thread_control_found_by_symbol(prefix, suffix):
    names = [f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("get", "set")]
    lib = SimpleNamespace(**{name: _symbol() for name in names})
    assert parts._thread_control(lib) == (getattr(lib, names[0]), getattr(lib, names[1]))
    assert parts._thread_control(SimpleNamespace(**{names[0]: _symbol()})) is None
