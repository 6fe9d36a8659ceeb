"""Independent parts of one computation, run in forked processes.

Callers split their work so that the merged result does not depend on the
number of parts: `diophantine.center_norm_minimum` folds every P-th slab
of its scan in each part, and `experiments.perturb_experiment` studies
every P-th amplitude.

While parts run, OpenBLAS is held to one thread.  Two processes that each
start OpenBLAS threads fight for the CPUs on every matrix product: on a
2-vCPU host that made the `perturb` benchmark's split study 2-3 times
slower than one process.  So work that runs matrix products is split only
where OpenBLAS can be shown to run on one thread (`part_count`'s `blas`);
the scan's folds, which sum their norms without BLAS, split regardless.
"""
from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import sys

from .errors import TorusDynError

# Two parts are the most that were measured.  The children are forked one
# after another, so more parts cost more serial forks (4-7 ms each);
# ROADMAP.md keeps the measurement on a host with more CPUs that must come
# before this is raised.
MAX_PARTS = 2

# OpenBLAS's thread controls are {prefix}openblas_{get,set}_num_threads{suffix}:
# "scipy_" and "64_" in numpy 2's wheel, "64_" alone in numpy 1's, neither in
# a system build, whatever its file name (Debian's is libblas.so.3).
_BLAS_PREFIXES = ("scipy_", "")
_BLAS_SUFFIXES = ("64_", "")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    gives one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def part_count(*limits: int, blas: bool) -> int:
    """How many parts to run: one per usable CPU, but no more than
    MAX_PARTS or than any of `limits`, and at least one.  One off Linux,
    the one platform where forking a process that has run numpy is known
    to be safe (macOS lists fork, but its system libraries may hold
    threads), and one in a daemonic process, which may not start
    children.  With `blas`, for parts that run OpenBLAS matrix products,
    also one where OpenBLAS cannot be shown to run on one thread in the
    parts: no thread control is found, and the environment does not set
    one thread."""
    if not sys.platform.startswith("linux") or multiprocessing.current_process().daemon:
        return 1
    if blas and not _blas_thread_controls() and \
            (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) != "1":
        return 1
    return max(1, min(MAX_PARTS, usable_cpus(), *limits))


def _thread_control(lib):
    """The (get, set) thread-count functions that `lib` exports, or None."""
    for prefix in _BLAS_PREFIXES:
        for suffix in _BLAS_SUFFIXES:
            names = [f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("get", "set")]
            if all(hasattr(lib, name) for name in names):
                get, set_ = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _blas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS loaded into
    this process, found by their symbols in each shared library that
    /proc/self/maps lists (Linux only, as is the split).  A library's
    lookup also sees its dependencies, so each control is kept once."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return ()
    controls = {}
    for path in sorted(p for p in paths if ".so" in os.path.basename(p)):
        try:
            control = _thread_control(ctypes.CDLL(path))
        except OSError:
            continue
        if control:
            controls.setdefault(ctypes.cast(control[1], ctypes.c_void_p).value, control)
    return tuple(controls.values())


def _child(conn, work, part: int) -> None:
    """A child's part: it sends the parent its result, or the exception
    that stopped it, which the parent raises."""
    try:
        result = work(part)
    except BaseException as exc:  # the parent raises it
        result = exc
    conn.send(result)


def run_parts(work, parts: int, what: str) -> list:
    """[work(0), ..., work(parts - 1)]: part 0 in this process and each
    other part in a forked child, with every OpenBLAS thread control found
    set to one thread meanwhile (`part_count(..., blas=True)` splits only
    where a control is found or the environment sets one thread).  A
    part's exception is raised here, part 0's first; a child that ends
    without a result raises TorusDynError (exit 3), naming `what` the
    processes compute.  Every child is stopped and joined, and the
    OpenBLAS thread count restored, before this returns or raises.

    The children are forked, not spawned: a spawned child would import
    numpy and the package again, about 0.2 s, more than a split saves."""
    controls = _blas_thread_controls() if parts > 1 else ()
    counts = [get() for get, _ in controls]
    children = []
    try:
        for _, set_threads in controls:
            set_threads(1)
        ctx = multiprocessing.get_context("fork")
        for part in range(1, parts):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(send, work, part), daemon=True)
            child.start()
            children.append((child, recv))
            send.close()  # a child that dies leaves no writer, and recv() sees EOF
        results = [work(0)]
        for child, recv in children:
            try:
                result = recv.recv()
            except EOFError:
                child.join()
                raise TorusDynError(f"a {what} process ended without its result "
                                    f"(exit code {child.exitcode})") from None
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        return results
    finally:
        for child, recv in children:
            child.terminate()
            child.join()
            recv.close()
        for (_, set_threads), count in zip(controls, counts):
            set_threads(count)
