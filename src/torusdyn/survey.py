"""Survey of companion-matrix automorphisms over coefficient boxes.

Enumerates monic degree-N integer polynomials with constant term +-1 and
middle coefficients bounded by a height, classifies each companion
matrix, and aggregates class counts.  Enumeration order is fixed, so
catalogs are byte-reproducible; with several worker processes the merge
preserves that order.
"""
from __future__ import annotations

import itertools
import multiprocessing
from typing import Iterator, Optional

from .intpoly import IntPoly
from .splitting import classify_poly
from .zfactor import factor_z_many


def enumerate_polynomials(dim: int, height: int, reciprocal_only: bool = False,
                          limit: Optional[int] = None) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(index, ascending coefficients) for monic degree-dim polynomials with
    constant term +-1 and |middle coefficients| <= height."""
    count = 0
    index = 0
    span = range(-height, height + 1)
    for a0 in (1, -1):
        for mid in itertools.product(span, repeat=dim - 1):
            coeffs = (a0, *mid, 1)
            index += 1
            if reciprocal_only and coeffs != tuple(reversed(coeffs)):
                continue
            yield index - 1, coeffs
            count += 1
            if limit is not None and count >= limit:
                return


def companion_minus_identity_snf(p: IntPoly) -> list[int]:
    """Nonzero invariant factors of C - I for the companion matrix C of p.

    xI - C = U(x) diag(1, ..., 1, p(x)) V(x) with U, V invertible over
    Z[x]; at x = 1 this is a Smith form of I - C.
    """
    return [1] * (p.degree - 1) + ([abs(p(1))] if p(1) else [])


def classify_entry(item: tuple[int, tuple[int, ...]],
                   factors: Optional[list[tuple[IntPoly, int]]] = None) -> dict:
    """Classification record for one polynomial; ``factors``, when given, is
    its ``factor_z`` factorization."""
    index, coeffs = item
    p = IntPoly(coeffs)
    report = classify_poly(p, factors)
    key = f"cp:{list(coeffs)}|snf:{companion_minus_identity_snf(p)}"
    return {
        "index": index,
        "coeffs": list(coeffs),
        "conjugacy_key": key,
        "report": report.to_json(),
    }


def classify_chunk(items: list[tuple[int, tuple[int, ...]]]) -> list[dict]:
    """Worker: records for a chunk of polynomials, factored in one batch."""
    factorizations = factor_z_many([IntPoly(coeffs) for _, coeffs in items])
    return [classify_entry(item, factors) for item, factors in zip(items, factorizations)]


# Polynomials per chunk: large enough to amortize the batched sieve, small
# enough that its stacked arrays stay a few hundred kilobytes.
CHUNK_SIZE = 256


def run_survey(dim: int, height: int, limit: Optional[int] = None,
               reciprocal_only: bool = False, jobs: int = 1) -> tuple[list[dict], dict]:
    """Classify the whole coefficient box; returns (entries, summary).

    The box is classified in chunks of CHUNK_SIZE polynomials, in order,
    with one process or a pool of ``jobs``.
    """
    items = enumerate_polynomials(dim, height, reciprocal_only, limit)
    chunks = iter(lambda: list(itertools.islice(items, CHUNK_SIZE)), [])
    if jobs <= 1:
        entries = [e for chunk in chunks for e in classify_chunk(chunk)]
    else:
        with multiprocessing.Pool(jobs) as pool:
            entries = [e for part in pool.imap(classify_chunk, chunks) for e in part]
    summary = summarize(entries, dim=dim, height=height,
                        reciprocal_only=reciprocal_only, limit=limit)
    return entries, summary


def summarize(entries: list[dict], **config) -> dict:
    by_center: dict[str, int] = {}
    ergodic = anosov = pa = 0
    ergodic_center_ok = 0
    keys = set()
    for e in entries:
        r = e["report"]
        by_center[str(r["dim_center"])] = by_center.get(str(r["dim_center"]), 0) + 1
        if r["ergodic"]:
            ergodic += 1
            if r["dim_center"] in (0, 2):
                ergodic_center_ok += 1
        if r["anosov"]:
            anosov += 1
        if r["pseudo_anosov"]:
            pa += 1
        keys.add(e["conjugacy_key"])
    return {
        "config": config,
        "total": len(entries),
        "ergodic": ergodic,
        "anosov": anosov,
        "pseudo_anosov": pa,
        "by_dim_center": dict(sorted(by_center.items())),
        "ergodic_with_center_0_or_2": ergodic_center_ok,
        "distinct_conjugacy_keys": len(keys),
    }
