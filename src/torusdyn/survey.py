"""Survey of companion-matrix automorphisms over coefficient boxes.

Enumerates monic degree-N integer polynomials with constant term +-1 and
middle coefficients bounded by a height, classifies each companion
matrix, and aggregates class counts.  Only one polynomial of each orbit
under negation and reversal is factored; the records of the others are
derived from its spectrum.  Each catalog line embeds the report text of
``splitting.report_json``, and the summary tallies the facts it was
written from.  Enumeration order is fixed, so catalogs are
byte-reproducible; with several worker processes the merge preserves that
order.
"""
from __future__ import annotations

import itertools
import multiprocessing
from collections import Counter
from typing import Iterator, Optional

import numpy as np

from .intpoly import IntPoly
from .splitting import _factor_spectrum, _FactorSpectrum, _json_ints, image_spectrum, report_json
from .zfactor import factor_z_many


def enumerate_polynomials(dim: int, height: int, reciprocal_only: bool = False,
                          limit: Optional[int] = None) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(index, ascending coefficients) for monic degree-dim polynomials with
    constant term +-1 and |middle coefficients| <= height; the first `limit`
    of them when a limit is given."""
    span = range(-height, height + 1)
    box = ((a0, *mid, 1) for a0 in (1, -1) for mid in itertools.product(span, repeat=dim - 1))
    items = ((i, c) for i, c in enumerate(box) if not reciprocal_only or c == c[::-1])
    return itertools.islice(items, limit)


def companion_minus_identity_snf(p: IntPoly) -> list[int]:
    """Nonzero invariant factors of C - I for the companion matrix C of p.

    xI - C = U(x) diag(1, ..., 1, p(x)) V(x) with U, V invertible over
    Z[x]; at x = 1 this is a Smith form of I - C.
    """
    at_one = sum(p.coeffs)  # p(1)
    return [1] * (p.degree - 1) + ([abs(at_one)] if at_one else [])


def classify_entry(item: tuple[int, tuple[int, ...]],
                   spectrum: Optional[list[_FactorSpectrum]] = None,
                   tally: Optional[Counter] = None) -> str:
    """The catalog line of one polynomial, read from ``spectrum``, its
    ``_factor_spectrum``; without one, the polynomial is factored here.

    The line is ``json.dumps(entry, sort_keys=True)`` and a newline for the
    entry {index, coeffs, conjugacy_key, report}, where report is the text
    of ``splitting.report_json``.  ``tally``, when given, counts the
    (dim_center, ergodic, pseudo_anosov) that text was written from, the
    facts the summary reads.
    """
    index, coeffs = item
    p = IntPoly(coeffs)
    report, facts = report_json(p, _factor_spectrum(p) if spectrum is None else spectrum)
    if tally is not None:
        tally[facts] += 1
    cp = _json_ints(coeffs)
    return (f'{{"coeffs": {cp}, "conjugacy_key": "cp:{cp}|snf:'
            f'{companion_minus_identity_snf(p)}", "index": {index}, "report": {report}}}\n')


def spectrum_chunk(items: list[tuple[int, tuple[int, ...]]]) -> list[list[_FactorSpectrum]]:
    """Worker: the spectra of a chunk of polynomials, factored in one batch."""
    polys = [IntPoly(coeffs) for _, coeffs in items]
    return [_factor_spectrum(p, factors) for p, factors in zip(polys, factor_z_many(polys))]


def orbit_members(coeffs: np.ndarray) -> np.ndarray:
    """Each row of ascending coefficients, its negation, its reversal and the
    reversal of its negation, stacked on a first axis of length 4: the rows
    of ``splitting.negation`` and ``splitting.reversal`` at once."""
    degree = coeffs.shape[1] - 1
    negated = coeffs * np.where((degree - np.arange(degree + 1)) & 1, -1, 1)
    return np.stack([coeffs, negated, coeffs[:, ::-1] * coeffs[:, :1],
                     negated[:, ::-1] * negated[:, :1]])


def box_indices(coeffs: np.ndarray, height: int) -> np.ndarray:
    """The index in ``enumerate_polynomials`` of each polynomial of the box
    along the last axis: its sign of p(0), then its middle coefficients, as
    mixed-radix digits."""
    base = 2 * height + 1
    degree = coeffs.shape[-1] - 1
    weights = base ** np.arange(degree - 2, -1, -1, dtype=np.int64)
    sign = np.where(coeffs[..., 0] == 1, 0, base ** (degree - 1))
    return sign + (coeffs[..., 1:-1] + height) @ weights


def orbit_representatives(coeffs: np.ndarray, height: int) -> tuple[list[int], list[int]]:
    """For the rows of ascending coefficients of the box, (indices, images):
    the index of each row's orbit member of least index, and which
    ``orbit_members`` image of it the row is (bit 0 negation, bit 1 reversal).

    The enumeration keeps that member under ``reciprocal_only`` as well:
    reversal fixes a palindrome, and negation keeps it palindromic at even N
    and at odd N makes p(0) = -1, which puts it after p in the box.
    """
    index = box_indices(orbit_members(coeffs), height)
    image = index.argmin(axis=0)  # the involutions make image the map both ways
    return index[image, np.arange(len(coeffs))].tolist(), image.tolist()


# Most polynomials one survey may classify.  Every catalog line is held until
# the box is done, beside the box's coefficients and the spectra of the orbit
# representatives (a quarter of a full box, more where --limit cuts orbits):
# the full box (8, 2) holds about 1.0 KB an entry and takes about 0.075 ms an
# entry on one core of a 2-vCPU host, so a full budget holds about 1 GB and
# runs about 75 seconds.
SURVEY_BUDGET = 1_000_000

# Polynomials per chunk: large enough to amortize the batched sieve, small
# enough that its stacked arrays stay a few hundred kilobytes.
CHUNK_SIZE = 256


def run_survey(dim: int, height: int, limit: Optional[int] = None,
               reciprocal_only: bool = False, jobs: int = 1) -> tuple[list[str], dict]:
    """Classify the whole coefficient box; returns (catalog lines, summary).

    Negation and reversal map the box to itself, and each entry follows from
    the spectrum of its orbit's representative, the member of least index;
    the enumeration reaches it first, also under a limit.  Only the
    representatives are factored, in chunks of CHUNK_SIZE, in order, with one
    process or a pool of ``jobs``; every line is then read off the image of
    its representative's spectrum, and the summary counts the facts the
    lines were written from.
    """
    items = list(enumerate_polynomials(dim, height, reciprocal_only, limit))
    reps_of, images = orbit_representatives(
        np.array([c for _, c in items], dtype=np.int64).reshape(len(items), dim + 1), height)
    reps = [item for item, rep in zip(items, reps_of) if rep == item[0]]
    chunks = [reps[i:i + CHUNK_SIZE] for i in range(0, len(reps), CHUNK_SIZE)]
    if jobs <= 1:
        spectra = [s for chunk in chunks for s in spectrum_chunk(chunk)]
    else:
        with multiprocessing.Pool(jobs) as pool:
            spectra = [s for part in pool.imap(spectrum_chunk, chunks) for s in part]
    by_rep = {index: spectrum for (index, _), spectrum in zip(reps, spectra)}
    tally: Counter = Counter()
    lines = [classify_entry(item, image_spectrum(by_rep[rep], image & 1, image & 2)
                            if image else by_rep[rep], tally)
             for item, rep, image in zip(items, reps_of, images)]
    config = {"dim": dim, "height": height, "reciprocal_only": reciprocal_only, "limit": limit}
    return lines, summarize(tally, config)


def summarize(tally: Counter, config: dict) -> dict:
    """The survey summary from the tally of (dim_center, ergodic,
    pseudo_anosov) that ``classify_entry`` keeps over the box."""
    by_center: Counter = Counter()
    for (center, _, _), count in tally.items():
        by_center[str(center)] += count
    total = sum(tally.values())
    return {
        "config": config,
        "total": total,
        "ergodic": sum(n for (_, ergodic, _), n in tally.items() if ergodic),
        "anosov": by_center["0"],
        "pseudo_anosov": sum(n for (_, _, pa), n in tally.items() if pa),
        "by_dim_center": dict(sorted(by_center.items())),
        "ergodic_with_center_0_or_2": sum(
            n for (center, ergodic, _), n in tally.items() if ergodic and center in (0, 2)),
        # a key begins with the coefficients, and the box lists each once
        "distinct_conjugacy_keys": total,
    }
