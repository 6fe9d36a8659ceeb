import json

import numpy as np
import pytest

from conftest import reference_report
from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly
from torusdyn.lattice import invariant_factors
from torusdyn.splitting import classify_poly, negation, reversal
from torusdyn.survey import (
    box_indices,
    classify_entry,
    companion_minus_identity_snf,
    enumerate_polynomials,
    orbit_members,
    orbit_representatives,
    run_survey,
)


def test_companion_snf_closed_form_matches_smith_form():
    for _, coeffs in enumerate_polynomials(4, 2):
        p = IntPoly(coeffs)
        a = IntMatrix.companion(p)
        expected = invariant_factors((a - IntMatrix.identity(a.n)).rows)
        assert companion_minus_identity_snf(p) == expected, coeffs


def test_conjugacy_key_format():
    entry = json.loads(classify_entry((3, (1, -1, -1, -1, 1))))
    assert entry["conjugacy_key"] == "cp:[1, -1, -1, -1, 1]|snf:[1, 1, 1, 1]"


def _recount(entries: list[dict]) -> dict:
    """The summary counts, recounted from the parsed catalog."""
    reports = [e["report"] for e in entries]
    by_center: dict[str, int] = {}
    for r in reports:
        by_center[str(r["dim_center"])] = by_center.get(str(r["dim_center"]), 0) + 1
    return {
        "total": len(reports),
        "ergodic": sum(r["ergodic"] for r in reports),
        "anosov": sum(r["anosov"] for r in reports),
        "pseudo_anosov": sum(r["pseudo_anosov"] for r in reports),
        "by_dim_center": dict(sorted(by_center.items())),
        "ergodic_with_center_0_or_2": sum(r["ergodic"] and r["dim_center"] in (0, 2)
                                          for r in reports),
        "distinct_conjugacy_keys": len({e["conjugacy_key"] for e in entries}),
    }


@pytest.mark.parametrize("dim, height, reciprocal_only, limit", [
    (4, 2, False, None), (5, 2, False, None), (6, 1, False, None), (3, 5, False, None),
    (5, 2, True, None), (5, 2, False, 257),
])
def test_catalog_lines_match_the_report_oracle(dim, height, reciprocal_only, limit):
    """Every catalog line is the sorted JSON of the entry built from the
    field-by-field oracle ``reference_report(p)``, ``classify_poly(p)`` is
    that report, and the summary is the recount of the parsed catalog."""
    lines, summary = run_survey(dim, height, limit=limit, reciprocal_only=reciprocal_only)
    items = list(enumerate_polynomials(dim, height, reciprocal_only, limit))
    assert len(lines) == len(items)
    for line, (index, coeffs) in zip(lines, items):
        p = IntPoly(coeffs)
        report = reference_report(p)
        entry = {
            "index": index,
            "coeffs": list(coeffs),
            "conjugacy_key": f"cp:{list(coeffs)}|snf:{companion_minus_identity_snf(p)}",
            "report": report,
        }
        assert line == json.dumps(entry, sort_keys=True) + "\n", coeffs
        # dumped, so that a bool read back as an int would show
        assert json.dumps(classify_poly(p), sort_keys=True) == json.dumps(report, sort_keys=True), coeffs
    assert summary == {"config": {"dim": dim, "height": height, "limit": limit,
                                  "reciprocal_only": reciprocal_only},
                       **_recount([json.loads(line) for line in lines])}


@pytest.mark.parametrize("dim, height", [(2, 3), (3, 2), (4, 2), (5, 1), (6, 1)])
def test_negation_and_reversal_are_commuting_involutions_of_the_box(dim, height):
    """Both maps send the box to itself, each undoes itself, they commute,
    and the arithmetic member indices name the enumerated images."""
    box = dict(enumerate_polynomials(dim, height))
    coeffs = np.array(list(box.values()))
    members = orbit_members(coeffs)
    indices = box_indices(members, height)
    assert indices[0].tolist() == list(box)
    for k, c in enumerate(box.values()):
        neg, rev = negation(c), reversal(c)
        assert negation(neg) == c and reversal(rev) == c
        assert negation(rev) == reversal(neg)
        for m, image in enumerate((c, neg, rev, reversal(neg))):
            assert tuple(members[m, k].tolist()) == image
            assert box[int(indices[m, k])] == image


@pytest.mark.parametrize("dim, height, reciprocal_only", [
    (4, 2, False), (5, 1, False), (4, 2, True), (5, 2, True), (6, 1, True),
])
def test_orbit_representative_is_the_least_kept_member(dim, height, reciprocal_only):
    """The representative is the kept orbit member of least index, which the
    enumeration reaches no later than the polynomial, and the polynomial is
    its image under the named maps."""
    items = list(enumerate_polynomials(dim, height, reciprocal_only))
    kept = dict(items)
    reps, images = orbit_representatives(np.array([c for _, c in items]), height)
    for (index, c), rep, image in zip(items, reps, images):
        orbit = {negation(c), reversal(c), reversal(negation(c)), c}
        assert rep == min(i for i, d in kept.items() if d in orbit) <= index
        mapped = kept[rep]
        if image & 1:
            mapped = negation(mapped)
        if image & 2:
            mapped = reversal(mapped)
        assert mapped == c
