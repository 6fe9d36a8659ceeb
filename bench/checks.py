"""Correctness checks of the benchmark's outputs.

Each check compares the program's output with a computation made here,
or with a property the method must have; none compares against a stored
copy of earlier output.  A check returns a list of (label, ok) pairs, one
per operation, so every wrong item counts as one failed operation.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

# -- exact integer polynomials (ascending coefficients) ----------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divides(den, num) -> bool:
    """Whether the monic integer polynomial den divides num over Z."""
    rem = list(num)
    d = len(den) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        q = rem[top]
        if q:
            for i, c in enumerate(den):
                rem[top - d + i] -= q * c
    return not any(rem[:d])


def euler_phi(m: int) -> int:
    out, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


_ORDERS: dict[int, np.ndarray] = {}


def orders_up_to_phi(bound: int) -> np.ndarray:
    """Every m >= 1 with phi(m) <= bound (phi(m) >= sqrt(m / 2))."""
    if bound not in _ORDERS:
        _ORDERS[bound] = np.array(
            [m for m in range(1, 2 * bound * bound + 3) if euler_phi(m) <= bound])
    return _ORDERS[bound]


def roots(coeffs) -> np.ndarray:
    return np.roots(np.array(coeffs[::-1], dtype=float)) if len(coeffs) > 1 else np.zeros(0)


def is_root_of_unity(z: complex, orders: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether z^m = 1 (to tol) for some m in orders."""
    if abs(abs(z) - 1) > 1e-9:
        return False
    turns = orders * (np.angle(z) / (2 * np.pi))
    return bool(np.any(2 * np.pi * np.abs(turns - np.round(turns)) <= tol))


def integer_factor_of(coeffs, rts) -> bool:
    """Whether p has a monic integer factor of degree 1..deg/2: a subset of
    its roots whose product polynomial has integer coefficients that
    divide p exactly."""
    n = len(coeffs) - 1
    for k in range(1, n // 2 + 1):
        chosen = rts[np.array(list(itertools.combinations(range(n), k)))]
        prod = np.ones((len(chosen), 1), dtype=complex)  # descending coefficients
        for j in range(k):
            pad = np.zeros((len(chosen), 1))
            prod = np.hstack([prod, pad]) - chosen[:, j:j + 1] * np.hstack([pad, prod])
        near = np.all(np.abs(prod - np.round(prod.real)) < 1e-4, axis=1)
        for q in np.round(prod[near].real).astype(int):
            if poly_divides([int(c) for c in q[::-1]], coeffs):
                return True
    return False


# -- survey ------------------------------------------------------------------------


def enumerate_box(dim: int, height: int) -> list[tuple[int, ...]]:
    """Monic degree-dim polynomials with constant term +-1 and middle
    coefficients in [-height, height], in the survey's documented order."""
    span = range(-height, height + 1)
    return [(a0, *mid, 1) for a0 in (1, -1) for mid in itertools.product(span, repeat=dim - 1)]


def check_entry(coeffs, entry) -> bool:
    """One catalog entry against its polynomial."""
    rep = entry["report"]
    n = len(coeffs) - 1
    if list(entry["coeffs"]) != list(coeffs) or list(rep["char_poly"]) != list(coeffs):
        return False
    prod = [1]
    for f in rep["factors"]:
        for _ in range(f["multiplicity"]):
            prod = poly_mul(prod, list(f["coeffs"]))
    if prod != list(coeffs):
        return False
    unit_orders = orders_up_to_phi(n)
    dims = [0, 0, 0]
    ergodic = True
    for f in rep["factors"]:
        for z in roots(list(f["coeffs"])):
            gap = abs(z) - 1
            if 1e-9 < abs(gap) < 1e-6:
                return False  # too close to the circle to decide here
            dims[0 if gap < -1e-9 else 2 if gap > 1e-9 else 1] += f["multiplicity"]
            if is_root_of_unity(complex(z), unit_orders):
                ergodic = False
    if [rep["dim_stable"], rep["dim_center"], rep["dim_unstable"]] != dims:
        return False
    if rep["ergodic"] != ergodic or rep["anosov"] != (dims[1] == 0):
        return False
    if ergodic and dims[1] not in (0, 2):
        return False
    # every power irreducible <=> irreducible and no ratio of two distinct
    # roots is a root of unity of an order m with phi(m) <= n(n-1)
    rts = roots(list(coeffs))
    irreducible = (len(rep["factors"]) == 1 and rep["factors"][0]["multiplicity"] == 1
                   and not integer_factor_of(list(coeffs), rts))
    pa = irreducible
    if irreducible:
        ratio_orders = orders_up_to_phi(n * (n - 1))[1:]
        for i, j in itertools.permutations(range(n), 2):
            if is_root_of_unity(complex(rts[i] / rts[j]), ratio_orders):
                pa = False
                break
    return rep["pseudo_anosov"] == pa


def summary_of(entries) -> dict:
    """The survey summary counts, recounted from the catalog."""
    reps = [e["report"] for e in entries]
    by_center: dict[str, int] = {}
    for r in reps:
        by_center[str(r["dim_center"])] = by_center.get(str(r["dim_center"]), 0) + 1
    return {
        "total": len(reps),
        "ergodic": sum(r["ergodic"] for r in reps),
        "anosov": sum(r["anosov"] for r in reps),
        "pseudo_anosov": sum(r["pseudo_anosov"] for r in reps),
        "by_dim_center": dict(sorted(by_center.items())),
        "ergodic_with_center_0_or_2": sum(
            r["ergodic"] and r["dim_center"] in (0, 2) for r in reps),
        "distinct_conjugacy_keys": len({e["conjugacy_key"] for e in entries}),
    }


def check_survey_box(dim, height, catalog_text: str, summary: dict) -> list:
    """One operation per polynomial of the box, plus one for the summary."""
    entries = [json.loads(line) for line in catalog_text.splitlines() if line]
    box = enumerate_box(dim, height)
    out = []
    for index, coeffs in enumerate(box):
        entry = entries[index] if index < len(entries) else None
        ok = entry is not None and entry["index"] == index and check_entry(coeffs, entry)
        out.append((f"survey {list(coeffs)}", ok))
    recount = summary_of(entries)
    ok = len(entries) == len(box) and all(summary.get(k) == v for k, v in recount.items())
    out.append((f"survey summary ({dim}, {height})", ok))
    return out


# -- dioph ---------------------------------------------------------------------------


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def quadratic_minorant(norm, basis: np.ndarray) -> np.ndarray:
    """Q with |c @ basis| >= sqrt(c^T Q c): the sum of the squared block
    norms, a quadratic form recovered by polarization."""
    k = basis.shape[0]

    def q(c):
        ns, nc, nu = norm.component_norms(np.asarray(c, dtype=float) @ basis)
        return ns ** 2 + nc ** 2 + nu ** 2

    eye = np.eye(k)
    diag = [float(q(eye[i])) for i in range(k)]
    out = np.diag(diag)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = (float(q(eye[i] + eye[j])) - diag[i] - diag[j]) / 2
    return out


def brute_force_scan(norm, basis, radius: float, r: int) -> tuple[int, float]:
    """(point count, min center norm * norm^r) over every nonzero lattice
    point in a coordinate box that contains the adapted-norm ball."""
    basis = np.asarray(basis, dtype=float)
    half = np.floor(radius * np.sqrt(np.diag(np.linalg.inv(quadratic_minorant(norm, basis)))))
    half = half.astype(int) + 1
    rest = np.stack(np.meshgrid(*[np.arange(-h, h + 1) for h in half[1:]], indexing="ij"),
                    axis=-1).reshape(-1, len(half) - 1)
    count, best = 0, math.inf
    for c0 in range(-half[0], half[0] + 1):
        c = np.column_stack([np.full(len(rest), c0), rest])
        if c0 == 0:
            c = c[np.any(c != 0, axis=1)]
        ns, nc, nu = norm.component_norms(c.astype(float) @ basis)
        total = ns + nc + nu
        keep = total <= radius + 1e-12
        count += int(np.sum(keep))
        if np.any(keep):
            best = min(best, float(np.min(nc[keep] * total[keep] ** r)))
    return count, best


def check_witnesses(report: dict, norm) -> list:
    """One operation per witness: norm, center norm and ratio recomputed
    from its integer vector, inside the ball, in ratio order."""
    out = []
    prev = -math.inf
    for i, w in enumerate(report["witnesses"]):
        ns, nc, nu = norm.component_norms(np.array(w["n"], dtype=float))
        total = float(ns + nc + nu)
        ratio = float(nc) * total ** report["r"]
        ok = (_rel_close(total, w["norm"]) and _rel_close(float(nc), w["center_norm"])
              and _rel_close(ratio, w["ratio"]) and total <= report["radius"] + 1e-9
              and w["ratio"] >= prev and any(w["n"]))
        if i == 0:
            ok = ok and w["ratio"] == report["c_prime_empirical"]
        prev = w["ratio"]
        out.append((f"dioph witness {i}", ok))
    return out


def check_pair_witness(w: dict, k_max: int) -> bool:
    """The pair witness's constant recomputed from its two alphas:
    min over 0 < |k|_sup <= k_max of max_i dist(k . alpha_i, Z) |k|_sup^2."""
    rng = np.arange(-k_max, k_max + 1, dtype=float)
    k1, k2 = np.meshgrid(rng, rng, indexing="ij")
    k = np.stack([k1.ravel(), k2.ravel()], axis=1)
    k = k[np.any(k != 0, axis=1)]
    d = [np.abs(k @ a - np.round(k @ a)) for a in (np.array(w["alpha1"]), np.array(w["alpha2"]))]
    vals = np.maximum(d[0], d[1]) * np.max(np.abs(k), axis=1) ** 2
    return _rel_close(float(np.min(vals)), w["c_emp"])


# -- perturb ---------------------------------------------------------------------------


def envelope_growth_exponent(norms, devs, bins: int = 5) -> float:
    """Slope of per-bin max log(deviation) against log(log|n|), from the
    deviation table (the documented definition of growth_exponent)."""
    norms, devs = np.asarray(norms), np.asarray(devs)
    mask = (norms > 1.5) & (devs > 0)
    if np.sum(mask) < 4:
        return 0.0
    ln, ld = np.log(norms[mask]), np.log(devs[mask])
    edges = np.linspace(ln.min(), ln.max() + 1e-9, bins + 1)
    xs, ys = [], []
    for a, b in zip(edges, edges[1:]):
        inside = (ln >= a) & (ln < b)
        if np.any(inside):
            i = int(np.argmax(ld[inside]))
            xs.append(np.log(ln[inside][i]))
            ys.append(ld[inside][i])
    return float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0


def check_perturb(result: dict, csv_text: str, amplitudes) -> list:
    """Per amplitude: graph constant below 1/2, leaf-coordinate bounds, and
    the CSV rows agreeing with the JSON; plus the constants falling with
    the amplitude."""
    rows = [tuple(map(float, line.split(","))) for line in csv_text.splitlines()[1:] if line]
    entries = {e["amplitude"]: e for e in result.get("results", [])}
    out = []
    kappas = []
    for amp in amplitudes:
        e = entries.get(amp)
        if e is None:
            out += [(f"perturb {amp} {what}", False) for what in ("kappa", "phi_bounds", "csv")]
            kappas.append(math.nan)
            continue
        kappas.append(e["kappa_emp"])
        out.append((f"perturb {amp} kappa", 0 < e["kappa_emp"] < 0.5))
        pb = e["phi_bounds"]
        out.append((f"perturb {amp} phi_bounds", pb["direct_ok"] and pb["inverse_ok"]
                    and pb["direct_margin"] <= 1e-10 and pb["inverse_margin"] <= 1e-10))
        mine = [(nv, dev) for a, nv, dev in rows if a == amp]
        dd = e["deck_deviation"]
        c_fit = max((dev / (math.log(max(nv, 1.01)) + 1.0) for nv, dev in mine), default=math.nan)
        ok = (len(mine) == dd["n_count"] and _rel_close(c_fit, dd["log_fit_c"], 1e-12)
              and _rel_close(envelope_growth_exponent(*zip(*mine)), dd["growth_exponent"], 1e-9))
        out.append((f"perturb {amp} csv", ok))
    ordered = sorted(zip(amplitudes, kappas), reverse=True)
    out.append(("perturb kappa falls with amplitude",
                all(k1 > k2 > 0 for (_, k1), (_, k2) in zip(ordered, ordered[1:]))))
    return out


# -- saturation ------------------------------------------------------------------------


def min_translate_distance(points: np.ndarray, shift: np.ndarray, chunk: int = 256) -> float:
    """min over i, j of |points_i + shift - points_j|, by brute force."""
    moved = points + shift
    best = math.inf
    for start in range(0, len(moved), chunk):
        d = moved[start:start + chunk, None, :] - points[None, :, :]
        best = min(best, float(np.sqrt(np.min(np.sum(d * d, axis=-1)))))
    return best


def check_overlap(res: dict, cloud_points: np.ndarray, lattice_basis, norm, eps: float,
                  kappa: float) -> bool:
    """The overlap vector is a nonzero lattice vector within its bound whose
    translate of the cloud comes within delta_merge of the cloud."""
    n_vec = np.array(res["n"], dtype=float)
    basis = np.array(lattice_basis, dtype=float)
    coords, *_ = np.linalg.lstsq(basis.T, n_vec, rcond=None)
    in_lattice = bool(np.all(np.abs(coords - np.round(coords)) < 1e-9)) and np.array_equal(
        np.round(coords) @ basis, n_vec)
    nrm = float(norm.norm(n_vec))
    bound = 5 * (1 + kappa) * eps ** -2
    return (in_lattice and any(res["n"]) and _rel_close(nrm, res["norm"]) and nrm <= bound
            and min_translate_distance(cloud_points, n_vec) <= res["delta_merge"])
