"""Winding numbers of closed curves, in the plane and around the
hyperbolic subspace of a splitting."""
from __future__ import annotations

import numpy as np

from .errors import InputError, NumericsError
from .splitting import Splitting


# rounds of segment refinement before a curve counts as grazing the center
MAX_REFINE = 40
# center components below this fraction of their largest count as touching
MIN_CENTER_FRACTION = 1e-9


def winding_number_2d(points: np.ndarray, center: np.ndarray = (0.0, 0.0)) -> int:
    """Winding number of a closed polygonal curve around a point.

    points: (m, 2) vertices; the curve closes from the last point back to
    the first.  Segments are linearly refined until consecutive samples
    subtend angles below pi/2; a segment that keeps collapsing onto the
    center raises (the curve effectively touches it).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise InputError("need an (m, 2) array of at least 3 vertices")
    work = np.vstack([pts, pts[:1]])
    for _ in range(MAX_REFINE):
        rel = work - np.asarray(center, dtype=float)
        radii = np.hypot(rel[:, 0], rel[:, 1])
        if np.any(radii == 0):
            raise NumericsError("curve passes through the winding center")
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        steps = np.diff(ang)
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        big = np.abs(steps) >= np.pi / 2
        if not np.any(big):
            total = float(np.sum(steps))
            w = total / (2 * np.pi)
            if abs(w - round(w)) > 1e-6:
                raise NumericsError("winding number did not come out integral")
            return int(round(w))
        mids = 0.5 * (work[:-1][big] + work[1:][big])
        where = np.nonzero(big)[0]
        work = np.insert(work, where + 1, mids, axis=0)
    raise NumericsError("winding refinement budget exceeded (curve grazes the center)")


def winding_number(curve_points: np.ndarray, y: np.ndarray, split: Splitting) -> int:
    """Degree of the center-component angle of a closed curve around y.

    The curve must avoid the su-subspace through y: the center components
    of curve - y have to stay away from 0.
    """
    pts = np.asarray(curve_points, dtype=float)
    rel = pts - np.asarray(y, dtype=float)
    _, cc, _ = split.components(rel)
    if cc.shape[-1] != 2:
        raise InputError("winding numbers need a 2-dimensional center")
    scale = float(np.max(np.abs(cc))) or 1.0
    if np.min(np.hypot(cc[:, 0], cc[:, 1])) <= MIN_CENTER_FRACTION * scale:
        raise NumericsError("curve touches the su-subspace through y")
    return winding_number_2d(cc)
