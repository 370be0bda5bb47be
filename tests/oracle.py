"""The pasted map's distortion in exact-input arithmetic, the oracle no double builds.

``pasted_distortion`` reads a space whose metric is exact (an integer
matrix, or ``linf`` coordinates read as exact reals) and measures the
pasted distance-vector map in mpmath at ``DIGITS`` significant digits.  It
follows the construction as ``paste`` builds it: the schedule from
``needed_bands`` and ``radii_schedule``, each point's band from
``band_of``, the blend windows and balls compared with the float radii, and
the blend angle running from 0 to pi/2 across the window between those
radii.  Only the arithmetic after those choices is exact: the angle's
logs, the blend pair, the images, the block sup norms, the p-sum and the
ratios.  It shares no code with ``_pair_distances`` or ``SumSpaceSpec.fold``.
"""

import mpmath
import numpy as np

from spiralpaste import needed_bands, radii_schedule

DIGITS = 60


def exact_distances(space) -> list:
    """The space's distances as mpf rows: integers of the matrix, or linf differences of the coordinates."""
    if space.kind == "matrix":
        D = space.matrix
        if not (np.array_equal(D, np.rint(D)) and np.max(np.abs(D)) < 2.0**53):
            raise ValueError("a matrix oracle input must hold integers below 2^53")
        return [[mpmath.mpf(int(d)) for d in row] for row in D]
    if space.kind != "linf":
        raise ValueError(f"no exact reading of a {space.kind} metric")
    C = [[mpmath.mpf(float(v)) for v in row] for row in space.coords]
    return [[max(abs(a - b) for a, b in zip(x, y)) for y in C] for x in C]


def _blend(p, eps, schedule, band, rho):
    """(c, s) of band ``band`` at the exact distance rho, as ``spiral.blend`` places it."""
    lo, hi = schedule.radii[2 * band - 2], schedule.radii[2 * band - 1]
    if rho <= lo:
        return mpmath.mpf(1), mpmath.mpf(0)
    if rho >= hi:
        return mpmath.mpf(0), mpmath.mpf(1)
    # (pi/2) ln(rho / lo) / ln(hi / lo), or eps ln(rho / lo) where hi is +inf
    up = mpmath.log(rho / mpmath.mpf(float(lo)))
    if np.isinf(hi):
        theta = min(eps * up, mpmath.pi / 2)
    else:
        theta = mpmath.pi / 2 * up / mpmath.log(mpmath.mpf(float(hi)) / mpmath.mpf(float(lo)))
    ct, st = mpmath.cos(theta), mpmath.sin(theta)
    if p <= 2:
        return ct ** (mpmath.mpf(2) / p), st ** (mpmath.mpf(2) / p)
    norm = (ct**p + st**p) ** (1 / mpmath.mpf(p))
    return ct / norm, st / norm


def pasted_distortion(space, p: float, eps: float):
    """(max ratio) / (min ratio) over all pairs of the pasted map, as an mpf."""
    with mpmath.workdps(DIGITS):
        d = exact_distances(space)
        base = space.index(space.basepoint)
        rho_float = space.rho()
        schedule = radii_schedule(eps, needed_bands(eps, float(np.max(rho_float))))
        n, K = len(space), schedule.band_count
        W = [[mpmath.mpf(0)] * n for _ in range(K + 1)]
        for x in range(n):
            b = schedule.band_of(float(rho_float[x]))
            W[b - 1][x], W[b][x] = _blend(p, eps, schedule, b, d[base][x])
        # block b of x: W[b - 1][x] (d(a, x) - d(a, base)) over the anchors a of ball b
        images = []
        for b in range(1, K + 1):
            anchors = np.flatnonzero(rho_float <= schedule.radii[2 * b - 1])
            images.append([[W[b - 1][x] * (d[a][x] - d[a][base]) for a in anchors] for x in range(n)])
        ratios = []
        for x in range(n):
            for y in range(x + 1, n):
                blocks = (max(abs(u - v) for u, v in zip(img[x], img[y])) for img in images)
                ratios.append(mpmath.fsum(m**p for m in blocks) ** (1 / mpmath.mpf(p)) / d[x][y])
        return max(ratios) / min(ratios)
