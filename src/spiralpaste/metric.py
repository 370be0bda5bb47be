"""Pointed metric spaces and brute-force distortion measurement.

A space is a finite list of opaque point ids with a metric given either
as an explicit symmetric matrix or induced by per-point coordinates under
the sup or Euclidean norm, plus a distinguished basepoint.  Distortion of
a map into a block sum is measured over every unordered pair: by scanning
them all, or, given a pasted map's ``envelope``, by scanning only the
pairs whose certified ratio interval can set the max or the min, which
gives the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from . import sumspace
from .errors import SchemaError
from .sumspace import Fold, SumSpaceSpec

__all__ = [
    "PointedMetricSpace",
    "DistortionReport",
    "ball",
    "sup_pairwise",
    "distortion",
    "packing_bound",
    "load_space",
    "space_to_doc",
]

# All distance comparisons share one absolute tolerance, applied to
# distances rescaled by the space diameter (see rel_tol below).
TOL = 1e-9

_KINDS = ("matrix", "linf", "l2")

# Entries of sup_pairwise's two work buffers together: 1 MiB of doubles.
# It bounds the extra memory of a coordinate space's distance build.
_SLAB = 1 << 17

# Entries of each work buffer of the matrix checks: 256 KiB of doubles.  On
# the 600-point tree the checks were slower at 2^14 and no faster at 2^16 to
# 2^17 (medians of 6, 2-CPU Xeon, numpy 2.4).
_ROW_CHUNK = 1 << 15


def sup_pairwise(V: np.ndarray, kind: str = "linf") -> np.ndarray:
    """Pairwise distances of the rows of V: sup norm ('linf') or Euclidean ('l2').

    Serial kernel of the coordinate spaces.  It takes the columns of V
    a slab at a time, copied out transposed so that each column is one
    contiguous row.  For each chunk of rows of the upper triangle it
    writes the (rows, cols, m) differences into one buffer, reduces them
    over the columns in one numpy call (max of abs, or for 'l2' sum of
    squares) and folds that into the chunk; the triangle is mirrored at
    the end.  The slab copy and the difference buffer hold at most
    ``_SLAB`` entries between them where a row allows it, so extra memory
    stays flat whatever the number of columns.  linf entries are exact
    maxima; an l2 entry sums its squares in numpy's order.  For 'l2', an
    input whose largest entry lies outside [2^-500, 2^500) is scaled by a
    power of two (into a copy) so that it lies in [2^499, 2^500), and the
    distances are scaled back after the square root: a distance that fits
    a double neither overflows nor loses its squares to underflow on the
    way, and one that does not fit comes out as inf, where the caller's
    finiteness check reports it.  Power-of-two scaling is exact, so inputs
    inside that range are not scaled and keep bit-identical distances.
    """
    m, k = V.shape
    out = np.zeros((m, m))
    if not V.size:
        return out
    l2 = kind == "l2"
    shift = 0
    if l2:
        top = max(float(V.max()), -float(V.min()))
        if top >= 2.0**500 or 0.0 < top < 2.0**-500:
            shift = 500 - math.frexp(top)[1]
            V = np.ldexp(V, shift)
    # (rows + 1) * cols * m <= _SLAB wherever 2 * m <= _SLAB
    cols = max(1, min(k, _SLAB // (2 * m)))
    rows = max(1, min(m, _SLAB // (cols * m) - 1))
    slab = np.empty(cols * m)
    diffs = np.empty(rows * cols * m)
    part = np.empty(rows * m)
    with np.errstate(over="ignore"):
        for c0 in range(0, k, cols):
            c1 = min(c0 + cols, k)
            T = slab[: (c1 - c0) * m].reshape(c1 - c0, m)
            np.copyto(T, V[:, c0:c1].T)
            for i0 in range(0, m, rows):
                i1 = min(i0 + rows, m)
                acc = out[i0:i1, i0:]
                red = part[: acc.size].reshape(acc.shape)
                diff = diffs[: acc.size * (c1 - c0)].reshape(i1 - i0, c1 - c0, m - i0)
                np.subtract(T[:, i0:i1].T[:, :, None], T[None, :, i0:], out=diff)
                if l2:
                    np.multiply(diff, diff, out=diff)
                    np.sum(diff, axis=1, out=red)
                    np.add(acc, red, out=acc)
                else:
                    np.abs(diff, out=diff)
                    np.max(diff, axis=1, out=red)
                    np.maximum(acc, red, out=acc)
        if l2:
            np.sqrt(out, out=out)
            np.ldexp(out, -shift, out=out)
    for i0 in range(0, m, rows):
        out[i0 + rows :, i0 : i0 + rows] = out[i0 : i0 + rows, i0 + rows :].T
    return out


def _coordinate_defect(C: np.ndarray, kind: str, top: float) -> float:
    """Conditioning delta of the distances sup_pairwise computed from coordinates C.

    Each computed distance is D = d (1 + t) + e with |t| <= eta, |e| <=
    alpha and d the exact distance.  Then for any k, |D[k, x] - D[k, y]|
    <= d(x, y) + eta (d(k, x) + d(k, y)) + 2 alpha and d(x, y) <= (D[x, y]
    + alpha) / (1 - eta), so T[x, y] - D[x, y] <= 3 eta max d / (1 - eta)
    + 3 alpha, with max d <= (top + alpha) / (1 - eta), top = max D.
      * 'linf': an entry is the exact max of correctly rounded |a - b|, so
        eta = u = 2^-53 and alpha = 0 (a difference in the subnormal range
        is exact).
      * 'l2': with k columns, in the kernel's power-of-two-scaled units,
        each square carries (1 + u)^3 and each sum term at most k more
        roundings, so the sum is within (k + 4) u of exact up to second
        order; the square root halves that and adds u: eta = (k + 8) u / 2.
        A square that underflows errs by at most 2^-1075, so the sum by
        k 2^-1075 and the root by sqrt(k) 2^-537.5.  Scaled back, that is
        at most sqrt(k) 2^-537 r, with r = 1 when max|C| lies in [2^-500,
        2^500) and r = max|C| 2^-499 when the kernel scaled C; scaling
        back into the subnormal range adds 2^-1075.  That is alpha.
    The factor (1 + 2^-40 + 4 eta) covers 1 / (1 - eta)^2 and the rounding
    of this formula.
    """
    k = C.shape[1]
    u = 2.0**-53
    if kind == "linf":
        eta, alpha = u, 0.0
    else:
        eta = (k + 8) * u / 2.0
        big = float(np.max(np.abs(C), initial=0.0))
        r = 1.0 if 2.0**-500 <= big < 2.0**500 else big * 2.0**-499
        alpha = math.sqrt(k) * 2.0**-537 * r + 2.0**-1074
    return (3.0 * eta * (top + alpha) + 3.0 * alpha) * (1.0 + 2.0**-40 + 4.0 * eta)


def _asymmetry_and_gap(D: np.ndarray) -> tuple[float, float]:
    """max |D - D^T| and the smallest off-diagonal entry, a slab of rows at a time."""
    n = len(D)
    rows = max(1, _ROW_CHUNK // n)
    buf = np.empty(min(rows, n) * n)
    asym, gap = 0.0, math.inf
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        slab = buf[: (i1 - i0) * n].reshape(i1 - i0, n)
        np.subtract(D[i0:i1], D[:, i0:i1].T, out=slab)
        asym = max(asym, float(np.max(np.abs(slab, out=slab))))
        np.copyto(slab, D[i0:i1])
        slab.reshape(-1)[i0 :: n + 1] = np.inf
        gap = min(gap, float(np.min(slab)))
    return asym, gap


def _triangle_rows(D: np.ndarray, tol: float, proven: Callable[[float], bool]) -> tuple:
    """The matrix triangle check's one row loop: proof rows, then the exact tail.

    Row x reduces |D[z, k] - D[x, k]| for every z > x along the contiguous
    k axis, about ``_ROW_CHUNK`` differences per numpy call.  Its k > x
    half reads each triangle {x < z < k} through the two pairs that hold
    its smallest point (n^3 / 3 differences); the loop returns the largest
    fl(max_{k > x} |D[z, k] - D[x, k]| - D[x, z]).  From the first row x0
    whose running excess fails ``proven``, rows read k >= x0 (row x0 adds
    its column k = x0) and compare S[x, z] = S[z, x] over k >= x0 with
    fl(D[x, z] + tol) and fl(D[z, x] + tol).  It also returns the first
    failing entry (r, c) in row-major order, or None, and stops after row
    r: the entries (r, c) with c < r are found at rows c < r.
    """
    n = len(D)
    buf = np.empty(max(_ROW_CHUNK, n))
    hi, lo = np.empty(n), np.empty(n)
    worst, first, x0 = -math.inf, n * n, n
    with np.errstate(over="ignore"):
        for x in range(n - 1):
            w, k0 = n - 1 - x, min(x0, x + 1)
            v, far, width, cut = D[x, k0:], D[x + 1 :, k0:], n - k0, x + 1 - k0
            rows = max(1, _ROW_CHUNK // width)
            for z0 in range(0, w, rows):
                z1 = min(z0 + rows, w)
                diff = buf[: (z1 - z0) * width].reshape(z1 - z0, width)
                np.subtract(far[z0:z1], v, out=diff)
                np.abs(diff, out=diff)
                np.max(diff[:, cut:], axis=1, out=hi[z0:z1])
                if cut:
                    np.max(diff[:, :cut], axis=1, out=lo[z0:z1])
            worst = max(worst, float(np.max(hi[:w] - D[x, x + 1 :])))
            if x0 == n and proven(worst):
                continue
            if not cut:  # the first unproven row adds its own column k = x
                x0 = x
                np.abs(np.subtract(D[x + 1 :, x], D[x, x], out=lo[:w]), out=lo[:w])
            np.maximum(hi[:w], lo[:w], out=lo[:w])
            ahead = np.flatnonzero(lo[:w] > D[x, x + 1 :] + tol)
            below = np.flatnonzero(lo[:w] > D[x + 1 :, x] + tol)
            if ahead.size:
                first = min(first, x * n + x + 1 + int(ahead[0]))
            if below.size:
                first = min(first, (x + 1 + int(below[0])) * n + x)
            if first < (x + 1) * n:
                break
    return worst, (divmod(first, n) if first < n * n else None)


@dataclass
class PointedMetricSpace:
    """Finite pointed metric space.

    ids: opaque, mutually sortable point identifiers (construction order
    is preserved; deterministic operations sort by id).
    kind: 'matrix' for an explicit distance matrix, 'linf'/'l2' for a
    coordinate-induced metric.
    matrix: the distance matrix, which every distance read uses.  The
    'matrix' kind passes it in; the coordinate kinds compute it from
    ``coords`` when the space is built.

    The build also fixes the space's conditioning delta (``_defect``): how
    far the stored matrix D may be from a metric.  In exact arithmetic,
    every pair has T[x, y] = max_k |D[k, x] - D[k, y]| <= D[x, y] + t,
    and delta = t + a + g, where a = max |D - D^T| and g = max |diag D|
    (both 0 for the coordinate kinds, whose kernel output is symmetric
    with a zero diagonal).  A restriction keeps its parent's delta.
      * 'matrix': t = max(e+ + 2^-53 (max D + g) + 2^-1074 + 3a, a + g),
        rounded up, where e is the largest excess the triangle check's
        proof rows compute; see ``_validate_matrix`` for the proof.
      * 'linf' and 'l2': see ``_coordinate_defect``.
    """

    ids: tuple
    basepoint: object
    kind: str
    coords: np.ndarray | None = None
    matrix: np.ndarray | None = None
    _rows: dict = field(default_factory=dict, repr=False, compare=False)
    _defect: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ids = tuple(self.ids)
        if len(self.ids) != len(set(self.ids)):
            raise ValueError("point ids must be unique")
        if self.basepoint not in self.ids:
            raise ValueError(f"basepoint {self.basepoint!r} is not a point of the space")
        if self.kind not in _KINDS:
            raise ValueError(f"metric kind must be one of {_KINDS}, got {self.kind!r}")
        n = len(self.ids)
        if self.kind == "matrix":
            if self.matrix is None:
                raise ValueError("matrix metric requires a distance matrix")
            D = np.asarray(self.matrix, dtype=float)
            if D.shape != (n, n):
                raise ValueError(f"distance matrix shape {D.shape} does not match {n} points")
        else:
            if self.coords is None:
                raise ValueError(f"{self.kind} metric requires point coordinates")
            C = np.asarray(self.coords, dtype=float)
            if C.ndim != 2 or C.shape[0] != n:
                raise ValueError(f"coords shape {C.shape} does not match {n} points")
            if not np.all(np.isfinite(C)):
                bad = self.ids[int(np.argmin(np.isfinite(C).all(axis=1)))]
                raise ValueError(f"coordinates of point {bad!r} must be finite")
            self.coords = C
            D = sup_pairwise(C, self.kind)
            # distinct points at distance 0 (an l2 square can underflow) fail
            # like equal rows; the induced triangle inequality is automatic
            if np.count_nonzero(D == 0.0) != n:
                raise ValueError("coordinate rows must be distinct points")
        if not np.isfinite([np.min(D), np.max(D)]).all():
            i, j = divmod(int(np.argmin(np.isfinite(D))), n)
            raise ValueError(
                f"distances must be finite: entry ({self.ids[i]!r}, {self.ids[j]!r}) "
                "is NaN or overflows double range"
            )
        self.matrix = D
        if self.kind == "matrix":
            self._defect = self._validate_matrix(D)
        else:
            self._defect = _coordinate_defect(self.coords, self.kind, float(np.max(D)))
        self._rows = {pid: i for i, pid in enumerate(self.ids)}

    def _restrict(self, keep: list[int]) -> "PointedMetricSpace":
        """Subspace on rows ``keep`` (which must hold the basepoint).

        It inherits its distances from this space, which was validated
        when it was built, so the metric axioms are not checked again.
        """
        sub = object.__new__(type(self))
        sub.ids = tuple(self.ids[i] for i in keep)
        sub.basepoint = self.basepoint
        sub.kind = self.kind
        sub.coords = None if self.coords is None else self.coords[keep]
        sub.matrix = self.matrix[np.ix_(keep, keep)]
        sub._rows = {pid: i for i, pid in enumerate(sub.ids)}
        sub._defect = self._defect
        return sub

    def _validate_matrix(self, D: np.ndarray) -> float:
        """Check the metric axioms within tolerance; returns the conditioning delta.

        The checks are judged in a fixed order, so the first that fails
        names the message: asymmetry, diagonal, positivity, triangle.  The
        first three read D a slab of rows at a time.

        Triangle.  The distance-vector map x -> (d(x, k))_k into l_inf is
        an isometry exactly when the triangle inequality holds, and its
        image distances are S[x, z] = max_k |d(x, k) - d(z, k)|.  The
        input fails when some computed S[x, z] > fl(D[x, z] + tol).  The
        message names the middle point of the first such pair in row-major
        order at its worst third point k, or, when k is x or z and so no
        triangle fails, the asymmetry and self-distances.  The row loop
        (``_triangle_rows``) compares S only from the first row its proof
        rows cannot prove inside the tolerance.  With u = 2^-53, top = max
        D, a and g as in the class docstring and e the largest excess:
          * Rounding.  |fl(b - c)| >= (1 - u) |b - c|, and every |D[z, k]
            - D[x, k]| <= top + g because off-diagonal entries are
            positive, so the rows' exact excess is E <= (e+ + u (top +
            g)) / (1 - u).  A subnormal difference is exact, and 2^-1074
            covers the product u (top + g) rounding into that range.
          * Coverage.  Row x reads D[x, k], D[x, z] and the far side D[z,
            k] in both orientations, so each of the three inequalities of
            a triangle {x < z < k} appears in it.  Read with its entries
            in other orientations, an inequality moves by at most 3a.  A
            triple with a repeated point has |D[k, x] - D[k, y]| - D[x, y]
            <= a + g, and so has |D[x, k] - D[y, k]| - D[x, y].
        So every term of S - D, and of T - D (T reads columns where S
        reads rows), is at most X = max(E+ + 3a, a + g), whatever the
        verdict, and delta = X + a + g.  A few roundings of nonnegative
        terms fit in (1 + 2^-40).  A computed S entry is within (1 + u) of
        exact and fl(D + tol) within (1 - u), so no pair fails when X <=
        tol - 4u (top + tol).  The tail starts at the first row x0 after
        which X so far, rounded up by (1 + 2^-40), passes a limit rounded
        down from that (8u instead of 4u); x0 = 0 when a + g does.  A term
        of S[r, c] - D[r, c] at k is an inequality of {r, c, k} that proof
        row min(r, c, k) reads, moved by at most 3a.  So no entry with
        min(r, c) < x0 fails, terms at k < x0 make no other entry fail, and
        S over k >= x0 fails where S does.
        """
        tol = self.rel_tol()
        top = float(np.max(D))
        asym, gap = _asymmetry_and_gap(D)
        diag = float(np.max(np.abs(np.diag(D))))
        if asym > tol:
            raise ValueError("distance matrix asymmetry exceeds tolerance")
        if diag > tol:
            raise ValueError("self-distances must vanish")
        # Positivity is judged at machine resolution, not at the report
        # tolerance: doubles near the diameter still resolve much finer
        # separations than TOL * diameter.
        if gap <= 64.0 * np.finfo(float).eps * max(1.0, top):
            raise ValueError("distinct points must be at positive distance")
        rounding = 2.0**-53 * (top + diag) + 2.0**-1074
        limit = tol - 2.0**-50 * (top + tol)

        def bound(e: float) -> float:
            return max(max(e, 0.0) + rounding + 3.0 * asym, asym + diag)

        worst, pair = _triangle_rows(D, tol, lambda e: bound(e) * (1.0 + 2.0**-40) <= limit)
        if pair is not None:
            # At (x, z) the worst k has either d(x,k) > d(x,z) + d(z,k)
            # or d(z,k) > d(z,x) + d(x,k); the message names the middle point.
            x, z = pair
            k = int(np.argmax(np.abs(D[x] - D[z])))
            if k in pair:
                raise ValueError("distance matrix asymmetry and self-distances together "
                                 "exceed tolerance")
            middle = z if D[x, k] > D[z, k] else x
            raise ValueError(f"triangle inequality fails through point {self.ids[middle]!r}")
        return (bound(worst) + asym + diag) * (1.0 + 2.0**-40)

    def __len__(self) -> int:
        return len(self.ids)

    def index(self, point) -> int:
        try:
            return self._rows[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None

    def rel_tol(self) -> float:
        """Absolute tolerance for distances scaled to the space diameter."""
        return TOL * max(1.0, float(np.max(self.matrix)))

    def dist(self, u, v) -> float:
        return float(self.matrix[self.index(u), self.index(v)])

    def rho(self) -> np.ndarray:
        """Distances to the basepoint, in id construction order."""
        return self.matrix[self.index(self.basepoint)].copy()


@dataclass(frozen=True)
class DistortionReport:
    """Outcome of a brute-force pair scan.

    distortion = (max pair ratio) / (min pair ratio) where a pair's ratio
    is d_target(f u, f v) / d_source(u, v); scale_r is the min ratio, so
    scale_r * d <= d_target <= scale_r * distortion * d on every pair.
    A non-injective map is reported with the +inf sentinel.
    """

    distortion: float
    scale_r: float
    max_pair: tuple
    min_pair: tuple
    analytic_bound: float | None = None
    passed: bool = True

    def to_doc(self) -> dict:
        return {
            "distortion": self.distortion,
            "scale_r": self.scale_r,
            "max_pair": [str(p) for p in self.max_pair],
            "min_pair": [str(p) for p in self.min_pair],
            "analytic_bound": self.analytic_bound,
            "pass": self.passed,
        }


def ball(space: PointedMetricSpace, radius: float) -> PointedMetricSpace:
    """Closed ball around the basepoint, as a subspace with the same basepoint."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rho = space.rho()
    return space._restrict([i for i in range(len(space)) if rho[i] <= radius])


def _slab_centres(
    W: np.ndarray, rows: np.ndarray, cols: np.ndarray, D: np.ndarray, rho: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, C_b) on a slab: the closed-form block distances of a pasted distance-vector map.

    With w = W[b - 1], C_b[i, j] = min(w_x, w_y) D[i, j] + |w_x - w_y| rho_z
    for x = rows[i], y = cols[j] and z the one with the larger w; ``D`` is
    the (rows, cols) slab of the matrix.  A pair with one point outside the
    support (w = 0) is at the other point's w rho, a pair with both outside
    at 0, as in ``sumspace._pair_distances``, whose buffer protocol this shares.
    Only blocks some column uses are yielded: ``rows`` is part of ``cols``.
    """
    buf, far = np.empty(D.shape), np.empty(D.shape)
    for b in np.flatnonzero(W[:, cols].any(axis=1)):
        wx, wy = W[b, rows, None], W[b, cols]
        if not wx.any():
            np.copyto(buf, wy * rho[cols])
        else:
            np.subtract(wx, wy, out=buf)
            np.multiply(buf, rho[rows, None], out=far)
            buf *= -rho[cols]
            np.maximum(buf, far, out=buf)
            np.minimum(wx, wy, out=far)
            far *= D
            buf += far
        yield int(b) + 1, buf


def _pair_bounds(space: PointedMetricSpace, W: np.ndarray, aggregator: Fold) -> Iterator[tuple]:
    """Yield (pairs, [(lo, hi) per folded norm]): bounds on the scanned ratios of a slab's pairs.

    ``W`` is the (B, n) coefficient array of a pasted distance-vector map:
    x's image in block b is w_x F_b(x) with w_x = W[b - 1, x], computed as
    fl(w_x F̂_b(x)), where F̂_b(x)_k = fl(D[k, x] - D[k, base]) for the
    anchors k of a ball that holds every point with w > 0.  The scan's
    ratio of a pair x < y, fl(fold(K̂)[x, y] / D[x, y]), lies in [lo, hi].

    Slabs.  Points are grouped by their first block (each image has at
    most that block and the next).  A group's slab pairs its points (rows)
    with its own and every later group's points (cols, the group first, in
    row order), so it folds only the blocks from its own on.  ``pairs``
    holds x n + y for the pair x < y at each entry.  In the leading square
    only j > i are pairs, the rest hold -1, so every pair is in exactly one
    slab; a last group of one point has none and is skipped.

    Block distance.  Say w_x >= w_y, and write f_z = D[:, z] - D[:, base].
    Then w_x f_x - w_y f_y = w_y (f_x - f_y) + (w_x - w_y) f_x, whose sup
    norm is at most w_y T[x, y] + (w_x - w_y) T[x, base].  The space's
    ``_defect`` delta = t + a + g bounds T - D by t, the asymmetry by a and
    the diagonal by g.  The centre C = w_y D[., .] + (w_x - w_y) rho_x reads
    D[x, y] or D[y, x], and rho_x = D[base, x]; each is within a of what
    the bound reads, so the norm is at most C + w_y a + (w_x - w_y) a +
    w_x t = C + w_x (t + a).  Anchor k = x attains w_x D[x, x] - (w_x -
    w_y) D[x, base] - w_y D[x, y], so the norm is at least C - w_x (a + g).
    A point outside the support has w = 0 and the same C.  D and rho are
    read clipped at 0: only the diagonal and the basepoint's own rho can
    be negative (by at most g), and the basepoint's image is exactly 0, so
    T[base, base] = 0 is what the bound reads there.  So the exact kernel
    is within max(w_x, w_y) delta of C, and C >= 0 on every pair.  In floating point, the two
    subtractions and two products before the kernel's subtraction, and
    that one, err by at most 2u (w_x |f_x| + w_y |f_y|) + u |the
    difference|, with |f_z| <= rho_z + delta and u = 2^-53: 3u (w_x rho_x
    + w_y rho_y) up to delta u terms.  The centre's four roundings add
    3u C <= 3u (w_x rho_x + w_y rho_y + w_x delta).  An underflowing
    product errs by 2^-1075 more.  So
    |K̂_b - C_b| <= 6.5u (w_x rho_x + w_y rho_y) + max(w_x, w_y) delta
    (1 + 2^-40) + 2^-1072, and since max <= sum, the blocks' half-widths
    sum to at most r_x + r_y with r = (sum_b W[b]) (6.5u rho + delta (1 +
    2^-40)) + 2^-1060, rounded up.

    Fold.  ``sumspace.fold``'s p-sum and max, and fdd's (norm_a, ambient)
    fold, are monotone and 1-Lipschitz in the l1 norm of the block
    distances, so |fold(K̂) - fold(C)| <= r_x + r_y.  A pair meets at most
    N = 2 max_x #{b : W[b, x] > 0} nonzero blocks; a zero block is an
    exact no-op of every fold.  Folded in floating point, each nonzero
    block after the first costs the p-sum at most (p + 6) u before its
    closing 1/p power (np.power taken as correct to 4 ulp), so a computed
    fold is within (7N + 5) u of exact.  The errors of the scan's fold of
    K̂ and of this fold of C, and the roundings of lo and hi below, fit in
    mu = (16N + 16) u times the folded centre.

    Range.  Everything is computed in units of a power of two that puts
    max D below 2^1000, so no centre or fold overflows.  A fold whose upper
    end reaches 2^1023 might round to inf in the scan, so its hi is inf.
    Dividing by D is monotone, so the bounds on the fold bound the ratio.
    """
    u = 2.0**-53
    D, rho = space.matrix, np.maximum(space.rho(), 0.0)
    unit = math.ldexp(1.0, max(0, math.frexp(float(np.max(D)))[1] - 1000))
    W = W / unit
    radius = W.sum(axis=0) * (6.5 * u * rho + space._defect * (1.0 + 2.0**-40))
    radius = radius * (1.0 + 2.0**-36) + 2.0**-1060
    mu = (32 * int(np.count_nonzero(W, axis=0).max()) + 16) * u
    first = np.argmax(W > 0, axis=0)
    order = np.argsort(first, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(first[order])) + 1), len(order)]
    for start, stop in zip(cuts, cuts[1:]):
        rows, cols = order[start:stop], order[start:]
        if len(cols) == 1:
            continue
        slab = np.maximum(D[np.ix_(rows, cols)], 0.0)
        folded = aggregator(slab.shape, _slab_centres(W, rows, cols, slab, rho))
        pairs = np.minimum.outer(rows, cols) * len(D) + np.maximum.outer(rows, cols)
        pairs[:, : len(rows)][np.tri(len(rows), dtype=bool)] = -1
        # the scan divides the pair x < y by D[x, y]; -1 reads the last entry
        np.take(D, pairs, out=slab, mode="wrap")
        bounds = []
        for hi in folded if isinstance(folded, tuple) else (folded,):
            lo = np.multiply(hi, mu)
            lo += radius[rows, None]
            lo += radius[cols]
            np.add(hi, lo, out=hi)
            np.multiply(lo, 2.0, out=lo)
            np.subtract(hi, lo, out=lo)
            if unit > 1.0:
                np.minimum(lo, 2.0**1023 / unit, out=lo)
                hi[hi >= 2.0**1023 / unit] = np.inf
                lo *= unit
                hi *= unit
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                np.divide(lo, slab, out=lo)
                np.divide(hi, slab, out=hi)
            bounds.append((lo, hi))
        yield pairs, bounds
        del slab, folded, pairs, bounds, lo, hi  # before the next slab is built


def _candidates(space: PointedMetricSpace, W: np.ndarray, aggregator: Fold) -> tuple:
    """The pairs (I, J), I < J in row-major order, that can set the scan's max or min ratio.

    A pair whose upper end is below the largest lower end (top) cannot set
    the max ratio, nor one whose lower end is above the smallest upper end
    (bottom) the min.  Each slab keeps the pairs that reach the running top
    or bottom, and the final ones filter these again; NaN keeps its pair.
    """
    top, bottom, kept = -np.inf, np.inf, []

    def reach(bounds: list) -> np.ndarray:
        ends = zip(bounds, top, bottom)
        return np.logical_or.reduce([~(hi < t) | ~(lo > b) for (lo, hi), t, b in ends])

    for pairs, bounds in _pair_bounds(space, W, aggregator):
        real = pairs >= 0
        top = np.maximum(top, [np.max(lo, where=real, initial=-np.inf) for lo, _ in bounds])
        bottom = np.minimum(bottom, [np.min(hi, where=real, initial=np.inf) for _, hi in bounds])
        keep = real & reach(bounds)
        kept.append((pairs[keep], [(lo[keep], hi[keep]) for lo, hi in bounds]))
        del pairs, bounds  # before the next slab is built
    survivors = np.concatenate([keys[reach(bounds)] for keys, bounds in kept])
    return np.divmod(np.sort(survivors), len(space))


def distortion(
    space: PointedMetricSpace,
    image: Mapping,
    target: SumSpaceSpec,
    analytic_bound: float | tuple | None = None,
    aggregator: Fold | None = None,
    envelope: np.ndarray | None = None,
) -> DistortionReport | tuple[DistortionReport, ...]:
    """Measure bilipschitz distortion of ``image`` over all unordered pairs.

    ``image`` maps every point id to a BlockVector of ``target``.  An
    optional ``aggregator`` folds the per-block pair distances into pair
    distances, replacing ``sumspace.fold(target.p)`` (used for renormed
    target models).  A fold that returns a tuple of arrays gets a tuple of
    reports, one per array, and ``analytic_bound`` is then a tuple of the
    same length.  Extra memory is a few arrays of one entry per scanned
    pair, plus one block's vectors.  A scanned pair whose target distance
    or ratio is NaN or overflows raises ValueError naming the first such
    pair in row-major order.

    ``envelope`` is the (B, n) coefficient array of a pasted
    distance-vector map (``PastedEmbedding.envelope()``).  With it, each
    pair's ratio gets a closed-form interval (``_pair_bounds``), and the
    scan runs only on the pairs whose interval reaches the largest lower
    end or the smallest upper end.  Every other pair is strictly inside,
    and the pairs keep their row-major order, so the report is the full
    scan's, tie-break included.
    """
    n = len(space)
    if n < 2:
        raise ValueError("distortion needs at least two points")
    vectors = []
    for pid in space.ids:
        vectors.append(image[pid])
        if vectors[-1].spec.block_dims != target.block_dims:
            raise ValueError(f"image of {pid!r} does not fit the target block layout")
    if aggregator is None:
        aggregator = sumspace.fold(target.p)
    I, J = np.triu_indices(n, 1) if envelope is None else _candidates(space, envelope, aggregator)
    with np.errstate(over="ignore", invalid="ignore"):
        folded = aggregator(I.shape, sumspace._pair_distances(vectors, I, J))
        D = space.matrix[I, J]
        ratios = [np.divide(f, D, out=f) for f in (folded if isinstance(folded, tuple) else (folded,))]
    finite = np.logical_and.reduce([np.isfinite(r) for r in ratios])
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"target distances must be finite: pair ({space.ids[I[k]]!r}, {space.ids[J[k]]!r}) "
            "has a distance or ratio that is NaN or overflows double range"
        )
    if isinstance(folded, tuple):
        return tuple(_report(space, I, J, *pair) for pair in zip(ratios, analytic_bound, strict=True))
    return _report(space, I, J, ratios[0], analytic_bound)


def _report(
    space: PointedMetricSpace, I: np.ndarray, J: np.ndarray, ratios: np.ndarray, bound: float | None
) -> DistortionReport:
    """Report on the ratios of the pairs (I, J), in row-major order."""
    k_max, k_min = int(np.argmax(ratios)), int(np.argmin(ratios))
    hi, lo = float(ratios[k_max]), float(ratios[k_min])
    max_pair = (space.ids[I[k_max]], space.ids[J[k_max]])
    min_pair = (space.ids[I[k_min]], space.ids[J[k_min]])
    dist = np.inf if lo == 0.0 else hi / lo
    passed = lo != 0.0 and (bound is None or dist <= bound)
    return DistortionReport(dist, lo, max_pair, min_pair, bound, passed)


def packing_bound(R: float, delta: float, m: int, C: float) -> float:
    """Cardinality bound (C * R / delta)^m for delta-separated sets in a ball."""
    if R <= 0 or delta <= 0 or C <= 0 or m < 1:
        raise ValueError("packing bound needs positive R, delta, C and m >= 1")
    return (C * R / delta) ** m


# JSON interchange -----------------------------------------------------------

def _is_number(x) -> bool:
    """A JSON number; JSON true/false load as bool, a subclass of int."""
    return _is_number_type(type(x))


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _floats(vals: list, what: str) -> list[float]:
    """JSON numbers as floats; an integer literal beyond double range is a schema error."""
    try:
        return [float(v) for v in vals]
    except OverflowError as exc:
        raise SchemaError(f"{what}: a number lies beyond double range") from exc


def load_space(doc: dict) -> PointedMetricSpace:
    """Build a space from its JSON document form (see README for the schema)."""
    if not isinstance(doc, dict):
        raise SchemaError("metric-space document must be an object")
    for key in ("basepoint", "metric", "points"):
        if key not in doc:
            raise SchemaError(f"metric-space document missing {key!r}")
    kind = doc["metric"]
    if kind not in _KINDS:
        raise SchemaError(f"metric must be one of {_KINDS}, got {kind!r}")
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise SchemaError("points must be a non-empty list")
    ids = []
    coords = []
    for entry in pts:
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError("each point entry must be an object with an 'id'")
        ids.append(str(entry["id"]))
        if kind != "matrix":
            if "coords" not in entry:
                raise SchemaError(f"point {entry['id']!r} missing coords")
            vals = entry["coords"]
            if not isinstance(vals, list) or not all(_is_number(c) for c in vals):
                raise SchemaError(f"coords of point {entry['id']!r} must be a list of numbers")
            coords.append(_floats(vals, f"coords of point {entry['id']!r}"))
    try:
        if kind == "matrix":
            if "matrix" not in doc:
                raise SchemaError("matrix metric requires a 'matrix' field")
            rows, n = doc["matrix"], len(ids)
            # one check per distinct entry type, not per entry: 360,000 at 600 points
            if not (
                isinstance(rows, list)
                and len(rows) == n
                and all(isinstance(row, list) and len(row) == n for row in rows)
                and all(map(_is_number_type, set().union(*(map(type, row) for row in rows))))
            ):
                raise SchemaError(f"matrix must be a list of {n} rows of {n} numbers")
            try:
                matrix = np.asarray(rows, dtype=float)
            except OverflowError as exc:
                raise SchemaError("a matrix entry lies beyond double range") from exc
            return PointedMetricSpace(tuple(ids), str(doc["basepoint"]), "matrix", matrix=matrix)
        lens = {len(c) for c in coords}
        if len(lens) != 1:
            raise SchemaError("all points must share one coordinate dimension")
        return PointedMetricSpace(
            tuple(ids), str(doc["basepoint"]), kind, coords=np.asarray(coords, dtype=float)
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def space_to_doc(space: PointedMetricSpace) -> dict:
    doc: dict = {"basepoint": str(space.basepoint), "metric": space.kind}
    if space.kind == "matrix":
        doc["points"] = [{"id": str(pid)} for pid in space.ids]
        doc["matrix"] = [[float(x) for x in row] for row in space.matrix]
    else:
        doc["points"] = [
            {"id": str(pid), "coords": [float(x) for x in space.coords[i]]}
            for i, pid in enumerate(space.ids)
        ]
    return doc
