"""Pointed metric spaces and brute-force distortion measurement.

A space is a finite list of opaque point ids with a metric given either
as an explicit symmetric matrix or induced by per-point coordinates under
the sup or Euclidean norm, plus a distinguished basepoint.  Distortion of
a map into a block sum is measured over every unordered pair, or over a
caller's candidate pairs that hold every pair able to set the max or the
min, which gives the same report.  The JSON documents of spaces and maps
are parsed and checked here too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import SchemaError
from .sumspace import SUP, BlockVector, Fold, SumSpaceSpec, _WORK_CHUNK, _pair_distances

__all__ = [
    "PointedMetricSpace",
    "DistortionReport",
    "ball",
    "sup_pairwise",
    "distortion",
    "packing_bound",
    "read_document",
    "load_space",
    "load_map",
    "space_to_doc",
]

# All distance comparisons share one absolute tolerance, applied to
# distances rescaled by the space diameter: TOL * max(1, max D).
TOL = 1e-9

# Machine resolution of a distance relative to its scale: 64 ulps of 1.0.
# Doubles near the diameter still resolve much finer separations than
# TOL * diameter, so positivity and the Fréchet isometry are judged at it.
RESOLUTION = 64.0 * np.finfo(float).eps

_KINDS = ("matrix", "linf", "l2")

# Entries of sup_pairwise's two work buffers together: 1 MiB of doubles.
# It bounds the extra memory of a coordinate space's distance build.
_SLAB = 1 << 17


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
    rows = max(1, _WORK_CHUNK // n)
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
    k axis, about ``_WORK_CHUNK`` differences per numpy call.  Its k > x
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
    buf = np.empty(max(_WORK_CHUNK, n))
    hi, lo = np.empty(n), np.empty(n)
    worst, first, x0 = -math.inf, n * n, n
    with np.errstate(over="ignore"):
        for x in range(n - 1):
            w, k0 = n - 1 - x, min(x0, x + 1)
            v, far, width, cut = D[x, k0:], D[x + 1 :, k0:], n - k0, x + 1 - k0
            rows = max(1, _WORK_CHUNK // width)
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

    ids: opaque, unique, hashable point identifiers, kept in construction
    order, which is the row order of every matrix and image built here.
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
    with a zero diagonal).  A ``ball`` keeps its parent's delta.
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
        top = float(np.max(D))
        if not np.isfinite([np.min(D), top]).all():
            i, j = divmod(int(np.argmin(np.isfinite(D))), n)
            raise ValueError(
                f"distances must be finite: entry ({self.ids[i]!r}, {self.ids[j]!r}) "
                "is NaN or overflows double range"
            )
        self.matrix = D
        if self.kind == "matrix":
            self._defect = self._validate_matrix(D, top)
        else:
            self._defect = _coordinate_defect(self.coords, self.kind, top)

    def _validate_matrix(self, D: np.ndarray, top: float) -> float:
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
        tol = TOL * max(1.0, top)
        asym, gap = _asymmetry_and_gap(D)
        diag = float(np.max(np.abs(np.diag(D))))
        if asym > tol:
            raise ValueError("distance matrix asymmetry exceeds tolerance")
        if diag > tol:
            raise ValueError("self-distances must vanish")
        if gap <= RESOLUTION * max(1.0, top):
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
            return self.ids.index(point)
        except ValueError:
            raise KeyError(f"unknown point {point!r}") from None

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

    @property
    def passed(self) -> bool:
        """The map is injective and, when a bound is given, within it."""
        bound = self.analytic_bound
        return self.scale_r != 0.0 and (bound is None or self.distortion <= bound)

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
    """Closed ball around the basepoint, as a subspace with the same basepoint.

    It keeps the rows of ``space`` with rho <= radius, and their distances
    and conditioning delta: ``space`` was validated when it was built, so
    the metric axioms are not checked again.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    keep = np.flatnonzero(space.rho() <= radius)
    sub = object.__new__(type(space))
    sub.ids = tuple(space.ids[i] for i in keep)
    sub.basepoint = space.basepoint
    sub.kind = space.kind
    sub.coords = None if space.coords is None else space.coords[keep]
    sub.matrix = space.matrix[np.ix_(keep, keep)]
    sub._defect = space._defect
    return sub


def distortion(
    space: PointedMetricSpace,
    image: Mapping,
    target,
    analytic_bound: float | tuple | None = None,
    candidates: Callable[[Fold], tuple[np.ndarray, np.ndarray]] | None = None,
) -> DistortionReport | tuple[DistortionReport, ...]:
    """Measure bilipschitz distortion of ``image`` over all unordered pairs.

    ``target`` is anything with ``block_dims`` and a ``fold`` (a
    ``SumSpaceSpec``, or a renormed model such as ``fdd.FddModel``), and
    ``image`` maps every point id to a BlockVector of that block layout; a
    point without an image raises ValueError naming the first in id order.
    The target's fold turns the per-block pair distances into a tuple of
    pair distance arrays, one per target norm.  A target with one norm
    gets one report; a target with several gets a tuple of reports, one
    per norm, and ``analytic_bound`` is then a tuple of the same length,
    or None for no bound on any of them.  Extra memory is a
    few arrays of one entry per scanned pair, plus one block's vectors.  A
    scanned pair whose target distance or ratio is NaN or overflows, or
    whose positive distance has a ratio below 2^-1022, raises ValueError
    naming the first such pair in row-major order.

    ``candidates``, called with ``target.fold``, returns the pairs (I, J)
    to scan, I < J in row-major order.  They must include every pair that
    can set any folded norm's max or min, so the report is the full
    scan's, tie-break included.
    """
    vectors = []
    for pid in space.ids:
        if pid not in image:
            raise ValueError(f"map has no image for {pid!r}")
        vectors.append(image[pid])
        if vectors[-1].spec.block_dims != target.block_dims:
            raise ValueError(f"image of {pid!r} does not fit the target block layout")
    n = len(space)
    if n < 2:
        raise ValueError("distortion needs at least two points")
    fold = target.fold
    I, J = np.triu_indices(n, 1) if candidates is None else candidates(fold)
    with np.errstate(over="ignore", invalid="ignore"):
        folded = fold(I.shape, _pair_distances(vectors, I, J))
        D = space.matrix[I, J]
        ratios, ok = [], np.ones(I.shape, dtype=bool)
        for f in folded:
            zero = f == 0.0
            ratios.append(np.divide(f, D, out=f))
            # a positive distance whose ratio is below the normal doubles underflowed
            ok &= np.isfinite(f) & ((f >= 2.0**-1022) | zero)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(
            f"target distances must be finite: pair ({space.ids[I[k]]!r}, {space.ids[J[k]]!r}) "
            "has a distance or ratio that is NaN or out of double range"
        )
    if len(ratios) == 1:
        return _report(space, I, J, ratios[0], analytic_bound)
    bounds = (None,) * len(ratios) if analytic_bound is None else analytic_bound
    return tuple(_report(space, I, J, *pair) for pair in zip(ratios, bounds, strict=True))


def _report(
    space: PointedMetricSpace, I: np.ndarray, J: np.ndarray, ratios: np.ndarray, bound: float | None
) -> DistortionReport:
    """Report on the ratios of the pairs (I, J), in row-major order."""
    k_max, k_min = int(np.argmax(ratios)), int(np.argmin(ratios))
    hi, lo = float(ratios[k_max]), float(ratios[k_min])
    max_pair = (space.ids[I[k_max]], space.ids[J[k_max]])
    min_pair = (space.ids[I[k_min]], space.ids[J[k_min]])
    dist = np.inf if lo == 0.0 else hi / lo
    return DistortionReport(dist, lo, max_pair, min_pair, bound)


def packing_bound(R: float, delta: float, m: int, C: float) -> float:
    """Cardinality bound (C * R / delta)^m for delta-separated sets in a ball."""
    if R <= 0 or delta <= 0 or C <= 0 or m < 1:
        raise ValueError("packing bound needs positive R, delta, C and m >= 1")
    return (C * R / delta) ** m


# JSON interchange -----------------------------------------------------------


def read_document(path: str):
    """Parse the JSON file at ``path``; bad JSON, deep nesting or a repeated key is a SchemaError."""

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise SchemaError(f"JSON in {path} repeats key {key!r} in one object")
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"JSON in {path} nests too deeply") from exc


def _is_number_type(t: type) -> bool:
    """The type of a JSON number; JSON true/false load as bool, a subclass of int."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _numbers(vals, what: str, expected: str = "a list of numbers") -> np.ndarray:
    """A list of JSON numbers as a float array, each entry type checked once; ``what`` names it."""
    if not (isinstance(vals, list) and all(map(_is_number_type, set(map(type, vals))))):
        raise SchemaError(f"{what} must be {expected}")
    try:
        return np.asarray(vals, dtype=float)
    except OverflowError as exc:
        raise SchemaError(f"{what}: a number lies beyond double range") from exc


def _check_fields(doc, what: str, keys: tuple) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} document must be an object")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{what} document missing {key!r}")


def load_space(doc: dict) -> PointedMetricSpace:
    """Build a space from its JSON document form (see README for the schema)."""
    _check_fields(doc, "metric-space", ("basepoint", "metric", "points"))
    kind = doc["metric"]
    if kind not in _KINDS:
        raise SchemaError(f"metric must be one of {_KINDS}, got {kind!r}")
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise SchemaError("points must be a non-empty list")
    ids, coords = [], []
    for entry in pts:
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError("each point entry must be an object with an 'id'")
        ids.append(str(entry["id"]))
        if kind != "matrix":
            if "coords" not in entry:
                raise SchemaError(f"point {entry['id']!r} missing coords")
            coords.append(_numbers(entry["coords"], f"coords of point {entry['id']!r}"))
    try:
        if kind == "matrix":
            if "matrix" not in doc:
                raise SchemaError("matrix metric requires a 'matrix' field")
            rows, n = doc["matrix"], len(ids)
            expected = f"a list of {n} rows of {n} numbers"
            if not (isinstance(rows, list) and len(rows) == n
                    and all(isinstance(row, list) and len(row) == n for row in rows)):
                raise SchemaError(f"matrix must be {expected}")
            matrix = np.empty((n, n))
            for i, row in enumerate(rows):
                matrix[i] = _numbers(row, "matrix", expected)
            return PointedMetricSpace(tuple(ids), str(doc["basepoint"]), "matrix", matrix=matrix)
        lens = {len(c) for c in coords}
        if len(lens) != 1:
            raise SchemaError("all points must share one coordinate dimension")
        return PointedMetricSpace(
            tuple(ids), str(doc["basepoint"]), kind, coords=np.asarray(coords, dtype=float)
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_map(doc) -> tuple[SumSpaceSpec, dict]:
    """Build a map's block layout and its BlockVector per point id from its JSON document form."""
    _check_fields(doc, "map", ("p", "block_dims", "images"))
    p = SUP if doc["p"] == "sup" else doc["p"]
    [p] = _numbers([p], "map field 'p'", 'a number or "sup"').tolist()
    dims = doc["block_dims"]
    if not (isinstance(dims, list) and set(map(type, dims)) <= {int}):
        raise SchemaError("map field 'block_dims' must be a list of integers")
    try:
        spec = SumSpaceSpec(p, tuple(dims))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    raw = doc["images"]
    if not isinstance(raw, dict):
        raise SchemaError("map field 'images' must be an object keyed by point id")
    images = {}
    for pid, blocks in raw.items():
        if not isinstance(blocks, dict):
            raise SchemaError(f"image of {pid!r} must be an object keyed by block index")
        parsed, keys = {}, {}
        for key, vals in blocks.items():
            # int() alone also reads " 1", "+1", "1_0" and non-ASCII digits
            if not (key.isascii() and key.isdigit()):
                raise SchemaError(f"block key {key!r} of {pid!r} is not an integer")
            idx = int(key)
            if idx in keys:
                raise SchemaError(
                    f"block keys {keys[idx]!r} and {key!r} of {pid!r} both name block {idx}")
            keys[idx] = key
            parsed[idx] = _numbers(vals, f"block {key} of {pid!r}")
            if not np.isfinite(parsed[idx]).all():
                raise SchemaError(f"block {key} of {pid!r} must hold finite numbers")
        try:
            images[pid] = BlockVector(spec, parsed)
        except ValueError as exc:
            raise SchemaError(f"image of {pid!r}: {exc}") from exc
    return spec, images


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
