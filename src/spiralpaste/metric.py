"""Pointed metric spaces and brute-force distortion measurement.

A space is a finite list of opaque point ids with a metric given either
as an explicit symmetric matrix or induced by per-point coordinates under
the sup or Euclidean norm, plus a distinguished basepoint.  Distortion of
a map into a block sum is measured by scanning every unordered pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from . import sumspace
from .errors import SchemaError
from .sumspace import BlockVector, SumSpaceSpec

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
# A 4 MiB cap timed within noise of it on the 600-point triangle check.
_SLAB = 1 << 17


def sup_pairwise(V: np.ndarray, kind: str = "linf") -> np.ndarray:
    """Pairwise distances of the rows of V: sup norm ('linf') or Euclidean ('l2').

    The package's one pairwise kernel, serial.  It takes the columns of V
    a slab at a time, copied out transposed so that each column is one
    contiguous row.  For each chunk of rows of the upper triangle it
    writes the (rows, cols, m) differences into one buffer, reduces them
    over the columns in one numpy call (max of abs, or for 'l2' sum of
    squares) and folds that into the chunk; the triangle is mirrored at
    the end.  The slab copy and the difference buffer hold at most
    ``_SLAB`` entries between them where a row allows it, so extra memory
    stays flat whatever the number of columns.  linf entries are exact
    maxima; an l2 entry sums its squares in numpy's order.  For 'l2', an
    input with an entry of at least 2^500 is divided by a power of two
    (into a copy) before squaring and the distances are multiplied back
    after the square root, so a distance that fits a double does not
    overflow on the way; one that does not fit comes out as inf, where
    the caller's finiteness check reports it.
    """
    m, k = V.shape
    out = np.zeros((m, m))
    if not V.size:
        return out
    l2 = kind == "l2"
    scale = 1.0
    if l2:
        top = max(float(V.max()), -float(V.min()))
        if top >= 2.0**500:
            scale = math.ldexp(1.0, math.frexp(top)[1] - 500)
            V = V / scale
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
            np.multiply(out, scale, out=out)
    for i0 in range(0, m, rows):
        out[i0 + rows :, i0 : i0 + rows] = out[i0 : i0 + rows, i0 + rows :].T
    return out


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
    """

    ids: tuple
    basepoint: object
    kind: str
    coords: np.ndarray | None = None
    matrix: np.ndarray | None = None
    _rows: dict = field(default_factory=dict, repr=False, compare=False)

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
        if not np.all(np.isfinite(D)):
            i, j = divmod(int(np.argmin(np.isfinite(D))), n)
            raise ValueError(
                f"distances must be finite: entry ({self.ids[i]!r}, {self.ids[j]!r}) "
                "is NaN or overflows double range"
            )
        self.matrix = D
        if self.kind == "matrix":
            self._validate_matrix(D)
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
        return sub

    def _validate_matrix(self, D: np.ndarray) -> None:
        tol = self.rel_tol()
        if float(np.max(np.abs(D - D.T))) > tol:
            raise ValueError("distance matrix asymmetry exceeds tolerance")
        if float(np.max(np.abs(np.diag(D)))) > tol:
            raise ValueError("self-distances must vanish")
        # Positivity is judged at machine resolution, not at the report
        # tolerance: doubles near the diameter still resolve much finer
        # separations than TOL * diameter.
        resolvable = 64.0 * np.finfo(float).eps * max(1.0, float(np.max(D)))
        off = D + np.eye(len(D)) * (np.max(D) + 1.0)
        if float(np.min(off)) <= resolvable:
            raise ValueError("distinct points must be at positive distance")
        # The distance-vector map x -> (d(x, k))_k into l_inf is an
        # isometry exactly when the triangle inequality holds, and its
        # image distances are sup_pairwise(D)[x, z] = max_k |d(x,k) - d(z,k)|.
        # At the first failing pair (x, z) the worst k has either
        # d(x,k) > d(x,z) + d(z,k) or d(z,k) > d(z,x) + d(x,k); the
        # message names the middle point of that triple.
        bad = sup_pairwise(D) > D + tol
        if bad.any():
            x, z = divmod(int(np.argmax(bad)), len(D))
            k = int(np.argmax(np.abs(D[x] - D[z])))
            middle = z if D[x, k] > D[z, k] else x
            raise ValueError(f"triangle inequality fails through point {self.ids[middle]!r}")

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


# A fold turns the stream of per-block pair distances into the pair
# distances of the target norm: fold(n, blocks) -> (n, n) array, where
# ``blocks`` yields (block index, (n, n) buffer) and reuses that buffer,
# so a fold must use it before asking for the next block.  A fold that
# measures several norms in one pass returns a tuple of arrays, one per norm.
Fold = Callable[[int, Iterator[tuple[int, np.ndarray]]], np.ndarray | tuple[np.ndarray, ...]]


def _block_distances(
    space: PointedMetricSpace, image: Mapping, spec: SumSpaceSpec
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, D_b) for every block some image touches, D_b[i, j] = ||x_i,b - x_j,b||_inf.

    Only a block's support (the points whose image has that block) goes
    through the kernel; a pair with one point outside the support is at
    the other point's block norm, a pair with both outside at 0.  D_b is
    one (n, n) buffer, overwritten for every block.
    """
    n = len(space)
    rows: dict[int, list[int]] = {b: [] for b in range(1, spec.num_blocks + 1)}
    vecs: dict[int, list[np.ndarray]] = {b: [] for b in rows}
    for i, pid in enumerate(space.ids):
        for b, arr in image[pid].blocks.items():
            rows[b].append(i)
            vecs[b].append(arr)
    buf = np.empty((n, n))
    for b, support in rows.items():
        if not support:
            continue
        V = np.stack(vecs[b])
        norms = np.max(np.abs(V), axis=1)
        buf.fill(0.0)
        buf[support, :] = norms[:, None]
        buf[:, support] = norms[None, :]
        buf[np.ix_(support, support)] = sup_pairwise(V)
        yield b, buf


def _max_fold(n: int, blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    """Sup aggregation: the running max over blocks."""
    out = np.zeros((n, n))
    for _, d in blocks:
        np.maximum(out, d, out=out)
    return out


def _power_fold(p: float) -> Fold:
    """p-sum aggregation, streamed and overflow-safe.

    Keeps the running max M and S = sum_b (d_b / M)^p; when M grows, S is
    rescaled by (M_old / M_new)^p, so no power ever exceeds 1 (the same
    max-scaling as ``sumspace.norm``).
    """

    def fold(n: int, blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
        M, S = np.zeros((n, n)), np.zeros((n, n))
        grown, safe = np.empty((n, n)), np.empty((n, n))
        for _, d in blocks:
            np.maximum(M, d, out=grown)
            np.copyto(safe, grown)
            safe[safe == 0.0] = 1.0
            np.divide(M, safe, out=M)
            np.power(M, p, out=M)
            np.multiply(S, M, out=S)
            np.divide(d, safe, out=safe)
            np.power(safe, p, out=safe)
            np.add(S, safe, out=S)
            M, grown = grown, M
        np.power(S, 1.0 / p, out=S)
        return np.multiply(M, S, out=S)

    return fold


def distortion(
    space: PointedMetricSpace,
    image: Mapping,
    target: SumSpaceSpec,
    analytic_bound: float | tuple | None = None,
    aggregator: Fold | None = None,
) -> DistortionReport | tuple[DistortionReport, ...]:
    """Measure bilipschitz distortion of ``image`` over all unordered pairs.

    ``image`` maps every point id to a BlockVector of ``target``.  An
    optional ``aggregator`` folds the per-block pair distances into pair
    distances, replacing the p-sum (used for renormed target models).
    A fold that returns a tuple of arrays gets a tuple of reports, one per
    array, and ``analytic_bound`` is then a tuple of the same length.
    Extra memory is a few (n, n) arrays, whatever the block dimensions.
    """
    n = len(space)
    if n < 2:
        raise ValueError("distortion needs at least two points")
    for pid in space.ids:
        if image[pid].spec.block_dims != target.block_dims:
            raise ValueError(f"image of {pid!r} does not fit the target block layout")
    if aggregator is None:
        aggregator = _max_fold if target.p == sumspace.SUP else _power_fold(target.p)
    folded = aggregator(n, _block_distances(space, image, target))
    if isinstance(folded, tuple):
        return tuple(_report(space, *pair) for pair in zip(folded, analytic_bound, strict=True))
    return _report(space, folded, analytic_bound)


def _report(space: PointedMetricSpace, ratios: np.ndarray, bound: float | None) -> DistortionReport:
    """Report on one (n, n) array of target pair distances, which it overwrites."""
    n = len(space)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(ratios, space.matrix, out=ratios)
    # Mask the diagonal and below; argmax/argmin then pick the first pair
    # in row-major order over the upper triangle.
    lower = np.tri(n, dtype=bool)
    ratios[lower] = -np.inf
    k_max = int(np.argmax(ratios))
    hi = float(ratios.flat[k_max])
    ratios[lower] = np.inf
    k_min = int(np.argmin(ratios))
    lo = float(ratios.flat[k_min])
    max_pair = tuple(space.ids[i] for i in divmod(k_max, n))
    min_pair = tuple(space.ids[i] for i in divmod(k_min, n))
    dist = np.inf if lo == 0.0 else hi / lo
    passed = bound is None or dist <= bound
    if lo == 0.0:
        passed = False
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
