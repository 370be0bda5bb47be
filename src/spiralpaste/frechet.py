"""Exact isometric embedding of a finite metric space into sup-norm space.

Every point goes to its vector of distances to all points of the space
(anchors in the space's row order), shifted so the basepoint lands at the
origin.  With the full point set as anchors this is an exact isometry
into R^n under the sup norm, and the image norm of x equals its distance
to the basepoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import RESOLUTION, PointedMetricSpace, distortion as measure_distortion
from .sumspace import SUP, BlockVector, SumSpaceSpec

__all__ = ["FrechetMap", "frechet_embed", "frechet_report"]


@dataclass(frozen=True)
class FrechetMap:
    """Distance-vector embedding: per-point images, one coordinate per anchor."""

    images: dict

    @property
    def dimension(self) -> int:
        return len(self.images)

    def __getitem__(self, point) -> np.ndarray:
        return self.images[point]


def frechet_embed(space: PointedMetricSpace) -> FrechetMap:
    """Embed ``space`` isometrically into sup-norm R^n, basepoint at 0.

    Coordinate k of x is d(a_k, x) - d(a_k, basepoint) for the k-th point
    a_k of ``space.ids``, read from row k of the distance matrix; each image
    is a column of D - D[:, base].
    """
    D = space.matrix
    F = D - D[:, [space.index(space.basepoint)]]
    return FrechetMap(dict(zip(space.ids, F.T)))


def frechet_report(space: PointedMetricSpace) -> tuple[dict, bool]:
    """The distance-vector map's report and whether it is an isometry.

    Exact on integer metrics; float inputs round at ulp(diameter), which the
    smallest pair distance amplifies, so the distortion may exceed 1 by that
    allowance (and by 1e-12 at least).
    """
    fm = frechet_embed(space)
    spec = SumSpaceSpec(SUP, (fm.dimension,))
    images = {pid: BlockVector(spec, {1: fm[pid]}) for pid in space.ids}
    rep = measure_distortion(space, images, spec)
    off = space.matrix[np.triu_indices(len(space), 1)]
    allowance = RESOLUTION * float(off.max()) / max(float(off.min()), 1e-300)
    checks = {"isometry": bool(rep.distortion <= 1.0 + max(allowance, 1e-12))}
    payload = {"method": "frechet", "dimension": fm.dimension, "report": rep.to_doc(), "checks": checks}
    return payload, all(checks.values())
