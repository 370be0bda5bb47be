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

from .metric import PointedMetricSpace

__all__ = ["FrechetMap", "frechet_embed"]


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
