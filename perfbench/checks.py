"""Answer checks made apart from the program, with ``scipy.spatial.cKDTree``.

Point correlation counts are checked against the counts at the radius
shrunk and grown by ``RADIUS_BAND`` (relative), so a point whose
distance rounds differently at the boundary cannot fail the check.
Nearest-neighbour answers are checked on distances, within
``DIST_RTOL``, and on ids: every returned id must be a distinct data
point (never the query itself in the harness, where queries are data
points) whose own distance to the query is the reported one, so ties
between equidistant points pass.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy.spatial import cKDTree

#: relative band around the pc radius that absorbs float rounding.
RADIUS_BAND = 1e-9
#: relative tolerance on reported distances.
DIST_RTOL = 1e-9
DIST_ATOL = 1e-12


class WrongAnswer(AssertionError):
    """The program answered a query differently from the reference."""


class Reference:
    """cKDTree over one data set, answering for one app's outputs.

    ``app`` is ``pc`` (give its ``radius``), ``knn``, ``nn`` or ``vp``;
    ``knn`` and ``nn`` report squared distances, ``vp`` plain ones.
    """

    def __init__(self, app: str, data: np.ndarray, radius: Optional[float] = None) -> None:
        self.app = app
        self.data = np.asarray(data, dtype=np.float64)
        self.tree = cKDTree(self.data)
        self.radius = radius

    def check(
        self,
        coords: np.ndarray,
        out: Dict[str, np.ndarray],
        self_ids: Optional[np.ndarray] = None,
    ) -> None:
        """Raise :class:`WrongAnswer` unless ``out`` answers ``coords``.

        ``self_ids`` (the queries' own data ids) marks queries that are
        data points and exclude themselves, as in the harness apps.
        """
        coords = np.asarray(coords, dtype=np.float64).reshape(len(coords), -1)
        if self.app == "pc":
            self._check_counts(coords, np.asarray(out["count"]), self_ids)
        elif self.app == "knn":
            self._check_nearest(
                coords, np.sqrt(out["knn_dist"]), out["knn_id"], self_ids
            )
        else:
            dist = out["nn_dist"] if self.app == "vp" else np.sqrt(out["nn_dist"])
            self._check_nearest(
                coords, np.reshape(dist, (-1, 1)), np.reshape(out["nn_id"], (-1, 1)),
                self_ids,
            )

    def _check_counts(self, coords, counts, self_ids) -> None:
        counts = counts.reshape(-1)
        lo = self.tree.query_ball_point(
            coords, self.radius * (1 - RADIUS_BAND), return_length=True
        )
        hi = self.tree.query_ball_point(
            coords, self.radius * (1 + RADIUS_BAND), return_length=True
        )
        if self_ids is not None:
            lo, hi = lo - 1, hi - 1
        bad = np.flatnonzero((counts < lo) | (counts > hi))
        if len(bad):
            i = bad[0]
            raise WrongAnswer(
                f"pc: {len(bad)} wrong counts; row {i}: got {counts[i]}, "
                f"reference {lo[i]}..{hi[i]}"
            )

    def _check_nearest(self, coords, dist, ids, self_ids) -> None:
        dist = np.asarray(dist, dtype=np.float64).reshape(len(coords), -1)
        ids = np.asarray(ids).reshape(len(coords), -1)
        k = ids.shape[1]
        extra = 0 if self_ids is None else 1
        ref_d, ref_i = self.tree.query(coords, k=k + extra)
        ref_d = np.reshape(ref_d, (len(coords), k + extra))
        ref_i = np.reshape(ref_i, (len(coords), k + extra))
        if self_ids is not None:
            keep = ref_i != np.asarray(self_ids)[:, None]
            keep[keep.all(axis=1), -1] = False
            ref_d = ref_d[keep].reshape(len(coords), k)
        if not np.allclose(dist, ref_d, rtol=DIST_RTOL, atol=DIST_ATOL):
            i = int(np.argmax(np.any(~np.isclose(dist, ref_d, DIST_RTOL, DIST_ATOL), axis=1)))
            raise WrongAnswer(
                f"{self.app}: wrong distances; row {i}: got {dist[i]}, "
                f"reference {ref_d[i]}"
            )
        if ids.min() < 0 or ids.max() >= len(self.data):
            raise WrongAnswer(f"{self.app}: id out of range")
        own = np.linalg.norm(self.data[ids] - coords[:, None, :], axis=2)
        if not np.allclose(own, dist, rtol=DIST_RTOL, atol=DIST_ATOL):
            raise WrongAnswer(f"{self.app}: an id's distance differs from the reported one")
        if k > 1 and np.any(np.diff(np.sort(ids, axis=1), axis=1) == 0):
            raise WrongAnswer(f"{self.app}: repeated id in one answer")
        if self_ids is not None and np.any(ids == np.asarray(self_ids)[:, None]):
            raise WrongAnswer(f"{self.app}: a query answered with itself")
