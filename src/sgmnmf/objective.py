"""The negative log-likelihood the optimizer descends, and cost traces.

The cost is evaluated in the diagonal domain (diagonalizers Q plus
per-source gains g).  The full-rank form it equals, and the surrogates
the update rules minimize, are test oracles in tests/oracles.py.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model
from .errors import NonFiniteError


def cost_ggd_jd(state: model.SeparationState, X: np.ndarray) -> float:
    """Sub-Gaussian objective in the diagonal domain.

    -2J sum_i log|det Q_i| + sum_ijm log chi_ijm
    + sum_ij (sum_m |p_ijm|^2 / chi_ijm)^{beta/2}
    """
    p2 = np.abs(model.projections(state, X)) ** 2
    chi = model.mixture_gain(state).transpose(2, 0, 1)
    y = model.sum_channels(p2.transpose(2, 0, 1) / chi, np.empty(p2.shape[:2]))
    return jd_cost(state.spatial.Q, y, np.sum(np.log(chi)), state.hyper.beta, np.empty_like(y))


def jd_cost(
    q: np.ndarray, y: np.ndarray, log_chi_sum: float, beta: float, y_pow: np.ndarray
) -> float:
    """cost_ggd_jd from y = sum_m |p_m|^2 / chi_m, (I, J), and sum_ijm log chi_ijm.

    y_pow, (I, J), is overwritten with y^{beta/2}.  The optimizer builds
    y once per state and shares it with its next t family.
    """
    n_frames = y.shape[1]
    det_term = -2.0 * n_frames * np.sum(linalg.log_abs_det(q))
    val = det_term + log_chi_sum + np.sum(model._power(y, beta / 2.0, y_pow))
    if not math.isfinite(val):
        raise NonFiniteError("objective evaluated to NaN/Inf")
    return float(val)


# ---------------------------------------------------------------------------
# cost traces


@dataclass
class TracePoint:
    iteration: int
    cost: float
    ms: float = 0.0


@dataclass
class CostTrace:
    points: list = field(default_factory=list)

    def append(self, iteration: int, cost: float, ms: float = 0.0):
        if self.points and iteration <= self.points[-1].iteration:
            raise ValueError(
                f"iterations must increase: {iteration} after {self.points[-1].iteration}"
            )
        self.points.append(TracePoint(int(iteration), float(cost), float(ms)))

    @property
    def iterations(self):
        return [p.iteration for p in self.points]

    @property
    def costs(self):
        return [p.cost for p in self.points]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "cost", "ms"])
            for p in self.points:
                writer.writerow([p.iteration, repr(p.cost), f"{p.ms:.3f}"])

    @classmethod
    def read_csv(cls, path):
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["iteration", "cost", "ms"]:
                raise ValueError(f"{path}: unexpected trace header {header}")
            for row in reader:
                trace.append(int(row[0]), float(row[1]), float(row[2]))
        return trace
