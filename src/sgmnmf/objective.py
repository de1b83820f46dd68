"""Negative log-likelihood objectives and their majorizing surrogates.

Two parameterizations of the same model are supported: the
diagonal-domain form (diagonalizers Q plus per-source gains g) and the
full-rank form (explicit spatial covariances).  When the covariances are
reconstructed from (Q, g) the two costs agree exactly, which the tests
lean on as an oracle.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model
from .errors import InvalidAuxiliaryError, NonFiniteError

AUX_ATOL = 1e-8


def cost_ggd_jd(state: model.SeparationState, X: np.ndarray) -> float:
    """Sub-Gaussian objective in the diagonal domain.

    -2J sum_i log|det Q_i| + sum_ijm log chi_ijm
    + sum_ij (sum_m |p_ijm|^2 / chi_ijm)^{beta/2}
    """
    p2 = np.abs(model.projections(state, X)) ** 2
    chi = model.mixture_gain(state)
    return jd_cost(
        state.spatial.Q, p2.transpose(0, 2, 1), chi.transpose(0, 2, 1), state.hyper.beta
    )


def jd_cost(q: np.ndarray, p2: np.ndarray, chi: np.ndarray, beta: float) -> float:
    """cost_ggd_jd from |p|^2 and chi in channel-major layout (I, M, J).

    The optimizer carries both quantities across sub-updates, so its
    per-iteration cost recomputes neither.
    """
    y = model.sum_channels(p2 / chi)
    n_frames = p2.shape[2]
    det_term = -2.0 * n_frames * np.sum(linalg.log_abs_det(q))
    val = det_term + np.sum(np.log(chi)) + np.sum(y ** (beta / 2.0))
    if not math.isfinite(val):
        raise NonFiniteError("objective evaluated to NaN/Inf")
    return float(val)


def cost_gaussian_jd(state: model.SeparationState, X: np.ndarray) -> float:
    """Gaussian objective in the diagonal domain (beta = 2 special case)."""
    p = model.projections(state, X)
    chi = model.mixture_gain(state)
    n_frames = X.shape[1]
    det_term = -2.0 * n_frames * np.sum(linalg.log_abs_det(state.spatial.Q))
    val = det_term + np.sum(np.abs(p) ** 2 / chi + np.log(chi))
    if not math.isfinite(val):
        raise NonFiniteError("objective evaluated to NaN/Inf")
    return float(val)


def current_cost(state: model.SeparationState, X: np.ndarray) -> float:
    """The objective the optimizer descends; beta = 2 on the Gaussian path."""
    return cost_ggd_jd(state, X)


def cost_ggd_fullrank(X: np.ndarray, scm: np.ndarray, sigma: np.ndarray, beta: float) -> float:
    """Sub-Gaussian objective with explicit full-rank covariances (oracle).

    sum_ij [(x^H Xhat^{-1} x)^{beta/2} + log det Xhat] with
    Xhat_ij = sum_n sigma_ijn G_in.  When the covariances come from
    full_rank_scm, log det Xhat expands to sum_m log chi - 2 log|det Q|,
    so this equals cost_ggd_jd with no further correction.
    """
    xhat = np.einsum("ijn,inab->ijab", sigma, scm, optimize=True)
    sol = linalg.solve(xhat, X)
    quad = np.maximum(np.einsum("ijm,ijm->ij", X.conj(), sol, optimize=True).real, 0.0)
    val = np.sum(quad ** (beta / 2.0)) + np.sum(linalg.log_abs_det(xhat))
    if not math.isfinite(val):
        raise NonFiniteError("objective evaluated to NaN/Inf")
    return float(val)


# ---------------------------------------------------------------------------
# auxiliary variables and the surrogate for the nonnegative block


@dataclass
class Auxiliary:
    """Weights for the Jensen/tangent bounds on the nonnegative block.

    xi   (I, J, M)          simplex over m per (i, j)
    eta  (I, J, K, N, M)    simplex over (k, n) per (i, j, m)
    zeta (I, J, M)          positive tangent points for log chi
    """

    xi: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray

    def validate(self):
        for name, arr in (("xi", self.xi), ("eta", self.eta), ("zeta", self.zeta)):
            if not np.isfinite(arr).all():
                raise InvalidAuxiliaryError(f"{name} contains NaN/Inf")
        if self.xi.min() < -AUX_ATOL or self.eta.min() < -AUX_ATOL:
            raise InvalidAuxiliaryError("simplex weights must be nonnegative")
        if self.zeta.min() <= 0:
            raise InvalidAuxiliaryError("tangent points must be positive")
        xi_sum = self.xi.sum(axis=2)
        if np.abs(xi_sum - 1.0).max() > AUX_ATOL:
            raise InvalidAuxiliaryError("xi must sum to 1 over channels")
        eta_sum = self.eta.sum(axis=(2, 3))
        if np.abs(eta_sum - 1.0).max() > AUX_ATOL:
            raise InvalidAuxiliaryError("eta must sum to 1 over (basis, source)")


def equality_aux(state: model.SeparationState, X: np.ndarray) -> Auxiliary:
    """Auxiliary values at which the surrogate touches the objective."""
    p2 = np.abs(model.projections(state, X)) ** 2
    chi = model.mixture_gain(state)
    ratio = p2 / chi
    y = ratio.sum(axis=2, keepdims=True)
    n_ch = p2.shape[2]
    xi = np.where(y > 0, ratio / np.where(y > 0, y, 1.0), 1.0 / n_ch)
    prod = np.einsum(
        "ik,kj,kn,inm->ijknm",
        state.source.T,
        state.source.V,
        state.source.Z,
        state.spatial.G,
        optimize=True,
    )
    eta = prod / chi[:, :, None, None, :]
    aux = Auxiliary(xi=xi, eta=eta, zeta=chi.copy())
    for arr in (aux.xi, aux.eta, aux.zeta):
        if not np.isfinite(arr).all():
            raise NonFiniteError("auxiliary update produced NaN/Inf")
    return aux


def surrogate_tvzg(state: model.SeparationState, X: np.ndarray, aux: Auxiliary) -> float:
    """Upper bound on cost_ggd_jd, tight at aux = equality_aux(state, X).

    Jensen on the convex powers y^{beta/2} (weights xi) and chi^{-beta/2}
    (weights eta), tangent bound on log chi at zeta; the Q log-det term is
    kept so the surrogate and the objective share constants.
    """
    aux.validate()
    beta = state.hyper.beta
    p2 = np.abs(model.projections(state, X)) ** 2
    chi = model.mixture_gain(state)
    n_frames = X.shape[1]

    prod = np.einsum(
        "ik,kj,kn,inm->ijknm",
        state.source.T,
        state.source.V,
        state.source.Z,
        state.spatial.G,
        optimize=True,
    )
    # sum_kn eta^{1+beta/2} prod^{-beta/2}, with eta = 0 entries dropped
    eta = aux.eta
    safe = np.where(eta > 0, eta, 0.0)
    inner = np.sum(safe ** (1.0 + beta / 2.0) * prod ** (-beta / 2.0), axis=(2, 3))
    xi = np.where(aux.xi > 0, aux.xi, 0.0)
    with np.errstate(divide="ignore"):
        xi_pow = np.where(p2 > 0, xi ** (1.0 - beta / 2.0), 0.0)
    bound = np.sum(xi_pow * p2 ** (beta / 2.0) * inner)

    tangent = np.sum(np.log(aux.zeta) + (chi - aux.zeta) / aux.zeta)
    det_term = -2.0 * n_frames * np.sum(linalg.log_abs_det(state.spatial.Q))
    val = det_term + tangent + bound
    # zero weight against a nonzero projection gives a vacuous +inf bound;
    # only NaN indicates a real numerical failure
    if math.isnan(val):
        raise NonFiniteError("surrogate evaluated to NaN")
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
