"""Test oracles: the full-rank model and the majorization bounds.

The update rules come from majorizing the sub-Gaussian cost once the
joint-diagonalizability constraint has turned the full-rank model into
a diagonal one.  What that derivation relies on lives here, not in the
package, because no separation runs it:

- the full-rank covariances, cost and Wiener filter, which must agree
  with their diagonal-domain counterparts, and the all-sources-at-once
  diagonal-domain filter the package's must equal bit for bit;
- the Jensen/tangent surrogate of the nonnegative block and the
  auxiliary values at which it touches the cost;
- the diagonalizer row system and the post-scale sums of the row update;
- the STFT and iSTFT as per-frame loops, which the package's strided
  framing and overlap-add must equal bit for bit;
- the checkpoint as one ``json.dumps`` of the whole document, which
  the package's streamed writer must equal byte for byte.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from sgmnmf import audio, linalg, model, optimizer
from sgmnmf.errors import NonFiniteError, SgmnmfError

AUX_ATOL = 1e-8


class InvalidAuxiliaryError(SgmnmfError):
    """Auxiliary variables violate their simplex/positivity constraints."""


# ---------------------------------------------------------------------------
# the full-rank model


def full_rank_scm(state: model.SeparationState) -> np.ndarray:
    """Reconstructed full-rank spatial covariances, shape (I, N, M, M).

    G_in = Q_i^{-1} diag(g_in.) Q_i^{-H}; each result is Hermitian PSD.
    """
    q = state.spatial.Q
    q_inv = linalg.solve(q, np.broadcast_to(np.eye(q.shape[-1]), q.shape))
    return np.einsum(
        "iab,inb,icb->inac", q_inv, state.spatial.G, q_inv.conj(), optimize=True
    )


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


def cost_ggd_fullrank(X: np.ndarray, scm: np.ndarray, sigma: np.ndarray, beta: float) -> float:
    """Sub-Gaussian objective with explicit full-rank covariances.

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


def wiener_separate_fullrank(
    X: np.ndarray, scm: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Direct filter (sigma_ijn G_in) Xhat^{-1} x_ij, shape (N, I, J, M)."""
    xhat = np.einsum("ijn,inab->ijab", sigma, scm, optimize=True)
    sol = linalg.solve(xhat, X)
    out = np.einsum("inab,ijb->ijna", scm, sol, optimize=True)
    out = out * sigma[:, :, :, None]
    return out.transpose(2, 0, 1, 3).copy()


def wiener_separate_broadcast(state: model.SeparationState, X: np.ndarray) -> np.ndarray:
    """The diagonal-domain filter with every (I, J, N, M) intermediate at once.

    One solve per Q_i against all (frame, source) right-hand sides packed
    as the columns of one matrix; the package's blocked filter, which
    broadcasts Q_i over the sources instead, must match this bit for bit.
    """
    n_bins, n_frames, n_ch = X.shape
    n_src = state.hyper.n_sources
    p = model.projections(state, X)
    sigma = model.compute_source_psd(state.source)
    chi = model.mixture_gain(state)
    share = sigma[:, :, :, None] * state.spatial.G[:, None, :, :] / chi[:, :, None, :]
    weighted = share * p[:, :, None, :]
    rhs = weighted.transpose(0, 3, 1, 2).reshape(n_bins, n_ch, n_frames * n_src)
    sol = linalg.solve(state.spatial.Q, rhs)
    return sol.reshape(n_bins, n_ch, n_frames, n_src).transpose(3, 0, 2, 1).copy()


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
# the diagonalizer row update


def row_update_terms(state: model.SeparationState, X: np.ndarray, row: int):
    """(r, U, B) for one diagonalizer row at the current state; X has no silent bin."""
    beta = state.hyper.beta
    ws = optimizer._WorkingSet(X, state.spatial.Q)
    np.divide(1.0, optimizer._gain(state, ws.inv_chi), out=ws.inv_chi)
    u, b, pm2, w2 = optimizer._row_system(ws, state.spatial.Q, ws.p2, row, beta)
    rb = np.divide(pm2 ** (beta / 2.0 - 1.0), w2, out=np.ones_like(w2), where=w2 > 0)
    return {"r": rb ** (1.0 / beta), "U": u, "B": b}


def post_scale_sums(state: model.SeparationState, X: np.ndarray) -> np.ndarray:
    """Run the sub-Gaussian row sweep on state; return the post-scale sums.

    For each active bin and row m, sum_j |q_m^H x_j|^beta / r_j^beta
    with the rescaled row, shape (A, M).  The weights r come from the
    row system of the state the row update started from, recomputed
    after the row, so the sum is the one the update's scale step drives
    to 2J/beta.  The sweep works in its own working set, the
    recomputation in a second one.
    """
    beta = state.hyper.beta
    ws = optimizer._WorkingSet(X, state.spatial.Q)
    scratch = optimizer._WorkingSet(X, state.spatial.Q)
    active = ws.active
    np.divide(1.0, optimizer._gain(state, scratch.inv_chi, active), out=scratch.inv_chi)
    p2_row, q_row = ws.p2[:, active], state.spatial.Q[active]
    sums = np.empty((active.size, state.spatial.Q.shape[1]))

    def after_row(name, st):
        nonlocal p2_row, q_row
        m = int(name.removeprefix("q_row_"))
        _, _, pm2, w2 = optimizer._row_system(scratch, q_row, p2_row, m, beta)
        post = np.abs((ws.x @ st.spatial.Q[active, m, :, None])[:, :, 0]) ** 2
        sums[:, m] = optimizer._scaled_power(post, pm2, w2, beta, scratch.s).sum(axis=1)
        p2_row, q_row = ws.p2[:, active], st.spatial.Q[active]

    optimizer._q_rows(state, ws, on_phase=after_row)
    return sums


# ---------------------------------------------------------------------------
# the STFT as per-frame loops


def stft_loop(wave: audio.Waveform, cfg: audio.StftConfig) -> np.ndarray:
    """audio.stft with the frames gathered by an index matrix."""
    win = cfg.window()
    length, n_ch = wave.data.shape
    edge = cfg.window_length - cfg.hop
    padded_len = length + 2 * edge
    if padded_len <= cfg.window_length:
        n_frames = 1
    else:
        n_frames = int(np.ceil((padded_len - cfg.window_length) / cfg.hop)) + 1
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    out = np.empty((cfg.n_bins, n_frames, n_ch), dtype=np.complex128)
    starts = np.arange(n_frames) * cfg.hop
    for m in range(n_ch):
        padded = np.zeros(total)
        padded[edge : edge + length] = wave.data[:, m]
        frames = padded[starts[:, None] + np.arange(cfg.window_length)]
        out[:, :, m] = np.fft.rfft(frames * win, axis=1).T
    return out


def istft_loop(spec: np.ndarray, cfg: audio.StftConfig, length: int) -> np.ndarray:
    """audio.istft's (length, M) samples, overlap-added one frame at a time."""
    n_frames, n_ch = spec.shape[1:]
    win = cfg.window()
    edge = cfg.window_length - cfg.hop
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    starts = np.arange(n_frames) * cfg.hop
    denom = np.zeros(total)
    for j in range(n_frames):
        denom[starts[j] : starts[j] + cfg.window_length] += win * win
    out = np.zeros((length, n_ch))
    for m in range(n_ch):
        frames = np.fft.irfft(spec[:, :, m].T, n=cfg.fft_length, axis=1) * win
        buf = np.zeros(total)
        for j in range(n_frames):
            buf[starts[j] : starts[j] + cfg.window_length] += frames[j]
        covered = denom > 0
        buf[covered] /= denom[covered]
        out[:, m] = buf[edge : edge + length]
    return out


# ---------------------------------------------------------------------------
# the checkpoint writer


def _pack(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return {
            "shape": list(arr.shape),
            "real": arr.real.ravel().tolist(),
            "imag": arr.imag.ravel().tolist(),
        }
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def state_document(state: model.SeparationState) -> str:
    """state.json as one json.dumps of the whole document, the bytes save_state streams."""
    doc = {
        "format": "sgmnmf-state",
        "version": 1,
        "hyper": asdict(state.hyper),
        "arrays": {
            "t": _pack(state.source.T),
            "v": _pack(state.source.V),
            "z": _pack(state.source.Z),
            "g": _pack(state.spatial.G),
            "q": _pack(state.spatial.Q),
        },
    }
    return json.dumps(doc)
