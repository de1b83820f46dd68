"""Block-coordinate descent for the sub-Gaussian diagonal-domain model.

One iteration = multiplicative updates of the nonnegative factors
(t -> v -> z -> g, each an exact minimizer of the Jensen/tangent
surrogate for its block), then per-row updates of every diagonalizer
Q_i, then a scale renormalization that leaves the objective unchanged.
Every sub-update is monotone: the objective never increases.

The Gaussian model (beta = 2) runs the same multiplicative sweep, where
the general rule is the square-root rule bit for bit; only its
diagonalizer rule (iterative projection) is separate.

`run` computes what X alone determines once per run (FrameCache) and
carries the projection powers p2 = |Q x|^2 and the gains chi from one
sub-update to the next, so each step recomputes only what the previous
one changed.  Arrays over (bin, channel, frame) use model's
channel-major layout (I, M, J).
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg, model, objective
from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError

# row projections are floored at this fraction of the frame scale inside
# the diagonalizer update; see _row_system
PROJ_FLOOR = 1e-8
# relative diagonal load on row-update systems; near-silent bins carry
# effectively rank-1 data, leaving the solve singular at machine
# precision along a direction the objective is flat in
DIAG_LOAD = 1e-14


def _gain(state, bins=slice(None)):
    """chi over the given bins, channel-major."""
    src = state.source
    return model.channel_gain(src.T[bins], src.V, src.Z, state.spatial.G[bins])


def _outer_products(X):
    """Frame outer products x_ij x_ij^H flattened to (I, J, M^2)."""
    X = np.asarray(X, dtype=np.complex128)
    n_bins, n_frames, n_ch = X.shape
    xx = X[:, :, :, None] * X[:, :, None, :].conj()
    return xx.reshape(n_bins, n_frames, n_ch * n_ch)


class FrameCache:
    """What the diagonalizer rules need from X, built once per run.

    active: bins with a nonzero frame (silent bins keep their Q_i);
    x: X[active] channel-major, (A, M, J), whose |Q x|^2 the rules carry;
    xx: the frame outer products of X[active], (A, J, M^2), so each
    weighted covariance sum_j w_j x_j x_j^H is one matmul.
    """

    def __init__(self, X: np.ndarray):
        self.n_bins = X.shape[0]
        self.active = np.flatnonzero(np.abs(X).max(axis=(1, 2)) > 0)
        xa = np.asarray(X[self.active], dtype=np.complex128)
        self.x = np.ascontiguousarray(xa.transpose(0, 2, 1))
        self.xx = _outer_products(xa)

    def projection_powers(self, q):
        """|Q x|^2 over the active bins, (A, M, J)."""
        if q.shape[0] != self.n_bins or q.shape[1] != self.x.shape[1]:
            raise DimensionMismatchError(
                f"spectrogram with {self.n_bins} bins x {self.x.shape[1]} channels "
                f"incompatible with Q {q.shape}"
            )
        return np.abs(q[self.active] @ self.x) ** 2

    def power(self, p2):
        """The active bins' |p|^2 spread over all bins, (I, M, J); silent bins are zero."""
        out = np.zeros((self.n_bins,) + p2.shape[1:])
        out[self.active] = p2
        return out


def _weighted_cov(w, xx):
    """sum_j w_ij x_ij x_ij^H, (B, [S,] M, M), for real weights w (B, [S,] J)."""
    n_ch = int(round(np.sqrt(xx.shape[2])))
    u = w.reshape(w.shape[0], -1, w.shape[-1]) @ xx.view(np.float64)
    return u.view(np.complex128).reshape(w.shape[:-1] + (n_ch, n_ch))


def _mat_mul(a, b):
    """a @ b on stacks of tiny matrices, adding over the inner index in order.

    numpy's stacked matmul makes one BLAS call per matrix: several times slower.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def _check_factor(name, factor):
    if not np.isfinite(factor).all():
        raise NonFiniteError(f"update factor for {name!r} contains NaN/Inf")


def _family_sums(name, state, p2, chi):
    """(num, den) of one multiplicative family at the current state.

    p2 = |p|^2 and chi are channel-major.  One matmul gives both sums over
    the stack [p2 y^{beta/2-1} / chi^2, 1 / chi], y = sum_m p2_m / chi_m.
    """
    t, v, z = state.source.T, state.source.V, state.source.Z
    g = state.spatial.G
    n_bins, n_ch, n_frames = p2.shape
    n_bases, n_src = z.shape
    ab = np.empty((2, n_bins, n_ch, n_frames))
    np.divide(1.0, chi, out=ab[1])
    np.multiply(p2, ab[1], out=ab[0])
    y = model.sum_channels(ab[0])
    ab[0] *= (y ** (state.hyper.beta / 2.0 - 1.0))[:, None, :]
    ab[0] *= ab[1]
    if name in ("t", "v"):
        zg = g.transpose(0, 2, 1) @ z.T  # sum_n z_kn g_inm, (I, M, K)
    if name == "v":
        w = (t[:, None, :] * zg).reshape(-1, n_bases)
        return w.T @ ab.reshape(2, -1, n_frames)
    # c_imk = sum_j v_kj [a, b]_imj
    c = (ab.reshape(-1, n_frames) @ v.T).reshape(2, n_bins, n_ch, n_bases)
    if name == "t":
        return model.sum_channels(zg * c)
    if name == "z":
        tc = (t[:, None, :] * c).reshape(2, -1, n_bases)
        return (g.transpose(1, 0, 2).reshape(n_src, -1) @ tc).transpose(0, 2, 1)
    tz = t[:, None, :] * z.T[None, :, :]
    return tz @ c.transpose(0, 1, 3, 2)


def _sweep_tvzg(state, p2, chi, on_phase):
    """The t, v, z, g sweep from |p|^2 (channel-major).

    `chi` is the gain at the current state, or None to compute it; after
    the first family it is recomputed, so each family sees the latest
    state.
    """
    beta = state.hyper.beta
    eps = state.hyper.floor_eps
    expo = 2.0 / (beta + 2.0)
    arrays = {"t": state.source.T, "v": state.source.V, "z": state.source.Z,
              "g": state.spatial.G}
    for name, arr in arrays.items():
        if chi is None:
            chi = _gain(state)
        num, den = _family_sums(name, state, p2, chi)
        chi = None
        factor = (beta * num / (2.0 * den)) ** expo
        _check_factor(name, factor)
        arr *= factor
        np.maximum(arr, eps, out=arr)
        if on_phase is not None:
            on_phase(name, state)


def update_tvzg(state: model.SeparationState, X: np.ndarray, on_phase=None):
    """One multiplicative sweep over t, v, z, g for beta in [2, 4].

    Each factor is theta <- theta * (beta*num / (2*den))^{2/(beta+2)}
    with num/den the phi- and chi-weighted partner sums; chi and phi are
    recomputed before every family so each family sees the latest state.
    At beta = 2 this is theta * sqrt(num/den) with phi = |p|^2.
    """
    p2 = np.abs(model.projections(state, X)) ** 2
    _sweep_tvzg(state, p2.transpose(0, 2, 1), None, on_phase)
    return state


# ---------------------------------------------------------------------------
# diagonalizer updates


def _row_system(p2, chi, xx, q, m, beta):
    """Per-bin quantities for the sub-Gaussian update of row m.

    Takes the projection powers p2 = |p|^2 and gains chi (B, M, J), the
    frame outer products xx (B, J, M^2) and Q (B, M, M).  Returns (U, B,
    pm2, w2): the new row solves (Q B)^{-1} e_m, and pm2 = |p_m|^2
    (floored) and w2 = |p_m|^{beta-2} / r^beta feed the ray-scale step,
    with r the auxiliary radius.  Frames with zero energy are masked out
    of all sums (they contribute nothing to the objective).

    With s = sum_m |p_m|^2 / chi_m, r^beta = |p_m|^{beta-2} chi_m
    s^{1-beta/2}, so both covariance weights need one general power:
    w1 = 1 / sqrt(|p_m|^{4-beta} r^beta) = sqrt(w2 / |p_m|^2) and
    w2 = 1 / (chi_m s^{1-beta/2}).

    |p_m| is floored at a small fraction of the frame scale
    sqrt(s * chi): a frame whose row-m projection rounds to exactly zero
    otherwise degenerates the auxiliary r, and the blown-up weights drop
    out of the solve (multiplied by |p_m|^2 = 0) while still dominating
    the ray scale, which collapses the solved row and lifts the
    determinant term of the objective.  The floor keeps both sides
    consistent; the tangency slack it introduces is second order in the
    floor, far below the descent tolerance.
    """
    s = model.sum_channels(p2 / chi)
    mask = s > 0
    s_safe = np.where(mask, s, 1.0)
    cm = chi[:, m, :]
    pm2 = np.maximum(p2[:, m, :], PROJ_FLOOR**2 * s_safe * cm)
    w2 = np.where(mask, 1.0 / (cm * s_safe ** (1.0 - beta / 2.0)), 0.0)
    cov = _weighted_cov(np.stack([np.sqrt(w2 / pm2), w2]).transpose(1, 0, 2), xx)
    u = cov[:, 0]
    uq = _mat_mul(u, q[:, m, :, None].conj())
    quq = _mat_mul(q[:, m, None, :], uq)[:, 0, 0].real
    b = quq[:, None, None] * u + cov[:, 1] - uq * uq.conj().transpose(0, 2, 1)
    return u, b, pm2, w2


def _scaled_power(p2, pm2, w2, beta):
    """|p|^beta / r^beta per frame from |p|^2 and _row_system's pm2, w2."""
    return p2 * (p2 / pm2) ** (beta / 2.0 - 1.0) * w2


def row_update_terms(state: model.SeparationState, X: np.ndarray, row: int):
    """Expose (r, U, B) for one diagonalizer row at the current state."""
    beta = state.hyper.beta
    p2 = np.abs(state.spatial.Q @ X.transpose(0, 2, 1)) ** 2
    u, b, pm2, w2 = _row_system(p2, _gain(state), _outer_products(X), state.spatial.Q, row, beta)
    rb = np.divide(pm2 ** (beta / 2.0 - 1.0), w2, out=np.ones_like(w2), where=w2 > 0)
    return {"r": rb ** (1.0 / beta), "U": u, "B": b}


def _blocks(n, workers):
    workers = max(1, min(workers, n))
    bounds = np.linspace(0, n, workers + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _fan_out(one_row, n_rows, n_active, workers, state, on_phase):
    """Call one_row(m, lo, hi) over blocks of the active bins, row by row.

    Blocks run on threads when there are several; every block of a row
    finishes before the next row starts, and the first error raised by
    any block is re-raised once all of them have finished.
    """
    blocks = _blocks(n_active, workers)
    pool = ThreadPoolExecutor(max_workers=len(blocks)) if len(blocks) > 1 else None
    try:
        for m in range(n_rows):
            if pool is None:
                one_row(m, *blocks[0])
            else:
                futs = [pool.submit(one_row, m, lo, hi) for lo, hi in blocks]
                errors = [f.exception() for f in futs]
                for err in errors:
                    if err is not None:
                        raise err
            if on_phase is not None:
                on_phase(f"q_row_{m}", state)
    finally:
        if pool is not None:
            pool.shutdown()


def _solve_row(a, m, bins):
    """(a)^{-1} e_m per bin; a singular system names its frequency bin."""
    n_ch = a.shape[-1]
    rhs = np.broadcast_to(np.eye(n_ch)[m], (a.shape[0], n_ch))
    try:
        return linalg.solve(a, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"diagonalizer row {m}, frequency bin {bins[exc.index]}: {exc}", int(bins[exc.index])
        ) from exc


def _require(ok, message, m, bins):
    """Raise NonFiniteError naming the first bin where `ok` fails."""
    if not ok.all():
        idx = int(np.flatnonzero(~ok)[0])
        raise NonFiniteError(f"{message} (diagonalizer row {m}, frequency bin {bins[idx]})")


def _q_rows_subgaussian(state, cache, p2, workers=1, on_phase=None, collect=None):
    """update_q_subgaussian on cached frames; updates the projection powers p2."""
    beta = state.hyper.beta
    active = cache.active
    n_ch, n_frames = cache.x.shape[1:]
    if collect is not None:
        collect["post_scale_sum"] = np.full((cache.n_bins, n_ch), np.nan)
        collect["active"] = active
    if active.size == 0:
        return
    chi = _gain(state, active)
    q_all = state.spatial.Q

    def one_row(m, lo, hi):
        sel = active[lo:hi]
        q = q_all[sel]
        x = cache.x[lo:hi]
        u, b, pm2, w2 = _row_system(p2[lo:hi], chi[lo:hi], cache.xx[lo:hi], q, m, beta)
        # the ray-scale step below is invariant to positive rescaling of
        # the solve direction, so normalizing B per bin costs nothing and
        # keeps the systems within floating-point range
        bmax = np.abs(b).reshape(sel.size, -1).max(axis=1)
        bn = b / bmax[:, None, None] + DIAG_LOAD * np.eye(n_ch)
        qnew = _solve_row(_mat_mul(q, bn), m, sel)
        pnew2 = np.abs((qnew.conj()[:, None, :] @ x)[:, 0, :]) ** 2
        ssum = _scaled_power(pnew2, pm2, w2, beta).sum(axis=1)
        scale = (2.0 * n_frames / (beta * ssum)) ** (1.0 / beta)
        _require(np.isfinite(scale), "diagonalizer row scale is NaN/Inf", m, sel)
        q_all[sel, m, :] = (qnew * scale[:, None]).conj()
        p2[lo:hi, m, :] = pnew2 * (scale**2)[:, None]
        if collect is not None:
            post = (q_all[sel, m, None, :] @ x)[:, 0, :]
            collect["post_scale_sum"][sel, m] = _scaled_power(
                np.abs(post) ** 2, pm2, w2, beta
            ).sum(axis=1)

    _fan_out(one_row, n_ch, active.size, workers, state, on_phase)


def update_q_subgaussian(
    state: model.SeparationState,
    X: np.ndarray,
    workers: int = 1,
    collect=None,
    on_phase=None,
):
    """Row-wise diagonalizer update for beta in (2, 4].

    Each row m is re-solved from (Q_i B_im)^{-1} e_m and then rescaled
    along its ray so that sum_j |q^H x_j|^beta / r_j^beta = 2J/beta,
    which is the exact minimizer of the row surrogate.  Bins with no
    energy are left untouched.  `collect['post_scale_sum']` receives the
    recomputed post-scale sums, `collect['active']` the updated bins.
    """
    cache = FrameCache(X)
    p2 = cache.projection_powers(state.spatial.Q)
    _q_rows_subgaussian(state, cache, p2, workers, on_phase, collect)
    return state


def _q_rows_gaussian(state, cache, p2, workers=1, on_phase=None):
    """update_q_gaussian on cached frames; updates the projection powers p2."""
    active = cache.active
    n_ch, n_frames = cache.x.shape[1:]
    if active.size == 0:
        return
    chi = _gain(state, active)
    q_all = state.spatial.Q

    def one_row(m, lo, hi):
        sel = active[lo:hi]
        u = _weighted_cov(1.0 / chi[lo:hi, m, :], cache.xx[lo:hi]) / n_frames
        # solve against a per-bin-normalized, lightly loaded copy for
        # conditioning; the q^H U q normalization below uses the true U
        umax = np.abs(u).reshape(sel.size, -1).max(axis=1)
        un = u / umax[:, None, None] + DIAG_LOAD * np.eye(n_ch)
        qnew = _solve_row(_mat_mul(q_all[sel], un), m, sel)
        quq = _mat_mul(_mat_mul(qnew.conj()[:, None, :], u), qnew[:, :, None])[:, 0, 0].real
        _require(
            (quq > 0) & np.isfinite(quq), "iterative projection normalizer is not positive", m, sel
        )
        qnew = qnew / np.sqrt(quq)[:, None]
        q_all[sel, m, :] = qnew.conj()
        p2[lo:hi, m, :] = np.abs((qnew.conj()[:, None, :] @ cache.x[lo:hi])[:, 0, :]) ** 2

    _fan_out(one_row, n_ch, active.size, workers, state, on_phase)


def update_q_gaussian(
    state: model.SeparationState, X: np.ndarray, workers: int = 1, on_phase=None
):
    """Standard iterative-projection row update for the Gaussian model."""
    cache = FrameCache(X)
    _q_rows_gaussian(state, cache, cache.projection_powers(state.spatial.Q), workers, on_phase)
    return state


# ---------------------------------------------------------------------------


def normalize_and_rescale(state: model.SeparationState):
    """Push scale ambiguities into canonical positions; chi is unchanged.

    Per source: divide g by its grand mean over (bin, channel) and fold
    the factor into z.  Per basis: divide t by its column sum and fold
    the factor into v.  Both moves leave every product t*v*z*g intact.
    """
    t, v, z = state.source.T, state.source.V, state.source.Z
    g = state.spatial.G
    c_n = g.mean(axis=(0, 2))
    if not np.isfinite(c_n).all() or (c_n <= 0).any():
        raise NonFiniteError("degenerate gain normalization")
    g /= c_n[None, :, None]
    z *= c_n[None, :]
    d_k = t.sum(axis=0)
    t /= d_k[None, :]
    v *= d_k[:, None]
    state.floor()
    return state


@dataclass
class IterationReport:
    iteration: int
    cost_before: float
    cost_after: float
    phase_ms: dict


def run(
    state: model.SeparationState,
    X: np.ndarray,
    hyper: model.Hyperparams = None,
    workers: int = 1,
    on_subupdate=None,
    on_iteration=None,
):
    """Run the configured iteration count; returns (state, trace).

    `hyper` overrides state.hyper when given.  on_subupdate(name, state)
    fires after every sub-update ('t', 'v', 'z', 'g', 'q_row_<m>',
    'normalize'); on_iteration(report) after each full iteration.
    `workers` only splits the frequency axis, so results are independent
    of the worker count.  A NonFiniteError or SingularMatrixError raised
    by an iteration is re-raised as the same type, prefixed with
    "iteration N: ".
    """
    if hyper is not None:
        state.hyper = hyper
        state.validate()
    trace = objective.CostTrace()
    iters = state.hyper.iterations
    if iters == 0:
        return state, trace
    beta = state.hyper.beta
    update_q = _q_rows_gaussian if state.hyper.algorithm == "gaussian" else _q_rows_subgaussian
    cache = FrameCache(X)
    p2 = cache.projection_powers(state.spatial.Q)
    power = cache.power(p2)
    chi = _gain(state)
    cost_before = objective.jd_cost(state.spatial.Q, power, chi, beta)
    for it in range(1, iters + 1):
        phase_ms = {}
        t0 = time.perf_counter()
        try:
            _sweep_tvzg(state, power, chi, on_subupdate)
            t1 = time.perf_counter()
            phase_ms["tvzg"] = (t1 - t0) * 1000.0
            update_q(state, cache, p2, workers, on_subupdate)
            t2 = time.perf_counter()
            phase_ms["q"] = (t2 - t1) * 1000.0
            normalize_and_rescale(state)
            if on_subupdate is not None:
                on_subupdate("normalize", state)
            t3 = time.perf_counter()
            phase_ms["normalize"] = (t3 - t2) * 1000.0
            # Q is final for this iteration and normalization leaves chi
            # as the next t family would compute it: both serve the cost
            # and the next sweep
            power = cache.power(p2)
            chi = _gain(state)
            cost = objective.jd_cost(state.spatial.Q, power, chi, beta)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"iteration {it}: {exc}", exc.index) from exc
        except NonFiniteError as exc:
            raise NonFiniteError(f"iteration {it}: {exc}") from exc
        ms = (time.perf_counter() - t0) * 1000.0
        trace.append(it, cost, ms)
        if on_iteration is not None:
            on_iteration(IterationReport(it, cost_before, cost, phase_ms))
        cost_before = cost
    return state, trace
