"""Block-coordinate descent for the sub-Gaussian diagonal-domain model.

One iteration = multiplicative updates of the nonnegative factors
(t -> v -> z -> g, each an exact minimizer of the Jensen/tangent
surrogate for its block), then per-row updates of every diagonalizer
Q_i, then a scale renormalization that leaves the objective unchanged.
Every sub-update is monotone: the objective never increases.

The Gaussian model (beta = 2) runs the same multiplicative sweep, where
the general rule is the square-root rule bit for bit, and the same
diagonalizer row sweep (_q_rows); only its row rule (iterative
projection) differs.

`run` is the only driver.  It builds one working set per run
(_WorkingSet): what X alone determines (the active bins and the packed,
real frame products; X itself is read in place), the projection powers
p2 = |Q x|^2 over all bins, silent bins at zero, carried from one
sub-update to the next, and one block of memory that holds every other
per-iteration array of (bin, channel, frame) or (bin, frame) size.  The
private kernels write into that block, so an iteration allocates no
large array.  After each normalization it builds 1/chi and
y = sum_m p2_m / chi_m once, for the cost and for the next t family.
Arrays over (bin, channel, frame) use model's channel-leading layout
(M, I, J), so every channel's (bin, frame) plane is one contiguous
operand.  The optimizer runs on the calling thread: each row of the
diagonalizer sweep is one pass over the active bins.

The objective is evaluated here alone (_cost), in the diagonal domain,
and `run` records it per iteration in a CostTrace; the full-rank form
and the update rules' surrogates are test oracles in tests/oracles.py.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model
from .errors import NonFiniteError, SingularMatrixError

# row projections are floored at this fraction of the frame scale inside
# the diagonalizer update; see _row_system
PROJ_FLOOR = 1e-8
# relative diagonal load on row-update systems; near-silent bins carry
# effectively rank-1 data, leaving the solve singular at machine
# precision along a direction the objective is flat in
DIAG_LOAD = 1e-14


def _gain(state, out, bins=slice(None)):
    """chi over the given bins, channel-leading, written into out."""
    src = state.source
    return model.channel_gain(src.T[bins], src.V, src.Z, state.spatial.G[bins], out)


def _packed_products(x):
    """The frame products x_ij x_ij^H of x (B, J, M), packed real as (B, J, M^2).

    Per frame: the M powers |x_m|^2, then the real and then the
    imaginary parts of the M(M-1)/2 upper entries x_a conj(x_b), a < b,
    in np.triu_indices order.
    """
    n_ch = x.shape[-1]
    upper = np.triu_indices(n_ch, 1)
    n_pairs = upper[0].size
    xx = np.empty(x.shape[:2] + (n_ch * n_ch,))
    for c in range(n_ch):
        xx[..., c] = (x[..., c] * x[..., c].conj()).real
    for k, (a, b) in enumerate(zip(*upper)):
        prod = x[..., a] * x[..., b].conj()
        xx[..., n_ch + k] = prod.real
        xx[..., n_ch + n_pairs + k] = prod.imag
    return xx


class _WorkingSet:
    """Every array a run works in, built once by run from X and Q.

    What X determines:
    active: bins with a nonzero frame (silent bins keep their Q_i);
    bins: the same bins as a slice when every bin is active, so that
    indexing with it makes views, not copies;
    x: X at the active bins, (A, J, M): X itself, read in place, when
    every bin is active;
    xx: the frame products of x packed real (see _packed_products),
    (A, J, M^2) float64, so each weighted covariance sum_j w_j x_j x_j^H
    is one real matmul and comes out exactly Hermitian.

    p2: the projection powers |Q x|^2 over all bins, (M, I, J), silent
    bins at zero, carried from one sub-update to the next.

    One float64 block holds every other per-iteration array:
    y, y_pow (I, J) at its start and ab, the _chi_weights stack
    (2, M, I, J), at its end.  Each chi is built in ab[1] and inverted
    there in place.  The row sweep's arrays over the active bins lie at
    the start, over y, y_pow and ab[0], which are dead from the end of
    the g family to the next cost: s, w (2, A, J) and pm2 (A, J) for
    _row_system, and p (A, J, 1) complex, over s and w[0], for the
    projections of a solved row.  inv_chi, the sweep's 1/chi at the
    active bins (M, A, J), is the tail of ab[1].  When some bin is
    silent, q and p2_act take Q and p2 gathered at the active bins.
    """

    def __init__(self, X: np.ndarray, Q: np.ndarray):
        X = np.asarray(X, dtype=np.complex128)
        n_bins, n_frames, n_ch = X.shape
        self.active = np.flatnonzero(np.abs(X).max(axis=(1, 2)) > 0)
        n_active = self.active.size
        self.bins = slice(None) if n_active == n_bins else self.active
        self.x = X[self.bins]
        self.xx = _packed_products(self.x)
        # the complex projections die in this statement, before the block
        self.p2 = np.zeros((n_ch, n_bins, n_frames))
        self.p2[:, self.bins] = np.abs(
            (Q[self.bins] @ self.x.transpose(0, 2, 1)).transpose(1, 0, 2)
        ) ** 2
        # the row arrays (4 A planes) and inv_chi (M A planes) must not
        # meet, which takes one plane more than y, y_pow and ab only at M = 1
        plane, act = n_bins * n_frames, n_active * n_frames
        block = np.empty(max(2 * n_ch + 2, n_ch + 4) * plane)
        end = block.size
        self.y = block[:plane].reshape(n_bins, n_frames)
        self.y_pow = block[plane : 2 * plane].reshape(n_bins, n_frames)
        self.ab = block[end - 2 * n_ch * plane :].reshape(2, n_ch, n_bins, n_frames)
        self.s = block[:act].reshape(n_active, n_frames)
        self.w = block[act : 3 * act].reshape(2, n_active, n_frames)
        self.pm2 = block[3 * act : 4 * act].reshape(n_active, n_frames)
        self.p = block[: 2 * act].view(np.complex128).reshape(n_active, n_frames, 1)
        # end - size, not -size: with no active bin, block[-0:] is the whole block
        self.inv_chi = block[end - n_ch * act :].reshape(n_ch, n_active, n_frames)
        if n_active < n_bins:
            self.q = np.empty((n_active, n_ch, n_ch), dtype=np.complex128)
            self.p2_act = np.empty((n_ch, n_active, n_frames))


def _weighted_cov(w, xx):
    """sum_j w_ij x_ij x_ij^H, (B, [S,] M, M), for real weights w (B, [S,] J).

    xx holds the packed frame products; the result is exactly Hermitian,
    with a real diagonal.
    """
    n_ch = int(round(np.sqrt(xx.shape[2])))
    a, b = np.triu_indices(n_ch, 1)
    diag = np.arange(n_ch)
    u = w.reshape(w.shape[0], -1, w.shape[-1]) @ xx
    re, im = u[..., n_ch : n_ch + a.size], u[..., n_ch + a.size :]
    cov = np.empty(u.shape[:2] + (n_ch, n_ch), dtype=np.complex128)
    cov.real[..., diag, diag] = u[..., :n_ch]
    cov.imag[..., diag, diag] = 0.0
    cov.real[..., a, b] = re
    cov.imag[..., a, b] = im
    cov.real[..., b, a] = re
    cov.imag[..., b, a] = -im
    return cov.reshape(w.shape[:-1] + (n_ch, n_ch))


def _mat_mul(a, b):
    """a @ b on stacks of tiny matrices, adding over the inner index in order.

    numpy's stacked matmul makes one BLAS call per matrix: several times slower.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


# what each axis of a family's update factor indexes, for error messages;
# t is (bin, basis) and g (bin, source, channel), so the bin locates them
_FACTOR_AXES = {
    "t": ("frequency bin",),
    "v": ("basis", "frame"),
    "z": ("basis", "source"),
    "g": ("frequency bin",),
}


def _check_factor(name, factor):
    """Raise NonFiniteError naming the first non-finite entry of the factor."""
    if not np.isfinite(factor).all():
        idx = np.unravel_index(np.flatnonzero(~np.isfinite(factor))[0], factor.shape)
        where = ", ".join(f"{axis} {i}" for axis, i in zip(_FACTOR_AXES[name], idx))
        raise NonFiniteError(f"update factor for {name!r} contains NaN/Inf at {where}")


def _chi_weights(p2, chi, ab):
    """[p2 / chi, 1 / chi] into ab, a (2, M, I, J) buffer.

    p2 = |p|^2 and chi are channel-leading; p2 / chi is formed as p2 * (1 / chi).
    chi may be ab[1] itself, which is then inverted in place.  A caller
    that needs y = sum_m p2_m / chi_m takes model.sum_channels(ab[0], y)
    before _family_sums overwrites the buffer.
    """
    np.divide(1.0, chi, out=ab[1])
    np.multiply(p2, ab[1], out=ab[0])
    return ab


def _family_sums(name, state, ab, y):
    """(num, den) of one multiplicative family at the current state.

    Takes _chi_weights at the current state and overwrites its buffer:
    one matmul gives both sums over the stack [p2 y^{beta/2-1} / chi^2,
    1 / chi].  y is read, and overwritten with y^{beta/2-1}, only when
    beta != 2.
    """
    t, v, z = state.source.T, state.source.V, state.source.Z
    g = state.spatial.G
    _, n_ch, n_bins, n_frames = ab.shape
    n_bases, n_src = z.shape
    # y^0 = 1 exactly, so the Gaussian model skips the power
    if state.hyper.beta != 2.0:
        ab[0] *= model._power(y, state.hyper.beta / 2.0 - 1.0, y)[None]
    ab[0] *= ab[1]
    if name in ("t", "v"):
        zg = g.transpose(2, 0, 1) @ z.T  # sum_n z_kn g_inm, (M, I, K)
    if name == "v":
        w = (t[None] * zg).reshape(-1, n_bases)
        return w.T @ ab.reshape(2, -1, n_frames)
    # c_mik = sum_j v_kj [a, b]_mij
    c = (ab.reshape(-1, n_frames) @ v.T).reshape(2, n_ch, n_bins, n_bases)
    if name == "t":
        return model.sum_channels((zg * c).swapaxes(0, 1), np.empty((2, n_bins, n_bases)))
    if name == "z":
        tc = (t[None] * c).reshape(2, -1, n_bases)
        return (g.transpose(1, 2, 0).reshape(n_src, -1) @ tc).transpose(0, 2, 1)
    tz = t[:, None, :] * z.T[None, :, :]
    return tz @ c.transpose(0, 2, 3, 1)


def _sweep_tvzg(state, ws, on_phase):
    """The t, v, z, g sweep from the projection powers ws.p2, (M, I, J).

    Each factor is theta * (beta*num / (2*den))^{2/(beta+2)}.  The first
    family reads the _chi_weights and y that _cost left in ws; every
    later family builds its own from the latest state, and y only when
    beta != 2.
    """
    beta = state.hyper.beta
    eps = state.hyper.floor_eps
    expo = 2.0 / (beta + 2.0)
    arrays = {"t": state.source.T, "v": state.source.V, "z": state.source.Z,
              "g": state.spatial.G}
    for name, arr in arrays.items():
        if name != "t":
            _chi_weights(ws.p2, _gain(state, ws.ab[1]), ws.ab)
            if beta != 2.0:
                model.sum_channels(ws.ab[0], ws.y)
        num, den = _family_sums(name, state, ws.ab, ws.y)
        factor = (beta * num / (2.0 * den)) ** expo
        _check_factor(name, factor)
        arr *= factor
        np.maximum(arr, eps, out=arr)
        if on_phase is not None:
            on_phase(name, state)


# ---------------------------------------------------------------------------
# diagonalizer updates


def _row_system(ws, q, p2, m, beta):
    """Per-bin quantities for the sub-Gaussian update of row m.

    Takes Q (A, M, M) and the projection powers p2 = |p|^2 (M, A, J) at
    the active bins, and reads ws.inv_chi and ws.xx.  Returns (U, B, pm2,
    w2): the new row solves (Q B)^{-1} e_m, and pm2 = |p_m|^2 (floored)
    and w2 = |p_m|^{beta-2} / r^beta, views of ws.pm2 and ws.w, feed the
    ray-scale step, with r the auxiliary radius.  Frames with zero energy
    are masked out of all sums (they contribute nothing to the objective).

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
    s, pm2, inv_chi = ws.s, ws.pm2, ws.inv_chi
    # s channel by channel, in model.sum_channels' order
    np.multiply(p2[0], inv_chi[0], out=s)
    for c in range(1, p2.shape[0]):
        s += np.multiply(p2[c], inv_chi[c], out=pm2)
    silent = ~(s > 0)
    np.copyto(s, 1.0, where=silent)
    icm = inv_chi[m]
    np.multiply(PROJ_FLOOR**2, s, out=pm2)
    np.divide(pm2, icm, out=pm2)
    np.maximum(p2[m], pm2, out=pm2)
    # the covariance weights [w1, w2], so one matmul takes both
    w1, w2 = ws.w
    np.divide(icm, model._power(s, 1.0 - beta / 2.0, w1), out=w2)
    np.copyto(w2, 0.0, where=silent)
    np.divide(w2, pm2, out=w1)
    np.sqrt(w1, out=w1)
    cov = _weighted_cov(ws.w.transpose(1, 0, 2), ws.xx)
    u = cov[:, 0]
    uq = _mat_mul(u, q[:, m, :, None].conj())
    quq = _mat_mul(q[:, m, None, :], uq)[:, 0, 0].real
    b = quq[:, None, None] * u + cov[:, 1] - uq * uq.conj().transpose(0, 2, 1)
    return u, b, pm2, w2


def _scaled_power(p2, pm2, w2, beta, out):
    """|p|^beta / r^beta per frame, into out, from |p|^2 and _row_system's pm2, w2."""
    np.divide(p2, pm2, out=out)
    model._power(out, beta / 2.0 - 1.0, out)
    np.multiply(p2, out, out=out)
    out *= w2
    return out


def _row_power(row, x, p, out):
    """|row . x_j|^2 per frame into out (A, J), through p (A, J, 1) complex."""
    np.matmul(x, row[:, :, None], out=p)
    np.abs(p[:, :, 0], out=out)
    return np.square(out, out=out)


def _require(ok, message, m, bins):
    """Raise NonFiniteError naming the first bin where `ok` fails."""
    if not ok.all():
        idx = int(np.flatnonzero(~ok)[0])
        raise NonFiniteError(f"{message} (diagonalizer row {m}, frequency bin {bins[idx]})")


def _solve_row(q, a, m, bins):
    """(Q A)^{-1} e_m per bin; a singular system names its frequency bin.

    Both rules fix the solved row's scale afterwards, so each A is scaled
    to a largest entry of 1 at no cost, which keeps the systems within
    floating-point range, and then loaded with DIAG_LOAD.
    """
    n_ch = a.shape[-1]
    amax = np.abs(a).reshape(a.shape[0], -1).max(axis=1)
    an = a / amax[:, None, None] + DIAG_LOAD * np.eye(n_ch)
    rhs = np.broadcast_to(np.eye(n_ch)[m], (a.shape[0], n_ch))
    try:
        return linalg.solve(_mat_mul(q, an), rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"diagonalizer row {m}, frequency bin {bins[exc.index]}: {exc}", int(bins[exc.index])
        ) from exc


# Each row rule takes the run's _WorkingSet, Q (A, M, M) and p2 = |Q x|^2
# (M, A, J) at the active bins, the row m and beta.  It returns the new
# row m of Q, (A, M), and writes its |q^H x|^2 into p2[m].


def _subgaussian_row(ws, q, p2, m, beta):
    """Auxiliary-function update of row m for beta in (2, 4].

    The row is re-solved from (Q_i B_im)^{-1} e_m and then rescaled along
    its ray so that sum_j |q^H x_j|^beta / r_j^beta = 2J/beta, which is
    the exact minimizer of the row surrogate.
    """
    _, b, pm2, w2 = _row_system(ws, q, p2, m, beta)
    qnew = _solve_row(q, b, m, ws.active)
    pnew2 = _row_power(qnew.conj(), ws.x, ws.p, p2[m])
    ssum = _scaled_power(pnew2, pm2, w2, beta, ws.s).sum(axis=1)
    scale = (2.0 * ws.x.shape[1] / (beta * ssum)) ** (1.0 / beta)
    _require(np.isfinite(scale), "diagonalizer row scale is NaN/Inf", m, ws.active)
    pnew2 *= (scale**2)[:, None]
    return (qnew * scale[:, None]).conj()


def _gaussian_row(ws, q, p2, m, beta):
    """Iterative projection of row m for the Gaussian model.

    The row solves (Q_i U_im)^{-1} e_m, U_im = (1/J) sum_j x_j x_j^H /
    chi_imj, and is normalized to q^H U q = 1 against the true U.
    """
    u = _weighted_cov(ws.inv_chi[m], ws.xx) / ws.x.shape[1]
    qnew = _solve_row(q, u, m, ws.active)
    quq = _mat_mul(_mat_mul(qnew.conj()[:, None, :], u), qnew[:, :, None])[:, 0, 0].real
    ok = (quq > 0) & np.isfinite(quq)
    _require(ok, "iterative projection normalizer is not positive", m, ws.active)
    row = (qnew / np.sqrt(quq)[:, None]).conj()
    _row_power(row, ws.x, ws.p, p2[m])
    return row


_ROW_RULES = {"subgaussian": _subgaussian_row, "gaussian": _gaussian_row}


def _q_rows(state, ws, on_phase=None):
    """One sweep over the rows of every active Q_i; updates ws.p2 in place.

    The row rule is the one of state.hyper.algorithm; it reads and
    writes Q and p2 (M, I, J) at the active bins only, in one pass per
    row.  1/chi at the active bins is built once, in ws.inv_chi.  When
    every bin is active the rule reads and writes Q and p2 themselves;
    otherwise it works on their active bins gathered into ws.q and
    ws.p2_act, and each solved row is written back into Q and p2 at once.
    on_phase(f"q_row_{m}", state) fires after each row.
    """
    active = ws.active
    if active.size == 0:
        return
    rule = _ROW_RULES[state.hyper.algorithm]
    q_all, p2_all = state.spatial.Q, ws.p2
    gather = not isinstance(ws.bins, slice)
    q, p2 = q_all, p2_all
    if gather:
        # mode="clip" writes straight into a contiguous out; the indices are valid
        q = np.take(q_all, active, axis=0, out=ws.q, mode="clip")
        p2 = ws.p2_act
        for c in range(p2.shape[0]):
            np.take(p2_all[c], active, axis=0, out=p2[c], mode="clip")
    # chi is fixed during the sweep: every row of both rules reads 1/chi
    np.divide(1.0, _gain(state, ws.inv_chi, ws.bins), out=ws.inv_chi)
    for m in range(q.shape[1]):
        q[:, m, :] = rule(ws, q, p2, m, state.hyper.beta)
        if gather:
            q_all[active, m, :] = q[:, m, :]
            p2_all[m, active] = p2[m]
        if on_phase is not None:
            on_phase(f"q_row_{m}", state)


# ---------------------------------------------------------------------------


def _normalize(state: model.SeparationState):
    """Push scale ambiguities into canonical positions; chi is unchanged.

    Per source: divide g by its grand mean over (bin, channel) and fold
    the factor into z.  Per basis: divide t by its column sum and fold
    the factor into v.  Both moves leave every product t*v*z*g intact.
    """
    t, v, z = state.source.T, state.source.V, state.source.Z
    g = state.spatial.G
    c_n = g.mean(axis=(0, 2))
    bad = ~np.isfinite(c_n) | (c_n <= 0)
    if bad.any():
        raise NonFiniteError(
            f"degenerate gain normalization at source {int(np.flatnonzero(bad)[0])}"
        )
    g /= c_n[None, :, None]
    z *= c_n[None, :]
    d_k = t.sum(axis=0)
    t /= d_k[None, :]
    v *= d_k[:, None]
    state.floor()
    return state


def _cost(state, ws):
    """The objective at the state from the projection powers ws.p2, (M, I, J).

    -2J sum_i log|det Q_i| + sum_ijm log chi_ijm
    + sum_ij (sum_m |p_ijm|^2 / chi_ijm)^{beta/2}

    Q is final for the iteration and the state is normalized, so the
    _chi_weights and y it leaves in ws are what the next t family
    would build (see _sweep_tvzg).  The gains chi are built after
    normalization, whose floor can change them; sum log chi is taken,
    through ab[0], before chi is inverted in ab[1].  Errors are prefixed
    with "cost", and a singular Q_i names its frequency bin.
    """
    chi = _gain(state, ws.ab[1])
    log_chi_sum = np.sum(np.log(chi, out=ws.ab[0]))
    _chi_weights(ws.p2, chi, ws.ab)
    y = model.sum_channels(ws.ab[0], ws.y)
    try:
        det_term = -2.0 * y.shape[1] * np.sum(linalg.log_abs_det(state.spatial.Q))
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"cost, frequency bin {exc.index}: {exc}", exc.index) from exc
    val = det_term + log_chi_sum + np.sum(model._power(y, state.hyper.beta / 2.0, ws.y_pow))
    if not math.isfinite(val):
        raise NonFiniteError("cost: objective evaluated to NaN/Inf")
    return float(val)


@dataclass
class IterationReport:
    iteration: int
    cost_before: float
    cost_after: float


@dataclass
class TracePoint:
    iteration: int
    cost: float
    ms: float = 0.0


@dataclass
class CostTrace:
    """The cost after each iteration of a run; write_csv writes trace.csv."""

    points: list = field(default_factory=list)

    def append(self, iteration: int, cost: float, ms: float = 0.0):
        if self.points and iteration <= self.points[-1].iteration:
            raise ValueError(
                f"iterations must increase: {iteration} after {self.points[-1].iteration}"
            )
        self.points.append(TracePoint(int(iteration), float(cost), float(ms)))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "cost", "ms"])
            for p in self.points:
                writer.writerow([p.iteration, repr(p.cost), f"{p.ms:.3f}"])


def run(
    state: model.SeparationState,
    X: np.ndarray,
    workers: int = 1,
    on_subupdate=None,
    on_iteration=None,
):
    """Run state.hyper.iterations iterations; returns (state, trace).

    on_subupdate(name, state) fires after every sub-update ('t', 'v',
    'z', 'g', 'q_row_<m>', 'normalize'); on_iteration(report) after
    each full iteration.  The trace's ms is one clock per iteration,
    callbacks included.  `workers` is accepted for compatibility and
    ignored.  X must match the state's shape (model.check_spectrogram)
    and have only finite entries (NonFiniteError naming the first bad
    one otherwise).
    A NonFiniteError or SingularMatrixError raised by an iteration is
    re-raised as the same type, prefixed with "iteration N: ", where
    iteration 0 is the cost of the initial state.
    """
    model.check_spectrogram(state, X)
    # the (I, J, M) mask lives only for the check, not through the run
    if not np.isfinite(X).all():
        i, j, m = np.unravel_index(np.flatnonzero(~np.isfinite(X))[0], X.shape)
        raise NonFiniteError(
            f"spectrogram contains NaN/Inf at frequency bin {i}, frame {j}, channel {m}"
        )
    trace = CostTrace()
    iters = state.hyper.iterations
    if iters == 0:
        return state, trace
    ws = _WorkingSet(X, state.spatial.Q)
    it = 0
    try:
        cost_before = _cost(state, ws)
        for it in range(1, iters + 1):
            t0 = time.perf_counter()
            _sweep_tvzg(state, ws, on_subupdate)
            _q_rows(state, ws, on_subupdate)
            _normalize(state)
            if on_subupdate is not None:
                on_subupdate("normalize", state)
            cost = _cost(state, ws)
            trace.append(it, cost, (time.perf_counter() - t0) * 1000.0)
            if on_iteration is not None:
                on_iteration(IterationReport(it, cost_before, cost))
            cost_before = cost
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"iteration {it}: {exc}", exc.index) from exc
    except NonFiniteError as exc:
        raise NonFiniteError(f"iteration {it}: {exc}") from exc
    return state, trace
