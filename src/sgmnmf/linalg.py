"""Checked dense complex linear algebra for the optimizer.

Every routine accepts a single matrix ``(M, M)`` or a stack ``(..., M, M)``.
One shared check rejects numerically singular matrices, and singular_mask
exposes it as a mask: A is singular when

    |det A| <= RTOL * prod_k ||a_k||        (a_k the columns of A).

By Hadamard's inequality this ratio lies in [0, 1], and rescaling a
column does not change it, so systems that are badly scaled but well
conditioned still solve.  The check is made with every column scaled to
a unit largest entry, so neither the norms nor the determinant over- or
underflow.

At M = 2 (the operating point) the solution and det A come in closed
form from one set of cofactor products of those scaled columns, which
also give the check its determinant.  Other sizes hand the work to
numpy's LAPACK gufuncs (slogdet for the check, then solve).
"""

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

# Kept near machine epsilon: the row-update systems are legitimately
# ill-conditioned at near-silent bins and must still solve.
RTOL = 1e-15


def _validated(a):
    """a as a complex128 stack of square, finite matrices."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected square matrix stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _scaled_columns(a):
    """(entries, squared column norms, 1 / column scales) of a, each column
    scaled to a unit largest entry.

    Entries come as (row, column, ...), norms and scales as (column, ...):
    with the batch axes last, the reductions run over leading axes, which
    numpy does much faster than over short inner ones.  The scale is
    floored at the smallest normal number, so its reciprocal stays finite
    for subnormal columns and a zero column gives the check 0 <= 0.
    """
    e = np.moveaxis(a, (-2, -1), (0, 1)).copy()
    mag = np.abs(e)
    inv_scale = mag.max(axis=0)
    np.maximum(inv_scale, np.finfo(np.float64).tiny, out=inv_scale)
    np.divide(1.0, inv_scale, out=inv_scale)
    e *= inv_scale
    mag *= inv_scale
    mag *= mag
    return e, mag.sum(axis=0), inv_scale


def _fails_ratio(abs_det, norms2):
    """The check as a mask: True where |det| <= RTOL x the product of the column norms.

    abs_det is |det| of the column-scaled matrices and norms2 their
    squared column norms, (M, ...).
    """
    return abs_det <= RTOL * np.sqrt(norms2.prod(axis=0))


def _require_regular(bad):
    """Raise SingularMatrixError at the first matrix the mask `bad` marks."""
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(
            f"|det| at most {RTOL:g} x the product of the column norms (batch index {idx})",
            index=idx,
        )


def _factor_2x2(a):
    """(scaled entries (2, 2, ...), their det, 1 / column scales (2, ...), singular mask)."""
    e, norms2, inv_scale = _scaled_columns(a)
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    return e, det, inv_scale, _fails_ratio(np.abs(det), norms2)


def _slogdet(a):
    """(log|det a| from LAPACK, singular mask), for any size."""
    _, logdet = np.linalg.slogdet(a)
    _, norms2, inv_scale = _scaled_columns(a)
    return logdet, _fails_ratio(np.exp(logdet + np.log(inv_scale).sum(axis=0)), norms2)


def singular_mask(a):
    """True for each matrix of the stack that the singularity check rejects."""
    a = _validated(a)
    if a.shape[-1] == 2:
        return _factor_2x2(a)[3]
    return _slogdet(a)[1]


def solve(a, b):
    """Solve A x = b for square A (stacked); b is (..., M) or (..., M, R)."""
    a = _validated(a)
    b = np.asarray(b)
    vector = b.ndim == a.ndim - 1
    if b.shape[-1 if vector else -2] != a.shape[-1]:
        raise DimensionMismatchError(f"rhs shape {b.shape} does not fit matrix size {a.shape[-1]}")
    bm = b[..., None] if vector else b
    if a.shape[-1] == 2:
        # A = E diag(s): x = diag(1/s) adj(E) b / det E, per right-hand column
        e, det, inv_scale, bad = _factor_2x2(a)
        _require_regular(bad)
        e = e[..., None]
        c = (inv_scale / det)[..., None]
        b0, b1 = bm[..., 0, :], bm[..., 1, :]
        x0 = (e[1, 1] * b0 - e[0, 1] * b1) * c[0]
        x = np.stack([x0, (e[0, 0] * b1 - e[1, 0] * b0) * c[1]], axis=-2)
    else:
        _require_regular(_slogdet(a)[1])
        x = np.linalg.solve(a, bm)
    return x[..., 0] if vector else x


def log_abs_det(a):
    """log|det A|, a scalar per matrix in the stack."""
    a = _validated(a)
    if a.shape[-1] == 2:
        _, det, inv_scale, bad = _factor_2x2(a)
        _require_regular(bad)
        return np.log(np.abs(det)) - np.log(inv_scale).sum(axis=0)
    logdet, bad = _slogdet(a)
    _require_regular(bad)
    return logdet
