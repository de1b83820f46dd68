"""Small dense complex linear algebra for the optimizer.

All routines accept a single matrix ``(M, M)`` or a stack ``(..., M, M)``
and are vectorized over the leading dimensions; only the factorization
steps loop over M, which stays small (channel count, <= 8 or so).
LU with partial pivoting is used throughout so that singularity is
detected by a relative pivot threshold and log|det| comes straight from
the pivots.
"""

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

# Pivot magnitudes below PIVOT_RTOL * max|A| are treated as singular.
# Kept near machine epsilon: the row-update systems are legitimately
# ill-conditioned at near-silent bins and must still solve.
PIVOT_RTOL = 1e-15


def _as_square_stack(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected square matrix stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def lu_factor(a):
    """Batched LU with partial pivoting.

    Returns (lu, piv) where lu holds L (unit diagonal, below) and U
    (on and above the diagonal) and piv[..., k] is the row swapped
    into position k at step k.
    """
    a = _as_square_stack(a)
    batch_shape = a.shape[:-2]
    m = a.shape[-1]
    lu = a.reshape(-1, m, m).copy()
    nb = lu.shape[0]
    piv = np.empty((nb, m), dtype=np.intp)
    scale = np.abs(lu).reshape(nb, -1).max(axis=1)
    thresh = PIVOT_RTOL * scale
    rows = np.arange(nb)
    for k in range(m):
        p = np.abs(lu[:, k:, k]).argmax(axis=1) + k
        pivmag = np.abs(lu[rows, p, k])
        bad = pivmag <= thresh
        if bad.any():
            idx = int(np.flatnonzero(bad)[0])
            raise SingularMatrixError(
                f"pivot {pivmag[idx]:.3e} below threshold {thresh[idx]:.3e} "
                f"at step {k} (batch index {idx})",
                index=idx,
            )
        swap = p != k
        if swap.any():
            tmp = lu[rows, k].copy()
            lu[rows, k] = lu[rows, p]
            lu[rows, p] = tmp
        piv[:, k] = p
        lu[:, k + 1 :, k] /= lu[:, k, k][:, None]
        lu[:, k + 1 :, k + 1 :] -= lu[:, k + 1 :, k, None] * lu[:, k, None, k + 1 :]
    return lu.reshape(*batch_shape, m, m), piv.reshape(*batch_shape, m)


def lu_solve(lu, piv, b):
    """Solve A x = b given lu_factor output; b has shape (..., M) or (..., M, R)."""
    m = lu.shape[-1]
    vector = b.ndim == lu.ndim - 1
    x = np.asarray(b, dtype=np.complex128)
    if vector:
        x = x[..., None]
    if x.shape[-2] != m:
        raise DimensionMismatchError(f"rhs rows {x.shape[-2]} != matrix size {m}")
    batch_shape = np.broadcast_shapes(lu.shape[:-2], x.shape[:-2])
    lu = np.broadcast_to(lu, batch_shape + (m, m)).reshape(-1, m, m)
    piv = np.broadcast_to(piv, batch_shape + (m,)).reshape(-1, m)
    x = np.broadcast_to(x, batch_shape + x.shape[-2:]).reshape(-1, m, x.shape[-1]).copy()
    rows = np.arange(lu.shape[0])
    for k in range(m):
        p = piv[:, k]
        swap = p != k
        if swap.any():
            tmp = x[rows, k].copy()
            x[rows, k] = x[rows, p]
            x[rows, p] = tmp
    for k in range(1, m):
        x[:, k] -= np.einsum("bj,bjr->br", lu[:, k, :k], x[:, :k])
    for k in range(m - 1, -1, -1):
        if k < m - 1:
            x[:, k] -= np.einsum("bj,bjr->br", lu[:, k, k + 1 :], x[:, k + 1 :])
        x[:, k] /= lu[:, k, k][:, None]
    x = x.reshape(*batch_shape, m, -1)
    return x[..., 0] if vector else x


def solve(a, b):
    """Solve A x = b for square A (stacked); raises SingularMatrixError."""
    lu, piv = lu_factor(a)
    return lu_solve(lu, piv, b)


def invert(a):
    """Inverse of a (stacked) square complex matrix via LU."""
    a = _as_square_stack(a)
    m = a.shape[-1]
    lu, piv = lu_factor(a)
    eye = np.broadcast_to(np.eye(m, dtype=np.complex128), a.shape)
    return lu_solve(lu, piv, eye)


def log_abs_det(a):
    """log|det A| from the LU pivots; scalar per matrix in the stack."""
    lu, _ = lu_factor(a)
    return np.log(np.abs(np.diagonal(lu, axis1=-2, axis2=-1))).sum(axis=-1)


def hermitian_form(q, x):
    """Squared modulus |q^H x|^2 of the inner product of two vectors."""
    q = np.asarray(q, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if q.shape != x.shape or q.ndim != 1:
        raise DimensionMismatchError(f"vector shapes differ: {q.shape} vs {x.shape}")
    return float(np.abs(np.vdot(q, x)) ** 2)
