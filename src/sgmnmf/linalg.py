"""Checked dense complex linear algebra for the optimizer.

Both routines accept a single matrix ``(M, M)`` or a stack ``(..., M, M)``
and hand the work to numpy's LAPACK gufuncs.  Before that, one shared
check rejects numerically singular matrices: A is singular when

    |det A| <= RTOL * prod_k ||a_k||        (a_k the columns of A).

By Hadamard's inequality this ratio lies in [0, 1], and rescaling a
column does not change it, so systems that are badly scaled but well
conditioned still solve.
"""

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

# Kept near machine epsilon: the row-update systems are legitimately
# ill-conditioned at near-silent bins and must still solve.
RTOL = 1e-15


def _check(a):
    """(a as complex128, log|det a|); raises SingularMatrixError."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected square matrix stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    _, logdet = np.linalg.slogdet(a)
    # entries as (row, column, ...): the reductions below then run over
    # leading axes, which numpy does much faster than over short inner ones
    mag = np.abs(np.moveaxis(a, (-2, -1), (0, 1)), order="C")
    # the ratio is compared with every column scaled to unit largest entry,
    # so neither the norms nor the determinant over- or underflow; a zero
    # column keeps scale 1 and gives 0 <= 0 without a division by zero
    scale = mag.max(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    norms = np.sqrt(((mag / scale) ** 2).sum(axis=0).prod(axis=0))
    bad = np.exp(logdet - np.log(scale).sum(axis=0)) <= RTOL * norms
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(
            f"|det| at most {RTOL:g} x the product of the column norms (batch index {idx})",
            index=idx,
        )
    return a, logdet


def solve(a, b):
    """Solve A x = b for square A (stacked); b is (..., M) or (..., M, R)."""
    a, _ = _check(a)
    b = np.asarray(b)
    vector = b.ndim == a.ndim - 1
    if b.shape[-1 if vector else -2] != a.shape[-1]:
        raise DimensionMismatchError(f"rhs shape {b.shape} does not fit matrix size {a.shape[-1]}")
    x = np.linalg.solve(a, b[..., None] if vector else b)
    return x[..., 0] if vector else x


def log_abs_det(a):
    """log|det A|, a scalar per matrix in the stack."""
    return _check(a)[1]
