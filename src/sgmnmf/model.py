"""Factorization state and derived quantities.

Index conventions follow the shape suffixes used throughout the package:
i frequency bins (I), j frames (J), k NMF bases (K), n sources (N),
m channels (M).  The source spectrogram is sigma_ijn = sum_k t_ik v_kj
z_kn; the per-channel diagonal-domain gain is chi_ijm = sum_n sigma_ijn
g_inm.  Q_i (rows are the conjugated steering directions) diagonalizes
every source's spatial covariance at frequency i simultaneously.

The public accessors return (I, J, M) arrays.  The optimizer works in
the channel-major layout (I, M, J), where every contraction over bases
or frames is one matmul and the channel sums run over contiguous rows.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, NonFiniteError

DEFAULT_FLOOR = 1e-12


@dataclass
class Hyperparams:
    beta: float = 4.0
    n_sources: int = 2
    n_bases: int = 20
    iterations: int = 200
    floor_eps: float = DEFAULT_FLOOR
    seed: int = 0
    algorithm: str = "subgaussian"

    def __post_init__(self):
        if self.algorithm not in ("subgaussian", "gaussian"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "subgaussian" and not (2.0 < self.beta <= 4.0):
            raise ValueError(f"subgaussian path requires 2 < beta <= 4, got {self.beta}")
        if self.algorithm == "gaussian" and self.beta != 2.0:
            raise ValueError(f"gaussian path fixes beta = 2, got {self.beta}")
        if self.floor_eps <= 0:
            raise ValueError("floor_eps must be positive")
        if self.n_sources < 1 or self.n_bases < 1:
            raise ValueError("n_sources and n_bases must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")


@dataclass
class SourceModel:
    """Nonnegative NMF factors: T (I, K), V (K, J), Z (K, N)."""

    T: np.ndarray
    V: np.ndarray
    Z: np.ndarray


@dataclass
class SpatialModel:
    """Per-frequency diagonalizers Q (I, M, M) and diagonal gains G (I, N, M)."""

    Q: np.ndarray
    G: np.ndarray


@dataclass
class SeparationState:
    source: SourceModel
    spatial: SpatialModel
    hyper: Hyperparams

    def __post_init__(self):
        self.validate()
        self.floor()

    @property
    def dims(self):
        """(I, J, K, N, M)."""
        i, k = self.source.T.shape
        _, j = self.source.V.shape
        _, n = self.source.Z.shape
        m = self.spatial.G.shape[2]
        return i, j, k, n, m

    def validate(self):
        t, v, z = self.source.T, self.source.V, self.source.Z
        q, g = self.spatial.Q, self.spatial.G
        if t.ndim != 2 or v.ndim != 2 or z.ndim != 2:
            raise DimensionMismatchError("T, V, Z must be 2-D")
        i, k = t.shape
        if v.shape[0] != k or z.shape[0] != k:
            raise DimensionMismatchError(
                f"basis counts disagree: T{t.shape} V{v.shape} Z{z.shape}"
            )
        n = z.shape[1]
        if g.shape[:2] != (i, n):
            raise DimensionMismatchError(f"G shape {g.shape} != ({i}, {n}, M)")
        m = g.shape[2]
        if q.shape != (i, m, m):
            raise DimensionMismatchError(f"Q shape {q.shape} != ({i}, {m}, {m})")
        if n != self.hyper.n_sources or k != self.hyper.n_bases:
            raise DimensionMismatchError(
                f"state dims (N={n}, K={k}) disagree with hyperparams "
                f"(N={self.hyper.n_sources}, K={self.hyper.n_bases})"
            )
        for arr in (t, v, z, g):
            if not np.isfinite(arr).all():
                raise NonFiniteError("nonnegative parameters contain NaN/Inf")
            if arr.min() < 0:
                raise ValueError("nonnegative parameters contain negative entries")
        if not np.isfinite(q).all():
            raise NonFiniteError("Q contains NaN/Inf")

    def floor(self):
        eps = self.hyper.floor_eps
        for arr in (self.source.T, self.source.V, self.source.Z, self.spatial.G):
            np.maximum(arr, eps, out=arr)

    def copy(self):
        return SeparationState(
            SourceModel(self.source.T.copy(), self.source.V.copy(), self.source.Z.copy()),
            SpatialModel(self.spatial.Q.copy(), self.spatial.G.copy()),
            self.hyper,
        )


def init_state(hyper: Hyperparams, n_bins: int, n_frames: int, n_channels: int) -> SeparationState:
    """Seeded initialization: T, V, Z uniform on (0.1, 1); G all-ones; Q identity."""
    rng = np.random.default_rng(hyper.seed)
    i, j, k, n, m = n_bins, n_frames, hyper.n_bases, hyper.n_sources, n_channels
    t = rng.uniform(0.1, 1.0, size=(i, k))
    v = rng.uniform(0.1, 1.0, size=(k, j))
    z = rng.uniform(0.1, 1.0, size=(k, n))
    g = np.ones((i, n, m))
    q = np.broadcast_to(np.eye(m, dtype=np.complex128), (i, m, m)).copy()
    return SeparationState(SourceModel(t, v, z), SpatialModel(q, g), hyper)


def sum_channels(x):
    """Sum over the channel axis (second to last), adding channels in order.

    Bitwise equal to ``x.sum(axis=-2)``, and faster than numpy's
    reduction over an axis this short.
    """
    out = x[..., 0, :].copy()
    for c in range(1, x.shape[-2]):
        out += x[..., c, :]
    return out


def _check_bases(t, v, z):
    if v.shape[0] != t.shape[1] or z.shape[0] != t.shape[1]:
        raise DimensionMismatchError(
            f"basis counts disagree: T{t.shape} V{v.shape} Z{z.shape}"
        )


def channel_gain(t, v, z, g):
    """chi in channel-major layout (I, M, J), one matmul over the bases.

    chi_imj = sum_k w_imk v_kj with w_imk = t_ik sum_n z_kn g_inm.  Takes
    the factor arrays so callers can pass a subset of bins.
    """
    _check_bases(t, v, z)
    w = t[:, None, :] * (g.transpose(0, 2, 1) @ z.T)
    return (w.reshape(-1, w.shape[2]) @ v).reshape(w.shape[0], w.shape[1], v.shape[1])


def compute_source_psd(source: SourceModel) -> np.ndarray:
    """sigma_ijn = sum_k t_ik v_kj z_kn, shape (I, J, N)."""
    t, v, z = source.T, source.V, source.Z
    _check_bases(t, v, z)
    tz = t[:, None, :] * z.T[None, :, :]
    sigma = (tz.reshape(-1, tz.shape[2]) @ v).reshape(t.shape[0], z.shape[1], v.shape[1])
    return sigma.transpose(0, 2, 1)


def mixture_gain(state: SeparationState) -> np.ndarray:
    """chi_ijm = sum_{k,n} t_ik v_kj z_kn g_inm, shape (I, J, M)."""
    src = state.source
    return channel_gain(src.T, src.V, src.Z, state.spatial.G).transpose(0, 2, 1)


def full_rank_scm(state: SeparationState) -> np.ndarray:
    """Reconstructed full-rank spatial covariances, shape (I, N, M, M).

    G_in = Q_i^{-1} diag(g_in.) Q_i^{-H}; each result is Hermitian PSD.
    """
    q = state.spatial.Q
    q_inv = linalg.solve(q, np.broadcast_to(np.eye(q.shape[-1]), q.shape))
    return np.einsum(
        "iab,inb,icb->inac", q_inv, state.spatial.G, q_inv.conj(), optimize=True
    )


def projections(state: SeparationState, X: np.ndarray) -> np.ndarray:
    """p_ijm = q_im^H x_ij (row m of Q_i applied to x_ij), shape (I, J, M)."""
    if X.shape[0] != state.spatial.Q.shape[0] or X.shape[2] != state.spatial.Q.shape[1]:
        raise DimensionMismatchError(
            f"spectrogram {X.shape} incompatible with Q {state.spatial.Q.shape}"
        )
    return (state.spatial.Q @ X.transpose(0, 2, 1)).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# checkpoints


def _pack(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return {
            "shape": list(arr.shape),
            "real": arr.real.ravel().tolist(),
            "imag": arr.imag.ravel().tolist(),
        }
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def _unpack(doc):
    shape = tuple(doc["shape"])
    if "real" in doc:
        arr = np.asarray(doc["real"], dtype=np.float64) + 1j * np.asarray(
            doc["imag"], dtype=np.float64
        )
        return arr.reshape(shape)
    return np.asarray(doc["data"], dtype=np.float64).reshape(shape)


def save_state(state: SeparationState, path):
    doc = {
        "format": "sgmnmf-state",
        "version": 1,
        "hyper": {
            "beta": state.hyper.beta,
            "n_sources": state.hyper.n_sources,
            "n_bases": state.hyper.n_bases,
            "iterations": state.hyper.iterations,
            "floor_eps": state.hyper.floor_eps,
            "seed": state.hyper.seed,
            "algorithm": state.hyper.algorithm,
        },
        "arrays": {
            "t": _pack(state.source.T),
            "v": _pack(state.source.V),
            "z": _pack(state.source.Z),
            "g": _pack(state.spatial.G),
            "q": _pack(state.spatial.Q),
        },
    }
    # json.dump streams through the pure-Python encoder; dumps uses the C one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_state(path) -> SeparationState:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "sgmnmf-state":
        raise ValueError(f"{path}: not a state checkpoint")
    hyper = Hyperparams(**doc["hyper"])
    arrays = doc["arrays"]
    return SeparationState(
        SourceModel(_unpack(arrays["t"]), _unpack(arrays["v"]), _unpack(arrays["z"])),
        SpatialModel(_unpack(arrays["q"]), _unpack(arrays["g"])),
        hyper,
    )
