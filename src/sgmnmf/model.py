"""Factorization state and derived quantities.

Index conventions follow the shape suffixes used throughout the package:
i frequency bins (I), j frames (J), k NMF bases (K), n sources (N),
m channels (M).  The source spectrogram is sigma_ijn = sum_k t_ik v_kj
z_kn; the per-channel diagonal-domain gain is chi_ijm = sum_n sigma_ijn
g_inm.  Q_i (rows are the conjugated steering directions) diagonalizes
every source's spatial covariance at frequency i simultaneously.

The public accessors return (I, J, M) arrays.  The optimizer works in
the channel-leading layout (M, I, J), where every contraction over bases
or frames is one matmul and each channel's (I, J) plane is contiguous.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteError, check_min

ALGORITHMS = ("subgaussian", "gaussian")


@dataclass
class Hyperparams:
    beta: float = None  # 2.0 for the gaussian algorithm, else 4.0
    n_sources: int = 2
    n_bases: int = 20
    iterations: int = 200
    floor_eps: float = 1e-12
    seed: int = 0
    algorithm: str = "subgaussian"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                "algorithm", f"must be one of {sorted(ALGORITHMS)}, got {self.algorithm!r}"
            )
        if self.beta is None:
            self.beta = 2.0 if self.algorithm == "gaussian" else 4.0
        if self.algorithm == "subgaussian" and not (2.0 < self.beta <= 4.0):
            raise ConfigError("beta", f"subgaussian path requires 2 < beta <= 4, got {self.beta}")
        if self.algorithm == "gaussian" and self.beta != 2.0:
            raise ConfigError("beta", f"gaussian path fixes beta = 2, got {self.beta}")
        check_min(self, ("n_sources", "n_bases"), 1)
        check_min(self, ("iterations", "seed"), 0)
        if not 0 < self.floor_eps < np.inf:
            raise ConfigError("floor_eps", f"must be positive and finite, got {self.floor_eps}")


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
        _check_bases(t, v, z)
        i, k = t.shape
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
    """Seeded initialization: T, V, Z uniform on (0.1, 1); G all-ones; Q identity.

    ConfigError names n_bases or n_sources when a state array would hold
    more elements than np.intp indexes.
    """
    i, j, k, n, m = n_bins, n_frames, hyper.n_bases, hyper.n_sources, n_channels
    # the largest array each count sizes: T (I, K) or V (K, J) for K, G (I, N, M)
    # for N, and Z (K, N) for the larger of the two
    for name, count, size in (("n_bases", k, k * max(i, j, min(k, n))),
                              ("n_sources", n, n * max(i * m, min(k, n)))):
        if size > np.iinfo(np.intp).max:
            raise ConfigError(
                name, f"{count} makes a state array of {size} elements, more than an array holds"
            )
    rng = np.random.default_rng(hyper.seed)
    t = rng.uniform(0.1, 1.0, size=(i, k))
    v = rng.uniform(0.1, 1.0, size=(k, j))
    z = rng.uniform(0.1, 1.0, size=(k, n))
    g = np.ones((i, n, m))
    q = np.broadcast_to(np.eye(m, dtype=np.complex128), (i, m, m)).copy()
    return SeparationState(SourceModel(t, v, z), SpatialModel(q, g), hyper)


def sum_channels(x, out):
    """Sum over the channel axis (the leading one) into out, adding channels in order.

    Bitwise equal to ``x.sum(axis=0)``, and faster than numpy's
    reduction over an axis this short.
    """
    np.copyto(out, x[0])
    for c in range(1, x.shape[0]):
        out += x[c]
    return out


def _power(x, e, out):
    """x ** e into out, bitwise equal to ``np.power(x, e, out=out)``.

    An exponent with an exact, faster numpy kernel uses it: 1 is a copy
    (nothing when out is x), 2 np.square, 0.5 np.sqrt and -1 a division.
    Every other exponent goes to np.power.
    """
    if e == 1.0:
        if out is not x:
            np.copyto(out, x)
        return out
    if e == 2.0:
        return np.square(x, out=out)
    if e == 0.5:
        return np.sqrt(x, out=out)
    if e == -1.0:
        return np.divide(1.0, x, out=out)
    return np.power(x, e, out=out)


def check_spectrogram(state: SeparationState, X: np.ndarray):
    """Raise DimensionMismatchError unless X is (I, J, M) for the state's I, J and M.

    The message names the first axis that disagrees.
    """
    axes = ("bins", "frames", "channels")
    if X.ndim != 3:
        raise DimensionMismatchError(
            f"spectrogram {X.shape} has {X.ndim} axes; the state needs 3 ({', '.join(axes)})"
        )
    i, j, _, _, m = state.dims
    for axis, have, want in zip(axes, X.shape, (i, j, m)):
        if have != want:
            raise DimensionMismatchError(
                f"spectrogram {X.shape} has {have} {axis}; the state has {want} {axis}"
            )


def _check_bases(t, v, z):
    if v.shape[0] != t.shape[1] or z.shape[0] != t.shape[1]:
        raise DimensionMismatchError(
            f"basis counts disagree: T{t.shape} V{v.shape} Z{z.shape}"
        )


def channel_gain(t, v, z, g, out):
    """chi in channel-leading layout (M, I, J), one matmul over the bases.

    chi_mij = sum_k w_mik v_kj with w_mik = t_ik sum_n z_kn g_inm, written
    into out, a C-contiguous (M, I, J) array (ValueError otherwise: the
    matmul would fill a reshaped copy and leave out unwritten).  Takes
    the factor arrays so callers can pass a subset of bins.
    """
    _check_bases(t, v, z)
    if not out.flags.c_contiguous:
        raise ValueError("channel_gain: out must be C-contiguous")
    w = t[None] * (g.transpose(2, 0, 1) @ z.T)
    np.matmul(w.reshape(-1, w.shape[2]), v, out=out.reshape(-1, v.shape[1]))
    return out


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
    i, j, _, _, m = state.dims
    chi = channel_gain(src.T, src.V, src.Z, state.spatial.G, np.empty((m, i, j)))
    return chi.transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# checkpoints


def _unpack(doc):
    shape = tuple(doc["shape"])
    if "real" in doc:
        # assigned part by part: real + 1j * imag would turn an
        # imaginary -0.0 into +0.0
        arr = np.empty(len(doc["real"]), dtype=np.complex128)
        arr.real = doc["real"]
        arr.imag = doc["imag"]
        return arr.reshape(shape)
    return np.asarray(doc["data"], dtype=np.float64).reshape(shape)


# values per write: a chunk's floats, their repr strings and the joined
# text are all the writer holds at once
_CHUNK = 1024


def _write_values(fh, part):
    """part's values in C order as a JSON array of repr floats, one chunk per write."""
    flat = part.reshape(-1)
    fh.write("[")
    for start in range(0, flat.size, _CHUNK):
        # an integer array writes as floats, which load the same
        values = flat[start:start + _CHUNK].astype(np.float64, copy=False).tolist()
        fh.write((", " if start else "") + ", ".join(map(float.__repr__, values)))
    fh.write("]")


def save_state(state: SeparationState, path):
    """Write state as an ``sgmnmf-state`` version 1 document, streamed as it is serialized.

    The bytes equal ``json.dumps`` of the whole document, as earlier
    versions wrote it: the header, then each array's ``shape`` and its
    ``data`` (or ``real`` and ``imag``) as repr floats, -0.0 kept.  No
    whole-state list of floats or whole-document string is built.
    ``hyper`` holds the fields of `Hyperparams` only.  A NaN or Inf
    entry raises NonFiniteError naming the array and its first bad flat
    index, before the file is created.
    """
    arrays = {
        "t": state.source.T,
        "v": state.source.V,
        "z": state.source.Z,
        "g": state.spatial.G,
        "q": state.spatial.Q,
    }
    for name, arr in arrays.items():
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteError(f"state array {name!r} is NaN/Inf at flat index {bad[0]}")
    hyper = {f.name: getattr(state.hyper, f.name) for f in fields(Hyperparams)}
    head = json.dumps({"format": "sgmnmf-state", "version": 1, "hyper": hyper})
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "arrays": {')
        for pos, (name, arr) in enumerate(arrays.items()):
            parts = {"real": arr.real, "imag": arr.imag} if np.iscomplexobj(arr) else {"data": arr}
            fh.write(f'{", " if pos else ""}"{name}": {{"shape": {json.dumps(list(arr.shape))}')
            for key, part in parts.items():
                fh.write(f', "{key}": ')
                _write_values(fh, part)
            fh.write("}")
        fh.write("}}")


def load_state(path) -> SeparationState:
    """The state save_state wrote; ValueError naming the path if the file is not one.

    The file must decode as JSON; ``hyper`` is read like a run document
    by config.read_document, so an unknown key or a value of the wrong
    type is refused naming the field.
    """
    from .config import load_json, read_document  # config imports this module

    doc = load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "sgmnmf-state":
        raise ValueError(f"{path}: not a state checkpoint")
    if doc.get("version") != 1:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    arrays = doc.get("arrays")
    if not isinstance(doc.get("hyper"), dict) or not isinstance(arrays, dict):
        raise ValueError(f"{path}: checkpoint lacks 'hyper' or 'arrays'")
    unpacked = {}
    for name in ("t", "v", "z", "g", "q"):
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint lacks array {name!r}")
        if not isinstance(arrays[name], dict):
            raise ValueError(f"{path}: checkpoint array {name!r} is not an object")
        try:
            unpacked[name] = _unpack(arrays[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: checkpoint array {name!r}: {exc}") from exc
    try:
        return SeparationState(
            SourceModel(unpacked["t"], unpacked["v"], unpacked["z"]),
            SpatialModel(unpacked["q"], unpacked["g"]),
            read_document(Hyperparams, doc["hyper"]),
        )
    except (TypeError, ValueError, DimensionMismatchError, NonFiniteError) as exc:
        raise ValueError(f"{path}: invalid checkpoint: {exc}") from exc
