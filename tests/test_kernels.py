"""Matmul kernels of the optimizer against their einsum formulations.

The einsum expressions below are the optimizer's earlier, direct
formulations, kept here as reference oracles.  The kernels sum in a
different order, so they are compared with a float64 tolerance fixed
in advance (RTOL); the channel sum keeps its order and must be exact.
"""

import numpy as np
import pytest

import helpers
from sgmnmf import model, optimizer
from sgmnmf.errors import NonFiniteError, SingularMatrixError

RTOL = 1e-12
SHAPES = [(2, 2, 2), (3, 3, 2)]  # (M, N, K) on random states


def _state(seed, n_ch, n_src, n_bases, beta=3.4, algorithm="subgaussian"):
    rng = np.random.default_rng(seed)
    st = helpers.random_state(
        rng, n_bins=7, n_frames=11, n_channels=n_ch, n_sources=n_src,
        n_bases=n_bases, beta=beta, algorithm=algorithm,
    )
    return st, helpers.random_mixture(rng, 7, 11, n_ch)


def _assert_close(got, want, axes=None):
    """Elementwise within RTOL; with `axes`, within RTOL of max|want| over them.

    Sums of positive terms hold elementwise.  Complex or cancelling
    entries (projections, row systems) are held per bin against the
    bin's largest entry instead.
    """
    if axes is None:
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)
    else:
        scale = np.abs(want).max(axis=axes, keepdims=True)
        assert np.all(np.abs(got - want) <= RTOL * scale)


def _cm(a):
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def oracle_row_system(X, chi, Q, m, beta):
    """_row_system as direct einsums over (I, J, M) arrays: (r, U, B)."""
    p = np.einsum("imc,ijc->ijm", Q, X)
    pa = np.abs(p)
    s = (pa**2 / chi).sum(axis=2)
    mask = s > 0
    s_safe = np.where(mask, s, 1.0)
    cm = chi[:, :, m]
    pm = np.maximum(pa[:, :, m], optimizer.PROJ_FLOOR * np.sqrt(s_safe * cm))
    r = pm ** (1.0 - 2.0 / beta) * cm ** (1.0 / beta) * s_safe ** (1.0 / beta - 0.5)
    r = np.where(mask, r, 1.0)
    rb = r**beta
    w1 = np.where(mask, 1.0 / np.sqrt(pm ** (4.0 - beta) * rb), 0.0)
    w2 = np.where(mask, pm ** (beta - 2.0) / rb, 0.0)
    xc = X.conj()
    u = np.einsum("ij,ija,ijb->iab", w1, X, xc)
    q = Q[:, m, :].conj()
    uq = np.einsum("iab,ib->ia", u, q)
    quq = np.einsum("ia,ia->i", q.conj(), uq).real
    b = (
        quq[:, None, None] * u
        + np.einsum("ij,ija,ijb->iab", w2, X, xc)
        - uq[:, :, None] * uq.conj()[:, None, :]
    )
    return r, u, b


def oracle_family_sums(name, st, X):
    """(num, den) of one family as direct einsums over (I, J, M) arrays."""
    t, v, z, g = st.source.T, st.source.V, st.source.Z, st.spatial.G
    beta = st.hyper.beta
    p2 = np.abs(np.einsum("imc,ijc->ijm", st.spatial.Q, X)) ** 2
    sigma = np.einsum("ik,kj,kn->ijn", t, v, z)
    chi = np.einsum("ijn,inm->ijm", sigma, g)
    y = (p2 / chi).sum(axis=2, keepdims=True)
    a = p2 * y ** ((beta - 2.0) / 2.0) / chi**2
    b = 1.0 / chi
    w = np.einsum("kn,inm->ikm", z, g)
    if name == "t":
        return [np.einsum("ikm,kj,ijm->ik", w, v, c) for c in (a, b)]
    if name == "v":
        return [np.einsum("ik,ikm,ijm->kj", t, w, c) for c in (a, b)]
    if name == "z":
        return [np.einsum("ik,kj,ijm,inm->kn", t, v, c, g) for c in (a, b)]
    return [np.einsum("ijn,ijm->inm", sigma, c) for c in (a, b)]


@pytest.mark.parametrize("n_ch", [2, 3])
def test_channel_sum_is_exact(n_ch):
    rng = np.random.default_rng(200 + n_ch)
    for shape in [(9, n_ch, 13), (2, 9, n_ch, 5)]:
        x = rng.uniform(1e-3, 1e3, shape) * rng.choice([1e-8, 1.0, 1e8], shape)
        assert np.array_equal(model.sum_channels(x), x.sum(axis=-2))
        y = np.moveaxis(x, -2, -1).copy()
        assert np.array_equal(model.sum_channels(x), y.sum(axis=-1))


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
def test_gain_psd_and_projections(n_ch, n_src, n_bases):
    st, X = _state(210, n_ch, n_src, n_bases)
    t, v, z, g = st.source.T, st.source.V, st.source.Z, st.spatial.G
    sigma = np.einsum("ik,kj,kn->ijn", t, v, z)
    _assert_close(model.compute_source_psd(st.source), sigma)
    _assert_close(model.mixture_gain(st), np.einsum("ijn,inm->ijm", sigma, g))
    p = np.einsum("imc,ijc->ijm", st.spatial.Q, X)
    _assert_close(model.projections(st, X), p, axes=(1, 2))


@pytest.mark.parametrize("n_ch", [2, 3])
@pytest.mark.parametrize("n_cols", [None, 1])
def test_in_order_product(n_ch, n_cols):
    rng = np.random.default_rng(215 + n_ch)
    shape_b = (9, n_ch, n_cols or n_ch)
    a = rng.standard_normal((9, n_ch, n_ch)) + 1j * rng.standard_normal((9, n_ch, n_ch))
    b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
    _assert_close(optimizer._mat_mul(a, b), a @ b, axes=(1, 2))


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
def test_weighted_covariance(n_ch, n_src, n_bases):
    st, X = _state(220, n_ch, n_src, n_bases)
    w = np.random.default_rng(221).uniform(0.1, 3.0, X.shape[:2])
    got = optimizer._weighted_cov(w, optimizer._outer_products(X))
    want = np.einsum("ij,ija,ijb->iab", w, X, X.conj())
    _assert_close(got, want, axes=(1, 2))


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
@pytest.mark.parametrize("beta", [3.1, 4.0])
def test_row_system(n_ch, n_src, n_bases, beta):
    st, X = _state(230, n_ch, n_src, n_bases, beta=beta)
    chi = model.mixture_gain(st)
    for m in range(n_ch):
        r, u, b = oracle_row_system(X, chi, st.spatial.Q, m, beta)
        terms = optimizer.row_update_terms(st, X, m)
        _assert_close(terms["U"], u, axes=(1, 2))
        _assert_close(terms["B"], b, axes=(1, 2))
        _assert_close(terms["r"], r)


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
@pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
@pytest.mark.parametrize("name", ["t", "v", "z", "g"])
def test_family_sums(n_ch, n_src, n_bases, algorithm, beta, name):
    st, X = _state(240, n_ch, n_src, n_bases, beta=beta, algorithm=algorithm)
    p2 = np.abs(model.projections(st, X)) ** 2
    got = optimizer._family_sums(
        name, st, _cm(p2), _cm(model.mixture_gain(st))
    )
    for have, want in zip(got, oracle_family_sums(name, st, X)):
        _assert_close(have, want)


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
@pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
def test_projections_carried_across_q_sweep(n_ch, n_src, n_bases, algorithm, beta):
    st, X = _state(250, n_ch, n_src, n_bases, beta=beta, algorithm=algorithm)
    X[2] = 0.0  # a silent bin is skipped by the sweep
    rows = (
        optimizer._q_rows_gaussian if algorithm == "gaussian"
        else optimizer._q_rows_subgaussian
    )
    cache = optimizer.FrameCache(X)
    p2 = cache.projection_powers(st.spatial.Q)
    for _ in range(2):
        rows(st, cache, p2)
        fresh = np.abs(model.projections(st, X)[cache.active]) ** 2
        _assert_close(p2, _cm(fresh), axes=(1, 2))
        assert np.array_equal(cache.power(p2)[2], np.zeros((n_ch, X.shape[1])))


def test_worker_count_does_not_change_results_three_channels():
    results = []
    for workers in (1, 2, 3):
        st = helpers.random_state(
            np.random.default_rng(260), n_bins=16, n_frames=24, n_channels=3,
            n_sources=3, n_bases=4, beta=3.7, iterations=4,
        )
        X = helpers.random_mixture(np.random.default_rng(261), 16, 24, 3)
        X[5] = 0.0
        st, trace = optimizer.run(st, X, workers=workers)
        results.append((st.spatial.Q.tobytes(), st.source.T.tobytes(),
                        [repr(c) for c in trace.costs]))
    assert results[1] == results[0]
    assert results[2] == results[0]


def _failing_bin_scene(algorithm="subgaussian", beta=3.4):
    """Five bins; bin 1 is silent, so bin 3 sits at offset 2 of the active block."""
    rng = np.random.default_rng(270)
    st = helpers.random_state(rng, n_bins=5, n_frames=11, beta=beta, algorithm=algorithm)
    X = helpers.random_mixture(rng, 5, 11, 2)
    X[1] = 0.0
    return st, X


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "update,algorithm,beta",
    [(optimizer.update_q_subgaussian, "subgaussian", 3.4),
     (optimizer.update_q_gaussian, "gaussian", 2.0)],
)
def test_singular_system_names_frequency_bin(update, algorithm, beta, workers):
    st, X = _failing_bin_scene(algorithm, beta)
    st.spatial.Q[3, 1, :] = 0.0  # Q_3 singular: every row system there is too
    with pytest.raises(SingularMatrixError, match=r"row 0, frequency bin 3\b") as info:
        update(st, X, workers=workers)
    assert info.value.index == 3


def _poison_solve(monkeypatch, offset, value):
    """linalg.solve with the solution of batch entry `offset` replaced."""
    real = optimizer.linalg.solve

    def solve(a, b):
        out = real(a, b)
        if out.shape[0] > offset:
            out[offset] = value
        return out

    monkeypatch.setattr(optimizer.linalg, "solve", solve)


def test_nonfinite_row_scale_names_frequency_bin(monkeypatch):
    st, X = _failing_bin_scene()
    _poison_solve(monkeypatch, 2, np.nan)
    with pytest.raises(NonFiniteError, match=r"row 0, frequency bin 3\b"):
        optimizer.update_q_subgaussian(st, X)


def test_nonpositive_normalizer_names_frequency_bin(monkeypatch):
    st, X = _failing_bin_scene("gaussian", 2.0)
    _poison_solve(monkeypatch, 2, 0.0)
    with pytest.raises(NonFiniteError, match=r"normalizer.*row 0, frequency bin 3\b"):
        optimizer.update_q_gaussian(st, X)
