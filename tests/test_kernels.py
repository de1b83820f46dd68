"""Matmul kernels of the optimizer against their einsum formulations.

The einsum expressions below are the optimizer's earlier, direct
formulations, kept here as reference oracles.  The kernels sum in a
different order, so they are compared with a float64 tolerance fixed
in advance (RTOL); the channel sum keeps its order and must be exact.
"""

import numpy as np
import pytest

import helpers
import oracles
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
    return np.ascontiguousarray(a.transpose(2, 0, 1))


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
    for shape in [(n_ch, 9, 13), (n_ch, 2, 9, 5)]:
        x = rng.uniform(1e-3, 1e3, shape) * rng.choice([1e-8, 1.0, 1e8], shape)
        got = model.sum_channels(x, np.empty(shape[1:]))
        assert np.array_equal(got, x.sum(axis=0))
        y = np.moveaxis(x, 0, -1).copy()
        assert np.array_equal(got, y.sum(axis=-1))


@pytest.mark.parametrize("expo", [1.0, 2.0, 0.5, -1.0, 1.5, -0.5, 0.7])
def test_power_is_np_power_bit_for_bit(expo):
    # 1e-12 .. 1e12 plus zero, subnormals and the top of the range, in
    # place and out of place; the under- and overflows warn as np.power's do
    rng = np.random.default_rng(300)
    x = np.concatenate([10.0 ** rng.uniform(-12, 12, 10**6),
                        [0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1.0, 1.7e308]])
    with np.errstate(over="ignore", divide="ignore"):
        want = np.power(x, expo)
        got = model._power(x, expo, np.empty_like(x))
        inplace = x.copy()
        model._power(inplace, expo, inplace)
    for arr in (got, inplace):
        assert np.array_equal(arr, want)
        assert np.array_equal(np.signbit(arr), np.signbit(want))


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
    got = optimizer._weighted_cov(w, optimizer._packed_products(X))
    want = np.einsum("ij,ija,ijb->iab", w, X, X.conj())
    _assert_close(got, want, axes=(1, 2))


@pytest.mark.parametrize("n_ch", [2, 3])
def test_weighted_covariance_is_exactly_hermitian(n_ch):
    rng = np.random.default_rng(225)
    X = helpers.random_mixture(rng, 33, 17, n_ch)
    w = rng.uniform(0.1, 3.0, X.shape[:2])
    cov = optimizer._weighted_cov(w, optimizer._packed_products(X))
    assert np.array_equal(cov, cov.conj().transpose(0, 2, 1))
    assert np.array_equal(np.diagonal(cov, axis1=1, axis2=2).imag, np.zeros((33, n_ch)))


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
@pytest.mark.parametrize("beta", [3.1, 4.0])
def test_row_system(n_ch, n_src, n_bases, beta):
    st, X = _state(230, n_ch, n_src, n_bases, beta=beta)
    chi = model.mixture_gain(st)
    for m in range(n_ch):
        r, u, b = oracle_row_system(X, chi, st.spatial.Q, m, beta)
        terms = oracles.row_update_terms(st, X, m)
        _assert_close(terms["U"], u, axes=(1, 2))
        _assert_close(terms["B"], b, axes=(1, 2))
        _assert_close(terms["r"], r)


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
@pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
@pytest.mark.parametrize("name", ["t", "v", "z", "g"])
def test_family_sums(n_ch, n_src, n_bases, algorithm, beta, name):
    st, X = _state(240, n_ch, n_src, n_bases, beta=beta, algorithm=algorithm)
    ws = optimizer._WorkingSet(X, st.spatial.Q)
    p2 = np.abs(model.projections(st, X)) ** 2
    ab = optimizer._chi_weights(_cm(p2), _cm(model.mixture_gain(st)), ws.ab)
    got = optimizer._family_sums(name, st, ab, model.sum_channels(ab[0], ws.y))
    for have, want in zip(got, oracle_family_sums(name, st, X)):
        _assert_close(have, want)


@pytest.mark.parametrize("n_ch", [2, 3])
def test_projection_powers_are_channel_leading(n_ch):
    st, X = _state(245, n_ch, n_ch, 2)
    p2 = optimizer._WorkingSet(X, st.spatial.Q).p2
    assert p2.shape == (n_ch,) + X.shape[:2]
    assert all(p2[m].flags.c_contiguous for m in range(n_ch))
    _assert_close(p2, _cm(np.abs(model.projections(st, X)) ** 2), axes=(0, 2))
    X[3] = 0.0
    p2 = optimizer._WorkingSet(X, st.spatial.Q).p2
    assert np.array_equal(p2[:, 3], np.zeros((n_ch, X.shape[1])))


@pytest.mark.parametrize("n_ch,n_src,n_bases", SHAPES)
@pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
def test_projections_carried_across_q_sweep(n_ch, n_src, n_bases, algorithm, beta):
    st, X = _state(250, n_ch, n_src, n_bases, beta=beta, algorithm=algorithm)
    X[2] = 0.0  # a silent bin is skipped by the sweep
    ws = optimizer._WorkingSet(X, st.spatial.Q)
    for _ in range(2):
        optimizer._q_rows(st, ws)
        fresh = np.abs(model.projections(st, X)[ws.active]) ** 2
        _assert_close(ws.p2[:, ws.active], _cm(fresh), axes=(0, 2))
        assert np.array_equal(ws.p2[:, 2], np.zeros((n_ch, X.shape[1])))


@pytest.mark.parametrize("n_ch", [1, 2, 3])
@pytest.mark.parametrize("silent", [False, True])
def test_row_scratch_never_meets_inv_chi(n_ch, silent):
    # the sweep's 1/chi and its work arrays are views of one block
    st, X = _state(255, n_ch, n_ch, 2)
    if silent:
        X[2] = 0.0
    ws = optimizer._WorkingSet(X, st.spatial.Q)
    assert np.shares_memory(ws.inv_chi, ws.ab[1])
    assert [np.shares_memory(ws.inv_chi, a) for a in (ws.s, ws.pm2, ws.w, ws.p)] == [False] * 4


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


@pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
def test_singular_system_names_frequency_bin(algorithm, beta):
    st, X = _failing_bin_scene(algorithm, beta)
    st.spatial.Q[3, 1, :] = 0.0  # Q_3 singular: every row system there is too
    with pytest.raises(SingularMatrixError, match=r"row 0, frequency bin 3\b") as info:
        helpers.q_sweep(st, X)
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
        helpers.q_sweep(st, X)


def test_nonpositive_normalizer_names_frequency_bin(monkeypatch):
    st, X = _failing_bin_scene("gaussian", 2.0)
    _poison_solve(monkeypatch, 2, 0.0)
    with pytest.raises(NonFiniteError, match=r"normalizer.*row 0, frequency bin 3\b"):
        helpers.q_sweep(st, X)
