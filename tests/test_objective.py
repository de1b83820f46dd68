"""Objective values, the separable surrogate, and cost traces."""

import numpy as np
import pytest

import helpers
import oracles
from oracles import InvalidAuxiliaryError
from sgmnmf import model, objective


class TestCosts:
    def test_ggd_matches_loop_evaluation(self):
        rng = np.random.default_rng(41)
        st = helpers.random_state(rng, n_bins=3, n_frames=4, n_channels=2, beta=3.0)
        X = helpers.random_mixture(rng, 3, 4, 2)
        got = objective.cost_ggd_jd(st, X)

        sigma = model.compute_source_psd(st.source)
        chi = model.mixture_gain(st)
        p = model.projections(st, X)
        beta = st.hyper.beta
        want = 0.0
        for i in range(3):
            want -= 2 * 4 * np.log(abs(np.linalg.det(st.spatial.Q[i])))
            for j in range(4):
                want += (np.abs(p[i, j]) ** 2 / chi[i, j]).sum() ** (beta / 2)
                want += np.log(chi[i, j]).sum()
        assert got == pytest.approx(want, rel=1e-12)
        assert sigma.shape == (3, 4, 2)

    def test_gaussian_matches_loop_evaluation(self):
        rng = np.random.default_rng(42)
        st = helpers.random_state(rng, n_bins=3, n_frames=4, beta=2.0, algorithm="gaussian")
        X = helpers.random_mixture(rng, 3, 4, 2)
        got = oracles.cost_gaussian_jd(st, X)

        chi = model.mixture_gain(st)
        p = model.projections(st, X)
        want = 0.0
        for i in range(3):
            want -= 2 * 4 * np.log(abs(np.linalg.det(st.spatial.Q[i])))
            want += (np.abs(p[i]) ** 2 / chi[i] + np.log(chi[i])).sum()
        assert got == pytest.approx(want, rel=1e-12)

    def test_beta_two_limit_agrees_with_gaussian(self):
        # the generalized cost evaluated at beta = 2 must coincide with the
        # plain Gaussian likelihood, term by term
        rng = np.random.default_rng(43)
        st = helpers.random_state(rng, n_bins=4, n_frames=5, beta=2.0, algorithm="gaussian")
        X = helpers.random_mixture(rng, 4, 5, 2)
        assert oracles.cost_gaussian_jd(st, X) == pytest.approx(
            objective.cost_ggd_jd(st, X), rel=1e-12
        )

    def test_fullrank_equals_diagonal_domain(self):
        rng = np.random.default_rng(44)
        for trial in range(5):
            st = helpers.random_state(
                rng, n_bins=3, n_frames=6, n_channels=2, beta=2.0 + 0.4 * (trial + 1)
            )
            X = helpers.random_mixture(rng, 3, 6, 2)
            scm = oracles.full_rank_scm(st)
            sigma = model.compute_source_psd(st.source)
            full = oracles.cost_ggd_fullrank(X, scm, sigma, st.hyper.beta)
            diag = objective.cost_ggd_jd(st, X)
            assert full == pytest.approx(diag, rel=1e-10)


class TestAuxiliary:
    def test_equality_aux_is_valid_and_tight(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            st = helpers.random_state(rng, n_bins=3, n_frames=4, beta=3.7)
            X = helpers.random_mixture(rng, 3, 4, 2)
            aux = oracles.equality_aux(st, X)
            aux.validate()
            sur = oracles.surrogate_tvzg(st, X, aux)
            cost = objective.cost_ggd_jd(st, X)
            assert sur == pytest.approx(cost, rel=1e-10)

    def test_surrogate_majorizes_at_random_aux(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            st = helpers.random_state(rng, n_bins=2, n_frames=3, beta=2.9)
            X = helpers.random_mixture(rng, 2, 3, 2)
            other = helpers.random_state(rng, n_bins=2, n_frames=3, beta=2.9)
            other.spatial.Q = st.spatial.Q.copy()
            aux = oracles.equality_aux(other, X)
            sur = oracles.surrogate_tvzg(st, X, aux)
            cost = objective.cost_ggd_jd(st, X)
            assert sur >= cost - 1e-10 * abs(cost)

    def test_validate_rejects_non_simplex_xi(self):
        rng = np.random.default_rng(53)
        st = helpers.random_state(rng, n_bins=2, n_frames=3)
        X = helpers.random_mixture(rng, 2, 3, 2)
        aux = oracles.equality_aux(st, X)
        aux.xi[0, 0, 0] += 0.5
        with pytest.raises(InvalidAuxiliaryError):
            aux.validate()

    def test_validate_rejects_negative_eta(self):
        rng = np.random.default_rng(54)
        st = helpers.random_state(rng, n_bins=2, n_frames=3)
        X = helpers.random_mixture(rng, 2, 3, 2)
        aux = oracles.equality_aux(st, X)
        aux.eta[0, 0, 0, 0] = -aux.eta[0, 0, 0, 0] - 0.1
        with pytest.raises(InvalidAuxiliaryError):
            aux.validate()

    def test_zero_frame_gets_uniform_weights(self):
        rng = np.random.default_rng(55)
        st = helpers.random_state(rng, n_bins=2, n_frames=3, n_channels=2)
        X = helpers.random_mixture(rng, 2, 3, 2)
        X[0, 1] = 0.0
        aux = oracles.equality_aux(st, X)
        np.testing.assert_allclose(aux.xi[0, 1], 0.5)
        aux.validate()


class TestCostTrace:
    def test_append_requires_increasing_iterations(self):
        trace = objective.CostTrace()
        trace.append(0, 10.0, 1.0)
        trace.append(1, 9.0, 1.0)
        with pytest.raises(ValueError):
            trace.append(1, 8.0, 1.0)

    def test_csv_round_trip_preserves_costs_exactly(self, tmp_path):
        trace = objective.CostTrace()
        rng = np.random.default_rng(61)
        values = rng.standard_normal(5) * 1e4
        for it, v in enumerate(values):
            trace.append(it, float(v), float(rng.uniform(0, 50)))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        back = objective.CostTrace.read_csv(path)
        assert back.iterations == trace.iterations
        assert back.costs == trace.costs

    def test_csv_header(self, tmp_path):
        trace = objective.CostTrace()
        trace.append(0, 1.5, 2.0)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == "iteration,cost,ms"
