"""Monotone descent, update-rule algebra, and run() orchestration."""

import numpy as np
import pytest

import helpers
from sgmnmf import model, objective, optimizer
from sgmnmf.errors import DimensionMismatchError, SingularMatrixError


class TestSubupdateDescent:
    @pytest.mark.parametrize(
        "algorithm,beta",
        [("subgaussian", 3.1), ("subgaussian", 4.0), ("gaussian", 2.0)],
    )
    def test_cost_never_increases_at_any_subupdate(self, algorithm, beta):
        rng = np.random.default_rng(101)
        for _ in range(3):
            st = helpers.random_state(
                rng, n_bins=6, n_frames=9, n_channels=2, n_bases=4,
                beta=beta, algorithm=algorithm, iterations=8,
            )
            X = helpers.random_mixture(rng, 6, 9, 2)
            seq = [objective.current_cost(st, X)]
            names = ["start"]

            def record(name, state):
                seq.append(objective.current_cost(state, X))
                names.append(name)

            optimizer.run(st, X, on_subupdate=record)
            arr = np.asarray(seq)
            jumps = np.diff(arr)
            slack = 1e-8 * np.abs(arr[:-1])
            worst = int(np.argmax(jumps - slack))
            assert (jumps <= slack).all(), (
                f"cost rose at sub-update {names[worst + 1]}: "
                f"{arr[worst]} -> {arr[worst + 1]}"
            )

    def test_three_channel_descent(self):
        rng = np.random.default_rng(102)
        st = helpers.random_state(
            rng, n_bins=4, n_frames=6, n_channels=3, n_sources=3, n_bases=3,
            beta=3.5, iterations=6,
        )
        X = helpers.random_mixture(rng, 4, 6, 3)
        _, trace = optimizer.run(st, X)
        costs = np.asarray(trace.costs)
        assert (np.diff(costs) <= 1e-8 * np.abs(costs[:-1])).all()


class TestMultiplicativeRules:
    def test_t_factor_matches_brute_force(self):
        rng = np.random.default_rng(111)
        st = helpers.random_state(rng, n_bins=2, n_frames=3, n_channels=2, n_bases=2, beta=3.3)
        X = helpers.random_mixture(rng, 2, 3, 2)
        beta = st.hyper.beta
        t0 = st.source.T.copy()
        v, z, g = st.source.V, st.source.Z, st.spatial.G

        p = model.projections(st, X)
        chi = model.mixture_gain(st)
        phi = np.empty_like(chi)
        for i in range(2):
            for j in range(3):
                s = (np.abs(p[i, j]) ** 2 / chi[i, j]).sum()
                phi[i, j] = np.abs(p[i, j]) ** 2 * s ** ((beta - 2) / 2)
        num = np.zeros_like(t0)
        den = np.zeros_like(t0)
        for i in range(2):
            for k in range(2):
                for j in range(3):
                    for m in range(2):
                        w = sum(z[k, n] * g[i, n, m] for n in range(2)) * v[k, j]
                        num[i, k] += w * phi[i, j, m] / chi[i, j, m] ** 2
                        den[i, k] += w / chi[i, j, m]
        want = t0 * (beta * num / (2 * den)) ** (2 / (beta + 2))

        first = {}

        def grab(name, state):
            if name == "t" and not first:
                first["t"] = state.source.T.copy()

        optimizer.update_tvzg(st, X, on_phase=grab)
        np.testing.assert_allclose(first["t"], want, rtol=1e-10)

    def test_gaussian_rule_is_square_root(self):
        rng = np.random.default_rng(112)
        st = helpers.random_state(
            rng, n_bins=2, n_frames=3, n_bases=2, beta=2.0, algorithm="gaussian"
        )
        X = helpers.random_mixture(rng, 2, 3, 2)
        t0 = st.source.T.copy()
        v, z, g = st.source.V, st.source.Z, st.spatial.G
        p2 = np.abs(model.projections(st, X)) ** 2
        chi = model.mixture_gain(st)
        num = np.einsum("kn,inm,kj,ijm->ik", z, g, v, p2 / chi**2)
        den = np.einsum("kn,inm,kj,ijm->ik", z, g, v, 1.0 / chi)
        want = t0 * np.sqrt(num / den)

        first = {}

        def grab(name, state):
            if name == "t" and not first:
                first["t"] = state.source.T.copy()

        optimizer.update_tvzg(st, X, on_phase=grab)
        np.testing.assert_allclose(first["t"], want, rtol=1e-10)


class TestDiagonalizerUpdates:
    def test_post_scale_identity(self):
        rng = np.random.default_rng(121)
        st = helpers.random_state(rng, n_bins=5, n_frames=11, n_channels=2, beta=3.6)
        X = helpers.random_mixture(rng, 5, 11, 2)
        collect = {}
        optimizer.update_q_subgaussian(st, X, collect=collect)
        want = 2 * 11 / st.hyper.beta
        got = collect["post_scale_sum"][collect["active"]]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_silent_bins_left_untouched(self):
        rng = np.random.default_rng(122)
        st = helpers.random_state(rng, n_bins=5, n_frames=7, n_channels=2)
        X = helpers.random_mixture(rng, 5, 7, 2)
        X[2] = 0.0
        q_before = st.spatial.Q[2].copy()
        optimizer.update_q_subgaussian(st, X)
        np.testing.assert_array_equal(st.spatial.Q[2], q_before)
        assert np.isfinite(st.spatial.Q).all()

    def test_gaussian_rows_unit_normalized(self):
        # after the iterative-projection step, q_m^H U_m q_m = 1
        rng = np.random.default_rng(123)
        st = helpers.random_state(rng, n_bins=4, n_frames=9, beta=2.0, algorithm="gaussian")
        X = helpers.random_mixture(rng, 4, 9, 2)
        optimizer.update_q_gaussian(st, X)
        chi = model.mixture_gain(st)
        for i in range(4):
            for m in range(2):
                w = 1.0 / chi[i, :, m]
                u = np.einsum("j,ja,jb->ab", w, X[i], X[i].conj()) / 9
                q = st.spatial.Q[i, m].conj()
                val = (q.conj() @ u @ q).real
                assert val == pytest.approx(1.0, rel=1e-10)

    def test_worker_count_does_not_change_results(self):
        rng = np.random.default_rng(124)
        results = []
        for workers in (1, 2, 3):
            st = helpers.random_state(
                np.random.default_rng(7), n_bins=6, n_frames=8, n_channels=2, iterations=3
            )
            X = helpers.random_mixture(np.random.default_rng(8), 6, 8, 2)
            st, trace = optimizer.run(st, X, workers=workers)
            results.append((st.spatial.Q.copy(), st.source.T.copy(), list(trace.costs)))
        for q, t, costs in results[1:]:
            np.testing.assert_array_equal(q, results[0][0])
            np.testing.assert_array_equal(t, results[0][1])
            assert costs == results[0][2]
        assert rng is not None


class TestNormalization:
    def test_chi_and_cost_invariant(self):
        rng = np.random.default_rng(131)
        st = helpers.random_state(rng, n_bins=4, n_frames=6, n_channels=2)
        X = helpers.random_mixture(rng, 4, 6, 2)
        chi0 = model.mixture_gain(st)
        c0 = objective.current_cost(st, X)
        optimizer.normalize_and_rescale(st)
        np.testing.assert_allclose(model.mixture_gain(st), chi0, rtol=1e-12)
        assert objective.current_cost(st, X) == pytest.approx(c0, rel=1e-12)

    def test_canonical_scales(self):
        rng = np.random.default_rng(132)
        st = helpers.random_state(rng, n_bins=4, n_frames=6, n_channels=3, n_sources=2)
        optimizer.normalize_and_rescale(st)
        np.testing.assert_allclose(st.source.T.sum(axis=0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(st.spatial.G.mean(axis=(0, 2)), 1.0, rtol=1e-12)


class TestRun:
    def test_zero_iterations_is_identity(self):
        rng = np.random.default_rng(141)
        st = helpers.random_state(rng, iterations=0)
        X = helpers.random_mixture(rng)
        t0 = st.source.T.copy()
        q0 = st.spatial.Q.copy()
        out, trace = optimizer.run(st, X)
        assert len(trace.points) == 0
        np.testing.assert_array_equal(out.source.T, t0)
        np.testing.assert_array_equal(out.spatial.Q, q0)

    def test_iteration_reports_chain_and_descend(self):
        rng = np.random.default_rng(142)
        st = helpers.random_state(rng, n_bins=5, n_frames=7, iterations=6)
        X = helpers.random_mixture(rng, 5, 7, 2)
        reports = []
        optimizer.run(st, X, on_iteration=reports.append)
        assert [r.iteration for r in reports] == list(range(1, 7))
        for prev, cur in zip(reports, reports[1:]):
            assert cur.cost_before == prev.cost_after
        for r in reports:
            assert r.cost_after <= r.cost_before + 1e-8 * abs(r.cost_before)
            assert set(r.phase_ms) == {"tvzg", "q", "normalize"}

    def test_trace_matches_iteration_reports(self):
        rng = np.random.default_rng(143)
        st = helpers.random_state(rng, iterations=4)
        X = helpers.random_mixture(rng)
        reports = []
        _, trace = optimizer.run(st, X, on_iteration=reports.append)
        assert trace.iterations == [1, 2, 3, 4]
        assert trace.costs == [r.cost_after for r in reports]

    def test_hyper_override_revalidates(self):
        rng = np.random.default_rng(144)
        st = helpers.random_state(rng, n_bases=3)
        X = helpers.random_mixture(rng)
        other = model.Hyperparams(n_bases=5, iterations=1)
        with pytest.raises(DimensionMismatchError):
            optimizer.run(st, X, hyper=other)

    def test_all_zero_input_stays_finite(self):
        rng = np.random.default_rng(145)
        st = helpers.random_state(rng, iterations=2)
        q0 = st.spatial.Q.copy()
        X = np.zeros((5, 7, 2), dtype=np.complex128)
        out, trace = optimizer.run(st, X)
        assert np.isfinite(out.source.T).all()
        assert np.isfinite(trace.costs).all()
        np.testing.assert_array_equal(out.spatial.Q, q0)

    def test_row_failure_names_iteration(self, monkeypatch):
        # two row solves per iteration at M = 2: the third is iteration 2, row 0
        calls = []
        real = optimizer.linalg.solve

        def solve(a, b):
            calls.append(None)
            if len(calls) == 3:
                raise SingularMatrixError("singular at batch index 0", index=0)
            return real(a, b)

        monkeypatch.setattr(optimizer.linalg, "solve", solve)
        rng = np.random.default_rng(146)
        st = helpers.random_state(rng, iterations=3)
        with pytest.raises(SingularMatrixError) as info:
            optimizer.run(st, helpers.random_mixture(rng))
        assert str(info.value).startswith("iteration 2: diagonalizer row 0, frequency bin 0:")
        assert info.value.index == 0
        assert isinstance(info.value.__cause__, SingularMatrixError)

    def test_cost_failure_names_iteration_and_keeps_index(self, monkeypatch):
        # the first log-determinant is the cost before iteration 1
        calls = []
        real = optimizer.linalg.log_abs_det

        def log_abs_det(a):
            calls.append(None)
            if len(calls) == 2:
                raise SingularMatrixError("singular at batch index 4", index=4)
            return real(a)

        monkeypatch.setattr(optimizer.linalg, "log_abs_det", log_abs_det)
        rng = np.random.default_rng(147)
        st = helpers.random_state(rng, iterations=2)
        with pytest.raises(SingularMatrixError, match=r"^iteration 1: singular") as info:
            optimizer.run(st, helpers.random_mixture(rng))
        assert info.value.index == 4


class TestFixedPoint:
    def test_constructed_stationary_state_has_unit_factors(self):
        # data whose projections satisfy |p_m|^2 = c * chi_m with
        # c = ((2/beta) M^{(2-beta)/2})^{2/beta} make every multiplicative
        # factor equal to one
        rng = np.random.default_rng(151)
        beta = 3.4
        st = helpers.random_state(rng, n_bins=3, n_frames=5, n_channels=2, beta=beta)
        chi = model.mixture_gain(st)
        m_ch = 2
        c = ((2.0 / beta) * m_ch ** ((2.0 - beta) / 2.0)) ** (2.0 / beta)
        phase = np.exp(2j * np.pi * rng.uniform(size=chi.shape))
        p = np.sqrt(c * chi) * phase
        q_inv = np.linalg.inv(st.spatial.Q)
        X = np.einsum("iab,ijb->ija", q_inv, p)

        before = {
            "t": st.source.T.copy(),
            "v": st.source.V.copy(),
            "z": st.source.Z.copy(),
            "g": st.spatial.G.copy(),
        }
        snaps = {}

        def grab(name, state):
            if name == "t":
                snaps["t"] = state.source.T.copy()
            elif name == "v":
                snaps["v"] = state.source.V.copy()
            elif name == "z":
                snaps["z"] = state.source.Z.copy()
            elif name == "g":
                snaps["g"] = state.spatial.G.copy()

        optimizer.update_tvzg(st, X, on_phase=grab)
        np.testing.assert_allclose(snaps["t"], before["t"], rtol=1e-7)
        np.testing.assert_allclose(snaps["v"], before["v"], rtol=1e-7)
        np.testing.assert_allclose(snaps["z"], before["z"], rtol=1e-7)
        np.testing.assert_allclose(snaps["g"], before["g"], rtol=1e-7)
