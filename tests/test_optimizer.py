"""Monotone descent, update-rule algebra, and run() orchestration."""

import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not a Unix
    resource = None

import helpers
import oracles
from sgmnmf import model, objective, optimizer
from sgmnmf.errors import DimensionMismatchError, NonFiniteError, SingularMatrixError


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
            seq = [objective.cost_ggd_jd(st, X)]
            names = ["start"]

            def record(name, state):
                seq.append(objective.cost_ggd_jd(state, X))
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

        optimizer.run(st, X, on_subupdate=grab)
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

        optimizer.run(st, X, on_subupdate=grab)
        np.testing.assert_allclose(first["t"], want, rtol=1e-10)


class TestDiagonalizerUpdates:
    def test_post_scale_identity(self):
        rng = np.random.default_rng(121)
        st = helpers.random_state(rng, n_bins=5, n_frames=11, n_channels=2, beta=3.6)
        X = helpers.random_mixture(rng, 5, 11, 2)
        got = oracles.post_scale_sums(st, X)
        want = 2 * 11 / st.hyper.beta
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_silent_bins_left_untouched(self):
        rng = np.random.default_rng(122)
        st = helpers.random_state(rng, n_bins=5, n_frames=7, n_channels=2)
        X = helpers.random_mixture(rng, 5, 7, 2)
        X[2] = 0.0
        q_before = st.spatial.Q[2].copy()
        helpers.q_sweep(st, X)
        np.testing.assert_array_equal(st.spatial.Q[2], q_before)
        assert np.isfinite(st.spatial.Q).all()

    def test_gaussian_rows_unit_normalized(self):
        # after the iterative-projection step, q_m^H U_m q_m = 1
        rng = np.random.default_rng(123)
        st = helpers.random_state(rng, n_bins=4, n_frames=9, beta=2.0, algorithm="gaussian")
        X = helpers.random_mixture(rng, 4, 9, 2)
        helpers.q_sweep(st, X)
        chi = model.mixture_gain(st)
        for i in range(4):
            for m in range(2):
                w = 1.0 / chi[i, :, m]
                u = np.einsum("j,ja,jb->ab", w, X[i], X[i].conj()) / 9
                q = st.spatial.Q[i, m].conj()
                val = (q.conj() @ u @ q).real
                assert val == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
    def test_worker_count_does_not_change_results(self, algorithm, beta):
        rng = np.random.default_rng(124)
        results = []
        for workers in (1, 2, 3):
            st = helpers.random_state(
                np.random.default_rng(7), n_bins=6, n_frames=8, n_channels=2, iterations=3,
                beta=beta, algorithm=algorithm,
            )
            X = helpers.random_mixture(np.random.default_rng(8), 6, 8, 2)
            # the run starts no thread, whatever the worker count
            threads, seen = threading.active_count(), []

            def on_subupdate(name, _):
                if name.startswith("q_row_"):
                    seen.append(threading.active_count())

            st, trace = optimizer.run(st, X, workers=workers, on_subupdate=on_subupdate)
            assert seen == [threads] * 6
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
        c0 = objective.cost_ggd_jd(st, X)
        optimizer.normalize_and_rescale(st)
        np.testing.assert_allclose(model.mixture_gain(st), chi0, rtol=1e-12)
        assert objective.cost_ggd_jd(st, X) == pytest.approx(c0, rel=1e-12)

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

    def test_trace_matches_iteration_reports(self):
        rng = np.random.default_rng(143)
        st = helpers.random_state(rng, iterations=4)
        X = helpers.random_mixture(rng)
        reports = []
        _, trace = optimizer.run(st, X, on_iteration=reports.append)
        assert trace.iterations == [1, 2, 3, 4]
        assert trace.costs == [r.cost_after for r in reports]

    def test_all_zero_input_stays_finite(self):
        rng = np.random.default_rng(145)
        st = helpers.random_state(rng, iterations=2)
        q0 = st.spatial.Q.copy()
        X = np.zeros((5, 7, 2), dtype=np.complex128)
        out, trace = optimizer.run(st, X)
        assert np.isfinite(out.source.T).all()
        assert np.isfinite(trace.costs).all()
        np.testing.assert_array_equal(out.spatial.Q, q0)

    @pytest.mark.parametrize("n_frames", [6, 1])
    def test_frame_count_mismatch_names_both(self, n_frames):
        rng = np.random.default_rng(146)
        st = helpers.random_state(rng, n_bins=5, n_frames=7)
        X = helpers.random_mixture(rng, 5, n_frames, 2)
        msg = rf"^spectrogram \(5, {n_frames}, 2\) has {n_frames} frames; the state has 7 frames$"
        with pytest.raises(DimensionMismatchError, match=msg):
            optimizer.run(st, X)

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_peak_memory_bound(self, n_ch):
        # the peak reads 3.75 x X.nbytes at M = 2 and 4.07 x at M = 3; one
        # more (I, M, J) float64 array alive at the peak is 0.5 x X.nbytes
        # and breaks the bound
        rng = np.random.default_rng(147)
        st = helpers.random_state(
            rng, n_bins=129, n_frames=40, n_channels=n_ch, n_sources=n_ch, n_bases=8,
            iterations=3,
        )
        X = helpers.random_mixture(rng, 129, 40, n_ch)
        _, peak = helpers.traced_peak(optimizer.run, st, X)
        assert peak <= 4.15 * X.nbytes

    @pytest.mark.skipif(
        resource is None or platform.libc_ver()[0] != "glibc",
        reason="counts glibc's minor page faults, so it runs only on Linux with glibc",
    )
    def test_no_page_faults_in_the_hot_loop(self):
        # a fresh interpreter, whose heap is the one a user's first run
        # starts with; run's buffers are allocated once, so iterations
        # past the first two fault in no new pages
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "\n".join([
            "import resource",
            "import numpy as np",
            "from sgmnmf import model, optimizer",
            "rng = np.random.default_rng(149)",
            "shape = (257, 64, 2)",
            "X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)",
            "st = model.init_state(model.Hyperparams(n_bases=8, iterations=12), *shape)",
            "faults = []",
            "def on_iteration(report):",
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)",
            "optimizer.run(st, X, on_iteration=on_iteration)",
            "print(*faults)",
        ])
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        counts = [int(v) for v in res.stdout.split()]
        assert len(counts) == 12
        per_iteration = np.diff(counts)[1:]  # iterations 3 to 12
        assert per_iteration.max() <= 20, per_iteration

    def test_cli_import_loads_no_thread_pool(self):
        # the optimizer runs on the calling thread
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, sgmnmf.cli; print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert res.stdout.strip() == "False"

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

    @pytest.mark.parametrize("algorithm,beta", [("subgaussian", 3.4), ("gaussian", 2.0)])
    def test_trace_costs_match_cost_from_scratch(self, algorithm, beta):
        # the run shares y and 1/chi between its cost and the next t family
        rng = np.random.default_rng(148)
        st = helpers.random_state(
            rng, n_bins=9, n_frames=13, beta=beta, algorithm=algorithm, iterations=20
        )
        X = helpers.random_mixture(rng, 9, 13, 2)
        initial = objective.cost_ggd_jd(st, X)
        fresh, reports = [], []

        def on_iteration(report):
            fresh.append(objective.cost_ggd_jd(st, X))
            reports.append(report)

        _, trace = optimizer.run(st, X, on_iteration=on_iteration)
        assert len(trace.costs) == 20
        np.testing.assert_allclose(trace.costs, fresh, rtol=1e-12, atol=0)
        np.testing.assert_allclose(reports[0].cost_before, initial, rtol=1e-12, atol=0)



def _poison_family(monkeypatch, family, pos, from_call=1):
    """Put a NaN at `pos` of `family`'s numerator from its `from_call`-th sum on."""
    real = optimizer._family_sums
    calls = []

    def family_sums(name, *args):
        num, den = real(name, *args)
        if name == family:
            calls.append(None)
            if len(calls) >= from_call:
                num[pos] = np.nan
        return num, den

    monkeypatch.setattr(optimizer, "_family_sums", family_sums)


class TestFailureLocation:
    @pytest.mark.parametrize(
        "family,pos,where",
        [
            ("t", (3, 1), "frequency bin 3"),
            ("v", (2, 5), "basis 2, frame 5"),
            ("z", (1, 1), "basis 1, source 1"),
            ("g", (4, 1, 0), "frequency bin 4"),
        ],
    )
    def test_non_finite_factor_names_its_index(self, monkeypatch, family, pos, where):
        _poison_family(monkeypatch, family, pos)
        rng = np.random.default_rng(161)
        st = helpers.random_state(rng, n_bins=6, n_frames=7, n_bases=3)
        with pytest.raises(
            NonFiniteError,
            match=rf"^iteration 1: update factor for '{family}' contains NaN/Inf at {where}$",
        ):
            optimizer.run(st, helpers.random_mixture(rng, 6, 7, 2))

    def test_run_keeps_iteration_prefix(self, monkeypatch):
        _poison_family(monkeypatch, "v", (0, 4), from_call=2)
        rng = np.random.default_rng(162)
        st = helpers.random_state(rng, iterations=3)
        with pytest.raises(
            NonFiniteError, match=r"^iteration 2: update factor for 'v' .* at basis 0, frame 4$"
        ):
            optimizer.run(st, helpers.random_mixture(rng))

    @pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.inf)])
    def test_non_finite_spectrogram_names_its_entry(self, bad):
        rng = np.random.default_rng(164)
        st = helpers.random_state(rng, n_bins=6, n_frames=7, n_bases=3)
        before = st.copy()
        X = helpers.random_mixture(rng, 6, 7, 2)
        X[4, 5, 1] = bad
        X[5, 0, 0] = bad
        with pytest.raises(
            NonFiniteError,
            match=r"^spectrogram contains NaN/Inf at frequency bin 4, frame 5, channel 1$",
        ):
            optimizer.run(st, X)
        assert np.array_equal(st.source.T, before.source.T)
        assert np.array_equal(st.spatial.Q, before.spatial.Q)

    def test_degenerate_normalization_names_source(self):
        rng = np.random.default_rng(163)
        st = helpers.random_state(rng, n_sources=3)
        st.spatial.G[:, 1, :] = np.inf
        with pytest.raises(NonFiniteError, match=r"gain normalization at source 1$"):
            optimizer.normalize_and_rescale(st)


class TestFixedPoint:
    def test_constructed_stationary_state_has_unit_factors(self):
        # data whose projections satisfy |p_m|^2 = c * chi_m with
        # c = ((2/beta) M^{(2-beta)/2})^{2/beta} make every multiplicative
        # factor equal to one
        rng = np.random.default_rng(151)
        beta = 3.4
        st = helpers.random_state(
            rng, n_bins=3, n_frames=5, n_channels=2, beta=beta, iterations=1
        )
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

        optimizer.run(st, X, on_subupdate=grab)
        np.testing.assert_allclose(snaps["t"], before["t"], rtol=1e-7)
        np.testing.assert_allclose(snaps["v"], before["v"], rtol=1e-7)
        np.testing.assert_allclose(snaps["z"], before["z"], rtol=1e-7)
        np.testing.assert_allclose(snaps["g"], before["g"], rtol=1e-7)
