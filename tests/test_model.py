"""Model containers: validation, seeding, derived quantities, persistence."""

import json
import math
import re

import numpy as np
import pytest

import helpers
import oracles
from sgmnmf import config, model, objective, optimizer, separate
from sgmnmf.errors import DimensionMismatchError, NonFiniteError


class TestHyperparams:
    def test_defaults(self):
        h = model.Hyperparams()
        assert h.beta == 4.0
        assert h.algorithm == "subgaussian"
        assert h.n_sources == 2

    @pytest.mark.parametrize("beta", [2.0, 4.5, -1.0])
    def test_subgaussian_beta_range(self, beta):
        with pytest.raises(ValueError):
            model.Hyperparams(beta=beta, algorithm="subgaussian")

    def test_gaussian_requires_beta_two(self):
        model.Hyperparams(beta=2.0, algorithm="gaussian")
        with pytest.raises(ValueError):
            model.Hyperparams(beta=3.0, algorithm="gaussian")

    def test_gaussian_defaults_beta_two(self):
        # the Gaussian model is the generalized Gaussian at beta = 2
        h = model.Hyperparams(algorithm="gaussian")
        assert h.beta == 2.0
        assert h == config.parse_config({"algorithm": "gaussian"}).hyper()

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            model.Hyperparams(algorithm="tempered")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sources": 0},
            {"n_bases": 0},
            {"iterations": -1},
            {"floor_eps": 0.0},
            {"floor_eps": float("nan")},
            {"floor_eps": float("inf")},
        ],
    )
    def test_positive_counts(self, kwargs):
        with pytest.raises(ValueError):
            model.Hyperparams(**kwargs)

    def test_negative_seed_names_the_field(self):
        # checked only by the run parser before; init_state then failed inside numpy
        with pytest.raises(ValueError, match=r"^seed: must be >= 0, got -1$"):
            model.Hyperparams(seed=-1)


class TestInitState:
    def test_shapes_and_ranges(self):
        h = model.Hyperparams(n_sources=3, n_bases=4, seed=9)
        st = model.init_state(h, n_bins=6, n_frames=8, n_channels=2)
        assert st.source.T.shape == (6, 4)
        assert st.source.V.shape == (4, 8)
        assert st.source.Z.shape == (4, 3)
        assert st.spatial.G.shape == (6, 3, 2)
        assert st.spatial.Q.shape == (6, 2, 2)
        assert st.source.T.min() >= 0.1 and st.source.T.max() <= 1.0
        np.testing.assert_array_equal(st.spatial.G, 1.0)
        np.testing.assert_array_equal(st.spatial.Q, np.broadcast_to(np.eye(2), (6, 2, 2)))

    def test_seed_determinism(self):
        h = model.Hyperparams(seed=123)
        a = model.init_state(h, 5, 6, 2)
        b = model.init_state(h, 5, 6, 2)
        np.testing.assert_array_equal(a.source.T, b.source.T)
        np.testing.assert_array_equal(a.source.V, b.source.V)
        np.testing.assert_array_equal(a.source.Z, b.source.Z)

    def test_different_seeds_differ(self):
        a = model.init_state(model.Hyperparams(seed=1), 5, 6, 2)
        b = model.init_state(model.Hyperparams(seed=2), 5, 6, 2)
        assert not np.array_equal(a.source.T, b.source.T)


class TestStateOps:
    def test_dims(self):
        rng = np.random.default_rng(3)
        st = helpers.random_state(rng, n_bins=4, n_frames=9, n_channels=3, n_sources=2, n_bases=5)
        assert st.dims == (4, 9, 5, 2, 3)

    def test_validate_rejects_negative_factor(self):
        rng = np.random.default_rng(4)
        st = helpers.random_state(rng)
        st.source.T[0, 0] = -1.0
        with pytest.raises(ValueError):
            st.validate()

    def test_validate_rejects_nan(self):
        rng = np.random.default_rng(5)
        st = helpers.random_state(rng)
        st.spatial.G[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            st.validate()

    def test_validate_rejects_bad_shapes(self):
        rng = np.random.default_rng(6)
        st = helpers.random_state(rng)
        st.spatial.Q = st.spatial.Q[:-1]
        with pytest.raises(DimensionMismatchError):
            st.validate()

    def test_floor_lifts_small_entries(self):
        rng = np.random.default_rng(7)
        st = helpers.random_state(rng)
        st.source.T[0, 0] = 0.0
        st.spatial.G[1, 0, 0] = 1e-300
        st.floor()
        assert st.source.T[0, 0] == st.hyper.floor_eps
        assert st.spatial.G[1, 0, 0] == st.hyper.floor_eps

    def test_copy_is_deep(self):
        rng = np.random.default_rng(8)
        st = helpers.random_state(rng)
        other = st.copy()
        other.source.T[0, 0] = 99.0
        other.spatial.Q[0, 0, 0] = 99.0
        assert st.source.T[0, 0] != 99.0
        assert st.spatial.Q[0, 0, 0] != 99.0


class TestDerivedQuantities:
    def test_source_psd_matches_loops(self):
        rng = np.random.default_rng(11)
        st = helpers.random_state(rng, n_bins=3, n_frames=4, n_sources=2, n_bases=3)
        sigma = model.compute_source_psd(st.source)
        i, j, n = 1, 2, 1
        want = sum(
            st.source.T[i, k] * st.source.V[k, j] * st.source.Z[k, n]
            for k in range(st.source.T.shape[1])
        )
        assert sigma[i, j, n] == pytest.approx(want, rel=1e-12)
        assert sigma.min() > 0

    def test_mixture_gain_matches_loops(self):
        rng = np.random.default_rng(12)
        st = helpers.random_state(rng, n_bins=3, n_frames=4, n_channels=2, n_sources=2)
        chi = model.mixture_gain(st)
        sigma = model.compute_source_psd(st.source)
        i, j, m = 2, 1, 0
        want = sum(sigma[i, j, n] * st.spatial.G[i, n, m] for n in range(2))
        assert chi[i, j, m] == pytest.approx(want, rel=1e-12)

    def test_channel_gain_rejects_non_contiguous_out(self):
        # matmul would fill a reshaped copy and return out unwritten
        rng = np.random.default_rng(16)
        st = helpers.random_state(rng, n_bins=4, n_frames=5, n_channels=2)
        src = st.source
        out = np.zeros((5, 4, 2)).transpose(2, 1, 0)
        with pytest.raises(ValueError, match="C-contiguous"):
            model.channel_gain(src.T, src.V, src.Z, st.spatial.G, out)

    def test_projections_apply_stored_rows_without_conjugation(self):
        # rows of Q hold the already-conjugated steering direction, so the
        # projection is a plain (not Hermitian) inner product with the row
        rng = np.random.default_rng(13)
        st = helpers.random_state(rng, n_bins=3, n_frames=4, n_channels=3)
        X = helpers.random_mixture(rng, 3, 4, 3)
        p = model.projections(st, X)
        i, j, m = 1, 3, 2
        want = np.sum(st.spatial.Q[i, m] * X[i, j])
        assert p[i, j, m] == pytest.approx(want, rel=1e-12)

    def test_full_rank_scm_is_hermitian_psd(self):
        rng = np.random.default_rng(14)
        st = helpers.random_state(rng, n_bins=4, n_channels=3, n_sources=2)
        scm = oracles.full_rank_scm(st)
        assert scm.shape == (4, 2, 3, 3)
        np.testing.assert_allclose(scm, scm.conj().swapaxes(-1, -2), atol=1e-12)
        eig = np.linalg.eigvalsh(scm.reshape(-1, 3, 3))
        assert eig.min() > -1e-12

    def test_full_rank_scm_diagonalized_by_q(self):
        rng = np.random.default_rng(15)
        st = helpers.random_state(rng, n_bins=3, n_channels=2, n_sources=2)
        scm = oracles.full_rank_scm(st)
        q = st.spatial.Q
        for i in range(3):
            for n in range(2):
                d = q[i] @ scm[i, n] @ q[i].conj().T
                np.testing.assert_allclose(d, np.diag(st.spatial.G[i, n]), atol=1e-10)


class TestSpectrogramCheck:
    # every function that takes a state and a spectrogram runs the one check
    @pytest.mark.parametrize(
        "fn",
        [model.check_spectrogram, model.projections, objective.cost_ggd_jd,
         separate.wiener_separate, optimizer.run],
        ids=["check", "projections", "cost_ggd_jd", "wiener_separate", "run"],
    )
    @pytest.mark.parametrize(
        "shape,msg",
        [
            ((8, 6, 2), r"^spectrogram \(8, 6, 2\) has 8 bins; the state has 9 bins$"),
            ((9, 5, 2), r"^spectrogram \(9, 5, 2\) has 5 frames; the state has 6 frames$"),
            ((9, 6, 3), r"^spectrogram \(9, 6, 3\) has 3 channels; the state has 2 channels$"),
            ((9, 6), r"^spectrogram \(9, 6\) has 2 axes; the state needs 3 \(bins, "),
        ],
        ids=["bins", "frames", "channels", "axes"],
    )
    def test_names_the_axis(self, fn, shape, msg):
        rng = np.random.default_rng(17)
        st = helpers.random_state(rng, n_bins=9, n_frames=6, n_channels=2)
        X = np.ones(shape, dtype=np.complex128)
        with pytest.raises(DimensionMismatchError, match=msg):
            fn(st, X)


def _edit_array(name, edit):
    """A checkpoint edit that updates the entries of array `name` with edit(array)."""

    def apply(doc):
        array = doc["arrays"][name]
        return {**doc, "arrays": {**doc["arrays"], name: {**array, **edit(array)}}}

    return apply


def _edit_hyper(name, value):
    """A checkpoint edit that sets hyper[name] to value."""
    return lambda doc: {**doc, "hyper": {**doc["hyper"], name: value}}


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        st = helpers.random_state(rng, n_bins=4, n_frames=5, n_channels=2)
        path = tmp_path / "state.json"
        model.save_state(st, path)
        back = model.load_state(path)
        assert back.hyper == st.hyper
        np.testing.assert_array_equal(back.source.T, st.source.T)
        np.testing.assert_array_equal(back.source.V, st.source.V)
        np.testing.assert_array_equal(back.source.Z, st.source.Z)
        np.testing.assert_array_equal(back.spatial.G, st.spatial.G)
        np.testing.assert_array_equal(back.spatial.Q, st.spatial.Q)

    def test_negative_zero_survives_save_load_save(self, tmp_path):
        rng = np.random.default_rng(22)
        st = helpers.random_state(rng, n_bins=4, n_frames=5, n_channels=2)
        st.spatial.Q[0, 0, 0] = complex(0.5, -0.0)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        model.save_state(st, first)
        back = model.load_state(first)
        assert np.signbit(back.spatial.Q[0, 0, 0].imag)
        model.save_state(back, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "n_bins,n_frames,n_bases,n_ch",
        [
            (5, 7, 3, 2),
            # t ends exactly on a chunk boundary, then one entry past it
            (model._CHUNK // 16, 16, 16, 2),
            (model._CHUNK // 16 + 1, 16, 16, 3),
            (513, 128, 20, 2),  # the operating point
        ],
    )
    def test_bytes_equal_whole_document_dumps(self, tmp_path, n_bins, n_frames, n_bases, n_ch):
        rng = np.random.default_rng(24)
        st = helpers.random_state(rng, n_bins=n_bins, n_frames=n_frames, n_channels=n_ch,
                                  n_sources=n_ch, n_bases=n_bases)
        path = tmp_path / "state.json"
        model.save_state(st, path)
        assert path.read_text() == oracles.state_document(st)

    def test_edge_values_bytes_equal_whole_document_dumps(self, tmp_path):
        rng = np.random.default_rng(25)
        st = helpers.random_state(rng, n_bins=4, n_frames=5, n_channels=2)
        edges = [5e-324, 1e-310, 1.7e308, 1.0, 0.1]
        st.source.T.flat[: len(edges)] = edges
        st.spatial.G.flat[: len(edges)] = edges
        st.spatial.Q.flat[:4] = [complex(0.5, -0.0), complex(-0.0, 1.7e308),
                                 complex(-5e-324, 1e-310), complex(-1.7e308, -1e-310)]
        path = tmp_path / "state.json"
        model.save_state(st, path)
        text = path.read_text()
        assert text == oracles.state_document(st)
        assert all(token in text for token in ["-0.0", "5e-324", "1e-310", "1.7e+308"])

    @pytest.mark.parametrize("name,index,value", [
        ("t", 0, math.nan), ("v", 7, math.inf), ("z", 4, -math.inf),
        ("g", 11, math.nan), ("q", 3, complex(0.0, math.inf)), ("q", 9, complex(math.nan, 0.0)),
    ])
    def test_nonfinite_state_is_refused_before_the_file(self, tmp_path, name, index, value):
        rng = np.random.default_rng(26)
        st = helpers.random_state(rng, n_bins=4, n_frames=5, n_channels=2)
        arrays = {"t": st.source.T, "v": st.source.V, "z": st.source.Z,
                  "g": st.spatial.G, "q": st.spatial.Q}
        arrays[name].flat[index] = value
        arrays[name].flat[index + 1] = value  # only the first bad index is named
        path = tmp_path / "state.json"
        with pytest.raises(NonFiniteError, match=f"'{name}' is NaN/Inf at flat index {index}$"):
            model.save_state(st, path)
        assert not path.exists()

    def test_truncated_file_names_the_path(self, tmp_path):
        # json.load's bare JSONDecodeError named no file
        path = tmp_path / "state.json"
        model.save_state(helpers.random_state(np.random.default_rng(28)), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON "):
            model.load_state(path)

    def test_save_peak_memory_bound(self, tmp_path):
        # one json.dumps of the whole operating-point document peaks at
        # 2.47 MiB; streaming it in chunks keeps about 0.14 MiB
        rng = np.random.default_rng(27)
        st = helpers.random_state(rng, n_bins=513, n_frames=128, n_channels=2, n_sources=2,
                                  n_bases=20)
        _, peak = helpers.traced_peak(model.save_state, st, tmp_path / "state.json")
        assert peak <= 0.5 * 2**20

    @pytest.mark.parametrize(
        "edit,msg",
        [
            (lambda doc: {"format": "something-else"}, "not a state checkpoint"),
            (lambda doc: [doc], "not a state checkpoint"),
            (lambda doc: {**doc, "version": 99}, "unsupported checkpoint version 99"),
            (lambda doc: {k: v for k, v in doc.items() if k != "hyper"}, "lacks 'hyper'"),
            (lambda doc: {k: v for k, v in doc.items() if k != "arrays"}, "or 'arrays'"),
            (lambda doc: {**doc, "arrays": {k: v for k, v in doc["arrays"].items() if k != "g"}},
             "lacks array 'g'"),
            (_edit_hyper("gamma", 1.0), "gamma: unknown field"),
            # a value of the wrong type is refused, not left to fail inside the optimizer
            (_edit_hyper("iterations", 2.5), "iterations: expected an integer, got 2.5"),
            (_edit_hyper("seed", 1.5), "seed: expected an integer, got 1.5"),
            (_edit_hyper("n_bases", 3.0), "n_bases: expected an integer, got 3.0"),
            (_edit_hyper("floor_eps", True), "floor_eps: expected a number, got True"),
            (lambda doc: {**doc, "arrays": {**doc["arrays"], "t": [1.0, 2.0]}},
             "array 't' is not an object"),
            (lambda doc: {**doc, "arrays": {**doc["arrays"], "q": {**doc["arrays"]["q"],
                                                                  "shape": [3, 3]}}},
             "array 'q'"),
            (_edit_array("t", lambda a: {"data": [-1.0] + a["data"][1:]}), "negative entries"),
            (_edit_array("t", lambda a: {"shape": [len(a["data"]), 1]}), "basis counts disagree"),
            (_edit_array("q", lambda a: {"real": [math.nan] + a["real"][1:]}), "Q contains NaN"),
        ],
        ids=["wrong_tag", "not_object", "version_99", "no_hyper", "no_arrays", "no_array_g",
             "unknown_hyper_key", "float_iterations", "float_seed", "float_n_bases",
             "bool_floor_eps", "array_not_object", "shape_disagrees", "negative_t",
             "basis_counts_disagree", "nan_in_q"],
    )
    def test_rejects_wrong_format_tag(self, tmp_path, edit, msg):
        rng = np.random.default_rng(23)
        path = tmp_path / "bogus.json"
        model.save_state(helpers.random_state(rng), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(msg)}"):
            model.load_state(path)
