"""Config documents and the simulate/separate/evaluate pipeline."""

import json
import os

import numpy as np
import pytest

from sgmnmf import audio, cli, config, model, objective
from sgmnmf.errors import ConfigError


class TestRunConfig:
    def test_defaults(self):
        cfg = config.parse_config({})
        assert cfg.algorithm == "subgaussian"
        assert cfg.beta == 4.0
        assert cfg.n_sources == 2
        assert cfg.n_bases == 20
        assert cfg.iterations == 200
        assert cfg.window_ms == 64.0
        assert cfg.hop_ms == 16.0
        assert cfg.trace is True
        assert cfg.mixture is None

    def test_gaussian_defaults_beta_two(self):
        cfg = config.parse_config({"algorithm": "gaussian"})
        assert cfg.beta == 2.0
        cfg.hyper()  # must construct without error

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            config.parse_config({"alpha": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="stft.fft_size"):
            config.parse_config({"stft": {"fft_size": 512}})

    @pytest.mark.parametrize("beta", [2.0, 4.0001, 0.5])
    def test_subgaussian_beta_range_enforced(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            config.parse_config({"beta": beta})

    def test_gaussian_beta_pinned(self):
        with pytest.raises(ConfigError, match="beta"):
            config.parse_config({"algorithm": "gaussian", "beta": 3.0})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="iterations"):
            config.parse_config({"iterations": True})

    def test_hop_bounded_by_window(self):
        with pytest.raises(ConfigError, match="hop_ms"):
            config.parse_config({"stft": {"window_ms": 32.0, "hop_ms": 64.0}})

    def test_paths_and_stft_round_trip(self):
        cfg = config.parse_config(
            {
                "stft": {"window_ms": 32.0, "hop_ms": 8.0},
                "paths": {"mixture": "in.wav", "out": "outdir"},
                "iterations": 3,
            }
        )
        stft_cfg = cfg.stft_config(16000)
        assert stft_cfg.window_length == 512
        assert stft_cfg.hop == 128
        assert cfg.mixture == "in.wav"
        assert cfg.out == "outdir"

    def test_hyper_mirrors_fields(self):
        cfg = config.parse_config({"beta": 3.0, "n_bases": 7, "seed": 5})
        h = cfg.hyper()
        assert h.beta == 3.0
        assert h.n_bases == 7
        assert h.seed == 5


class TestSceneConfig:
    def test_defaults(self):
        scene = config.parse_scene_config({})
        assert scene.room.n_sources == 2
        assert scene.room.rt60 == 0.3
        assert scene.duration_s == 2.0
        assert scene.source_kinds == ["am_tone", "am_tone"]
        assert scene.snr_db == 0.0

    def test_kind_broadcast_and_list(self):
        scene = config.parse_scene_config({"source_kind": "uniform_iid"})
        assert scene.source_kinds == ["uniform_iid", "uniform_iid"]
        scene = config.parse_scene_config(
            {"source_kind": ["am_tone", "uniform_iid"]}
        )
        assert scene.source_kinds == ["am_tone", "uniform_iid"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="source_kind"):
            config.parse_scene_config({"source_kind": "speech"})

    def test_bad_delays_become_config_error(self):
        with pytest.raises(ConfigError):
            config.parse_scene_config({"direct_delay": [[0, 1]]})  # wrong shape

    def test_to_dict_is_json_ready(self):
        scene = config.parse_scene_config({"seed": 3})
        doc = scene.to_dict()
        json.dumps(doc)
        assert doc["seed"] == 3
        assert doc["direct_delay"] == [[4, 5], [5, 7]]


class TestEvalConfig:
    def test_minimal_document(self):
        cfg = config.parse_eval_config(
            {
                "estimates": ["a.wav"],
                "references": ["b.wav"],
                "mixture": "m.wav",
            }
        )
        assert cfg.ref_channel == 0
        assert cfg.out == "."

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="references"):
            config.parse_eval_config(
                {
                    "estimates": ["a.wav", "b.wav"],
                    "references": ["c.wav"],
                    "mixture": "m.wav",
                }
            )

    def test_missing_mixture_rejected(self):
        with pytest.raises(ConfigError, match="mixture"):
            config.parse_eval_config(
                {"estimates": ["a.wav"], "references": ["b.wav"]}
            )


class TestWorkersResolution:
    def test_env_beats_flag(self, monkeypatch):
        monkeypatch.setenv("SGMNMF_WORKERS", "3")
        assert cli._resolve_workers(8) == 3

    def test_flag_beats_default(self, monkeypatch):
        monkeypatch.delenv("SGMNMF_WORKERS", raising=False)
        assert cli._resolve_workers(4) == 4
        assert cli._resolve_workers(None) == 1

    def test_garbage_env_is_an_error(self, monkeypatch):
        monkeypatch.setenv("SGMNMF_WORKERS", "many")
        with pytest.raises(Exception):
            cli._resolve_workers(None)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A rendered synthetic scene shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("scene")
    spec = out / "scene_spec.json"
    spec.write_text(json.dumps({"seed": 3, "duration_s": 0.8}))
    rc = cli.main(["simulate", "--spec", str(spec), "--out", str(out)])
    assert rc == 0
    return out


class TestPipeline:
    def test_simulate_outputs(self, scene_dir):
        for name in ("mixture.wav", "image_0.wav", "image_1.wav",
                     "dry_0.wav", "dry_1.wav", "scene.json"):
            assert (scene_dir / name).exists()
        doc = json.loads((scene_dir / "scene.json").read_text())
        assert doc["derived_seeds"]["rir_root"] == 3
        mix = audio.read_wav(scene_dir / "mixture.wav")
        assert mix.n_channels == 2
        assert mix.n_samples == 12800

    def test_simulate_mixture_is_sum_of_images(self, scene_dir):
        mix = audio.read_wav(scene_dir / "mixture.wav")
        im0 = audio.read_wav(scene_dir / "image_0.wav")
        im1 = audio.read_wav(scene_dir / "image_1.wav")
        # float32 storage rounds each file independently
        np.testing.assert_allclose(
            mix.data, im0.data + im1.data, atol=1e-6
        )

    def test_separate_then_evaluate(self, scene_dir, tmp_path):
        out = tmp_path / "sep"
        run_doc = {
            "iterations": 2,
            "n_bases": 4,
            "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
        }
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        rc = cli.main(["separate", "--config", str(run_path)])
        assert rc == 0
        for name in ("source_0.wav", "source_1.wav", "state.json", "trace.csv"):
            assert (out / name).exists()

        trace = objective.CostTrace.read_csv(out / "trace.csv")
        assert trace.iterations == [1, 2]
        costs = np.asarray(trace.costs)
        assert (np.diff(costs) <= 1e-8 * np.abs(costs[:-1])).all()

        state = model.load_state(out / "state.json")
        assert state.hyper.n_bases == 4

        eval_doc = {
            "estimates": [str(out / "source_0.wav"), str(out / "source_1.wav")],
            "references": [str(scene_dir / "image_0.wav"), str(scene_dir / "image_1.wav")],
            "mixture": str(scene_dir / "mixture.wav"),
            "out": str(out),
        }
        eval_path = tmp_path / "eval.json"
        eval_path.write_text(json.dumps(eval_doc))
        rc = cli.main(["evaluate", "--config", str(eval_path)])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["metric"] == "si_sdr"
        assert len(doc["per_source"]) == 2
        assert len(doc["improvement"]) == 2
        assert sorted(doc["permutation"]) == [0, 1]
        assert np.isfinite(doc["mean_improvement"])

    def test_zero_iterations_writes_initial_state_filter(self, scene_dir, tmp_path):
        out = tmp_path / "sep0"
        run_doc = {
            "iterations": 0,
            "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
        }
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        rc = cli.main(["separate", "--config", str(run_path)])
        assert rc == 0
        # empty trace, but the Wiener filter of the untouched state runs
        assert (out / "trace.csv").read_text().strip() == "iteration,cost,ms"
        state = model.load_state(out / "state.json")
        np.testing.assert_array_equal(state.spatial.G, 1.0)
        s0 = audio.read_wav(out / "source_0.wav")
        mix = audio.read_wav(scene_dir / "mixture.wav")
        assert s0.n_samples == mix.n_samples

    def test_trace_suppressed_when_disabled(self, scene_dir, tmp_path):
        out = tmp_path / "sep_notrace"
        run_doc = {
            "iterations": 1,
            "n_bases": 3,
            "trace": False,
            "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
        }
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        assert cli.main(["separate", "--config", str(run_path)]) == 0
        assert not (out / "trace.csv").exists()

    def test_mono_mixture_is_an_error(self, tmp_path, capsys):
        mono = tmp_path / "mono.wav"
        audio.write_wav(mono, audio.Waveform(16000, np.zeros((1000, 1))))
        run_doc = {"paths": {"mixture": str(mono), "out": str(tmp_path / "o")}}
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        rc = cli.main(["separate", "--config", str(run_path)])
        assert rc == 1
        assert ">= 2 channels" in capsys.readouterr().err

    def test_non_finite_mixture_is_an_error(self, tmp_path, capsys):
        data = np.zeros((1000, 2))
        data[123, 1] = np.nan
        mix = tmp_path / "nan.wav"
        audio.write_wav(mix, audio.Waveform(16000, data))
        out = tmp_path / "o"
        run_doc = {"iterations": 1, "paths": {"mixture": str(mix), "out": str(out)}}
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        rc = cli.main(["separate", "--config", str(run_path)])
        assert rc == 1
        assert "nan.wav: non-finite value nan at channel 1, sample 123" in capsys.readouterr().err
        assert not (out / "state.json").exists()

    @pytest.mark.parametrize("kind", ["mono", "nan"])
    def test_rejected_mixture_leaves_no_output_dir(self, tmp_path, kind):
        data = np.zeros((1000, 1 if kind == "mono" else 2))
        if kind == "nan":
            data[123, 1] = np.nan
        mix = tmp_path / f"{kind}.wav"
        audio.write_wav(mix, audio.Waveform(16000, data))
        out = tmp_path / "o"
        run_doc = {"iterations": 1, "paths": {"mixture": str(mix), "out": str(out)}}
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        assert cli.main(["separate", "--config", str(run_path)]) == 1
        assert not out.exists()

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        rc = cli.main(["separate", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["separate", "--config", str(bad)])
        assert rc == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_reproducible_traces_across_runs(self, scene_dir, tmp_path):
        docs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{tag}"
            run_doc = {
                "iterations": 3,
                "n_bases": 4,
                "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
            }
            run_path = tmp_path / f"run_{tag}.json"
            run_path.write_text(json.dumps(run_doc))
            assert cli.main(["separate", "--config", str(run_path)]) == 0
            docs.append((out / "trace.csv").read_text())
        # the ms column is timing noise; iteration and cost columns must
        # match byte for byte
        strip = lambda text: [",".join(line.split(",")[:2]) for line in text.splitlines()]
        assert strip(docs[0]) == strip(docs[1])

    def test_workers_env_pipeline(self, scene_dir, tmp_path, monkeypatch):
        outs = []
        for tag, env in (("w1", "1"), ("w2", "2")):
            out = tmp_path / tag
            run_doc = {
                "iterations": 2,
                "n_bases": 3,
                "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
            }
            run_path = tmp_path / f"{tag}.json"
            run_path.write_text(json.dumps(run_doc))
            monkeypatch.setenv("SGMNMF_WORKERS", env)
            assert cli.main(["separate", "--config", str(run_path)]) == 0
            outs.append(out)
        a = model.load_state(outs[0] / "state.json")
        b = model.load_state(outs[1] / "state.json")
        np.testing.assert_array_equal(a.spatial.Q, b.spatial.Q)
        np.testing.assert_array_equal(a.source.T, b.source.T)
