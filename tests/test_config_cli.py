"""Config documents and the simulate/separate/evaluate pipeline."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

import helpers
from sgmnmf import audio, cli, config, model, objective, separate, simulate
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config.parse_config({"seed": -1})

    def test_hop_under_one_sample_rejected(self):
        cfg = config.parse_config({"stft": {"hop_ms": 0.01}})
        with pytest.raises(ConfigError, match=r"stft\.hop_ms: .* 16000 Hz"):
            cfg.stft_config(16000)

    def test_sample_count_overflow_names_the_field(self):
        cfg = config.parse_config({"stft": {"window_ms": 1e308, "hop_ms": 1e308}})
        with pytest.raises(ConfigError, match=r"^stft\.window_ms: 1e\+308 ms overflows"):
            cfg.stft_config(16000)

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

    def test_documented_defaults_equal_empty_document(self):
        # every key of the README's run table, at its documented default
        doc = {
            "algorithm": "subgaussian",
            "beta": 4.0,
            "n_sources": 2,
            "n_bases": 20,
            "iterations": 200,
            "seed": 0,
            "stft": {"window_ms": 64, "hop_ms": 16},
            "floor_eps": 1e-12,
            "paths": {},
            "trace": True,
        }
        assert config.parse_config(doc) == config.parse_config({})
        gaussian = {"algorithm": "gaussian"}
        assert config.parse_config({**gaussian, "beta": 2.0}) == config.parse_config(gaussian)
        # every field is read: each set away from its default parses to that value
        values = {
            "beta": 2.0, "n_sources": 3, "n_bases": 7, "iterations": 5, "floor_eps": 1e-9,
            "seed": 4, "algorithm": "gaussian", "window_ms": 32.0, "hop_ms": 8.0,
            "mixture": "m.wav", "out": "o", "trace": False,
        }
        assert all(values[f.name] != f.default for f in dataclasses.fields(config.RunConfig))
        stft = {key: values[key] for key in ("window_ms", "hop_ms")}
        paths = {key: values[key] for key in ("mixture", "out")}
        top = {key: val for key, val in values.items() if key not in {*stft, *paths}}
        doc = {**top, "stft": stft, "paths": paths}
        assert dataclasses.asdict(config.parse_config(doc)) == values
        subgaussian = {**doc, "algorithm": "subgaussian", "beta": 3.0}
        assert config.parse_config(subgaussian).beta == 3.0

    def test_hyper_mirrors_fields(self):
        cfg = config.parse_config({"beta": 3.0, "n_bases": 7, "seed": 5})
        h = cfg.hyper()
        assert h.beta == 3.0
        assert h.n_bases == 7
        assert h.seed == 5

    def test_state_from_run_config_round_trips(self, tmp_path):
        # a RunConfig is a Hyperparams; save_state writes only the model's
        # fields, not window_ms and the other run settings
        cfg = config.parse_config({})
        path = tmp_path / "state.json"
        model.save_state(model.init_state(cfg, 5, 4, 2), path)
        assert list(json.loads(path.read_text())["hyper"]) == [
            f.name for f in dataclasses.fields(model.Hyperparams)]
        assert model.load_state(path).hyper == cfg.hyper()

    def test_hyper_is_a_plain_hyperparams(self, tmp_path):
        cfg = config.parse_config({"stft": {"window_ms": 32.0, "hop_ms": 8.0}, "trace": False})
        hyper = cfg.hyper()
        assert type(hyper) is model.Hyperparams
        path = tmp_path / "state.json"
        model.save_state(model.init_state(hyper, 5, 4, 2), path)
        assert json.loads(path.read_text())["hyper"] == dataclasses.asdict(hyper)
        assert model.load_state(path).hyper == hyper


class TestSceneConfig:
    def test_defaults(self):
        scene = config.parse_scene_config({})
        assert scene.n_sources == 2
        assert scene.rt60 == 0.3
        assert scene.duration_s == 2.0
        assert scene.source_kind == ["am_tone", "am_tone"]
        assert scene.snr_db == 0.0

    def test_kind_broadcast_and_list(self):
        scene = config.parse_scene_config({"source_kind": "uniform_iid"})
        assert scene.source_kind == ["uniform_iid", "uniform_iid"]
        scene = config.parse_scene_config(
            {"source_kind": ["am_tone", "uniform_iid"]}
        )
        assert scene.source_kind == ["am_tone", "uniform_iid"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="source_kind"):
            config.parse_scene_config({"source_kind": "speech"})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config.parse_scene_config({"seed": -1})

    @pytest.mark.parametrize("duration_s,length", [(1e-6, 0), (2 / 16000, 2)])
    def test_duration_before_direct_path_rejected(self, duration_s, length):
        # the default delays reach channel 1 at samples 4 and 5
        with pytest.raises(ConfigError, match=rf"duration_s: .* {length} samples at 16000 Hz"):
            config.parse_scene_config({"duration_s": duration_s})

    @pytest.mark.parametrize(
        "doc", [{"duration_s": 1e305}, {"sample_rate": 10**30}, {"sample_rate": 10**400}]
    )
    def test_unusable_sample_count_names_duration(self, doc):
        # 1e305 s overflowed int(round(...)); 10**30 Hz failed inside np.arange
        with pytest.raises(ConfigError, match=r"^duration_s: .* more samples than an array holds"):
            config.parse_scene_config(doc)

    def test_library_scene_is_a_document(self):
        # the constructor broadcasts a single kind and checks what the parser checks
        scene = config.SceneConfig(source_kind="uniform_iid")
        assert scene.source_kind == ["uniform_iid", "uniform_iid"]
        assert scene.to_dict() == config.parse_scene_config({"source_kind": "uniform_iid"}).to_dict()
        with pytest.raises(ConfigError, match=r"^duration_s: "):
            config.SceneConfig(duration_s=float("nan"))

    def test_bad_delays_become_config_error(self):
        with pytest.raises(ConfigError):
            config.parse_scene_config({"direct_delay": [[0, 1]]})  # wrong shape

    @pytest.mark.parametrize("delay", [4.7, True, "7", 1e30, 10**30])
    def test_non_integer_or_huge_delay_names_the_field(self, delay):
        # an int64 cast truncated 4.7, read true and "7" as numbers, and overflowed on 1e30
        with pytest.raises(ConfigError, match=r"^direct_delay: "):
            config.parse_scene_config({"direct_delay": [[delay, 5], [5, 7]]})

    def test_to_dict_is_json_ready(self):
        scene = config.parse_scene_config({"seed": 3})
        doc = scene.to_dict()
        json.dumps(doc)
        assert doc["seed"] == 3
        assert doc["direct_delay"] == [[4, 5], [5, 7]]


    def test_documented_defaults_equal_empty_document(self):
        # every key of the README's scene table, at its documented default
        doc = {
            "n_sources": 2,
            "n_mics": 2,
            "rt60": 0.3,
            "direct_delay": [[4, 5], [5, 7]],
            "filter_length": 4800,
            "seed": 0,
            "sample_rate": 16000,
            "tail_gain": 0.05,
            "duration_s": 2.0,
            "source_kind": "am_tone",
            "snr_db": 0.0,
        }
        assert config.parse_scene_config(doc).to_dict() == config.parse_scene_config({}).to_dict()
        # every field is read: each set away from its default parses to that value
        values = {
            "n_sources": 3,
            "n_mics": 3,
            "rt60": 0.5,
            "direct_delay": [[1, 2, 3], [2, 3, 4], [3, 4, 5]],
            "filter_length": 1000,
            "seed": 9,
            "sample_rate": 8000,
            "tail_gain": 0.1,
            "duration_s": 1.5,
            "source_kind": ["uniform_iid", "comod_multitone", "am_tone"],
            "snr_db": 3.0,
        }
        assert all(values[f.name] != f.default for f in dataclasses.fields(config.SceneConfig))
        assert config.parse_scene_config(values).to_dict() == values

    def test_to_dict_key_order(self):
        # the layout of scene.json
        assert list(config.parse_scene_config({}).to_dict()) == [
            "n_sources",
            "n_mics",
            "rt60",
            "direct_delay",
            "filter_length",
            "seed",
            "sample_rate",
            "tail_gain",
            "duration_s",
            "source_kind",
            "snr_db",
        ]


def test_config_error_is_a_value_error():
    # library callers that catch ValueError from a constructor keep working
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ValueError, match=r"^seed: must be >= 0, got -1$"):
        config.parse_config({"seed": -1})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "parse,doc,field",
    [
        (config.parse_config, {"floor_eps": NAN}, "floor_eps"),
        (config.parse_config, {"floor_eps": INF}, "floor_eps"),
        (config.parse_config, {"stft": {"window_ms": INF, "hop_ms": INF}}, "stft.window_ms"),
        (config.parse_config, {"stft": {"hop_ms": NAN}}, "stft.hop_ms"),
        (config.parse_scene_config, {"duration_s": NAN}, "duration_s"),
        (config.parse_scene_config, {"duration_s": INF}, "duration_s"),
        (config.parse_scene_config, {"duration_s": 10**400}, "duration_s"),
        (config.parse_scene_config, {"rt60": NAN}, "rt60"),
        (config.parse_scene_config, {"tail_gain": NAN}, "tail_gain"),
        (config.parse_scene_config, {"snr_db": NAN}, "snr_db"),
        (config.parse_scene_config, {"snr_db": -INF}, "snr_db"),
    ],
)
def test_non_finite_number_rejected(parse, doc, field):
    # json.loads reads NaN and Infinity
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: must be finite"):
        parse(doc)


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_document_encodings_are_read(tmp_path, encoding):
    # utf-8-sig writes the byte order mark Windows Notepad adds
    doc = {"iterations": 3, "paths": {"mixture": "m.wav"}}
    path = tmp_path / "run.json"
    path.write_bytes(json.dumps(doc).encode(encoding))
    assert config.load_json(path) == doc


# the section of each run field that is not at the top level
SECTIONS = {"window_ms": "stft", "hop_ms": "stft", "mixture": "paths", "out": "paths"}
# values of the wrong type for each declared type a reader checks
WRONG_VALUES = {float: ["4.0", True], int: ["4", 2.5, True], str: [1], bool: ["yes"]}


def _wrong_type_cases():
    docs = {"run": config.RunConfig, "scene": config.SceneConfig, "eval": config.EvalConfig,
            "checkpoint": model.Hyperparams}
    for kind, cls in docs.items():
        for f in dataclasses.fields(cls):
            for value in WRONG_VALUES.get(f.type, []):
                yield pytest.param(kind, f.name, value, id=f"{kind}-{f.name}-{value!r}")


@pytest.mark.parametrize("kind,name,value", list(_wrong_type_cases()))
def test_wrong_type_names_the_field(tmp_path, kind, name, value):
    section = SECTIONS.get(name) if kind == "run" else None
    field = f"{section}.{name}" if section else name
    if kind == "checkpoint":
        path = tmp_path / "state.json"
        model.save_state(helpers.random_state(np.random.default_rng(0)), path)
        doc = json.loads(path.read_text())
        doc["hyper"][name] = value
        path.write_text(json.dumps(doc))
        message = rf"^{re.escape(str(path))}: invalid checkpoint: {field}: expected "
        with pytest.raises(ValueError, match=message):
            model.load_state(path)
        return
    parse = {"run": config.parse_config, "scene": config.parse_scene_config,
             "eval": config.parse_eval_config}[kind]
    doc = {section: {name: value}} if section else {name: value}
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected "):
        parse(doc)


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

    def test_documented_defaults_equal_minimal_document(self):
        doc = {"estimates": ["a.wav"], "references": ["b.wav"], "mixture": "m.wav"}
        full = {**doc, "ref_channel": 0, "out": "."}
        assert config.parse_eval_config(full) == config.parse_eval_config(doc)
        # every field is read: each set away from its default parses to that value
        values = {
            "estimates": ["a.wav", "b.wav"],
            "references": ["c.wav", "d.wav"],
            "mixture": "n.wav",
            "ref_channel": 1,
            "out": "scores",
        }
        assert all(values[f.name] != f.default for f in dataclasses.fields(config.EvalConfig))
        assert dataclasses.asdict(config.parse_eval_config(values)) == values

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="references"):
            config.parse_eval_config(
                {
                    "estimates": ["a.wav", "b.wav"],
                    "references": ["c.wav"],
                    "mixture": "m.wav",
                }
            )

    @pytest.mark.parametrize("estimates", ["a.wav", [], [1]])
    def test_library_estimates_must_be_a_list_of_paths(self, estimates):
        # the rule held only by the parser before: a string counted its
        # characters against the references, and empty lists were accepted
        with pytest.raises(ConfigError, match=r"^estimates: expected a non-empty list"):
            config.EvalConfig(estimates=estimates, references=["b.wav"] * len(estimates),
                              mixture="m.wav")

    def test_missing_mixture_rejected(self):
        with pytest.raises(ConfigError, match="mixture"):
            config.parse_eval_config(
                {"estimates": ["a.wav"], "references": ["b.wav"]}
            )


class TestWorkersResolution:
    def test_flag_beats_default(self):
        parser = cli.build_parser()
        assert parser.parse_args(["--workers", "4", "separate", "--config", "x"]).workers == 4
        assert parser.parse_args(["separate", "--config", "x"]).workers == 1

    def test_worker_count_below_one_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps({"paths": {"mixture": "m.wav", "out": str(out)}}))
        assert cli.main(["--workers", "0", "separate", "--config", str(run_path)]) == 1
        assert "error: --workers: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


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

    def test_simulate_comod_multitone(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 4, "duration_s": 0.5, "source_kind": "comod_multitone"}))
        out = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        doc = json.loads((out / "scene.json").read_text())
        assert doc["source_kind"] == ["comod_multitone", "comod_multitone"]
        # the dries are the package's sources, scaled by the power balance
        for n in range(2):
            dry = audio.read_wav(out / f"dry_{n}.wav").channel(0)
            want = simulate.gen_subgaussian_source(8000, "comod_multitone", [4, 7001 + n])
            ratio = dry / want.channel(0)
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-6)

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
        assert sorted(p.name for p in out.glob("source_*.wav")) == ["source_0.wav", "source_1.wav"]
        mix = audio.read_wav(scene_dir / "mixture.wav")
        for n in range(2):
            wav = audio.read_wav(out / f"source_{n}.wav")
            assert (wav.n_samples, wav.n_channels) == (mix.n_samples, 2)

        trace = objective.CostTrace.read_csv(out / "trace.csv")
        assert trace.iterations == [1, 2]
        costs = np.asarray(trace.costs)
        assert (np.diff(costs) <= 1e-8 * np.abs(costs[:-1])).all()

        state = model.load_state(out / "state.json")
        assert state.hyper.n_bases == 4
        # each file holds its source's synthesized image, float32-rounded
        X = audio.stft(mix, helpers.stft_16k())
        for n, image in enumerate(separate.wiener_separate(state, X).spectra):
            want = audio.istft(image, helpers.stft_16k(), mix.n_samples).data
            got = audio.read_wav(out / f"source_{n}.wav").data
            np.testing.assert_array_equal(got, want.astype(np.float32))

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

    def test_separate_peak_memory_bound(self, tmp_path):
        # at 513 bins x 128 frames x 2 channels the optimizer's working
        # set and the Wiener filter each peak near 4.7x X.nbytes; keeping
        # every source's spectrum and waveform and the mixture's samples
        # until the last write took 5.6x
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 0, "duration_s": 2.0}))
        scene = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(scene)]) == 0
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps({
            "iterations": 3,
            "paths": {"mixture": str(scene / "mixture.wav"), "out": str(tmp_path / "out")},
        }))
        X = audio.stft(audio.read_wav(scene / "mixture.wav"), helpers.stft_16k())
        assert X.shape == (513, 128, 2)
        rc, peak = helpers.traced_peak(cli.main, ["separate", "--config", str(run_path)])
        assert rc == 0
        assert peak <= 5.0 * X.nbytes

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

    @pytest.mark.parametrize("kind", ["mono", "nan", "zero_channel", "silent", "copy", "half"])
    def test_rejected_mixture_leaves_no_output_dir(self, tmp_path, capsys, kind):
        # channel 1 a copy or half of channel 0 needs a mixture longer
        # than the 1024-sample window to reach the covariance check
        n_samples = 4000 if kind in ("copy", "half") else 1000
        data = np.zeros((n_samples, 1 if kind == "mono" else 2))
        if kind == "nan":
            data[123, 1] = np.nan
        if kind in ("zero_channel", "copy", "half"):
            data[:, 0] = np.random.default_rng(390).uniform(-0.5, 0.5, n_samples)
        if kind in ("copy", "half"):
            data[:, 1] = (1.0 if kind == "copy" else 0.5) * data[:, 0]
        mix = tmp_path / f"{kind}.wav"
        audio.write_wav(mix, audio.Waveform(16000, data))
        out = tmp_path / "o"
        run_doc = {"iterations": 1, "paths": {"mixture": str(mix), "out": str(out)}}
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        assert cli.main(["separate", "--config", str(run_path)]) == 1
        message = {
            "zero_channel": f"error: {mix}: channel 1 has no nonzero sample",
            "silent": f"error: {mix}: the mixture has no nonzero sample",
            "copy": f"error: {mix}: the channels are linearly dependent in every frequency bin",
            "half": f"error: {mix}: the channels are linearly dependent in every frequency bin",
        }
        assert message.get(kind, "error: ") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration_s", [1e-6, 2 / 16000, float("inf"), float("nan"), 1e305])
    def test_rejected_scene_leaves_no_output_dir(self, tmp_path, capsys, duration_s):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": duration_s}))
        out = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
        assert "error: duration_s: " in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_delay_leaves_no_output_dir(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"direct_delay": [[4.5, 5], [5, 7]]}))
        out = tmp_path / "scene"
        assert cli.main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
        assert "error: direct_delay: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["separate", "evaluate"])
    def test_malformed_wav_is_an_error(self, tmp_path, capsys, command):
        bad = tmp_path / "odd.wav"
        bad.write_bytes(helpers.wav_bytes(b"\x00\x01\x02"))  # 1.5 PCM16 samples
        out = tmp_path / "o"
        if command == "separate":
            doc = {"paths": {"mixture": str(bad), "out": str(out)}}
        else:
            doc = {"estimates": [str(bad)], "references": [str(bad)],
                   "mixture": str(bad), "out": str(out)}
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(doc_path)]) == 1
        assert "odd.wav: data chunk of 3 bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,doc",
        [
            ("seed", {"seed": -1}),
            ("stft.hop_ms", {"stft": {"hop_ms": 0.01}}),
            ("stft.window_ms", {"stft": {"window_ms": 1e6}}),  # 16 M samples
            ("stft.window_ms", {"stft": {"window_ms": 1e308, "hop_ms": 1e308}}),
            ("n_bases", {"n_bases": 10**20}),  # beyond any array dimension
            ("n_sources", {"n_sources": 2**62}),  # G would hold over 2**63 entries
        ],
    )
    def test_rejected_config_leaves_no_output_dir(self, scene_dir, tmp_path, capsys, field, doc):
        out = tmp_path / "o"
        run_doc = {
            "iterations": 1,
            "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
            **doc,
        }
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run_doc))
        assert cli.main(["separate", "--config", str(run_path)]) == 1
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_leaves_no_output_dir(self, scene_dir, tmp_path, capsys, monkeypatch):
        def init_state(*args):
            raise MemoryError("Unable to allocate 146. TiB")

        monkeypatch.setattr(model, "init_state", init_state)
        out = tmp_path / "o"
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps({"paths": {"mixture": str(scene_dir / "mixture.wav"),
                                                  "out": str(out)}}))
        assert cli.main(["separate", "--config", str(run_path)]) == 1
        assert "error: out of memory: Unable to allocate 146. TiB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sample_rate", "length"])
    def test_evaluate_rejects_a_mismatch_naming_the_file(self, scene_dir, tmp_path, capsys, kind):
        # the mixture relabelled as 8 kHz, or a 0.5 s estimate against 0.8 s references
        images = [scene_dir / "image_0.wav", scene_dir / "image_1.wav"]
        mixture = scene_dir / "mixture.wav"
        bad = tmp_path / "bad.wav"
        if kind == "sample_rate":
            audio.write_wav(bad, audio.Waveform(8000, audio.read_wav(mixture).data))
            estimates, mixture, message = images, bad, "sample rate 8000 != sample rate 16000"
        else:
            audio.write_wav(bad, audio.Waveform(16000, audio.read_wav(images[1]).data[:8000]))
            estimates, message = [images[0], bad], "length 8000 != length 12800"
        doc = {"estimates": [str(p) for p in estimates], "references": [str(p) for p in images],
               "mixture": str(mixture), "out": str(tmp_path / "o")}
        doc_path = tmp_path / "eval.json"
        doc_path.write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--config", str(doc_path)]) == 1
        assert f"error: {bad}: {message} of {images[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_wav_as_config_is_an_error(self, scene_dir, capsys):
        # its bytes are not UTF-8: a UnicodeDecodeError traceback before
        rc = cli.main(["separate", "--config", str(scene_dir / "mixture.wav")])
        assert rc == 1
        assert re.search(r"^error: .*mixture\.wav: invalid JSON \(", capsys.readouterr().err)

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

    def test_workers_env_pipeline(self, scene_dir, tmp_path):
        outs = []
        for tag, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / tag
            run_doc = {
                "iterations": 2,
                "n_bases": 3,
                "paths": {"mixture": str(scene_dir / "mixture.wav"), "out": str(out)},
            }
            run_path = tmp_path / f"{tag}.json"
            run_path.write_text(json.dumps(run_doc))
            assert cli.main(["--workers", workers, "separate", "--config", str(run_path)]) == 0
            outs.append(out)
        a = model.load_state(outs[0] / "state.json")
        b = model.load_state(outs[1] / "state.json")
        np.testing.assert_array_equal(a.spatial.Q, b.spatial.Q)
        np.testing.assert_array_equal(a.source.T, b.source.T)
