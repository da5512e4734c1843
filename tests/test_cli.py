import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from upband import checkpoint, cli, data, dsp, training
from upband.config import load_config, render_config
from upband.errors import ConfigError

from conftest import fmt_body, write_riff

TINY_CFG = """\
[generator]
n_layers = 2
d_model = 64
n_heads = 2
d_ff = 128

[discriminator]
channels = 64
group_counts = 1, 4, 16, 64

[train]
batch_size = 2
batch_frames = 16
max_steps = 3
checkpoint_interval = 0
"""


def write_cfg(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CFG + extra)
    return str(path)


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports this upband, so a
    traceback reaches stderr instead of failing the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=300)


def run_module(*args):
    """``python -m upband.cli *args`` in a fresh interpreter."""
    return run_python("-m", "upband.cli", *args)


def test_import_loads_no_scipy():
    proc = run_python("-c", "import sys, upband.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_removed_check_command_exit_2():
    proc = run_module("check")
    assert proc.returncode == 2
    assert "invalid choice: 'check'" in proc.stderr and "Traceback" not in proc.stderr


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.generator.d_model == 512
        assert cfg.discriminator.group_counts == (1, 4, 16, 64, 256)

    def test_desk_preset(self):
        cfg = load_config(None, preset="desk")
        assert cfg.generator.d_model == 128
        assert cfg.discriminator.channels == 128
        assert cfg.discriminator.group_counts[-1] == 128

    @pytest.mark.parametrize("preset", ["default", "desk"])
    def test_context_length_is_training_window(self, preset):
        cfg = load_config(None, preset=preset)
        assert cfg.generator.max_frames == cfg.train.batch_frames

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config(None, preset="laptop")

    def test_file_values_applied(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.generator.d_model == 64
        assert cfg.train.max_steps == 3

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[train]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(str(p))

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[train]\nmax_steps = soon\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("no/such/file.cfg")

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path), overrides={"train.max_steps": 9})
        assert cfg.train.max_steps == 9

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"train.nope": 1})

    def test_every_key_option_sets_its_key(self):
        # an option whose dest is a dotted config key overrides that key; a
        # typo in the dest would otherwise surface only when the option is used
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        dests = {a.dest for sub in commands.values() for a in sub._actions if "." in a.dest}
        assert {"train.max_steps", "train.seed", "paths.corpus", "paths.run_dir"} <= dests
        for dest in dests:
            section, key = dest.split(".")
            cfg = load_config(None, overrides={dest: "1"})
            assert str(getattr(getattr(cfg, section), key)) in ("1", "1.0"), dest

    @pytest.mark.parametrize("key", ["max_steps", "checkpoint_interval"])
    def test_step_counts_zero_accepted_negative_refused(self, key):
        assert getattr(load_config(None, overrides={f"train.{key}": 0}).train, key) == 0
        with pytest.raises(ConfigError, match=key):
            load_config(None, overrides={f"train.{key}": -7})

    @pytest.mark.parametrize("preset", ["default", "desk"])
    def test_render_omits_constants(self, preset):
        text = render_config(load_config(None, preset=preset))
        keys = [line.split(" = ")[0] for line in text.splitlines() if " = " in line]
        assert not {"lr_g", "lr_d", "fm_weight"} & set(keys)
        assert len(keys) == 19

    def test_render_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        text = render_config(cfg)
        p = tmp_path / "echo.cfg"
        p.write_text(text)
        again = load_config(str(p))
        assert render_config(again) == text


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    assert cli.main(["synth", "--out", str(root), "--files", "6",
                     "--duration", "0.3", "--seed", "1"]) == 0
    return root


class TestCliSynth:
    @pytest.mark.parametrize("duration", ["0", "-1", "1e-5", "nan"])
    def test_duration_without_samples_exit_2(self, tmp_path, duration):
        proc = run_module("synth", "--out", str(tmp_path / "c"), "--files", "2",
                          "--duration", duration)
        assert proc.returncode == 2, proc.stderr
        assert "duration" in proc.stderr and "Traceback" not in proc.stderr

    def test_negative_seed_exit_2(self, tmp_path):
        proc = run_module("synth", "--out", str(tmp_path / "c"), "--files", "2", "--seed", "-1")
        assert proc.returncode == 2, proc.stderr
        assert "seed" in proc.stderr and "Traceback" not in proc.stderr

    def test_out_under_a_file_exit_2(self, tmp_path):
        (tmp_path / "afile").write_bytes(b"")
        out = tmp_path / "afile" / "c"
        proc = run_module("synth", "--out", str(out), "--files", "2")
        assert proc.returncode == 2, proc.stderr
        assert str(out) in proc.stderr and "Traceback" not in proc.stderr


class TestCliTrain:
    def test_smoke_and_log_lines(self, cli_corpus, tmp_path):
        run = tmp_path / "run"
        rc = cli.main(["train", "--config", write_cfg(tmp_path),
                       "--corpus", str(cli_corpus), "--run-dir", str(run)])
        assert rc == 0
        assert (run / "config_effective.cfg").exists()
        assert len((run / "loss.log").read_text().splitlines()) == 3
        assert (run / "checkpoint_final.nug").exists()

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", write_cfg(tmp_path),
                       "--corpus", str(tmp_path / "nowhere"),
                       "--run-dir", str(tmp_path / "r")])
        assert rc == 2
        assert "nowhere" in capsys.readouterr().err

    def test_seed_determinism(self, cli_corpus, tmp_path):
        logs = []
        for name in ("r1", "r2"):
            run = tmp_path / name
            rc = cli.main(["train", "--config", write_cfg(tmp_path),
                           "--corpus", str(cli_corpus), "--run-dir", str(run),
                           "--seed", "7", "--max-steps", "2"])
            assert rc == 0
            logs.append((run / "loss.log").read_text())
        assert logs[0] == logs[1]


    @pytest.mark.parametrize("command,text", [
        ("train", "[generator]\nn_heads = 0"),
        ("train", "[generator]\nd_model = 129\nn_heads = 3"),
        ("train", "[discriminator]\nchannels = 0"),
        ("train", "[discriminator]\ngroup_counts = 1, 0"),
        ("train", "[train]\nbatch_size = 0"),
        ("train", "[train]\nbatch_frames = 0"),
        ("train", "[train]\nlr_g = 1e-4"),
        ("train", "[train]\nlr_d = 4e-4"),
        ("train", "[train]\nbeta1 = 0.9"),
        ("train", "[discriminator]\nkernel = 4"),
        ("train", "[train]\nfm_weight = 10"),
        ("evaluate", "[lsd]\nn_fft = 0"),
        ("train", "[data]\nheldout_fraction = nan"),
        ("evaluate", "[data]\nheldout_fraction = -0.5"),
        ("train", "[data]\nheldout_fraction = 1.5"),
        ("train", "[train]\nseed = -1"),
        ("train", "--seed -1"),
        ("train", "[train]\nmax_steps = -1"),
        ("train", "[train]\ncheckpoint_interval = -1"),
    ], ids=["n_heads", "odd_d_model", "channels", "group_count", "batch_size", "batch_frames",
            "removed_lr_g", "removed_lr_d", "removed_beta1", "removed_kernel",
            "removed_fm_weight", "lsd_n_fft", "heldout_nan", "heldout_negative",
            "heldout_above_one", "seed_in_file", "train_seed_option", "max_steps_negative",
            "checkpoint_interval_negative"])
    def test_bad_config_value_exit_1(self, cli_corpus, tmp_path, command, text):
        # text is either the config file or, starting with "--", options
        options = text.split() if text.startswith("--") else []
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("" if options else text + "\n")
        args = options + (["--max-steps", "2", "--run-dir", str(tmp_path / "run")]
                          if command == "train" else ["--baseline"])
        proc = run_module(command, "--preset", "desk", "--config", str(cfg), "--corpus",
                          str(cli_corpus), *args)
        assert proc.returncode == 1, proc.stderr
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr


class TestCliUpsample:
    def _low_rate_wav(self, tmp_path, samples=None):
        if samples is None:
            t = np.arange(11025) / 22050
            samples = 0.3 * np.sin(2 * np.pi * 440 * t)
        path = tmp_path / "in.wav"
        data.write_wav(path, dsp.AudioBuffer(samples, 22050))
        return path

    def test_bypass_model_baseline(self, tmp_path):
        src = self._low_rate_wav(tmp_path)
        out = tmp_path / "out.wav"
        rc = cli.main(["upsample", "--bypass-model", str(src), str(out)])
        assert rc == 0
        buf = data.read_wav(out)
        assert buf.sample_rate == 44100
        assert len(buf) == 2 * 11025

    def test_clip_shorter_than_one_frame(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        cfg = load_config(cfg_path)
        ck = tmp_path / "ck.nug"
        training.save_checkpoint(ck, training.TrainState.fresh(cfg.generator,
                                                               cfg.discriminator, cfg.train))
        src = self._low_rate_wav(tmp_path, 0.3 * np.sin(np.arange(300) / 5))
        out = tmp_path / "out.wav"
        assert cli.main(["upsample", "--config", cfg_path, "--checkpoint", str(ck),
                         str(src), str(out)]) == 0
        buf = data.read_wav(out)
        assert buf.sample_rate == 44100
        assert len(buf) == 600

    def test_silence_in_silence_out(self, tmp_path):
        src = self._low_rate_wav(tmp_path, np.zeros(8192))
        out = tmp_path / "out.wav"
        assert cli.main(["upsample", "--bypass-model", str(src), str(out)]) == 0
        buf = data.read_wav(out)
        peak = np.max(np.abs(buf.samples))
        assert peak == 0.0 or 20 * np.log10(peak) < -80.0

    def test_wrong_rate_exit_2(self, tmp_path):
        path = tmp_path / "hi.wav"
        data.write_wav(path, dsp.AudioBuffer(np.zeros(4096), 44100))
        rc = cli.main(["upsample", "--bypass-model", str(path), str(tmp_path / "o.wav")])
        assert rc == 2

    @pytest.mark.parametrize("fmt", [fmt_body(6, 8, extensible=True),
                                     fmt_body(1, 24, extensible=True)[:18]])
    def test_unsupported_wav_exit_2(self, tmp_path, fmt):
        path = tmp_path / "in.wav"
        write_riff(path, fmt, b"\x00" * 4096)
        rc = cli.main(["upsample", "--bypass-model", str(path), str(tmp_path / "o.wav")])
        assert rc == 2

    def test_unwritable_output_exit_2(self, tmp_path):
        out = tmp_path / "nowhere" / "out.wav"
        proc = run_module("upsample", "--bypass-model", str(self._low_rate_wav(tmp_path)),
                          str(out))
        assert proc.returncode == 2, proc.stderr
        assert str(out) in proc.stderr and "Traceback" not in proc.stderr

    def test_needs_checkpoint_or_bypass(self, tmp_path):
        src = self._low_rate_wav(tmp_path)
        rc = cli.main(["upsample", str(src), str(tmp_path / "o.wav")])
        assert rc == 1

    @pytest.mark.parametrize("damage", ["missing", "wrong_shape", "name_not_utf8",
                                        "rng_not_utf8", "rng_not_pcg64", "step_empty",
                                        "step_negative", "train_files_not_utf8"])
    def test_damaged_checkpoint_exit_2(self, tmp_path, capsys, damage):
        cfg_path = write_cfg(tmp_path)
        cfg = load_config(cfg_path)
        ck = tmp_path / "ck.nug"
        training.save_checkpoint(ck, training.TrainState.fresh(cfg.generator,
                                                               cfg.discriminator, cfg.train))
        digest = ck.read_bytes()[8:40]
        tensors = checkpoint.load_tensors(ck)
        named = "gen.out.b"
        if damage == "missing":
            del tensors["param/gen.out.b"]
        elif damage == "wrong_shape":
            tensors["param/gen.out.b"] = tensors["param/gen.out.b"][:-1]
        elif damage.startswith("rng"):
            text = b"\xff\xfe" if damage == "rng_not_utf8" else b'{"bit_generator": "MT19937"}'
            tensors["rng"], named = np.frombuffer(text, dtype=np.uint8), "'rng'"
        elif damage.startswith("step"):
            step = np.zeros(0) if damage == "step_empty" else np.array(-1)
            tensors["step"], named = step.astype(np.int64), "'step'"
        elif damage == "train_files_not_utf8":
            tensors["train_files"] = np.frombuffer(b"a.wav\n\xff", dtype=np.uint8)
            named = "'train_files'"
        checkpoint.save_tensors(ck, tensors, digest)
        if damage == "name_not_utf8":
            blob = ck.read_bytes()
            at = blob.index(b"param/gen.out.b")
            ck.write_bytes(blob.replace(b"param/gen.out.b", b"param/gen.out\xff\xfe"))
            named = f"record at offset {at - 4}"
        rc = cli.main(["upsample", "--config", cfg_path, "--checkpoint", str(ck),
                       str(self._low_rate_wav(tmp_path)), str(tmp_path / "o.wav")])
        assert rc == 2
        assert named in capsys.readouterr().err


class TestCliEvaluate:
    def test_baseline_report_format(self, cli_corpus, tmp_path, capsys):
        rc = cli.main(["evaluate", "--baseline", "--config", write_cfg(tmp_path),
                       "--corpus", str(cli_corpus)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lsd_mean=" in out and "lsd_std=" in out
        assert "baseline" in out

    def test_needs_checkpoint_or_baseline(self, cli_corpus, tmp_path):
        rc = cli.main(["evaluate", "--config", write_cfg(tmp_path),
                       "--corpus", str(cli_corpus)])
        assert rc == 1

    def test_heldout_split_ignores_train_seed(self, cli_corpus, tmp_path):
        # a model trained under any seed is scored on the files it did not train on
        cfg_path = write_cfg(tmp_path, "\n[data]\nheldout_fraction = 0.5\n")
        sides = [cli._load_split(load_config(cfg_path, overrides={
            "paths.corpus": str(cli_corpus), "train.seed": seed})) for seed in (0, 7)]
        assert [c.items for c in sides[0]] == [c.items for c in sides[1]]

    def test_files_trained_under_another_split_refused(self, cli_corpus, tmp_path, capsys):
        # trained with one of six files held out, scored with three held out:
        # at least two of those three are training files
        train_cfg = write_cfg(tmp_path, "\n[data]\nheldout_fraction = 0.1667\n")
        run = tmp_path / "run"
        assert cli.main(["train", "--config", train_cfg, "--corpus", str(cli_corpus),
                         "--run-dir", str(run), "--max-steps", "1"]) == 0
        trained = cli._load_split(load_config(train_cfg, overrides={
            "paths.corpus": str(cli_corpus)}))[0].items
        eval_cfg = write_cfg(tmp_path, "\n[data]\nheldout_fraction = 0.5\n")
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", eval_cfg, "--corpus", str(cli_corpus),
                       "--checkpoint", str(run / "checkpoint_final.nug")])
        err = capsys.readouterr().err
        assert rc == 2 and "training set" in err
        assert any(name in err for name in trained)

    @pytest.mark.parametrize("case", ["percent", "not_utf8", "directory"])
    def test_config_read_literally_or_refused_exit_1(self, cli_corpus, tmp_path, case):
        cfg = tmp_path / "run.cfg"
        if case == "percent":
            cfg.write_text("[paths]\nrun_dir = runs/100%\n")
        elif case == "not_utf8":
            cfg.write_bytes(b"[paths]\nrun_dir = runs/\xff\n")
        else:
            cfg.mkdir()
        # with neither --checkpoint nor --baseline, evaluate echoes the
        # effective config and then stops with a config error
        proc = run_module("evaluate", "--config", str(cfg), "--corpus", str(cli_corpus))
        assert proc.returncode == 1, proc.stderr
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr
        assert ("run_dir = runs/100%\n" in proc.stdout) == (case == "percent")

    def test_seed_option_removed(self, cli_corpus, tmp_path):
        proc = run_module("evaluate", "--baseline", "--corpus", str(cli_corpus), "--seed", "7")
        assert proc.returncode == 2 and "unrecognized arguments: --seed" in proc.stderr

