import copy
import struct

import numpy as np
import pytest

from upband import checkpoint, model, tensor as tt, training
from upband.config import load_config
from upband.errors import CheckpointError, NumericError, ShapeError
from upband.model import (all_discriminators_forward, discriminator_forward,
                          discriminator_parameter_names, discriminator_weights,
                          generator_forward, generator_parameter_names, init_parameters)
from upband.tensor import Tensor
from upband.training import (TrainConfig, TrainState, adam_step,
                             feature_matching_loss, hinge_d_loss, hinge_g_loss,
                             load_checkpoint, sample_batch, save_checkpoint,
                             train_loop, train_step)

from conftest import tiny_disc_cfg, tiny_gen_cfg


def _logits(values):
    return [Tensor(np.asarray(v, dtype=np.float32), requires_grad=True) for v in values]


class TestHingeLosses:
    def test_d_zero_at_margins(self):
        loss = hinge_d_loss(_logits([[1.0, 1.0, -1.0, -1.0]]))
        assert loss.item() == 0.0

    def test_d_two_at_zero_logits(self):
        loss = hinge_d_loss(_logits([[0.0, 0.0], [0.0, 0.0]]))
        assert loss.item() == pytest.approx(2.0)

    def test_d_saturates(self):
        loss = hinge_d_loss(_logits([[2.0, -3.0]]))
        assert loss.item() == 0.0

    def test_d_halves_are_real_then_fake(self):
        # real rows [0.5, 0.5] cost 0.5 each, fake rows [-2, 0] cost 0 and 1
        x = _logits([[[0.5], [0.5], [-2.0], [0.0]]])
        loss = hinge_d_loss(x)
        assert loss.item() == pytest.approx(0.5 + 0.5)
        tt.backward(loss)
        np.testing.assert_allclose(x[0].grad.reshape(-1), [-0.5, -0.5, 0.0, 0.5])

    def test_d_odd_rows_rejected(self):
        with pytest.raises(ShapeError, match="3 rows"):
            hinge_d_loss(_logits([np.zeros((3, 2))]))

    def test_g_zero_logits(self):
        assert hinge_g_loss(_logits([[0.0, 0.0]])).item() == 0.0

    def test_g_negated_mean(self):
        assert hinge_g_loss(_logits([[5.0, 5.0]])).item() == pytest.approx(-5.0)

    def test_g_gradient_pushes_logits_up(self):
        # 1-parameter toy discriminator: logit = w * x
        w = Tensor(np.array(0.5, dtype=np.float64), requires_grad=True, dtype=np.float64)
        logit = tt.mul(w, 2.0)
        loss = hinge_g_loss([logit])
        tt.backward(loss)
        # d(-2w)/dw = -2: gradient descent increases w, hence the logit
        assert w.grad < 0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            hinge_g_loss([])
        with pytest.raises(ShapeError):
            hinge_d_loss([])


class TestFeatureMatching:
    def _feats(self, offset=0.0):
        rng = np.random.default_rng(4)
        return [[rng.normal(size=(8, 6)) + offset for _ in range(3)] for _ in range(2)]

    def test_identical_is_zero(self):
        real = self._feats()
        fake = [[Tensor(a.copy()) for a in d] for d in real]
        assert feature_matching_loss(real, fake).item() == 0.0

    def test_constant_offset(self):
        real = self._feats()
        fake = [[Tensor(a + 1.0) for a in d] for d in real]
        assert feature_matching_loss(real, fake).item() == pytest.approx(1.0, rel=1e-6)

    def test_logits_layer_excluded(self):
        disc = tiny_disc_cfg()
        params, sn = init_parameters(tiny_gen_cfg(), disc, seed=2)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 513, 32)).astype(np.float32))
        with tt.no_grad():
            _, feats_a = discriminator_forward(discriminator_weights(params, sn, update=False),
                                               disc, x, 0)
            params["disc0.out.b"].data += 100.0  # perturb the logit head only
            _, feats_b = discriminator_forward(discriminator_weights(params, sn, update=False),
                                               disc, x, 0)
        for a, b in zip(feats_a, feats_b):
            np.testing.assert_array_equal(a.data, b.data)

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            feature_matching_loss([[np.zeros(3)]], [[Tensor(np.zeros(3)), Tensor(np.zeros(3))]])


class ParentAdam:
    """Adam written out in full, kept as an oracle: first- and second-moment
    buffers, beta1 = 0, beta2 = 0.999, eps = 1e-8, and a step counter of its
    own."""

    beta1, beta2, eps = 0.0, 0.999, 1e-8

    def __init__(self):
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, names, lr):
        self.t += 1
        for name in names:
            p = params[name]
            g = p.grad
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p.data -= (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)
            p.grad = None


class TestAdam:
    def test_first_step_hand_value(self):
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        p["w"].grad = np.array([1.0], dtype=np.float32)
        adam_step(p, ["w"], {}, lr=0.1, t=1)
        assert p["w"].data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_no_move(self):
        p = {"w": Tensor(np.array([1.5]), requires_grad=True)}
        p["w"].grad = np.zeros(1, dtype=np.float32)
        adam_step(p, ["w"], {}, lr=0.1, t=1)
        assert p["w"].data[0] == 1.5

    def test_constant_gradient_equal_steps(self):
        p = {"w": Tensor(np.array([0.0], dtype=np.float64), requires_grad=True,
                         dtype=np.float64)}
        v = {}
        deltas = []
        for t in (1, 2):
            before = p["w"].data.copy()
            p["w"].grad = np.array([0.7])
            adam_step(p, ["w"], v, lr=0.1, t=t)
            deltas.append(float((before - p["w"].data)[0]))
        assert deltas[0] == pytest.approx(deltas[1], abs=1e-6)

    def test_matches_full_adam_bit_for_bit(self):
        rng = np.random.default_rng(0)
        names = ["a", "b"]
        init = rng.normal(size=(2, 64)).astype(np.float32)
        ours, ref = ({n: Tensor(w.copy(), requires_grad=True) for n, w in zip(names, init)}
                     for _ in range(2))
        v, parent = {}, ParentAdam()
        for t in range(1, 6):
            for name in names:
                g = rng.normal(scale=10.0 ** -t, size=64).astype(np.float32)
                ours[name].grad, ref[name].grad = g, g.copy()
            adam_step(ours, names, v, lr=1e-3, t=t)
            parent.step(ref, names, lr=1e-3)
            for name in names:
                assert ours[name].grad is None
                np.testing.assert_array_equal(ours[name].data, ref[name].data)
                np.testing.assert_array_equal(v[name], parent.v[name])

    def test_non_finite_gradient_names_parameter(self):
        p = {"bad.w": Tensor(np.array([0.0]), requires_grad=True)}
        p["bad.w"].grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(NumericError, match="bad.w"):
            adam_step(p, ["bad.w"], {}, 0.1, 1)


class TestTrainStep:
    def test_smoke_losses_finite(self, small_examples):
        cfg = TrainConfig(batch_size=2, batch_frames=16, seed=0)
        state = TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg)
        rng = np.random.default_rng(1)
        for _ in range(5):
            low, high = sample_batch(small_examples, rng, 2, 16)
            report = train_step(state, low, high)
            assert np.isfinite([report.d_loss, report.g_adv, report.g_fm]).all()

    def test_shape_mismatch_rejected(self, small_examples):
        cfg = TrainConfig(batch_size=2, batch_frames=16)
        state = TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg)
        with pytest.raises(ShapeError):
            train_step(state, np.zeros((2, 16, 257), np.float32),
                       np.zeros((2, 8, 256), np.float32))

    def test_generator_loss_composition_without_fm(self, small_examples):
        # with fm weight zero, generator gradients must equal those of the
        # adversarial term alone
        gen, disc = tiny_gen_cfg(), tiny_disc_cfg()
        params, sn = init_parameters(gen, disc, seed=5)
        low, _ = sample_batch(small_examples, np.random.default_rng(3), 1, 16)

        def g_grads(include_zero_fm):
            for p in params.values():
                p.grad = None
            tt.reset_tape()
            fake = generator_forward(params, gen, Tensor(low))
            full = tt.concat([Tensor(low), fake], axis=2)
            weights = discriminator_weights(params, sn, update=False)
            logits, fake_feats = all_discriminators_forward(weights, disc, full)
            loss = hinge_g_loss(logits)
            if include_zero_fm:
                with tt.no_grad():
                    _, real_feats = all_discriminators_forward(weights, disc, full)
                fm = feature_matching_loss(real_feats, fake_feats)
                loss = tt.add(loss, tt.mul(fm, 0.0))
            tt.backward(loss)
            return {n: params[n].grad.copy() for n in generator_parameter_names(params)
                    if params[n].grad is not None}

        plain = g_grads(False)
        composed = g_grads(True)
        assert plain.keys() == composed.keys()
        for n in plain:
            np.testing.assert_allclose(plain[n], composed[n], atol=1e-7)


    def test_desk_step_runs_generator_once_and_freezes_discriminators(self, small_examples,
                                                                         monkeypatch):
        cfg = load_config(None, preset="desk")
        state = TrainState.fresh(cfg.generator, cfg.discriminator, cfg.train)
        low, high = sample_batch(small_examples, state.rng, cfg.train.batch_size,
                                 cfg.train.batch_frames)
        calls = {"gen": 0, "sn": 0, "disc": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(training, "generator_forward",
                            counting("gen", training.generator_forward))
        monkeypatch.setattr(model, "spectral_normalize",
                            counting("sn", model.spectral_normalize))
        monkeypatch.setattr(model, "discriminator_forward",
                            counting("disc", model.discriminator_forward))
        train_step(state, low, high)
        # 30 weights normalized once per phase; 5 discriminators run once on
        # the D phase's real-and-fake batch, then on real and on fake
        assert calls == {"gen": 1, "sn": 60, "disc": 15}
        assert all(state.params[n].grad is None
                   for n in discriminator_parameter_names(state.params))


def _reference_step(state, adam, low, high_real):
    """The training step written out plainly, kept as an oracle: the
    generator runs once per phase, the discriminator weights are normalized
    for each of the three passes, each phase clears the whole tape and every
    gradient, and ``adam`` maps "g" and "d" to the full Adam of ParentAdam. The
    learning rates and the feature-matching weight are written out, so that a
    changed constant in ``training`` fails the comparison."""
    params, sn, disc = state.params, state.sn, state.disc_cfg
    real_full = np.concatenate([low, high_real], axis=2)

    def clear():
        tt.reset_tape()
        for p in params.values():
            p.grad = None

    with tt.no_grad():
        fake = generator_forward(params, state.gen_cfg, Tensor(low)).data
    fake_full = np.concatenate([low, fake], axis=2)
    clear()
    d_logits, _ = all_discriminators_forward(discriminator_weights(params, sn, update=True),
                                             disc, Tensor(np.concatenate([real_full, fake_full])))
    d_loss = hinge_d_loss(d_logits)
    tt.backward(d_loss)
    adam["d"].step(params, discriminator_parameter_names(params), 4e-4)
    clear()

    fake_t = generator_forward(params, state.gen_cfg, Tensor(low))
    logits, fake_feats = all_discriminators_forward(
        discriminator_weights(params, sn, update=False), disc,
        tt.concat([Tensor(low), fake_t], axis=2))
    with tt.no_grad():
        _, real_feats = all_discriminators_forward(
            discriminator_weights(params, sn, update=False), disc, Tensor(real_full))
    g_adv = hinge_g_loss(logits)
    g_fm = feature_matching_loss(real_feats, fake_feats)
    tt.backward(tt.add(g_adv, tt.mul(g_fm, 10.0)))
    adam["g"].step(params, generator_parameter_names(params), 1e-4)
    clear()
    state.step += 1
    return d_loss.item(), g_adv.item(), g_fm.item()


def _assert_matches_reference(state, ref, adam):
    """Every parameter, u vector and second moment of ``state`` equals the
    reference's, and the reference's counters equal the step count."""
    assert state.step == ref.step == adam["g"].t == adam["d"].t
    assert state.params.keys() == ref.params.keys()
    for name in state.params:
        np.testing.assert_array_equal(state.params[name].data, ref.params[name].data)
    assert state.sn.keys() == ref.sn.keys()
    for name in state.sn:
        np.testing.assert_array_equal(state.sn[name], ref.sn[name])
    for tag in ("g", "d"):
        ours, parent = getattr(state, f"adam_{tag}"), adam[tag]
        assert ours.keys() == parent.v.keys()
        for name in ours:
            np.testing.assert_array_equal(ours[name], parent.v[name])


def test_step_matches_reference_bit_for_bit(small_examples):
    cfg = TrainConfig(batch_size=2, batch_frames=16, seed=0)
    state, ref = (TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg) for _ in range(2))
    adam = {"g": ParentAdam(), "d": ParentAdam()}
    rng = np.random.default_rng(11)
    for _ in range(3):
        low, high = sample_batch(small_examples, rng, 2, 16)
        report = train_step(state, low, high)
        assert (report.d_loss, report.g_adv, report.g_fm) == _reference_step(ref, adam, low, high)
    assert state.step == 3
    _assert_matches_reference(state, ref, adam)


def test_d_loss_equals_two_pass_hinge_through_shared_weights(small_examples):
    cfg = TrainConfig(batch_size=2, batch_frames=16, seed=0)
    for seed in range(3):
        state = TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg)
        low, high = sample_batch(small_examples, np.random.default_rng(seed), 2, 16)
        with tt.no_grad():
            fake = generator_forward(state.params, state.gen_cfg, Tensor(low)).data
            weights = discriminator_weights(state.params, copy.deepcopy(state.sn), update=True)
            real_logits, _ = all_discriminators_forward(
                weights, state.disc_cfg, Tensor(np.concatenate([low, high], axis=2)))
            fake_logits, _ = all_discriminators_forward(
                weights, state.disc_cfg, Tensor(np.concatenate([low, fake], axis=2)))
        two_pass = np.mean([np.mean(np.maximum(0.0, 1.0 - r.data))
                            + np.mean(np.maximum(0.0, 1.0 + f.data))
                            for r, f in zip(real_logits, fake_logits)])
        report = train_step(state, low, high)
        assert report.d_loss == pytest.approx(two_pass, rel=1e-6)


def test_zero_fm_weight_leaves_tape_empty(small_examples, monkeypatch):
    monkeypatch.setattr(training, "FM_WEIGHT", 0.0)
    cfg = TrainConfig(batch_size=1, batch_frames=16, seed=0)
    state = TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg)
    low, high = sample_batch(small_examples, np.random.default_rng(0), 1, 16)
    train_step(state, low, high)
    assert not tt.active_tape().nodes


class TestPrecision:
    def test_desk_step_and_inference_run_at_weight_precision(self, small_examples, monkeypatch):
        cfg = load_config(None, preset="desk")
        dtypes = []
        result = tt._result

        def recording(data, inputs, backward_fn):
            out = result(data, inputs, backward_fn)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(tt, "_result", recording)
        state = TrainState.fresh(cfg.generator, cfg.discriminator, cfg.train)
        low, high = sample_batch(small_examples, state.rng, cfg.train.batch_size,
                                 cfg.train.batch_frames)
        train_step(state, low.astype(np.float64), high.astype(np.float64))
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        fn = model.make_generator_fn(state.params, cfg.generator)
        out = fn(np.random.default_rng(0).normal(size=(2, 50, 257)))
        assert out.dtype == np.float32


class TestSampleBatch:
    def test_shapes_and_tiling(self, small_examples):
        low, high = sample_batch(small_examples, np.random.default_rng(0), 3, 500)
        assert low.shape == (3, 500, 257) and high.shape == (3, 500, 256)
        assert low.dtype == np.float32

    def test_deterministic(self, small_examples):
        a = sample_batch(small_examples, np.random.default_rng(9), 2, 16)
        b = sample_batch(small_examples, np.random.default_rng(9), 2, 16)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestCheckpoint:
    def _trained_state(self, small_examples, steps=2):
        cfg = TrainConfig(batch_size=1, batch_frames=16, seed=0)
        state = TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg)
        for _ in range(steps):
            low, high = sample_batch(small_examples, state.rng, 1, 16)
            train_step(state, low, high)
        return state

    def test_generator_weights_are_the_last_records(self, small_examples, tmp_path):
        # a load for inference keeps only these, so what it frees was read first
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        names = list(checkpoint.load_tensors(path))
        gen = [f"param/{name}" for name in model.generator_parameter_names(state.params)]
        assert names[-len(gen):] == gen and len(set(names)) == len(names)

    def test_round_trip_bit_exact(self, small_examples, tmp_path):
        state = self._trained_state(small_examples)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)
        assert loaded.step == state.step
        for name in state.params:
            np.testing.assert_array_equal(loaded.params[name].data, state.params[name].data)
        for name in state.sn:
            np.testing.assert_array_equal(loaded.sn[name], state.sn[name])
        for tag in ("adam_g", "adam_d"):
            a, b = getattr(state, tag), getattr(loaded, tag)
            assert a and a.keys() == b.keys()
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state

    def test_architecture_mismatch_rejected(self, small_examples, tmp_path):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        for gen_cfg in (tiny_gen_cfg(n_layers=3), tiny_gen_cfg(d_model=32)):
            with pytest.raises(CheckpointError):
                load_checkpoint(path, gen_cfg, state.disc_cfg, state.train_cfg)

    @pytest.mark.parametrize("preset,digest", [("default", "12c1a5c35ecfd820"),
                                               ("desk", "bdbb003eeb9a3d7d")])
    def test_preset_architecture_digest_unchanged(self, preset, digest):
        # every checkpoint records this digest; a new value refuses them all
        cfg = load_config(None, preset=preset)
        got = training._architecture_digest(cfg.generator, cfg.discriminator)
        assert got.hex()[:16] == digest

    def test_loads_under_other_max_frames(self, small_examples, tmp_path):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path, tiny_gen_cfg(max_frames=64), state.disc_cfg,
                                 state.train_cfg)
        for name in state.params:
            np.testing.assert_array_equal(loaded.params[name].data, state.params[name].data)

    def test_load_does_no_init_work(self, small_examples, tmp_path, monkeypatch):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)

        def refuse(*args, **kwargs):
            raise AssertionError("checkpoint loading ran init work")

        monkeypatch.setattr(training, "init_parameters", refuse)
        monkeypatch.setattr(model, "spectral_normalize", refuse)
        loaded = load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)
        for name in state.params:
            np.testing.assert_array_equal(loaded.params[name].data, state.params[name].data)

    def test_key_bias_of_older_checkpoints_ignored(self, small_examples, tmp_path):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)

        def add_key_biases(tensors):
            d = state.gen_cfg.d_model
            for i in range(state.gen_cfg.n_layers):
                for prefix in ("param", "adam_g.m", "adam_g.v"):
                    tensors[f"{prefix}/gen.L{i}.attn.bk"] = np.zeros(d, dtype=np.float32)

        self._rewrite(path, add_key_biases)
        loaded = load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)
        assert list(loaded.params) == list(state.params)
        for name in state.params:
            np.testing.assert_array_equal(loaded.params[name].data, state.params[name].data)
        assert list(loaded.adam_g) == list(state.adam_g)

    def test_first_moments_of_older_checkpoints_ignored(self, small_examples, tmp_path):
        # older writers stored each network's Adam first moments and step
        # counter; a state they wrote resumes exactly as their own Adam would
        cfg = TrainConfig(batch_size=1, batch_frames=16, seed=0)
        ref = TrainState.fresh(tiny_gen_cfg(), tiny_disc_cfg(), cfg)
        adam = {"g": ParentAdam(), "d": ParentAdam()}
        batches = [sample_batch(small_examples, ref.rng, 1, 16) for _ in range(3)]
        for low, high in batches[:2]:
            _reference_step(ref, adam, low, high)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, ref)

        def parent_layout(tensors):
            for tag, parent in adam.items():
                for kind in ("m", "v"):
                    for name, arr in getattr(parent, kind).items():
                        tensors[f"adam_{tag}.{kind}/{name}"] = arr
                tensors[f"adam_{tag}.t"] = np.array(parent.t, dtype=np.int64)

        self._rewrite(path, parent_layout)
        state = load_checkpoint(path, ref.gen_cfg, ref.disc_cfg, ref.train_cfg)
        _assert_matches_reference(state, ref, adam)
        low, high = batches[2]
        report = train_step(state, low, high)
        assert (report.d_loss, report.g_adv, report.g_fm) == _reference_step(ref, adam, low, high)
        _assert_matches_reference(state, ref, adam)

    def test_no_first_moments_or_counters_written(self, small_examples, tmp_path):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        kinds = {key.split("/")[0] for key in checkpoint.load_tensors(path)}
        assert kinds == {"param", "sn.u", "adam_g.v", "adam_d.v", "step", "rng"}

    def test_rank_one_scalars_of_older_checkpoints_load(self, small_examples, tmp_path):
        # older writers stored the step and Adam counters with shape (1,)
        state = self._trained_state(small_examples)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        self._rewrite(path, lambda t: t.update({"step": t["step"].reshape(1),
                                                "adam_g.t": np.array([2], dtype=np.int64),
                                                "adam_d.t": np.array([2], dtype=np.int64)}))
        loaded = load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)
        assert loaded.step == state.step == 2

    @staticmethod
    def _rewrite(path, edit):
        digest = path.read_bytes()[8:40]
        tensors = checkpoint.load_tensors(path)
        edit(tensors)
        checkpoint.save_tensors(path, tensors, digest)

    @pytest.mark.parametrize("key", ["param/gen.out.b", "sn.u/disc0.proj.w"])
    def test_missing_tensor_rejected(self, small_examples, tmp_path, key):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        self._rewrite(path, lambda t: t.pop(key))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)

    @pytest.mark.parametrize("key", ["param/gen.out.b", "sn.u/disc0.proj.w",
                                     "adam_g.v/gen.out.b"])
    def test_wrong_shape_rejected(self, small_examples, tmp_path, key):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        self._rewrite(path, lambda t: t.update({key: t[key][:-1]}))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)

    def test_corrupt_magic_rejected(self, small_examples, tmp_path):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)

    @pytest.mark.parametrize("damage", ["version", "dtype_tag"])
    def test_unknown_version_or_dtype_tag_rejected(self, tmp_path, damage):
        path = tmp_path / "t.nug"
        checkpoint.save_tensors(path, {"w": np.ones(3, np.float32)}, bytes(32))
        blob = bytearray(path.read_bytes())
        if damage == "version":
            blob[4:8] = struct.pack("<I", checkpoint.VERSION + 1)
            match = "unknown format version 2"
        else:
            blob[40 + 4 + 1 + 4 + 8] = 9  # after the name length, "w", rank and one dim
            match = "unknown dtype tag 9 for 'w'"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=match):
            checkpoint.load_tensors(path)

    def test_unsupported_dtype_not_saved(self, tmp_path):
        with pytest.raises(CheckpointError, match="unsupported dtype float16 for 'w'"):
            checkpoint.save_tensors(tmp_path / "t.nug", {"w": np.ones(3, np.float16)}, bytes(32))

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path):
        # the save fails after its first record: the file already there keeps
        # its bytes and no temporary file stays behind
        path = tmp_path / "t.nug"
        checkpoint.save_tensors(path, {"w": np.arange(4, dtype=np.float32)}, bytes(32))
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="unsupported dtype float16 for 'h'"):
            checkpoint.save_tensors(path, {"w": np.ones(8, np.float32),
                                           "h": np.ones(3, np.float16)}, bytes(32))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.nug"]

    def test_load_tensors_owned_and_writable(self, tmp_path):
        path = tmp_path / "t.nug"
        tensors = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
                   "t": np.array([7], dtype=np.int64),
                   "s": np.array(5, dtype=np.int64)}
        checkpoint.save_tensors(path, tensors, bytes(32))
        loaded = checkpoint.load_tensors(path, bytes(32))
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].flags.owndata and loaded[name].flags.writeable
            assert loaded[name].flags.aligned
        loaded["w"] += 1.0  # Adam updates its moments in place

    def test_truncated_mid_tensor_rejected(self, tmp_path):
        path = tmp_path / "t.nug"
        checkpoint.save_tensors(path, {"w": np.ones((64, 64), np.float32)}, bytes(32))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="truncated data for 'w'"):
            checkpoint.load_tensors(path)

    def test_damaged_name_length_rejected(self, tmp_path):
        path = tmp_path / "t.nug"
        header = checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + bytes(32)
        path.write_bytes(header + struct.pack("<I", 2 ** 32 - 1) + b"w")
        with pytest.raises(CheckpointError, match="truncated record at offset 40"):
            checkpoint.load_tensors(path)

    def test_truncated_rejected(self, small_examples, tmp_path):
        state = self._trained_state(small_examples, steps=1)
        path = tmp_path / "ck.nug"
        save_checkpoint(path, state)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, state.gen_cfg, state.disc_cfg, state.train_cfg)


class TestTrainLoop:
    def test_writes_log_and_final_checkpoint(self, small_examples, tmp_path):
        cfg = TrainConfig(batch_size=1, batch_frames=16, max_steps=3, seed=0,
                          checkpoint_interval=0)
        final = train_loop(small_examples, tiny_gen_cfg(), tiny_disc_cfg(), cfg,
                           tmp_path / "run")
        assert final.exists()
        lines = (tmp_path / "run" / "loss.log").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split("\t")[0] == "1"

    def test_periodic_checkpoint_resumes_to_the_same_log(self, small_examples, tmp_path):
        gen, disc = tiny_gen_cfg(), tiny_disc_cfg()
        cfg = TrainConfig(batch_size=1, batch_frames=16, max_steps=3, seed=0,
                          checkpoint_interval=2)
        train_loop(small_examples, gen, disc, cfg, tmp_path / "straight")
        written = sorted(p.name for p in (tmp_path / "straight").glob("checkpoint_*.nug"))
        assert written == ["checkpoint_0000002.nug", "checkpoint_final.nug"]
        train_loop(small_examples, gen, disc, cfg, tmp_path / "resumed",
                   resume_from=tmp_path / "straight" / "checkpoint_0000002.nug")
        straight = (tmp_path / "straight" / "loss.log").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "loss.log").read_text().splitlines()
        assert len(straight) == 3
        assert resumed == straight[2:]

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(Exception):
            train_loop([], tiny_gen_cfg(), tiny_disc_cfg(), TrainConfig(), tmp_path)

    def test_train_files_recorded_and_kept_across_resume(self, small_examples, tmp_path):
        gen, disc = tiny_gen_cfg(), tiny_disc_cfg()
        cfg = TrainConfig(batch_size=1, batch_frames=16, max_steps=1, seed=0,
                          checkpoint_interval=0)
        part = train_loop(small_examples, gen, disc, cfg, tmp_path / "a",
                          train_files=["b.wav", "a/é.wav"])
        assert load_checkpoint(part, gen, disc, cfg).train_files == ("b.wav", "a/é.wav")
        cfg2 = TrainConfig(batch_size=1, batch_frames=16, max_steps=2, seed=0,
                           checkpoint_interval=0)
        final = train_loop(small_examples, gen, disc, cfg2, tmp_path / "b", resume_from=part,
                           train_files=["c.wav", "b.wav"])
        assert load_checkpoint(final, gen, disc, cfg2).train_files == \
            ("b.wav", "a/é.wav", "c.wav")

    def test_checkpoint_without_train_files_loads(self, small_examples, tmp_path):
        # no names given: no record written, as in checkpoints from before it existed
        cfg = TrainConfig(batch_size=1, batch_frames=16, max_steps=1, seed=0,
                          checkpoint_interval=0)
        final = train_loop(small_examples, tiny_gen_cfg(), tiny_disc_cfg(), cfg, tmp_path)
        assert "train_files" not in checkpoint.load_tensors(final)
        assert load_checkpoint(final, tiny_gen_cfg(), tiny_disc_cfg(), cfg).train_files == ()
