import numpy as np
import pytest

from upband import config, dsp, model, tensor as tt
from upband.errors import ConfigError, ShapeError
from upband.model import (DiscriminatorConfig, GeneratorConfig, all_discriminators_forward,
                          discriminator_forward, discriminator_weights, generator_forward,
                          init_parameters, parameter_shapes, spectral_normalize)
from upband.tensor import Tensor

from conftest import tiny_disc_cfg, tiny_gen_cfg


class TestConfigs:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(d_model=100, n_heads=3)

    def test_group_divisibility(self):
        with pytest.raises(ConfigError):
            DiscriminatorConfig(channels=100, group_counts=(1, 16))

    def test_default_discriminator_count(self):
        assert DiscriminatorConfig().n_discriminators == 5


class TestInit:
    def test_deterministic(self):
        p1, _ = init_parameters(tiny_gen_cfg(), tiny_disc_cfg(), seed=3)
        p2, _ = init_parameters(tiny_gen_cfg(), tiny_disc_cfg(), seed=3)
        assert p1.keys() == p2.keys()
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)

    def test_weights_finite_and_bounded(self):
        params, _ = init_parameters(tiny_gen_cfg(), tiny_disc_cfg(), seed=0)
        for k, p in params.items():
            assert np.all(np.isfinite(p.data)), k
            # layer-norm gains start at exactly 1
            assert np.max(np.abs(p.data)) <= 1.0, k

    def test_parameter_count_matches_closed_form(self):
        gen = tiny_gen_cfg()
        disc = tiny_disc_cfg()
        params, _ = init_parameters(gen, disc, seed=0)
        d, dff = gen.d_model, gen.d_ff
        gen_expected = (dsp.LOW_BINS * d + d)                      # input projection
        gen_expected += gen.n_layers * (
            2 * d                                                  # ln1
            + 4 * d * d + 3 * d                                    # attention, no key bias
            + 2 * d                                                # ln2
            + d * dff + dff + dff * d + d)                         # feed-forward
        gen_expected += 2 * d                                      # final ln
        gen_expected += d * dsp.HIGH_BINS + dsp.HIGH_BINS          # output head
        C, k = disc.channels, disc.kernel
        disc_expected = 0
        for g in disc.group_counts:
            disc_expected += dsp.N_BINS * C + C                    # projection
            disc_expected += disc.n_layers * (C * (C // g) * k + C)
            disc_expected += C + 1                                 # logit head
        count = lambda prefix: sum(t.size for k, t in params.items() if k.startswith(prefix))
        assert count("gen.") == gen_expected
        assert count("disc") == disc_expected
        assert count("") == gen_expected + disc_expected

    @pytest.mark.parametrize("preset", ["desk", "default"])
    def test_parameters_follow_declaration(self, preset):
        cfg = config.load_config(None, preset=preset)
        shapes = parameter_shapes(cfg.generator, cfg.discriminator)
        params, sn = init_parameters(cfg.generator, cfg.discriminator, seed=0)
        assert list(params) == list(shapes)
        assert all(params[name].shape == shape for name, shape in shapes.items())
        assert list(sn) == [n for n in shapes if n.startswith("disc") and n.endswith(".w")]
        assert not any(n.endswith("attn.bk") for n in shapes)


class TestGenerator:
    def test_position_encodings_break_permutation(self):
        gen = tiny_gen_cfg()
        params, _ = init_parameters(gen, tiny_disc_cfg(), seed=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 257)).astype(np.float32)
        perm = rng.permutation(12)
        with tt.no_grad():
            base = generator_forward(params, gen, Tensor(x[None])).data[0]
            permuted = generator_forward(params, gen, Tensor(x[None, perm])).data[0]
        unpermuted = np.empty_like(permuted)
        unpermuted[perm] = permuted
        assert np.max(np.abs(base - unpermuted)) > 1e-4

    def test_zero_input_finite(self):
        gen = tiny_gen_cfg()
        params, _ = init_parameters(gen, tiny_disc_cfg(), seed=1)
        with tt.no_grad():
            out = generator_forward(params, gen, Tensor(np.zeros((1, 8, 257))))
        assert out.shape == (1, 8, 256)
        assert np.all(np.isfinite(out.data))

    def test_wrong_bin_count_rejected(self):
        gen = tiny_gen_cfg()
        params, _ = init_parameters(gen, tiny_disc_cfg(), seed=1)
        with pytest.raises(ShapeError):
            generator_forward(params, gen, Tensor(np.zeros((1, 8, 200))))

    def test_batched_matches_single(self):
        gen = tiny_gen_cfg()
        params, _ = init_parameters(gen, tiny_disc_cfg(), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 6, 257)).astype(np.float32)
        with tt.no_grad():
            batched = generator_forward(params, gen, Tensor(x)).data
            single = generator_forward(params, gen, Tensor(x[1:])).data
        np.testing.assert_allclose(batched[1], single[0], atol=1e-5)


class TestGeneratorFn:
    W = 8

    def _setup(self):
        gen = tiny_gen_cfg(max_frames=self.W)
        params, _ = init_parameters(gen, tiny_disc_cfg(), seed=1)
        return gen, params, model.make_generator_fn(params, gen)

    @pytest.mark.parametrize("T", [1, W - 1, W, W + 1, 2 * W + 3, 5 * W])
    def test_output_shape(self, T):
        _, _, fn = self._setup()
        out = fn(np.random.default_rng(T).normal(size=(T, dsp.LOW_BINS)))
        assert out.shape == (T, dsp.HIGH_BINS)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("T", [1, W - 1, W])
    def test_one_window_is_whole_sequence(self, T):
        gen, params, fn = self._setup()
        x = np.random.default_rng(T).normal(size=(T, dsp.LOW_BINS))
        dtype = params["gen.in.w"].dtype
        with tt.no_grad():
            whole = generator_forward(params, gen, Tensor(x[None], dtype=dtype)).data[0]
        np.testing.assert_array_equal(fn(x), whole)

    def test_prediction_sees_only_its_window(self):
        _, _, fn = self._setup()
        T = 3 * self.W + 2  # four windows of seven frames
        x = np.random.default_rng(0).normal(size=(T, dsp.LOW_BINS))
        base = fn(x)
        x[2] += 5.0
        moved = fn(x)
        L = -(-T // 4)
        assert np.max(np.abs(moved[:L] - base[:L])) > 1e-4
        np.testing.assert_array_equal(moved[L:], base[L:])


class TestDiscriminator:
    def test_patch_count_after_four_stride2_layers(self):
        disc = tiny_disc_cfg()
        params, sn = init_parameters(tiny_gen_cfg(), disc, seed=1)
        with tt.no_grad():
            weights = discriminator_weights(params, sn, update=False)
            logits, _ = discriminator_forward(weights, disc, Tensor(np.zeros((1, 64, 513))), 0)
        assert logits.shape == (1, 4, 1)

    def test_features_exclude_projection_and_logits(self):
        disc = tiny_disc_cfg()
        params, sn = init_parameters(tiny_gen_cfg(), disc, seed=1)
        with tt.no_grad():
            weights = discriminator_weights(params, sn, update=False)
            _, feats = discriminator_forward(weights, disc, Tensor(np.zeros((1, 32, 513))), 1)
        assert len(feats) == disc.n_layers

    def test_ensemble_size(self):
        disc = tiny_disc_cfg()
        params, sn = init_parameters(tiny_gen_cfg(), disc, seed=1)
        with tt.no_grad():
            weights = discriminator_weights(params, sn, update=False)
            logits, feats = all_discriminators_forward(weights, disc,
                                                       Tensor(np.zeros((1, 32, 513))))
        assert len(logits) == len(feats) == disc.n_discriminators

    def test_weights_normalize_each_weight_and_pass_biases(self):
        disc = tiny_disc_cfg()
        params, sn = init_parameters(tiny_gen_cfg(), disc, seed=1)
        with tt.no_grad():
            weights = discriminator_weights(params, sn, update=False)
            assert list(weights) == model.discriminator_parameter_names(params)
            for name, w in weights.items():
                if name.endswith(".b"):
                    assert w is params[name]
                else:
                    expected = spectral_normalize(params[name], sn, name, update=False)
                    np.testing.assert_array_equal(w.data, expected.data)

    def test_bad_index_rejected(self):
        disc = tiny_disc_cfg()
        params, _ = init_parameters(tiny_gen_cfg(), disc, seed=1)
        with pytest.raises(ConfigError):
            discriminator_forward(params, disc, Tensor(np.zeros((1, 32, 513))), 9)

    def test_unbatched_input_rejected(self):
        disc = tiny_disc_cfg()
        params, _ = init_parameters(tiny_gen_cfg(), disc, seed=1)
        with pytest.raises(ShapeError):
            discriminator_forward(params, disc, Tensor(np.zeros((32, 513))), 0)


def _unit_u(rows, rng):
    u = rng.normal(size=rows)
    return {"w": (u / np.linalg.norm(u)).astype(np.float32)}


class TestSpectralNormalize:
    def test_diagonal_oracle(self):
        rng = np.random.default_rng(0)
        sn = _unit_u(2, rng)
        w = Tensor(np.diag([3.0, 1.0]), requires_grad=True)
        with tt.no_grad():
            out = spectral_normalize(w, sn, "w", update=True)
        np.testing.assert_allclose(out.data, np.diag([1.0, 1.0 / 3.0]), atol=1e-6)

    def test_unit_sigma_fixed_point(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))  # orthogonal: all sigmas 1
        sn = _unit_u(8, rng)
        w = Tensor(q, requires_grad=True)
        with tt.no_grad():
            out = spectral_normalize(w, sn, "w", update=True)
        np.testing.assert_allclose(out.data, q, atol=1e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        sn = _unit_u(5, rng)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True, dtype=np.float64)
        proj = Tensor(rng.normal(size=(5, 4)), requires_grad=False, dtype=np.float64)

        def fn(ins):
            # update=False keeps u fixed so the function is differentiable
            return tt.tsum(tt.mul(spectral_normalize(ins[0], sn, "w", update=False),
                                  proj))

        err = tt.check_gradients(fn, [w], rel_tol=1e-5)
        assert err < 1e-5
