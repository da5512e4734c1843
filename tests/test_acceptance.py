"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line through pytest -v. Criteria with a
runtime clause assert their own budget. The suite is slower than the unit
tests (several minutes end to end) because two criteria run real training.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from upband import cli, data, dsp, metrics, model, selfcheck, tensor as tt, training
from upband.dsp import AudioBuffer
from upband.model import (DiscriminatorConfig, GeneratorConfig,
                          all_discriminators_forward, discriminator_forward,
                          discriminator_parameter_names, discriminator_weights,
                          generator_forward, generator_parameter_names, init_parameters)
from upband.tensor import Tensor
from upband.training import (TrainConfig, TrainState, feature_matching_loss,
                             hinge_d_loss, hinge_g_loss, sample_batch,
                             train_loop, train_step)

from conftest import tiny_disc_cfg, tiny_gen_cfg


def test_01_full_scale_targets_substituted():
    """Scores from full-scale runs of this system (multi-hour studio corpora,
    GPU-length training, human listening panels) are not reproducible on a
    desktop CPU and are treated as reference context only. The remaining
    criteria in this file substitute mechanical oracles, structural property
    checks, and reduced-width learning runs for them."""
    source = Path(__file__).read_text()
    assert source.count("\ndef test_") >= 10


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness


def _rand(rng, shape, dtype, low=None, high=None, signed=True):
    if low is not None:
        arr = rng.uniform(low, high, size=shape)
        if signed:
            arr = arr * np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    else:
        arr = rng.normal(size=shape)
    return Tensor(arr.astype(dtype), requires_grad=True, dtype=dtype)


def _scalarize(out, proj):
    return tt.tsum(tt.mul(out, proj))


def _primitive_cases(rng, dtype):
    """One random instance of every differentiable primitive, as
    (name, fn, inputs) with fn scalar-valued."""
    def proj(shape):
        return Tensor(rng.normal(size=shape).astype(dtype))

    a34 = _rand(rng, (3, 4), dtype)
    b34 = _rand(rng, (3, 4), dtype)
    off34 = _rand(rng, (3, 4), dtype, low=0.3, high=1.5)   # away from the kinks at 0
    # projections are fixed up front: the scalarized fns must be
    # deterministic for central differencing to make sense
    p34 = proj((3, 4))
    p26, p43, p38 = proj((2, 6)), proj((4, 3)), proj((3, 8))
    p35, p186 = proj((3, 5)), proj((1, 8, 6))
    c4 = np.linspace(-1.5, 2.0, 4)
    c34 = np.arange(12.0).reshape(3, 4) / 4.0
    cases = [
        ("add", lambda ins: _scalarize(tt.add(ins[0], ins[1]), p34), [a34, b34]),
        ("sub", lambda ins: _scalarize(tt.sub(ins[0], ins[1]), p34), [a34, b34]),
        ("mul", lambda ins: _scalarize(tt.mul(ins[0], ins[1]), p34), [a34, b34]),
        ("tabs", lambda ins: _scalarize(tt.tabs(ins[0]), p34), [off34]),
        ("leaky_relu", lambda ins: _scalarize(tt.leaky_relu(ins[0], 0.2), p34), [off34]),
        ("gelu", lambda ins: _scalarize(tt.gelu(ins[0]), p34), [a34]),
        ("max_with_scalar", lambda ins: _scalarize(tt.max_with_scalar(ins[0], 0.0), p34),
         [off34]),
        ("tsum", lambda ins: tt.tsum(tt.mul(ins[0], p34)), [a34]),
        ("tsum_plain", lambda ins: tt.tsum(ins[0]), [a34]),
        ("tmean", lambda ins: tt.tmean(tt.mul(ins[0], p34)), [a34]),
        ("reshape", lambda ins: _scalarize(tt.reshape(ins[0], (2, 6)), p26),
         [a34]),
        ("transpose", lambda ins: _scalarize(tt.transpose(ins[0], (1, 0)), p43),
         [a34]),
        ("concat", lambda ins: _scalarize(tt.concat([ins[0], ins[1]], axis=1),
                                          p38), [a34, b34]),
        # constant operands: not node inputs, cast to the tensor's dtype
        ("mul_broadcast_constant", lambda ins: _scalarize(tt.mul(ins[0], c4), p34), [a34]),
        ("add_scalar_constant", lambda ins: _scalarize(tt.add(ins[0], 0.75), p34), [a34]),
        ("sub_array_constant", lambda ins: _scalarize(tt.sub(ins[0], c34), p34), [a34]),
        ("matmul", lambda ins: _scalarize(tt.matmul(ins[0], ins[1]), p35),
         [a34, _rand(rng, (4, 5), dtype)]),
        ("linear", lambda ins: _scalarize(tt.linear(ins[0], ins[1], ins[2]),
                                          p35),
         [a34, _rand(rng, (4, 5), dtype), _rand(rng, (5,), dtype)]),
        ("conv1d_grouped", lambda ins: _scalarize(
            tt.conv1d_grouped(ins[0], ins[1], ins[2], stride=2, padding=1, groups=4),
            p186),
         [_rand(rng, (1, 8, 12), dtype), _rand(rng, (8, 2, 4), dtype),
          _rand(rng, (8,), dtype)]),
        ("softmax", lambda ins: _scalarize(tt.softmax(ins[0]), p34), [a34]),
        ("layer_norm", lambda ins: _scalarize(tt.layer_norm(ins[0], ins[1], ins[2]),
                                              p34),
         [a34, _rand(rng, (4,), dtype), _rand(rng, (4,), dtype)]),
    ]
    return cases


def _micro_model(seed):
    gen = GeneratorConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16)
    disc = DiscriminatorConfig(channels=8, group_counts=(1, 4), n_layers=2)
    params, sn = init_parameters(gen, disc, seed=seed)
    return gen, disc, params, sn


def _cast_params(params, dtype):
    for name in params:
        params[name] = Tensor(params[name].data.astype(dtype), requires_grad=True,
                              dtype=dtype)


def _small_names(params, prefix, limit=64):
    return [n for n in params if n.startswith(prefix) and params[n].data.size <= limit]


# ops with a kink; central differences are only trusted at coordinates
# where no activation changes side of its kink within the step
_KINKED = ("leaky_relu", "max_with_scalar", "tabs")


def _eval_with_kink_pattern(build_loss, params):
    signs = []
    saved = {name: getattr(tt, name) for name in _KINKED}

    def wrap(name, fn):
        def inner(a, *args, **kw):
            ref = args[0] if name == "max_with_scalar" else 0.0
            signs.append((a.data > ref).tobytes())
            return fn(a, *args, **kw)
        return inner

    for name in _KINKED:
        setattr(tt, name, wrap(name, saved[name]))
    try:
        value = float(build_loss(params).data)
    finally:
        for name in _KINKED:
            setattr(tt, name, saved[name])
    return value, b"".join(signs)


def _check_composed(build_loss, params, name, rel_tol, label):
    """Compare the analytic gradient of ``build_loss(params)`` with respect to
    ``params[name]``, taken at the parameters' own dtype, with central
    differences of the same loss evaluated on float64 copies of the
    parameters; ``build_loss`` casts its inputs to the dtype of the dict it
    is given. A float32 loss rounds at about 1e-7 of its value, which a
    central difference with a float32-sized step turns into errors of up to
    1e-2 on these losses, so the float32 gradient is checked against the
    float64 evaluation of the function it differentiates."""
    target = params[name]
    tt.reset_tape()
    target.zero_grad()
    tt.backward(build_loss(params))
    assert target.grad.dtype == target.dtype, label
    ana = target.grad.astype(np.float64).reshape(-1)
    ref = {n: Tensor(p.data, requires_grad=True, dtype=np.float64) for n, p in params.items()}
    flat = ref[name].data.reshape(-1)
    scale = max(1.0, float(np.max(np.abs(flat))))
    h = 1e-6 * scale
    num = np.zeros(flat.size)
    valid = np.ones(flat.size, dtype=bool)
    with tt.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp, sp = _eval_with_kink_pattern(build_loss, ref)
            flat[i] = orig - h
            fm, sm = _eval_with_kink_pattern(build_loss, ref)
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * h)
            valid[i] = sp == sm
    assert np.count_nonzero(valid) >= max(1, flat.size // 2), label
    denom = max(float(np.max(np.abs(num[valid]))),
                float(np.max(np.abs(ana[valid]))), 1e-8)
    err = float(np.max(np.abs(ana[valid] - num[valid]))) / denom
    assert err <= rel_tol, f"{label}: relative error {err:.3e} > {rel_tol:.1e}"


def _svd_spectral_normalize(weight, state, name, update=True):
    """Drop-in spectral normalizer with exact singular vectors.

    The production estimator tracks sigma by power iteration from a stored
    vector; finite differences of that estimator also see the iteration
    transient, which the rank-1 backward form deliberately ignores. With
    exact vectors the forward and the same backward form agree with central
    differences to machine precision, so the chain rule through the rest of
    the graph can be checked at full tolerance.
    """
    w2 = weight.data.reshape(weight.shape[0], -1)
    U, S, Vt = np.linalg.svd(w2, full_matrices=False)
    sigma = max(float(S[0]), 1e-12)
    uvT = np.outer(U[:, 0], Vt[0]).reshape(weight.shape)
    out = weight.data / sigma

    def bwd(g):
        coeff = float(np.sum(g * weight.data)) / (sigma * sigma)
        return ((g / sigma - coeff * uvT).astype(weight.dtype),)
    return tt._result(out.astype(weight.dtype), (weight,), bwd)


def _composed_loss_check(seed, dtype, rel_tol, which):
    gen, disc, params, sn = _micro_model(seed)
    _cast_params(params, dtype)
    rng = np.random.default_rng(seed + 1000)
    T = 8
    low = rng.normal(size=(1, T, 257)).astype(dtype)
    high = rng.normal(size=(1, T, 256)).astype(dtype)
    real_full = np.concatenate([low, high], axis=2)

    if which == "d":
        with tt.no_grad():
            fake = generator_forward(params, gen, Tensor(low)).data
        fake_full = np.concatenate([low, fake], axis=2)
        # out.b shifts real and fake logits identically, so the hinge
        # indicator terms cancel and its gradient is structurally zero;
        # a relative FD comparison of 0 against noise is meaningless
        candidates = [n for n in _small_names(params, "disc")
                      if not n.endswith("out.b")]

        def build_loss(ps):
            dt = ps["gen.in.w"].dtype
            both = Tensor(np.concatenate([real_full, fake_full]), dtype=dt)
            logits, _f = all_discriminators_forward(discriminator_weights(ps, sn, update=False),
                                                    disc, both)
            return hinge_d_loss(logits)
    else:
        # the real-side features are constants of the generator objective,
        # so they are computed once and closed over
        with tt.no_grad():
            _, real_feats = all_discriminators_forward(
                discriminator_weights(params, sn, update=False), disc, Tensor(real_full))
        real_feats = [[f.data.copy() for f in d] for d in real_feats]
        candidates = _small_names(params, "gen") + _small_names(params, "disc")

        def build_loss(ps):
            dt = ps["gen.in.w"].dtype
            low_t = Tensor(low, dtype=dt)
            fake_t = generator_forward(ps, gen, low_t)
            full = tt.concat([low_t, fake_t], axis=2)
            logits, fake_feats = all_discriminators_forward(
                discriminator_weights(ps, sn, update=False), disc, full)
            adv = hinge_g_loss(logits)
            fm = feature_matching_loss([[f.astype(dt) for f in d] for d in real_feats],
                                       fake_feats)
            return tt.add(adv, tt.mul(fm, 10.0))

    name = candidates[int(np.random.default_rng(seed).integers(0, len(candidates)))]
    saved_sn = model.spectral_normalize
    model.spectral_normalize = _svd_spectral_normalize
    try:
        _check_composed(build_loss, params, name,
                        rel_tol, f"{which}-loss seed {seed} {name} {dtype.__name__}")
    finally:
        model.spectral_normalize = saved_sn


def test_02_gradient_correctness():
    t0 = time.monotonic()
    n_cases = None
    for dtype, rel_tol in ((np.float32, 1e-3), (np.float64, 1e-6)):
        for instance in range(10):
            rng = np.random.default_rng(1000 * instance + 17)
            cases = _primitive_cases(rng, dtype)
            n_cases = len(cases)
            for name, fn, inputs in cases:
                worst = tt.check_gradients(fn, inputs, rel_tol=rel_tol)
                assert worst <= rel_tol, name
    assert n_cases == 21
    for dtype, rel_tol in ((np.float32, 1e-3), (np.float64, 1e-6)):
        for instance in range(10):
            _composed_loss_check(instance, dtype, rel_tol, "d")
            _composed_loss_check(instance + 50, dtype, rel_tol, "g")
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# criteria 3 and 4: DSP and metric oracles


def test_03_dsp_oracles():
    t0 = time.monotonic()
    selfcheck.stft_roundtrip()
    selfcheck.sinc_oracle()

    t = np.arange(44100) / 44100
    hi_tone = AudioBuffer(0.5 * np.sin(2 * np.pi * 15000 * t), 44100)
    down = dsp.downsample(hi_tone, 2)
    core = down.samples[2048:-2048]
    residual_db = 20 * np.log10(np.sqrt(np.mean(core ** 2)) / (0.5 / np.sqrt(2)))
    assert residual_db < -40.0

    assert time.monotonic() - t0 < 60.0


def test_04_lsd_oracle():
    selfcheck.lsd_oracle()
    x = AudioBuffer(np.random.default_rng(21).normal(size=16384) * 0.2, 44100)
    scaled = AudioBuffer(10.0 * x.samples, 44100)
    assert abs(metrics.lsd(x, scaled) - 2.0) < 1e-9
    assert metrics.lsd(x, x) == 0.0


# ---------------------------------------------------------------------------
# criterion 5: self-reconstruction bound


def test_05_self_reconstruction_bound():
    """A perfect upper-band prediction, put through ``reconstruct_full``, must
    land within LSD 0.1 of the original.

    Three 0.8 s ``synth_signal`` files (seed 33) are decimated and
    re-interpolated, as at inference time. The lower 257 bins, magnitude and
    phase, come from the interpolated signal's STFT: they are what the
    pipeline has. The upper 256 bins come whole from the original's STFT,
    magnitude and phase: they stand for the prediction. The upper phase is
    the original's because no phase estimate gets within the bound on these
    files. Reusing the interpolated phase there scores 1.19, as the
    interpolation has no coherent content above 11.025 kHz, and a uniform
    random phase 1.36. Fast Griffin-Lim on the upper band scores 0.47 after
    500 iterations, and the original itself, re-synthesised with only its
    upper partials' phases redrawn, 0.20-0.23. What this test bounds is
    therefore the band split itself: how well the decimator keeps the
    conditioning bins and how cleanly the two halves join in the iSTFT."""
    rng = np.random.default_rng(33)
    scores = []
    for _ in range(3):
        truth = data.synth_signal(rng, 0.8)
        interp = dsp.sinc_upsample(dsp.downsample(truth, 2), 2)
        spec_i = dsp.stft(interp)
        spec_t = dsp.stft(truth)
        frames = min(spec_i.shape[0], spec_t.shape[0])
        low = dsp.to_log_magnitude(np.abs(spec_i[:frames, :dsp.LOW_BINS]))
        high_true = dsp.to_log_magnitude(np.abs(spec_t[:frames, dsp.LOW_BINS:]))
        phase = np.concatenate([np.angle(spec_i[:frames, :dsp.LOW_BINS]),
                                np.angle(spec_t[:frames, dsp.LOW_BINS:])], axis=1)
        recon = dsp.reconstruct_full(low, high_true, phase, truth.sample_rate)
        scores.append(metrics.lsd(truth, recon))
    assert float(np.mean(scores)) < 0.1, f"mean LSD {np.mean(scores):.4f}"


# ---------------------------------------------------------------------------
# criterion 6: spectral norm bound over a real training run


def test_06_spectral_norm_bounded_through_training(small_examples):
    gen, disc = tiny_gen_cfg(), tiny_disc_cfg()
    cfg = TrainConfig(batch_size=1, batch_frames=16, seed=0)
    state = TrainState.fresh(gen, disc, cfg)
    worst = (1.0, "")
    for step in range(500):
        low, high = sample_batch(small_examples, state.rng, 1, 16)
        train_step(state, low, high)
        with tt.no_grad():
            for name in state.sn:
                normalized = model.spectral_normalize(state.params[name], state.sn,
                                                      name, update=False)
                flat = normalized.data.reshape(normalized.shape[0], -1)
                sigma = float(np.linalg.svd(flat, compute_uv=False)[0])
                if abs(sigma - 1.0) > abs(worst[0] - 1.0):
                    worst = (sigma, f"{name} at step {step + 1}")
                assert 0.9 <= sigma <= 1.1, f"{name}: sigma {sigma:.4f} at step {step + 1}"
    assert 0.9 <= worst[0] <= 1.1


# ---------------------------------------------------------------------------
# criterion 7: structural properties of the adversarial objective


def test_07_gan_structure():
    margins = hinge_d_loss([Tensor(np.array([1.0, 1.0, -1.0, -1.0]))])
    assert margins.item() == 0.0

    gen, disc, params, sn = _micro_model(3)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 8, 513)).astype(np.float32))
    with tt.no_grad():
        _, feats_a = discriminator_forward(discriminator_weights(params, sn, update=False),
                                           disc, x, 0)
        params["disc0.out.w"].data += 50.0
        params["disc0.out.b"].data += 50.0
        _, feats_b = discriminator_forward(discriminator_weights(params, sn, update=False),
                                           disc, x, 0)
    for a, b in zip(feats_a, feats_b):
        np.testing.assert_array_equal(a.data, b.data)

    selfcheck.group_independence()


# ---------------------------------------------------------------------------
# criterion 8: desk-scale learning beats the interpolation baseline


def _kv_value(output, key):
    for line in output.splitlines():
        if f"{key}=" in line:
            for token in line.split():
                if token.startswith(f"{key}="):
                    return float(token.split("=")[1])
    raise AssertionError(f"{key} not found in:\n{output}")


def test_08_desk_scale_learning(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run = tmp_path / "run"
    cfg_file = tmp_path / "desk.cfg"
    cfg_file.write_text(
        "[train]\nmax_steps = 400\nseed = 0\ncheckpoint_interval = 0\n"
        "[data]\nheldout_fraction = 0.1667\n")

    assert cli.main(["synth", "--out", str(corpus), "--files", "60",
                     "--duration", "0.5", "--seed", "0"]) == 0
    assert cli.main(["train", "--preset", "desk", "--config", str(cfg_file),
                     "--corpus", str(corpus), "--run-dir", str(run)]) == 0
    capsys.readouterr()

    assert cli.main(["evaluate", "--preset", "desk", "--config", str(cfg_file),
                     "--corpus", str(corpus), "--baseline"]) == 0
    base_out = capsys.readouterr().out
    assert cli.main(["evaluate", "--preset", "desk", "--config", str(cfg_file),
                     "--corpus", str(corpus),
                     "--checkpoint", str(run / "checkpoint_final.nug")]) == 0
    model_out = capsys.readouterr().out

    base = _kv_value(base_out, "lsd_mean")
    learned = _kv_value(model_out, "lsd_mean")
    assert _kv_value(base_out, "n_files") >= 10
    assert learned < base
    assert (base - learned) / base >= 0.15, \
        f"baseline {base:.4f}, model {learned:.4f}"


# ---------------------------------------------------------------------------
# criterion 9: single-batch overfit


def _high_bin_lsd(params, gen, low, high_true):
    with tt.no_grad():
        pred = generator_forward(params, gen, Tensor(low)).data
    diff = (pred - high_true) * (2.0 / np.log(10.0))
    return float(np.mean(np.sqrt(np.mean(diff ** 2, axis=-1))))


def test_09_single_batch_overfit(small_examples):
    gen, disc = tiny_gen_cfg(), tiny_disc_cfg()
    cfg = TrainConfig(batch_size=2, batch_frames=32, seed=0)
    state = TrainState.fresh(gen, disc, cfg)
    low, high = sample_batch(small_examples, np.random.default_rng(0), 2, 32)
    initial = _high_bin_lsd(state.params, gen, low, high)
    current = initial
    for step in range(2000):
        train_step(state, low, high)
        if (step + 1) % 25 == 0:
            current = _high_bin_lsd(state.params, gen, low, high)
            if current < 0.5 * initial:
                break
    assert current < 0.5 * initial, \
        f"high-bin LSD {current:.4f} vs initial {initial:.4f}"


# ---------------------------------------------------------------------------
# criterion 10: determinism and resume


def test_10_determinism_and_resume(small_examples, tmp_path):
    gen, disc = tiny_gen_cfg(), tiny_disc_cfg()

    logs = []
    for name in ("a", "b"):
        cfg = TrainConfig(batch_size=1, batch_frames=16, max_steps=25, seed=3,
                          checkpoint_interval=0)
        train_loop(small_examples, gen, disc, cfg, tmp_path / name)
        logs.append((tmp_path / name / "loss.log").read_bytes())
    assert logs[0] == logs[1]

    cfg15 = TrainConfig(batch_size=1, batch_frames=16, max_steps=15, seed=3,
                        checkpoint_interval=0)
    ckpt = train_loop(small_examples, gen, disc, cfg15, tmp_path / "part")
    cfg25 = TrainConfig(batch_size=1, batch_frames=16, max_steps=25, seed=3,
                        checkpoint_interval=0)
    train_loop(small_examples, gen, disc, cfg25, tmp_path / "resumed",
               resume_from=ckpt)
    resumed = (tmp_path / "resumed" / "loss.log").read_text().splitlines()
    straight = logs[0].decode().splitlines()
    assert len(resumed) == 10
    assert resumed == straight[-10:]
