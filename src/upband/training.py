"""Adversarial training loop.

Per step: one discriminator update (hinge loss on real vs detached fake),
then one generator update (hinge adversarial term plus feature matching
weighted ``FM_WEIGHT``), both with Adam at beta1 = 0 and the constant
learning rates ``LR_G`` and ``LR_D``.
At beta1 = 0 Adam's first moment is the gradient itself, so only the
second moments are kept, and the step count is the training step's.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import tensor as tt
from .errors import (CheckpointError, ConfigError, DataError, NumericError, ShapeError,
                     require_positive)
from .model import (KERNEL, STRIDE, DiscriminatorConfig, GeneratorConfig,
                    all_discriminators_forward, discriminator_parameter_names,
                    discriminator_weights, generator_forward, generator_parameter_names,
                    init_parameters, is_spectrally_normalized, parameter_shapes)
from .tensor import Tensor


# Adam (Kingma & Ba 2015) at beta1 = 0, as GAN training since BigGAN (Brock
# et al. 2019) runs it, with the two-timescale learning rates of SAGAN (Zhang
# et al. 2019); feature matching weighted as in MelGAN (Kumar et al. 2019)
BETA2 = 0.999
EPS = 1e-8
LR_G = 1e-4
LR_D = 4e-4
FM_WEIGHT = 10.0


@dataclass
class TrainConfig:
    batch_frames: int = 128
    batch_size: int = 8
    max_steps: int = 1000
    seed: int = 0
    checkpoint_interval: int = 500

    def __post_init__(self):
        require_positive("TrainConfig", batch_frames=self.batch_frames,
                         batch_size=self.batch_size)
        for name in ("max_steps", "seed", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ConfigError(f"TrainConfig: {name} must be >= 0, got {getattr(self, name)}")


def adam_step(params: dict[str, Tensor], names, v: dict[str, np.ndarray],
              lr: float, t: int) -> None:
    """Bias-corrected Adam update number ``t`` (from 1) over ``names`` that
    clears each gradient it applies. At beta1 = 0 the first moment is the
    gradient, so each parameter moves by lr * g / (sqrt(v_hat) + eps); ``v``
    holds the second moments. It works in place in two scratch buffers per
    parameter, in the order of operations of the expression, so the bytes do
    not change."""
    for name in names:
        p = params[name]
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adam_step: non-finite gradient for parameter {name!r}")
        moment = v.get(name)
        if moment is None:
            moment = v[name] = np.zeros_like(p.data)
        a, b = np.empty_like(g), np.empty_like(g)
        moment *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        moment += a
        np.divide(moment, 1.0 - BETA2 ** t, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.multiply(g, lr, out=b)
        b /= a
        p.data -= b
        p.grad = None


# ---------------------------------------------------------------------------
# losses


def hinge_d_loss(logits: list[Tensor]) -> Tensor:
    """max(0, 1 - D(real)) + max(0, 1 + D(fake)), averaged over patches and
    discriminators; each tensor's first half of rows is real, the second fake."""
    if not logits:
        raise ShapeError("hinge_d_loss: empty logit list")
    total = None
    for x in logits:
        if x.shape[0] % 2:
            raise ShapeError(f"hinge_d_loss: {x.shape[0]} rows do not split into real and fake")
        sign = np.repeat(np.array([-1.0, 1.0], dtype=x.dtype), x.size // 2).reshape(x.shape)
        term = tt.tmean(tt.max_with_scalar(tt.add(tt.mul(x, sign), 1.0), 0.0))
        total = term if total is None else tt.add(total, term)
    return tt.mul(total, 2.0 / len(logits))


def hinge_g_loss(fake_logits: list[Tensor]) -> Tensor:
    """-D(fake), averaged over patches and discriminators."""
    if not fake_logits:
        raise ShapeError("hinge_g_loss: empty logit list")
    total = tt.tmean(fake_logits[0])
    for f in fake_logits[1:]:
        total = tt.add(total, tt.tmean(f))
    return tt.mul(total, -1.0 / len(fake_logits))


def feature_matching_loss(real_feats, fake_feats) -> Tensor:
    """Mean absolute difference over all hidden layers of all
    discriminators (the logits layer is excluded by construction).

    ``real_feats`` entries may be numpy arrays (already detached)."""
    if len(real_feats) != len(fake_feats):
        raise ShapeError(f"feature_matching_loss: {len(real_feats)} vs {len(fake_feats)} "
                         "discriminators")
    terms = []
    for rf, ff in zip(real_feats, fake_feats):
        if len(rf) != len(ff):
            raise ShapeError("feature_matching_loss: per-discriminator layer counts differ")
        for r, f in zip(rf, ff):
            terms.append(tt.tmean(tt.tabs(tt.sub(f, r.data if isinstance(r, Tensor) else r))))
    total = terms[0]
    for term in terms[1:]:
        total = tt.add(total, term)
    return tt.mul(total, 1.0 / len(terms))


# ---------------------------------------------------------------------------
# state and steps


@dataclass
class TrainState:
    params: dict[str, Tensor]
    # spectral-norm u vector by discriminator weight name
    sn: dict[str, np.ndarray]
    # Adam second moments by parameter name, for the generator and the discriminators
    adam_g: dict[str, np.ndarray]
    adam_d: dict[str, np.ndarray]
    gen_cfg: GeneratorConfig
    disc_cfg: DiscriminatorConfig
    train_cfg: TrainConfig
    rng: np.random.Generator
    step: int = 0
    # corpus-relative names of the files trained on, kept across resumes
    train_files: tuple[str, ...] = ()

    @classmethod
    def fresh(cls, gen_cfg, disc_cfg, train_cfg) -> "TrainState":
        params, sn = init_parameters(gen_cfg, disc_cfg, train_cfg.seed)
        return cls(params=params, sn=sn, adam_g={}, adam_d={},
                   gen_cfg=gen_cfg, disc_cfg=disc_cfg, train_cfg=train_cfg,
                   rng=np.random.default_rng(train_cfg.seed))


@dataclass
class StepReport:
    step: int
    d_loss: float
    g_adv: float
    g_fm: float
    seconds: float

    def log_line(self) -> str:
        # no timing column: the log must be bit-identical across runs of
        # the same seed
        return f"{self.step}\t{self.d_loss:.6f}\t{self.g_adv:.6f}\t{self.g_fm:.6f}"


def train_step(state: TrainState, low: np.ndarray, high_real: np.ndarray) -> StepReport:
    """One discriminator update followed by one generator update.

    ``low`` is [B, T, 257] conditioning log magnitudes, ``high_real`` the
    matching [B, T, 256] ground-truth upper bins. Both are cast to the
    weights' dtype, so every op of the step runs at that precision.

    The generator runs once, on the tape. The discriminator update normalizes
    its weights once and scores real and detached fake frames as one batch;
    its backward leaves the generator's nodes for the generator update, which
    holds every discriminator tensor constant.
    """
    if low.ndim != 3 or high_real.ndim != 3 or low.shape[:2] != high_real.shape[:2]:
        raise ShapeError(f"train_step: inconsistent batch shapes {low.shape} / {high_real.shape}")
    t0 = time.perf_counter()
    params, sn, disc_cfg = state.params, state.sn, state.disc_cfg
    dtype = params["gen.in.w"].dtype
    low, high_real = low.astype(dtype, copy=False), high_real.astype(dtype, copy=False)
    low_t = Tensor(low)
    real_full = np.concatenate([low, high_real], axis=2)
    tt.reset_tape()
    fake = generator_forward(params, state.gen_cfg, low_t)

    # -- discriminator update: real and detached fake as one batch
    both = Tensor(np.concatenate([real_full, np.concatenate([low, fake.data], axis=2)]))
    d_logits, _ = all_discriminators_forward(discriminator_weights(params, sn, update=True),
                                             disc_cfg, both)
    d_loss = hinge_d_loss(d_logits)
    tt.backward(d_loss)
    adam_step(params, discriminator_parameter_names(params), state.adam_d, LR_D,
              state.step + 1)

    # -- generator update against the freshly updated discriminators
    with tt.no_grad():
        frozen = {name: Tensor(w.data)
                  for name, w in discriminator_weights(params, sn, update=False).items()}
        _, real_feats = all_discriminators_forward(frozen, disc_cfg, Tensor(real_full))
    fake_logits, fake_feats = all_discriminators_forward(frozen, disc_cfg,
                                                         tt.concat([low_t, fake], axis=2))
    g_adv = hinge_g_loss(fake_logits)
    g_fm = feature_matching_loss(real_feats, fake_feats)
    tt.backward(tt.add(g_adv, tt.mul(g_fm, FM_WEIGHT)))
    adam_step(params, generator_parameter_names(params), state.adam_g, LR_G,
              state.step + 1)

    state.step += 1
    report = StepReport(step=state.step, d_loss=d_loss.item(), g_adv=g_adv.item(),
                        g_fm=g_fm.item(), seconds=time.perf_counter() - t0)
    if not all(np.isfinite([report.d_loss, report.g_adv, report.g_fm])):
        raise NumericError(f"train_step: non-finite loss at step {report.step}: "
                           f"d={report.d_loss} g_adv={report.g_adv} g_fm={report.g_fm}")
    return report


# ---------------------------------------------------------------------------
# batching over training examples


def sample_batch(dataset, rng: np.random.Generator, batch_size: int, batch_frames: int):
    """Cut ``batch_size`` random fixed-length frame windows from the dataset.

    Short examples are tiled to reach the window length; selection and
    offsets come from the caller's RNG so runs are reproducible.
    """
    lows, highs = [], []
    for _ in range(batch_size):
        ex = dataset[int(rng.integers(0, len(dataset)))]
        frames = ex.low_log_mag.shape[0]
        if frames >= batch_frames:
            off = int(rng.integers(0, frames - batch_frames + 1))
            lo = ex.low_log_mag[off:off + batch_frames]
            hi = ex.high_log_mag_real[off:off + batch_frames]
        else:
            reps = -(-batch_frames // frames)
            lo = np.tile(ex.low_log_mag, (reps, 1))[:batch_frames]
            hi = np.tile(ex.high_log_mag_real, (reps, 1))[:batch_frames]
        lows.append(lo)
        highs.append(hi)
    return (np.stack(lows).astype(np.float32), np.stack(highs).astype(np.float32))


# ---------------------------------------------------------------------------
# checkpointing


def _architecture_digest(gen_cfg: GeneratorConfig, disc_cfg: DiscriminatorConfig) -> bytes:
    """Digest of the config fields that shape the weights.

    Training hyperparameters may differ between the run that wrote a
    checkpoint and the one reading it, and ``max_frames``, the context
    length, sets no weight's shape. The constant kernel and stride are
    digested too, so checkpoints written while they were config fields load.
    """
    gen = {f.name: getattr(gen_cfg, f.name) for f in fields(gen_cfg) if f.name != "max_frames"}
    return ckpt.config_digest(gen, {**asdict(disc_cfg), "kernel": KERNEL, "stride": STRIDE})


def _stored(tensors: dict[str, np.ndarray], key: str, shape=None) -> np.ndarray:
    """``tensors[key]``, refused as a CheckpointError when it is missing or,
    with ``shape`` given, shaped otherwise."""
    arr = tensors.get(key)
    if arr is None:
        raise CheckpointError(f"checkpoint: missing tensor {key!r}")
    if shape is not None and arr.shape != shape:
        raise CheckpointError(f"checkpoint: tensor {key!r} has shape {arr.shape}, "
                              f"expected {shape}")
    return arr


def save_checkpoint(path, state: TrainState) -> None:
    """Write the training state. The generator's weights come last: a load
    for inference keeps only them, and ``checkpoint.load_tensors``
    allocates in file order, so what such a load frees lies below what it
    keeps on the heap and the next load reuses it, where freed memory at the
    top of the heap would go back to the kernel and fault in again."""
    tensors: dict[str, np.ndarray] = {}
    for name in discriminator_parameter_names(state.params):
        tensors[f"param/{name}"] = state.params[name].data
    for name, u in state.sn.items():
        tensors[f"sn.u/{name}"] = u
    for tag, moments in (("adam_g", state.adam_g), ("adam_d", state.adam_d)):
        for name, v in moments.items():
            tensors[f"{tag}.v/{name}"] = v
    tensors["step"] = np.array(state.step, dtype=np.int64)
    rng_state = json.dumps(state.rng.bit_generator.state).encode("utf-8")
    tensors["rng"] = np.frombuffer(rng_state, dtype=np.uint8)
    if state.train_files:
        names = "\n".join(state.train_files).encode("utf-8")
        tensors["train_files"] = np.frombuffer(names, dtype=np.uint8)
    for name in generator_parameter_names(state.params):
        tensors[f"param/{name}"] = state.params[name].data
    ckpt.save_tensors(path, tensors, _architecture_digest(state.gen_cfg, state.disc_cfg))


def load_checkpoint(path, gen_cfg: GeneratorConfig, disc_cfg: DiscriminatorConfig,
                    train_cfg: TrainConfig) -> TrainState:
    """Read a training state back. Every declared parameter and u vector must
    be stored in its declared shape; tensors the declaration does not name,
    such as the ``attn.bk`` key biases and the Adam first moments and step
    counters of older checkpoints, are ignored. A checkpoint without a
    ``train_files`` record loads with no training file names."""
    tensors = ckpt.load_tensors(path, expected_digest=_architecture_digest(gen_cfg, disc_cfg))
    shapes = parameter_shapes(gen_cfg, disc_cfg)
    params, sn = {}, {}
    for name, shape in shapes.items():
        stored = _stored(tensors, f"param/{name}", shape)
        params[name] = Tensor(stored.astype(np.float32, copy=False), requires_grad=True)
        if is_spectrally_normalized(name):
            sn[name] = _stored(tensors, f"sn.u/{name}", shape[:1])
    adam_g, adam_d = {}, {}
    for tag, moments in (("adam_g", adam_g), ("adam_d", adam_d)):
        for name, shape in shapes.items():
            key = f"{tag}.v/{name}"
            if key in tensors:
                moments[name] = _stored(tensors, key, shape)
    step = _stored(tensors, "step").reshape(-1)
    if step.size != 1 or step[0] < 0:
        raise CheckpointError(f"checkpoint: tensor 'step' must hold one count >= 0, got {step}")
    rng = np.random.default_rng(train_cfg.seed)
    try:
        rng.bit_generator.state = json.loads(bytes(_stored(tensors, "rng")).decode("utf-8"))
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint: tensor 'rng' is not a PCG64 state: {exc}") from exc
    train_files = ()
    if "train_files" in tensors:
        try:
            train_files = tuple(bytes(tensors["train_files"]).decode("utf-8").split("\n"))
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"checkpoint: tensor 'train_files' is not UTF-8: {exc}") from exc
    return TrainState(params=params, sn=sn, adam_g=adam_g, adam_d=adam_d, gen_cfg=gen_cfg,
                      disc_cfg=disc_cfg, train_cfg=train_cfg, rng=rng, step=int(step[0]),
                      train_files=train_files)


def train_loop(dataset, gen_cfg: GeneratorConfig, disc_cfg: DiscriminatorConfig,
               train_cfg: TrainConfig, run_dir, resume_from=None, train_files=()) -> Path:
    """Run the loop to ``max_steps``; returns the final checkpoint path.

    Writes ``loss.log`` (one tab-separated line per step) and periodic
    checkpoints into ``run_dir``. Every checkpoint records ``train_files``,
    the corpus-relative names of the dataset's files, after those a resumed
    checkpoint already holds.
    """
    if not dataset:
        raise DataError("train_loop: dataset is empty")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if resume_from is not None:
        state = load_checkpoint(resume_from, gen_cfg, disc_cfg, train_cfg)
    else:
        state = TrainState.fresh(gen_cfg, disc_cfg, train_cfg)
    state.train_files = tuple(dict.fromkeys((*state.train_files, *train_files)))
    log_path = run_dir / "loss.log"
    final_path = run_dir / "checkpoint_final.nug"
    with open(log_path, "a") as log_file:
        while state.step < train_cfg.max_steps:
            low, high = sample_batch(dataset, state.rng, train_cfg.batch_size,
                                     train_cfg.batch_frames)
            report = train_step(state, low, high)
            line = report.log_line()
            log_file.write(line + "\n")
            log_file.flush()
            if train_cfg.checkpoint_interval > 0 and \
                    state.step % train_cfg.checkpoint_interval == 0:
                save_checkpoint(run_dir / f"checkpoint_{state.step:07d}.nug", state)
    save_checkpoint(final_path, state)
    return final_path
