"""Generator and discriminator networks.

The generator is a bidirectional transformer encoder mapping the 257
conditioning bins of each frame to the 256 missing upper bins. The
discriminators are five spectrally-normalized convolutional stacks over
full 513-bin frames; each one partitions its channels into a different
number of groups so it specializes on a different frequency granularity.
``discriminator_weights`` normalizes their weights once per weight state,
and the discriminator forwards take the dict it returns.

The paper-level constants (6 transformer layers, group counts 1/4/16/64/256,
kernel 4 stride 2) live in the config defaults, as do the widths the source
material leaves open. What it also leaves open is fixed in code to the
canonical transformer choices: pre-norm residual blocks, GELU feed-forward
layers and leaky-ReLU discriminator activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .dsp import HIGH_BINS, LOW_BINS, N_BINS
from .errors import ConfigError, ShapeError, require_positive
from .tensor import Tensor

LEAKY_SLOPE = 0.2


@dataclass
class GeneratorConfig:
    n_layers: int = 6
    d_model: int = 512
    n_heads: int = 8
    d_ff: int = 2048
    max_frames: int = 128

    def __post_init__(self):
        require_positive("GeneratorConfig", n_layers=self.n_layers, d_model=self.d_model,
                         n_heads=self.n_heads, d_ff=self.d_ff, max_frames=self.max_frames)
        if self.d_model % 2 != 0:
            raise ConfigError(f"GeneratorConfig: d_model={self.d_model} must be even "
                              "(positions pair a sine with a cosine)")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"GeneratorConfig: d_model={self.d_model} not divisible by "
                              f"n_heads={self.n_heads}")


@dataclass
class DiscriminatorConfig:
    group_counts: tuple = (1, 4, 16, 64, 256)
    channels: int = 512
    n_layers: int = 4
    kernel: int = 4
    stride: int = 2

    def __post_init__(self):
        self.group_counts = tuple(int(g) for g in self.group_counts)
        require_positive("DiscriminatorConfig", group_counts=min(self.group_counts, default=0),
                         channels=self.channels, n_layers=self.n_layers, kernel=self.kernel,
                         stride=self.stride)
        for g in self.group_counts:
            if self.channels % g != 0:
                raise ConfigError(f"DiscriminatorConfig: channels={self.channels} not divisible "
                                  f"by group count {g}")

    @property
    def n_discriminators(self) -> int:
        return len(self.group_counts)


# Discriminator spectra stay tightly clustered during training, so a
# single power iteration per forward lags the optimizer and can misjudge
# sigma by 30% or more. A short fixed budget keeps the estimate within a
# few percent of the dense-SVD value at negligible matvec cost.
POWER_ITERS = 20


def spectral_normalize(weight: Tensor, sn: dict[str, np.ndarray], name: str,
                       update: bool = True) -> Tensor:
    """Divide a weight by its power-iteration largest-singular-value estimate.

    The weight is viewed as 2-D with output channels first. Every call
    advances a working copy of ``sn[name]``, the persisted unit estimate of
    the weight's left singular vector u, by ``POWER_ITERS``
    iterations before sigma is read off; with ``update`` set (training)
    the advanced vector is stored back. Gradient flows through sigma
    with u and v treated as constants (standard practice).
    """
    w2 = weight.data.reshape(weight.shape[0], -1)
    u = sn[name].astype(w2.dtype)
    v = None
    for _ in range(POWER_ITERS):
        v = w2.T @ u
        v = v / max(np.linalg.norm(v), 1e-12)
        u = w2 @ v
        u = u / max(np.linalg.norm(u), 1e-12)
    if update:
        sn[name] = u.astype(np.float32)
    sigma = float(u @ w2 @ v)
    sigma = max(sigma, 1e-12)
    out = weight.data / sigma

    uvT = np.outer(u, v).reshape(weight.shape)

    def bwd(g):
        coeff = float(np.sum(g * weight.data)) / (sigma * sigma)
        return ((g / sigma - coeff * uvT).astype(weight.dtype),)

    return tt._result(out.astype(weight.dtype), (weight,), bwd)


# ---------------------------------------------------------------------------
# initialization


def parameter_shapes(gen_cfg: GeneratorConfig,
                     disc_cfg: DiscriminatorConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in init order: the one declaration
    of the parameter set, which ``init_parameters`` fills and checkpoint
    loading checks a file against.

    Keys carry no bias: it would shift every attention score of a query
    by the same amount, which softmax ignores.
    """
    d, dff = gen_cfg.d_model, gen_cfg.d_ff
    shapes = {"gen.in.w": (LOW_BINS, d), "gen.in.b": (d,)}
    for i in range(gen_cfg.n_layers):
        p = f"gen.L{i}"
        shapes.update({f"{p}.ln1.g": (d,), f"{p}.ln1.b": (d,)})
        shapes.update({f"{p}.attn.{nm}": (d, d) for nm in ("wq", "wk", "wv", "wo")})
        shapes.update({f"{p}.attn.{nm}": (d,) for nm in ("bq", "bv", "bo")})
        shapes.update({f"{p}.ln2.g": (d,), f"{p}.ln2.b": (d,),
                       f"{p}.ff.w1": (d, dff), f"{p}.ff.b1": (dff,),
                       f"{p}.ff.w2": (dff, d), f"{p}.ff.b2": (d,)})
    shapes.update({"gen.lnf.g": (d,), "gen.lnf.b": (d,),
                   "gen.out.w": (d, HIGH_BINS), "gen.out.b": (HIGH_BINS,)})
    C, k = disc_cfg.channels, disc_cfg.kernel
    for j, g in enumerate(disc_cfg.group_counts):
        p = f"disc{j}"
        shapes.update({f"{p}.proj.w": (C, N_BINS, 1), f"{p}.proj.b": (C,)})
        for i in range(1, disc_cfg.n_layers + 1):
            shapes.update({f"{p}.conv{i}.w": (C, C // g, k), f"{p}.conv{i}.b": (C,)})
        shapes.update({f"{p}.out.w": (1, C, 1), f"{p}.out.b": (1,)})
    return shapes


def is_spectrally_normalized(name: str) -> bool:
    """Every discriminator weight, and nothing else, keeps a u vector."""
    return name.startswith("disc") and name.endswith(".w")


def init_parameters(gen_cfg: GeneratorConfig, disc_cfg: DiscriminatorConfig,
                    seed: int) -> tuple[dict[str, Tensor], dict[str, np.ndarray]]:
    """Deterministic fan-in-scaled uniform init of every weight; layer-norm
    gains one, biases and shifts zero. A spectrally normalized weight's u
    vector is drawn right after the weight."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    sn: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(gen_cfg, disc_cfg).items():
        if len(shape) == 1:
            fill = np.ones if name.endswith(".g") else np.zeros
            array = fill(shape, dtype=np.float32)
        else:
            # linear weights are [d_in, d_out], conv weights [C_out, C_in/g, k]
            fan_in = shape[0] if len(shape) == 2 else shape[1] * shape[2]
            bound = 1.0 / math.sqrt(fan_in)
            array = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        params[name] = Tensor(array, requires_grad=True)
        if is_spectrally_normalized(name):
            u = rng.normal(size=shape[0])
            sn[name] = (u / np.linalg.norm(u)).astype(np.float32)
    # converge the singular-vector estimates before the first step
    with tt.no_grad():
        discriminator_weights(params, sn, update=True)
    return params, sn


def generator_parameter_names(params) -> list[str]:
    return [k for k in params if k.startswith("gen.")]


def discriminator_parameter_names(params) -> list[str]:
    return [k for k in params if k.startswith("disc")]


# ---------------------------------------------------------------------------
# generator


def sinusoidal_positions(n_frames: int, d_model: int) -> np.ndarray:
    pos = np.arange(n_frames)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((n_frames, d_model), dtype=np.float32)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def generator_forward(params: dict[str, Tensor], cfg: GeneratorConfig, low: Tensor) -> Tensor:
    """Map log magnitudes [B, T, LOW_BINS] to [B, T, HIGH_BINS].

    Attention is bidirectional (no causal mask); every output frame may
    depend on every input frame of its sequence.
    """
    B, T, bins = low.shape
    if bins != LOW_BINS:
        raise ShapeError(f"generator_forward: expected {LOW_BINS} input bins, got {bins}")
    if T > cfg.max_frames:
        raise ShapeError(f"generator_forward: {T} frames exceeds the context length "
                         f"{cfg.max_frames}")
    d, H = cfg.d_model, cfg.n_heads
    dh = d // H
    scale = 1.0 / math.sqrt(dh)

    h = tt.linear(low, params["gen.in.w"], params["gen.in.b"])
    h = tt.add(h, sinusoidal_positions(T, d)[None])

    for i in range(cfg.n_layers):
        p = f"gen.L{i}"
        a = tt.layer_norm(h, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        q = tt.linear(a, params[f"{p}.attn.wq"], params[f"{p}.attn.bq"])
        k = tt.matmul(a, params[f"{p}.attn.wk"])
        v = tt.linear(a, params[f"{p}.attn.wv"], params[f"{p}.attn.bv"])
        q = tt.transpose(tt.reshape(q, (B, T, H, dh)), (0, 2, 1, 3))
        k = tt.transpose(tt.reshape(k, (B, T, H, dh)), (0, 2, 1, 3))
        v = tt.transpose(tt.reshape(v, (B, T, H, dh)), (0, 2, 1, 3))
        scores = tt.mul(tt.matmul(q, tt.transpose(k, (0, 1, 3, 2))), scale)
        attn = tt.softmax(scores, axis=-1)
        ctx = tt.matmul(attn, v)
        ctx = tt.reshape(tt.transpose(ctx, (0, 2, 1, 3)), (B, T, d))
        h = tt.add(h, tt.linear(ctx, params[f"{p}.attn.wo"], params[f"{p}.attn.bo"]))

        f = tt.layer_norm(h, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        f = tt.gelu(tt.linear(f, params[f"{p}.ff.w1"], params[f"{p}.ff.b1"]))
        f = tt.linear(f, params[f"{p}.ff.w2"], params[f"{p}.ff.b2"])
        h = tt.add(h, f)

    h = tt.layer_norm(h, params["gen.lnf.g"], params["gen.lnf.b"])
    return tt.linear(h, params["gen.out.w"], params["gen.out.b"])


def make_generator_fn(params: dict[str, Tensor], cfg: GeneratorConfig):
    """Inference closure: numpy [T, LOW_BINS] -> numpy [T, HIGH_BINS], run as
    one batch of n = ceil(T / max_frames) equal windows, the training context,
    the last ending at frame T; fewer than n frames fall in two windows. The
    windows are cast to the weights' dtype, so the output has that dtype too."""

    def fn(low_log_mag: np.ndarray) -> np.ndarray:
        dtype = params["gen.in.w"].dtype
        T = low_log_mag.shape[0]
        n = -(-T // cfg.max_frames)
        L = -(-T // n)
        frames = np.minimum(np.arange(n) * L, T - L)[:, None] + np.arange(L)
        with tt.no_grad():
            pred = generator_forward(params, cfg, Tensor(low_log_mag[frames], dtype=dtype)).data
        out = np.empty((T, HIGH_BINS), dtype=pred.dtype)
        out[frames] = pred
        return out

    return fn


# ---------------------------------------------------------------------------
# discriminators


def discriminator_weights(params: dict[str, Tensor], sn: dict[str, np.ndarray],
                          update: bool) -> dict[str, Tensor]:
    """Every ``disc*`` tensor as the discriminators use it: the weights
    spectrally normalized (``update`` stores their u vectors), the biases as is."""
    return {name: spectral_normalize(params[name], sn, name, update=update)
            if is_spectrally_normalized(name) else params[name]
            for name in discriminator_parameter_names(params)}


def discriminator_forward(weights: dict[str, Tensor], cfg: DiscriminatorConfig,
                          full: Tensor, d_index: int) -> tuple[Tensor, list[Tensor]]:
    """One grouped discriminator over full-band frames.

    ``weights`` comes from ``discriminator_weights``, ``full`` is [B, T, 513].
    An ungrouped 1x1 projection maps the 513 bins to the channel width (513
    is not divisible by the group counts), then ``n_layers`` grouped stride-2
    convolutions, then a 1x1 map to per-window logits. Features are the
    grouped-layer activations, in order.
    """
    if not 0 <= d_index < cfg.n_discriminators:
        raise ConfigError(f"discriminator_forward: d_index {d_index} out of range "
                          f"[0, {cfg.n_discriminators})")
    if full.ndim != 3 or full.shape[-1] != N_BINS:
        raise ShapeError(f"discriminator_forward: expected [B, T, {N_BINS}] frames, "
                         f"got {full.shape}")
    x = tt.transpose(full, (0, 2, 1))  # [B, 513, T]
    g = cfg.group_counts[d_index]
    p = f"disc{d_index}"

    h = tt.leaky_relu(tt.conv1d_grouped(x, weights[f"{p}.proj.w"], weights[f"{p}.proj.b"]),
                      LEAKY_SLOPE)
    features: list[Tensor] = []
    for i in range(1, cfg.n_layers + 1):
        h = tt.leaky_relu(
            tt.conv1d_grouped(h, weights[f"{p}.conv{i}.w"], weights[f"{p}.conv{i}.b"],
                              stride=cfg.stride, padding=1, groups=g), LEAKY_SLOPE)
        features.append(h)

    logits = tt.conv1d_grouped(h, weights[f"{p}.out.w"], weights[f"{p}.out.b"])  # [B, 1, T']
    logits = tt.transpose(logits, (0, 2, 1))                                      # [B, T', 1]
    return logits, features


def all_discriminators_forward(weights, cfg: DiscriminatorConfig, full: Tensor):
    """Run every discriminator on the same input; independent logits/features."""
    logits, feats = [], []
    for j in range(cfg.n_discriminators):
        lg, ft = discriminator_forward(weights, cfg, full, j)
        logits.append(lg)
        feats.append(ft)
    return logits, feats
