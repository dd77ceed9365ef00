"""One conditional generator/discriminator pair per column.

The generator maps (other columns, Gaussian noise) to a candidate value
for the target column; the discriminator scores (other columns, value)
pairs in (0, 2), pushing observed rows toward 2 and generated rows toward
0.  Training alternates blocks of discriminator and generator updates with
a supervised accuracy penalty added to the generator objective.

Column kinds: continuous targets use an identity head on standardised
values, binary targets a sigmoid head on {0, 1} codes, and categorical
targets a group of sigmoid heads over one-hot levels whose probabilities
are renormalised at sampling time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InsufficientDataError, NumericError, ShapeError
from .losses import (
    GEN_TARGET,
    REAL_TARGET,
    accuracy_penalty_grad,
    discriminator_loss,
    generator_loss,
)
from .nn import (
    Mlp,
    ParamGrads,
    adam_new,
    adam_step,
    _backward_from_cache,
    _delta_buffers,
    _forward_cache,
    _hidden_buffers,
    forward,
    mlp_new,
)
from .seeding import canonical_seed

COLUMN_KINDS = ("continuous", "binary", "categorical")

# Standard deviations below this are treated as degenerate (scale 1).
_MIN_SCALE = 1e-9


@dataclass
class TrainConfig:
    """Hyperparameters for one adversarial fit.

    ``max_epochs`` caps the total number of generator updates; one cycle
    runs ``disc_iters_per_cycle`` discriminator updates followed by up to
    ``gen_iters_per_cycle`` generator updates.  Training stops early when
    the generator total loss has not improved by ``early_stop_tol`` for
    ``early_stop_patience`` consecutive cycles.
    """

    lr_generator: float = 0.001
    lr_discriminator: float = 0.0005
    l2: float = 0.0001
    gen_iters_per_cycle: int = 50
    disc_iters_per_cycle: int = 10
    batch_size: int = 256
    max_epochs: int = 10_000
    acc_penalty_weight: float = 1.0
    early_stop_patience: int = 50
    early_stop_tol: float = 1e-4
    noise_dim: int = 8
    seed: int = 0

    def validate(self) -> None:
        if self.lr_generator <= 0 or self.lr_discriminator <= 0:
            raise ConfigError("learning rates must be positive")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")
        for name in ("gen_iters_per_cycle", "disc_iters_per_cycle", "batch_size", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.acc_penalty_weight < 0:
            raise ConfigError("acc_penalty_weight must be non-negative")
        if self.noise_dim < 1:
            raise ConfigError("noise_dim must be at least 1")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be at least 1")


@dataclass
class TrainTrace:
    """Per-cycle training record: losses averaged over each cycle's updates."""

    disc_loss: list[float] = field(default_factory=list)
    gen_loss: list[float] = field(default_factory=list)
    acc_penalty: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gen_loss)


@dataclass
class GcinPair:
    """A trained generator/discriminator pair for one column.

    Holds the affine conditioning/target normalisation fitted from the
    training data so imputation can run on raw-scale inputs.
    """

    generator: Mlp
    discriminator: Mlp
    noise_dim: int
    column_index: int
    column_kind: str
    n_levels: int
    cond_shift: np.ndarray
    cond_scale: np.ndarray
    target_shift: float
    target_scale: float

    def __post_init__(self):
        if self.noise_dim < 1:
            raise ValueError("noise_dim must be at least 1")
        cond_width = self.cond_shift.size
        target_width = self.n_levels if self.column_kind == "categorical" else 1
        if self.generator.input_dim != cond_width + self.noise_dim:
            raise ShapeError("generator input width != conditioning width + noise_dim")
        if self.discriminator.input_dim != cond_width + target_width:
            raise ShapeError("discriminator input width != conditioning width + target width")


def scale_architecture(n_samples: int, n_features: int) -> list[int]:
    """Dataset-adaptive hidden sizes: [100] up to 20k rows, [200, 100] for
    mid-sized data, [400, 200] beyond 30k rows when there are >= 50 features."""
    if n_samples <= 0 or n_features <= 0:
        raise ValueError("n_samples and n_features must be positive")
    if n_samples <= 20_000:
        return [100]
    if n_samples < 30_000:
        return [200, 100]
    if n_features >= 50:
        return [400, 200]
    return [200, 100]


def _standardize_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shift = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < _MIN_SCALE, 1.0, scale)
    return shift, scale


def _encode_target(x_target: np.ndarray, kind: str, n_levels: int | None):
    """Returns (encoded (n, width) array, shift, scale, width, n_levels)."""
    x_target = np.asarray(x_target, dtype=float)
    if x_target.ndim != 1:
        raise ShapeError(f"x_target must be 1-D, got shape {x_target.shape}")
    if kind == "continuous":
        shift, scale = _standardize_fit(x_target[:, None])
        enc = (x_target[:, None] - shift) / scale
        return enc, float(shift[0]), float(scale[0]), 1, 1
    if kind == "binary":
        if not np.all((x_target == 0.0) | (x_target == 1.0)):
            raise ValueError("binary targets must be coded 0/1")
        return x_target[:, None].copy(), 0.0, 1.0, 1, 2
    if kind == "categorical":
        codes = x_target.astype(int)
        if np.any(codes != x_target) or codes.min() < 0:
            raise ValueError("categorical targets must be non-negative integer codes")
        levels = int(n_levels) if n_levels is not None else int(codes.max()) + 1
        if codes.max() >= levels:
            raise ValueError("categorical code out of range for declared level count")
        enc = np.zeros((codes.size, levels))
        enc[np.arange(codes.size), codes] = 1.0
        return enc, 0.0, 1.0, levels, levels
    raise ValueError(f"unknown column kind {kind!r}")


class _Workspace:
    """Buffers one fit reuses on every update: the conditioning, noise and
    target rows of a minibatch, the generator input (cond | z | 1), the
    stacked discriminator input with rows (cond | target | 1) on top of
    rows (cond | fake | 1), the hidden activations and the gradients carried
    between hidden layers of both networks, and both networks' parameter
    gradients.  ``fake_in``, ``fake_hidden`` and ``fake_deltas`` view the
    fake half of the discriminator's buffers, for the generator step."""

    def __init__(self, gen: Mlp, disc: Mlp, batch: int, cond_width: int):
        self.cond = np.empty((batch, cond_width))
        self.z = np.empty((batch, gen.input_dim - cond_width))
        self.target = np.empty((batch, disc.input_dim - cond_width))
        self.gen_in = np.ones((batch, gen.input_dim + 1))
        self.disc_in = np.ones((2 * batch, disc.input_dim + 1))
        self.gen_hidden = _hidden_buffers(gen, batch)
        self.disc_hidden = _hidden_buffers(disc, 2 * batch)
        self.gen_deltas = _delta_buffers(gen, batch)
        self.disc_deltas = _delta_buffers(disc, 2 * batch)
        self.fake_in = self.disc_in[batch:]
        self.fake_hidden = [h[batch:] for h in self.disc_hidden]
        self.fake_deltas = [d[batch:] for d in self.disc_deltas]
        self.gen_grads = ParamGrads.zeros_like(gen)
        self.disc_grads = ParamGrads.zeros_like(disc)


def _fill(buf: np.ndarray, cond: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Write (cond | tail) into ``buf`` ahead of its ones column; return it."""
    width = cond.shape[1]
    buf[:, :width] = cond
    buf[:, width:-1] = tail
    return buf


def _disc_grads(
    disc: Mlp, inputs: np.ndarray, ws: _Workspace | None = None
) -> tuple[float, ParamGrads]:
    """Loss and parameter gradients for one discriminator update.

    ``inputs`` stacks the real rows (cond | target | 1) on top of as many
    fake rows (cond | fake | 1); one forward and one backward pass over
    the stack, with output gradient [(d_real - 2) / B; d_fake / B], give
    the summed gradient of both halves, in ``ws`` when given.
    """
    n = inputs.shape[0] // 2
    if ws is None:
        hidden = deltas = None
        grads = ParamGrads.zeros_like(disc)
    else:
        hidden, deltas, grads = ws.disc_hidden, ws.disc_deltas, ws.disc_grads
    d, acts = _forward_cache(disc, inputs, hidden)
    loss = discriminator_loss(d[:n], d[n:])
    out_grad = d.copy()
    out_grad[:n] -= REAL_TARGET
    out_grad /= n
    _backward_from_cache(disc, acts, d, out_grad, grads, None, deltas)
    return loss, grads


def _gen_grads(
    gen: Mlp,
    disc: Mlp,
    cond: np.ndarray,
    target_enc: np.ndarray,
    z: np.ndarray,
    acc_weight: float,
    kind: str,
    ws: _Workspace | None = None,
) -> tuple[float, float, ParamGrads]:
    """Adversarial + accuracy loss and generator gradients for one update.

    Backpropagates through the frozen discriminator into the generated
    values only (the target columns of its input) and from there through
    the generator.  The discriminator's own parameter gradients are never
    formed.  Inputs and gradients are built in ``ws`` when given.
    """
    n, width = cond.shape
    if ws is None:
        ws = _Workspace(gen, disc, n, width)
    fake, gen_acts = _forward_cache(gen, _fill(ws.gen_in, cond, z), ws.gen_hidden)
    d_fake, disc_acts = _forward_cache(disc, _fill(ws.fake_in, cond, fake), ws.fake_hidden)

    adv_loss = generator_loss(d_fake)
    d_out_grad = (d_fake - GEN_TARGET) / n
    fake_grad = _backward_from_cache(
        disc, disc_acts, d_fake, d_out_grad, None, slice(width, disc.input_dim), ws.fake_deltas
    )
    pen, pen_grad = accuracy_penalty_grad(target_enc, fake, kind, acc_weight)
    fake_grad += pen_grad
    _backward_from_cache(gen, gen_acts, fake, fake_grad, ws.gen_grads, None, ws.gen_deltas)
    return adv_loss, pen, ws.gen_grads


def _minibatch(rng: np.random.Generator, n: int, batch: int) -> np.ndarray:
    if batch >= n:
        return np.arange(n)
    return rng.choice(n, size=batch, replace=False)


def train_gcin(
    X_cond: np.ndarray,
    x_target: np.ndarray,
    kind: str,
    cfg: TrainConfig,
    n_levels: int | None = None,
    column_index: int = 0,
) -> tuple[GcinPair, TrainTrace]:
    """Fit a generator/discriminator pair on fully observed rows.

    ``X_cond`` is the (n_obs, width) conditioning matrix and ``x_target``
    the observed column (raw values for continuous, 0/1 codes for binary,
    integer codes for categorical).  Deterministic given ``cfg.seed``.
    """
    if kind not in COLUMN_KINDS:
        raise ValueError(f"unknown column kind {kind!r}")
    cfg.validate()
    X_cond = np.asarray(X_cond, dtype=float)
    if X_cond.ndim != 2:
        raise ShapeError(f"X_cond must be 2-D, got shape {X_cond.shape}")
    n_obs = X_cond.shape[0]
    if n_obs < 2:
        raise InsufficientDataError(f"need at least 2 observed rows, got {n_obs}")
    if x_target.shape[0] != n_obs:
        raise ShapeError("X_cond and x_target row counts differ")
    if not np.all(np.isfinite(X_cond)):
        raise ValueError("X_cond must not contain missing or non-finite entries")

    target_enc, t_shift, t_scale, t_width, levels = _encode_target(x_target, kind, n_levels)
    cond_shift, cond_scale = _standardize_fit(X_cond)
    cond = (X_cond - cond_shift) / cond_scale

    seed = canonical_seed(cfg.seed)
    k = cfg.noise_dim
    hidden = scale_architecture(n_obs, X_cond.shape[1] + 1)
    gen_head = "identity" if kind == "continuous" else "sigmoid"
    gen = mlp_new(cond.shape[1] + k, hidden, t_width, gen_head, seed=seed)
    disc = mlp_new(cond.shape[1] + t_width, hidden, 1, "scaled_sigmoid_0_2", seed=seed ^ 1)
    gen_opt = adam_new(gen, cfg.lr_generator, cfg.l2)
    disc_opt = adam_new(disc, cfg.lr_discriminator, cfg.l2)

    rng = np.random.default_rng([seed, 2])
    batch = min(cfg.batch_size, n_obs)
    ws = _Workspace(gen, disc, batch, cond.shape[1])
    trace = TrainTrace()
    best_total = np.inf
    stall = 0
    gen_done = 0
    cycle = 0

    def draw() -> None:
        # one minibatch: its rows of cond and target, then fresh noise
        idx = _minibatch(rng, n_obs, batch)
        np.take(cond, idx, axis=0, out=ws.cond)
        np.take(target_enc, idx, axis=0, out=ws.target)
        rng.standard_normal(out=ws.z)

    while gen_done < cfg.max_epochs:
        disc_losses = []
        for _ in range(cfg.disc_iters_per_cycle):
            draw()
            fake, _ = _forward_cache(gen, _fill(ws.gen_in, ws.cond, ws.z), ws.gen_hidden)
            _fill(ws.disc_in[:batch], ws.cond, ws.target)
            _fill(ws.fake_in, ws.cond, fake)
            loss, grads = _disc_grads(disc, ws.disc_in, ws)
            adam_step(disc, grads, disc_opt)
            disc_losses.append(loss)

        gen_losses = []
        pens = []
        for _ in range(min(cfg.gen_iters_per_cycle, cfg.max_epochs - gen_done)):
            draw()
            adv, pen, grads = _gen_grads(
                gen, disc, ws.cond, ws.target, ws.z, cfg.acc_penalty_weight, kind, ws
            )
            adam_step(gen, grads, gen_opt)
            gen_losses.append(adv)
            pens.append(pen)
            gen_done += 1

        cycle_disc = float(np.mean(disc_losses))
        cycle_gen = float(np.mean(gen_losses)) if gen_losses else 0.0
        cycle_pen = float(np.mean(pens)) if pens else 0.0
        if not np.isfinite(cycle_disc) or not np.isfinite(cycle_gen) or not np.isfinite(cycle_pen):
            raise NumericError(f"non-finite training loss at cycle {cycle}")
        trace.disc_loss.append(cycle_disc)
        trace.gen_loss.append(cycle_gen)
        trace.acc_penalty.append(cycle_pen)

        total = cycle_gen + cfg.acc_penalty_weight * cycle_pen
        if total < best_total - cfg.early_stop_tol:
            best_total = total
            stall = 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
        cycle += 1

    pair = GcinPair(
        generator=gen,
        discriminator=disc,
        noise_dim=k,
        column_index=column_index,
        column_kind=kind,
        n_levels=levels,
        cond_shift=cond_shift,
        cond_scale=cond_scale,
        target_shift=t_shift,
        target_scale=t_scale,
    )
    return pair, trace


def impute_column(
    pair: GcinPair,
    X_cond_mis: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Generate one imputation per row of ``X_cond_mis``.

    A fresh noise vector is drawn per row, so repeated calls with
    different seeds yield distinct multiple-imputation draws.  Binary and
    categorical columns are sampled from the generated probabilities.
    """
    X_cond_mis = np.asarray(X_cond_mis, dtype=float)
    if X_cond_mis.ndim != 2 or X_cond_mis.shape[1] != pair.cond_shift.size:
        raise ShapeError(
            f"expected conditioning of shape (n, {pair.cond_shift.size}), got {X_cond_mis.shape}"
        )
    n_mis = X_cond_mis.shape[0]
    if n_mis == 0:
        return np.empty(0)
    rng = np.random.default_rng(canonical_seed(seed))
    cond = (X_cond_mis - pair.cond_shift) / pair.cond_scale
    z = rng.standard_normal((n_mis, pair.noise_dim))
    out = forward(pair.generator, np.hstack([cond, z]))
    if pair.column_kind == "continuous":
        return out[:, 0] * pair.target_scale + pair.target_shift
    if pair.column_kind == "binary":
        return (rng.random(n_mis) < out[:, 0]).astype(float)
    probs = out / out.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    u = rng.random((n_mis, 1))
    return np.argmax(u < cum, axis=1).astype(float)
