"""One conditional generator/discriminator pair per column.

The generator maps (other columns, Gaussian noise) to a candidate value
for the target column; the discriminator scores (other columns, value)
pairs in (0, 2), pushing observed rows toward 2 and generated rows toward
0.  Training alternates blocks of discriminator and generator updates with
a supervised accuracy penalty added to the generator objective.  A cycle
the update budget cuts short runs its share of the discriminator block,
rounded up, so a fit of any budget keeps the configured ratio of the
two, up to that rounding.

Every update, of either network, trains on one minibatch of observed
rows and fresh noise.  The minibatches are consecutive ``batch_size``-row
slices of a random permutation of the observed rows; a new permutation is
drawn once fewer than ``batch_size`` rows of the last one are left, and
those rows sit that epoch out.  With ``batch_size`` at or above the row
count every update takes every row.  A fit builds the (cond | target | 1)
rows once, and a minibatch is one gather from them.

Column kinds, read off the target's ``ColumnSchema``: continuous targets
use an identity head on standardised values, binary targets a sigmoid
head on {0, 1} codes, and categorical targets a sigmoid head per declared
level over their one-hot encoding (``data.encode_columns``), renormalised
at sampling time.

Both networks train in float32 (``TRAIN_DTYPE``): the standardisation is
fitted in float64 and the standardised conditioning and target are cast
once per fit.  Imputation feeds float32 to the generator and maps its
output back to the data's scale in float64.

``train_gcin`` fits a group of K pairs for one column in lock-step (the
M chains of a multiple imputation share each column's observed rows):
the members' networks are stacked (``nn.mlp_stack``), and each update is
one stacked pass and one ``adam_step`` per network for all of them.
Everything that makes a member's numbers its own stays per member: its
standardisation, seed, initialisation, random stream (minibatches and
noise), cycle losses and early stop.  The stack is built once: a member
that stops keeps its weights at its stop as its pair and trains on in
the stack, unrecorded and on zero gradients, until the last one stops.
So every member's pair and trace are bit for bit its fit in a group of one.

A fit may start warm, from pairs an earlier fit returned (``start``): it
keeps each pair's weights and conditioning normalisation and starts Adam
afresh.  The chains warm-start every column's fit after their first
sweep, with a smaller budget in the config they pass (``chained``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import ColumnSchema, check_codes, encode_columns
from .errors import ConfigError, InsufficientDataError, NumericError, ShapeError
from .losses import (
    GEN_TARGET,
    REAL_TARGET,
    accuracy_penalty_terms,
    discriminator_losses,
    generator_losses,
)
from .nn import (
    Mlp,
    ParamGrads,
    adam_new,
    adam_step,
    _backward_from_cache,
    _Buffers,
    _forward_cache,
    mlp_new,
    mlp_stack,
)
from .seeding import derive_seed, spawn_rng

# Standard deviations below this are treated as degenerate (scale 1).
_MIN_SCALE = 1e-9

# The dtype every generator/discriminator pair is built, trained and run in.
TRAIN_DTYPE = np.float32


@dataclass
class TrainConfig:
    """Hyperparameters of an adversarial fit, shared by every member of a group.

    ``max_epochs`` caps the total number of generator updates of a fit,
    cold or warm (``train_gcin``'s ``start``).  A cycle runs
    ``disc_iters_per_cycle`` discriminator updates followed by
    ``gen_iters_per_cycle`` generator updates; a last cycle the budget
    cuts short to n generator updates runs its share of discriminator
    updates, rounded up: ``ceil(disc_iters_per_cycle * n /
    gen_iters_per_cycle)``.  Each update takes the next ``batch_size``
    rows of a permutation of the observed rows, redrawn once fewer than
    ``batch_size`` rows of it remain (all rows when there are no more
    than ``batch_size``).  A member stops early when its
    generator total loss has not improved by ``early_stop_tol`` for
    ``early_stop_patience`` consecutive cycles; its pair holds its weights
    at that stop.  The float fields must be finite.
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

    def validate(self) -> None:
        floats = ("lr_generator", "lr_discriminator", "l2", "acc_penalty_weight", "early_stop_tol")
        for name in floats:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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
    cond_shift: np.ndarray
    cond_scale: np.ndarray
    target_shift: float
    target_scale: float

    def __post_init__(self):
        cond_width, gen = self.cond_shift.size, self.generator
        if gen.input_dim <= cond_width:
            raise ShapeError("generator input width must exceed the conditioning width")
        if gen.output_activation == "identity" and gen.output_dim != 1:
            raise ShapeError("a continuous (identity-head) generator must be one wide")
        if self.discriminator.input_dim != cond_width + gen.output_dim:
            raise ShapeError("discriminator input width != conditioning width + target width")

    @property
    def column_kind(self) -> str:
        """Read off the generator: an identity head is continuous, a
        one-wide sigmoid binary, a sigmoid per level categorical."""
        if self.generator.output_activation == "identity":
            return "continuous"
        return "binary" if self.generator.output_dim == 1 else "categorical"

    @property
    def noise_dim(self) -> int:
        return self.generator.input_dim - self.cond_shift.size


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


def _encode_target(x_target: np.ndarray, col: ColumnSchema):
    """Encodes the 1-D float target of column ``col``; returns (encoded
    (n, col.width) array, shift, scale)."""
    if col.kind == "continuous":
        shift, scale = _standardize_fit(x_target[:, None])
        enc = (x_target[:, None] - shift) / scale
        return enc, float(shift[0]), float(scale[0])
    check_codes(x_target, col)
    return encode_columns(x_target[:, None], [col]), 0.0, 1.0


class _Workspace:
    """Buffers one fit reuses on every update: the noise of a minibatch,
    the generator input (cond | z | 1), the stacked discriminator input
    with the minibatch's rows (cond | target | 1), ``real_in``, on top of
    as many rows (cond | fake | 1), ``fake_in``, both networks' pass
    buffers (``nn._Buffers``) and parameter gradients.  A draw gathers its
    rows straight into ``real_in``; the generator input and the fake rows
    copy their conditioning from there.  ``fake_bufs`` views the fake half
    of the discriminator's buffers, for the generator step.  Every buffer
    has the generator's dtype and, for a stack, its leading axis."""

    def __init__(self, gen: Mlp, disc: Mlp, batch: int, cond_width: int):
        dtype, lead = gen.dtype, gen.stack
        self.z = np.empty((*lead, batch, gen.input_dim - cond_width), dtype=dtype)
        self.gen_in = np.ones((*lead, batch, gen.input_dim + 1), dtype=dtype)
        self.disc_in = np.ones((*lead, 2 * batch, disc.input_dim + 1), dtype=dtype)
        self.gen_bufs = _Buffers.new(gen, batch)
        self.disc_bufs = _Buffers.new(disc, 2 * batch)
        self.real_in = self.disc_in[..., :batch, :]
        self.fake_in = self.disc_in[..., batch:, :]
        self.fake_bufs = self.disc_bufs.rows(slice(batch, None))
        self.gen_grads = ParamGrads.zeros_like(gen)
        self.disc_grads = ParamGrads.zeros_like(disc)

    @property
    def cond_width(self) -> int:
        # gen_in holds (cond | z | 1)
        return self.gen_in.shape[-1] - self.z.shape[-1] - 1

    def gen_input(self) -> np.ndarray:
        """Write (cond | z | 1) of the minibatch into ``gen_in``; return it."""
        width = self.cond_width
        self.gen_in[..., :width] = self.real_in[..., :width]
        self.gen_in[..., width:-1] = self.z
        return self.gen_in

    def fake_input(self, fake: np.ndarray) -> np.ndarray:
        """Write (cond | fake | 1) into ``fake_in``; return it."""
        width = self.cond_width
        self.fake_in[..., :width] = self.real_in[..., :width]
        self.fake_in[..., width:-1] = fake
        return self.fake_in


def _disc_grads(
    disc: Mlp, inputs: np.ndarray, ws: _Workspace | None = None
) -> tuple[np.ndarray, ParamGrads]:
    """Scores and parameter gradients for one discriminator update.

    ``inputs`` stacks the real rows (cond | target | 1) on top of as many
    fake rows (cond | fake | 1); one forward and one backward pass over
    the stack, with output gradient [(d_real - 2) / B; d_fake / B], give
    the (2B, 1) scores and the summed gradient of both halves, in ``ws``
    when given.  ``discriminator_losses`` of the two halves is the loss.
    """
    n = inputs.shape[-2] // 2
    if ws is None:
        bufs = None
        grads = ParamGrads.zeros_like(disc)
    else:
        bufs, grads = ws.disc_bufs, ws.disc_grads
    d, acts = _forward_cache(disc, inputs, bufs)
    out_grad = d.copy()
    out_grad[..., :n, :] -= REAL_TARGET
    out_grad /= n
    _backward_from_cache(disc, acts, d, out_grad, grads, None, bufs)
    return d, grads


def _gen_grads(
    gen: Mlp,
    disc: Mlp,
    ws: _Workspace,
    acc_weight: float,
    kind: str,
    pen_terms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, ParamGrads]:
    """Discriminator scores on the generated rows, per-row accuracy
    penalty terms and generator gradients for one update on the minibatch
    in ``ws`` (its rows in ``ws.real_in``, its noise in ``ws.z``).

    Backpropagates the adversarial + accuracy loss through the frozen
    discriminator into the generated values only (the target columns of
    its input) and from there through the generator; ``generator_losses``
    of the scores is the adversarial loss and the mean of the terms, in
    ``pen_terms`` when given, the penalty.  The discriminator's own
    parameter gradients are never formed.  The gradients are built in
    ``ws.gen_grads``.
    """
    n, width = ws.real_in.shape[-2], ws.cond_width
    fake, gen_acts = _forward_cache(gen, ws.gen_input(), ws.gen_bufs)
    d_fake, disc_acts = _forward_cache(disc, ws.fake_input(fake), ws.fake_bufs)

    d_out_grad = (d_fake - GEN_TARGET) / n
    fake_grad = _backward_from_cache(
        disc, disc_acts, d_fake, d_out_grad, None, slice(width, disc.input_dim), ws.fake_bufs
    )
    target = ws.real_in[..., width:-1]
    pen_terms, pen_grad = accuracy_penalty_terms(target, fake, kind, acc_weight, pen_terms)
    fake_grad += pen_grad
    _backward_from_cache(gen, gen_acts, fake, fake_grad, ws.gen_grads, None, ws.gen_bufs)
    return d_fake, pen_terms, ws.gen_grads


def _fits_layers(net: Mlp, dims: list[int], head: str) -> bool:
    """Whether ``net`` is one network of the layer widths ``dims`` and head ``head``."""
    shapes = [(d_in + 1, d_out) for d_in, d_out in zip(dims[:-1], dims[1:])]
    return net.output_activation == head and [layer.shape for layer in net.layers] == shapes


def _batches(rng: np.random.Generator, n: int, batch: int) -> Iterator[np.ndarray]:
    """Row indices of one minibatch per ``next``: consecutive ``batch``-row
    slices of a permutation of range(n), with a new permutation drawn from
    ``rng`` once fewer than ``batch`` of its rows are left (those rows sit
    that epoch out); every row, in order, when ``batch >= n``."""
    if batch >= n:
        rows = np.arange(n)
        while True:
            yield rows
    per_epoch = n // batch * batch
    while True:
        perm = rng.permutation(n)
        for start in range(0, per_epoch, batch):
            yield perm[start : start + batch]


def train_gcin(
    X_cond: np.ndarray,
    x_target: np.ndarray,
    col: ColumnSchema,
    cfg: TrainConfig,
    seeds: list[int],
    start: list[GcinPair] | None = None,
) -> list[tuple[GcinPair, TrainTrace]]:
    """Fit K generator/discriminator pairs in lock-step, one per seed.

    ``X_cond`` holds each member's (n_obs, width) conditioning matrix, so
    it is (K, n_obs, width), and ``x_target`` its observed cells of column
    ``col``, (K, n_obs): raw values, or codes of ``col``'s levels
    (``data.check_codes``).  ``col`` gives the head and target width, one
    output per declared level of a categorical column.  All members train
    with ``cfg``; member a is deterministic given its seed ``s =
    seeds[a]``, which addresses its three streams (see ``seeding``): the
    generator's initial weights from ``spawn_rng(s)``, the
    discriminator's from ``mlp_new`` seeded with ``derive_seed(s, 1)``,
    and the minibatches and noise from ``spawn_rng(s, 2)``.  Returns the
    K (pair, trace) results, in order.  The pairs' networks are float32
    (``TRAIN_DTYPE``); their normalisation stays float64.

    With ``start``, one pair per member fitted earlier for this column
    (the same column, conditioning width and networks), the fit is warm:
    each member trains on from a copy of its pair's weights, keeps that
    pair's conditioning normalisation (the target's is fitted as from
    scratch; a chain's observed cells never move) and starts Adam
    afresh; it runs the budget of ``cfg`` as a cold fit does.  The seed
    still drives the minibatches and the noise; the two initialisation
    streams are not drawn.  ``start`` is not changed.

    Each member keeps its own standardisation, initialisation, random
    stream, losses and early stop, and every update runs one stacked pass
    and one ``adam_step`` per network for the whole group.  A member that
    stops returns its weights at its stop and trains on in the stack, its
    losses unchecked and its gradients zeroed, until the last one stops.
    So each member's result is bit for bit its fit in a group of one.
    """
    cfg.validate()
    X_cond = np.asarray(X_cond, dtype=float)
    x_target = np.asarray(x_target, dtype=float)
    if X_cond.ndim != 3:
        raise ShapeError(f"X_cond must be 3-D, got shape {X_cond.shape}")
    if x_target.ndim != 2:
        raise ShapeError(f"x_target must be 2-D, got shape {x_target.shape}")
    if len(seeds) == 0:
        raise ShapeError("a group needs at least one member")
    if X_cond.shape[0] != len(seeds) or x_target.shape[0] != len(seeds):
        raise ShapeError("a group needs one X_cond, x_target and seed per member")
    if start is not None and len(start) != len(seeds):
        raise ShapeError("a warm group needs one start pair per member")
    n_obs, width = X_cond.shape[1:]
    if n_obs < 2:
        raise InsufficientDataError(f"need at least 2 observed rows, got {n_obs}")
    if x_target.shape[1] != n_obs:
        raise ShapeError("X_cond and x_target row counts differ")
    if not np.all(np.isfinite(X_cond)):
        raise ValueError("X_cond must not contain missing or non-finite entries")
    if not np.all(np.isfinite(x_target)):
        raise ValueError("x_target must not contain missing or non-finite entries")

    k = cfg.noise_dim
    hidden = scale_architecture(n_obs, width + 1)
    gen_head = "identity" if col.kind == "continuous" else "sigmoid"
    disc_head = "scaled_sigmoid_0_2"
    batch = min(cfg.batch_size, n_obs)
    targets = [_encode_target(x_t, col) for x_t in x_target]
    t_width = col.width
    # each member's observed rows as the discriminator sees real ones: (cond | target | 1)
    rows = np.ones((len(seeds), n_obs, width + t_width + 1), dtype=TRAIN_DTYPE)
    # per member: its pair's (cond_shift, cond_scale, target_shift, target_scale),
    # its networks before they are stacked and its minibatch stream
    norms, gens, discs, batches, rngs = [], [], [], [], []
    for a, (x_c, target, seed) in enumerate(zip(X_cond, targets, seeds)):
        warm = None if start is None else start[a]
        target_enc, t_shift, t_scale = target
        if warm is None:
            cond_shift, cond_scale = _standardize_fit(x_c)
            gens.append(
                mlp_new(width + k, hidden, t_width, gen_head, seed=seed, dtype=TRAIN_DTYPE)
            )
            disc_seed = derive_seed(seed, 1)
            discs.append(
                mlp_new(width + t_width, hidden, 1, disc_head, seed=disc_seed, dtype=TRAIN_DTYPE)
            )
        elif (
            warm.cond_shift.shape == (width,)
            and _fits_layers(warm.generator, [width + k, *hidden, t_width], gen_head)
            and _fits_layers(warm.discriminator, [width + t_width, *hidden, 1], disc_head)
        ):
            cond_shift, cond_scale = warm.cond_shift, warm.cond_scale
            gens.append(warm.generator)
            discs.append(warm.discriminator)
        else:
            raise ShapeError(f"start pair {a} does not fit this column's networks")
        norms.append((cond_shift, cond_scale, t_shift, t_scale))
        rows[a, :, :width] = (x_c - cond_shift) / cond_scale
        rows[a, :, width:-1] = target_enc
        rngs.append(spawn_rng(seed, 2))
        batches.append(_batches(rngs[-1], n_obs, batch))

    # the stacks are copies, so a warm fit leaves its start pairs as they were
    gen, disc = mlp_stack(gens), mlp_stack(discs)
    gen_opt = adam_new(gen, cfg.lr_generator, cfg.l2)
    disc_opt = adam_new(disc, cfg.lr_discriminator, cfg.l2)
    ws = _Workspace(gen, disc, batch, width)
    traces = [TrainTrace() for _ in seeds]
    nets: list[tuple[Mlp, Mlp] | None] = [None] * len(seeds)  # copied out at each stop
    done: list[int] = []  # the members that have stopped
    # one cycle's scores and per-row penalty terms, one row per update,
    # reduced once a cycle row by row into the same per-update losses that
    # the loss functions give
    disc_scores = np.empty((len(seeds), cfg.disc_iters_per_cycle, 2 * batch))
    gen_scores = np.empty((len(seeds), min(cfg.gen_iters_per_cycle, cfg.max_epochs), batch))
    pen_terms = np.empty(gen_scores.shape, dtype=TRAIN_DTYPE)
    best_total = [np.inf] * len(seeds)
    stall = [0] * len(seeds)
    gen_done = 0

    def draw() -> None:
        # one minibatch per member: its rows gathered into the real half, then fresh noise
        for a, (member_batches, rng) in enumerate(zip(batches, rngs)):
            rows[a].take(next(member_batches), axis=0, out=ws.real_in[a])
            rng.standard_normal(dtype=TRAIN_DTYPE, out=ws.z[a])

    # a stopped member trains on in the stack on zero gradients, so that
    # nothing it computes after its stop can raise for the group
    while gen_done < cfg.max_epochs and len(done) < len(seeds):
        # a cycle the budget cuts short runs its share of discriminator updates, rounded up
        n_gen = min(cfg.gen_iters_per_cycle, cfg.max_epochs - gen_done)
        n_disc = -(-cfg.disc_iters_per_cycle * n_gen // cfg.gen_iters_per_cycle)
        for j in range(n_disc):
            draw()
            fake, _ = _forward_cache(gen, ws.gen_input(), ws.gen_bufs)
            ws.fake_input(fake)
            scores, grads = _disc_grads(disc, ws.disc_in, ws)
            if done:
                grads.flat[done] = 0.0
            adam_step(disc, grads, disc_opt)
            disc_scores[:, j] = scores[..., 0]

        for j in range(n_gen):
            draw()
            scores, _, grads = _gen_grads(
                gen, disc, ws, cfg.acc_penalty_weight, col.kind, pen_terms[:, j]
            )
            if done:
                grads.flat[done] = 0.0
            adam_step(gen, grads, gen_opt)
            gen_scores[:, j] = scores[..., 0]
        gen_done += n_gen

        for a, trace in enumerate(traces):
            if nets[a] is not None:
                continue
            real, fake = disc_scores[a, :n_disc, :batch], disc_scores[a, :n_disc, batch:]
            cycle_disc = float(np.mean(discriminator_losses(real, fake)))
            cycle_gen = float(np.mean(generator_losses(gen_scores[a, :n_gen])))
            cycle_pen = float(np.mean(np.mean(pen_terms[a, :n_gen], axis=1).astype(float)))
            if not (np.isfinite(cycle_disc) and np.isfinite(cycle_gen) and np.isfinite(cycle_pen)):
                raise NumericError(f"non-finite training loss at cycle {len(trace)}")
            trace.disc_loss.append(cycle_disc)
            trace.gen_loss.append(cycle_gen)
            trace.acc_penalty.append(cycle_pen)

            total = cycle_gen + cfg.acc_penalty_weight * cycle_pen
            if total < best_total[a] - cfg.early_stop_tol:
                best_total[a] = total
                stall[a] = 0
            else:
                stall[a] += 1
                if stall[a] >= cfg.early_stop_patience:
                    nets[a] = (gen.member(a), disc.member(a))
                    done.append(a)
    nets = [net or (gen.member(a), disc.member(a)) for a, net in enumerate(nets)]

    return [
        (GcinPair(g, d, *norm), trace) for (g, d), norm, trace in zip(nets, norms, traces)
    ]


def impute_column(
    pair: GcinPair,
    X_cond_mis: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Generate one imputation per row of ``X_cond_mis``.

    A fresh noise vector is drawn per row, so repeated calls with
    different seeds yield distinct multiple-imputation draws.  Binary and
    categorical columns are sampled from the generated probabilities.
    The noise and those samples are one stream, ``spawn_rng(seed)``; a
    chain passes ``derive_seed(s, 3)`` of the pair's fit seed ``s``, an
    address no stream of the fit itself takes (see ``seeding``).
    The generator runs in its own dtype; its output is de-standardised,
    and its level probabilities normalised, in float64.
    """
    X_cond_mis = np.asarray(X_cond_mis, dtype=float)
    if X_cond_mis.ndim != 2 or X_cond_mis.shape[1] != pair.cond_shift.size:
        raise ShapeError(
            f"expected conditioning of shape (n, {pair.cond_shift.size}), got {X_cond_mis.shape}"
        )
    if not np.all(np.isfinite(X_cond_mis)):
        raise ValueError("X_cond_mis must not contain missing or non-finite entries")
    n_mis = X_cond_mis.shape[0]
    if n_mis == 0:
        return np.empty(0)
    rng = spawn_rng(seed)
    # (cond | z | 1), standardised and drawn in float64, in the generator's dtype
    width = pair.cond_shift.size
    inputs = np.empty((n_mis, width + pair.noise_dim + 1), dtype=pair.generator.dtype)
    inputs[:, :width] = (X_cond_mis - pair.cond_shift) / pair.cond_scale
    inputs[:, width:-1] = rng.standard_normal((n_mis, pair.noise_dim))
    inputs[:, -1] = 1.0
    out = _forward_cache(pair.generator, inputs)[0].astype(np.float64)
    if pair.column_kind == "continuous":
        return out[:, 0] * pair.target_scale + pair.target_shift
    if pair.column_kind == "binary":
        return (rng.random(n_mis) < out[:, 0]).astype(float)
    return _draw_levels(out, rng.random((n_mis, 1)))


def _draw_levels(out: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Level codes drawn by inverting each row's cumulative probabilities
    (``out`` normalised) at the uniform ``u`` in [0, 1) of that row.

    The last cumulative value is pinned to 1: a sum that rounds below 1
    would otherwise leave the top of [0, 1) to no level, and ``argmax``
    would return level 0 there.
    """
    cum = np.cumsum(out / out.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    return np.argmax(u < cum, axis=1).astype(float)
