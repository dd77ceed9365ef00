"""Per-column adversarial training: architecture scaling, loss gradients
through the composed discriminator-of-generator graph, trained behaviour
on constant and linear targets, and imputation determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gcmi import (
    ColumnSchema,
    ConfigError,
    DataError,
    DataMatrix,
    InsufficientDataError,
    ShapeError,
    TrainConfig,
    TrainTrace,
    impute_column,
    scale_architecture,
    train_gcin,
)
import gcmi.gcin
from gcmi.gcin import (
    TRAIN_DTYPE,
    GcinPair,
    _batches,
    _disc_grads,
    _draw_levels,
    _gen_grads,
    _Workspace,
)
from gcmi.losses import (
    _cross_entropy,
    accuracy_penalty_terms,
    discriminator_losses,
    generator_losses,
)
from gcmi.nn import (
    ParamGrads,
    _backward_from_cache,
    _Buffers,
    _forward_cache,
    adam_new,
    adam_step,
    backward_with_input_grads,
    forward,
    mlp_new,
)
from gcmi.seeding import derive_seed, spawn_rng

FAST = TrainConfig(max_epochs=150, batch_size=64, noise_dim=4)


def column(kind, n_levels=None):
    """The target column ``y`` of ``kind``; a categorical one declares
    ``n_levels`` levels."""
    levels = {"continuous": 0, "binary": 2}.get(kind, n_levels)
    return ColumnSchema("y", kind, tuple(map(str, range(levels))))


def fit_one(X, y, col, cfg, seed=0, start=None):
    """``train_gcin`` of one member: the (pair, trace) of a group of one,
    warm from the pair ``start`` when given."""
    (fit,) = train_gcin([X], [y], col, cfg, [seed], None if start is None else [start])
    return fit


def disc_loss(d_real, d_fake):
    """``discriminator_losses`` of one update's (n, 1) scores, in float64."""
    return float(discriminator_losses(d_real.astype(float).T, d_fake.astype(float).T)[0])


def gen_loss(d_fake):
    """``generator_losses`` of one update's (n, 1) scores, in float64."""
    return float(generator_losses(d_fake.astype(float).T)[0])


def with_ones(x):
    return np.hstack([x, np.ones((x.shape[0], 1), dtype=x.dtype)])


def stacked(real, fake):
    """The discriminator update's input: real rows on top of fake rows,
    with the trailing ones column."""
    return with_ones(np.vstack([real, fake]))


def gen_grads(gen, disc, cond, target, z, lam, kind, ws=None):
    """``_gen_grads`` on the minibatch (cond, target, z), written into ``ws``
    (a fresh workspace when None); returns the scores on the generated
    rows, the batch penalty and the generator gradients."""
    n, w = cond.shape
    if ws is None:
        ws = _Workspace(gen, disc, n, w)
    ws.real_in[:, :-1] = np.hstack([cond, target])
    ws.z[:] = z
    d_fake, terms, grads = _gen_grads(gen, disc, ws, lam, kind)
    return d_fake, float(np.mean(terms)), grads


class TestScaleArchitecture:
    def test_small_dataset_single_layer(self):
        assert scale_architecture(10_000, 15) == [100]

    def test_medium_dataset_two_layers(self):
        assert scale_architecture(25_000, 30) == [200, 100]

    def test_large_wide_dataset(self):
        assert scale_architecture(40_000, 60) == [400, 200]

    def test_large_narrow_dataset_falls_back(self):
        assert scale_architecture(40_000, 20) == [200, 100]

    def test_boundaries(self):
        assert scale_architecture(20_000, 5) == [100]
        assert scale_architecture(20_001, 5) == [200, 100]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            scale_architecture(0, 5)
        with pytest.raises(ValueError):
            scale_architecture(100, 0)


class TestTrainConfig:
    def test_documented_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr_generator == 0.001
        assert cfg.lr_discriminator == 0.0005
        assert cfg.l2 == 0.0001
        assert cfg.gen_iters_per_cycle == 50
        assert cfg.disc_iters_per_cycle == 10
        assert cfg.batch_size == 256
        assert cfg.max_epochs == 10_000
        assert cfg.early_stop_tol == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_generator=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(noise_dim=0).validate()

    @pytest.mark.parametrize(
        "name", ["lr_generator", "lr_discriminator", "l2", "acc_penalty_weight", "early_stop_tol"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            replace(TrainConfig(), **{name: value}).validate()


class TestComposedGradients:
    """Training gradients against central finite differences through the
    full discriminator-of-generator objective."""

    @staticmethod
    def _gen_objective(gen, disc, cond, target, z, lam, kind):
        fake = forward(gen, np.hstack([cond, z]))
        d_fake = forward(disc, np.hstack([cond, fake]))
        adv = gen_loss(d_fake)
        if kind == "continuous":
            pen = float(np.mean((fake - target) ** 2))
        else:
            clipped = np.clip(fake, 1e-12, 1.0 - 1e-12)
            pen = float(np.mean(_cross_entropy(target, clipped).sum(axis=1)))
        return adv + lam * pen

    @pytest.mark.parametrize("kind,seed", [("continuous", 0), ("binary", 1), ("continuous", 2)])
    def test_generator_grads_match_fd(self, kind, seed):
        rng = np.random.default_rng(seed)
        n, w, k = 6, 3, 2
        head = "identity" if kind == "continuous" else "sigmoid"
        gen = mlp_new(w + k, [5], 1, head, seed)
        disc = mlp_new(w + 1, [4], 1, "scaled_sigmoid_0_2", seed + 100)
        cond = rng.normal(size=(n, w))
        z = rng.normal(size=(n, k))
        target = (
            rng.normal(size=(n, 1))
            if kind == "continuous"
            else rng.integers(0, 2, size=(n, 1)).astype(float)
        )
        lam = 1.0
        _, _, grads = gen_grads(gen, disc, cond, target, z, lam, kind)
        h = 1e-6
        for li, w_arr in enumerate(gen.weights):
            analytic = grads.d_weights[li]
            for idx in [(0, 0), (w_arr.shape[0] - 1, w_arr.shape[1] - 1)]:
                orig = w_arr[idx]
                w_arr[idx] = orig + h
                up = self._gen_objective(gen, disc, cond, target, z, lam, kind)
                w_arr[idx] = orig - h
                down = self._gen_objective(gen, disc, cond, target, z, lam, kind)
                w_arr[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(analytic[idx]), 1e-3)
                assert abs(fd - analytic[idx]) / denom < 1e-4

    def test_discriminator_grads_match_fd(self):
        rng = np.random.default_rng(3)
        n, w = 5, 3
        disc = mlp_new(w + 1, [4], 1, "scaled_sigmoid_0_2", 17)
        real = rng.normal(size=(n, w + 1))
        fake = rng.normal(size=(n, w + 1))
        _, grads = _disc_grads(disc, stacked(real, fake))

        def objective():
            return disc_loss(forward(disc, real), forward(disc, fake))

        h = 1e-6
        for li, w_arr in enumerate(disc.weights):
            analytic = grads.d_weights[li]
            for idx in [(0, 0), (w_arr.shape[0] - 1, w_arr.shape[1] - 1)]:
                orig = w_arr[idx]
                w_arr[idx] = orig + h
                up = objective()
                w_arr[idx] = orig - h
                down = objective()
                w_arr[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(analytic[idx]), 1e-3)
                assert abs(fd - analytic[idx]) / denom < 1e-4


class TestTrainGcin:
    def test_constant_target_recovered(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 4))
        y = np.full(300, 3.0)
        pair, _ = fit_one(X, y, column("continuous"), TrainConfig(max_epochs=300), seed=5)
        imputed = impute_column(pair, rng.normal(size=(200, 4)), seed=1)
        assert abs(imputed.mean() - 3.0) < 0.05

    def test_linear_signal_beats_mean_imputation(self):
        rng = np.random.default_rng(8)
        n = 1000
        X = rng.normal(size=(n, 5))
        y = 0.9 * X[:, 0] + 0.1 * rng.normal(size=n)
        pair, _ = fit_one(X, y, column("continuous"), TrainConfig(max_epochs=400), seed=8)
        X_held = rng.normal(size=(400, 5))
        y_held = 0.9 * X_held[:, 0] + 0.1 * rng.normal(size=400)
        imputed = impute_column(pair, X_held, seed=2)
        rmse_gcin = np.sqrt(np.mean((imputed - y_held) ** 2))
        rmse_mean = np.sqrt(np.mean((y.mean() - y_held) ** 2))
        assert rmse_gcin < rmse_mean

    def test_trace_deterministic_per_seed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        y = X.sum(axis=1)
        _, t1 = fit_one(X, y, column("continuous"), FAST)
        _, t2 = fit_one(X, y, column("continuous"), FAST)
        assert t1.gen_loss == t2.gen_loss
        assert t1.disc_loss == t2.disc_loss
        assert t1.acc_penalty == t2.acc_penalty

    def test_insufficient_rows_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_one(np.zeros((1, 3)), np.zeros(1), column("continuous"), FAST)

    def test_missing_conditioning_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit_one(X, np.zeros(30), column("continuous"), FAST)

    def test_binary_target_trains_and_samples_codes(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float)
        pair, _ = fit_one(X, y, column("binary"), TrainConfig(max_epochs=200), seed=13)
        imputed = impute_column(pair, rng.normal(size=(50, 3)), seed=3)
        assert set(np.unique(imputed)) <= {0.0, 1.0}

    def test_categorical_target_samples_levels_in_range(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 3, size=200).astype(float)
        pair, _ = fit_one(X, y, column("categorical", 3), FAST)
        imputed = impute_column(pair, rng.normal(size=(80, 3)), seed=4)
        assert set(np.unique(imputed)) <= {0.0, 1.0, 2.0}
        assert pair.generator.output_dim == 3

    def test_categorical_head_has_every_declared_level(self):
        # the observed codes never reach the top level; the column still
        # declares four, and the head has one output per level
        rng = np.random.default_rng(43)
        X = rng.normal(size=(120, 3))
        y = (X[:, 0] > 0).astype(float)
        pair, _ = fit_one(X, y, column("categorical", 4), FAST)
        assert pair.generator.output_dim == 4
        assert pair.column_kind == "categorical"
        imputed = impute_column(pair, rng.normal(size=(200, 3)), seed=5)
        assert set(np.unique(imputed)) <= {0.0, 1.0, 2.0, 3.0}

    @pytest.mark.parametrize(
        "kind,bad",
        [
            ("binary", 2.0),
            ("binary", 0.5),
            ("binary", -1.0),
            ("categorical", 3.0),  # len(levels)
            ("categorical", 1.5),
            ("categorical", -1.0),
        ],
    )
    def test_code_outside_the_levels_rejected_as_by_a_data_matrix(self, kind, bad):
        col = column(kind, 3)
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.arange(30) % 2.0
        y[4] = bad
        message = "^column 'y' has codes outside its declared levels$"
        with pytest.raises(DataError, match=message):
            DataMatrix([col], y[:, None])
        with pytest.raises(DataError, match=message):
            fit_one(X, y, col, FAST)

    def test_list_target_fits_as_its_array(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(60, 3))
        y = X.sum(axis=1)
        from_list, list_trace = fit_one(X.tolist(), y.tolist(), column("continuous"), FAST)
        from_array, array_trace = fit_one(X, y, column("continuous"), FAST)
        assert from_list.generator.params.tobytes() == from_array.generator.params.tobytes()
        assert list_trace == array_trace

    @pytest.mark.parametrize("bad", [np.zeros((60, 1)), np.zeros(59), [[0.0]] * 60, 0.0])
    def test_target_of_wrong_shape_rejected(self, bad):
        X = np.random.default_rng(0).normal(size=(60, 3))
        with pytest.raises(ShapeError):
            fit_one(X, bad, column("continuous"), FAST)

    @pytest.mark.parametrize(
        "kind,bad",
        [
            ("continuous", np.nan),
            ("continuous", np.inf),
            ("binary", np.nan),
            ("categorical", np.nan),
        ],
    )
    def test_nonfinite_target_rejected(self, kind, bad):
        # rejected up front, before any arithmetic could warn or diverge
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.zeros(30)
        y[4] = bad
        with pytest.raises(ValueError, match="x_target must not contain"):
            fit_one(X, y, column(kind, 3), FAST)

    def test_diverging_training_raises_numeric_error(self):
        from gcmi import NumericError

        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 3))
        absurd = TrainConfig(max_epochs=60, lr_generator=1e150, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            fit_one(X, X.sum(axis=1), column("continuous"), absurd)


class _RecordingRng:
    """A generator that logs each call, for watching the sampler."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def permutation(self, n):
        self.calls.append("permutation")
        return self.rng.permutation(n)


class TestBatches:
    """Minibatches are consecutive slices of one permutation per epoch."""

    @pytest.mark.parametrize("n,batch", [(300, 64), (100, 64), (128, 64), (10, 3), (2, 1)])
    def test_epochs_are_permutations_sliced_into_distinct_batches(self, n, batch):
        rng = _RecordingRng(3)
        batches = _batches(rng, n, batch)
        per_epoch = n // batch
        twin = np.random.default_rng(3)
        for _ in range(5):
            perm = twin.permutation(n)
            seen = []
            for b in range(per_epoch):
                idx = next(batches)
                assert idx.shape == (batch,)
                assert np.unique(idx).size == batch
                assert idx.min() >= 0 and idx.max() < n
                assert np.array_equal(idx, perm[b * batch : (b + 1) * batch])
                seen.extend(idx.tolist())
            # no row repeats within an epoch; the rows that do not fill a batch sit out
            assert len(set(seen)) == per_epoch * batch

    def test_new_permutation_only_when_fewer_than_batch_rows_remain(self):
        rng = _RecordingRng(5)
        batches = _batches(rng, 300, 64)  # four batches per permutation, 44 rows left over
        drawn = []
        for _ in range(13):
            next(batches)
            drawn.append(len(rng.calls))
        assert drawn == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4]

    @pytest.mark.parametrize("n", [2, 40])
    def test_batch_of_every_row_takes_every_row_on_every_update(self, n):
        rng = _RecordingRng(7)
        batches = _batches(rng, n, n)
        for _ in range(4):
            assert next(batches).tolist() == list(range(n))
        assert rng.calls == []


def _encode(X, y, kind, n_levels):
    n = X.shape[0]
    if kind == "continuous":
        col = y[:, None]
        target = (col - col.mean(axis=0)) / col.std(axis=0)
    elif kind == "binary":
        target = y[:, None].copy()
    else:
        target = np.zeros((n, n_levels))
        target[np.arange(n), y.astype(int)] = 1.0
    return (X - X.mean(axis=0)) / X.std(axis=0), target


def _init_nets(n, width, t, cfg, seed, kind, dtype):
    # looked up where train_gcin looks it up, so that a test can replace it for both
    hidden = gcmi.gcin.scale_architecture(n, width + 1)
    head = "identity" if kind == "continuous" else "sigmoid"
    # each stream at its address under the fit seed (see gcmi.seeding)
    gen = mlp_new(width + cfg.noise_dim, hidden, t, head, seed=seed, dtype=dtype)
    disc_seed = derive_seed(seed, 1)
    disc = mlp_new(width + t, hidden, 1, "scaled_sigmoid_0_2", seed=disc_seed, dtype=dtype)
    gen_opt = adam_new(gen, cfg.lr_generator, cfg.l2)
    disc_opt = adam_new(disc, cfg.lr_discriminator, cfg.l2)
    return gen, disc, gen_opt, disc_opt, spawn_rng(seed, 2)


def _sampler(rng, cond, target, batch, k):
    """``draw()`` returns one minibatch's conditioning, target and noise:
    every row when ``batch >= n``, else the next ``batch`` rows of the
    current permutation, a new one drawn when fewer than ``batch`` rows of
    it are left."""
    n = cond.shape[0]
    perm, left = None, 0

    def draw():
        nonlocal perm, left
        if batch >= n:
            idx = np.arange(n)
        else:
            if left < batch:
                perm, left = rng.permutation(n), n
            idx = perm[n - left : n - left + batch]
            left -= batch
        return cond[idx], target[idx], rng.standard_normal((idx.size, k), dtype=cond.dtype)

    return draw


def _clip(dtype):
    """How far sigmoid outputs stay from 0 and 1: 1e-12, or the dtype's
    machine epsilon where that is larger."""
    return max(1e-12, float(np.finfo(dtype).eps))


def _clipped(p):
    c = _clip(p.dtype)
    return np.clip(p, c, 1.0 - c)


def _pen_grad(fake, t, kind, lam, batch):
    if kind == "continuous":
        return lam * 2.0 * (fake - t) / batch
    p = _clipped(fake)
    return lam * (p - t) / (p * (1.0 - p)) / batch


def _ref_sigmoid(z):
    e = np.exp(-np.abs(z))
    return _clipped(np.where(z >= 0, 1.0, e) / (1.0 + e))


def _ref_forward(net, x):
    """Plain forward pass over the [W; b] matrices; ``x`` and every
    returned layer input carry a trailing column of ones."""
    acts = [x]
    for layer in net.layers[:-1]:
        acts.append(with_ones(np.maximum(acts[-1] @ layer, 0.0)))
    z = acts[-1] @ net.layers[-1]
    if net.output_activation == "identity":
        return z, acts
    p = _ref_sigmoid(z)
    return (p if net.output_activation == "sigmoid" else 2.0 * p), acts


def _ref_output_delta(net, out, g):
    if net.output_activation == "sigmoid":
        return g * out * (1.0 - out)
    if net.output_activation == "scaled_sigmoid_0_2":
        return g * out * (1.0 - 0.5 * out)
    return g


def _ref_backward(net, acts, out, g, input_rows=None):
    """[dW; db] per layer, one acts.T @ delta each, and the input gradient
    of the rows ``input_rows`` of layer 0 (None when that is None), with
    every layer's delta formed."""
    g = _ref_output_delta(net, out, g)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grads[i] = acts[i].T @ g
        if i > 0:
            g = (g @ net.layers[i][:-1].T) * (acts[i][:, :-1] > 0)
    if input_rows is None:
        return grads, None
    return grads, g @ net.layers[0][input_rows].T


def _ref_backward_folded(net, acts, out, g, input_rows=None):
    """``_ref_backward`` in the order of the fold for a one-wide output: the
    top hidden layer's delta (d @ w.T) * M is never formed.  The layer
    below gets ((acts * d).T @ M) * w and passes d * (M @ (W * w).T) down,
    with d the output delta, w the output weight column, M the 0/1 ReLU
    mask of the top hidden layer and W the weight rows of the layer below."""
    if net.output_dim != 1:
        return _ref_backward(net, acts, out, g, input_rows)
    d = _ref_output_delta(net, out, g)
    top = len(net.layers) - 1
    grads = [None] * len(net.layers)
    grads[top] = acts[top].T @ d
    w = net.layers[top][:-1, 0]
    mask = (acts[top][:, :-1] > 0).astype(acts[top].dtype)
    i = top - 1
    grads[i] = ((acts[i] * d).T @ mask) * w
    if i == 0:
        if input_rows is None:
            return grads, None
        return grads, (mask @ (net.layers[0][input_rows] * w).T) * d
    g = (mask @ (net.layers[i][:-1] * w).T) * d * (acts[i][:, :-1] > 0)
    for i in range(i - 1, -1, -1):
        grads[i] = acts[i].T @ g
        if i > 0:
            g = (g @ net.layers[i][:-1].T) * (acts[i][:, :-1] > 0)
    if input_rows is None:
        return grads, None
    return grads, g @ net.layers[0][input_rows].T


def _as_param_grads(grads):
    return ParamGrads([g[:-1] for g in grads], [g[-1] for g in grads])


def _penalty(fake, t, kind):
    """The batch accuracy penalty, in the dtype of ``fake`` and ``t``."""
    if kind == "continuous":
        return float(np.mean((fake - t) ** 2))
    p = _clipped(fake)
    return float(np.mean((-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)).sum(axis=1)))


def _cycles(cfg):
    """(discriminator updates, generator updates) of each cycle of a fit
    from scratch: whole cycles, then one of the generator updates left,
    after its share of discriminator updates rounded up."""
    left = cfg.max_epochs
    while left > 0:
        n_gen = min(cfg.gen_iters_per_cycle, left)
        yield math.ceil(cfg.disc_iters_per_cycle * n_gen / cfg.gen_iters_per_cycle), n_gen
        left -= n_gen


def reference_train(
    X, y, kind, cfg, seed, n_levels=None, backward_pass=_ref_backward_folded, dtype=TRAIN_DTYPE
):
    """A plain numpy training loop in ``train_gcin``'s order: the same RNG
    draws, each layer as one product with its [W; b] matrix on inputs with
    a ones column, one discriminator pass over the real rows stacked on the
    fake rows, only the generated columns of the discriminator's input
    gradient, and the fold of every one-wide output.  It standardises in
    float64 and trains in ``dtype`` (noise drawn in it too), runs the
    cycles of ``_cycles`` and never stops early.  Returns both nets and
    the trace, each cycle's mean of the per-update losses:
    ``discriminator_losses`` and ``generator_losses`` of the scores, and
    the penalty in ``dtype``."""
    X = np.asarray(X, dtype=float)
    n, width = X.shape
    cond, target = (a.astype(dtype) for a in _encode(X, y, kind, n_levels))
    t = target.shape[1]
    gen, disc, gen_opt, disc_opt, rng = _init_nets(n, width, t, cfg, seed, kind, dtype)
    batch = min(cfg.batch_size, n)
    draw = _sampler(rng, cond, target, batch, cfg.noise_dim)
    trace = TrainTrace()
    for n_disc, n_gen in _cycles(cfg):
        disc_losses, gen_losses, pens = [], [], []
        for _ in range(n_disc):
            c, tg, z = draw()
            fake, _ = _ref_forward(gen, with_ones(np.hstack([c, z])))
            d, acts = _ref_forward(disc, stacked(np.hstack([c, tg]), np.hstack([c, fake])))
            g = np.vstack([(d[:batch] - 2.0) / batch, d[batch:] / batch])
            grads, _ = backward_pass(disc, acts, d, g)
            adam_step(disc, _as_param_grads(grads), disc_opt)
            disc_losses.append(disc_loss(d[:batch], d[batch:]))
        for _ in range(n_gen):
            c, tg, z = draw()
            fake, gen_acts = _ref_forward(gen, with_ones(np.hstack([c, z])))
            d_fake, acts = _ref_forward(disc, with_ones(np.hstack([c, fake])))
            rows = slice(width, width + t)
            _, d_in = backward_pass(disc, acts, d_fake, (d_fake - 1.0) / batch, rows)
            g = d_in + _pen_grad(fake, tg, kind, cfg.acc_penalty_weight, batch)
            grads, _ = backward_pass(gen, gen_acts, fake, g)
            adam_step(gen, _as_param_grads(grads), gen_opt)
            gen_losses.append(gen_loss(d_fake))
            pens.append(_penalty(fake, tg, kind))
        trace.disc_loss.append(float(np.mean(disc_losses)))
        trace.gen_loss.append(float(np.mean(gen_losses)))
        trace.acc_penalty.append(float(np.mean(pens)))
    return gen, disc, trace


def reference_train_formed_delta(X, y, kind, cfg, seed, n_levels=None):
    """``reference_train`` in float64 with every layer's delta formed, as
    ``train_gcin`` ran before the fold."""
    return reference_train(
        X, y, kind, cfg, seed, n_levels, backward_pass=_ref_backward, dtype=np.float64
    )


def reference_train_separate_passes(X, y, kind, cfg, seed, n_levels=None):
    """The same loop in float64 from the public nn functions in the older
    order: the real and fake discriminator passes backpropagated
    separately and their gradients summed, and the discriminator's full
    input gradient formed before the generated columns are sliced out."""
    X = np.asarray(X, dtype=float)
    n, width = X.shape
    cond, target = _encode(X, y, kind, n_levels)
    gen, disc, gen_opt, disc_opt, rng = _init_nets(
        n, width, target.shape[1], cfg, seed, kind, np.float64
    )
    batch = min(cfg.batch_size, n)
    draw = _sampler(rng, cond, target, batch, cfg.noise_dim)
    for n_disc, n_gen in _cycles(cfg):
        for _ in range(n_disc):
            c, t, z = draw()
            real_in = np.hstack([c, t])
            fake_in = np.hstack([c, forward(gen, np.hstack([c, z]))])
            d_real = forward(disc, real_in)
            d_fake = forward(disc, fake_in)
            real, _ = backward_with_input_grads(disc, real_in, (d_real - 2.0) / batch)
            fake, _ = backward_with_input_grads(disc, fake_in, d_fake / batch)
            summed = ParamGrads(
                [a + b for a, b in zip(real.d_weights, fake.d_weights)],
                [a + b for a, b in zip(real.d_biases, fake.d_biases)],
            )
            adam_step(disc, summed, disc_opt)
        for _ in range(n_gen):
            c, t, z = draw()
            gen_in = np.hstack([c, z])
            fake = forward(gen, gen_in)
            disc_in = np.hstack([c, fake])
            d_fake = forward(disc, disc_in)
            _, d_in = backward_with_input_grads(disc, disc_in, (d_fake - 1.0) / batch)
            pen_grad = _pen_grad(fake, t, kind, cfg.acc_penalty_weight, batch)
            grads, _ = backward_with_input_grads(gen, gen_in, d_in[:, width:] + pen_grad)
            adam_step(gen, grads, gen_opt)
    return gen, disc


REFERENCE_CASES = [
    ("continuous", None, 300),
    ("binary", None, 300),
    ("categorical", 3, 300),
    ("continuous", None, 40),  # fewer rows than the batch: every row, every update
    ("binary", None, 25_000),  # two hidden layers, [200, 100]
]


def _reference_case(kind, n_rows):
    rng = np.random.default_rng(29)
    X = rng.normal(size=(n_rows, 4))
    if kind == "continuous":
        y = X @ np.array([1.0, -0.5, 0.25, 0.0]) + rng.normal(size=n_rows)
    elif kind == "binary":
        y = (X[:, 0] + rng.normal(size=n_rows) > 0).astype(float)
    else:
        y = np.digitize(X[:, 0], [-0.5, 0.5]).astype(float)
    cfg = TrainConfig(
        max_epochs=24,
        gen_iters_per_cycle=6,
        disc_iters_per_cycle=3,
        batch_size=64,
        noise_dim=3,
        early_stop_patience=1000,
    )
    return X, y, cfg, 5


class TestTrainGcinMatchesReferenceLoop:
    """``train_gcin`` must reproduce the plain loop in its own order at the
    training dtype bit for bit, losses included; in float64 that loop must
    match the loop with every delta formed and the older separate-pass
    order up to float reassociation."""

    @pytest.mark.parametrize(
        "kind,n_levels,n_rows,hidden",
        [pytest.param(*case, None, id="-".join(map(str, case))) for case in REFERENCE_CASES]
        + [
            pytest.param("categorical", 3, 300, [24, 16], id="categorical-3-300-hidden24x16"),
            pytest.param("continuous", None, 300, [24, 16], id="continuous-None-300-hidden24x16"),
        ],
    )
    def test_weights_bit_identical(self, monkeypatch, kind, n_levels, n_rows, hidden):
        # a hidden list replaces scale_architecture's: two hidden layers on a
        # small table run the loop below the fold (and, for a multi-wide
        # categorical head, the loop with no fold) on every update
        if hidden is not None:
            monkeypatch.setattr(gcmi.gcin, "scale_architecture", lambda n, features: hidden)
        X, y, cfg, seed = _reference_case(kind, n_rows)
        pair, trace = fit_one(X, y, column(kind, n_levels), cfg, seed)
        gen, disc, ref_trace = reference_train(X, y, kind, cfg, seed, n_levels)
        assert len(trace) == 4
        for trained, reference in ((pair.generator, gen), (pair.discriminator, disc)):
            assert trained.params.tobytes() == reference.params.tobytes()
        assert trace == ref_trace

    def test_cut_short_last_cycle_runs_its_share_of_discriminator_updates(self, monkeypatch):
        # 130 generator updates: cycles of 50, 50 and 30, after 10, 10 and
        # ceil(10 * 30 / 50) = 6 discriminator updates, alone and in a group
        X, y, _, seed = _reference_case("continuous", 300)
        cfg = replace(FAST, max_epochs=130, early_stop_patience=1000)
        assert list(_cycles(cfg)) == [(10, 50), (10, 50), (6, 30)]
        gen, disc, ref_trace = reference_train(X, y, "continuous", cfg, seed)
        assert len(ref_trace) == 3
        heads = []
        step = gcmi.gcin.adam_step

        def counted(mlp, grads, state):
            heads.append(mlp.output_activation)
            return step(mlp, grads, state)

        monkeypatch.setattr(gcmi.gcin, "adam_step", counted)
        fits = [fit_one(X, y, column("continuous"), cfg, seed)]
        assert heads.count("scaled_sigmoid_0_2") == 26
        assert heads.count("identity") == 130
        # members 0 and 2 are the reference's fit; member 1 differs in rows and seed
        group = train_gcin(
            [X, X[::-1], X], [y, y[::-1], y], column("continuous"), cfg, [seed, seed + 1, seed]
        )
        fits += group[::2]
        for pair, trace in fits:
            for trained, reference in ((pair.generator, gen), (pair.discriminator, disc)):
                assert trained.params.tobytes() == reference.params.tobytes()
            assert trace == ref_trace

    @pytest.mark.parametrize("kind,n_levels,n_rows", REFERENCE_CASES)
    def test_formed_delta_order_within_reassociation(self, kind, n_levels, n_rows):
        X, y, cfg, seed = _reference_case(kind, n_rows)
        folded = reference_train(X, y, kind, cfg, seed, n_levels, dtype=np.float64)
        gen, disc, _ = reference_train_formed_delta(X, y, kind, cfg, seed, n_levels)
        for trained, reference in zip(folded[:2], (gen, disc)):
            scale = np.abs(reference.params).max()
            assert np.abs(trained.params - reference.params).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind,n_levels,n_rows", REFERENCE_CASES)
    def test_separate_pass_order_within_reassociation(self, kind, n_levels, n_rows):
        X, y, cfg, seed = _reference_case(kind, n_rows)
        folded = reference_train(X, y, kind, cfg, seed, n_levels, dtype=np.float64)
        gen, disc = reference_train_separate_passes(X, y, kind, cfg, seed, n_levels)
        for trained, reference in zip(folded[:2], (gen, disc)):
            scale = np.abs(reference.params).max()
            assert np.abs(trained.params - reference.params).max() <= 1e-12 * scale


def _group_case(kind, members=3, n=200, width=4):
    rng = np.random.default_rng(37)
    X = rng.normal(size=(members, n, width))
    if kind == "continuous":
        y = X[..., 0] + rng.normal(size=(members, n))
    elif kind == "binary":
        y = (X[..., 0] + rng.normal(size=(members, n)) > 0).astype(float)
    else:
        y = np.digitize(X[..., 0], [-0.5, 0.5]).astype(float)
    return X, y


class TestGroupFits:
    """A group fit gives each member bit for bit its fit in a group of one,
    with its own data and seed, whatever the other members do."""

    CFG = TrainConfig(
        max_epochs=30, gen_iters_per_cycle=5, disc_iters_per_cycle=3, batch_size=64, noise_dim=3
    )

    @staticmethod
    def _assert_members_are_lone_fits(X, y, col, cfg, seeds, start=None):
        fits = train_gcin(X, y, col, cfg, seeds, start)
        assert len(fits) == len(seeds)
        for a, ((pair, trace), x_c, x_t, seed) in enumerate(zip(fits, X, y, seeds)):
            warm = None if start is None else start[a]
            lone, lone_trace = fit_one(x_c, x_t, col, cfg, seed, warm)
            for got, want in (
                (pair.generator, lone.generator),
                (pair.discriminator, lone.discriminator),
            ):
                assert got.stack == ()
                assert got.params.tobytes() == want.params.tobytes()
            assert pair.cond_shift.tobytes() == lone.cond_shift.tobytes()
            assert pair.cond_scale.tobytes() == lone.cond_scale.tobytes()
            assert (pair.target_shift, pair.target_scale) == (lone.target_shift, lone.target_scale)
            assert trace == lone_trace
        return fits

    @pytest.mark.parametrize("hidden", [None, [12, 9]])
    @pytest.mark.parametrize(
        "kind,n_levels", [("continuous", None), ("binary", None), ("categorical", 3)]
    )
    def test_members_equal_lone_fits(self, monkeypatch, kind, n_levels, hidden):
        if hidden is not None:
            monkeypatch.setattr(gcmi.gcin, "scale_architecture", lambda n, features: hidden)
        X, y = _group_case(kind)
        col = column(kind, n_levels)
        fits = self._assert_members_are_lone_fits(X, y, col, self.CFG, [3, 1, 4])
        # every returned network owns its buffer: none views the stack's
        nets = [net for pair, _ in fits for net in (pair.generator, pair.discriminator)]
        assert all(net.params.flags.owndata for net in nets)

    def test_members_that_stop_at_different_cycles(self, monkeypatch):
        X, y = _group_case("continuous", members=4, n=300, width=5)
        cfg = replace(self.CFG, max_epochs=400, early_stop_patience=2, early_stop_tol=0.02)
        stacks = []
        step = gcmi.gcin.adam_step

        def recorded(mlp, grads, state):
            stacks.append(mlp.stack)
            return step(mlp, grads, state)

        monkeypatch.setattr(gcmi.gcin, "adam_step", recorded)
        fits = self._assert_members_are_lone_fits(X, y, column("continuous"), cfg, range(10, 14))
        cycles = [len(trace) for _, trace in fits]
        # every member stopped early, and not all at one cycle
        assert max(cycles) < cfg.max_epochs // cfg.gen_iters_per_cycle
        assert len(set(cycles)) > 1
        # the group stepped its whole stack on every update until its last
        # member stopped; the lone fits, groups of one, stepped stacks of one
        per_cycle = cfg.disc_iters_per_cycle + cfg.gen_iters_per_cycle
        group = stacks[: max(cycles) * per_cycle]
        assert group == [(4,)] * len(group)
        assert set(stacks[len(group) :]) == {(1,)}

        # a stopped member's gradients no longer reach Adam: made non-finite
        # from the cycle after its stop on, they raise nothing and change no
        # member's result
        disc_grads = gcmi.gcin._disc_grads
        calls = [0]

        def poisoned(disc, inputs, ws=None):
            scores, grads = disc_grads(disc, inputs, ws)
            if disc.stack == (4,):
                cycle = calls[0] // cfg.disc_iters_per_cycle
                calls[0] += 1
                for a, stop in enumerate(cycles):
                    if cycle >= stop:
                        grads.flat[a] = np.nan
            return scores, grads

        monkeypatch.setattr(gcmi.gcin, "_disc_grads", poisoned)
        self._assert_members_are_lone_fits(X, y, column("continuous"), cfg, range(10, 14))
        assert calls[0] == max(cycles) * cfg.disc_iters_per_cycle

    @pytest.mark.parametrize(
        "kind,n_levels", [("continuous", None), ("binary", None), ("categorical", 3)]
    )
    def test_warm_members_equal_lone_warm_fits(self, kind, n_levels):
        # a second sweep: each member trains on from its first fit's pair, on
        # conditioning that moved, for a fifth of the budget with its pair's
        # conditioning normalisation; the observed target did not move, so
        # its normalisation is refitted to the same numbers; the start pairs
        # are copied, never changed
        X, y = _group_case(kind)
        col = column(kind, n_levels)
        start = [pair for pair, _ in train_gcin(X, y, col, self.CFG, [3, 1, 4])]
        before = [(p.generator.params.copy(), p.discriminator.params.copy()) for p in start]
        X_next = X + 0.1 * np.random.default_rng(41).normal(size=X.shape)
        fits = self._assert_members_are_lone_fits(X_next, y, col, self.CFG, [5, 9, 2], start)
        for (pair, trace), old, (gen, disc) in zip(fits, start, before):
            assert old.generator.params.tobytes() == gen.tobytes()
            assert old.discriminator.params.tobytes() == disc.tobytes()
            assert pair.generator.params.tobytes() != gen.tobytes()
            assert pair.cond_shift.tobytes() == old.cond_shift.tobytes()
            assert pair.cond_scale.tobytes() == old.cond_scale.tobytes()
            assert (pair.target_shift, pair.target_scale) == (old.target_shift, old.target_scale)
            # ceil(30 / 5) = 6 generator updates: cycles of 5 and 1, after 3
            # and ceil(3 * 1 / 5) = 1 discriminator updates
            assert len(trace) == 2

    def test_warm_fit_runs_a_fifth_of_the_budget_rounded_up(self, monkeypatch):
        X, y = _group_case("continuous", members=1)
        (start, _) = fit_one(X[0], y[0], column("continuous"), self.CFG)
        steps = []
        step = gcmi.gcin.adam_step

        def counted(mlp, grads, state):
            steps.append(mlp.output_activation)
            return step(mlp, grads, state)

        monkeypatch.setattr(gcmi.gcin, "adam_step", counted)
        for max_epochs, updates in [(30, 6), (31, 7), (4, 1), (1, 1)]:
            steps.clear()
            cfg = replace(self.CFG, max_epochs=max_epochs, early_stop_patience=1000)
            fit_one(X[0], y[0], column("continuous"), cfg, 7, start=start)
            assert -(-max_epochs // gcmi.gcin.WARM_START_DIVISOR) == updates
            assert steps.count("identity") == updates

    def test_start_needs_one_fitting_pair_per_member(self):
        X, y = _group_case("continuous", members=2)
        cfg = self.CFG
        start = [pair for pair, _ in train_gcin(X, y, column("continuous"), cfg, [3, 1])]
        with pytest.raises(ShapeError, match="one start pair per member"):
            train_gcin(X, y, column("continuous"), cfg, [3, 1], start=start[:1])
        with pytest.raises(ShapeError, match="one start pair per member"):
            train_gcin(X[:1], y[:1], column("continuous"), cfg, [3], start=start)
        narrow = fit_one(X[0, :, :3], y[0], column("continuous"), cfg)[0]
        binary = fit_one(X[0], (y[0] > 0).astype(float), column("binary"), cfg)[0]
        more_noise = fit_one(X[0], y[0], column("continuous"), replace(cfg, noise_dim=4))[0]
        for other in (narrow, binary, more_noise):
            with pytest.raises(ShapeError, match="start pair 1 does not fit"):
                train_gcin(X, y, column("continuous"), cfg, [3, 1], start=[start[0], other])

    def test_one_seed_per_member(self):
        X, y = _group_case("continuous", members=2)
        for seeds, message in [
            ([3], "one X_cond, x_target and seed per member"),
            ([3, 1, 4], "one X_cond, x_target and seed per member"),
            ([], "at least one member"),
        ]:
            with pytest.raises(ShapeError, match=message):
                train_gcin(X, y, column("continuous"), self.CFG, seeds)
        with pytest.raises(ShapeError, match="at least one member"):
            train_gcin(X[:0], y[:0], column("continuous"), self.CFG, [])

    def test_one_input_row_per_member(self):
        X, y = _group_case("continuous", members=2)
        for X_cond, x_target in [
            (X, y[:1]),  # one target for two members
            (X, y[0]),  # a target without the leading axis
            (X[0], y[0]),  # a group needs the leading axis
        ]:
            with pytest.raises(ShapeError):
                train_gcin(X_cond, x_target, column("continuous"), self.CFG, [3, 1])


class TestFoldedBackward:
    """``_backward_from_cache`` against the backward pass that forms every
    layer's delta, for every head and depth, with and without parameter
    gradients and input rows."""

    @pytest.mark.parametrize("hidden", [[7], [6, 5]])
    @pytest.mark.parametrize(
        "head,width", [("identity", 1), ("sigmoid", 1), ("scaled_sigmoid_0_2", 1), ("sigmoid", 3)]
    )
    @pytest.mark.parametrize("want_grads", [True, False])
    @pytest.mark.parametrize("input_rows", [None, slice(2, 5), slice(0, 5)])
    def test_matches_formed_delta(self, hidden, head, width, want_grads, input_rows):
        rng = np.random.default_rng(67)
        n = 32
        net = mlp_new(5, hidden, width, head, 13)
        net.params += rng.normal(scale=0.1, size=net.params.size)  # non-zero biases
        x = with_ones(rng.normal(size=(n, 5)))
        g = rng.normal(size=(n, width)) / n
        out, acts = _forward_cache(net, x)
        # the reference first: the backward pass overwrites the activations
        ref_grads, ref_input = _ref_backward(net, acts, out, g, input_rows)
        grads = ParamGrads.zeros_like(net) if want_grads else None
        input_grads = _backward_from_cache(net, acts, out, g, grads, input_rows)
        if want_grads:
            for got, ref in zip(grads.layers, ref_grads):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        if input_rows is None:
            assert input_grads is None
        else:
            assert input_grads.shape == ref_input.shape
            assert np.abs(input_grads - ref_input).max() <= 1e-12 * np.abs(ref_input).max()


class TestTwoHiddenLayerGradients:
    """Every parameter, bias rows included, against central differences on
    generators and discriminators with two hidden layers (the [200, 100]
    shape that mid-sized tables get)."""

    @staticmethod
    def _fd(params, objective, h=1e-6):
        fd = np.zeros_like(params)
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            up = objective()
            params[i] = orig - h
            down = objective()
            params[i] = orig
            fd[i] = (up - down) / (2 * h)
        return fd

    @staticmethod
    def _assert_close(analytic, fd):
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
        assert np.all(np.abs(analytic - fd) / denom < 1e-4)

    @pytest.mark.parametrize("kind,t", [("continuous", 1), ("binary", 1), ("categorical", 3)])
    def test_generator(self, kind, t):
        rng = np.random.default_rng(41)
        n, w, k = 6, 3, 2
        head = "identity" if kind == "continuous" else "sigmoid"
        gen = mlp_new(w + k, [5, 4], t, head, 7)
        disc = mlp_new(w + t, [6, 3], 1, "scaled_sigmoid_0_2", 8)
        for net in (gen, disc):
            net.params += rng.normal(scale=0.1, size=net.params.size)  # non-zero biases
        cond = rng.normal(size=(n, w))
        z = rng.normal(size=(n, k))
        if kind == "continuous":
            target = rng.normal(size=(n, 1))
        elif kind == "binary":
            target = rng.integers(0, 2, size=(n, 1)).astype(float)
        else:
            target = np.eye(t)[rng.integers(0, t, n)]
        lam = 0.7

        def objective():
            fake = forward(gen, np.hstack([cond, z]))
            adv = gen_loss(forward(disc, np.hstack([cond, fake])))
            if kind == "continuous":
                return adv + lam * float(np.mean((fake - target) ** 2))
            clipped = np.clip(fake, 1e-12, 1.0 - 1e-12)
            return adv + lam * float(np.mean(_cross_entropy(target, clipped).sum(axis=1)))

        _, _, grads = gen_grads(gen, disc, cond, target, z, lam, kind)
        self._assert_close(grads.flat, self._fd(gen.params, objective))

    def test_discriminator(self):
        rng = np.random.default_rng(43)
        n, w = 5, 4
        disc = mlp_new(w, [6, 3], 1, "scaled_sigmoid_0_2", 9)
        disc.params += rng.normal(scale=0.1, size=disc.params.size)
        real = rng.normal(size=(n, w))
        fake = rng.normal(size=(n, w))
        _, grads = _disc_grads(disc, stacked(real, fake))

        def objective():
            return disc_loss(forward(disc, real), forward(disc, fake))

        self._assert_close(grads.flat, self._fd(disc.params, objective))


class TestStackedDiscriminatorPass:
    @pytest.mark.parametrize("hidden", [[7], [6, 5]])
    def test_equals_sum_of_real_and_fake_passes(self, hidden):
        rng = np.random.default_rng(47)
        n, w = 32, 5
        disc = mlp_new(w, hidden, 1, "scaled_sigmoid_0_2", 3)
        disc.params += rng.normal(scale=0.1, size=disc.params.size)
        real = rng.normal(size=(n, w))
        fake = rng.normal(size=(n, w))
        scores, grads = _disc_grads(disc, stacked(real, fake))
        loss = disc_loss(scores[:n], scores[n:])
        d_real, d_fake = forward(disc, real), forward(disc, fake)
        real_grads, _ = backward_with_input_grads(disc, real, (d_real - 2.0) / n)
        fake_grads, _ = backward_with_input_grads(disc, fake, d_fake / n)
        summed = real_grads.flat + fake_grads.flat
        assert loss == pytest.approx(disc_loss(d_real, d_fake), rel=1e-12)
        assert np.abs(grads.flat - summed).max() <= 1e-12 * np.abs(summed).max()


class TestOnesColumns:
    """The trailing ones columns feed the bias rows and nothing else."""

    def test_workspace_ones_stay_one_and_no_gradient_has_their_column(self):
        rng = np.random.default_rng(53)
        n, w, k, t = 16, 3, 2, 3
        gen = mlp_new(w + k, [6, 4], t, "sigmoid", 1)
        disc = mlp_new(w + t, [5, 4], 1, "scaled_sigmoid_0_2", 2)
        ws = _Workspace(gen, disc, n, w)
        cond = rng.normal(size=(n, w))
        target = np.eye(t)[rng.integers(0, t, n)]
        for _ in range(3):
            z = rng.normal(size=(n, k))
            fake = forward(gen, np.hstack([cond, z]))
            ws.disc_in[:n, :-1] = np.hstack([cond, target])
            ws.disc_in[n:, :-1] = np.hstack([cond, fake])
            _disc_grads(disc, ws.disc_in, ws)
            gen_grads(gen, disc, cond, target, z, 1.0, "categorical", ws)
        for buf in [ws.gen_in, ws.disc_in, *ws.gen_bufs.hidden, *ws.disc_bufs.hidden]:
            assert np.array_equal(buf[:, -1], np.ones(buf.shape[0]))
        for net, bufs in ((gen, ws.gen_bufs), (disc, ws.disc_bufs)):
            # every per-layer buffer is (rows, width+1); the ReLU's zeros stay zero
            for name in ("hidden", "zeros", "deltas"):
                assert [a.shape[1] - 1 for a in getattr(bufs, name)] == net.hidden_dims
            assert not any(z.any() for z in bufs.zeros)
        for net, grads in ((gen, ws.gen_grads), (disc, ws.disc_grads)):
            assert [g.shape for g in grads.layers] == [p.shape for p in net.layers]
        # built from float64 nets, every buffer stays float64
        assert {a.dtype for a in _workspace_arrays(ws)} == {np.dtype(np.float64)}

    def test_bias_row_gradient_is_the_delta_sum(self):
        # one linear layer: the last row of [dW; db] is the column sum of g
        rng = np.random.default_rng(59)
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 2))
        net = mlp_new(3, [4], 2, "identity", 5)
        grads, input_grads = backward_with_input_grads(net, x, g)
        assert input_grads.shape == x.shape
        hidden = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        assert np.allclose(grads.layers[1][:-1], hidden.T @ g, rtol=1e-13, atol=0)
        assert np.allclose(grads.layers[1][-1], g.sum(axis=0), rtol=1e-13, atol=0)

    def test_generated_columns_only(self):
        rng = np.random.default_rng(61)
        n, w, k = 8, 3, 2
        gen = mlp_new(w + k, [5], 2, "sigmoid", 11)
        disc = mlp_new(w + 2, [6, 4], 1, "scaled_sigmoid_0_2", 12)
        cond, z = rng.normal(size=(n, w)), rng.normal(size=(n, k))
        fake = forward(gen, np.hstack([cond, z]))
        disc_in = np.hstack([cond, fake])
        d_fake = forward(disc, disc_in)
        _, full = backward_with_input_grads(disc, disc_in, (d_fake - 1.0) / n)
        ws = _Workspace(gen, disc, n, w)
        gen_grads(gen, disc, cond, np.zeros((n, 2)), z, 0.0, "binary", ws)
        # with no penalty the generator's output gradient is the sliced input gradient
        expect = backward_with_input_grads(gen, np.hstack([cond, z]), full[:, w:])[0].flat
        assert np.abs(ws.gen_grads.flat - expect).max() <= 1e-12 * np.abs(expect).max()


def _workspace_arrays(ws):
    for value in vars(ws).values():
        if isinstance(value, ParamGrads):
            yield value.flat
        elif isinstance(value, _Buffers):
            for arrays in vars(value).values():
                yield from arrays
        else:
            yield value


class TestTrainingDtype:
    """Fits train in float32 from float64 data; the sigmoid clip keeps a
    saturated float32 head off 0 and 1."""

    def test_fit_keeps_every_training_array_in_float32(self, monkeypatch):
        workspaces, steps = [], []
        make_workspace, step = gcmi.gcin._Workspace, gcmi.gcin.adam_step

        def recording_workspace(*args):
            workspaces.append(make_workspace(*args))
            return workspaces[-1]

        def recording_step(mlp, grads, state):
            steps.append((grads, state))
            return step(mlp, grads, state)

        monkeypatch.setattr(gcmi.gcin, "_Workspace", recording_workspace)
        monkeypatch.setattr(gcmi.gcin, "adam_step", recording_step)
        rng = np.random.default_rng(71)
        X = rng.normal(size=(120, 3))
        y = rng.integers(0, 3, size=120).astype(float)
        pair, _ = fit_one(X, y, column("categorical", 3), FAST)
        (ws,) = workspaces
        arrays = [pair.generator.params, pair.discriminator.params, *_workspace_arrays(ws)]
        for grads, state in steps:
            arrays += [grads.flat, state.m, state.v, state.scratch]
        assert {a.dtype for a in arrays} == {np.dtype(TRAIN_DTYPE)} == {np.dtype(np.float32)}
        # the normalisation stays float64
        assert pair.cond_shift.dtype == pair.cond_scale.dtype == np.float64

    def test_saturated_float32_sigmoid_head_gives_finite_penalty_and_gradient(self):
        net = mlp_new(2, [3], 2, "sigmoid", 5, dtype=np.float32)
        net.params[:] = 0.0
        net.biases[-1][:] = [60.0, -60.0]  # both outputs saturate
        out = forward(net, np.zeros((4, 2)))
        assert out.dtype == np.float32
        assert np.all((out > 0.0) & (out < 1.0))
        for target in (np.zeros((4, 2), np.float32), np.ones((4, 2), np.float32)):
            terms, grad = accuracy_penalty_terms(target, out, "binary")
            assert np.all(np.isfinite(terms))
            assert np.all(np.isfinite(grad))


@pytest.fixture(scope="module")
def noisy_pair():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(400, 3))
    y = X[:, 0] + rng.normal(size=400)  # genuinely noisy conditional
    pair, _ = fit_one(X, y, column("continuous"), TrainConfig(max_epochs=300), seed=19)
    return pair


class TestImputeColumn:
    def test_peak_memory_is_the_hidden_activations(self):
        # a [200, 100] generator over 40 000 rows: the forward-only pass
        # holds its input and the two hidden activations, nothing of the
        # training passes' buffers
        n, width, noise = 40_000, 7, 8
        gen = mlp_new(width + noise, [200, 100], 1, "identity", 1, dtype=TRAIN_DTYPE)
        disc = mlp_new(width + 1, [200, 100], 1, "scaled_sigmoid_0_2", 2, dtype=TRAIN_DTYPE)
        pair = GcinPair(gen, disc, np.zeros(width), np.ones(width), 0, 1)
        X = np.random.default_rng(3).normal(size=(n, width))
        tracemalloc.start()
        try:
            impute_column(pair, X, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activations = n * (201 + 101) * np.dtype(TRAIN_DTYPE).itemsize
        assert peak < 1.1 * activations

    def test_backward_with_input_grads_peak_memory(self):
        # the same [200, 100] net as the discriminator over 20 000 rows:
        # the backward reuses the forward's hidden activations and adds
        # only the deltas it carries down, and its bits are those of a
        # pass in a full set of training buffers
        n, width = 20_000, 8
        disc = mlp_new(width, [200, 100], 1, "scaled_sigmoid_0_2", 2, dtype=TRAIN_DTYPE)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(n, width)).astype(TRAIN_DTYPE)
        out_grad = rng.normal(size=(n, 1)).astype(TRAIN_DTYPE)
        tracemalloc.start()
        try:
            grads, input_grads = backward_with_input_grads(disc, x, out_grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activations = n * (201 + 101) * np.dtype(TRAIN_DTYPE).itemsize
        assert peak <= 3 * activations

        bufs = _Buffers.new(disc, n)
        ones = np.ones((n, 1), dtype=TRAIN_DTYPE)
        out, acts = _forward_cache(disc, np.concatenate([x, ones], axis=1), bufs)
        want = ParamGrads.zeros_like(disc)
        want_input = _backward_from_cache(disc, acts, out, out_grad, want, slice(0, width), bufs)
        assert np.array_equal(grads.flat, want.flat)
        assert np.array_equal(input_grads, want_input)

    def test_empty_input_empty_output(self, noisy_pair):
        assert impute_column(noisy_pair, np.zeros((0, 3)), seed=0).size == 0

    def test_same_seed_identical(self, noisy_pair):
        X = np.random.default_rng(1).normal(size=(30, 3))
        a = impute_column(noisy_pair, X, seed=42)
        b = impute_column(noisy_pair, X, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, noisy_pair):
        X = np.random.default_rng(1).normal(size=(30, 3))
        a = impute_column(noisy_pair, X, seed=1)
        b = impute_column(noisy_pair, X, seed=2)
        assert not np.array_equal(a, b)
        # noise must contribute real spread across seeds, not just ties broken
        draws = np.stack([impute_column(noisy_pair, X, seed=s) for s in range(10)])
        assert np.median(draws.std(axis=0)) > 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_conditioning_rejected(self, noisy_pair, bad):
        X = np.zeros((5, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="X_cond_mis must not contain"):
            impute_column(noisy_pair, X, seed=0)

    def test_width_mismatch_rejected(self, noisy_pair):
        with pytest.raises(ShapeError):
            impute_column(noisy_pair, np.zeros((5, 7)), seed=0)

    def test_large_offset_destandardised_in_float64(self):
        # a float32 generator whose output is 0.3 everywhere; float32 has a
        # spacing of 0.0625 at 1e6, so the offset must be added in float64
        gen = mlp_new(5, [4], 1, "identity", 1, dtype=np.float32)
        gen.params[:] = 0.0
        gen.biases[-1][:] = 0.3
        disc = mlp_new(4, [4], 1, "scaled_sigmoid_0_2", 2, dtype=np.float32)
        shift = 1e6 + 0.123456789
        pair = GcinPair(gen, disc, np.zeros(3), np.ones(3), shift, 0.5)
        imputed = impute_column(pair, np.zeros((5, 3)), seed=0)
        assert imputed.dtype == np.float64
        assert np.all(imputed == float(np.float32(0.3)) * 0.5 + shift)

    def test_level_draw_never_falls_through_to_level_zero(self):
        # ten levels at 0.1: the cumulative sum ends below 1 in float64
        probs = np.full((1, 10), 0.1)
        assert np.cumsum(probs / probs.sum())[-1] < 1.0
        top = np.array([[np.nextafter(1.0, 0.0)]])  # the largest uniform draw
        assert _draw_levels(probs, top)[0] == 9.0
        assert _draw_levels(probs, np.array([[0.0], [0.15]])).tolist() == [0.0, 1.0]

