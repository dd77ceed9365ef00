"""Per-column adversarial training: architecture scaling, loss gradients
through the composed discriminator-of-generator graph, trained behaviour
on constant and linear targets, and imputation determinism."""

import numpy as np
import pytest

from gcmi import (
    InsufficientDataError,
    ShapeError,
    TrainConfig,
    impute_column,
    scale_architecture,
    train_gcin,
)
from gcmi.gcin import _disc_grads, _gen_grads, _Workspace
from gcmi.losses import accuracy_penalty, discriminator_loss, generator_loss
from gcmi.nn import (
    ParamGrads,
    adam_new,
    adam_step,
    backward,
    backward_with_input_grads,
    forward,
    mlp_new,
)
from gcmi.seeding import canonical_seed

FAST = TrainConfig(max_epochs=150, batch_size=64, noise_dim=4, seed=0)


def with_ones(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def stacked(real, fake):
    """The discriminator update's input: real rows on top of fake rows,
    with the trailing ones column."""
    return with_ones(np.vstack([real, fake]))


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


class TestComposedGradients:
    """Training gradients against central finite differences through the
    full discriminator-of-generator objective."""

    @staticmethod
    def _gen_objective(gen, disc, cond, target, z, lam, kind):
        fake = forward(gen, np.hstack([cond, z]))
        d_fake = forward(disc, np.hstack([cond, fake]))
        adv = generator_loss(d_fake)
        if kind == "continuous":
            pen = float(np.mean((fake - target) ** 2))
        else:
            clipped = np.clip(fake, 1e-12, 1.0 - 1e-12)
            pen = float(np.mean(accuracy_penalty(target, clipped, "binary").sum(axis=1)))
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
        _, _, grads = _gen_grads(gen, disc, cond, target, z, lam, kind)
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
            return discriminator_loss(forward(disc, real), forward(disc, fake))

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
        pair, _ = train_gcin(X, y, "continuous", TrainConfig(max_epochs=300, seed=5))
        imputed = impute_column(pair, rng.normal(size=(200, 4)), seed=1)
        assert abs(imputed.mean() - 3.0) < 0.05

    def test_linear_signal_beats_mean_imputation(self):
        rng = np.random.default_rng(8)
        n = 1000
        X = rng.normal(size=(n, 5))
        y = 0.9 * X[:, 0] + 0.1 * rng.normal(size=n)
        pair, _ = train_gcin(X, y, "continuous", TrainConfig(max_epochs=400, seed=8))
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
        _, t1 = train_gcin(X, y, "continuous", FAST)
        _, t2 = train_gcin(X, y, "continuous", FAST)
        assert t1.gen_loss == t2.gen_loss
        assert t1.disc_loss == t2.disc_loss
        assert t1.acc_penalty == t2.acc_penalty

    def test_insufficient_rows_rejected(self):
        with pytest.raises(InsufficientDataError):
            train_gcin(np.zeros((1, 3)), np.zeros(1), "continuous", FAST)

    def test_missing_conditioning_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            train_gcin(X, np.zeros(30), "continuous", FAST)

    def test_binary_target_trains_and_samples_codes(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float)
        pair, _ = train_gcin(X, y, "binary", TrainConfig(max_epochs=200, seed=13))
        imputed = impute_column(pair, rng.normal(size=(50, 3)), seed=3)
        assert set(np.unique(imputed)) <= {0.0, 1.0}

    def test_categorical_target_samples_levels_in_range(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 3, size=200).astype(float)
        pair, _ = train_gcin(X, y, "categorical", FAST, n_levels=3)
        imputed = impute_column(pair, rng.normal(size=(80, 3)), seed=4)
        assert set(np.unique(imputed)) <= {0.0, 1.0, 2.0}
        assert pair.generator.output_dim == 3

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            train_gcin(np.zeros((20, 3)), np.zeros(20), "ordinal", FAST)

    def test_diverging_training_raises_numeric_error(self):
        from gcmi import NumericError

        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 3))
        absurd = TrainConfig(max_epochs=60, lr_generator=1e150, batch_size=16, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            train_gcin(X, X.sum(axis=1), "continuous", absurd)


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


def _init_nets(n, width, t, cfg, kind):
    seed = canonical_seed(cfg.seed)
    hidden = scale_architecture(n, width + 1)
    head = "identity" if kind == "continuous" else "sigmoid"
    gen = mlp_new(width + cfg.noise_dim, hidden, t, head, seed=seed)
    disc = mlp_new(width + t, hidden, 1, "scaled_sigmoid_0_2", seed=seed ^ 1)
    gen_opt = adam_new(gen, cfg.lr_generator, cfg.l2)
    disc_opt = adam_new(disc, cfg.lr_discriminator, cfg.l2)
    return gen, disc, gen_opt, disc_opt, np.random.default_rng([seed, 2])


def _draw(rng, cond, target, batch, k):
    n = cond.shape[0]
    idx = np.arange(n) if batch >= n else rng.choice(n, size=batch, replace=False)
    return cond[idx], target[idx], rng.standard_normal((idx.size, k))


def _pen_grad(fake, t, kind, lam, batch):
    if kind == "continuous":
        return lam * 2.0 * (fake - t) / batch
    p = np.clip(fake, 1e-12, 1.0 - 1e-12)
    return lam * (p - t) / (p * (1.0 - p)) / batch


def _ref_sigmoid(z):
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return np.clip(out, 1e-12, 1.0 - 1e-12)


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


def _ref_backward(net, acts, out, g, input_rows=None):
    """[dW; db] per layer, one acts.T @ delta each, and the input gradient
    of the rows ``input_rows`` of layer 0 (None when that is None)."""
    if net.output_activation == "sigmoid":
        g = g * out * (1.0 - out)
    elif net.output_activation == "scaled_sigmoid_0_2":
        g = g * out * (1.0 - 0.5 * out)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grads[i] = acts[i].T @ g
        if i > 0:
            g = (g @ net.layers[i][:-1].T) * (acts[i][:, :-1] > 0)
    if input_rows is None:
        return grads, None
    return grads, g @ net.layers[0][input_rows].T


def _as_param_grads(grads):
    return ParamGrads([g[:-1] for g in grads], [g[-1] for g in grads])


def reference_train(X, y, kind, cfg, n_levels=None):
    """A plain numpy training loop in ``train_gcin``'s order: the same RNG
    draws, each layer as one product with its [W; b] matrix on inputs with
    a ones column, one discriminator pass over the real rows stacked on the
    fake rows, and only the generated columns of the discriminator's input
    gradient.  It runs whole cycles and never stops early."""
    X = np.asarray(X, dtype=float)
    n, width = X.shape
    cond, target = _encode(X, y, kind, n_levels)
    t = target.shape[1]
    gen, disc, gen_opt, disc_opt, rng = _init_nets(n, width, t, cfg, kind)
    batch = min(cfg.batch_size, n)
    for _ in range(cfg.max_epochs // cfg.gen_iters_per_cycle):
        for _ in range(cfg.disc_iters_per_cycle):
            c, tg, z = _draw(rng, cond, target, batch, cfg.noise_dim)
            fake, _ = _ref_forward(gen, with_ones(np.hstack([c, z])))
            d, acts = _ref_forward(disc, stacked(np.hstack([c, tg]), np.hstack([c, fake])))
            g = np.vstack([(d[:batch] - 2.0) / batch, d[batch:] / batch])
            grads, _ = _ref_backward(disc, acts, d, g)
            adam_step(disc, _as_param_grads(grads), disc_opt)
        for _ in range(cfg.gen_iters_per_cycle):
            c, tg, z = _draw(rng, cond, target, batch, cfg.noise_dim)
            fake, gen_acts = _ref_forward(gen, with_ones(np.hstack([c, z])))
            d_fake, acts = _ref_forward(disc, with_ones(np.hstack([c, fake])))
            _, d_in = _ref_backward(disc, acts, d_fake, (d_fake - 1.0) / batch, slice(width, width + t))
            g = d_in + _pen_grad(fake, tg, kind, cfg.acc_penalty_weight, batch)
            grads, _ = _ref_backward(gen, gen_acts, fake, g)
            adam_step(gen, _as_param_grads(grads), gen_opt)
    return gen, disc


def reference_train_separate_passes(X, y, kind, cfg, n_levels=None):
    """The same loop from the public nn functions in the older order: the
    real and fake discriminator passes backpropagated separately and their
    gradients summed, and the discriminator's full input gradient formed
    before the generated columns are sliced out."""
    X = np.asarray(X, dtype=float)
    n, width = X.shape
    cond, target = _encode(X, y, kind, n_levels)
    gen, disc, gen_opt, disc_opt, rng = _init_nets(n, width, target.shape[1], cfg, kind)
    batch = min(cfg.batch_size, n)
    for _ in range(cfg.max_epochs // cfg.gen_iters_per_cycle):
        for _ in range(cfg.disc_iters_per_cycle):
            c, t, z = _draw(rng, cond, target, batch, cfg.noise_dim)
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
        for _ in range(cfg.gen_iters_per_cycle):
            c, t, z = _draw(rng, cond, target, batch, cfg.noise_dim)
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
        seed=5,
    )
    return X, y, cfg


class TestTrainGcinMatchesReferenceLoop:
    """``train_gcin`` must reproduce the plain loop in its own order bit
    for bit, and the older separate-pass order up to float reassociation."""

    @pytest.mark.parametrize("kind,n_levels,n_rows", REFERENCE_CASES)
    def test_weights_bit_identical(self, kind, n_levels, n_rows):
        X, y, cfg = _reference_case(kind, n_rows)
        pair, trace = train_gcin(X, y, kind, cfg, n_levels=n_levels)
        gen, disc = reference_train(X, y, kind, cfg, n_levels)
        assert len(trace) == 4
        for trained, reference in ((pair.generator, gen), (pair.discriminator, disc)):
            assert trained.params.tobytes() == reference.params.tobytes()

    @pytest.mark.parametrize("kind,n_levels,n_rows", REFERENCE_CASES)
    def test_separate_pass_order_within_reassociation(self, kind, n_levels, n_rows):
        X, y, cfg = _reference_case(kind, n_rows)
        pair, _ = train_gcin(X, y, kind, cfg, n_levels=n_levels)
        gen, disc = reference_train_separate_passes(X, y, kind, cfg, n_levels)
        for trained, reference in ((pair.generator, gen), (pair.discriminator, disc)):
            scale = np.abs(reference.params).max()
            assert np.abs(trained.params - reference.params).max() <= 1e-12 * scale


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
            adv = generator_loss(forward(disc, np.hstack([cond, fake])))
            if kind == "continuous":
                return adv + lam * float(np.mean((fake - target) ** 2))
            clipped = np.clip(fake, 1e-12, 1.0 - 1e-12)
            return adv + lam * float(np.mean(accuracy_penalty(target, clipped, "binary").sum(axis=1)))

        _, _, grads = _gen_grads(gen, disc, cond, target, z, lam, kind)
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
            return discriminator_loss(forward(disc, real), forward(disc, fake))

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
        loss, grads = _disc_grads(disc, stacked(real, fake))
        d_real, d_fake = forward(disc, real), forward(disc, fake)
        summed = backward(disc, real, (d_real - 2.0) / n).flat + backward(disc, fake, d_fake / n).flat
        assert loss == pytest.approx(discriminator_loss(d_real, d_fake), rel=1e-12)
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
            _gen_grads(gen, disc, cond, target, z, 1.0, "categorical", ws)
        for buf in [ws.gen_in, ws.disc_in, *ws.gen_hidden, *ws.disc_hidden]:
            assert np.array_equal(buf[:, -1], np.ones(buf.shape[0]))
        assert [d.shape[1] for d in ws.gen_deltas] == gen.hidden_dims
        assert [d.shape[1] for d in ws.disc_deltas] == disc.hidden_dims
        for net, grads in ((gen, ws.gen_grads), (disc, ws.disc_grads)):
            assert [g.shape for g in grads.layers] == [p.shape for p in net.layers]

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
        _gen_grads(gen, disc, cond, np.zeros((n, 2)), z, 0.0, "binary", ws)
        # with no penalty the generator's output gradient is the sliced input gradient
        expect = backward(gen, np.hstack([cond, z]), full[:, w:]).flat
        assert np.abs(ws.gen_grads.flat - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.fixture(scope="module")
def noisy_pair():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(400, 3))
    y = X[:, 0] + rng.normal(size=400)  # genuinely noisy conditional
    pair, _ = train_gcin(X, y, "continuous", TrainConfig(max_epochs=300, seed=19))
    return pair


class TestImputeColumn:
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

    def test_width_mismatch_rejected(self, noisy_pair):
        with pytest.raises(ShapeError):
            impute_column(noisy_pair, np.zeros((5, 7)), seed=0)

