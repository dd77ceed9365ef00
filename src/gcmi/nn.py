"""Dense feed-forward networks with manual backprop and Adam + L2.

Small numpy networks sized for per-column conditional generators and
discriminators on tabular data: ReLU hidden layers, a configurable output
head, no autograd and no GPU.  An ``Mlp`` together with its ``AdamState``
is a single-owner mutable unit; independent networks may be trained in
parallel but one network is never mutated concurrently.

A network computes in the dtype of its parameters, float64 unless
``mlp_new`` is given another (``gcin`` trains its pairs in float32): its
buffers, gradients and Adam moments take that dtype, and the public
``forward``/``backward_with_input_grads`` cast their inputs to it.

Layer layout: each layer stores its (in, out) weight matrix ``W`` row-major
followed by its bias ``b``, so the layer's slice of the flat parameter
buffer *is* the (in+1, out) matrix ``[W; b]`` (``Mlp.layers[i]``;
``weights[i]`` and ``biases[i]`` view its rows).  The private forward and
backward passes take inputs and keep hidden activations with a trailing
column of ones, so each layer is one GEMM: ``a @ [W; b]`` forward (ReLU
leaves the ones at 1) and ``a.T @ delta = [dW; db]`` backward, straight
into the flat gradient.  The public ``forward`` and
``backward_with_input_grads`` take inputs without that column and append
it themselves.

Stacks: an ``Mlp`` whose weights carry a leading axis, (K, in, out), is a
stack of K networks of one shape (``mlp_stack``).  Its parameters are the
rows of one (K, P) buffer and ``layers[i]`` is a (K, in+1, out) view, and
every pass, gradient and Adam step works on all K at once, with inputs,
activations and gradients carrying the same leading axis.  ``matmul``
runs one GEMM per member and every other operation is elementwise or
reduces within a member, so each member's numbers are bit for bit those
of the same network on its own; the stack pays each numpy call's fixed
cost once for all K.

Backward folds a one-wide output (every discriminator, and generators of
continuous and binary columns) into the layer below it: the top hidden
layer's (batch, width) delta, an outer product masked by the ReLU
derivative, is never formed.  That layer's gradient and the gradient it
passes down come from the output delta, the 0/1 mask and the output
weight column directly (see ``_backward_from_cache``); the numbers differ
from forming the delta by float reassociation only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import NumericError, ShapeError
from .seeding import spawn_rng

OUTPUT_ACTIVATIONS = ("identity", "sigmoid", "scaled_sigmoid_0_2")


@cache
def _sigmoid_clip(dtype) -> float:
    """Margin that sigmoid outputs (and the penalty's logarithms) keep from 0
    and 1: 1e-12, or the dtype's machine epsilon where that is larger, so
    that ``1 - clip`` stays below 1 and ``log(1 - x)`` finite at saturation
    (float32 rounds ``1 - 1e-12`` to 1).  Computed once per dtype."""
    return max(1e-12, float(np.finfo(dtype).eps))


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e^min(z, 0) / (1 + e^-|z|): 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z)
    # below, so exp never overflows
    out = np.exp(np.minimum(z, 0.0))
    e = np.exp(-np.abs(z))
    e += 1.0
    out /= e
    clip = _sigmoid_clip(out.dtype)
    np.maximum(out, clip, out=out)
    return np.minimum(out, 1.0 - clip, out=out)


def _views(flat: np.ndarray, shapes: list[tuple[int, int]]):
    """Per-layer views of the flat buffer ``flat``, layer i's (rows, cols)
    matrix ``[W; b]`` of ``shapes[i]`` after the layers before it, with
    the buffer's leading (stack) axes in front; returns the views of
    ``[W; b]``, of ``W`` and of ``b``."""
    layers, start = [], 0
    for rows, cols in shapes:
        layers.append(flat[..., start : start + rows * cols].reshape(*flat.shape[:-1], rows, cols))
        start += rows * cols
    return layers, [layer[..., :-1, :] for layer in layers], [layer[..., -1, :] for layer in layers]


def _pack(weights: list[np.ndarray], biases: list[np.ndarray]):
    """Copy each layer's ``W`` and ``b`` into one flat buffer of their
    common floating dtype (float64 for integer inputs) as the (in+1, out)
    matrix ``[W; b]``; returns the buffer and its ``_views``.  Leading
    (stack) axes of the inputs lead the buffer and every view too."""
    shapes = [(np.shape(w)[-2] + 1, np.shape(w)[-1]) for w in weights]
    dtype = np.result_type(*weights, *biases)
    if not np.issubdtype(dtype, np.floating):
        dtype = np.float64
    lead = np.shape(weights[0])[:-2]
    flat = np.empty((*lead, sum(rows * cols for rows, cols in shapes)), dtype=dtype)
    layers, w_views, b_views = _views(flat, shapes)
    for layer, w, b in zip(layers, weights, biases):
        layer[..., :-1, :] = w
        layer[..., -1, :] = b
    return flat, layers, w_views, b_views


@dataclass
class Mlp:
    """Feed-forward net: ReLU hidden layers, configurable output head.

    ``weights[i]`` has shape (in_i, out_i) and ``biases[i]`` shape (out_i,);
    consecutive layer dimensions chain.  All parameters live in one flat
    buffer, ``params`` (layer by layer, weights then biases); ``layers[i]``
    is layer i's (in_i+1, out_i) slice of it, ``[W; b]``, and ``weights``
    and ``biases`` view its rows, so write them in place.  With a leading
    axis on every weight and bias, (K, in_i, out_i) and (K, out_i), the
    net is a stack of K nets (see the module docstring); ``stack`` is that
    leading shape, () for a single net.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str
    params: np.ndarray = field(init=False, repr=False, compare=False)
    layers: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError("need one bias vector per weight matrix")
        lead = np.shape(self.weights[0])[:-2]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != len(lead) + 2 or w.shape[:-2] != lead or b.shape != (*lead, w.shape[-1]):
                raise ShapeError(f"layer {i}: weights {w.shape} and biases {b.shape} disagree")
            if i > 0 and self.weights[i - 1].shape[-1] != w.shape[-2]:
                raise ShapeError(f"layer {i - 1} output does not chain into layer {i} input")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {i}: non-finite parameters")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output_activation {self.output_activation!r}")
        self.params, self.layers, self.weights, self.biases = _pack(self.weights, self.biases)

    def __reduce__(self):
        # rebuild through __init__ so a copy or unpickled net is packed again
        return (Mlp, (self.weights, self.biases, self.output_activation))

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype

    @property
    def stack(self) -> tuple[int, ...]:
        return self.params.shape[:-1]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[-1]

    @property
    def hidden_dims(self) -> list[int]:
        return [w.shape[-1] for w in self.weights[:-1]]

    def member(self, k: int) -> "Mlp":
        """Net ``k`` of a stack, copied into its own buffer (``train_gcin``
        takes a member's pair so at its stop; the stack trains on)."""
        return self._on(np.array(self.params[operator.index(k)]))

    def _on(self, params: np.ndarray) -> "Mlp":
        # a net of this one's layer shapes on ``params``, already checked
        net = object.__new__(Mlp)
        net.output_activation = self.output_activation
        net.params = params
        shapes = [layer.shape[-2:] for layer in self.layers]
        net.layers, net.weights, net.biases = _views(params, shapes)
        return net


def mlp_stack(nets: list[Mlp]) -> Mlp:
    """The nets, all of one shape, as one stack in a new (K, P) buffer."""
    if len({tuple(layer.shape for layer in net.layers) for net in nets}) != 1:
        raise ShapeError("a stack needs nets of one shape")
    return nets[0]._on(np.stack([net.params for net in nets]))


@dataclass
class ParamGrads:
    """Per-layer gradients, shape-congruent with the owning Mlp and packed
    into one flat buffer, ``flat``, laid out like ``Mlp.params``; ``layers[i]``
    is the (in_i+1, out_i) matrix ``[dW; db]``."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layers: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.layers, self.d_weights, self.d_biases = _pack(
            self.d_weights, self.d_biases
        )

    def __reduce__(self):
        return (ParamGrads, (self.d_weights, self.d_biases))

    @classmethod
    def zeros_like(cls, mlp: Mlp) -> "ParamGrads":
        return cls([np.zeros_like(w) for w in mlp.weights], [np.zeros_like(b) for b in mlp.biases])


@dataclass
class AdamState:
    """Bias-corrected Adam moments, flat and laid out like ``Mlp.params``
    (one row per net of a stack),
    plus the learning rate and L2 coefficient for one Mlp.  ``scratch``
    holds two more such rows that ``adam_step`` works in, so that an
    update allocates nothing of the network's size."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    l2_coeff: float = 0.0
    step_count: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, *self.m.shape), dtype=self.m.dtype)


def mlp_new(
    input_dim: int,
    hidden_dims: list[int],
    output_dim: int,
    output_activation: str = "identity",
    seed: int = 0,
    dtype=np.float64,
) -> Mlp:
    """Build a network with He-initialised weights (variance 2/fan_in).

    The weights are drawn in float64 from ``spawn_rng(seed)``, the one
    stream the network's initialisation takes, and rounded to ``dtype``,
    the dtype the network computes in; biases start at zero.
    """
    dims = [input_dim, *hidden_dims, output_dim]
    if not hidden_dims:
        raise ValueError("hidden_dims must be non-empty")
    for d in dims:
        if not isinstance(d, (int, np.integer)) or d <= 0:
            raise ValueError(f"all layer dimensions must be positive integers, got {d}")
    rng = spawn_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append((rng.standard_normal((fan_in, fan_out)) * scale).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return Mlp(weights, biases, output_activation)


def _check_inputs(mlp: Mlp, inputs: np.ndarray) -> np.ndarray:
    """Validated inputs in the network's dtype with the trailing ones
    column appended."""
    inputs = np.asarray(inputs, dtype=mlp.dtype)
    lead, width = inputs.shape[:-2], inputs.shape[-1:]
    if inputs.ndim != len(mlp.stack) + 2 or lead != mlp.stack or width != (mlp.input_dim,):
        want = ", ".join([*map(str, mlp.stack), "batch", str(mlp.input_dim)])
        raise ShapeError(f"expected inputs of shape ({want}), got {inputs.shape}")
    ones = np.ones((*inputs.shape[:-1], 1), dtype=mlp.dtype)
    return np.concatenate([inputs, ones], axis=-1)


@dataclass
class _Buffers:
    """Arrays the private passes over ``batch`` rows of ``mlp`` work in, so
    that a training loop reuses them instead of allocating arrays of that
    size on every update.  Per hidden layer, with the net's stack axes in
    front and in its dtype:

    - ``hidden``: the (batch, width+1) activation, last column ones, which
      ``_forward_cache`` writes;
    - ``zeros``: zeros of that shape, the ReLU's other operand (numpy's
      loop over two arrays costs half its loop with a scalar zero);
    - ``deltas``: that shape again, the gradient carried down to the
      layer's activation in its first ``width`` columns, so that the ReLU
      mask multiplies the whole contiguous buffer (the last column is
      never read).

    A forward-only set holds just ``hidden``, with scalar ``zeros``.
    """

    hidden: list[np.ndarray]
    zeros: list[np.ndarray]
    deltas: list[np.ndarray]

    @classmethod
    def new(cls, mlp: Mlp, batch: int, forward_only: bool = False) -> "_Buffers":
        shapes = [(*mlp.stack, batch, width + 1) for width in mlp.hidden_dims]
        hidden = [np.empty(shape, dtype=mlp.dtype) for shape in shapes]
        for h in hidden:
            h[..., -1] = 1.0
        if forward_only:
            return cls(hidden, [0.0] * len(shapes), [])
        deltas = [np.empty(shape, dtype=mlp.dtype) for shape in shapes]
        for delta in deltas:
            delta[..., -1] = 0.0  # never read, but kept finite
        return cls(hidden, [np.zeros(shape, dtype=mlp.dtype) for shape in shapes], deltas)

    def rows(self, rows: slice) -> "_Buffers":
        """Views of the rows ``rows`` of every buffer."""
        return _Buffers(*([a[..., rows, :] for a in arrays] for arrays in vars(self).values()))


def _forward_cache(
    mlp: Mlp, inputs: np.ndarray, bufs: _Buffers | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass returning the output and every layer input (post-ReLU).

    ``inputs`` carries a trailing column of ones, and so does every hidden
    activation, written into ``bufs.hidden`` (fresh forward-only buffers
    when ``bufs`` is None).  The output is always a new array.
    """
    if bufs is None:
        bufs = _Buffers.new(mlp, inputs.shape[-2], forward_only=True)
    acts = [inputs]
    for layer, h, zeros in zip(mlp.layers, bufs.hidden, bufs.zeros):
        np.matmul(acts[-1], layer, out=h[..., :-1])
        acts.append(np.maximum(h, zeros, out=h))
    z = np.matmul(acts[-1], mlp.layers[-1])
    return _apply_output_activation(z, mlp.output_activation), acts


def _apply_output_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return z
    if activation == "sigmoid":
        return _sigmoid(z)
    if activation == "scaled_sigmoid_0_2":
        return 2.0 * _sigmoid(z)
    raise ValueError(f"unknown output activation {activation!r}")


def _output_delta(out: np.ndarray, output_grads: np.ndarray, activation: str) -> np.ndarray:
    """Gradient w.r.t. the output layer pre-activation."""
    if activation == "identity":
        return output_grads
    delta = output_grads * out
    if activation == "sigmoid":
        delta *= 1.0 - out
    else:
        # scaled: out = 2*sigma, d out/d z = 2*sigma*(1-sigma) = out*(1 - out/2)
        delta *= 1.0 - 0.5 * out
    return delta


def forward(mlp: Mlp, inputs: np.ndarray) -> np.ndarray:
    """Batched forward pass; returns (batch, output_dim)."""
    out, _ = _forward_cache(mlp, _check_inputs(mlp, inputs))
    return out


def _backward_from_cache(
    mlp: Mlp,
    acts: list[np.ndarray],
    out: np.ndarray,
    output_grads: np.ndarray,
    grads: ParamGrads | None,
    input_rows: slice | None,
    bufs: _Buffers | None = None,
) -> np.ndarray | None:
    """Backpropagate ``output_grads`` through a cached forward pass.

    Writes the parameter gradients into ``grads`` unless it is None, one
    ``[dW; db]`` per layer into ``grads.layers[i]``.  Returns the gradient
    w.r.t. the input columns ``input_rows`` (rows of layer 0's ``W``), or
    None when that is None; work that neither needs is skipped.  The
    gradients w.r.t. the hidden activations go into ``bufs.deltas``; when
    ``bufs`` is None, each goes into a fresh array shaped like that
    layer's activation, the only arrays the pass allocates, each dropped
    once the layer below has its delta.

    It consumes ``acts``: once a hidden activation has no further use, its
    0/1 ReLU mask, compared over the whole contiguous buffer, is written
    over it as floats (its ones column stays 1), so a cached forward pass
    backpropagates once.

    A one-wide output folds the top hidden layer: with ``d`` the (batch, 1)
    output delta, ``w`` the output weight column and ``M`` the 0/1 ReLU
    mask of the top hidden layer as floats, that layer's delta
    ``(d @ w.T) * M`` is never formed.  The layer below it gets
    ``[dW; db] = ((acts * d).T @ M) * w`` and passes down
    ``d * (M @ (W * w).T)``, where ``W`` are its weight rows.
    """
    delta = _output_delta(out, output_grads, mlp.output_activation)
    i = len(mlp.layers) - 1
    if grads is not None:
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=grads.layers[i])
    scale = None
    if mlp.output_dim == 1 and i > 0:
        # the fold: carry the mask down in place of the top hidden delta
        w = mlp.weights[i][..., None, :, 0]
        i -= 1
        mask = np.greater(acts[i + 1], 0.0, out=acts[i + 1])[..., :-1]
        if grads is not None:
            np.matmul((acts[i] * delta).swapaxes(-1, -2), mask, out=grads.layers[i])
            grads.layers[i] *= w
        scale, delta = delta, mask
    while True:
        if i == 0 and input_rows is None:
            return None
        rows = mlp.layers[0][..., input_rows, :] if i == 0 else mlp.weights[i]
        if scale is not None:
            rows = rows * w
        if i == 0:
            delta = np.matmul(delta, rows.swapaxes(-1, -2))
            if scale is not None:
                delta *= scale
            return delta
        buf = np.zeros_like(acts[i]) if bufs is None else bufs.deltas[i - 1]
        np.matmul(delta, rows.swapaxes(-1, -2), out=buf[..., :-1])
        if scale is not None:
            buf *= scale
            scale = None
        buf *= np.greater(acts[i], 0.0, out=acts[i])
        delta = buf[..., :-1]
        i -= 1
        if grads is not None:
            np.matmul(acts[i].swapaxes(-1, -2), delta, out=grads.layers[i])


def backward_with_input_grads(
    mlp: Mlp, inputs: np.ndarray, output_grads: np.ndarray
) -> tuple[ParamGrads, np.ndarray]:
    """Gradients of sum(outputs * output_grads) w.r.t. every parameter and
    w.r.t. the inputs.

    The input gradient is what lets a generator receive feedback through a
    frozen discriminator stacked on top of it.
    """
    inputs = _check_inputs(mlp, inputs)
    output_grads = np.asarray(output_grads, dtype=mlp.dtype)
    want = (*inputs.shape[:-1], mlp.output_dim)
    if output_grads.shape != want:
        raise ShapeError(f"expected output_grads of shape {want}, got {output_grads.shape}")
    out, acts = _forward_cache(mlp, inputs)
    grads = ParamGrads.zeros_like(mlp)
    input_grads = _backward_from_cache(
        mlp, acts, out, output_grads, grads, slice(0, mlp.input_dim)
    )
    return grads, input_grads


def adam_new(mlp: Mlp, learning_rate: float, l2_coeff: float = 0.0) -> AdamState:
    """Zero-initialised Adam state shaped like ``mlp``."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if l2_coeff < 0:
        raise ValueError("l2_coeff must be non-negative")
    return AdamState(
        m=np.zeros_like(mlp.params),
        v=np.zeros_like(mlp.params),
        learning_rate=learning_rate,
        l2_coeff=l2_coeff,
    )


def adam_step(mlp: Mlp, grads: ParamGrads, state: AdamState) -> tuple[Mlp, AdamState]:
    """One bias-corrected Adam update on grad + l2_coeff * param, in place,
    vectorised over the whole network's flat parameter buffer."""
    if len(grads.layers) != len(mlp.layers):
        raise ShapeError("gradient layer count does not match network")
    for i, (grad, param) in enumerate(zip(grads.layers, mlp.layers)):
        if grad.shape != param.shape:
            raise ShapeError(
                f"layer {i}: gradient shape {grad.shape} != parameter shape {param.shape}"
            )
    if not np.isfinite(grads.flat).all():
        for i, grad in enumerate(grads.layers):
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient in layer {i}")
    state.step_count += 1
    t = state.step_count
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    lr, l2 = state.learning_rate, state.l2_coeff
    param, m, v = mlp.params, state.m, state.v
    work, tmp = state.scratch
    g = grads.flat
    if l2:
        # grad + l2 * param
        g = np.multiply(param, l2, out=work)
        g += grads.flat
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=tmp)
    v *= b2
    np.square(g, out=tmp)
    v += np.multiply(tmp, 1.0 - b2, out=tmp)
    # lr * (m / bc1) / (sqrt(v / bc2) + eps), in place and in that order
    step = np.divide(m, 1.0 - b1**t, out=work)  # g is spent
    step *= lr
    denom = np.divide(v, 1.0 - b2**t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    param -= step
    return mlp, state

