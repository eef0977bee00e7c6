"""Minimal dense-network core in 64-bit numpy.

Forward/backward passes over stacks of dense layers with optional inverted
dropout, and Adam updates. Inputs are (rows, features) matrices; one
observation is one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NetworkError(Exception):
    """Shape mismatches and invalid network configuration."""


class Network:
    """A dense stack: ``weights[i]`` is (out, in) and ``biases[i]`` is (out,).

    Hidden layers are tanh, and so is the output layer when ``tanh_out`` is
    set; otherwise it is linear. When the stack has more than one layer,
    inverted dropout at ``dropout`` follows the first hidden layer.

    ``layers`` holds, per layer, the views ``forward`` reads: ``W.T``, the bias
    as a (1, out) row and whether a tanh follows. They are built once over the
    arrays given, so a write into a weight or bias shows in the next forward;
    an array that replaces a ``weights`` or ``biases`` entry does not.
    """

    def __init__(self, weights: list, biases: list, tanh_out: bool = False,
                 dropout: float = 0.0):
        if not 0.0 <= dropout < 1.0:
            raise NetworkError(f"dropout rate must be in [0, 1), got {dropout}")
        self.weights = list(weights)
        self.biases = list(biases)
        self.tanh_out = tanh_out
        self.dropout = dropout
        self.in_dim = self.weights[0].shape[1]
        self.out_dim = self.weights[-1].shape[0]
        last = len(self.weights) - 1
        self.layers = [(w.T, b[None], i < last or tanh_out)
                       for i, (w, b) in enumerate(zip(self.weights, self.biases))]


def layer_shapes(sizes) -> list[tuple]:
    """The (out, in) weight and (out,) bias shape of each layer of a stack with
    layer sizes ``sizes``, in the order ``backward`` returns their gradients."""
    return [shape for n_in, n_out in zip(sizes[:-1], sizes[1:])
            for shape in ((n_out, n_in), (n_out,))]


def mlp(sizes, rng: np.random.Generator, tanh_out: bool = False,
        dropout: float = 0.0, params: list | None = None) -> Network:
    """Build a ``Network`` with layer sizes ``sizes``; weights are
    scaled-normal initialized from ``rng``, biases are zero. ``params``, arrays
    shaped like ``layer_shapes(sizes)``, are filled and used in place of new
    arrays."""
    if params is None:
        params = [np.empty(shape) for shape in layer_shapes(sizes)]
    weights, biases = params[0::2], params[1::2]
    for w, b in zip(weights, biases):
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[1]), size=w.shape)
        b[...] = 0.0
    return Network(weights, biases, tanh_out, dropout)


@dataclass
class ForwardCache:
    inputs: list        # per-layer input, the dropout mask already applied
    acts: list          # per-layer output
    mask: np.ndarray | None   # the dropout keep-mask (already scaled), if drawn


def forward(net: Network, x: np.ndarray, rng: np.random.Generator | None = None,
            tape: bool = True) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network on the float64 array ``x`` of shape (rows, in_dim);
    returns the (rows, out_dim) output and, when ``tape`` is set, the cache
    ``backward`` reads, else None.

    Dropout runs if and only if ``rng`` is given. It is inverted: the mask
    divides by the keep probability, so without an rng nothing is rescaled.

    A dense layer is ``np.dot(h, W.T)``, then the bias and the activation in
    place on that fresh array; ``x`` is never written. ``np.dot`` gives the bits
    of ``h @ W.T`` at less per-call cost, while a contiguous copy of ``W.T``
    would change the last bits. The bias is added as a (1, out) row: on one
    row that skips numpy's broadcast set-up, and the sums are the same.
    """
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise NetworkError(f"input shape {x.shape} does not match (rows, {net.in_dim})")

    inputs, acts = [], []
    mask = None
    h = x
    for i, (w_t, b_row, tanh) in enumerate(net.layers):
        if i == 1 and rng is not None and net.dropout > 0.0:
            keep = 1.0 - net.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        if tape:
            inputs.append(h)
        h = np.dot(h, w_t)
        h += b_row
        if tanh:
            np.tanh(h, out=h)
        if tape:
            acts.append(h)
    return h, ForwardCache(inputs, acts, mask) if tape else None


def backward(net: Network, cache: ForwardCache, grad_output,
             input_grad: bool = True) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact reverse-mode gradients of the forward map recorded in ``cache``.

    ``grad_output`` has the (rows, out_dim) shape of the output. Returns the
    gradients of ``weights[0], biases[0], weights[1], ...`` plus the (rows,
    in_dim) gradient with respect to the input, or None when ``input_grad`` is
    false, which skips its product. The dropout mask is replayed, never
    re-sampled.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.acts[-1].shape:
        raise NetworkError(
            f"gradient shape {g.shape} does not match output {cache.acts[-1].shape}")

    grads: list[np.ndarray] = []
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        a = cache.acts[i]
        dz = g * (1.0 - a * a) if i < last or net.tanh_out else g
        grads.append(dz.sum(axis=0))                 # bias
        grads.append(dz.T @ cache.inputs[i])         # weights
        if i == 0 and not input_grad:
            g = None
            break
        g = dz @ net.weights[i]
        if i == 1 and cache.mask is not None:
            g = g * cache.mask
    grads.reverse()
    return grads, g


def unflatten(vector: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Views of consecutive runs of the 1-d ``vector``, one per shape, in order."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[offset:offset + size].reshape(shape))
        offset += size
    if offset != vector.size:
        raise NetworkError(f"shapes hold {offset} values, the vector {vector.size}")
    return views


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam moment accumulators with bias correction for the parameters
    ``params``, kept as one flat vector each in the order of ``params``;
    ``m`` and ``v`` are their per-parameter views."""

    def __init__(self, params: list, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        shapes = [np.shape(p) for p in params]
        size = sum(math.prod(shape) for shape in shapes)
        self.m_vector, self.v_vector = np.zeros(size), np.zeros(size)
        self.m = unflatten(self.m_vector, shapes)
        self.v = unflatten(self.v_vector, shapes)
        # adam_step's two work vectors, so a step allocates nothing.
        self._scratch = (np.empty(size), np.empty(size))

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate, "beta1": ADAM_BETA1,
            "beta2": ADAM_BETA2, "eps": ADAM_EPS, "step_count": self.step_count,
            "m": [a.tolist() for a in self.m], "v": [a.tolist() for a in self.v],
        }


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Standard Adam update of the flat parameter vector ``params`` by the
    flat gradient ``grads``, applied in place.

    Every operation writes into ``state``'s vectors, in the order and with the
    operands of the textbook per-array step
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so the bits are the same.
    """
    if params.shape != grads.shape or params.shape != state.m_vector.shape:
        raise NetworkError(f"params {params.shape}, gradient {grads.shape} and Adam state "
                           f"{state.m_vector.shape} differ in shape")
    state.step_count += 1
    t = state.step_count
    m, v = state.m_vector, state.v_vector
    a, b = state._scratch
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
    a *= grads
    v += a
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=a)         # m_hat
    a *= state.learning_rate
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=b)         # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params -= a
