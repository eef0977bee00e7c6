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

    A network may also be a stack of ``members`` networks of one shape, run
    side by side: then ``weights[i]`` is (members, out, in) and ``biases[i]``
    (members, out), and every array ``forward`` makes has a leading member
    axis. The members read one shared (rows, in) input, unless the first
    layer's weights are a list of per-member (out, in_m) arrays: then member
    m reads its own (rows, in_m) input, and ``forward`` takes a list of them.

    Hidden layers are tanh, and so is the output layer when ``tanh_out`` is
    set; otherwise it is linear. When the stack has more than one layer,
    inverted dropout at ``dropout`` follows the first hidden layer.

    ``layers`` holds, per layer, what ``forward`` reads: the product
    (``np.matmul``, or one ``np.dot`` per member for per-member inputs), the
    view ``W.T`` (per member), the bias as a (1, out) row (per member), whether
    a tanh follows and whether dropout precedes. The views are built once over
    the arrays given, so a write into a weight or bias shows in the next
    forward; an array that replaces a ``weights`` or ``biases`` entry does not.
    """

    def __init__(self, weights: list, biases: list, tanh_out: bool = False,
                 dropout: float = 0.0):
        if not 0.0 <= dropout < 1.0:
            raise NetworkError(f"dropout rate must be in [0, 1), got {dropout}")
        self.weights = list(weights)
        self.biases = list(biases)
        self.tanh_out = tanh_out
        self.dropout = dropout
        first = self.weights[0]
        self.per_member_inputs = isinstance(first, list)
        self.in_dim = [w.shape[1] for w in first] if self.per_member_inputs else first.shape[-1]
        last = len(self.weights) - 1
        self.layers = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if isinstance(w, list):
                product, w_t = _member_products, [w_m.T for w_m in w]
            else:
                product, w_t = np.matmul, w.swapaxes(-1, -2)
            self.layers.append((product, w_t, b[..., None, :], i < last or tanh_out,
                                i == 1 and dropout > 0.0))


def layer_shapes(sizes) -> list[tuple]:
    """The (out, in) weight and (out,) bias shape of each layer of a stack with
    layer sizes ``sizes``, in the order ``backward`` returns their gradients."""
    return [shape for n_in, n_out in zip(sizes[:-1], sizes[1:])
            for shape in ((n_out, n_in), (n_out,))]


@dataclass
class ForwardCache:
    inputs: list        # per-layer input, the dropout mask already applied
    acts: list          # per-layer output
    mask: np.ndarray | None   # the dropout keep-mask (already scaled), if drawn


def member_shape_error(xs: list, w_ts: list) -> NetworkError:
    """The error for member inputs ``xs`` that do not fit the per-member
    first-layer weight views ``w_ts``."""
    return NetworkError(f"member inputs of shapes {[np.shape(x) for x in xs]} do not "
                        f"match (rows, in) for in = {[w.shape[0] for w in w_ts]}")


def _member_products(xs: list, w_ts: list) -> np.ndarray:
    """The (members, rows, out) first-layer products of members that read
    inputs of their own widths: member m's ``np.dot`` writes slice m."""
    h = np.empty((len(w_ts), len(xs[0]), w_ts[0].shape[1]))
    try:
        if len(xs) == len(w_ts):
            for x_m, w_t, h_m in zip(xs, w_ts, h):
                np.dot(x_m, w_t, out=h_m)
            return h
    except ValueError:   # np.dot rejects an input whose shape does not fit its slice
        pass
    raise member_shape_error(xs, w_ts)


def forward(net: Network, x, rng: np.random.Generator | None = None
            ) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on the float64 array ``x`` of shape (rows, in_dim), or
    on the list of per-member inputs of a stack whose first layer is per
    member; returns the (rows, out) output, with a leading member axis
    for a stack, and the cache ``backward`` reads.

    Dropout runs if and only if ``rng`` is given. It is inverted: the mask
    divides by the keep probability, so without an rng nothing is rescaled.
    A stack draws one mask over all its members, the stream of one draw per
    member in member order.

    A dense layer is one ``np.matmul`` of ``h`` by the transposed view of
    the weights over all members, then the bias and the activation in place
    on that fresh array; ``x`` is never written. Per member the product has
    the bits of ``h @ W.T``, while a contiguous copy of ``W.T`` would change
    the last bits. The bias is added as a (1, out) row per member.
    """
    if not net.per_member_inputs and (x.ndim != 2 or x.shape[1] != net.in_dim):
        raise NetworkError(f"input shape {x.shape} does not match (rows, {net.in_dim})")

    inputs, acts = [], []
    mask = None
    h = x
    for product, w_t, b_row, tanh, drop in net.layers:
        if drop and rng is not None:
            keep = 1.0 - net.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        inputs.append(h)
        h = product(h, w_t)
        h += b_row
        if tanh:
            np.tanh(h, out=h)
        acts.append(h)
    return h, ForwardCache(inputs, acts, mask)


def backward(net: Network, cache: ForwardCache, grad_output) -> tuple[list, np.ndarray | None]:
    """Exact reverse-mode gradients of the forward map recorded in ``cache``.

    ``grad_output`` has the shape of the output. Returns the gradients of
    ``weights[0], biases[0], weights[1], ...``, shaped like them, plus the
    gradient with respect to the input. A stack's members that share one
    input add their gradients of it; members that read inputs of their own
    read data, so their input gradient is never formed and None is returned
    in its place. The dropout mask is replayed, never re-sampled.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.acts[-1].shape:
        raise NetworkError(
            f"gradient shape {g.shape} does not match output {cache.acts[-1].shape}")

    grads: list = []
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        a = cache.acts[i]
        h = cache.inputs[i]
        dz = g * (1.0 - a * a) if i < last or net.tanh_out else g
        grads.append(dz.sum(axis=-2))                # bias
        if i == 0 and net.per_member_inputs:
            grads.append([dz_m.T @ h_m for dz_m, h_m in zip(dz, h)])   # weights
            g = None
            break
        grads.append(np.matmul(dz.swapaxes(-1, -2), h))    # weights
        g = dz @ net.weights[i]
        if i == 1 and cache.mask is not None:
            g = g * cache.mask
    grads.reverse()
    if g is not None and g.ndim > cache.inputs[0].ndim:
        g = g.sum(axis=0)
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
    ``params``: two flat vectors, ``m_vector`` and ``v_vector``, of their
    total size. A value's moments sit at the value's place in the flat
    parameter vector that ``adam_step`` moves."""

    def __init__(self, params: list, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        size = sum(np.size(p) for p in params)
        self.m_vector, self.v_vector = np.zeros(size), np.zeros(size)
        # adam_step's two work vectors, so a step allocates nothing.
        self._scratch = (np.empty(size), np.empty(size))


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
