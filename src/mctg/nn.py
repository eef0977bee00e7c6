"""Minimal dense-network core in 64-bit numpy.

Forward/backward passes over stacks of dense layers with optional inverted
dropout, Adam updates, and a finite-difference gradient checker. Inputs are
(rows, features) matrices; one observation is one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NetworkError(Exception):
    """Shape mismatches and invalid network configuration."""


class Network:
    """A dense stack: ``weights[i]`` is (out, in) and ``biases[i]`` is (out,).

    Hidden layers are tanh, and so is the output layer when ``tanh_out`` is
    set; otherwise it is linear. When the stack has more than one layer,
    inverted dropout at ``dropout`` follows the first hidden layer.
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

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def mlp(sizes, rng: np.random.Generator, tanh_out: bool = False,
        dropout: float = 0.0) -> Network:
    """Build a ``Network`` with layer sizes ``sizes``; weights are
    scaled-normal initialized from ``rng``, biases are zero."""
    weights = [rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
               for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    return Network(weights, [np.zeros(n) for n in sizes[1:]], tanh_out, dropout)


@dataclass
class ForwardCache:
    inputs: list        # per-layer input, the dropout mask already applied
    acts: list          # per-layer output
    mask: np.ndarray | None   # the dropout keep-mask (already scaled), if drawn


def forward(net: Network, x, rng: np.random.Generator | None = None
            ) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on ``x`` of shape (rows, in_dim); returns the
    (rows, out_dim) output and a cache for backward.

    Dropout runs if and only if ``rng`` is given. It is inverted: the mask
    divides by the keep probability, so without an rng nothing is rescaled.

    A dense layer is ``np.dot(h, W.T)``, then the bias and the activation in
    place on that fresh array; ``x`` is never written. ``np.dot`` gives the bits
    of ``h @ W.T`` at less per-call cost, while a contiguous copy of ``W.T``
    would change the last bits. The bias is added as a (1, out) row: on one
    row that skips numpy's broadcast set-up, and the sums are the same.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise NetworkError(f"input shape {x.shape} does not match (rows, {net.in_dim})")

    inputs, acts = [], []
    mask = None
    last = len(net.weights) - 1
    h = x
    for i, w in enumerate(net.weights):
        if i == 1 and rng is not None and net.dropout > 0.0:
            keep = 1.0 - net.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        inputs.append(h)
        h = np.dot(h, w.T)
        h += net.biases[i][None]
        if i < last or net.tanh_out:
            np.tanh(h, out=h)
        acts.append(h)
    return h, ForwardCache(inputs, acts, mask)


def backward(net: Network, cache: ForwardCache,
             grad_output) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients of the forward map recorded in ``cache``.

    ``grad_output`` has the (rows, out_dim) shape of the output. Returns
    gradients aligned with ``net.parameters()`` plus the (rows, in_dim) gradient
    with respect to the input. The dropout mask is replayed, never re-sampled.
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
        g = dz @ net.weights[i]
        if i == 1 and cache.mask is not None:
            g = g * cache.mask
    grads.reverse()
    return grads, g


class AdamState:
    """Per-parameter Adam moment accumulators with bias correction."""

    def __init__(self, params: list, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate, "beta1": self.beta1,
            "beta2": self.beta2, "eps": self.eps, "step_count": self.step_count,
            "m": [a.tolist() for a in self.m], "v": [a.tolist() for a in self.v],
        }


def adam_step(params: list, grads: list, state: AdamState) -> None:
    """Standard Adam update, applied in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise NetworkError("params/grads/state length mismatch")
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise NetworkError(f"gradient shape {g.shape} does not match {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def grad_check(net: Network, x, rng: np.random.Generator | None = None,
               step: float = 1e-5) -> float:
    """Max relative error between backward and central finite differences at
    the (rows, in_dim) input ``x``.

    Uses a random linear functional of the output as the scalar loss and a
    forward without an rng, so dropout cannot perturb the comparison.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    c = rng.normal(size=net.out_dim)

    def loss() -> float:
        y, _ = forward(net, x)
        return float(np.sum(y * c))

    y, cache = forward(net, x)
    grads, _ = backward(net, cache, np.broadcast_to(c, y.shape))

    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat = p.ravel()
        gflat = np.asarray(g).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, relative_error(float(gflat[i]), numeric))
    return worst
