"""Minimal dense-network core in 64-bit numpy.

Forward/backward passes over stacks of dense layers with optional inverted
dropout, Adam updates, and a finite-difference gradient checker. Inputs are
(rows, features) matrices; one observation is one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "identity")


class NetworkError(Exception):
    """Shape mismatches and invalid layer configuration."""


def _activate_grad(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation, written in terms of its output ``a``."""
    if name == "tanh":
        return 1.0 - a * a
    if name == "identity":
        return np.ones_like(a)
    raise NetworkError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    weights: np.ndarray   # (out, in)
    bias: np.ndarray      # (out,)
    activation: str = "tanh"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise NetworkError(
                f"inconsistent layer shapes {self.weights.shape} / {self.bias.shape}")
        if self.activation not in ACTIVATIONS:
            raise NetworkError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise NetworkError("non-finite layer parameters")


@dataclass
class DropoutLayer:
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise NetworkError(f"dropout rate must be in [0, 1), got {self.rate}")


class Network:
    """An ordered stack of dense layers and dropout markers."""

    def __init__(self, layers: list):
        dim = None
        for layer in layers:
            if isinstance(layer, DropoutLayer):
                continue
            if not isinstance(layer, DenseLayer):
                raise NetworkError(f"unsupported layer {type(layer).__name__}")
            if dim is not None and layer.weights.shape[1] != dim:
                raise NetworkError(
                    f"layer expects {layer.weights.shape[1]} inputs, previous emits {dim}")
            dim = layer.weights.shape[0]
        dense = [l for l in layers if isinstance(l, DenseLayer)]
        if not dense:
            raise NetworkError("network needs at least one dense layer")
        self.layers = list(layers)
        self.in_dim = dense[0].weights.shape[1]
        self.out_dim = dense[-1].weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                out.append(layer.weights)
                out.append(layer.bias)
        return out


def mlp(sizes, rng: np.random.Generator, out_activation: str = "identity",
        dropout: float = 0.0) -> Network:
    """Build a dense stack of tanh hidden layers; a dropout layer (if any) sits
    after the first hidden layer. Weights are scaled-normal initialized from
    ``rng``."""
    if len(sizes) < 2:
        raise NetworkError("mlp needs at least input and output sizes")
    layers: list = []
    for i in range(len(sizes) - 1):
        act = out_activation if i == len(sizes) - 2 else "tanh"
        w = rng.normal(0.0, 1.0 / np.sqrt(sizes[i]), size=(sizes[i + 1], sizes[i]))
        layers.append(DenseLayer(w, np.zeros(sizes[i + 1]), act))
        if i == 0 and dropout > 0.0 and len(sizes) > 2:
            layers.append(DropoutLayer(dropout))
    return Network(layers)


@dataclass
class ForwardCache:
    inputs: list        # per-layer input (dense) or pre-dropout activation
    acts: list          # per-layer output
    masks: list         # dropout keep-masks (already scaled) or None


def forward(net: Network, x, mode: str = "eval",
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on ``x`` of shape (rows, in_dim); returns the
    (rows, out_dim) output and a cache for backward.

    Dropout is inverted: train mode masks and divides by the keep probability,
    eval mode is the identity, so no rescaling is ever needed at eval.

    A dense layer is ``np.dot(h, W.T)``, then the bias and the activation in
    place on that fresh array; ``x`` is never written. ``np.dot`` gives the bits
    of ``h @ W.T`` at less per-call cost, while a contiguous copy of ``W.T``
    would change the last bits. The bias is added as a (1, out) row: on one
    row that skips numpy's broadcast set-up, and the sums are the same.
    """
    if mode not in ("train", "eval"):
        raise NetworkError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise NetworkError(f"input shape {x.shape} does not match (rows, {net.in_dim})")

    inputs, acts, masks = [], [], []
    h = x
    for layer in net.layers:
        inputs.append(h)
        mask = None
        if isinstance(layer, DropoutLayer):
            if mode == "train":
                if rng is None:
                    raise NetworkError("train-mode dropout requires an rng")
                keep = 1.0 - layer.rate
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
        else:
            h = np.dot(h, layer.weights.T)
            h += layer.bias[None]
            if layer.activation == "tanh":
                np.tanh(h, out=h)
        masks.append(mask)
        acts.append(h)
    return h, ForwardCache(inputs, acts, masks)


def backward(net: Network, cache: ForwardCache,
             grad_output) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients of the forward map recorded in ``cache``.

    ``grad_output`` has the (rows, out_dim) shape of the output. Returns
    gradients aligned with ``net.parameters()`` plus the (rows, in_dim) gradient
    with respect to the input. Dropout masks are replayed, never re-sampled.
    """
    if len(cache.acts) != len(net.layers):
        raise NetworkError("cache does not match network")
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != cache.acts[-1].shape:
        raise NetworkError(
            f"gradient shape {g.shape} does not match output {cache.acts[-1].shape}")

    grads: list[np.ndarray] = []
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        if isinstance(layer, DropoutLayer):
            if cache.masks[idx] is not None:
                g = g * cache.masks[idx]
        else:
            dz = g * _activate_grad(layer.activation, cache.acts[idx])
            grads.append(dz.sum(axis=0))                 # bias
            grads.append(dz.T @ cache.inputs[idx])       # weights
            g = dz @ layer.weights
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

    Uses a random linear functional of the output as the scalar loss and an
    eval-mode forward, so dropout cannot perturb the comparison.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    c = rng.normal(size=net.out_dim)

    def loss() -> float:
        y, _ = forward(net, x, mode="eval")
        return float(np.sum(y * c))

    y, cache = forward(net, x, mode="eval")
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
