"""Code only the tests run: a finite-difference gradient checker for
``mctg.nn`` networks and a GARCH(1,1) return simulator."""

from __future__ import annotations

import math

import numpy as np

from mctg.garch import GarchError, GarchParams
from mctg.nn import Network, backward, forward


def network_parameters(net: Network) -> list[np.ndarray]:
    """The network's arrays in the order ``nn.backward`` returns their
    gradients: ``weights[0], biases[0], weights[1], ...``."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.append(w)
        out.append(b)
    return out


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
    for p, g in zip(network_parameters(net), grads):
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


def simulate_returns(params: GarchParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a return series from the model with Gaussian innovations.

    The variance starts at its unconditional level, mirroring the filter.
    """
    if n < 1:
        raise GarchError("n must be >= 1")
    out = np.empty(n)
    var = params.unconditional_variance
    for t in range(n):
        a = rng.standard_normal() * math.sqrt(var)
        out[t] = params.mu + a
        var = params.alpha0 + params.alpha1 * a * a + params.beta1 * var
    return out
