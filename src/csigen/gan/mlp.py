"""Dense multilayer perceptrons: parameter containers, the forward pass with
the cache its backward needs, the hand-written backward pass that training
uses, and a graph-building variant for the differentiation kernel.

The graph variant (:func:`mlp_vars` / :func:`mlp_apply` over
:mod:`csigen.gan.autodiff`) is an independent second implementation; the
test suite uses it, and central finite differences, as the reference for
:func:`mlp_backward`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csigen.gan import autodiff as ad

ACTIVATIONS = ("relu", "linear")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias width must match the weight matrix output width")


@dataclass
class MlpParams:
    layers: list[DenseLayer]

    def __post_init__(self) -> None:
        for first, second in zip(self.layers, self.layers[1:]):
            if second.weights.shape[1] != first.weights.shape[0]:
                raise ValueError(
                    f"layer widths do not chain: {first.weights.shape} -> {second.weights.shape}"
                )

    @property
    def input_width(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_width(self) -> int:
        return self.layers[-1].weights.shape[0]

    def num_parameters(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)

    def copy(self) -> "MlpParams":
        return MlpParams(
            [DenseLayer(l.weights.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )

    def arrays(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...]; the canonical parameter order."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out


def init_mlp(widths: list[int], activations: list[str], rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    if len(widths) != len(activations) + 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, activation in zip(widths[:-1], widths[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out), activation))
    return MlpParams(layers)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, tuple[list, list]]:
    """Affine + activation chain over a batch x of shape (N, input_width).

    Returns (output, cache); the cache holds each layer's input and its ReLU
    mask (None for a linear layer) for :func:`mlp_backward`.  A NaN
    pre-activation propagates through the ReLU, so a NaN weight shows up in
    the output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_width:
        raise ValueError(f"input shape {x.shape} != expected (N, {params.input_width})")
    inputs: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    activation = x
    for layer in params.layers:
        inputs.append(activation)
        pre = activation @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            masks.append(pre > 0.0)
            activation = np.maximum(pre, 0.0)
        else:
            masks.append(None)
            activation = pre
    return activation, (inputs, masks)


def mlp_backward(
    params: MlpParams,
    cache: tuple[list, list],
    adjoint: np.ndarray,
    grads: list[np.ndarray] | None = None,
    offset: int = 0,
) -> np.ndarray:
    """Exact reverse-mode pass from the cache of :func:`mlp_forward`.

    Adds the parameter gradients to ``grads[offset:]`` (canonical order
    W0, b0, W1, b1, ...) when a list is given, and skips their GEMMs when
    ``grads`` is None.  Returns the input adjoint.  The ReLU subgradient at
    exactly 0 is 0.
    """
    inputs, masks = cache
    for index in range(len(params.layers) - 1, -1, -1):
        if masks[index] is not None:
            adjoint = adjoint * masks[index]
        if grads is not None:
            grads[offset + 2 * index] += adjoint.T @ inputs[index]
            grads[offset + 2 * index + 1] += adjoint.sum(axis=0)
        adjoint = adjoint @ params.layers[index].weights
    return adjoint


def mlp_vars(params: MlpParams) -> list[tuple[ad.Var, ad.Var]]:
    """Wrap parameters as graph leaves, one (weights, bias) pair per layer."""
    return [(ad.Var(layer.weights), ad.Var(layer.bias)) for layer in params.layers]


def mlp_apply(
    param_vars: list[tuple[ad.Var, ad.Var]], activations: list[str], x: ad.Var
) -> ad.Var:
    """Graph-building forward pass over wrapped parameters."""
    out = x
    for (weights, bias), activation in zip(param_vars, activations):
        out = ad.add(ad.matmul(out, ad.transpose(weights)), bias)
        if activation == "relu":
            out = ad.relu(out)
    return out

