"""Dense multilayer perceptrons: parameter containers, the forward pass with
the cache its backward needs, and the hand-written backward pass.

Parameters built here (:func:`init_mlp`, :meth:`MlpParams.copy`) live in one
contiguous float64 buffer in canonical order W0, b0, W1, b1, ...; each
layer's weights and bias are views into it.  :func:`flat_span` recovers that
buffer from the canonical list, so whole-network updates run as a few
vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    @property
    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]

    @classmethod
    def on_arrays(cls, arrays: list[np.ndarray], activations: list[str]) -> "MlpParams":
        """Layers over the canonical list ``arrays`` [W0, b0, W1, b1, ...],
        without copying them."""
        pairs = zip(arrays[::2], arrays[1::2], activations)
        return cls([DenseLayer(weights, bias, activation) for weights, bias, activation in pairs])

    def copy(self) -> "MlpParams":
        """A copy whose arrays view one new flat buffer."""
        return MlpParams.on_arrays(packed_copy(self.arrays()), self.activations)

    def arrays(self) -> list[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...]; the canonical parameter order."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out


def flat_views(buffer: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Views of consecutive segments of the 1-D ``buffer``, one per shape."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[offset : offset + size].reshape(shape))
        offset += size
    return views


def flat_zeros(shapes: list[tuple]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A zeroed float64 buffer and its views with the given shapes."""
    buffer = np.zeros(sum(math.prod(shape) for shape in shapes))
    return buffer, flat_views(buffer, shapes)


def packed_copy(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Copies of ``arrays`` as views into one new float64 buffer."""
    buffer = np.concatenate([np.ravel(array) for array in arrays]).astype(np.float64, copy=False)
    return flat_views(buffer, [array.shape for array in arrays])


def flat_span(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The 1-D view covering ``arrays`` when they lie back to back, in order,
    inside one contiguous float64 buffer; None when they do not."""
    owner = arrays[0].base if arrays else None
    if not (
        isinstance(owner, np.ndarray)
        and owner.ndim == 1
        and owner.dtype == np.float64
        and owner.flags.c_contiguous
    ):
        return None
    origin = owner.__array_interface__["data"][0]
    start = end = (arrays[0].__array_interface__["data"][0] - origin) // owner.itemsize
    for array in arrays:
        if (
            array.base is not owner
            or not array.flags.c_contiguous
            or array.__array_interface__["data"][0] != origin + end * owner.itemsize
        ):
            return None
        end += array.size
    return owner[start:end]


def init_mlp(widths: list[int], activations: list[str], rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases,
    in one flat buffer."""
    if len(widths) != len(activations) + 1:
        raise ValueError("need one activation per layer")
    shapes = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        shapes += [(fan_out, fan_in), (fan_out,)]
    _, arrays = flat_zeros(shapes)
    for weights in arrays[::2]:
        fan_out, fan_in = weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights[...] = rng.uniform(-limit, limit, size=weights.shape)
    return MlpParams.on_arrays(arrays, activations)


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


def mlp_forward_columns(params: MlpParams, columns: np.ndarray) -> np.ndarray:
    """The output of :func:`mlp_forward`, without its cache, for a batch
    held one column per item: ``columns`` is (input_width, N) and the result
    (output_width, N).

    Each layer runs as ``weights @ columns``, which makes the batch the M
    dimension of the column-major BLAS GEMM.  With OpenBLAS 0.3.31 and a
    batch of 256, no item's bits there depended on its place in the batch
    (1,080 items over 18 generator shapes, at one and two threads).  In the
    layout of :func:`mlp_forward` the batch is the GEMM's N dimension, and
    10 of the same 1,080 items changed bits with their place, all in
    generators with layers that are not multiples of 16 wide.  The two
    layouts round differently.
    """
    hidden = np.asarray(columns, dtype=np.float64)
    if hidden.ndim != 2 or hidden.shape[0] != params.input_width:
        raise ValueError(f"input shape {hidden.shape} != expected ({params.input_width}, N)")
    for layer in params.layers:
        hidden = layer.weights @ hidden
        hidden += layer.bias[:, None]
        if layer.activation == "relu":
            np.maximum(hidden, 0.0, out=hidden)
    return hidden


def mlp_backward(
    params: MlpParams,
    cache: tuple[list, list],
    adjoint: np.ndarray,
    grads: list[np.ndarray] | None = None,
    offset: int = 0,
) -> np.ndarray:
    """Exact reverse-mode pass from the cache of :func:`mlp_forward` (or
    from a forward-mode pass's cache of the same form, whose tangents stand
    in for the layer inputs).

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

