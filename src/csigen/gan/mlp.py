"""Dense multilayer perceptrons: parameter containers, the forward pass with
the cache its backward needs, and the hand-written backward pass.
:func:`mlp_forward` is the only MLP forward; training and sampling both
run it.

A network's parameters live in one contiguous buffer in canonical order
W0, b0, W1, b1, ...; each layer's weights and bias are views into it.
:class:`FlatArrays` is that canonical list of views together with the
buffer, ``.flat``, so whole-network updates run as a few vector operations
without recovering the buffer from the views.  The buffer's dtype is the
network's dtype: the forward casts its input to it, and the training
kernels allocate their gradients, moments and work arrays in it.
:func:`init_mlp` makes float64 networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from csigen.core import as_floating

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


class FlatArrays(list):
    """Arrays [W0, b0, W1, b1, ...] viewing consecutive parts of the 1-D
    buffer ``flat``, which they tile exactly.  List slicing, ``+`` and
    ``list.copy()`` return plain lists without the buffer."""

    def __init__(self, flat: np.ndarray, shapes: list[tuple]) -> None:
        sizes = [math.prod(shape) for shape in shapes]
        if flat.ndim != 1 or flat.size != sum(sizes):
            raise ValueError(f"a buffer of shape {flat.shape} does not tile shapes {shapes}")
        super().__init__()
        offset = 0
        for shape, size in zip(shapes, sizes):
            self.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.flat = flat

    @classmethod
    def zeros_like(cls, arrays: list[np.ndarray]) -> "FlatArrays":
        """Zeroed arrays with the shapes and dtype of ``arrays``, in one new buffer."""
        size = sum(array.size for array in arrays)
        return cls(np.zeros(size, np.result_type(*arrays)), [array.shape for array in arrays])

    @classmethod
    def packed(cls, arrays: list[np.ndarray]) -> "FlatArrays":
        """Copies of ``arrays`` in one new buffer of their floating dtype;
        integer arrays become float64."""
        return cls(as_floating(np.concatenate([np.ravel(array) for array in arrays])),
                   [array.shape for array in arrays])

    def split(self, index: int) -> tuple["FlatArrays", "FlatArrays"]:
        """The arrays before and from ``index``, each over its part of ``flat``."""
        cut = sum(array.size for array in self[:index])
        shapes = [array.shape for array in self]
        head = FlatArrays(self.flat[:cut], shapes[:index])
        return head, FlatArrays(self.flat[cut:], shapes[index:])


@dataclass
class MlpParams:
    """Layers whose arrays view ``buffer``; built without one, a packed copy."""

    layers: list[DenseLayer]
    buffer: FlatArrays | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for first, second in zip(self.layers, self.layers[1:]):
            if second.weights.shape[1] != first.weights.shape[0]:
                raise ValueError(
                    f"layer widths do not chain: {first.weights.shape} -> {second.weights.shape}"
                )
        if self.buffer is None:
            arrays = [array for layer in self.layers for array in (layer.weights, layer.bias)]
            packed = MlpParams.on_arrays(FlatArrays.packed(arrays), self.activations)
            self.layers, self.buffer = packed.layers, packed.buffer

    @property
    def input_width(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_width(self) -> int:
        return self.layers[-1].weights.shape[0]

    @property
    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.flat.dtype

    @classmethod
    def on_arrays(cls, arrays: FlatArrays, activations: list[str]) -> "MlpParams":
        """Layers over the canonical list ``arrays`` [W0, b0, W1, b1, ...],
        without copying them."""
        pairs = zip(arrays[::2], arrays[1::2], activations)
        return cls([DenseLayer(weights, bias, act) for weights, bias, act in pairs], arrays)

    def copy(self) -> "MlpParams":
        """A copy in a new buffer."""
        return MlpParams(self.layers)

    def arrays(self) -> FlatArrays:
        """[W0, b0, W1, b1, ...], the canonical parameter order, over the buffer."""
        return self.buffer


def init_mlp(widths: list[int], activations: list[str], rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases,
    in one flat buffer."""
    if len(widths) != len(activations) + 1:
        raise ValueError("need one activation per layer")
    shapes = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        shapes += [(fan_out, fan_in), (fan_out,)]
    arrays = FlatArrays(np.zeros(sum(math.prod(shape) for shape in shapes), np.float64), shapes)
    for weights in arrays[::2]:
        fan_out, fan_in = weights.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights[...] = rng.uniform(-limit, limit, size=weights.shape)
    return MlpParams.on_arrays(arrays, activations)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, tuple[list, list]]:
    """Affine + activation chain over a batch x of shape (N, input_width),
    cast to the network's dtype.

    Returns (output, cache); the cache holds each layer's input and its ReLU
    mask (None for a linear layer) for :func:`mlp_backward`.  A NaN
    pre-activation propagates through the ReLU, so a NaN weight shows up in
    the output.  A row's bits can depend on the batch size and on its place
    in the batch, not on the other rows' values (see :mod:`csigen.gan.sample`).
    """
    x = np.asarray(x, dtype=params.dtype)
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

