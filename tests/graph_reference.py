"""Graph-autodiff reference for the tests' gradient checks.

An independent second route to the WGAN-GP losses that training runs
(:mod:`csigen.gan.fastgrad`): a minimal reverse-mode differentiation kernel
on float64 numpy arrays, the MLP and critic forward passes built on it, the
differentiable delay spread, and the graph-built critic and generator losses
with the gradient penalty.  Nothing in the package imports this module; the
tests compare the hand-written gradients against it, and central finite
differences, so a fault in one route shows as a disagreement.

Every kernel operation records a vector-Jacobian product built *from these
same operations*, so gradients are themselves differentiable graph nodes and
:func:`grad` can be applied to expressions containing earlier gradients.
That second-order capability is what the critic's gradient penalty needs:
the penalty differentiates the norm of an input gradient with respect to
the network parameters.

ReLU's derivative at exactly 0 is defined as 0, and its activation mask is
captured as a constant at the forward pass; for piecewise-linear networks
this reproduces exact double backpropagation away from the measure-zero
kink set.  At a kink, where central differences straddle two linear pieces,
this route still agrees with the hand-written one to rounding.
"""

from __future__ import annotations

import numpy as np

from csigen.core import ArrayGeometry, MinMaxScaler
from csigen.gan.mlp import MlpParams
from csigen.gan.nets import (
    DS_VARIANCE_FLOOR,
    GRAD_NORM_FLOOR,
    CriticParams,
    delay_spread_flat,
    generator_forward,
)


# ---------------------------------------------------------------------------
# differentiation kernel


class Var:
    """One node of the computation graph: a value, its parents, and the
    vector-Jacobian product mapping the node's adjoint to parent adjoints."""

    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.value.shape


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(adjoint: Var, shape: tuple) -> Var:
    """Reduce a broadcasted adjoint back to ``shape`` (sum over expanded axes)."""
    if adjoint.shape == shape:
        return adjoint
    extra = len(adjoint.shape) - len(shape)
    if extra > 0:
        adjoint = vsum(adjoint, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and adjoint.shape[i] != 1)
    if axes:
        adjoint = vsum(adjoint, axis=axes, keepdims=True)
    if adjoint.shape != shape:
        adjoint = reshape(adjoint, shape)
    return adjoint


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b))
    out.vjp = lambda adj: (_unbroadcast(adj, a.shape), _unbroadcast(adj, b.shape))
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value - b.value, (a, b))
    out.vjp = lambda adj: (_unbroadcast(adj, a.shape), _unbroadcast(mul(adj, -1.0), b.shape))
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value, (a, b))
    out.vjp = lambda adj: (
        _unbroadcast(mul(adj, b), a.shape),
        _unbroadcast(mul(adj, a), b.shape),
    )
    return out


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value / b.value, (a, b))
    out.vjp = lambda adj: (
        _unbroadcast(div(adj, b), a.shape),
        _unbroadcast(mul(mul(adj, -1.0), div(out, b)), b.shape),
    )
    return out


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value @ b.value, (a, b))
    out.vjp = lambda adj: (matmul(adj, transpose(b)), matmul(transpose(a), adj))
    return out


def transpose(a) -> Var:
    a = as_var(a)
    out = Var(a.value.T, (a,))
    out.vjp = lambda adj: (transpose(adj),)
    return out


def relu(a) -> Var:
    a = as_var(a)
    mask = (a.value > 0.0).astype(np.float64)  # frozen activation pattern
    out = Var(a.value * mask, (a,))
    out.vjp = lambda adj: (mul(adj, mask),)
    return out


def vsum(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    out = Var(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def backward(adj):
        if axis is None:
            return (broadcast_to(adj, a.shape),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if keepdims:
            restored = adj
        else:
            kept = list(adj.shape)
            for ax in sorted(ax % len(a.shape) for ax in axes):
                kept.insert(ax, 1)
            restored = reshape(adj, tuple(kept))
        return (broadcast_to(restored, a.shape),)

    out.vjp = backward
    return out


def mean(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    count = a.value.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(vsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def broadcast_to(a, shape) -> Var:
    a = as_var(a)
    out = Var(np.broadcast_to(a.value, shape), (a,))
    out.vjp = lambda adj: (_unbroadcast(adj, a.shape),)
    return out


def reshape(a, shape) -> Var:
    a = as_var(a)
    out = Var(a.value.reshape(shape), (a,))
    out.vjp = lambda adj: (reshape(adj, a.shape),)
    return out


def sqrt(a) -> Var:
    a = as_var(a)
    out = Var(np.sqrt(a.value), (a,))
    out.vjp = lambda adj: (mul(adj, div(Var(0.5), out)),)
    return out


def square(a) -> Var:
    a = as_var(a)
    out = Var(a.value * a.value, (a,))
    out.vjp = lambda adj: (mul(adj, mul(a, 2.0)),)
    return out


def concat(parts: list, axis: int) -> Var:
    parts = [as_var(p) for p in parts]
    out = Var(np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
    sizes = [p.shape[axis] for p in parts]

    def backward(adj):
        grads = []
        offset = 0
        for size in sizes:
            grads.append(narrow(adj, axis, offset, size))
            offset += size
        return tuple(grads)

    out.vjp = backward
    return out


def narrow(a, axis: int, start: int, length: int) -> Var:
    a = as_var(a)
    index = [slice(None)] * len(a.shape)
    index[axis] = slice(start, start + length)
    out = Var(a.value[tuple(index)], (a,))
    out.vjp = lambda adj: (pad_to(adj, a.shape, axis, start),)
    return out


def pad_to(a, shape: tuple, axis: int, start: int) -> Var:
    """Embed ``a`` into a zero array of ``shape`` at ``start`` along ``axis``."""
    a = as_var(a)
    value = np.zeros(shape)
    index = [slice(None)] * len(shape)
    index[axis] = slice(start, start + a.shape[axis])
    value[tuple(index)] = a.value
    out = Var(value, (a,))
    out.vjp = lambda adj: (narrow(adj, axis, start, a.shape[axis]),)
    return out


def _topological_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def grad(output: Var, inputs: list[Var], seed: Var | None = None) -> list[Var]:
    """Adjoints of ``output`` with respect to ``inputs``.

    ``seed`` is the adjoint of the output itself (defaults to ones, which for
    a scalar output yields plain gradients).  The returned Vars are graph
    nodes, so expressions built from them remain differentiable.
    """
    if seed is None:
        seed = Var(np.ones_like(output.value))
    adjoints: dict[int, Var] = {id(output): seed}
    order = _topological_order(output)
    for node in reversed(order):
        adjoint = adjoints.get(id(node))
        if adjoint is None or node.vjp is None:
            continue
        for parent, contribution in zip(node.parents, node.vjp(adjoint)):
            if contribution is None:
                continue
            existing = adjoints.get(id(parent))
            adjoints[id(parent)] = contribution if existing is None else add(existing, contribution)
    results = []
    for var in inputs:
        adjoint = adjoints.get(id(var))
        results.append(adjoint if adjoint is not None else Var(np.zeros(var.shape)))
    return results


# ---------------------------------------------------------------------------
# networks and the WGAN-GP losses as graphs


def mlp_vars(params: MlpParams) -> list[tuple[Var, Var]]:
    """Wrap parameters as graph leaves, one (weights, bias) pair per layer."""
    return [(Var(layer.weights), Var(layer.bias)) for layer in params.layers]


def mlp_apply(param_vars: list[tuple[Var, Var]], activations: list[str], x: Var) -> Var:
    """Graph-building forward pass over wrapped parameters."""
    out = x
    for (weights, bias), activation in zip(param_vars, activations):
        out = add(matmul(out, transpose(weights)), bias)
        if activation == "relu":
            out = relu(out)
    return out


def scale_var(scaler: MinMaxScaler, ds: Var) -> Var:
    """:meth:`MinMaxScaler.scale` on a graph node."""
    gain = 2.0 / (scaler.maximum - scaler.minimum)
    offset = -2.0 * scaler.minimum / (scaler.maximum - scaler.minimum) - 1.0
    return add(mul(ds, gain), offset)


def delay_spread_flat_var(flat: Var, geometry: ArrayGeometry) -> Var:
    """Differentiable delay spread (seconds) from flattened CSI, with the
    variance floor of :func:`csigen.gan.nets.delay_spread_forward`."""
    n = flat.shape[0]
    n_ant, n_tap = geometry.num_antennas, geometry.num_taps
    half = n_ant * n_tap
    re = reshape(narrow(flat, 1, 0, half), (n, n_ant, n_tap))
    im = reshape(narrow(flat, 1, half, half), (n, n_ant, n_tap))
    power = add(square(re), square(im))
    total = add(vsum(power, axis=2), 1e-30)
    taps = np.arange(1, n_tap + 1, dtype=np.float64)
    mean_tap = div(vsum(mul(power, taps), axis=2), total)
    centered = sub(taps, reshape(mean_tap, (n, n_ant, 1)))
    variance = div(vsum(mul(power, square(centered)), axis=2), total)
    ds_taps = sqrt(add(variance, DS_VARIANCE_FLOOR))
    return mul(ds_taps, geometry.tap_duration)


def critic_apply_var(
    trunk_vars,
    fusion_vars,
    critic: CriticParams,
    csi_flat: Var,
    ds_scaled: Var,
    pos_scaled: Var,
) -> Var:
    trunk_out = mlp_apply(trunk_vars, critic.trunk.activations, csi_flat)
    fused = concat([trunk_out, ds_scaled, pos_scaled], axis=1)
    return mlp_apply(fusion_vars, critic.fusion.activations, fused)


def _penalty_var(
    trunk_vars,
    fusion_vars,
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    real_flat: np.ndarray,
    fake_flat: np.ndarray,
    pos_scaled: np.ndarray,
    eps_mix: np.ndarray,
    ds_through_csi: bool = True,
) -> Var:
    """Graph of the per-batch mean gradient penalty (||grad C(x~)|| - 1)^2.

    x~ mixes real and fake CSI per sample; the delay-spread side input is
    recomputed from x~ (so the input gradient flows through it) unless
    ``ds_through_csi`` is disabled, in which case the delay spreads of the
    endpoints are mixed with the same coefficients and treated as constant.
    """
    eps_mix = np.asarray(eps_mix, dtype=np.float64).reshape(-1, 1)
    mixed_value = eps_mix * real_flat + (1.0 - eps_mix) * fake_flat
    mixed = Var(mixed_value)
    if ds_through_csi:
        ds_scaled = scale_var(ds_scaler, delay_spread_flat_var(mixed, geometry))
    else:
        ds_real = delay_spread_flat(real_flat, geometry)
        ds_fake = delay_spread_flat(fake_flat, geometry)
        ds_scaled = Var(ds_scaler.scale(eps_mix * ds_real + (1.0 - eps_mix) * ds_fake))
    score = critic_apply_var(trunk_vars, fusion_vars, critic, mixed, ds_scaled, Var(pos_scaled))
    # one backward seeded with ones gives the per-sample input gradients
    (input_grad,) = grad(vsum(score), [mixed])
    norm = sqrt(add(vsum(square(input_grad), axis=1), GRAD_NORM_FLOOR))
    return mean(square(sub(norm, 1.0)))


def gradient_penalty(
    critic: CriticParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    real_flat: np.ndarray,
    fake_flat: np.ndarray,
    pos_scaled: np.ndarray,
    eps_mix: np.ndarray,
    ds_through_csi: bool = True,
) -> tuple[float, list[np.ndarray]]:
    """Mean gradient penalty over a batch and its critic-parameter gradients
    (exact double backpropagation with frozen activation patterns)."""
    trunk_vars = mlp_vars(critic.trunk)
    fusion_vars = mlp_vars(critic.fusion)
    penalty = _penalty_var(
        trunk_vars, fusion_vars, critic, geometry, ds_scaler,
        real_flat, fake_flat, pos_scaled, eps_mix, ds_through_csi,
    )
    param_vars = [v for pair in trunk_vars + fusion_vars for v in pair]
    grads = grad(penalty, param_vars)
    return float(penalty.value), [g.value for g in grads]


def critic_loss(
    critic: CriticParams,
    generator: MlpParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    real_flat: np.ndarray,
    pos_scaled: np.ndarray,
    ds_real_scaled: np.ndarray,
    noise: np.ndarray,
    eps_mix: np.ndarray,
    gp_lambda: float,
    ds_through_csi: bool = True,
) -> tuple[float, list[np.ndarray], dict]:
    """Critic objective mean[C(fake)] - mean[C(real)] + lambda * penalty and
    its gradients with respect to the critic parameters only.

    Fake samples share the real samples' conditions.  Returns (loss,
    gradients in canonical parameter order as separate arrays,
    diagnostics).
    """
    if real_flat.shape[0] == 0:
        raise ValueError("empty batch")
    fake_flat, _ = generator_forward(generator, pos_scaled, noise)
    ds_fake_scaled = ds_scaler.scale(delay_spread_flat(fake_flat, geometry))

    trunk_vars = mlp_vars(critic.trunk)
    fusion_vars = mlp_vars(critic.fusion)
    score_real = critic_apply_var(
        trunk_vars, fusion_vars, critic, Var(real_flat), Var(ds_real_scaled), Var(pos_scaled)
    )
    score_fake = critic_apply_var(
        trunk_vars, fusion_vars, critic, Var(fake_flat), Var(ds_fake_scaled), Var(pos_scaled)
    )
    loss = sub(mean(score_fake), mean(score_real))
    if gp_lambda != 0.0:
        penalty = _penalty_var(
            trunk_vars, fusion_vars, critic, geometry, ds_scaler,
            real_flat, fake_flat, pos_scaled, eps_mix, ds_through_csi,
        )
        loss = add(loss, mul(penalty, gp_lambda))
        penalty_value = float(penalty.value)
    else:
        penalty_value = 0.0
    param_vars = [v for pair in trunk_vars + fusion_vars for v in pair]
    grads = grad(loss, param_vars)
    diagnostics = {
        "real_score": float(score_real.value.mean()),
        "fake_score": float(score_fake.value.mean()),
        "penalty": penalty_value,
    }
    return float(loss.value), [g.value for g in grads], diagnostics


def generator_loss(
    critic: CriticParams,
    generator: MlpParams,
    geometry: ArrayGeometry,
    ds_scaler: MinMaxScaler,
    pos_scaled: np.ndarray,
    noise: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Generator objective -mean[C(G(x, n))] and its gradients with respect
    to the generator parameters (separate arrays), including the path
    through the delay-spread side input."""
    if pos_scaled.shape[0] == 0:
        raise ValueError("empty batch")
    gen_vars = mlp_vars(generator)
    inputs = Var(np.concatenate([noise, pos_scaled], axis=1))
    fake = mlp_apply(gen_vars, generator.activations, inputs)
    ds_scaled = scale_var(ds_scaler, delay_spread_flat_var(fake, geometry))
    trunk_vars = mlp_vars(critic.trunk)
    fusion_vars = mlp_vars(critic.fusion)
    score = critic_apply_var(trunk_vars, fusion_vars, critic, fake, ds_scaled, Var(pos_scaled))
    loss = mul(mean(score), -1.0)
    param_vars = [v for pair in gen_vars for v in pair]
    grads = grad(loss, param_vars)
    return float(loss.value), [g.value for g in grads]
