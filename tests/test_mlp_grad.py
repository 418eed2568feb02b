"""Gradient correctness of the differentiation kernel and the MLP stack,
checked against central finite differences and a directly-coded forward
oracle."""

import numpy as np
import pytest

from csigen.core import ArrayGeometry, MinMaxScaler
from csigen.gan import fastgrad
from csigen.gan.fastgrad import (
    critic_backward,
    critic_forward,
    critic_input_gradient,
    critic_loss_fast,
)
from csigen.gan.mlp import (
    DenseLayer,
    FlatArrays,
    MlpParams,
    cache_rows,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from csigen.gan.nets import CriticParams, delay_spread_flat
import graph_reference as ad
from graph_reference import (
    central_difference,
    delay_spread_flat_var,
    gradient_penalty,
    mlp_apply,
    mlp_vars,
    relative_error,
    small_critic,
)


def random_mlp(rng, widths=None, last="linear"):
    widths = widths or [5, 8, 6, 3]
    activations = ["relu"] * (len(widths) - 2) + [last]
    params = init_mlp(widths, activations, rng)
    # nonzero biases so bias gradients are exercised away from relu kinks
    for layer in params.layers:
        layer.bias += rng.uniform(-0.3, 0.3, size=layer.bias.shape)
    return params


class TestMlpForward:
    def test_zero_weights_bias_only(self):
        layer = DenseLayer(np.zeros((3, 4)), np.array([1.0, -2.0, 0.5]), "linear")
        out, _ = mlp_forward(MlpParams([layer]), np.zeros((1, 4)))
        assert np.array_equal(out, [[1.0, -2.0, 0.5]])

    def test_identity_relu(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        out, _ = mlp_forward(MlpParams([layer]), np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_three_layer_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        params = random_mlp(rng)
        x = rng.standard_normal((7, 5))
        out, _ = mlp_forward(params, x)
        # directly-coded matrix-product oracle
        a = x
        for layer in params.layers:
            a = a @ layer.weights.T + layer.bias
            if layer.activation == "relu":
                a = np.where(a > 0, a, 0.0)
        assert relative_error(out, a) < 1e-12

    def test_width_mismatch(self):
        rng = np.random.default_rng(4)
        params = random_mlp(rng)
        with pytest.raises(ValueError):
            mlp_forward(params, np.zeros((2, 7)))
        with pytest.raises(ValueError):  # one sample is a (1, n) batch, not a vector
            mlp_forward(params, np.zeros(5))


class TestHandWrittenBackward:
    def test_linear_layer_input_grad_is_weight_transpose(self):
        rng = np.random.default_rng(5)
        weights = rng.standard_normal((3, 4))
        params = MlpParams([DenseLayer(weights, np.zeros(3), "linear")])
        x = rng.standard_normal((1, 4))
        _, cache = mlp_forward(params, x)
        adjoint = rng.standard_normal(3)
        dx = mlp_backward(params, cache, adjoint[None, :])
        assert np.allclose(dx[0], weights.T @ adjoint, rtol=1e-12)

    def test_constant_output_net_has_zero_input_grad(self):
        params = MlpParams(
            [
                DenseLayer(np.zeros((4, 3)), np.ones(4), "relu"),
                DenseLayer(np.zeros((2, 4)), np.array([5.0, -1.0]), "linear"),
            ]
        )
        x = np.random.default_rng(6).standard_normal((1, 3))
        _, cache = mlp_forward(params, x)
        grads = [np.zeros_like(a) for a in params.arrays()]
        dx = mlp_backward(params, cache, np.ones((1, 2)), grads)
        assert np.array_equal(dx, np.zeros((1, 3)))
        assert np.array_equal(grads[0], np.zeros((4, 3)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = random_mlp(rng, widths=[8, 16, 4, 1])
        x = rng.standard_normal((3, 8)) + 0.05  # jitter away from relu kinks

        def loss():
            out, _ = mlp_forward(params, x)
            return float(out.sum())

        _, cache = mlp_forward(params, x)
        grads = [np.zeros_like(a) for a in params.arrays()]
        dx = mlp_backward(params, cache, np.ones((3, 1)), grads)
        for grad, array in zip(grads, params.arrays()):
            assert relative_error(grad, central_difference(loss, array)) < 1e-4
        assert relative_error(dx, central_difference(loss, x)) < 1e-4

    def test_accumulates_at_offset_and_input_gradient_alone_is_identical(self):
        rng = np.random.default_rng(12)
        params = random_mlp(rng, widths=[6, 9, 5, 2])
        x = rng.standard_normal((4, 6))
        adjoint = rng.standard_normal((4, 2))
        _, cache = mlp_forward(params, x)
        alone = mlp_backward(params, cache, adjoint)
        first = [np.zeros_like(a) for a in params.arrays()]
        dx = mlp_backward(params, cache, adjoint, first)
        assert np.array_equal(alone, dx)
        # a second pass at offset 2 into a longer list adds the same gradients
        grads = [np.ones(3), np.ones(3)] + [np.zeros_like(a) for a in params.arrays()]
        mlp_backward(params, cache, adjoint, grads, offset=2)
        mlp_backward(params, cache, adjoint, grads, offset=2)
        assert np.array_equal(grads[0], np.ones(3)) and np.array_equal(grads[1], np.ones(3))
        for total, single in zip(grads[2:], first):
            assert np.array_equal(total, single + single)

    def test_skipped_input_adjoint_leaves_parameter_gradients_identical(self):
        rng = np.random.default_rng(15)
        params = random_mlp(rng, widths=[6, 9, 5, 2])
        x = rng.standard_normal((4, 6))
        adjoint = rng.standard_normal((4, 2))
        _, cache = mlp_forward(params, x)
        full, skipped = (FlatArrays.zeros_like(params.arrays()) for _ in range(2))
        assert mlp_backward(params, cache, adjoint, full) is not None
        assert mlp_backward(params, cache, adjoint, skipped, input_rows=None) is None
        assert skipped.flat.tobytes() == full.flat.tobytes()

    def test_parts_sum_their_rows_and_input_rows_pick_the_input_adjoint(self):
        rng = np.random.default_rng(18)
        params = random_mlp(rng, widths=[6, 9, 5, 2])
        x = rng.standard_normal((9, 6))
        adjoint = rng.standard_normal((9, 2))
        _, cache = mlp_forward(params, x)
        first, second, rest = slice(0, 3), slice(3, 6), slice(6, None)
        grads = FlatArrays.zeros_like(params.arrays())
        adjoints = []
        dx = mlp_backward(params, cache, adjoint, grads, parts=(first, second), input_rows=rest,
                          adjoints=adjoints)
        # against each part's rows alone: rows in no part add nothing
        separate = FlatArrays.zeros_like(params.arrays())
        for rows in (first, second):
            mlp_backward(params, cache_rows(cache, rows), adjoint[rows], separate)
        assert relative_error(grads.flat, separate.flat) < 1e-12
        alone = mlp_backward(params, cache_rows(cache, rest), adjoint[rest])
        assert relative_error(dx, alone) < 1e-12
        # the recorded adjoints, one per layer after its mask, times the
        # layer inputs give the weight gradients over all rows
        full = FlatArrays.zeros_like(params.arrays())
        mlp_backward(params, cache, adjoint, full)
        assert len(adjoints) == len(params.layers)
        for recorded, inputs, weight_grad in zip(adjoints, cache[0], full[::2]):
            assert relative_error(recorded.T @ inputs, weight_grad) < 1e-12


class TestAutodiffOps:
    def test_elementwise_chain(self):
        rng = np.random.default_rng(8)
        a_val = rng.uniform(0.5, 2.0, size=(4, 3))
        b_val = rng.uniform(0.5, 2.0, size=(4, 3))
        a, b = ad.Var(a_val), ad.Var(b_val)
        out = ad.vsum(ad.sqrt(ad.add(ad.mul(a, b), ad.div(a, b))))
        ga, gb = ad.grad(out, [a, b])

        def f():
            return float(np.sqrt(a_val * b_val + a_val / b_val).sum())

        assert relative_error(ga.value, central_difference(f, a_val)) < 1e-6
        assert relative_error(gb.value, central_difference(f, b_val)) < 1e-6

    def test_broadcast_add_and_mean(self):
        rng = np.random.default_rng(9)
        x_val = rng.standard_normal((5, 4))
        b_val = rng.standard_normal(4)
        x, b = ad.Var(x_val), ad.Var(b_val)
        out = ad.mean(ad.square(ad.add(x, b)))
        gx, gb = ad.grad(out, [x, b])

        def f():
            return float(((x_val + b_val) ** 2).mean())

        assert relative_error(gx.value, central_difference(f, x_val)) < 1e-6
        assert relative_error(gb.value, central_difference(f, b_val)) < 1e-6

    def test_concat_narrow_round_trip(self):
        rng = np.random.default_rng(10)
        a_val = rng.standard_normal((3, 2))
        b_val = rng.standard_normal((3, 5))
        a, b = ad.Var(a_val), ad.Var(b_val)
        joined = ad.concat([a, b], axis=1)
        out = ad.vsum(ad.square(ad.narrow(joined, 1, 1, 4)))
        ga, gb = ad.grad(out, [a, b])

        def f():
            joined_v = np.concatenate([a_val, b_val], axis=1)
            return float((joined_v[:, 1:5] ** 2).sum())

        assert relative_error(ga.value, central_difference(f, a_val)) < 1e-6
        assert relative_error(gb.value, central_difference(f, b_val)) < 1e-6

    def test_second_order_simple(self):
        # d/dx of (dy/dx) for y = x^3: first grad 3x^2, second 6x
        x = ad.Var(np.array([2.0, -1.5]))
        y = ad.vsum(ad.mul(ad.mul(x, x), x))
        (first,) = ad.grad(y, [x])
        (second,) = ad.grad(ad.vsum(first), [x])
        assert np.allclose(first.value, 3 * x.value**2)
        assert np.allclose(second.value, 6 * x.value)

    def test_unreachable_input_gets_zero(self):
        x, z = ad.Var(np.ones(3)), ad.Var(np.ones(2))
        (gz,) = ad.grad(ad.vsum(ad.square(x)), [z])
        assert np.array_equal(gz.value, np.zeros(2))


class TestAutodiffVsHandWritten:
    def test_twenty_random_networks(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            depth = rng.integers(2, 5)
            widths = [int(rng.integers(2, 17)) for _ in range(depth + 1)]
            params = random_mlp(rng, widths=widths)
            x_val = rng.standard_normal((4, widths[0])) * 1.5 + 0.01

            def loss_value():
                out, _ = mlp_forward(params, x_val)
                return float(out.sum())

            # route 1: hand-written backward
            out, cache = mlp_forward(params, x_val)
            grads = [np.zeros_like(a) for a in params.arrays()]
            dx = mlp_backward(params, cache, np.ones_like(out), grads)
            # route 2: differentiation kernel
            pvars = mlp_vars(params)
            x = ad.Var(x_val)
            y = mlp_apply(pvars, [l.activation for l in params.layers], x)
            flat_vars = [v for pair in pvars for v in pair] + [x]
            auto = ad.grad(ad.vsum(y), flat_vars)
            for route1, route2 in zip(grads + [dx], auto):
                assert relative_error(route1, route2.value) < 1e-12
            # both routes against finite differences
            for grad, array in zip(grads, params.arrays()):
                assert relative_error(grad, central_difference(loss_value, array)) < 1e-4


GEO_SMALL = ArrayGeometry(1, 1, 2, 3, 1.272e9, 50e6)


class TestDelaySpreadPath:
    def test_var_matches_numpy_twin(self):
        rng = np.random.default_rng(13)
        flat = rng.standard_normal((6, 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps))
        by_graph = delay_spread_flat_var(ad.Var(flat), GEO_SMALL).value
        by_numpy = delay_spread_flat(flat, GEO_SMALL)
        assert relative_error(by_graph, by_numpy) < 1e-14

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        flat_val = rng.standard_normal((3, 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps))
        flat = ad.Var(flat_val)
        out = ad.vsum(delay_spread_flat_var(flat, GEO_SMALL))
        (grad_flat,) = ad.grad(out, [flat])

        def f():
            return float(delay_spread_flat(flat_val, GEO_SMALL).sum())

        assert relative_error(grad_flat.value, central_difference(f, flat_val)) < 1e-5


def test_critic_backward_matches_finite_differences_of_the_forward_scores():
    """The one critic backward against central differences of the one
    forward's seeded scores: the adjoints on the CSI (through the trunk) and
    on the scaled delay spreads with the side inputs held, then the CSI
    input gradient through the CSI's own delay spreads."""
    rng = np.random.default_rng(18)
    critic = small_critic(rng, GEO_SMALL)
    ds_scaler = MinMaxScaler(0.0, GEO_SMALL.num_taps * GEO_SMALL.tap_duration)
    csi = rng.standard_normal((4, 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps))
    ds_scaled = rng.uniform(-1, 1, (4, GEO_SMALL.num_antennas))
    pos = rng.uniform(-1, 1, (4, 2))
    seed = rng.standard_normal((4, 1))

    def seeded_scores(side_input):
        return float((seed * critic_forward(critic, csi, side_input, pos)[0]).sum())

    _, cache = critic_forward(critic, csi, ds_scaled, pos)
    adj_csi, adj_ds = critic_backward(critic, cache, seed)
    def held():
        return seeded_scores(ds_scaled)

    assert relative_error(adj_csi, central_difference(held, csi)) < 1e-4
    assert relative_error(adj_ds, central_difference(held, ds_scaled)) < 1e-4

    _, input_grad = critic_input_gradient(critic, GEO_SMALL, ds_scaler, csi, pos, seed)
    own = central_difference(
        lambda: seeded_scores(ds_scaler.scale(delay_spread_flat(csi, GEO_SMALL))), csi
    )
    assert relative_error(own, adj_csi) > 1e-2  # the delay-spread path counts
    assert relative_error(input_grad, own) < 1e-4


@pytest.mark.parametrize("ds_path", [True, False])
def test_critic_backward_without_input_gradient_leaves_parameter_gradients_identical(
    ds_path, monkeypatch
):
    """The critic loss computes the first layer's input adjoint for the
    interpolates alone; computing it for every row changes no gradient bit."""
    rng = np.random.default_rng(16)
    critic = small_critic(rng, GEO_SMALL)
    ds_scaler = MinMaxScaler(0.0, GEO_SMALL.num_taps * GEO_SMALL.tap_duration)
    csi_width = 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps
    real, fake = rng.standard_normal((2, 5, csi_width))
    pos = rng.uniform(-1, 1, (5, 2))
    ds_real_scaled = ds_scaler.scale(delay_spread_flat(real, GEO_SMALL))
    eps_mix = rng.uniform(size=(5, 1))

    def loss():
        # ds_path: the interpolates' input gradient runs through their delay spreads
        return critic_loss_fast(
            critic, None, GEO_SMALL, ds_scaler, real, pos, ds_real_scaled, None,
            eps_mix, 10.0, ds_path, fake_flat=fake, ds_fake=delay_spread_flat(fake, GEO_SMALL),
        )

    skipped = loss()

    def every_row(*args, input_rows=slice(None), **kwargs):
        adjoint = mlp_backward(*args, input_rows=slice(None), **kwargs)
        return None if input_rows is None else adjoint[input_rows]

    monkeypatch.setattr(fastgrad, "mlp_backward", every_row)
    full = loss()
    assert skipped[0] == full[0] and skipped[2] == full[2]
    assert skipped[1].flat.tobytes() == full[1].flat.tobytes()


class TestGradientPenalty:
    def scaler(self):
        return MinMaxScaler(0.0, 10 * GEO_SMALL.tap_duration)

    def test_linear_critic_penalty_is_norm_residual(self):
        # critic = fixed linear functional of the CSI input only
        rng = np.random.default_rng(15)
        csi_width = 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps
        w = rng.standard_normal(csi_width)
        trunk = MlpParams([DenseLayer(w[None, :], np.zeros(1), "linear")])
        fusion_w = np.zeros((1, 1 + GEO_SMALL.num_antennas + 2))
        fusion_w[0, 0] = 1.0  # pass the trunk output through, ignore side inputs
        fusion = MlpParams([DenseLayer(fusion_w, np.zeros(1), "linear")])
        critic = CriticParams(trunk, fusion)
        real = rng.standard_normal((4, csi_width))
        fake = rng.standard_normal((4, csi_width))
        eps = rng.uniform(size=(4, 1))
        penalty, grads = gradient_penalty(
            critic, GEO_SMALL, self.scaler(), real, fake, np.zeros((4, 2)), eps
        )
        expected = (np.linalg.norm(w) - 1.0) ** 2
        assert penalty == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_unit_norm_linear_critic_penalty_and_grads_vanish(self):
        rng = np.random.default_rng(16)
        csi_width = 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps
        w = rng.standard_normal(csi_width)
        w /= np.linalg.norm(w)
        trunk = MlpParams([DenseLayer(w[None, :], np.zeros(1), "linear")])
        fusion_w = np.zeros((1, 1 + GEO_SMALL.num_antennas + 2))
        fusion_w[0, 0] = 1.0
        fusion = MlpParams([DenseLayer(fusion_w, np.zeros(1), "linear")])
        critic = CriticParams(trunk, fusion)
        real = rng.standard_normal((5, csi_width))
        fake = rng.standard_normal((5, csi_width))
        penalty, grads = gradient_penalty(
            critic, GEO_SMALL, self.scaler(), real, fake, np.zeros((5, 2)),
            rng.uniform(size=(5, 1)),
        )
        assert abs(penalty) < 1e-9
        for grad in grads:
            assert np.abs(grad).max() < 1e-6

    def test_double_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        critic = small_critic(rng, GEO_SMALL)
        csi_width = 2 * GEO_SMALL.num_antennas * GEO_SMALL.num_taps
        real = rng.standard_normal((3, csi_width)) * 2.0
        fake = rng.standard_normal((3, csi_width)) * 2.0
        pos = rng.uniform(-1, 1, size=(3, 2))
        eps = rng.uniform(0.2, 0.8, size=(3, 1))
        scaler = self.scaler()

        def penalty_value():
            value, _ = gradient_penalty(
                critic, GEO_SMALL, scaler, real, fake, pos, eps
            )
            return value

        _, grads = gradient_penalty(critic, GEO_SMALL, scaler, real, fake, pos, eps)
        arrays = critic.arrays()
        for array, grad in zip(arrays, grads):
            fd = central_difference(penalty_value, array, h=1e-5)
            if np.abs(fd).max() < 1e-12 and np.abs(grad).max() < 1e-12:
                continue
            assert relative_error(grad, fd) < 1e-3
