import numpy as np
import pytest

from semiae.model import (ACTIVATIONS, SemiAEParams, activation,
                          concat_input, forward, glorot_init, load_params,
                          loss_and_gradients, masked_loss, params_from_dict,
                          params_to_dict, save_params, subset_loss)
from util import (brute_force_masked_loss, classical_autoencoder,
                  finite_difference_grads, gradcheck_error)

RNG = np.random.default_rng


def make_params(rng, s=4, h=3, d=2, g="sigmoid", f="identity"):
    return glorot_init(s, h, d, g, f, rng)


def zero_params(s, h, d, p1=None, g="identity", f="identity"):
    return SemiAEParams(Q=np.zeros((s, h)), Q1=np.zeros((h, d)),
                        p=np.zeros(h),
                        p1=np.zeros(d) if p1 is None else np.asarray(p1, float),
                        g=g, f=f)


class TestActivations:
    def test_known_values(self):
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(ACTIVATIONS["identity"].fn(z), z)
        np.testing.assert_allclose(ACTIVATIONS["relu"].fn(z), [0, 0, 3])
        np.testing.assert_allclose(ACTIVATIONS["tanh"].fn(z), np.tanh(z))
        np.testing.assert_allclose(ACTIVATIONS["sigmoid"].fn(z),
                                   1 / (1 + np.exp(-z)), rtol=1e-12)

    def test_sigmoid_stable_at_extremes(self):
        z = np.array([-1000.0, 1000.0])
        s = ACTIVATIONS["sigmoid"].fn(z)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[1] == 1.0

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_derivative_matches_finite_difference(self, name):
        act = ACTIVATIONS[name]
        rng = RNG(3)
        z = rng.uniform(-3, 3, 200)
        if name == "relu":
            z = z[np.abs(z) > 1e-2]  # stay off the kink
        eps = 1e-6
        numeric = (act.fn(z + eps) - act.fn(z - eps)) / (2 * eps)
        np.testing.assert_allclose(act.deriv(z), numeric, atol=1e-7)

    def test_unknown_kind_lists_valid_names(self):
        with pytest.raises(ValueError, match="sigmoid"):
            activation("softmax")


class TestConcatAndTarget:
    def test_rating_block_comes_first(self):
        np.testing.assert_array_equal(
            concat_input(np.array([1.0, 0.0, 5.0]), np.array([0.2, 0.8])),
            [1, 0, 5, 0.2, 0.8])

    def test_empty_side_block_is_identity(self):
        r = np.array([1.0, 2.0])
        np.testing.assert_array_equal(concat_input(r, np.array([])), r)

    def test_target_projection_recovers_rating_block(self):
        rng = RNG(0)
        for _ in range(20):
            r = rng.normal(size=rng.integers(1, 8))
            c = rng.normal(size=rng.integers(0, 5))
            np.testing.assert_array_equal(
                concat_input(r, c)[:len(r)], r)

    def test_batched_concat(self):
        r = np.arange(6.0).reshape(2, 3)
        c = np.ones((2, 2))
        assert concat_input(r, c).shape == (2, 5)


class TestForward:
    def test_zero_weights_pass_output_bias_through(self):
        params = zero_params(3, 2, 2, p1=[4.0, -1.0])
        _, out = forward(params, np.array([9.0, 9.0, 9.0]))
        np.testing.assert_array_equal(out, [4.0, -1.0])

    def test_sigmoid_of_zero_preactivation_is_half(self):
        params = zero_params(3, 2, 2, g="sigmoid")
        h, _ = forward(params, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(h, [0.5, 0.5])

    def test_hand_computed_two_three_two_network(self):
        params = SemiAEParams(
            Q=np.array([[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]]),
            Q1=np.array([[1.0, 1.0], [0.0, 2.0], [3.0, 0.0]]),
            p=np.array([0.0, 1.0, -1.0]),
            p1=np.array([1.0, -1.0]),
            g="identity", f="identity")
        h, out = forward(params, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(h, [5.0, 3.0, -2.0])
        np.testing.assert_array_equal(out, [0.0, 10.0])

    def test_batch_rows_match_single_vectors(self):
        # BLAS may reduce in a different order for different batch shapes,
        # so agreement is to round-off, not bit-exact
        params = make_params(RNG(1))
        x = RNG(2).normal(size=(5, 4))
        h_batch, out_batch = forward(params, x)
        for k in range(5):
            h, out = forward(params, x[k])
            np.testing.assert_allclose(h, h_batch[k], rtol=1e-12)
            np.testing.assert_allclose(out, out_batch[k], rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = make_params(RNG(1))
        with pytest.raises(ValueError, match="shape"):
            forward(params, np.zeros(5))

    def test_forward_is_pure(self):
        params = make_params(RNG(4))
        x = RNG(5).normal(size=(3, 4))
        first = forward(params, x)
        second = forward(params, x)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestLosses:
    def test_perfect_reconstruction_is_zero(self):
        params = zero_params(2, 2, 2, p1=[3.0, 4.0])
        x = np.array([[1.0, 2.0]])
        assert subset_loss(params, x, np.array([[3.0, 4.0]])) == 0.0

    def test_unit_errors_sum_to_two(self):
        params = zero_params(2, 2, 2, p1=[1.0, 1.0])
        loss = subset_loss(params, np.array([[0.0, 0.0]]),
                           np.array([[0.0, 0.0]]))
        assert loss == 2.0

    def test_zero_weights_contribute_no_penalty(self):
        params = zero_params(2, 2, 2)
        x = np.array([[1.0, 2.0]])
        assert subset_loss(params, x, x, reg=5.0) == \
            subset_loss(params, x, x, reg=0.0)

    def test_penalty_value_is_half_reg_times_squared_norms(self):
        params = make_params(RNG(7))
        x = np.zeros((1, 4))
        t = forward(params, x)[1].reshape(1, -1)  # zero error
        expected = 0.5 * 0.3 * (np.sum(params.Q ** 2) + np.sum(params.Q1 ** 2))
        assert subset_loss(params, x, t, reg=0.3) == pytest.approx(expected,
                                                                   rel=1e-12)

    def test_masked_positions_are_the_only_ones_measured(self):
        params = zero_params(3, 2, 3, p1=[4.0, 9.0, 3.0])
        x = np.array([[0.0, 0.0, 0.0]])
        target = np.array([[5.0, 0.0, 3.0]])
        mask = np.array([[True, False, True]])
        assert masked_loss(params, x, target, mask) == 1.0  # (5-4)^2 + 0
        # changing the target at a mask-false position changes nothing
        target2 = np.array([[5.0, 77.0, 3.0]])
        assert masked_loss(params, x, target2, mask) == 1.0

    def test_all_true_mask_equals_subset_loss(self):
        rng = RNG(11)
        params = make_params(rng)
        x = rng.normal(size=(4, 4))
        t = rng.normal(size=(4, 2))
        mask = np.ones((4, 2), bool)
        assert masked_loss(params, x, t, mask, reg=0.2) == \
            subset_loss(params, x, t, reg=0.2)

    def test_losses_are_nonnegative(self):
        rng = RNG(13)
        for _ in range(50):
            params = make_params(rng, g="tanh", f="sigmoid")
            x = rng.normal(size=(3, 4))
            t = rng.normal(size=(3, 2))
            mask = rng.random((3, 2)) < 0.5
            assert subset_loss(params, x, t, reg=0.1) >= 0.0
            assert masked_loss(params, x, t, mask, reg=0.1) >= 0.0

    def test_matches_brute_force_summation_exactly(self):
        rng = RNG(17)
        params = make_params(rng, s=5, h=2, d=3)
        x = rng.normal(size=(3, 5))
        t = rng.normal(size=(3, 3))
        mask = rng.random((3, 3)) < 0.6
        _, out = forward(params, x)
        for reg in (0.0, 0.37):
            expected = brute_force_masked_loss(out, t, mask, params.Q,
                                               params.Q1, reg)
            assert masked_loss(params, x, t, mask, reg) == expected


class TestBackward:
    def test_zero_error_zero_reg_gives_zero_gradients(self):
        params = zero_params(2, 2, 2, p1=[1.0, 2.0])
        x = np.array([[3.0, 4.0]])
        grads = loss_and_gradients(params, x, np.array([[1.0, 2.0]]))[1]
        for name in ("dQ", "dQ1", "dp", "dp1"):
            np.testing.assert_array_equal(getattr(grads, name), 0.0)

    def test_penalty_only_gradient_is_reg_times_weights(self):
        rng = RNG(19)
        params = make_params(rng)
        x = np.zeros((1, 4))
        t = forward(params, x)[1].reshape(1, -1)  # forces zero error
        grads = loss_and_gradients(params, x, t, reg=0.7)[1]
        np.testing.assert_allclose(grads.dQ, 0.7 * params.Q, rtol=1e-12)
        np.testing.assert_allclose(grads.dQ1, 0.7 * params.Q1, rtol=1e-12)
        np.testing.assert_array_equal(grads.dp1, 0.0)

    @pytest.mark.parametrize("g", ["identity", "sigmoid", "tanh"])
    @pytest.mark.parametrize("f", ["identity", "sigmoid"])
    def test_gradients_match_finite_differences(self, g, f):
        rng = RNG(hash((g, f)) % (2 ** 31))
        for trial in range(5):
            params = make_params(rng, g=g, f=f)
            x = rng.normal(size=(3, 4))
            t = rng.normal(size=(3, 2))
            mask = rng.random((3, 2)) < 0.7 if trial % 2 else None
            reg = 0.25 if trial % 3 == 0 else 0.0
            loss, grads = loss_and_gradients(params, x, t, mask, reg)
            numeric = finite_difference_grads(params, x, t, mask, reg)
            analytic = {"Q": grads.dQ, "Q1": grads.dQ1,
                        "p": grads.dp, "p1": grads.dp1}
            assert gradcheck_error(analytic, numeric) <= 1e-4

    def test_relu_gradients_away_from_kink(self):
        rng = RNG(23)
        ok = 0
        while ok < 5:
            params = make_params(rng, g="relu", f="identity")
            x = rng.normal(size=(2, 4)) + 1.0
            z1 = x @ params.Q + params.p
            if np.abs(z1).min() <= 1e-2:
                continue
            t = rng.normal(size=(2, 2))
            _, grads = loss_and_gradients(params, x, t)
            numeric = finite_difference_grads(params, x, t)
            analytic = {"Q": grads.dQ, "Q1": grads.dQ1,
                        "p": grads.dp, "p1": grads.dp1}
            assert gradcheck_error(analytic, numeric) <= 1e-4
            ok += 1

    def test_mask_false_coordinates_never_touch_gradients(self):
        rng = RNG(29)
        params = make_params(rng)
        x = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 2))
        mask = rng.random((3, 2)) < 0.5
        mask[0, 0] = False
        base = loss_and_gradients(params, x, t, mask, reg=0.1)
        t2 = t.copy()
        t2[0, 0] += 1e6
        bumped = loss_and_gradients(params, x, t2, mask, reg=0.1)
        assert base[0] == bumped[0]
        for name in ("dQ", "dQ1", "dp", "dp1"):
            np.testing.assert_array_equal(getattr(base[1], name),
                                          getattr(bumped[1], name))


class TestDegenerateEquivalence:
    def test_matches_directly_coded_autoencoder(self):
        rng = RNG(31)
        for _ in range(5):
            d, h = 4, 2
            params = make_params(rng, s=d, h=h, d=d, g="sigmoid", f="identity")
            x = rng.normal(size=(3, d))
            hid, out = forward(params, x)
            loss, grads = loss_and_gradients(params, x, x)
            ref_h, ref_out, ref_loss, d_w, d_b, d_w1, d_b1 = \
                classical_autoencoder(params.Q.T.copy(), params.p.copy(),
                                      params.Q1.T.copy(), params.p1.copy(),
                                      "sigmoid", "identity", x)
            np.testing.assert_allclose(hid, ref_h, rtol=1e-12)
            np.testing.assert_allclose(out, ref_out, rtol=1e-12)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(grads.dQ, d_w.T, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(grads.dQ1, d_w1.T, rtol=1e-12, atol=1e-14)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = make_params(RNG(37), s=6, h=3, d=4, g="tanh", f="sigmoid")
        path = tmp_path / "model.json"
        save_params(path, params, {"note": "x"})
        loaded, echo = load_params(path)
        assert echo == {"note": "x"}
        for name in ("Q", "Q1", "p", "p1"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(params, name))
        assert (loaded.g, loaded.f) == ("tanh", "sigmoid")

    def test_schema_fields_present(self):
        doc = params_to_dict(make_params(RNG(41)))
        assert doc["schema_version"] == 1
        assert doc["dims"] == {"S": 4, "H": 3, "D": 2}
        assert set(doc["activations"]) == {"g", "f"}

    def test_wrong_schema_version_rejected(self):
        doc = params_to_dict(make_params(RNG(43)))
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            params_from_dict(doc)


class TestParamValidation:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError, match="hidden dims"):
            SemiAEParams(Q=np.zeros((3, 2)), Q1=np.zeros((5, 3)),
                         p=np.zeros(2), p1=np.zeros(3))

    def test_non_finite_rejected(self):
        q = np.zeros((2, 2))
        q[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SemiAEParams(Q=q, Q1=np.zeros((2, 2)), p=np.zeros(2),
                         p1=np.zeros(2))

    def test_glorot_bounds_and_zero_biases(self):
        params = glorot_init(10, 4, 8, rng=RNG(47))
        lim_q = np.sqrt(6 / 14)
        lim_q1 = np.sqrt(6 / 12)
        assert np.abs(params.Q).max() <= lim_q
        assert np.abs(params.Q1).max() <= lim_q1
        np.testing.assert_array_equal(params.p, 0.0)
        np.testing.assert_array_equal(params.p1, 0.0)
