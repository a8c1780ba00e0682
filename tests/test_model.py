import json
import tracemalloc

import numpy as np
import pytest

from semiae.dataset import RatingDataset, SideInfoMatrix, write_json
from semiae.model import (ACTIVATIONS, BLOCK, SemiAEParams, Workspace, _l2,
                          forward, glorot_init, load_params,
                          loss_and_gradients, save_params, sparse_index,
                          sparse_loss_and_gradients)
from util import (brute_force_masked_loss, built_input, classical_autoencoder,
                  exact_loss, finite_difference_grads, gradcheck_error,
                  make_random_dataset, reference_loss_and_gradients,
                  reference_sigmoid, reference_sparse_step, traced_peak)

RNG = np.random.default_rng


def make_params(rng, s=4, h=3, d=2, g="sigmoid", f="identity"):
    return glorot_init(s, h, d, g, f, rng)


def nan_workspace(params, rows):
    """A workspace whose buffers start as NaN, so that a read before a
    write shows."""
    work = Workspace.for_params(params, rows)
    for buf in (*vars(work).values(), *vars(work.grads).values()):
        if buf is not work.grads:
            buf.fill(np.nan)
    return work


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

    def test_sigmoid_equals_the_two_branch_form_bit_for_bit(self):
        rng = RNG(5)
        edges = [0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 1e-300, -1e-300,
                 36.7, -36.7, 709.8, -745.2, np.inf, -np.inf]
        z = np.concatenate([edges, rng.normal(0, 1, 2000),
                            rng.normal(0, 40, 2002)]).reshape(-1, 8)
        want = reference_sigmoid(z).tobytes()
        before = z.copy()
        fn = ACTIVATIONS["sigmoid"].fn
        # into a new array, and into another through a scratch
        for out, scratch in ((None, None),
                             (np.empty_like(z), np.empty_like(z))):
            s = fn(z, out, scratch)
            assert s.tobytes() == want
            assert out is None or s is out
            assert z.tobytes() == before.tobytes()
        # in place, as both layers of a training step are
        s = fn(z, z, np.empty_like(z))
        assert s is z and s.tobytes() == want
        for scalar in (-2.0, 0.0, 3.5):
            assert fn(scalar) == reference_sigmoid(scalar)

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_derivative_matches_finite_difference(self, name):
        act = ACTIVATIONS[name]
        rng = RNG(3)
        z = rng.uniform(-3, 3, 200)
        if name == "relu":
            z = z[np.abs(z) > 1e-2]  # stay off the kink
        eps = 1e-6
        numeric = (act.fn(z + eps) - act.fn(z - eps)) / (2 * eps)
        np.testing.assert_allclose(act.deriv_at_value(act.fn(z)), numeric,
                                   atol=1e-7)

    def test_unknown_kind_lists_valid_names(self):
        for layer in ("g", "f"):
            with pytest.raises(ValueError, match=(
                    r"^unknown activation 'softmax'; valid: \['identity', "
                    r"'relu', 'sigmoid', 'tanh'\]$")):
                make_params(RNG(0), **{layer: "softmax"})


def one_user_input(ratings, profile):
    """The network input of one user who rated every nonzero position of
    ``ratings``, with ``profile`` appended."""
    items = np.flatnonzero(ratings).astype(np.int32)
    ds = RatingDataset(1, len(ratings), np.zeros(len(items), np.int32), items,
                       np.asarray(ratings, float)[items],
                       np.zeros(len(items), np.int64))
    side = SideInfoMatrix(np.array([profile], float).reshape(1, -1),
                          tuple(map(str, range(len(profile)))))
    return built_input(ds, side)[0][0]


class TestConcatAndTarget:
    """The network input ``cat(r; c)`` that build_vectors lays out: the
    rating block first, and the reconstruction target is its prefix."""

    def test_rating_block_comes_first(self):
        np.testing.assert_array_equal(
            one_user_input([1.0, 0.0, 5.0], [0.2, 0.8]), [1, 0, 5, 0.2, 0.8])

    def test_empty_side_block_is_identity(self):
        np.testing.assert_array_equal(one_user_input([1.0, 2.0], []),
                                      [1, 2])

    def test_target_projection_recovers_rating_block(self):
        rng = RNG(0)
        for _ in range(20):
            m, n, k = rng.integers(1, 8, 3)
            ds = make_random_dataset(rng, m, n, rng.integers(0, m * n + 1))
            side = SideInfoMatrix(rng.normal(size=(m, k - 1)),
                                  tuple(map(str, range(k - 1))))
            r = np.zeros((m, n))
            r[ds.users, ds.items] = ds.ratings
            np.testing.assert_array_equal(
                built_input(ds, side)[0][:, :n], r)

    def test_batched_concat(self):
        ds = make_random_dataset(RNG(1), 2, 3, 4)
        side = SideInfoMatrix(np.ones((2, 2)), ("a", "b"))
        assert built_input(ds, side)[0].shape == (2, 5)


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


def step_loss(*args, **kwargs):
    """The loss that the dense training step returns."""
    return loss_and_gradients(*args, **kwargs)[0]


class TestLosses:
    def test_perfect_reconstruction_is_zero(self):
        params = zero_params(2, 2, 2, p1=[3.0, 4.0])
        x = np.array([[1.0, 2.0]])
        assert step_loss(params, x, np.array([[3.0, 4.0]])) == 0.0

    def test_unit_errors_sum_to_two(self):
        params = zero_params(2, 2, 2, p1=[1.0, 1.0])
        loss = step_loss(params, np.array([[0.0, 0.0]]),
                         np.array([[0.0, 0.0]]))
        assert loss == 2.0

    def test_zero_weights_contribute_no_penalty(self):
        params = zero_params(2, 2, 2)
        x = np.array([[1.0, 2.0]])
        assert step_loss(params, x, x, reg=5.0) == \
            step_loss(params, x, x, reg=0.0)

    def test_penalty_value_is_half_reg_times_squared_norms(self):
        params = make_params(RNG(7))
        x = np.zeros((1, 4))
        t = forward(params, x)[1].reshape(1, -1)  # zero error
        expected = 0.5 * 0.3 * (np.sum(params.Q ** 2) + np.sum(params.Q1 ** 2))
        assert step_loss(params, x, t, reg=0.3) == \
            pytest.approx(expected, rel=1e-12)

    def test_masked_positions_are_the_only_ones_measured(self):
        params = zero_params(3, 2, 3, p1=[4.0, 9.0, 3.0])
        x = np.array([[0.0, 0.0, 0.0]])
        target = np.array([[5.0, 0.0, 3.0]])
        mask = np.array([[True, False, True]])
        # (5-4)^2 + 0
        assert step_loss(params, x, target, mask) == 1.0
        # changing the target at a mask-false position changes nothing
        target2 = np.array([[5.0, 77.0, 3.0]])
        assert step_loss(params, x, target2, mask) == 1.0

    @pytest.mark.parametrize("targets, mask, message", [
        (np.zeros((3, 2)), None, "batch and targets row counts differ"),
        (np.zeros((2, 2)), np.ones((2, 3), bool),
         "mask shape must match targets")])
    def test_misshapen_targets_or_mask_rejected(self, targets, mask, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            step_loss(make_params(RNG(3)), np.zeros((2, 4)), targets, mask)

    def test_an_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match="^a batch needs at least one "
                                             "row$"):
            step_loss(make_params(RNG(3)), np.zeros((0, 4)), np.zeros((0, 2)))

    def test_all_true_mask_equals_no_mask(self):
        rng = RNG(11)
        params = make_params(rng)
        x = rng.normal(size=(4, 4))
        t = rng.normal(size=(4, 2))
        mask = np.ones((4, 2), bool)
        assert step_loss(params, x, t, mask, reg=0.2) == \
            step_loss(params, x, t, reg=0.2)

    def test_losses_are_nonnegative(self):
        rng = RNG(13)
        for _ in range(50):
            params = make_params(rng, g="tanh", f="sigmoid")
            x = rng.normal(size=(3, 4))
            t = rng.normal(size=(3, 2))
            mask = rng.random((3, 2)) < 0.5
            assert step_loss(params, x, t, reg=0.1) >= 0.0
            assert step_loss(params, x, t, mask, reg=0.1) >= 0.0

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
            assert exact_loss(params, x, t, mask, reg) == expected


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

    @pytest.mark.parametrize("masked", [False, True])
    def test_into_reused_buffers_equals_the_reference(self, masked):
        # Q and Q1 span more than two blocks and end in a partial one, so
        # the L2 term is added over several blocks
        rng = RNG(23)
        params = make_params(rng, s=300, h=230, d=290, g="tanh", f="sigmoid")
        assert all(2 * BLOCK < a.size and a.size % BLOCK
                   for a in (params.Q, params.Q1))
        x = rng.normal(size=(5, 300))
        t = rng.normal(size=(5, 290))
        mask = rng.random((5, 290)) < 0.3 if masked else None
        want_loss, want = reference_loss_and_gradients(params, x, t, mask,
                                                       0.3)
        work = nan_workspace(params, 5)
        for _ in range(2):  # the second call writes over the first's
            loss, got = loss_and_gradients(params, x, t, mask, 0.3, work=work)
            assert got is work.grads
            assert loss == want_loss
            for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
                assert ours.tobytes() == ref.tobytes()
        fresh_loss, fresh = loss_and_gradients(params, x, t, mask, 0.3)
        assert fresh is not work.grads
        assert fresh_loss == want_loss
        assert fresh.dQ.tobytes() == want[0].tobytes()

    def test_into_a_workspace_allocates_less_than_one_q(self):
        rng = RNG(29)
        params = make_params(rng, s=600, h=200, d=500)
        x = rng.normal(size=(8, 600))
        work = Workspace.for_params(params, 8)
        _, peak = traced_peak(loss_and_gradients, params, x, x[:, :500],
                              x[:, :500] > 0, 0.1, work)
        assert peak < params.Q.nbytes

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("g", ["sigmoid", "tanh", "relu"])
    def test_into_a_workspace_equals_the_reference(self, g, masked):
        # a 5-row batch in the leading rows of a 7-row workspace
        rng = RNG(37)
        params = make_params(rng, s=30, h=6, d=25, g=g)
        x = rng.normal(size=(5, 30))
        t = rng.normal(size=(5, 25))
        mask = rng.random((5, 25)) < 0.3 if masked else None
        want_loss, want = reference_loss_and_gradients(params, x, t, mask,
                                                       0.3)
        work = nan_workspace(params, 7)
        for _ in range(2):
            loss, got = loss_and_gradients(params, x, t, mask, 0.3, work=work)
            assert got is work.grads
            assert loss == want_loss
            for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
                assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_the_reference_at_regularization_one(self, masked):
        # the L2 gradient is the weights times 1.0 here, a term that a step
        # must add at this value as at any other
        rng = RNG(39)
        params = make_params(rng, s=30, h=6, d=25)
        x = rng.normal(size=(5, 30))
        t = rng.normal(size=(5, 25))
        mask = rng.random((5, 25)) < 0.3 if masked else None
        want_loss, want = reference_loss_and_gradients(params, x, t, mask,
                                                       1.0)
        loss, got = loss_and_gradients(params, x, t, mask, 1.0,
                                       work=nan_workspace(params, 5))
        assert loss == want_loss
        for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
            assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("f", ["identity", "sigmoid", "tanh", "relu"])
    def test_a_step_into_its_workspace_allocates_nothing_of_batch_size(self, f):
        # the ranking shape: B=64 users, S=1712 inputs, H=10, D=1682 items;
        # a non-identity f writes its derivative into the workspace too
        rng = RNG(41)
        params = make_params(rng, s=1712, h=10, d=1682, f=f)
        x = (rng.random((64, 1712)) < 0.05).astype(float)
        work = Workspace.for_params(params, 64)

        def step():
            return loss_and_gradients(params, x, x[:, :1682], None, 0.1,
                                      work=work)

        _, first = step()
        (_, again), peak = traced_peak(step)
        assert first is again is work.grads
        assert peak < 64 * 1682 * 8 / 4

    @pytest.mark.parametrize("g", ["identity", "sigmoid", "tanh"])
    @pytest.mark.parametrize("f", ["identity", "sigmoid"])
    def test_gradients_match_finite_differences(self, g, f):
        rng = RNG([list(ACTIVATIONS).index(name) for name in (g, f)])
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


# the sparse step sums in another order than the dense one: its loss and
# each gradient agree with the reference to this much of the largest entry
# (5.0e-16 at most in these cases)
SPARSE_TOL = 1e-12


def sparse_batch(targets, side):
    """The input rows ``cat(targets; side)`` as ``(at, cols, values,
    side)``: the likes of ``targets`` row by row, then ``side``."""
    at, cols = np.nonzero(targets)
    return at, cols, targets[at, cols], side


def sparse_step(params, batch, *args):
    """``sparse_loss_and_gradients`` of the batch ``(at, cols, values,
    side)``, with its index by ``sparse_index``; ``args`` are the step's
    ``reg`` and ``work``."""
    at, cols, values, side = batch
    index = sparse_index(at, cols, values, params.hidden_dim,
                         params.output_dim)
    return sparse_loss_and_gradients(params, index, side, *args)


def close_to_largest(ours, ref):
    return np.abs(ours - ref).max(initial=0.0) <= SPARSE_TOL * max(
        np.abs(ref).max(initial=0.0), 1e-300)


class TestL2Term:
    # one element, a pairwise sum's 128-element leaf, one and two blocks,
    # the benchmark's weights, ml-1m's and random sizes up to 4.2 M: the
    # pieces that the L2 term's walk cuts and sums
    SHAPES = [(1,), (127,), (128,), (129,), (BLOCK - 1,), (BLOCK,),
              (BLOCK + 1,), (2 * BLOCK,), (2 * BLOCK + 1,), (963, 500),
              (500, 943), (1712, 10), (10, 1682), (6059, 500), (500, 6040),
              *((n,) for n in RNG(43).integers(BLOCK, 4_200_000, 16))]

    def test_sums_a_weight_as_np_sum_does_and_adds_reg_times_it(self):
        # numpy's pairwise cuts pinned: if a numpy release changes them,
        # this fails, and the remedy is a W-sized square before np.sum
        rng = RNG(41)
        for k, shape in enumerate(self.SHAPES):
            w = rng.uniform(-1.0, 1.0, shape).reshape(shape[0], -1)
            rows, cols = w.shape
            # w as Q or as Q1, beside a zero weight, whose sum is +0.0
            q, q1 = ((w, np.zeros((cols, 1))) if k % 2 else
                     (np.zeros((1, rows)), w))
            params = SemiAEParams(q, q1, np.zeros(q.shape[1]),
                                  np.zeros(q1.shape[1]))
            work = Workspace.for_params(params, 0)
            work.gradient.fill(0.25)
            # (2.0 / 2) times the sum is the sum itself
            assert _l2(params, 2.0, work) == np.sum(w * w), shape
            for grad, weight in ((work.grads.dQ, q), (work.grads.dQ1, q1)):
                assert grad.tobytes() == (0.25 + 2.0 * weight).tobytes()

    def test_zero_reg_returns_zero_and_writes_nothing(self):
        params = make_params(RNG(47))
        work = Workspace.for_params(params, 0)
        work.gradient.fill(-0.0)  # -0.0 + 0.0 * W would be +0.0
        assert _l2(params, 0.0, work) == 0.0
        assert work.gradient.tobytes() == \
            np.full(work.gradient.size, -0.0).tobytes()


class TestSparseStep:
    """``sparse_loss_and_gradients`` against the dense reference, on an
    identity f without a mask."""

    D, K, H = 40, 3, 6

    def batches(self, rng):
        """(name, targets, side): 5 rows each unless named otherwise."""
        d, k = self.D, self.K
        likes = (rng.random((5, d)) < 0.2).astype(float)
        no_likes = likes.copy()
        no_likes[[0, 3]] = 0.0
        every_item = likes.copy()
        every_item[2] = 1.0
        side = rng.normal(size=(5, k))
        return [("rows with no likes", no_likes, side),
                ("a user who liked every item", every_item, side),
                ("side width 0", likes, np.empty((5, 0))),
                ("no like at all", np.zeros((5, d)), side),
                ("one row", likes[:1], side[:1])]

    @pytest.mark.parametrize("reg", [0.0, 0.1])
    @pytest.mark.parametrize("g", ["sigmoid", "tanh", "relu"])
    def test_equals_the_reference_and_the_exact_loss(self, g, reg):
        rng = RNG(61)
        for name, targets, side in self.batches(rng):
            params = make_params(rng, s=self.D + side.shape[1], h=self.H,
                                 d=self.D, g=g)
            params = SemiAEParams(params.Q, params.Q1,
                                  rng.normal(size=self.H),
                                  rng.normal(size=self.D), g=g)
            x = np.hstack([targets, side])
            want_loss, want = reference_loss_and_gradients(
                params, x, targets, None, reg)
            loss, got = sparse_step(params, sparse_batch(targets, side), reg)
            exact = exact_loss(params, x, targets, reg=reg)
            assert abs(loss - want_loss) <= SPARSE_TOL * want_loss, name
            assert abs(loss - exact) <= SPARSE_TOL * exact, name
            for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
                assert close_to_largest(ours, ref), name

    @pytest.mark.parametrize("reg", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("g", ["sigmoid", "tanh", "relu"])
    def test_equals_the_reference_step_bit_for_bit(self, g, reg):
        rng = RNG(67)
        cases = [(name, sparse_batch(targets, side), self.D, self.H)
                 for name, targets, side in self.batches(rng)]
        # the benchmark's ranking shape
        targets = (rng.random((64, 1682)) < 0.004).astype(float)
        cases.append(("the ranking shape",
                      sparse_batch(targets, rng.normal(size=(64, 30))),
                      1682, 10))
        for name, batch, d, h in cases:
            params = make_params(rng, s=d + batch[3].shape[1], h=h, d=d, g=g)
            params = SemiAEParams(params.Q, params.Q1, rng.normal(size=h),
                                  rng.normal(size=d), g=g)
            want_loss, want = reference_sparse_step(params, *batch, reg)
            loss, got = sparse_step(params, batch, reg,
                                    nan_workspace(params, 0))
            assert loss == want_loss, name
            for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
                assert ours.tobytes() == ref.tobytes(), name

    def test_its_default_is_no_regularization(self):
        rng = RNG(71)
        params = make_params(rng, s=self.D + self.K, h=self.H, d=self.D)
        targets = (rng.random((5, self.D)) < 0.2).astype(float)
        batch = sparse_batch(targets, rng.normal(size=(5, self.K)))
        want_loss, want = reference_sparse_step(params, *batch, 0.0)
        loss, got = sparse_step(params, batch)
        assert loss == want_loss
        for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
            assert ours.tobytes() == ref.tobytes()

    def test_bincount_adds_in_index_order_as_add_at_on_zeros(self):
        # bin 3 sums to 0.0 in this order (1e16 + 1.0 rounds to 1e16), to
        # 1.0 in another; bins 0 and 2 get -0.0 alone, which +0.0 absorbs
        index = np.array([3, 0, 3, 3, 1, 1, 2, 2])
        weights = np.array([1e16, -0.0, 1.0, -1e16, -0.0, 2.5, -0.0, -0.0])
        by_add_at = np.zeros(5)
        np.add.at(by_add_at, index, weights)
        by_bincount = np.bincount(index, weights, minlength=5)
        assert by_bincount.tobytes() == by_add_at.tobytes()
        assert by_bincount.tolist() == [0.0, 2.5, 0.0, 0.0, 0.0]
        assert not np.signbit(by_bincount).any()

    def test_a_ragged_last_batch_reuses_the_workspace(self):
        # a 4-row batch, then the 2 rows left, into one workspace whose
        # gradients start as NaN
        rng = RNG(43)
        params = make_params(rng, s=self.D + self.K, h=self.H, d=self.D)
        targets = (rng.random((6, self.D)) < 0.3).astype(float)
        side = rng.normal(size=(6, self.K))
        work = nan_workspace(params, 0)
        for rows in (slice(0, 4), slice(4, 6)):
            x = np.hstack([targets[rows], side[rows]])
            want_loss, want = reference_loss_and_gradients(
                params, x, targets[rows], None, 0.1)
            loss, got = sparse_step(
                params, sparse_batch(targets[rows], side[rows]), 0.1, work)
            assert got is work.grads
            assert abs(loss - want_loss) <= SPARSE_TOL * want_loss
            for ours, ref in zip((got.dQ, got.dQ1, got.dp, got.dp1), want):
                assert close_to_largest(ours, ref)

    def test_the_ranking_shape_allocates_nothing_of_a_dense_batch(self):
        # B=64 users, S=1712 inputs, H=10, D=1682 items, 0.3 % liked, as
        # in the benchmark's ml-100k batches (about 340 likes each)
        rng = RNG(47)
        params = make_params(rng, s=1712, h=10, d=1682)
        targets = (rng.random((64, 1682)) < 0.003).astype(float)
        batch = sparse_batch(targets, rng.normal(size=(64, 30)))
        work = Workspace.for_params(params, 0)

        def step():
            return sparse_step(params, batch, 0.1, work)

        step()
        (_, grads), peak = traced_peak(step)
        assert grads is work.grads
        assert peak < 64 * 1682 * 8 / 4

    def test_an_overflowing_loss_is_inf_as_in_the_dense_step(self):
        # finite weights whose outputs' squares overflow: the expansion
        # meets inf - inf, the dense sum of squares gives inf
        rng = RNG(59)
        params = make_params(rng, s=self.D, h=self.H, d=self.D)
        params = SemiAEParams(params.Q, np.sign(params.Q1) * 1e200,
                              params.p, params.p1)
        targets = (rng.random((5, self.D)) < 0.2).astype(float)
        side = np.empty((5, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            dense, _ = loss_and_gradients(params, targets, targets)
            loss, _ = sparse_step(params, sparse_batch(targets, side))
        assert dense == loss == np.inf

    @pytest.mark.parametrize("s,f", [(40, "sigmoid"), (30, "identity")])
    def test_needs_an_identity_f_and_the_targets_as_inputs(self, s, f):
        params = make_params(RNG(53), s=s, h=3, d=40, f=f)
        with pytest.raises(ValueError, match="^the sparse step needs an "
                                             "identity f and an input that "
                                             "begins with the targets$"):
            sparse_step(params, (np.zeros(0, np.intp), np.zeros(0, np.intp),
                                 np.zeros(0), np.zeros((1, 0))))

    def test_an_empty_batch_is_refused(self):
        params = make_params(RNG(53), s=43, h=3, d=40)
        with pytest.raises(ValueError, match="^a batch needs at least one "
                                             "row$"):
            sparse_step(params, (np.zeros(0, np.intp), np.zeros(0, np.intp),
                                 np.zeros(0), np.zeros((0, 3))))

    @pytest.mark.parametrize("value", [5.0, -0.0, np.nan])
    def test_its_index_refuses_a_value_other_than_a_like(self, value):
        # one like of 1.0 first, so the value refused is the second's
        values = np.array([1.0, value])
        with pytest.raises(ValueError, match=r"^the sparse step reads likes "
                                             r"of value 1\.0, got "
                                             rf"{value}$"):
            sparse_index(np.array([0, 1]), np.array([3, 1]), values,
                         self.H, self.D)


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

    def test_save_holds_no_whole_document_or_nested_lists(self, tmp_path):
        # the weights stream row by row: no nested-list copy of a matrix and
        # no string of the whole document is ever held
        params = make_params(RNG(47), s=300, h=200, d=300)
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_params(path, params, {"loss_history": [0.5] * 10})
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size

    def test_load_holds_no_python_float_per_weight(self, tmp_path):
        # the read holds the file's text twice while read() decodes it; a
        # Python float and its list slot per weight, 32 bytes against about
        # 21 of its text, would add about 1.5 times the file's size
        params = make_params(RNG(53), s=300, h=100, d=250)
        path = tmp_path / "model.json"
        save_params(path, params)
        (loaded, _), peak = traced_peak(load_params, path)
        np.testing.assert_array_equal(loaded.Q1, params.Q1)
        assert peak < 2.3 * path.stat().st_size

    @pytest.mark.parametrize("key", ["Q", "Q1"])
    @pytest.mark.parametrize("edit", ["text", "boolean", "null", "huge-int",
                                      "list", "nan", "ragged", "number"])
    def test_a_malformed_last_row_gives_the_plain_loads_error(self, tmp_path,
                                                               key, edit):
        # the last row is the one read after every other has converted
        params = make_params(RNG(59), s=6, h=3, d=4)
        path = tmp_path / "model.json"
        save_params(path, params)
        doc = json.loads(path.read_text())
        shape = getattr(params, key).shape
        nested = ("setting an array element with a sequence. The requested "
                  "array has an inhomogeneous shape after {} dimensions. The "
                  "detected shape was {} + inhomogeneous part.")
        last = doc[key][-1]
        if edit == "ragged":
            last.pop()
        elif edit == "number":
            doc[key][-1] = 0.5
        else:
            last[-1] = {"text": "x", "boolean": True, "null": None,
                        "huge-int": 10 ** 400, "list": [1.0],
                        "nan": float("nan")}[edit]
        expected = {
            "text": "could not convert string to float: 'x'",
            "boolean": f"{key}: True is not a number",
            "null": f"{key}: None is not a number",
            "huge-int": "int too large to convert to float",
            "list": nested.format(2, shape),
            "nan": "parameters must be finite",
            "ragged": nested.format(1, shape[:1]),
            "number": nested.format(1, shape[:1])}[edit]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_params(path)
        assert str(info.value) == f"{path}: model JSON: {expected}"

    def test_a_deeply_nested_echo_loads(self, tmp_path):
        # 600 levels fit the stdlib's C decoder, not a decoder that walks
        # every level in Python
        echo = inner = {}
        for _ in range(600):
            inner["x"] = inner = {}
        params = make_params(RNG(61))
        path = tmp_path / "model.json"
        save_params(path, params)
        doc = json.loads(path.read_text())
        doc["training_config_echo"] = echo
        path.write_text(json.dumps(doc))
        loaded, got = load_params(path)
        assert got == echo
        np.testing.assert_array_equal(loaded.Q, params.Q)

    def test_schema_fields_present(self, tmp_path):
        path = tmp_path / "model.json"
        save_params(path, make_params(RNG(41)))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["dims"] == {"S": 4, "H": 3, "D": 2}
        assert set(doc["activations"]) == {"g", "f"}

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_params(path, make_params(RNG(43)))
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        write_json(path, doc)
        with pytest.raises(ValueError, match="schema"):
            load_params(path)


class TestParamValidation:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError, match="hidden dims"):
            SemiAEParams(Q=np.zeros((3, 2)), Q1=np.zeros((5, 3)),
                         p=np.zeros(2), p1=np.zeros(3))

    @pytest.mark.parametrize("shapes, message", [
        (((3,), (2, 2), (2,), (2,)), "Q and Q1 must be matrices"),
        (((3, 2), (2, 2, 1), (2,), (2,)), "Q and Q1 must be matrices"),
        (((3, 2), (2, 4), (3,), (4,)), "bias shapes must be (H,) and (D,)"),
        (((3, 2), (2, 4), (2,), (2,)), "bias shapes must be (H,) and (D,)")])
    def test_malformed_shapes_rejected(self, shapes, message):
        q, q1, p, p1 = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError) as info:
            SemiAEParams(Q=q, Q1=q1, p=p, p1=p1)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("s,h,d", [(10, 4, 8), (153, 500, 150)])
    def test_glorot_draws_the_numbers_of_one_draw_per_weight_matrix(self, s,
                                                                    h, d):
        # at H=500 Q and Q1 span more than two blocks and end in a partial
        # one, each drawn a block at a time
        params = glorot_init(s, h, d, rng=RNG(48))
        rng = RNG(48)
        for w, fan in ((params.Q, s + h), (params.Q1, h + d)):
            lim = np.sqrt(6.0 / fan)
            assert w.tobytes() == rng.uniform(-lim, lim, w.shape).tobytes()


def test_params_store_read_only_views_of_callers_arrays():
    arrays = dict(Q=np.zeros((3, 2)), Q1=np.zeros((2, 3)), p=np.zeros(2),
                  p1=np.zeros(3))
    params = SemiAEParams(**arrays)
    for name, arr in arrays.items():
        assert arr.flags.writeable
        assert not getattr(params, name).flags.writeable
    arrays["p1"][0] = 7.0  # the caller's buffer backs the stored view
    assert params.p1[0] == 7.0
