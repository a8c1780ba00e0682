import tracemalloc

import numpy as np
import pytest

from semiae.model import BLOCK, GradientSet
from semiae.optim import Optimizer, update

RNG = np.random.default_rng


def scalarish_params(value=1.0):
    """1x1x1 network: every parameter is effectively one scalar.  Returns
    the writable (Q, Q1, p, p1) buffers an optimizer updates in place."""
    v = float(value)
    return (np.array([[v]]), np.array([[v]]), np.array([v]), np.array([v]))


def constant_grads(value):
    v = float(value)
    return GradientSet(dQ=np.array([[v]]), dQ1=np.array([[v]]),
                       dp=np.array([v]), dp1=np.array([v]))


def random_grads(rng, params, scale=1.0):
    return GradientSet(*(rng.normal(0, scale, a.shape) for a in params))


def stepped(kind, learning_rate, params, *grads):
    """Fresh optimizer over ``params``, stepped once per gradient set."""
    state = Optimizer(kind, learning_rate, params)
    for g in grads:
        update(state, g)
    return params


class TestSgd:
    def test_one_step_arithmetic(self):
        Q, _, _, p1 = stepped("sgd", 0.1, scalarish_params(1.0),
                              constant_grads(2.0))
        assert Q[0, 0] == pytest.approx(0.8)
        assert p1[0] == pytest.approx(0.8)

    def test_zero_gradient_leaves_params_unchanged(self):
        before = scalarish_params(3.0)
        after = stepped("sgd", 0.5, scalarish_params(3.0), constant_grads(0.0))
        np.testing.assert_array_equal(after[0], before[0])

    def test_linearity_of_composed_steps(self):
        rng = RNG(0)
        value = rng.normal()
        ga = random_grads(rng, scalarish_params(value))
        gb = random_grads(rng, scalarish_params(value))
        gsum = GradientSet(ga.dQ + gb.dQ, ga.dQ1 + gb.dQ1,
                           ga.dp + gb.dp, ga.dp1 + gb.dp1)
        together = stepped("sgd", 0.05, scalarish_params(value), gsum)
        first = stepped("sgd", 0.05, scalarish_params(value), ga)
        then = stepped("sgd", 0.05, first, gb)
        np.testing.assert_allclose(together[0], then[0], rtol=1e-15)
        np.testing.assert_allclose(together[2], then[2], rtol=1e-15)


class TestRmsprop:
    def test_first_step_matches_hand_formula(self):
        eta, rho, eps, g = 0.01, 0.9, 1e-8, 2.0
        params = stepped("rmsprop", eta, scalarish_params(1.0),
                         constant_grads(g))
        acc = (1 - rho) * g * g
        expected = 1.0 - eta * g / np.sqrt(acc + eps)
        assert params[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_accumulator_carries_between_steps(self):
        eta, rho, eps, g = 0.01, 0.9, 1e-8, 2.0
        params = stepped("rmsprop", eta, scalarish_params(1.0),
                         constant_grads(g), constant_grads(g))
        acc1 = (1 - rho) * g * g
        acc2 = rho * acc1 + (1 - rho) * g * g
        expected = (1.0 - eta * g / np.sqrt(acc1 + eps)
                    - eta * g / np.sqrt(acc2 + eps))
        assert params[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_is_a_no_op(self):
        before = scalarish_params(2.0)
        after = stepped("rmsprop", 0.1, scalarish_params(2.0),
                        constant_grads(0.0))
        np.testing.assert_array_equal(after[0], before[0])


class TestAdam:
    def test_first_step_is_learning_rate_for_large_gradients(self):
        # bias-corrected m/sqrt(v) is g/|g| at t=1, so the step is ~eta
        eta = 0.001
        params = stepped("adam", eta, scalarish_params(1.0),
                         constant_grads(10.0))
        assert params[0][0, 0] == pytest.approx(1.0 - eta, rel=1e-6)

    def test_sign_symmetry(self):
        up = stepped("adam", 0.001, scalarish_params(0.0), constant_grads(-3.0))
        down = stepped("adam", 0.001, scalarish_params(0.0), constant_grads(3.0))
        assert up[0][0, 0] == pytest.approx(-down[0][0, 0], rel=1e-12)

    def test_zero_gradient_is_a_no_op(self):
        before = scalarish_params(5.0)
        after = stepped("adam", 0.1, scalarish_params(5.0), constant_grads(0.0))
        np.testing.assert_array_equal(after[0], before[0])

    def test_step_size_stays_bounded(self):
        rng = RNG(1)
        params = scalarish_params(0.0)
        state = Optimizer("adam", 0.01, params)
        for _ in range(200):
            before = params[0][0, 0]
            update(state, random_grads(rng, params, scale=10.0))
            assert abs(params[0][0, 0] - before) <= 10 * 0.01

    def test_step_counter_increments_by_one(self):
        state = Optimizer("adam", 0.1, scalarish_params(1.0))
        for expected_t in (1, 2, 3):
            update(state, constant_grads(1.0))
            assert state.t == expected_t


# Q and Q1 of the multi-block set span more than two blocks and end in a
# partial one; p and p1 fit one
# one block, two blocks (Q and Q1 of the ranking model at ml-1m shape) and
# more than two, each 2-D tensor ending in a partial block
SHAPES = {"one-block": ((4, 3), (3, 5), (3,), (5,)),
          "two-block": ((3736, 10), (10, 3706), (10,), (3706,)),
          "multi-block": ((300, 257), (257, 301), (257,), (301,))}


class TestUpdateContract:
    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_updates_in_place_against_reference_fold(self, kind):
        from util import reference_update

        rng = RNG(2)
        assert all(2 * BLOCK < np.prod(shape) and np.prod(shape) % BLOCK
                   for shape in SHAPES["multi-block"][:2])
        assert all(BLOCK < np.prod(shape) < 2 * BLOCK
                   for shape in SHAPES["two-block"][:2])
        for shapes in SHAPES.values():
            params = tuple(rng.normal(size=shape) for shape in shapes)
            state = Optimizer(kind, 0.02, params)
            theta, slots = params, None
            for t in range(1, 6):
                grads = random_grads(rng, params)
                theta, slots = reference_update(kind, 0.02, theta, slots,
                                                (grads.dQ, grads.dQ1,
                                                 grads.dp, grads.dp1), t)
                update(state, grads)
                assert state.t == t
            for ours, ref in zip(params, theta):
                assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_only_sgd_writes_its_step_into_the_gradients(self, kind):
        # sgd's step is the gradient times the learning rate, in the
        # gradient's own buffer; rmsprop and adam read the gradients only
        rng = RNG(3)
        for shapes in SHAPES.values():
            params = tuple(rng.normal(size=shape) for shape in shapes)
            grads = random_grads(rng, params)
            before = [g.copy() for g in vars(grads).values()]
            update(Optimizer(kind, 0.02, params), grads)
            for g, was in zip(vars(grads).values(), before):
                want = was * 0.02 if kind == "sgd" else was
                assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_allocates_its_accumulators_and_two_blocks(self, kind):
        rng = RNG(4)
        params = tuple(rng.normal(size=shape)
                       for shape in SHAPES["multi-block"])
        accumulators = {"sgd": 0, "rmsprop": 1, "adam": 2}[kind]
        allowed = (accumulators * sum(a.nbytes for a in params)
                   + 2 * BLOCK * 8)
        grads = random_grads(rng, params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state = Optimizer(kind, 0.01, params)
            built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            update(state, grads)
            stepped_peak = tracemalloc.get_traced_memory()[1] - built[0]
        finally:
            tracemalloc.stop()
        # a few kB of Python objects on top of the arrays
        assert built[1] - before < allowed + 16_384
        # an update allocates no array at all
        assert stepped_peak < 16_384

    def test_non_contiguous_parameter_rejected(self):
        params = list(scalarish_params())
        params[0] = np.zeros((3, 2)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            Optimizer("adam", 0.1, params)

    def test_shape_mismatch_rejected(self):
        state = Optimizer("sgd", 0.1, scalarish_params(1.0))
        grads = GradientSet(dQ=np.zeros((2, 2)), dQ1=np.zeros((1, 1)),
                            dp=np.zeros(1), dp1=np.zeros(1))
        with pytest.raises(ValueError, match="shape"):
            update(state, grads)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            Optimizer("adamw", 0.1, scalarish_params())

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            Optimizer("sgd", 0.0, scalarish_params())
