import tracemalloc

import numpy as np
import pytest

from semiae.model import BLOCK
from semiae.optim import Optimizer, update

RNG = np.random.default_rng


def scalarish_params(value=1.0):
    """The parameter vector of a 1x1x1 network, whose Q, Q1, p and p1 are
    one scalar each, at indices 0 to 3.  An optimizer updates it in
    place."""
    return np.full(4, float(value))


def constant_grads(value):
    return np.full(4, float(value))


def random_grads(rng, theta, scale=1.0):
    return rng.normal(0, scale, theta.shape)


def tensors(vector):
    """Four consecutive views of ``vector``, standing for the Q, Q1, p and
    p1 that ``util.reference_update`` takes."""
    return tuple(np.array_split(vector, 4))


def stepped(kind, learning_rate, theta, *grads):
    """Fresh optimizer over ``theta``, stepped once per gradient vector."""
    state = Optimizer(kind, learning_rate, theta)
    for g in grads:
        update(state, g)
    return theta


class TestSgd:
    def test_one_step_arithmetic(self):
        theta = stepped("sgd", 0.1, scalarish_params(1.0),
                        constant_grads(2.0))
        assert theta[0] == pytest.approx(0.8)
        assert theta[3] == pytest.approx(0.8)

    def test_zero_gradient_leaves_params_unchanged(self):
        before = scalarish_params(3.0)
        after = stepped("sgd", 0.5, scalarish_params(3.0), constant_grads(0.0))
        np.testing.assert_array_equal(after, before)

    def test_linearity_of_composed_steps(self):
        rng = RNG(0)
        value = rng.normal()
        ga = random_grads(rng, scalarish_params(value))
        gb = random_grads(rng, scalarish_params(value))
        together = stepped("sgd", 0.05, scalarish_params(value), ga + gb)
        first = stepped("sgd", 0.05, scalarish_params(value), ga)
        then = stepped("sgd", 0.05, first, gb)
        np.testing.assert_allclose(together, then, rtol=1e-15)


class TestRmsprop:
    def test_first_step_matches_hand_formula(self):
        eta, rho, eps, g = 0.01, 0.9, 1e-8, 2.0
        theta = stepped("rmsprop", eta, scalarish_params(1.0),
                        constant_grads(g))
        acc = (1 - rho) * g * g
        expected = 1.0 - eta * g / np.sqrt(acc + eps)
        assert theta[0] == pytest.approx(expected, rel=1e-12)

    def test_accumulator_carries_between_steps(self):
        eta, rho, eps, g = 0.01, 0.9, 1e-8, 2.0
        theta = stepped("rmsprop", eta, scalarish_params(1.0),
                        constant_grads(g), constant_grads(g))
        acc1 = (1 - rho) * g * g
        acc2 = rho * acc1 + (1 - rho) * g * g
        expected = (1.0 - eta * g / np.sqrt(acc1 + eps)
                    - eta * g / np.sqrt(acc2 + eps))
        assert theta[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_is_a_no_op(self):
        before = scalarish_params(2.0)
        after = stepped("rmsprop", 0.1, scalarish_params(2.0),
                        constant_grads(0.0))
        np.testing.assert_array_equal(after, before)


class TestAdam:
    def test_first_step_is_learning_rate_for_large_gradients(self):
        # bias-corrected m/sqrt(v) is g/|g| at t=1, so the step is ~eta
        eta = 0.001
        theta = stepped("adam", eta, scalarish_params(1.0),
                        constant_grads(10.0))
        assert theta[0] == pytest.approx(1.0 - eta, rel=1e-6)

    def test_sign_symmetry(self):
        up = stepped("adam", 0.001, scalarish_params(0.0), constant_grads(-3.0))
        down = stepped("adam", 0.001, scalarish_params(0.0), constant_grads(3.0))
        assert up[0] == pytest.approx(-down[0], rel=1e-12)

    def test_zero_gradient_is_a_no_op(self):
        before = scalarish_params(5.0)
        after = stepped("adam", 0.1, scalarish_params(5.0), constant_grads(0.0))
        np.testing.assert_array_equal(after, before)

    def test_step_size_stays_bounded(self):
        rng = RNG(1)
        theta = scalarish_params(0.0)
        state = Optimizer("adam", 0.01, theta)
        for _ in range(200):
            before = theta.copy()
            update(state, random_grads(rng, theta, scale=10.0))
            assert np.all(np.abs(theta - before) <= 10 * 0.01)

    def test_step_counter_increments_by_one(self):
        state = Optimizer("adam", 0.1, scalarish_params(1.0))
        for expected_t in (1, 2, 3):
            update(state, constant_grads(1.0))
            assert state.t == expected_t


# vectors shorter than one block, of one block, of exactly two blocks and
# of more than two, ending in a partial block
SIZES = {"short": 35, "one-block": BLOCK, "two-block": 2 * BLOCK,
         "multi-block": 3 * BLOCK + 1001}


class TestUpdateContract:
    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_updates_in_place_against_reference_fold(self, kind):
        from util import reference_update

        rng = RNG(2)
        for size in SIZES.values():
            theta = rng.normal(size=size)
            state = Optimizer(kind, 0.02, theta)
            ref, slots = tensors(theta), None
            for t in range(1, 6):
                grad = random_grads(rng, theta)
                ref, slots = reference_update(kind, 0.02, ref, slots,
                                              tensors(grad), t)
                update(state, grad)
                assert state.t == t
            assert theta.tobytes() == np.concatenate(ref).tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_only_sgd_writes_its_step_into_the_gradients(self, kind):
        # sgd's step is the gradient times the learning rate, in the
        # gradient's own buffer; rmsprop and adam read the gradient only
        rng = RNG(3)
        for size in SIZES.values():
            theta = rng.normal(size=size)
            grad = random_grads(rng, theta)
            was = grad.copy()
            update(Optimizer(kind, 0.02, theta), grad)
            want = was * 0.02 if kind == "sgd" else was
            assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_allocates_its_accumulators_and_two_blocks(self, kind):
        rng = RNG(4)
        accumulators = {"sgd": 0, "rmsprop": 1, "adam": 2}[kind]
        scratch = 0 if kind == "sgd" else 2
        for size in SIZES.values():
            theta = rng.normal(size=size)
            # two scratch blocks, or two of the vector's size if shorter,
            # and none for sgd
            allowed = (accumulators * theta.nbytes
                       + scratch * min(BLOCK, size) * 8)
            grad = random_grads(rng, theta)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                state = Optimizer(kind, 0.01, theta)
                built = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                update(state, grad)
                stepped_peak = tracemalloc.get_traced_memory()[1] - built[0]
            finally:
                tracemalloc.stop()
            # a few kB of Python objects on top of the arrays
            assert built[1] - before < allowed + 16_384
            # an update allocates no array at all
            assert stepped_peak < 16_384

    def test_non_contiguous_parameter_rejected(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            Optimizer("adam", 0.1, np.zeros(8)[::2])

    @pytest.mark.parametrize("shape", [(2, 2), (1, 4), (4, 1)],
                             ids=["2x2", "1x4", "4x1"])
    def test_a_matrix_parameter_rejected(self, shape):
        # C-contiguous and writable, of any size, but not one vector
        with pytest.raises(ValueError, match="one writable C-contiguous"):
            Optimizer("sgd", 0.1, np.zeros(shape))

    def test_read_only_parameter_rejected(self):
        theta = scalarish_params()
        theta.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            Optimizer("sgd", 0.1, theta)

    def test_shape_mismatch_rejected(self):
        state = Optimizer("sgd", 0.1, scalarish_params(1.0))
        for shape in ((5,), (3,), (2, 2), (4, 1)):
            with pytest.raises(ValueError, match="shape"):
                update(state, np.zeros(shape))
        assert state.t == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            Optimizer("adamw", 0.1, scalarish_params())

    def test_nonpositive_learning_rate_rejected(self):
        for rate in (0.0, -0.1):
            with pytest.raises(ValueError, match="learning_rate"):
                Optimizer("sgd", rate, scalarish_params())

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            Optimizer("sgd", rate, scalarish_params())
