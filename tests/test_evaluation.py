import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiae.dataset import RatingDataset, binarize
from semiae.evaluation import _rank_unconsumed, most_popular, recall_at_n, rmse
from util import make_random_dataset

RNG = np.random.default_rng


def dataset_from_triples(num_users, num_items, triples, scale=(1.0, 5.0)):
    users, items, ratings = zip(*triples) if triples else ((), (), ())
    n = len(triples)
    return RatingDataset(num_users, num_items,
                         np.asarray(users, np.int32),
                         np.asarray(items, np.int32),
                         np.asarray(ratings, np.float64),
                         np.zeros(n, np.int64), rating_scale=scale)


class TestRmse:
    def test_perfect_predictions_score_zero(self):
        test = dataset_from_triples(2, 2, [(0, 0, 4.0), (1, 1, 2.0)])
        preds = np.zeros((2, 2))
        preds[0, 0] = 4.0
        preds[1, 1] = 2.0
        assert rmse(preds, test) == 0.0

    def test_hand_computed_two_triple_case(self):
        # errors (4-2) and (1-3): sqrt((4+4)/2) = 2
        test = dataset_from_triples(2, 2, [(0, 0, 4.0), (1, 1, 1.0)])
        preds = np.zeros((2, 2))
        preds[0, 0] = 2.0
        preds[1, 1] = 3.0
        assert rmse(preds, test) == pytest.approx(2.0)

    def test_single_triple_returns_absolute_error(self):
        test = dataset_from_triples(1, 1, [(0, 0, 3.0)])
        assert rmse(np.array([[3.5]]), test) == pytest.approx(0.5)

    def test_empty_test_set_rejected(self):
        test = dataset_from_triples(2, 2, [])
        with pytest.raises(ValueError, match="empty"):
            rmse(np.zeros((2, 2)), test)

    def test_positions_outside_test_set_are_ignored(self):
        test = dataset_from_triples(2, 3, [(0, 1, 4.0)])
        preds = np.full((3, 2), 4.0)
        base = rmse(preds, test)
        noisy = preds.copy()
        noisy[0, 0] = -50.0  # not a test triple
        assert rmse(noisy, test) == base

    def test_shape_mismatch_rejected(self):
        test = dataset_from_triples(2, 3, [(0, 1, 4.0)])
        with pytest.raises(ValueError, match="shape"):
            rmse(np.zeros((2, 3)), test)  # user-major layout is wrong


class TestRecallAtN:
    def binary(self, num_users, num_items, pairs):
        return dataset_from_triples(num_users, num_items,
                                    [(u, i, 1.0) for u, i in pairs],
                                    scale=(0.0, 1.0))

    def test_half_of_relevant_items_found(self):
        test = self.binary(1, 4, [(0, 0), (0, 1)])  # relevant {0, 1}
        value = recall_at_n(lambda u: [0, 3], test, 2)
        assert value == pytest.approx(50.0)

    def test_everything_found_is_one_hundred_percent(self):
        test = self.binary(2, 4, [(0, 0), (0, 1), (1, 2)])
        lists = {0: [0, 1], 1: [2, 3]}
        assert recall_at_n(lambda u: lists[u], test, 2) == pytest.approx(100.0)

    def test_n_zero_gives_zero(self):
        test = self.binary(1, 3, [(0, 1)])
        assert recall_at_n(lambda u: [1, 2], test, 0) == 0.0

    def test_negative_n_is_an_error(self):
        test = self.binary(1, 3, [(0, 1)])
        with pytest.raises(ValueError, match=">= 0"):
            recall_at_n(lambda u: [1, 2], test, -1)

    def test_no_relevant_users_is_an_error(self):
        test = self.binary(2, 2, [])
        with pytest.raises(ValueError, match="relevant"):
            recall_at_n(lambda u: [0], test, 1)

    def test_users_absent_from_test_are_excluded_from_mean(self):
        # user 1 has no test items; only user 0 enters the average
        test = self.binary(2, 4, [(0, 0)])
        assert recall_at_n(lambda u: [0], test, 1) == pytest.approx(100.0)

    def test_monotone_in_n(self):
        rng = RNG(5)
        for _ in range(30):
            ds = make_random_dataset(rng, 6, 8, 20)
            test = binarize(ds, 3.0)
            if len(test) == 0:
                continue
            ranking = {u: list(rng.permutation(8)) for u in range(6)}
            values = [recall_at_n(lambda u: ranking[u], test, n)
                      for n in range(0, 9)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestMostPopular:
    def train_counts_3_5_1(self):
        # item0 seen 3x, item1 5x, item2 1x; user 5 has no interactions
        pairs = [(u, 0) for u in range(3)] + [(u, 1) for u in range(5)] \
            + [(0, 2)]
        return dataset_from_triples(6, 3, [(u, i, 1.0) for u, i in pairs],
                                    scale=(0.0, 1.0))

    def test_ranked_by_count(self):
        train = self.train_counts_3_5_1()
        assert most_popular(train, 5, 2) == [1, 0]

    def test_equal_counts_rank_by_index(self):
        pairs = [(0, 2), (1, 1), (2, 0)]
        train = dataset_from_triples(4, 3, [(u, i, 1.0) for u, i in pairs],
                                     scale=(0.0, 1.0))
        assert most_popular(train, 3, 3) == [0, 1, 2]

    def test_consumed_top_item_is_skipped(self):
        train = self.train_counts_3_5_1()
        # user 0 consumed items 0, 1 and 2 -> everything excluded
        assert most_popular(train, 0, 3) == []
        # user 4 consumed only item 1 -> the most popular one is skipped
        assert most_popular(train, 4, 3) == [0, 2]

    def test_exclusion_rule(self):
        pairs = [(0, 1), (1, 1), (2, 1), (0, 0)]
        train = dataset_from_triples(3, 3, [(u, i, 1.0) for u, i in pairs],
                                     scale=(0.0, 1.0))
        # item1 is most popular but user 0 already has it
        assert most_popular(train, 0, 2) == [2]
        assert most_popular(train, 2, 2) == [0, 2]

    @pytest.mark.parametrize("user, n, message", [
        (6, 2, "user index 6 out of range"),
        (-1, 2, "user index -1 out of range"),
        (0, -1, "n must be >= 0")])
    def test_bad_user_or_n_rejected(self, user, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            most_popular(self.train_counts_3_5_1(), user, n)

    def test_identical_across_calls(self):
        train = self.train_counts_3_5_1()
        runs = [most_popular(train, 3, 3) for _ in range(5)]
        assert all(r == runs[0] for r in runs)
        assert runs[0] == [0, 2]  # user 3 consumed item 1

    def test_recall_matches_independent_counting(self):
        # brute-force recomputation with dict counting and manual sorting
        rng = RNG(13)
        for _ in range(10):
            ds = make_random_dataset(rng, 20, 30, 150)
            train_b = binarize(ds, 3.0)
            test_b = binarize(make_random_dataset(rng, 20, 30, 80), 3.0)
            if len(test_b) == 0 or len(train_b) == 0:
                continue
            n = 5
            fast = recall_at_n(lambda u: most_popular(train_b, u, n),
                               test_b, n)

            counts = {}
            for i in train_b.items.tolist():
                counts[i] = counts.get(i, 0) + 1
            per_user = []
            for u in sorted(set(test_b.users.tolist())):
                owned = {i for uu, i in zip(train_b.users.tolist(),
                                            train_b.items.tolist()) if uu == u}
                ranked = sorted((i for i in range(30) if i not in owned),
                                key=lambda i: (-counts.get(i, 0), i))[:n]
                relevant = {i for uu, i in zip(test_b.users.tolist(),
                                               test_b.items.tolist())
                            if uu == u}
                per_user.append(len(set(ranked) & relevant) / len(relevant))
            slow = 100.0 * sum(per_user) / len(per_user)
            assert fast == pytest.approx(slow, abs=1e-9)


def reference_rank(scores, consumed, n):
    """Sort every item by descending score, ties to the lower index, then
    drop the consumed ones."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [i for i in order.tolist() if i not in consumed][:n]


SCORE_VALUES = st.one_of(
    st.floats(-1e3, 1e3, width=64),
    st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]))


@st.composite
def ranking_cases(draw):
    """Scores drawn from a small pool, so that ties (also at the cut-off)
    are common; float pools may hold +-inf and NaN, integer pools are
    counts.  User 0 consumes a subset of the items, sometimes all of them;
    user 1 holds triples that must not affect user 0's list."""
    num_items = draw(st.integers(1, 25))
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    else:
        pool = draw(st.lists(SCORE_VALUES, min_size=1, max_size=5))
    scores = np.array(draw(st.lists(st.sampled_from(pool), min_size=num_items,
                                    max_size=num_items)))
    items = st.sets(st.integers(0, num_items - 1))
    consumed = draw(st.one_of(st.just(set(range(num_items))), items))
    other = draw(items)
    n = draw(st.integers(0, num_items + 2))
    return scores, consumed, other, n


class TestRankUnconsumed:
    @settings(max_examples=400, deadline=None)
    @given(ranking_cases())
    @example((np.array([2.0, 1.0, 1.0, 1.0, 0.0]), {3}, set(), 2))
    @example((np.array([np.nan, 1.0, np.nan, 0.0]), set(), {0}, 3))
    @example((np.array([-np.inf, np.inf, 0.0]), {1}, set(), 0))
    # a cut-off one place short drops item 3
    @example((np.array([9.0, 8.0, 5.0, 4.0, 3.0, 2.0]), {0, 1}, set(), 2))
    def test_equals_full_sort_then_filter(self, case):
        scores, consumed, other, n = case
        pairs = [(0, i) for i in sorted(consumed)] + \
            [(1, i) for i in sorted(other)]
        train = dataset_from_triples(2, len(scores),
                                     [(u, i, 1.0) for u, i in pairs],
                                     scale=(0.0, 1.0))
        assert _rank_unconsumed(scores, train, 0, n) == \
            reference_rank(scores, consumed, n)


@st.composite
def popularity_cases(draw):
    """A few users' likes over up to 25 items, so that item counts tie
    heavily; the ranked user holds some items, every item or none."""
    num_items = draw(st.integers(1, 25))
    num_users = draw(st.integers(1, 6))
    user = draw(st.integers(0, num_users - 1))
    pairs = draw(st.sets(st.tuples(st.integers(0, num_users - 1),
                                   st.integers(0, num_items - 1))))
    held = draw(st.sampled_from(["some", "every", "none"]))
    if held != "some":
        pairs = {(u, i) for u, i in pairs if u != user}
    if held == "every":
        pairs |= {(user, i) for i in range(num_items)}
    n = draw(st.integers(0, num_items + 2))
    return num_users, num_items, sorted(pairs), user, n


class TestMostPopularOrder:
    @settings(max_examples=400, deadline=None)
    @given(popularity_cases())
    @example((3, 4, [(0, 1), (1, 1), (2, 3)], 0, 6))
    @example((2, 3, [(1, 0), (1, 1), (1, 2)], 1, 3))
    @example((2, 3, [(0, 2)], 1, 0))
    def test_equals_full_sort_then_filter(self, case):
        num_users, num_items, pairs, user, n = case
        train = dataset_from_triples(num_users, num_items,
                                     [(u, i, 1.0) for u, i in pairs],
                                     scale=(0.0, 1.0))
        consumed = {i for u, i in pairs if u == user}
        assert most_popular(train, user, n) == \
            reference_rank(train.item_counts, consumed, n)
