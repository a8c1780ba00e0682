import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semiae import dataset
from semiae.dataset import (FORMATS, LAYOUTS, ML100K_GENRES,
                            ML100K_OCCUPATIONS, ParseError, PreparedData,
                            RatingDataset, SideInfoMatrix, binarize,
                            build_vectors, json_numbers, load_raw_directory,
                            located, parse_item_features, parse_ratings,
                            parse_user_profiles, read_prepared, split,
                            write_json, write_prepared)
from util import (built_input, make_random_dataset, reference_input,
                  reference_parse_ratings)

RNG = np.random.default_rng


def write_lines(path, lines, encoding="ascii"):
    path.write_text("\n".join(lines) + "\n", encoding=encoding)
    return path


class TestParseRatings:
    def test_four_line_file_counts(self, tmp_path):
        path = write_lines(tmp_path / "u.data", [
            "196\t242\t3\t881250949",
            "196\t302\t3\t891717742",
            "22\t242\t1\t878887116",
            "22\t302\t4\t878887117",
        ])
        ds = parse_ratings(path, "ml-100k")
        assert ds.num_users == 2
        assert ds.num_items == 2
        assert len(ds) == 4

    def test_raw_ids_map_to_sorted_contiguous_indices(self, tmp_path):
        path = write_lines(tmp_path / "u.data", [
            "196\t242\t3\t881250949",
            "22\t302\t4\t878887117",
        ])
        ds = parse_ratings(path, "ml-100k")
        assert ds.user_ids == (22, 196)
        assert ds.item_ids == (242, 302)
        # the 196/242 line becomes (user-of-196, item-of-242, 3.0)
        assert (1, 0, 3.0, 881250949) in ds.triples()

    def test_ml1m_separator_and_encoding(self, tmp_path):
        path = write_lines(tmp_path / "ratings.dat", [
            "1::1193::5::978300760",
            "2::1193::4::978298413",
        ], encoding="latin-1")
        ds = parse_ratings(path, "ml-1m")
        assert len(ds) == 2
        assert ds.item_ids == (1193,)

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        path = write_lines(tmp_path / "u.data", [""])
        ds = parse_ratings(path, "ml-100k")
        assert len(ds) == 0
        with pytest.raises(ValueError, match="at least 2"):
            split(ds, 0.5, seed=0)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "u.data", [
            "1\t1\t5\t100",
            "1\t2\tbad\t100",
        ])
        with pytest.raises(ParseError, match=r":2:"):
            parse_ratings(path, "ml-100k")

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "u.data", ["1\t1\t5"])
        with pytest.raises(ParseError, match=r":1:.*4"):
            parse_ratings(path, "ml-100k")

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write_lines(tmp_path / "u.data", [
            "1\t1\t5\t100",
            "1\t1\t3\t200",
        ])
        with pytest.raises(ValueError, match="duplicate"):
            parse_ratings(path, "ml-100k")

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                          min_size=1, max_size=12),
           blanks=st.sets(st.integers(0, 12)))
    def test_first_repeated_pair_names_both_lines(self, pairs, blanks):
        lines, where = [], []  # where: each triple's line number
        for k, (user, item) in enumerate(pairs):
            if k in blanks:
                lines.append("")
            lines.append(f"{user}\t{item}\t3\t{100 + k}")
            where.append(len(lines))
        seen, expected = {}, None
        for k, pair in enumerate(pairs):
            if pair in seen:
                expected = (where[k], pair, where[seen[pair]])
                break
            seen[pair] = k
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "u.data", lines)
            if expected is None:
                assert len(parse_ratings(path, "ml-100k")) == len(pairs)
                return
            with pytest.raises(ParseError) as err:
                parse_ratings(path, "ml-100k")
        line, (user, item), first = expected
        assert str(err.value) == (f"{path}:{line}: duplicate (user, item) "
                                  f"pair ({user}, {item}), first on line "
                                  f"{first}")

    def test_dataset_with_a_repeated_pair_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^duplicate \(user, item\) pair in triples$"):
            RatingDataset(2, 3, np.array([1, 0, 1], np.int32),
                          np.array([2, 2, 2], np.int32), np.ones(3),
                          np.zeros(3, np.int64))

    def test_triple_arrays_of_unequal_length_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^triple arrays must have equal length$"):
            RatingDataset(2, 3, np.array([0, 1], np.int32),
                          np.array([2], np.int32), np.ones(2),
                          np.zeros(2, np.int64))

    @pytest.mark.parametrize("column, value, kind", [
        # a fractional user index, kept by split, fails in training
        ("users", np.array([0.0, 1.5, 1.0]), "integer"),
        ("users", np.array([[0], [1], [1]]), "integer"),
        ("ratings", np.array(["4", "2", "5"]), "real"),
        ("timestamps", [0, 1, 2], "integer")],
        ids=["fractional-users", "2-d-users", "str-ratings",
             "list-timestamps"])
    def test_a_column_of_the_wrong_kind_rejected(self, column, value, kind):
        arrays = {"users": np.array([0, 1, 1], np.int32),
                  "items": np.array([2, 0, 1], np.int32),
                  "ratings": np.ones(3), "timestamps": np.zeros(3, np.int64)}
        arrays[column] = value
        with pytest.raises(ValueError,
                           match=f"^{column} must be a 1-D {kind} array$"):
            RatingDataset(2, 3, **arrays)

    def test_rating_outside_scale_rejected(self, tmp_path):
        path = write_lines(tmp_path / "u.data", ["1\t1\t6\t100"])
        with pytest.raises(ParseError, match=r"\[1, 5\]"):
            parse_ratings(path, "ml-100k")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            parse_ratings(tmp_path / "u.data", "ml-10m")


# fields that make a ratings line other than plain (ASCII digits), or faulty:
# None drops the field, and "sep" is two fields
ODD_FIELDS = (None, "sep", "", "007", "+3", " 4", "5 5", "2.5", "3.", "x",
              ":7", "7:", "\xe9", "\xa03", "4\x85", "1_0", "-2", "0", "6",
              "999999999999999999", "1000000000000000000",
              "9223372036854775807", "9223372036854775808",
              "99999999999999999999", "-9223372036854775809")


@st.composite
def ratings_files(draw):
    """A format and the text of a ratings file in it: mostly plain lines
    of ids from 1 to 40 (so some pairs repeat), a few odd fields, blank
    lines, LF, CRLF or CR endings, and maybe no final newline."""
    fmt = draw(st.sampled_from(FORMATS))
    sep = LAYOUTS[fmt]["ratings"][1]
    rows = draw(st.lists(st.lists(st.integers(1, 40), min_size=4,
                                  max_size=4), max_size=30))
    lines = [[str(user), str(item), str(1 + rating % 5), str(stamp * 123456789)]
             for user, item, rating, stamp in rows]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        fields = draw(st.sampled_from(lines))
        k = draw(st.integers(0, len(fields) - 1))
        odd = draw(st.sampled_from(ODD_FIELDS))
        if odd is None:
            del fields[k]
        else:
            fields[k] = f"5{sep}5" if odd == "sep" else odd
    lines = [sep.join(fields) for fields in lines]
    for k in sorted(draw(st.sets(st.integers(0, len(lines)), max_size=2)),
                    reverse=True):
        lines.insert(k, "")
    text = "".join(line + draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
                   for line in lines)
    return fmt, (text.rstrip("\r\n") if draw(st.booleans()) else text)


class TestBlockParse:
    """parse_ratings, whose blocks are as short as 16 characters here, gives
    the bits of the line-by-line reference parser of tests/util.py, or its
    error text."""

    @settings(max_examples=400, deadline=None)
    @given(file=ratings_files(), block=st.integers(16, 64))
    @example(("ml-100k", "1\t1\t3\t5\n99999999999999999999\t1\t3\t5\n"), 16)
    @example(("ml-100k", "1\t2\t3\t9223372036854775807\n"), 16)
    @example(("ml-1m", "1::2::3::4\r\n2:::2::3::4\r\n"), 16)
    @example(("ml-1m", "11::2::3::4\r\n2::2::3::4\r\n3::3::1::4"), 16)
    @example(("ml-100k", "1\t2\t3\t4\n1\t2\t3\t5\n"), 16)
    @example(("ml-1m", "1 2::3::4\n"), 16)
    def test_equals_the_line_by_line_reference(self, file, block):
        fmt, text = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / LAYOUTS[fmt]["ratings"][0]
            path.write_bytes(text.encode("latin-1"))
            want = reference_parse_ratings(path, LAYOUTS[fmt]["ratings"][1])
            with mock.patch.object(dataset, "RATINGS_BLOCK", block):
                if isinstance(want, str):
                    with pytest.raises(ParseError) as err:
                        parse_ratings(path, fmt)
                    assert str(err.value) == want
                    return
                ds = parse_ratings(path, fmt)
        for name, expected in zip(("users", "items", "ratings", "timestamps"),
                                  want):
            assert_same_bits(getattr(ds, name), expected)
        assert (ds.user_ids, ds.item_ids) == want[4:]


class TestParseUserProfiles:
    def test_ml100k_row_encoding(self, tmp_path):
        path = write_lines(tmp_path / "u.user", ["1|24|M|technician|85711"])
        side = parse_user_profiles(path, (1,), "ml-100k")
        expected = np.zeros(30)
        expected[1] = 1.0                                    # gender=M (F first)
        expected[2 + ML100K_OCCUPATIONS.index("technician")] = 1.0
        expected[2 + 21 + 1] = 1.0                           # age 24 -> 18-24
        assert side.dim == 30
        np.testing.assert_array_equal(side.rows[0], expected)

    def test_identical_rows_encode_identically(self, tmp_path):
        path = write_lines(tmp_path / "u.user", [
            "1|24|M|technician|85711",
            "2|24|M|technician|99999",
        ])
        side = parse_user_profiles(path, (1, 2), "ml-100k")
        np.testing.assert_array_equal(side.rows[0], side.rows[1])

    def test_ml1m_age_code_1_hits_first_bucket(self, tmp_path):
        path = write_lines(tmp_path / "users.dat", ["1::F::1::10::48067"],
                           encoding="latin-1")
        side = parse_user_profiles(path, (1,), "ml-1m")
        age_block = side.rows[0][2 + 21:]
        np.testing.assert_array_equal(age_block,
                                      [1, 0, 0, 0, 0, 0, 0])

    def test_age_bucket_boundaries(self, tmp_path):
        rows = [f"{k}|{age}|F|student|11111"
                for k, age in enumerate([17, 18, 24, 25, 44, 45, 49, 50, 55, 56, 80], 1)]
        side = parse_user_profiles(write_lines(tmp_path / "u.user", rows),
                                   range(1, 12), "ml-100k")
        buckets = side.rows[:, 2 + 21:].argmax(axis=1)
        assert buckets.tolist() == [0, 1, 1, 2, 3, 4, 4, 5, 5, 6, 6]

    def test_unknown_occupation_lists_vocabulary(self, tmp_path):
        path = write_lines(tmp_path / "u.user", ["1|24|M|astronaut|85711"])
        with pytest.raises(ParseError, match="technician"):
            parse_user_profiles(path, (1,), "ml-100k")

    def test_nonpositive_age_rejected(self, tmp_path):
        path = write_lines(tmp_path / "u.user", ["1|0|M|technician|85711"])
        with pytest.raises(ParseError, match="age"):
            parse_user_profiles(path, (1,), "ml-100k")

    def test_every_block_has_exactly_one_hot_entry(self, ml100k_dir):
        side = load_raw_directory(ml100k_dir, "ml-100k").user_side
        np.testing.assert_array_equal(side.rows[:, :2].sum(axis=1), 1.0)
        np.testing.assert_array_equal(side.rows[:, 2:2 + 21].sum(axis=1), 1.0)
        np.testing.assert_array_equal(side.rows[:, 2 + 21:].sum(axis=1), 1.0)


class TestParseItemFeatures:
    def item_line(self, iid, year="1995", genres=("Action", "Comedy"),
                  release=None):
        flags = ["1" if g in genres else "0" for g in ML100K_GENRES]
        if release is None:
            release = f"01-Jan-{year}" if year else ""
        title = f"Movie {iid} ({year})" if year else f"Movie {iid}"
        return f"{iid}|{title}|{release}||http://x|" + "|".join(flags)

    def test_genre_flags_and_year_scalar(self, tmp_path):
        path = write_lines(tmp_path / "u.item", [self.item_line(1)],
                           encoding="latin-1")
        side = parse_item_features(path, (1,), "ml-100k")
        row = side.rows[0]
        assert row[ML100K_GENRES.index("Action")] == 1.0
        assert row[ML100K_GENRES.index("Comedy")] == 1.0
        assert row[:19].sum() == 2.0
        assert row[-1] == pytest.approx(0.95)

    def test_missing_year_gives_zero_and_warning_count(self, tmp_path):
        path = write_lines(tmp_path / "u.item",
                           [self.item_line(1, year=None, genres=())],
                           encoding="latin-1")
        side = parse_item_features(path, (1,), "ml-100k")
        np.testing.assert_array_equal(side.rows[0], np.zeros(20))
        assert side.num_missing_year == 1

    def test_year_scalar_clamps_at_both_ends(self, tmp_path):
        path = write_lines(tmp_path / "u.item", [
            self.item_line(1, year="1900"),
            self.item_line(2, year="2000"),
        ], encoding="latin-1")
        side = parse_item_features(path, (1, 2), "ml-100k")
        np.testing.assert_array_equal(side.rows[0][:-1], side.rows[1][:-1])
        assert side.rows[0][-1] == 0.0
        assert side.rows[1][-1] == 1.0

    def test_year_scalar_clamps_beyond_both_ends(self, tmp_path):
        path = write_lines(tmp_path / "u.item", [
            self.item_line(1, year="1895"),
            self.item_line(2, year="2010"),
        ], encoding="latin-1")
        side = parse_item_features(path, (1, 2), "ml-100k")
        assert side.rows[:, -1].tolist() == [0.0, 1.0]
        assert not np.signbit(side.rows[0][-1])

    def test_ml1m_format_and_unknown_genre(self, tmp_path):
        good = write_lines(tmp_path / "movies.dat",
                           ["1::Toy Story (1995)::Animation|Children's|Comedy"],
                           encoding="latin-1")
        side = parse_item_features(good, (1,), "ml-1m")
        assert side.dim == 19
        assert side.rows[0].sum() == pytest.approx(3 + 0.95)
        bad = write_lines(tmp_path / "movies2.dat",
                          ["1::Oddity (1995)::Mockumentary"],
                          encoding="latin-1")
        with pytest.raises(ParseError, match="unknown genre"):
            parse_item_features(bad, (1,), "ml-1m")


class TestSideFileFaults:
    """A fault in a raw file is a ParseError naming the file and the line."""

    @pytest.mark.parametrize("fmt, name, line", [
        ("ml-100k", "u.user", "1|37|M|writer|12345"),
        ("ml-100k", "u.item", "1|Copy (1995)|01-Jan-1995||http://x|"
                              + "|".join("0" * 19)),
        ("ml-1m", "users.dat", "1::M::25::3::12345"),
        ("ml-1m", "movies.dat", "1::Copy (1995)::Drama"),
    ])
    def test_duplicate_side_id_names_file_line_and_id(self, fmt, name, line,
                                                      ml100k_dir, ml1m_dir,
                                                      tmp_path):
        raw = ml100k_dir if fmt == "ml-100k" else ml1m_dir
        text = (raw / name).read_text(encoding="latin-1")
        path = tmp_path / name
        path.write_text(text + line + "\n", encoding="latin-1")
        kind = "user" if "user" in name else "item"
        parse = parse_user_profiles if kind == "user" else parse_item_features
        lineno = len(text.splitlines()) + 1
        with pytest.raises(ParseError,
                           match=rf"{name}:{lineno}: duplicate {kind} id 1$"):
            parse(path, (), fmt)

    @pytest.mark.parametrize("name", ["u.data", "u.user"])
    def test_utf8_bom_names_the_file_and_line_one(self, name, ml100k_dir,
                                                  tmp_path):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (ml100k_dir / name).read_bytes())
        with pytest.raises(ParseError, match=rf"{name}:1: "):
            if name == "u.data":
                parse_ratings(path, "ml-100k")
            else:
                parse_user_profiles(path, (), "ml-100k")

    # the 1-based numeric fields of each raw file: ids, ages, codes,
    # ratings and timestamps
    @pytest.mark.parametrize("fmt, role, field", [
        *(("ml-100k", "ratings", k) for k in (1, 2, 3, 4)),
        ("ml-100k", "users", 1), ("ml-100k", "users", 2),
        ("ml-100k", "items", 1),
        *(("ml-1m", "ratings", k) for k in (1, 2, 3, 4)),
        ("ml-1m", "users", 1), ("ml-1m", "users", 3), ("ml-1m", "users", 4),
        ("ml-1m", "items", 1),
    ])
    def test_non_ascii_numeric_field_names_file_line_and_field(
            self, fmt, role, field, ml100k_dir, ml1m_dir, tmp_path):
        raw = ml100k_dir if fmt == "ml-100k" else ml1m_dir
        name, sep, _ = LAYOUTS[fmt][role]
        lines = (raw / name).read_text(encoding="latin-1").splitlines()
        fields = lines[2].split(sep)
        fields[field - 1] = "\xa0" + fields[field - 1]  # a no-break space
        lines[2] = sep.join(fields)
        path = write_lines(tmp_path / name, lines, encoding="latin-1")
        parse = {"ratings": parse_ratings,
                 "users": lambda path, fmt: parse_user_profiles(path, (), fmt),
                 "items": lambda path, fmt: parse_item_features(path, (), fmt)
                 }[role]
        with pytest.raises(ParseError, match=rf"{name}:3: non-ASCII "
                           rf"character in numeric field {field}: "):
            parse(path, fmt)

    def test_latin1_bytes_outside_the_numeric_fields_are_read(self, tmp_path):
        path = write_lines(tmp_path / "u.user", ["1|24|M|technician|8571\xe9"],
                           encoding="latin-1")
        assert parse_user_profiles(path, (1,), "ml-100k").num_entities == 1

    @pytest.mark.parametrize("name", ["u.user", "u.item"])
    def test_rated_entity_without_side_row_names_the_side_file(
            self, name, ml100k_dir, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        for path in ml100k_dir.iterdir():
            lines = path.read_bytes().splitlines(keepends=True)
            (raw / path.name).write_bytes(b"".join(
                lines[1:] if path.name == name else lines))
        with pytest.raises(ValueError,
                           match=rf"{name}: no side information .*\[1\]"):
            load_raw_directory(raw, "ml-100k")


class TestSideInfoMatrix:
    BAD_COUNTS = {"negative-count": -1, "float-count": 1.0, "bool-count": True,
                  "string-count": "1", "list-count": [1, "x"],
                  "id-tuple-count": (1, 2)}

    @pytest.mark.parametrize("rows, labels, missing_year, message", [
        (np.zeros(2), ("a",), 0, "rows must be a 2-d matrix"),
        (np.zeros((2, 2)), ("a",), 0,
         "column_labels length must match row width"),
        (np.array([[0.0], [np.inf]]), ("a",), 0,
         "side information entries must be finite"),
        *((np.zeros((2, 1)), ("a",), bad,
           f"num_missing_year {bad!r} is not a non-negative integer")
          for bad in BAD_COUNTS.values())],
        ids=["1-d-rows", "short-labels", "infinite-entry", *BAD_COUNTS])
    def test_malformed_matrix_rejected(self, rows, labels, missing_year,
                                       message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SideInfoMatrix(rows, labels, missing_year)


class TestSideRowsInDatasetOrder:
    """The side parsers give one row per raw id they are asked for, in that
    order, from a file whose lines may come in any order and may list ids
    that were never rated."""

    USERS = ["5|30|F|artist|11111", "7|20|M|writer|33333",
             "2|50|M|doctor|22222"]

    def test_rows_follow_the_raw_ids_not_the_file(self, tmp_path):
        path = write_lines(tmp_path / "u.user", self.USERS)
        every = parse_user_profiles(path, (5, 7, 2), "ml-100k")
        side = parse_user_profiles(path, (2, 7, 5), "ml-100k")
        np.testing.assert_array_equal(side.rows, every.rows[::-1])

    def test_lines_of_other_ids_are_dropped(self, tmp_path):
        path = write_lines(tmp_path / "u.user", self.USERS)
        every = parse_user_profiles(path, (5, 7, 2), "ml-100k")
        side = parse_user_profiles(path, (2, 5), "ml-100k")
        assert side.num_entities == 2
        np.testing.assert_array_equal(side.rows, every.rows[[2, 0]])

    def test_year_count_covers_dropped_lines(self, tmp_path):
        item = TestParseItemFeatures().item_line
        path = write_lines(tmp_path / "u.item", [
            item(3, year=None), item(1), item(2, year="1980")],
            encoding="latin-1")
        side = parse_item_features(path, (2, 1), "ml-100k")
        assert side.rows[:, -1].tolist() == [pytest.approx(0.8),
                                             pytest.approx(0.95)]
        assert side.num_missing_year == 1

    def test_a_dropped_line_is_still_checked(self, tmp_path):
        path = write_lines(tmp_path / "u.user",
                           self.USERS + ["9|40|F|astronaut|44444"])
        with pytest.raises(ParseError, match=r"u\.user:4: unknown occupation"):
            parse_user_profiles(path, (5, 2), "ml-100k")

    @pytest.mark.parametrize("parse, name, line", [
        (parse_user_profiles, "u.user", "5|30|F|artist|11111"),
        (parse_item_features, "u.item",
         TestParseItemFeatures().item_line(5))], ids=["users", "items"])
    def test_missing_id_is_an_error_naming_the_side_file(self, parse, name,
                                                         line, tmp_path):
        path = write_lines(tmp_path / name, [line], encoding="latin-1")
        with pytest.raises(ValueError) as err:
            parse(path, (2, 5, 8), "ml-100k")
        assert not isinstance(err.value, ParseError)
        assert str(err.value) == f"{path}: no side information for raw ids [2, 8]"


class TestSplit:
    def test_ten_triples_fraction_point_eight(self):
        ds = make_random_dataset(RNG(0), 5, 5, 10)
        train, test = split(ds, 0.8, seed=1)
        assert len(train) == 8
        assert len(test) == 2

    def test_round_half_up(self):
        ds = make_random_dataset(RNG(0), 11, 11, 101)
        train, test = split(ds, 0.5, seed=3)
        assert len(train) == 51
        assert len(test) == 50

    def test_same_seed_same_partition(self):
        ds = make_random_dataset(RNG(1), 8, 9, 40)
        a_train, a_test = split(ds, 0.7, seed=42)
        b_train, b_test = split(ds, 0.7, seed=42)
        np.testing.assert_array_equal(a_train.users, b_train.users)
        np.testing.assert_array_equal(a_train.items, b_train.items)
        np.testing.assert_array_equal(a_test.ratings, b_test.ratings)

    def test_partition_is_complete_and_disjoint(self):
        rng = RNG(5)
        for _ in range(50):
            m, n = rng.integers(2, 10, 2)
            count = int(rng.integers(2, m * n + 1))
            ds = make_random_dataset(rng, int(m), int(n), count)
            frac = float(rng.uniform(0.05, 0.95))
            train, test = split(ds, frac, seed=int(rng.integers(1 << 30)))
            keys = lambda d: set(zip(d.users.tolist(), d.items.tolist()))
            assert keys(train) | keys(test) == keys(ds)
            assert not keys(train) & keys(test)
            assert train.num_users == ds.num_users
            assert test.num_items == ds.num_items

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_outside_open_interval_rejected(self, fraction):
        ds = make_random_dataset(RNG(0), 4, 4, 8)
        with pytest.raises(ValueError, match="train_fraction"):
            split(ds, fraction, seed=0)

    def test_negative_seed_rejected_by_name(self):
        ds = make_random_dataset(RNG(0), 4, 4, 8)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            split(ds, 0.5, seed=-1)


class TestBinarize:
    def make(self, ratings):
        n = len(ratings)
        return RatingDataset(
            num_users=1, num_items=n,
            users=np.zeros(n, np.int32),
            items=np.arange(n, dtype=np.int32),
            ratings=np.asarray(ratings, np.float64),
            timestamps=np.arange(n, dtype=np.int64),
        )

    def test_strictly_greater_keeps_only_likes(self):
        ds = self.make([5, 4, 2])
        out = binarize(ds, 4.0)
        assert len(out) == 1
        assert out.items.tolist() == [0]
        assert out.ratings.tolist() == [1.0]
        assert out.rating_scale == (0.0, 1.0)

    def test_threshold_zero_keeps_everything_as_one(self):
        out = binarize(self.make([1, 3, 5]), 0.0)
        assert out.ratings.tolist() == [1.0, 1.0, 1.0]

    def test_threshold_at_scale_max_empties_the_set(self):
        assert len(binarize(self.make([1, 3, 5]), 5.0)) == 0

    def test_greater_equal_comparison(self):
        out = binarize(self.make([5, 4, 2]), 4.0, comparison=">=")
        assert len(out) == 2

    def test_source_dataset_unchanged(self):
        ds = self.make([5, 4, 2])
        binarize(ds, 4.0)
        assert ds.ratings.tolist() == [5.0, 4.0, 2.0]


def side_info(rng, num_entities, dim):
    """Random side information for ``num_entities`` rows, ``dim`` wide."""
    return SideInfoMatrix(rng.normal(size=(num_entities, dim)),
                          tuple(f"c{k}" for k in range(dim)))


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.flags.c_contiguous
    assert actual.tobytes() == expected.tobytes()


class TestBuildVectors:
    """build_vectors against the plain construction of tests/util.py: a
    user's row from the dataset, an item's from its transpose."""

    def assert_equals_reference(self, ds, side, orientation, rows=None):
        x, mask = built_input(ds if orientation == "user" else ds.T, side,
                              rows)
        expected_x, expected_mask = reference_input(ds, side, orientation)
        if rows is not None:
            expected_x, expected_mask = expected_x[rows], expected_mask[rows]
        assert_same_bits(x, expected_x)
        assert_same_bits(mask, expected_mask)
        return x, mask

    def test_single_observation(self):
        ds = RatingDataset(2, 2, np.array([0], np.int32), np.array([0], np.int32),
                           np.array([5.0]), np.array([0], np.int64))
        x, mask = built_input(ds, side_info(RNG(0), 2, 0))
        np.testing.assert_array_equal(x, [[5, 0], [0, 0]])
        np.testing.assert_array_equal(mask, [[True, False], [False, False]])

    def test_item_orientation_is_exact_transpose(self):
        rng = RNG(9)
        for _ in range(20):
            ds = make_random_dataset(rng, 5, 7, 15)
            by_user = built_input(ds, side_info(rng, 5, 2))
            by_item = built_input(ds.T, side_info(rng, 7, 3))
            np.testing.assert_array_equal(by_user[0][:, :7].T,
                                          by_item[0][:, :5])
            np.testing.assert_array_equal(by_user[1].T, by_item[1])

    def test_fully_observed_mask_all_true(self):
        ds = make_random_dataset(RNG(2), 3, 3, 9)
        assert built_input(ds, side_info(RNG(1), 3, 2))[1].all()

    @pytest.mark.parametrize("orientation", ["user", "item"])
    def test_equals_dense_user_matrix_construction(self, orientation):
        ds = make_random_dataset(RNG(4), 9, 13, 50, integer_ratings=False)
        n, width = (9, 13) if orientation == "user" else (13, 9)
        for dim in (4, 0):
            x, mask = self.assert_equals_reference(
                ds, side_info(RNG(5), n, dim), orientation)
            assert x.shape == (n, width + dim) and mask.shape == (n, width)

    @pytest.mark.parametrize("orientation", ["user", "item"])
    def test_row_subsets_equal_the_reference_rows(self, orientation):
        # a training batch: any rows, in any order, repeated or none
        ds = make_random_dataset(RNG(14), 9, 13, 50, integer_ratings=False)
        n = 9 if orientation == "user" else 13
        rng = RNG(15)
        subsets = [[], [3], [n - 1, 0], [2, 2, 5], rng.permutation(n),
                   rng.choice(n, 4, replace=False)]
        for rows in subsets:
            for dim in (4, 0):
                self.assert_equals_reference(ds, side_info(RNG(5), n, dim),
                                             orientation, rows)

    def test_without_a_mask_writes_the_input_alone(self):
        ds = make_random_dataset(RNG(16), 6, 5, 12)
        side = side_info(RNG(17), 6, 2)
        x = np.full((3, 7), np.nan)
        build_vectors(ds, side, [4, 0, 4], x)
        assert_same_bits(x, built_input(ds, side, [4, 0, 4])[0])

    @pytest.mark.parametrize("x_shape, mask_shape", [
        ((2, 7), (3, 5)), ((3, 6), (3, 5)), ((3, 7), (3, 4))])
    def test_buffers_must_fit_the_rows(self, x_shape, mask_shape):
        ds = make_random_dataset(RNG(18), 6, 5, 12)
        with pytest.raises(ValueError, match="do not fit 3 rows of 5 \\+ 2"):
            build_vectors(ds, side_info(RNG(19), 6, 2), [0, 1, 2],
                          np.empty(x_shape), np.empty(mask_shape, bool))

    @pytest.mark.parametrize("orientation", ["user", "item"])
    def test_entities_without_triples(self, orientation):
        # users 0 and 3, items 1 and 4 have no triple; then no triple at all
        ds = RatingDataset(5, 6, np.array([1, 2, 4, 4], np.int32),
                           np.array([0, 5, 2, 3], np.int32),
                           np.array([4.0, 1.0, 2.5, 5.0]),
                           np.zeros(4, np.int64))
        n = 5 if orientation == "user" else 6
        x, mask = self.assert_equals_reference(ds, side_info(RNG(8), n, 3),
                                               orientation)
        empty = [0, 3] if orientation == "user" else [1, 4]
        assert not mask[empty].any() and not x[empty, :-3].any()
        none = RatingDataset(5, 6, *(np.empty(0, t) for t in
                                     (np.int32, np.int32, np.float64,
                                      np.int64)))
        x, mask = self.assert_equals_reference(none, side_info(RNG(8), n, 3),
                                               orientation)
        assert not mask.any() and not x[:, :-3].any()

    @pytest.mark.parametrize("orientation", ["user", "item"])
    def test_observed_zero_rating_stays_observed(self, orientation):
        ds = RatingDataset(2, 3, np.array([0, 0, 1], np.int32),
                           np.array([0, 2, 1], np.int32),
                           np.array([0.0, 1.0, 0.0]), np.zeros(3, np.int64),
                           rating_scale=(0.0, 1.0))
        n = 2 if orientation == "user" else 3
        x, mask = self.assert_equals_reference(ds, side_info(RNG(9), n, 1),
                                               orientation)
        assert mask.sum() == 3
        assert (x[:, :-1] != 0).sum() == 1

    @pytest.mark.parametrize("orientation,expected", [
        ("user", "side information has 2 rows for 3 rating rows"),
        ("item", "side information has 2 rows for 4 rating rows")])
    def test_side_must_cover_every_row_entity(self, orientation, expected):
        ds = make_random_dataset(RNG(3), 3, 4, 6)
        with pytest.raises(ValueError, match=f"^{expected}$"):
            built_input(ds if orientation == "user" else ds.T,
                        side_info(RNG(3), 2, 1))


class TestTranspose:
    """``ds.T`` is the dataset with users and items swapped, sharing its
    triple arrays: an item's row of ratings is the user row of ``T``."""

    def dataset(self):
        ds = make_random_dataset(RNG(21), 6, 9, 25)
        return replace(ds, user_ids=tuple(range(10, 16)),
                       item_ids=tuple(range(100, 109)), rating_scale=(0, 7))

    def test_swaps_counts_arrays_and_id_maps(self):
        ds = self.dataset()
        t = ds.T
        assert (t.num_users, t.num_items) == (9, 6)
        assert t.user_ids == ds.item_ids and t.item_ids == ds.user_ids
        assert t.rating_scale == ds.rating_scale
        for mine, theirs in ((t.users, ds.items), (t.items, ds.users),
                             (t.ratings, ds.ratings),
                             (t.timestamps, ds.timestamps)):
            assert_same_bits(mine, theirs)
            assert np.shares_memory(mine, theirs)
            assert not mine.flags.writeable
        assert [(i, u, r, s) for u, i, r, s in ds.triples()] == t.triples()
        assert t is ds.T
        assert t.T.triples() == ds.triples()
        assert (t.T.num_users, t.T.user_ids) == (ds.num_users, ds.user_ids)

    def test_user_index_is_the_stable_item_index(self):
        # the item-major index of ds: the stable argsort of its items
        for ds in (self.dataset(), make_random_dataset(RNG(22), 40, 10, 300)):
            perm = RNG(23).permutation(len(ds))
            shuffled = replace(ds, users=ds.users[perm], items=ds.items[perm],
                               ratings=ds.ratings[perm],
                               timestamps=ds.timestamps[perm])
            for d in (ds, shuffled):
                order = np.argsort(d.items, kind="stable")
                indptr = np.concatenate(
                    [[0], np.cumsum(np.bincount(d.items,
                                                minlength=d.num_items))])
                got = d.T.by_user
                assert_same_bits(got[0], indptr.astype(np.int64))
                assert_same_bits(got[1], d.users[order])
                assert_same_bits(got[2], d.ratings[order])


class TestPerUserIndex:
    """Each dataset object indexes its own triples by user, and its
    transpose by item: split halves and binarized sets get their own
    indexes, item counts and popularity orders, read-only."""

    def assert_indexes_own_triples(self, ds):
        indptr, items, ratings = ds.by_user
        assert indptr.tolist()[0] == 0 and indptr.tolist()[-1] == len(ds)
        assert len(indptr) == ds.num_users + 1
        for u in range(ds.num_users):
            owned = [(i, r) for uu, i, r, _ in ds.triples() if uu == u]
            lo, hi = indptr[u], indptr[u + 1]
            assert list(zip(items[lo:hi].tolist(),
                            ratings[lo:hi].tolist())) == owned
            got_items, got_ratings = ds.user_slice(u)
            assert got_items.tolist() == [i for i, _ in owned]
            assert got_ratings.tolist() == [r for _, r in owned]
        # and its transpose's, by item
        indptr, users, ratings = ds.T.by_user
        assert len(indptr) == ds.num_items + 1
        for i in range(ds.num_items):
            owned = [(u, r) for u, ii, r, _ in ds.triples() if ii == i]
            lo, hi = indptr[i], indptr[i + 1]
            assert list(zip(users[lo:hi].tolist(),
                            ratings[lo:hi].tolist())) == owned
        counts = [0] * ds.num_items
        for i in ds.items.tolist():
            counts[i] += 1
        assert ds.item_counts.tolist() == counts
        assert ds.popularity.tolist() == sorted(range(ds.num_items),
                                                key=lambda i: (-counts[i], i))
        for arr in (*ds.by_user, *ds.T.by_user, ds.item_counts,
                    ds.popularity):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        assert ds.by_user is ds.by_user and ds.T.by_user is ds.T.by_user
        assert ds.item_counts is ds.item_counts
        assert ds.popularity is ds.popularity

    def test_split_and_binarized_sets(self, ml100k_dir):
        ds = load_raw_directory(ml100k_dir, "ml-100k").ratings
        self.assert_indexes_own_triples(ds)  # built before deriving others
        train, test = split(ds, 0.3, 4)
        derived = (train, test, binarize(train, 3.0), binarize(test, 3.0),
                   binarize(ds, 5.0))
        assert len(derived[-1]) == 0
        for half in derived:
            self.assert_indexes_own_triples(half)
            assert half.by_user[0] is not ds.by_user[0]
            assert half.item_counts is not ds.item_counts
            assert half.popularity is not ds.popularity

    def test_shuffled_triples_keep_their_order_within_a_user(self):
        ds = make_random_dataset(RNG(6), 10, 40, 300)
        perm = RNG(7).permutation(len(ds))
        shuffled = RatingDataset(10, 40, ds.users[perm], ds.items[perm],
                                 ds.ratings[perm], ds.timestamps[perm])
        self.assert_indexes_own_triples(shuffled)

    def test_users_and_items_without_triples(self):
        ds = RatingDataset(4, 5, np.array([2, 0, 2], np.int32),
                           np.array([4, 1, 0], np.int32),
                           np.array([3.0, 5.0, 1.0]), np.zeros(3, np.int64))
        self.assert_indexes_own_triples(ds)
        assert ds.by_user[0].tolist() == [0, 1, 1, 3, 3]
        assert ds.user_slice(2)[0].tolist() == [4, 0]


class TestPreparedRoundTrip:
    def test_round_trip_and_deterministic_bytes(self, ml100k_dir, tmp_path):
        raw = load_raw_directory(ml100k_dir, "ml-100k")
        side = raw.user_side
        # and K=0: no profile columns at all
        no_profiles = PreparedData(raw.ratings, SideInfoMatrix(
            np.empty((side.num_entities, 0)), ()),
            raw.item_side)
        for data in (raw, no_profiles):
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            write_prepared(p1, data)
            write_prepared(p2, data)
            assert hashlib.sha256(p1.read_bytes()).hexdigest() == \
                hashlib.sha256(p2.read_bytes()).hexdigest()
            back = read_prepared(p1)
            ds, orig = back.ratings, data.ratings
            np.testing.assert_array_equal(ds.users, orig.users)
            np.testing.assert_array_equal(ds.ratings, orig.ratings)
            assert ds.user_ids == orig.user_ids
            assert back.user_side.rows.shape == data.user_side.rows.shape
            np.testing.assert_array_equal(back.user_side.rows,
                                          data.user_side.rows)
            np.testing.assert_array_equal(back.item_side.rows,
                                          data.item_side.rows)

    def test_dataset_without_ids_reads_back_with_the_identity_maps(
            self, tmp_path):
        ds = RatingDataset(2, 3, np.array([0, 1], np.int32),
                           np.array([2, 0], np.int32), np.array([4.0, 2.0]),
                           np.zeros(2, np.int64))
        path = tmp_path / "p.json"
        write_prepared(path, PreparedData(
            ds, SideInfoMatrix(np.empty((2, 0)), ()),
            SideInfoMatrix(np.ones((3, 1)), ("year",))))
        back = read_prepared(path).ratings
        assert (back.user_ids, back.item_ids) == ((0, 1), (0, 1, 2))
        assert back.triples() == ds.triples()

    def test_dataset_without_users_reads_back(self, tmp_path):
        # the empty user side is written as [], which holds no row of width 2
        ds = RatingDataset(0, 1, np.empty(0, np.int32), np.empty(0, np.int32),
                           np.empty(0), np.empty(0, np.int64))
        path = tmp_path / "p.json"
        write_prepared(path, PreparedData(
            ds, SideInfoMatrix(np.empty((0, 2)), ("a", "b")),
            SideInfoMatrix(np.ones((1, 1)), ("year",))))
        assert json.loads(path.read_text())["user_side_info"]["rows"] == []
        back = read_prepared(path)
        assert back.user_side.rows.shape == (0, 2)
        assert back.item_side.rows.shape == (1, 1)

    def test_ml1m_directory_loads(self, ml1m_dir):
        data = load_raw_directory(ml1m_dir, "ml-1m")
        assert data.user_side.dim == 30
        assert data.item_side.dim == 19
        assert len(data.ratings) == 400

    def test_id_maps_are_empty_or_one_entry_per_index(self):
        arrays = (np.array([0, 1], np.int32), np.array([2, 0], np.int32),
                  np.array([4.0, 2.0]), np.zeros(2, np.int64))
        RatingDataset(2, 3, *arrays)
        RatingDataset(2, 3, *arrays, user_ids=(7, 9), item_ids=(1, 2, 5))
        with pytest.raises(ValueError, match="item_ids has 2 entries for 3"):
            RatingDataset(2, 3, *arrays, user_ids=(7, 9), item_ids=(1, 2))
        with pytest.raises(ValueError, match="user_ids has 3 entries for 2"):
            RatingDataset(2, 3, *arrays, user_ids=(7, 8, 9))

    def test_missing_file_names_the_expectation(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="u.data"):
            load_raw_directory(tmp_path, "ml-100k")


# mutation -> the roles of the raw files it applies to
MUTATIONS = {
    "crlf": ("ratings", "users", "items"),
    "bom": ("ratings", "users", "items"),
    "blank-line": ("ratings", "users", "items"),
    "trailing-separator": ("ratings", "users", "items"),
    "latin1-title": ("items",),
    "duplicate-id": ("users", "items"),
    "rated-id-removed": ("users", "items"),
}


def assert_same_load(got: PreparedData, want: PreparedData):
    for name in ("users", "items", "ratings", "timestamps"):
        assert_same_bits(getattr(got.ratings, name),
                         getattr(want.ratings, name))
    assert got.ratings.user_ids == want.ratings.user_ids
    assert got.ratings.item_ids == want.ratings.item_ids
    for side in ("user_side", "item_side"):
        a, b = getattr(got, side), getattr(want, side)
        assert_same_bits(a.rows, b.rows)
        assert (a.column_labels, a.num_missing_year) == \
            (b.column_labels, b.num_missing_year)


class TestOneParserUnderMutation:
    """A mutated raw directory of either layout loads exactly like the clean
    one, or fails with a ValueError naming the mutated file; a ParseError
    also names the line, the mutated one where there is one."""

    @pytest.fixture(scope="class")
    def clean(self, ml100k_dir, ml1m_dir):
        return {fmt: (raw, load_raw_directory(raw, fmt))
                for fmt, raw in (("ml-100k", ml100k_dir), ("ml-1m", ml1m_dir))}

    @staticmethod
    def mutate(lines: list[bytes], mutation: str, sep: bytes, raw_ids,
               draw) -> tuple[list[bytes], int | None]:
        """The mutated lines, and the 1-based line that must fail (0 for
        an error with no line, None for a clean load)."""
        pick = lambda: draw(st.integers(0, len(lines) - 1))  # noqa: E731
        if mutation == "crlf":
            return [line + b"\r" for line in lines], None
        if mutation == "bom":
            return [b"\xef\xbb\xbf" + lines[0]] + lines[1:], 1
        if mutation == "blank-line":
            k = draw(st.integers(0, len(lines)))
            return lines[:k] + [b""] + lines[k:], None
        if mutation == "trailing-separator":
            k = pick()
            return lines[:k] + [lines[k] + sep] + lines[k + 1:], k + 1
        if mutation == "latin1-title":
            k = pick()
            fields = lines[k].split(sep)
            fields[1] = b"Caf\xe9 \xabn\xbb " + fields[1]
            return lines[:k] + [sep.join(fields)] + lines[k + 1:], None
        if mutation == "duplicate-id":
            k = pick()
            j = draw(st.integers(k + 1, len(lines)))
            return lines[:j] + [lines[k]] + lines[j:], j + 1
        rated = [k for k, line in enumerate(lines)
                 if int(line.split(sep)[0]) in raw_ids]
        k = draw(st.sampled_from(rated))
        return lines[:k] + lines[k + 1:], 0

    @settings(max_examples=200, deadline=None)
    @given(fmt=st.sampled_from(FORMATS), mutation=st.sampled_from(
        sorted(MUTATIONS)), data=st.data())
    def test_mutated_directory(self, clean, fmt, mutation, data):
        raw, want = clean[fmt]
        role = data.draw(st.sampled_from(MUTATIONS[mutation]), label="role")
        name, sep, _ = LAYOUTS[fmt][role]
        sep = sep.encode()
        raw_ids = (want.ratings.user_ids if role == "users"
                   else want.ratings.item_ids)
        with tempfile.TemporaryDirectory() as tmp:
            for path in raw.iterdir():
                lines = path.read_bytes().splitlines()
                if path.name == name:
                    lines, fail_at = self.mutate(lines, mutation, sep,
                                                 raw_ids, data.draw)
                    mutated = lines
                (Path(tmp) / path.name).write_bytes(
                    b"".join(line + b"\n" for line in lines))
            if fail_at is None:
                assert_same_load(load_raw_directory(tmp, fmt), want)
                return
            with pytest.raises(ValueError) as err:
                load_raw_directory(tmp, fmt)
        message = str(err.value)
        assert str(Path(tmp) / name) in message
        assert isinstance(err.value, ParseError) == bool(fail_at)
        if fail_at:
            assert f"{name}:{fail_at}: " in message
        if mutation == "duplicate-id":
            raw_id = int(mutated[fail_at - 1].split(sep)[0])
            assert message.endswith(f"duplicate {role[:-1]} id {raw_id}")


def as_lists(value):
    """``value`` with every array among the dict values as its tolist()."""
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


EDGE_FLOATS = (-0.0, 5e-324, 1e-05, 1e16, 0.1, -1.5e300)
SCALARS = (st.none() | st.booleans()
           | st.integers(-(2 ** 63), 2 ** 63 - 1)
           | st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
           | st.text(max_size=8))
PLAIN = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=12)
ARRAYS = (hnp.arrays(np.float64,
                     hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                      max_side=5),
                     elements=st.floats(allow_nan=False)
                     | st.sampled_from(EDGE_FLOATS))
          | hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                  min_side=0, max_side=4)))
DOCS = st.recursive(
    st.dictionaries(st.text(max_size=6), PLAIN | ARRAYS, max_size=5),
    lambda inner: st.dictionaries(st.text(max_size=6),
                                  PLAIN | ARRAYS | inner, max_size=5),
    max_leaves=6)


class TestWriteJson:
    """write_json writes the bytes of json.dump(sort_keys, compact) of the
    document with every array as a list."""

    @staticmethod
    def written(doc) -> tuple[bytes, bytes]:
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp) / "ours.json", Path(tmp) / "ref.json"
            write_json(ours, doc)
            with open(ref, "w", encoding="utf-8") as fh:
                json.dump(as_lists(doc), fh, sort_keys=True,
                          separators=(",", ":"))
            return ours.read_bytes(), ref.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(DOCS)
    @example({})
    @example({"b": {"z": np.zeros((0, 3)), "a": np.zeros((3, 0))},
              "a\u00e9\"\\\n\u2603": [2 ** 63 - 1, -(2 ** 63)],
              "\x00": {"": {}}, "v": np.array([-0.0, 5e-324, 1e-05, 1e16]),
              "m": np.array([[0.1, -0.0], [1e16, 5e-324]]),
              "e": np.zeros(0), "s": "caf\u00e9 \U0001f600"})
    @example({10: [1], 2: {"b": np.arange(3)}, 1.5: None})
    def test_same_bytes_as_json_dump(self, doc):
        ours, ref = self.written(doc)
        assert ours == ref

    def test_an_interrupted_write_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("earlier")

        def interrupted(doc):
            yield "{"
            raise KeyboardInterrupt
        with mock.patch.object(dataset, "_json_chunks", interrupted), \
                pytest.raises(KeyboardInterrupt):
            write_json(path, {"a": 1})
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "earlier"

    def test_a_new_file_gets_the_mode_of_open(self, tmp_path):
        write_json(tmp_path / "ours.json", {})
        (tmp_path / "ref.json").open("w").close()
        assert ((tmp_path / "ours.json").stat().st_mode
                == (tmp_path / "ref.json").stat().st_mode)


class TestLocated:
    @pytest.mark.parametrize("exc, message", [
        (KeyError("dims"), "m.json: model JSON has no 'dims' entry"),
        (TypeError("bad type"), "m.json: model JSON: bad type"),
        (ParseError("bad value"), "m.json: model JSON: bad value")])
    def test_names_the_file_and_the_part(self, exc, message):
        with pytest.raises(ValueError) as info:
            with located("m.json", "model JSON"):
                raise exc
        assert type(info.value) is ValueError and str(info.value) == message

    def test_other_errors_pass_through(self):
        with pytest.raises(FileNotFoundError):
            with located("m.json", "model JSON"):
                raise FileNotFoundError("m.json")


class TestJsonNumbers:
    @pytest.mark.parametrize("value, dtype", [
        ([[1, 2.5], [float("nan"), -0.0]], np.float64), ([], np.float64),
        ([[], []], np.float64), (3, np.float64), ([7, -2 ** 31], np.int32),
        ([2 ** 63 - 1], np.int64)])
    def test_numbers_convert_as_numpy_converts_them(self, value, dtype):
        got = json_numbers(value, dtype, "x")
        np.testing.assert_array_equal(got, np.asarray(value, dtype))
        assert got.dtype == dtype

    @pytest.mark.parametrize("value, dtype, message", [
        ([[1.0, "2"]], np.float64, "x: '2' is not a number"),
        ([1.0, True], np.float64, "x: True is not a number"),
        ([[0.5], [None]], np.float64, "x: None is not a number"),
        ("1.5", np.float64, "x: '1.5' is not a number"),
        ([4, 4.0], np.int32, "x: 4.0 is not an integer"),
        ([False], np.int64, "x: False is not an integer")])
    def test_anything_else_is_refused(self, value, dtype, message):
        with pytest.raises(ValueError) as info:
            json_numbers(value, dtype, "x")
        assert str(info.value) == message


class TestCallersArraysStayWritable:
    """The containers store read-only views; the arrays passed in stay
    writable."""

    def test_rating_dataset(self):
        arrays = (np.array([0, 1], np.int32), np.array([1, 0], np.int32),
                  np.array([4.0, 2.0]), np.array([0, 1], np.int64))
        ds = RatingDataset(2, 2, *arrays)
        for arr, stored in zip(arrays, (ds.users, ds.items, ds.ratings,
                                        ds.timestamps)):
            assert arr.flags.writeable
            assert not stored.flags.writeable
            np.testing.assert_array_equal(stored, arr)

    def test_side_info_matrix(self):
        rows = np.ones((2, 1))
        side = SideInfoMatrix(rows, ("a",))
        assert rows.flags.writeable
        assert not side.rows.flags.writeable
