"""MovieLens loading, side-information encoding, splitting, binarization
and the dense network input.

Reads the two raw layouts as distributed by GroupLens; :data:`LAYOUTS`
holds everything that differs between them:

* ``ml-100k``: TAB-separated ``u.data`` (user, item, rating, timestamp),
  pipe-separated ``u.user`` (id|age|gender|occupation|zip) and ``u.item``
  (id|title|release_date|video_date|url|19 genre flags).
* ``ml-1m``: ``::``-separated ``ratings.dat``, ``users.dat``
  (id::gender::age_code::occupation_code::zip) and ``movies.dat``
  (id::title (year)::Genre|Genre|...).

Every raw file is read as Latin-1, a superset of ASCII, one line at a time
by a line reader that names the file and line of a fault.  A ratings file
is read in blocks of whole lines instead: a block whose every line is four
fields of ASCII digits, with ratings from 1 to 5 and values below 10**18,
is converted by one numpy call, and the line reader handles every block
that is not plain, so both give the same arrays and the same errors.  Raw
1-based entity ids are remapped to contiguous 0-based indices in ascending
raw-id order; the mapping is kept on the dataset so that predictions can
be reported against the original ids.
"""

from __future__ import annotations

import io
import json
import logging
import math
import operator
import os
import re
import secrets
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

PREPARED_SCHEMA_VERSION = 1

# ml-100k occupation vocabulary (contents of u.occupation, alphabetical).
ML100K_OCCUPATIONS = (
    "administrator", "artist", "doctor", "educator", "engineer",
    "entertainment", "executive", "healthcare", "homemaker", "lawyer",
    "librarian", "marketing", "none", "other", "programmer", "retired",
    "salesman", "scientist", "student", "technician", "writer",
)

# ml-1m occupation codes 0..20, from the dataset README.
ML1M_OCCUPATIONS = (
    "other", "academic/educator", "artist", "clerical/admin",
    "college/grad student", "customer service", "doctor/health care",
    "executive/managerial", "farmer", "homemaker", "K-12 student",
    "lawyer", "programmer", "retired", "sales/marketing", "scientist",
    "self-employed", "technician/engineer", "tradesman/craftsman",
    "unemployed", "writer",
)

# Age groups shared by both datasets; these are the ml-1m native codes.
AGE_BUCKETS = ("<18", "18-24", "25-34", "35-44", "45-49", "50-55", "56+")
# the ml-1m code of each group, which is also the least age in it
ML1M_AGE_CODES = (1, 18, 25, 35, 45, 50, 56)

# ml-100k genre flag order (contents of u.genre).
ML100K_GENRES = (
    "unknown", "Action", "Adventure", "Animation", "Children's", "Comedy",
    "Crime", "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror",
    "Musical", "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)

# ml-1m genre name vocabulary (no "unknown" slot).
ML1M_GENRES = ML100K_GENRES[1:]

# binarize's comparisons of a rating with the threshold
COMPARISONS = {">": operator.gt, ">=": operator.ge}


class ParseError(ValueError):
    """Raised for malformed raw dataset files, with file and line context."""


class _RepeatedPair(ValueError):
    """A (user, item) pair listed twice; ``first`` and ``again`` are the
    indices of the earliest triple that repeats an earlier one and of that
    earlier one."""

    def __init__(self, keys: np.ndarray) -> None:
        super().__init__("duplicate (user, item) pair in triples")
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        self.again = int(repeats.min())
        self.first = int(np.flatnonzero(keys == keys[self.again])[0])


def store_read_only(obj, *names: str) -> None:
    """Replace each named array field of a frozen dataclass by a read-only
    view of it; the caller's array stays writable."""
    for name in names:
        view = getattr(obj, name).view()
        view.flags.writeable = False
        object.__setattr__(obj, name, view)


@dataclass(frozen=True)
class RatingDataset:
    """Sparse set of observed (user, item, rating) triples.

    The triples are stored as parallel arrays and are exactly the observed
    set; every (user, item) pair not listed is unobserved.  ``user_ids`` and
    ``item_ids`` map each contiguous 0-based index back to the raw file id,
    each a distinct Python int.
    """

    num_users: int
    num_items: int
    users: np.ndarray       # (n,) int32, 0-based
    items: np.ndarray       # (n,) int32, 0-based
    ratings: np.ndarray     # (n,) float64
    timestamps: np.ndarray  # (n,) int64
    rating_scale: tuple[float, float] = (1.0, 5.0)
    user_ids: tuple[int, ...] = ()
    item_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("num_users", "num_items"):
            count = getattr(self, name)
            if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
                    or count < 0):
                raise ValueError(f"{name} must be an integer >= 0, got {count!r}")
        scale = self.rating_scale
        if not (len(scale) == 2 and all(
                isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool) and math.isfinite(v) for v in scale)
                and scale[0] < scale[1]):
            raise ValueError(f"rating_scale must be two finite numbers, the "
                             f"lower first, got {list(scale)!r}")
        for name, kinds in (("users", "iu"), ("items", "iu"),
                            ("ratings", "iuf"), ("timestamps", "iu")):
            col = getattr(self, name)
            if not (isinstance(col, np.ndarray) and col.ndim == 1
                    and col.dtype.kind in kinds):
                kind = "real" if "f" in kinds else "integer"
                raise ValueError(f"{name} must be a 1-D {kind} array")
        n = len(self.ratings)
        if not (len(self.users) == len(self.items) == len(self.timestamps) == n):
            raise ValueError("triple arrays must have equal length")
        if n:
            if not np.isfinite(self.ratings).all():
                raise ValueError("ratings must be finite")
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item index out of range")
            keys = self.users.astype(np.int64) * self.num_items + self.items
            ordered = np.sort(keys)
            if (ordered[1:] == ordered[:-1]).any():
                raise _RepeatedPair(keys)
        for kind, ids, count in (("user", self.user_ids, self.num_users),
                                 ("item", self.item_ids, self.num_items)):
            if ids and len(ids) != count:
                raise ValueError(f"{kind}_ids has {len(ids)} entries for "
                                 f"{count} {kind}s")
            if not set(map(type, ids)) <= {int}:
                odd = next(v for v in ids if type(v) is not int)
                raise ValueError(f"{kind}_ids holds {odd!r}, not an integer")
            if len(set(ids)) < len(ids):
                twice = Counter(ids).most_common(1)[0][0]
                raise ValueError(f"{kind}_ids holds {twice} more than once")
        store_read_only(self, "users", "items", "ratings", "timestamps")

    def __len__(self) -> int:
        return len(self.ratings)

    @cached_property
    def by_user(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-user index of the triples, built on first use: ``(indptr,
        items, ratings)``, user ``u``'s items and ratings at
        ``indptr[u]:indptr[u + 1]`` in triple order; read-only, so it
        cannot go stale on this frozen object."""
        order = np.argsort(self.users, kind="stable")
        indptr = np.zeros(self.num_users + 1, np.int64)
        np.cumsum(np.bincount(self.users, minlength=self.num_users),
                  out=indptr[1:])
        index = (indptr, self.items[order], self.ratings[order])
        for arr in index:
            arr.flags.writeable = False
        return index

    @cached_property
    def T(self) -> RatingDataset:
        """The transposed dataset, built on first use: items become users
        and users items, so an item's row is the user row of ``T``.  The
        triple arrays are shared, in the same order."""
        return replace(self, num_users=self.num_items,
                       num_items=self.num_users, users=self.items,
                       items=self.users, user_ids=self.item_ids,
                       item_ids=self.user_ids)

    def user_slice(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """The items and ratings of ``user``'s triples, from :attr:`by_user`."""
        indptr, items, ratings = self.by_user
        lo, hi = indptr[user], indptr[user + 1]
        return items[lo:hi], ratings[lo:hi]

    @cached_property
    def item_counts(self) -> np.ndarray:
        """Triples per item, ``(num_items,)``, built on first use; read-only."""
        counts = np.bincount(self.items, minlength=self.num_items)
        counts.flags.writeable = False
        return counts

    @cached_property
    def popularity(self) -> np.ndarray:
        """Every item index, most triples first and ties to the lower index
        (the stable ``argsort(-item_counts)``), built on first use;
        read-only."""
        order = np.argsort(-self.item_counts, kind="stable")
        order.flags.writeable = False
        return order

    def triples(self) -> list[tuple[int, int, float, int]]:
        """The observed set as a list of (user, item, rating, timestamp)."""
        return list(zip(self.users.tolist(), self.items.tolist(),
                        self.ratings.tolist(), self.timestamps.tolist()))


@dataclass(frozen=True)
class SideInfoMatrix:
    """Dense per-entity side-information vectors: row k belongs to entity k
    of the :class:`RatingDataset` it was made for, whose id maps it shares."""

    rows: np.ndarray                 # (num_entities, K) float64
    column_labels: tuple[str, ...]
    num_missing_year: int = 0        # item file lines without a year

    def __post_init__(self) -> None:
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-d matrix")
        if self.rows.shape[1] != len(self.column_labels):
            raise ValueError("column_labels length must match row width")
        if type(self.num_missing_year) is not int or self.num_missing_year < 0:
            raise ValueError(f"num_missing_year {self.num_missing_year!r} "
                             f"is not a non-negative integer")
        if self.rows.size and not np.all(np.isfinite(self.rows)):
            raise ValueError("side information entries must be finite")
        store_read_only(self, "rows")

    @property
    def num_entities(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def _pick(vocabulary, key, what: str) -> int:
    """The index of ``key`` in ``vocabulary``; an unknown key is an error
    listing the vocabulary."""
    if key not in vocabulary:
        raise ValueError(f"unknown {what} {key!r}; "
                         f"valid: {', '.join(map(str, vocabulary))}")
    return vocabulary.index(key)


def _ml100k_profile(f: list[str]) -> tuple[str, int, int]:
    age = int(f[1])
    if age <= 0:
        raise ValueError(f"age {age} must be positive")
    return (f[2], bisect_right(ML1M_AGE_CODES, age) - 1,
            _pick(ML100K_OCCUPATIONS, f[3], "occupation"))


def _ml1m_profile(f: list[str]) -> tuple[str, int, int]:
    return (f[1], _pick(ML1M_AGE_CODES, int(f[2]), "age code"),
            _pick(range(len(ML1M_OCCUPATIONS)), int(f[3]), "occupation code"))


def _ml100k_item(f: list[str]) -> tuple[list[int], int | None]:
    flags = [_pick(("0", "1"), flag, "genre flag") for flag in f[5:]]
    year = f[2][-4:]  # the release date ends in it
    return ([k for k, flag in enumerate(flags) if flag],
            int(year) if year.isdigit() else None)


def _ml1m_item(f: list[str]) -> tuple[list[int], int | None]:
    year = re.search(r"\((\d{4})\)\s*$", f[1])  # title (year)
    return ([_pick(ML1M_GENRES, name, "genre") for name in f[2].split("|")
             if name and name != "(no genres listed)"],
            int(year[1]) if year else None)


# Everything that differs between the MovieLens releases (the field layouts
# are in the module docstring): each raw file's (name, separator, field
# count) by role, the positions of each file's numeric fields (ids, ages,
# codes, ratings, timestamps), the occupation and genre vocabularies, and
# two decoders: a profile line's fields -> (gender, age group, occupation
# index), and an item line's fields -> (genre indices, release year or
# None).
LAYOUTS = {
    "ml-100k": {"ratings": ("u.data", "\t", 4), "users": ("u.user", "|", 5),
                "items": ("u.item", "|", 5 + len(ML100K_GENRES)),
                "numeric": {"ratings": (0, 1, 2, 3), "users": (0, 1),
                            "items": (0,)},
                "occupations": ML100K_OCCUPATIONS, "genres": ML100K_GENRES,
                "profile": _ml100k_profile, "item": _ml100k_item},
    "ml-1m": {"ratings": ("ratings.dat", "::", 4),
              "users": ("users.dat", "::", 5), "items": ("movies.dat", "::", 3),
              "numeric": {"ratings": (0, 1, 2, 3), "users": (0, 2, 3),
                          "items": (0,)},
              "occupations": ML1M_OCCUPATIONS, "genres": ML1M_GENRES,
              "profile": _ml1m_profile, "item": _ml1m_item},
}
FORMATS = tuple(LAYOUTS)


def _layout(fmt: str) -> dict:
    if fmt not in LAYOUTS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return LAYOUTS[fmt]


class _Fields:
    """The fields of each non-blank line of an open raw file, split on the
    separator and checked against the field count; the fields at the
    positions ``numeric`` must be ASCII, because ``int`` and ``float``
    would skip a Latin-1 no-break space.  ``line`` is the number of the
    line last read."""

    def __init__(self, fh, sep: str, nfields: int, numeric) -> None:
        self.fh, self.sep, self.nfields, self.numeric = fh, sep, nfields, numeric
        self.line = 0

    def __iter__(self):
        return self.of(self.fh)

    def of(self, lines):
        """The fields of ``lines``, some lines of the file, numbered on from
        the line last read."""
        sep, nfields = self.sep, self.nfields
        for self.line, text in enumerate(lines, start=self.line + 1):
            text = text.rstrip("\r\n")
            if text:
                fields = text.split(sep)
                if len(fields) != nfields:
                    raise ValueError(f"expected {nfields} {sep!r}-separated "
                                     f"fields, got {len(fields)}")
                if not text.isascii():
                    for k in self.numeric:
                        if not fields[k].isascii():
                            raise ValueError(f"non-ASCII character in numeric "
                                             f"field {k + 1}: {fields[k]!r}")
                yield fields


@contextmanager
def _raw_fields(path: str | Path, layout: dict, role: str):
    """Open the raw ``role`` file of ``layout`` as Latin-1 and give the
    :class:`_Fields` of its lines.  A ValueError raised in the ``with``
    body, by the reader or by the caller's decoding of a line, becomes a
    ParseError naming the file and the line."""
    _, sep, nfields = layout[role]
    with open(path, encoding="latin-1") as fh:
        lines = _Fields(fh, sep, nfields, layout["numeric"][role])
        try:
            yield lines
        except ValueError as exc:
            raise ParseError(f"{path}:{lines.line}: {exc}") from None


# characters of a ratings file read at a time, then to the end of the line
RATINGS_BLOCK = 1 << 20
_NO_DIGITS = str.maketrans("", "", "0123456789")
_INT64 = range(-2 ** 63, 2 ** 63)


def _plain_columns(block: str, sep: str) -> tuple[np.ndarray, ...] | None:
    """The user, item, rating and timestamp columns of ``block``, whole
    ratings lines each ending in a newline, by one numpy conversion; None
    unless every line is four fields of ASCII digits with ratings from 1 to
    5 and values below 10**18 (numpy saturates an int64 that overflows).
    Such a block reads exactly as the line reader would read it."""
    lines = block.count("\n")
    text = block.replace(sep, " ")
    # digits, three separators and a newline on each line, so no blank line,
    # no other byte and no space in the file that would pass for one
    if " " in block or text.translate(_NO_DIGITS) != "   \n" * lines:
        return None
    table = np.fromstring(text, np.int64, sep=" ")
    if table.size != 4 * lines:  # an empty field
        return None
    table = table.reshape(lines, 4)
    ratings = table[:, 2]
    if table.max() >= 10 ** 18 or ratings.min() < 1 or ratings.max() > 5:
        return None
    return table[:, 0], table[:, 1], ratings.astype(np.float64), table[:, 3]


def _decoded_columns(lines) -> tuple[np.ndarray, ...]:
    """The user, item, rating and timestamp columns of the ratings lines
    ``lines`` (a :class:`_Fields` iteration), line by line; a rating
    outside [1, 5] or an integer outside int64 is a ValueError."""
    raw_users, raw_items, ratings, stamps = [], [], [], []
    for f in lines:
        rating = float(f[2])
        if not 1.0 <= rating <= 5.0:
            raise ValueError(f"rating {rating} outside [1, 5]")
        user, item, stamp = int(f[0]), int(f[1]), int(f[3])
        for what, value in (("user id", user), ("item id", item),
                            ("timestamp", stamp)):
            if value not in _INT64:
                raise ValueError(f"{what} {value} does not fit in 64 bits")
        raw_users.append(user)
        raw_items.append(item)
        ratings.append(rating)
        stamps.append(stamp)
    return (np.asarray(raw_users, np.int64), np.asarray(raw_items, np.int64),
            np.asarray(ratings, np.float64), np.asarray(stamps, np.int64))


def parse_ratings(path: str | Path, format: str = "ml-100k") -> RatingDataset:
    """Parse a raw ratings file into a :class:`RatingDataset`.

    Raw 1-based ids are remapped to contiguous 0-based indices in ascending
    raw-id order.  Malformed lines, ratings outside [1, 5], integers outside
    int64 and a repeated (user, item) pair raise :class:`ParseError`.

    The file is read in blocks of whole lines.  A block of plain lines is
    converted by one numpy call; any other block goes through the line
    reader, which finds the first fault and its line.
    """
    layout = _layout(format)
    sep = layout["ratings"][1]
    blocks = [_decoded_columns(())]  # empty columns, for a file of no lines
    with _raw_fields(path, layout, "ratings") as lines:
        while block := lines.fh.read(RATINGS_BLOCK):
            block += lines.fh.readline()
            # a last line without its newline would make the block not plain
            block += "" if block.endswith("\n") else "\n"
            columns = _plain_columns(block, sep)
            if columns is None:
                columns = _decoded_columns(lines.of(io.StringIO(block)))
            else:
                lines.line += block.count("\n")
            blocks.append(columns)
    # one contiguous array per column
    raw_users, raw_items, ratings, stamps = map(np.concatenate, zip(*blocks))

    uids, u_idx = np.unique(raw_users, return_inverse=True)
    iids, i_idx = np.unique(raw_items, return_inverse=True)
    try:
        ds = RatingDataset(
            num_users=len(uids),
            num_items=len(iids),
            users=u_idx.astype(np.int32),
            items=i_idx.astype(np.int32),
            ratings=ratings,
            timestamps=stamps,
            user_ids=tuple(uids.tolist()),
            item_ids=tuple(iids.tolist()),
        )
    except _RepeatedPair as exc:
        # read the file again for the two lines' numbers
        with _raw_fields(path, layout, "ratings") as lines:
            for k, _ in enumerate(lines):
                if k == exc.first:
                    first_line = lines.line
                elif k == exc.again:
                    raise ValueError(
                        f"duplicate (user, item) pair ({raw_users[k]}, "
                        f"{raw_items[k]}), first on line {first_line}"
                    ) from None
        raise  # the file changed under the second reading
    log.info("parsed %s: %d users, %d items, %d ratings",
             path, ds.num_users, ds.num_items, len(ds))
    return ds


def _hot_rows(path: str | Path, layout: dict, role: str, width: int, decode,
              raw_ids):
    """One row of ``width`` for each raw id of ``raw_ids``, in that order:
    zero but for a one at each column ``decode(fields)`` lists for the id's
    line of the ``role`` side file; also the second value ``decode`` gives
    for each line, by raw id.  Every line is decoded and checked, and a
    repeated id is an error; the lines of other ids are then dropped, and
    an id of ``raw_ids`` with no line is an error naming the file."""
    row = {raw: k for k, raw in enumerate(raw_ids)}
    extras: dict[int, object] = {}
    hot: list[int] = []
    with _raw_fields(path, layout, role) as lines:
        for f in lines:
            raw_id = int(f[0])
            if raw_id in extras:
                raise ValueError(f"duplicate {role[:-1]} id {raw_id}")
            columns, extras[raw_id] = decode(f)
            if raw_id in row:
                hot += [row[raw_id] * width + c for c in columns]
    missing = [raw for raw in raw_ids if raw not in extras]
    if missing:
        raise ValueError(f"{path}: no side information for raw ids {missing[:10]}"
                         + (" ..." if len(missing) > 10 else ""))
    matrix = np.zeros((len(row), width))
    matrix.flat[np.asarray(hot, np.intp)] = 1.0
    return matrix, extras


def parse_user_profiles(path: str | Path, raw_ids,
                        format: str = "ml-100k") -> SideInfoMatrix:
    """Encode the profiles of the users ``raw_ids``, one row each in that
    order, as gender(2) ++ occupation(21) ++ age-group(7).

    Both layouts share the schema (K = 30): gender one-hot in (F, M) order,
    occupation one-hot over the dataset's 21-word vocabulary, and a one-hot
    over the seven ml-1m native age groups.  Zip codes are discarded.  A
    malformed line or a repeated user id is a :class:`ParseError`, and a
    user of ``raw_ids`` with no line a ValueError naming the file.
    """
    layout = _layout(format)
    labels = (("gender=F", "gender=M")
              + tuple(f"occupation={o}" for o in layout["occupations"])
              + tuple(f"age={b}" for b in AGE_BUCKETS))
    age_at = 2 + len(layout["occupations"])

    def columns(f):
        gender, age, occupation = layout["profile"](f)
        return (_pick(("F", "M"), gender, "gender"), 2 + occupation,
                age_at + age), None

    matrix, _ = _hot_rows(path, layout, "users", len(labels), columns, raw_ids)
    return SideInfoMatrix(matrix, labels)


def parse_item_features(path: str | Path, raw_ids,
                        format: str = "ml-100k") -> SideInfoMatrix:
    """Encode the features of the items ``raw_ids``, one row each in that
    order, as genre multi-hot ++ one normalized year scalar.

    The year scalar is (year - 1900)/100 clamped to [0, 1]; items without a
    release year get scalar 0, and ``num_missing_year`` counts every line
    of the file without one.  Errors are as in :func:`parse_user_profiles`.
    """
    layout = _layout(format)
    labels = tuple(f"genre={g}" for g in layout["genres"]) + ("year",)
    matrix, years = _hot_rows(path, layout, "items", len(labels),
                              layout["item"], raw_ids)
    matrix[:, -1] = [0.0 if year is None else
                     min(max((year - 1900) / 100.0, 0.0), 1.0)
                     for year in map(years.get, raw_ids)]
    missing_year = list(years.values()).count(None)
    if missing_year:
        log.warning("%s: %d items without a release year", path, missing_year)
    return SideInfoMatrix(matrix, labels, missing_year)


def split(ds: RatingDataset, train_fraction: float, seed: int
          ) -> tuple[RatingDataset, RatingDataset]:
    """Partition the observed set into train/test by a seeded shuffle.

    ``|train| = round(train_fraction * |triples|)`` with round-half-up.  Both
    halves keep the full (num_users, num_items) dimensions and id maps.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction {train_fraction} outside (0, 1)")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = len(ds)
    if n < 2:
        raise ValueError(f"need at least 2 ratings to split, have {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(train_fraction * n + 0.5))
    return tuple(replace(ds, users=ds.users[idx], items=ds.items[idx],
                         ratings=ds.ratings[idx], timestamps=ds.timestamps[idx])
                 for idx in (np.sort(perm[:n_train]), np.sort(perm[n_train:])))


def binarize(ds: RatingDataset, threshold: float = 4.0,
             comparison: str = ">") -> RatingDataset:
    """Convert explicit ratings to implicit likes.

    Triples whose rating passes the comparison against ``threshold`` become
    rating 1 and stay observed; all other triples are dropped from the
    observed set.  The rating scale becomes (0, 1).
    """
    _pick(tuple(COMPARISONS), comparison, "comparison")
    keep = COMPARISONS[comparison](ds.ratings, threshold)
    return replace(ds, users=ds.users[keep], items=ds.items[keep],
                   ratings=np.ones(int(keep.sum())),
                   timestamps=ds.timestamps[keep], rating_scale=(0.0, 1.0))


def build_vectors(ds: RatingDataset, side: SideInfoMatrix, rows,
                  x: np.ndarray, mask: np.ndarray | None = None) -> None:
    """Write the network input ``cat(r; c)`` of the users ``rows`` into
    the rows of ``x`` and, given ``mask``, the mask of their observed
    ratings into it.

    A user's input is its ratings over all items, then its row of
    ``side``; an item's is the user row of ``ds.T``.  ``x`` is
    ``(len(rows), num_items + K)``; ``mask`` is ``(len(rows), num_items)``
    and True exactly at the triples, so an observed rating of 0 stays
    observed.  The ratings come from :func:`sparse_rows`, so a batch costs
    its own triples, and the whole matrix is the call over every row.
    """
    at, hit, values, side_rows = sparse_rows(ds, side, rows)
    width = ds.num_items
    if x.shape != (len(side_rows), width + side.dim) or (
            mask is not None and mask.shape != (len(side_rows), width)):
        raise ValueError(f"buffers of shape {x.shape} and "
                         f"{None if mask is None else mask.shape} do not fit "
                         f"{len(side_rows)} rows of {width} + {side.dim}")
    x[...] = 0.0
    x[at, hit] = values
    x[:, width:] = side_rows
    if mask is not None:
        mask[...] = False
        mask[at, hit] = True


def sparse_rows(ds: RatingDataset, side: SideInfoMatrix, rows
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The network input of the users ``rows``, as :func:`build_vectors`
    lays it out, in sparse form: ``(at, items, ratings, side_rows)``.  The
    batch's k-th triple is ``ratings[k]`` at ``items[k]`` of batch row
    ``at[k]``, so ``at`` ascends; ``side_rows`` is the rows' block of
    ``side``.  The triples come from the dataset's per-user index.  The
    call for a run of consecutive entries of ``rows`` is a slice of this
    one: the triples whose ``at`` falls in the run, ``at`` counted from the
    run's first row, and the run's side rows."""
    if side.num_entities != ds.num_users:
        raise ValueError(f"side information has {side.num_entities} rows "
                         f"for {ds.num_users} rating rows")
    rows = np.asarray(rows, np.intp)
    indptr, cols, ratings = ds.by_user
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    # the k-th triple of the batch is triple src[k] of the index
    at = np.repeat(np.arange(len(rows)), counts)
    src = np.arange(len(at)) + np.repeat(starts - np.cumsum(counts) + counts,
                                         counts)
    return at, cols[src], ratings[src], side.rows[rows]


@dataclass(frozen=True)
class PreparedData:
    """A parsed dataset and its side information, whose row k belongs to
    the dataset's user or item k."""

    ratings: RatingDataset
    user_side: SideInfoMatrix
    item_side: SideInfoMatrix


def _json_chunks(value):
    """The text of ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
    in pieces, each made by the C encoder: a dict one entry at a time, an
    array of two or more dimensions one row at a time, a 1-D array as its
    list."""
    if isinstance(value, dict):
        yield "{"
        for k, (key, item) in enumerate(sorted(value.items())):
            # json turns a non-string key into its JSON text, as a string
            yield ("," if k else "") + json.dumps(
                key if isinstance(key, str) else json.dumps(key)) + ":"
            yield from _json_chunks(item)
        yield "}"
    elif isinstance(value, np.ndarray) and value.ndim > 1:
        yield "["
        for k, row in enumerate(value):
            yield "," if k else ""
            yield from _json_chunks(row)
        yield "]"
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        yield json.dumps(value, sort_keys=True, separators=(",", ":"))


@contextmanager
def write_whole(path: str | Path):
    """Give a UTF-8 text file, without newline translation, that becomes
    ``path`` whole when the ``with`` body ends.  It is a fresh file beside
    ``path``, made with the mode that ``open(path, "w")`` gives a new
    file, and is ``os.replace``d over ``path`` on success.  On any
    exception, KeyboardInterrupt included, it is removed, so a failed
    write leaves no partial file and an earlier ``path`` as it was; an
    OSError is raised again naming ``path``.  Nothing is fsynced: this
    guards against a process that fails, not against a power cut."""
    target = Path(path)
    temp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                yield fh
            os.replace(temp, path)
        except BaseException:
            with suppress(OSError):
                temp.unlink()
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` with exactly the bytes of ``json.dump(doc, fh,
    sort_keys=True, separators=(",", ":"))``, where numpy arrays among the
    dict values stand for their ``tolist()``, through :func:`write_whole`.
    The text is streamed to the file in pieces, so neither the document
    nor an array as nested lists is ever held whole."""
    with write_whole(path) as fh:
        fh.writelines(_json_chunks(doc))


@contextmanager
def located(path: str | Path, what: str):
    """Turn a KeyError, TypeError, ValueError or OverflowError raised in the
    ``with`` body, while reading the ``what`` part of the document at
    ``path``, into ``ValueError("<path>: <what>: <cause>")``; a missing key
    reads ``<what> has no '<key>' entry``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: {what} has no {exc} entry") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {what}: {exc}") from None


class RowDecoder(json.JSONDecoder):
    """The decoder of ``json.load`` for a document of number matrices: an
    array, among the top-level object's values, whose first element is an
    array is read one inner array at a time, and a row of only JSON
    integers and floats becomes its float64 array at once, so that a
    matrix's numbers are never all Python floats together.  A row that
    holds anything else, or that does not convert (``10**400``), stays a
    list, for :func:`json_numbers` to refuse as it would after a plain
    ``json.load``.  Only the top-level object is walked in Python; every
    other value, nested objects included, goes to the stdlib's scanner
    whole, so nesting limits and error messages stay ``json.load``'s."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        whole, skip = self.scan_once, json.decoder.WHITESPACE.match

        def row(s: str, idx: int):
            value, end = whole(s, idx)
            if type(value) is list and set(map(type, value)) <= {int, float}:
                with suppress(OverflowError):
                    value = np.array(value, np.float64)
            return value, end

        def value(s: str, idx: int):
            if s.startswith("[", idx) and s.startswith(
                    "[", skip(s, idx + 1).end()):
                return json.decoder.JSONArray((s, idx + 1), row)
            return whole(s, idx)

        def scan_once(s: str, idx: int):
            if s.startswith("{", idx):
                return json.decoder.JSONObject(
                    (s, idx + 1), self.strict, value, self.object_hook,
                    self.object_pairs_hook, {})
            return whole(s, idx)

        self.scan_once = scan_once


@contextmanager
def json_object(path: str | Path, what: str, version: int | None = None,
                decoder: type[json.JSONDecoder] | None = None):
    """Give the object in the JSON file at ``path``, read as its ``what``
    part inside :func:`located`; given ``version``, its ``schema_version``
    must be that integer.  Text that is not UTF-8 JSON, or nests past the
    decoder's recursion limit, is ``<path>: not a valid JSON file: ...``.
    The text is decoded by ``decoder`` (``json.load``'s own if None); with
    :class:`RowDecoder`, the matrices among the object's values come as
    lists of float64 rows."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, cls=decoder)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not a valid JSON file: {exc}") from None
    with located(path, what):
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        found = doc.get("schema_version")
        if version is not None and (type(found), found) != (int, version):
            raise ValueError(f"unsupported schema version {found!r}")
        yield doc


def json_numbers(value, dtype, name: str) -> np.ndarray:
    """``value``, JSON numbers nested in JSON arrays, as an array of
    ``dtype``.  A string, boolean or null among them, or for an integer
    dtype a number written with a fraction or exponent (``4.0`` too), is a
    ValueError naming ``name``; NaN and Infinity convert, for the caller's
    finiteness check.  A float64 array among the lists, a row that
    :class:`RowDecoder` converted, is a leaf whose numbers are checked."""
    array = np.asarray(value, dtype)

    def leaves():  # numpy found array.ndim levels of lists
        level = [value]
        for _ in range(array.ndim):
            level = chain.from_iterable(
                v for v in level if not isinstance(v, np.ndarray))
        return level

    numbers = (int,) if np.issubdtype(dtype, np.integer) else (int, float)
    if odd := set(map(type, leaves())).difference(numbers):
        first = next(v for v in leaves() if type(v) in odd)
        kind = "a number" if float in numbers else "an integer"
        raise ValueError(f"{name}: {first!r} is not {kind}")
    return array


def _side_to_json(side: SideInfoMatrix) -> dict:
    return {
        "dim": side.dim,
        "column_labels": list(side.column_labels),
        "rows": side.rows,
        "num_missing_year": side.num_missing_year,
    }


def write_prepared(path: str | Path, data: PreparedData) -> None:
    """Serialize a prepared dataset as versioned JSON (deterministic bytes).
    A dataset built without ids gets the identity maps, index = id."""
    ds = data.ratings
    doc = {
        "schema_version": PREPARED_SCHEMA_VERSION,
        "num_users": ds.num_users,
        "num_items": ds.num_items,
        "rating_scale": list(ds.rating_scale),
        "triples": ds.triples(),  # tuples encode as JSON lists
        "user_side_info": _side_to_json(data.user_side),
        "item_side_info": _side_to_json(data.item_side),
        "id_maps": {"users": list(ds.user_ids or range(ds.num_users)),
                    "items": list(ds.item_ids or range(ds.num_items))},
    }
    write_json(path, doc)


def _triple_columns(triples) -> list[np.ndarray]:
    """The users, items, ratings and timestamps of the prepared triples."""
    if not (isinstance(triples, list) and set(map(type, triples)) <= {list}
            and set(map(len, triples)) <= {4}):
        raise ValueError("'triples' must be a list of [user, item, rating, "
                         "timestamp] entries")
    # one column's list at a time
    return [json_numbers(list(map(itemgetter(k), triples)), dtype,
                         f"triple {column}")
            for k, (column, dtype) in enumerate((
                ("user", np.int32), ("item", np.int32),
                ("rating", np.float64), ("timestamp", np.int64)))]


def read_prepared(path: str | Path) -> PreparedData:
    """Load a prepared dataset written by :func:`write_prepared`; a malformed
    file raises ValueError naming the file and, for a missing entry, the
    entry.  Its id maps must hold an id for every user and item, and each
    side's rows one row of ``dim`` values for each."""
    with json_object(path, "prepared data", PREPARED_SCHEMA_VERSION) as doc:
        users, items, ratings, stamps = _triple_columns(doc["triples"])
        ds = RatingDataset(
            num_users=doc["num_users"],
            num_items=doc["num_items"],
            users=users,
            items=items,
            ratings=ratings,
            timestamps=stamps,
            rating_scale=tuple(doc["rating_scale"]),
            user_ids=tuple(doc["id_maps"]["users"]),
            item_ids=tuple(doc["id_maps"]["items"]),
        )
        low, high = ds.rating_scale
        outside = ds.ratings[(ds.ratings < low) | (ds.ratings > high)]
        if len(outside):
            raise ValueError(f"rating {outside[0]} outside the rating_scale "
                             f"[{low}, {high}]")
        sides = []
        for kind, ids, count in (("user", ds.user_ids, ds.num_users),
                                 ("item", ds.item_ids, ds.num_items)):
            # RatingDataset lets an empty map stand for no ids; a file has ids
            if len(ids) != count:
                raise ValueError(f"{kind}_ids has {len(ids)} entries for "
                                 f"{count} {kind}s")
            side = doc[f"{kind}_side_info"]
            name, shape = f"{kind}_side_info rows", (count, side["dim"])
            rows = json_numbers(side["rows"], np.float64, name)
            if rows.shape == (0,) == (count,):  # [] holds no row of any width
                rows = rows.reshape(shape)
            if rows.shape != shape:
                raise ValueError(f"{name}: shape {rows.shape} is not {shape}")
            sides.append(SideInfoMatrix(rows, tuple(side["column_labels"]),
                                        side.get("num_missing_year", 0)))
        return PreparedData(ds, *sides)


def load_raw_directory(raw_dir: str | Path, format: str = "ml-100k") -> PreparedData:
    """Parse a raw MovieLens directory: the ratings, then the side rows of
    their users and items in the dataset's index order; a rated user or
    item with no side row is an error naming the side file."""
    layout = _layout(format)
    paths = {role: Path(raw_dir) / layout[role][0]
             for role in ("ratings", "users", "items")}
    for role, path in paths.items():
        if not path.exists():
            raise FileNotFoundError(
                f"missing {role} file {path} (expected the raw {format} layout: "
                f"{', '.join(p.name for p in paths.values())})")
    ds = parse_ratings(paths["ratings"], format)
    return PreparedData(
        ds, parse_user_profiles(paths["users"], ds.user_ids, format),
        parse_item_features(paths["items"], ds.item_ids, format))
