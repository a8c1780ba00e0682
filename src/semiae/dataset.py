"""MovieLens loading, side-information encoding, splitting and binarization.

Handles the two raw layouts as distributed by GroupLens:

* ``ml-100k``: TAB-separated ``u.data`` (user, item, rating, timestamp),
  pipe-separated ``u.user`` (id|age|gender|occupation|zip) and ``u.item``
  (id|title|release_date|video_date|url|19 genre flags).
* ``ml-1m``: ``::``-separated ``ratings.dat``, ``users.dat``
  (id::gender::age_code::occupation_code::zip) and ``movies.dat``
  (id::title (year)::Genre|Genre|...), Latin-1 encoded.

Raw 1-based entity ids are remapped to contiguous 0-based indices in
ascending raw-id order; the mapping is kept on the returned objects so that
predictions can be reported against the original ids.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
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
_AGE_LOWER_BOUNDS = (18, 25, 35, 45, 50, 56)  # bucket i+1 starts here
_ML1M_AGE_CODES = {1: 0, 18: 1, 25: 2, 35: 3, 45: 4, 50: 5, 56: 6}

# ml-100k genre flag order (contents of u.genre).
ML100K_GENRES = (
    "unknown", "Action", "Adventure", "Animation", "Children's", "Comedy",
    "Crime", "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror",
    "Musical", "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)

# ml-1m genre name vocabulary (no "unknown" slot).
ML1M_GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)

FORMATS = ("ml-100k", "ml-1m")


class ParseError(ValueError):
    """Raised for malformed raw dataset files, with file and line context."""


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RatingDataset:
    """Sparse set of observed (user, item, rating) triples.

    The triples are stored as parallel arrays and are exactly the observed
    set; every (user, item) pair not listed is unobserved.  ``user_ids`` and
    ``item_ids`` map each contiguous 0-based index back to the raw file id.
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
        n = len(self.ratings)
        if not (len(self.users) == len(self.items) == len(self.timestamps) == n):
            raise ValueError("triple arrays must have equal length")
        if n:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item index out of range")
            keys = self.users.astype(np.int64) * self.num_items + self.items
            if len(np.unique(keys)) != n:
                raise ValueError("duplicate (user, item) pair in triples")
        for arr in (self.users, self.items, self.ratings, self.timestamps):
            _freeze(arr)

    def __len__(self) -> int:
        return len(self.ratings)

    def triples(self) -> list[tuple[int, int, float, int]]:
        """The observed set as a list of (user, item, rating, timestamp)."""
        return list(zip(self.users.tolist(), self.items.tolist(),
                        self.ratings.tolist(), self.timestamps.tolist()))


@dataclass(frozen=True)
class SideInfoMatrix:
    """Dense per-entity side-information vectors (one row per entity).

    ``entity_ids`` carries the raw file id of each row so the matrix can be
    aligned with a :class:`RatingDataset`'s index order.
    """

    rows: np.ndarray                 # (num_entities, K) float64
    column_labels: tuple[str, ...]
    entity_ids: tuple[int, ...]
    num_missing_year: int = 0

    def __post_init__(self) -> None:
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-d matrix")
        if self.rows.shape[1] != len(self.column_labels):
            raise ValueError("column_labels length must match row width")
        if self.rows.shape[0] != len(self.entity_ids):
            raise ValueError("entity_ids length must match row count")
        if self.rows.size and not np.all(np.isfinite(self.rows)):
            raise ValueError("side information entries must be finite")
        _freeze(self.rows)

    @property
    def num_entities(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class InteractionVectors:
    """Dense partial-observed vectors plus the observation mask.

    ``orientation="user"`` gives one row per user (M x N); ``"item"`` gives
    one row per item (N x M).  Unobserved positions hold exactly 0.
    """

    orientation: str
    vectors: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.orientation not in ("user", "item"):
            raise ValueError("orientation must be 'user' or 'item'")
        if self.vectors.shape != self.mask.shape:
            raise ValueError("vectors and mask shapes must match")
        if np.any((self.vectors != 0) & ~self.mask):
            raise ValueError("nonzero value at an unobserved position")
        _freeze(self.vectors)
        _freeze(self.mask)


def _iter_data_lines(path: Path, encoding: str):
    with open(path, encoding=encoding) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if line:
                yield lineno, line


def _split_fields(path: Path, lineno: int, line: str, sep: str, nfields: int,
                  minimum: bool = False) -> list[str]:
    parts = line.split(sep)
    if (len(parts) < nfields) if minimum else (len(parts) != nfields):
        raise ParseError(
            f"{path}:{lineno}: expected {nfields} {sep!r}-separated fields, "
            f"got {len(parts)}")
    return parts


def parse_ratings(path: str | Path, format: str = "ml-100k") -> RatingDataset:
    """Parse a raw ratings file into a :class:`RatingDataset`.

    Raw 1-based ids are remapped to contiguous 0-based indices in ascending
    raw-id order.  Malformed lines, duplicate (user, item) pairs and ratings
    outside [1, 5] raise :class:`ParseError`.
    """
    _check_format(format)
    path = Path(path)
    sep, encoding = ("\t", "ascii") if format == "ml-100k" else ("::", "latin-1")

    raw_users: list[int] = []
    raw_items: list[int] = []
    ratings: list[float] = []
    stamps: list[int] = []
    for lineno, line in _iter_data_lines(path, encoding):
        f = _split_fields(path, lineno, line, sep, 4)
        try:
            u, i, t = int(f[0]), int(f[1]), int(f[3])
            r = float(f[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not (1.0 <= r <= 5.0):
            raise ParseError(f"{path}:{lineno}: rating {r} outside [1, 5]")
        raw_users.append(u)
        raw_items.append(i)
        ratings.append(r)
        stamps.append(t)

    if not ratings:
        return RatingDataset(0, 0, np.empty(0, np.int32), np.empty(0, np.int32),
                             np.empty(0, np.float64), np.empty(0, np.int64))

    uids, u_idx = np.unique(np.asarray(raw_users, np.int64), return_inverse=True)
    iids, i_idx = np.unique(np.asarray(raw_items, np.int64), return_inverse=True)
    ds = RatingDataset(
        num_users=len(uids),
        num_items=len(iids),
        users=u_idx.astype(np.int32),
        items=i_idx.astype(np.int32),
        ratings=np.asarray(ratings, np.float64),
        timestamps=np.asarray(stamps, np.int64),
        user_ids=tuple(uids.tolist()),
        item_ids=tuple(iids.tolist()),
    )
    log.info("parsed %s: %d users, %d items, %d ratings",
             path, ds.num_users, ds.num_items, len(ds))
    return ds


def _age_bucket(age: int) -> int:
    return int(np.searchsorted(_AGE_LOWER_BOUNDS, age, side="right"))


def _one_hot(size: int, hot: int) -> np.ndarray:
    v = np.zeros(size)
    v[hot] = 1.0
    return v


def parse_user_profiles(path: str | Path, format: str = "ml-100k") -> SideInfoMatrix:
    """Encode user profiles as gender(2) ++ occupation(21) ++ age-group(7).

    Both layouts share the schema (K = 30): gender one-hot in (F, M) order,
    occupation one-hot over the dataset's 21-word vocabulary, and a one-hot
    over the seven ml-1m native age groups.  Zip codes are discarded.
    """
    _check_format(format)
    path = Path(path)
    occupations = ML100K_OCCUPATIONS if format == "ml-100k" else ML1M_OCCUPATIONS
    occ_index = {name: k for k, name in enumerate(occupations)}

    ids: list[int] = []
    rows: list[np.ndarray] = []
    if format == "ml-100k":
        for lineno, line in _iter_data_lines(path, "ascii"):
            f = _split_fields(path, lineno, line, "|", 5)
            try:
                uid, age = int(f[0]), int(f[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            gender, occupation = f[2], f[3]
            if age <= 0:
                raise ParseError(f"{path}:{lineno}: age {age} must be positive")
            if gender not in ("F", "M"):
                raise ParseError(f"{path}:{lineno}: gender must be F or M")
            if occupation not in occ_index:
                raise ParseError(
                    f"{path}:{lineno}: unknown occupation {occupation!r}; "
                    f"valid: {', '.join(occupations)}")
            row = np.concatenate([
                _one_hot(2, 0 if gender == "F" else 1),
                _one_hot(len(occupations), occ_index[occupation]),
                _one_hot(len(AGE_BUCKETS), _age_bucket(age)),
            ])
            ids.append(uid)
            rows.append(row)
    else:
        for lineno, line in _iter_data_lines(path, "latin-1"):
            f = _split_fields(path, lineno, line, "::", 5)
            try:
                uid, age_code, occ_code = int(f[0]), int(f[2]), int(f[3])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            gender = f[1]
            if age_code <= 0:
                raise ParseError(f"{path}:{lineno}: age {age_code} must be positive")
            if age_code not in _ML1M_AGE_CODES:
                raise ParseError(
                    f"{path}:{lineno}: unknown age code {age_code}; "
                    f"valid: {sorted(_ML1M_AGE_CODES)}")
            if gender not in ("F", "M"):
                raise ParseError(f"{path}:{lineno}: gender must be F or M")
            if not 0 <= occ_code < len(occupations):
                raise ParseError(
                    f"{path}:{lineno}: unknown occupation code {occ_code}; "
                    f"valid: 0..{len(occupations) - 1} "
                    f"({', '.join(occupations)})")
            row = np.concatenate([
                _one_hot(2, 0 if gender == "F" else 1),
                _one_hot(len(occupations), occ_code),
                _one_hot(len(AGE_BUCKETS), _ML1M_AGE_CODES[age_code]),
            ])
            ids.append(uid)
            rows.append(row)

    labels = (["gender=F", "gender=M"]
              + [f"occupation={o}" for o in occupations]
              + [f"age={b}" for b in AGE_BUCKETS])
    matrix = np.vstack(rows) if rows else np.empty((0, len(labels)))
    return SideInfoMatrix(matrix, tuple(labels), tuple(ids))


def _year_scalar(year: int) -> float:
    return float(np.clip((year - 1900) / 100.0, 0.0, 1.0))


def parse_item_features(path: str | Path, format: str = "ml-100k") -> SideInfoMatrix:
    """Encode item features as genre multi-hot ++ one normalized year scalar.

    The year scalar is (year - 1900)/100 clamped to [0, 1]; items without a
    release year get scalar 0 and are counted in ``num_missing_year``.
    """
    _check_format(format)
    path = Path(path)

    ids: list[int] = []
    rows: list[np.ndarray] = []
    missing_year = 0
    if format == "ml-100k":
        genres = ML100K_GENRES
        nfields = 5 + len(genres)
        for lineno, line in _iter_data_lines(path, "latin-1"):
            f = _split_fields(path, lineno, line, "|", nfields)
            try:
                iid = int(f[0])
                flags = np.asarray([int(x) for x in f[5:]], np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if np.any((flags != 0) & (flags != 1)):
                raise ParseError(f"{path}:{lineno}: genre flags must be 0/1")
            release = f[2]
            if release and release[-4:].isdigit():
                scalar = _year_scalar(int(release[-4:]))
            else:
                scalar = 0.0
                missing_year += 1
            ids.append(iid)
            rows.append(np.concatenate([flags, [scalar]]))
    else:
        genres = ML1M_GENRES
        genre_index = {name: k for k, name in enumerate(genres)}
        for lineno, line in _iter_data_lines(path, "latin-1"):
            f = _split_fields(path, lineno, line, "::", 3)
            try:
                iid = int(f[0])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            title, genre_field = f[1], f[2]
            flags = np.zeros(len(genres))
            for name in genre_field.split("|"):
                if name == "(no genres listed)" or not name:
                    continue
                if name not in genre_index:
                    raise ParseError(
                        f"{path}:{lineno}: unknown genre {name!r}; "
                        f"valid: {', '.join(genres)}")
                flags[genre_index[name]] = 1.0
            stripped = title.rstrip()
            if len(stripped) >= 6 and stripped[-1] == ")" and stripped[-6] == "(" \
                    and stripped[-5:-1].isdigit():
                scalar = _year_scalar(int(stripped[-5:-1]))
            else:
                scalar = 0.0
                missing_year += 1
            ids.append(iid)
            rows.append(np.concatenate([flags, [scalar]]))

    if missing_year:
        log.warning("%s: %d items without a release year", path, missing_year)
    labels = [f"genre={g}" for g in genres] + ["year"]
    matrix = np.vstack(rows) if rows else np.empty((0, len(labels)))
    return SideInfoMatrix(matrix, tuple(labels), tuple(ids), missing_year)


def align_side_info(side: SideInfoMatrix, raw_ids: tuple[int, ...]) -> SideInfoMatrix:
    """Reorder side-information rows to follow a dataset's raw-id order.

    Entities present in ``side`` but absent from ``raw_ids`` are dropped;
    a dataset entity with no side-information row is an error.
    """
    pos = {raw: k for k, raw in enumerate(side.entity_ids)}
    missing = [raw for raw in raw_ids if raw not in pos]
    if missing:
        raise ValueError(f"no side information for raw ids {missing[:10]}"
                         + (" ..." if len(missing) > 10 else ""))
    order = np.asarray([pos[raw] for raw in raw_ids], np.int64)
    rows = side.rows[order].copy() if len(order) else np.empty((0, side.dim))
    return SideInfoMatrix(rows, side.column_labels, tuple(raw_ids),
                          side.num_missing_year)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split(ds: RatingDataset, train_fraction: float, seed: int
          ) -> tuple[RatingDataset, RatingDataset]:
    """Partition the observed set into train/test by a seeded shuffle.

    ``|train| = round(train_fraction * |triples|)`` with round-half-up.  Both
    halves keep the full (num_users, num_items) dimensions and id maps.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction {train_fraction} outside (0, 1)")
    n = len(ds)
    if n < 2:
        raise ValueError(f"need at least 2 ratings to split, have {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = _round_half_up(train_fraction * n)
    picks = (np.sort(perm[:n_train]), np.sort(perm[n_train:]))
    halves = []
    for idx in picks:
        halves.append(replace(
            ds,
            users=ds.users[idx].copy(),
            items=ds.items[idx].copy(),
            ratings=ds.ratings[idx].copy(),
            timestamps=ds.timestamps[idx].copy(),
        ))
    return halves[0], halves[1]


def binarize(ds: RatingDataset, threshold: float = 4.0,
             comparison: str = ">") -> RatingDataset:
    """Convert explicit ratings to implicit likes.

    Triples whose rating passes the comparison against ``threshold`` become
    rating 1 and stay observed; all other triples are dropped from the
    observed set.  The rating scale becomes (0, 1).
    """
    if comparison == ">":
        keep = ds.ratings > threshold
    elif comparison == ">=":
        keep = ds.ratings >= threshold
    else:
        raise ValueError("comparison must be '>' or '>='")
    return replace(
        ds,
        users=ds.users[keep].copy(),
        items=ds.items[keep].copy(),
        ratings=np.ones(int(keep.sum())),
        timestamps=ds.timestamps[keep].copy(),
        rating_scale=(0.0, 1.0),
    )


def build_vectors(ds: RatingDataset, orientation: str = "user") -> InteractionVectors:
    """Densify the triples into partial-observed vectors plus mask.

    User orientation gives an M x N matrix of user rows; item orientation the
    N x M transpose.  Unobserved positions hold 0.
    """
    if orientation not in ("user", "item"):
        raise ValueError("orientation must be 'user' or 'item'")
    vectors = np.zeros((ds.num_users, ds.num_items))
    mask = np.zeros((ds.num_users, ds.num_items), bool)
    vectors[ds.users, ds.items] = ds.ratings
    mask[ds.users, ds.items] = True
    if orientation == "item":
        vectors, mask = vectors.T.copy(), mask.T.copy()
    return InteractionVectors(orientation, vectors, mask)


@dataclass(frozen=True)
class PreparedData:
    """A parsed dataset bundled with aligned side information."""

    ratings: RatingDataset
    user_side: SideInfoMatrix
    item_side: SideInfoMatrix


def _side_to_json(side: SideInfoMatrix) -> dict:
    return {
        "dim": side.dim,
        "column_labels": list(side.column_labels),
        "rows": side.rows.tolist(),
        "num_missing_year": side.num_missing_year,
    }


def _side_from_json(obj: dict, entity_ids: tuple[int, ...]) -> SideInfoMatrix:
    rows = np.asarray(obj["rows"], np.float64).reshape(-1, obj["dim"])
    return SideInfoMatrix(rows, tuple(obj["column_labels"]), entity_ids,
                          obj.get("num_missing_year", 0))


def write_prepared(path: str | Path, data: PreparedData) -> None:
    """Serialize a prepared dataset as versioned JSON (deterministic bytes)."""
    ds = data.ratings
    doc = {
        "schema_version": PREPARED_SCHEMA_VERSION,
        "num_users": ds.num_users,
        "num_items": ds.num_items,
        "rating_scale": list(ds.rating_scale),
        "triples": [[int(u), int(i), r, int(t)] for u, i, r, t in
                    zip(ds.users, ds.items, ds.ratings, ds.timestamps)],
        "user_side_info": _side_to_json(data.user_side),
        "item_side_info": _side_to_json(data.item_side),
        "id_maps": {"users": list(ds.user_ids), "items": list(ds.item_ids)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def read_prepared(path: str | Path) -> PreparedData:
    """Load a prepared dataset written by :func:`write_prepared`; a missing
    entry raises ValueError naming the file and the entry."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != PREPARED_SCHEMA_VERSION:
        raise ValueError(f"unsupported prepared-data schema version {version}")
    try:
        triples = doc["triples"]
        ds = RatingDataset(
            num_users=doc["num_users"],
            num_items=doc["num_items"],
            users=np.asarray([t[0] for t in triples], np.int32),
            items=np.asarray([t[1] for t in triples], np.int32),
            ratings=np.asarray([t[2] for t in triples], np.float64),
            timestamps=np.asarray([t[3] for t in triples], np.int64),
            rating_scale=tuple(doc["rating_scale"]),
            user_ids=tuple(doc["id_maps"]["users"]),
            item_ids=tuple(doc["id_maps"]["items"]),
        )
        return PreparedData(
            ratings=ds,
            user_side=_side_from_json(doc["user_side_info"], ds.user_ids),
            item_side=_side_from_json(doc["item_side_info"], ds.item_ids),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: prepared data has no {exc} entry") from None


RAW_FILES = {
    "ml-100k": {"ratings": "u.data", "users": "u.user", "items": "u.item"},
    "ml-1m": {"ratings": "ratings.dat", "users": "users.dat", "items": "movies.dat"},
}


def load_raw_directory(raw_dir: str | Path, format: str = "ml-100k") -> PreparedData:
    """Parse a raw MovieLens directory and align side info to the ratings."""
    _check_format(format)
    raw_dir = Path(raw_dir)
    names = RAW_FILES[format]
    for role, name in names.items():
        if not (raw_dir / name).exists():
            raise FileNotFoundError(
                f"missing {role} file {raw_dir / name} (expected the raw "
                f"{format} layout: {', '.join(names.values())})")
    ds = parse_ratings(raw_dir / names["ratings"], format)
    users = parse_user_profiles(raw_dir / names["users"], format)
    items = parse_item_features(raw_dir / names["items"], format)
    return PreparedData(
        ratings=ds,
        user_side=align_side_info(users, ds.user_ids),
        item_side=align_side_info(items, ds.item_ids),
    )
