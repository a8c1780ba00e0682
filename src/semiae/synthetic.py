"""Seeded MovieLens-layout directories, with ratings from latent factors."""

from pathlib import Path

import numpy as np

from .dataset import (ML100K_GENRES, ML100K_OCCUPATIONS, ML1M_AGE_CODES,
                      ML1M_GENRES, _layout)


def _sample_interactions(num_users: int, num_items: int, num_ratings: int,
                         rng: np.random.Generator):
    if num_ratings > num_users * num_items:
        raise ValueError("more ratings requested than user-item pairs")
    flat = rng.choice(num_users * num_items, size=num_ratings, replace=False)
    users, items = np.divmod(np.sort(flat), num_items)
    u_fac = rng.normal(0, 1, (num_users, 2))
    i_fac = rng.normal(0, 1, (num_items, 2))
    raw = 3.5 + (u_fac[users] * i_fac[items]).sum(axis=1) \
        + rng.normal(0, 0.6, num_ratings)
    ratings = np.clip(np.rint(raw), 1, 5).astype(int)
    stamps = rng.integers(874_000_000, 893_000_000, num_ratings)
    return users + 1, items + 1, ratings, stamps  # raw ids are 1-based


def _year_and_genres(rng, year_end: int, count: int) -> tuple[int, set]:
    year = int(rng.integers(1930, year_end))
    picks = rng.choice(count, size=int(rng.integers(1, 4)), replace=False)
    return year, set(picks.tolist())


# The fields of a user or an item line, id first, each drawn (a list is
# built left to right) in the order its release has always drawn them
def _ml100k_user(u: int, rng: np.random.Generator) -> list:
    return [u, int(rng.integers(12, 70)), "MF"[int(rng.integers(0, 2))],
            ML100K_OCCUPATIONS[int(rng.integers(0, len(ML100K_OCCUPATIONS)))],
            int(rng.integers(10000, 99999))]


def _ml100k_item(i: int, rng: np.random.Generator) -> list:
    year, picks = _year_and_genres(rng, 1999, len(ML100K_GENRES))
    return [i, f"Movie {i} ({year})", f"01-Jan-{year}", "",
            f"http://example.com/{i}",
            *(int(k in picks) for k in range(len(ML100K_GENRES)))]


def _ml1m_user(u: int, rng: np.random.Generator) -> list:
    return [u, "MF"[int(rng.integers(0, 2))],
            ML1M_AGE_CODES[int(rng.integers(0, len(ML1M_AGE_CODES)))],
            int(rng.integers(0, 21)), int(rng.integers(10000, 99999))]


def _ml1m_item(i: int, rng: np.random.Generator) -> list:
    year, picks = _year_and_genres(rng, 2001, len(ML1M_GENRES))
    return [i, f"Movie {i} ({year})",
            "|".join(ML1M_GENRES[k] for k in sorted(picks))]


def write_layout(out_dir: str | Path, format: str = "ml-100k",
                 num_users: int = 30, num_items: int = 25,
                 num_ratings: int = 400, seed: int = 0) -> Path:
    """Write the ratings, users and items files of ``format`` into
    ``out_dir``, named and separated as ``dataset.LAYOUTS`` says."""
    layout = _layout(format)
    draw_user, draw_item = {"ml-100k": (_ml100k_user, _ml100k_item),
                            "ml-1m": (_ml1m_user, _ml1m_item)}[format]
    rng = np.random.default_rng(seed)
    # lazy rows, so that the draws follow the order the files are written in
    rows = {"ratings": zip(*_sample_interactions(num_users, num_items,
                                                 num_ratings, rng)),
            "users": (draw_user(u, rng) for u in range(1, num_users + 1)),
            "items": (draw_item(i, rng) for i in range(1, num_items + 1))}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for role, lines in rows.items():
        name, sep, _ = layout[role]
        with open(out_dir / name, "w", encoding="latin-1") as fh:
            fh.writelines(sep.join(map(str, row)) + "\n" for row in lines)
    return out_dir
