"""Seeded generators for small MovieLens-layout directories.

Useful for demos, smoke tests and pipeline determinism checks when the real
archives are not on disk.  Ratings follow a two-factor latent model with
noise so that trained models have genuine structure to pick up.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import (ML100K_GENRES, ML100K_OCCUPATIONS, ML1M_AGE_CODES,
                      ML1M_GENRES)


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


def write_ml100k_layout(out_dir: str | Path, num_users: int = 30,
                        num_items: int = 25, num_ratings: int = 400,
                        seed: int = 0) -> Path:
    """Write u.data / u.user / u.item with the ml-100k field layout."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    users, items, ratings, stamps = _sample_interactions(
        num_users, num_items, num_ratings, rng)

    with open(out_dir / "u.data", "w", encoding="ascii") as fh:
        for u, i, r, t in zip(users, items, ratings, stamps):
            fh.write(f"{u}\t{i}\t{r}\t{t}\n")

    with open(out_dir / "u.user", "w", encoding="ascii") as fh:
        for u in range(1, num_users + 1):
            age = int(rng.integers(12, 70))
            gender = "MF"[int(rng.integers(0, 2))]
            occupation = ML100K_OCCUPATIONS[int(rng.integers(0, len(ML100K_OCCUPATIONS)))]
            fh.write(f"{u}|{age}|{gender}|{occupation}|{int(rng.integers(10000, 99999))}\n")

    with open(out_dir / "u.item", "w", encoding="latin-1") as fh:
        for i in range(1, num_items + 1):
            year = int(rng.integers(1930, 1999))
            flags = np.zeros(len(ML100K_GENRES), int)
            flags[rng.choice(len(ML100K_GENRES), size=int(rng.integers(1, 4)),
                             replace=False)] = 1
            flag_str = "|".join(str(x) for x in flags)
            fh.write(f"{i}|Movie {i} ({year})|01-Jan-{year}||"
                     f"http://example.com/{i}|{flag_str}\n")
    return out_dir


def write_ml1m_layout(out_dir: str | Path, num_users: int = 30,
                      num_items: int = 25, num_ratings: int = 400,
                      seed: int = 0) -> Path:
    """Write ratings.dat / users.dat / movies.dat with the ml-1m layout."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    users, items, ratings, stamps = _sample_interactions(
        num_users, num_items, num_ratings, rng)

    with open(out_dir / "ratings.dat", "w", encoding="latin-1") as fh:
        for u, i, r, t in zip(users, items, ratings, stamps):
            fh.write(f"{u}::{i}::{r}::{t}\n")

    with open(out_dir / "users.dat", "w", encoding="latin-1") as fh:
        for u in range(1, num_users + 1):
            gender = "MF"[int(rng.integers(0, 2))]
            age = ML1M_AGE_CODES[int(rng.integers(0, len(ML1M_AGE_CODES)))]
            occ = int(rng.integers(0, 21))
            fh.write(f"{u}::{gender}::{age}::{occ}::{int(rng.integers(10000, 99999))}\n")

    with open(out_dir / "movies.dat", "w", encoding="latin-1") as fh:
        for i in range(1, num_items + 1):
            year = int(rng.integers(1930, 2001))
            picks = rng.choice(len(ML1M_GENRES), size=int(rng.integers(1, 4)),
                               replace=False)
            names = "|".join(ML1M_GENRES[k] for k in sorted(picks))
            fh.write(f"{i}::Movie {i} ({year})::{names}\n")
    return out_dir
