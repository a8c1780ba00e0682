#!/usr/bin/env python3
"""Download and extract the MovieLens archives into ./data.

Usage:
    python3 tools/fetch_movielens.py [ml-100k] [ml-1m]

Defaults to ml-100k.  Needs network access to files.grouplens.org; on an
air-gapped machine, download the zips elsewhere and extract them so that
data/ml-100k/u.data (and data/ml-1m/ratings.dat) exist.
"""

import sys
import urllib.request
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semiae.dataset import FORMATS, LAYOUTS  # noqa: E402

BASE_URL = "https://files.grouplens.org/datasets/movielens/"
DATA_DIR = ROOT / "data"


def fetch(name: str) -> None:
    target = DATA_DIR / name
    if (target / LAYOUTS[name]["ratings"][0]).exists():
        print(f"{target} already present, skipping")
        return
    DATA_DIR.mkdir(exist_ok=True)
    zip_path = DATA_DIR / f"{name}.zip"
    url = BASE_URL + f"{name}.zip"
    print(f"downloading {url} ...")
    urllib.request.urlretrieve(url, zip_path)
    print(f"extracting into {DATA_DIR} ...")
    with zipfile.ZipFile(zip_path) as zf:
        zf.extractall(DATA_DIR)
    zip_path.unlink()
    print(f"done: {target}")


if __name__ == "__main__":
    names = sys.argv[1:] or ["ml-100k"]
    for name in names:
        if name not in FORMATS:
            sys.exit(f"unknown dataset {name!r}; choose from {list(FORMATS)}")
        fetch(name)
