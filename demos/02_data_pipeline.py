#!/usr/bin/env python3
# The data pipeline end to end on a generated MovieLens-layout directory:
# parsing, side-information encoding, splitting, binarization and the dense
# network input, which the trainers build one batch of rows at a time.

import tempfile
from pathlib import Path

import numpy as np

from semiae.dataset import (binarize, build_vectors, load_raw_directory,
                            split)
from semiae.synthetic import write_layout

with tempfile.TemporaryDirectory() as tmp:
    raw = write_layout(Path(tmp) / "ml-100k-mini", "ml-100k", num_users=12,
                       num_items=9, num_ratings=60, seed=5)
    print("raw files:", sorted(p.name for p in raw.iterdir()))
    data = load_raw_directory(raw, "ml-100k")
ds = data.ratings
print(f"\nparsed: {ds.num_users} users x {ds.num_items} items, "
      f"{len(ds)} observed ratings")
print("first triple (user, item, rating, timestamp):", ds.triples()[0])

# The side files are parsed into the dataset's index order: row k of each
# side matrix belongs to user (or item) k, whose raw id is in the id map.
print("\nuser profile encoding:", data.user_side.dim, "columns, one row for",
      f"each of the {ds.num_users} users; row 0 is raw user {ds.user_ids[0]}")
print("  blocks:", data.user_side.column_labels[:2], "...",
      data.user_side.column_labels[-7:])
print("  one row:", np.flatnonzero(data.user_side.rows[0]),
      "<- indices of the hot entries")
print("item feature encoding:", data.item_side.dim, "columns "
      "(19 genre flags + a year scalar)")
print("  one row, year scalar:", data.item_side.rows[0][-1])

# Seeded splitting partitions the observed set exactly.
train, test = split(ds, train_fraction=0.7, seed=1)
print(f"\nsplit 70/30: |train|={len(train)} |test|={len(test)} "
      f"(sum {len(train) + len(test)})")

# Binarization for the ranking task: only ratings above the threshold
# survive, as 1s; the rest leave the observed set entirely.
btrain = binarize(train, threshold=4.0)
print(f"binarized train: {len(btrain)} liked interactions "
      f"out of {len(train)} ratings")

# The network input: each user's liked items over the whole catalogue, with
# the user's profile appended; the mask marks the observed cells.  The
# builder writes the rows it is given into buffers the caller owns: the
# trainers pass one batch of rows at a time, here every row at once.
users = np.arange(btrain.num_users)
x = np.empty((btrain.num_users, btrain.num_items + data.user_side.dim))
mask = np.empty((btrain.num_users, btrain.num_items), bool)
build_vectors(btrain, data.user_side, users, x, mask)
print(f"\nuser-based input: {x.shape} ({btrain.num_items} items + "
      f"{data.user_side.dim} profile columns) | observed cells:",
      int(mask.sum()))
batch = np.empty((3, x.shape[1]))
build_vectors(btrain, data.user_side, [5, 0, 7], batch)
print("a batch of users 5, 0 and 7 holds their rows of it:",
      np.array_equal(batch, x[[5, 0, 7]]))
# An item's row is the user row of the transposed dataset, whose users are
# the items.
item_x = np.empty((btrain.num_items, btrain.num_users + data.item_side.dim))
build_vectors(btrain.T, data.item_side, np.arange(btrain.num_items), item_x)
print("item-based rating block is its transpose:",
      np.array_equal(x[:, :btrain.num_items].T, item_x[:, :btrain.num_users]))
