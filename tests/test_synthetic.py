import hashlib

import pytest

from semiae.synthetic import write_layout


@pytest.mark.parametrize("fmt, seed, digests", [
    ("ml-100k", 7, {
        "u.data": "9227ecd16e7e2e9b27074b138c7fc75ee14f3c07f6b465199686aebfcd62725b",
        "u.item": "6752df2adb2667c941a507adc1a7d6b75cf14a0559453de9f17fe14dfaaecc40",
        "u.user": "8ba44ba5c0df8104a87bb3a06c706421e375a85421e87a709b2f09012acaef36"}),
    ("ml-1m", 11, {
        "movies.dat": "4b25b3d97a1c2e5c8e5c72cf92a52fcccbcb45851145a49049770c7310a49d59",
        "ratings.dat": "4f73c33feeb2f9ca04dbca22f42d5b474b158c297937d9a3257b7cd2d979cdae",
        "users.dat": "d9204ecdb1d811f40f90ab3714fcd198ce281e314a703b80f63d659458573340"})])
def test_bytes_are_pinned(tmp_path, fmt, seed, digests):
    """The files of the test suite's two layouts (30 users, 25 items, 400
    ratings) keep their bytes.  The hashes follow numpy's ``Generator``
    streams, measured at numpy 2.4.6."""
    out = write_layout(tmp_path, fmt, num_users=30, num_items=25,
                       num_ratings=400, seed=seed)
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == digests


def test_more_ratings_than_pairs_rejected(tmp_path):
    with pytest.raises(ValueError, match="^more ratings requested than "
                       "user-item pairs$"):
        write_layout(tmp_path / "raw", "ml-1m", num_users=3, num_items=2,
                     num_ratings=7)
    assert not (tmp_path / "raw").exists()


def test_unknown_format_gets_the_parsers_error(tmp_path):
    with pytest.raises(ValueError, match=r"^unknown format 'ml-10m'; "
                       r"expected one of \('ml-100k', 'ml-1m'\)$"):
        write_layout(tmp_path / "raw", "ml-10m")
    assert not (tmp_path / "raw").exists()
