import pytest

from semiae.synthetic import write_layout


@pytest.fixture(scope="session")
def ml100k_dir(tmp_path_factory):
    """A small synthetic directory with the ml-100k file layout."""
    return write_layout(tmp_path_factory.mktemp("raw100k"), "ml-100k",
                        num_users=30, num_items=25, num_ratings=400, seed=7)


@pytest.fixture(scope="session")
def ml1m_dir(tmp_path_factory):
    """A small synthetic directory with the ml-1m file layout."""
    return write_layout(tmp_path_factory.mktemp("raw1m"), "ml-1m",
                        num_users=30, num_items=25, num_ratings=400, seed=11)
