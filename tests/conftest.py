"""Test session setup."""

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # Hypothesis caches files under its home directory; keep them inside
    # pytest's own cache instead of a .hypothesis/ in the working directory.
    set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
