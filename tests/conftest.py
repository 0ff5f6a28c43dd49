"""Test session setup."""

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from cliffsim.multivector import Multivector
from cliffsim.witt import index_bits


def pytest_configure(config):
    # Hypothesis caches files under its home directory; keep them inside
    # pytest's own cache instead of a .hypothesis/ in the working directory.
    # With the cache plugin off (-p no:cacheprovider) there is no such cache,
    # and Hypothesis keeps its own default.
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def ket_by_definition():
    """The ket sum_k a_k prod_w (f_w^dagger if bit w of k is set, else f_w f_w^dagger), by Multivector products.

    Each basis word (f_1^dagger)^{b_1} ... (f_n^dagger)^{b_n} I is that ordered
    product, since f^dagger f f^dagger = f^dagger and the even f_w f_w^dagger
    commute with the other wires.
    """

    def ket(ctx, amplitudes):
        out = Multivector.zero(ctx.dim)
        for k, a in enumerate(amplitudes):
            if a:
                word = ctx.one()
                for w, bit in enumerate(index_bits(k, ctx.n), start=1):
                    word = word * (ctx.fdag(w) if bit else ctx.proj0(w))
                out = out + complex(a) * word
        return out

    return ket
