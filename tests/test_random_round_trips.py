"""Round trips over random presentations, driven by hypothesis: a product
of elementary units inverts to the product of their inverses in reverse
order, and a decomposition recomposes to its input."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from stringalg import PathAlgebra  # noqa: E402
from stringalg.decompose import decompose_general  # noqa: E402
from stringalg.morphisms import invert_unit  # noqa: E402

from factories import (derivation_targets, elementary_unit_paths,  # noqa: E402
                       random_graded_identity_automorphism, random_unit_factors,
                       unit_product)
from test_random_presentations import random_presentation  # noqa: E402

randoms = st.randoms(use_true_random=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(randoms)
def test_unit_product_inverts_to_reversed_inverses(rng):
    algebra = PathAlgebra(random_presentation(rng))
    paths = elementary_unit_paths(algebra, max_degree=8)
    assume(paths)
    factors = random_unit_factors(rng, paths, most=5)
    value = unit_product(algebra, factors)
    expected = unit_product(algebra, [(-c, p) for c, p in reversed(factors)])
    assert invert_unit(value).inverse == expected


@settings(max_examples=20, deadline=None, derandomize=True)
@given(randoms)
def test_decomposition_recomposes(rng):
    presentation = random_presentation(rng)
    assume(not presentation.is_polynomial_ring)
    algebra = PathAlgebra(presentation)
    f = random_graded_identity_automorphism(
        rng, algebra, pieces=2, targets=derivation_targets(algebra),
        paths=elementary_unit_paths(algebra))
    assert decompose_general(f).compose() == f
