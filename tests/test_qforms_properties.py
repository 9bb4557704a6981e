"""Group-law properties of form composition on random fundamental D, |D| < 2**32."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ztwo.qforms import (  # noqa: E402
    compose,
    form_pow,
    inverse,
    is_fundamental_discriminant,
    principal_form,
    reduced_forms,
)
from test_qforms import shanks_compose_reference  # noqa: E402

FUNDAMENTAL = st.integers(3, 2 ** 32 - 1).map(lambda n: -n).filter(is_fundamental_discriminant)


def repeated_compose(f, e, D):
    """f**e by |e| compositions of f (or of its inverse) onto the identity."""
    step = f if e >= 0 else inverse(f)
    result = principal_form(D)
    for _ in range(abs(e)):
        result = compose(result, step)
    return result


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(FUNDAMENTAL, st.data())
def test_composition_is_an_abelian_group_law(D, data):
    forms = st.sampled_from(reduced_forms(D))
    f, g, k = data.draw(forms), data.draw(forms), data.draw(forms)
    ident = principal_form(D)
    assert compose(ident, f) == f == compose(f, ident)
    assert compose(f, g) == compose(g, f) == shanks_compose_reference(f, g)
    assert compose(f, f) == shanks_compose_reference(f, f)
    assert compose(compose(f, g), k) == compose(f, compose(g, k))
    for e in range(-3, 9):
        assert form_pow(f, e) == repeated_compose(f, e, D), e
