"""Group-law properties of form composition on random fundamental D, |D| < 2**32,
and the Smith form of random relation matrices."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ztwo import qforms  # noqa: E402
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


def test_smith_partition_matches_sympy():
    # random lower-triangular relation rows with a p-power diagonal, as the
    # Sylow closure records them, against sympy's Smith normal form over Z;
    # half of them diagonal (p**0 entries included), which the partition
    # reads with no elimination
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 3, 5]), st.booleans(), st.data())
    def check(p, diagonal, data):
        t = data.draw(st.integers(1, 4))
        off = st.just(0) if diagonal else st.integers(-60, 60)
        rows = [[data.draw(off) for _ in range(i)]
                + [p ** data.draw(st.integers(0, 3))] for i in range(t)]
        square = sympy.Matrix([row + [0] * (t - len(row)) for row in rows])
        expected = []
        for d in smith_normal_form(square, domain=sympy.ZZ).diagonal():
            d, v = abs(d), 0
            while d % p == 0:
                d, v = d // p, v + 1
            assert d == 1
            if v:
                expected.append(v)
        assert qforms._smith_partition(rows, p) == sorted(expected, reverse=True), rows

    check()
