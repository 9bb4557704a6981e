import re

import pytest

from ztwo import arith, classifier, qforms
from ztwo.arith import factor_squarefree, factorize, is_squarefree
from ztwo.classifier import (
    Analysis,
    IwasawaInvariants,
    RBound,
    analyze,
    classify,
    cross_check,
    exponent_r_corollary,
    exponent_r_oracle,
    iwasawa_invariants,
    predict,
)
from ztwo.errors import (
    EnumerationBoundExceeded,
    InvalidInput,
    NotSquarefree,
    PrecondViolated,
    UnsupportedFamily,
    ZtwoError,
)
from ztwo.symbols import jacobi, quartic_residue


def classified_range(limit):
    for d in range(3, limit + 1, 2):
        try:
            tag = classify(d)
        except NotSquarefree:
            continue
        yield d, tag


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,tag,primes", [
    (89, "A1", (89,)),
    (209, "A2", (11, 19)),
    (247, "B", (13, 19)),
    (7, "C7", (7,)),
    (21, "UNCLASSIFIED", (3, 7)),
    (41, "UNCLASSIFIED", (41,)),   # 41 = 9 (mod 16) but (2/41)_4 = -1
    (3, "UNCLASSIFIED", (3,)),
])
def test_classify_examples(d, tag, primes):
    got = classify(d)
    assert got.tag == tag
    assert got.primes == primes


def test_classify_orders_a2_by_jacobi():
    tag = classify(209)
    p, q = tag.primes
    assert jacobi(p, q) == 1


def test_classify_orders_b_by_congruence():
    tag = classify(247)
    assert tag.primes[0] % 8 == 5 and tag.primes[1] % 8 == 3


def test_classify_total_and_exclusive_to_3000():
    for d, tag in classified_range(3000):
        assert tag.tag in ("A1", "A2", "B", "C7", "UNCLASSIFIED")
        ps = tag.d.factors
        if tag.tag == "A1":
            assert len(ps) == 1 and ps[0] % 16 == 9
            assert quartic_residue(2, ps[0]) == 1
        elif tag.tag == "A2":
            p, q = tag.primes
            assert p % 8 == 3 and q % 8 == 3 and jacobi(p, q) == 1
        elif tag.tag == "B":
            p, q = tag.primes
            assert p % 8 == 5 and q % 8 == 3
        elif tag.tag == "C7":
            assert len(ps) == 1 and ps[0] % 16 == 7


# ---------------------------------------------------------------------------
# exponent r
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,r", [(89, 3), (209, 3), (247, 2), (55, 3), (95, 4), (407, 5), (73, 4)])
def test_exponent_r_oracle(d, r):
    assert exponent_r_oracle(classify(d)) == r


@pytest.mark.parametrize("d,expected", [
    (89, RBound.exact(3)),
    (209, RBound.exact(3)),
    (55, RBound.exact(3)),
    (95, RBound.exact(4)),
    (247, RBound.exact(2)),
    (407, RBound.at_least(5)),
    (73, RBound.at_least(4)),
])
def test_exponent_r_corollary(d, expected):
    assert exponent_r_corollary(classify(d)) == expected


def test_a1_corollary_has_no_v_bound():
    # near 2**40 the least v is 2,091,578, past the default bound, which
    # the A1 route no longer applies: the row is exact, not skipped
    tag = classify(1099511000041)
    assert tag.tag == "A1"
    assert exponent_r_corollary(tag) == RBound.exact(3) == RBound.exact(analyze(tag).r)


def test_b_symbol_r_agrees_with_the_oracle():
    # r from (p/q) and (q/p)_4 alone, else None; the class group agrees when they decide
    decided = 0
    for tag in classifier.classified(3, 3000):
        if tag.tag != "B":
            continue
        p, q = tag.primes
        r = classifier.b_symbol_r(p, q)
        if jacobi(p, q) == 1 and quartic_residue(q % p, p) != 1:
            assert r is None
        else:
            assert r == exponent_r_oracle(tag), tag.d
            decided += 1
    assert decided


def test_b_pairs_the_symbols_leave_open_meet_the_legendre_precondition():
    # b_symbol_r is None only for (q/p) = (p/q) = +1 and (q/p)_4 = -1; with
    # (-1/p)_4 = -1 for p = 5 (mod 8) that gives (-q/p)_4 = +1, so the
    # corollary always reaches williams_witness and reads 4 or >= 5
    outcomes = {RBound.exact(4): 0, RBound.at_least(5): 0}
    for tag in classifier.classified(3, 2 * 10 ** 4):
        if tag.tag != "B" or classifier.b_symbol_r(*tag.primes) is not None:
            continue
        p, q = tag.primes
        assert quartic_residue(-q % p, p) == 1, tag.d
        outcomes[exponent_r_corollary(tag)] += 1
    assert outcomes == {RBound.exact(4): 75, RBound.at_least(5): 90}


def test_oracle_checks_its_discriminant_once(monkeypatch):
    tag = classify(89)
    calls = []
    check = qforms._check_primes

    def counting_check(D, primes):
        calls.append((D, tuple(primes)))
        return check(D, primes)
    monkeypatch.setattr(qforms, "_check_primes", counting_check)
    assert exponent_r_oracle(tag) == 3
    assert calls == [(-712, (2, 89))]  # D = -8 * 89 and its primes, checked once


def test_oracle_factors_no_discriminant(monkeypatch):
    # no call builds a Discriminant (so no class_group) or factors D, d or
    # 2d: the primes come from the tag, and only the small coefficients of
    # the descent are factored
    tag = classify(89)
    factored, squarefree = [], []

    def counting_factorize(n):
        factored.append(n)
        return factorize(n)

    def counting_is_squarefree(n):
        squarefree.append(n)
        return is_squarefree(n)
    monkeypatch.setattr(arith, "factorize", counting_factorize)
    monkeypatch.setattr(qforms, "factorize", counting_factorize)
    monkeypatch.setattr(qforms, "is_squarefree", counting_is_squarefree)
    assert exponent_r_oracle(tag) == exponent_r_oracle(tag) == 3
    assert factored and not {712, 178, 89} & set(factored)
    assert squarefree == []


def classify_each(dmin, dmax):
    """(tag, d, primes) of classify(factor_squarefree(d)) for each d, refusals skipped."""
    out = []
    for d in range(dmin, dmax + 1):
        try:
            tag = classify(factor_squarefree(d))
        except ZtwoError:
            continue
        out.append((tag.tag, tag.d, tag.primes))
    return out


@pytest.mark.parametrize("dmin, dmax", [
    (3, 10 ** 4),  # more than one sieve block
    (998001, 10 ** 6),
    (10, 5), (0, 2), (-7, 1), (8, 8), (9, 9), (10, 11), (3, 3), (2, 3),
    (2 ** 32 + 1, 2 ** 32 + 200),
    (10 ** 11, 10 ** 11 + 200),
    (2 ** 40 - 40, 2 ** 40 + 10),  # nothing at or past 2**40
])
def test_classified_matches_the_per_d_path(dmin, dmax):
    # the window sieve yields the same tags as factoring each d alone
    want = classify_each(dmin, dmax)
    got = [(t.tag, t.d, t.primes) for t in classifier.classified(dmin, dmax)]
    assert got == want
    assert all(d.value < 2 ** 40 for _, d, _ in got)


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_classified_across_sieve_blocks(block, monkeypatch):
    # small blocks put many block boundaries in each window, and each
    # block sieves only the primes up to the square root of its last d
    monkeypatch.setattr(arith, "_sieve_block", lambda hi: block)
    windows = [(2001, 3000), (998001, 998300), (2 ** 40 - 30, 2 ** 40 - 1)]
    for dmin, dmax in windows:
        got = [(t.tag, t.d, t.primes) for t in classifier.classified(dmin, dmax)]
        assert got == classify_each(dmin, dmax), (dmin, dmax)


@pytest.mark.parametrize("hi, block", [
    (3, 2048), (10 ** 6, 2048), (10 ** 9, 2048),
    ((2049 * 16) ** 2 - 1, 2048), ((2049 * 16) ** 2, 2049),
    (10 ** 11, 19764), (2 ** 40 - 1, 65535),
])
def test_sieve_block_grows_with_the_window(hi, block):
    # every window up to 10**9 sieves 2,048 odd d per block, and no block
    # holds more than 65,535 below 2**40
    assert arith._sieve_block(hi) == block


def test_oracle_never_counts_forms(monkeypatch):
    def no_count(*args):
        raise AssertionError("the oracle counted forms")
    for name in ("class_group", "_RootTable", "_structure", "_form_tally"):
        monkeypatch.setattr(qforms, name, no_count)
    rs = {tag.d.value: exponent_r_oracle(tag) for tag in classifier.classified(3, 3000)
          if tag.tag in classifier.EXACT_FAMILIES}
    assert (rs[89], rs[209], rs[247], rs[55], rs[95], rs[407]) == (3, 3, 2, 3, 4, 5)


@pytest.mark.parametrize("dmin, dmax", [(998001, 10 ** 6), (9999001, 10 ** 7), (99999001, 10 ** 8)])
def test_oracle_matches_the_form_count_on_high_windows(dmin, dmax):
    # the scan-high window and the 1,000 d below 1e7 and 1e8: r from the
    # certified 2-Sylow basis equals r from the counted class group
    checked = 0
    for tag in classifier.classified(dmin, dmax):
        if tag.tag not in classifier.EXACT_FAMILIES:
            continue
        if tag.tag == "B":
            h2 = qforms.class_group(-tag.d.value).h2
            assert exponent_r_oracle(tag) == h2.bit_length(), tag.d
        else:
            h2 = qforms.class_group(-8 * tag.d.value).h2
            assert exponent_r_oracle(tag) == h2.bit_length() - 1, tag.d
        checked += 1
    assert checked > 30


def test_analyze_beyond_the_enumeration_bound():
    # |D| > 2**32: the form count refuses, the certificate still gives an r
    # that the corollary route confirms on every exact tag
    agreed = 0
    for tag in classifier.classified(2 ** 32 + 1, 2 ** 32 + 200):
        if tag.tag not in classifier.EXACT_FAMILIES:
            continue
        D = -tag.d.value if tag.tag == "B" else -8 * tag.d.value
        with pytest.raises(EnumerationBoundExceeded):
            qforms.class_group(D)
        r = analyze(tag).r
        assert exponent_r_corollary(tag).satisfied_by(r), tag.d
        agreed += 1
    assert agreed >= 3
    # near 1e11 the family-B symbols decide r whenever (p/q) = -1 or (q/p)_4 = +1
    decided = [(t, classifier.b_symbol_r(*t.primes)) for t in classifier.classified(10 ** 11, 10 ** 11 + 200)
               if t.tag == "B"]
    assert [r for _, r in decided if r] and all(analyze(t).r == r for t, r in decided if r)


def test_exponent_r_rejects_other_families():
    # C7 and UNCLASSIFIED: both routes refuse with one type, exit 2 in the CLI
    for d, tag in ((7, "C7"), (21, "UNCLASSIFIED")):
        assert classify(d).tag == tag
        for route in (exponent_r_oracle, exponent_r_corollary):
            with pytest.raises(UnsupportedFamily, match=f"for family {tag}"):
                route(classify(d))


def test_rbound_parse_roundtrip():
    for rb in (RBound.exact(3), RBound.at_least(5)):
        assert RBound.parse(str(rb)) == rb


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def test_predict_worked_example_shapes():
    assert predict(89, 1, "L").shape.divisors == (2, 4)
    assert predict(89, 1, "K").shape.divisors == (2, 8)
    assert predict(55, 2, "L").shape.divisors == (16,)
    for n in range(1, 5):
        assert predict(247, n, "K").shape.divisors == (2 ** (n + 1),)
        assert predict(247, n, "L").shape.divisors == (2 ** (n + 1),)


def test_predict_shapes_over_range():
    for d, tag in classified_range(500):
        if tag.tag not in ("A1", "A2", "B"):
            continue
        r = exponent_r_oracle(tag)
        for n in (1, 3, 7):
            L = predict(d, n, "L")
            K = predict(d, n, "K")
            assert L.r == K.r == r
            if tag.tag == "B":
                assert L.shape.divisors == K.shape.divisors == (2 ** (n + r - 1),)
            else:
                assert L.shape.divisors == (2, 2 ** (n + r - 2))
                assert K.shape.divisors == (2, 2 ** (n + r - 1))


def test_predict_doubling_growth():
    for d in (89, 209, 247, 55, 95):
        for tower in ("L", "K"):
            for n in range(1, 20):
                assert (predict(d, n + 1, tower).shape.order
                        == 2 * predict(d, n, tower).shape.order)


def test_predict_c7_and_unclassified():
    pred = predict(7, 1, "L")
    assert not pred.shape.exact
    assert pred.shape.divisors == ()
    assert "cyclic" in pred.shape.note
    with pytest.raises(UnsupportedFamily):
        predict(7, 1, "K")
    with pytest.raises(UnsupportedFamily):
        predict(21, 1, "L")


@pytest.mark.parametrize("n, tower", [(0, "L"), (-1, "K"), (1, "M"), (1, "both")])
def test_predict_bad_arguments_are_invalid_input(n, tower):
    with pytest.raises(InvalidInput):
        predict(89, n, tower)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,r", [(89, 3), (209, 3), (247, 2), (55, 3), (95, 4), (407, 5), (7, None), (21, None)])
def test_analyze_reads_r(d, r):
    tag = classify(d)
    assert analyze(tag) == Analysis(tag, r)


def _forge(monkeypatch, D, basis, exps):
    # the halving builder hands a forged basis for D to the certificate check
    build = qforms._halving_basis
    monkeypatch.setattr(qforms, "_halving_basis",
                        lambda D_, primes: (basis, exps) if D_ == D else build(D_, primes))


def test_analyze_refuses_broken_a_precondition(monkeypatch):
    # Cl(-8*89) really is Z/8; its element of order 2 alone would give r = 1
    _forge(monkeypatch, -712, [(2, 0, 89)], [1])
    msg = "Cl(-712) certificate: the product of generators [0] is in the principal genus"
    with pytest.raises(PrecondViolated, match=re.escape(msg)):
        analyze(classify(89))
    with pytest.raises(PrecondViolated):
        predict(89, 1, "L")
    (entry,) = cross_check(89).violations
    assert (entry.d, entry.detail) == (89, msg)
    # past the certificate, analyze still holds an A-family to r >= 3
    monkeypatch.setattr(classifier, "two_sylow", lambda D, primes: ([(2, 0, 89)], [1]))
    with pytest.raises(PrecondViolated, match="oracle r = 1 < 3 for an A-family"):
        analyze(classify(89))


def test_analyze_refuses_broken_b_precondition(monkeypatch):
    # Cl(-13*19) really is Z/2 x Z/3; a certificate of a non-cyclic 2-part is refused
    g = qforms._reduce(13, 13, 8)
    _forge(monkeypatch, -247, [g, g], [1, 1])
    msg = "Cl(-247) certificate has rank 2, genus theory says 1"
    with pytest.raises(PrecondViolated, match=re.escape(msg)):
        analyze(classify(247))
    (entry,) = cross_check(250).violations
    assert (entry.d, entry.detail) == (247, msg)


def test_bad_layer_or_tower_is_refused_before_any_two_sylow(monkeypatch):
    def no_two_sylow(D, primes):
        raise AssertionError(f"Cl({D}) built for a refused input")
    monkeypatch.setattr(classifier, "two_sylow", no_two_sylow)
    with pytest.raises(InvalidInput, match="layer index must be >= 1"):
        predict(89, 0, "L")
    with pytest.raises(InvalidInput, match="layer index must be <= 10000"):
        predict(89, 10 ** 4 + 1, "L")
    with pytest.raises(InvalidInput, match="tower must be"):
        predict(89, 1, "X")
    with pytest.raises(InvalidInput, match="tower must be"):
        iwasawa_invariants(89, "X")
    with pytest.raises(UnsupportedFamily):
        iwasawa_invariants(21, "X")  # the family is refused before the tower


def test_analysis_needs_r():
    with pytest.raises(TypeError):
        Analysis(classify(89))

# ---------------------------------------------------------------------------
# closed formulas and predicates
# ---------------------------------------------------------------------------

def test_predicted_l_layers_are_cyclic_exactly_for_b():
    # over every classified d <= 2*10**4: B predicts one divisor for the
    # L-layers n = 2..4, and A1 and A2 predict two
    count = 0
    for tag in classifier.classified(3, 2 * 10 ** 4):
        count += 1
        if tag.tag in ("A1", "A2", "B"):
            analysis = analyze(tag)
            widths = {len(analysis.predict(n, "L").shape.divisors) for n in (2, 3, 4)}
            assert widths == {1 if tag.tag == "B" else 2}, tag
    assert count == 8103


def test_iwasawa_invariants():
    assert iwasawa_invariants(89, "L") == IwasawaInvariants(1, 0, 2, 1)
    assert iwasawa_invariants(89, "K").nu == 3
    assert iwasawa_invariants(247, "L").nu == 1
    assert iwasawa_invariants(247, "K").nu == 1
    with pytest.raises(UnsupportedFamily):
        iwasawa_invariants(7, "L")
    with pytest.raises(InvalidInput):
        iwasawa_invariants(89, "M")


def test_iwasawa_formula_consistency():
    for d in (89, 209, 247, 55, 95, 407):
        for tower in ("L", "K"):
            inv = iwasawa_invariants(d, tower)
            assert (inv.lam, inv.mu, inv.valid_from) == (1, 0, 1)
            for n in range(inv.valid_from, 21):
                order = predict(d, n, tower).shape.order
                assert order.bit_length() - 1 == inv.lam * n + inv.mu * 2 ** n + inv.nu


def test_analysis_formula_is_what_predict_and_invariants_wrap():
    # divisors, nu and LAMBDA, which scan reads unchecked, are the
    # integers of the checked Prediction and IwasawaInvariants
    count = 0
    for tag in classifier.classified(3, 3000):
        if tag.tag not in classifier.EXACT_FAMILIES:
            continue
        count += 1
        a = analyze(tag)
        for tower in classifier.TOWERS:
            inv = a.invariants(tower)
            assert (a.nu(tower), classifier.LAMBDA) == (inv.nu, inv.lam), (tag, tower)
            for n in range(1, 5):
                assert a.divisors(n, tower) == a.predict(n, tower).shape.divisors, (tag, n, tower)
    assert count == 206


def _refusal(call, *args):
    with pytest.raises(ZtwoError) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


def test_refusals_keep_their_type_and_text():
    c7, unclassified = analyze(classify(7)), analyze(classify(21))
    k_tower = (UnsupportedFamily, "no K-tower formula for a prime d = 7 (mod 16)")
    assert _refusal(c7.predict, 1, "K") == _refusal(predict, 7, 1, "K") == k_tower
    no_family = (UnsupportedFamily, "d = 21 matches no family with a prediction")
    for tower in classifier.TOWERS:
        assert _refusal(unclassified.predict, 1, tower) == _refusal(predict, 21, 1, tower) == no_family
        for a, d in ((c7, 7), (unclassified, 21)):
            expected = (UnsupportedFamily, f"no invariants for family {a.tag.tag}")
            assert _refusal(a.invariants, tower) == _refusal(iwasawa_invariants, d, tower) == expected


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------

def test_cross_check_small_range():
    report = cross_check(250)
    assert report.violations == []
    assert [e.d for e in report.entries] == [
        15, 33, 39, 55, 57, 73, 87, 89, 95, 111, 129, 143, 159,
        177, 183, 201, 209, 215, 233, 247, 249,
    ]


def test_cross_check_family_filter():
    entries = [e for e in cross_check(100).entries if e.tag == "B"]
    assert [e.d for e in entries] == [15, 39, 55, 87, 95]
    by_d = {e.d: e.r_oracle for e in entries}
    assert by_d == {15: 2, 39: 3, 55: 3, 87: 2, 95: 4}


def test_cross_check_empty():
    assert cross_check(3).entries == []


def test_with_oddsquarefree_inputs():
    d = factor_squarefree(209)
    assert classify(d).tag == "A2"
    assert predict(d, 1, "L").shape.divisors == (2, 4)
