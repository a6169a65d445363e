import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sympcrystal.characters import (
    ConjectureReport,
    LaurentCharacter,
    _divide_exact,
    brauer_klimyk,
    conjecture_table,
    conjecture_verify,
    decompose_sp,
    dual_pieri_count,
    dual_pieri_counts,
    king_character,
    schur_eval,
    sundaram_h_count,
    weyl_character,
    weyl_dimension,
)
from sympcrystal.crystal import ssot_stats
from sympcrystal.oracles import is_horizontal_strip
from sympcrystal.oscillating import enumerate_ssot, enumerate_strips
from sympcrystal.tableaux import (
    conjugate,
    enumerate_king,
    normalize_partition,
    partitions_upto,
)


# ---------------------------------------------------------------------------
# Laurent ring


def test_laurent_arithmetic():
    x = LaurentCharacter({(1,): 1})
    xi = LaurentCharacter({(-1,): 1})
    f = x + xi
    assert f * f == LaurentCharacter({(2,): 1, (0,): 2, (-2,): 1})
    assert f - f == LaurentCharacter()
    assert not (f - f)
    assert 3 * f == f * 3 == LaurentCharacter({(1,): 3, (-1,): 3})
    assert (f * f).terms.get((0,), 0) == 2 and f.terms.get((5,), 0) == 0
    assert sum(f.terms.values()) == 2


def test_laurent_strings():
    assert str(LaurentCharacter()) == "0"
    assert str(LaurentCharacter({(0, 0): 1})) == "1"
    f = LaurentCharacter({(1, -1): 1, (0, 0): -2, (-1, 1): 1})
    assert str(f) == "x1*x2^-1 - 2 + x1^-1*x2"


# ---------------------------------------------------------------------------
# character constructors


def test_king_character_anchors():
    assert king_character((1,), 1) == LaurentCharacter({(1,): 1, (-1,): 1})
    assert king_character((), 2) == LaurentCharacter({(0, 0): 1})
    assert king_character((1, 1), 2) == LaurentCharacter(
        {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): 1}
    )


def test_weyl_character_anchors():
    assert weyl_character((1,), 1) == LaurentCharacter({(1,): 1, (-1,): 1})
    assert weyl_character((), 2) == LaurentCharacter({(0, 0): 1})
    assert weyl_character((1, 1), 2) == king_character((1, 1), 2)
    with pytest.raises(ValueError):
        weyl_character((1, 1), 1)


def test_king_equals_weyl_small():
    for m in (1, 2, 3):
        for lam in partitions_upto(4, m):
            assert king_character(lam, m) == weyl_character(lam, m), (m, lam)


def test_divide_exact_rejects_inexact_ratio():
    x1, x2 = LaurentCharacter({(1, 0): 1}), LaurentCharacter({(0, 1): 1})
    with pytest.raises(ValueError):
        _divide_exact(x1, x1 + x2)
    with pytest.raises(ValueError):
        _divide_exact(x1 * x1 + x2, x1 + x2)


def test_divide_exact_names_the_failed_step():
    x1, x2 = LaurentCharacter({(1, 0): 1}), LaurentCharacter({(0, 1): 1})
    with pytest.raises(ValueError, match="leading coefficients do not divide"):
        _divide_exact(x1, 2 * x1)
    with pytest.raises(ValueError, match="leaves the degree box"):
        _divide_exact(x1, x1 + x2)


def test_weyl_equals_king_on_a_large_shape():
    # 1,099 terms: the division's heap works through a long remainder
    assert weyl_character((6, 6, 6), 3) == king_character((6, 6, 6), 3)


def test_divide_exact_recovers_products():
    x1, x2 = LaurentCharacter({(1, 0): 1}), LaurentCharacter({(0, 1): 1})
    x1_inv = LaurentCharacter({(-1, 0): 1})
    for p, den in [
        (x1 + x2, x1 + x2),
        (x1 * x1 - 3 * x2 + x1_inv, x1 - x2),
        (king_character((2, 1), 2), king_character((1,), 2)),
        (schur_eval((2,), 2) - LaurentCharacter({(0, 0): 1}), x1 * x2 + x1_inv),
    ]:
        assert _divide_exact(p * den, den) == p


def test_weyl_dimension_anchors():
    for lam, m, want in [
        ((1,), 1, 2),
        ((1,), 2, 4),
        ((2,), 2, 10),
        ((1, 1), 2, 5),
        ((1,), 3, 6),
        ((2, 2, 2), 3, 84),
        ((3, 3, 3), 3, 330),
    ]:
        assert weyl_dimension(lam, m) == want
        assert sum(weyl_character(lam, m).terms.values()) == want
        assert len(enumerate_king(lam, m)) == want


def test_schur_eval_anchors():
    assert schur_eval((1,), 1) == LaurentCharacter({(1,): 1, (-1,): 1})
    assert schur_eval((1, 1), 1) == LaurentCharacter({(0,): 1})
    assert schur_eval((2,), 1) == LaurentCharacter({(2,): 1, (0,): 1, (-2,): 1})
    assert schur_eval((), 2) == LaurentCharacter({(0, 0): 1})
    # first elementary = first homogeneous = the defining character
    assert schur_eval((1,), 2) == weyl_character((1,), 2)
    # too-long column over 2m letters vanishes
    assert schur_eval((1, 1, 1), 1) == LaurentCharacter()


def test_schur_eval_is_signed_symmetric():
    f = schur_eval((2, 1), 2)
    flipped = LaurentCharacter({(-a, b): c for (a, b), c in f.terms.items()})
    swapped = LaurentCharacter({(b, a): c for (a, b), c in f.terms.items()})
    assert f == flipped == swapped


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_anchors():
    f = weyl_character((1,), 2) * weyl_character((1,), 2)
    assert decompose_sp(f, 2) == Counter({(2,): 1, (1, 1): 1, (): 1})
    assert decompose_sp(LaurentCharacter({(0, 0): 1}), 2) == Counter({(): 1})
    assert decompose_sp(LaurentCharacter(), 2) == Counter()
    assert decompose_sp(LaurentCharacter({(): 1}), 0) == Counter({(): 1})
    s = schur_eval((1,), 1)
    assert decompose_sp(s * s, 1) == Counter({(2,): 1, (): 1})


def test_decompose_rejects_asymmetric():
    with pytest.raises(ValueError):
        decompose_sp(LaurentCharacter({(1, 0): 1}), 2)
    with pytest.raises(ValueError):
        decompose_sp(LaurentCharacter({(0, 0): 1}) + LaurentCharacter({(0, 1): 1}), 2)
    # x1 + x1^-1 is fixed by negations but not by the swap
    with pytest.raises(ValueError, match="not symmetric under signed permutations"):
        decompose_sp(LaurentCharacter({(1, 0): 1, (-1, 0): 1}), 2)
    # x1 + x2 is fixed by the swap but not by negations
    with pytest.raises(ValueError, match="not symmetric under signed permutations"):
        decompose_sp(LaurentCharacter({(1, 0): 1, (0, 1): 1}), 2)
    # exponents of another length are not characters on m tracks
    for f, m in [(LaurentCharacter({(0, 0): 1}), 3), (LaurentCharacter({(0, 0, 0): 1}), 2)]:
        with pytest.raises(ValueError, match="entries"):
            decompose_sp(f, m)


def test_decompose_reconstructs_every_small_product():
    cases = [(m, partitions_upto(3, m)) for m in (1, 2)] + [(3, partitions_upto(2, 3))]
    for m, pool in cases:
        for lam in pool:
            for mu in pool:
                f = king_character(lam, m) * schur_eval(mu, m)
                rebuilt = LaurentCharacter()
                for nu, c in decompose_sp(f, m).items():
                    rebuilt = rebuilt + c * weyl_character(nu, m)
                assert rebuilt == f, (m, lam, mu)


def test_decompose_reconstructs_random_products():
    rng = random.Random(7)
    pool = {m: partitions_upto(3, m) for m in (1, 2, 3)}
    for _ in range(25):
        m = rng.choice((1, 2, 3))
        a, b = rng.choice(pool[m]), rng.choice(pool[m])
        f = weyl_character(a, m) * weyl_character(b, m)
        dec = decompose_sp(f, m)
        rebuilt = LaurentCharacter()
        for nu, c in dec.items():
            assert c > 0  # products of characters decompose positively
            rebuilt = rebuilt + c * weyl_character(nu, m)
        assert rebuilt == f


def test_decompose_handles_negative_multiplicities():
    m = 2
    f = weyl_character((2,), m) - 3 * weyl_character((1, 1), m)
    assert decompose_sp(f, m) == Counter({(2,): 1, (1, 1): -3})


def test_brauer_klimyk_matches_product_route():
    # every mu up to size 3, so also those with more than 2m rows, whose
    # Schur evaluation is 0; the multiplicities and their order must agree
    cases = 0
    for m in range(4):
        for lam in partitions_upto(4, m):
            chi = king_character(lam, m)
            for mu in partitions_upto(3):
                s = schur_eval(mu, m)
                want = decompose_sp(chi * s, m)
                got = brauer_klimyk(lam, s, m)
                assert list(got.items()) == list(want.items()), (m, lam, mu)
                cases += 1
    assert cases == 182


def test_brauer_klimyk_anchors():
    assert brauer_klimyk((1,), schur_eval((1,), 2), 2) == Counter(
        {(2,): 1, (1, 1): 1, (): 1}
    )
    assert brauer_klimyk((2, 1), LaurentCharacter(), 2) == Counter()
    assert brauer_klimyk((2, 1), LaurentCharacter({(0, 0): 1}), 2) == Counter({(2, 1): 1})
    assert brauer_klimyk((), LaurentCharacter({(): 1}), 0) == Counter({(): 1})
    # chi_lam * (-1) has multiplicity -1 at lam
    assert brauer_klimyk((1,), -LaurentCharacter({(0,): 1}), 1) == Counter({(1,): -1})


@pytest.mark.parametrize("fn", [weyl_character, weyl_dimension])
def test_weyl_routes_share_the_row_check(fn):
    with pytest.raises(ValueError, match="^shape \\(1, 1\\) has more than 1 rows$"):
        fn((1, 1), 1)


def test_brauer_klimyk_rejects_bad_input():
    with pytest.raises(ValueError, match="shape \\(1, 1\\) has more than 1 rows"):
        brauer_klimyk((1, 1), LaurentCharacter({(0,): 1}), 1)
    with pytest.raises(ValueError, match="not weakly decreasing"):
        brauer_klimyk((1, 2), LaurentCharacter({(0, 0): 1}), 2)
    with pytest.raises(ValueError, match="not symmetric under signed permutations"):
        brauer_klimyk((1,), LaurentCharacter({(1, 0): 1, (0, 1): 1}), 2)
    with pytest.raises(ValueError, match="entries"):
        brauer_klimyk((1,), LaurentCharacter({(0, 0, 0): 1}), 2)


# ---------------------------------------------------------------------------
# Pieri counts


def dual_pieri_by_target(lam, ell, nu, g):
    """One strip scan per target shape: the reference for the shared scan."""
    target = conjugate(nu)
    return sum(
        1
        for s in enumerate_strips(conjugate(lam), g, size=ell)
        if s.outside == target
    )


def test_dual_pieri_counts_match_per_target_scan():
    for g in range(4):
        for lam in partitions_upto(3):
            for ell in range(4):
                counts = dual_pieri_counts(lam, ell, g)
                targets = partitions_upto(sum(lam) + ell)
                assert set(counts) <= set(targets), (g, lam, ell)
                for nu in targets:
                    want = dual_pieri_by_target(lam, ell, nu, g)
                    assert counts[nu] == want, (g, lam, ell, nu)
                    assert dual_pieri_count(lam, ell, nu, g) == want


def test_dual_pieri_anchors():
    assert dual_pieri_count((1,), 1, (2,), 2) == 1
    assert dual_pieri_count((1,), 1, (1,), 2) == 0  # parity
    assert dual_pieri_count((), 2, (), 1) == 1
    # two strips (1)->(1) of size 2 exist when the peak may be two wide
    assert dual_pieri_count((1,), 2, (1,), 1) == 1
    assert dual_pieri_count((1,), 2, (1,), 2) == 2


def test_dual_pieri_matches_decomposition():
    for m in (1, 2):
        for lam in partitions_upto(2, m):
            chi = weyl_character(lam, m)
            for ell in range(4):
                dec = decompose_sp(chi * schur_eval((1,) * ell, m), m)
                for nu in partitions_upto(3, m):
                    assert dec.get(nu, 0) == dual_pieri_count(lam, ell, nu, m), (
                        m,
                        lam,
                        ell,
                        nu,
                    )


def test_sundaram_anchors():
    assert sundaram_h_count((), 2, ()) == 0
    assert sundaram_h_count((), 2, (2,)) == 1
    assert sundaram_h_count((1,), 1, ()) == 1
    assert sundaram_h_count((1,), 2, (1,)) == 1  # only delta = empty
    assert sundaram_h_count((2, 1), 0, (2, 1)) == 1


def test_sundaram_matches_decomposition():
    for m in (1, 2):
        for lam in partitions_upto(2, m):
            chi = weyl_character(lam, m)
            for k in range(4):
                dec = decompose_sp(chi * schur_eval((k,), m), m)
                for nu in set(partitions_upto(5, m)):
                    assert dec.get(nu, 0) == sundaram_h_count(lam, k, nu), (
                        m,
                        lam,
                        k,
                        nu,
                    )


def _subpartitions(cap):
    if not cap:
        yield ()
        return
    for first in range(cap[0] + 1):
        inner_cap = tuple(min(v, first) for v in cap[1:])
        for rest in _subpartitions(inner_cap):
            yield normalize_partition((first, *rest))


def sundaram_by_scan(lam, k, nu):
    """Every shape under both, kept when it leaves a horizontal strip to each."""
    cap = tuple(min(a, b) for a, b in zip(lam, nu))
    return sum(
        1
        for delta in _subpartitions(cap)
        if sum(lam) + sum(nu) - 2 * sum(delta) == k
        and is_horizontal_strip(lam, delta)
        and is_horizontal_strip(nu, delta)
    )


def test_sundaram_matches_subpartition_scan():
    shapes = partitions_upto(4)
    for lam in shapes:
        for nu in shapes:
            for k in range(9):
                assert sundaram_h_count(lam, k, nu) == sundaram_by_scan(lam, k, nu), (
                    lam,
                    k,
                    nu,
                )


@given(
    st.integers(0, 3).flatmap(
        lambda n: st.tuples(
            st.sampled_from(partitions_upto(3) or [()]),
            st.sampled_from(partitions_upto(3) or [()]),
            st.just(n),
        )
    )
)
def test_sundaram_symmetry(args):
    lam, nu, k = args
    assert sundaram_h_count(lam, k, nu) == sundaram_h_count(nu, k, lam)


# ---------------------------------------------------------------------------
# the product formula


def conjecture_lhs(lam, mu, nu, m):
    return conjecture_table(lam, mu, m)[normalize_partition(nu)]


def test_conjecture_lhs_anchors():
    assert conjecture_lhs((1,), (1,), (2,), 2) == 1
    assert conjecture_lhs((), (), (), 2) == 1
    assert conjecture_lhs((), (), (1,), 2) == 0
    assert conjecture_lhs((), (1, 1), (), 2) == 1


def test_conjecture_table_matches_filter_after_enumerate():
    # the pruned walk against every chain filtered by its junction statistics
    for m, size in [(1, 5), (2, 4), (3, 3)]:
        for lam in partitions_upto(size, m):
            for mu in partitions_upto(size, m):
                weight = conjugate(mu)
                n = len(weight)
                chains = enumerate_ssot(None, n, m, inside=conjugate(lam), weight=weight)
                expected = Counter(
                    conjugate(t.outside) for t in chains
                    if all(ssot_stats(t, i, m)[0] == 0 for i in range(1, n))
                )
                assert conjecture_table(lam, mu, m) == expected, (m, lam, mu)


def test_conjecture_table_totals():
    table = conjecture_table((1,), (1,), 2)
    assert table == Counter({(2,): 1, (1, 1): 1, (): 1})
    assert conjecture_table((), (), 3) == Counter({(): 1})
    # no strips: the chain stays at conj(lam), whatever m allows
    for lam in [(1,), (2,), (2, 1), (1, 1, 1), (3, 2)]:
        for m in (1, 2, 3):
            assert conjecture_table(lam, (), m) == Counter({lam: 1})


def test_conjecture_verify_anchor():
    r = conjecture_verify((1,), (1,), 2)
    assert isinstance(r, ConjectureReport)
    assert r.mode == "ASSERT" and r.ok
    assert r.rows == (((), 1, 1), ((1, 1), 1, 1), ((2,), 1, 1))


def test_conjecture_verify_two_column_case():
    r = conjecture_verify((1,), (2, 1), 2)
    assert r.mode == "ASSERT" and r.ok
    assert r.rows == (
        ((), 1, 1),
        ((1, 1), 2, 2),
        ((2,), 2, 2),
        ((2, 2), 1, 1),
        ((3, 1), 1, 1),
    )


def test_conjecture_report_mode():
    # four columns and two rows: outside the proved range, flagged not asserted
    r = conjecture_verify((1,), (4, 1), 2)
    assert r.mode == "REPORT"
    assert r.rows == (
        ((2,), 1, 1),
        ((3, 1), 2, 2),
        ((4,), 2, 2),
        ((4, 2), 1, 1),
        ((5, 1), 1, 1),
    )


def test_conjecture_sweep_small():
    for lam in partitions_upto(3, 2):
        for mu in partitions_upto(3, 2):
            r = conjecture_verify(lam, mu, 2)
            assert r.mode == "ASSERT"
            assert r.ok, (lam, mu, r.rows)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
