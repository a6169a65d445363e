"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with timings.  Everything here is exact equality at desk scale; the
stated time limits are asserted where a criterion carries one.
"""

import random
import time
from collections import Counter

import pytest

from sympcrystal.bijections import (
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    standardized_word,
)
from sympcrystal.characters import (
    LaurentCharacter,
    conjecture_verify,
    decompose_sp,
    dual_pieri_count,
    king_character,
    schur_eval,
    sundaram_h_count,
    weyl_character,
)
from sympcrystal.crystal import (
    MatrixCrystal,
    SsotCrystal,
    axiom_violations,
    crystal_graph,
    ssot_stats,
    stembridge_violations,
)
from sympcrystal.oracles import (
    complemented_row_pairs,
    inverse_column_word,
    longest_weakly_decreasing,
    matrices_with_sum,
    rotate180,
    rsk_row,
    trace_tables,
)
from sympcrystal.oscillating import (
    SSOT,
    OscStrip,
    enumerate_ssot,
    pair_multisets,
    ssot_from_text,
    strip_pair_multisets,
)
from sympcrystal.rsk import (
    c_index,
    enumerate_admissible,
    is_admissible,
    is_symmetric,
    matrix,
    row_sums,
    rsk_column,
    rsk_column_inverse,
    two_line_array,
)
from sympcrystal.tableaux import (
    KingTableau,
    Tableau,
    enumerate_king,
    king_weight,
    partitions_in_box,
    partitions_upto,
    rect_complement,
    weight_to_partition,
)

M_BIG = matrix([[2, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
M_SMALL = matrix([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
KING = KingTableau(((2, -2), (3, 3), (-3, 4), (4, -4)))
RUNNING = "(1 1b)(1 1 1b)(2 1 2b)(2 1)"


def worked_ssot():
    return SSOT(
        (
            OscStrip((), (1, 1)),
            OscStrip((2,), (2, -2)),
            OscStrip((2,), (-1,)),
            OscStrip((1,), (-1,)),
        )
    )


def report(num, label, started, limit=None):
    elapsed = time.monotonic() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {label}")


def test_criterion_01_worked_examples():
    started = time.monotonic()
    # symmetric matrix whose insertion pair coincides, shape (6,2)
    p, q = rsk_column(M_BIG)
    assert p == q == Tableau(((1, 1, 1, 1, 2, 4), (2, 3)))
    assert p.shape == (6, 2) and c_index(M_BIG) == 6 and is_admissible(M_BIG)
    # the running oscillating example: sizes and complementary weight
    t = ssot_from_text(RUNNING)
    assert t.weight() == (2, 3, 3, 2)
    assert t.crystal_weight(3) == (1, 0, 0, 1)
    # its operators at index 2 and the index-0 ladder
    c2, d2 = strip_pair_multisets(t, 2)
    assert c2 == [-2, 1, 1]
    assert d2 == [-2, 2, 2]
    cr = SsotCrystal(4, 3)
    up = cr.e(t, 2)
    assert (up.strips[1].word, up.strips[2].word) == ((1, 1, -1, -1), (1, 1))
    down = cr.f(t, 2)
    assert (down.strips[1].word, down.strips[2].word) == ((1, 1), (2, 2, -2, -2))
    lowered = cr.f(t, 0)
    assert lowered.strips[0].word == (1, 1, -1, -1)
    lowered = cr.f(lowered, 0)
    assert lowered.strips[0].word == (1, 1, 1, -1, -1, -1)
    assert cr.f(lowered, 0) is None
    # the four-strip chain through the standardized word to a King tableau
    w = worked_ssot()
    assert standardized_word(M_SMALL) == (6, 4, 5, 2, 3, 1)
    assert phi(w) == M_SMALL and phi_inverse(M_SMALL) == w
    assert rsk_column(M_SMALL)[0] == Tableau(((1, 1, 2, 4), (2, 3)))
    assert w.crystal_weight(2) == king_weight(KING, 4) == (0, 0, 1, 1)
    assert psi(KING, 4, 2) == w and psi_inverse(w, 2) == KING
    # the deletion trace: word and all seven tableau pairs
    assert inverse_column_word(M_SMALL) == (1, 2, 1, 3, 2, 4)
    p_tables, v_tables = trace_tables(M_SMALL)
    assert [x.rows for x in p_tables] == [
        ((1, 1, 2, 4), (2, 3)),
        ((1, 1, 2), (2, 3)),
        ((1, 1, 3), (2,)),
        ((1, 1), (2,)),
        ((1, 2),),
        ((1,),),
        (),
    ]
    assert [x.rows for x in v_tables] == [
        (),
        ((1,),),
        ((1, 1),),
        ((1, 1), (2,)),
        ((1, 2),),
        ((1,),),
        (),
    ]
    report(1, "worked examples reproduced exactly", started, limit=1.0)


def test_criterion_02_bijection_suite():
    started = time.monotonic()
    king_pairs = 0
    for m in (1, 2, 3):
        for g in (1, 2, 3):
            for mu in partitions_in_box(m, g):
                kings = enumerate_king(mu, m)
                images = [psi(t, m, g) for t in kings]
                assert sorted(map(str, images)) == sorted(
                    str(s) for s in enumerate_ssot(rect_complement(mu, m, g), m, g)
                )
                for t, s in zip(kings, images):
                    assert psi_inverse(s, g) == t
                    assert king_weight(t, m) == s.crystal_weight(g)
                king_pairs += len(kings)
    matrix_pairs = 0
    for m in (1, 2, 3):
        for g in (1, 2):
            chains = enumerate_ssot((), m, g)
            mats = enumerate_admissible(m, g)
            assert len(chains) == len(mats)
            seen = set()
            for t in chains:
                mt = phi(t)
                assert is_admissible(mt) and c_index(mt) <= 2 * g
                assert phi_inverse(mt) == t
                assert row_sums(mt) == t.weight()
                assert tuple(g - r for r in row_sums(mt)) == t.crystal_weight(g)
                seen.add(mt)
            assert seen == set(mats)
            matrix_pairs += len(chains)
    report(
        2,
        f"transport bijections exact ({king_pairs} king pairs, {matrix_pairs} matrix pairs)",
        started,
        limit=60.0,
    )


def _ssot_corpora():
    for m in (1, 2, 3):
        for g in (1, 2):
            yield m, g, [
                t
                for mu in partitions_in_box(m, g)
                for t in enumerate_ssot(rect_complement(mu, m, g), m, g)
            ]


def test_criterion_03_crystal_axioms():
    started = time.monotonic()
    checked = 0
    for m, g, corpus in _ssot_corpora():
        assert axiom_violations(SsotCrystal(m, g), corpus) == []
        mats = enumerate_admissible(m, g)
        assert axiom_violations(MatrixCrystal(m, g), mats) == []
        checked += len(corpus) + len(mats)
    report(3, f"crystal axioms, zero violations on {checked} vertices", started)


def test_criterion_04_equivariance_and_locality():
    started = time.monotonic()
    checks = 0
    for m in (1, 2, 3):
        for g in (1, 2):
            cr_s, cr_m = SsotCrystal(m, g), MatrixCrystal(m, g)
            for t in enumerate_ssot((), m, g):
                mt = phi(t)
                for i in range(m):
                    for ssot_op, matrix_op in ((cr_s.e, cr_m.e), (cr_s.f, cr_m.f)):
                        out = ssot_op(t, i)
                        assert (None if out is None else phi(out)) == matrix_op(mt, i)
                        if out is not None:
                            touched = {i - 1, i} if i else {0}
                            for j, strip in enumerate(out.strips):
                                if j not in touched:
                                    assert strip == t.strips[j]
                        checks += 1
                    assert ssot_stats(t, i, g) == cr_m.stats(mt, i)
    report(4, f"transport equivariance and locality, {checks} operator checks", started)


def test_criterion_05_component_structure():
    started = time.monotonic()
    graphs = vertices = 0
    for m in (1, 2, 3):
        for g in (1, 2, 3):
            for mu in partitions_in_box(m, g):
                outside = rect_complement(mu, m, g)
                ambient = enumerate_ssot(outside, m, g)
                graph = crystal_graph(SsotCrystal(m, g), ambient)
                assert set(graph.vertices) == set(ambient)
                assert len(graph.components()) == 1
                tops = graph.highest_weight_vertices()
                assert len(tops) == 1
                expected_words = tuple(
                    (row,) * outside[row - 1] if row <= len(outside) else ()
                    for row in range(1, m + 1)
                )
                assert tuple(s.word for s in tops[0].strips) == expected_words
                assert weight_to_partition(tops[0].crystal_weight(g)) == mu
                character = LaurentCharacter(
                    Counter(t.crystal_weight(g) for t in graph.vertices)
                )
                assert character == weyl_character(mu, m)
                graphs += 1
                vertices += len(ambient)
    report(
        5,
        f"every component connected with the predicted top vertex "
        f"({graphs} graphs, {vertices} vertices)",
        started,
        limit=300.0,
    )


def test_criterion_06_character_oracles():
    started = time.monotonic()
    shapes = 0
    for m in (1, 2, 3):
        for lam in partitions_upto(6, m):
            assert king_character(lam, m) == weyl_character(lam, m)
            shapes += 1
    rng = random.Random(0)
    products = 0
    for m in (1, 2, 3):
        pool = partitions_upto(3, m)
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            f = weyl_character(a, m) * weyl_character(b, m)
            rebuilt = LaurentCharacter()
            for nu, c in decompose_sp(f, m).items():
                assert c > 0
                rebuilt = rebuilt + c * weyl_character(nu, m)
            assert rebuilt == f
            products += 1
    report(
        6,
        f"character oracles agree on {shapes} shapes; "
        f"{products} random products reconstruct exactly",
        started,
    )


def test_criterion_07_pieri_rules():
    started = time.monotonic()
    checks = 0
    for m in (1, 2, 3):
        targets = partitions_upto(4, m)
        for lam in partitions_upto(4, m):
            chi = weyl_character(lam, m)
            for ell in range(4):
                dec_e = decompose_sp(chi * schur_eval((1,) * ell, m), m)
                dec_h = decompose_sp(chi * schur_eval((ell,), m), m)
                for nu in set(targets) | set(dec_e) | set(dec_h):
                    assert dec_e.get(nu, 0) == dual_pieri_count(lam, ell, nu, m)
                    assert dec_h.get(nu, 0) == sundaram_h_count(lam, ell, nu)
                    checks += 2
    report(7, f"both Pieri rules match the decomposition, {checks} coefficients", started)


def test_criterion_08_product_formula():
    started = time.monotonic()
    asserted = reported = 0
    for m in (2, 3):
        for lam in partitions_upto(4, m):
            for mu in partitions_upto(4, m):
                r = conjecture_verify(lam, mu, m)
                if r.mode == "ASSERT":
                    assert r.ok, (m, lam, mu, r.rows)
                    asserted += 1
                else:
                    reported += 1
                    print(f"  report-mode table m={m} lam={lam} mu={mu}: {r.rows}")
    # report mode: tables come out, nothing is asserted about them
    for lam, mu in (((1,), (4, 1)), ((2,), (4, 2))):
        r = conjecture_verify(lam, mu, 2)
        assert r.mode == "REPORT" and r.rows
        reported += 1
        print(f"  report-mode table m=2 lam={lam} mu={mu}: {r.rows}")
    report(
        8,
        f"product formula holds on all {asserted} proved-range cases "
        f"({reported} report-only cases at this scale)",
        started,
        limit=300.0,
    )


def _semistandard(t: Tableau) -> bool:
    """``rsk_column`` builds P and Q without ``Tableau``'s checks; rebuild
    them through it, which raises unless they are semistandard."""
    return Tableau(t.rows).shape == t.shape


def test_criterion_09_insertion_properties():
    started = time.monotonic()
    count = 0
    for nrows in (1, 2, 3, 4):
        for ncols in (1, 2, 3, 4):
            for mt in matrices_with_sum(nrows, ncols, 8):
                p, q = rsk_column(mt)
                assert _semistandard(p) and _semistandard(q)
                assert rsk_column_inverse(p, q, nrows, ncols) == mt
                bottom = two_line_array(mt)[1]
                first_row = p.shape[0] if p.shape else 0
                assert first_row == longest_weakly_decreasing(bottom)
                if nrows == ncols and is_symmetric(mt):
                    assert p == q
                    even_rows = all(r % 2 == 0 for r in p.shape)
                    even_diag = all(mt[k][k] % 2 == 0 for k in range(nrows))
                    assert even_rows == even_diag
                count += 1
    rotations = 0
    for nrows in (1, 2, 3, 4):
        for ncols in (1, 2, 3, 4):
            for mt in matrices_with_sum(nrows, ncols, 6):
                p, q = rsk_column(rotate180(mt))
                assert _semistandard(p) and _semistandard(q)
                assert rsk_row(complemented_row_pairs(mt))[1] == q
                rotations += 1
    report(
        9,
        f"insertion properties exhaustive on {count} matrices "
        f"(+{rotations} rotation checks)",
        started,
    )


def test_criterion_10_stembridge_battery():
    started = time.monotonic()
    checked = 0
    for m, g, corpus in _ssot_corpora():
        assert stembridge_violations(SsotCrystal(m, g), corpus) == []
        mats = enumerate_admissible(m, g)
        assert stembridge_violations(MatrixCrystal(m, g), mats) == []
        checked += len(corpus) + len(mats)
    report(10, f"local axiom battery, zero violations on {checked} vertices", started)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
