import pytest

from sympcrystal.bijections import (
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    standardized_word,
)
from sympcrystal.oracles import (
    inverse_column_word,
    remove_biggest,
    strip_sequence,
    trace_tables,
)
from sympcrystal.oscillating import SSOT, OscStrip, enumerate_ssot, ssot_from_text
from sympcrystal.rsk import (
    c_index,
    enumerate_admissible,
    matrix,
    rsk_column,
)
from sympcrystal.tableaux import (
    KingTableau,
    Tableau,
    enumerate_king,
    king_weight,
    partitions_in_box,
    rect_complement,
)

KING = KingTableau(((2, -2), (3, 3), (-3, 4), (4, -4)))
M_SMALL = matrix([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def worked_ssot():
    return SSOT(
        (
            OscStrip((), (1, 1)),
            OscStrip((2,), (2, -2)),
            OscStrip((2,), (-1,)),
            OscStrip((1,), (-1,)),
        )
    )


# ---------------------------------------------------------------------------
# King tableaux <-> oscillating tableaux


def test_psi_worked_example():
    s = psi(KING, 4, 2)
    assert s == worked_ssot()
    assert s.weight() == (2, 2, 1, 1)
    assert s.outside == ()
    assert king_weight(KING, 4) == s.crystal_weight(2) == (0, 0, 1, 1)


def test_psi_inverse_worked_example():
    assert psi_inverse(worked_ssot(), 2) == KING


def test_psi_single_box():
    plain = KingTableau(((1,),))
    barred = KingTableau(((-1,),))
    assert psi(plain, 1, 1) == SSOT((OscStrip((), ()),))
    assert psi(barred, 1, 1) == SSOT((OscStrip((), (1, -1)),))
    assert psi_inverse(SSOT((OscStrip((), (1, -1)),)), 1) == barred


def test_psi_bijection_small_ranks():
    for m, g in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]:
        for mu in partitions_in_box(m, g):
            kings = enumerate_king(mu, m)
            images = set()
            for t in kings:
                s = psi(t, m, g)
                assert s.length == m
                assert s.outside == rect_complement(mu, m, g)
                assert s.num_cols <= g
                assert king_weight(t, m) == s.crystal_weight(g)
                assert psi_inverse(s, g) == t
                images.add(s)
            assert len(images) == len(kings)
            # surjectivity: every SSOT with the right outside is hit
            mu_hat = rect_complement(mu, m, g)
            assert len(enumerate_ssot(mu_hat, m, g)) == len(kings)


@pytest.mark.parametrize("m,g", [(2, 3), (3, 2), (3, 3)])
def test_psi_inverse_then_psi_is_the_identity(m, g):
    """Every chain from the empty shape, at every outside, comes back."""
    chains = enumerate_ssot(None, m, g)
    assert chains
    for s in chains:
        assert psi(psi_inverse(s, g), m, g) == s


def test_psi_rejects_bad_input():
    with pytest.raises(ValueError):
        psi(KING, 4, 1)  # shape does not fit the rectangle
    with pytest.raises(ValueError):
        psi(KING, 3, 2)  # letters exceed m
    skew = SSOT((OscStrip((1,), (-1,)),))
    with pytest.raises(ValueError):
        psi_inverse(skew, 2)
    wide = SSOT((OscStrip((), (1, 1, -1, -1)),))
    with pytest.raises(ValueError):
        psi_inverse(wide, 1)  # peak needs two columns


# ---------------------------------------------------------------------------
# standardization


def test_standardized_word():
    # blocks hand out their labels in decreasing order
    assert standardized_word(M_SMALL) == (6, 4, 5, 2, 3, 1)


# ---------------------------------------------------------------------------
# oscillating tableaux <-> matrices


def test_phi_worked_example():
    assert phi(worked_ssot()) == M_SMALL


def test_phi_inverse_worked_example():
    assert phi_inverse(M_SMALL) == worked_ssot()


def test_phi_rejects_bad_input():
    with pytest.raises(ValueError):
        phi(SSOT((OscStrip((), (1,)),)))  # does not end empty
    with pytest.raises(ValueError):
        phi_inverse(matrix([[0, 1], [0, 0]]))  # not symmetric
    with pytest.raises(ValueError):
        phi_inverse(matrix([[1]]))  # odd diagonal
    with pytest.raises(ValueError, match="nonnegative"):
        phi_inverse(((0, -1), (-1, 0)))  # symmetric, even diagonal, negative


@pytest.mark.parametrize(
    "m, g", [(m, g) for m in (1, 2, 3, 4) for g in (1, 2)] + [(3, 3)]
)
def test_phi_inverse_strips_equal_validated_ones(m, g):
    """``phi_inverse`` builds its strips from the shapes its walk passes,
    without replaying them; replaying each through ``OscStrip`` reaches the
    same peak and outside, and ``phi`` returns the matrix unchanged."""
    for mat in enumerate_admissible(m, g):
        t = phi_inverse(mat)
        for s in t.strips:
            checked = OscStrip(s.inside, s.word)
            assert (checked.star, checked.outside) == (s.star, s.outside)
        back = phi(t)
        assert matrix(back) == back == mat


def test_phi_bijection_small():
    for m, g in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
        mats = enumerate_admissible(m, g)
        ssots = enumerate_ssot((), m, g)
        assert len(mats) == len(ssots)
        for t in ssots:
            mt = phi(t)
            assert mt in mats
            assert phi_inverse(mt) == t
            # the column statistics correspond 2:1
            assert c_index(mt) == 2 * t.num_cols


def test_phi_weight_correspondence():
    for t in enumerate_ssot((), 3, 1):
        mt = phi(t)
        assert tuple(sum(r) for r in mt) == t.weight()


# ---------------------------------------------------------------------------
# trace tables


def test_trace_tables_worked_example():
    assert inverse_column_word(M_SMALL) == (1, 2, 1, 3, 2, 4)
    p_tables, v_tables = trace_tables(M_SMALL)
    assert [t.rows for t in p_tables] == [
        ((1, 1, 2, 4), (2, 3)),
        ((1, 1, 2), (2, 3)),
        ((1, 1, 3), (2,)),
        ((1, 1), (2,)),
        ((1, 2),),
        ((1,),),
        (),
    ]
    assert [t.rows for t in v_tables] == [
        (),
        ((1,),),
        ((1, 1),),
        ((1, 1), (2,)),
        ((1, 2),),
        ((1,),),
        (),
    ]
    assert p_tables[0] == rsk_column(M_SMALL)[0]


def test_trace_shapes_match_strips():
    # the V-walk shapes, cut at the weight boundaries, are the strips
    for m, g in [(2, 1), (2, 2), (3, 1)]:
        for mt in enumerate_admissible(m, g):
            t = phi_inverse(mt)
            _, v_tables = trace_tables(mt)
            shapes = [v.shape for v in v_tables]
            beta = 0
            for strip in t.strips:
                seg = shapes[beta : beta + strip.size + 1]
                assert tuple(seg) == strip_sequence(strip)
                beta += strip.size


def test_trace_deletion_identity():
    # V_q is P_q with its biggest entries removed, rightmost first
    for m, g in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for mt in enumerate_admissible(m, g):
            p_tables, v_tables = trace_tables(mt)
            for p, v in zip(p_tables, v_tables):
                assert v == remove_biggest(p, p.size - v.size)


def test_trace_diagonal_runs():
    p_tables, v_tables = trace_tables(matrix([[2]]))
    assert [t.rows for t in v_tables] == [(), ((1,),), ()]
    assert [t.rows for t in p_tables] == [((1, 1),), ((1,),), ()]
    # a 4-run splits two in, two out
    p_tables, v_tables = trace_tables(matrix([[4]]))
    assert [t.shape for t in v_tables] == [(), (1,), (2,), (1,), ()]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
