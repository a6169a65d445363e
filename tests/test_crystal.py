import hashlib
import itertools
import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from sympcrystal.bijections import phi as phi_map
from sympcrystal.bijections import psi
from sympcrystal.crystal import (
    CrystalGraph,
    KingCrystal,
    MatrixCrystal,
    OperatorTable,
    SsotCrystal,
    axiom_violations,
    crystal_graph,
    decompose,
    graph_to_adjacency,
    graph_to_dot,
    ssot_stats,
    ssyt_lower,
    ssyt_raise,
    ssyt_stats,
    stembridge_violations,
)
from sympcrystal.oracles import (
    locality_mask,
    matrix_lower_surgery,
    matrix_raise_surgery,
    strip_additions,
    strip_removals,
)
from sympcrystal.oscillating import (
    SSOT,
    OscStrip,
    _rebuild_junction,
    enumerate_ssot,
    pair_multisets,
    shift_overlap,
    ssot_from_text,
    strip_pair_multisets,
)
from sympcrystal.rsk import enumerate_admissible, matrix
from sympcrystal.tableaux import (
    Tableau,
    enumerate_king,
    king_weight,
    partitions_in_box,
    partitions_of,
    rect_complement,
    tableaux_of_shape,
)


def running_example() -> SSOT:
    return ssot_from_text("(1 1b)(1 1 1b)(2 1 2b)(2 1)")


# ---------------------------------------------------------------------------
# multisets and pairing


def test_shift_overlap_anchors():
    assert shift_overlap([1], [1, 2], 1) == [2]
    assert shift_overlap([1, 2], [1], 1) == [2, 2]
    assert shift_overlap([], [1, 1, 1], 1) == []


@given(
    st.lists(st.integers(1, 5), max_size=6),
    st.lists(st.integers(1, 5), max_size=6),
)
def test_up_down_round_trip(a_items, b_items):
    a, b = sorted(a_items), sorted(b_items)
    c, d = shift_overlap(a, b, 1), shift_overlap(b, a, 1)
    assert shift_overlap(c, d, -1) == a
    assert shift_overlap(d, c, -1) == b


def test_pairing_anchors():
    left_c, left_d = pair_multisets([-2, 1, 1], [-2, 2, 2])
    assert (left_c, left_d) == ([-2], [-2])
    # rows 2 and 3 of the locality example: the downward greedy scan would
    # leave {1,3} on the d side, but the bracket residue is {1,4}
    left_c, left_d = pair_multisets([1, 1, 2, 2, 4], [1, 3, 3, 3, 3, 4])
    assert (left_c, left_d) == ([4], [1, 4])
    # a maximal matching that is not the bracket matching leaves a different
    # residue: pairing only (1,3) below is maximal yet leaves {2}/{2}
    assert pair_multisets([1, 2], [2, 3]) == ([], [])


def _cancellation_residue(c_items, d_items, rng):
    """Residue after cancelling adjacent (c, d) value pairs in random order."""
    word = sorted(
        [(v, "d") for v in d_items] + [(v, "c") for v in c_items],
        key=lambda t: (t[0], t[1] == "c"),  # ties: closes before opens
    )
    while True:
        spots = [
            k
            for k in range(len(word) - 1)
            if word[k][1] == "c" and word[k + 1][1] == "d"
        ]
        if not spots:
            break
        k = rng.choice(spots)
        del word[k : k + 2]
    return sorted(v for v, s in word if s == "c"), sorted(v for v, s in word if s == "d")


@given(
    st.lists(st.integers(-3, 3), max_size=6),
    st.lists(st.integers(-3, 3), max_size=6),
)
def test_pairing_order_independence(c_items, d_items):
    expected = pair_multisets(sorted(c_items), sorted(d_items))
    for seed in range(3):
        got = _cancellation_residue(c_items, d_items, random.Random(seed))
        assert (sorted(expected[0]), sorted(expected[1])) == got


def test_pairing_residue_is_separated():
    left_c, left_d = pair_multisets([1, 1, 2, 2, 4], [1, 3, 3, 3, 3, 4])
    assert all(p >= q for p in left_c for q in left_d)


# ---------------------------------------------------------------------------
# type-A operators on semistandard tableaux


def test_ssyt_anchor():
    t = Tableau(((1, 1, 1, 2, 2), (2, 3), (3, 4)))
    assert ssyt_lower(t, 2) == Tableau(((1, 1, 1, 2, 3), (2, 3), (3, 4)))
    assert ssyt_raise(t, 2) is None
    assert ssyt_stats(t, 2) == (0, 1)


def test_ssyt_single_box():
    assert ssyt_lower(Tableau(((1,),)), 1) == Tableau(((2,),))
    assert ssyt_raise(Tableau(((2,),)), 1) == Tableau(((1,),))
    assert ssyt_lower(Tableau(((2,),)), 1) is None


def test_ssyt_mutual_inverse_exhaustive():
    for lam in ((1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)):
        for t in tableaux_of_shape(lam, 3):
            for i in (1, 2):
                down = ssyt_lower(t, i)
                if down is not None:
                    assert ssyt_raise(down, i) == t
                up = ssyt_raise(t, i)
                if up is not None:
                    assert ssyt_lower(up, i) == t
                eps, phi = ssyt_stats(t, i)
                assert (ssyt_raise(t, i) is not None) == (eps > 0)
                assert (ssyt_lower(t, i) is not None) == (phi > 0)


# ---------------------------------------------------------------------------
# operators on oscillating tableaux


def test_junction_multisets_anchor():
    t = running_example()
    c, d = strip_pair_multisets(t, 2)
    assert c == [-2, 1, 1]
    assert d == [-2, 2, 2]
    # the junction multisets have the two strip sizes
    for i in (1, 2, 3):
        c, d = strip_pair_multisets(t, i)
        assert len(c) == t.strips[i - 1].size
        assert len(d) == t.strips[i].size


# The Counter route that the list junction replaced, kept as the reference
# for a differential test: multisets of signed rows as Counters, shifted
# with Counter arithmetic, strips rebuilt from their row multisets.


def _ref_multiset_up(a: Counter, b: Counter) -> Counter:
    overlap = a & b
    return +((a - b) + Counter({k + 1: v for k, v in overlap.items()}))


def _ref_multiset_down(a: Counter, b: Counter) -> Counter:
    overlap = a & b
    return +((a - b) + Counter({k - 1: v for k, v in overlap.items()}))


def _ref_strip_pair_multisets(t: SSOT, i: int) -> tuple[Counter, Counter]:
    lo, hi = t.strips[i - 1], t.strips[i]
    bar_removes = _ref_multiset_up(strip_removals(lo), strip_additions(hi))
    bar_adds = _ref_multiset_up(strip_additions(hi), strip_removals(lo))
    c = Counter(strip_additions(lo)) + Counter({-r: v for r, v in bar_removes.items()})
    d = Counter(bar_adds) + Counter({-r: v for r, v in strip_removals(hi).items()})
    return c, d


def _ref_strip(inside, adds: Counter, removes: Counter) -> OscStrip:
    word = sorted(adds.elements(), reverse=True) + sorted(
        (-r for r in removes.elements()), reverse=True
    )
    return OscStrip(inside, tuple(word))


def _ref_rebuild_junction(t: SSOT, i: int, c: Counter, d: Counter) -> SSOT:
    c, d = +c, +d
    adds_lo = Counter({r: v for r, v in c.items() if r > 0})
    bar_removes = Counter({-r: v for r, v in c.items() if r < 0})
    bar_adds = Counter({r: v for r, v in d.items() if r > 0})
    removes_hi = Counter({-r: v for r, v in d.items() if r < 0})
    lo = _ref_strip(
        t.strips[i - 1].inside, adds_lo, _ref_multiset_down(bar_removes, bar_adds)
    )
    hi = _ref_strip(lo.outside, _ref_multiset_down(bar_adds, bar_removes), removes_hi)
    if hi.outside != t.strips[i].outside:
        raise ValueError("junction surgery changed the outer shape")
    return t.replace(i - 1, lo, hi)


def _ref_junction_op(t: SSOT, i: int, side: str):
    """(eps, phi) for side "stats", else the raised or lowered tableau."""
    c, d = _ref_strip_pair_multisets(t, i)
    left_c, left_d = pair_multisets(sorted(c.elements()), sorted(d.elements()))
    if side == "stats":
        return len(left_d), len(left_c)
    src, dst, left = (d, c, left_d[-1:]) if side == "raise" else (c, d, left_c[:1])
    if not left:
        return None
    src[left[0]] -= 1
    dst[left[0]] += 1
    return _ref_rebuild_junction(t, i, c, d)


@pytest.mark.parametrize("m,g", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_junction_lists_match_counter_route(m, g):
    cr = SsotCrystal(m, g)
    for t in enumerate_ssot(None, m, g):
        for i in range(1, m):
            c, d = _ref_strip_pair_multisets(t, i)
            assert strip_pair_multisets(t, i) == (sorted(c.elements()), sorted(d.elements()))
            assert ssot_stats(t, i, g) == _ref_junction_op(t, i, "stats")
            assert cr.e(t, i) == _ref_junction_op(t, i, "raise")
            assert cr.f(t, i) == _ref_junction_op(t, i, "lower")


@pytest.mark.parametrize("m,g", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_junction_rebuild_reads_back_the_unmoved_lists(m, g):
    # the decoder inverts the encoder on every junction, not only on e and f's outputs
    for t in enumerate_ssot(None, m, g):
        for i in range(1, m):
            assert _rebuild_junction(t, i, *strip_pair_multisets(t, i)) == t


def _checked_rebuild_junction(t: SSOT, i: int, c: list[int], d: list[int]) -> SSOT:
    """The junction decode that replays both new strips through the checking
    ``OscStrip``: the reference for the trusted one."""
    k, n = bisect_left(c, 0), bisect_left(d, 0)
    bar_removes = [-r for r in reversed(c[:k])]
    bar_adds = d[n:]
    removes_lo = shift_overlap(bar_removes, bar_adds, -1)
    lo = OscStrip(t.strips[i - 1].inside, c[k:][::-1] + [-r for r in removes_lo])
    adds_hi = shift_overlap(bar_adds, bar_removes, -1)
    hi = OscStrip(lo.outside, adds_hi[::-1] + d[:n][::-1])
    if hi.outside != t.strips[i].outside:
        raise ValueError("junction surgery changed the outer shape")
    return t.replace(i - 1, lo, hi)


def _checked_move(t: SSOT, i: int, g: int, k: int) -> SSOT | None:
    """Side k of index i (0 raises, 1 lowers), every new strip checked."""
    if i == 0:
        a = t.strips[0].word.count(1)
        b = len(t.strips[0].word) - a
        if (b, g - a)[k] <= 0:
            return None
        s = (-1, 1)[k]
        return t.replace(0, OscStrip((), (1,) * (a + s) + (-1,) * (b + s)))
    lists = list(strip_pair_multisets(t, i))
    unpaired = pair_multisets(*lists)[1 - k]
    if not unpaired:
        return None
    q = unpaired[k - 1]
    lists[1 - k].remove(q)
    insort(lists[k], q)
    return _checked_rebuild_junction(t, i, *lists)


@pytest.mark.parametrize("m,g", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_trusted_operator_outputs_match_the_checking_constructor(m, g):
    cr = SsotCrystal(m, g)
    moves = 0
    for t in enumerate_ssot(None, m, g):
        for i in range(m):
            for k, op in enumerate((cr.e, cr.f)):
                out = op(t, i)
                assert out == _checked_move(t, i, g, k)
                if out is None:
                    continue
                moves += 1
                for s in out.strips:
                    checked = OscStrip(s.inside, s.word)
                    assert (s.star, s.outside) == (checked.star, checked.outside)
                assert out.num_cols == max(s.num_cols for s in out.strips)
    assert moves > 0


def test_crystals_refuse_a_chain_wider_than_g():
    # (1 1 1b)(1b) peaks at (2,): two columns, one more than g = 1 allows
    t = ssot_from_text("(1 1 1b)(1b)")
    assert t.num_cols == 2
    models = [(SsotCrystal(2, 1), t, "more than 1 columns"),
              (MatrixCrystal(2, 1), phi_map(t), "more than 2g")]
    for cr, x, message in models:
        for i in (0, 1):
            for call in (cr.e, cr.f, cr.stats):
                with pytest.raises(ValueError, match=message):
                    call(x, i)
    assert SsotCrystal(2, 2).stats(t, 0) == (1, 0)


def test_ssot_junction_ops_anchor():
    t, cr = running_example(), SsotCrystal(4, 3)
    up = cr.e(t, 2)
    assert up.strips[1].word == (1, 1, -1, -1)
    assert up.strips[2].word == (1, 1)
    down = cr.f(t, 2)
    assert down.strips[1].word == (1, 1)
    assert down.strips[2].word == (2, 2, -2, -2)
    # strips away from the junction never move
    for s in (up, down):
        assert s.strips[0] == t.strips[0]
        assert s.strips[3] == t.strips[3]
    assert cr.f(up, 2) == t
    assert cr.e(down, 2) == t
    assert ssot_stats(t, 2, 3) == (1, 1)


def test_ssot_index0_anchor():
    t, cr = running_example(), SsotCrystal(4, 3)
    down = cr.f(t, 0)
    assert down.strips[0].word == (1, 1, -1, -1)
    assert down.strips[1:] == t.strips[1:]
    down2 = cr.f(down, 0)
    assert down2.strips[0].word == (1, 1, 1, -1, -1, -1)
    assert cr.f(down2, 0) is None
    assert cr.e(down, 0) == t
    assert ssot_stats(t, 0, 3) == (1, 2)


@pytest.mark.parametrize("m,g", [(1, 3), (2, 3), (3, 3)])
def test_ssot_index0_stats_count_the_first_strip(m, g):
    for t in enumerate_ssot(None, m, g):
        first = t.strips[0]
        assert set(first.word) <= {1, -1}
        expected = (strip_removals(first)[1], g - strip_additions(first)[1])
        assert ssot_stats(t, 0, g) == expected


# every shape in these m x g boxes is a `crystal decompose` input of the desk corpus
DESK_BOXES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


def _eps_within(t: SSOT, bound, g: int) -> bool:
    return all(b is None or ssot_stats(t, i, g)[0] <= b for i, b in enumerate(bound))


@pytest.mark.parametrize("m,g", DESK_BOXES)
def test_bounded_walk_keeps_the_highest_weight_chains(m, g):
    # the pruned walk against filter-after-enumerate, shape by shape, in order
    every = enumerate_ssot(None, m, g)
    for mu in partitions_in_box(m, g):
        outside = rect_complement(mu, m, g)
        highest = [t for t in every if t.outside == outside and _eps_within(t, (0,) * m, g)]
        assert enumerate_ssot(outside, m, g, eps_bound=(0,) * m) == highest


@pytest.mark.parametrize("m,g", [(2, 2), (3, 1), (3, 2)])
def test_bounded_walk_matches_the_filter_on_every_mixed_bound(m, g):
    every = enumerate_ssot(None, m, g)
    for bound in itertools.product((None, 0, 1, 2), repeat=m):
        kept = [t for t in every if _eps_within(t, bound, g)]
        assert enumerate_ssot(None, m, g, eps_bound=bound) == kept, bound


def test_bounded_walk_on_skew_chains():
    for inside, weight in [((1,), None), ((2, 1), (1, 2, 1)), ((1, 1), (2, 0, 2))]:
        every = enumerate_ssot(None, 3, 2, inside=inside, weight=weight)
        for bound in itertools.product((None, 0, 1), repeat=2):
            kept = [t for t in every if _eps_within(t, (None, *bound), 2)]
            found = enumerate_ssot(None, 3, 2, inside=inside, weight=weight,
                                   eps_bound=(None, *bound))
            assert found == kept, (inside, bound)


def test_ssot_index0_requires_straight():
    skew = SSOT((OscStrip((1,), (1,)),))
    with pytest.raises(ValueError):
        SsotCrystal(1, 2).e(skew, 0)
    with pytest.raises(ValueError):
        ssot_stats(skew, 0, 2)


def test_ssot_empty_strips_stats():
    empty = SSOT((OscStrip((), ()), OscStrip((), ())))
    assert ssot_stats(empty, 0, 3) == (0, 3)
    cr = SsotCrystal(2, 3)
    assert cr.e(empty, 0) is None
    assert cr.f(empty, 0).strips[0].word == (1, -1)


def test_ssot_index_out_of_range():
    with pytest.raises(ValueError):
        SsotCrystal(4, 3).e(running_example(), 4)


# ---------------------------------------------------------------------------
# operators on matrices


def test_matrix_index0():
    z, c21 = matrix([[0, 0], [0, 0]]), MatrixCrystal(2, 1)
    assert c21.e(z, 0) is None
    assert c21.f(z, 0) == matrix([[2, 0], [0, 0]])
    assert MatrixCrystal(1, 1).f(matrix([[2]]), 0) is None
    c12 = MatrixCrystal(1, 2)
    assert c12.f(matrix([[2]]), 0) == matrix([[4]])
    assert c12.stats(matrix([[4]]), 0) == (2, 0)
    assert c21.weight(matrix([[2, 0], [0, 0]])) == (-1, 1)


def test_matrix_rejects_wide_input():
    with pytest.raises(ValueError):
        MatrixCrystal(1, 1).e(matrix([[4]]), 0)  # four columns after insertion
    c21 = MatrixCrystal(2, 1)
    with pytest.raises(ValueError):
        c21.e(matrix([[0, 0], [0, 0]]), 2)
    for op in (c21.e, c21.f, c21.stats):
        with pytest.raises(ValueError, match="2g"):
            op(matrix([[4, 0], [0, 0]]), 1)  # the bound read off P at i >= 1


@pytest.mark.parametrize(
    "bad",
    [
        matrix([[1, 0], [0, 0]]),  # odd diagonal
        matrix([[0, 1], [0, 0]]),  # not symmetric
        matrix([[1, 0, 0], [0, 0, 0]]),  # not square
        ((0, 1), (1, -2)),  # negative entry, which matrix() would refuse
    ],
)
def test_matrix_ops_reject_non_admissible(bad):
    cr = MatrixCrystal(2, 2)
    for op in (cr.e, cr.f, cr.stats):
        for i in (0, 1):
            with pytest.raises(ValueError, match="symmetric with even diagonal"):
                op(bad, i)


def test_matrix_raise_locality_example():
    m = matrix([[2, 2, 1, 1], [2, 2, 0, 1], [1, 0, 4, 1], [1, 1, 1, 2]])
    expected = matrix([[2, 2, 1, 1], [2, 2, 0, 2], [1, 0, 4, 0], [1, 2, 0, 2]])
    cr = MatrixCrystal(4, 5)
    up = cr.e(m, 2)
    assert up == expected
    assert cr.f(up, 2) == m
    assert matrix_raise_surgery(m, 2) == expected
    # entries outside rows/columns 2,3 are untouched
    for p in (0, 3):
        for q in (0, 3):
            assert up[p][q] == m[p][q]


def test_locality_mask_anchor():
    m = matrix([[2, 2, 1, 1], [2, 2, 0, 1], [1, 0, 4, 1], [1, 1, 1, 2]])
    assert locality_mask(m, 2) == matrix(
        [[0, 0, 0, 0], [2, 1, 0, 0], [1, 0, 2, 0], [1, 1, 1, 0]]
    )
    assert locality_mask(MatrixCrystal(4, 5).e(m, 2), 2) == matrix(
        [[0, 0, 0, 0], [2, 1, 0, 0], [1, 0, 2, 0], [1, 2, 0, 0]]
    )


def test_matrix_two_routes_agree_exhaustive():
    for m_size in (1, 2, 3):
        for g in (1, 2):
            cr = MatrixCrystal(m_size, g)
            for mat in enumerate_admissible(m_size, g):
                for i in range(1, m_size):
                    assert cr.e(mat, i) == matrix_raise_surgery(mat, i)
                    assert cr.f(mat, i) == matrix_lower_surgery(mat, i)


def test_matrix_ops_preserve_admissible_and_symmetry():
    cr = MatrixCrystal(3, 2)
    for mat in enumerate_admissible(3, 2):
        for i in range(3):
            for out in (cr.e(mat, i), cr.f(mat, i)):
                if out is not None:
                    assert out == tuple(zip(*out))
                    assert all(out[k][k] % 2 == 0 for k in range(3))


# ---------------------------------------------------------------------------
# every operator output, pinned


_PINNED_MG = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def _op_line(x, i, up, down) -> str:
    return "\t".join([str(x), str(i)] + ["none" if y is None else str(y) for y in (up, down)])


def _crystal_lines(model, vertices) -> list[str]:
    lines = []
    for m, g in _PINNED_MG:
        cr = model(m, g)
        lines += [_op_line(x, i, cr.e(x, i), cr.f(x, i))
                  for x in vertices(m, g) for i in cr.indices]
    return lines


def test_operator_outputs_are_pinned():
    """The exact raise and lower of every vertex and index, index 0 included,
    on each model; every digest was recorded before the two sides of each
    operator shared one body."""
    def kings(m, g):
        return [t for mu in partitions_in_box(m, g) for t in enumerate_king(mu, m)]

    assert _digest(_crystal_lines(SsotCrystal, lambda m, g: enumerate_ssot(None, m, g))) == (
        2064, "e2e44f64a395563cf0ea045eba597b83ea163e403d1e473ba5fb2fb914fead6c")
    assert _digest(_crystal_lines(MatrixCrystal, enumerate_admissible)) == (
        401, "522f10e10dffc6a9bb9da78ae0138a0987c97adf3a3fdea6ca0e35767913c8bf")
    assert _digest(_crystal_lines(KingCrystal, kings)) == (
        2064, "b95dcf62d654b75e788a4ff82762e3637fedb2a90a0a767e7007853fb6da6eba")
    ssyt = [_op_line(t, i, ssyt_raise(t, i), ssyt_lower(t, i))
            for lam in partitions_in_box(3, 3)
            for t in tableaux_of_shape(lam, 4) for i in (1, 2, 3)]
    assert _digest(ssyt) == (
        1638, "a13334aab2507ede3c9c2d4f56ea1e1513a9dfca94af0c2caea154f59e26dfab")


# ---------------------------------------------------------------------------
# axioms, equivariance, Stembridge


def _ssot_corpus(m, g):
    return [
        t
        for mu in partitions_in_box(m, g)
        for t in enumerate_ssot(rect_complement(mu, m, g), m, g)
    ]


@pytest.mark.parametrize("m,g", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_axioms_exhaustive(m, g):
    assert axiom_violations(SsotCrystal(m, g), _ssot_corpus(m, g)) == []
    assert axiom_violations(MatrixCrystal(m, g), list(enumerate_admissible(m, g))) == []


@pytest.mark.parametrize("m,g", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_phi_equivariance_exhaustive(m, g):
    cr_s, cr_m = SsotCrystal(m, g), MatrixCrystal(m, g)
    for t in enumerate_ssot((), m, g):
        mt = phi_map(t)
        for i in range(m):
            for side in ("e", "f"):
                image = getattr(cr_s, side)(t, i)
                image = None if image is None else phi_map(image)
                assert image == getattr(cr_m, side)(mt, i)
            assert ssot_stats(t, i, g) == cr_m.stats(mt, i)


@pytest.mark.parametrize("m,g", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_stembridge_exhaustive(m, g):
    assert stembridge_violations(SsotCrystal(m, g), _ssot_corpus(m, g)) == []
    assert (
        stembridge_violations(MatrixCrystal(m, g), list(enumerate_admissible(m, g)))
        == []
    )


@dataclass(frozen=True)
class _TypeA:
    """Plain tableau crystal, a known-good reference for the checker."""

    n: int

    @property
    def indices(self):
        return tuple(range(1, self.n))

    def e(self, x, i):
        return ssyt_raise(x, i)

    def f(self, x, i):
        return ssyt_lower(x, i)

    def stats(self, x, i):
        return ssyt_stats(x, i)


def _classical_corpus(n, max_size):
    return [
        t
        for size in range(1, max_size + 1)
        for lam in partitions_of(size)
        if len(lam) <= n
        for t in tableaux_of_shape(lam, n)
    ]


def test_stembridge_on_classical_crystal():
    corpus = _classical_corpus(3, 6)
    assert stembridge_violations(_TypeA(3), corpus) == []


class _Liar(_TypeA):
    def stats(self, x, i):
        eps, phi = ssyt_stats(x, i)
        return eps + (5 if i == 2 else 0), phi


def test_stembridge_checker_detects_lies():
    corpus = _classical_corpus(3, 3)
    assert stembridge_violations(_Liar(3), corpus) != []


# ---------------------------------------------------------------------------
# the operator table


class _Unmemoised(OperatorTable):
    """Asks the base on every call, keeping only the numbering: the
    checkers' raw route."""

    def op(self, k, v, i):
        out = (self.crystal.e, self.crystal.f)[k](self.objects[v], i)
        return None if out is None else self.id(out)

    def stats(self, v, i):
        return self.crystal.stats(self.objects[v], i)


class _CrossedTypeA(_TypeA):
    """Lowers at the other index, so ``f`` does not invert ``e``."""

    def f(self, x, i):
        return ssyt_lower(x, self.n - i)


@dataclass(frozen=True)
class _CrossedSsot(SsotCrystal):
    """Lowers at index 0 when asked for index 1, so ``f`` does not invert ``e``."""

    def f(self, x, i):
        return super().f(x, 0 if i == 1 else i)


def _desk_crystals():
    for m in (1, 2, 3):
        for g in (1, 2):
            yield SsotCrystal(m, g), _ssot_corpus(m, g)
            yield MatrixCrystal(m, g), list(enumerate_admissible(m, g))


def _same_violations(crystal, corpus, check):
    got = check(crystal, corpus)
    assert got == check(_Unmemoised(crystal), corpus)
    return got


def test_memoised_checkers_match_raw_on_desk_corpora():
    for crystal, corpus in _desk_crystals():
        assert _same_violations(crystal, corpus, axiom_violations) == []
        assert _same_violations(crystal, corpus, stembridge_violations) == []


def test_memoised_checkers_match_raw_on_broken_crystals():
    classical = _classical_corpus(3, 3)
    for broken in (_Liar(3), _CrossedTypeA(3)):
        # no m and no weight: only the Stembridge battery applies
        assert not hasattr(broken, "weight")
        assert _same_violations(broken, classical, stembridge_violations) != []
    crossed = _CrossedSsot(3, 2)
    assert _same_violations(crossed, _ssot_corpus(3, 2), axiom_violations) != []
    assert _same_violations(crossed, _ssot_corpus(3, 2), stembridge_violations) != []


class _Cycling(SsotCrystal):
    """Lowering at index 0 returns its argument, so that string never ends."""

    def f(self, x, i):
        return x if i == 0 else super().f(x, i)


def test_axiom_checker_stops_on_a_cycling_operator():
    @dataclass(frozen=True)
    class Capped(_Cycling):
        calls: Counter = field(default_factory=Counter, compare=False)

        def f(self, x, i):
            self.calls["f"] += 1
            if self.calls["f"] > 1000:
                raise RuntimeError("f applied more than 1,000 times")
            return super().f(x, i)

    corpus = list(enumerate_ssot((), 1, 1))
    # the raw route first: a checker that follows the cycle fails here
    # instead of hanging on the memo's cache hits below
    raw = axiom_violations(_Unmemoised(Capped(1, 1)), corpus)
    assert raw == [
        "phi is not the iterated count at index 0: ()",
        "lower at 0 does not invert: ()",
        "lower at 0 has the wrong weight shift: ()",
        "phi is not the iterated count at index 0: (1 1b)",
        "raise at 0 does not invert: (1 1b)",
        "lower at 0 does not invert: (1 1b)",
        "lower at 0 has the wrong weight shift: (1 1b)",
        "lower at 0 disagrees with phi: (1 1b)",
    ]
    assert axiom_violations(_Cycling(1, 1), corpus) == raw


def _digest(lines):
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_violation_lists_are_pinned():
    """Exact text and order of every message on the broken crystals."""
    classical, ssot = _classical_corpus(3, 3), _ssot_corpus(3, 2)
    liar = stembridge_violations(_Liar(3), classical)
    assert liar[:3] == [
        "raises 1,2 do not commute: 2",
        "raises 1,2 do not commute: 1 2",
        "raises 1,2 do not commute: 2 2",
    ]
    assert _digest(liar) == (
        8, "71e26ee471fdb4ac498270e214fff4787ea4097914d5315275b450b8c7c102eb")
    crossed = stembridge_violations(_CrossedTypeA(3), classical)
    assert crossed[:3] == [
        "lower 2 broke the 1 dichotomy: 1",
        "lower 1 broke the 2 dichotomy: 2",
        "lower 2 broke the 1 dichotomy: 1 1",
    ]
    assert _digest(crossed) == (
        30, "5cfbb85c925b3f733aaf01af88f08fe8b6107d3f777980f9573412674b543973")
    assert _digest(axiom_violations(_CrossedSsot(3, 2), ssot)) == (
        1438, "d7417963002176d2152423ac0eb521ecce5e85e3cd444a0b90e83fc5164af654")
    assert _digest(stembridge_violations(_CrossedSsot(3, 2), ssot)) == (
        450, "7cb88855099ad31b26412ab3fe7d791503610b9940171c59fe056e80daa5c8cb")


def test_memo_stores_what_the_base_returned_and_no_exception():
    @dataclass(frozen=True)
    class Counting(SsotCrystal):
        calls: Counter = field(default_factory=Counter, compare=False)

        def e(self, x, i):
            self.calls["e", x, i] += 1
            return super().e(x, i)

        def f(self, x, i):
            self.calls["f", x, i] += 1
            return super().f(x, i)

    base = Counting(2, 1)
    x = next(t for t in enumerate_ssot(None, 2, 1) if base.e(t, 0) is not None)
    table = OperatorTable(base, [x])
    assert table.objects == [x] and table.id(x) == 0
    base.calls.clear()
    y = table.op(0, 0, 0)
    assert table.op(0, 0, 0) == y and table.weight(y) == base.weight(table.objects[y])
    # f(e(x)) is asked of the base, not inferred to be x
    assert table.op(1, y, 0) == 0 and table.image(1, table.objects[y], 0) == x
    assert base.calls == Counter({("e", x, 0): 1, ("f", table.objects[y], 0): 1})
    # an output outside the given vertices gets the next id
    assert y == 1 and table.objects[y] == base.e(x, 0)
    # a one-strip chain lies outside the crystal: its index 1 raises, twice
    short = ssot_from_text("(1 1b)")
    assert table.id(short) == 2
    for _ in range(2):
        with pytest.raises(ValueError):
            table.op(0, 2, 1)
    assert base.calls["e", short, 1] == 2


def test_axiom_checker_hashes_each_object_once_and_weighs_each_vertex_once(monkeypatch):
    @dataclass(frozen=True)
    class Weighing(SsotCrystal):
        weights: Counter = field(default_factory=Counter, compare=False)

        def weight(self, x):
            self.weights["weight"] += 1  # a key that is not an SSOT
            return super().weight(x)

    crystal, corpus = Weighing(3, 2), _ssot_corpus(3, 2)
    outputs = sum(op(x, i) is not None
                  for x in corpus for i in crystal.indices for op in (crystal.e, crystal.f))
    hashes = Counter()
    real = SSOT.__hash__

    def counting(self):
        hashes["SSOT"] += 1
        return real(self)

    monkeypatch.setattr(SSOT, "__hash__", counting)
    assert axiom_violations(crystal, corpus) == []
    assert hashes["SSOT"] == len(corpus) + outputs
    assert crystal.weights["weight"] == len(corpus)


# ---------------------------------------------------------------------------
# graphs


def test_two_chain_graph():
    cr = SsotCrystal(1, 1)
    g = crystal_graph(cr, enumerate_ssot((), 1, 1))
    assert [str(v) for v in g.vertices] == ["()", "(1 1b)"]
    assert g.edges == ((0, 0, 1),)
    assert g.weights == ((1,), (-1,))
    assert [str(v) for v in g.highest_weight_vertices()] == ["()"]
    assert decompose(g) == Counter({(1,): 1})
    assert graph_to_adjacency(g) == "() -0-> (1 1b)"
    dot = graph_to_dot(g)
    assert 'v0 [label="()"];' in dot and 'v0 -> v1 [label="0"];' in dot


def test_graph_is_deterministic_and_closed():
    cr = SsotCrystal(2, 2)
    ambient = list(enumerate_ssot((1,), 2, 2))
    g1 = crystal_graph(cr, ambient)
    g2 = crystal_graph(cr, list(reversed(ambient)))
    assert g1.vertices == g2.vertices and g1.edges == g2.edges
    assert set(g1.vertices) == set(ambient)


def test_highest_weight_vertex_structure():
    # outside (1) in the 2x2 box corresponds to the two-row shape (2,1)
    cr = SsotCrystal(2, 2)
    g = crystal_graph(cr, enumerate_ssot((1,), 2, 2))
    hws = g.highest_weight_vertices()
    assert len(hws) == 1
    hw = hws[0]
    assert hw.strips[0].word == (1,) and hw.strips[1].word == ()
    assert cr.weight(hw) == (1, 2)
    assert decompose(g) == Counter({(1, 2): 1})


def test_king_transport_graph():
    kings = enumerate_king((1, 1), 2)
    assert len(kings) == 5
    cr = KingCrystal(2, 1)
    g = crystal_graph(cr, kings)
    assert len(g.vertices) == 5
    assert len(g.components()) == 1
    hws = g.highest_weight_vertices()
    assert len(hws) == 1
    assert king_weight(hws[0], 2) == (1, 1)
    # vertex-for-vertex the same graph as the oscillating model
    so = crystal_graph(SsotCrystal(2, 1), [psi(k, 2, 1) for k in kings])
    carried = {psi(v, 2, 1) for v in g.vertices}
    assert carried == set(so.vertices)
    king_edges = {
        (psi(g.vertices[a], 2, 1), i, psi(g.vertices[b], 2, 1))
        for a, i, b in g.edges
    }
    osc_edges = {
        (so.vertices[a], i, so.vertices[b]) for a, i, b in so.edges
    }
    assert king_edges == osc_edges


def test_matrix_graph_closure():
    mats = list(enumerate_admissible(2, 1))
    g = crystal_graph(MatrixCrystal(2, 1), mats)
    assert set(g.vertices) == set(mats)
    assert len(g.components()) == 1
    assert decompose(g) == Counter({(1, 1): 1})


def _reference_graph(crystal, seeds):
    """The frontier closure that calls ``e`` at every (vertex, index) as well
    as on every lowering edge; the reference for ``crystal_graph``."""
    indices = crystal.indices
    order: dict = {}
    frontier = sorted(seeds, key=str)
    for x in frontier:
        order.setdefault(x, len(order))
    edges = []
    while frontier:
        next_frontier = []
        for x in frontier:
            for i in indices:
                y = crystal.f(x, i)
                if y is not None:
                    if crystal.e(y, i) != x:
                        raise ValueError(f"lowering at {i} does not invert: {x}")
                    if y not in order:
                        order[y] = len(order)
                        next_frontier.append(y)
                    edges.append((order[x], i, order[y]))
                z = crystal.e(x, i)
                if z is not None and z not in order:
                    order[z] = len(order)
                    next_frontier.append(z)
        frontier = sorted(next_frontier, key=str)
    vertices = tuple(order)
    return CrystalGraph(
        vertices=vertices,
        edges=tuple(sorted(set(edges))),
        weights=tuple(crystal.weight(v) for v in vertices),
        labels=tuple(map(str, vertices)),
    )


def _ambient_sets(max_m, max_g):
    for m in range(1, max_m + 1):
        for g in range(1, max_g + 1):
            for mu in partitions_in_box(m, g):
                yield m, g, enumerate_ssot(rect_complement(mu, m, g), m, g)


def test_graph_matches_reference_on_ambient_sets():
    for m, g, ambient in _ambient_sets(3, 3):
        cr = SsotCrystal(m, g)
        got, ref = crystal_graph(cr, ambient), _reference_graph(cr, ambient)
        assert got.vertices == ref.vertices
        assert got.edges == ref.edges
        assert got.weights == ref.weights


def test_graph_applies_each_operator_once_per_vertex_and_index():
    @dataclass(frozen=True)
    class Counting(SsotCrystal):
        calls: Counter = field(default_factory=Counter, compare=False)

        def e(self, x, i):
            self.calls["e"] += 1
            return super().e(x, i)

        def f(self, x, i):
            self.calls["f"] += 1
            return super().f(x, i)

    for m, g, ambient in _ambient_sets(3, 3):
        cr = Counting(m, g)
        graph = crystal_graph(cr, ambient)
        # f once per (vertex, index); e once per edge, for its inversion check
        assert cr.calls == Counter(f=len(graph.vertices) * len(cr.indices), e=len(graph.edges))


def test_graph_rejects_a_vertex_set_that_is_not_closed():
    cr = SsotCrystal(2, 2)
    ambient = sorted(enumerate_ssot((1,), 2, 2), key=str)
    top = crystal_graph(cr, ambient).highest_weight_vertices()
    missing = next(v for v in ambient if v not in top)
    with pytest.raises(ValueError, match="leaves the vertex set"):
        crystal_graph(cr, [v for v in ambient if v != missing])


def test_graph_detects_broken_operators():
    class Broken(_TypeA):
        def f(self, x, i):
            return x  # not invertible by e

    with pytest.raises(ValueError):
        crystal_graph(Broken(2), [Tableau(((1,),))])


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
