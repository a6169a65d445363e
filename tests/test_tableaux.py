import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympcrystal.oracles import contains, is_horizontal_strip
from sympcrystal.tableaux import (
    KingTableau,
    Tableau,
    conjugate,
    coroot_pairing,
    enumerate_king,
    format_letter,
    format_partition,
    king_from_text,
    king_weight,
    letter_rank,
    normalize_partition,
    parse_letter,
    parse_partition,
    partitions_in_box,
    partitions_of,
    rank_letter,
    rect_complement,
    simple_root,
    tableaux_of_shape,
    weight_to_partition,
)


@st.composite
def partitions(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(0, max_rows))
    parts = []
    prev = max_cols
    for _ in range(rows):
        p = draw(st.integers(1, prev))
        parts.append(p)
        prev = p
    return tuple(parts)


# ---------------------------------------------------------------------------
# partitions


def test_normalize_partition():
    assert normalize_partition([3, 1, 0, 0]) == (3, 1)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition([1, 2])
    with pytest.raises(ValueError):
        normalize_partition([2, -1])


def _normalize_partition_reference(parts):
    """The element-by-element body ``normalize_partition`` had before it
    became one pass; kept as the reference for the differential test."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return parts


def _outcome(fn, parts):
    try:
        return "ok", fn(parts)
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


def test_normalize_partition_matches_reference():
    cases = [
        parts
        for n in range(6)
        for parts in itertools.product(range(-1, 4), repeat=n)
    ]
    cases += [("2",), ("x",), (3, "1", 0)]
    for parts in cases:
        for given_as in (tuple, list, lambda ps: (p for p in ps)):
            assert _outcome(normalize_partition, given_as(parts)) == _outcome(
                _normalize_partition_reference, given_as(parts)
            ), parts


def test_conjugate_known():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2, 1)) == (3, 2)


@given(partitions())
def test_conjugate_involution(mu):
    assert conjugate(conjugate(mu)) == mu
    assert sum(conjugate(mu)) == sum(mu)


def test_contains_and_strips():
    assert contains((3, 2), (2, 1))
    assert not contains((2, 2), (3,))
    assert is_horizontal_strip((3, 1), (1,))
    assert not is_horizontal_strip((2, 2), (1,))
    assert _is_vertical_strip((2, 2), (2, 1))
    assert not _is_vertical_strip((3, 1), (1,))


def _is_vertical_strip(outer, inner):
    """True when ``outer/inner`` has at most one box in every row."""
    if not contains(outer, inner):
        return False
    inner = inner + (0,) * (len(outer) - len(inner))
    return all(outer[i] - inner[i] <= 1 for i in range(len(outer)))


@given(partitions(), partitions())
def test_horizontal_strip_is_conjugate_vertical(outer, inner):
    assert is_horizontal_strip(outer, inner) == _is_vertical_strip(
        conjugate(outer), conjugate(inner)
    )


def test_rect_complement_known():
    assert rect_complement((2,), 2, 3) == (3, 1)
    assert rect_complement((), 2, 2) == (2, 2)
    assert rect_complement((2, 2), 2, 2) == ()
    with pytest.raises(ValueError):
        rect_complement((3,), 2, 2)
    with pytest.raises(ValueError):
        rect_complement((1, 1, 1), 2, 3)


@given(partitions(max_rows=4, max_cols=4))
def test_rect_complement_involution(mu):
    rows = max(len(mu), 4)
    cols = max(mu[0] if mu else 0, 4)
    comp = rect_complement(mu, rows, cols)
    assert rect_complement(comp, rows, cols) == mu
    assert sum(mu) + sum(comp) == rows * cols


def test_partitions_in_box():
    got = list(partitions_in_box(2, 2))
    assert set(got) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert len(got) == 6
    assert len(list(partitions_in_box(3, 3))) == 20


def test_partitions_of():
    assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert set(partitions_of(4, max_length=2)) == {(4,), (3, 1), (2, 2)}
    assert list(partitions_of(0)) == [()]


def test_partition_text_roundtrip():
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("[]") == ()
    assert format_partition((3, 1)) == "[3,1]"
    with pytest.raises(ValueError):
        parse_partition("3,1")
    with pytest.raises(ValueError):
        parse_partition("[a]")


# ---------------------------------------------------------------------------
# weights


def test_weight_partition_roundtrip():
    assert weight_to_partition((0, 1, 3)) == (3, 1)
    assert weight_to_partition((0, 0, 2)) == (2,)
    for w in [(1, 0), (-1, 0), (1, 0, 2)]:
        with pytest.raises(ValueError, match="not dominant"):
            weight_to_partition(w)


def test_simple_roots_and_pairings():
    assert simple_root(0, 3) == (2, 0, 0)
    assert simple_root(2, 3) == (0, -1, 1)
    w = (1, 0, 2)
    assert coroot_pairing(w, 0) == 1
    assert coroot_pairing(w, 1) == -1
    assert coroot_pairing(w, 2) == 2
    # Cartan pairings: the long root 2e_1 against the short coroot gives -2.
    assert coroot_pairing(simple_root(0, 3), 1) == -2
    assert coroot_pairing(simple_root(1, 3), 0) == -1
    assert coroot_pairing(simple_root(1, 3), 1) == 2
    assert coroot_pairing(simple_root(2, 3), 1) == -1
    assert coroot_pairing(simple_root(0, 3), 2) == 0


# ---------------------------------------------------------------------------
# letters


def test_letter_rank_roundtrip():
    assert [letter_rank(x) for x in (1, -1, 2, -2)] == [1, 2, 3, 4]
    for r in range(1, 9):
        assert letter_rank(rank_letter(r)) == r
    with pytest.raises(ValueError):
        letter_rank(0)


def test_letter_text():
    assert format_letter(2) == "2"
    assert format_letter(-2) == "2b"
    assert parse_letter("2b") == -2
    assert parse_letter("10") == 10
    with pytest.raises(ValueError):
        parse_letter("0")
    with pytest.raises(ValueError):
        parse_letter("b2")


# ---------------------------------------------------------------------------
# semistandard tableaux


def test_tableau_validation():
    t = Tableau(((1, 1, 2), (2, 3)))
    assert t.shape == (3, 2)
    assert t.size == 5
    assert t.content(3) == (2, 2, 1)
    with pytest.raises(ValueError):
        Tableau(((1, 2), (1,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row not weak


def _reference_tableau_check(rows):
    """``Tableau.__post_init__`` as it read before it moved to C-level loops."""
    rows = tuple(tuple(r) for r in rows)
    shape = tuple(len(r) for r in rows)
    normalize_partition(shape)
    if any(len(r) == 0 for r in rows):
        raise ValueError("empty row in tableau")
    for r in rows:
        if any(x < 1 for x in r):
            raise ValueError(f"nonpositive entry in row {r}")
        if any(a > b for a, b in zip(r, r[1:])):
            raise ValueError(f"row {r} is not weakly increasing")
    for i in range(1, len(rows)):
        upper, lower = rows[i - 1], rows[i]
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            raise ValueError("columns are not strictly increasing")


def _reference_king_check(rows):
    """``KingTableau.__post_init__`` as it read before it ranked each entry once."""
    rows = tuple(tuple(r) for r in rows)
    normalize_partition(tuple(len(r) for r in rows))
    if any(len(r) == 0 for r in rows):
        raise ValueError("empty row in tableau")
    for i, row in enumerate(rows, start=1):
        ranks = [letter_rank(x) for x in row]
        if any(a > b for a, b in zip(ranks, ranks[1:])):
            raise ValueError(f"row {row} is not weakly increasing")
        if ranks and ranks[0] < letter_rank(i):
            raise ValueError(f"row {i} has an entry below the letter {i}")
    for i in range(1, len(rows)):
        upper, lower = rows[i - 1], rows[i]
        for j in range(len(lower)):
            if letter_rank(upper[j]) >= letter_rank(lower[j]):
                raise ValueError("columns are not strictly increasing")


def _verdict(check, rows):
    try:
        check(rows)
    except ValueError as exc:
        return str(exc)
    return None


def _parity_inputs():
    """Every list of at most two rows of length at most 3, and of three rows
    of length at most 2, over the letters -1, 0, 1, 2, 3 (-1 is barred 1 for
    King tableaux).  All three-row inputs with rows of length 3 would be
    3.8 million and about a minute and a half to check."""
    letters = (-1, 0, 1, 2, 3)
    short = [r for n in range(3) for r in itertools.product(letters, repeat=n)]
    long = short + list(itertools.product(letters, repeat=3))
    for k in range(3):
        yield from itertools.product(long, repeat=k)
    yield from itertools.product(short, repeat=3)


def test_tableau_checks_match_reference():
    accepted = Counter()
    for rows in _parity_inputs():
        for cls, reference in (
            (Tableau, _reference_tableau_check),
            (KingTableau, _reference_king_check),
        ):
            got = _verdict(cls, rows)
            assert got == _verdict(reference, rows), (cls.__name__, rows)
            accepted[cls.__name__] += got is None
    assert accepted == Counter(Tableau=85, KingTableau=195)


def test_tableaux_of_shape_counts():
    # Kostka/dimension counts for GL: s_mu(1^n) by Weyl dimension formula.
    assert len(list(tableaux_of_shape((1,), 3))) == 3
    assert len(list(tableaux_of_shape((2,), 2))) == 3
    assert len(list(tableaux_of_shape((1, 1), 3))) == 3
    assert len(list(tableaux_of_shape((2, 1), 3))) == 8
    assert len(list(tableaux_of_shape((), 5))) == 1


def test_fillers_list_in_row_major_lexicographic_order():
    for mu in ((1,), (2,), (2, 1), (3, 1), (2, 2), (2, 1, 1)):
        words = [tuple(t.entries()) for t in tableaux_of_shape(mu, 4)]
        assert words and words == sorted(set(words))
        ranks = [tuple(letter_rank(x) for r in t.rows for x in r)
                 for t in enumerate_king(mu, 3)]
        assert ranks and ranks == sorted(set(ranks))


# ---------------------------------------------------------------------------
# King tableaux


def test_king_validation():
    t = KingTableau(((1, -1), (2, -2)))
    assert t.shape == (2, 2)
    assert king_weight(t, 2) == (0, 0)
    # row 2 must not contain the letter 1 or barred 1
    with pytest.raises(ValueError):
        KingTableau(((1, 1), (-1, 2)))
    # rows weakly increase in the barred order
    with pytest.raises(ValueError):
        KingTableau(((-1, 1),))
    # columns strictly increase
    with pytest.raises(ValueError):
        KingTableau(((2,), (2,)))


def test_king_single_box_rank1():
    got = enumerate_king((1,), 1)
    assert [t.rows for t in got] == [((1,),), ((-1,),)]
    assert king_weight(got[0], 1) == (1,)
    assert king_weight(got[1], 1) == (-1,)


def test_king_column_rank2():
    got = enumerate_king((1, 1), 2)
    pairs = {tuple(letter_rank(r[0]) for r in t.rows) for t in got}
    assert pairs == {(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    assert len(got) == 5


def test_king_worked_example():
    t = KingTableau(((2, -2), (3, 3), (-3, 4), (4, -4)))
    assert t.shape == (2, 2, 2, 2)
    assert king_weight(t, 4) == (0, 0, 1, 1)
    assert t.subshape(4) == (2,)  # letters up to barred 2
    assert t.subshape(5) == (2, 2)  # letters up to 3


def test_king_subshape_chain_is_horizontal():
    for t in enumerate_king((2, 1), 2):
        prev = ()
        for r in range(1, 5):
            cur = t.subshape(r)
            assert is_horizontal_strip(cur, prev)
            prev = cur
        assert prev == (2, 1)


def test_king_counts_are_symplectic_dimensions():
    # dim of the Sp(4) irreducibles: standard 4, adjoint 10.
    assert len(enumerate_king((1,), 2)) == 4
    assert len(enumerate_king((1, 1), 2)) == 5
    assert len(enumerate_king((2,), 2)) == 10
    assert len(enumerate_king((1,), 3)) == 6


def test_king_text_roundtrip():
    t = KingTableau(((2, -2), (3, 3), (-3, 4), (4, -4)))
    assert str(t) == "2 2b / 3 3 / 3b 4 / 4 4b"
    assert king_from_text(str(t)) == t
    assert king_from_text("2 2b\n3 3\n3b 4\n4 4b") == t


def test_empty_king_tableau_text_is_a_dash():
    assert str(KingTableau(())) == "-"
    assert king_from_text("-") == king_from_text("") == KingTableau(())


@pytest.mark.parametrize("m,g", itertools.product((1, 2, 3), repeat=2))
def test_king_text_roundtrips_every_tableau_in_the_box(m, g):
    """Both text forms read back: rows joined by `` / `` and rows on lines."""
    for mu in partitions_in_box(m, g):
        for t in enumerate_king(mu, m):
            text = str(t)
            assert king_from_text(text) == t
            assert king_from_text(text.replace(" / ", "\n")) == t


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
