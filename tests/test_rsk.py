import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympcrystal.bijections import _pop_largest, standardized_word
from sympcrystal.oracles import (
    complemented_row_pairs,
    longest_weakly_decreasing,
    matrices_with_sum,
    rotate180,
    row_insert,
    row_insert_word,
    rsk_column_transpose,
    rsk_row,
)
from sympcrystal.rsk import (
    bump,
    c_index,
    column_insert_word,
    enumerate_admissible,
    format_matrix,
    is_admissible,
    is_symmetric,
    matrix,
    matrix_from_pairs,
    parse_matrix,
    rsk_column,
    rsk_column_inverse,
    symmetric_even_diagonal,
    transpose_matrix,
    two_line_array,
    unbump,
)
from sympcrystal.tableaux import Tableau, partitions_of, tableaux_of_shape

M_BIG = matrix([[2, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
M_SMALL = matrix([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


@st.composite
def small_matrices(draw, max_n=4, max_entry=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_n))
    return tuple(
        tuple(draw(st.integers(0, max_entry)) for _ in range(k)) for _ in range(n)
    )


def test_matrix_helpers():
    assert transpose_matrix(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert rotate180(((1, 2), (3, 4))) == ((4, 3), (2, 1))
    assert is_symmetric(M_BIG)
    assert is_admissible(M_BIG)
    assert not is_admissible(((1,),))  # odd diagonal
    assert not is_admissible(((0, 1), (1, -2)))  # symmetric, even, negative
    with pytest.raises(ValueError):
        matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        matrix([[-1]])


def test_matrix_text_roundtrip():
    assert parse_matrix("0,1\n1,0") == ((0, 1), (1, 0))
    assert parse_matrix("0,1;1,0") == ((0, 1), (1, 0))
    assert format_matrix(M_SMALL) == "0,1,0,1\n1,0,1,0\n0,1,0,0\n1,0,0,0"
    assert parse_matrix(format_matrix(M_BIG)) == M_BIG
    with pytest.raises(ValueError):
        parse_matrix("1,x")


def test_two_line_array_big():
    top, bottom = two_line_array(M_BIG)
    assert top == (1, 1, 1, 1, 2, 2, 3, 4)
    assert bottom == (4, 2, 1, 1, 3, 1, 2, 1)


def test_insertion_pair_big():
    p, q = rsk_column(M_BIG)
    assert p.rows == ((1, 1, 1, 1, 2, 4), (2, 3))
    assert q == p  # symmetric matrix
    assert c_index(M_BIG) == 6


def test_insertion_pair_small():
    p, q = rsk_column(M_SMALL)
    assert p.rows == ((1, 1, 2, 4), (2, 3))
    assert q == p
    assert c_index(M_SMALL) == 4


def test_column_insert_steps():
    t = column_insert_word((4, 2, 3, 1, 2))
    assert t.rows == ((1, 2, 4), (2, 3))
    assert column_insert_word((4, 2, 3, 1, 2, 1)).rows == ((1, 1, 2, 4), (2, 3))
    assert column_insert_word(()) == Tableau(())
    for word in ((2, 0, 1), (-1,), (3, 1, -2)):
        with pytest.raises(ValueError, match="nonpositive entry"):
            column_insert_word(word)


def test_recorded_matches_transpose_definition():
    for nrows in (1, 2, 3, 4):
        for ncols in (1, 2, 3, 4):
            for m in matrices_with_sum(nrows, ncols, 4):
                p, q = rsk_column_transpose(m)
                assert rsk_column(m) == (p, q)
                width = p.shape[0] if p.rows else 0
                assert c_index(m) == width == longest_weakly_decreasing(
                    two_line_array(m)[1]
                )


def test_row_insert_known():
    assert row_insert_word((1, 2, 3, 1, 2, 3, 1, 1, 2)).rows == (
        (1, 1, 1, 1, 2),
        (2, 2, 3),
        (3,),
    )
    t = row_insert_word((3, 1, 2))
    assert t.rows == ((1, 2), (3,))
    assert row_insert(t, 1).rows == ((1, 1), (2,), (3,))


def test_reverse_row_insert():
    rows = [list(r) for r in row_insert_word((1, 2, 3, 1)).rows]
    x = unbump(rows, 1, True)
    assert x == 1 and Tableau(rows) == row_insert_word((1, 2, 3))
    # rows on the strict side, their transposes on the weak (column) side
    for strict, square in ((True, [[1, 1], [2, 2]]), (False, [[1, 2], [1, 2]])):
        for word in ((1, 2, 3, 1), (3, 1, 2, 2, 1, 3, 1), (2, 2, 1, 1)):
            lines: list[list[int]] = []
            for letter in word:
                before = [list(line) for line in lines]
                k, _ = bump(lines, letter, strict)
                after = [list(line) for line in lines]
                assert unbump(lines, k, strict) == letter and lines == before
                lines = after
        with pytest.raises(ValueError, match="does not end at a corner"):
            unbump([list(line) for line in square], 0, strict)
        for k in (-1, 2):
            with pytest.raises(ValueError, match="no line"):
                unbump([list(line) for line in square], k, strict)


@given(st.lists(st.integers(1, 5), max_size=8))
def test_column_insert_is_row_insert_reversed(word):
    assert column_insert_word(word) == row_insert_word(tuple(reversed(word)))


def test_rotation_identity_anchor():
    n = matrix([[0, 0, 0, 0], [2, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 0]])
    pairs = complemented_row_pairs(n)
    assert [x for _, x in pairs] == [1, 2, 3, 1, 2, 3, 1, 1, 2]
    p_bar, q_bar = rsk_row(pairs)
    assert q_bar.rows == ((1, 1, 1, 2, 3), (2, 2, 3), (3,))
    assert q_bar == rsk_column(rotate180(n))[1]
    assert p_bar == rsk_column(n)[0]


@given(small_matrices(max_n=3))
@settings(max_examples=200)
def test_rotation_identity_random(m):
    if len(m) != len(m[0]):
        m = m[: min(len(m), len(m[0]))]
        m = tuple(r[: len(m)] for r in m)
    assert rsk_row(complemented_row_pairs(m))[1] == rsk_column(rotate180(m))[1]


@given(small_matrices())
@settings(max_examples=300)
def test_roundtrip_random(m):
    p, q = rsk_column(m)
    assert p.shape == q.shape
    back = rsk_column_inverse(p, q, nrows=len(m), ncols=len(m[0]))
    assert back == m


def test_roundtrip_exhaustive_tiny():
    for m in matrices_with_sum(2, 3, 4):
        p, q = rsk_column(m)
        assert rsk_column_inverse(p, q, 2, 3) == m


def test_inverse_rejects_bad_pairs():
    with pytest.raises(ValueError):
        rsk_column_inverse(Tableau(((1, 2),)), Tableau(((1,), (2,))))
    # the pair is fine but does not fit in the requested matrix size
    with pytest.raises(ValueError):
        rsk_column_inverse(Tableau(((2, 3),)), Tableau(((1, 1),)), nrows=1, ncols=2)


def _reference_inverse(p, q, nrows=None, ncols=None):
    """``rsk_column_inverse`` as it read when it peeled Q with ``_pop_largest``."""
    if p.shape != q.shape:
        raise ValueError("tableaux have different shapes")
    rows = p.rows
    cols = [
        [rows[i][c] for i in range(len(rows)) if len(rows[i]) > c]
        for c in range(len(rows[0]) if rows else 0)
    ]
    q_rows = [list(r) for r in q.rows]
    pairs = []
    for _ in range(p.size):
        value, _, c = _pop_largest(q_rows)
        pairs.append((value, unbump(cols, c, False)))
    return matrix_from_pairs(pairs, nrows, ncols)


def _inverse_verdict(*args):
    """The matrix, or the ValueError message, of the inverse and its reference."""
    out = []
    for inverse in (rsk_column_inverse, _reference_inverse):
        try:
            out.append(inverse(*args))
        except ValueError as exc:
            out.append(str(exc))
    return tuple(out)


def test_roundtrip_matches_references_exhaustive():
    count = 0
    for nrows in (1, 2, 3):
        for ncols in (1, 2, 3):
            for m in matrices_with_sum(nrows, ncols, 6):
                p, q = rsk_column(m)
                assert (p, q) == rsk_column_transpose(m)
                assert _reference_inverse(p, q, nrows, ncols) == m
                assert rsk_column_inverse(p, q, nrows, ncols) == m
                # with no size given, the matrix stops at the largest entries
                got, ref = _inverse_verdict(p, q)
                assert got == ref
                count += 1
    assert count == 7294


def test_inverse_errors_match_reference():
    # shape mismatch
    got, ref = _inverse_verdict(Tableau(((1, 2),)), Tableau(((1,), (2,))))
    assert got == ref == "tableaux have different shapes"
    # every same-shape pair with entries at most 3 and size at most 4, in
    # every matrix size up to 3 x 3, some of them too small
    for size in range(5):
        for shape in partitions_of(size):
            tabs = list(tableaux_of_shape(shape, 3))
            for p in tabs:
                for q in tabs:
                    for nrows in (None, 1, 2, 3):
                        for ncols in (None, 1, 2, 3):
                            got, ref = _inverse_verdict(p, q, nrows, ncols)
                            assert got == ref, (p, q, nrows, ncols)
    got, ref = _inverse_verdict(Tableau(((2, 3),)), Tableau(((1, 1),)), 1, 2)
    assert got == ref == "pair (1, 3) outside a 1x2 matrix"
    got, ref = _inverse_verdict(Tableau(((1,), (2,))), Tableau(((1,), (3,))), 2, 2)
    assert got == ref == "pair (3, 2) outside a 2x2 matrix"


def test_inverse_total_on_same_shape_pairs():
    # every same-shape pair of semistandard tableaux has a preimage
    p = Tableau(((2, 9),))
    q = Tableau(((1, 1),))
    m = rsk_column_inverse(p, q)
    assert rsk_column(m) == (p, q)


@given(small_matrices())
@settings(max_examples=300)
def test_schensted_statistic(m):
    assert c_index(m) == longest_weakly_decreasing(two_line_array(m)[1])


def test_longest_weakly_decreasing():
    assert longest_weakly_decreasing(()) == 0
    assert longest_weakly_decreasing((3, 3, 1)) == 3
    assert longest_weakly_decreasing((1, 2, 3)) == 1
    assert longest_weakly_decreasing((4, 2, 1, 1, 3, 1, 2, 1)) == 6


def test_symmetric_pairs_agree():
    for m in symmetric_even_diagonal(3, 3):
        p, q = rsk_column(m)
        assert p == q


def test_even_diagonal_iff_even_rows():
    # over all square matrices: symmetric with even diagonal <=> P = Q with
    # all row lengths even
    for m in matrices_with_sum(3, 3, 4):
        p, q = rsk_column(m)
        lhs = is_admissible(m)
        rhs = p == q and all(part % 2 == 0 for part in p.shape)
        assert lhs == rhs, m


def test_matrix_from_pairs():
    assert matrix_from_pairs([(1, 2), (1, 2), (2, 1)]) == ((0, 2), (1, 0))
    assert matrix_from_pairs([], 2, 2) == ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        matrix_from_pairs([(3, 1)], nrows=2, ncols=2)


def test_enumerate_admissible_counts():
    assert len(enumerate_admissible(1, 1)) == 2
    assert len(enumerate_admissible(2, 1)) == 5
    mats = enumerate_admissible(2, 1)
    assert ((0, 1), (1, 0)) in mats
    assert ((2, 0), (0, 2)) in mats
    assert all(is_admissible(m) and c_index(m) <= 2 for m in mats)


# ---------------------------------------------------------------------------
# negative entries, and the tableaux built without a second check


def test_insertion_rejects_negative_entries():
    for route in (rsk_column, c_index, two_line_array, standardized_word):
        with pytest.raises(ValueError, match=r"negative entry -1 at \(1, 2\)"):
            route(((1, -1), (0, 2)))


def _reference_two_line_array(m):
    """``two_line_array`` as it read with one ``extend`` pair per cell."""
    top, bottom = [], []
    for i, row in enumerate(m, start=1):
        for j in range(len(row), 0, -1):
            mult = row[j - 1]
            top.extend([i] * mult)
            bottom.extend([j] * mult)
    return tuple(top), tuple(bottom)


def _reference_insertion(m):
    """``rsk_column`` as it read with its own cell walk: the columns of P,
    the rows of Q, and so ``c_index`` as the number of columns."""
    cols, q_rows = [], []
    for i, row in enumerate(m, start=1):
        for j in range(len(row), 0, -1):
            for _ in range(row[j - 1]):
                _, r = bump(cols, j, False)
                if r == len(q_rows):
                    q_rows.append([i])
                else:
                    q_rows[r].append(i)
    p_rows = [
        tuple(col[r] for col in cols if len(col) > r)
        for r in range(len(cols[0]) if cols else 0)
    ]
    return tuple(p_rows), tuple(map(tuple, q_rows)), len(cols)


def test_cell_walks_match_nested_loop_references_exhaustive():
    """The walks read from ``two_line_array`` equal the nested cell loops they
    replaced on every matrix up to 4x4 of entry sum <= 5, on the empty
    matrix and on an all-zero one."""
    corpus = [(), ((0, 0), (0, 0), (0, 0))]
    for nrows in (1, 2, 3, 4):
        for ncols in (1, 2, 3, 4):
            corpus += matrices_with_sum(nrows, ncols, 5)
    assert len(corpus) == 2 + 38_763
    for m in corpus:
        assert two_line_array(m) == _reference_two_line_array(m)
        p, q = rsk_column(m)
        p_rows, q_rows, width = _reference_insertion(m)
        assert (p.rows, q.rows, c_index(m)) == (p_rows, q_rows, width)


def test_insertion_tableaux_equal_validated_ones_exhaustive():
    """P and Q skip ``Tableau``'s checks; rebuilding them through it gives
    the same rows and shape for every matrix up to 4x4 of entry sum <= 5."""
    count = 0
    for nrows in (1, 2, 3, 4):
        for ncols in (1, 2, 3, 4):
            for m in matrices_with_sum(nrows, ncols, 5):
                for t in (*rsk_column(m), column_insert_word(two_line_array(m)[1])):
                    checked = Tableau(t.rows)
                    assert checked == t and checked.shape == t.shape
                count += 1
    assert count == 38_763


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
