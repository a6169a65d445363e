"""Independent reference routes; only the tests and ``verify`` import this module.

* :func:`rsk_column_transpose`, ``Q(M) = P(M transposed)`` by
  ``rsk.column_insert_word``: compared with ``rsk.rsk_column`` and
  ``rsk.c_index`` on every matrix up to 4 x 4 of entry sum at most 4
  (``test_rsk.py::test_recorded_matches_transpose_definition``).
* The row route of the rotation identity, :func:`rsk_row` on
  :func:`complemented_row_pairs` against ``rsk.rsk_column`` of
  :func:`rotate180`, with :func:`row_insert` and :func:`row_insert_word`
  (``test_rsk.py::test_rotation_identity_*``,
  ``test_rsk.py::test_column_insert_is_row_insert_reversed``; acceptance
  criterion 9).  Both sides run ``rsk.bump``, strict against weak.
* :func:`longest_weakly_decreasing`, Schensted's statistic: the length of
  the first row of ``P(M)`` (``test_rsk.py::test_schensted_statistic``;
  acceptance criterion 9).
* :func:`trace_tables`, :func:`inverse_column_word` and :func:`remove_biggest`:
  the ``(P_q, V_q)`` traces of ``phi_inverse`` on ``Tableau`` objects
  (the ``test_trace_*`` tests of ``test_bijections.py``; acceptance
  criterion 1).
* :func:`matrix_surgery`, side k of the matrix operators for ``i >= 1``
  (0 raises, 1 lowers) by bracket surgery on :func:`surgery_rows`, without
  insertion (the ``verify crystal`` row ``insertion_vs_surgery``;
  ``test_crystal.py::test_matrix_two_routes_agree_exhaustive``).
* :func:`strip_sequence`, :func:`strip_additions`, :func:`strip_removals`,
  :func:`ssot_chain`: shapes and row multisets replayed from strip words.
* :func:`matrices_with_sum`, every matrix of a given size up to an entry
  sum (the exhaustive insertion corpora), and the shape predicates
  :func:`contains` and :func:`is_horizontal_strip`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .oscillating import SSOT, OscStrip, _box_step, pair_multisets
from .rsk import (
    Matrix,
    bump,
    column_insert_word,
    matrix,
    transpose_matrix,
    two_line_array,
)
from .tableaux import Partition, Tableau


def rsk_column_transpose(m: Matrix) -> tuple[Tableau, Tableau]:
    """The pair ``(P, Q)``: insert the bottom line; Q comes from the transpose."""
    p = column_insert_word(two_line_array(m)[1])
    q = column_insert_word(two_line_array(transpose_matrix(m))[1])
    return p, q


# ---------------------------------------------------------------------------
# row insertion and the rotation identity


def rotate180(m: Matrix) -> Matrix:
    return tuple(tuple(reversed(r)) for r in reversed(m))


def row_insert(t: Tableau, x: int) -> Tableau:
    rows = [list(r) for r in t.rows]
    bump(rows, x, True)
    return Tableau(tuple(tuple(r) for r in rows))


def row_insert_word(word: Sequence[int]) -> Tableau:
    rows: list[list[int]] = []
    for x in word:
        bump(rows, x, True)
    return Tableau(tuple(tuple(r) for r in rows))


def rsk_row(pairs: Iterable[tuple[int, int]]) -> tuple[Tableau, Tableau]:
    """Row-insert the second members, recording the first at each new box."""
    rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for label, x in pairs:
        r, _ = bump(rows, x, True)
        if r == len(q_rows):
            q_rows.append([])
        q_rows[r].append(label)
    return (
        Tableau(tuple(tuple(r) for r in rows)),
        Tableau(tuple(tuple(r) for r in q_rows)),
    )


def complemented_row_pairs(m: Matrix) -> list[tuple[int, int]]:
    """Recorded pairs reading rows bottom-up, labels complemented to n+1-r.

    Row-inserting these records the same tableau as the recording tableau of
    the half-turn rotation of ``m``.
    """
    n = len(m)
    pairs: list[tuple[int, int]] = []
    for r in range(n, 0, -1):
        for j, mult in enumerate(m[r - 1], start=1):
            pairs.extend([(n + 1 - r, j)] * mult)
    return pairs


def longest_weakly_decreasing(seq: Sequence[int]) -> int:
    """Length of the longest weakly decreasing subsequence."""
    # patience sorting on the negated, weakly increasing version
    piles: list[int] = []
    for x in seq:
        pos = bisect_right(piles, -x)
        if pos == len(piles):
            piles.append(-x)
        else:
            piles[pos] = -x
    return len(piles)


# ---------------------------------------------------------------------------
# trace tables


def remove_rightmost(t: Tableau, value: int) -> Tableau:
    """Remove the rightmost cell holding ``value``; it must sit at a corner."""
    rows = [list(r) for r in t.rows]
    best: tuple[int, int] | None = None
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v == value and (best is None or c > best[1]):
                best = (r, c)
    if best is None:
        raise ValueError(f"{value} does not appear")
    r, c = best
    if c != len(rows[r]) - 1 or (r + 1 < len(rows) and len(rows[r + 1]) > c):
        raise ValueError(f"rightmost {value} is not at a corner")
    rows[r].pop()
    if not rows[r]:
        rows.pop()
    return Tableau(tuple(tuple(r) for r in rows))


def remove_biggest(t: Tableau, count: int) -> Tableau:
    """Remove the ``count`` largest entries, rightmost copies first."""
    for _ in range(count):
        t = remove_rightmost(t, max(t.entries()))
    return t


def trace_tables(m: Matrix) -> tuple[list[Tableau], list[Tableau]]:
    """The insertion and recording traces ``(P_q, V_q)`` for ``q = 0..m'``.

    ``P_q`` row-inserts the reversed bottom line one letter at a time from the
    right end of the two-line array.  ``V_q`` follows the same walk but
    inserts only matched partners, deleting entries as their mates close:
    moving from ``V_(q+1)`` to ``V_q`` looks at column ``q+1 = (i, j)`` and
    inserts ``j`` when ``i > j``, deletes the rightmost ``i`` when ``i < j``,
    and on the diagonal splits its run of equal columns half and half.
    """
    top, bottom = two_line_array(m)
    total = len(bottom)
    p_tables = [Tableau(())] * (total + 1)
    for q in range(total - 1, -1, -1):
        p_tables[q] = row_insert(p_tables[q + 1], bottom[q])
    v_tables = [Tableau(())] * (total + 1)
    for q in range(total - 1, -1, -1):
        i, j = top[q], bottom[q]
        prev = v_tables[q + 1]
        if i > j:
            v_tables[q] = row_insert(prev, j)
        elif i < j:
            if max(prev.entries(), default=0) != i:
                raise ValueError("deletion is not the largest entry")
            v_tables[q] = remove_rightmost(prev, i)
        else:
            a = b = q
            while a > 0 and (top[a - 1], bottom[a - 1]) == (i, i):
                a -= 1
            while b + 1 < total and (top[b + 1], bottom[b + 1]) == (i, i):
                b += 1
            run = b - a + 1
            if run % 2:
                raise ValueError("odd run of diagonal columns")
            pos_from_right = b - q + 1
            if pos_from_right <= run // 2:
                v_tables[q] = row_insert(prev, i)
            else:
                v_tables[q] = remove_rightmost(prev, i)
    return p_tables, v_tables


def inverse_column_word(m: Matrix) -> tuple[int, ...]:
    """The bottom line read right to left."""
    return tuple(reversed(two_line_array(m)[1]))


# ---------------------------------------------------------------------------
# two-line-array surgery: an independent route to the same operators


def surgery_rows(m: Matrix, i: int, k: int) -> Matrix | None:
    """Side 0 moves one unit from row i+1 up to row i (1-based), in the
    column of the largest unpaired entry under the junction bracket pairing;
    side 1 moves one from row i down to row i+1, in the column of the
    smallest.  None if that side has no unpaired entry."""
    c = [j + 1 for j, v in enumerate(m[i - 1]) for _ in range(v)]
    d = [j + 1 for j, v in enumerate(m[i]) for _ in range(v)]
    unpaired = pair_multisets(c, d)[1 - k]
    if not unpaired:
        return None
    col = unpaired[k - 1] - 1  # the largest on side 0, the smallest on side 1
    rows = [list(r) for r in m]
    rows[i - k][col] -= 1  # 0-based: row i to i-1 on side 0, i-1 to i on side 1
    rows[i - 1 + k][col] += 1
    return matrix(rows)


def matrix_surgery(m: Matrix, i: int, k: int) -> Matrix | None:
    """Row surgery, then the same on the transpose; agrees with side k of
    ``MatrixCrystal`` for i >= 1."""
    step = surgery_rows(m, i, k)
    out = None if step is None else surgery_rows(transpose_matrix(step), i, k)
    return None if out is None else transpose_matrix(out)


# ---------------------------------------------------------------------------
# strips and chains replayed from their words


def strip_sequence(strip: OscStrip) -> tuple[Partition, ...]:
    """Every partition the strip touches, inside first."""
    rows, shapes = list(strip.inside), [strip.inside]
    for s in strip.word:
        _box_step(rows, s)
        shapes.append(tuple(rows))
    return tuple(shapes)


def strip_additions(strip: OscStrip) -> Counter:
    """Multiset of rows receiving a box."""
    return Counter(s for s in strip.word if s > 0)


def strip_removals(strip: OscStrip) -> Counter:
    """Multiset of rows losing a box."""
    return Counter(-s for s in strip.word if s < 0)


def ssot_chain(t: SSOT) -> tuple[Partition, ...]:
    """Every partition touched, junction shapes listed once."""
    return (t.inside,) + tuple(p for s in t.strips for p in strip_sequence(s)[1:])


# ---------------------------------------------------------------------------
# exhaustive corpora and shape predicates for the tests


def matrices_with_sum(nrows: int, ncols: int, max_total: int) -> Iterator[Matrix]:
    """All ``nrows x ncols`` nonnegative matrices with entry sum <= max_total."""
    cells = nrows * ncols
    flat = [0] * cells

    def rec(k: int, left: int) -> Iterator[Matrix]:
        if k == cells:
            yield tuple(
                tuple(flat[i * ncols : (i + 1) * ncols]) for i in range(nrows)
            )
            return
        for v in range(left + 1):
            flat[k] = v
            yield from rec(k + 1, left - v)
        flat[k] = 0

    yield from rec(0, max_total)


def contains(outer: Partition, inner: Partition) -> bool:
    """True when the diagram of ``inner`` sits inside ``outer``."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True when ``outer/inner`` has at most one box in every column."""
    if not contains(outer, inner):
        return False
    inner = inner + (0,) * (len(outer) - len(inner))
    return all(outer[i + 1] <= inner[i] for i in range(len(outer) - 1))
