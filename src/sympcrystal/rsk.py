"""Schensted insertion in both directions, two-line arrays, and the matrix
correspondence.

A matrix here is a tuple of equal-length tuples of nonnegative ints.  The
two-line array of a matrix lists each cell ``(i, j)`` with multiplicity
``M[i][j]``, ordered so the top line weakly increases and, within a block of
equal top entries, the bottom line weakly decreases.

:func:`bump` is Schensted's bump on ascending lines: row insertion bumps the
leftmost entry strictly larger than ``x`` out of a row into the next row,
column insertion bumps the smallest entry that is at least ``x`` out of a
column into the next column; :func:`unbump` walks either one back.
``P(M)`` column-inserts the bottom line in one pass, and ``Q(M)`` records the
top letter of each step in the row where its new box lands; the transpose
definition ``Q(M) = P(M transposed)`` is kept in :mod:`sympcrystal.oracles`.
:func:`column_insert_word` builds ``P`` of a word alone: the matrix crystal
reads ``P`` of the bottom line, since a symmetric matrix has ``Q = P``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import zip_longest
from typing import Iterable, Iterator

from .tableaux import Tableau

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# matrices


def matrix(rows) -> Matrix:
    """Validate and freeze a rectangular matrix of nonnegative ints."""
    out = tuple(tuple(int(x) for x in r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    if any(x < 0 for r in out for x in r):
        raise ValueError("negative entry")
    return out


def transpose_matrix(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def row_sums(m: Matrix) -> tuple[int, ...]:
    return tuple(sum(r) for r in m)


def is_symmetric(m: Matrix) -> bool:
    return m == transpose_matrix(m)


def is_admissible(m: Matrix) -> bool:
    """Square, symmetric, with every diagonal entry even."""
    return (
        all(len(r) == len(m) for r in m)
        and is_symmetric(m)
        and all(m[i][i] % 2 == 0 for i in range(len(m)))
    )


def format_matrix(m: Matrix) -> str:
    return "\n".join(",".join(str(x) for x in r) for r in m)


def parse_matrix(text: str) -> Matrix:
    """Rows of comma-separated ints, separated by newlines or semicolons."""
    rows = []
    for line in text.replace(";", "\n").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split(",")))
        except ValueError:
            raise ValueError(f"malformed matrix row {line!r}") from None
    return matrix(rows)


def symmetric_even_diagonal(n: int, max_row_sum: int) -> Iterator[Matrix]:
    """Symmetric ``n x n`` matrices, even diagonal, all row sums <= max_row_sum."""
    grid = [[0] * n for _ in range(n)]
    # fill the upper triangle row by row, mirroring as we go
    cells = [(i, j) for i in range(n) for j in range(i, n)]

    def rec(k: int) -> Iterator[Matrix]:
        if k == len(cells):
            yield tuple(tuple(r) for r in grid)
            return
        i, j = cells[k]
        budget = max_row_sum - sum(grid[i][:j])
        if i != j:
            budget = min(budget, max_row_sum - sum(grid[j][:j]))
        step = 2 if i == j else 1
        for v in range(0, budget + 1, step):
            grid[i][j] = v
            grid[j][i] = v
            yield from rec(k + 1)
        grid[i][j] = 0
        grid[j][i] = 0

    yield from rec(0)


# ---------------------------------------------------------------------------
# two-line arrays


def two_line_array(m: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Top line weakly increasing, bottom weakly decreasing within each block."""
    top: list[int] = []
    bottom: list[int] = []
    for i, row in enumerate(m, start=1):
        for j in range(len(row), 0, -1):
            mult = row[j - 1]
            top.extend([i] * mult)
            bottom.extend([j] * mult)
    return tuple(top), tuple(bottom)


def matrix_from_pairs(
    pairs: Iterable[tuple[int, int]], nrows: int | None = None, ncols: int | None = None
) -> Matrix:
    """Matrix whose cell ``(i, j)`` counts the pairs, 1-based."""
    pairs = list(pairs)
    if nrows is None:
        nrows = max((i for i, _ in pairs), default=0)
    if ncols is None:
        ncols = max((j for _, j in pairs), default=0)
    grid = [[0] * ncols for _ in range(nrows)]
    for i, j in pairs:
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise ValueError(f"pair {(i, j)} outside a {nrows}x{ncols} matrix")
        grid[i - 1][j - 1] += 1
    return tuple(tuple(r) for r in grid)


# ---------------------------------------------------------------------------
# Schensted insertion


def _cols_of(t: Tableau) -> list[list[int]]:
    # entries are positive, so the 0 padding is the only falsy value
    return [list(filter(None, col)) for col in zip_longest(*t.rows, fillvalue=0)]


def _tableau_from_cols(cols: list[list[int]]) -> Tableau:
    rows = []
    k = len(cols)
    for r in range(len(cols[0]) if cols else 0):
        # column lengths weakly decrease: row r reads the first k columns
        while len(cols[k - 1]) <= r:
            k -= 1
        rows.append(tuple([col[r] for col in cols[:k]]))
    return Tableau(tuple(rows))


def bump(lines: list[list[int]], x: int, strict: bool) -> tuple[int, int]:
    """Insert ``x`` into ascending lines (rows when ``strict``, columns when
    not); return the (line, position) of the new box, 0-based.

    Each line swaps ``x`` for its first entry greater than ``x`` when
    ``strict`` (or at least ``x`` when not) and passes that entry on.
    """
    find = bisect_right if strict else bisect_left
    k = 0
    while True:
        if k == len(lines):
            lines.append([x])
            return k, 0
        line = lines[k]
        pos = find(line, x)
        if pos == len(line):
            line.append(x)
            return k, pos
        x, line[pos] = line[pos], x
        k += 1


def unbump(lines: list[list[int]], k: int, strict: bool) -> int:
    """Undo a :func:`bump` whose new box ended line ``k`` (0-based); return the
    letter.  The box removed is the last of that line, which must be a corner.
    """
    if k < 0 or k >= len(lines):
        raise ValueError(f"no line {k + 1}")
    if k + 1 < len(lines) and len(lines[k + 1]) >= len(lines[k]):
        raise ValueError(f"line {k + 1} does not end at a corner")
    find = bisect_left if strict else bisect_right
    x = lines[k].pop()
    if not lines[k]:
        lines.pop()
    for j in range(k - 1, -1, -1):
        line = lines[j]
        pos = find(line, x) - 1
        if pos < 0:
            raise ValueError("reverse insertion fell off a line")
        x, line[pos] = line[pos], x
    return x


def column_insert_word(word: Iterable[int]) -> Tableau:
    """Column-insert a word letter by letter, starting from the empty tableau."""
    cols: list[list[int]] = []
    for x in word:
        bump(cols, x, False)
    return _tableau_from_cols(cols)


def rsk_column(m: Matrix) -> tuple[Tableau, Tableau]:
    """The pair ``(P, Q)``: insert the bottom line, recording where each new box lands.

    The cells are walked in two-line-array order: row ``i`` ascending, column
    ``j`` descending, ``M[i][j]`` copies of each.
    """
    cols: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, row in enumerate(m, start=1):
        for j in range(len(row), 0, -1):
            for _ in range(row[j - 1]):
                _, r = bump(cols, j, False)
                if r == len(q_rows):
                    q_rows.append([i])
                else:
                    q_rows[r].append(i)
    return _tableau_from_cols(cols), Tableau(tuple(map(tuple, q_rows)))


def rsk_column_inverse(
    p: Tableau, q: Tableau, nrows: int | None = None, ncols: int | None = None
) -> Matrix:
    """Matrix mapping to ``(p, q)``; raises ValueError if the pair is invalid.

    The last box created always holds the rightmost copy of the largest entry
    of the recording tableau, which in a semistandard ``q`` is a corner, so
    extraction peels Q's cells in (value, column) descending order.
    """
    if p.shape != q.shape:
        raise ValueError("tableaux have different shapes")
    cols = _cols_of(p)
    # a semistandard q holds each (value, column) at most once
    order = sorted(((v, c) for row in q.rows for c, v in enumerate(row)), reverse=True)
    pairs = [(v, unbump(cols, c, False)) for v, c in order]
    return matrix_from_pairs(pairs, nrows, ncols)


# ---------------------------------------------------------------------------
# the column statistic


def c_index(m: Matrix) -> int:
    """Number of columns of ``P(m)``."""
    cols: list[list[int]] = []
    for row in m:
        for j in range(len(row), 0, -1):
            for _ in range(row[j - 1]):
                bump(cols, j, False)
    return len(cols)


def enumerate_admissible(m: int, g: int) -> list[Matrix]:
    """Symmetric even-diagonal ``m x m`` matrices with ``c_index`` at most 2g.

    Any weakly decreasing block of the bottom line is at most c long, so row
    sums are bounded by 2g and the search space is finite.
    """
    return [
        mat for mat in symmetric_even_diagonal(m, 2 * g) if c_index(mat) <= 2 * g
    ]
