"""The crystal objects of the three models, plus graph machinery.

Index 0 is the long-root direction: it touches only the first strip of an
oscillating tableau (equivalently the top-left matrix entry).  Indices
1..m-1 form a type-A chain.  Each model's raise and lower are the two sides
of one body (side 0 raises, side 1 lowers), reached through the model's
crystal object.  The oscillating body and its statistics are
:func:`sympcrystal.oscillating.ssot_move` and ``ssot_stats``, which the King
model reaches through ``psi``; the matrix body is here, on the tableau crystal
:func:`ssyt_move` and :func:`ssyt_stats`, bracketed by ``pair_multisets``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .oscillating import SSOT, pair_multisets, ssot_move, ssot_stats
from .rsk import (
    Matrix,
    c_index,
    column_insert_word,
    is_admissible,
    matrix,
    row_sums,
    rsk_column_inverse,
    two_line_array,
)
from .tableaux import (
    KingTableau,
    Tableau,
    Weight,
    coroot_pairing,
    king_weight,
    simple_root,
)
from .bijections import psi, psi_inverse

# ---------------------------------------------------------------------------
# type-A operators on semistandard tableaux


def _ssyt_bracket(t: Tableau, i: int) -> tuple[list[int], list[int]]:
    """The rows of the unpaired i's and (i+1)'s, one per cell, ascending."""
    c, d = [], []
    for r, row in enumerate(t.rows):
        c += [r] * row.count(i)
        d += [r] * row.count(i + 1)
    return pair_multisets(c, d)


def ssyt_move(t: Tableau, i: int, k: int) -> Tableau | None:
    """Side 0 turns the leftmost i+1 of the largest unpaired row into an i,
    side 1 the rightmost i of the smallest into an i+1; else None."""
    unpaired = _ssyt_bracket(t, i)[1 - k]
    if not unpaired:
        return None
    r = unpaired[k - 1]  # the largest on side 0, the smallest on side 1
    row = list(t.rows[r])
    row[bisect_left(row, i + 1) - k] = i + k
    return Tableau((*t.rows[:r], tuple(row), *t.rows[r + 1:]))


def ssyt_stats(t: Tableau, i: int) -> tuple[int, int]:
    """(epsilon, phi): the unpaired i+1 and i counts."""
    left_c, left_d = _ssyt_bracket(t, i)
    return len(left_d), len(left_c)


# ---------------------------------------------------------------------------
# operators on nonnegative-integer matrices


def _checked_insertion(m: Matrix, i: int, g: int) -> Tableau | None:
    """Reject a matrix outside the crystal (``P`` wider than 2g) or a bad
    index; return ``P`` for i >= 1 (an admissible matrix has ``Q = P``),
    None at index 0 (which reads the top row, not ``P``)."""
    if not is_admissible(m):
        raise ValueError("matrix must be nonnegative and symmetric with even diagonal")
    if not 0 <= i <= len(m) - 1:
        raise ValueError(f"index {i} out of range for a {len(m)}-row matrix")
    p = column_insert_word(two_line_array(m)[1])
    if p.rows and len(p.rows[0]) > 2 * g:
        raise ValueError("matrix has more than 2g weakly decreasing positions")
    return p if i else None


def _matrix_move(m: Matrix, i: int, g: int, k: int) -> Matrix | None:
    """Side 0 raises, side 1 lowers.  Index 0 moves two units at the top-left
    entry (lowering stops at 2g columns); index i >= 1 moves ``P`` through
    the type-A operator and inverts ``(P', P')``."""
    p = _checked_insertion(m, i, g)
    if p is None:
        corner = m[0][0] + (-2, 2)[k]
        if corner < 0:
            return None
        out = matrix([(corner, *m[0][1:]), *m[1:]])
        return out if k == 0 or c_index(out) <= 2 * g else None
    p2 = ssyt_move(p, i, k)
    return None if p2 is None else rsk_column_inverse(p2, p2, len(m), len(m[0]))


# ---------------------------------------------------------------------------
# uniform adapters


@dataclass(frozen=True)
class _Adapter:
    """A crystal with indices 0..m-1 whose peaks are at most g columns wide,
    the one public route to its model.  Each model keeps ``e`` and ``f`` in
    its own class body, where ``perfbench/tracer.py`` finds them."""

    m: int
    g: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(self.m))


class SsotCrystal(_Adapter):
    """Oscillating tableaux with m strips, peaks at most g columns wide."""

    def e(self, x: SSOT, i: int) -> SSOT | None:
        return ssot_move(x, i, self.g, 0)

    def f(self, x: SSOT, i: int) -> SSOT | None:
        return ssot_move(x, i, self.g, 1)

    def stats(self, x: SSOT, i: int) -> tuple[int, int]:
        return ssot_stats(x, i, self.g)

    def weight(self, x: SSOT) -> Weight:
        return x.crystal_weight(self.g)


class MatrixCrystal(_Adapter):
    """Symmetric even-diagonal m-by-m matrices with at most 2g columns
    after insertion."""

    def e(self, x: Matrix, i: int) -> Matrix | None:
        return _matrix_move(x, i, self.g, 0)

    def f(self, x: Matrix, i: int) -> Matrix | None:
        return _matrix_move(x, i, self.g, 1)

    def stats(self, x: Matrix, i: int) -> tuple[int, int]:
        """(epsilon, phi) from one insertion; index 0 reads the top row."""
        p = _checked_insertion(x, i, self.g)
        if p is None:
            return x[0][0] // 2, x[0][0] // 2 + self.g - sum(x[0])
        return ssyt_stats(p, i)

    def weight(self, x: Matrix) -> Weight:
        return tuple(self.g - s for s in row_sums(x))


class KingCrystal(_Adapter):
    """King tableaux on m barred letters, shapes inside an m-by-g box,
    carried over from the oscillating model."""

    def _carry(self, x: KingTableau, i: int, k: int) -> KingTableau | None:
        out = ssot_move(psi(x, self.m, self.g), i, self.g, k)
        return None if out is None else psi_inverse(out, self.g)

    def e(self, x: KingTableau, i: int) -> KingTableau | None:
        return self._carry(x, i, 0)

    def f(self, x: KingTableau, i: int) -> KingTableau | None:
        return self._carry(x, i, 1)

    def stats(self, x: KingTableau, i: int) -> tuple[int, int]:
        return ssot_stats(psi(x, self.m, self.g), i, self.g)

    def weight(self, x: KingTableau) -> Weight:
        return king_weight(x, self.m)


class OperatorTable:
    """Every operator result of ``crystal`` over one numbered vertex set.

    ``id(x)`` numbers each distinct object once, with one hash, into
    ``objects``; an output is numbered when it first appears.  ``op(k, v, i)``
    is side k of vertex v at an index i of the crystal (0 raises, 1 lowers)
    as an id or None.  It and ``stats(v, i)`` keep what the base returned for
    that call: nothing is inferred (``f(e(x, i), i)`` is still asked of the
    base), and a call that raises stores nothing.  ``weight(v)`` is computed
    once per vertex.
    """

    def __init__(self, crystal, vertices=()):
        self.crystal, self.objects, self._ids = crystal, [], {}
        # e, f, stats by index, and weights: a slot per vertex, -1 until asked
        self._rows, self._weights = [{i: [] for i in crystal.indices} for _ in range(3)], []
        for x in vertices:
            self.id(x)

    def id(self, x) -> int:
        v = self._ids.setdefault(x, len(self.objects))
        if v == len(self.objects):
            self.objects.append(x)
            self._weights.append(-1)
            for rows in self._rows:
                for row in rows.values():
                    row.append(-1)
        return v

    def op(self, k: int, v: int, i: int) -> int | None:
        row = self._rows[k][i]
        if row[v] == -1:
            out = (self.crystal.e, self.crystal.f)[k](self.objects[v], i)
            row[v] = None if out is None else self.id(out)
        return row[v]

    def stats(self, v: int, i: int) -> tuple[int, int]:
        row = self._rows[2][i]
        if row[v] == -1:
            row[v] = self.crystal.stats(self.objects[v], i)
        return row[v]

    def weight(self, v: int) -> Weight:
        if self._weights[v] == -1:
            self._weights[v] = self.crystal.weight(self.objects[v])
        return self._weights[v]

    def image(self, k: int, x, i: int):
        """Side k of the object x at index i, as an object or None."""
        y = self.op(k, self.id(x), i)
        return None if y is None else self.objects[y]


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class CrystalGraph:
    """Lowering edges (src, i, dst) over a deterministically ordered vertex
    list; weights are per-vertex."""

    vertices: tuple
    edges: tuple[tuple[int, int, int], ...]
    weights: tuple[Weight, ...]
    labels: tuple[str, ...] = field(compare=False, repr=False)

    def highest_weight_vertices(self) -> tuple:
        """Vertices with no incoming lowering edge."""
        targets = {dst for _, _, dst in self.edges}
        return tuple(v for k, v in enumerate(self.vertices) if k not in targets)

    def components(self) -> tuple[tuple, ...]:
        nbr: dict[int, set[int]] = {k: set() for k in range(len(self.vertices))}
        for src, _, dst in self.edges:
            nbr[src].add(dst)
            nbr[dst].add(src)
        seen: set[int] = set()
        comps = []
        for k in range(len(self.vertices)):
            if k in seen:
                continue
            stack, comp = [k], []
            seen.add(k)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in nbr[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(self.vertices[u] for u in sorted(comp)))
        return tuple(comps)


def crystal_graph(crystal, vertices) -> CrystalGraph:
    """The lowering edges among ``vertices``, which must be closed under
    ``e`` and ``f``.

    Vertices are deduplicated, rendered once each and numbered through an
    :class:`OperatorTable` in ``str`` order; the graph keeps those strings
    as its labels.  ``f`` runs once per (vertex, index) through the table.
    Its target must be a vertex, and ``e`` of it, run once per edge, must
    equal the source (by ``==``), or ``ValueError`` is raised.  Closure
    under ``e`` is not checked.  Edges come out ordered by (source, index).
    """
    labelled = sorted((str(x), k, x) for k, x in enumerate(dict.fromkeys(vertices)))
    table = OperatorTable(crystal, [x for _, _, x in labelled])
    vertices = tuple(table.objects)
    edges: list[tuple[int, int, int]] = []
    for kx, x in enumerate(vertices):
        for i in crystal.indices:
            ky = table.op(1, kx, i)
            if ky is None:
                continue
            if ky >= len(vertices):
                raise ValueError(f"lowering at {i} leaves the vertex set: {x}")
            if crystal.e(vertices[ky], i) != x:
                raise ValueError(f"lowering at {i} does not invert: {x}")
            edges.append((kx, i, ky))
    return CrystalGraph(
        vertices=vertices,
        edges=tuple(edges),
        weights=tuple(map(crystal.weight, vertices)),
        labels=tuple(text for text, _, _ in labelled),
    )


def decompose(graph: CrystalGraph) -> Counter:
    """Multiset of highest weights, one per source vertex."""
    targets = {dst for _, _, dst in graph.edges}
    return Counter(w for k, w in enumerate(graph.weights) if k not in targets)


def graph_to_adjacency(graph: CrystalGraph) -> str:
    labels = graph.labels
    lines = [f"{labels[src]} -{i}-> {labels[dst]}" for src, i, dst in graph.edges]
    return "\n".join(lines)


def graph_to_dot(graph: CrystalGraph) -> str:
    out = ["digraph crystal {"]
    for k, text in enumerate(graph.labels):
        text = text.replace('"', r"\"")
        out.append(f'  v{k} [label="{text}"];')
    for src, i, dst in graph.edges:
        out.append(f'  v{src} -> v{dst} [label="{i}"];')
    out.append("}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# structural checks


# Each rule has one body, run on two sides: k = 0 raises (``e``, eps at
# position 0 of a stats pair, root added), k = 1 lowers (``f``, phi at
# position 1, root subtracted).  The raising side always runs first.
_VERBS, _STATS = ("raise", "lower"), ("eps", "phi")


def string_length(table: OperatorTable, k: int, v: int, i: int, stat: int) -> int:
    """How often side k of ``table`` applies at index i from vertex v before
    returning None, counted up to ``stat + 1``: a longer string, or a cycle,
    is not followed further."""
    n = 0
    while n <= stat and (v := table.op(k, v, i)) is not None:
        n += 1
    return n


def axiom_violations(crystal, vertices) -> list[str]:
    """Mutual inversion, weight shifts, the phi - eps pairing, and the
    agreement of closed-form statistics with iterated counts.

    ``crystal`` is an :class:`OperatorTable` or a crystal to build a fresh
    one over, so the strings from a vertex and the checks at its
    neighbours share one application per (vertex, index), and one weight
    per vertex.
    """
    table = crystal if isinstance(crystal, OperatorTable) else OperatorTable(crystal)
    op, m = table.op, table.crystal.m
    bad: list[str] = []
    for x in vertices:
        v = table.id(x)
        wx = table.weight(v)
        for i in table.crystal.indices:
            stats = table.stats(v, i)
            alpha = simple_root(i, m)
            if stats[1] - stats[0] != coroot_pairing(wx, i):
                bad.append(f"phi-eps mismatch at index {i}: {x}")
            for k in (0, 1):
                if stats[k] != string_length(table, k, v, i, stats[k]):
                    bad.append(f"{_STATS[k]} is not the iterated count at index {i}: {x}")
            for k in (0, 1):
                verb, sign = _VERBS[k], 1 - 2 * k
                y = op(k, v, i)
                if y is not None:
                    if op(1 - k, y, i) != v:
                        bad.append(f"{verb} at {i} does not invert: {x}")
                    if table.weight(y) != tuple(a + sign * b for a, b in zip(wx, alpha)):
                        bad.append(f"{verb} at {i} has the wrong weight shift: {x}")
                if (y is not None) != (stats[k] > 0):
                    bad.append(f"{verb} at {i} disagrees with {_STATS[k]}: {x}")
    return bad


def stembridge_violations(crystal, vertices) -> list[str]:
    """The local type-A axioms on every index >= 1 of ``crystal``: the
    dichotomy for neighbouring indices, the commutation rules, and their
    lowering-side duals; distant indices must commute and leave each
    other's statistics alone.  ``crystal`` is a table or a crystal, as in
    :func:`axiom_violations`."""
    table = crystal if isinstance(crystal, OperatorTable) else OperatorTable(crystal)
    indices = [i for i in table.crystal.indices if i >= 1]
    bad: list[str] = []
    if len(indices) < 2:
        return bad  # no pair of indices to check
    for x in vertices:
        v = table.id(x)
        stats = {i: table.stats(v, i) for i in indices}
        for i in indices:
            for j in indices:
                if i != j:
                    check = _check_distant if abs(i - j) >= 2 else _check_adjacent
                    for k in (0, 1):
                        bad.extend(check(table, k, x, v, i, j, stats))
    return bad


def _check_distant(table, k: int, x, v: int, i: int, j: int, stats: dict) -> list[str]:
    """On side k, distant indices i, j commute at x, vertex v of ``table``,
    and i leaves x's j statistics alone."""
    verb, op = _VERBS[k], table.op
    y = op(k, v, i)
    if y is None:
        return []
    bad = []
    if table.stats(y, j) != stats[j]:
        bad.append(f"distant {verb} {i} moved the {j} statistics: {x}")
    z = op(k, v, j)
    if z is not None and op(k, y, j) != op(k, z, i):
        bad.append(f"distant {verb}s {i},{j} do not commute: {x}")
    return bad


def _check_adjacent(table, k: int, x, v: int, i: int, j: int, stats: dict) -> list[str]:
    """The rules on side k at x, vertex v of ``table``, for neighbouring
    indices i, j, given x's (eps, phi) at every index.  ``near`` is the
    side's own statistic (eps when raising), ``far`` the other one."""
    verb, op = _VERBS[k], table.op
    near, far = _STATS[k], _STATS[1 - k]
    si, sj = stats[i], stats[j]
    bad = []
    oi_x = op(k, v, i)
    if oi_x is not None:
        s = table.stats(oi_x, j)
        d_near, d_far = s[k] - sj[k], s[1 - k] - sj[1 - k]
        if (d_near, d_far) not in {(0, -1), (1, 0)}:
            bad.append(f"{verb} {i} broke the {j} dichotomy: {x}")
        if d_near == 0 and sj[k] > 0:
            # applying i left near_j alone: the two operators
            # commute, and applying j bumps near_i without touching far_i
            oj_x = op(k, v, j)
            if oj_x is None or op(k, oj_x, i) != op(k, oi_x, j):
                bad.append(f"{verb}s {i},{j} do not commute: {x}")
            else:
                s = table.stats(oj_x, i)
                if s[1 - k] != si[1 - k]:
                    bad.append(f"{verb} {j} moved {far}_{i}: {x}")
                elif s[k] != si[k] + 1:
                    bad.append(f"{verb} {j} did not bump {near}_{i}: {x}")
    oj_x = op(k, v, j)
    if oj_x is not None and table.stats(oj_x, i)[k] == si[k] + 1:
        oioj = op(k, oj_x, i)
        if oioj is None or table.stats(oioj, j)[k] != sj[k] - 1:
            bad.append(f"{verb} pair {i},{j} did not drop {near}_{j}: {x}")
    return bad
