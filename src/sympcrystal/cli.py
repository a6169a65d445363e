"""Command-line front door.

Subcommands:
  enumerate king|ssot     list objects, one per line, then a count line
  map psi|psi-inv|phi|phi-inv   transport one object between the three models
  crystal apply|graph|decompose  operators and component graphs
  char chi|schur|decompose|pieri  exact character computations
  verify bijections|crystal|characters|conjecture|all   invariant batteries

Objects travel as text: King tableaux as rows of letters (``2 2b / 3 3``,
``-`` for the empty tableau), oscillating tableaux as ``(1 1b)(2 1)``,
matrices as comma-separated rows on separate lines.  All output is sorted,
so identical invocations produce identical bytes.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error (including out-of-bounds verify requests, negative --m, --g,
--index or --max-size, an unreadable --input file and an unwritable
--output path), 3 invalid input.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from .bijections import phi, phi_inverse, psi, psi_inverse
from .characters import (
    LaurentCharacter,
    brauer_klimyk,
    conjecture_verify,
    decompose_sp,
    dual_pieri_count,
    dual_pieri_counts,
    king_character,
    schur_eval,
    sundaram_h_count,
    weyl_character,
)
from .crystal import (
    MatrixCrystal,
    OperatorTable,
    SsotCrystal,
    axiom_violations,
    crystal_graph,
    graph_to_adjacency,
    graph_to_dot,
    stembridge_violations,
)
from .oscillating import enumerate_ssot, ssot_from_text
from .rsk import (
    c_index,
    enumerate_admissible,
    format_matrix,
    parse_matrix,
    row_sums,
)
from .tableaux import (
    enumerate_king,
    format_partition,
    king_from_text,
    king_to_text,
    king_weight,
    parse_partition,
    partitions_in_box,
    partitions_upto,
    rect_complement,
    shape_in_rows,
    weight_to_partition,
)

BOUNDS = {"m": 4, "g": 3, "max_size_characters": 6, "max_size_conjecture": 4}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# object text forms


def king_line(t) -> str:
    return " / ".join(king_to_text(t).splitlines()) or "-"


def parse_king_text(text: str):
    text = text.strip()
    if text == "-":
        return king_from_text("")
    return king_from_text(text.replace("/", "\n"))


def read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read --input: {e}") from None


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (lines, all_ok)


def cmd_enumerate(args):
    mu = parse_partition(args.mu)
    if args.what == "king":
        items = [king_line(t) for t in enumerate_king(mu, args.m)]
    else:
        outside = rect_complement(mu, args.m, args.g)
        items = sorted(str(t) for t in enumerate_ssot(outside, args.m, args.g))
    return items + [f"count {len(items)}"], True


def cmd_map(args):
    text = read_input(args.input)
    if args.how == "psi":
        out = str(psi(parse_king_text(text), args.m, args.g))
    elif args.how == "psi-inv":
        out = king_line(psi_inverse(ssot_from_text(text), args.g))
    elif args.how == "phi":
        out = format_matrix(phi(ssot_from_text(text)))
    else:  # phi-inv
        out = str(phi_inverse(parse_matrix(text)))
    return out.splitlines(), True


def _looks_like_matrix(text: str) -> bool:
    head = text.lstrip()
    return bool(head) and head[0] in "-0123456789"


def cmd_crystal_apply(args):
    text = read_input(args.input)
    if _looks_like_matrix(text):
        x = parse_matrix(text)
        crystal, show = MatrixCrystal(len(x), args.g), format_matrix
    else:
        x = ssot_from_text(text, inside=parse_partition(args.inside))
        crystal, show = SsotCrystal(x.length, args.g), str
    out = (crystal.e if args.op == "raise" else crystal.f)(x, args.index)
    return ("none" if out is None else show(out)).splitlines(), True


def cmd_crystal_graph(args):
    outside = rect_complement(parse_partition(args.mu), args.m, args.g)
    seeds = enumerate_ssot(outside, args.m, args.g)
    graph = crystal_graph(SsotCrystal(args.m, args.g), seeds)
    text = graph_to_dot(graph) if args.format == "dot" else graph_to_adjacency(graph)
    return text.splitlines(), True


def cmd_crystal_decompose(args):
    outside = rect_complement(parse_partition(args.mu), args.m, args.g)
    # one highest-weight chain per component: epsilon is zero at every index
    highest = enumerate_ssot(outside, args.m, args.g, eps_bound=(0,) * args.m)
    counts = Counter(weight_to_partition(t.crystal_weight(args.g)) for t in highest)
    return partition_count_lines(counts), True


def partition_count_lines(counts) -> list[str]:
    """One ``[nu]\tcount`` line per shape, ordered by (size, nu)."""
    return [
        f"{format_partition(nu)}\t{counts[nu]}"
        for nu in sorted(counts, key=lambda p: (sum(p), p))
    ]


def char_lines(f, fmt: str):
    if fmt == "tsv":
        return [
            "[" + ",".join(str(v) for v in e) + "]\t" + str(f.terms[e])
            for e in sorted(f.terms, reverse=True)
        ]
    return [str(f)]


def cmd_char(args):
    if args.what == "chi":
        return char_lines(king_character(parse_partition(args.lam), args.m), args.format), True
    if args.what == "schur":
        return char_lines(schur_eval(parse_partition(args.mu), args.m), args.format), True
    if args.what == "decompose":
        # lambda's row bound is checked before --mu is read
        lam = shape_in_rows(parse_partition(args.lam), args.m)
        f = LaurentCharacter.one(args.m)
        if args.mu is not None:
            f = schur_eval(parse_partition(args.mu), args.m)
        return partition_count_lines(brauer_klimyk(lam, f, args.m)), True
    # pieri: strip counts for one column length, optionally a single target
    lam = shape_in_rows(parse_partition(args.lam), args.m)
    ell = args.index
    if ell is None:
        raise UsageError("char pieri needs --index (the strip size)")
    if args.nu is not None:
        nu = shape_in_rows(parse_partition(args.nu), args.m)
        return [str(dual_pieri_count(lam, ell, nu, args.m))], True
    counts = dual_pieri_counts(lam, ell, args.m)
    return sorted(f"{format_partition(nu)}\t{c}" for nu, c in counts.items()), True


# ---------------------------------------------------------------------------
# verification suites


def suite_bijections(m, g):
    rows = []
    pairs = 0
    weight_ok = True
    by_outside = {}
    for t in enumerate_ssot(None, m, g):
        by_outside.setdefault(t.outside, []).append(t)
    for mu in partitions_in_box(m, g):
        kings = enumerate_king(mu, m)
        ssots = by_outside.get(rect_complement(mu, m, g), [])
        pairs += len(kings)
        images = [psi(t, m, g) for t in kings]
        if sorted(map(str, images)) != sorted(map(str, ssots)):
            weight_ok = False
        for t, s in zip(kings, images):
            if psi_inverse(s, g) != t or king_weight(t, m) != s.crystal_weight(g):
                weight_ok = False
    rows.append(("bijections", "king_transport_round_trip", weight_ok,
                 f"tableaux={pairs} m={m} g={g}"))
    chains = by_outside.get((), [])
    mats = enumerate_admissible(m, g)
    ok = len(chains) == len(mats)
    inv_ok = True
    for t in chains:
        mat = phi(t)
        if phi_inverse(mat) != t:
            inv_ok = False
        if c_index(mat) != 2 * t.num_cols or row_sums(mat) != t.weight():
            inv_ok = False
    rows.append(("bijections", "matrix_transport_round_trip", inv_ok,
                 f"tableaux={len(chains)}"))
    rows.append(("bijections", "matrix_count_matches", ok,
                 f"ssot={len(chains)} matrices={len(mats)}"))
    return rows


def suite_crystal(m, g):
    # the reference routes load only when this suite runs, not at every CLI start
    from .oracles import matrix_lower_surgery, matrix_raise_surgery

    rows = []
    # the crystals of every shape in the m x g box: m strips with peaks at
    # most g wide never leave it
    corpus = enumerate_ssot(None, m, g)
    mats = enumerate_admissible(m, g)
    # one operator table per model, shared by every check below and dropped
    # on return
    osc_tab, mat_tab = OperatorTable(SsotCrystal(m, g)), OperatorTable(MatrixCrystal(m, g))
    for name, table, vertices in (("oscillating", osc_tab, corpus), ("matrix", mat_tab, mats)):
        v = axiom_violations(table, vertices)
        # the axioms asked e and f of every vertex, so an object the table
        # holds beyond the (distinct) vertices is an output that left the
        # crystal: the SSOT operators build their outputs unchecked
        if len(table.objects) > len(vertices):
            known = set(vertices)
            x = next(x for x in table.objects if x not in known)
            v.append(f"operator output is not a vertex: {x}")
        rows.append(("crystal", f"axioms_{name}", not v,
                     v[0] if v else f"vertices={len(vertices)}"))
    # side 0 raises, side 1 lowers; every comparison runs, none exits early
    surgery = (matrix_raise_surgery, matrix_lower_surgery)
    same = [mat_tab.image(k, mat, i) == surgery[k](mat, i)
            for mat in mats for i in range(1, m) for k in (0, 1)]
    rows.append(("crystal", "insertion_vs_surgery", all(same), f"checks={len(same)}"))
    equi_ok = True
    checked = 0
    for t in [t for t in corpus if t.outside == ()]:
        mat = phi(t)
        for i in range(m):
            checked += 1
            for k in (0, 1):
                y = osc_tab.image(k, t, i)
                if (None if y is None else phi(y)) != mat_tab.image(k, mat, i):
                    equi_ok = False
            if osc_tab.stats(osc_tab.id(t), i) != mat_tab.stats(mat_tab.id(mat), i):
                equi_ok = False
    rows.append(("crystal", "transport_equivariance", equi_ok, f"checks={checked}"))
    v = stembridge_violations(osc_tab, corpus)
    v += stembridge_violations(mat_tab, mats)
    rows.append(("crystal", "stembridge_battery", not v,
                 v[0] if v else f"vertices={len(corpus) + len(mats)}"))
    return rows


def suite_characters(m, max_size):
    rows = []
    ok = True
    n = 0
    for lam in partitions_upto(max_size, m):
        n += 1
        if king_character(lam, m) != weyl_character(lam, m):
            ok = False
    rows.append(("characters", "tableau_sum_equals_determinant_ratio", ok,
                 f"shapes={n} m={m}"))
    dp_ok = h_ok = True
    checked = 0
    # e_ell and h_ell do not depend on lam: one Schur evaluation each
    elementary = [schur_eval((1,) * ell, m) for ell in range(4)]
    complete = [schur_eval((ell,), m) for ell in range(4)]
    for lam in partitions_upto(min(max_size, 4), m):
        for ell in range(4):
            dec_e = brauer_klimyk(lam, elementary[ell], m)
            dec_h = brauer_klimyk(lam, complete[ell], m)
            strips = dual_pieri_counts(lam, ell, m)
            for nu in partitions_upto(min(max_size, 4) + ell, m):
                checked += 1
                if dec_e.get(nu, 0) != strips[nu]:
                    dp_ok = False
                if dec_h.get(nu, 0) != sundaram_h_count(lam, ell, nu):
                    h_ok = False
    rows.append(("characters", "dual_pieri_rule", dp_ok, f"checks={checked}"))
    rows.append(("characters", "row_pieri_rule", h_ok, f"checks={checked}"))
    rng = random.Random(0)
    pool = partitions_upto(min(max_size, 3), m)
    rec_ok = True
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        f = weyl_character(a, m) * weyl_character(b, m)
        rebuilt = f - f
        for nu, c in decompose_sp(f, m).items():
            rebuilt = rebuilt + c * weyl_character(nu, m)
        if rebuilt != f:
            rec_ok = False
    rows.append(("characters", "decomposition_reconstructs", rec_ok, "products=20"))
    return rows


def suite_conjecture(m, max_size):
    rows = []
    asserted = reported = 0
    bad = []
    memo, schurs = {}, {}  # one strip table and one Schur table for every pair
    for lam in partitions_upto(max_size, m):
        for mu in partitions_upto(max_size, m):
            r = conjecture_verify(lam, mu, m, memo, schurs)
            if r.mode == "ASSERT":
                asserted += 1
                if not r.ok:
                    bad.append((lam, mu))
            else:
                reported += 1
                if not r.ok:
                    rows.append(("conjecture", "report_mode_difference", True,
                                 f"lambda={format_partition(lam)} mu={format_partition(mu)}"))
    rows.append(("conjecture", "product_formula_proved_range", not bad,
                 f"asserted={asserted} reported={reported}" if not bad
                 else f"first failure lambda={bad[0][0]} mu={bad[0][1]}"))
    return rows


def cmd_verify(args):
    m = args.m
    g = args.g if args.g is not None else min(m, 2)
    sizes = {"characters": 4, "conjecture": 3}
    if args.max_size is not None:
        sizes = dict.fromkeys(sizes, args.max_size)
    wanted = [s for s in ("bijections", "crystal", "characters", "conjecture")
              if args.what in (s, "all")]
    # every bound is checked before any suite runs
    if m > BOUNDS["m"] or g > BOUNDS["g"]:
        raise UsageError(f"verify is desk-scale: m <= {BOUNDS['m']}, g <= {BOUNDS['g']}")
    for suite, size in sizes.items():
        if suite in wanted and size > BOUNDS[f"max_size_{suite}"]:
            raise UsageError(f"{suite} suite caps --max-size at {BOUNDS[f'max_size_{suite}']}")
    rows = []
    if "bijections" in wanted:
        rows += suite_bijections(m, g)
    if "crystal" in wanted:
        rows += suite_crystal(m, g)
    if "characters" in wanted:
        rows += suite_characters(m, sizes["characters"])
    if "conjecture" in wanted:
        rows += suite_conjecture(m, sizes["conjecture"])
    lines = [
        f"{suite}\t{name}\t{'PASS' if ok else 'FAIL'}\t{detail}"
        for suite, name, ok, detail in rows
    ]
    ok = all(r[2] for r in rows)
    passed = sum(1 for r in rows if r[2])
    lines.append(f"summary\t{args.what}\t{'PASS' if ok else 'FAIL'}\t{passed}/{len(rows)} checks")
    return lines, ok


# ---------------------------------------------------------------------------
# wiring


def _nonnegative_int(text: str) -> int:
    """A nonnegative int option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympcrystal", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, needs_g=lambda args: False):
        """The shared options; ``needs_g(args)`` says when ``--g`` is required."""
        p.add_argument("--m", type=_nonnegative_int, default=2, help="number of letter tracks")
        p.add_argument("--g", type=_nonnegative_int, default=None, help="column bound")
        p.add_argument("--output", help="write here instead of stdout")
        p.set_defaults(run=run, needs_g=needs_g)

    p = sub.add_parser("enumerate", help="list King or oscillating tableaux")
    p.add_argument("what", choices=["king", "ssot"])
    p.add_argument("--mu", default="[]", help="shape, like [2,1]")
    common(p, cmd_enumerate, lambda args: args.what == "ssot")

    p = sub.add_parser("map", help="transport an object between models")
    p.add_argument("how", choices=["psi", "psi-inv", "phi", "phi-inv"])
    p.add_argument("--input", help="path, or - for stdin")
    common(p, cmd_map, lambda args: args.how in ("psi", "psi-inv"))

    p = sub.add_parser("crystal", help="operators, graphs, decompositions")
    crystal_sub = p.add_subparsers(dest="action", required=True)
    pa = crystal_sub.add_parser("apply", help="apply one operator to one object")
    pa.add_argument("--op", choices=["raise", "lower"], required=True)
    pa.add_argument("--index", type=_nonnegative_int, required=True)
    pa.add_argument("--input", help="path, or - for stdin")
    pa.add_argument("--inside", default="[]", help="inner shape for skew chains")
    common(pa, cmd_crystal_apply, lambda args: True)
    for name in ("graph", "decompose"):
        pg = crystal_sub.add_parser(name)
        pg.add_argument("--mu", default="[]", help="shape, like [2,1]")
        if name == "graph":
            pg.add_argument("--format", choices=["dot", "adj"], default="dot")
        common(pg, cmd_crystal_graph if name == "graph" else cmd_crystal_decompose,
               lambda args: True)

    p = sub.add_parser("char", help="exact character computations")
    p.add_argument("what", choices=["chi", "schur", "decompose", "pieri"])
    p.add_argument("--lambda", dest="lam", default="[]")
    p.add_argument("--mu", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--index", type=_nonnegative_int, default=None, help="strip size for pieri")
    p.add_argument("--format", choices=["text", "tsv"], default="text")
    common(p, cmd_char)

    p = sub.add_parser("verify", help="run an invariant battery")
    p.add_argument("what", choices=["bijections", "crystal", "characters",
                                    "conjecture", "all"])
    p.add_argument("--max-size", type=_nonnegative_int, default=None,
                   help="partition size cap for character suites")
    common(p, cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.g is None and args.needs_g(args):
            raise UsageError("this command needs --g, the column bound")
        lines, ok = args.run(args)
        text = "\n".join(lines) + ("\n" if lines else "")
        if not args.output:
            sys.stdout.write(text)
        else:
            try:
                Path(args.output).write_text(text)
            except OSError as e:
                raise UsageError(f"cannot write --output: {e}") from None
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
