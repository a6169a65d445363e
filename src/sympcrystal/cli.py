"""Command-line front door.

Subcommands:
  enumerate king|ssot     list objects, one per line, then a count line
  map psi|psi-inv|phi|phi-inv   transport one object between the three models
  crystal apply|graph|decompose  operators and component graphs
  char chi|schur|decompose|pieri  exact character computations
  verify bijections|crystal|characters|conjecture|all   invariant batteries

Objects travel as text, in the forms the library prints and parses: King
tableaux as rows of letters (``2 2b / 3 3``, ``-`` for the empty tableau;
rows on separate lines are read too), oscillating tableaux as
``(1 1b)(2 1)``, matrices as comma-separated rows on separate lines.  All
output is sorted, so identical invocations produce identical bytes.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error (including out-of-bounds verify requests, negative --m, --g,
--index or --max-size, an unreadable --input file and an unwritable
--output path), 3 invalid input.
"""

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from .bijections import phi, phi_inverse, psi, psi_inverse
from .characters import (
    brauer_klimyk,
    dual_pieri_count,
    dual_pieri_counts,
    king_character,
    schur_eval,
)
from .crystal import (
    MatrixCrystal,
    SsotCrystal,
    crystal_graph,
    graph_to_adjacency,
    graph_to_dot,
)
from .oscillating import enumerate_ssot, ssot_from_text
from .rsk import format_matrix, parse_matrix
from .tableaux import (
    enumerate_king,
    format_partition,
    king_from_text,
    parse_partition,
    rect_complement,
    shape_in_rows,
    weight_to_partition,
)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# object input


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
        items = [str(t) for t in enumerate_king(mu, args.m)]
    else:
        outside = rect_complement(mu, args.m, args.g)
        items = sorted(str(t) for t in enumerate_ssot(outside, args.m, args.g))
    return items + [f"count {len(items)}"], True


def cmd_map(args):
    text = read_input(args.input)
    if args.how == "psi":
        out = str(psi(king_from_text(text), args.m, args.g))
    elif args.how == "psi-inv":
        out = str(psi_inverse(ssot_from_text(text), args.g))
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
            f"{format_partition(e)}\t{f.terms[e]}"
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
        f = schur_eval(parse_partition(args.mu), args.m)
        return partition_count_lines(brauer_klimyk(lam, f, args.m)), True
    # pieri: strip counts for one column length, optionally a single target;
    # a missing --index is a usage error before any shape is read
    ell = args.index
    if ell is None:
        raise UsageError("char pieri needs --index (the strip size)")
    lam = shape_in_rows(parse_partition(args.lam), args.m)
    if args.nu is not None:
        nu = shape_in_rows(parse_partition(args.nu), args.m)
        return [str(dual_pieri_count(lam, ell, nu, args.m))], True
    counts = dual_pieri_counts(lam, ell, args.m)
    return sorted(f"{format_partition(nu)}\t{c}" for nu, c in counts.items()), True


def cmd_verify(args):
    # the battery (its suites, caps and run order) and the reference routes it
    # checks against load only here; no other command loads them
    from .verify import out_of_bounds, run

    g = args.g if args.g is not None else min(args.m, 2)
    # every bound is checked before any suite runs
    message = out_of_bounds(args.what, args.m, g, args.max_size)
    if message:
        raise UsageError(message)
    return run(args.what, args.m, g, args.max_size)


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
    """A fresh option tree; ``main`` keeps the first one it builds, on its
    first call, and parses every later call with it (importing this module
    builds nothing).

    Every default in the tree is immutable (a str, an int or None), so
    each ``parse_args`` call returns a fresh Namespace and no value from
    one call reaches the next.  ``set_defaults(run=cmd_*)`` binds each
    command body once, when the tree is built: a patch of ``cli.cmd_*``
    made after the first ``main`` call does not reach ``main``, while the
    names a body looks up when it runs (``crystal_graph``, say) can still
    be patched.  A caller that changes the tree this returns does not
    change what ``main`` parses.
    """
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
    p.add_argument("--mu", default="[]")
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


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
