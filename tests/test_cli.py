import functools
import io
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sympcrystal import characters, cli, crystal, oscillating, verify
from sympcrystal.characters import weyl_character
from sympcrystal.cli import main
from sympcrystal.crystal import SsotCrystal, crystal_graph, decompose
from sympcrystal.oscillating import enumerate_ssot
from sympcrystal.tableaux import (
    enumerate_king,
    format_partition,
    normalize_partition,
    partitions_in_box,
    rect_complement,
    weight_to_partition,
)

WORKED_KING = "2 2b / 3 3 / 3b 4 / 4 4b"
WORKED_SSOT = "(1 1)(2 2b)(1b)(1b)"
WORKED_MATRIX = "0,1,0,1\n1,0,1,0\n0,1,0,0\n1,0,0,0\n"
RUNNING_SSOT = "(1 1b)(1 1 1b)(2 1 2b)(2 1)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
    return run_cli(capsys, *argv, "--input", "-")


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_empty_king(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "king", "--mu", "[]", "--m", "3")
    assert code == 0
    assert out == "-\ncount 1\n"


def test_enumerate_single_box_king(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "king", "--mu", "[1]", "--m", "1")
    assert code == 0
    assert out == "1\n1b\ncount 2\n"


def test_enumerate_ssot(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "ssot", "--mu", "[1,1]", "--m", "2", "--g", "1"
    )
    assert code == 0
    assert out.splitlines() == [
        "()()",
        "()(1 1b)",
        "(1 1b)()",
        "(1 1b)(1 1b)",
        "(1)(1b)",
        "count 5",
    ]


# ---------------------------------------------------------------------------
# map


def test_map_pipeline_round(capsys, monkeypatch):
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, WORKED_KING, "map", "psi", "--m", "4", "--g", "2"
    )
    assert (code, out) == (0, WORKED_SSOT + "\n")
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, WORKED_SSOT, "map", "psi-inv", "--g", "2"
    )
    assert (code, out) == (0, WORKED_KING + "\n")
    code, out, _ = run_with_stdin(capsys, monkeypatch, WORKED_SSOT, "map", "phi")
    assert (code, out) == (0, WORKED_MATRIX)
    code, out, _ = run_with_stdin(capsys, monkeypatch, WORKED_MATRIX, "map", "phi-inv")
    assert (code, out) == (0, WORKED_SSOT + "\n")


def test_map_psi_then_psi_inverse_returns_every_enumerated_line(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "enumerate", "king", "--mu", "[2,1]", "--m", "3")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "count 64"
    for line in lines[:-1]:
        code, image, _ = run_with_stdin(
            capsys, monkeypatch, line, "map", "psi", "--m", "3", "--g", "2"
        )
        assert code == 0
        code, back, _ = run_with_stdin(capsys, monkeypatch, image, "map", "psi-inv", "--g", "2")
        assert (code, back) == (0, line + "\n")


def test_map_rejects_garbage(capsys, monkeypatch):
    code, out, err = run_with_stdin(capsys, monkeypatch, "((bogus", "map", "phi")
    assert code == 3 and out == "" and "invalid input" in err


# ---------------------------------------------------------------------------
# crystal


def test_apply_raise_running_example(capsys, monkeypatch):
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, RUNNING_SSOT,
        "crystal", "apply", "--op", "raise", "--index", "2", "--g", "3",
    )
    assert (code, out) == (0, "(1 1b)(1 1 1b 1b)(1 1)(2 1)\n")


def test_apply_lower_then_raise_is_identity(capsys, monkeypatch):
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, RUNNING_SSOT,
        "crystal", "apply", "--op", "lower", "--index", "2", "--g", "3",
    )
    assert code == 0
    code, out2, _ = run_with_stdin(
        capsys, monkeypatch, out,
        "crystal", "apply", "--op", "raise", "--index", "2", "--g", "3",
    )
    assert (code, out2) == (0, RUNNING_SSOT + "\n")


def test_apply_vanishing_prints_none(capsys, monkeypatch):
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, "()",
        "crystal", "apply", "--op", "raise", "--index", "0", "--g", "1",
    )
    assert (code, out) == (0, "none\n")


def test_apply_matrix_locality_example(capsys, monkeypatch):
    m_text = "2,2,1,1\n2,2,0,1\n1,0,4,1\n1,1,1,2\n"
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, m_text,
        "crystal", "apply", "--op", "raise", "--index", "2", "--g", "5",
    )
    assert code == 0
    assert out == "2,2,1,1\n2,2,0,2\n1,0,4,0\n1,2,0,2\n"


def test_apply_rejects_non_admissible_matrix(capsys, monkeypatch):
    code, out, err = run_with_stdin(
        capsys, monkeypatch, "1,0;0,0",
        "crystal", "apply", "--op", "lower", "--index", "1", "--g", "2",
    )
    assert code == 3 and out == ""
    assert "symmetric with even diagonal" in err


def test_apply_refuses_a_chain_wider_than_g(capsys, monkeypatch):
    # the running example peaks at (3, 1): three columns
    code, out, err = run_with_stdin(
        capsys, monkeypatch, RUNNING_SSOT,
        "crystal", "apply", "--op", "lower", "--index", "0", "--g", "2",
    )
    assert (code, out, err) == (3, "", "invalid input: a peak shape needs more than 2 columns\n")
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, RUNNING_SSOT,
        "crystal", "apply", "--op", "lower", "--index", "0", "--g", "3",
    )
    assert (code, out) == (0, "(1 1 1b 1b)(1 1 1b)(2 1 2b)(2 1)\n")


def test_apply_refuses_a_wide_chain_at_a_junction_index(capsys, monkeypatch):
    # the crystal refuses the chain at every index, not only at index 0
    code, out, err = run_with_stdin(
        capsys, monkeypatch, "(1 1 1b)(1b)",
        "crystal", "apply", "--op", "raise", "--index", "1", "--g", "1",
    )
    assert (code, out, err) == (3, "", "invalid input: a peak shape needs more than 1 columns\n")


def test_apply_skew_inside_flag(capsys, monkeypatch):
    code, out, _ = run_with_stdin(
        capsys, monkeypatch, "(1)(1b)",
        "crystal", "apply", "--op", "lower", "--index", "1", "--g", "2",
        "--inside", "[1]",
    )
    assert code == 0
    assert out.startswith("(") and out != "none\n"


def test_graph_adjacency(capsys):
    code, out, _ = run_cli(
        capsys, "crystal", "graph", "--mu", "[1,1]", "--m", "2", "--g", "1",
        "--format", "adj",
    )
    assert code == 0
    assert out.splitlines() == [
        "()() -0-> (1 1b)()",
        "()(1 1b) -0-> (1 1b)(1 1b)",
        "(1 1b)() -1-> (1)(1b)",
        "(1)(1b) -1-> ()(1 1b)",
    ]


def test_graph_dot(capsys):
    code, out, _ = run_cli(
        capsys, "crystal", "graph", "--mu", "[1]", "--m", "1", "--g", "1",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert 'v0 [label="()"];' in out
    assert 'v0 -> v1 [label="0"];' in out


def test_crystal_decompose(capsys):
    code, out, _ = run_cli(
        capsys, "crystal", "decompose", "--mu", "[1,1]", "--m", "2", "--g", "1"
    )
    assert (code, out) == (0, "[1,1]\t1\n")


@pytest.mark.parametrize(
    "m,g", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
)
def test_crystal_decompose_matches_the_graph_sources(capsys, m, g):
    # the bounded walk against the sources of the full crystal graph
    for mu in partitions_in_box(m, g):
        seeds = enumerate_ssot(rect_complement(mu, m, g), m, g)
        sources = Counter()
        for w, c in decompose(crystal_graph(SsotCrystal(m, g), seeds)).items():
            sources[weight_to_partition(w)] += c
        expected = "".join(f"{format_partition(nu)}\t{sources[nu]}\n"
                           for nu in sorted(sources, key=lambda p: (sum(p), p)))
        argv = ["crystal", "decompose", "--mu", format_partition(mu),
                "--m", str(m), "--g", str(g)]
        assert run_cli(capsys, *argv) == (0, expected, ""), argv


def test_crystal_decompose_builds_no_graph(capsys, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("crystal decompose built a crystal graph")

    monkeypatch.setattr(cli, "crystal_graph", no_graph)
    monkeypatch.setattr(crystal, "crystal_graph", no_graph)
    code, out, _ = run_cli(
        capsys, "crystal", "decompose", "--mu", "[2,1]", "--m", "3", "--g", "2"
    )
    assert code == 0 and out


def test_crystal_decompose_takes_no_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crystal", "decompose", "--mu", "[1]", "--m", "1", "--g", "1",
              "--format", "adj"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# characters


def test_char_chi_text_and_tsv(capsys):
    code, out, _ = run_cli(capsys, "char", "chi", "--lambda", "[1]", "--m", "1")
    assert (code, out) == (0, "x1 + x1^-1\n")
    code, out, _ = run_cli(
        capsys, "char", "chi", "--lambda", "[1]", "--m", "1", "--format", "tsv"
    )
    assert (code, out) == (0, "[1]\t1\n[-1]\t1\n")


def test_char_chi_matches_determinant_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "char", "chi", "--lambda", "[2,1]", "--m", "3", "--format", "tsv"
    )
    assert code == 0
    assert out == "".join(
        line + "\n" for line in cli.char_lines(weyl_character((2, 1), 3), "tsv")
    )


def test_char_commands_skip_determinant_ratio(capsys):
    weyl_character.cache_clear()
    for argv in [
        ("char", "chi", "--lambda", "[2,1]", "--m", "3"),
        ("char", "decompose", "--lambda", "[2]", "--mu", "[1,1]", "--m", "3"),
        ("verify", "conjecture", "--m", "2", "--max-size", "2"),
    ]:
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert weyl_character.cache_info().currsize == 0, argv


def test_char_schur(capsys):
    code, out, _ = run_cli(capsys, "char", "schur", "--mu", "[2]", "--m", "1")
    assert (code, out) == (0, "x1^2 + 1 + x1^-2\n")


def test_char_schur_without_mu_is_the_empty_shape(capsys):
    assert run_cli(capsys, "char", "schur", "--m", "2") == (0, "1\n", "")


@pytest.mark.parametrize("m", ["1", "2", "3"])
def test_char_decompose_without_mu_is_the_empty_shape(capsys, m):
    argv = ["char", "decompose", "--lambda", "[1]", "--m", m]
    without_mu = run_cli(capsys, *argv)
    assert without_mu == run_cli(capsys, *argv, "--mu", "[]")
    assert without_mu[0] == 0 and without_mu[1]


def test_char_decompose_product(capsys):
    code, out, _ = run_cli(
        capsys, "char", "decompose", "--lambda", "[1]", "--mu", "[1]", "--m", "2"
    )
    assert code == 0
    assert out == "[]\t1\n[1,1]\t1\n[2]\t1\n"
    code, out, _ = run_cli(capsys, "char", "decompose", "--lambda", "[]", "--m", "0")
    assert (code, out) == (0, "[]\t1\n")


def test_char_pieri(capsys):
    code, out, _ = run_cli(
        capsys, "char", "pieri", "--lambda", "[1]", "--index", "2", "--m", "2"
    )
    assert (code, out) == (0, "[1]\t2\n[2,1]\t1\n")
    code, out, _ = run_cli(
        capsys, "char", "pieri", "--lambda", "[1]", "--index", "2", "--m", "2",
        "--nu", "[1]",
    )
    assert (code, out) == (0, "2\n")


def test_char_pieri_rejects_lambda_with_too_many_rows(capsys):
    code, out, err = run_cli(
        capsys, "char", "pieri", "--lambda", "[1,1,1]", "--index", "1", "--m", "2"
    )
    assert (code, out) == (3, "")
    assert err == "invalid input: shape (1, 1, 1) has more than 2 rows\n"


def test_char_pieri_without_index_is_a_usage_error_before_any_shape(capsys):
    # shapes that would be refused as invalid input (exit 3) if they were read
    for shapes in (["--lambda", "[1,1,1]"], ["--lambda", "[1]", "--nu", "[1,1,1,1]"],
                   ["--lambda", "[x]", "--nu", "[-1]"]):
        code, out, err = run_cli(capsys, "char", "pieri", "--m", "2", *shapes)
        assert (code, out) == (2, "")
        assert err == "usage error: char pieri needs --index (the strip size)\n"


def test_char_pieri_rejects_nu_with_too_many_rows(capsys):
    code, out, err = run_cli(
        capsys, "char", "pieri", "--lambda", "[1]", "--index", "1", "--m", "2",
        "--nu", "[1,1,1,1]",
    )
    assert (code, out) == (3, "")
    assert err == "invalid input: shape (1, 1, 1, 1) has more than 2 rows\n"


def test_char_decompose_checks_lambda_rows_first(capsys):
    # lambda's row bound is checked before --mu is read, so its message wins
    for mu in ("[1]", "[1,2]", "[-1]"):
        code, out, err = run_cli(
            capsys, "char", "decompose", "--lambda", "[1,1]", "--mu", mu, "--m", "1"
        )
        assert (code, out) == (3, "")
        assert err == "invalid input: shape (1, 1) has more than 1 rows\n"


def test_char_pieri_lists_every_target_of_one_scan(capsys):
    code, out, _ = run_cli(
        capsys, "char", "pieri", "--lambda", "[2,1]", "--index", "3", "--m", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    for line in lines:
        nu, c = line.split("\t")
        code, one, _ = run_cli(
            capsys, "char", "pieri", "--lambda", "[2,1]", "--index", "3", "--m", "2",
            "--nu", nu,
        )
        assert (code, one) == (0, c + "\n")


# ---------------------------------------------------------------------------
# verify


@pytest.fixture
def strip_calls(monkeypatch):
    """Counts enumerate_strips calls by (shape, column bound, size)."""
    calls = Counter()
    real = oscillating.enumerate_strips

    def counting(inside, max_cols, size=None):
        calls[normalize_partition(inside), max_cols, size] += 1
        return real(inside, max_cols, size)

    monkeypatch.setattr(oscillating, "enumerate_strips", counting)
    monkeypatch.setattr(characters, "enumerate_strips", counting)
    return calls


def test_suites_enumerate_each_strip_set_once(strip_calls):
    verify.suite_conjecture(2, 3)
    assert len(strip_calls) == 18 and set(strip_calls.values()) == {1}
    strip_calls.clear()
    verify.suite_characters(2, 2)
    # one scan per (lambda, ell): 4 shapes of size <= 2, ell = 0..3
    assert len(strip_calls) == 16 and set(strip_calls.values()) == {1}


def test_no_strip_table_outlives_a_cli_call(capsys, strip_calls):
    for argv in (
        ["verify", "conjecture", "--m", "2", "--max-size", "3"],
        ["verify", "characters", "--m", "3", "--max-size", "1"],
    ):
        strip_calls.clear()
        assert main(argv) == 0
        first = Counter(strip_calls)
        assert first and set(first.values()) == {1}
        strip_calls.clear()
        assert main(argv) == 0
        assert strip_calls == first, argv
    capsys.readouterr()


def test_verify_conjecture_evaluates_each_schur_once_per_call(capsys, monkeypatch):
    calls = Counter()
    real = characters.schur_eval

    def counting(mu, m):
        calls[normalize_partition(mu), m] += 1
        return real(mu, m)

    monkeypatch.setattr(characters, "schur_eval", counting)
    argv = ["verify", "conjecture", "--m", "2", "--max-size", "3"]
    assert main(argv) == 0
    # the 6 shapes mu of size <= 3 with at most 2 rows
    assert len(calls) == 6 and set(calls.values()) == {1}
    assert main(argv) == 0
    assert set(calls.values()) == {2}
    capsys.readouterr()


def test_verify_conjecture_names_its_first_failure_as_partitions(capsys, monkeypatch):
    def fake(lam, mu, m, memo, schurs):
        bad = (lam, mu) == ((1,), (1,))
        return characters.ConjectureReport(lam, mu, m, "ASSERT", (((), 0, int(bad)),))

    monkeypatch.setattr(verify, "conjecture_verify", fake)
    code, out, _ = run_cli(capsys, "verify", "conjecture", "--m", "1", "--max-size", "1")
    assert code == 1
    assert out.splitlines()[0] == (
        "conjecture\tproduct_formula_proved_range\tFAIL\tfirst failure lambda=[1] mu=[1]"
    )


@pytest.fixture
def operator_calls(monkeypatch):
    """Counts calls into the base operators by (model, operator, x, i)."""
    calls = Counter()
    for cls in (crystal.SsotCrystal, crystal.MatrixCrystal):
        for op in ("e", "f", "stats"):
            def counting(self, x, i, real=getattr(cls, op), key=(cls.__name__, op)):
                calls[(*key, x, i)] += 1
                return real(self, x, i)

            monkeypatch.setattr(cls, op, counting)
    return calls


def test_verify_crystal_applies_each_operator_once_per_vertex_and_index(
    capsys, operator_calls
):
    verify.suite_crystal(3, 2)
    assert {key[:2] for key in operator_calls} == {
        (model, op) for model in ("SsotCrystal", "MatrixCrystal") for op in ("e", "f", "stats")
    }
    assert set(operator_calls.values()) == {1}
    operator_calls.clear()
    argv = ["verify", "crystal", "--m", "2", "--g", "2"]
    assert main(argv) == 0
    first = Counter(operator_calls)
    assert first and set(first.values()) == {1}
    # no memo outlives a call: the second computes everything again
    assert main(argv) == 0
    assert operator_calls.keys() == first.keys() and set(operator_calls.values()) == {2}
    capsys.readouterr()


def test_verify_bijections_runs_psi_once_per_king_tableau(monkeypatch):
    calls = Counter()
    real = verify.psi

    def counting(t, m, g):
        calls[t] += 1
        return real(t, m, g)

    monkeypatch.setattr(verify, "psi", counting)
    for m, g in [(2, 2), (3, 2)]:
        calls.clear()
        rows = verify.suite_bijections(m, g)
        kings = [t for mu in partitions_in_box(m, g) for t in enumerate_king(mu, m)]
        assert all(ok for _, _, ok, _ in rows)
        assert calls.keys() == set(kings) and set(calls.values()) == {1}


@pytest.mark.parametrize("bend", [
    lambda shape: (*shape, 0, 1),  # not a partition
    lambda shape: (*shape, 1),  # a partition, but not where the words lead
], ids=["not_a_partition", "not_enumerated"])
def test_verify_crystal_fails_a_decode_that_leaves_the_crystal(capsys, monkeypatch, bend):
    # a broken decode that moves the junction shape of every chain it is given
    # and keeps the outer shape; given such a twin, it returns the true output,
    # so e and f still invert each other and only closure shows the break
    real = oscillating._rebuild_junction

    def broken(t, i, c, d):
        out = real(t, i, c, d)
        lo = t.strips[i - 1]
        if lo.outside != oscillating.OscStrip(lo.inside, lo.word).outside:
            return out  # t is a twin
        lo, hi = out.strips[i - 1], out.strips[i]
        shape = bend(lo.outside)
        return out.replace(
            i - 1,
            oscillating.OscStrip._from_trusted(lo.inside, lo.word, lo.star, shape),
            oscillating.OscStrip._from_trusted(shape, hi.word, hi.star, hi.outside),
        )

    monkeypatch.setattr(oscillating, "_rebuild_junction", broken)
    corpus = enumerate_ssot(None, 2, 2)
    table = crystal.OperatorTable(SsotCrystal(2, 2))
    assert crystal.axiom_violations(table, corpus) == []
    assert len(table.objects) > len(corpus)
    rows = {name: (ok, detail) for _, name, ok, detail in verify.suite_crystal(2, 2)}
    ok, detail = rows["axioms_oscillating"]
    assert not ok and detail.startswith("operator output is not a vertex: ")
    assert rows["axioms_matrix"][0]
    assert main(["verify", "crystal", "--m", "2", "--g", "2"]) == 1
    capsys.readouterr()


def test_verify_all_smallest(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--m", "1", "--g", "1")
    assert code == 0
    lines = out.splitlines()
    assert all("\tPASS\t" in line for line in lines)
    assert lines[-1].startswith("summary\tall\tPASS")


def test_verify_rejects_out_of_bounds(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--m", "9")
    assert code == 2 and "desk-scale" in err
    code, out, err = run_cli(
        capsys, "verify", "conjecture", "--m", "2", "--max-size", "9"
    )
    assert code == 2 and "caps --max-size" in err


def test_verify_checks_only_the_caps_of_the_suites_it_runs():
    assert verify.out_of_bounds("crystal", 2, 2, 9) is None
    assert verify.out_of_bounds("all", 2, 2, 5) == "conjecture suite caps --max-size at 4"
    assert verify.out_of_bounds("all", 2, 2, 9) == "characters suite caps --max-size at 6"
    # m and g come first, whatever the suite
    assert verify.out_of_bounds("all", 2, 4, 9) == "verify is desk-scale: m <= 4, g <= 3"


def test_verify_all_is_every_suite_in_table_order(capsys):
    size = ["--m", "2", "--g", "1", "--max-size", "2"]
    code, out, _ = run_cli(capsys, "verify", "all", *size)
    assert code == 0
    rows = []
    for name in verify.SUITES:
        code, one, _ = run_cli(capsys, "verify", name, *size)
        *lines, summary = one.splitlines()
        assert code == 0 and lines and summary.startswith(f"summary\t{name}\tPASS\t")
        rows += lines
    assert out.splitlines() == rows + [f"summary\tall\tPASS\t{len(rows)}/{len(rows)} checks"]


def test_verify_accepts_every_suite_of_the_table():
    # the parser's choices are a literal list; this keeps it in step with SUITES
    parser = cli.build_parser()
    for what in [*verify.SUITES, "all"]:
        assert parser.parse_args(["verify", what]).what == what


LAZY_PROBE = """
import contextlib, io, sys
from sympcrystal import cli
battery = {"sympcrystal.verify", "sympcrystal.oracles"}
before = sorted(battery & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(before, code, sorted(battery & set(sys.modules)))
"""


@pytest.mark.parametrize("argv,loaded", [
    (["enumerate", "ssot", "--mu", "[1]", "--m", "2", "--g", "1"], False),
    (["map", "phi-inv", "--input", "-"], False),
    (["crystal", "graph", "--mu", "[1]", "--m", "2", "--g", "1"], False),
    (["char", "chi", "--lambda", "[1]", "--m", "2"], False),
    (["verify", "crystal", "--m", "1", "--g", "1"], True),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_only_verify_loads_the_battery_and_the_oracles(argv, loaded):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, *argv], input=WORKED_MATRIX,
                          capture_output=True, text=True, env=env)
    battery = ["sympcrystal.oracles", "sympcrystal.verify"] if loaded else []
    assert proc.stdout == f"[] 0 {battery}\n", proc.stderr


def test_verify_runs_at_m_4_and_refuses_m_5(capsys):
    code, out, _ = run_cli(capsys, "verify", "crystal", "--m", "4", "--g", "1")
    assert code == 0 and out.splitlines()[-1].startswith("summary\tcrystal\tPASS")
    code, out, err = run_cli(capsys, "verify", "crystal", "--m", "5", "--g", "1")
    assert (code, out) == (2, "") and "m <= 4" in err


def test_verify_checks_every_bound_before_any_suite(capsys, monkeypatch):
    def not_reached(*args):
        raise AssertionError("a suite ran before the bounds were checked")

    for suite in ("suite_bijections", "suite_crystal", "suite_characters"):
        monkeypatch.setattr(verify, suite, not_reached)
    # --max-size 5 is within the characters cap and past the conjecture cap
    code, out, err = run_cli(
        capsys, "verify", "all", "--m", "3", "--g", "2", "--max-size", "5"
    )
    assert (code, out) == (2, "")
    assert "conjecture suite caps --max-size at 4" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        verify, "suite_bijections",
        lambda m, g: [("bijections", "stub", False, "planted failure")],
    )
    code, out, _ = run_cli(capsys, "verify", "bijections", "--m", "1", "--g", "1")
    assert code == 1
    assert "FAIL" in out and out.splitlines()[-1].startswith("summary")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_missing_flag_is_usage_error(capsys, monkeypatch):
    code, _, err = run_with_stdin(
        capsys, monkeypatch, WORKED_SSOT, "map", "psi", "--m", "4"
    )
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "ssot", "--mu", "[1]"],
        ["map", "psi", "--input", WORKED_KING],
        ["map", "psi-inv", "--input", WORKED_SSOT],
        ["crystal", "apply", "--op", "raise", "--index", "0", "--input", "()"],
        ["crystal", "graph", "--mu", "[1]"],
        ["crystal", "decompose", "--mu", "[1]"],
    ],
)
def test_every_command_that_needs_g_refuses_its_absence(capsys, argv):
    # the check runs before any input is read: --input here is no real path
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "usage error: this command needs --g, the column bound\n"


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "map", "phi", "--input", str(tmp_path / "missing.txt")
    )
    assert (code, out) == (2, "") and err.startswith("usage error: cannot read --input")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "ssot", "--g", "-1"],
        ["char", "pieri", "--lambda", "[1]", "--index", "-1", "--m", "2"],
        ["enumerate", "king", "--m", "-1"],
        ["verify", "characters", "--m", "1", "--max-size", "-1"],
    ],
)
def test_negative_parameter_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be nonnegative" in err


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        capsys, "enumerate", "king", "--mu", "[1]", "--m", "1",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text() == "1\n1b\ncount 2\n"


def test_unwritable_output_is_usage_error(capsys, monkeypatch, tmp_path):
    code, out, err = run_with_stdin(
        capsys, monkeypatch, "2,0;0,2", "map", "phi-inv",
        "--output", str(tmp_path / "missing" / "out.txt"),
    )
    assert (code, out) == (2, "") and err.startswith("usage error: cannot write --output")


def test_byte_determinism(capsys):
    argv = ["crystal", "graph", "--mu", "[1]", "--m", "2", "--g", "2"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second and first


# ---------------------------------------------------------------------------
# one parser per process


def child_env():
    """The environment of a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def fresh_cli(*argv):
    """(exit code, stdout, stderr) of ``python -m sympcrystal argv`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "sympcrystal", *argv],
                          capture_output=True, text=True, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


def run_exit(capsys, *argv):
    """(exit code, stdout, stderr) of ``main`` for an argv that argparse rejects or answers."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_an_omitted_option_takes_its_default_after_a_call_that_gave_it(capsys):
    with_mu = run_cli(capsys, "char", "decompose", "--lambda", "[1]", "--mu", "[1]", "--m", "1")
    argv = ["char", "decompose", "--lambda", "[1]", "--m", "1"]
    without_mu = run_cli(capsys, *argv)
    assert without_mu == fresh_cli(*argv) == (0, "[1]\t1\n", "")
    assert with_mu[1] != without_mu[1]


def test_an_omitted_output_writes_to_stdout_after_a_call_that_gave_it(capsys, tmp_path):
    argv = ["crystal", "graph", "--mu", "[1]", "--m", "2", "--g", "1", "--format", "adj"]
    target = tmp_path / "graph.txt"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out and out == target.read_text()


def test_a_refused_call_leaves_the_next_call_unchanged(capsys):
    argv = ["crystal", "graph", "--mu", "[1]", "--m", "2", "--g", "1", "--format", "adj"]
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, "crystal", "graph", "--mu", "[2]", "--m", "3")[0] == 2  # UsageError
    assert run_cli(capsys, *argv) == first
    assert run_exit(capsys, "crystal", "graph", "--format", "nosuch")[0] == 2  # argparse
    assert run_cli(capsys, *argv) == first and first[0] == 0 and first[1]


BUILD_PROBE = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from sympcrystal import cli
at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    codes = {cli.main(["char", "chi", "--lambda", "[1]", "--m", "2"]) for _ in range(20)}
print(at_import, codes, built.count("sympcrystal"), cli._parser.cache_info().misses)
"""


def test_importing_builds_no_parser_and_twenty_calls_build_one():
    proc = subprocess.run([sys.executable, "-c", BUILD_PROBE], capture_output=True,
                          text=True, env=child_env())
    assert proc.stdout == "0 {0} 1 1\n", proc.stderr


def test_help_and_errors_are_the_same_on_every_call(capsys, monkeypatch):
    # a cache of its own, so that the first call here is a first build
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
    for argv in (["--help"], ["crystal", "graph", "--format", "nosuch"], ["nosuch"]):
        first, second = run_exit(capsys, *argv), run_exit(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        captured = capsys.readouterr()
        assert first == second == (exc.value.code, captured.out, captured.err)
        assert first[0] == (0 if argv == ["--help"] else 2) and first[1] + first[2]
    assert cli._parser.cache_info().misses == 1


def test_help_shows_the_commands_and_exit_codes_and_no_implementation_notes(capsys):
    code, out, _ = run_exit(capsys, "--help")
    assert code == 0
    for command in ("enumerate", "map", "crystal", "char", "verify"):
        assert f"\n  {command} " in out, command
    for exit_code in ("0 success", "1 verification failure", "2 usage error", "3 invalid input"):
        assert exit_code in out
    assert "option tree" not in out and "sympcrystal.verify" not in out


def test_a_changed_fresh_parser_does_not_reach_main(capsys):
    fresh = cli.build_parser()
    assert fresh is not cli.build_parser()
    fresh.add_argument("--planted", action="store_true")
    assert fresh.parse_args(["--planted", "char", "chi"]).planted
    argv = ["char", "chi", "--lambda", "[1]", "--m", "1"]
    assert run_exit(capsys, "--planted", *argv)[0] == 2
    assert run_cli(capsys, *argv)[0] == 0


def _readme_cli_examples():
    """(command, expected stdout) for every ``$ sympcrystal`` example in the
    README's shell block; an example ends at the first blank line."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        (lines[0][2:], lines[1:])
        for lines in (chunk.splitlines() for chunk in block.strip().split("\n\n"))
    ]


@pytest.mark.parametrize("command,expected", _readme_cli_examples())
def test_readme_shell_examples(capsys, monkeypatch, command, expected):
    echo, _, command = command.rpartition("|")
    if echo:
        (piped,) = shlex.split(echo)[1:]
        monkeypatch.setattr("sys.stdin", io.StringIO(piped + "\n"))
    prog, *argv = shlex.split(command, comments=True)
    assert prog == "sympcrystal"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if expected[0] == "...":  # elided output: the summary line is compared
        assert out.splitlines()[-1:] == expected[1:]
    else:
        assert out.splitlines() == expected


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sympcrystal", "enumerate", "king",
         "--mu", "[]", "--m", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-\ncount 1\n"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
