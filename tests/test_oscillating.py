from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympcrystal import oscillating
from sympcrystal.oracles import (
    is_horizontal_strip,
    ssot_chain,
    strip_additions,
    strip_removals,
    strip_sequence,
)
from sympcrystal.oscillating import (
    SSOT,
    OscStrip,
    _box_step,
    drops_below,
    enumerate_ssot,
    enumerate_strips,
    peaks_above,
    ssot_from_text,
)
from sympcrystal.tableaux import partitions_in_box


def running_example():
    """Four chained strips ending at (3,1), used throughout the tests."""
    return SSOT(
        (
            OscStrip((), (1, -1)),
            OscStrip((), (1, 1, -1)),
            OscStrip((1,), (2, 1, -2)),
            OscStrip((2,), (2, 1)),
        )
    )


@st.composite
def strips(draw):
    inside = draw(st.sampled_from([(), (1,), (2,), (2, 1), (2, 2), (3, 1)]))
    options = enumerate_strips(inside, 4)
    return draw(st.sampled_from(options))


def test_strip_replay():
    s = OscStrip((1,), (2, 1, -2))
    assert strip_sequence(s) == ((1,), (1, 1), (2, 1), (2,))
    assert s.star == (2, 1)
    assert s.outside == (2,)
    assert s.size == 3
    assert s.num_cols == 2
    assert strip_additions(s) == {2: 1, 1: 1}
    assert strip_removals(s) == {2: 1}


def test_strip_word_must_weakly_decrease():
    with pytest.raises(ValueError):
        OscStrip((), (1, 2))
    with pytest.raises(ValueError):
        OscStrip((), (-1, 1))
    with pytest.raises(ValueError):
        OscStrip((), (0,))


def test_strip_steps_must_stay_partitions():
    with pytest.raises(ValueError):
        OscStrip((), (2,))  # box in row 2 of the empty shape
    with pytest.raises(ValueError):
        OscStrip((1,), (-1, -1))  # second removal has nothing to remove
    with pytest.raises(ValueError):
        OscStrip((2, 2), (-1,))  # removing from row 1 breaks weak decrease


def test_box_step():
    def step(mu, s):
        rows = list(mu)
        _box_step(rows, s)
        return tuple(rows)

    assert step((2, 1), 1) == (3, 1)
    assert step((2, 1), 2) == (2, 2)
    assert step((2, 1), 3) == (2, 1, 1)
    assert step((), 1) == (1,)
    with pytest.raises(ValueError):
        step((2, 2), 2)  # row 2 would overtake row 1
    with pytest.raises(ValueError):
        step((2, 1), 4)  # row 3 is still empty
    assert step((2, 2), -2) == (2, 1)
    assert step((1,), -1) == ()
    with pytest.raises(ValueError):
        step((2, 2), -1)  # row 1 would fall below row 2
    with pytest.raises(ValueError):
        step((1,), -2)  # row 2 is empty


def test_from_partitions_known():
    s = OscStrip.from_partitions((1,), (2, 1), (2,))
    assert s.word == (2, 1, -2)
    t = OscStrip.from_partitions((), (2,), ())
    assert t.word == (1, 1, -1, -1)
    with pytest.raises(ValueError):
        OscStrip.from_partitions((), (1, 1), ())  # vertical, not horizontal
    # shapes are taken as given: trailing zeros name no shape a strip lands on
    with pytest.raises(ValueError):
        OscStrip.from_partitions((), (2, 0), ())
    with pytest.raises(ValueError):
        OscStrip.from_partitions((1,), (2, 1), (2, 0))


def test_from_partitions_matches_horizontal_strip_checks():
    box = list(partitions_in_box(3, 3))
    for inside in box:
        for star in box:
            for outside in box:
                if is_horizontal_strip(star, inside) and is_horizontal_strip(
                    star, outside
                ):
                    s = OscStrip.from_partitions(inside, star, outside)
                    assert (s.inside, s.star, s.outside) == (inside, star, outside)
                else:
                    with pytest.raises(ValueError):
                        OscStrip.from_partitions(inside, star, outside)


@given(strips())
def test_strip_triple_roundtrip(s):
    assert OscStrip.from_partitions(s.inside, s.star, s.outside) == s


def test_stored_shapes_match_replay():
    for inside in partitions_in_box(3, 3):
        for s in enumerate_strips(inside, 3):
            shapes = strip_sequence(s)
            assert s.star == shapes[sum(strip_additions(s).values())]
            assert s.outside == shapes[-1]


def test_stored_shapes_stay_out_of_equality_hash_and_repr():
    assert [f.name for f in fields(OscStrip) if f.compare] == ["inside", "word"]
    s = OscStrip((1,), (2, 1, -2))
    t = OscStrip((1,), (2, 1, -2))
    object.__setattr__(t, "star", None)
    object.__setattr__(t, "outside", None)
    assert s == t and hash(s) == hash(t)
    assert repr(s) == "OscStrip(inside=(1,), word=(2, 1, -2))"


@given(strips())
def test_strip_pieces_are_horizontal(s):
    assert is_horizontal_strip(s.star, s.inside)
    assert is_horizontal_strip(s.star, s.outside)


def test_ssot_running_example():
    t = running_example()
    assert t.weight() == (2, 3, 3, 2)
    assert t.outside == (3, 1)
    assert t.inside == ()
    assert t.num_cols == 3
    assert t.crystal_weight(3) == (1, 0, 0, 1)
    assert ssot_chain(t) == (
        (),
        (1,),
        (),
        (1,),
        (2,),
        (1,),
        (1, 1),
        (2, 1),
        (2,),
        (2, 1),
        (3, 1),
    )


def test_ssot_chain_must_connect():
    with pytest.raises(ValueError):
        SSOT((OscStrip((), (1,)), OscStrip((), (1,))))


def test_stripless_chain_keeps_its_start_shape():
    (fixed,) = enumerate_ssot((2,), 0, 2, inside=(2,))
    (every,) = enumerate_ssot(None, 0, 2, inside=(2,))
    for t in (fixed, every):
        assert (t.inside, t.outside, ssot_chain(t)) == ((2,), (2,), ((2,),))
    assert enumerate_ssot((), 0, 2, inside=(2,)) == []
    assert SSOT(()).outside == ()
    # a nonempty chain starts at its first strip; eq, hash and str ignore the field
    t = running_example()
    same = SSOT(t.strips, t.strips[0].inside)
    assert (same, hash(same), str(same), repr(same)) == (t, hash(t), str(t), repr(t))


def test_ssot_replace():
    t = running_example()
    new = OscStrip((), (1,))
    t2 = t.replace(1, new)
    assert t2.strips[1] == new
    assert t2.strips[0] == t.strips[0]
    assert t2.weight() == (2, 1, 3, 2)
    with pytest.raises(ValueError):
        t.replace(1, OscStrip((), (1, 1)))  # outside no longer chains


def test_text_roundtrip():
    t = running_example()
    assert str(t) == "(1 1b)(1 1 1b)(2 1 2b)(2 1)"
    assert ssot_from_text(str(t)) == t
    assert ssot_from_text("()()").weight() == (0, 0)
    skew = SSOT((OscStrip((2,), (-1,)),))
    assert ssot_from_text(str(skew), inside=(2,)) == skew
    with pytest.raises(ValueError):
        ssot_from_text("")
    with pytest.raises(ValueError):
        ssot_from_text("1 2")


def test_peaks_and_drops():
    assert set(peaks_above((), 2)) == {(), (1,), (2,)}
    assert set(peaks_above((1,), 2)) == {(1,), (2,), (1, 1), (2, 1)}
    assert set(drops_below((2, 1))) == {(2, 1), (2,), (1, 1), (1,)}
    assert set(drops_below(())) == {()}


def test_peaks_and_drops_match_brute_force():
    for inside in partitions_in_box(3, 3):
        for max_cols in range(5):
            assert list(peaks_above(inside, max_cols)) == [
                p
                for p in partitions_in_box(len(inside) + 1, max_cols)
                if is_horizontal_strip(p, inside)
            ]
        cols = inside[0] if inside else 0
        assert list(drops_below(inside)) == [
            p for p in partitions_in_box(len(inside), cols) if is_horizontal_strip(inside, p)
        ]


def test_enumerate_strips_small():
    # from the empty shape with one column allowed: stay, add, or add-remove
    got = enumerate_strips((), 1)
    words = {s.word for s in got}
    assert words == {(), (1,), (1, -1)}
    # size filter
    assert {s.word for s in enumerate_strips((), 2, size=2)} == {(1, 1), (1, -1)}
    assert (2, 1) in {s.word for s in enumerate_strips((1,), 2, size=2)}


def test_enumerate_ssot_counts():
    assert len(enumerate_ssot((), 1, 1)) == 2
    five = enumerate_ssot((), 2, 1)
    assert len(five) == 5
    texts = {str(t) for t in five}
    assert texts == {
        "()()",
        "(1 1b)()",
        "()(1 1b)",
        "(1 1b)(1 1b)",
        "(1)(1b)",
    }


def test_enumerate_ssot_weight_filter():
    t = running_example()
    found = enumerate_ssot((3, 1), 4, 3, weight=(2, 3, 3, 2))
    assert t in found
    for u in found:
        assert u.weight() == (2, 3, 3, 2)


@pytest.mark.parametrize(
    "inside, m, g, weight",
    [
        ((), 1, 1, None),
        ((), 2, 2, None),
        ((), 3, 1, None),
        ((), 3, 2, None),
        ((1,), 2, 2, None),
        ((2, 1), 3, 2, (1, 2, 1)),
        ((1, 1), 3, 2, (2, 0, 2)),
        ((), 4, 1, None),
        ((1,), 3, 2, (0, 2, 1)),
    ],
)
def test_any_outside_is_the_union_of_fixed_outsides(inside, m, g, weight):
    every = enumerate_ssot(None, m, g, inside=inside, weight=weight)
    total = 0
    for outside in partitions_in_box(len(inside) + m, g):
        fixed = enumerate_ssot(outside, m, g, inside=inside, weight=weight)
        assert [t for t in every if t.outside == outside] == fixed
        total += len(fixed)
    assert total == len(every) > 0


@pytest.mark.parametrize(
    "outside, inside, weight",
    [(None, (), None), ((2, 1), (), None), ((1, 1, 1), (), None), ((2,), (1,), (1, 2, 1))],
)
def test_enumerate_ssot_lists_strips_once_per_shape_and_size(
    monkeypatch, outside, inside, weight
):
    calls = []

    def counted(cur, max_cols, size=None):
        calls.append((cur, size))
        return enumerate_strips(cur, max_cols, size)

    monkeypatch.setattr(oscillating, "enumerate_strips", counted)
    enumerate_ssot(outside, 3, 2, inside=inside, weight=weight)
    assert calls and len(calls) == len(set(calls))


def test_enumerate_ssot_unreachable_outside_is_empty():
    # each strip adds a horizontal strip, so k strips from () reach k rows at most
    assert enumerate_ssot((1, 1, 1), 2, 2) == []
    assert enumerate_ssot((1,), 0, 2) == []
    assert enumerate_ssot((2,), 1, 1, inside=(1, 1)) == []


@pytest.mark.parametrize("m, g", [(-1, 2), (2, -1)])
@pytest.mark.parametrize("outside", [None, ()])
def test_enumerate_ssot_rejects_negative_parameters(outside, m, g):
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_ssot(outside, m, g)


def test_enumerate_ssot_eps_bound_contract():
    with pytest.raises(ValueError, match="eps_bound length"):
        enumerate_ssot((), 2, 2, eps_bound=(0,))
    with pytest.raises(ValueError, match="eps_bound length"):
        enumerate_ssot(None, 0, 2, eps_bound=(0,))
    # epsilon_0 is defined only on chains that start empty
    with pytest.raises(ValueError, match="index 0"):
        enumerate_ssot(None, 2, 2, inside=(1,), eps_bound=(0, None))
    skew = enumerate_ssot(None, 2, 2, inside=(1,))
    assert enumerate_ssot(None, 2, 2, inside=(1,), eps_bound=(None, None)) == skew
    assert enumerate_ssot(None, 0, 2, eps_bound=()) == [SSOT(())]


def test_enumerate_ssot_peak_bound():
    for t in enumerate_ssot((), 2, 2):
        assert t.num_cols <= 2
    # strips of size up to 2g occur: (1 1)(1b 1b) needs two columns
    texts = {str(t) for t in enumerate_ssot((), 2, 2)}
    assert "(1 1)(1b 1b)" in texts


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
