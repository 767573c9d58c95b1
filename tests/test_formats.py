import random
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from clutterkit import (
    Clutter,
    ONE,
    ParseError,
    SemiMatching,
    ZERO,
    format_semi_matching,
    parse_clutter,
    parse_dimacs,
    parse_semi_matching,
    parse_setcover,
    serialize_clutter,
)

from helpers import random_clutter_sample


class TestClutterFormat:
    def test_parse_basic(self):
        assert parse_clutter("1 2\n2 3\n") == Clutter([[1, 2], [2, 3]])

    def test_comment_only_is_zero(self):
        assert parse_clutter("# comment\n") == ZERO

    def test_one_directive(self):
        assert parse_clutter("!one\n") == ONE

    def test_serialize_canonical(self):
        assert serialize_clutter(Clutter([[2, 1], [3]])) == "3\n1 2\n"

    def test_serialize_bounds(self):
        assert serialize_clutter(ZERO) == ""
        assert serialize_clutter(ONE) == "!one\n"

    def test_wide_edge_parses_in_linear_time(self):
        n = 40_000
        start = time.perf_counter()
        h = parse_clutter(" ".join(map(str, range(n))) + "\n")
        assert time.perf_counter() - start < 0.5
        assert h.edges == (tuple(range(n)),)

    def test_subsumption_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = parse_clutter("1\n1 2\n")
        assert h == Clutter([[1]])
        assert any("removed on load" in str(w.message) for w in caught)

    def test_roundtrip_random(self):
        rng = random.Random(151)
        for _ in range(100):
            h = random_clutter_sample(rng)
            assert parse_clutter(serialize_clutter(h)) == h

    @given(st.lists(st.frozensets(st.integers(min_value=0, max_value=30),
                                  min_size=1, max_size=6), max_size=10))
    @settings(deadline=None)
    def test_roundtrip_hypothesis(self, fam):
        h = Clutter(fam)
        assert parse_clutter(serialize_clutter(h)) == h


class TestMatchingFormat:
    def test_roundtrip(self):
        m = SemiMatching([((1, 2), (1, 2, 3)), ((4, 5), (4, 5))])
        assert parse_semi_matching(format_semi_matching(m)) == m

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                              st.integers(min_value=0, max_value=10**6),
                              st.frozensets(st.integers(min_value=0, max_value=10**6),
                                            max_size=4)),
                    max_size=5, unique_by=(lambda p: p[0], lambda p: p[1])))
    @settings(deadline=None)
    def test_roundtrip_hypothesis(self, drawn):
        paired = {v for a, b, _ in drawn for v in (a, b)}
        pairs = [((a, b), {a, b} | extra) for a, b, extra in drawn]
        if len(paired) != 2 * len(pairs):
            with pytest.raises(ValueError):
                SemiMatching(pairs)
            return
        m = SemiMatching(pairs)
        text = format_semi_matching(m)
        assert parse_semi_matching(text) == m
        assert format_semi_matching(parse_semi_matching(text)) == text

    def test_empty(self):
        assert format_semi_matching(SemiMatching()) == "-"
        assert parse_semi_matching("-") == SemiMatching()
        assert parse_semi_matching("# nothing\n") == SemiMatching()


class TestDimacs:
    def test_basic(self):
        f = parse_dimacs("c comment\np cnf 2 2\n1 2 0\n-1 -2 0\n")
        assert f.num_vars == 2
        assert f.clauses == ((1, 2), (-1, -2))

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_satlib_terminator_ends_the_clauses(self):
        f = parse_dimacs("p cnf 3 1\n1 -2 0\n%\n0\n")
        assert f.clauses == ((1, -2),)


class TestSetCoverFormat:
    def test_basic(self):
        inst = parse_setcover("3 3\n1 2 1 2\n1 2 2 3\n10 2 1 3\n")
        assert inst.universe_size == 3
        assert inst.sets == (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
        assert inst.weights[2] == 10

    def test_fractional_weight(self):
        inst = parse_setcover("1 1\n1/3 1 1\n")
        from fractions import Fraction

        assert inst.weights == (Fraction(1, 3),)

    def test_exponent_is_bounded(self):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_setcover("1 1\n1e4000000 1 1\n")
        assert time.perf_counter() - start < 0.1
        assert err.value.line == 2
        from fractions import Fraction

        assert parse_setcover("1 1\n1e4300 1 1\n").weights == (10**4300,)
        assert parse_setcover("1 1\n1e-4300 1 1\n").weights == (Fraction(1, 10**4300),)


@pytest.mark.parametrize("parse, text, line", [
    (parse_clutter, "0 1\n2 -1\n", 2),
    (parse_clutter, "0 1\n# note\n2 3 2\n", 3),
    (parse_clutter, "!one\n1 2\n", 1),
    (parse_clutter, "1 2\nx y\n", 2),
    (parse_clutter, "1 1 2\n", 1),
    (parse_semi_matching, "# one pair\n1,x:1,2,3\n", 2),
    (parse_semi_matching, "1,2:1,2\n# second\n3,4:3,4\n", 3),
    (parse_semi_matching, "1,2,3:1,2,3", 1),
    (parse_semi_matching, "1,2 1,2,3", 1),
    # a negative label is refused as parse_clutter refuses it, so every
    # parsed matching formats back to text that parses
    (parse_semi_matching, "# one pair\n-1,2:-1,2,3\n", 2),
    (parse_semi_matching, "1,2:1,2,-3", 1),
    (parse_dimacs, "", 1),
    (parse_dimacs, "c shape\np cnf 2\n1 0\n", 2),
    (parse_dimacs, "p cnf two 1\n1 0\n", 1),
    (parse_dimacs, "p cnf 2 2\n1 0\n0\n", 3),
    (parse_dimacs, "1 2 0\n", 1),
    (parse_dimacs, "p cnf 2 1\n1 x 0\n", 2),
    (parse_dimacs, "p cnf 2 1\n5 0\n", 2),
    (parse_dimacs, "p cnf 2 2\n1 2 0\nc note\n1\n-3 0\n", 5),
    (parse_dimacs, "c header next\np cnf -1 0\n", 2),
    (parse_dimacs, "c two\np cnf 3 2\n1 -2 0\n", 2),
    (parse_dimacs, "c two\np cnf 3 2\n1 0\n2 0\n3 0\n", 2),
    (parse_dimacs, "c two\np cnf 3 5\n1 -2 0\n%\n0\n", 2),
    (parse_dimacs, "p cnf 1 1\n1 0\np cnf 3 2\n3 0\n", 3),
    (parse_dimacs, "c one\np cnf 2 1\np cnf 2 1\n1 2 0\n", 3),
    (parse_setcover, "2 1\n1 2 1\n", 2),
    (parse_setcover, "2 2\n1 1 1\n", 1),
    (parse_setcover, "3 2\n1 1 1\n1 2 2 9\n", 3),
    (parse_setcover, "2 2\n1 1 1\n-1 1 2\n", 3),
    (parse_setcover, "# nothing here\n", 1),
    (parse_setcover, "# head\n2 x\n1 1 1\n", 2),
    (parse_setcover, "-1 0\n", 1),
    (parse_setcover, "2 2\n1 1 1\n1\n", 3),
    (parse_setcover, "2 1\nabc 1 1\n", 2),
    (parse_setcover, "2 1\n1/0 1 1\n", 2),
    (parse_setcover, "2 1\n1 2 1 y\n", 2),
    (parse_setcover, "2 2\n1 2 1 1\n1 1 2\n", 2),  # an element twice in one set
])
def test_rejection_names_its_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


def test_final_clause_without_its_zero_is_accepted():
    assert parse_dimacs("p cnf 2 2\n1 0\n-1 2\n").clauses == ((1,), (-1, 2))
