"""Text formats: .clt clutters, semi-matchings, DIMACS CNF, cover instances.

Every parser that refuses a text raises a ParseError naming its line.  A
plain DIMACS text is read in one pass over its tokens, and any other goes
to the line reader, which is the only code that accepts odd texts or
names a line.  parse_clutter and the one-pass read check every label and
literal as they read it, so they build their values through the unchecked
`Clutter._minimalized` and `CnfFormula._unchecked`.
"""
from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable, Iterator

from . import matching, reductions
from .core import Clutter, ONE
from .errors import ParseError

if TYPE_CHECKING:
    from fractions import Fraction


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text before any '#', stripped) for each non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ints(tokens: Iterable[str], lineno: int) -> list[int]:
    """The tokens as ints, or a ParseError on the line naming the first
    token that is not an integer."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"expected an integer, got {tok!r}", lineno)
    return values


def parse_clutter(text: str) -> Clutter:
    """Parse the .clt format.

    One edge per line as whitespace-separated non-negative integers; '#'
    starts a comment; blank lines are skipped.  An empty document is the
    edgeless clutter; a document whose only content is the directive
    '!one' is the clutter with the single empty edge.  Input is
    minimalized on load, with a warning when that removes anything.
    """
    edges: list[list[int]] = []
    one_line: int | None = None
    for lineno, line in _content_lines(text):
        if line == "!one":
            one_line = lineno
            continue
        edge = _ints(line.split(), lineno)
        if min(edge) < 0:
            raise ParseError(f"vertex labels must be non-negative, got {min(edge)}", lineno)
        if len(set(edge)) < len(edge):
            raise ParseError("duplicate vertex in edge", lineno)
        edges.append(edge)
    if one_line is not None:
        if edges:
            raise ParseError("'!one' cannot co-occur with edge lines", one_line)
        return ONE
    h = Clutter._minimalized(edges)
    if len(h) < len(edges):
        warnings.warn(
            f"{len(edges) - len(h)} subsumed or duplicate edge(s) removed on load"
        )
    return h


def serialize_clutter(h: Clutter) -> str:
    """Canonical .clt text; inverse of parse_clutter."""
    if h.is_one:
        return "!one\n"
    return "".join(" ".join(map(str, e)) + "\n" for e in h.edges)


def format_semi_matching(matching: matching.SemiMatching) -> str:
    """One-line form: pairs 'l1,l2:s1,s2,...' joined by ' ; ', '-' if empty."""
    if not matching.pairs:
        return "-"
    return " ; ".join(
        ",".join(map(str, l)) + ":" + ",".join(map(str, s)) for l, s in matching.pairs
    )


def parse_semi_matching(text: str) -> matching.SemiMatching:
    """Parse the one-line semi-matching form ('#' comments allowed)."""
    payload = None
    payload_line = 0
    for lineno, line in _content_lines(text):
        if payload is not None:
            raise ParseError("a matching document holds a single line", lineno)
        payload, payload_line = line, lineno
    if payload is None or payload == "-":
        return matching.SemiMatching()
    pairs = []
    for chunk in payload.split(";"):
        part = chunk.strip()
        if ":" not in part:
            raise ParseError(f"pair {part!r} is missing ':'", payload_line)
        l, s = (_ints([t for t in side.split(",") if t.strip()], payload_line)
                for side in part.split(":", 1))
        pairs.append((l, s))
    try:
        return matching.SemiMatching(pairs)
    except ValueError as exc:
        raise ParseError(str(exc), payload_line)


def parse_dimacs(text: str) -> reductions.CnfFormula:
    """Parse DIMACS CNF: 'c' comments, a single 'p cnf <vars> <clauses>'
    header, then 0-terminated clauses (possibly spanning lines).  A line
    reading '%' (the SATLIB terminator) ends the clauses.  The number of
    clauses read must equal the header's count.

    A plain text is read in one pass (`_dimacs_at_once`); any other goes to
    the line reader (`_dimacs_by_lines`), which is the only code that
    accepts odd texts or names the line of a fault."""
    formula = _dimacs_at_once(text)
    return formula if formula is not None else _dimacs_by_lines(text)


def _dimacs_at_once(text: str) -> reductions.CnfFormula | None:
    """The formula of a plain text, read in one pass; None for any other.

    A plain text's first line reads 'p cnf <n> <m>', with n >= 0 and single
    spaces.  The tokens after it are literals of -k..k spelled as str()
    spells them, where k is the smaller of n and the number of tokens, so
    that the work is bounded by the text whatever n the header declares.
    0s cut them into m clauses, none empty; the last clause may lack its 0.
    Anything else, a comment, '%', a second header or an odd spelling among
    them, gives None."""
    head, _, body = text.partition("\n")
    parts = head.split()
    # single spaces: a '\r' or '\f' between the fields would end a line
    if len(parts) != 4 or parts[:2] != ["p", "cnf"] or head.rstrip() != " ".join(parts):
        return None
    try:
        num_vars, num_clauses = int(parts[2]), int(parts[3])
    except ValueError:
        return None
    if num_vars < 0:
        return None
    tokens = body.split()
    k = min(num_vars, len(tokens))
    spelled = {str(i): i for i in range(-k, k + 1)}
    try:
        lits = list(map(spelled.__getitem__, tokens))
    except KeyError:
        return None
    if lits and lits[-1]:  # the last clause lacks its 0
        lits.append(0)
    clauses = []
    start = 0
    while start < len(lits):
        end = lits.index(0, start)
        if end == start:  # an empty clause
            return None
        clauses.append(tuple(lits[start:end]))
        start = end + 1
    if len(clauses) != num_clauses:
        return None
    return reductions.CnfFormula._unchecked(num_vars, tuple(clauses))


def _dimacs_by_lines(text: str) -> reductions.CnfFormula:
    """parse_dimacs, line by line: every text it accepts, and a ParseError
    that names the line for every text it refuses."""
    num_vars: int | None = None
    num_clauses = header_line = 0
    clauses: list[tuple[int, ...]] = []
    lits: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"second 'p cnf' header (first on line {header_line})", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("header must read 'p cnf <vars> <clauses>'", lineno)
            num_vars, num_clauses = _ints(parts[2:], lineno)
            if num_vars < 0:
                raise ParseError("variable count must be non-negative", lineno)
            header_line = lineno
            continue
        if num_vars is None:
            raise ParseError("clause before the 'p cnf' header", lineno)
        for lit in _ints(line.split(), lineno):
            if lit == 0:
                if not lits:
                    raise ParseError("empty clause", lineno)
                clauses.append(tuple(lits))
                lits = []
            elif abs(lit) > num_vars:
                raise ParseError(f"literal {lit} outside variables 1..{num_vars}", lineno)
            else:
                lits.append(lit)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header", 1)
    if lits:
        clauses.append(tuple(lits))
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header declares {num_clauses} clauses, found {len(clauses)}", header_line
        )
    return reductions.CnfFormula(num_vars, tuple(clauses))


def parse_setcover(text: str) -> reductions.SetCoverInstance:
    """Parse the cover format: first line 'n m', then m lines of
    '<weight> <size> <e1> ... <esize>' with distinct 1-based elements."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty cover instance", 1)
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("first line must read '<universe size> <set count>'", head_no)
    n, m = _ints(parts, head_no)
    if n < 0:
        raise ParseError("universe size must be non-negative", head_no)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} set lines, found {len(lines) - 1}", head_no)
    sets: list[frozenset[int]] = []
    weights: list[Fraction] = []
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) < 2:
            raise ParseError("set line must read '<weight> <size> <elements...>'", lineno)
        w = reductions._rational(toks[0], lineno)
        if w < 0:
            raise ParseError("weights must be non-negative", lineno)
        size, *elems = _ints(toks[1:], lineno)
        if len(elems) != size:
            raise ParseError(f"declared {size} elements, found {len(elems)}", lineno)
        if len(set(elems)) < size:
            raise ParseError("duplicate element in set", lineno)
        for u in elems:
            if not 1 <= u <= n:
                raise ParseError(f"element {u} outside universe 1..{n}", lineno)
        sets.append(frozenset(elems))
        weights.append(w)
    return reductions.SetCoverInstance(n, tuple(sets), tuple(weights))
