"""The textual DSL for sets, sequences, term rules and index transforms.

Grammar (LL(1), ASCII):

    set       := 'finite' '{' ints? '}' | 'ap' '(' int ',' int ')'
               | 'tail' '(' int ')' | 'isch' '(' gen (',' selector)? ')'
               | 'union' '(' set ',' set ')' | 'inter' '(' set ',' set ')'
               | 'compl' '(' set ')'
    selector  := 'all' | 'even' | '{' ints? '}' | set
    seq       := base ('@' transform)*
    base      := 'alt' '(' num ',' num ')' | 'inv' | 'const' '(' num ')'
               | 'seq' '(' '[' nums? ']' ',' rule ')' | 'ratenum'
               | 'ratenum-signed' | 'piecewise' '(' set ',' rule ',' rule ')'
    rule      := 'n' | 'inv' | 'altsign' | num
    transform := 'set' '(' set ')' | 'stem' '[' ints? ']'
               | 'perm-stem' '[' ints? ']'

``isch(g)`` takes every block of generator g; ``inv`` is ``seq([],inv)``,
``const(c)`` is ``seq([],c)`` and ``x@t`` is x read through transform t.
Numbers are integers, decimals (parsed exactly) or fractions 'p/q', and
print as ``str(Fraction(v))``.  Constructors nest at most ``MAX_DEPTH``
deep, each ``@`` counting as one more level, so every parsed object can
be classified, evaluated and printed without exhausting the stack.

Each constructor is one row of ``_TABLES``: keyword, class, pinned fields
and (field, kind) arguments in field order.  ``dump`` prints by the first
row of the object's class that fits and the parsers build from the same
rows, so ``parse(dump(x)) == x`` for every set, sequence, rule and transform.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple

from . import seqspace as sq
from . import setexpr as sx
from .errors import DslParseError

MAX_DEPTH = 200

_TOKEN = re.compile(
    r"(?P<num>-?\d+(?:\.\d+)?(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_-]*)"
    r"|(?P<sym>[(){}\[\],@])|(?P<bad>\S)"
)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.lastgroup, m.group(), m.start())
                       for m in _TOKEN.finditer(text)]
        self.i = 0
        self.depth = 0  # constructors open around the next token
        for kind, _, at in self.tokens:
            if kind == "bad":
                self._fail("unexpected character", at)

    def _fail(self, msg: str, at: int):
        line = self.text.count("\n", 0, at) + 1
        col = at - (self.text.rfind("\n", 0, at) + 1) + 1
        raise DslParseError(msg, line, col)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == value

    def next(self, kind: str | None = None, value: str | None = None):
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of input", len(self.text))
        if kind and tok[0] != kind:
            self._fail(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value and tok[1] != value:
            self._fail(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def enter(self) -> None:
        """Open one more nesting level; fail past ``MAX_DEPTH``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            tok = self.peek()
            self._fail(f"nesting deeper than {MAX_DEPTH}",
                       len(self.text) if tok is None else tok[2])

    def done(self):
        tok = self.peek()
        if tok is not None:
            self._fail(f"trailing input {tok[1]!r}", tok[2])


def _read_num(lx: _Lexer, whole: bool = False) -> int | Fraction:
    _, text, at = lx.next("num")
    if text.lstrip("-").isdigit():
        return int(text)
    if whole:
        lx._fail(f"expected an integer, found {text!r}", at)
    return Fraction(text)


_read_int = partial(_read_num, whole=True)


def _items(lx: _Lexer, brackets: str, read_item) -> tuple:
    lx.next("sym", brackets[0])
    vals = []
    while not lx.at(brackets[1]):
        if vals:
            lx.next("sym", ",")
        vals.append(read_item(lx))
    lx.next()
    return tuple(vals)


def _list(brackets: str, read_item, write_item) -> _Kind:
    return _Kind(
        lambda lx: _items(lx, brackets, read_item),
        lambda vals: brackets[0] + ",".join(map(write_item, vals)) + brackets[1],
    )


def _num_text(v) -> str:
    return str(Fraction(v))


def _read_selector(lx: _Lexer) -> sx.SetExpr:
    if lx.at("{"):
        return sx.Finite(_KINDS["ints{}"].read(lx))
    for word, sel in (("all", sx.Tail(1)), ("even", sx.EVENS)):
        if lx.at(word):
            lx.next()
            return sel
    return _read(lx, "set")


def _write_selector(sel: sx.SetExpr) -> str:
    if isinstance(sel, sx.Finite):
        return _KINDS["ints{}"].write(sel.values)
    return "even" if sel == sx.EVENS else dump(sel)


class _Kind(NamedTuple):
    """An argument kind; ``write`` gives None for a value it cannot carry,
    and a last argument printed as ``default`` is left out."""

    read: Callable[[_Lexer], Any]
    write: Callable[[Any], str | None]
    default: Any = None


def _nested(table: str) -> _Kind:
    return _Kind(lambda lx: _read(lx, table), lambda v: dump(v))


_KINDS: dict[str, _Kind] = {
    "int": _Kind(_read_int, str),
    "num": _Kind(_read_num, _num_text),
    "ints{}": _list("{}", _read_int, str),
    "ints[]": _list("[]", _read_int, str),
    "nums[]": _list("[]", _read_num, _num_text),
    "set": _nested("set"),
    "rule": _nested("rule"),
    "seq": _nested("seq"),
    "transform": _nested("transform"),
    "gen": _Kind(lambda lx: sx.generator(lx.next("name")[1]), lambda g: g.name),
    "selector": _Kind(_read_selector, _write_selector, default=sx.Tail(1)),
    # A constant rule, written as its bare number.
    "const": _Kind(
        lambda lx: sq.TermRule("const", _read_num(lx)),
        lambda r: _num_text(r.value) if r.kind == "const" else None,
    ),
}


class _Row(NamedTuple):
    """One constructor; ``word`` is "" for a bare argument, "@" for infix."""

    word: str
    cls: type
    args: tuple[tuple[str, str], ...] = ()
    fixed: dict[str, Any] = {}


_TABLES: dict[str, tuple[_Row, ...]] = {
    "set": (
        _Row("finite", sx.Finite, (("values", "ints{}"),)),
        _Row("ap", sx.ArithProg, (("first", "int"), ("step", "int"))),
        _Row("tail", sx.Tail, (("start", "int"),)),
        _Row("isch", sx.IntervalSchedule, (("gen", "gen"), ("selector", "selector"))),
        _Row("union", sx.Union, (("left", "set"), ("right", "set"))),
        _Row("inter", sx.Inter, (("left", "set"), ("right", "set"))),
        _Row("compl", sx.Compl, (("inner", "set"),)),
    ),
    "rule": (
        _Row("n", sq.TermRule, fixed={"kind": "ident"}),
        _Row("inv", sq.TermRule, fixed={"kind": "inv"}),
        _Row("altsign", sq.TermRule, fixed={"kind": "altsign"}),
        _Row("", sq.TermRule, (("value", "num"),), {"kind": "const"}),
    ),
    "seq": (
        _Row("alt", sq.AlternatingPair, (("v0", "num"), ("v1", "num"))),
        _Row("inv", sq.ExplicitTail, fixed={"prefix": (), "tail": sq.RULE_INV}),
        _Row("const", sq.ExplicitTail, (("tail", "const"),), {"prefix": ()}),
        _Row("seq", sq.ExplicitTail, (("prefix", "nums[]"), ("tail", "rule"))),
        _Row("ratenum", sq.RationalEnum),
        _Row("ratenum-signed", sq.SignedRationalEnum),
        _Row("piecewise", sq.PiecewiseOnSet,
             (("on_set", "set"), ("on_rule", "rule"), ("off_rule", "rule"))),
        _Row("@", sq.Transformed, (("inner", "seq"), ("transform", "transform"))),
    ),
    "transform": (
        _Row("set", sq.Subseq, (("tail_set", "set"),), {"stem": (), "tail": "set"}),
        _Row("stem", sq.Subseq, (("stem", "ints[]"),),
             {"tail": "shift", "tail_set": None}),
        _Row("perm-stem", sq.Perm, (("stem", "ints[]"),)),
    ),
}
_BY_WORD = {name: {row.word: row for row in rows} for name, rows in _TABLES.items()}
_BY_CLASS: dict[type, list[_Row]] = {}
for _row in (row for rows in _TABLES.values() for row in rows):
    _BY_CLASS.setdefault(_row.cls, []).append(_row)


def _bracketed(row: _Row) -> bool:
    """A lone list argument follows the keyword directly: ``stem[1,2]``."""
    return len(row.args) == 1 and row.args[0][1].endswith(("{}", "[]"))


def dump(obj) -> str:
    """The DSL text of a set, sequence, rule or transform."""
    for row in _BY_CLASS.get(type(obj), ()):
        if any(getattr(obj, f) != v for f, v in row.fixed.items()):
            continue
        kinds = [_KINDS[k] for _, k in row.args]
        parts = [kind.write(getattr(obj, f)) for kind, (f, _) in zip(kinds, row.args)]
        if None in parts:
            continue
        last = kinds[-1] if kinds else None
        if last and last.default is not None and parts[-1] == last.write(last.default):
            parts.pop()
        if row.word == "@":
            return "@".join(parts)
        if not parts or row.word == "" or _bracketed(row):
            return row.word + "".join(parts)
        return f"{row.word}({','.join(parts)})"
    raise TypeError(f"no DSL form for {obj!r}")


def _read_row(lx: _Lexer, row: _Row) -> Any:
    """Read the arguments that follow the row's keyword and build its object."""
    kinds = [_KINDS[k] for _, k in row.args]
    if not kinds or row.word == "" or _bracketed(row):
        vals = [kind.read(lx) for kind in kinds]
    else:
        lx.next("sym", "(")
        vals = [kinds[0].read(lx)]
        for kind in kinds[1:]:
            if kind.default is not None and lx.at(")"):
                vals.append(kind.default)
            else:
                lx.next("sym", ",")
                vals.append(kind.read(lx))
        lx.next("sym", ")")
    return row.cls(**row.fixed, **{f: v for (f, _), v in zip(row.args, vals)})


def _read(lx: _Lexer, table: str) -> Any:
    depth = lx.depth
    lx.enter()
    rows = _BY_WORD[table]
    tok = lx.peek()
    if tok and tok[0] == "num" and "" in rows:
        row = rows[""]
    else:
        _, word, at = lx.next("name")
        if word not in rows:
            lx._fail(f"unknown {table} {word!r}", at)
        row = rows[word]
    obj = _read_row(lx, row)
    infix = rows.get("@")
    while infix and lx.at("@"):
        lx.next()
        lx.enter()
        obj = infix.cls(obj, _KINDS[infix.args[1][1]].read(lx))
    lx.depth = depth
    return obj


def _parse(text: str, table: str) -> Any:
    lx = _Lexer(text)
    out = _read(lx, table)
    lx.done()
    return out


def parse_set(text: str) -> sx.SetExpr:
    return _parse(text, "set")


def parse_seq(text: str) -> sq.SeqDescriptor:
    return _parse(text, "seq")


def parse_transform(text: str) -> sq.Subseq | sq.Perm:
    return _parse(text, "transform")
