"""One tokenizer and one SELECT IR for every reader of SQL text.

The tSQL preprocessor, the planner's shape matcher, ``EXPLAIN
TEMPORAL``'s layered classifier and the server pool's read/write router
all read statements here, so quoting, comments and parenthesis depth
are handled in one place.  :func:`tokens` lexes lazily in one pass,
keeping source offsets; input it cannot lex (an unterminated quote, a
stray character) raises :class:`~repro.errors.TranslationError`.
:func:`parse` turns one ``[modifier] SELECT ... FROM ...`` statement
into a :class:`Select`.  Expressions are :class:`Column`,
:class:`Literal`, :class:`Placeholder`, :class:`Call`,
:class:`Comparison`, or :class:`Raw` for everything else (OR, CASE,
arithmetic, subqueries).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import TranslationError

__all__ = [
    "Token", "tokens", "words", "statement_mode", "parse", "Select",
    "SelectItem", "FromItem", "Clause", "Column", "Literal", "Placeholder",
    "Call", "Comparison", "Raw",
]

#: One pass: leading whitespace, then one token (commonest kinds first).
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<name>[^\W\d]\w*)
    | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<punct>[(),.;])
    | (?P<string>'[^']*(?:''[^']*)*')
    | (?P<comment>--[^\n]*|/\*.*?(?:\*/|\Z))
    | (?P<op>\|\||<=|>=|<>|!=|==|<<|>>|[-+*/%<>=&|~])
    | (?P<quoted>"[^"]*(?:""[^"]*)*"|\[[^\]]*\]|`[^`]*(?:``[^`]*)*`)
    | (?P<param>\?\d*|[:@$][^\W\d]\w*)
    | (?P<error>\S))""",
    re.VERBOSE | re.DOTALL,
)

_COMPARISONS = frozenset({"=", "==", "!=", "<>", "<", ">", "<=", ">="})
#: Words that are never a column or a function name in expression position.
_KEYWORDS = frozenset("""ALL AND AS BETWEEN CASE CURRENT_DATE CURRENT_TIME
    CURRENT_TIMESTAMP DISTINCT ELSE END EXISTS FALSE FROM IN IS LIKE NOT NULL ON
    OR SELECT THEN TRUE VALUES WHEN WHERE""".split())
#: Clause keywords after FROM (GROUP and ORDER only when BY follows).
_CLAUSE_WORDS = {"WHERE": "where", "GROUP": "group_by", "HAVING": "having",
                 "ORDER": "order_by", "LIMIT": "limit"}


class Token(NamedTuple):
    """One lexeme: its kind, its source text and span, and its key
    (upper-cased for names, the text itself otherwise)."""

    kind: str
    text: str
    start: int
    end: int
    key: str


def tokens(text: str) -> Iterator[Token]:
    """The tokens of *text* in order, comments included, whitespace not.

    Lazy: a caller that stops early never lexes the rest.
    """
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        start, end = match.span(kind)
        if kind == "error":
            raise TranslationError(
                f"cannot tokenize {text[start:start + 20]!r} at offset {start}",
                clause=text[start:], offset=start,
            )
        value = text[start:end]
        yield Token(kind, value, start, end, value.upper() if kind == "name" else value)


def words(text: str) -> Iterator[str]:
    """The upper-cased name tokens of *text*, lazily (comments skipped)."""
    return (token.key for token in tokens(text) if token.kind == "name")


# -- expressions --------------------------------------------------------


@dataclass(frozen=True)
class Column:
    table: str    # the qualifier, "" for a bare column
    name: str


@dataclass(frozen=True)
class Literal:
    value: object  # int, float or (unescaped) str


@dataclass(frozen=True)
class Placeholder:
    text: str


@dataclass(frozen=True)
class Call:
    name: str                  # lower-cased
    args: Tuple["Expr", ...]

    def string_arg(self) -> Optional[str]:
        """The value of a sole string-literal argument, else None."""
        arg = self.args[0] if len(self.args) == 1 else None
        return arg.value if isinstance(arg, Literal) and isinstance(arg.value, str) else None


@dataclass(frozen=True)
class Comparison:
    left: "Expr"
    op: str                    # as written: =, ==, !=, <>, <, >, <=, >=
    right: "Expr"


@dataclass(frozen=True)
class Raw:
    """Any other expression, verbatim and opaque."""

    text: str


Expr = Union[Column, Literal, Placeholder, Call, Comparison, Raw]


def _calls(expr: Expr) -> Iterator[Call]:
    """Every call inside *expr*, outermost first, in source order."""
    if isinstance(expr, Call):
        yield expr
        for arg in expr.args:
            yield from _calls(arg)
    elif isinstance(expr, Comparison):
        yield from _calls(expr.left)
        yield from _calls(expr.right)


# -- the statement ------------------------------------------------------


class Clause(NamedTuple):
    """Source offsets of one clause: its keyword, its body, its end."""

    start: int
    body: int
    end: int


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    name: Optional[str]        # the ``AS`` name, if any
    text: str                  # the expression's source text


@dataclass(frozen=True)
class FromItem:
    table: str
    alias: str                 # the table name when no alias is given
    offset: int


@dataclass(frozen=True)
class Select:
    """One parsed ``[modifier] SELECT`` statement."""

    text: str
    modifier: str              # "", "SNAPSHOT", "VALIDTIME" or "NONSEQUENCED"
    argument: Optional[str]    # the AT / PERIOD literal body as written
    distinct: bool
    items: Tuple[SelectItem, ...]
    from_items: Tuple[FromItem, ...]
    where: Tuple[Expr, ...]    # top-level AND conjuncts
    group_by: Tuple[Expr, ...]
    tail: str                  # HAVING / ORDER BY / LIMIT onwards, verbatim
    params: int                # placeholder tokens
    clauses: Dict[str, Clause]  # "select", "from", "where", "group_by", ...

    def body(self, clause: str) -> str:
        """The source text of *clause*'s body, or "" when absent."""
        span = self.clauses.get(clause)
        return self.text[span.body:span.end] if span else ""

    def calls(self) -> Iterator[Call]:
        """Every call in the select items, WHERE and GROUP BY (not
        inside :class:`Raw` expressions), outermost first."""
        for expr in [item.expr for item in self.items] + list(self.where + self.group_by):
            yield from _calls(expr)


def statement_mode(text: str) -> Optional[Tuple[str, Optional[str], int]]:
    """``(modifier, argument, offset of SELECT)`` when *text* opens with
    a TSQL2 statement modifier followed by SELECT, else None.

    Reads only the head of the statement; input that does not lex
    there is not a modified statement.
    """
    try:
        head = list(islice((t for t in tokens(text) if t.kind != "comment"), 4))
    except TranslationError:
        return None
    found = _modifier(head)
    return found and (found[0], found[1], head[found[2]].start)


def _modifier(head: Sequence[Token]) -> Optional[Tuple[str, Optional[str], int]]:
    """``(modifier, argument, index of SELECT)`` for the first tokens."""
    keys = [token.key for token in head]
    if keys[:3] == ["NONSEQUENCED", "VALIDTIME", "SELECT"]:
        return "NONSEQUENCED", None, 2
    if keys[:2] in (["VALIDTIME", "SELECT"], ["SNAPSHOT", "SELECT"]):
        return keys[0], None, 1
    if (keys[:2] in (["VALIDTIME", "PERIOD"], ["SNAPSHOT", "AT"]) and keys[3:] == ["SELECT"]
            and head[2].kind == "string"):
        return keys[0], head[2].text[1:-1], 3
    return None


def parse(text: str) -> Select:
    """Parse one ``[modifier] SELECT ... FROM ...`` statement.

    Raises :class:`TranslationError` for input that does not lex, does
    not start with SELECT, has no FROM clause, has unbalanced
    parentheses, or has a FROM item other than ``table [[AS] alias]``
    (parenthesized groups of such items are flattened).
    """
    return _Parser(text).select()


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        toks = [token for token in tokens(text) if token.kind != "comment"]
        while toks and toks[-1].text == ";":
            toks.pop()
        self.toks = toks
        self.close: Dict[int, int] = {}  # "(" index -> its ")" index
        stack: List[int] = []
        for index, token in enumerate(toks):
            if token.text == "(":
                stack.append(index)
            elif token.text == ")":
                if not stack:
                    stack.append(index)  # an unopened ")": reported below
                    break
                self.close[stack.pop()] = index
        if stack:
            start = toks[stack[-1]].start
            raise TranslationError(f"unbalanced parenthesis at offset {start}",
                                   clause=text[start:], offset=start)

    def source(self, lo: int, hi: int) -> str:
        return self.text[self.toks[lo].start:self.toks[hi - 1].end] if lo < hi else ""

    def top(self, lo: int, hi: int) -> List[int]:
        """Indices of the depth-0 tokens in ``[lo, hi)``."""
        indices, close = [], self.close
        while lo < hi:
            indices.append(lo)
            lo = close.get(lo, lo) + 1
        return indices

    def split(self, lo: int, hi: int, separator: str) -> List[Tuple[int, int]]:
        """Token ranges between depth-0 *separator* tokens (``,`` or
        ``AND``); neither the AND of a BETWEEN nor anything inside
        CASE ... END separates."""
        parts, start, between, cases = [], lo, False, 0
        for index in self.top(lo, hi):
            key = self.toks[index].key
            if key == "BETWEEN":
                between = True
            elif key == "CASE":
                cases += 1
            elif key == "END" and cases:
                cases -= 1
            elif key == separator and not cases:
                if separator == "AND" and between:
                    between = False
                else:
                    parts.append((start, index))
                    start = index + 1
        parts.append((start, hi))
        return parts

    def unwrap(self, lo: int, hi: int) -> Tuple[int, int]:
        """The range without parentheses enclosing all of it."""
        while hi - lo >= 2 and self.toks[lo].text == "(" and self.close[lo] == hi - 1:
            lo, hi = lo + 1, hi - 1
        return lo, hi

    # -- statement ------------------------------------------------------

    def select(self) -> Select:
        toks = self.toks
        modifier, argument, position = _modifier(toks[:4]) or ("", None, 0)
        if position >= len(toks) or toks[position].key != "SELECT":
            raise TranslationError("statement must start with SELECT")
        keywords = {"select": (position, position + 1)}
        for index in self.top(position + 1, len(toks)):
            key = toks[index].key
            clause = "from" if key == "FROM" else (
                "from" in keywords and _CLAUSE_WORDS.get(key))
            width = 2 if key in ("GROUP", "ORDER") else 1
            if width == 2 and [t.key for t in toks[index + 1:index + 2]] != ["BY"]:
                clause = None
            if clause and clause not in keywords:
                keywords[clause] = (index, index + width)
        if "from" not in keywords:
            raise TranslationError("statement has no FROM clause")

        ordered = list(keywords.items())  # source order: found left to right
        ranges: Dict[str, Tuple[int, int]] = {}
        clauses: Dict[str, Clause] = {}
        for number, (name, (at, body)) in enumerate(ordered):
            end = ordered[number + 1][1][0] if number + 1 < len(ordered) else len(toks)
            ranges[name] = (body, end)
            clauses[name] = Clause(
                toks[at].start,
                toks[body].start if body < end else toks[body - 1].end,
                toks[end - 1].end,
            )

        lo, hi = ranges["select"]
        distinct = lo < hi and toks[lo].key == "DISTINCT"
        if lo < hi and toks[lo].key in ("DISTINCT", "ALL"):
            lo += 1
        items = tuple(self.item(a, b) for a, b in self.split(lo, hi, ","))
        from_items: List[FromItem] = []
        self.from_items(*ranges["from"], from_items)
        where = tuple(self.conjuncts(*ranges["where"])) if "where" in ranges else ()
        group_by = tuple(
            self.expr(a, b) for a, b in self.split(*ranges["group_by"], ",")
        ) if "group_by" in ranges else ()
        tail = [clauses[name] for name in ("having", "order_by", "limit") if name in clauses]
        return Select(
            text=self.text, modifier=modifier, argument=argument,
            distinct=distinct, items=items, from_items=tuple(from_items),
            where=where, group_by=group_by,
            tail=self.text[tail[0].start:tail[-1].end] if tail else "",
            params=[token.kind for token in toks].count("param"),
            clauses=clauses,
        )

    def item(self, lo: int, hi: int) -> SelectItem:
        name = None
        if hi - lo >= 3 and self.toks[hi - 2].key == "AS" and self.toks[hi - 1].kind == "name":
            name, hi = self.toks[hi - 1].text, hi - 2
        return SelectItem(self.expr(lo, hi), name, self.source(lo, hi))

    def from_items(self, lo: int, hi: int, out: List[FromItem]) -> None:
        for a, b in self.split(lo, hi, ","):
            if a == b:
                continue
            part = self.toks[a:b]
            if part[0].text == "(" and self.close[a] == b - 1:
                self.from_items(a + 1, b - 1, out)
                continue
            named = part[::2] if len(part) == 3 and part[1].key == "AS" else part
            if len(named) > 2 or any(token.kind != "name" for token in named):
                clause, offset = self.source(a, b), part[0].start
                raise TranslationError(
                    f"unsupported FROM item {clause!r} at offset {offset} "
                    "(plain 'table [AS] alias' items, optionally parenthesized)",
                    clause=clause, offset=offset,
                )
            out.append(FromItem(named[0].text, named[-1].text, named[0].start))

    def conjuncts(self, lo: int, hi: int) -> Iterator[Expr]:
        parts = self.split(lo, hi, "AND")
        if len(parts) > 1:
            for a, b in parts:
                yield from self.conjuncts(a, b)
            return
        inner = self.unwrap(lo, hi)
        if inner != (lo, hi):
            yield from self.conjuncts(*inner)
        elif lo < hi:
            yield self.expr(lo, hi)

    # -- expressions ----------------------------------------------------

    def expr(self, lo: int, hi: int) -> Expr:
        """A primary, a comparison of two primaries, or :class:`Raw`."""
        primary = self.primary(lo, hi)
        if primary is not None:
            return primary
        lo, hi = self.unwrap(lo, hi)
        operators = [i for i in self.top(lo, hi) if self.toks[i].key in _COMPARISONS]
        if len(operators) == 1:
            at = operators[0]
            left, right = self.primary(lo, at), self.primary(at + 1, hi)
            if left is not None and right is not None:
                return Comparison(left, self.toks[at].text, right)
        return Raw(self.source(lo, hi))

    def primary(self, lo: int, hi: int) -> Optional[Expr]:
        """A column, literal, placeholder or call spanning the range."""
        lo, hi = self.unwrap(lo, hi)
        toks, size = self.toks, hi - lo
        first = toks[lo] if size else None
        if size == 1:
            if first.kind == "name" and first.key not in _KEYWORDS:
                return Column("", first.text)
            if first.kind == "string":
                return Literal(first.text[1:-1].replace("''", "'"))
            if first.kind == "number":
                return Literal(_number(first.text))
            if first.kind == "param":
                return Placeholder(first.text)
        elif size == 2 and first.text in ("+", "-") and toks[hi - 1].kind == "number":
            value = _number(toks[hi - 1].text)
            return Literal(-value if first.text == "-" else value)
        elif (size == 3 and first.kind == toks[hi - 1].kind == "name"
              and toks[lo + 1].text == "."):
            return Column(first.text, toks[hi - 1].text)
        elif (size >= 3 and first.kind == "name" and first.key not in _KEYWORDS
              and self.close.get(lo + 1) == hi - 1):
            args = self.split(lo + 2, hi - 1, ",") if size > 3 else ()
            return Call(first.text.lower(), tuple(self.expr(a, b) for a, b in args))
        return None


def _number(text: str) -> Union[int, float]:
    return int(text) if text.isdigit() else float(text)
