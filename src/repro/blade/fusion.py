"""Fused routine trees: one SQL function call per nested TIP expression.

SQLite calls a user-defined function once per call site per row, and
hands each result on as a storage class.  For a nested expression such
as paper Q1's ``tlt(tsub(start(valid), patientdob), tmul(span('7'), k))``
that means four Python callbacks per row, and every inner TIP result is
encoded to a blob only to be decoded again by the call around it.

:func:`fused_sql` rewrites each maximal tree of scalar TIP routine calls
whose nested calls reference a column into one call of the variadic
``tip_eval`` routine (registered by
:func:`repro.blade.sqlite_backend.install_blade`)::

    tip_eval('tlt(tsub(start(?),?),?)', valid, patientdob, tmul(span('7'), k))

The first argument is the tree's *template*: routine names, with ``?``
for each leaf in source order.  Every other argument stays a leaf,
verbatim: columns, literals, parameters, constant routine subtrees
(which SQLite then evaluates once per statement when the routines are
deterministic), aggregates, CASE expressions and subqueries; leaves are
themselves rewritten.  A result column that a rewrite changed keeps
its SQLite name through an ``AS`` alias of its original text.

Only statements that start with ``SELECT``, ``WITH``, ``INSERT``,
``UPDATE``, ``DELETE`` or ``VALUES`` are rewritten, each once per
distinct text (a bounded cache); text the tokenizer rejects runs as
written.  :func:`executed_sql` is the one entry point: it runs the
statement as written while a fault plan is armed, as the marshalling
and statement caches do, so seeded chaos runs see the unfused calls.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.errors import TipError, TranslationError
from repro.faults import state as _FAULTS

__all__ = ["EVAL_ROUTINE", "executed_sql", "fused_sql", "parse_template"]

#: The variadic routine that evaluates one fused tree per row.
EVAL_ROUTINE = "tip_eval"
#: Rewritten statements kept per process.
CACHE_SIZE = 1024

_STATEMENT_KEYS = frozenset({"SELECT", "WITH", "INSERT", "UPDATE", "DELETE", "VALUES"})
#: Names that are never a column reference in expression position.
_NOT_COLUMNS = frozenset("""ALL AND AS ASC BETWEEN BLOB CASE CAST COLLATE
    CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP DESC DISTINCT ELSE END ESCAPE
    EXISTS FALSE FROM GLOB IN INTEGER IS ISNULL LIKE MATCH NOT NOTNULL NULL
    NUMERIC OR REAL REGEXP SELECT TEXT THEN TRUE WHEN WHERE""".split())
#: Keywords that end a result-column list at its own depth.
_LIST_ENDS = frozenset("""FROM WHERE GROUP HAVING ORDER LIMIT WINDOW UNION
    INTERSECT EXCEPT RETURNING""".split())
#: Keywords that can end an expression (so a name after one is an alias).
_EXPRESSION_ENDS = frozenset("""END NULL TRUE FALSE CURRENT_DATE CURRENT_TIME
    CURRENT_TIMESTAMP""".split())

Leaf = Tuple[int, int]            # a token range [lo, hi)


class _Call:
    """One routine call in the token list: its name, the index of its
    name token and one past its ``)``, and its arguments."""

    __slots__ = ("name", "lo", "hi", "args", "columns")

    def __init__(self, name: str, lo: int, hi: int, args: List[Union["_Call", Leaf]],
                 columns: bool) -> None:
        self.name = name
        self.lo = lo
        self.hi = hi
        self.args = args
        self.columns = columns   # does any leaf below reference a column?


@lru_cache(maxsize=None)
def _routine_keys() -> Tuple[FrozenSet[Tuple[str, int]], FrozenSet[str]]:
    """The TIP routines as ``(name, arity)`` keys, and the names whose
    every arity is deterministic."""
    from repro.blade.sqlite_backend import tip_blade  # lazy: circular import

    routines = tip_blade().routines
    varying = {name for (name, _), routine in routines.items() if not routine.deterministic}
    return frozenset(routines), frozenset(name for name, _ in routines) - varying


class _Rewriter:
    """One statement's tokens, paren matches and result-column lists."""

    def __init__(self, sql: str, toks) -> None:
        self.sql = sql
        self.toks = toks
        self.routines, self.deterministic = _routine_keys()
        self.match: Dict[int, int] = {}
        self.depth: List[int] = []
        stack: List[int] = []
        for index, tok in enumerate(toks):
            if tok.text == "(":
                self.depth.append(len(stack))
                stack.append(index)
            elif tok.text == ")":
                if not stack:
                    raise ValueError("unbalanced")
                self.match[stack.pop()] = index
                self.depth.append(len(stack))
            else:
                self.depth.append(len(stack))
        if stack:
            raise ValueError("unbalanced")
        self.items = self._result_columns()

    # -- structure ------------------------------------------------------

    def _result_columns(self) -> Dict[int, int]:
        """Start -> end token index of every result column without an
        alias, in every SELECT list and RETURNING clause."""
        toks, depth, items = self.toks, self.depth, {}
        for index, tok in enumerate(toks):
            if tok.key not in ("SELECT", "RETURNING"):
                continue
            level = depth[index]
            start = index + 1
            if start < len(toks) and toks[start].key in ("DISTINCT", "ALL"):
                start += 1
            while True:
                end = start
                while end < len(toks) and not (
                        depth[end] < level or depth[end] == level and (
                            toks[end].text in (",", ";") or toks[end].key in _LIST_ENDS)):
                    end += 1
                if end > start and not self._aliased(start, end):
                    items[start] = end
                if end >= len(toks) or toks[end].text != "," or depth[end] != level:
                    break
                start = end + 1
        return items

    def _aliased(self, lo: int, hi: int) -> bool:
        """Does the result column ``[lo, hi)`` end in an alias?"""
        if hi - lo < 2:
            return False
        last, before = self.toks[hi - 1], self.toks[hi - 2]
        if last.kind not in ("name", "quoted", "string") or last.key in _NOT_COLUMNS:
            return False
        if before.key == "AS":
            return True
        return (before.kind in ("number", "string", "quoted", "param")
                or before.text == ")"
                or before.kind == "name" and (before.key not in _NOT_COLUMNS
                                              or before.key in _EXPRESSION_ENDS))

    def _call(self, lo: int, hi: int) -> Optional[_Call]:
        """The routine call spanning exactly ``[lo, hi)``, if it is one."""
        toks = self.toks
        if hi - lo < 3 or toks[lo].kind != "name" or toks[lo + 1].text != "(":
            return None
        close = self.match[lo + 1]
        if close != hi - 1:
            return None
        if hi < len(toks) and toks[hi].key in ("FILTER", "OVER"):
            return None
        args: List[Union[_Call, Leaf]] = []
        start = lo + 2
        index = start
        while index <= close:
            tok = toks[index]
            if tok.text == "(":
                index = self.match[index] + 1
                continue
            if tok.text == "," or index == close:
                if index == start or toks[start].key in ("DISTINCT", "ALL") or (
                        index - start == 1 and toks[start].text == "*"):
                    return None
                args.append(self._call(start, index) or (start, index))
                start = index + 1
            index += 1
        name = toks[lo].key.lower()
        if (name, len(args)) not in self.routines:
            return None
        columns = any(arg.columns if isinstance(arg, _Call) else self._columns(*arg)
                      for arg in args)
        return _Call(name, lo, hi, args, columns)

    def _columns(self, lo: int, hi: int) -> bool:
        """Does the leaf ``[lo, hi)`` name a column (or anything that
        might be one)?"""
        toks = self.toks
        for index in range(lo, hi):
            tok = toks[index]
            if tok.kind == "quoted" or tok.kind == "name" and tok.key not in _NOT_COLUMNS and not (
                    index + 1 < hi and toks[index + 1].text == "("):
                return True
        return False

    def _in_order(self, call: _Call) -> bool:
        """Can *call*'s tree be fused without reordering what its leaves
        do?

        SQLite evaluates every argument of ``tip_eval`` before the tree
        runs, so a leaf that calls anything would run ahead of the nodes
        that precede it in the source.  That is allowed only for a
        constant leaf whose calls are deterministic TIP routines, which
        SQLite evaluates once per statement anyway.
        """
        seen_node = False

        def walk(node: _Call) -> bool:
            nonlocal seen_node
            for arg in node.args:
                if isinstance(arg, _Call) and arg.columns:
                    if not walk(arg):
                        return False
                    continue
                lo, hi = (arg.lo, arg.hi) if isinstance(arg, _Call) else arg
                if seen_node and not self._hoisted(lo, hi):
                    return False
            seen_node = True
            return True

        return walk(call)

    def _hoisted(self, lo: int, hi: int) -> bool:
        """Is the leaf ``[lo, hi)`` free of calls, or a constant whose
        calls are all deterministic TIP routines?"""
        toks = self.toks
        calls = [index for index in range(lo, hi - 1)
                 if toks[index].kind == "name" and toks[index + 1].text == "("]
        if not calls and not any(tok.key == "SELECT" for tok in toks[lo:hi]):
            return True
        return not self._columns(lo, hi) and all(
            toks[index].key.lower() in self.deterministic for index in calls)

    # -- rendering ------------------------------------------------------

    def render(self, lo: int, hi: int, column: bool = False) -> str:
        """The source text of tokens ``[lo, hi)`` with every fusable
        tree replaced by its ``tip_eval`` call; *column* when the range
        is itself an unaliased result column being rendered."""
        if lo >= hi:
            return ""
        sql, toks = self.sql, self.toks
        out: List[str] = []
        pos = toks[lo].start
        index = lo
        while index < hi:
            end = None if column and index == lo else self.items.get(index)
            if end is not None and end <= hi:
                # An unaliased result column: SQLite names it after its
                # source text up to the next token (comments included,
                # whitespace trimmed), so a rewritten one keeps that
                # name as an alias.
                text = self.render(index, end, column=True)
                if text != sql[toks[index].start:toks[end - 1].end]:
                    name = sql[toks[index].start:
                               toks[end].start if end < len(toks) else len(sql)].strip()
                    out.append(sql[pos:toks[index].start])
                    out.append(f'{text} AS "{name.replace(chr(34), chr(34) * 2)}"')
                    pos = toks[end - 1].end
                index = end
                continue
            tok = toks[index]
            if tok.kind == "name" and index + 1 < hi and toks[index + 1].text == "(":
                call = self._call(index, self.match[index + 1] + 1)
                if call is not None and any(isinstance(arg, _Call) and arg.columns
                                            for arg in call.args) and self._in_order(call):
                    leaves: List[str] = []
                    template = self._template(call, leaves)
                    out.append(sql[pos:tok.start])
                    out.append(f"{EVAL_ROUTINE}('{template}', {', '.join(leaves)})")
                    pos = toks[call.hi - 1].end
                    index = call.hi
                    continue
            index += 1
        out.append(sql[pos:toks[hi - 1].end])
        return "".join(out)

    def _template(self, call: _Call, leaves: List[str]) -> str:
        parts = []
        for arg in call.args:
            if isinstance(arg, _Call) and arg.columns:
                parts.append(self._template(arg, leaves))
            else:
                lo, hi = (arg.lo, arg.hi) if isinstance(arg, _Call) else arg
                leaves.append(self.render(lo, hi))
                parts.append("?")
        return f"{call.name}({','.join(parts)})"


@lru_cache(maxsize=CACHE_SIZE)
def fused_sql(sql: str) -> str:
    """*sql* with its nested TIP routine trees fused (see module doc)."""
    if "(" not in sql:
        return sql
    # Imported on a cache miss: repro.tsql imports the client, which
    # imports this module.
    from repro.tsql.parser import tokens

    try:
        toks = [tok for tok in tokens(sql) if tok.kind != "comment"]
        if not toks or toks[0].key not in _STATEMENT_KEYS:
            return sql
        rewriter = _Rewriter(sql, toks)
    except (TranslationError, ValueError):
        return sql
    return sql[:toks[0].start] + rewriter.render(0, len(toks)) + sql[toks[-1].end:]


def executed_sql(sql: str) -> str:
    """The text a TIP cursor hands SQLite for *sql*: fused, unless a
    fault plan is armed."""
    if _FAULTS.plan is not None:
        return sql
    return fused_sql(sql)


Template = Tuple[str, Tuple[Union[int, "Template"], ...]]


def parse_template(text: str) -> Tuple[Template, int]:
    """``(tree, leaf count)`` of a ``tip_eval`` template.

    A tree is ``(routine name, children)``; a child is a leaf index or
    a tree.  Raises :class:`~repro.errors.TipError` on malformed text.
    """
    leaves = 0

    def node(pos: int) -> Tuple[Template, int]:
        nonlocal leaves
        open_at = text.find("(", pos)
        name = text[pos:open_at]
        if open_at < 0 or not name.isidentifier():
            raise TipError(f"malformed {EVAL_ROUTINE} template {text!r}")
        children: List[Union[int, Template]] = []
        pos = open_at + 1
        while True:
            if text.startswith("?", pos):
                children.append(leaves)
                leaves += 1
                pos += 1
            else:
                child, pos = node(pos)
                children.append(child)
            if text.startswith(",", pos):
                pos += 1
            elif text.startswith(")", pos):
                return (name.lower(), tuple(children)), pos + 1
            else:
                raise TipError(f"malformed {EVAL_ROUTINE} template {text!r}")

    tree, end = node(0)
    if end != len(text):
        raise TipError(f"malformed {EVAL_ROUTINE} template {text!r}")
    return tree, leaves
