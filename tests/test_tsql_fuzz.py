"""Fuzz/property tests for the statement parser behind the preprocessor.

:func:`repro.tsql.parser.parse` sees arbitrary user SQL, so it must
never mis-split on keywords hiding inside strings or parentheses, and
must reject (not mangle) what it cannot handle.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TranslationError
from repro.tsql import translate_tsql
from repro.tsql.parser import parse

_KEYWORDS = {"select", "from", "where", "group", "order", "by", "having",
             "limit", "as", "and", "or", "not", "join", "on"}
identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda name: name.lower() not in _KEYWORDS
)
string_bodies = st.text(
    alphabet=st.sampled_from(list("abc WHERE FROM GROUP BY () ,")), max_size=20
)


@st.composite
def select_statements(draw):
    """Structured random SELECTs with strings/parens in tricky places."""
    cols = draw(st.lists(identifiers, min_size=1, max_size=3))
    select_list = ", ".join(cols)
    if draw(st.booleans()):
        body = draw(string_bodies).replace("'", "")
        select_list += f", '{body}'"
    if draw(st.booleans()):
        select_list += f", f({draw(identifiers)})"
    tables = draw(st.lists(identifiers, min_size=1, max_size=2))
    from_list = ", ".join(tables)
    where = None
    if draw(st.booleans()):
        body = draw(string_bodies).replace("'", "")
        where = f"{draw(identifiers)} = '{body}'"
    tail = draw(st.sampled_from(["", "ORDER BY 1", "LIMIT 5"]))
    sql = f"SELECT {select_list} FROM {from_list}"
    if where:
        sql += f" WHERE {where}"
    if tail:
        sql += f" {tail}"
    return sql, select_list, from_list, where, tail


def _from_items(from_list):
    return [(item.table, item.alias)
            for item in parse(f"SELECT x FROM {from_list}").from_items]


class TestSplitterProperties:
    @given(select_statements())
    def test_split_recovers_the_clauses(self, parts):
        sql, select_list, from_list, where, tail = parts
        select = parse(sql)
        assert select.body("select") == select_list
        assert select.body("from") == from_list
        assert (select.body("where") or None) == where
        assert select.tail == tail

    @given(select_statements())
    def test_translation_is_idempotent_for_plain_sql(self, parts):
        sql = parts[0]
        assert translate_tsql(sql, {}) == sql.strip()

    @given(st.text(max_size=40))
    def test_splitter_never_crashes_unexpectedly(self, text):
        """Arbitrary input either parses or raises TranslationError."""
        try:
            parse("SELECT x FROM t WHERE " + text.replace("'", ""))
        except TranslationError:
            pass

    def test_semicolon_stripped(self):
        assert parse("SELECT a FROM t;").body("from") == "t"


class TestFromListParsing:
    def test_alias_forms(self):
        assert _from_items("t") == [("t", "t")]
        assert _from_items("t a") == [("t", "a")]
        assert _from_items("t AS a") == [("t", "a")]
        assert _from_items("t1 a, t2 AS b") == [("t1", "a"), ("t2", "b")]

    @pytest.mark.parametrize(
        "bad",
        ["(SELECT 1) x", "t JOIN u ON 1", "t1 a b c", "123tbl"],
    )
    def test_unsupported_items_rejected(self, bad):
        with pytest.raises(TranslationError):
            _from_items(bad)

    @given(st.lists(st.tuples(identifiers, identifiers), min_size=1, max_size=4))
    def test_round_trip_property(self, items):
        text = ", ".join(f"{table} AS {alias}" for table, alias in items)
        assert _from_items(text) == list(items)
