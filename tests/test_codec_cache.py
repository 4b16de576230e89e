"""The marshalling fast path: decode/parse caches and call plans.

Covers the tentpole guarantees of the caching layer:

* cached decode/encode is **observably identical** to uncached
  round-trips, including NOW-relative values grounded under different
  :func:`repro.core.nowctx.use_now` bindings (property-tested);
* the caches are bounded (LRU) and keep honest hit/miss/eviction
  stats that only ``reset_stats`` ever lowers;
* fault injection bypasses the decode cache so chaos stays
  deterministic, and arming a plan clears the caches;
* the compiled call plans preserve the marshalling semantics of the
  generic path (NULL propagation, implicit widening, string casts) and
  actually hit the caches on constant-argument statements;
* cache traffic surfaces in metrics snapshots, renderers, and
  per-statement profiles.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import codec, faults, obs
from repro.blade import fusion
from repro.codec import cache as marshal_cache
from repro.codec.binary import (
    DECODE, DECODE_SIZE, MAGIC, VERSION, _decode_bytes, decode_many,
    pack_elements,
)
from repro.core import use_now
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import NOW, Instant
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import CodecError
from repro.tsql import TsqlSession
from repro.tsql import compiled

from tests.strategies import elements, instants, periods, spans

pytestmark = pytest.mark.usefixtures("fresh_caches")


@pytest.fixture
def fresh_caches():
    """Cold caches with zeroed stats before and after each test."""
    marshal_cache.clear_caches(reset_stats=True)
    yield
    marshal_cache.clear_caches(reset_stats=True)


def fresh_copy(value):
    """A structurally identical value with no cached-blob stamp."""
    return _decode_bytes(codec.encode(value), stamp=False)


@contextmanager
def uncached():
    """Every decode and literal parse runs its cache's miss function."""
    with pytest.MonkeyPatch.context() as patch:
        for cache in (DECODE, marshal_cache.PARSE):
            patch.setattr(cache, "lookup", cache.lookup.__wrapped__)
        yield


class TestDecodeCache:
    def test_repeat_decode_returns_shared_object(self):
        blob = codec.encode(Element.parse("{[1999-01-01, NOW]}"))
        assert codec.decode(blob) is codec.decode(blob)

    def test_hit_miss_accounting(self):
        blob = codec.encode(Chronon.parse("2000-01-01"))
        codec.decode(blob)
        codec.decode(blob)
        stats = DECODE.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["hit_ratio"] == 0.5

    def test_lru_bound_and_evictions(self):
        blobs = [codec.encode(Chronon(n)) for n in range(DECODE_SIZE + 3)]
        first = codec.decode(blobs[0])
        for blob in blobs[1:DECODE_SIZE]:
            codec.decode(blob)
        codec.decode(blobs[0])  # refresh: blobs[1] is now the LRU entry
        for blob in blobs[DECODE_SIZE:]:
            codec.decode(blob)  # evicts blobs[1], blobs[2], blobs[3]
        stats = DECODE.stats()
        assert stats["entries"] == DECODE_SIZE
        assert stats["evictions"] == 3
        assert codec.decode(blobs[0]) is first  # kept: a hit
        codec.decode(blobs[1])                  # evicted: a miss
        assert DECODE.stats()["misses"] == stats["misses"] + 1

    def test_failed_decode_is_a_miss_not_an_eviction(self):
        blob = codec.encode(Chronon(5))
        with pytest.raises(CodecError):
            codec.decode(blob[:-1])
        codec.decode(blob)
        stats = DECODE.stats()
        assert stats["misses"] == 2 and stats["entries"] == 1
        assert stats["evictions"] == 0

    def test_non_canonical_element_blob_still_normalizes(self):
        # Hand-build an element blob with overlapping, unsorted periods:
        # decode must coalesce exactly as before, and the *canonical*
        # re-encoding (not the input bytes) must be what encode returns.
        body = b"".join(
            codec.encode(Period(Chronon(lo), Chronon(hi)))[3:]
            for lo, hi in [(500_000, 900_000), (0, 600_000)]
        )
        blob = bytes((MAGIC, VERSION, 0x05)) + (2).to_bytes(4, "big") + body
        value = codec.decode(blob)
        assert [p.ground_pair(0) for p in value.periods] == [(0, 900_000)]
        canonical = codec.encode(value)
        assert canonical != blob
        assert codec.decode(canonical).identical(value)

    def test_bijective_types_round_trip_to_input_bytes(self):
        for value in (
            Chronon.parse("1999-09-01"),
            Span.of(days=3),
            NOW - Span.of(days=1),
            Period(Chronon(100), Chronon(200)),
            Period(Instant.at(Chronon(100)), NOW),
        ):
            blob = codec.encode(value)
            assert codec.encode(codec.decode(blob)) == blob

    def test_memoryview_and_bytearray_decode(self):
        blob = codec.encode(Element.parse("{[1999-01-01, 1999-06-01]}"))
        for view in (memoryview(blob), bytearray(blob)):
            assert codec.is_tip_blob(view)
            assert codec.decode(view).identical(codec.decode(blob))


class TestEncodeStamp:
    def test_encode_after_decode_is_attribute_read(self):
        blob = codec.encode(Period(Chronon(10), Chronon(20)))
        value = codec.decode(blob)
        assert codec.encode(value) is codec.encode(value)
        assert codec.encode(value) == blob

    def test_repeated_encode_returns_same_bytes_object(self):
        value = Element.parse("{[1999-01-01, NOW]}")
        first = codec.encode(value)
        assert codec.encode(value) is first


    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 10**9),
                                       st.integers(0, 10**6)),
                             max_size=4), max_size=6))
    def test_batch_pack_writes_the_encoded_bytes(self, raw):
        """``pack_elements`` packs exactly what ``encode`` writes, for
        empty, single- and multi-period elements alike."""
        pairs = [Element.from_pairs([(lo, lo + width) for lo, width in item])
                 ._pairs for item in raw]
        flat = [pair for p in pairs for pair in p]
        sizes, data = pack_elements([len(p) for p in pairs],
                                    [lo for lo, _ in flat],
                                    [hi for _, hi in flat])
        blobs = [codec.encode(Element._from_canonical_pairs(tuple(p)))
                 for p in pairs]
        assert sizes.tolist() == list(map(len, blobs))
        assert data == b"".join(blobs)


class TestDecodeMany:
    """The value-table decoder equals one ``decode`` per blob."""

    @staticmethod
    def _blobs():
        """Canonical Elements (empty, one and many periods), NOW-relative
        and non-canonical Elements, and every other TIP type."""
        canonical = [Element.from_pairs([(k * 100, k * 100 + 10 * (k % 3)),
                                         (k * 100 + 50, k * 100 + 60)][:k % 3])
                     for k in range(80)]
        start, end = (codec.encode(Chronon(n))[3:] for n in (100, 200))
        determinate = b"\x00" + start[0:8], b"\x00" + end[0:8]
        overlapping = bytes((MAGIC, VERSION, 0x05)) + b"\x00\x00\x00\x02" \
            + (determinate[0] + determinate[1]) * 2  # a repeated period
        return [codec.encode(value) for value in canonical] + [
            codec.encode(Element.parse("{[1999-01-01, NOW]}")),
            overlapping,
            codec.encode(Chronon(5)), codec.encode(Span(7)),
            codec.encode(Period(Chronon(1), Chronon(2))),
            codec.encode(Instant.now_relative(Span(3))),
        ]

    def test_equals_per_blob_decode(self):
        blobs = self._blobs()
        decoded = decode_many(blobs)
        expected = [_decode_bytes(blob, stamp=False) for blob in blobs]
        assert [type(v) for v in decoded] == [type(v) for v in expected]
        assert [codec.encode(v) for v in decoded] \
            == [codec.encode(v) for v in expected]
        # Canonical blobs come back stamped with themselves.
        for blob, value in zip(blobs[:80], decoded):
            assert value._tip_blob is blob

    def test_malformed_blob_raises_the_per_blob_error(self):
        blobs = self._blobs()
        broken = blobs[:70] + [blobs[5][:-1]]
        with pytest.raises(CodecError) as many:
            decode_many(broken)
        with pytest.raises(CodecError) as one:
            _decode_bytes(blobs[5][:-1], stamp=False)
        assert str(many.value) == str(one.value)

    def test_armed_plan_decodes_every_blob(self):
        """With a fault plan armed every blob reaches ``decode()``, so
        its injection point fires as on the per-blob path."""
        blobs = self._blobs()
        with faults.inject("codec.decode:raise:after=69", seed=3):
            with pytest.raises(faults.InjectedFault):
                decode_many(blobs)


class TestParseCache:
    def test_repeated_literal_parses_once(self):
        first = marshal_cache.parse_cached(Element.parse, "{[1999-10-01, NOW]}")
        second = marshal_cache.parse_cached(Element.parse, "{[1999-10-01, NOW]}")
        assert first is second
        assert marshal_cache.PARSE.stats()["hits"] == 1

    def test_distinct_parsers_do_not_collide(self):
        # Same literal text, two parsers: the cache key includes the
        # callable, so a custom blade's parser never sees TIP's entry.
        text = "1999-01-01"
        tip_value = marshal_cache.parse_cached(Chronon.parse, text)
        other = marshal_cache.parse_cached(Instant.parse, text)
        assert isinstance(tip_value, Chronon) and isinstance(other, Instant)

    def test_mutable_parse_results_never_cached(self):
        calls = []

        def parse_list(text):
            calls.append(text)
            return [text]  # mutable: must not be shared

        a = marshal_cache.parse_cached(parse_list, "x")
        b = marshal_cache.parse_cached(parse_list, "x")
        assert a == b == ["x"] and a is not b
        assert len(calls) == 2

    def test_cached_parser_wrapper(self):
        parse = marshal_cache.cached_parser(Span.parse)
        assert parse("0 08:00:00") is parse("0 08:00:00")
        assert parse.__wrapped__ is Span.parse


class TestFaultsBypass:
    def test_armed_plan_bypasses_and_clears_decode_cache(self):
        blob = codec.encode(Chronon(42))
        cached = codec.decode(blob)
        assert DECODE.stats()["entries"] == 1
        with faults.inject("codec.decode:raise", seed=3):
            assert DECODE.stats()["entries"] == 0  # arming cleared it
            # A cache lookup would have returned the warm value without
            # ever reaching the injection point; the bypass means every
            # decode hits it.
            with pytest.raises(faults.InjectedFault):
                codec.decode(blob)
            # Still bypassed: nothing repopulates while armed.
            assert DECODE.stats()["entries"] == 0
        fresh = codec.decode(blob)
        assert fresh.seconds == cached.seconds

    def test_chaos_decode_is_deterministic_with_warm_cache(self):
        blob = codec.encode(Element.parse("{[1999-01-01, NOW]}"))
        for _ in range(3):
            codec.decode(blob)  # warm the cache

        def failure_indexes():
            seen = []
            with faults.inject("codec.decode:raise:p=0.5", seed=11):
                for index in range(8):
                    try:
                        codec.decode(blob)
                    except faults.InjectedFault:
                        seen.append(index)
            return seen

        first, second = failure_indexes(), failure_indexes()
        assert first and first == second


class TestCallPlans:
    @pytest.fixture
    def conn(self):
        connection = repro.connect(now="2000-01-01")
        connection.execute(
            "CREATE TABLE Rx (patient TEXT, dob CHRONON, valid ELEMENT)"
        )
        connection.execute(
            "INSERT INTO Rx VALUES ('a', chronon('1975-03-26'), "
            "element('{[1999-01-01, NOW]}'))"
        )
        connection.execute(
            "INSERT INTO Rx VALUES ('b', chronon('1980-07-04'), "
            "element('{[1998-01-01, 1998-06-01]}'))"
        )
        yield connection
        connection.close()

    def test_null_anywhere_yields_null(self, conn):
        rows = conn.query("SELECT overlaps(NULL, valid), overlaps(valid, NULL), "
                          "tadd(NULL, NULL) FROM Rx")
        assert rows == [(None, None, None), (None, None, None)]

    def test_earlier_type_error_beats_later_null(self, conn):
        # Strict left-to-right coercion: a bad first argument must keep
        # raising even when the second argument is NULL.
        with pytest.raises(Exception):
            conn.query("SELECT restrict(3.5, NULL) FROM Rx")

    def test_string_cast_and_widening_still_work(self, conn):
        rows = conn.query(
            "SELECT patient FROM Rx WHERE overlaps(valid, '{[1999-06-01, NOW]}') "
            "ORDER BY patient"
        )
        assert rows == [("a",)]
        # Chronon argument where an Element is declared: implicit cast.
        rows = conn.query("SELECT contains(valid, dob) FROM Rx ORDER BY patient")
        assert rows == [(0,), (0,)]

    def test_constant_argument_query_hits_decode_cache(self, conn):
        marshal_cache.clear_caches(reset_stats=True)
        for _ in range(20):
            conn.query("SELECT overlaps(valid, '{[1999-06-01, NOW]}') FROM Rx")
        # 2 distinct row blobs and 1 window literal: everything after
        # the first pass over each is a hit.
        stats = DECODE.stats()
        assert stats["hits"] / (stats["hits"] + stats["misses"]) >= 0.9
        assert marshal_cache.PARSE.stats()["hit_ratio"] >= 0.9

    def test_zero_arg_routine(self, conn):
        (value,) = conn.query_one("SELECT tip_text(tip_now())")
        assert value == "2000-01-01"

    def test_three_arg_fallback_plan(self, conn):
        # No built-in TIP routine takes 3+ args; install one to cover
        # the generic variadic plan.
        from repro.blade.registry import DataBlade, RoutineDef
        from repro.blade.sqlite_backend import install_blade

        blade = DataBlade(name="unit")
        blade.register_routine(RoutineDef(
            name="add3", arg_types=("integer", "integer", "integer"),
            return_type="integer",
            implementation=lambda a, b, c: a + b + c,
        ))
        install_blade(conn.raw, blade)
        assert conn.query_one("SELECT add3(1, 2, 3)") == (6,)
        assert conn.query_one("SELECT add3(1, NULL, 3)") == (None,)


class TestResultMemo:
    """Nested routine calls hand the inner call's value on as an object
    (fused trees: one ``tip_eval`` call per tree and row) with unchanged
    semantics; the codec sees only the leaves."""

    NESTED = ("SELECT patient, span_seconds(tsub(start(valid), dob)), "
              "tip_text(tadd(end_time(valid), tmul(span('1'), 2))) "
              "FROM Rx ORDER BY patient")

    @pytest.fixture
    def conn(self, tmp_path):
        connection = repro.connect(str(tmp_path / "memo.db"), now="2000-01-01")
        connection.execute(
            "CREATE TABLE Rx (patient TEXT, dob CHRONON, valid ELEMENT)")
        connection.executemany("INSERT INTO Rx VALUES (?, ?, ?)", [
            (f"p{n:02d}", Chronon.parse(f"19{50 + n}-03-26"),
             Element.parse(f"{{[1998-0{1 + n % 9}-01, NOW]}}"))
            for n in range(12)] + [("zz", None, None)])
        connection.commit()
        yield connection
        connection.close()

    def _uncached(self, conn, sql):
        with uncached():
            return conn.query(sql)

    def test_nested_results_skip_the_decode_cache(self, conn):
        expected = self._uncached(conn, self.NESTED)
        marshal_cache.clear_caches(reset_stats=True)
        assert conn.query(self.NESTED) == expected
        stats = DECODE.stats()
        # start(), end_time() and tsub()/tadd() results feed the call
        # around them as objects: the only lookups are the leaves of the
        # two trees on the 12 non-NULL rows (valid and dob, valid and
        # the constant tmul() blob), plus tmul()'s own decode of span('1')
        # in the one evaluation SQLite makes of that constant subtree;
        # only stored columns miss.
        assert stats["hits"] + stats["misses"] == 4 * 12 + 1
        assert stats["misses"] <= 2 * 12 + 1

    def test_inner_result_feeds_a_widening_cast(self, conn):
        """A Chronon result passed where an Element is declared."""
        sql = ("SELECT patient, contains(valid, start(valid)), "
               "overlaps(element_union(valid, end_time(valid)), valid) "
               "FROM Rx ORDER BY patient")
        expected = self._uncached(conn, sql)
        marshal_cache.clear_caches(reset_stats=True)
        assert conn.query(sql) == expected
        assert expected[0][1:] == (1, 1) and expected[-1][1:] == (None, None)
        # Five stored valid leaves per non-NULL row; start() and
        # end_time() reach contains()/element_union() undecoded.
        stats = DECODE.stats()
        assert stats["hits"] + stats["misses"] == 5 * 12

    def test_null_propagates_through_nested_calls(self, conn):
        rows = conn.query(
            "SELECT tsub(start(valid), dob), tip_text(start(NULL)), "
            "tlt(tsub(start(valid), NULL), span('1')) FROM Rx "
            "WHERE patient = 'zz' OR patient = 'p00' ORDER BY patient")
        assert rows[0][1:] == (None, None)
        assert isinstance(rows[0][0], Span)
        assert rows[1] == (None, None, None)

    def test_insert_select_of_a_nested_result_round_trips(self, conn):
        conn.execute("CREATE TABLE Out (patient TEXT, age SPAN, "
                     "first CHRONON)")
        conn.execute("INSERT INTO Out SELECT patient, tsub(start(valid), dob), "
                     "start(valid) FROM Rx")
        conn.commit()
        stored = conn.query("SELECT patient, span_seconds(age), "
                            "tip_text(first) FROM Out ORDER BY patient")
        expected = self._uncached(
            conn, "SELECT patient, span_seconds(tsub(start(valid), dob)), "
                  "tip_text(start(valid)) FROM Rx ORDER BY patient")
        assert stored == expected
        (age,) = conn.query_one("SELECT age FROM Out WHERE patient = 'p00'")
        assert isinstance(age, Span) and age.seconds == expected[0][1]

    def test_pool_readers_stay_isolated_under_interleaving(self, conn):
        """Two readers run different nested statements in lockstep:
        each connection's tip_eval evaluates only its own trees, results
        stay exact."""
        import threading

        from repro.server.pool import ConnectionPool

        queries = [self.NESTED, self.NESTED.replace("start(", "end_time(")
                   .replace("end_time(valid), tmul", "start(valid), tmul")]
        expected = [self._uncached(conn, sql) for sql in queries]
        assert expected[0] != expected[1]
        pool = ConnectionPool(conn.raw.execute(
            "PRAGMA database_list").fetchone()[2], readers=2)
        barrier = threading.Barrier(2)
        failures = []
        now = Chronon.parse("2000-01-01").seconds

        def reader(index):
            try:
                for _ in range(6):
                    with pool.read(now) as connection:
                        barrier.wait(timeout=10)
                        rows = connection.query(queries[index])
                        barrier.wait(timeout=10)
                    if rows != expected[index]:
                        failures.append((index, rows))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((index, exc))
                barrier.abort()

        threads = [threading.Thread(target=reader, args=(i,)) for i in (0, 1)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            pool.close()
        assert not failures
        # Busy is sampled before a checkout takes its reader: the other
        # reader was held at the same time.
        assert pool.stats()["max_busy"] == 1

    def test_armed_faults_give_the_same_outcome_twice(self, conn):
        """Fusion is bypassed while armed: routine and decode faults
        fire at the same calls on two seeded runs."""

        def run():
            outcomes = []
            with faults.inject("blade.routine:raise:p=0.02;"
                               "codec.decode:corrupt:p=0.05", seed=5):
                assert fusion.executed_sql(self.NESTED) == self.NESTED
                for _ in range(4):
                    try:
                        outcomes.append(conn.query(self.NESTED))
                    except Exception as exc:
                        outcomes.append(type(exc).__name__)
            return outcomes

        first = run()
        assert first == run()
        assert any(isinstance(outcome, str) for outcome in first)
        assert fusion.executed_sql(self.NESTED) != self.NESTED


def _cache_stats():
    """``{cache: {hits, misses, evictions}}`` for all three caches."""
    every = {**marshal_cache.stats(), "statement": compiled.stats()}
    return {name: {key: stats[key] for key in ("hits", "misses", "evictions")}
            for name, stats in every.items()}


class TestObservability:
    def test_snapshot_carries_cache_section_and_counters(self):
        blob = codec.encode(Chronon(7))
        with obs.capture():
            codec.decode(blob)
            codec.decode(blob)
            snapshot = obs.snapshot()
        assert snapshot["caches"]["decode"]["hits"] >= 1
        assert snapshot["counters"]["codec.cache.decode.hits"] >= 1

    def test_render_text_and_prometheus_show_caches(self):
        codec.decode(codec.encode(Chronon(7)))
        with obs.capture():
            text = obs.render_text(obs.snapshot())
            prom = obs.render_prometheus(obs.snapshot())
        assert "marshalling caches:" in text
        assert 'tip_marshal_cache_entries{cache="decode"}' in prom

    def test_query_profile_sees_cache_deltas(self):
        conn = repro.connect(now="2000-01-01")
        try:
            conn.execute("CREATE TABLE t (valid ELEMENT)")
            conn.execute("INSERT INTO t VALUES (element('{[1999-01-01, NOW]}'))")
            with obs.capture():
                # Profiles are stored in the flight ring; a forced
                # profile with the ring off is returned, not stored.
                obs.flight.enable()
                with obs.profile.forced():
                    conn.query("SELECT overlaps(valid, '{[1999-06-01, NOW]}') FROM t")
                    conn.query("SELECT overlaps(valid, '{[1999-06-01, NOW]}') FROM t")
                profiles = obs.profile.recent_profiles()
        finally:
            conn.close()
        assert profiles
        merged = {}
        for entry in profiles:
            for name, delta in entry.counters.items():
                merged[name] = merged.get(name, 0) + delta
        # The second query decodes the same row blob: a cache hit.
        assert merged.get("codec.cache.decode.hits", 0) >= 1

    # The stats contract: hits, misses and evictions are monotonic.
    # The clears done by arming a fault plan and by a generation bump
    # keep them; only ``reset_stats`` (``.metrics reset``) zeroes them.

    WINDOW = "SELECT overlaps(valid, '{[1999-06-01, NOW]}') FROM t"

    @pytest.fixture
    def session(self):
        compiled.clear_cache(reset_stats=True)
        conn = repro.connect(now="2000-01-01")
        conn.execute("CREATE TABLE t (valid ELEMENT)")
        conn.execute("INSERT INTO t VALUES (element('{[1999-01-01, NOW]}'))")
        yield TsqlSession(conn)
        conn.close()
        compiled.clear_cache(reset_stats=True)

    def _traffic(self, session):
        for _ in range(2):
            session.query(self.WINDOW)
        # Past the decode bound: evictions as well as hits and misses.
        for n in range(DECODE_SIZE + 2):
            codec.decode(codec.encode(Chronon(n)))

    def test_stats_never_decrease_across_arm_and_bump(self, session):
        self._traffic(session)
        before = _cache_stats()
        assert all(before[name]["hits"] for name in before)
        assert before["decode"]["evictions"] >= 2
        with faults.inject("stmt.cache:delay:delay=0.0", seed=1):
            armed = _cache_stats()
        compiled.bump_generation()
        bumped = _cache_stats()
        self._traffic(session)
        after = _cache_stats()
        for earlier, later in ((before, armed), (armed, bumped), (bumped, after)):
            for name, stats in earlier.items():
                for key, value in stats.items():
                    assert later[name][key] >= value, (name, key)
        assert after["decode"]["evictions"] > before["decode"]["evictions"]

    def test_query_profile_cache_deltas_are_never_negative(self, session):
        with obs.capture():
            obs.flight.enable()
            with obs.profile.forced():
                session.query(self.WINDOW)
                faults.arm("stmt.cache:delay:delay=0.0", seed=1)
                faults.disarm()
                session.query(self.WINDOW)
                session.query("CREATE TABLE u (valid ELEMENT)")
                session.query(self.WINDOW)
            profiles = obs.profile.recent_profiles()
        deltas = [(name, delta) for entry in profiles
                  for name, delta in entry.counters.items()
                  if name.startswith(("codec.cache.", "tsql.cache."))]
        assert any(delta > 0 for _, delta in deltas)
        assert all(delta >= 0 for _, delta in deltas), deltas

    def test_metrics_reset_zeroes_the_stats(self, session):
        from repro.cli import TipShell

        self._traffic(session)
        shell = TipShell()
        try:
            assert shell.execute_line(".metrics reset") == "metrics reset"
        finally:
            shell.close()
        assert all(value == 0 for stats in _cache_stats().values()
                   for value in stats.values())


class TestRoundTripProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        value=st.one_of(elements(), periods(), instants(), spans()),
        now_a=st.integers(min_value=0, max_value=2_000_000_000),
        now_b=st.integers(min_value=0, max_value=2_000_000_000),
    )
    def test_cached_round_trip_matches_uncached(self, value, now_a, now_b):
        """encode -> decode through the cache == a cache-free round trip,
        at every NOW."""
        blob = codec.encode(value)
        cached = codec.decode(blob)      # miss path (stamps/stores)
        cached_again = codec.decode(blob)  # hit path (shared object)
        uncached = fresh_copy(value)
        assert cached_again is cached
        assert codec.encode(cached) == codec.encode(uncached) == blob
        for now_seconds in (now_a, now_b):
            with use_now(now_seconds):
                assert _grounded(cached) == _grounded(uncached)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(element=elements(), now_seconds=st.integers(min_value=0, max_value=2_000_000_000))
    def test_shared_decode_never_bakes_in_now(self, element, now_seconds):
        """Grounding a cache-shared value under one NOW must not change
        what a later statement sees under another NOW."""
        blob = codec.encode(element)
        shared = codec.decode(blob)
        with use_now(now_seconds):
            first = shared.ground_pairs()
        with use_now(0):
            base = shared.ground_pairs()
            assert base == fresh_copy(element).ground_pairs()
        with use_now(now_seconds):
            assert shared.ground_pairs() == first


def _grounded(value):
    """A comparable grounded form for any TIP value."""
    if isinstance(value, Element):
        return value.ground_pairs()
    if isinstance(value, Period):
        return value.ground_pair()
    if isinstance(value, Instant):
        return value.ground_seconds()
    return value.seconds if hasattr(value, "seconds") else value
