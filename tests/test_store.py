import json
import logging
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svcal.store
from svcal.errors import DomainError, RecordNotFoundError
from svcal.quotes_io import parse_quotes, quotes_digest
from svcal.store import ParamRecord, ParamStore, live_calibrate, select_tenor
from svcal.workflows import RunConfig

QUOTES_CSV = """tenor,expiry_years,forward,discount,atm_vol,ms25,rr25
3M,0.2491694,1.0,1.0,12.70%,0.28%,-0.55%
1Y,1.0,1.0,1.0,11.50%,0.40%,-0.55%
"""

PARAMS = {
    "v0": 0.017749826673522792,
    "theta": 0.017749826673522792,
    "kappa": 6.02,
    "sigma": 0.47608798572063534,
    "rho": -0.12890377247331275,
}


def make_record(ts="2008-09-16T08:00:00+00:00", model="heston", params=None):
    return ParamRecord(
        model_kind=model,
        params=params or PARAMS,
        timestamp=ts,
        quote_digest=quotes_digest(QUOTES_CSV),
        strategy={"strategy": "tenor", "kappa_rule_constant": 1.5},
        diagnostics={"rmse": 1.2e-15},
    )


class TestParamRecord:
    def test_requires_timestamp_digest_params(self):
        with pytest.raises(DomainError):
            ParamRecord("heston", PARAMS, "", "abc")
        with pytest.raises(DomainError):
            ParamRecord("heston", PARAMS, "2020-01-01T00:00:00", "")
        with pytest.raises(DomainError):
            ParamRecord("heston", {}, "2020-01-01T00:00:00", "abc")
        with pytest.raises(ValueError):
            ParamRecord("heston", PARAMS, "yesterday", "abc")

    def test_per_tenor_selection(self):
        rec = make_record(params={"3M": PARAMS, "1Y": PARAMS})
        assert rec.is_per_tenor
        assert select_tenor(rec.params, "3M", "record") == PARAMS
        with pytest.raises(DomainError, match=r"record is per-tenor; choose one of \['1Y', '3M'\]"):
            select_tenor(rec.params, None, "record")
        with pytest.raises(DomainError, match=r"tenor '7Y' not in record \(has \['1Y', '3M'\]\)"):
            select_tenor(rec.params, "7Y", "record")
        assert select_tenor(PARAMS, "7Y", "record") == PARAMS


class TestStoreRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        store = ParamStore(tmp_path)
        rid = store.save(make_record())
        got = store.load(rid)
        assert got.params == PARAMS  # float fields identical after round trip
        assert got.record_id == rid
        assert got.timestamp == "2008-09-16T08:00:00+00:00"
        assert got.quote_digest == quotes_digest(QUOTES_CSV)

    def test_ids_unique_and_monotone(self, tmp_path):
        store = ParamStore(tmp_path)
        ids = [store.save(make_record()) for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_latest_returns_second_of_two(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record(ts="2008-09-16T08:00:00+00:00"))
        p2 = dict(PARAMS, v0=0.02)
        store.save(make_record(ts="2008-09-17T08:00:00+00:00", params=p2))
        latest = store.latest("heston")
        assert latest.params["v0"] == 0.02

    def test_latest_respects_as_of(self, tmp_path):
        store = ParamStore(tmp_path)
        t0 = datetime(2008, 9, 16, 8, tzinfo=timezone.utc)
        for i in range(3):
            store.save(make_record(ts=(t0 + timedelta(days=i)).isoformat(),
                                   params=dict(PARAMS, v0=0.01 + 0.01 * i)))
        mid = (t0 + timedelta(days=1, hours=5)).isoformat()
        assert store.latest("heston", as_of=mid).params["v0"] == pytest.approx(0.02)
        with pytest.raises(RecordNotFoundError):
            store.latest("heston", as_of=(t0 - timedelta(days=1)).isoformat())

    def test_latest_single_record_any_later_time(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        got = store.latest("heston", as_of="2030-01-01T00:00:00+00:00")
        assert got.record_id == 1

    def test_missing_model_kind(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        with pytest.raises(RecordNotFoundError):
            store.latest("bates")

    def test_digest_mismatch_stores_warning(self, tmp_path):
        store = ParamStore(tmp_path)
        rid = store.save(make_record(), quotes=QUOTES_CSV + "\n# moved")
        assert "digest_mismatch" in store.load(rid).warnings
        rid2 = store.save(make_record(), quotes=QUOTES_CSV)
        assert store.load(rid2).warnings == ()

    def test_list_records_filter(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        store.save(make_record(model="schobel_zhu", params={"v0": 0.1, "theta": 0.1,
                                                            "kappa": 1.0, "sigma": 0.3, "rho": -0.2}))
        assert len(store.list_records()) == 2
        assert len(store.list_records("heston")) == 1

    def test_full_precision_decimal_text(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        line = (tmp_path / "params.jsonl").read_text().strip()
        parsed = json.loads(line)
        assert parsed["params"]["sigma"] == PARAMS["sigma"]


class TestSaveValidation:
    @pytest.mark.parametrize(
        "model, params, match",
        [
            ("heston", {"v0": 0.01}, "missing"),
            ("heston", dict(PARAMS, jump_vol=0.1), "unexpected.*jump_vol"),
            ("heston", {"3M": PARAMS, "1Y": dict(PARAMS, rho=1.5)}, "tenor '1Y'.*rho"),
            ("heston", {"3M": PARAMS, "1Y": 0.5}, "tenor '1Y'"),
            ("sabr", PARAMS, "unknown model kind 'sabr'"),
            (["heston"], PARAMS, "unknown model kind \\['heston'\\]"),
            ("heston", [1, 2], "must be a mapping"),
            ("heston", dict(PARAMS, v0="0.02"), "v0 must be a number"),
        ],
        ids=["missing_key", "extra_key", "bad_tenor", "non_mapping_tenor", "unknown_kind",
             "unhashable_kind", "non_mapping_params", "string_value"],
    )
    def test_rejected_save_leaves_file_unchanged(self, tmp_path, model, params, match):
        store = ParamStore(tmp_path)
        store.save(make_record())
        before = store.path.read_bytes()
        with pytest.raises(DomainError, match=match):
            store.save(make_record(model=model, params=params))
        assert store.path.read_bytes() == before
        assert [r.record_id for r in store.list_records()] == [1]

    def test_rejected_first_save_creates_no_file(self, tmp_path):
        store = ParamStore(tmp_path / "fresh")
        with pytest.raises(DomainError):
            store.save(make_record(params={"v0": 0.01}))
        assert not store.path.exists()


@pytest.fixture()
def decoded(monkeypatch):
    """Lines handed to the JSON decoder during the test."""
    lines = []
    decode = svcal.store._record_from_json

    def counting(line):
        lines.append(line)
        return decode(line)

    monkeypatch.setattr(svcal.store, "_record_from_json", counting)
    return lines


class TestDecodeMemo:
    def test_unchanged_file_decodes_nothing(self, tmp_path, decoded):
        store = ParamStore(tmp_path)
        for i in range(3):
            store.save(make_record(params=dict(PARAMS, v0=0.01 + 0.01 * i)))
        first = store.latest("heston")
        decoded.clear()
        assert store.latest("heston") is first
        assert ParamStore(tmp_path).latest("heston") is first  # memo outlives the instance
        assert len(ParamStore(tmp_path).list_records()) == 3
        assert decoded == []

    def test_append_decodes_only_the_new_line(self, tmp_path, decoded):
        store = ParamStore(tmp_path)
        store.save(make_record())
        store.latest("heston")
        decoded.clear()
        rid = store.save(make_record(ts="2008-09-17T08:00:00+00:00", params=dict(PARAMS, v0=0.02)))
        got = store.latest("heston")
        assert len(decoded) == 1
        assert got.record_id == rid and got.params["v0"] == 0.02

    def test_external_append_is_seen(self, tmp_path, decoded):
        store = ParamStore(tmp_path)
        store.save(make_record())
        store.latest("heston")
        rec = make_record(ts="2008-09-18T08:00:00+00:00", params=dict(PARAMS, v0=0.03))
        with store.path.open("a") as fh:  # another writer's append
            fh.write(svcal.store._record_to_json(replace(rec, record_id=2)) + "\n")
        decoded.clear()
        assert store.latest("heston").params["v0"] == 0.03
        assert len(decoded) == 1

    def test_same_length_rewrite_returns_new_content(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record(params=dict(PARAMS, v0=0.01)))
        assert store.latest("heston").params["v0"] == 0.01
        old = store.path.stat()
        text = store.path.read_text()
        assert text.count('"v0": 0.01') == 1
        store.path.write_text(text.replace('"v0": 0.01', '"v0": 0.07'))
        os.utime(store.path, ns=(old.st_atime_ns, old.st_mtime_ns))
        assert store.path.stat().st_size == old.st_size
        assert store.path.stat().st_mtime_ns == old.st_mtime_ns
        assert store.latest("heston").params["v0"] == 0.07

    def test_concurrent_readers_see_whole_files(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        store = ParamStore(tmp_path)
        for _ in range(30):
            store.save(make_record())
        lines = store.path.read_text().splitlines(keepends=True)
        store.path.write_text("".join(lines[:20]))

        def grow():  # whole-file replaces, so no reader can see a torn line
            for n in range(21, 31):
                tmp = tmp_path / "params.tmp"
                tmp.write_text("".join(lines[:n]))
                os.replace(tmp, store.path)

        read = lambda: [r.record_id for r in ParamStore(tmp_path).list_records()]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                writer = pool.submit(grow)
                got = [f.result(timeout=60) for f in [pool.submit(read) for _ in range(60)]]
                writer.result(timeout=60)
        finally:
            sys.setswitchinterval(old)
        for ids in got:
            assert 20 <= len(ids) <= 30 and ids == list(range(1, len(ids) + 1))
        assert read() == list(range(1, 31))

    def test_truncated_file_reads_back_truncated(self, tmp_path):
        store = ParamStore(tmp_path)
        for _ in range(3):
            store.save(make_record())
        assert len(store.list_records()) == 3
        first = store.path.read_text().splitlines(keepends=True)[0]
        store.path.write_text(first)
        assert [r.record_id for r in store.list_records()] == [1]
        entry = svcal.store._DECODED[store.path]  # the memo holds the current file's one record only
        assert entry.data == store.path.read_bytes() and [r.record_id for r in entry.records] == [1]
        assert store.save(make_record()) == 2

    @pytest.mark.parametrize("bad", ['{"record_id": 5, "model_kind": "hes', '{"record_id": 5}'],
                             ids=["not_json", "not_a_record"])
    def test_corrupt_line_appended_after_a_cached_read_names_its_line(self, tmp_path, bad):
        store = ParamStore(tmp_path)
        for _ in range(3):
            store.save(make_record())
        store.latest("heston")
        good = svcal.store._record_to_json(replace(make_record(), record_id=6))
        with store.path.open("a") as fh:  # a blank line 4, the bad line 5, then a good line
            fh.write("\n" + bad + "\n" + good + "\n")
        with pytest.raises(DomainError, match=r"params\.jsonl line 5: not a parameter record"):
            store.latest("heston")
        with pytest.raises(DomainError, match="line 5"):
            store.save(make_record())

    def test_torn_tail_completed_by_a_later_write_is_decoded(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        rec = make_record(ts="2008-09-17T08:00:00+00:00", params=dict(PARAMS, v0=0.05))
        line = svcal.store._record_to_json(replace(rec, record_id=2)) + "\n"
        with store.path.open("a") as fh:
            fh.write(line[:40])
        assert [r.record_id for r in store.list_records()] == [1]
        assert store.latest("heston").record_id == 1
        with store.path.open("a") as fh:
            fh.write(line[40:])
        assert store.latest("heston") == replace(rec, record_id=2)
        assert [r.record_id for r in store.list_records()] == [1, 2]

    def test_latest_after_an_external_append_is_the_appended_record(self, tmp_path, decoded):
        store = ParamStore(tmp_path)
        store.save(make_record())
        sz = make_record(model="schobel_zhu", params=dict(PARAMS, v0=0.1, theta=0.1))
        store.save(sz)
        assert store.latest("heston").record_id == 1
        newer = replace(make_record(ts="2008-09-17T08:00:00+00:00", params=dict(PARAMS, v0=0.03)), record_id=3)
        older = replace(make_record(ts="2008-09-15T08:00:00+00:00", params=dict(PARAMS, v0=0.04)), record_id=4)
        with store.path.open("a") as fh:  # another writer's appends, the second one dated earlier
            fh.write(svcal.store._record_to_json(newer) + "\n" + svcal.store._record_to_json(older) + "\n")
        decoded.clear()
        assert store.latest("heston") == newer
        assert store.latest("schobel_zhu").record_id == 2
        assert len(decoded) == 2

    def test_a_last_line_without_its_line_end_is_not_an_append_point(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        second = svcal.store._record_to_json(replace(make_record(), record_id=2))
        with store.path.open("a") as fh:  # a whole record, but no newline after it
            fh.write(second)
        assert [r.record_id for r in store.list_records()] == [1, 2]
        with store.path.open("a") as fh:  # another writer's line runs on from it: one line, not JSON
            fh.write(second + "\n")
        assert [r.record_id for r in store.list_records()] == [1]

    def test_a_line_end_split_by_an_append_is_counted_once(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        second = svcal.store._record_to_json(replace(make_record(), record_id=2)).encode()
        with store.path.open("ab") as fh:  # "\r" ends a line in text mode, and so does "\r\n"
            fh.write(second + b"\r")
        assert [r.record_id for r in store.list_records()] == [1, 2]
        with store.path.open("ab") as fh:
            fh.write(b'\n{"record_id": 3}\n' + second + b"\n")
        with pytest.raises(DomainError, match="line 3"):
            store.list_records()

    def test_times_that_do_not_compare_fail_only_that_kinds_latest(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record(model="schobel_zhu", params=dict(PARAMS, v0=0.1, theta=0.1)))
        store.save(make_record())
        store.latest("heston")
        with store.path.open("a") as fh:  # a time without a UTC offset does not order against one with it
            fh.write(svcal.store._record_to_json(replace(make_record(ts="2008-09-17T08:00:00"), record_id=3)) + "\n")
        assert [r.record_id for r in store.list_records()] == [1, 2, 3]
        assert store.latest("schobel_zhu").record_id == 1
        assert store.save(make_record()) == 4
        with pytest.raises(DomainError, match=r"\(time, id\) of record 3 does not order against the other 'heston'"):
            store.latest("heston")
        with pytest.raises(DomainError, match=r"\(time, id\) of record 3 does not order"):
            store.latest("heston", as_of="2008-09-18T00:00:00+00:00")

    def test_ids_that_do_not_compare_at_one_time_fail_that_kinds_latest(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        with store.path.open("a") as fh:  # written by hand at the same time, with no record_id
            fh.write(svcal.store._record_to_json(make_record()) + "\n")
        assert [r.record_id for r in store.list_records()] == [1, None]
        with pytest.raises(DomainError, match=r"\(time, id\) of record None does not order against the other 'heston'"):
            store.latest("heston")

    def test_a_record_of_a_kind_that_is_not_a_string_reads_back(self, tmp_path):
        store = ParamStore(tmp_path)
        store.save(make_record())
        store.latest("heston")
        with store.path.open("a") as fh:  # written by hand, past save's checks
            fh.write(svcal.store._record_to_json(replace(make_record(model=["heston"]), record_id=2)) + "\n")
        assert [r.record_id for r in store.list_records()] == [1, 2]
        assert store.latest("heston").record_id == 1
        assert store.save(make_record()) == 3

    def test_save_after_cached_reads_takes_the_next_id(self, tmp_path):
        store = ParamStore(tmp_path)
        for _ in range(3):
            store.save(make_record())
        store.latest("heston")
        with store.path.open("a") as fh:  # other writers' records: one with a lower id, then a higher one
            fh.write(svcal.store._record_to_json(replace(make_record(), record_id=2)) + "\n")
        assert [r.record_id for r in store.list_records()] == [1, 2, 3, 2]
        assert store.save(make_record()) == 4
        with store.path.open("a") as fh:
            fh.write(svcal.store._record_to_json(replace(make_record(), record_id=7)) + "\n")
        assert store.latest("heston").record_id == 7
        assert ParamStore(tmp_path).save(make_record()) == 8
        assert [r.record_id for r in store.list_records()] == [1, 2, 3, 2, 4, 7, 8]


KINDS = ("heston", "schobel_zhu")
STAMPS = tuple(f"2008-09-1{d}T08:00:00+00:00" for d in range(4))
ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"])  # text mode reads all three as line ends
STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("save"), st.sampled_from(KINDS), st.sampled_from(STAMPS)),
    st.tuples(st.just("append"), st.sampled_from(KINDS), st.sampled_from(STAMPS), st.integers(1, 9), ENDINGS),
    st.tuples(st.just("truncate"), st.integers(0, 30)),
    st.tuples(st.just("digit"), st.integers(0, 10**4), st.integers(1, 9)),
    st.tuples(st.just("tear"), st.sampled_from(KINDS), st.sampled_from(STAMPS), st.integers(0, 10**4), ENDINGS),
    st.tuples(st.just("complete")),
), max_size=12)


class TestReadsMatchAFreshDecode:
    """Whatever happens to the file, a read through the memo equals a read with the memo cleared."""

    @staticmethod
    def _line(kind, ts, record_id, ending=b"\n") -> bytes:
        rec = replace(make_record(ts=ts, model=kind), record_id=record_id)
        return svcal.store._record_to_json(rec).encode() + ending

    @staticmethod
    def _observe(store):
        """What the reads return, or the message of the DomainError they raise."""
        def latest(kind, as_of=None):
            try:
                return store.latest(kind, as_of)
            except RecordNotFoundError:
                return None

        try:
            return ([latest(k) for k in KINDS], [latest(k, STAMPS[2]) for k in KINDS], store.list_records())
        except DomainError as exc:
            return str(exc)

    def _apply(self, store, op, pending):
        """Run one operation on the store file; returns the rest of a torn line, if one was just torn."""
        path = store.path
        data = path.read_bytes() if path.exists() else b""
        if op[0] == "save":
            try:
                record_id = store.save(make_record(ts=op[2], model=op[1]))
            except DomainError:
                return None  # the file holds a corrupt line: the save leaves it as it is
            ids = [r.record_id for r in store.list_records()]
            assert ids[-1] == record_id == 1 + max(ids[:-1], default=0)
        elif op[0] == "append":
            with path.open("ab") as fh:  # another writer's line, glued to a last line without its newline
                fh.write(self._line(*op[1:]))
        elif op[0] == "truncate":
            lines = data.splitlines(keepends=True)
            path.write_bytes(b"".join(lines[:op[1] % (len(lines) + 1)]))
        elif op[0] == "digit":
            at = [i for i, byte in enumerate(data) if 48 <= byte <= 57]
            if at:
                i = at[op[1] % len(at)]
                path.write_bytes(data[:i] + str((data[i] - 48 + op[2]) % 10).encode() + data[i + 1:])
        elif op[0] == "tear":
            line = self._line(op[1], op[2], 99, op[4])
            cut = len(line) - 1 - op[3] % (len(line) - 1)  # down to the whole record without its line end
            with path.open("ab") as fh:
                fh.write(line[:cut])
            return line[cut:]
        elif pending is not None:  # complete the torn line
            with path.open("ab") as fh:
                fh.write(pending)
        return None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ops=STORE_OPS)
    def test_every_read_matches_a_fresh_decode(self, ops):
        logging.getLogger("svcal.store").disabled = True  # torn-line warnings are expected here
        try:
            with tempfile.TemporaryDirectory() as root:
                store = ParamStore(root)
                store.save(make_record())
                pending = None
                for op in ops:
                    pending = self._apply(store, op, pending)
                    cached = self._observe(store)
                    kept = dict(svcal.store._DECODED)
                    svcal.store._DECODED.clear()
                    fresh = self._observe(store)
                    svcal.store._DECODED.clear()
                    svcal.store._DECODED.update(kept)  # the next operation reads through this memo
                    assert cached == fresh, op
                    if not isinstance(fresh, str):
                        records = fresh[2]
                        for kind, got in zip(KINDS, fresh[0]):  # latest is the greatest (time, id), first in file order
                            mine = [r for r in records if r.model_kind == kind]
                            keys = [(datetime.fromisoformat(r.timestamp), r.record_id) for r in mine]
                            assert got == (mine[keys.index(max(keys))] if mine else None)
        finally:
            logging.getLogger("svcal.store").disabled = False


class TestTornTail:
    TORN = '{"record_id": 2, "model_kind": "hes'

    def _store_with(self, tmp_path, n=1):
        store = ParamStore(tmp_path)
        for _ in range(n):
            store.save(make_record())
        return store

    @pytest.mark.parametrize("newline", ["", "\n"])
    def test_torn_last_line_is_skipped_with_a_warning(self, tmp_path, caplog, newline):
        store = self._store_with(tmp_path)
        with store.path.open("a") as fh:
            fh.write(self.TORN + newline)
        with caplog.at_level("WARNING", logger="svcal.store"):
            assert [r.record_id for r in store.list_records()] == [1]
        assert "torn last line 2" in caplog.text

    def test_a_line_after_a_skipped_torn_line_makes_it_corrupt(self, tmp_path):
        store = self._store_with(tmp_path)
        with store.path.open("a") as fh:
            fh.write(self.TORN + "\n")
        assert [r.record_id for r in store.list_records()] == [1]
        with store.path.open("a") as fh:
            fh.write(svcal.store._record_to_json(replace(make_record(), record_id=3)) + "\n")
        with pytest.raises(DomainError, match="line 2"):
            store.list_records()

    @pytest.mark.parametrize("newline", ["", "\n"])
    def test_save_cuts_a_torn_tail_and_starts_a_fresh_line(self, tmp_path, newline):
        store = self._store_with(tmp_path)
        with store.path.open("a") as fh:
            fh.write(self.TORN + newline)
        assert store.save(make_record()) == 2
        lines = store.path.read_text().splitlines(keepends=True)
        assert len(lines) == 2 and all(line.endswith("}\n") for line in lines)
        assert [r.record_id for r in ParamStore(tmp_path).list_records()] == [1, 2]

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"])
    def test_save_keeps_records_whose_lines_end_in_a_carriage_return(self, tmp_path, end):
        store = ParamStore(tmp_path)
        store.path.parent.mkdir(exist_ok=True)
        line = lambda k: svcal.store._record_to_json(replace(make_record(), record_id=k)).encode()
        store.path.write_bytes(line(1) + end + line(2) + end)
        assert store.save(make_record()) == 3
        assert [r.record_id for r in ParamStore(tmp_path).list_records()] == [1, 2, 3]

    def test_save_cuts_a_torn_line_that_blank_lines_follow(self, tmp_path):
        store = self._store_with(tmp_path)
        with store.path.open("a") as fh:
            fh.write(self.TORN + "\n\n \n")
        assert [r.record_id for r in store.list_records()] == [1]
        assert store.save(make_record()) == 2
        assert [r.record_id for r in ParamStore(tmp_path).list_records()] == [1, 2]

    def test_complete_last_line_without_its_newline_is_kept(self, tmp_path):
        store = self._store_with(tmp_path)
        store.path.write_text(store.path.read_text().rstrip("\n"))
        assert store.save(make_record()) == 2
        assert [r.record_id for r in store.list_records()] == [1, 2]

    @pytest.mark.parametrize("bad", [TORN, '{"record_id": 2}', "[1, 2]"])
    def test_corrupt_line_before_the_last_raises_naming_its_number(self, tmp_path, bad):
        store = self._store_with(tmp_path, n=2)
        lines = store.path.read_text().splitlines(keepends=True)
        store.path.write_text(lines[0] + bad + "\n" + lines[1])
        with pytest.raises(DomainError, match="line 2"):
            store.list_records()
        with pytest.raises(DomainError, match="line 2"):
            store.save(make_record())
        assert store.path.read_text() == lines[0] + bad + "\n" + lines[1]  # left as it was

    @pytest.mark.parametrize("record_id", ["7", 7.0, True])
    def test_a_record_id_that_is_not_an_integer_is_a_corrupt_line(self, tmp_path, record_id):
        store = self._store_with(tmp_path)
        line = json.dumps(dict(json.loads(svcal.store._record_to_json(make_record())), record_id=record_id))
        with store.path.open("a") as fh:
            fh.write(line + "\n")
        before = store.path.read_text()
        with pytest.raises(DomainError, match="line 2: not a parameter record: .*record_id must be an integer"):
            store.save(make_record())
        assert store.path.read_text() == before

    def test_last_line_that_is_json_but_not_a_record_raises(self, tmp_path):
        store = self._store_with(tmp_path)
        with store.path.open("a") as fh:
            fh.write('{"record_id": 2}\n')
        with pytest.raises(DomainError, match="line 2"):
            store.latest("heston")


class TestConcurrentWrites:
    def test_threaded_saves_keep_ids_unique_and_ordered(self, tmp_path):
        # single-writer contract: one store instance serializes its writers
        from concurrent.futures import ThreadPoolExecutor

        store = ParamStore(tmp_path)
        ts = "2008-09-16T08:00:00+00:00"
        with ThreadPoolExecutor(max_workers=8) as pool:
            ids = list(pool.map(lambda i: store.save(make_record(ts=ts)), range(24)))
        assert sorted(ids) == list(range(1, 25))
        # identical timestamps: the id breaks the tie, latest is the last save
        assert store.latest("heston").record_id == 24

    def test_saves_from_separate_processes_keep_ids_unique_and_monotone(self, tmp_path):
        # the flock serializes each save's read-id-and-append across processes, so
        # no writer cuts another's half-written record, taking it for a torn tail
        import subprocess
        from pathlib import Path

        writer = (
            "import sys\n"
            "from svcal.store import ParamRecord, ParamStore\n"
            "store = ParamStore(sys.argv[1])\n"
            "for i in range(15):\n"
            "    store.save(ParamRecord('heston', " + repr(PARAMS) + ", '2008-09-16T08:00:00+00:00', 'd',\n"
            "                           diagnostics={'pad': 'x' * 20000, 'writer': sys.argv[2]}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(svcal.store.__file__).resolve().parents[1])] + sys.path))
        procs = [subprocess.Popen([sys.executable, "-c", writer, str(tmp_path), str(k)], env=env,
                                  stderr=subprocess.PIPE) for k in range(4)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        lines = ParamStore(tmp_path).path.read_text().splitlines()
        records = [json.loads(line) for line in lines]  # every line decodes
        assert [r["record_id"] for r in records] == list(range(1, 61))
        assert sorted(r["diagnostics"]["writer"] for r in records) == sorted(str(k) for k in range(4) for _ in range(15))


class TestLiveCalibrate:
    def test_matches_upfront_and_leaves_store_untouched(self, tmp_path):
        rows = parse_quotes(QUOTES_CSV)
        cfg = RunConfig(strategy="tenor")
        from svcal.workflows import run_strategy

        upfront = run_strategy(rows, cfg)
        live = live_calibrate(rows, cfg)
        assert [lbl for lbl, _ in live] == [lbl for lbl, _ in upfront]
        for (_, a), (_, b) in zip(live, upfront):
            assert a.params == b.params
        store = ParamStore(tmp_path)
        assert not store.path.exists()

    def test_single_tenor_mode(self):
        rows = parse_quotes(QUOTES_CSV)
        cfg = RunConfig(strategy="tenor")
        res = live_calibrate(rows, cfg, tenor="3M")
        assert res.params.kappa == pytest.approx(1.5 / 0.2491694, rel=1e-12)
        with pytest.raises(DomainError):
            live_calibrate(rows, cfg, tenor="9M")

    def test_tenor_strategy_refuses_another_model_and_a_fix_set(self):
        from svcal.calibration import FixSet

        rows = parse_quotes(QUOTES_CSV)
        with pytest.raises(DomainError, match="'tenor' strategy fits heston only"):
            live_calibrate(rows, RunConfig(strategy="tenor", model_kind="schobel_zhu"), tenor="3M")
        with pytest.raises(DomainError, match="'tenor' strategy takes no fix set"):
            live_calibrate(rows, RunConfig(strategy="tenor", fix=FixSet(fixed={"kappa": 2.0})))
