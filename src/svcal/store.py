"""Timestamped persistence of calibrated parameter sets.

Append-only JSON-lines file, one self-describing record per line.  Floats
are serialized as shortest round-trip decimal text, so a store round trip
is bit-exact.  A save holds an exclusive ``fcntl.flock`` on the store
file from reading the last id to the end of its append, so saves from
threads and from separate processes are serialized.  The append is not
fsynced.

Every read reads the whole file as bytes and compares them with a
module-level memo, one immutable entry per store file: the bytes as last
read and their records.  Bytes equal to the entry's cost no decoding;
bytes that extend the entry's newline-terminated bytes (an append) decode
only the new lines; anything else (a rewrite, a truncation) decodes the
whole file.  So a rewritten, truncated or externally appended file reads
back exactly what is on disk.  Lines are read as text mode reads them
(universal newlines, UTF-8 with undecodable bytes replaced).  Returned
records are shared between calls and are read-only.

A last non-blank line that is not JSON is the torn tail of an interrupted
write: reads skip it with a warning and the next save, splitting lines as
reads do, cuts it off before appending, so every record starts on a fresh
line.  Any other line that does not decode is an error naming its line
number.
"""

from __future__ import annotations

import io
import json
import logging
import os
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - no flock (Windows): saves are serialized per process only
    fcntl = None

from .errors import DomainError, RecordNotFoundError
from .models import model_spec
from .quotes_io import QuoteRow, quotes_digest

log = logging.getLogger(__name__)

ENV_STORE = "SVCAL_STORE"
_FILE_NAME = "params.jsonl"

# store file -> _Decoded entry of its bytes at the last read.  Entries are
# never changed, only replaced in one assignment, so concurrent readers can
# at worst miss the memo and decode again, never return a wrong record.
_DECODED: Dict[Path, "_Decoded"] = {}


@dataclass(frozen=True)
class ParamRecord:
    """One calibrated parameter set: flat params or a per-tenor map.

    Records read from a store are shared by every read of the same line;
    treat ``params`` and ``diagnostics`` as read-only.
    """

    model_kind: str
    params: Mapping
    timestamp: str  # ISO-8601
    quote_digest: str
    strategy: Mapping = field(default_factory=dict)
    diagnostics: Mapping = field(default_factory=dict)
    record_id: Optional[int] = None
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.timestamp:
            raise DomainError("timestamp required")
        datetime.fromisoformat(self.timestamp)  # raises on malformed input
        if not self.quote_digest:
            raise DomainError("quote digest required")
        if not self.params:
            raise DomainError("params required")

    @property
    def is_per_tenor(self) -> bool:
        return _is_per_tenor(self.params)


def _is_per_tenor(params) -> bool:
    return isinstance(params, Mapping) and any(isinstance(v, dict) for v in params.values())


def select_tenor(params, tenor: Optional[str], source: str):
    """``params`` when flat, whatever ``tenor`` is; its ``tenor`` entry when
    per-tenor (a map holding maps).  A per-tenor ``params`` given no tenor,
    or one it lacks, raises :class:`DomainError` naming ``source`` and its
    tenors."""
    if not _is_per_tenor(params):
        return params
    if tenor is None:
        raise DomainError(f"{source} is per-tenor; choose one of {sorted(params)}")
    if tenor not in params:
        raise DomainError(f"tenor {tenor!r} not in {source} (has {sorted(params)})")
    return params[tenor]


def _record_to_json(rec: ParamRecord) -> str:
    payload = {
        "record_id": rec.record_id,
        "model_kind": rec.model_kind,
        "params": rec.params,
        "timestamp": rec.timestamp,
        "quote_digest": rec.quote_digest,
        "strategy": rec.strategy,
        "diagnostics": rec.diagnostics,
        "warnings": list(rec.warnings),
    }
    return json.dumps(payload, sort_keys=True)


def _record_from_json(line: str) -> ParamRecord:
    d = json.loads(line)
    rec = ParamRecord(
        model_kind=d["model_kind"],
        params=d["params"],
        timestamp=d["timestamp"],
        quote_digest=d["quote_digest"],
        strategy=d.get("strategy", {}),
        diagnostics=d.get("diagnostics", {}),
        record_id=d.get("record_id"),
        warnings=tuple(d.get("warnings", ())),
    )
    # save numbers the next record from the largest id, so an id must be an int (not a bool)
    if rec.record_id is not None and type(rec.record_id) is not int:
        raise ValueError(f"record_id must be an integer, got {rec.record_id!r}")
    return rec


@dataclass(frozen=True)
class _Decoded:
    """A store file's bytes as last read and what they decode to."""

    data: bytes
    records: Tuple[ParamRecord, ...]
    lines: int  # lines read, blank ones included
    torn: Optional[Tuple[int, Exception]]  # (line number, error) of a last line that is not JSON


_NO_RECORDS = _Decoded(b"", (), 0, None)


def _decode(path: Path, data: bytes, base: _Decoded) -> _Decoded:
    """The entry for ``data``, whose first bytes are ``base.data``: only the lines after those are decoded.

    A last non-blank line that is not JSON is kept as the torn tail (a torn
    write); any other undecodable line raises :class:`DomainError` naming
    its line number.
    """
    new = []
    torn = None
    line_no = base.lines
    text = io.TextIOWrapper(io.BytesIO(data[len(base.data):]), encoding="utf-8", errors="replace")
    for line_no, line in enumerate(text, base.lines + 1):  # line by line, so no decoded copy of the text is held
        if not line.strip():
            continue
        if torn is not None:
            raise DomainError(f"{path} line {torn[0]}: not a parameter record: {torn[1]}")
        try:
            new.append(_record_from_json(line))
        except json.JSONDecodeError as exc:
            torn = (line_no, exc)
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"{path} line {line_no}: not a parameter record: {exc!r}") from exc
    return _Decoded(data, base.records + tuple(new), line_no, torn)


def _start_fresh_line(fh) -> None:
    """Ready a store file, opened for binary append and read, for a record on a fresh line.

    Lines end as reads end them ("\\n", "\\r" or "\\r\\n").  A last non-blank
    line that is not JSON (the torn tail of an interrupted write) is cut off
    with the blank lines after it; a complete last line without its line end
    gets a newline.
    """
    fh.seek(0)
    data = fh.read()
    end = len(data)
    while end and data[end - 1:end].isspace():  # no stripped copy of the file
        end -= 1
    start = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
    if end:
        try:
            json.loads(data[start:end].decode("utf-8", "replace"))
        except ValueError:
            fh.truncate(start)
            log.warning("%s: cut torn last line (an interrupted write) before appending", fh.name)
            return
    if data and not data.endswith((b"\n", b"\r")):
        fh.write(b"\n")


def _validate_params(rec: ParamRecord) -> None:
    """Raise :class:`DomainError` unless the params build a model of the record's kind."""
    spec = model_spec(rec.model_kind)
    sets = rec.params.items() if rec.is_per_tenor else [(None, rec.params)]
    for tenor, vals in sets:
        where = "" if tenor is None else f"tenor {tenor!r}: "
        try:
            spec.build(vals)
        except DomainError as exc:
            raise DomainError(f"{where}{exc}") from exc


def default_store_path() -> Path:
    return Path(os.environ.get(ENV_STORE, "./svcal_store"))


class ParamStore:
    """Append-only record store rooted at a directory."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_store_path()
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        return self.root / _FILE_NAME

    def _read_all(self) -> Tuple[ParamRecord, ...]:
        """Every record in file order; the memo decodes only what changed on disk.

        A last non-blank line that is not JSON is skipped with a warning (a torn
        write); any other undecodable line raises :class:`DomainError`
        naming its line number.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            _DECODED.pop(self.path, None)
            return ()
        entry = _DECODED.get(self.path, _NO_RECORDS)
        if data != entry.data:
            appended = entry.torn is None and entry.data.endswith(b"\n") and data.startswith(entry.data)
            entry = _decode(self.path, data, entry if appended else _NO_RECORDS)
            _DECODED[self.path] = entry
        if entry.torn is not None:
            log.warning("%s: skipped torn last line %d (an interrupted write): %s", self.path, *entry.torn)
        return entry.records

    def save(self, record: ParamRecord, quotes: Union[str, bytes, Path, None] = None) -> int:
        """Persist the record; returns its id (unique, monotone).

        The params must build a model of ``record.model_kind`` (every tenor
        of a per-tenor map must); otherwise :class:`DomainError` is raised
        and the file is left untouched.  When the source quotes are
        supplied, their digest is checked against the record's; a mismatch
        stores a ``digest_mismatch`` warning flag.
        """
        _validate_params(record)
        with self._lock:
            try:
                mismatch = quotes is not None and quotes_digest(quotes) != record.quote_digest
                self.root.mkdir(parents=True, exist_ok=True)
                with self.path.open("ab+") as fh:
                    if fcntl is not None:
                        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes, after the write
                    existing = self._read_all()
                    next_id = 1 + max((r.record_id or 0) for r in existing) if existing else 1
                    rec = replace(record, record_id=next_id)
                    if mismatch:
                        rec = replace(rec, warnings=rec.warnings + ("digest_mismatch",))
                    _start_fresh_line(fh)
                    fh.write((_record_to_json(rec) + "\n").encode())
                return next_id
            except OSError as exc:
                raise DomainError(f"store write to {self.path} failed: {exc}") from exc

    def load(self, record_id: int) -> ParamRecord:
        """The record with this id (shared and read-only)."""
        for rec in self._read_all():
            if rec.record_id == record_id:
                return rec
        raise RecordNotFoundError(f"no record with id {record_id} in {self.path}")

    def latest(self, model_kind: str, as_of: Union[str, datetime, None] = None) -> ParamRecord:
        """Most recent record for the model kind at or before ``as_of``.

        The record is shared with other reads of the store: read-only.
        """
        cutoff = None
        if as_of is not None:
            cutoff = as_of if isinstance(as_of, datetime) else datetime.fromisoformat(as_of)
        best = None
        for rec in self._read_all():
            if rec.model_kind != model_kind:
                continue
            key = (datetime.fromisoformat(rec.timestamp), rec.record_id)
            try:
                if (cutoff is None or key[0] <= cutoff) and (best is None or key > best[0]):
                    best = (key, rec)
            except TypeError as exc:  # naive against aware times, or ids that do not compare at equal times
                raise DomainError(f"{self.path}: the (time, id) of record {rec.record_id} does not order "
                                  f"against the other {model_kind!r} records or the cutoff: {exc}") from None
        if best is None:
            raise RecordNotFoundError(
                f"no {model_kind!r} record at or before {as_of}" if as_of
                else f"no {model_kind!r} record in {self.path}"
            )
        return best[1]

    def list_records(self, model_kind: Optional[str] = None) -> List[ParamRecord]:
        """Records in file order, optionally of one model kind (read-only)."""
        return [r for r in self._read_all() if model_kind is None or r.model_kind == model_kind]


def live_calibrate(rows: Sequence[QuoteRow], config, tenor: Optional[str] = None):
    """Calibrate at valuation time without touching any store.

    Delegates to the same strategy runner as the up-front workflow, so
    identical inputs produce identical parameters.  For the tenor strategy,
    ``tenor`` restricts the run to the one maturity of interest and a single
    result is returned; otherwise a list of (label, result) pairs.
    """
    from .workflows import run_strategy

    use_rows = list(rows)
    if tenor is not None:
        use_rows = [r for r in use_rows if r.tenor_label == tenor]
        if not use_rows:
            raise DomainError(f"tenor {tenor!r} not present in quotes")
    results = run_strategy(use_rows, config)
    if tenor is not None or config.strategy != "tenor":
        return results[0][1]
    return results
