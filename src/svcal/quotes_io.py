"""Quote-file CSV schema: parse, validate, emit.

Columns (header required, finite decimals; a ``%`` suffix divides by 100):

    tenor,expiry_years,forward,discount,atm_vol,ms25,rr25

Rows must have strictly increasing expiries.  Raw field text is retained so
that pass-through emission (e.g. a markdown with weight 1) is byte-exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from .errors import DomainError, QuoteParseError
from .fx_quotes import TenorQuote
from .models import MarketSlice

HEADER = ("tenor", "expiry_years", "forward", "discount", "atm_vol", "ms25", "rr25")


@dataclass(frozen=True)
class QuoteRow:
    tenor_label: str
    expiry: float
    forward: float
    discount: float
    atm_vol: float
    ms25: float
    rr25: float
    raw: Tuple[str, ...]  # original field text, len 7

    def quote(self) -> TenorQuote:
        return TenorQuote(self.tenor_label, self.expiry, self.atm_vol, self.ms25, self.rr25)

    def slice(self) -> MarketSlice:
        return MarketSlice(self.forward, self.discount, self.expiry)


def parse_number(text: str) -> float:
    t = text.strip()
    value = float(t[:-1]) / 100.0 if t.endswith("%") else float(t)
    if not math.isfinite(value):
        raise DomainError(f"expected a finite number, got {t!r}")
    return value


def _read_rows(text: str, header: Tuple[str, ...], what: str, none: str, parse, check=None) -> list:
    """The rows of a CSV with ``header``, each ``parse(fields)`` -> (expiry, row).

    Blank lines are skipped, expiries must strictly increase, and a file
    with no rows raises ``none`` on its last line.  A row's first fault is
    reported, in this order: its field count, what ``parse`` raises (a
    ``ValueError``, :class:`DomainError` included), its expiry order, then
    what ``check(row)`` raises; each as a :class:`QuoteParseError` on its line.
    """
    lines = text.splitlines()
    if not lines:
        raise QuoteParseError(1, f"empty {what} file")
    if tuple(f.strip() for f in lines[0].split(",")) != header:
        raise QuoteParseError(1, f"expected header {','.join(header)!r}, got {lines[0]!r}")
    rows = []
    prev = 0.0
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = tuple(f.strip() for f in line.split(","))
        if len(fields) != len(header):
            raise QuoteParseError(i, f"expected {len(header)} fields, got {len(fields)}")
        try:
            expiry, row = parse(fields)
            if expiry <= prev:
                raise DomainError(f"expiries must be strictly increasing, got {expiry}")
            if check is not None:
                check(row)
        except ValueError as exc:
            raise QuoteParseError(i, str(exc)) from exc
        prev = expiry
        rows.append(row)
    if not rows:
        raise QuoteParseError(len(lines), none)
    return rows


def _quote_row(fields: Tuple[str, ...]) -> Tuple[float, QuoteRow]:
    row = QuoteRow(fields[0], *(parse_number(f) for f in fields[1:]), fields)
    row.quote()
    row.slice()
    return row.expiry, row


def parse_quotes(text: str) -> List[QuoteRow]:
    return _read_rows(text, HEADER, "quote", "no quotes", _quote_row)


def load_quotes(path: Union[str, Path]) -> List[QuoteRow]:
    return parse_quotes(Path(path).read_text())


def emit_quotes(rows: Sequence[QuoteRow]) -> str:
    """Rows back to CSV text, preserving each row's raw field text."""
    out = [",".join(HEADER)]
    for row in rows:
        out.append(",".join(row.raw))
    return "\n".join(out) + "\n"


def scale_row(row: QuoteRow, lam: float) -> QuoteRow:
    """Markdown helper: ms25/rr25 scaled by lam, raw text kept when unchanged."""
    if lam == 1.0:
        return row
    ms, rr = row.ms25 * lam, row.rr25 * lam
    raw = row.raw[:5] + (repr(ms), repr(rr))
    return QuoteRow(row.tenor_label, row.expiry, row.forward, row.discount,
                    row.atm_vol, ms, rr, raw)


def quotes_digest(data: Union[str, bytes, Path]) -> str:
    """sha256 of the quote file content."""
    if isinstance(data, Path):
        payload = data.read_bytes()
    elif isinstance(data, str):
        payload = data.encode()
    else:
        payload = data
    return hashlib.sha256(payload).hexdigest()


VARSWAP_HEADER = ("expiry_years", "fair_variance")


def _varswap_point(fields: Tuple[str, ...]) -> Tuple[float, Tuple[float, float]]:
    point = (parse_number(fields[0]), parse_number(fields[1]))
    return point[0], point


def _check_variance(point: Tuple[float, float]) -> None:
    if point[1] <= 0:
        raise DomainError(f"fair variance must be > 0, got {point[1]}")


def parse_varswap_curve(text: str) -> List[Tuple[float, float]]:
    """Quoted variance-swap curve CSV: header + (expiry_years, fair_variance) rows."""
    return _read_rows(text, VARSWAP_HEADER, "variance-swap", "no variance-swap points", _varswap_point, _check_variance)


def load_varswap_curve(path: Union[str, Path]) -> List[Tuple[float, float]]:
    return parse_varswap_curve(Path(path).read_text())
