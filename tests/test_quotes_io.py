import pytest

from svcal.errors import DomainError, QuoteParseError
from svcal.quotes_io import (
    emit_quotes,
    parse_number,
    parse_quotes,
    parse_varswap_curve,
    quotes_digest,
    scale_row,
)

GOOD = (
    "tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n"
    "3M,0.25,1.0,1.0,12.70%,0.28%,-0.55%\n"
    "1Y,1.0,1.02,0.99,0.115,0.004,-0.0055\n"
)


class TestParse:
    def test_percent_and_decimal_units(self):
        rows = parse_quotes(GOOD)
        assert rows[0].atm_vol == pytest.approx(0.1270)
        assert rows[0].rr25 == pytest.approx(-0.0055)
        assert rows[1].atm_vol == 0.115
        assert parse_number(" 12.5% ") == 0.125
        assert parse_number("0.125") == 0.125

    def test_header_required(self):
        with pytest.raises(QuoteParseError, match="line 1"):
            parse_quotes("a,b,c\n1,2,3\n")

    def test_field_count(self):
        with pytest.raises(QuoteParseError, match="line 2"):
            parse_quotes("tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n1Y,1.0,1.0\n")

    def test_expiries_strictly_increasing(self):
        bad = (
            "tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n"
            "1Y,1.0,1.0,1.0,11%,0%,0%\n"
            "6M,0.5,1.0,1.0,12%,0%,0%\n"
        )
        with pytest.raises(QuoteParseError, match="line 3"):
            parse_quotes(bad)

    def test_row_invariants_carry_line_numbers(self):
        bad = (
            "tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n"
            "1Y,1.0,1.0,1.0,-11%,0%,0%\n"
        )
        with pytest.raises(QuoteParseError, match="line 2"):
            parse_quotes(bad)

    def test_blank_lines_skipped(self):
        rows = parse_quotes(GOOD + "\n\n")
        assert len(rows) == 2


QUOTE_HEADER = "tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n"


def _parse_error(parse, text) -> str:
    with pytest.raises(QuoteParseError) as info:
        parse(text)
    return str(info.value)


class TestFirstFault:
    # a row with several faults reports the first in a fixed order: field
    # count, then numbers, then the row's own invariants, then the expiry order
    def test_quote_row_invariant_before_expiry_order(self):
        text = QUOTE_HEADER + "1Y,1.0,1.0,1.0,11%,0%,0%\n6M,-0.5,1.0,1.0,12%,0%,0%\n"
        assert _parse_error(parse_quotes, text) == "line 3: expiry must be > 0, got -0.5"

    def test_quote_number_before_row_invariant(self):
        text = QUOTE_HEADER + "1Y,1.0,1.0,1.0,-11%,x,0%\n"
        assert _parse_error(parse_quotes, text) == "line 2: could not convert string to float: 'x'"

    def test_quote_file_messages(self):
        assert _parse_error(parse_quotes, "") == "line 1: empty quote file"
        assert _parse_error(parse_quotes, QUOTE_HEADER + "\n") == "line 2: no quotes"
        assert _parse_error(parse_quotes, QUOTE_HEADER + "1Y,1.0\n") == "line 2: expected 7 fields, got 2"
        assert _parse_error(parse_quotes, QUOTE_HEADER + "1Y,1.0,1.0,1.0,11%,0%,0%\n6M,0.5,1.0,1.0,12%,0%,0%\n") == (
            "line 3: expiries must be strictly increasing, got 0.5"
        )


VS_HEADER = "expiry_years,fair_variance\n"


class TestParseVarswapCurve:
    def test_good_curve_with_percent_and_blank_lines(self):
        assert parse_varswap_curve(VS_HEADER + "0.25,1.5%\n\n1.0,0.02\n\n") == [(0.25, 0.015), (1.0, 0.02)]

    def test_bad_header(self):
        assert _parse_error(parse_varswap_curve, "expiry,variance\n0.25,0.01\n") == (
            "line 1: expected header 'expiry_years,fair_variance', got 'expiry,variance'"
        )

    def test_wrong_field_count(self):
        assert _parse_error(parse_varswap_curve, VS_HEADER + "0.25,0.01\n0.5,0.01,7\n") == (
            "line 3: expected 2 fields, got 3"
        )

    def test_non_numeric_field(self):
        assert _parse_error(parse_varswap_curve, VS_HEADER + "0.25,abc\n") == (
            "line 2: could not convert string to float: 'abc'"
        )

    def test_non_increasing_expiry(self):
        assert _parse_error(parse_varswap_curve, VS_HEADER + "0.5,0.01\n\n0.5,0.02\n") == (
            "line 4: expiries must be strictly increasing, got 0.5"
        )

    def test_variance_not_positive(self):
        assert _parse_error(parse_varswap_curve, VS_HEADER + "0.25,0.01\n0.5,0\n") == (
            "line 3: fair variance must be > 0, got 0.0"
        )

    def test_expiry_order_before_variance_sign(self):
        assert _parse_error(parse_varswap_curve, VS_HEADER + "0.5,0.01\n0.25,-0.01\n") == (
            "line 3: expiries must be strictly increasing, got 0.25"
        )
        assert _parse_error(parse_varswap_curve, VS_HEADER + "-0.25,-0.01\n") == (
            "line 2: expiries must be strictly increasing, got -0.25"
        )

    def test_empty_file(self):
        assert _parse_error(parse_varswap_curve, "") == "line 1: empty variance-swap file"

    def test_no_rows(self):
        assert _parse_error(parse_varswap_curve, VS_HEADER + "\n\n") == "line 3: no variance-swap points"

    def test_line_number_attribute(self):
        with pytest.raises(QuoteParseError) as info:
            parse_varswap_curve(VS_HEADER + "0.25,0.01\n0.5\n")
        assert info.value.line_no == 3


class TestNonFinite:
    # nan and infinities parse as floats; each is a fault of its line, in either schema (the columns are
    # covered through the cli in tests/test_cli.py)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "nan%", "-inf%", "1e999"])
    def test_parse_number_rejects_it(self, value):
        with pytest.raises(DomainError, match="expected a finite number"):
            parse_number(value)

    def test_its_line_is_named(self):
        text = GOOD.replace("1.02,0.99,0.115", "1.02,0.99,nan")
        assert _parse_error(parse_quotes, text) == "line 3: expected a finite number, got 'nan'"
        text = VS_HEADER + "0.5,0.04\n1.0,inf\n"
        assert _parse_error(parse_varswap_curve, text) == "line 3: expected a finite number, got 'inf'"


class TestEmit:
    def test_round_trip_preserves_raw_text(self):
        rows = parse_quotes(GOOD)
        assert emit_quotes(rows) == GOOD

    def test_scale_row_identity_keeps_raw(self):
        rows = parse_quotes(GOOD)
        assert scale_row(rows[0], 1.0) is rows[0]

    def test_scale_row_rewrites_full_precision(self):
        rows = parse_quotes(GOOD)
        scaled = scale_row(rows[0], 0.5)
        # re-parse reproduces the scaled floats exactly
        text = emit_quotes([scaled])
        back = parse_quotes(text)[0]
        assert back.ms25 == rows[0].ms25 * 0.5
        assert back.rr25 == rows[0].rr25 * 0.5
        assert back.atm_vol == rows[0].atm_vol


class TestDigest:
    def test_stable_across_input_types(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text(GOOD)
        assert quotes_digest(GOOD) == quotes_digest(GOOD.encode()) == quotes_digest(p)

    def test_sensitive_to_content(self):
        assert quotes_digest(GOOD) != quotes_digest(GOOD + " ")
