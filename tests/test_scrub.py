"""Scrubbing: checksum-gated PESEL detection, phones, emails, URLs."""

import pytest
from hypothesis import given, settings, strategies as st

from forge.datapipe.scrub import (
    PESEL_WEIGHTS,
    format_report,
    pesel_checksum_ok,
    scrub,
)


def checksum_oracle(digits: str) -> bool:
    """Independent restatement of the control-digit rule."""
    weights = [1, 3, 7, 9, 1, 3, 7, 9, 1, 3]
    s = sum(w * int(d) for w, d in zip(weights, digits[:10]))
    return (10 - s % 10) % 10 == int(digits[10])


# -- checksum -----------------------------------------------------------------


def test_known_valid_pesel():
    assert pesel_checksum_ok("44051401359")


def test_control_digit_unique():
    """For a fixed 10-digit prefix, exactly one control digit validates."""
    prefix = "4405140135"
    valid = [d for d in "0123456789" if pesel_checksum_ok(prefix + d)]
    assert valid == ["9"]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789", min_size=11, max_size=11))
def test_checksum_matches_oracle(digits):
    assert pesel_checksum_ok(digits) == checksum_oracle(digits)


def test_weights_constant():
    assert PESEL_WEIGHTS == (1, 3, 7, 9, 1, 3, 7, 9, 1, 3)


# -- category detection ----------------------------------------------------------


def test_pesel_scrubbed():
    out, report = scrub("PESEL: 44051401359")
    assert out == "PESEL: [PESEL]"
    assert report.counts == {"PESEL": 1}


def test_invalid_checksum_untouched_by_pesel():
    text = "number 12345678901 here"
    out, report = scrub(text)
    assert "[PESEL]" not in out
    assert report.counts.get("PESEL", 0) == 0


def test_email_and_url():
    out, report = scrub("a@b.pl and https://x.y/z")
    assert out == "[EMAIL] and [URL]"
    assert report.counts == {"EMAIL": 1, "URL": 1}


def test_www_url():
    out, _ = scrub("see www.example.pl/page now")
    assert out == "see [URL] now"


@pytest.mark.parametrize(
    "number",
    ["123456789", "123 456 789", "123-456-789", "+48 123 456 789", "+48123456789", "0048123456789"],
)
def test_phone_formats(number):
    out, report = scrub(f"zadzwoń: {number}!")
    assert out == "zadzwoń: [PHONE]!"
    assert report.counts == {"PHONE": 1}


def test_phone_not_inside_longer_digit_run():
    out, _ = scrub("id 1234567890 end")  # 10 digits: neither phone nor PESEL
    assert out == "id 1234567890 end"


def test_pesel_beats_phone_on_same_span():
    # 11 checksum-valid digits: PESEL (longer) wins over any phone reading
    out, report = scrub("x 44051401359 y")
    assert out == "x [PESEL] y"
    assert "PHONE" not in report.counts


def test_email_wins_over_embedded_pesel():
    out, _ = scrub("44051401359@x.pl")
    assert out == "[EMAIL]"


def test_multiple_matches_and_report_positions():
    text = "mail a@b.pl tel 123456789 strona https://q.r/s"
    out, report = scrub(text)
    assert out == "mail [EMAIL] tel [PHONE] strona [URL]"
    cats = [m[0] for m in report.matches]
    assert cats == ["EMAIL", "PHONE", "URL"]
    for cat, start, end, surface in report.matches:
        assert text[start:end] == surface


def test_no_pii_text_unchanged():
    text = "Zwykły tekst bez danych osobowych."
    out, report = scrub(text)
    assert out == text
    assert report.counts == {}


# -- idempotence ----------------------------------------------------------------


CORPUS = [
    "PESEL: 44051401359",
    "a@b.pl and https://x.y/z",
    "tel +48 123-456-789 oraz 987 654 321",
    "www.a.pl i mail x.y@z.com, PESEL 02070803628",
    "bez danych",
    "liczby 123 4567 890123456789012345",
]


@pytest.mark.parametrize("text", CORPUS)
def test_scrub_idempotent(text):
    once, _ = scrub(text)
    twice, report = scrub(once)
    assert twice == once
    assert report.counts == {}


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_scrub_idempotent_fuzz(text):
    once, _ = scrub(text)
    assert scrub(once)[0] == once


def test_scrub_corpus_order_and_report():
    reports = [scrub(doc)[1] for doc in ["a@b.pl", "czysto", "44051401359"]]
    assert reports[0].counts == {"EMAIL": 1}
    assert reports[1].counts == {}
    text = format_report({"f1.txt": reports[0], "f2.txt": reports[2]})
    assert "f1.txt\tEMAIL\t1" in text
    assert "f2.txt\tPESEL\t1" in text
    # files keep the given order, not sorted; each file's categories are sorted
    both = scrub("44051401359 a@b.pl")[1]
    assert format_report({"z.txt": both, "a.txt": reports[1], "m.txt": reports[0]}) == (
        "file\tcategory\tcount\nz.txt\tEMAIL\t1\nz.txt\tPESEL\t1\nm.txt\tEMAIL\t1\n"
    )
