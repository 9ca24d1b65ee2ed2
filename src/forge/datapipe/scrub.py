"""Personal-data scrubbing: PESEL ids, phone numbers, emails, URLs.

Each category has a detector; matches are resolved non-overlapping
leftmost-longest (earliest start wins, longer match breaks start ties) and
replaced with a bracketed placeholder. Placeholders contain no digits,
'@', or scheme, so scrubbing is idempotent.

Phone coverage: Polish 9-digit national numbers in 3-3-3 grouping
(spaces, hyphens, or none) and international +48 / 0048 prefixed forms.
Digit lookarounds stop partial matches inside longer digit runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

PESEL_WEIGHTS = (1, 3, 7, 9, 1, 3, 7, 9, 1, 3)


def pesel_checksum_ok(digits: str) -> bool:
    """11-digit PESEL validity: control digit equals (10 - weighted sum mod 10) mod 10."""
    if len(digits) != 11 or not digits.isdigit():
        return False
    total = sum(w * int(d) for w, d in zip(PESEL_WEIGHTS, digits))
    return (10 - total % 10) % 10 == int(digits[10])


_PESEL_RE = re.compile(r"(?<!\d)\d{11}(?!\d)")
_PHONE_RE = re.compile(
    r"""
    (?<![\d+])
    (?:(?:\+48|0048)[ -]?)?          # optional country prefix
    \d{3}[ -]?\d{3}[ -]?\d{3}
    (?!\d)
    """,
    re.VERBOSE,
)
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)*\.[A-Za-z]{2,}")
_URL_RE = re.compile(r"(?:https?://|www\.)[^\s<>\"')\]]+")


@dataclass
class ScrubReport:
    """Match counts per category plus the redacted spans."""

    counts: dict[str, int] = field(default_factory=dict)
    matches: list[tuple[str, int, int, str]] = field(default_factory=list)  # (category, start, end, text)


def _candidates(text: str):
    for m in _URL_RE.finditer(text):
        yield ("URL", m.start(), m.end())
    for m in _EMAIL_RE.finditer(text):
        yield ("EMAIL", m.start(), m.end())
    for m in _PESEL_RE.finditer(text):
        if pesel_checksum_ok(m.group()):
            yield ("PESEL", m.start(), m.end())
    for m in _PHONE_RE.finditer(text):
        yield ("PHONE", m.start(), m.end())


# resolution priority when two categories match the same span
_PRIORITY = {"URL": 0, "EMAIL": 1, "PESEL": 2, "PHONE": 3}


def scrub(text: str) -> tuple[str, ScrubReport]:
    """Replace detected spans with [CATEGORY] placeholders.

    Overlaps resolve leftmost-longest: earlier start wins; at equal start
    the longer match wins; remaining ties go to the category priority order.
    """
    found = sorted(
        _candidates(text), key=lambda c: (c[1], -(c[2] - c[1]), _PRIORITY[c[0]])
    )
    chosen: list[tuple[str, int, int]] = []
    cursor = 0
    for cat, start, end in found:
        if start >= cursor:
            chosen.append((cat, start, end))
            cursor = end
    report = ScrubReport()
    out = []
    prev = 0
    for cat, start, end in chosen:
        out.append(text[prev:start])
        out.append(f"[{cat}]")
        report.counts[cat] = report.counts.get(cat, 0) + 1
        report.matches.append((cat, start, end, text[start:end]))
        prev = end
    out.append(text[prev:])
    return "".join(out), report


def format_report(per_file: dict[str, ScrubReport]) -> str:
    """Sidecar report: one line per file per category, tab-separated, the
    files in the given order and each file's categories sorted."""
    lines = ["file\tcategory\tcount"]
    for fname, report in per_file.items():
        for cat in sorted(report.counts):
            lines.append(f"{fname}\t{cat}\t{report.counts[cat]}")
    return "\n".join(lines) + "\n"
