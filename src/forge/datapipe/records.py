"""Line-delimited JSON records, the layout of every dataset and task file."""

from __future__ import annotations

import json


def read_records(path, parse, what: str) -> list:
    """``parse(record)`` for each non-blank line of a JSONL file, in order.

    A line that is not valid JSON, is not an object, or that ``parse``
    rejects with KeyError, TypeError or ValueError raises ValueError naming
    ``path:line``.
    """
    out = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise TypeError("not an object")
                out.append(parse(rec))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{line_no}: bad {what} ({e})") from None
    return out
