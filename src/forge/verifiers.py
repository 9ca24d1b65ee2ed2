"""Verifiable-reward scorers: boxed math answers, multiple choice, tool calls.

Every verifier is deterministic and returns a strict 0/1 reward plus a
reason code; failures of any kind (missing answer, ambiguity, unparseable
calls) are reward 0, never an exception, so rollout scoring cannot crash.

Tool-call response grammar: the model emits a fenced block whose body is a
JSON list of {"name": str, "arguments": {str: scalar | str | list}}; the
fence may be ``` or ```json.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class VerifyResult:
    reward: int  # exactly 0 or 1
    reason: str

    def __post_init__(self):
        if self.reward not in (0, 1):
            raise ValueError(f"reward must be 0 or 1, got {self.reward}")


class BoxedNotFound(ValueError):
    pass


class UnbalancedBraces(ValueError):
    pass


def extract_boxed(text: str) -> str:
    r"""Content of the last \boxed{...}, brace-balanced, whitespace-trimmed."""
    marker = r"\boxed{"
    start = text.rfind(marker)
    if start < 0:
        raise BoxedNotFound(r"no \boxed{...} in response")
    depth = 1
    i = start + len(marker)
    begin = i
    while i < len(text):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[begin:i].strip()
        i += 1
    raise UnbalancedBraces(r"unbalanced braces after \boxed{")


_TRAILING_ZEROS = re.compile(r"(\d+\.\d*?)0+(?=\D|$)")
_TRAILING_DOT = re.compile(r"(\d+)\.(?=\D|$)")


def canonical_math(s: str) -> str:
    r"""Normalization before comparison: drop all whitespace, strip redundant
    outer braces, \dfrac -> \frac, trim trailing zeros of decimal literals."""
    s = re.sub(r"\s+", "", s)
    s = s.replace(r"\dfrac", r"\frac")
    s = s.replace("−", "-")  # unicode minus
    while len(s) >= 2 and s[0] == "{" and s[-1] == "}" and _balanced(s[1:-1]):
        s = s[1:-1]
    s = _TRAILING_ZEROS.sub(r"\1", s)
    s = _TRAILING_DOT.sub(r"\1", s)
    return s


def _balanced(s: str) -> bool:
    depth = 0
    for c in s:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


_FRAC_RE = re.compile(r"^(-?)\\frac{(-?\d+)}{(-?\d+)}$")


def parse_rational(s: str) -> Fraction | None:
    r"""Rational value of a canonical string: integers, decimals, a/b, \frac."""
    m = _FRAC_RE.match(s)
    if m:
        sign, num, den = m.groups()
        if den == "0" or den == "-0":
            return None
        value = Fraction(int(num), int(den))
        return -value if sign else value
    try:
        return Fraction(s)  # handles "3", "-7/2", "0.5"
    except (ValueError, ZeroDivisionError):
        return None


def math_verify(response: str, truth: str) -> VerifyResult:
    r"""1 iff the last \boxed answer matches the truth string canonically or
    as equal rational numbers."""
    try:
        answer = extract_boxed(response)
    except BoxedNotFound:
        return VerifyResult(0, "no_boxed")
    except UnbalancedBraces:
        return VerifyResult(0, "parse_error")
    a = canonical_math(answer)
    b = canonical_math(truth)
    if a == b:
        return VerifyResult(1, "exact")
    ra, rb = parse_rational(a), parse_rational(b)
    if ra is not None and rb is not None and ra == rb:
        return VerifyResult(1, "numeric")
    return VerifyResult(0, "mismatch")


def _committed_span(response: str, labels) -> str | None:
    """Final line containing a standalone label; else the final sentence."""
    patterns = [re.compile(rf"\b{re.escape(lab)}\b") for lab in labels]
    lines = [ln for ln in response.splitlines() if ln.strip()]
    for line in reversed(lines):
        if any(p.search(line) for p in patterns):
            return line
    sentences = [s for s in re.split(r"[.!?]", response) if s.strip()]
    return sentences[-1] if sentences else None


def mcq_verify(response: str, correct: str, labels) -> VerifyResult:
    """1 iff the committed span names exactly the correct label and no other."""
    labels = list(labels)
    if not labels or len(set(labels)) != len(labels):
        raise ValueError("labels must be non-empty and distinct")
    if correct not in labels:
        raise ValueError(f"correct label {correct!r} not among labels")
    span = _committed_span(response, labels)
    if span is None:
        return VerifyResult(0, "no_choice")
    present = [lab for lab in labels if re.search(rf"\b{re.escape(lab)}\b", span)]
    if not present:
        return VerifyResult(0, "no_choice")
    if len(present) > 1:
        return VerifyResult(0, "ambiguous")
    if present[0] == correct:
        return VerifyResult(1, "exact")
    return VerifyResult(0, "wrong_label")


@dataclass(frozen=True)
class ToolCall:
    name: str
    arguments: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("tool call name is empty")


_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)


class ToolParseError(ValueError):
    pass


def _as_number(v):
    if isinstance(v, bool) or v is None:
        return None
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**9)
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            return None
    return None


def _normalize_value(v):
    """Comparison key: numeric strings and numbers unify, lists recurse."""
    if isinstance(v, list):
        return tuple(_normalize_value(x) for x in v)
    num = _as_number(v)
    if num is not None:
        return ("num", num)
    return ("raw", v)


def parse_tool_calls(text: str) -> list[ToolCall]:
    """Calls from the last fenced block; raises ToolParseError when absent
    or malformed."""
    blocks = _FENCE_RE.findall(text)
    if not blocks:
        raise ToolParseError("no fenced call block in response")
    try:
        payload = json.loads(blocks[-1])
    except json.JSONDecodeError as e:
        raise ToolParseError(f"fenced block is not valid JSON: {e}") from None
    if not isinstance(payload, list):
        raise ToolParseError("call block must be a JSON list")
    calls = []
    for k, item in enumerate(payload):
        if not isinstance(item, dict) or "name" not in item:
            raise ToolParseError(f"call {k} missing name")
        args = item.get("arguments", {})
        if not isinstance(args, dict):
            raise ToolParseError(f"call {k} arguments must be a map")
        calls.append(ToolCall(name=str(item["name"]), arguments=args))
    return calls


def _call_key(call: ToolCall):
    return (call.name, tuple(sorted((k, _normalize_value(v)) for k, v in call.arguments.items())))


def toolcall_verify(response, expected: list[ToolCall], order_sensitive: bool = False) -> VerifyResult:
    """1 iff response calls equal the expected list (sequence when
    order_sensitive, multiset otherwise) with normalized argument values.

    ``response`` may be raw text (parsed from its fenced block) or an
    already-parsed list of ToolCall.
    """
    if not expected:
        raise ValueError("expected call list is empty")
    if isinstance(response, str):
        try:
            calls = parse_tool_calls(response)
        except (ToolParseError, ValueError):
            return VerifyResult(0, "parse_error")
    else:
        calls = list(response)
    if len(calls) != len(expected):
        return VerifyResult(0, "count_mismatch")
    got_keys = [_call_key(c) for c in calls]
    want_keys = [_call_key(c) for c in expected]
    if order_sensitive:
        ok = got_keys == want_keys
    else:
        ok = sorted(got_keys) == sorted(want_keys)
    if ok:
        return VerifyResult(1, "exact")
    got_names = sorted(c.name for c in calls)
    want_names = sorted(c.name for c in expected)
    if got_names != want_names:
        return VerifyResult(0, "name_mismatch")
    if order_sensitive and sorted(got_keys) == sorted(want_keys):
        return VerifyResult(0, "order_mismatch")
    return VerifyResult(0, "arg_mismatch")


_TRUTH_SHAPES = {
    "math": "a string",
    "mcq": "an object whose correct is among non-empty, distinct string labels",
    "tool": "an object with a non-empty expected list of calls, each with a name",
}


def _is_call(c) -> bool:
    return (isinstance(c, dict) and isinstance(c.get("name"), str) and c["name"] != ""
            and isinstance(c.get("arguments", {}), dict))


def check_truth(kind: str, truth) -> None:
    """Raise ValueError unless truth has the shape ``verify`` reads for kind."""
    if not isinstance(kind, str) or kind not in _TRUTH_SHAPES:
        raise ValueError(f"unknown verifier kind {kind!r}")
    obj = truth if isinstance(truth, dict) else {}
    labels, calls = obj.get("labels"), obj.get("expected")
    if kind == "math":
        ok = isinstance(truth, str)
    elif kind == "mcq":
        ok = (isinstance(labels, list) and labels != [] and all(isinstance(lab, str) for lab in labels)
              and len(set(labels)) == len(labels) and obj.get("correct") in labels)
    else:
        ok = isinstance(calls, list) and calls != [] and all(map(_is_call, calls))
    if not ok:
        raise ValueError(f"{kind} truth: expected {_TRUTH_SHAPES[kind]}, got {truth!r}")


def verify(kind: str, response: str, truth) -> VerifyResult:
    """Dispatch by problem kind; truth schema is kind-specific."""
    if kind == "math":
        return math_verify(response, truth)
    if kind == "mcq":
        return mcq_verify(response, truth["correct"], truth["labels"])
    if kind == "tool":
        expected = [ToolCall(name=c["name"], arguments=c.get("arguments", {})) for c in truth["expected"]]
        return toolcall_verify(response, expected, truth.get("order_sensitive", False))
    raise ValueError(f"unknown verifier kind {kind!r}")


def score_corpus(path) -> dict:
    """Run golden fixtures {kind, response, truth, expected_reward}; returns
    per-kind accuracy and any disagreements. A line that is not a JSON
    object, lacks a field, has a response that is not a string or a truth that
    ``check_truth`` rejects raises ValueError naming ``path:line``."""
    per_kind: dict[str, list[int]] = {}
    disagreements = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not an object")
                kind, response, truth, want = (rec[k] for k in ("kind", "response", "truth", "expected_reward"))
                if not isinstance(response, str):
                    raise ValueError(f"response must be a string, got {response!r}")
                check_truth(kind, truth)
            except (KeyError, ValueError) as e:
                raise ValueError(f"{path}:{line_no}: bad fixture ({e})") from None
            result = verify(kind, response, truth)
            agree = int(result.reward == want)
            per_kind.setdefault(kind, []).append(agree)
            if not agree:
                disagreements.append(
                    {"line": line_no, "kind": kind, "got": result.reward, "want": want, "reason": result.reason}
                )
    return {
        "per_kind_accuracy": {k: sum(v) / len(v) for k, v in sorted(per_kind.items())},
        "total": sum(len(v) for v in per_kind.values()),
        "disagreements": disagreements,
    }
