"""Chat templating and instruction masking.

A dialogue renders to ids as one block per message:

    <|role|> content-tokens <|end|>

Span annotations partition the id sequence so the instruction mask can be
derived purely from role labels: loss is computed only on assistant
content, never on control tokens or user/system/tool text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .records import read_records
from .tokenizer import TokenizerModel

ROLES = ("system", "user", "assistant", "tool")


@dataclass
class Message:
    role: str
    content: str
    tool_calls: list[dict] | None = None


@dataclass
class ChatSample:
    """Ordered messages: optional leading system, then user/assistant
    alternation (tool results may stand in the user slot)."""

    messages: list[Message]

    def validate(self) -> None:
        if not self.messages:
            raise ValueError("chat sample has no messages")
        msgs = self.messages
        for m in msgs:
            if m.role not in ROLES:
                raise ValueError(f"unknown role {m.role!r}")
        body = msgs[1:] if msgs[0].role == "system" else msgs
        if any(m.role == "system" for m in body):
            raise ValueError("system message allowed only at the start")
        for i, m in enumerate(body):
            expect_assistant = i % 2 == 1
            if expect_assistant and m.role != "assistant":
                raise ValueError(f"turn {i}: expected assistant, got {m.role}")
            if not expect_assistant and m.role not in ("user", "tool"):
                raise ValueError(f"turn {i}: expected user or tool, got {m.role}")


@dataclass
class MessageSpan:
    """Token extent of one rendered message.

    [start, end) covers the whole block including control tokens;
    [content_start, content_end) covers just the message text.
    """

    role: str
    start: int
    end: int
    content_start: int
    content_end: int


@dataclass
class RenderedChat:
    token_ids: np.ndarray
    spans: list[MessageSpan]


def message_text(msg: Message) -> str:
    """Message content with tool calls appended as a fenced JSON block."""
    if not msg.tool_calls:
        return msg.content
    block = json.dumps(msg.tool_calls, ensure_ascii=False, sort_keys=True)
    body = msg.content + "\n" if msg.content else ""
    return f"{body}```json\n{block}\n```"


def render_chat(sample: ChatSample, tok: TokenizerModel) -> RenderedChat:
    """Token ids plus per-message spans; spans tile the sequence exactly."""
    sample.validate()
    end_id = tok.special_id("<|end|>")
    ids: list[int] = []
    spans: list[MessageSpan] = []
    for msg in sample.messages:
        open_id = tok.special_id(f"<|{msg.role}|>")
        start = len(ids)
        ids.append(open_id)
        content_ids = tok.encode(message_text(msg))
        content_start = len(ids)
        ids.extend(content_ids)
        content_end = len(ids)
        ids.append(end_id)
        spans.append(
            MessageSpan(
                role=msg.role,
                start=start,
                end=len(ids),
                content_start=content_start,
                content_end=content_end,
            )
        )
    return RenderedChat(token_ids=np.array(ids, dtype=np.int64), spans=spans)


def build_loss_mask(rendered: RenderedChat) -> np.ndarray:
    """True exactly at assistant content positions."""
    mask = np.zeros(len(rendered.token_ids), dtype=bool)
    for span in rendered.spans:
        if span.role == "assistant":
            mask[span.content_start : span.content_end] = True
    return mask


def messages_from(raw) -> list[Message]:
    """Messages from a JSON list of {role, content?, tool_calls?} objects; a
    missing content reads as "". ValueError on a content that is not a string
    or tool_calls that are neither null nor a list of objects."""
    out = []
    for m in raw:
        msg = Message(role=m["role"], content=m.get("content", ""), tool_calls=m.get("tool_calls"))
        if not isinstance(msg.content, str):
            raise ValueError(f"message content must be a string, got {msg.content!r}")
        calls = msg.tool_calls
        if calls is not None and not (isinstance(calls, list) and all(isinstance(c, dict) for c in calls)):
            raise ValueError(f"tool_calls must be null or a list of objects, got {calls!r}")
        out.append(msg)
    return out


def _chat_sample(rec) -> ChatSample:
    sample = ChatSample(messages=messages_from(rec["messages"]))
    sample.validate()
    return sample


def load_chat_dataset(path) -> list[ChatSample]:
    """Line-delimited records: {"messages": [{role, content, tool_calls?}]}."""
    return read_records(path, _chat_sample, "chat record")
