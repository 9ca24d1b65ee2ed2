"""Byte-level BPE tokenizer and corpus statistics.

Token ids 0..255 are raw bytes, each merge adds one id, and a block of
reserved special-token slots sits on top (the production layout is 32,000
base entries plus 128 specials for 32,128 total). Specials are inserted
programmatically (chat templating); plain-text encoding never emits them,
so any UTF-8 string round-trips exactly.

``train_bpe`` keeps its pair counts up to date instead of recounting the
corpus per merge: the corpus is one linked list of tokens, an index maps
each adjacent pair to the positions where it starts, and a heap whose stale
entries are skipped when popped gives the most frequent pair. A merge then
costs time in its own occurrences, and the merges are the ones a full
recount per merge gives. A merge table that repeats a pair is rejected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path

N_BYTE_TOKENS = 256
DEFAULT_RESERVED_SPECIALS = 128

CHAT_SPECIALS = ["<|system|>", "<|user|>", "<|assistant|>", "<|tool|>", "<|end|>"]


def _merge_pair(ids: list[int], pair: tuple[int, int], merged_id: int) -> list[int]:
    """ids with each (left, right) occurrence, matched left to right without
    overlap, replaced by merged_id."""
    left, right = pair
    out = []
    i = 0
    while i < len(ids):
        if i + 1 < len(ids) and ids[i] == left and ids[i + 1] == right:
            out.append(merged_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


@dataclass
class TokenizerModel:
    """Merge table plus special-token allocation.

    merges: ordered (left id, right id) pairs; rank = list index.
    specials: name -> id, ids in [base_size, base_size + n_reserved).
    """

    merges: list[tuple[int, int]] = field(default_factory=list)
    specials: dict[str, int] = field(default_factory=dict)
    n_reserved: int = DEFAULT_RESERVED_SPECIALS

    def __post_init__(self):
        self._token_bytes: dict[int, bytes] = {i: bytes([i]) for i in range(N_BYTE_TOKENS)}
        self._ranks: dict[tuple[int, int], int] = {}
        for rank, (left, right) in enumerate(self.merges):
            tid = N_BYTE_TOKENS + rank
            if left >= tid or right >= tid:
                raise ValueError(f"merge {rank} references id not yet defined: ({left}, {right})")
            if (left, right) in self._ranks:
                raise ValueError(f"merge {rank} repeats merge {self._ranks[left, right]}: ({left}, {right})")
            self._ranks[left, right] = rank
            self._token_bytes[tid] = self._token_bytes[left] + self._token_bytes[right]
        if len(self.specials) > self.n_reserved:
            raise ValueError(
                f"{len(self.specials)} specials exceed {self.n_reserved} reserved slots"
            )
        self._special_names = {}
        for name, tid in self.specials.items():
            if not (self.base_size <= tid < self.vocab_size):
                raise ValueError(f"special {name!r} id {tid} outside reserved range")
            if tid in self._special_names:
                raise ValueError(f"special id {tid} allocated twice")
            self._special_names[tid] = name

    @property
    def base_size(self) -> int:
        return N_BYTE_TOKENS + len(self.merges)

    @property
    def vocab_size(self) -> int:
        return self.base_size + self.n_reserved

    def special_id(self, name: str) -> int:
        if name not in self.specials:
            raise ValueError(f"tokenizer has no special token {name!r}")
        return self.specials[name]

    def token_to_bytes(self, tid: int) -> bytes:
        return self._token_bytes[tid]

    # -- encode / decode ---------------------------------------------------

    def encode(self, text: str) -> list[int]:
        """Greedy lowest-rank byte-pair merging; never emits special ids."""
        ids = list(text.encode("utf-8"))
        if len(ids) < 2 or not self._ranks:
            return ids
        while True:
            best_rank = None
            for pair in zip(ids, ids[1:]):
                r = self._ranks.get(pair)
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank = r
            if best_rank is None:
                return ids
            ids = _merge_pair(ids, self.merges[best_rank], N_BYTE_TOKENS + best_rank)

    def decode(self, ids) -> str:
        """Inverse of encode; special ids render as their names.

        Raises on ids outside the vocabulary or in unallocated special slots.
        """
        parts: list[bytes] = []
        for tid in ids:
            tid = int(tid)
            if tid < 0 or tid >= self.vocab_size:
                raise ValueError(f"token id {tid} outside vocabulary of {self.vocab_size}")
            if tid >= self.base_size:
                name = self._special_names.get(tid)
                if name is None:
                    raise ValueError(f"unknown special token id {tid}")
                parts.append(name.encode("utf-8"))
            else:
                parts.append(self._token_bytes[tid])
        return b"".join(parts).decode("utf-8", errors="replace")


def allocate_chat_specials(merges: list[tuple[int, int]], n_reserved: int = DEFAULT_RESERVED_SPECIALS) -> TokenizerModel:
    """Tokenizer with the chat-control specials in the first reserved slots."""
    base = N_BYTE_TOKENS + len(merges)
    specials = {name: base + i for i, name in enumerate(CHAT_SPECIALS)}
    return TokenizerModel(merges=merges, specials=specials, n_reserved=n_reserved)


def train_bpe(texts, n_merges: int) -> list[tuple[int, int]]:
    """Most-frequent-pair BPE over the byte corpus; ties break on pair ids.

    Each merge replaces the best pair's occurrences left to right without
    overlap, and training stops when no pair occurs twice. Pair counts are
    updated where a merge applies instead of recounted over the corpus.
    """
    ids: list[int] = []  # every text's byte ids, one after another
    nxt: list[int] = []  # live tokens form a linked list; -1 ends each text
    prv: list[int] = []
    counts: dict[tuple[int, int], int] = {}  # adjacent pair -> occurrences
    where: dict[tuple[int, int], list[int]] = {}  # pair -> left positions, some stale
    for text in texts:
        data = text.encode("utf-8")
        start = len(ids)
        for at, pair in enumerate(zip(data, data[1:]), start):
            counts[pair] = counts.get(pair, 0) + 1
            where.setdefault(pair, []).append(at)
        ids.extend(data)
        nxt.extend(range(start + 1, len(ids) + 1))
        prv.extend(range(start - 1, len(ids) - 1))
        if data:
            nxt[-1] = prv[start] = -1
    # Only a merge's own new id gains occurrences, so a pair seen fewer than
    # twice never becomes a merge: it leaves the heap and the index.
    heap = [(-n, pair) for pair, n in counts.items() if n > 1]
    heapq.heapify(heap)
    where = {pair: where[pair] for _, pair in heap}
    merges: list[tuple[int, int]] = []
    touched: set[tuple[int, int]] = set()  # pairs whose count the current merge changed

    def add(pair, by, at=-1):
        counts[pair] = counts.get(pair, 0) + by
        touched.add(pair)
        if at >= 0:
            where.setdefault(pair, []).append(at)

    while heap and len(merges) < n_merges:
        n, best = heapq.heappop(heap)
        if counts.get(best) != -n:
            continue  # stale: the pair's count has changed since this push
        new = N_BYTE_TOKENS + len(merges)
        merges.append(best)
        left, right = best
        touched.add(best)
        # A pair's positions were all appended in one pass (the first scan,
        # or the merge that made its newer id) in ascending order, so they
        # are visited left to right; ones consumed since fail the test.
        for at in where.pop(best):
            right_at = nxt[at]
            if ids[at] != left or right_at < 0 or ids[right_at] != right:
                continue
            before, after = prv[at], nxt[right_at]
            if before >= 0:
                add((ids[before], left), -1)
                add((ids[before], new), 1, before)
            if after >= 0:
                add((right, ids[after]), -1)
                add((new, ids[after]), 1, at)
                prv[after] = at
            counts[best] -= 1
            ids[at], ids[right_at], nxt[at] = new, -1, after
        for pair in touched:
            n = counts[pair]
            if n > 1:
                heapq.heappush(heap, (-n, pair))
            else:
                where.pop(pair, None)
                if not n:
                    del counts[pair]
        touched.clear()
    return merges


# -- plain-text model file -------------------------------------------------------


def save_tokenizer(tok: TokenizerModel, path) -> None:
    """Vocabulary (hex), ordered merges, and special table, one item per line."""
    lines = ["forge-tokenizer 1"]
    lines.append(f"vocab {tok.base_size}")
    for tid in range(tok.base_size):
        lines.append(f"{tid} {tok.token_to_bytes(tid).hex()}")
    lines.append(f"merges {len(tok.merges)}")
    for left, right in tok.merges:
        lines.append(f"{left} {right}")
    lines.append(f"specials {len(tok.specials)} reserved {tok.n_reserved}")
    for name, tid in sorted(tok.specials.items(), key=lambda kv: kv[1]):
        lines.append(f"{tid} {name}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _section(lines: list[str], i: int, name: str, parse):
    """(header fields, parsed entries, next index) of the section headed at lines[i]."""
    head = lines[i].split() if i < len(lines) else []
    if len(head) < 2 or head[0] != name:
        raise ValueError(f"missing {name} section")
    count = int(head[1])
    body = lines[i + 1 : i + 1 + count]
    if len(body) != count:
        raise ValueError(f"{name} section lists {count} entries but {len(body)} follow")
    return head, [parse(*line.split(" ", 1)) for line in body], i + 1 + count


def load_tokenizer(path) -> TokenizerModel:
    """Inverse of save_tokenizer; a short or malformed file raises ValueError naming it."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    if not lines or not lines[0].startswith("forge-tokenizer "):
        raise ValueError(f"{path}: not a tokenizer model file")
    try:
        _, vocab, i = _section(lines, 1, "vocab", lambda tid, hexs: (int(tid), bytes.fromhex(hexs)))
        _, merges, i = _section(lines, i, "merges", lambda left, right: (int(left), int(right)))
        head, specials, _ = _section(lines, i, "specials", lambda tid, name: (name, int(tid)))
        tok = TokenizerModel(merges=merges, specials=dict(specials), n_reserved=int(head[3]))
        for tid, blob in vocab:
            if tok.token_to_bytes(tid) != blob:
                raise ValueError(f"vocab entry {tid} disagrees with merge table")
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed tokenizer file: {e}") from None
    return tok


# -- corpus statistics and filters ------------------------------------------------


@dataclass
class TokenStats:
    tokens: int
    chars: int
    words: int
    cpt: float | None  # chars per token; absent when tokens == 0
    tpw: float | None  # tokens per word; absent when words == 0


def token_stats(tok: TokenizerModel, text: str) -> TokenStats:
    """Counts and efficiency ratios: CpT = chars/tokens, TpW = tokens/words.

    Characters are Unicode scalars; words are maximal whitespace-delimited runs.
    """
    n_tokens = len(tok.encode(text))
    n_chars = len(text)
    n_words = len(text.split())
    return TokenStats(
        tokens=n_tokens,
        chars=n_chars,
        words=n_words,
        cpt=n_chars / n_tokens if n_tokens else None,
        tpw=n_tokens / n_words if n_words else None,
    )
