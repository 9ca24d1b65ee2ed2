"""BPE tokenizer: round trips, merge-order oracles, and stats."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tokdata import REFERENCE_ROWS

from forge.datapipe.tokenizer import (
    CHAT_SPECIALS,
    N_BYTE_TOKENS,
    TokenizerModel,
    _merge_pair,
    allocate_chat_specials,
    load_tokenizer,
    save_tokenizer,
    token_stats,
    train_bpe,
)

A, B = ord("a"), ord("b")


def ab_tokenizer():
    # vocab {a, b, ab, abb}: merge 0 builds "ab" (id 256), merge 1 "abb" (257)
    return TokenizerModel(merges=[(A, B), (N_BYTE_TOKENS, B)], specials={}, n_reserved=8)


def test_empty_text():
    assert ab_tokenizer().encode("") == []


def test_lowest_rank_merge_path():
    tok = ab_tokenizer()
    assert tok.encode("abb") == [257]
    assert tok.encode("ab") == [256]
    assert tok.encode("ba") == [B, A]


def sequential_merge_oracle(byte_ids, merges):
    """Apply the lowest-rank applicable merge one occurrence at a time."""
    ranks = {pair: r for r, pair in enumerate(merges)}
    ids = list(byte_ids)
    while True:
        best = None
        for i, pair in enumerate(zip(ids, ids[1:])):
            r = ranks.get(pair)
            if r is not None and (best is None or r < best[0]):
                best = (r, i)
        if best is None:
            return ids
        r, i = best
        ids[i : i + 2] = [N_BYTE_TOKENS + r]


def reference_train_bpe(texts, n_merges: int) -> list[tuple[int, int]]:
    """Most-frequent-pair BPE over the byte corpus; ties break on pair ids."""
    seqs = [list(t.encode("utf-8")) for t in texts]
    merges: list[tuple[int, int]] = []
    for rank in range(n_merges):
        counts: Counter = Counter()
        for seq in seqs:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if counts[best] < 2:
            break
        merges.append(best)
        seqs = [_merge_pair(seq, best, N_BYTE_TOKENS + rank) for seq in seqs]
    return merges


SYLLABLES = [c + v for c in "bcdfghjklmnprstwz" for v in "aeiouy"] + ["sz", "cz", "ą", "ę", "ó", "ł", "ż"]


def syllable_prose(seed: int, n_texts: int = 8, n_chars: int = 440) -> list[str]:
    """n_texts texts of n_chars characters each: capitalised sentences of
    words of 1-3 syllables, some of them Polish letters, from one seed."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(n_texts):
        text = ""
        while len(text) < n_chars:
            words = ["".join(SYLLABLES[i] for i in rng.integers(0, len(SYLLABLES), size=int(rng.integers(1, 4))))
                     for _ in range(int(rng.integers(6, 15)))]
            text += " ".join(words).capitalize() + ". "
        texts.append(text[:n_chars])
    return texts


def test_encode_matches_sequential_oracle():
    tok = ab_tokenizer()
    for text in ["abb", "aabb", "ababb", "babba", "abbabbab", "aaabbb"]:
        assert tok.encode(text) == sequential_merge_oracle(text.encode(), tok.merges)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", max_size=12))
def test_encode_matches_oracle_fuzz(text):
    tok = ab_tokenizer()
    assert tok.encode(text) == sequential_merge_oracle(text.encode(), tok.merges)


def test_roundtrip_random_utf8():
    rng = np.random.default_rng(0)
    tok = allocate_chat_specials(train_bpe(["hello world, witaj świecie"] * 3, 20), n_reserved=8)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        codepoints = rng.integers(1, 0x10FFFF, size=n)
        text = "".join(
            chr(int(c)) for c in codepoints if not (0xD800 <= c <= 0xDFFF)
        )
        assert tok.decode(tok.encode(text)) == text


def test_specials_never_emitted_by_encode():
    tok = allocate_chat_specials([(A, B)], n_reserved=8)
    ids = tok.encode("<|user|>")
    assert all(i < tok.base_size for i in ids)
    assert tok.decode(ids) == "<|user|>"


def test_decode_special_ids():
    tok = allocate_chat_specials([], n_reserved=8)
    uid = tok.special_id("<|user|>")
    assert tok.decode([uid]) == "<|user|>"
    unallocated = tok.base_size + 7  # reserved slot with no name
    with pytest.raises(ValueError, match="unknown special"):
        tok.decode([unallocated])
    with pytest.raises(ValueError, match="outside vocabulary"):
        tok.decode([tok.vocab_size])


def test_vocab_size_production_layout():
    """256 bytes + 31,744 merges + 128 reserved specials = 32,128 total."""
    merges = []
    left = A
    for i in range(31_744):
        merges.append((left, B))
        left = N_BYTE_TOKENS + i
    tok = TokenizerModel(merges=merges, specials={}, n_reserved=128)
    assert tok.base_size == 32_000
    assert tok.vocab_size == 32_128


def test_special_slot_overflow_rejected():
    with pytest.raises(ValueError):
        TokenizerModel(merges=[], specials={f"<|s{i}|>": 256 + i for i in range(9)}, n_reserved=8)


def test_save_load_roundtrip(tmp_path):
    tok = allocate_chat_specials(train_bpe(["banana bandana"] * 4, 10), n_reserved=16)
    path = tmp_path / "tok.txt"
    save_tokenizer(tok, path)
    again = load_tokenizer(path)
    assert again.merges == tok.merges
    assert again.specials == tok.specials
    assert again.n_reserved == tok.n_reserved
    text = "banana bandana banab"
    assert again.encode(text) == tok.encode(text)


@pytest.mark.parametrize("cut", [
    lambda lines: lines[:1],  # header only
    lambda lines: lines[:3],  # vocab header and one entry
    lambda lines: lines[:258] + lines[259:],  # vocab entry missing
    lambda lines: lines[:-2],  # specials section short
    lambda lines: [line for line in lines if not line.startswith("merges ")],
    lambda lines: lines[:-1] + ["x"],  # special entry without a name
], ids=["header-only", "one-vocab-entry", "vocab-entry-missing", "specials-short", "no-merges-header",
        "special-without-name"])
def test_load_rejects_truncated_or_malformed_file(tmp_path, cut):
    tok = allocate_chat_specials(train_bpe(["banana bandana"] * 4, 10), n_reserved=16)
    path = tmp_path / "tok.txt"
    save_tokenizer(tok, path)
    path.write_text("\n".join(cut(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=r"tok\.txt"):
        load_tokenizer(path)


def test_train_bpe_learns_frequent_pairs():
    merges = train_bpe(["aaaa aaaa aaaa"], 2)
    assert merges[0] == (A, A)
    tok = TokenizerModel(merges=merges, specials={}, n_reserved=0)
    assert len(tok.encode("aaaa aaaa aaaa")) < len("aaaa aaaa aaaa")


def test_train_bpe_deterministic():
    corpus = ["the cat sat on the mat", "the bat and the rat"]
    assert train_bpe(corpus, 12) == train_bpe(corpus, 12)


# Repeated letters make overlapping runs ("aaaa"), "ą" and "ę" are two UTF-8
# bytes each, and a two-letter alphabet makes pairs of equal count common.
corpora = st.lists(st.sampled_from(["ab", "aab ", "aaab", "ąę a", "abcd"]).flatmap(
    lambda alphabet: st.text(alphabet=alphabet, max_size=40)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(corpora, st.integers(0, 30))
@example([], 5)
@example(["", "aaaa", ""], 30)
def test_train_bpe_matches_reference(texts, n_merges):
    merges = train_bpe(texts, n_merges)
    assert merges == reference_train_bpe(texts, n_merges)
    assert len(set(merges)) == len(merges)


def test_train_bpe_matches_reference_at_benchmark_size():
    texts = syllable_prose(7)
    assert 3400 <= sum(map(len, texts)) <= 3600
    merges = train_bpe(texts, 300)
    assert merges == reference_train_bpe(texts, 300)
    assert len(merges) == 300 and len(set(merges)) == 300


@settings(max_examples=150, deadline=None)
@given(corpora, st.integers(0, 30), st.text(alphabet="abąę c", max_size=30))
def test_encode_matches_oracle_under_trained_merges(texts, n_merges, text):
    tok = TokenizerModel(merges=train_bpe(texts, n_merges), specials={}, n_reserved=0)
    assert tok.encode(text) == sequential_merge_oracle(text.encode(), tok.merges)
    for t in texts:
        assert tok.encode(t) == sequential_merge_oracle(t.encode(), tok.merges)


def write_repeated_merge_tokenizer(path):
    """A tokenizer file whose merge 1 repeats merge 0, (97, 98), and that
    agrees with itself otherwise: its vocab spells id 257 as "ab"."""
    save_tokenizer(allocate_chat_specials([(A, B), (N_BYTE_TOKENS, B)], n_reserved=8), path)
    text = path.read_text()
    assert "\n256 98\n" in text and "\n257 616262\n" in text
    path.write_text(text.replace("\n256 98\n", "\n97 98\n").replace("\n257 616262\n", "\n257 6162\n"))


def test_merge_table_with_a_repeated_pair_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"merge 1 repeats merge 0: \(97, 98\)"):
        TokenizerModel(merges=[(A, B), (A, B)])
    write_repeated_merge_tokenizer(tmp_path / "tok.txt")
    with pytest.raises(ValueError, match=r"tok\.txt: malformed tokenizer file: merge 1 repeats merge 0"):
        load_tokenizer(tmp_path / "tok.txt")


# -- token_stats -------------------------------------------------------------------


def test_stats_arithmetic():
    tok = TokenizerModel(merges=[], specials={}, n_reserved=0)
    # byte tokenizer: "aa bb" -> 5 tokens; build a 1-merge model yielding 4
    tok4 = TokenizerModel(merges=[(A, A)], specials={}, n_reserved=0)
    stats = token_stats(tok4, "aa bb")
    assert stats.tokens == 4 and stats.chars == 5 and stats.words == 2
    assert stats.cpt == 1.25
    assert stats.tpw == 2.0
    assert token_stats(tok, "aa bb").tokens == 5


def test_stats_hand_counts():
    tok = TokenizerModel(merges=[], specials={}, n_reserved=0)
    text = "ala ma kota"
    stats = token_stats(tok, text)
    assert stats.tokens == len(text.encode("utf-8")) == 11
    assert stats.chars == 11
    assert stats.words == 3
    assert abs(stats.cpt - 1.0) < 1e-12
    assert abs(stats.tpw - 11 / 3) < 1e-12


def test_stats_empty_text():
    stats = token_stats(TokenizerModel(merges=[], specials={}, n_reserved=0), "")
    assert stats.tokens == stats.chars == stats.words == 0
    assert stats.cpt is None and stats.tpw is None


def test_stats_unicode_scalar_chars():
    stats = token_stats(TokenizerModel(merges=[], specials={}, n_reserved=0), "żółć")
    assert stats.chars == 4  # scalars, not bytes
    assert stats.tokens == len("żółć".encode("utf-8")) == 8


def test_stats_scale_consistency():
    tok = allocate_chat_specials(train_bpe(["kot pies dom las ryba góra"] * 3, 12), n_reserved=8)
    text = "kot pies dom las ryba góra " * 30
    doubled = text + " " + text
    a = token_stats(tok, text).cpt
    b = token_stats(tok, doubled).cpt
    assert abs(a - b) / a < 0.02


def test_reference_rows_agree_on_char_counts():
    """tokens x CpT must estimate one character count per language."""
    for lang_idx in (3, 6):  # PL and EN column offsets
        implied = [row[lang_idx] * row[lang_idx + 1] for row in REFERENCE_ROWS]
        center = float(np.mean(implied))
        for row, chars in zip(REFERENCE_ROWS, implied):
            assert abs(chars - center) / center < 0.01, (row[0], chars, center)


def test_reference_rows_agree_on_word_counts():
    """tokens / TpW must estimate one word count per language."""
    for lang_idx in (3, 6):
        implied = [row[lang_idx] / row[lang_idx + 2] for row in REFERENCE_ROWS]
        center = float(np.mean(implied))
        for row, words in zip(REFERENCE_ROWS, implied):
            assert abs(words - center) / center < 0.01, (row[0], words, center)


def test_reference_cpt_reconstructs_from_chars():
    # densest row: 747 tokens at CpT 2.40 on the ~1794-char Polish sample
    implied_chars = float(np.mean([r[3] * r[4] for r in REFERENCE_ROWS]))
    assert round(implied_chars / 747, 2) == 2.40
