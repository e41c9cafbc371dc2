import itertools
import re
import runpy
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, int_respellings
from stegolm.corpus import (
    CorpusConfig,
    EOS_TOKEN,
    UNK_TOKEN,
    URL_TOKEN,
    USER_TOKEN,
    Vocabulary,
    build_vocab,
    check_token,
    read_token_file,
    tokenize,
    write_token_file,
)
from stegolm.errors import CorpusError, VocabFormatError
from stegolm.keying import generate_key, load_key, save_key
from stegolm.lm.store import load_model, save_model

_URL_RE = re.compile(r"^(?:https?://|www\.)\S+$", re.IGNORECASE)
_WORD_OR_PUNCT_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")


def _tokenize_chunk(chunk: str, config: CorpusConfig) -> list[str]:
    if config.replace_users_urls:
        if _URL_RE.match(chunk):
            return [URL_TOKEN]
        if chunk.startswith("@") and len(chunk) > 1:
            return [USER_TOKEN]
    return _WORD_OR_PUNCT_RE.findall(chunk)


def _tokenize_message(message: str, config: CorpusConfig) -> list[str]:
    tokens: list[str] = []
    for chunk in message.split():
        tokens.extend(_tokenize_chunk(chunk, config))
    if config.drop_retweets and tokens and tokens[0].lower() == "rt":
        return []
    if config.lowercase:
        tokens = [t if t in (USER_TOKEN, URL_TOKEN) else t.lower() for t in tokens]
    return tokens


def reference_tokenize(raw_text: str, config: CorpusConfig) -> list[str]:
    """The tokenizer ``tokenize`` must equal: split each message into whitespace
    chunks, test each whole chunk for a URL or a mention, split the rest."""
    if not raw_text:
        return []
    lines = raw_text.split("\n")
    terminated = [True] * (len(lines) - 1) + [False]
    out: list[str] = []
    for line, has_eos in zip(lines, terminated):
        tokens = _tokenize_message(line, config)
        if not tokens:
            continue
        out.extend(tokens)
        if has_eos:
            out.append(EOS_TOKEN)
    return out


#: Every combination of the switches ``tokenize`` reads.
SWITCHES = [CorpusConfig(lowercase=a, replace_users_urls=b, drop_retweets=c)
            for a, b, c in itertools.product([True, False], repeat=3)]
#: Pieces where the chunk rules, case and whitespace meet: every code point
#: str.isspace() calls whitespace, URL prefixes in mixed case, mentions, retweet
#: marks, apostrophes, characters that case-insensitive matching or lowercasing
#: takes to ASCII or to more than one character (İ, long s, the ff ligature, the
#: Kelvin sign) and combining marks.
PIECES = ([chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
          + ["http://", "HTTPS://", "hTtPs://", "wWw.", "www", "httpſ://", "@", "@@", "rt",
             "RT", "Rt", "'", "İ", "ſ", "ﬀ", "\u212a", "\u0301", "\u0308", "a", "Z", "7", "_",
             ".", ",", "!", "-", "<url>", "é"])


class TestTokenize:
    def test_user_and_url_replacement(self):
        assert tokenize("@bob check http://x.co") == [USER_TOKEN, "check", URL_TOKEN]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_lowercase_and_punctuation(self):
        assert tokenize("I am attaching an NDA .") == ["i", "am", "attaching", "an", "nda", "."]

    def test_punctuation_detached(self):
        assert tokenize("wait, what?!") == ["wait", ",", "what", "?", "!"]

    def test_apostrophes_stay_inside_words(self):
        assert tokenize("i'm can't runnin'") == ["i'm", "can't", "runnin", "'"]

    def test_message_boundaries_become_eos(self):
        assert tokenize("a b\nc\n") == ["a", "b", EOS_TOKEN, "c", EOS_TOKEN]
        assert tokenize("a b\nc") == ["a", "b", EOS_TOKEN, "c"]

    def test_empty_lines_are_skipped(self):
        assert tokenize("a\n\n\nb\n") == ["a", EOS_TOKEN, "b", EOS_TOKEN]

    def test_no_replacement_when_disabled(self):
        config = CorpusConfig(replace_users_urls=False)
        assert tokenize("@bob hi", config) == ["@", "bob", "hi"]

    def test_case_preserved_when_disabled(self):
        config = CorpusConfig(lowercase=False)
        assert tokenize("Hello NDA", config) == ["Hello", "NDA"]

    def test_drop_retweets(self):
        config = CorpusConfig(drop_retweets=True)
        text = "rt @bob : hello\nkeep me\nRT again\n"
        assert tokenize(text, config) == ["keep", "me", EOS_TOKEN]

    def test_url_must_cover_whole_chunk(self):
        assert tokenize("nothttp://x.co") != [URL_TOKEN]

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_mentions_and_urls_are_the_sentinels(self, lowercase):
        # the shared constants themselves, not lowered copies of them
        tokens = tokenize("@Bob see HTTP://x.co\n", CorpusConfig(lowercase=lowercase))
        assert tokens[0] is USER_TOKEN and tokens[2] is URL_TOKEN

    @given(st.lists(st.one_of(st.sampled_from(PIECES), st.characters()), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_chunk_reference(self, pieces):
        text = "".join(pieces)
        for config in SWITCHES:
            assert tokenize(text, config) == reference_tokenize(text, config), config

    @pytest.mark.parametrize("config", SWITCHES)
    def test_desk_corpus_equals_the_per_chunk_reference(self, desk_text, config):
        assert tokenize(desk_text, config) == reference_tokenize(desk_text, config)

    @given(st.text(max_size=300))
    @settings(max_examples=80)
    def test_tokens_never_contain_whitespace(self, text):
        for token in tokenize(text):
            assert token
            assert not any(ch.isspace() for ch in token)

    @given(st.text(max_size=300))
    @settings(max_examples=40)
    def test_deterministic(self, text):
        config = CorpusConfig(drop_retweets=True)
        assert tokenize(text, config) == tokenize(text, config)


class TestBuildVocab:
    def test_direct_count(self):
        vocab = build_vocab(["a", "b", "a"])
        assert vocab.tokens == ("a", "b", EOS_TOKEN, UNK_TOKEN)
        assert vocab.counts == (2, 1, 0, 0)

    def test_max_vocab_keeps_highest_ranked(self):
        vocab = build_vocab(["x", "y", "z"], CorpusConfig(max_vocab=4))
        kept = set(vocab.tokens)
        assert kept == {"x", "y", EOS_TOKEN, UNK_TOKEN}
        # the dropped occurrence of "z" is credited to <unk>
        assert vocab.count(UNK_TOKEN) == 1

    def test_min_count_drops_rare_tokens(self):
        vocab = build_vocab(["a", "a", "b"], CorpusConfig(min_count=2))
        assert "b" not in vocab
        assert vocab.count(UNK_TOKEN) == 1

    def test_counts_sum_to_stream_length(self):
        tokens = tokenize("a b c\na a z\n")
        for config in (CorpusConfig(), CorpusConfig(max_vocab=4), CorpusConfig(min_count=2)):
            vocab = build_vocab(tokens, config)
            assert sum(vocab.counts) == len(tokens)

    def test_empty_stream_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([])

    def test_every_emitted_token_lands_in_vocab(self, desk_text, desk_config):
        tokens = tokenize(desk_text[:20000], desk_config)
        vocab = build_vocab(tokens, desk_config)
        assert all(t in vocab for t in tokens)

    def test_rebuild_is_byte_identical(self, desk_text, desk_config):
        text = desk_text[:20000]
        first = build_vocab(tokenize(text, desk_config), desk_config)
        second = build_vocab(tokenize(text, desk_config), desk_config)
        assert first.serialize() == second.serialize()

    def test_ordering_is_count_desc_then_lexicographic(self):
        vocab = build_vocab(["b", "b", "a", "a", "c"])
        assert vocab.tokens == ("a", "b", "c", EOS_TOKEN, UNK_TOKEN)


class TestVocabulary:
    def test_serialize_roundtrip(self, desk_vocab):
        again = Vocabulary.deserialize(desk_vocab.serialize())
        assert again == desk_vocab
        assert again.content_hash() == desk_vocab.content_hash()

    def test_save_load(self, tmp_path, mini_vocab):
        path = tmp_path / "v.tsv"
        mini_vocab.save(path)
        assert Vocabulary.load(path) == mini_vocab
        assert path.read_bytes().startswith(b"STEGOVOCAB v1\n")

    def test_loads_serialize_the_vocabulary_once(self, tmp_path, monkeypatch, mini_vocab,
                                                 mini_bigram):
        mini_vocab.save(tmp_path / "v.tsv")
        save_key(generate_key(mini_vocab, 1, 0, seed=3), tmp_path / "k")
        save_model(mini_bigram, tmp_path / "m")
        calls = []
        serialize = Vocabulary.serialize
        monkeypatch.setattr(Vocabulary, "serialize", lambda self: calls.append(self) or
                            serialize(self))
        vocab = Vocabulary.load(tmp_path / "v.tsv")
        load_key(tmp_path / "k", vocab)
        load_model(tmp_path / "m", vocab)
        assert len(calls) == 1  # the load's comparison; the hash is of the same bytes
        assert vocab.content_hash() == mini_vocab.content_hash()

    def test_bad_header_rejected(self):
        with pytest.raises(VocabFormatError):
            Vocabulary.deserialize(b"NOPE\na\t1\n")

    def test_non_utf8_file_rejected(self):
        with pytest.raises(VocabFormatError):
            Vocabulary.deserialize(b"STEGOVOCAB v1\na\t2\n\xff\t1\n")

    def test_only_the_canonical_spelling_loads(self, mini_vocab):
        # a second spelling of a vocabulary would share its content_hash
        data = mini_vocab.serialize()
        for bad in (data[:-1], data + b"\n", data.replace(b"\n", b"\n\n", 1),
                    data.replace(b"\t", b"\t+", 1), data.replace(b"\t", b"\t0", 1),
                    data.replace(b"\t", b"\t ", 1)):
            with pytest.raises(VocabFormatError):
                Vocabulary.deserialize(bad)
        token, count = mini_vocab.tokens[0], str(mini_vocab.counts[0])
        line = f"\n{token}\t{count}\n"
        assert len(count) > 1 and line.encode() in data
        for spelt in int_respellings(count):
            bad = data.replace(line.encode(), f"\n{token}\t{spelt}\n".encode())
            with pytest.raises(VocabFormatError, match="spelt"):
                Vocabulary.deserialize(bad)

    def test_misordered_file_rejected(self):
        data = b"STEGOVOCAB v1\nb\t1\na\t1\n"
        with pytest.raises(VocabFormatError):
            Vocabulary.deserialize(data)

    def test_token_with_whitespace_rejected(self):
        for data in (b"STEGOVOCAB v1\na b\t1\n", b"STEGOVOCAB v1\na\x0bb\t1\n"):
            with pytest.raises(VocabFormatError, match="whitespace"):
                Vocabulary.deserialize(data)

    def test_duplicate_token_rejected(self):
        with pytest.raises(VocabFormatError):
            Vocabulary(("a", "a"), (1, 1))

    def test_index_token_bijection(self, mini_vocab):
        for i, surface in enumerate(mini_vocab.tokens):
            assert mini_vocab.index_of(surface) == i
            assert mini_vocab.token(i) == surface

    def test_unknown_token_raises(self, mini_vocab):
        with pytest.raises(CorpusError):
            mini_vocab.index_of("never-seen")

    @pytest.mark.parametrize("index, surface", [(np.int64(1), "b"), (True, None), (1.0, None),
                                                (1.5, None), (-1, None), (5, None)])
    def test_token_index_is_an_integer_in_range(self, index, surface):
        vocab = Vocabulary(("a", "b", "c", "d", "e"), (5, 4, 3, 2, 1))
        if surface is None:
            with pytest.raises(CorpusError, match="token index"):
                vocab.token(index)
        else:
            assert vocab.token(index) == surface

    def test_indices_or_unk(self, mini_vocab, mini_tokens):
        surfaces = [*mini_tokens[:50], "never-seen", UNK_TOKEN, "also-unseen"]
        unk = mini_vocab.index_of(UNK_TOKEN)
        ids = mini_vocab.indices_or_unk(surfaces)
        assert ids.dtype == np.int64
        assert ids.tolist() == [mini_vocab.index_of(s) if s in mini_vocab else unk
                                for s in surfaces]
        assert ids[-3:].tolist() == [unk] * 3
        assert mini_vocab.indices_or_unk([]).tolist() == []

    def test_oov_without_unk_raises(self):
        vocab = Vocabulary(("a", "b"), (2, 1))
        assert vocab.indices_or_unk(["b", "a"]).tolist() == [1, 0]
        with pytest.raises(CorpusError, match="token not in vocabulary: '<unk>'"):
            vocab.indices_or_unk(["a", "c"])


def test_token_whitespace_is_what_isspace_calls_whitespace():
    characters = [chr(c) for c in range(sys.maxunicode + 1)]
    spaces = [ch for ch in characters if ch.isspace()]
    assert len(spaces) == 29  # tab to carriage return, U+001C to U+001F, and Unicode blanks
    for ch in spaces:
        for surface in (ch, f"a{ch}", f"a{ch}b"):
            with pytest.raises(CorpusError, match="whitespace"):
                check_token(surface)
    others = "".join(ch for ch in characters if not ch.isspace())
    assert check_token(others) is others  # every other character, in one surface


def test_token_file_roundtrip(tmp_path, mini_tokens):
    path = tmp_path / "tokens.txt"
    write_token_file(path, mini_tokens)
    assert read_token_file(path) == list(mini_tokens)


def test_desk_corpus_regenerates(tmp_path, monkeypatch):
    out = tmp_path / "desk_corpus.txt"
    monkeypatch.setattr(sys, "argv", ["make_desk_corpus.py", "--out", str(out)])
    runpy.run_path(str(DATA.parents[2] / "scripts" / "make_desk_corpus.py"), run_name="__main__")
    assert out.read_bytes() == (DATA / "desk_corpus.txt").read_bytes()
