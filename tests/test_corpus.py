import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_respellings
from stegolm.corpus import (
    CorpusConfig,
    EOS_TOKEN,
    UNK_TOKEN,
    URL_TOKEN,
    USER_TOKEN,
    Vocabulary,
    build_vocab,
    read_token_file,
    tokenize,
    write_token_file,
)
from stegolm.errors import CorpusError, VocabFormatError


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

    def test_index_or_unk(self, mini_vocab):
        assert mini_vocab.index_or_unk("never-seen") == mini_vocab.index_of(UNK_TOKEN)


def test_token_file_roundtrip(tmp_path, mini_tokens):
    path = tmp_path / "tokens.txt"
    write_token_file(path, mini_tokens)
    assert read_token_file(path) == list(mini_tokens)
