import random

import numpy as np
import pytest

from oracles import normalize_token_ref, phrase_ref, table_of
from symgraph.embeddings import load_embeddings, normalize_token
from symgraph.errors import EmbeddingParseError


def write_emb(tmp_path, lines):
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestNormalizeToken:
    def test_basic(self):
        assert normalize_token("  Car ") == "car"
        assert normalize_token("part_of") == "part of"
        assert normalize_token("red   car") == "red car"

    # pieces of tokens: the first four make tokens the fast path returns
    # unchanged, every other piece sends a token to the regex path
    PIECES = ["cat", "x1", "0", "z", "Cat", "DOG", "2024", "_", "part_of", "\t", "  ",
              " ", "\xa0", "\u2003", "\u0130", "\xdf", "e\u0301", "\u0301", "\u0661",
              "\x0b", "\x1c", "\n", "-", "\xe9"]

    def test_equals_regex_reference_on_random_tokens(self):
        rnd = random.Random(20261019)
        tokens = ["", "a", "1", "ab12", "AB12", "12", "\u0130stanbul", "stra\xdfe",
                  "cafe\u0301", "a\xa0b", "a\u2003b"]
        for _ in range(3000):
            pieces = self.PIECES[:4] if rnd.random() < 0.4 else self.PIECES
            tokens.append("".join(rnd.choice(pieces) for _ in range(rnd.randint(1, 6))))
        for token in tokens:
            assert normalize_token(token) == normalize_token_ref(token), repr(token)
        fast = sum(t.isascii() and t.isalnum() and t.islower() for t in tokens)
        assert 500 < fast < len(tokens) - 500  # both paths taken many times


class TestLoadEmbeddings:
    def test_basic_entry(self, tmp_path):
        vec = " ".join(str(0.1 * i) for i in range(300))
        table = load_embeddings(write_emb(tmp_path, [f"cat {vec}"]), dim=300)
        assert "cat" in table
        assert table.lookup_word("cat").shape == (300,)

    def test_wrong_float_count_names_line(self, tmp_path):
        good = "cat " + " ".join(["0.0"] * 300)
        bad = "dog " + " ".join(["0.0"] * 299)
        path = write_emb(tmp_path, [good, bad])
        with pytest.raises(EmbeddingParseError, match=":2"):
            load_embeddings(path, dim=300)

    def test_lookup_is_case_insensitive(self, tmp_path):
        path = write_emb(tmp_path, ["Cat 1.0 2.0 3.0"])
        table = load_embeddings(path, dim=3)
        np.testing.assert_array_equal(table.lookup_word("cat"), [1.0, 2.0, 3.0])

    def test_duplicates_keep_first(self, tmp_path):
        path = write_emb(tmp_path, ["cat 1.0 2.0", "cat 9.0 9.0"])
        table = load_embeddings(path, dim=2)
        np.testing.assert_array_equal(table.lookup_word("cat"), [1.0, 2.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmbeddingParseError):
            load_embeddings(path, dim=3)

    def test_non_numeric_rejected(self, tmp_path):
        path = write_emb(tmp_path, ["cat a b c"])
        with pytest.raises(EmbeddingParseError, match=":1"):
            load_embeddings(path, dim=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_rejected_naming_line(self, tmp_path, value):
        path = write_emb(tmp_path, ["cat 1.0 2.0 3.0", "", f"dog 1.0 {value} 3.0"])
        with pytest.raises(EmbeddingParseError, match=r":3: non-finite"):
            load_embeddings(path, dim=3)

    def test_large_finite_values_accepted(self, tmp_path):
        table = load_embeddings(write_emb(tmp_path, ["cat 1e308 1e308 -1e308"]), dim=3)
        np.testing.assert_array_equal(table.lookup_word("cat"), [1e308, 1e308, -1e308])

    def test_runs_of_whitespace_accepted(self, tmp_path):
        path = write_emb(tmp_path, ["cat 1.0 2.0 3.0 ", "dog  4.0\t5.0   6.0",
                                    " \t", "car 7.0 8.0 9.0\r"])
        table = load_embeddings(path, dim=3)
        np.testing.assert_array_equal(table.matrix, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert table.index == {"cat": 0, "dog": 1, "car": 2}

    def test_short_line_with_trailing_space_rejected(self, tmp_path):
        path = write_emb(tmp_path, ["cat 1.0 2.0 3.0", "dog 1.0 2.0 "])
        with pytest.raises(EmbeddingParseError, match=":2: .* got 2 values"):
            load_embeddings(path, dim=3)

    def test_entries_are_rows_of_one_read_only_matrix(self, tmp_path):
        path = write_emb(tmp_path, ["cat 1.0 2.0", "dog 3.0 4.0", "Cat 9.0 9.0"])
        table = load_embeddings(path, dim=2)
        assert len(table) == 2
        for token in table.index:
            vec = table.lookup_word(token)
            assert np.shares_memory(vec, table.matrix)
            np.testing.assert_array_equal(vec, table.matrix[table.index[token]])
        with pytest.raises(ValueError):
            table.lookup_word("cat")[0] = 0.0

    def test_entries_map_every_token_to_a_view_of_its_row(self, tmp_path):
        # no program path reads this view; the benchmark's worker does
        path = write_emb(tmp_path, ["cat 1.0 2.0", "dog 3.0 4.0", "Cat 9.0 9.0", "_ 5.0 6.0"])
        table = load_embeddings(path, dim=2)
        entries = table.entries
        assert list(entries) == list(table.index) == ["cat", "dog"]
        for token, vec in entries.items():
            assert np.shares_memory(vec, table.matrix[table.index[token]])
            assert np.array_equal(vec, table.matrix[table.index[token]])
            with pytest.raises(ValueError):
                vec[0] = 0.0


def embed(table, phrase):
    return table.phrase_vectors([phrase])[0]


class TestEmbedPhrase:
    @pytest.fixture
    def table(self):
        return table_of(3, {
            "cat": np.array([1.0, 2.0, 3.0]),
            "red": np.array([1.0, 0.0, 0.0]),
            "car": np.array([0.0, 2.0, 0.0]),
        })

    def test_known_token(self, table):
        np.testing.assert_array_equal(embed(table, "cat"), [1.0, 2.0, 3.0])

    def test_fully_oov_is_zero(self, table):
        np.testing.assert_array_equal(embed(table, "zqxjk"), [0.0] * 3)

    def test_phrase_mean(self, table):
        np.testing.assert_array_equal(embed(table, "red car"), [0.5, 1.0, 0.0])

    def test_underscore_split(self, table):
        np.testing.assert_array_equal(embed(table, "red_car"), [0.5, 1.0, 0.0])

    def test_partial_oov_averages_found_words_only(self, table):
        np.testing.assert_array_equal(embed(table, "shiny red"), [1.0, 0.0, 0.0])

    def test_order_insensitive(self, table):
        a = embed(table, "red car")
        b = embed(table, "car red")
        assert np.array_equal(a, b)

    def test_output_length_always_dim(self, table):
        for phrase in ("cat", "zq", "", "red cat car zz"):
            assert embed(table, phrase).shape == (3,)

    def test_many_phrases_equal_one_at_a_time(self, table):
        phrases = ["red car", "zq", "cat", "", "Car_red", "cat cat red", "cat"]
        got = table.phrase_vectors(phrases)
        assert got.shape == (len(phrases), 3)
        for row, phrase in zip(got, phrases):
            assert np.array_equal(row, embed(table, phrase))
            assert np.array_equal(row, phrase_ref(table, phrase))
        assert table.phrase_vectors([]).shape == (0, 3)


class TestPhraseMemo:
    PHRASES = ["red car", "zq", "cat", "", "Car_red", "cat cat red", "red car"]

    @staticmethod
    def fresh():
        return table_of(3, {"cat": np.array([1.0, 2.0, 3.0]),
                            "red": np.array([1.0, 0.0, 0.0]),
                            "car": np.array([0.0, 2.0, 0.0])})

    def test_warm_memo_equals_fresh_table(self, monkeypatch):
        from symgraph import embeddings

        warm = self.fresh()
        first = warm.phrase_vectors(self.PHRASES)
        calls = []
        monkeypatch.setattr(embeddings, "normalize_token",
                            lambda t: calls.append(t) or normalize_token(t))
        again = warm.phrase_vectors(self.PHRASES[::-1])
        assert calls == []  # every phrase was split once, by the first call
        assert np.array_equal(again[::-1], first)
        monkeypatch.undo()
        assert np.array_equal(first, self.fresh().phrase_vectors(self.PHRASES))

    def test_case_and_underscore_variants_share_rows(self):
        table = self.fresh()
        red, car = table.index["red"], table.index["car"]
        for phrase in ("red car", "Red_Car", "  RED   car ", "red__car"):
            assert table.phrase_rows(phrase) == (red, car), phrase
        assert table.phrase_rows("zq") == table.phrase_rows("") == ()

    def test_matrix_stays_read_only(self):
        table = self.fresh()
        table.phrase_vectors(self.PHRASES)
        assert not table.matrix.flags.writeable
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 0.0
