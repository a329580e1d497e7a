"""The bulk text readers (``load_embeddings``, ``load_facts``) against their
line-at-a-time references in ``oracles``, on a seeded corpus of awkward
files, and a guard that well-formed files never take the per-line path."""

import random

import numpy as np
import pytest

from oracles import load_embeddings_ref, load_facts_ref
from symgraph import embeddings, graphs
from symgraph.embeddings import load_embeddings
from symgraph.errors import SymgraphError
from symgraph.graphs import load_facts

ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]
BLANKS = ["", "  ", "\t \x0b", "\xa0", "\x1c"]
SEPARATORS = [" ", " ", " ", "\t", "  ", "\x0b", "\x1c", "\xa0", "\u2003"]
TOKENS = ["cat", "Cat", "dog", "DOG", "part_of", "Part_Of", "___", "é", "x1"]
ODD_VALUES = ["1_0", "nan", "1e309", "-0.0", "1e308", "abc", "\u0661", "-inf"]
CONCEPTS = ["car", "Car", " car ", "red_car", "Red  Car", "vehicle", "é",
            "a\x0bb", "a\x1cb", "a\xa0b", "x\u2003y", ""]
RELATIONS = ["IsA", " IsA ", "IsA\xa0", "HasA", "\x0bPartOf", "PartOf"]


def write_lines(rnd, path, lines):
    """Lines with mixed endings; sometimes no final newline."""
    text = "".join(line + rnd.choice(ENDINGS) for line in lines)
    if rnd.random() < 0.3:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    return text


def embedding_line(rnd, dim):
    roll = rnd.random()
    if roll < 0.1:
        return rnd.choice(BLANKS)
    count = rnd.choice([0, dim - 1, dim + 1]) if roll < 0.15 else dim
    values = [rnd.choice(ODD_VALUES) if rnd.random() < 0.03
              else repr(round(rnd.uniform(-1, 1), rnd.randint(1, 17)))
              for _ in range(count)]
    fields = [rnd.choice(TOKENS), *values]
    body = "".join(f + rnd.choice(SEPARATORS) for f in fields[:-1]) + fields[-1]
    return rnd.choice(["", "", " "]) + body + rnd.choice(["", "", " ", "\t"])


def fact_line(rnd):
    roll = rnd.random()
    if roll < 0.1:
        return rnd.choice(BLANKS)
    count = rnd.choice([2, 4]) if roll < 0.15 else 3
    return "\t".join([rnd.choice(RELATIONS), *(rnd.choice(CONCEPTS)
                                              for _ in range(count - 1))])


def outcome(read, path, *args):
    """The reader's result, or the type and message of the error it raised."""
    try:
        return read(path, *args), None
    except SymgraphError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("bulk_min_bytes", [0, embeddings.BULK_MIN_BYTES],
                         ids=["bulk", "by_size"])
def test_embedding_reader_matches_line_reference(tmp_path, monkeypatch, bulk_min_bytes):
    # the corpus files are small: at 0 bytes they all take the bulk path
    monkeypatch.setattr(embeddings, "BULK_MIN_BYTES", bulk_min_bytes)
    rnd = random.Random(20261018)
    texts, loaded = [], 0
    for i in range(300):
        dim = rnd.choice([1, 2, 3])
        path = tmp_path / f"emb{i}.txt"
        lines = [embedding_line(rnd, dim) for _ in range(rnd.randint(0, 8))]
        texts.append(write_lines(rnd, path, lines))
        got, got_error = outcome(load_embeddings, path, dim)
        want, want_error = outcome(load_embeddings_ref, path, dim)
        assert got_error == want_error, path.read_bytes()
        if want is not None:
            matrix, index = want
            assert got.matrix.shape == matrix.shape
            assert got.matrix.tobytes() == matrix.tobytes(), path.read_bytes()
            assert list(got.index.items()) == list(index.items())
            loaded += 1
    # the corpus holds every case the readers must agree on
    for feature in ["\r\n", "\x0b", "\x1c", "\xa0", "\u2003", "Cat", "Part_Of",
                    "___", *ODD_VALUES]:
        assert any(feature in text for text in texts), feature
    assert any(text and not text.endswith(("\n", "\r")) for text in texts)
    assert 100 < loaded < 250


def test_fact_reader_matches_line_reference(tmp_path):
    rnd = random.Random(20261019)
    texts, loaded = [], 0
    for i in range(300):
        path = tmp_path / f"facts{i}.tsv"
        lines = [fact_line(rnd) for _ in range(rnd.randint(0, 8))]
        texts.append(write_lines(rnd, path, lines))
        got, got_error = outcome(load_facts, path)
        want, want_error = outcome(load_facts_ref, path)
        assert got_error == want_error, path.read_bytes()
        if want is not None:
            triples, by_head, by_tail = want
            assert set(got.triples) == triples and len(got) == len(triples)
            assert dict(got.by_head) == by_head and dict(got.by_tail) == by_tail
            loaded += 1
    for feature in ["\r\n", "\x0b", "\x1c", "\xa0", "\u2003", " IsA ", "Red  Car"]:
        assert any(feature in text for text in texts), feature
    assert any(text and not text.endswith(("\n", "\r")) for text in texts)
    assert 100 < loaded < 250


@pytest.fixture
def no_line_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("a well-formed file took the per-line path")

    monkeypatch.setattr(embeddings, "_parse_lines", refuse)
    monkeypatch.setattr(graphs, "_raise_bad_fact_line", refuse)


def test_well_formed_files_load_in_bulk(tmp_path, no_line_path):
    rng = np.random.default_rng(7)
    emb = tmp_path / "vectors.txt"
    emb.write_text("".join(f"tok{i} " + " ".join(map(repr, row)) + "\n"
                           for i, row in enumerate(rng.normal(size=(2000, 8)).tolist())),
                   encoding="utf-8")
    assert emb.stat().st_size >= embeddings.BULK_MIN_BYTES
    table = load_embeddings(emb, dim=8)
    matrix, index = load_embeddings_ref(emb, 8)
    assert table.matrix.tobytes() == matrix.tobytes() and table.index == index

    facts = tmp_path / "facts.tsv"
    concepts = rng.integers(300, size=(2000, 2))
    facts.write_text("".join(f"IsA\tc{h}\tc{t}\n" for h, t in concepts), encoding="utf-8")
    store = load_facts(facts)
    triples, by_head, by_tail = load_facts_ref(facts)
    assert set(store.triples) == triples and dict(store.by_head) == by_head
    assert dict(store.by_tail) == by_tail
