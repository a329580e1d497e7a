import json
import random
from dataclasses import asdict, replace

import pytest

from oracles import (RecordGraph, add_reverse_edges_ref, brute_force_knowledge_graph,
                     graph_from_dict_ref, graph_to_dict_ref, knowledge_graphs_ref,
                     scene_graph_ref, seed_tokens_ref, validate_graph_ref)
from symgraph import synth
from symgraph.dataset import load_bundle, prepare, split_ids, write_bundle
from symgraph.embeddings import load_embeddings, normalize_token
from symgraph.errors import SchemaError, ValidationError
from symgraph.evaluation import evaluate_dataset
from symgraph.graphs import (DEFAULT_RELATIONS, FactStore, GraphEdge, GraphNode,
                             LabeledGraph, RelationWhitelist, add_reverse_edges,
                             build_knowledge_graph, build_knowledge_graphs,
                             graph_from_dict, graph_to_dict, load_facts,
                             load_scene_document, load_scene_graph, seed_tokens,
                             validate_graph)
from symgraph.model import ModelConfig
from symgraph.training import TrainConfig, train


def seed_graph(*nodes):
    """A graph of seed nodes, given as names or GraphNode records, and no edges."""
    return LabeledGraph.from_records(
        [GraphNode(n) if isinstance(n, str) else n for n in nodes], [])


def doc(objects, relations, labels=("safety",)):
    return {
        "image_id": "img0",
        "objects": [{"name": n, "attributes": list(a)} for n, a in objects],
        "relations": [{"subj": s, "pred": p, "obj": o} for s, p, o in relations],
        "labels": list(labels),
    }


class TestLoadSceneGraph:
    def test_car_eggs(self):
        g = load_scene_graph(doc([("car", []), ("eggs", ["not broken"])],
                                 [(1, "sit in", 0)]))
        assert [n.name for n in g.nodes] == ["car", "eggs"]
        assert g.nodes[1].attributes == ["not broken"]
        assert (g.edges[0].src, g.edges[0].relation, g.edges[0].dst) == (1, "sit in", 0)
        assert g.kind == "scene"

    def test_empty_objects_accepted(self):
        g = load_scene_graph(doc([], []))
        assert g.nodes == [] and g.edges == []

    def test_dangling_edge_index(self):
        with pytest.raises(SchemaError, match="out of range"):
            load_scene_graph(doc([("a", []), ("b", [])], [(0, "x", 5)]))

    def test_unknown_field_rejected(self):
        d = doc([("a", [])], [])
        d["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            load_scene_graph(d)

    def test_missing_object_name(self):
        d = doc([("  ", [])], [])
        with pytest.raises(SchemaError, match="objects\\[0\\]"):
            load_scene_graph(d)

    def test_document_parts(self):
        image_id, g, labels = load_scene_document(doc([("a", [])], [], ["x", "y"]))
        assert image_id == "img0" and labels == ["x", "y"]

    def test_string_attributes_rejected(self):
        # a bare string is not a list of attributes (was split into letters)
        d = doc([("car", [])], [])
        d["objects"][0]["attributes"] = "red"
        with pytest.raises(SchemaError, match=r"objects\[0\]\.attributes"):
            load_scene_document(d)

    def test_string_labels_rejected(self):
        # a bare string is not a list of labels (was taken as its letters)
        d = doc([("car", [])], [])
        d["labels"] = "x"
        with pytest.raises(SchemaError, match="labels"):
            load_scene_document(d)

    @pytest.mark.parametrize("field", ["subj", "obj"])
    def test_boolean_node_index_rejected(self, field):
        # true is a JSON boolean, not node index 1
        d = doc([("car", []), ("road", [])], [(0, "on", 1)])
        d["relations"][0][field] = True
        with pytest.raises(SchemaError, match=rf"relations\[0\]\.{field}"):
            load_scene_document(d)

    @pytest.mark.parametrize("field", ["objects", "relations"])
    @pytest.mark.parametrize("value", ["", {}])
    def test_non_list_parts_rejected(self, field, value):
        # were read as an empty list
        d = doc([("car", [])], [])
        d[field] = value
        with pytest.raises(SchemaError, match=f"^{field}: must be a list"):
            load_scene_document(d)

    @pytest.mark.parametrize("bad_id", ["../x", "a/b", "a\\b", "", ".hidden"])
    def test_unsafe_image_id_rejected(self, bad_id):
        # the id names the example's file in a bundle
        d = doc([("a", [])], [])
        d["image_id"] = bad_id
        with pytest.raises(SchemaError, match="image_id"):
            load_scene_document(d)

    @pytest.mark.parametrize("bad_id", [True, [1], None, 3, 2.5, {"a": "b"}])
    def test_non_string_image_id_rejected(self, bad_id):
        # str() would turn true into "True" and [1] into "[1]"
        d = doc([("a", [])], [])
        d["image_id"] = bad_id
        with pytest.raises(SchemaError, match="^image_id: must be a string"):
            load_scene_document(d)


class TestFactStore:
    def test_load_and_index(self, tmp_path):
        path = tmp_path / "facts.tsv"
        path.write_text("RelatedTo\tbottle\talcohol\nIsA\tbottle\tcontainer\n")
        store = load_facts(path)
        assert len(store) == 2
        assert {t[2] for t in store.by_head["bottle"]} == {"alcohol", "container"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "facts.tsv"
        path.write_text("RelatedTo\tbottle\n")
        with pytest.raises(SchemaError, match=":1"):
            load_facts(path)


class TestWhitelist:
    def test_default_has_exactly_the_20_relations(self):
        wl = RelationWhitelist()
        assert len(wl.allowed) == 20
        assert "RelatedTo" in wl and "UsedFor" in wl and "DerivedFrom" in wl
        assert "Synonym" not in wl

    def test_default_tuple_matches(self):
        assert set(DEFAULT_RELATIONS) == RelationWhitelist().allowed


class TestBuildKnowledgeGraph:
    def setup_method(self):
        self.wl = RelationWhitelist()

    def test_bottle_example(self):
        store = FactStore([("RelatedTo", "bottle", "alcohol"),
                           ("IsA", "bottle", "container")])
        g = build_knowledge_graph(seed_graph("bottle"), store, self.wl,
                                  {"alcohol", "container"})
        assert [n.name for n in g.nodes] == ["alcohol", "bottle", "container"]
        assert len(g.edges) == 2
        assert g.kind == "knowledge"

    def test_non_whitelisted_relation_dropped(self):
        store = FactStore([("Synonym", "bottle", "flask")])
        g = build_knowledge_graph(seed_graph("bottle"), store, self.wl, {"flask"})
        assert [n.name for n in g.nodes] == ["bottle"]
        assert g.edges == []

    def test_out_of_vocab_tail_dropped(self):
        store = FactStore([("IsA", "bottle", "container")])
        g = build_knowledge_graph(seed_graph("bottle"), store, self.wl, {"cup"})
        assert [n.name for n in g.nodes] == ["bottle"]

    def test_attributes_are_seeds(self):
        store = FactStore([("HasProperty", "blue", "calm")])
        g = build_knowledge_graph(seed_graph(GraphNode("car", ["blue"])), store, self.wl,
                                  {"calm"})
        assert "calm" in [n.name for n in g.nodes]

    def test_match_tail_flag(self):
        store = FactStore([("RelatedTo", "animal", "bird")])
        seeds = seed_graph("bird")
        off = build_knowledge_graph(seeds, store, self.wl, {"animal", "bird"})
        on = build_knowledge_graph(seeds, store, self.wl, {"animal", "bird"},
                                   match_tail=True)
        assert [n.name for n in off.nodes] == ["bird"]
        assert [n.name for n in on.nodes] == ["animal", "bird"]
        # direction stays as stored: animal -> bird
        e = on.edges[0]
        assert (on.nodes[e.src].name, e.relation, on.nodes[e.dst].name) == \
            ("animal", "RelatedTo", "bird")

    def test_matches_brute_force_on_random_stores(self, rng):
        relations = list(DEFAULT_RELATIONS[:6]) + ["Synonym", "Antonym"]
        concepts = [f"c{i}" for i in range(20)]
        for _ in range(25):
            triples = [
                (relations[rng.integers(len(relations))],
                 concepts[rng.integers(len(concepts))],
                 concepts[rng.integers(len(concepts))])
                for _ in range(50)
            ]
            seeds = seed_graph(*(concepts[rng.integers(len(concepts))] for _ in range(3)))
            vocab = {concepts[i] for i in rng.choice(len(concepts), 10,
                                                     replace=False)}
            g = build_knowledge_graph(seeds, FactStore(triples),
                                      self.wl, vocab)
            nodes_ref, edges_ref = brute_force_knowledge_graph(
                seed_tokens(seeds), set(triples), self.wl.allowed, vocab)
            assert [n.name for n in g.nodes] == nodes_ref
            got_edges = [(g.nodes[e.src].name, e.relation, g.nodes[e.dst].name)
                         for e in g.edges]
            assert got_edges == edges_ref

    def test_independent_of_triple_order(self):
        triples = [("IsA", "a", "b"), ("HasA", "a", "c"), ("IsA", "b", "c")]
        g1 = build_knowledge_graph(seed_graph("a"), FactStore(triples),
                                   self.wl, {"b", "c"})
        g2 = build_knowledge_graph(seed_graph("a"), FactStore(triples[::-1]),
                                   self.wl, {"b", "c"})
        assert json.dumps(graph_to_dict(g1)) == json.dumps(graph_to_dict(g2))

    def test_one_hop_closure_property(self, rng):
        concepts = [f"c{i}" for i in range(15)]
        triples = [("IsA", concepts[rng.integers(15)], concepts[rng.integers(15)])
                   for _ in range(40)]
        seeds = seed_graph("c0", "c1")
        vocab = set(concepts)
        g = build_knowledge_graph(seeds, FactStore(triples), self.wl, vocab)
        seed_set = set(seed_tokens(seeds))
        for i, node in enumerate(g.nodes):
            if node.name in seed_set:
                continue
            heads = {g.nodes[e.src].name for e in g.edges if e.dst == i}
            assert heads & seed_set, f"non-seed node {node.name} not 1-hop reachable"

    def test_every_edge_relation_whitelisted(self, rng):
        triples = [("Synonym", "a", "b"), ("IsA", "a", "b"), ("RelatedTo", "b", "a")]
        g = build_knowledge_graph(seed_graph("a", "b"),
                                  FactStore(triples), self.wl, {"a", "b"})
        assert all(e.relation in self.wl for e in g.edges)


# Raw concept spellings: several normalize to one concept ("Bottle_Cap",
# "bottle cap"; "  x ", "x"), and "ghost" is a seed no fact mentions.
CORPUS_CONCEPTS = ["bottle", "Bottle_Cap", "bottle cap", "  x ", "x", "cup", "Cup",
                   "water", "Water", "glass", "red", "Red", "lid", "sea", "rock"]
CORPUS_RELATIONS = ["IsA", " IsA ", "RelatedTo", "UsedFor", "HasA", "Synonym",
                    "Antonym", "dbpedia_genre"]


def write_corpus(tmp_path, rnd, docs=32, facts=160, background=0):
    """Raw prepare inputs: ``docs`` scene documents (the first one without
    objects) over one shared fact store, plus ``background`` facts between
    concepts that no document names.  Returns (prepare arguments, fact rows,
    documents)."""
    rows = [(rnd.choice(CORPUS_RELATIONS), rnd.choice(CORPUS_CONCEPTS),
             rnd.choice(CORPUS_CONCEPTS)) for _ in range(facts)]
    rows += [(r, c, c) for r, c, _ in rows[:12]]  # self-loops
    rows += rows[:20]  # duplicates
    rows += [(rnd.choice(CORPUS_RELATIONS), f"bg{rnd.randrange(50)}", f"bg{rnd.randrange(50)}")
             for _ in range(background)]
    rnd.shuffle(rows)
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    documents = []
    for i in range(docs):
        objects = [{"name": rnd.choice(CORPUS_CONCEPTS + ["ghost"]),
                    "attributes": rnd.sample(["red", "Red", "ghost", "sea"],
                                             rnd.randint(0, 2))}
                   for _ in range(rnd.randint(1, 4) if i else 0)]
        doc = {"image_id": f"img{i:02d}", "objects": objects, "relations": [],
               "labels": [rnd.choice(["go", "Water"])]}
        (scene_dir / f"img{i:02d}.json").write_text(json.dumps(doc), encoding="utf-8")
        documents.append(doc)
    paths = {name: tmp_path / name for name in ("facts.tsv", "vocab.txt", "labels.txt")}
    paths["facts.tsv"].write_text("".join(f"{r}\t{h}\t{t}\n" for r, h, t in rows),
                                  encoding="utf-8")
    vocab = rnd.sample(CORPUS_CONCEPTS + [f"bg{i}" for i in range(50)], 30)
    paths["vocab.txt"].write_text("\n".join(vocab) + "\n", encoding="utf-8")
    paths["labels.txt"].write_text("go\nWater\n", encoding="utf-8")
    args = (scene_dir, paths["facts.tsv"], paths["vocab.txt"], paths["labels.txt"])
    return args, rows, documents


def corpus_seeds(doc):
    return {normalize_token(t) for obj in doc["objects"]
            for t in [obj["name"], *obj["attributes"]]}


def corpus_vocab(args):
    return {normalize_token(line)
            for path in args[2:] for line in path.read_text().split("\n")} - {""}


def oracle_graph(seeds, triples, allowed, vocab, match_tail):
    names, edges = brute_force_knowledge_graph(seeds, triples, allowed, vocab, match_tail)
    idx = {name: i for i, name in enumerate(names)}
    return LabeledGraph.from_records([GraphNode(n) for n in names],
                                     [GraphEdge(idx[h], idx[t], r) for h, r, t in edges],
                                     kind="knowledge")


class TestSharedStore:
    """prepare's knowledge graphs, built once per call over a filtered store,
    against the brute-force builder over every triple of the file."""

    @pytest.mark.parametrize("reverse_edges", [False, True])
    @pytest.mark.parametrize("match_tail", [False, True])
    def test_prepare_matches_brute_force(self, tmp_path, match_tail, reverse_edges):
        args, rows, documents = write_corpus(tmp_path, random.Random(11))
        triples = {(r.strip(), normalize_token(h), normalize_token(t)) for r, h, t in rows}
        allowed, vocab = RelationWhitelist().allowed, corpus_vocab(args)
        examples, _ = prepare(*args, match_tail=match_tail, reverse_edges=reverse_edges)
        assert [ex.image_id for ex in examples] == [d["image_id"] for d in documents]
        for ex, doc in zip(examples, documents):
            want = oracle_graph(corpus_seeds(doc), triples, allowed, vocab, match_tail)
            if reverse_edges:
                want = add_reverse_edges(want)
            assert graph_to_dict(ex.knowledge_graph) == graph_to_dict(want), ex.image_id
        # the corpus reaches what the filter and the whitelist must drop
        seeds = [corpus_seeds(doc) for doc in documents]
        everything = set(CORPUS_RELATIONS) | {r.strip() for r in CORPUS_RELATIONS}
        assert not seeds[0] and any("ghost" in s for s in seeds)
        assert any(oracle_graph(s, triples, allowed, vocab, True).edges
                   != oracle_graph(s, triples, allowed, vocab, False).edges for s in seeds)
        assert any(oracle_graph(s, triples, everything, vocab, match_tail).edges
                   != oracle_graph(s, triples, allowed, vocab, match_tail).edges
                   for s in seeds)

    @pytest.mark.parametrize("match_tail", [False, True])
    def test_many_seed_lists_equal_one_at_a_time(self, tmp_path, match_tail):
        args, _, documents = write_corpus(tmp_path, random.Random(12))
        store, wl, vocab = load_facts(args[1]), RelationWhitelist(), corpus_vocab(args)
        seed_lists = [seed_graph(*(GraphNode(o["name"], o["attributes"]) for o in d["objects"]))
                      for d in documents]
        graphs = build_knowledge_graphs(seed_lists, store, wl, vocab, match_tail)
        assert len(graphs) == len(seed_lists)
        for g, seeds in zip(graphs, seed_lists):
            one = build_knowledge_graph(seeds, store, wl, vocab, match_tail)
            assert graph_to_dict(g) == graph_to_dict(one)

    @pytest.mark.parametrize("match_tail", [False, True])
    def test_prepare_indexes_only_admissible_rows(self, tmp_path, monkeypatch, match_tail):
        # a later change must not go back to indexing the whole store
        args, rows, documents = write_corpus(tmp_path, random.Random(13), background=1000)
        seeds = set().union(*map(corpus_seeds, documents))
        vocab = corpus_vocab(args)
        admissible = sum(
            normalize_token(h) in seeds and normalize_token(t) in vocab
            or match_tail and normalize_token(t) in seeds and normalize_token(h) in vocab
            for _, h, t in rows)
        assert 0 < admissible < len(rows) / 4
        indexed = []
        from_columns = FactStore.from_columns.__func__

        def counting(cls, relations, heads, tails):
            indexed.append(len(relations))
            return from_columns(cls, relations, heads, tails)

        monkeypatch.setattr(FactStore, "from_columns", classmethod(counting))
        prepare(*args, match_tail=match_tail)
        assert indexed == [admissible]


class TestValidateGraph:
    def test_duplicate_edge_removed(self):
        g = LabeledGraph.from_records([GraphNode("a"), GraphNode("b")],
                                      [GraphEdge(0, 1, "r"), GraphEdge(0, 1, "r")])
        assert len(validate_graph(g).edges) == 1

    def test_knowledge_nodes_merged_by_normalized_name(self):
        g = LabeledGraph.from_records([GraphNode(" Car "), GraphNode("car")],
                                      [GraphEdge(0, 1, "IsA")], kind="knowledge")
        vg = validate_graph(g)
        assert [n.name for n in vg.nodes] == ["car"]
        assert vg.edges[0].src == vg.edges[0].dst == 0

    def test_scene_order_preserved_and_not_merged(self):
        g = LabeledGraph.from_records([GraphNode("b"), GraphNode("a"), GraphNode("a")], [])
        vg = validate_graph(g)
        assert [n.name for n in vg.nodes] == ["b", "a", "a"]

    def test_out_of_range_edge(self):
        g = LabeledGraph.from_records([GraphNode("a")], [GraphEdge(0, 3, "r")])
        with pytest.raises(ValidationError):
            validate_graph(g)

    def test_knowledge_nodes_sorted(self):
        g = LabeledGraph.from_records([GraphNode("z"), GraphNode("a")], [], kind="knowledge")
        assert [n.name for n in validate_graph(g).nodes] == ["a", "z"]


class TestReverseEdges:
    def test_adds_reversed_copies(self):
        g = LabeledGraph.from_records([GraphNode("a"), GraphNode("b")], [GraphEdge(0, 1, "r")])
        rg = add_reverse_edges(g)
        pairs = {(e.src, e.dst) for e in rg.edges}
        assert pairs == {(0, 1), (1, 0)}

    def test_self_loop_not_duplicated(self):
        g = LabeledGraph.from_records([GraphNode("a")], [GraphEdge(0, 0, "r")])
        assert len(add_reverse_edges(g).edges) == 1


class TestSerialization:
    def test_round_trip(self):
        g = validate_graph(LabeledGraph.from_records(
            [GraphNode("a", ["x"]), GraphNode("b")], [GraphEdge(0, 1, "r")]))
        g2 = graph_from_dict(graph_to_dict(g))
        assert graph_to_dict(g2) == graph_to_dict(g)

    @pytest.mark.parametrize("edge,bad", [
        # true is a JSON boolean, not node index 1 (was taken as 1)
        ({"src": True, "dst": 0, "relations": "r"}, "src"),
        ({"src": 0, "dst": 5, "relations": "r"}, "dst"),  # out of range for 2 nodes (was accepted)
        ({"src": -1, "dst": 0, "relations": "r"}, "src"),
        ({"src": 0, "dst": 1, "relations": 1}, "relations"),  # the relation is not a string
        ({"src": 0, "relations": "r"}, "dst"),  # no target: dst is one entry short
        ({"src": "0", "dst": 1, "relations": "r"}, "src"),
    ], ids=["boolean", "out_of_range", "negative", "int_relation", "short", "string"])
    def test_malformed_edge_rejected(self, edge, bad):
        d = {"kind": "scene", "names": ["a", "b"], "attributes": [[], []],
             "src": [0], "dst": [1], "relations": ["r"]}
        for key, value in edge.items():
            d[key].append(value)
        with pytest.raises(SchemaError, match=rf"^{bad}(\[1\]|: 1 entries for 2 in src)"):
            graph_from_dict(d)

    @pytest.mark.parametrize("field", ["kind", "names", "attributes", "src", "dst",
                                       "relations"])
    def test_missing_field_rejected(self, field):
        # was a KeyError
        d = graph_to_dict(LabeledGraph.from_records([GraphNode("a")], [], kind="knowledge"))
        del d[field]
        with pytest.raises(SchemaError, match=field):
            graph_from_dict(d)

    @pytest.mark.parametrize("patch", [
        {"kind": "dense"}, {"names": "ab"}, {"names": [3]}, {"attributes": ["red"]},
    ])
    def test_malformed_kind_or_nodes_rejected(self, patch):
        d = graph_to_dict(LabeledGraph.from_records([GraphNode("a")], [], kind="knowledge"))
        with pytest.raises(SchemaError):
            graph_from_dict({**d, **patch})

    @pytest.mark.parametrize("patch,message", [
        ({"attributes": [["x"]]}, "attributes: 1 entries for 2 names"),
        ({"relations": ["r"]}, "relations: 1 entries for 2 in src"),
    ], ids=["attributes_short", "relations_short"])
    def test_ragged_columns_rejected(self, patch, message):
        # zip would have dropped the second node's attributes or edge
        d = {"kind": "scene", "names": ["a", "b"], "attributes": [["x"], []],
             "src": [0, 1], "dst": [1, 0], "relations": ["r", "s"]}
        with pytest.raises(SchemaError, match=f"^{message}$"):
            graph_from_dict({**d, **patch})

    def test_record_layout_refused_with_how_to_remake(self):
        d = {"kind": "scene", "nodes": [{"name": "a", "attributes": []}],
             "edges": [[0, "r", 0]]}
        with pytest.raises(SchemaError, match="older symgraph.*'symgraph prepare'"):
            graph_from_dict(d)


class TestGraphRecords:
    def test_nodes_and_edges_are_slotted(self):
        # slotted records: no per-instance __dict__ to build and collect
        for record in (GraphNode("a", ["x"]), GraphEdge(0, 1, "r")):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.weight = 1.0

    def test_equality_and_asdict_unchanged(self):
        assert GraphNode("a") == GraphNode("a", [])
        assert GraphNode("a", ["x"]) != GraphNode("a", ["y"])
        assert GraphEdge(0, 1, "r") == GraphEdge(0, 1, "r") != GraphEdge(1, 0, "r")
        assert asdict(GraphNode("a", ["x"])) == {"name": "a", "attributes": ["x"]}
        assert asdict(GraphEdge(0, 1, "r")) == {"src": 0, "dst": 1, "relation": "r"}
        # a graph is its columns; its records are views of them
        g = LabeledGraph.from_records([GraphNode("a")], [GraphEdge(0, 0, "r")], kind="knowledge")
        assert asdict(g) == {"names": ("a",), "attributes": ((),), "src": (0,), "dst": (0,),
                             "relations": ("r",), "kind": "knowledge"}
        assert g.nodes == [GraphNode("a")] and g.edges == [GraphEdge(0, 0, "r")]


# Messy spellings: several names normalize to one ("Bottle_Cap", "bottle
# cap"), some attributes and one predicate normalize to nothing.
RECORD_NAMES = ["bottle", "Bottle_Cap", "bottle cap", "  x ", "x", "cup", "Cup", "water",
                "red", "lid"]
RECORD_ATTRS = ["red", "Red", "  ", "_", "__ _", "sea", "ghost", "lid"]
RECORD_PREDS = ["on", " On ", "near", "has_a", "_"]


def record_corpus(rnd, docs=40, facts=150):
    """Valid scene documents (the first without objects, the next two with
    objects but no relations, the rest with duplicate relations and a
    self-loop), and a fact store over their normalized concepts."""
    documents = []
    for i in range(docs):
        k = rnd.randint(1, 5) if i else 0
        objects = [{"name": rnd.choice(RECORD_NAMES),
                    "attributes": rnd.sample(RECORD_ATTRS, rnd.randint(0, 3))}
                   for _ in range(k)]
        for obj in objects[:1]:
            if i % 4 == 3:
                del obj["attributes"]
        relations = []
        if i >= 3:
            relations = [{"subj": rnd.randrange(k), "pred": rnd.choice(RECORD_PREDS),
                          "obj": rnd.randrange(k)} for _ in range(rnd.randint(1, 6))]
            relations += relations[:2] + [{"subj": k - 1, "pred": "near", "obj": k - 1}]
        documents.append({"image_id": f"img{i:02d}", "objects": objects,
                          "relations": relations, "labels": ["go"]})
    concepts = sorted({normalize_token(c) for c in RECORD_NAMES + RECORD_ATTRS} - {""}
                      | {"vessel", "liquid", "metal"})
    relations = list(DEFAULT_RELATIONS[:5]) + ["Synonym"]
    triples = [(rnd.choice(relations), rnd.choice(concepts), rnd.choice(concepts))
               for _ in range(facts)]
    vocab = set(rnd.sample(concepts, len(concepts) * 2 // 3))
    return documents, FactStore(triples), vocab


def record_columns(g):
    """The columns of a record graph, node and edge fields in record order."""
    return (tuple(n.name for n in g.nodes), tuple(tuple(n.attributes) for n in g.nodes),
            tuple(e.src for e in g.edges), tuple(e.dst for e in g.edges),
            tuple(e.relation for e in g.edges), g.kind)


def graph_columns(g):
    return g.names, g.attributes, g.src, g.dst, g.relations, g.kind


class TestColumnsMatchRecordPath:
    """Every path that builds columns, against the record path of
    ``oracles`` on a seeded corpus, field by field."""

    @pytest.mark.parametrize("reverse_edges", [False, True])
    @pytest.mark.parametrize("match_tail", [False, True])
    def test_ingestion_and_bundle_round_trip(self, match_tail, reverse_edges):
        documents, store, vocab = record_corpus(random.Random(21))
        wl = RelationWhitelist()
        raw = [load_scene_document(d)[1] for d in documents]
        raw_ref = [scene_graph_ref(d) for d in documents]
        for g, ref in zip(raw, raw_ref):
            assert graph_columns(g) == record_columns(ref)
            assert graph_columns(validate_graph(replace(g, kind="knowledge"))) == \
                record_columns(validate_graph_ref(RecordGraph(ref.nodes, ref.edges, "knowledge")))
        sgs = list(map(validate_graph, raw))
        sgs_ref = list(map(validate_graph_ref, raw_ref))
        for g, ref in zip(sgs, sgs_ref):
            assert seed_tokens(g) == seed_tokens_ref(ref.nodes)
        kgs = build_knowledge_graphs(sgs, store, wl, vocab, match_tail)
        kgs_ref = knowledge_graphs_ref([g.nodes for g in sgs_ref], store, wl, vocab, match_tail)
        pairs = list(zip(sgs + kgs, sgs_ref + kgs_ref))
        if reverse_edges:
            pairs = [(add_reverse_edges(g), add_reverse_edges_ref(ref)) for g, ref in pairs]
        for g, ref in pairs:
            assert graph_columns(g) == record_columns(ref)
            d = graph_to_dict(g)
            assert json.dumps(d, sort_keys=True) == json.dumps(graph_to_dict_ref(ref),
                                                               sort_keys=True)
            assert graph_columns(graph_from_dict(json.loads(json.dumps(d)))) == \
                record_columns(graph_from_dict_ref(d))
        # the corpus reaches every case it is meant to
        assert not raw[0].names and raw[1].names and not raw[1].src
        assert any(len(set(zip(g.src, g.dst, g.relations))) < len(g.src) for g in raw)
        assert any(s == d for g in raw for s, d in zip(g.src, g.dst))
        assert any(len(a) > len(b) for g, v in zip(raw, sgs)
                   for a, b in zip(g.attributes, v.attributes))
        assert any(len(set(g.names)) < len(g.names) for g in sgs)
        assert sum(map(len, (g.src for g in kgs))) > len(kgs)


def test_program_paths_build_no_records(tmp_path, monkeypatch):
    # records are views for tests and tools; ingestion, bundles, training and
    # evaluation read the columns
    paths = synth.generate(synth.SynthSpec(num_examples=30, seed=3), tmp_path / "raw")

    def refuse(self):
        raise AssertionError("a program path built graph records")

    monkeypatch.setattr(LabeledGraph, "nodes", property(refuse))
    monkeypatch.setattr(LabeledGraph, "edges", property(refuse))
    raw = (paths["scene_dir"], paths["facts"], paths["vocab"], paths["labels"])
    prepare(*raw, match_tail=True, reverse_edges=True)
    examples, labels = prepare(*raw)
    write_bundle(tmp_path / "bundle", examples, labels,
                 split_ids([ex.image_id for ex in examples], 3))
    splits, labels = load_bundle(tmp_path / "bundle")
    table = load_embeddings(paths["embeddings"], dim=16)
    mconfig = ModelConfig(num_labels=len(labels), embed_dim=16, hidden_dim=8, gcn_layers=2)
    params, log, _, _ = train(splits["train"], splits["val"], labels, table, mconfig,
                              TrainConfig(epochs=1, batch_size=8))
    report = evaluate_dataset(splits["test"], params, table, mconfig, labels)
    assert len(log.records) == 1 and len(report.per_label) == len(labels)
