import json

import pytest

from oracles import brute_force_knowledge_graph
from symgraph.errors import SchemaError, ValidationError
from symgraph.graphs import (DEFAULT_RELATIONS, FactStore, GraphEdge, GraphNode,
                             LabeledGraph, RelationWhitelist, add_reverse_edges,
                             build_knowledge_graph, graph_from_dict,
                             graph_to_dict, load_facts, load_scene_document,
                             load_scene_graph, seed_tokens, validate_graph)


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
        g = build_knowledge_graph([GraphNode("bottle")], store, self.wl,
                                  {"alcohol", "container"})
        assert [n.name for n in g.nodes] == ["alcohol", "bottle", "container"]
        assert len(g.edges) == 2
        assert g.kind == "knowledge"

    def test_non_whitelisted_relation_dropped(self):
        store = FactStore([("Synonym", "bottle", "flask")])
        g = build_knowledge_graph([GraphNode("bottle")], store, self.wl, {"flask"})
        assert [n.name for n in g.nodes] == ["bottle"]
        assert g.edges == []

    def test_out_of_vocab_tail_dropped(self):
        store = FactStore([("IsA", "bottle", "container")])
        g = build_knowledge_graph([GraphNode("bottle")], store, self.wl, {"cup"})
        assert [n.name for n in g.nodes] == ["bottle"]

    def test_attributes_are_seeds(self):
        store = FactStore([("HasProperty", "blue", "calm")])
        g = build_knowledge_graph([GraphNode("car", ["blue"])], store, self.wl,
                                  {"calm"})
        assert "calm" in [n.name for n in g.nodes]

    def test_match_tail_flag(self):
        store = FactStore([("RelatedTo", "animal", "bird")])
        seeds = [GraphNode("bird")]
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
            seeds = [GraphNode(concepts[rng.integers(len(concepts))])
                     for _ in range(3)]
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
        g1 = build_knowledge_graph([GraphNode("a")], FactStore(triples),
                                   self.wl, {"b", "c"})
        g2 = build_knowledge_graph([GraphNode("a")], FactStore(triples[::-1]),
                                   self.wl, {"b", "c"})
        assert json.dumps(graph_to_dict(g1)) == json.dumps(graph_to_dict(g2))

    def test_one_hop_closure_property(self, rng):
        concepts = [f"c{i}" for i in range(15)]
        triples = [("IsA", concepts[rng.integers(15)], concepts[rng.integers(15)])
                   for _ in range(40)]
        seeds = [GraphNode("c0"), GraphNode("c1")]
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
        g = build_knowledge_graph([GraphNode("a"), GraphNode("b")],
                                  FactStore(triples), self.wl, {"a", "b"})
        assert all(e.relation in self.wl for e in g.edges)


class TestValidateGraph:
    def test_duplicate_edge_removed(self):
        g = LabeledGraph([GraphNode("a"), GraphNode("b")],
                         [GraphEdge(0, 1, "r"), GraphEdge(0, 1, "r")])
        assert len(validate_graph(g).edges) == 1

    def test_knowledge_nodes_merged_by_normalized_name(self):
        g = LabeledGraph([GraphNode(" Car "), GraphNode("car")],
                         [GraphEdge(0, 1, "IsA")], kind="knowledge")
        vg = validate_graph(g)
        assert [n.name for n in vg.nodes] == ["car"]
        assert vg.edges[0].src == vg.edges[0].dst == 0

    def test_scene_order_preserved_and_not_merged(self):
        g = LabeledGraph([GraphNode("b"), GraphNode("a"), GraphNode("a")], [])
        vg = validate_graph(g)
        assert [n.name for n in vg.nodes] == ["b", "a", "a"]

    def test_out_of_range_edge(self):
        g = LabeledGraph([GraphNode("a")], [GraphEdge(0, 3, "r")])
        with pytest.raises(ValidationError):
            validate_graph(g)

    def test_knowledge_nodes_sorted(self):
        g = LabeledGraph([GraphNode("z"), GraphNode("a")], [], kind="knowledge")
        assert [n.name for n in validate_graph(g).nodes] == ["a", "z"]


class TestReverseEdges:
    def test_adds_reversed_copies(self):
        g = LabeledGraph([GraphNode("a"), GraphNode("b")], [GraphEdge(0, 1, "r")])
        rg = add_reverse_edges(g)
        pairs = {(e.src, e.dst) for e in rg.edges}
        assert pairs == {(0, 1), (1, 0)}

    def test_self_loop_not_duplicated(self):
        g = LabeledGraph([GraphNode("a")], [GraphEdge(0, 0, "r")])
        assert len(add_reverse_edges(g).edges) == 1


class TestSerialization:
    def test_round_trip(self):
        g = validate_graph(LabeledGraph(
            [GraphNode("a", ["x"]), GraphNode("b")], [GraphEdge(0, 1, "r")]))
        g2 = graph_from_dict(graph_to_dict(g))
        assert graph_to_dict(g2) == graph_to_dict(g)

    @pytest.mark.parametrize("edge", [
        [True, "r", 0],  # true is a JSON boolean, not node index 1 (was taken as 1)
        [0, "r", 5],  # out of range for 2 nodes (was accepted)
        [-1, "r", 0],
        [0, 1, 1],  # the relation is not a string
        [0, "r"],
        "0 r 1",
    ], ids=["boolean", "out_of_range", "negative", "int_relation", "short", "string"])
    def test_malformed_edge_rejected(self, edge):
        d = {"kind": "scene", "nodes": [{"name": "a", "attributes": []}, {"name": "b"}],
             "edges": [[0, "r", 1], edge]}
        with pytest.raises(SchemaError, match=r"^edges\[1\]"):
            graph_from_dict(d)

    @pytest.mark.parametrize("field", ["kind", "nodes", "edges"])
    def test_missing_field_rejected(self, field):
        # was a KeyError
        d = graph_to_dict(LabeledGraph([GraphNode("a")], [], kind="knowledge"))
        del d[field]
        with pytest.raises(SchemaError, match=field):
            graph_from_dict(d)

    @pytest.mark.parametrize("patch", [
        {"kind": "dense"}, {"nodes": "ab"}, {"nodes": [{"name": 3}]},
        {"nodes": [{"name": "a", "attributes": "red"}]},
    ])
    def test_malformed_kind_or_nodes_rejected(self, patch):
        d = graph_to_dict(LabeledGraph([GraphNode("a")], [], kind="knowledge"))
        with pytest.raises(SchemaError):
            graph_from_dict({**d, **patch})
