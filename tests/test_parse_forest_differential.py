"""parse_forest against the per-edge loop it replaced, on valid and mutated
forest documents.

parse_forest screens each tree's edges at C speed and runs the per-edge
checks only to name a fault. ``reference_parse_forest`` below is the loop
that checked every edge in Python. On every document the two must agree: an
equal Forest, or the same error class with the same message. The mutations
start from the document of a built forest and change the document's keys,
one tree's root or edge list, or one number or shape of one edge, in one or
more trees, so that the first fault in document order is what is named.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowtrees import (
    Forest,
    InputError,
    RainbowTree,
    SchemaError,
    build_forest,
    forest_to_json,
    parse_forest,
    permuted_round_robin,
)
from rainbowtrees.coloring import read_json


def reference_parse_forest(data) -> Forest:
    """parse_forest as one Python loop over every edge of every tree."""
    doc = read_json(data, "forest")
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    m = doc.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SchemaError('"m" must be a positive integer')
    raw_trees = doc.get("trees")
    if not isinstance(raw_trees, list):
        raise SchemaError('"trees" must be a list')
    digest = doc.get("coloring_digest")
    if digest is not None and not isinstance(digest, str):
        raise SchemaError('"coloring_digest" must be a string when present')
    n = 2 * m
    trees = []
    for idx, entry in enumerate(raw_trees):
        if not isinstance(entry, dict):
            raise SchemaError(f"tree {idx} is not an object")
        root = entry.get("root")
        edges = entry.get("edges")
        if not isinstance(root, int) or isinstance(root, bool) or not 0 <= root < n:
            raise SchemaError(f"tree {idx} root must be a vertex in [0, {n - 1}]")
        if not isinstance(edges, list):
            raise SchemaError(f'tree {idx} "edges" must be a list')
        triples = []
        for e in edges:
            if (
                not isinstance(e, list)
                or len(e) != 3
                or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
            ):
                raise SchemaError(f"tree {idx} edge {e!r} is not an integer triple")
            u, v, c = e
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise SchemaError(f"tree {idx} edge ({u},{v}) is not a vertex pair")
            triples.append((u, v, c))
        trees.append(RainbowTree.from_edges(root, triples))
    return Forest(m=m, trees=tuple(trees), coloring_digest=digest)


def outcome(parse, data):
    try:
        return "ok", parse(data)
    except InputError as exc:
        return "error", type(exc), str(exc)


# values standing in for one number: some are ints the checks accept
NUMBERS = st.sampled_from([True, False, None, 1.0, -1, -0.0, "3", [], {}, 10**30, 0])
# values standing in for one edge entry
ENTRIES = st.sampled_from([None, 3, "abc", {"u": 0}, [], [0], [0, 1], [0, 1, 2, 3], [[0], 1, 2]])
DOC_MUTATIONS = ("m", "trees", "digest", "root_type")
TREE_MUTATIONS = ("not_object", "root", "edges", "no_root", "no_edges", "empty_edges")
EDGE_MUTATIONS = ("entry", "number", "negative", "past_n", "loop", "swap", "repeat", "color")


def mutate(doc, kind, data):
    if not isinstance(doc, dict):
        return doc
    n = 2 * doc["m"] if type(doc["m"]) is int else 4  # m may be mutated already
    trees = doc["trees"]
    if kind == "m":
        doc["m"] = data.draw(st.sampled_from([0, -1, True, 1.5, "4", None, n // 2 + 1]))
    elif kind == "trees":
        doc["trees"] = data.draw(st.sampled_from([None, {}, "trees", []]))
    elif kind == "digest":
        doc["coloring_digest"] = data.draw(st.sampled_from([None, 7, ["x"], "other"]))
    elif kind == "root_type":
        doc = data.draw(st.sampled_from([[doc], "doc", 4, None]))
    elif not isinstance(trees, list) or not trees:
        return doc
    else:
        t = data.draw(st.integers(0, len(trees) - 1), label="tree")
        tree = trees[t]
        if not isinstance(tree, dict):
            return doc
        edges = tree.get("edges")
        if kind == "not_object":
            trees[t] = data.draw(ENTRIES)
        elif kind == "root":
            tree["root"] = data.draw(st.sampled_from([-1, n, True, 1.0, None, "0"]))
        elif kind == "edges":
            tree["edges"] = data.draw(st.sampled_from([None, {}, "edges", 3]))
        elif kind == "no_root":
            tree.pop("root", None)
        elif kind == "no_edges":
            tree.pop("edges", None)
        elif kind == "empty_edges":
            tree["edges"] = []
        elif not isinstance(edges, list) or not edges:
            return doc
        else:
            j = data.draw(st.integers(0, len(edges) - 1), label="edge")
            e = edges[j]
            if kind == "entry":
                edges[j] = data.draw(ENTRIES)
            elif not isinstance(e, list) or len(e) != 3:
                return doc
            elif kind == "number":
                e[data.draw(st.integers(0, 2), label="field")] = data.draw(NUMBERS)
            elif kind == "negative":
                e[data.draw(st.integers(0, 1), label="end")] = -1
            elif kind == "past_n":
                e[data.draw(st.integers(0, 1), label="end")] = n + data.draw(st.integers(0, 2))
            elif kind == "loop":
                e[1] = e[0]
            elif kind == "swap":
                e[0], e[1] = e[1], e[0]
            elif kind == "repeat":
                edges.insert(j, list(e))
            else:  # any int color: the verifier, not the reader, judges it
                # (n < 0 once "m" became -1, which the reader refuses first)
                e[2] = data.draw(st.integers(-5, max(3 * n, 0)))
    return doc


@settings(max_examples=400, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kinds=st.lists(
        st.sampled_from(DOC_MUTATIONS + TREE_MUTATIONS + EDGE_MUTATIONS * 3), max_size=3
    ),
    data=st.data(),
)
def test_parse_forest_agrees_with_the_per_edge_loop(m, seed, kinds, data):
    forest, _ = build_forest(permuted_round_robin(m, seed))
    doc = json.loads(forest_to_json(forest))
    for kind in kinds:
        doc = mutate(doc, kind, data)
    text = json.dumps(doc)
    got = outcome(parse_forest, text)
    assert got == outcome(reference_parse_forest, text)
    if not kinds:
        assert got == ("ok", forest)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1, 0], [1, 2, True]], r"tree 1 edge \[1, 2, True\] is not an integer triple"),
        ([[0, 1, 0], [2, 2, 1]], r"tree 1 edge \(2,2\) is not a vertex pair"),
        ([[0, 4, 0], [0, 1]], r"tree 1 edge \(0,4\) is not a vertex pair"),
        ([[0, 1, 0], [0, 1]], r"tree 1 edge \[0, 1\] is not an integer triple"),
    ],
    ids=["bool", "loop", "first_of_two", "short"],
)
def test_parse_forest_names_the_first_bad_edge(edges, message):
    doc = {"m": 2, "trees": [{"root": 0, "edges": [[0, 1, 0]]}, {"root": 1, "edges": edges}]}
    text = json.dumps(doc)
    with pytest.raises(SchemaError, match=message) as fast:
        parse_forest(text)
    with pytest.raises(SchemaError) as slow:
        reference_parse_forest(text)
    assert str(fast.value) == str(slow.value)
