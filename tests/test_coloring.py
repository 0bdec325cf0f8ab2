import hashlib
import json
import random
import tracemalloc
from array import array
from enum import IntEnum

import pytest
from conftest import assert_partner_rows_invert
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rainbowtrees.coloring as coloring_module
from rainbowtrees import (
    AdjacentClash,
    ColorOutOfRange,
    InputError,
    InternalInvariantError,
    MissingPair,
    NotAPermutation,
    SchemaError,
    SelfLoop,
    parse_coloring,
    permute_coloring,
    permuted_round_robin,
    round_robin,
    serialize_coloring,
    validate_proper,
)


def raw_table(coloring):
    return {(u, v): c for u, v, c in coloring.edges()}


def test_round_robin_m2_table():
    c = round_robin(2)
    classes = {0: set(), 1: set(), 2: set()}
    for u, v, col in c.edges():
        classes[col].add((u, v))
    assert classes[0] == {(0, 3), (1, 2)}
    assert classes[1] == {(1, 3), (0, 2)}
    assert classes[2] == {(2, 3), (0, 1)}


def test_round_robin_m1_single_edge():
    c = round_robin(1)
    assert list(c.edges()) == [(0, 1, 0)]


def test_color_of_examples():
    c = round_robin(2)
    assert c.color_of(0, 1) == 2
    assert c.color_of(3, 1) == 1


def test_color_of_symmetric():
    c = round_robin(3)
    for u in range(6):
        for v in range(6):
            if u != v:
                assert c.color_of(u, v) == c.color_of(v, u)


def test_color_of_self_loop():
    with pytest.raises(SelfLoop):
        round_robin(2).color_of(1, 1)


def test_partner_examples():
    c = round_robin(2)
    assert c.partner(0, 1) == 2
    assert c.partner(1, 3) == 1


@pytest.mark.parametrize("m", [1, 2, 5])
def test_partner_is_fixed_point_free_involution(m):
    c = round_robin(m)
    for color in range(c.n_colors):
        for v in range(c.n):
            w = c.partner(color, v)
            assert w != v
            assert c.partner(color, w) == v
            assert c.color_of(v, w) == color


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_every_color_class_has_m_edges(m):
    c = round_robin(m)
    counts = {}
    for _, _, col in c.edges():
        counts[col] = counts.get(col, 0) + 1
    assert set(counts) == set(range(2 * m - 1))
    assert all(k == m for k in counts.values())


@pytest.mark.parametrize("m", list(range(1, 11)))
def test_round_robin_validates(m):
    c = round_robin(m)
    again = validate_proper(raw_table(c), m)
    assert again == c


def test_validate_rejects_adjacent_clash():
    c = round_robin(2)
    table = raw_table(c)
    # force two edges of color 0 at vertex 0
    table[(0, 1)] = 0
    table[(0, 2)] = 0
    table[(1, 2)] = 2
    table[(1, 3)] = 1
    with pytest.raises(AdjacentClash) as err:
        validate_proper(table, 2)
    assert err.value.vertex == 0
    assert err.value.color == 0


def test_checked_refuses_a_cell_outside_the_colors_when_no_row_repeats():
    # no caller hands _checked such a table: it breaks the precondition
    table = coloring_module._round_robin_table(3)
    table[4 * 6 + 5] = -1
    with pytest.raises(InternalInvariantError, match=r"^cell \(4,5\) .* holds -1, outside \[0, 4\]$"):
        coloring_module._checked(3, table)


def test_validate_rejects_missing_pair():
    table = raw_table(round_robin(2))
    del table[(1, 2)]
    with pytest.raises(MissingPair):
        validate_proper(table, 2)


def test_validate_rejects_color_out_of_range():
    table = raw_table(round_robin(2))
    table[(1, 2)] = 3
    with pytest.raises(ColorOutOfRange):
        validate_proper(table, 2)


def test_validate_accepts_either_orientation():
    table = {(v, u): c for u, v, c in round_robin(2).edges()}
    assert validate_proper(table, 2) == round_robin(2)


def test_permute_identity():
    c = round_robin(3)
    assert permute_coloring(c, range(6), range(5)) == c


def test_permute_then_inverse_is_identity():
    c = round_robin(4)
    vp = [3, 1, 0, 2, 7, 6, 5, 4]
    cp = [2, 0, 1, 4, 3, 6, 5]
    vp_inv = [vp.index(i) for i in range(8)]
    cp_inv = [cp.index(i) for i in range(7)]
    once = permute_coloring(c, vp, cp)
    assert permute_coloring(once, vp_inv, cp_inv) == c


def test_permute_rejects_non_permutation():
    c = round_robin(2)
    with pytest.raises(NotAPermutation):
        permute_coloring(c, [0, 0, 1, 2], range(3))
    with pytest.raises(NotAPermutation):
        permute_coloring(c, range(4), [0, 1, 1])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=10), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_permuted_round_robin_stays_proper(m, seed):
    c = permuted_round_robin(m, seed)
    # revalidation from the raw table is the properness oracle
    assert validate_proper(raw_table(c), m) == c


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m", [2, 5, 12])
def test_permuted_round_robin_is_permute_coloring_of_round_robin(m, seed):
    # the same shuffles, applied to the raw round-robin table instead
    rng = random.Random(seed)
    vp, cp = list(range(2 * m)), list(range(2 * m - 1))
    rng.shuffle(vp)
    rng.shuffle(cp)
    want, got = permute_coloring(round_robin(m), vp, cp), permuted_round_robin(m, seed)
    assert got == want
    assert [got.partner_row(v) for v in range(2 * m)] == [want.partner_row(v) for v in range(2 * m)]
    assert got.digest() == want.digest()


def test_permuted_round_robin_builds_one_coloring():
    # the raw round-robin table is typed from the start and relabelled and
    # validated once: at its peak two typed tables of 0.3 MiB are alive, and
    # no list table (1.3 MiB) or partner row ever is
    tracemalloc.start()
    try:
        coloring = permuted_round_robin(200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coloring.n == 400
    assert peak <= 2**20


def test_colorings_need_a_positive_m():
    with pytest.raises(ValueError, match="m must be a positive integer"):
        round_robin(0)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        validate_proper({}, 0)


def test_permuted_round_robin_is_seed_deterministic():
    assert permuted_round_robin(6, 42) == permuted_round_robin(6, 42)
    assert serialize_coloring(permuted_round_robin(6, 42)) == serialize_coloring(
        permuted_round_robin(6, 42)
    )


@pytest.mark.parametrize("m", [1, 2, 5])
def test_serialize_parse_roundtrip(m):
    c = round_robin(m)
    data = serialize_coloring(c)
    assert parse_coloring(data) == c
    # canonical form is a fixed point
    assert serialize_coloring(parse_coloring(data)) == data


def test_parse_rejects_odd_n():
    with pytest.raises(SchemaError):
        parse_coloring(json.dumps({"n": 5, "edges": []}))


def test_parse_rejects_duplicate_pair():
    doc = json.loads(serialize_coloring(round_robin(2)))
    doc["edges"].append(doc["edges"][0])
    with pytest.raises(SchemaError):
        parse_coloring(json.dumps(doc))


def test_parse_rejects_unordered_pair():
    with pytest.raises(SchemaError):
        parse_coloring(json.dumps({"n": 2, "edges": [[1, 0, 0]]}))


def test_parse_rejects_malformed_json():
    with pytest.raises(SchemaError, match="^coloring: malformed JSON: "):
        parse_coloring(b"{not json")


def test_parse_applies_properness_validation():
    doc = json.loads(serialize_coloring(round_robin(2)))
    doc["edges"] = [[u, v, 0] for u, v, _ in (tuple(e) for e in doc["edges"])]
    with pytest.raises(AdjacentClash):
        parse_coloring(json.dumps(doc))


def test_digest_is_stable_and_distinguishes():
    a = round_robin(3)
    assert a.digest() == round_robin(3).digest()
    assert a.digest() != permuted_round_robin(3, 1).digest()


def test_digest_of_a_canonical_document_is_the_sha256_of_its_bytes(monkeypatch):
    data = serialize_coloring(permuted_round_robin(7, 3))
    coloring = parse_coloring(data)

    def no_serialization(_):
        raise AssertionError("the digest serialized the coloring again")

    monkeypatch.setattr(coloring_module, "serialize_coloring", no_serialization)
    monkeypatch.setattr(coloring_module, "coloring_chunks", no_serialization)
    assert coloring.digest() == hashlib.sha256(data).hexdigest()


def test_digest_hashes_the_document_a_row_at_a_time():
    # the document of round_robin(200) is 1 MiB; the digest never holds it whole
    coloring = round_robin(200)
    tracemalloc.start()
    try:
        digest = coloring.digest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(serialize_coloring(coloring)).hexdigest()
    assert peak <= 2**18


def test_validate_rejects_two_colors_for_one_pair():
    table = raw_table(round_robin(2))
    table[(2, 1)] = (table[(1, 2)] + 1) % 3
    with pytest.raises(SchemaError, match="two different colors"):
        validate_proper(table, 2)


# the error class each one-cell corruption raises, from validate_proper and
# from parse_coloring; a bool is not an integer in a document's schema
ONE_CELL_ERRORS = {
    "missing": (MissingPair, MissingPair),
    "out_of_range": (ColorOutOfRange, ColorOutOfRange),
    "bool": (ColorOutOfRange, SchemaError),
    "clash": (AdjacentClash, AdjacentClash),
}


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(sorted(ONE_CELL_ERRORS)),
    data=st.data(),
)
def test_one_corrupted_cell_raises_its_error_class(m, seed, kind, data):
    c = permuted_round_robin(m, seed)
    table = raw_table(c)
    u, v = data.draw(st.sampled_from(sorted(table)))
    if kind == "missing":
        del table[(u, v)]
    elif kind == "out_of_range":
        table[(u, v)] = data.draw(
            st.one_of(st.integers(max_value=-1), st.integers(min_value=2 * m - 1))
        )
    elif kind == "bool":
        table[(u, v)] = data.draw(st.booleans())
    else:  # give (u, v) the color of another edge at u
        assume(m >= 2)
        w = data.draw(st.sampled_from([w for w in range(2 * m) if w not in (u, v)]))
        table[(u, v)] = c.color_of(u, w)
    from_table, from_document = ONE_CELL_ERRORS[kind]
    with pytest.raises(InputError) as err:
        validate_proper(table, m)
    assert type(err.value) is from_table
    doc = {"n": 2 * m, "edges": [[a, b, col] for (a, b), col in sorted(table.items())]}
    with pytest.raises(InputError) as err:
        parse_coloring(json.dumps(doc))
    assert type(err.value) is from_document


@pytest.mark.parametrize("value", [32767, 32768, 2**63, -1, -(2**40), True, False])
def test_a_color_outside_the_typed_cells_is_named_on_every_path(value):
    # array('h') overflows at 32768, so each path screens its colors before
    # they fill the typed table; a bool is no integer in a document's schema
    table = raw_table(permuted_round_robin(3, 2))
    table[(1, 4)] = value
    doc = {"n": 6, "edges": [[u, v, c] for (u, v), c in sorted(table.items())]}
    spellings = [json.dumps(doc), coloring_module.canonical_json_bytes(doc)]
    with pytest.raises(ColorOutOfRange, match=rf"color {value} on pair \(1,4\) is outside"):
        validate_proper(table, 3)
    for data in spellings:
        if isinstance(value, bool):
            with pytest.raises(SchemaError, match=r"edge entry \[1, 4, (True|False)\] is not"):
                parse_coloring(data)
        else:
            with pytest.raises(ColorOutOfRange, match=rf"color {value} on pair \(1,4\)"):
                parse_coloring(data)


def test_parse_rejects_a_pair_repeated_in_place_of_another():
    # the edge count is right, so only the repeat tells; it outranks the
    # out-of-range color on an earlier pair, as the entries come first
    doc = json.loads(serialize_coloring(round_robin(3)))
    doc["edges"][0][2] = 99
    doc["edges"][-1] = list(doc["edges"][-2])
    with pytest.raises(SchemaError, match="more than once"):
        parse_coloring(json.dumps(doc))


def test_parse_of_a_short_document_reports_without_the_table():
    # n = 200000 would need a table of 4e10 cells
    with pytest.raises(MissingPair, match=r"pair \(0,1\) has no color"):
        parse_coloring(json.dumps({"n": 200000, "edges": []}))
    # what comes first in (u, v) order is reported, as for a full document
    doc = json.loads(serialize_coloring(round_robin(3)))
    del doc["edges"][4]
    with pytest.raises(MissingPair, match=r"pair \(0,5\)"):
        parse_coloring(json.dumps(doc))
    doc["edges"][2][2] = 5
    with pytest.raises(ColorOutOfRange, match=r"pair \(0,3\)"):
        parse_coloring(json.dumps(doc))
    doc["edges"][3] = doc["edges"][0]
    with pytest.raises(SchemaError, match="more than once"):
        parse_coloring(json.dumps(doc))
    with pytest.raises(SchemaError, match="integer triple"):
        parse_coloring(json.dumps({"n": 4, "edges": [[0, 1, True]]}))


def test_partner_table_holds_one_int_per_vertex():
    # the color rows are typed at 2 bytes per cell and no partner row exists
    # until it is asked for; pointer rows would keep 1.3 MiB per table here
    tracemalloc.start()
    try:
        coloring = round_robin(200)
        retained = tracemalloc.get_traced_memory()[0]
        for v in range(coloring.n):
            coloring.partner(0, v)
        with_partners = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert coloring.n == 400
    assert retained <= 0.5 * 2**20
    # the partner rows are typed as well
    assert with_partners <= 2**20


def test_int_subclass_colors_read_as_plain_ints():
    plain = round_robin(3)
    Color = IntEnum("Color", {f"c{c}": c for c in range(plain.n - 1)})
    coloring = validate_proper({(u, v): Color(c) for u, v, c in plain.edges()}, 3)
    assert coloring == plain
    assert coloring.digest() == plain.digest()
    assert all(type(coloring.color_of(u, v)) is int for u, v, _ in plain.edges())


_Color5 = IntEnum("_Color5", {f"c{c}": c for c in range(9)})


@pytest.mark.parametrize(
    "make",
    [
        lambda: round_robin(1),
        lambda: round_robin(5),
        lambda: permuted_round_robin(12, 3),
        # partners above 256, which typed rows box afresh on every read
        lambda: permuted_round_robin(200, 1),
        lambda: validate_proper(
            {(u, v): _Color5(c) for u, v, c in round_robin(5).edges()}, 5
        ),
    ],
    ids=["rr1", "rr5", "prr12-s3", "prr200-s1", "intenum5"],
)
def test_partner_rows_invert_the_color_rows(make):
    assert_partner_rows_invert(make)


def _reference(m, seed=None):
    """The flat color table of round_robin(m), relabelled as permuted_round_robin
    relabels it for ``seed`` and spelled from the round-robin formula cell by
    cell, and the sha256 of its document as json.dumps spells it."""
    n, cyc = 2 * m, 2 * m - 1
    vp, cp = list(range(n)), list(range(cyc))
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(vp)
        rng.shuffle(cp)
    table = [-1] * (n * n)
    for u in range(n):
        for v in range(n):
            if u != v:
                c = v if u == cyc else u if v == cyc else (u + v) * m % cyc
                table[vp[u] * n + vp[v]] = cp[c]
    edges = [[u, v, table[u * n + v]] for u in range(n) for v in range(u + 1, n)]
    doc = json.dumps({"n": n, "edges": edges}, sort_keys=True, separators=(",", ":")) + "\n"
    return array("h", table), hashlib.sha256(doc.encode()).hexdigest()


def _respelled(coloring):
    """The coloring's document as json.dumps spells it, with spaces, so the
    json path reads it."""
    return json.dumps(json.loads(serialize_coloring(coloring)))


@pytest.mark.parametrize(
    "make, seed",
    [
        (lambda: round_robin(200), None),
        (lambda: permuted_round_robin(200, 1), 1),
        (lambda: validate_proper(raw_table(permuted_round_robin(200, 1)), 200), 1),
        (lambda: parse_coloring(serialize_coloring(permuted_round_robin(200, 1))), 1),
        (lambda: parse_coloring(_respelled(permuted_round_robin(200, 1))), 1),
    ],
    ids=["round_robin", "permuted", "validate", "canonical", "json"],
)
def test_every_path_holds_typed_rows(make, seed):
    # the rows are the n slices of one flat typed array, whichever path built it
    coloring = make()
    table, digest = _reference(200, seed)
    assert type(coloring._color) is array and coloring._color.typecode == "h"
    assert coloring._color == table and len(table) == 400 * 400
    assert coloring.digest() == digest


def test_rows_take_two_bytes_up_to_n_32768():
    # cells run from -1 (the diagonal) to n-1 (a partner), so 'h' holds them
    # up to n = 32768 and not beyond; no table is built, since one for
    # n = 32770 would take about 4 GB
    assert coloring_module._typecode(32768) == "h"
    assert coloring_module._typecode(32770) == "i"
    assert array("h", [-1, 32768 - 1]).tolist() == [-1, 32767]
    with pytest.raises(OverflowError):
        array("h", [32770 - 1])


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_validate_fills_one_typed_table():
    # the colors in (u, v) order and the typed table peak at 3.8 MiB here;
    # a table of n list rows of pointers would peak at 5.0 MiB
    table = raw_table(round_robin(400))
    assert _peak_bytes(lambda: validate_proper(table, 400)) <= 4.5 * 2**20


@pytest.mark.parametrize(
    "data",
    [b'{"edges":[[0,1,0]],"n":200000}\n', json.dumps({"n": 200000, "edges": [[0, 1, 0]]})],
    ids=["canonical", "spaced"],
)
def test_parse_of_a_short_document_stays_within_a_mebibyte(data):
    # the canonical spelling reaches the fast path, which must refuse it
    # before the 4e10-cell table, as the json path does
    def short():
        with pytest.raises(MissingPair, match=r"pair \(0,2\) has no color"):
            parse_coloring(data)

    assert _peak_bytes(short) < 2**20


@pytest.mark.parametrize("m", [100, 200])
def test_canonical_parse_holds_little_beyond_its_tables(m):
    # read row by row, the document's colors are never all held at once
    data = serialize_coloring(permuted_round_robin(m, 1))
    tracemalloc.start()
    try:
        coloring = parse_coloring(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coloring.digest() == hashlib.sha256(data).hexdigest()
    assert peak - retained <= 2 * len(data)


def test_validate_of_a_short_mapping_reports_without_the_table():
    # the n x n table would take 32 MB at m = 1000 and 1.3 MB at m = 200
    def empty():
        with pytest.raises(MissingPair, match=r"pair \(0,1\) has no color"):
            validate_proper({}, 1000)

    assert _peak_bytes(empty) < 64_000
    table = raw_table(round_robin(200))
    del table[(398, 399)]

    def late():
        with pytest.raises(MissingPair, match=r"pair \(398,399\) has no color"):
            validate_proper(table, 200)

    assert _peak_bytes(late) < 64_000
    # per pair in (u, v) order: two colors, then none, then out of range
    table = raw_table(round_robin(3))
    del table[(2, 4)]
    table[(3, 0)] = (table[(0, 3)] + 1) % 5
    table[(1, 2)] = 9
    with pytest.raises(SchemaError, match=r"pair \(0,3\) is assigned two different colors"):
        validate_proper(table, 3)
    del table[(3, 0)]
    with pytest.raises(ColorOutOfRange, match=r"color 9 on pair \(1,2\)"):
        validate_proper(table, 3)
    table[(1, 2)] = round_robin(3).color_of(1, 2)
    with pytest.raises(MissingPair, match=r"pair \(2,4\) has no color"):
        validate_proper(table, 3)
