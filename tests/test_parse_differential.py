"""parse_coloring against its json path alone, on mutated canonical documents.

parse_coloring reads the exact bytes serialize_coloring writes on a fast
path and hands everything else to the json path. On every input the two
must agree: an equal coloring with an equal digest, or the same error class
with the same message. The mutations start from the canonical document of a
relabelled round-robin coloring and change its frame (whitespace, key
order, newline, BOM, trailing bytes, str instead of bytes), the spelling of
one number, or one entry. Raw byte edits insert, delete or substitute one
or two bytes anywhere in the document, including inside the commas and
brackets that bound its rows.

parse_coloring also reads an open binary file, a chunk at a time when it can
seek and whole when it cannot, so every mutated document is read from a file
and from a pipe too, and each must give the outcome the bytes give.
"""

import hashlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowtrees import (
    AdjacentClash,
    ColorOutOfRange,
    InputError,
    MissingPair,
    SchemaError,
    parse_coloring,
    permuted_round_robin,
    serialize_coloring,
)
from rainbowtrees import coloring as coloring_module
from rainbowtrees.coloring import _CANONICAL_HEAD, _CHUNK, _parse_canonical, _parse_json


def outcome(parse, data):
    try:
        coloring = parse(data)
    except InputError as exc:
        return "error", type(exc), str(exc)
    return "ok", coloring, coloring.digest()


class _Pipe(io.RawIOBase):
    """Bytes behind a stream that cannot seek, as a pipe's."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file the tests write each document to before reading it back."""
    return tmp_path_factory.mktemp("documents") / "c.json"


def assert_readers_agree(doc, path):
    """parse_coloring reads from a file and from a pipe what it reads from
    the bytes; a str document has no file form here."""
    if isinstance(doc, str):
        return
    want = outcome(parse_coloring, doc)
    path.write_bytes(doc)
    with open(path, "rb") as handle:
        assert outcome(parse_coloring, handle) == want
    assert outcome(parse_coloring, io.BufferedReader(_Pipe(doc))) == want


def fields(coloring):
    """The document's entries as lists of number spellings."""
    return [[str(u), str(v), str(c)] for u, v, c in coloring.edges()]


def document(entries, n, n_first=False):
    """The document with ``n`` spelled as given, "n" last unless ``n_first``."""
    edges = ",".join(f"[{','.join(entry)}]" for entry in entries)
    if n_first:
        return f'{{"n":{n},"edges":[{edges}]}}\n'.encode()
    return f'{{"edges":[{edges}],"n":{n}}}\n'.encode()


# one number of one entry, spelled otherwise; some still read as a valid color
SPELLINGS = {
    "float": lambda x: f"{x}.0",
    "bool": lambda x: "true",
    "minus_zero": lambda x: "-0",
    "negative": lambda x: f"-{x}" if x != "0" else "-1",
    "leading_zero": lambda x: f"0{x}",
    "huge": lambda x: "9" * 5000,
}
ENTRY_MUTATIONS = ("swap_uv", "drop", "repeat_in_place", "repeat_extra", "improper")
FRAME_MUTATIONS = ("whitespace", "n_first", "n", "no_newline", "bom", "trailing", "str")


def mutate_entries(entries, n, kind, data):
    if not entries:  # m = 1 has one entry, which "drop" may have taken
        return
    j = data.draw(st.integers(0, len(entries) - 1), label="entry")
    if kind in SPELLINGS:
        at = data.draw(st.integers(0, 2), label="field")
        entries[j][at] = SPELLINGS[kind](entries[j][at])
    elif kind == "swap_uv":
        entries[j][0], entries[j][1] = entries[j][1], entries[j][0]
    elif kind == "drop":
        del entries[j]
    elif kind == "repeat_in_place":
        entries[j] = list(entries[data.draw(st.integers(0, len(entries) - 1), label="source")])
    elif kind == "repeat_extra":
        entries.insert(j, list(entries[j]))
    else:  # another color, in range or not
        c = data.draw(st.integers(0, n - 1).filter(lambda c: str(c) != entries[j][2]))
        entries[j][2] = str(c)


def mutate_frame(doc, kind, data):
    if kind == "whitespace":
        marks = [i for i, b in enumerate(doc) if b in b",:[]{}"]
        at = data.draw(st.sampled_from(marks), label="after") + 1
        return doc[:at] + data.draw(st.sampled_from([b" ", b"\n", b"\t", b"\r\n"])) + doc[at:]
    if kind == "no_newline":
        return doc[:-1]
    if kind == "bom":
        return b"\xef\xbb\xbf" + doc
    if kind == "trailing":
        return doc + data.draw(st.sampled_from([b" ", b"\n", b"x", b"{}", b"\x00"]))
    return doc.decode()  # "str"; n_first and n apply when the document is written


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    entry_kinds=st.lists(st.sampled_from(sorted(SPELLINGS) + list(ENTRY_MUTATIONS)), max_size=2),
    frame_kinds=st.lists(st.sampled_from(FRAME_MUTATIONS), max_size=2),
    data=st.data(),
)
def test_parse_coloring_agrees_with_the_json_path(
    m, seed, entry_kinds, frame_kinds, data, path
):
    coloring = permuted_round_robin(m, seed)
    n = coloring.n
    entries = fields(coloring)
    for kind in entry_kinds:
        mutate_entries(entries, n, kind, data)
    n_text = str(n)
    if "n" in frame_kinds:
        spellings = [*SPELLINGS.values(), lambda x: str(n - 1), lambda x: str(n + 2)]
        n_text = data.draw(st.sampled_from(spellings), label="n spelling")(n_text)
    doc = document(entries, n_text, n_first="n_first" in frame_kinds)
    for kind in frame_kinds:
        if kind not in ("n_first", "n") and isinstance(doc, bytes):
            doc = mutate_frame(doc, kind, data)
    assert outcome(parse_coloring, doc) == outcome(_parse_json, doc)
    assert_readers_agree(doc, path)
    if not entry_kinds and not frame_kinds:
        assert doc == serialize_coloring(coloring)
        assert _parse_canonical(io.BytesIO(doc)) == coloring


# bytes an edit writes: those that spell the document, and any other
EDIT_BYTES = st.sampled_from(b'0123456789,[]"n:{} ') | st.integers(0, 255)


def edit_bytes(doc, data):
    """``doc`` after one or two single-byte insertions, deletions or
    substitutions, each anywhere or next to a comma or a bracket, where the
    rows and entries meet."""
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        marks = [mark.start() for mark in re.finditer(rb"[,\[\]]", doc)]
        at = data.draw(
            st.integers(0, len(doc))
            | st.builds(int.__add__, st.sampled_from(marks), st.integers(0, 1)),
            label="at",
        )
        kind = data.draw(st.sampled_from(["insert", "delete", "substitute"]), label="kind")
        new = bytes([data.draw(EDIT_BYTES, label="byte")])
        if kind == "insert":
            doc = doc[:at] + new + doc[at:]
        else:
            doc = doc[:at] + (new if kind == "substitute" else b"") + doc[at + 1:]
    return doc


def assert_paths_agree(doc, path):
    """parse_coloring agrees with the json path on ``doc``, whether it reads
    bytes, a file or a pipe, and the fast path reads a coloring only where the
    json path reads an equal one and digest."""
    slow = outcome(_parse_json, doc)
    assert outcome(parse_coloring, doc) == slow
    assert_readers_agree(doc, path)
    fast = _parse_canonical(io.BytesIO(doc))
    if fast is not None:
        assert slow == ("ok", fast, fast.digest())


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_byte_edits_agree_with_the_json_path(m, seed, data, path):
    doc = edit_bytes(serialize_coloring(permuted_round_robin(m, seed)), data)
    assert_paths_agree(doc, path)


# n = 120: rows, columns and colors past 99 take three digits, and the
# document is longer than the chunk a file is read in
_DOCUMENT_60 = serialize_coloring(permuted_round_robin(60, 7))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_byte_edits_agree_with_the_json_path_at_three_digits(data, path):
    assert_paths_agree(edit_bytes(_DOCUMENT_60, data), path)


@pytest.mark.parametrize("edit", ["delete", "flip", "space", "bracket"])
@pytest.mark.parametrize("past", [1, 2000, 9000])
def test_an_edit_past_the_first_chunk_agrees_with_the_json_path(edit, past, path):
    # the fast path has read and accepted rows from the first chunk of the
    # file before it meets the edit and refuses the document
    at = _CHUNK + past
    assert at < len(_DOCUMENT_60) - 20
    head, byte, rest = _DOCUMENT_60[:at], _DOCUMENT_60[at:at + 1], _DOCUMENT_60[at + 1:]
    # a flipped low bit turns a digit into another, "," into "-" and "[" into "Z"
    new = {"delete": b"", "flip": bytes([byte[0] ^ 1]), "space": b" " + byte, "bracket": b"]" + byte}
    assert_paths_agree(head + new[edit] + rest, path)


def test_a_document_of_many_chunks_reads_alike_from_bytes_a_file_and_a_pipe(path):
    coloring = permuted_round_robin(60, 7)
    assert len(_DOCUMENT_60) > _CHUNK
    assert_paths_agree(_DOCUMENT_60, path)
    path.write_bytes(_DOCUMENT_60)
    with open(path, "rb") as handle:
        assert _parse_canonical(handle) == coloring


class _ChangesAfterItsTail(io.BytesIO):
    """A file whose bytes from offset ``at`` on become ``new`` right after its
    first read, the fast path's probe of the tail, as a file still being
    written can."""

    def __init__(self, data, at, new):
        super().__init__(data)
        self._change = at, new

    def read(self, size=-1):
        chunk = super().read(size)
        if self._change:
            here, (at, new) = self.tell(), self._change
            self.seek(at)
            self.write(new)
            self.seek(here)
            self._change = None
        return chunk


@pytest.mark.parametrize("change", ["append", "rewrite"])
def test_a_file_that_changes_after_its_tail_is_read_goes_to_the_json_path(change):
    # the rows all stand, but the bytes no longer end in the tail the probe
    # read: one more newline, or a space in place of the last one
    coloring = permuted_round_robin(6, 3)
    doc = serialize_coloring(coloring)
    at, new = (len(doc), b"\n") if change == "append" else (len(doc) - 1, b" ")
    changed = doc[:at] + new
    assert _parse_canonical(_ChangesAfterItsTail(doc, at, new)) is None
    read = outcome(parse_coloring, _ChangesAfterItsTail(doc, at, new))
    assert read == outcome(_parse_json, changed) == ("ok", coloring, coloring.digest())


def test_every_chunk_boundary_reads_alike(monkeypatch, path):
    # with chunks of any size from the head's length on, a chunk boundary
    # splits each row, separator and the tail somewhere, and the first
    # single-byte edits meet a boundary as well
    coloring = permuted_round_robin(6, 3)
    doc = serialize_coloring(coloring)
    digest = hashlib.sha256(doc).hexdigest()
    for size in range(len(_CANONICAL_HEAD), len(doc) + 2):
        monkeypatch.setattr(coloring_module, "_CHUNK", size)
        fast = _parse_canonical(io.BytesIO(doc))
        assert fast == coloring and fast.digest() == digest
        if size < 40:
            for at in range(0, len(doc), 7):
                assert_paths_agree(doc[:at] + doc[at + 1:], path)


def test_a_file_below_the_bytes_per_entry_bound_agrees_with_the_json_path(path):
    # a canonical frame for n = 200000 around one entry: far fewer than 8
    # bytes per entry, so the fast path refuses it from the file's size
    doc = b'{"edges":[[0,1,0]],"n":200000}\n'
    assert outcome(parse_coloring, doc) == (
        "error", MissingPair, "pair (0,2) has no color"
    )
    assert_paths_agree(doc, path)


def test_every_single_byte_edit_agrees_with_the_json_path(path):
    # n = 12 spells vertices 10 and 11 and color 10 with two digits; every
    # position gets each edit with bytes that keep the document close to JSON
    doc = serialize_coloring(permuted_round_robin(6, 3))
    for at in range(len(doc) + 1):
        assert_paths_agree(doc[:at] + doc[at + 1:], path)
        for new in (bytes([b]) for b in b"019,[] "):
            assert_paths_agree(doc[:at] + new + doc[at:], path)
            assert_paths_agree(doc[:at] + new + doc[at + 1:], path)


def _in_place_of_another(entries):
    entries[-1] = list(entries[-2])


def _missing_pair(entries):
    del entries[3]


def _color_out_of_range(entries):
    entries[2][2] = "9"


def _improper(entries):
    entries[0][2] = entries[1][2]


@pytest.mark.parametrize(
    "corrupt, error, message",
    [
        (_in_place_of_another, SchemaError, r"pair \(3,5\) appears more than once"),
        (_missing_pair, MissingPair, r"pair \(0,4\) has no color"),
        (_color_out_of_range, ColorOutOfRange, r"color 9 on pair \(0,3\)"),
        (_improper, AdjacentClash, "meet at vertex 0"),
    ],
    ids=["SchemaError", "MissingPair", "ColorOutOfRange", "AdjacentClash"],
)
def test_a_canonical_frame_around_an_invalid_coloring_raises_the_json_paths_error(
    corrupt, error, message
):
    # the fast path reads the colors of these documents and refuses them
    coloring = permuted_round_robin(3, 5)
    entries = fields(coloring)
    corrupt(entries)
    doc = document(entries, coloring.n)
    assert _parse_canonical(io.BytesIO(doc)) is None
    with pytest.raises(error, match=message) as fast:
        parse_coloring(doc)
    with pytest.raises(error) as slow:
        _parse_json(doc)
    assert str(fast.value) == str(slow.value)
