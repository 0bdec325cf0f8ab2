"""Golden sha256s of coloring, forest, trace and verify-report bytes.

The generators, the coloring serializer and the constructor may be
restructured freely, but for the same instance and policy every artifact
they write must stay byte-identical; the trace digests change only with the
trace version (now 3). These digests pin that down; they are independent of
PYTHONHASHSEED.
"""

import hashlib

import pytest

from rainbowtrees import (
    MAX_INDEX,
    MIN_INDEX,
    build_forest,
    forest_to_json,
    permuted_round_robin,
    random_policy,
    round_robin,
    serialize_coloring,
    trace_to_jsonl,
    verify_all,
)

GOLDEN = [
    (
        12, 3, "min", MIN_INDEX,
        "5ebbf23e608b5cc036204e62d578f4c3b2e7354942f598a9ecea436ebb29be3c",
        "94c013ad1d845fc941032deb239c8b806bae167b8868a1e0751b7ed0eb7cff6e",
        "9ccfc4ae648a583389a7c9a4c325c4f1141f8a433d1156ce3014d3f6b160d213",
    ),
    (
        23, 5, "max", MAX_INDEX,
        "e163595f9bdb8989e2ffd9af3f5449da894c1811db17219b67b4b492ecf96231",
        "b882b34d4858d8d9365ac845940a277bbad9a17881fde402aef34c4ecc9ec1d5",
        "e68532bf784742aebc2dced597be26f1f2301208022e22dd6c721ab2e4cee77e",
    ),
    (
        36, 7, "random11", random_policy(11),
        "695d2f92d45c01ca3ceccacd403fbda039336a58e9b60701a2b07e0b892e3e7d",
        "4001880356798e8f2c29ce3167267e4b464f21852f84ef5d4a4c2a40ddd7508a",
        "2e487a20b2c39300fc826d3e5c9c79a7aa2cbc8c8d2aa0aa78a9783d3bf4deb6",
    ),
    (
        100, 1, "random2", random_policy(2),
        "4a498f4ca38c51ed0b5827eafc33f381f4833ed80882000be119b83dacc2272f",
        "42c49276ca7cef0e86a4e75a75b81785e45f6ec8338bb7025ae379f984822d5a",
        "24fc0f322574dec33b9e95e1f468a6ac8b1feaf1a8bf7108861b75dab2f41935",
    ),
    # n = 400: cells above 256, which typed rows box afresh on every read
    (
        200, 1, "min", MIN_INDEX,
        "925fdc4d564a739cd18c9885cb9d18671beb36fa28fbe8974780225771a5dfd2",
        "e17c329769b25f07c0dfc0187cb906fd7a7ab32cbd18abb71e0f5a5ae47a4f5a",
        "8ef970fce0886edae47464639465a7d76ea4355f61124d7fe74cecdcb841f7c3",
    ),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "m, seed, policy, forest_sha, trace_sha, report_sha",
    [row[:2] + row[3:] for row in GOLDEN],
    ids=[f"m{row[0]}-s{row[1]}-{row[2]}" for row in GOLDEN],
)
def test_artifact_bytes_are_golden(m, seed, policy, forest_sha, trace_sha, report_sha):
    coloring = permuted_round_robin(m, seed)
    forest, trace = build_forest(coloring, policy=policy)
    assert _sha(forest_to_json(forest)) == forest_sha
    assert _sha(trace_to_jsonl(trace)) == trace_sha
    assert _sha(verify_all(coloring, forest, trace).to_json()) == report_sha


COLORING_GOLDEN = [
    (
        "rr1",
        lambda: round_robin(1),
        "354459ee0fc2210fc4eee59e4ed7080fe3d40a0b533c88f6fe72f616122725a5",
    ),
    (
        "rr2",
        lambda: round_robin(2),
        "09808a46e8a7d2f12cc3442aa5b2b50c7f02630ae31d3906669eb0a4994bc83f",
    ),
    (
        "rr12",
        lambda: round_robin(12),
        "53c1786fe719b3b3781b51cd9fc75b09e45365134d333208fa4fcc529b4319a3",
    ),
    (
        "prr12-s3",
        lambda: permuted_round_robin(12, 3),
        "7540722a94a3e79899c9570528639a7e39efc5cc45fdf35bd4984562823e53f4",
    ),
    (
        "prr100-s1",
        lambda: permuted_round_robin(100, 1),
        "e3f79d3084669493c1777f386f4de175cfe76e01de3fed6f0d37097484a7ace2",
    ),
    (
        "prr400-s1",
        lambda: permuted_round_robin(400, 1),
        "37cb7f7d342acf0dfe38ac69bf155296f6ccdc4498ed82bf3b2ca370ffb94147",
    ),
]


@pytest.mark.parametrize(
    "make, coloring_sha",
    [row[1:] for row in COLORING_GOLDEN],
    ids=[row[0] for row in COLORING_GOLDEN],
)
def test_coloring_bytes_are_golden(make, coloring_sha):
    assert _sha(serialize_coloring(make())) == coloring_sha


def test_digest_is_the_cached_sha256_of_the_serialization():
    coloring = permuted_round_robin(12, 3)
    first = coloring.digest()
    assert first == _sha(serialize_coloring(coloring))
    assert coloring.digest() is first
