"""Golden sha256s of forest, trace and verify-report bytes.

The constructor may be restructured freely, but for the same instance and
policy every artifact it writes must stay byte-identical. These digests pin
that down; they are independent of PYTHONHASHSEED.
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
    trace_to_jsonl,
    verify_all,
)

GOLDEN = [
    (
        12, 3, "min", MIN_INDEX,
        "5ebbf23e608b5cc036204e62d578f4c3b2e7354942f598a9ecea436ebb29be3c",
        "a1f80ecdf80433ddcfe46d38e2f7f88652e2d3127db53561eb2946639d54a74e",
        "9ccfc4ae648a583389a7c9a4c325c4f1141f8a433d1156ce3014d3f6b160d213",
    ),
    (
        23, 5, "max", MAX_INDEX,
        "e163595f9bdb8989e2ffd9af3f5449da894c1811db17219b67b4b492ecf96231",
        "ac6cc97be43188dfecfd7a838528671a027a81a4cf44400e903a7971038c8f79",
        "e68532bf784742aebc2dced597be26f1f2301208022e22dd6c721ab2e4cee77e",
    ),
    (
        36, 7, "random11", random_policy(11),
        "695d2f92d45c01ca3ceccacd403fbda039336a58e9b60701a2b07e0b892e3e7d",
        "3320f90d4facd28f05829fda8b9c405b93a4f83de1f219c35a11ab901d0c1142",
        "2e487a20b2c39300fc826d3e5c9c79a7aa2cbc8c8d2aa0aa78a9783d3bf4deb6",
    ),
    (
        100, 1, "random2", random_policy(2),
        "4a498f4ca38c51ed0b5827eafc33f381f4833ed80882000be119b83dacc2272f",
        "730d76df2de6fb4c215fdcbff4c04eb94576db6f7ea3f28a9540699d701bbfcc",
        "24fc0f322574dec33b9e95e1f468a6ac8b1feaf1a8bf7108861b75dab2f41935",
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
