"""Unit tests for repro.crypto.hashing."""

import hashlib

import pytest

from repro.crypto.hashing import HASH_SIZE, hash160, sha256, sha256d, tagged_hash
from repro.merkle import bmt, sorted_tree
from repro.query import config


class TestSha256:
    def test_matches_hashlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_empty_input(self):
        assert sha256(b"") == hashlib.sha256(b"").digest()

    def test_digest_size(self):
        assert len(sha256(b"x")) == HASH_SIZE


class TestSha256d:
    def test_is_double_sha(self):
        assert sha256d(b"abc") == hashlib.sha256(
            hashlib.sha256(b"abc").digest()
        ).digest()

    def test_differs_from_single(self):
        assert sha256d(b"abc") != sha256(b"abc")

    def test_known_bitcoin_vector(self):
        # sha256d("hello") is a widely published test vector.
        assert (
            sha256d(b"hello").hex()
            == "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        )


class TestTaggedHash:
    def test_deterministic(self):
        assert tagged_hash("t", b"data") == tagged_hash("t", b"data")

    def test_tags_separate_domains(self):
        assert tagged_hash("a", b"data") != tagged_hash("b", b"data")

    def test_chunking_is_concatenation(self):
        assert tagged_hash("t", b"ab", b"cd") == tagged_hash("t", b"abcd")

    def test_differs_from_plain_sha(self):
        assert tagged_hash("t", b"data") != sha256(b"data")

    def test_empty_payload_still_tagged(self):
        assert tagged_hash("x") != tagged_hash("y")

    def test_digest_size(self):
        assert len(tagged_hash("t", b"p")) == HASH_SIZE

    def test_matches_bip340_construction(self):
        tag_digest = hashlib.sha256(b"t").digest()
        expected = hashlib.sha256(tag_digest + tag_digest + b"payload").digest()
        assert tagged_hash("t", b"payload") == expected

    @pytest.mark.parametrize(
        "tag",
        [
            sorted_tree._LEAF_TAG,
            sorted_tree._NODE_TAG,
            bmt._LEAF_TAG,
            bmt._NODE_TAG,
            config._BF_COMMIT_TAG,
            "index/sid",
            "hash160-fallback",
        ],
    )
    def test_every_tag_in_use_matches_the_literal_construction(self, tag):
        """``tagged_hash`` copies one primed context per tag; the copies
        must hash as if the 64-byte prefix were fed in every time, call
        after call and whatever an earlier call appended."""
        prefix = hashlib.sha256(tag.encode("ascii")).digest() * 2
        left, right = bytes(range(32)), bytes(range(32, 64))
        for chunks in ((), (left,), (left, right), (right, left, b"\x00" * 97)):
            expected = hashlib.sha256(prefix + b"".join(chunks)).digest()
            assert tagged_hash(tag, *chunks) == expected
            assert tagged_hash(tag, *chunks) == expected


class TestHash160:
    def test_length(self):
        assert len(hash160(b"pubkey")) == 20

    def test_deterministic(self):
        assert hash160(b"pubkey") == hash160(b"pubkey")

    def test_distinct_inputs(self):
        assert hash160(b"a") != hash160(b"b")


@pytest.mark.parametrize("func", [sha256, sha256d])
def test_avalanche(func):
    """One-bit input changes flip the digest entirely."""
    a = func(b"\x00")
    b = func(b"\x01")
    assert a != b
    differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert differing > 64  # far more than a few bits
