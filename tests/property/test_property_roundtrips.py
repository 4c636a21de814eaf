"""Property-based round-trip tests for the remaining wire formats, and
the aggregated batch's expansion back to its plain image."""

import string

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Transaction, TxInput, TxOutput
from repro.crypto.encoding import (
    ByteReader,
    base58_decode,
    base58_encode,
    read_varint,
    write_var_bytes,
    write_varint,
)
from repro.crypto.hashing import sha256d
from repro.errors import EncodingError
from repro.query.aggregate import encode_aggregated_batch, expand_aggregated_batch
from repro.query.batch import answer_batch_query

addr_text = st.text(
    alphabet=string.digits + string.ascii_letters, min_size=1, max_size=34
)


class TestEncodingRoundtrips:
    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=120)
    def test_varint(self, value):
        encoded = write_varint(value)
        decoded, offset = read_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    @given(payload=st.binary(max_size=64))
    @settings(max_examples=120)
    def test_base58(self, payload):
        assert base58_decode(base58_encode(payload)) == payload

    @given(payload=st.binary(max_size=40))
    @settings(max_examples=80)
    def test_var_bytes(self, payload):
        reader = ByteReader(write_var_bytes(payload))
        assert reader.var_bytes() == payload
        reader.finish()


def tx_inputs():
    return st.builds(
        TxInput,
        prev_txid=st.binary(min_size=32, max_size=32),
        prev_index=st.integers(min_value=0, max_value=2**32 - 1),
        address=addr_text,
        value=st.integers(min_value=0, max_value=2**48),
    )


def tx_outputs():
    return st.builds(
        TxOutput,
        address=addr_text,
        value=st.integers(min_value=0, max_value=2**48),
    )


class TestTransactionRoundtrips:
    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=4),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=4),
        version=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=80)
    def test_roundtrip(self, inputs, outputs, version):
        tx = Transaction(inputs, outputs, version)
        restored = Transaction.from_bytes(tx.serialize())
        assert restored == tx
        assert restored.inputs == tx.inputs
        assert restored.outputs == tx.outputs
        assert restored.txid() == tx.txid()

    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3),
    )
    @settings(max_examples=60)
    def test_txid_injective_on_serialization(self, inputs, outputs):
        """Same bytes iff same txid (hash is deterministic)."""
        tx = Transaction(inputs, outputs)
        clone = Transaction.from_bytes(tx.serialize())
        assert clone.serialize() == tx.serialize()
        assert clone.txid() == tx.txid()

    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3),
        probe=addr_text,
    )
    @settings(max_examples=80)
    def test_involves_matches_addresses(self, inputs, outputs, probe):
        tx = Transaction(inputs, outputs)
        assert tx.involves(probe) == (probe in tx.addresses())

    @given(
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3),
        probe=addr_text,
    )
    @settings(max_examples=80)
    def test_equation1_terms_non_negative(self, inputs, outputs, probe):
        tx = Transaction(inputs, outputs)
        assert tx.received_by(probe) >= 0
        assert tx.sent_by(probe) >= 0
        if not tx.involves(probe):
            assert tx.received_by(probe) == 0 and tx.sent_by(probe) == 0


def _varint_any_width(draw, value):
    """``value`` as a CompactSize varint of any width that holds it —
    canonical or not."""
    widths = [
        (prefix, size)
        for prefix, size in ((b"", 1), (b"\xfd", 2), (b"\xfe", 4), (b"\xff", 8))
        if value < 1 << (8 * size) and (prefix or value < 0xFD)
    ]
    prefix, size = draw(st.sampled_from(widths))
    return prefix + value.to_bytes(size, "little")


@st.composite
def transaction_shaped_bytes(draw):
    """Bytes laid out like a transaction, but with address fields of
    arbitrary bytes and, in half the examples, varints of any width."""
    small = st.integers(min_value=0, max_value=2**20)
    inflate = draw(st.booleans())

    def varint(value):
        if inflate:
            return _varint_any_width(draw, value)
        return write_varint(value)

    def address():
        raw = draw(
            st.one_of(
                st.text(max_size=6).map(
                    lambda text: text.encode("utf-8", "surrogatepass")
                ),
                st.binary(max_size=6),
            )
        )
        return varint(len(raw)) + raw

    parts = [varint(draw(st.integers(min_value=0, max_value=4)))]
    inputs = draw(st.integers(min_value=1, max_value=3))
    parts.append(varint(inputs))
    for _ in range(inputs):
        parts.append(draw(st.binary(min_size=32, max_size=32)))
        parts.append(varint(draw(small)))
        parts.append(address())
        parts.append(varint(draw(small)))
    outputs = draw(st.integers(min_value=1, max_value=3))
    parts.append(varint(outputs))
    for _ in range(outputs):
        parts.append(varint(draw(small)))
        parts.append(address())
    return b"".join(parts)


class TestCanonicalTransactionDecode:
    """``Transaction.from_bytes`` takes the txid of the bytes it was
    given; that is sound only because a payload decodes at all only if
    it is exactly the serialization of what it decodes to."""

    @given(
        inputs=st.lists(
            st.builds(
                TxInput,
                prev_txid=st.binary(min_size=32, max_size=32),
                prev_index=st.integers(min_value=0, max_value=2**32 - 1),
                address=st.text(max_size=8),
                value=st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1,
            max_size=3,
        ),
        outputs=st.lists(
            st.builds(
                TxOutput,
                address=st.text(min_size=1, max_size=8),
                value=st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1,
            max_size=3,
        ),
        version=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=120)
    def test_received_bytes_are_the_serialization(self, inputs, outputs, version):
        raw = Transaction(inputs, outputs, version).serialize()
        decoded = Transaction.from_bytes(raw)
        assert decoded.txid() == sha256d(raw)
        assert decoded.serialize() == raw

    @given(raw=transaction_shaped_bytes())
    @settings(max_examples=300)
    def test_whatever_decodes_reserializes_to_itself(self, raw):
        try:
            decoded = Transaction.from_bytes(raw)
        except EncodingError:
            event("rejected")
            return
        event("decoded")
        assert decoded.serialize() == raw
        assert decoded.txid() == sha256d(raw)

    def _tx(self, address="1a"):
        return Transaction(
            [TxInput(b"\x11" * 32, 0, address, 5)], [TxOutput(address, 5)]
        )

    def test_non_canonical_varint_rejected(self):
        raw = self._tx().serialize()
        assert raw[0] == 1  # version 1, one-byte form
        for inflated in (b"\xfd\x01\x00", b"\xfe\x01\x00\x00\x00"):
            with pytest.raises(EncodingError):
                Transaction.from_bytes(inflated + raw[1:])

    @pytest.mark.parametrize(
        "bad",
        [b"\xc0\xaf", b"\xe0\x80\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"],
        ids=["overlong-2", "overlong-3", "surrogate", "above-max"],
    )
    def test_invalid_utf8_address_rejected(self, bad):
        marker = "é".encode("utf-8")
        raw = self._tx("é").serialize()
        assert raw.count(marker) == 2
        with pytest.raises(EncodingError):
            Transaction.from_bytes(
                raw.replace(
                    bytes([len(marker)]) + marker, bytes([len(bad)]) + bad, 1
                )
            )


class TestAggregatedBatchExpansion:
    """The aggregated decoder's one job: give back the plain image."""

    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_expansion_is_the_plain_image(self, any_system, workload, data):
        """On every system kind, expanding ``encode_aggregated_batch(b)``
        gives exactly ``b.serialize()``, for any addresses (unknown ones
        too) and any range."""
        pool = sorted(
            {address for tx in workload.bodies[-1] for address in tx.addresses()}
            | set(workload.probe_addresses.values())
            | {"1UnknownAddressForTheExpansionTest"}
        )
        addresses = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
        )
        tip = any_system.tip_height
        first = data.draw(st.integers(min_value=1, max_value=tip))
        last = data.draw(st.integers(min_value=first, max_value=tip))
        config = any_system.config
        batch = answer_batch_query(any_system, addresses, first, last)
        aggregated = encode_aggregated_batch(batch, config)
        assert expand_aggregated_batch(aggregated, config) == batch.serialize(
            config
        )
