"""Transactions for the synthetic chain (UTXO style, self-describing inputs).

Bitcoin inputs reference a previous output by ``(txid, vout)`` and reveal
the spender only through the scriptSig.  The paper treats "the address
appears in the input" as directly observable, so our inputs carry the
spending address and value explicitly — a self-describing transaction lets
a light node compute Equation 1 balances from verified history alone,
without fetching every referenced parent transaction.  The UTXO module
still validates that inputs match the outputs they spend, so the extra
fields cannot lie on an honestly-built chain.

Serialization is length-exact: all reported proof sizes flow from
``len(tx.serialize())``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.encoding import (
    ByteReader,
    write_var_bytes,
    write_varint,
)
from repro.crypto.hashing import HASH_SIZE, sha256d
from repro.errors import EncodingError

#: Marker previous-txid used by coinbase inputs.
COINBASE_PREV_TXID = b"\x00" * HASH_SIZE
COINBASE_PREV_INDEX = 0xFFFF_FFFF


class TxOutput:
    """Pays ``value`` satoshis to ``address``."""

    __slots__ = ("address", "value")

    def __init__(self, address: str, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative output value {value}")
        self.address = address
        self.value = value

    def serialize(self) -> bytes:
        return write_varint(self.value) + write_var_bytes(
            self.address.encode("utf-8")
        )

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "TxOutput":
        value = reader.varint()
        address = _decode_address(reader.var_bytes())
        return cls(address, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TxOutput):
            return NotImplemented
        return self.address == other.address and self.value == other.value

    def __repr__(self) -> str:
        return f"TxOutput({self.address}, {self.value})"


class TxInput:
    """Spends output ``prev_index`` of ``prev_txid``.

    ``address``/``value`` duplicate the spent output's fields (see module
    docstring).  Coinbase inputs use the all-zero txid, index ``0xffffffff``
    and an empty address.
    """

    __slots__ = ("prev_txid", "prev_index", "address", "value")

    def __init__(
        self, prev_txid: bytes, prev_index: int, address: str, value: int
    ) -> None:
        if len(prev_txid) != HASH_SIZE:
            raise ValueError(f"prev_txid must be {HASH_SIZE} bytes")
        if prev_index < 0:
            raise ValueError(f"negative prev_index {prev_index}")
        if value < 0:
            raise ValueError(f"negative input value {value}")
        self.prev_txid = prev_txid
        self.prev_index = prev_index
        self.address = address
        self.value = value

    @classmethod
    def coinbase(cls, height: int) -> "TxInput":
        """The synthetic coinbase input; ``value`` records the height so
        two coinbase transactions are never byte-identical."""
        return cls(COINBASE_PREV_TXID, COINBASE_PREV_INDEX, "", height)

    @property
    def is_coinbase(self) -> bool:
        return (
            self.prev_txid == COINBASE_PREV_TXID
            and self.prev_index == COINBASE_PREV_INDEX
        )

    def serialize(self) -> bytes:
        return (
            self.prev_txid
            + write_varint(self.prev_index)
            + write_var_bytes(self.address.encode("utf-8"))
            + write_varint(self.value)
        )

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "TxInput":
        prev_txid = reader.bytes(HASH_SIZE)
        prev_index = reader.varint()
        address = _decode_address(reader.var_bytes())
        value = reader.varint()
        return cls(prev_txid, prev_index, address, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TxInput):
            return NotImplemented
        return (
            self.prev_txid == other.prev_txid
            and self.prev_index == other.prev_index
            and self.address == other.address
            and self.value == other.value
        )

    def __repr__(self) -> str:
        if self.is_coinbase:
            return f"TxInput(coinbase, height={self.value})"
        return f"TxInput({self.prev_txid.hex()[:8]}:{self.prev_index})"


class Transaction:
    """A transaction; its id is the double-SHA of its serialization."""

    __slots__ = ("version", "inputs", "outputs", "_txid")

    def __init__(
        self,
        inputs: Sequence[TxInput],
        outputs: Sequence[TxOutput],
        version: int = 1,
    ) -> None:
        if not inputs:
            raise ValueError("transaction needs at least one input")
        if not outputs:
            raise ValueError("transaction needs at least one output")
        self.version = version
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self._txid: "bytes | None" = None

    @property
    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].is_coinbase

    def txid(self) -> bytes:
        if self._txid is None:
            self._txid = sha256d(self.serialize())
        return self._txid

    def addresses(self) -> List[str]:
        """Every address appearing in an input or output, in order,
        duplicates removed, coinbase placeholder excluded."""
        seen: "dict[str, None]" = {}
        for tx_input in self.inputs:
            if tx_input.address:
                seen.setdefault(tx_input.address, None)
        for tx_output in self.outputs:
            seen.setdefault(tx_output.address, None)
        return list(seen)

    def involves(self, address: str) -> bool:
        return any(
            tx_input.address == address for tx_input in self.inputs
        ) or any(tx_output.address == address for tx_output in self.outputs)

    def received_by(self, address: str) -> int:
        """Sum of output values paying ``address`` (Eq 1's Σv_j term)."""
        return sum(out.value for out in self.outputs if out.address == address)

    def sent_by(self, address: str) -> int:
        """Sum of input values spent by ``address`` (Eq 1's Σw_i term)."""
        return sum(inp.value for inp in self.inputs if inp.address == address)

    # -- serialization -----------------------------------------------------

    def serialize(self) -> bytes:
        parts = [write_varint(self.version), write_varint(len(self.inputs))]
        parts.extend(tx_input.serialize() for tx_input in self.inputs)
        parts.append(write_varint(len(self.outputs)))
        parts.extend(tx_output.serialize() for tx_output in self.outputs)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, reader: ByteReader) -> "Transaction":
        version = reader.varint()
        input_count = reader.varint()
        if input_count == 0 or input_count > 100_000:
            raise EncodingError(f"implausible input count {input_count}")
        inputs = [TxInput.deserialize(reader) for _ in range(input_count)]
        output_count = reader.varint()
        if output_count == 0 or output_count > 100_000:
            raise EncodingError(f"implausible output count {output_count}")
        outputs = [TxOutput.deserialize(reader) for _ in range(output_count)]
        return cls(inputs, outputs, version)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Transaction":
        """Decode exactly ``payload`` and take its txid from those bytes.

        Decoding is canonical — varints must be minimal, addresses
        strict UTF-8, and no byte may trail — so the only payload that
        decodes to a transaction is that transaction's serialization,
        and hashing the received bytes equals hashing a re-encoding.
        """
        reader = ByteReader(payload)
        transaction = cls.deserialize(reader)
        reader.finish()
        transaction._txid = sha256d(payload)
        return transaction

    def size_bytes(self) -> int:
        return len(self.serialize())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.txid() == other.txid()

    def __hash__(self) -> int:
        return hash(self.txid())

    def __repr__(self) -> str:
        return (
            f"Transaction({self.txid().hex()[:12]}, "
            f"{len(self.inputs)} in, {len(self.outputs)} out)"
        )


def _decode_address(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"address bytes are not UTF-8: {exc}") from exc
