"""What a light node's verifier remembers across proofs (DESIGN.md §12).

A :class:`VerifierMemo` holds the outputs of three pure functions that
later proofs bring exactly the same inputs to again:

* ``nodes`` — BMT replay work by dyadic position, read and written by
  ``_replay`` in :mod:`repro.merkle.bmt`;
* ``proofs`` — what a whole BMT multiproof was accepted with, by the
  segment, range and item it was checked for, read and written by
  ``BmtMultiProof.verify``;
* ``resolutions`` — the ``(height, transaction)`` list a block-level
  resolution was accepted with, by ``(height, address)``, read by the
  memo-aware decoder (``SegmentProof.deserialize``) and the verifier
  (``_verify_segments``).

Every table only ever saves work: an entry is used only when the
caller's inputs equal the inputs stored with it, byte for byte, so a
verifier with a memo accepts and rejects exactly what one without it
(``memo=None``) does.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

#: Entries ``nodes`` holds before it starts over: every node of two full
#: 1,024-leaf trees.
REPLAY_MEMO_ENTRIES = 2 * (2 * 1024 - 1)
#: Wire bytes of multiproofs ``proofs`` holds before it starts over.  A
#: recent-range proof over a 1,024-block chain at the default filter
#: width is about 9.5 KB, so this is some 1,700 polled (address, range)
#: pairs.
PROOF_MEMO_BYTES = 16 * 1024 * 1024
#: Wire bytes of resolutions ``resolutions`` holds; once full it keeps
#: what it holds and further stores do nothing.
RESOLUTION_MEMO_BYTES = 3 * 1024 * 1024


class VerifierMemo:
    """One light node's memo of verified work; see the module docstring.

    ``nodes`` maps a BMT node's ``(start height, layer)`` to ``(hash,
    bits, filter, children)``: the node hash a replay computed, the filter
    as an ``int``, the exact filter bytes, and ``left || right`` child
    hashes when the hash was computed from them (``None`` for a leaf,
    whose hash is ``H(filter)``).  An internal stub ships its own hash and
    records nothing, but may take ``bits`` from an entry another proof
    left at its position.  BMTs are built over aligned dyadic merge sets,
    so every proof over the same blocks passes through the same nodes.
    When full, a store at a new position empties the table first: entries
    are written *before* the proof's root is checked, so keeping them
    when full would let one forged proof pin its junk for good.

    ``proofs`` maps a multiproof's ``(start height, block count, first,
    last, item)`` to ``(wire, root, filter bytes, hash count, clean
    ranges, failed heights, endpoint count)``: its exact wire bytes, the
    BMT root and filter geometry it was checked against, and the
    verification's outcome.  Only accepted proofs are stored, each after
    its root matched.  A store that would pass ``PROOF_MEMO_BYTES``
    empties the table first, so it follows what the node is polling now
    rather than what it polled first; a proof larger than the whole
    bound is not stored.

    ``resolutions`` maps ``(height, address)`` to ``(wire, roots,
    accepted)``: a resolution's exact wire bytes (tag byte first), the
    header's ``(merkle_root, smt_root)`` it was verified against, and the
    ``(height, transaction)`` pairs it was accepted with.  Only accepted
    resolutions are stored, so when ``RESOLUTION_MEMO_BYTES`` of wire
    bytes are held the table keeps them and a further store is a no-op.
    Transactions are shared between answers and immutable by contract.

    Concurrent verifiers may share one memo: entries are immutable tuples
    each reader checks against its own inputs, and stores take a lock so
    the bounds hold.
    """

    __slots__ = (
        "nodes",
        "proofs",
        "proof_bytes",
        "resolutions",
        "resolution_bytes",
        "_lock",
    )

    def __init__(self) -> None:
        self.nodes: "Dict[Tuple[int, int], tuple]" = {}
        self.proofs: "Dict[tuple, tuple]" = {}
        #: Wire bytes held by ``proofs``.
        self.proof_bytes = 0
        self.resolutions: "Dict[Tuple[int, str], tuple]" = {}
        #: Wire bytes held by ``resolutions``.
        self.resolution_bytes = 0
        self._lock = threading.Lock()

    def remember_node(self, key: "Tuple[int, int]", entry: tuple) -> None:
        """Store ``entry`` at ``key``; a full ``nodes`` is emptied first."""
        with self._lock:
            nodes = self.nodes
            if len(nodes) >= REPLAY_MEMO_ENTRIES and key not in nodes:
                nodes.clear()
            nodes[key] = entry

    def remember_proof(self, key: tuple, entry: tuple) -> None:
        """Store an accepted multiproof; one that would pass the bound
        empties ``proofs`` first."""
        size = len(entry[0])
        if size > PROOF_MEMO_BYTES:
            return
        with self._lock:
            previous = self.proofs.pop(key, None)
            if previous is not None:
                self.proof_bytes -= len(previous[0])
            if self.proof_bytes + size > PROOF_MEMO_BYTES:
                self.proofs.clear()
                self.proof_bytes = 0
            self.proofs[key] = entry
            self.proof_bytes += size

    def remember_resolution(self, key: "Tuple[int, str]", entry: tuple) -> None:
        """Store an accepted resolution unless it would pass the bound."""
        with self._lock:
            previous = self.resolutions.get(key)
            held = self.resolution_bytes + len(entry[0])
            if previous is not None:
                held -= len(previous[0])
            if held > RESOLUTION_MEMO_BYTES:
                return
            self.resolutions[key] = entry
            self.resolution_bytes = held

    def forget_resolutions(self) -> None:
        """Drop every resolution (the headers they were checked against
        were replaced)."""
        with self._lock:
            self.resolutions.clear()
            self.resolution_bytes = 0
