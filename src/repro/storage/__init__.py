"""On-disk persistence for chains and light-node header files.

* :mod:`repro.storage.durable` — the full node's chain: an append-only,
  CRC-framed record log with crash-atomic manifest checkpoints;
  ``append_block`` and reorgs persist O(delta) and recovery survives a
  kill at any byte;
* :mod:`repro.storage.chain_store` — a light node's header file.
"""

from repro.storage.chain_store import load_headers, save_headers
from repro.storage.durable import DurableStore, StoreReport, verify_store
from repro.storage.vfs import CountingVfs, CrashPoint, CrashVfs, Vfs

__all__ = [
    "save_headers",
    "load_headers",
    "DurableStore",
    "StoreReport",
    "verify_store",
    "Vfs",
    "CountingVfs",
    "CrashVfs",
    "CrashPoint",
]
