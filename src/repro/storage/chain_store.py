"""Light-node header files.

A light node persists just its header list, one ``var_bytes(header)``
record per height, via :func:`save_headers` / :func:`load_headers`;
loading re-validates the prev-hash linkage.  Full-node chains live in
the durable store (:mod:`repro.storage.durable`).
"""

from __future__ import annotations

import pathlib
from typing import List, Union

from repro.chain.block import BlockHeader
from repro.crypto.encoding import ByteReader, write_var_bytes
from repro.errors import ChainError
from repro.query.config import SystemConfig

PathLike = Union[str, pathlib.Path]


def save_headers(headers: List[BlockHeader], file_path: PathLike) -> None:
    """Persist a light node's header list to one file."""
    with open(file_path, "wb") as handle:
        for header in headers:
            handle.write(write_var_bytes(header.serialize()))


def load_headers(
    file_path: PathLike, config: SystemConfig
) -> List[BlockHeader]:
    """Load and linkage-validate a light node's header file."""
    raw = pathlib.Path(file_path).read_bytes()
    reader = ByteReader(raw)
    headers: List[BlockHeader] = []
    while reader.remaining:
        record = ByteReader(reader.var_bytes())
        header = BlockHeader.deserialize(
            record, config.header_extension_kind, config.header_bloom_bytes
        )
        record.finish()
        if headers and header.prev_hash != headers[-1].block_id():
            raise ChainError(
                f"header {len(headers)} in {file_path} does not link onto "
                "its predecessor"
            )
        headers.append(header)
    return headers
