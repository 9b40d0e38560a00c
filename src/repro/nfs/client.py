"""Simulated SUN NFS client.

Implements the syscall surface by translating every call into RPCs over
the shared network to the :class:`~repro.nfs.server.FileServer`:

* ``open``   → GETATTR (+ CREATE / SETATTR as flags demand)
* ``read``   → one READ RPC per ``max_transfer_bytes`` page
* ``write``  → one synchronous WRITE RPC per page (NFSv2 write-through)
* ``close``  → purely local (NFS is stateless)
* directory calls → their RPC counterparts (in the shared base class)

Request messages carry the RPC header plus any write payload; replies
carry the header plus any read payload.  Both directions cross the shared
medium, which is where multi-user contention (Figures 5.6–5.11) comes
from.
"""

from __future__ import annotations

from ..sim import Engine
from .client_base import NetworkedClientBase
from .network import NetworkLink
from .server import FileServer
from .timing import NfsTiming

__all__ = ["NfsClient"]


class NfsClient(NetworkedClientBase):
    """A workstation's NFS client, shared by all its simulated users."""

    def __init__(self, engine: Engine, server: FileServer,
                 network: NetworkLink, timing: NfsTiming | None = None,
                 name: str = "nfs-client"):
        super().__init__(engine, server, network, timing or server.timing,
                         name)

    # -- timed primitives required by the base class ------------------------------

    def _timed_read(self, path: str, offset: int, size: int):
        """Paged READ RPCs; the reply carries the data."""
        page = self.timing.client.max_transfer_bytes
        collected = b""
        remaining = size
        position = offset
        while remaining > 0:
            chunk_size = min(page, remaining)
            chunk = yield from self._remote(
                self.server.read(path, position, chunk_size),
                reply_payload=chunk_size,
            )
            collected += chunk
            position += len(chunk)
            remaining -= chunk_size
            if len(chunk) < chunk_size:
                break  # EOF
        return collected

    def _timed_write(self, path: str, offset: int, data: bytes):
        """Paged synchronous WRITE RPCs; the request carries the data."""
        page = self.timing.client.max_transfer_bytes
        written = 0
        while written < len(data):
            chunk = data[written:written + page]
            count = yield from self._remote(
                self.server.write(path, offset + written, chunk),
                request_payload=len(chunk),
            )
            written += count
        return written
