"""Local-disk file system: the no-network comparison point for section 5.3.

The same CPU/cache/disk server model as NFS, but the "server" is the local
machine: no RPCs cross a wire, and writes are delayed (the UNIX buffer
cache absorbs them) rather than write-through.  Comparing this backend
against :class:`~repro.nfs.client.NfsClient` under identical workloads is
exactly the file-system comparison procedure the thesis walks through.
"""

from __future__ import annotations

from ..sim import Engine
from ..vfs import MemoryFileSystem
from .client_base import SimulatedClientBase
from .server import FileServer
from .timing import LOCAL_DISK_TIMING, NfsTiming

__all__ = ["LocalDiskFileSystem"]


class LocalDiskFileSystem(SimulatedClientBase):
    """Syscall surface over a local CPU + buffer cache + disk."""

    def __init__(self, engine: Engine, timing: NfsTiming | None = None,
                 store: MemoryFileSystem | None = None,
                 name: str = "local-disk"):
        timing = timing or LOCAL_DISK_TIMING
        server = FileServer(engine, timing, store=store, name=f"{name}-kernel")
        super().__init__(engine, timing, server, name=name)

    # -- timed primitives (the namespace calls are the base class's) -------------

    def _timed_read(self, path: str, offset: int, size: int):
        return (yield from self.server.read(path, offset, size))

    def _timed_write(self, path: str, offset: int, data: bytes):
        return (yield from self.server.write(path, offset, data))
