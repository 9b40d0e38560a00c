"""AFS-like file system: whole-file caching with write-back on close.

Modelled on the Andrew File System semantics described by Howard et al.
(the comparison target in the thesis's related work): ``open`` fetches the
entire file into a local cache if the cached copy is stale, reads and
writes are then purely local, and ``close`` ships the whole file back when
it was modified.  Small random touches of big files are expensive; heavy
re-reading of a working set is nearly free — a usefully different
trade-off for the section 5.3 comparison procedure.
"""

from __future__ import annotations

from ..sim import Delay, Engine
from ..vfs import Stat
from .cache import WholeFileCache
from .client_base import ClientOpenFile, NetworkedClientBase
from .network import NetworkLink
from .server import FileServer
from .timing import AFS_LIKE_TIMING, NfsTiming

__all__ = ["AfsLikeFileSystem"]

_LOCAL_COPY_US_PER_BYTE = 0.002  # memcpy-speed local cache access


class AfsLikeFileSystem(NetworkedClientBase):
    """Whole-file-caching client over the shared network."""

    def __init__(self, engine: Engine, server: FileServer,
                 network: NetworkLink, timing: NfsTiming | None = None,
                 name: str = "afs-client"):
        timing = timing or AFS_LIKE_TIMING
        super().__init__(engine, server, network, timing, name)
        self.cache = WholeFileCache(timing.client.whole_file_cache_bytes)
        self._dirty: set[str] = set()
        self.whole_file_fetches = 0
        self.whole_file_stores = 0

    # -- whole-file transfer on open/close ----------------------------------------

    def _on_open(self, path: str, stat: Stat):
        """Validate the cache; fetch the whole file on a miss."""
        if self.cache.lookup(path, stat.mtime):
            return
        # Bulk fetch: one request, data streamed back in the reply.
        yield from self._remote(
            self.server.read(path, 0, stat.size), reply_payload=stat.size
        )
        self.cache.insert(path, stat.mtime, stat.size)
        self.whole_file_fetches += 1

    def _on_close(self, open_file: ClientOpenFile):
        """Write-back: ship the whole file to the server when dirty."""
        path = open_file.path
        if path not in self._dirty:
            return
        self._dirty.discard(path)
        stat = self.server.stat_nowait(path)
        yield from self._remote(
            self.server.write(path, 0, self.server.store.read_at(
                path, 0, stat.size)),
            request_payload=stat.size,
        )
        new_stat = self.server.stat_nowait(path)
        self.cache.update_version(path, new_stat.mtime, new_stat.size)
        self.whole_file_stores += 1

    # -- timed primitives ------------------------------------------------------------

    def _remote_create(self, path: str):
        stat = yield from super()._remote_create(path)
        self.cache.insert(path, stat.mtime, 0)
        return stat

    def _remote_truncate(self, path: str, size: int):
        result = yield from super()._remote_truncate(path, size)
        stat = self.server.stat_nowait(path)
        self.cache.update_version(path, stat.mtime, stat.size)
        return result

    def _timed_read(self, path: str, offset: int, size: int):
        """Local cache read: memcpy-speed, no network."""
        data = self.server.store.read_at(path, offset, size)
        cost = _LOCAL_COPY_US_PER_BYTE * len(data)
        if cost > 0:
            yield Delay(cost)
        return data

    def _timed_write(self, path: str, offset: int, data: bytes):
        """Local cache write; the server sees it at close time.

        Data correctness is kept by writing through to the authoritative
        store immediately (the experiments have a single client machine),
        while the *cost* of shipping it is deferred to ``_on_close``.
        """
        count = self.server.store.write_at(path, offset, data)
        self._dirty.add(path)
        cost = _LOCAL_COPY_US_PER_BYTE * count
        if cost > 0:
            yield Delay(cost)
        return count

    # -- namespace calls: the shared ones plus cache eviction -----------------------

    def unlink(self, path: str):
        """Timed ``unlink(2)`` → REMOVE RPC plus local cache eviction."""
        yield from super().unlink(path)
        self.cache.evict(path)
        self._dirty.discard(path)

    def rename(self, old: str, new: str):
        """Timed ``rename(2)`` → RENAME RPC plus local cache eviction."""
        yield from super().rename(old, new)
        self.cache.evict(old)
        self.cache.evict(new)
