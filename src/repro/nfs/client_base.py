"""Shared client-side machinery for the simulated file systems.

Every simulated client (NFS, local-disk, AFS-like) exposes the same
syscall-level surface as :class:`repro.vfs.FileSystemAPI`, except that each
call is a *simulation sub-process* (a generator composed with
``yield from``) so time passes while it executes.  The USIM measures
response time by reading the engine clock around each call, exactly as the
thesis measured "the difference of before and after calling a system
call" (section 5.1).

This base class owns what every client shares: the descriptor table, POSIX
flag semantics (EXCL, TRUNC, APPEND, access-mode checks), client-CPU
syscall overhead, the namespace calls, and the one seam through which
every call reaches the server (``_remote``).  Subclasses implement the
timed data primitives and, when the server is across a wire, the seam.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Delay, Engine
from ..vfs import (
    BadDescriptorError,
    FileExistsFsError,
    InvalidArgumentError,
    NoSuchFileError,
    OpenFlags,
    ReadOnlyDescriptorError,
    Stat,
    Whence,
)
from .network import NetworkLink
from .server import FileServer
from .timing import NfsTiming

__all__ = ["SimulatedClientBase", "NetworkedClientBase", "ClientOpenFile"]


@dataclass
class ClientOpenFile:
    """Client-side open file description."""

    fd: int
    path: str
    flags: OpenFlags
    offset: int = 0


class SimulatedClientBase:
    """Descriptor table + POSIX open semantics over timed primitives.

    Subclasses provide (all generators):

    * ``_timed_read(path, offset, size) -> bytes``
    * ``_timed_write(path, offset, data) -> int``
    * ``_on_open(path, stat)`` / ``_on_close(open_file)`` — cache hooks
      (default no-ops).

    and may wrap ``_remote`` (what reaching the server costs) and the
    ``_remote_getattr/_create/_truncate`` defaults built on it.
    """

    def __init__(self, engine: Engine, timing: NfsTiming, server: FileServer,
                 name: str = "client"):
        self.engine = engine
        self.timing = timing
        self.server = server
        self.name = name
        self._next_fd = 3
        self._open_files: dict[int, ClientOpenFile] = {}
        self.syscall_count = 0

    # -- local overhead --------------------------------------------------------

    def _syscall(self):
        """Client-side kernel entry/exit cost, paid by every call."""
        self.syscall_count += 1
        overhead = self.timing.client.syscall_overhead_us
        if overhead > 0:
            yield Delay(overhead)

    def _descriptor(self, fd: int) -> ClientOpenFile:
        open_file = self._open_files.get(fd)
        if open_file is None:
            raise BadDescriptorError(f"descriptor {fd} is not open")
        return open_file

    # -- the transport seam ----------------------------------------------------

    def _remote(self, procedure, request_payload: int = 0,
                reply_payload: int = 0):
        """Run one server ``procedure``; payloads are bytes beyond the headers.

        Here the server is the local kernel, so the procedure just runs.
        """
        return (yield from procedure)

    def _late_reply(self, payload_bytes: int):
        """Reply data sized only after the procedure ran (free locally)."""
        return
        yield  # pragma: no cover - generator form for subclasses

    def _remote_getattr(self, path: str):
        return (yield from self._remote(self.server.getattr(path)))

    def _remote_create(self, path: str):
        return (yield from self._remote(self.server.create(path)))

    def _remote_truncate(self, path: str, size: int):
        return (yield from self._remote(self.server.truncate(path, size)))

    # -- hooks ---------------------------------------------------------------

    def _on_open(self, path: str, stat: Stat):
        """Cache hook after a successful open (default: nothing)."""
        return
        yield  # pragma: no cover - generator form for subclasses

    def _on_close(self, open_file: ClientOpenFile):
        """Cache hook before releasing a descriptor (default: nothing)."""
        return
        yield  # pragma: no cover

    # -- syscall surface ---------------------------------------------------------

    def open(self, path: str, flags: OpenFlags):
        """Timed ``open(2)``: lookup / create / truncate as flags demand."""
        flags = OpenFlags(flags)
        yield from self._syscall()
        try:
            stat = yield from self._remote_getattr(path)
            exists = True
        except NoSuchFileError:
            stat = None
            exists = False

        if exists and flags & OpenFlags.CREAT and flags & OpenFlags.EXCL:
            raise FileExistsFsError("exclusive create of existing path",
                                    path=path)
        if not exists:
            if not flags & OpenFlags.CREAT:
                raise NoSuchFileError("no such file or directory", path=path)
            stat = yield from self._remote_create(path)
        elif flags & OpenFlags.TRUNC and flags.writable and stat.size > 0:
            yield from self._remote_truncate(path, 0)
            stat = yield from self._remote_getattr(path)

        assert stat is not None
        yield from self._on_open(path, stat)
        fd = self._next_fd
        self._next_fd += 1
        self._open_files[fd] = ClientOpenFile(fd=fd, path=path, flags=flags)
        return fd

    def creat(self, path: str):
        """Timed ``creat(2)``."""
        return (yield from self.open(
            path, OpenFlags.WRONLY | OpenFlags.CREAT | OpenFlags.TRUNC
        ))

    def close(self, fd: int):
        """Timed ``close(2)`` (AFS pays its write-back here)."""
        open_file = self._descriptor(fd)
        yield from self._syscall()
        yield from self._on_close(open_file)
        del self._open_files[fd]

    def read(self, fd: int, size: int):
        """Timed ``read(2)`` at the descriptor offset."""
        if size < 0:
            raise InvalidArgumentError(f"negative read size {size}")
        open_file = self._descriptor(fd)
        if not open_file.flags.readable:
            raise BadDescriptorError(f"descriptor {fd} is write-only")
        yield from self._syscall()
        data = yield from self._timed_read(open_file.path, open_file.offset,
                                           size)
        open_file.offset += len(data)
        return data

    def write(self, fd: int, data: bytes):
        """Timed ``write(2)`` at the descriptor offset (or EOF for APPEND)."""
        open_file = self._descriptor(fd)
        if not open_file.flags.writable:
            raise ReadOnlyDescriptorError(f"descriptor {fd} is read-only")
        yield from self._syscall()
        if open_file.flags & OpenFlags.APPEND:
            stat = yield from self._remote_getattr(open_file.path)
            open_file.offset = stat.size
        count = yield from self._timed_write(open_file.path, open_file.offset,
                                             data)
        open_file.offset += count
        return count

    def lseek(self, fd: int, offset: int, whence: Whence = Whence.SET):
        """Timed ``lseek(2)`` (local: no server interaction for SET/CUR)."""
        open_file = self._descriptor(fd)
        yield from self._syscall()
        if whence == Whence.SET:
            new_offset = offset
        elif whence == Whence.CUR:
            new_offset = open_file.offset + offset
        elif whence == Whence.END:
            stat = yield from self._remote_getattr(open_file.path)
            new_offset = stat.size + offset
        else:
            raise InvalidArgumentError(f"bad whence {whence!r}")
        if new_offset < 0:
            raise InvalidArgumentError(f"seek to negative offset {new_offset}")
        open_file.offset = new_offset
        return new_offset

    def stat(self, path: str):
        """Timed ``stat(2)``."""
        yield from self._syscall()
        return (yield from self._remote_getattr(path))

    def fstat(self, fd: int):
        """Timed ``fstat(2)``."""
        open_file = self._descriptor(fd)
        yield from self._syscall()
        return (yield from self._remote_getattr(open_file.path))

    def exists(self, path: str):
        """Timed existence probe."""
        try:
            yield from self.stat(path)
            return True
        except NoSuchFileError:
            return False

    # -- directory / namespace calls -------------------------------------------

    def unlink(self, path: str):
        """Timed ``unlink(2)`` → REMOVE."""
        yield from self._syscall()
        yield from self._remote(self.server.remove(path))

    def mkdir(self, path: str):
        """Timed ``mkdir(2)`` → MKDIR."""
        yield from self._syscall()
        yield from self._remote(self.server.mkdir(path))

    def rmdir(self, path: str):
        """Timed ``rmdir(2)`` → RMDIR."""
        yield from self._syscall()
        yield from self._remote(self.server.rmdir(path))

    def listdir(self, path: str):
        """Timed directory scan → READDIR (entries follow the reply)."""
        yield from self._syscall()
        entries = yield from self._remote(self.server.readdir(path))
        # Approximate reply payload: 32 bytes per directory entry.
        yield from self._late_reply(32 * len(entries))
        return entries

    def rename(self, old: str, new: str):
        """Timed ``rename(2)`` → RENAME."""
        yield from self._syscall()
        yield from self._remote(self.server.rename(old, new))

    def truncate(self, path: str, size: int):
        """Timed ``truncate(2)`` → SETATTR."""
        if size < 0:
            raise InvalidArgumentError(f"negative truncate size {size}")
        yield from self._syscall()
        yield from self._remote_truncate(path, size)

    @property
    def open_descriptor_count(self) -> int:
        """Live descriptors on this client."""
        return len(self._open_files)


class NetworkedClientBase(SimulatedClientBase):
    """A client whose server sits across the shared network (NFS, AFS)."""

    def __init__(self, engine: Engine, server: FileServer,
                 network: NetworkLink, timing: NfsTiming, name: str):
        super().__init__(engine, timing, server, name=name)
        self.network = network

    def _remote(self, procedure, request_payload: int = 0,
                reply_payload: int = 0):
        """Round trip: request over the wire, server work, reply back."""
        params = self.timing.network
        yield from self.network.transfer(
            params.rpc_request_bytes + request_payload
        )
        result = yield from procedure
        yield from self.network.transfer(params.rpc_reply_bytes + reply_payload)
        return result

    def _late_reply(self, payload_bytes: int):
        yield from self.network.transfer(payload_bytes)
