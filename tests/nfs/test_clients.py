"""Integration tests for the simulated NFS / local-disk / AFS clients."""

import pytest

from repro.nfs import (
    AfsLikeFileSystem,
    FileServer,
    LocalDiskFileSystem,
    NetworkLink,
    NfsClient,
    SUN_NFS_TIMING,
)
from repro.sim import Engine
from repro.vfs import (
    BadDescriptorError,
    FileExistsFsError,
    NoSuchFileError,
    OpenFlags,
    Whence,
)

from .conftest import run


class TestNfsClientCorrectness:
    def test_create_write_read_roundtrip(self, engine, nfs):
        def workload():
            fd = yield from nfs.creat("/f")
            yield from nfs.write(fd, b"hello nfs")
            yield from nfs.close(fd)
            fd = yield from nfs.open("/f", OpenFlags.RDONLY)
            data = yield from nfs.read(fd, 100)
            yield from nfs.close(fd)
            return data

        assert run(engine, workload()) == b"hello nfs"

    def test_open_missing_raises(self, engine, nfs):
        def workload():
            yield from nfs.open("/missing", OpenFlags.RDONLY)

        with pytest.raises(NoSuchFileError):
            run(engine, workload())

    def test_excl_create_conflict(self, engine, nfs):
        def workload():
            fd = yield from nfs.creat("/f")
            yield from nfs.close(fd)
            yield from nfs.open(
                "/f", OpenFlags.WRONLY | OpenFlags.CREAT | OpenFlags.EXCL
            )

        with pytest.raises(FileExistsFsError):
            run(engine, workload())

    def test_trunc_on_open(self, engine, nfs):
        def workload():
            fd = yield from nfs.creat("/f")
            yield from nfs.write(fd, b"0123456789")
            yield from nfs.close(fd)
            fd = yield from nfs.open("/f", OpenFlags.WRONLY | OpenFlags.TRUNC)
            yield from nfs.close(fd)
            return (yield from nfs.stat("/f"))

        assert run(engine, workload()).size == 0

    def test_append_mode(self, engine, nfs):
        def workload():
            fd = yield from nfs.creat("/f")
            yield from nfs.write(fd, b"base")
            yield from nfs.close(fd)
            fd = yield from nfs.open("/f", OpenFlags.WRONLY | OpenFlags.APPEND)
            yield from nfs.write(fd, b"+tail")
            yield from nfs.close(fd)
            fd = yield from nfs.open("/f", OpenFlags.RDONLY)
            data = yield from nfs.read(fd, 100)
            yield from nfs.close(fd)
            return data

        assert run(engine, workload()) == b"base+tail"

    def test_lseek_positions_reads(self, engine, nfs):
        def workload():
            fd = yield from nfs.creat("/f")
            yield from nfs.write(fd, b"0123456789")
            yield from nfs.close(fd)
            fd = yield from nfs.open("/f", OpenFlags.RDONLY)
            yield from nfs.lseek(fd, -3, Whence.END)
            data = yield from nfs.read(fd, 10)
            yield from nfs.close(fd)
            return data

        assert run(engine, workload()) == b"789"

    def test_multi_page_transfer(self, engine, nfs):
        payload = bytes(range(256)) * 128  # 32 KiB, 4 pages of 8 KiB

        def workload():
            fd = yield from nfs.creat("/big")
            yield from nfs.write(fd, payload)
            yield from nfs.close(fd)
            fd = yield from nfs.open("/big", OpenFlags.RDONLY)
            data = yield from nfs.read(fd, len(payload))
            yield from nfs.close(fd)
            return data

        assert run(engine, workload()) == payload

    def test_directory_operations(self, engine, nfs):
        def workload():
            yield from nfs.mkdir("/d")
            fd = yield from nfs.creat("/d/a")
            yield from nfs.close(fd)
            fd = yield from nfs.creat("/d/b")
            yield from nfs.close(fd)
            entries = yield from nfs.listdir("/d")
            yield from nfs.unlink("/d/a")
            yield from nfs.rename("/d/b", "/d/c")
            after = yield from nfs.listdir("/d")
            return entries, after

        before, after = run(engine, workload())
        assert before == ["a", "b"]
        assert after == ["c"]

    def test_bad_descriptor(self, engine, nfs):
        def workload():
            yield from nfs.read(99, 10)

        with pytest.raises(BadDescriptorError):
            run(engine, workload())

    def test_exists_probe(self, engine, nfs):
        def workload():
            missing = yield from nfs.exists("/nope")
            fd = yield from nfs.creat("/yes")
            yield from nfs.close(fd)
            present = yield from nfs.exists("/yes")
            return missing, present

        assert run(engine, workload()) == (False, True)


class TestNfsTiming:
    def test_time_advances_per_call(self, engine, nfs):
        def workload():
            t0 = engine.now
            fd = yield from nfs.creat("/f")
            t_open = engine.now - t0
            t1 = engine.now
            yield from nfs.write(fd, b"x" * 1024)
            t_write = engine.now - t1
            t2 = engine.now
            yield from nfs.close(fd)
            t_close = engine.now - t2
            return t_open, t_write, t_close

        t_open, t_write, t_close = run(engine, workload())
        assert t_open > 0
        # A 1 KiB write-through write costs more than the stateless close.
        assert t_write > t_close
        # Close is local: syscall overhead only.
        assert t_close == pytest.approx(
            SUN_NFS_TIMING.client.syscall_overhead_us
        )

    def test_cached_read_faster_than_cold(self, engine, nfs):
        def workload():
            fd = yield from nfs.creat("/f")
            yield from nfs.write(fd, b"z" * 4096)
            yield from nfs.close(fd)
            # Invalidate the server cache to force a cold read.
            nfs.server.cache.invalidate_file("/f")
            fd = yield from nfs.open("/f", OpenFlags.RDONLY)
            t0 = engine.now
            yield from nfs.read(fd, 4096)
            cold = engine.now - t0
            yield from nfs.lseek(fd, 0, Whence.SET)
            t1 = engine.now
            yield from nfs.read(fd, 4096)
            warm = engine.now - t1
            yield from nfs.close(fd)
            return cold, warm

        cold, warm = run(engine, workload())
        assert cold > warm
        assert cold - warm >= SUN_NFS_TIMING.disk.positioning_us * 0.5

    def test_write_through_touches_disk(self):
        from repro.nfs import STRICT_NFSV2_TIMING

        engine = Engine()
        server = FileServer(engine, STRICT_NFSV2_TIMING)
        network = NetworkLink(engine, STRICT_NFSV2_TIMING.network)
        client = NfsClient(engine, server, network)

        def workload():
            fd = yield from client.creat("/f")
            yield from client.write(fd, b"d" * 1024)
            yield from client.close(fd)

        run(engine, workload())
        assert server.disk.total_accesses > 0

    def test_write_behind_batches_flushes(self, engine, nfs):
        threshold = SUN_NFS_TIMING.server.flush_threshold_bytes

        def workload():
            fd = yield from nfs.creat("/f")
            # Stay below the high-water mark: no flush, no disk write.
            yield from nfs.write(fd, b"d" * 1024)
            below = nfs.server.flush_count
            # Cross it: exactly one batched flush.
            yield from nfs.write(fd, b"d" * (threshold + 1024))
            yield from nfs.close(fd)
            return below, nfs.server.flush_count

        below, after = run(engine, workload())
        assert below == 0
        assert after >= 1

    def test_contention_slows_users_down(self):
        def solo_time():
            engine = Engine()
            server = FileServer(engine, SUN_NFS_TIMING)
            network = NetworkLink(engine, SUN_NFS_TIMING.network)
            client = NfsClient(engine, server, network)

            def workload():
                fd = yield from client.creat("/f")
                for _ in range(20):
                    yield from client.write(fd, b"w" * 1024)
                yield from client.close(fd)

            run(engine, workload())
            return engine.now

        def contended_time():
            engine = Engine()
            server = FileServer(engine, SUN_NFS_TIMING)
            network = NetworkLink(engine, SUN_NFS_TIMING.network)
            client = NfsClient(engine, server, network)

            def workload(i):
                fd = yield from client.creat(f"/f{i}")
                for _ in range(20):
                    yield from client.write(fd, b"w" * 1024)
                yield from client.close(fd)

            handles = [engine.spawn(workload(i)) for i in range(4)]
            engine.run_until_processes_finish(handles)
            return engine.now

        assert contended_time() > solo_time() * 2


class TestLocalDisk:
    def test_roundtrip(self):
        engine = Engine()
        local = LocalDiskFileSystem(engine)

        def workload():
            fd = yield from local.creat("/f")
            yield from local.write(fd, b"local data")
            yield from local.close(fd)
            fd = yield from local.open("/f", OpenFlags.RDONLY)
            data = yield from local.read(fd, 100)
            yield from local.close(fd)
            return data

        assert run(engine, workload()) == b"local data"

    def test_faster_than_nfs_for_writes(self):
        def timed(client_factory):
            engine = Engine()
            client = client_factory(engine)

            def workload():
                fd = yield from client.creat("/f")
                for _ in range(10):
                    yield from client.write(fd, b"x" * 1024)
                yield from client.close(fd)

            run(engine, workload())
            return engine.now

        def make_nfs(engine):
            server = FileServer(engine, SUN_NFS_TIMING)
            network = NetworkLink(engine, SUN_NFS_TIMING.network)
            return NfsClient(engine, server, network)

        assert timed(LocalDiskFileSystem) < timed(make_nfs)


class TestAfsLike:
    def test_roundtrip(self, engine, afs):
        def workload():
            fd = yield from afs.creat("/f")
            yield from afs.write(fd, b"afs data")
            yield from afs.close(fd)
            fd = yield from afs.open("/f", OpenFlags.RDONLY)
            data = yield from afs.read(fd, 100)
            yield from afs.close(fd)
            return data

        assert run(engine, workload()) == b"afs data"

    def test_second_open_hits_cache(self, engine, afs):
        def workload():
            fd = yield from afs.creat("/f")
            yield from afs.write(fd, b"v" * 8192)
            yield from afs.close(fd)
            fd = yield from afs.open("/f", OpenFlags.RDONLY)
            yield from afs.read(fd, 8192)
            yield from afs.close(fd)
            fetches_after_first = afs.whole_file_fetches
            fd = yield from afs.open("/f", OpenFlags.RDONLY)
            yield from afs.read(fd, 8192)
            yield from afs.close(fd)
            return fetches_after_first, afs.whole_file_fetches

        first, second = run(engine, workload())
        assert second == first  # no re-fetch of an unchanged file

    def test_dirty_close_stores_whole_file(self, engine, afs):
        def workload():
            fd = yield from afs.creat("/f")
            yield from afs.write(fd, b"d" * 1024)
            yield from afs.close(fd)
            return afs.whole_file_stores

        assert run(engine, workload()) == 1

    def test_reads_are_local_after_fetch(self, engine, afs):
        def workload():
            fd = yield from afs.creat("/f")
            yield from afs.write(fd, b"r" * 4096)
            yield from afs.close(fd)
            fd = yield from afs.open("/f", OpenFlags.RDONLY)
            t0 = engine.now
            yield from afs.read(fd, 4096)
            elapsed = engine.now - t0
            yield from afs.close(fd)
            return elapsed

        elapsed = run(engine, workload())
        # Local read: syscall overhead + memcpy, far below one RPC.
        assert elapsed < 2 * SUN_NFS_TIMING.network.latency_us

    def test_afs_beats_nfs_on_rereads(self, engine):
        """Whole-file caching wins when a file is read many times."""

        def total_time(make_client):
            local_engine = Engine()
            server = FileServer(local_engine, SUN_NFS_TIMING)
            network = NetworkLink(local_engine, SUN_NFS_TIMING.network)
            client = make_client(local_engine, server, network)

            def workload():
                fd = yield from client.creat("/f")
                yield from client.write(fd, b"x" * 8192)
                yield from client.close(fd)
                for _ in range(10):
                    fd = yield from client.open("/f", OpenFlags.RDONLY)
                    yield from client.read(fd, 8192)
                    yield from client.close(fd)

            run(local_engine, workload())
            return local_engine.now

        nfs_time = total_time(NfsClient)
        afs_time = total_time(AfsLikeFileSystem)
        assert afs_time < nfs_time


def _build_backend(backend):
    """Engine, client, server, network wired as ``build_simulation`` does."""
    engine = Engine()
    if backend == "local":
        client = LocalDiskFileSystem(engine, timing=SUN_NFS_TIMING)
        return engine, client, client.server, None
    server = FileServer(engine, SUN_NFS_TIMING)
    network = NetworkLink(engine, SUN_NFS_TIMING.network)
    make = NfsClient if backend == "nfs" else AfsLikeFileSystem
    client = make(engine, server, network, SUN_NFS_TIMING)
    return engine, client, server, network


def _every_syscall(client):
    """One pass through the whole syscall surface, namespace calls included."""
    yield from client.mkdir("/d")
    fd = yield from client.creat("/d/a")
    yield from client.write(fd, b"w" * 20_000)      # three pages on NFS
    yield from client.fstat(fd)
    yield from client.close(fd)
    fd = yield from client.open("/d/a", OpenFlags.RDWR)
    yield from client.read(fd, 9_000)
    yield from client.lseek(fd, 100, Whence.SET)
    yield from client.lseek(fd, 10, Whence.CUR)
    yield from client.lseek(fd, -50, Whence.END)
    yield from client.read(fd, 500)                 # short read at EOF
    yield from client.write(fd, b"x" * 300)
    yield from client.close(fd)
    fd = yield from client.open("/d/a", OpenFlags.WRONLY | OpenFlags.APPEND)
    yield from client.write(fd, b"+" * 64)
    yield from client.close(fd)
    yield from client.truncate("/d/a", 1_000)
    fd = yield from client.open("/d/a", OpenFlags.WRONLY | OpenFlags.TRUNC)
    yield from client.close(fd)
    yield from client.stat("/d/a")
    found = yield from client.exists("/d/a")
    missing = yield from client.exists("/d/nope")
    yield from client.rename("/d/a", "/d/b")
    fd = yield from client.creat("/d/c")
    yield from client.close(fd)
    entries = yield from client.listdir("/d")
    empty = yield from client.listdir("/")          # still one entry: "d"
    yield from client.unlink("/d/b")
    yield from client.unlink("/d/c")
    yield from client.rmdir("/d")
    gone = yield from client.listdir("/")           # zero-entry reply
    return found, missing, sorted(entries), empty, gone


class TestTimingGoldens:
    """Literal clocks and counters for every syscall on every client.

    Captured at the parent of PR 21 (before the three clients' RPC
    plumbing and namespace calls moved into ``SimulatedClientBase``); any
    change to the per-call ``Delay``/``Acquire``/``Release`` sequence
    moves ``engine.now``.
    """

    GOLDEN = {
        # backend: (engine.now, client.syscall_count, server.rpc_count,
        #           network.messages_sent, network.bytes_sent)
        "nfs": (46390.479999999996, 31, 32, 64, 37304),
        "local": (6497.280000000001, 31, 29, 0, 0),
        "afs": (68495.30799999999, 31, 27, 54, 66904),
    }

    @pytest.mark.parametrize("backend", ["nfs", "local", "afs"])
    def test_scripted_pass(self, backend):
        engine, client, server, network = _build_backend(backend)
        result = run(engine, _every_syscall(client))
        assert result == (True, False, ["b", "c"], ["d"], [])
        assert client.open_descriptor_count == 0
        wire = (network.messages_sent, network.bytes_sent) if network else (0, 0)
        assert (engine.now, client.syscall_count, server.rpc_count,
                *wire) == self.GOLDEN[backend]
