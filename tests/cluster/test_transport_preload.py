"""Shard workers fork from a fork server that preloaded the transport.

The fork server imports its preload from its own ``sys.path``, so a
program that puts ``repro`` on ``sys.path`` only at run time (as
``perfbench/run.py`` does) must still get preloaded workers; a worker
that had to import the transport itself is refused by name.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    ShardWorkerError,
    TransportBook,
    TransportConfig,
    WorkerClient,
)
from repro.cluster.transport import (
    REPLY_OK,
    WorkerStats,
    _frame,
    _parse_frame,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def test_runtime_sys_path_gets_preloaded_workers(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import numpy as np
        from repro.cluster import TransportBook, TransportConfig, WorkerClient
        from repro.cluster.transport import spawn_context
        client = WorkerClient(TransportBook(TransportConfig()), 0, 0,
                              "binary", 0.1, {{}}, np.arange(8),
                              ctx=spawn_context())
        print(client.stats.n_keys)
        client.close()
    """)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    # An unpreloaded worker fails its handshake with a named error.
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8"]


class HandshakePipe:
    """A client's pipe end holding the worker's ``handshake``, then
    answering every request with an empty REPLY_OK."""

    def __init__(self, handshake: bytes):
        self._pending = [handshake]

    def send_bytes(self, raw: bytes) -> None:
        _, seq, _ = _parse_frame(raw)
        self._pending.append(_frame(REPLY_OK, seq))

    def poll(self, timeout: float) -> bool:
        return bool(self._pending)

    def recv_bytes(self) -> bytes:
        return self._pending.pop(0)

    def close(self) -> None:
        pass


class StubProcess:
    exitcode = None

    def __init__(self):
        self.joined = False

    def start(self):
        pass

    def join(self, timeout=None):
        self.joined = True

    def is_alive(self):
        return False


class ForkServerStub:
    """A fork-server context whose worker never runs: its handshake
    is already in the client's pipe."""

    def __init__(self, handshake: bytes):
        self._handshake = handshake
        self.process = StubProcess()

    def get_start_method(self) -> str:
        return "forkserver"

    def Pipe(self):
        return HandshakePipe(self._handshake), HandshakePipe(b"")

    def Process(self, **kwargs):
        return self.process


def connect(ctx) -> WorkerClient:
    return WorkerClient(TransportBook(TransportConfig()), 2, 1, "binary",
                        0.1, {}, np.arange(8), ctx=ctx)


#: The first stats a worker's handshake carries after its preload byte.
STATS = WorkerStats(8, 0, 0, 0, 3.0)


def test_preloaded_handshake_is_accepted():
    ctx = ForkServerStub(_frame(REPLY_OK, 0, b"\x01" + STATS.pack()))
    client = connect(ctx)
    assert client.stats == STATS
    client.close()
    assert ctx.process.joined


def test_worker_that_imported_the_transport_itself_is_named():
    ctx = ForkServerStub(_frame(REPLY_OK, 0, b"\x00" + STATS.pack()))
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: the fork "
                             r"server did not preload "
                             r"repro\.cluster\.transport"):
        connect(ctx)
    assert ctx.process.joined  # reaped, not left running
