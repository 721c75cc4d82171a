"""A bad reply on the shard wire names the shard, replica and message.

A real client talks to a real worker; where the reply itself must be
malformed, the client's pipe is swapped for a stub that answers each
request with the bytes a test hands it.
"""

import struct

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
    ProtocolError,
    WorkerStats,
    _frame,
    _pack_bool,
    _pack_i64,
    _parse_frame,
    spawn_context,
)

KEYS = np.arange(10, 410, 2, dtype=np.int64)
SLOT = r"^shard 2 replica 1: "


class StubPipe:
    """A client's pipe end that answers every request with ``reply``.

    ``reply(seq)`` returns the raw bytes of the answer to the request
    numbered ``seq``.
    """

    def __init__(self, reply):
        self._reply = reply
        self._pending = []

    def send_bytes(self, raw: bytes) -> None:
        _, seq, _ = _parse_frame(raw)
        self._pending.append(self._reply(seq))

    def poll(self, timeout: float) -> bool:
        return bool(self._pending)

    def recv_bytes(self) -> bytes:
        return self._pending.pop(0)

    def close(self) -> None:
        pass


def ok_body(body: bytes):
    return lambda seq: _frame(REPLY_OK, seq, body)


@pytest.fixture(scope="module")
def client():
    client = WorkerClient(TransportBook(TransportConfig()), 2, 1,
                          "binary", 0.1, {}, KEYS, ctx=spawn_context())
    yield client
    client.close()


def test_short_frame_names_the_slot(client, monkeypatch):
    monkeypatch.setattr(client, "_conn", StubPipe(lambda seq: b"\x01"))
    with pytest.raises(ProtocolError,
                       match=SLOT + "short frame: 1 bytes$"):
        client.stats()


def test_reordered_reply_names_the_slot(client, monkeypatch):
    monkeypatch.setattr(client, "_conn", StubPipe(
        lambda seq: _frame(REPLY_OK, seq + 1)))
    with pytest.raises(ProtocolError, match=SLOT + "reply seq"):
        client.stats()


STATS = WorkerStats(3, 0, 0, 0, 1.5, 0.1, None).pack()
FOUND = _pack_bool(np.ones(4, dtype=bool))


@pytest.mark.parametrize("call, body, message", (
    # the found column's length prefix promises more bytes than sent
    (lambda c: c.replay(np.zeros(1, np.int8), np.ones(1, np.int64),
                        np.zeros(1, np.int64)),
     FOUND[:-2], "MSG_REPLAY"),
    # the probes column's length prefix itself is cut short
    (lambda c: c.lookup(np.ones(4, np.int64)),
     FOUND + b"\x04\x00", "MSG_LOOKUP"),
    (lambda c: c.stats(), STATS[:-1], "MSG_STATS"),
    (lambda c: c.range_scan(0, 10), b"\x00" * 4, "MSG_RANGE"),
    (lambda c: c.live_keys(), _pack_i64(np.arange(3))[:-8],
     "MSG_LIVE_KEYS"),
), ids=("replay", "lookup", "stats", "range_scan", "live_keys"))
def test_truncated_body_names_slot_and_message(client, monkeypatch, call,
                                               body, message):
    monkeypatch.setattr(client, "_conn", StubPipe(ok_body(body)))
    with pytest.raises(ProtocolError,
                       match=SLOT + f"malformed {message} reply: ") as err:
        call(client)
    assert isinstance(err.value.__cause__, (ValueError, struct.error))


def test_worker_error_names_the_replica(client):
    unknown_op = np.asarray([99], dtype=np.int8)
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: ValueError"):
        client.replay(unknown_op, np.asarray([1]), np.asarray([0]))
    # The worker survives its dispatch error: the next call serves.
    assert client.stats().n_keys == KEYS.size


def test_build_error_names_the_replica():
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: "):
        WorkerClient(TransportBook(TransportConfig()), 2, 1,
                     "no-such-backend", 0.1, {}, KEYS,
                     ctx=spawn_context())
