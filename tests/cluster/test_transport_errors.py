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
    MSG_INSERT,
    MSG_REBUILD,
    MSG_REPLAY,
    REPLY_ERR,
    REPLY_OK,
    ProtocolError,
    WorkerStats,
    _frame,
    _pack_bool,
    _pack_i64,
    _parse_frame,
    keys_request,
    replay_request,
    settings_request,
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


SETTINGS = settings_request(0.1, None)


def replay(client, kinds, keys, aux):
    """Found and probes of one REPLAY."""
    return client.replay_reply(client.call(
        MSG_REPLAY, SETTINGS + replay_request(kinds, keys, aux)))


def mutate(client, code, body=b""):
    """One INSERT or REBUILD; its reply's stats become the client's."""
    client.stats_reply(code, client.call(code, SETTINGS + body))


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
        client.digest()


def test_reordered_reply_names_the_slot(client, monkeypatch):
    monkeypatch.setattr(client, "_conn", StubPipe(
        lambda seq: _frame(REPLY_OK, seq + 1)))
    with pytest.raises(ProtocolError, match=SLOT + "reply seq"):
        client.digest()


STATS = WorkerStats(3, 0, 0, 0, 1.5).pack()
FOUND = _pack_bool(np.ones(4, dtype=bool))


@pytest.mark.parametrize("call, body, message", (
    # the found column's length prefix promises more bytes than sent
    (lambda c: replay(c, np.zeros(1, np.int8), np.ones(1, np.int64),
                      np.zeros(1, np.int64)),
     FOUND[:-2], "MSG_REPLAY"),
    # the probes column's length prefix itself is cut short
    (lambda c: c.lookup(np.ones(4, np.int64)),
     FOUND + b"\x04\x00", "MSG_LOOKUP"),
    # the stats, the whole reply, cut short
    (lambda c: mutate(c, MSG_INSERT, keys_request(np.ones(1))),
     STATS[:-1], "MSG_INSERT"),
    (lambda c: mutate(c, MSG_REBUILD), STATS[:-1], "MSG_REBUILD"),
    (lambda c: c.live_keys(), _pack_i64(np.arange(3))[:-8],
     "MSG_LIVE_KEYS"),
), ids=("replay", "lookup", "insert", "rebuild", "live_keys"))
def test_truncated_body_names_slot_and_message(client, monkeypatch, call,
                                               body, message):
    monkeypatch.setattr(client, "_conn", StubPipe(ok_body(body)))
    with pytest.raises(ProtocolError,
                       match=SLOT + f"malformed {message} reply: ") as err:
        call(client)
    assert isinstance(err.value.__cause__, (ValueError, struct.error))


TWO = np.asarray([10, 12], dtype=np.int64)


@pytest.mark.parametrize("call, body, message", (
    # a well-formed 2-key reply followed by junk
    (lambda c: c.lookup(TWO),
     _pack_bool(np.ones(2, bool)) + _pack_i64(np.arange(2)) + b"junk",
     "MSG_LOOKUP"),
    # three found flags against two probe counts
    (lambda c: c.lookup(TWO),
     _pack_bool(np.ones(3, bool)) + _pack_i64(np.arange(2)),
     "MSG_LOOKUP"),
    # one result for two keys
    (lambda c: c.lookup(TWO),
     _pack_bool(np.ones(1, bool)) + _pack_i64(np.arange(1)),
     "MSG_LOOKUP"),
    (lambda c: replay(c, np.zeros(2, np.int8), TWO, np.zeros(2, np.int64)),
     _pack_bool(np.ones(2, bool)) + _pack_i64(np.arange(2)) + STATS
     + b"junk",
     "MSG_REPLAY"),
    (lambda c: replay(c, np.zeros(2, np.int8), TWO, np.zeros(2, np.int64)),
     _pack_bool(np.ones(3, bool)) + _pack_i64(np.arange(2)) + STATS,
     "MSG_REPLAY"),
    # the stats trailer cut short
    (lambda c: replay(c, np.zeros(2, np.int8), TWO, np.zeros(2, np.int64)),
     _pack_bool(np.ones(2, bool)) + _pack_i64(np.arange(2)) + STATS[:-1],
     "MSG_REPLAY"),
    (lambda c: mutate(c, MSG_REBUILD), STATS + b"junk", "MSG_REBUILD"),
    (lambda c: c.live_keys(), _pack_i64(np.arange(3)) + b"junk",
     "MSG_LIVE_KEYS"),
    (lambda c: c.digest(), b"\xff\xfe", "MSG_DIGEST"),
), ids=("lookup-trailing", "lookup-unequal", "lookup-short",
        "replay-trailing", "replay-unequal", "replay-stats-short",
        "rebuild-trailing", "live_keys-trailing", "digest-not-utf8"))
def test_inconsistent_body_names_slot_and_message(client, monkeypatch,
                                                  call, body, message):
    monkeypatch.setattr(client, "_conn", StubPipe(ok_body(body)))
    with pytest.raises(ProtocolError,
                       match=SLOT + f"malformed {message} reply: "):
        call(client)


def test_stats_after_a_malformed_reply_name_the_slot(client, monkeypatch):
    """A state-changing request whose reply does not decode leaves
    no stats to read, rather than the ones before it."""
    monkeypatch.setattr(client, "_conn", StubPipe(ok_body(STATS[:-1])))
    with pytest.raises(ProtocolError):
        mutate(client, MSG_REBUILD)
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: no stats"):
        client.stats


def test_undecodable_worker_error_names_the_replica(client, monkeypatch):
    monkeypatch.setattr(client, "_conn", StubPipe(
        lambda seq: _frame(REPLY_ERR, seq, b"\xff\xfe")))
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: "):
        client.digest()


def test_worker_error_names_the_replica(client):
    unknown_op = np.asarray([99], dtype=np.int8)
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: ValueError"):
        replay(client, unknown_op, np.asarray([1]), np.asarray([0]))
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: no stats"):
        client.stats
    # The worker survives its dispatch error: the next call serves,
    # and its reply brings the stats back.
    mutate(client, MSG_REBUILD)
    assert client.stats.n_keys == KEYS.size


def test_build_error_names_the_replica():
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: "):
        WorkerClient(TransportBook(TransportConfig()), 2, 1,
                     "no-such-backend", 0.1, {}, KEYS,
                     ctx=spawn_context())


class StubContext:
    """A fork-server context whose worker never runs: the client's end
    of the pipe already holds ``handshake``."""

    def __init__(self, handshake: bytes):
        self._handshake = handshake

    def get_start_method(self) -> str:
        return "forkserver"

    def Pipe(self):
        pipe = StubPipe(lambda seq: _frame(REPLY_OK, seq))
        pipe._pending.append(self._handshake)
        return pipe, StubPipe(None)

    def Process(self, **kwargs):
        return StubProcess()


class StubProcess:
    exitcode = None

    def start(self):
        pass

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


def test_undecodable_build_error_names_the_replica():
    with pytest.raises(ShardWorkerError,
                       match=r"^shard 2 worker: replica 1: "):
        WorkerClient(TransportBook(TransportConfig()), 2, 1, "binary",
                     0.1, {}, KEYS,
                     ctx=StubContext(_frame(REPLY_ERR, 0, b"\xff\xfe")))


def test_short_handshake_stats_name_the_slot():
    with pytest.raises(ProtocolError,
                       match=SLOT + "malformed handshake: ") as err:
        WorkerClient(TransportBook(TransportConfig()), 2, 1, "binary",
                     0.1, {}, KEYS,
                     ctx=StubContext(_frame(REPLY_OK, 0,
                                            b"\x01" + STATS[:-1])))
    assert isinstance(err.value.__cause__, struct.error)
