"""A shard worker lost before its handshake is reaped and named."""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.cluster import (
    ShardWorkerError,
    TransportBook,
    TransportConfig,
    WorkerClient,
)


@pytest.mark.parametrize("worker, exit_code", (
    (lambda conn, blob: os._exit(3), 3),           # dies at once
    (lambda conn, blob: conn.recv_bytes(), -9),    # waits, never acks
), ids=("dead", "wedged"))
def test_worker_lost_before_handshake_is_named(monkeypatch, worker,
                                               exit_code):
    # A fork context runs the patched entry point in the child.
    monkeypatch.setattr("repro.cluster.transport.shard_worker_main",
                        worker)
    book = TransportBook(TransportConfig(wall_timeout_s=0.5))
    with pytest.raises(ShardWorkerError,
                       match=rf"^shard 2 worker: replica 1 .*exit code "
                             rf"{exit_code}$"):
        WorkerClient(book, 2, 1, "binary", 0.1, {}, np.arange(8),
                     ctx=mp.get_context("fork"))
