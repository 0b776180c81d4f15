#!/usr/bin/env python3
"""Admission-control smoke against a --max-inflight=1 --queue=0 daemon.

Usage: serve_busy_smoke.py PORT

Sequence (no sleeps):
  1. Client A submits a multi-cell request and waits for its `accepted`
     event — receiving it proves A holds the only in-flight slot.
  2. Client B submits: must be rejected with the typed `busy` error.
  3. A cancels its own request; the stream flushes (remaining cells
     arrive marked cancelled) and its done event reports cancelled > 0.
     A's request runs full-scale traces: its 60 cells take seconds, far
     longer than the few round trips before the cancel lands, so some
     are still pending (small-scale cells could all finish first).
  4. B retries: the slot is free, the request is admitted and completes
     with zero failures — cancellation freed the slot without
     corrupting the service.
"""
import json
import socket
import sys

TABLE2 = ["dijkstra", "fft", "jpeg_enc", "jpeg_dec", "lame",
          "rijndael", "susan", "adpcm_dec", "adpcm_enc", "mpeg2_dec"]


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port))
    return sock, sock.makefile("rw")


def send(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def drain_to_done(stream):
    for line in stream:
        event = json.loads(line)
        if event["event"] == "done":
            return event
        assert event["event"] == "cell", event
    raise AssertionError("stream closed before done")


def main():
    port = int(sys.argv[1])

    slow = {"cmd": "explore", "id": "slow",
            "traces": [{"workload": w, "scale": "full"} for w in TABLE2],
            "caches": [1024, 4096, 16384],
            "strategies": ["base", "perm"]}
    quick = {"cmd": "explore", "id": "quick",
             "traces": [{"workload": "fft", "scale": "small"}],
             "caches": [1024], "strategies": ["base"]}

    sock_a, a = connect(port)
    send(a, slow)
    accepted = json.loads(a.readline())
    assert accepted["event"] == "accepted", accepted

    sock_b, b = connect(port)
    send(b, quick)
    rejected = json.loads(b.readline())
    assert rejected["event"] == "error", rejected
    assert rejected["error"]["code"] == "busy", rejected

    send(a, {"cmd": "cancel", "id": "slow"})
    done = drain_to_done(a)
    assert done["cancelled"] > 0, done

    send(b, dict(quick, id="quick2"))
    accepted = json.loads(b.readline())
    assert accepted["event"] == "accepted", accepted
    done = drain_to_done(b)
    assert done["failed"] == 0 and done["cancelled"] == 0, done

    sock_a.close()
    sock_b.close()
    print("busy smoke ok")


if __name__ == "__main__":
    main()
