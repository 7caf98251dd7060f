"""A reference line server with the counter's I/O pattern and none of its code.

Usage: python3 bench/refserver.py LOG_PATH

Like `rollcall counter` it serves each connection on its own thread and,
under one lock, appends every line to a log, flushes and fsyncs it before
answering. It parses nothing and answers `OK`. The live workload sends it
bursts between the counter's bursts and quotes the counter's rate at a
fixed reference rate for this server, which cancels the host's swings in
CPU and disk speed but not changes to rollcall.
"""

from __future__ import annotations

import os
import signal
import socketserver
import sys
import threading


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server = self.server
        while True:
            raw = self.rfile.readline(8192)
            if not raw:
                return
            with server.lock:  # type: ignore[attr-defined]
                server.log.write(raw)  # type: ignore[attr-defined]
                server.log.flush()  # type: ignore[attr-defined]
                os.fsync(server.log.fileno())  # type: ignore[attr-defined]
            try:
                self.wfile.write(b"OK\n")
            except (BrokenPipeError, ConnectionResetError):
                return


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


def main() -> int:
    server = _Server(("127.0.0.1", 0), _Handler)
    server.lock = threading.Lock()  # type: ignore[attr-defined]
    server.log = open(sys.argv[1], "ab")  # type: ignore[attr-defined]

    def stop(*_args: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    print(f"reference listening on 127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.log.close()  # type: ignore[attr-defined]
    return 0


if __name__ == "__main__":
    sys.exit(main())
