"""Minimal client for the vliw_vp serve daemon's wire protocol.

Every message is one frame, `<decimal byte length>\\n<JSON payload>`, in
both directions (DESIGN.md, "Serve wire protocol").
"""

import json
import socket


class ServerError(Exception):
    pass


class Client:
    def __init__(self, path, timeout_s=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""
        self.next_id = 0

    def close(self):
        self.sock.close()

    def _send(self, obj):
        payload = json.dumps(obj).encode()
        self.sock.sendall(str(len(payload)).encode() + b"\n" + payload)

    def _fill(self, n):
        while len(self.buf) < n:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ServerError("connection closed by the daemon")
            self.buf += chunk

    def _recv(self):
        while b"\n" not in self.buf:
            self._fill(len(self.buf) + 1)
        header, _ = self.buf.split(b"\n", 1)
        start = len(header) + 1
        end = start + int(header)
        self._fill(end)
        frame, self.buf = self.buf[start:end], self.buf[end:]
        return json.loads(frame)

    def _request(self, op, **fields):
        self.next_id += 1
        rid = f"pb{self.next_id}"
        self._send(dict(op=op, id=rid, **fields))
        return rid

    def submit(self, config, experiments=None):
        """Submit one request and return the concatenated `data` of its
        results, which is the text the CLI prints for the same
        experiments."""
        fields = {"config": config}
        if experiments is not None:
            fields["experiments"] = experiments
        rid = self._request("submit", **fields)
        parts = []
        while True:
            ev = self._recv()
            if ev.get("id") != rid:
                raise ServerError(f"unexpected frame {ev!r}")
            kind = ev.get("event")
            if kind == "result":
                parts.append(ev["data"])
            elif kind == "done":
                return "".join(parts)
            elif kind == "error":
                raise ServerError(f"{ev.get('code')}: {ev.get('message')}")

    def _single(self, op, expect):
        rid = self._request(op)
        ev = self._recv()
        if ev.get("id") != rid or ev.get("event") != expect:
            raise ServerError(f"{op}: unexpected frame {ev!r}")
        return ev

    def ping(self):
        self._single("ping", "pong")

    def stats(self):
        return self._single("stats", "stats").get("stats", {})

    def shutdown(self):
        self._single("shutdown", "shutting_down")
