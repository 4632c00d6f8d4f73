"""Remote describer/embedder/summarizer providers.

The wire protocol is one JSON object per request and per response:

    {"v": 1, "op": "describe",  "attributes": {...}}    -> {"text": "..."}
    {"v": 1, "op": "embed",     "tokens": ["...", ...]} -> {"vector": [...]}
    {"v": 1, "op": "summarize", "texts": ["...", ...]}  -> {"text": "..."}

Errors come back as {"error": "..."}. Transports: newline-delimited JSON
over a subprocess pipe, or HTTP POST of the same payloads. The in-process
reference implementations remain the defaults; providers are opt-in realism
plumbing for swapping in an actual captioner or encoder.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import subprocess
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import language
from .config import ProviderEndpoint, ProvidersConfig
from .errors import ProviderError
from .perception import PersonAttributes, canonical_description
from .reid import LanguageOps, REFERENCE_OPS

PROTOCOL_VERSION = 1

# The longest reply either transport accepts; a reference embed reply is
# about 7 KB.
MAX_REPLY_BYTES = 1 << 20


def handle_request(request: dict) -> dict:
    """Serve one protocol request with the reference implementations."""
    try:
        if not isinstance(request, dict):
            return {"error": "request must be a JSON object"}
        if request.get("v") != PROTOCOL_VERSION:
            return {"error": f"unsupported protocol version {request.get('v')!r}"}
        op = request.get("op")
        if op == "describe":
            attrs = PersonAttributes.from_dict(request["attributes"])
            return {"text": canonical_description(attrs)}
        if op == "embed":
            vec = language.embed([str(t) for t in request["tokens"]])
            return {"vector": [float(x) for x in vec]}
        if op == "summarize":
            return {"text": language.summarize([str(t) for t in request["texts"]])}
        return {"error": f"unknown op {op!r}"}
    except Exception as exc:  # deliberate: stub must answer, not die
        return {"error": f"{type(exc).__name__}: {exc}"}


class SubprocessProvider:
    """Talks the protocol to a child process over stdin/stdout lines.

    Each request must be answered within ``timeout`` seconds by a line of at
    most ``MAX_REPLY_BYTES``, and ``close`` gives the child as long to exit
    after its stdin closes before killing it.
    """

    def __init__(self, command: Sequence[str], timeout: float = 10.0) -> None:
        self._timeout = timeout
        self._pending = b""
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProviderError(f"cannot start provider {list(command)}: {exc}") from exc

    def request(self, payload: dict) -> dict:
        if self._proc.poll() is not None:
            raise ProviderError("provider subprocess has exited")
        try:
            self._proc.stdin.write(json.dumps(payload).encode("utf-8") + b"\n")
            self._proc.stdin.flush()
        except OSError as exc:
            raise ProviderError(f"cannot write to provider subprocess: {exc}") from exc
        line = self._read_line(time.monotonic() + self._timeout)
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ProviderError(f"provider sent a non-JSON line: {line[:200]!r}") from exc
        return _check(response)

    def _read_line(self, deadline: float) -> bytes:
        """One reply line, read straight from the pipe so a stall times out."""
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._pending and len(self._pending) <= MAX_REPLY_BYTES:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise ProviderError(
                    f"provider subprocess did not reply within {self._timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ProviderError("provider subprocess closed its stdout")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        if len(line) > MAX_REPLY_BYTES:
            raise ProviderError("provider subprocess sent a reply longer than "
                                f"{MAX_REPLY_BYTES} bytes")
        return line

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # the child stopped reading; it is killed below if need be
        try:
            self._proc.wait(timeout=self._timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class _DeadlineSocket(socket.socket):
    """A connected socket whose every send and receive waits at most the
    time left to one monotonic deadline, so a peer that trickles bytes
    cannot stretch a request past it."""

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        super().__init__(sock.family, sock.type, sock.proto, sock.detach())
        self._deadline = deadline

    def _wait_left(self) -> None:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self.settimeout(left)

    def sendall(self, *args) -> None:
        self._wait_left()
        super().sendall(*args)

    def recv_into(self, *args) -> int:
        self._wait_left()
        return super().recv_into(*args)


class HttpProvider:
    """POSTs protocol payloads to an HTTP endpoint.

    Over plain HTTP, the whole exchange after connecting (the request, the
    status line, the headers and the body, at most ``MAX_REPLY_BYTES``)
    waits at most until one deadline ``timeout`` seconds after the request
    starts: each read waits only the time left. Connecting, and every socket
    operation of an HTTPS exchange, waits at most ``timeout`` seconds.
    """

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self._url = url
        self._timeout = timeout

    def request(self, payload: dict) -> dict:
        # Imported here: urllib.request pulls in http.client, ssl and email,
        # which no process without an HTTP provider needs.
        import http.client
        import urllib.request

        deadline = time.monotonic() + self._timeout

        def connection(host, **kwargs):
            conn = http.client.HTTPConnection(host, **kwargs)
            connect = conn._create_connection
            conn._create_connection = lambda *args: _DeadlineSocket(connect(*args), deadline)
            return conn

        class DeadlineHandler(urllib.request.HTTPHandler):
            def http_open(self, req):
                return self.do_open(connection, req)

        req = urllib.request.Request(
            self._url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        body = bytearray()
        try:
            # URLError, HTTPError and socket timeouts are all OSErrors; a
            # malformed response is an HTTPException.
            with urllib.request.build_opener(DeadlineHandler).open(
                    req, timeout=self._timeout) as resp:
                while chunk := resp.read1(65536):
                    body += chunk
                    if len(body) > MAX_REPLY_BYTES:
                        raise ProviderError(f"provider at {self._url} sent a reply "
                                            f"longer than {MAX_REPLY_BYTES} bytes")
        except TimeoutError as exc:
            raise ProviderError(f"provider at {self._url} did not reply within "
                                f"{self._timeout}s: timed out") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise ProviderError(f"provider request to {self._url} failed: {exc}") from exc
        try:
            response = json.loads(body)
        except ValueError as exc:
            raise ProviderError(
                f"provider sent a non-JSON body: {bytes(body[:200])!r}") from exc
        return _check(response)

    def close(self) -> None:
        pass


def _check(response: dict) -> dict:
    if not isinstance(response, dict):
        raise ProviderError(f"malformed provider response: {response!r}")
    if "error" in response:
        raise ProviderError(f"provider error: {response['error']}")
    return response


def _text_answer(response: dict, op: str) -> str:
    """The text of a describer or summarizer answer, which must keep a
    token after stopwords are dropped, as every description must."""
    text = response.get("text")
    if not isinstance(text, str) or not language.cached_tokens(text):
        raise ProviderError(f"{op} returned {text!r}, which has no usable tokens")
    return text


def _make_transport(endpoint: ProviderEndpoint):
    if endpoint.transport == "subprocess":
        return SubprocessProvider(endpoint.command)
    if endpoint.transport == "http":
        return HttpProvider(endpoint.url)
    raise ProviderError(f"unknown transport {endpoint.transport!r}")


@dataclass
class ResolvedProviders:
    """Callables the runner wires in; None means use the reference path."""

    describe_fn: object | None
    ops: LanguageOps
    _transports: list

    def close(self) -> None:
        for t in self._transports:
            t.close()

    def __enter__(self) -> "ResolvedProviders":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_providers(cfg: ProvidersConfig) -> ResolvedProviders:
    """Build the describer callable and LanguageOps for a run.

    If a transport fails to start, the ones already started are closed.
    """
    transports = []

    def start(endpoint: ProviderEndpoint):
        try:
            transport = _make_transport(endpoint)
        except ProviderError:
            for started in transports:
                started.close()
            raise
        transports.append(transport)
        return transport

    describe_fn = None
    if cfg.describer is not None:
        t = start(cfg.describer)

        def describe_fn(attributes: PersonAttributes, _t=t) -> str:
            resp = _t.request({
                "v": PROTOCOL_VERSION, "op": "describe",
                "attributes": attributes.to_dict(),
            })
            return _text_answer(resp, "describer")

    embed_fn = REFERENCE_OPS.embed
    if cfg.embedder is not None:
        t = start(cfg.embedder)
        cache: dict[tuple[str, ...], np.ndarray] = {}

        def embed_fn(tokens: Sequence[str], _t=t, _cache=cache) -> np.ndarray:
            key = tuple(tokens)
            hit = _cache.get(key)
            if hit is not None:
                return hit
            resp = _t.request({"v": PROTOCOL_VERSION, "op": "embed", "tokens": list(key)})
            try:
                vec = np.asarray(resp.get("vector", ()), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ProviderError(f"embedder returned a non-numeric vector: {exc}") from exc
            if vec.shape != (language.EMBEDDING_DIM,):
                raise ProviderError(f"embedder returned shape {vec.shape}")
            norm = float(np.linalg.norm(vec))
            # A NaN or infinite component makes the norm NaN or infinite.
            if not 0.0 < norm < math.inf:
                raise ProviderError(f"embedder returned a vector of norm {norm}; "
                                    "it must be finite and nonzero")
            vec = vec / norm
            vec.flags.writeable = False
            _cache[key] = vec
            return vec

    summarize_fn = REFERENCE_OPS.summarize
    if cfg.summarizer is not None:
        t = start(cfg.summarizer)

        def summarize_fn(members: Iterable, _t=t) -> str:
            texts = [m if isinstance(m, str) else m.text for m in members]
            if not texts:
                return REFERENCE_OPS.summarize(texts)  # raises EmptyClusterError
            resp = _t.request({"v": PROTOCOL_VERSION, "op": "summarize", "texts": texts})
            return _text_answer(resp, "summarizer")

    return ResolvedProviders(
        describe_fn=describe_fn,
        ops=LanguageOps(embed=embed_fn, summarize=summarize_fn),
        _transports=transports,
    )
