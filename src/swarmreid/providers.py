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

import contextlib
import json
import math
import os
import re
import select
import socket
import subprocess
import time
from dataclasses import dataclass
from typing import Iterator, Sequence
from urllib.parse import urlsplit

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


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _read_reply(recv, deadline: float, complete) -> bytes:
    """One reply, for either transport: ``recv(seconds)`` returns the next
    bytes within ``seconds`` (b"" at end of stream) or raises TimeoutError,
    and is given only the time left to ``deadline``. Reading stops at end of
    stream or once ``complete(reply)`` holds, and refuses a reply longer
    than ``MAX_REPLY_BYTES``."""
    reply = b""
    while not complete(reply):
        chunk = recv(_time_left(deadline))
        if not chunk:
            break
        reply += chunk
        if len(reply) > MAX_REPLY_BYTES:
            raise ProviderError(f"provider sent a reply longer than {MAX_REPLY_BYTES} bytes")
    return reply


class _Transport:
    """Sends each request's JSON payload through the transport's
    ``_exchange(data, deadline)``, which returns the reply's JSON bytes
    before the deadline, ``timeout`` seconds after the request starts. A
    stall, an OS error, or a reply that is not a JSON object or that holds
    an ``error`` key raises ProviderError."""

    def request(self, payload: dict) -> dict:
        try:
            reply = self._exchange(json.dumps(payload).encode("utf-8"),
                                   time.monotonic() + self._timeout)
        except TimeoutError as exc:
            raise ProviderError(f"{self._who} did not reply within "
                                f"{self._timeout}s: timed out") from exc
        except OSError as exc:
            raise ProviderError(f"request to {self._who} failed: {exc}") from exc
        try:
            response = json.loads(reply)
        except ValueError as exc:
            raise ProviderError(f"provider sent a non-JSON {self._unit}: "
                                f"{reply[:200]!r}") from exc
        if not isinstance(response, dict):
            raise ProviderError(f"malformed provider response: {response!r}")
        if "error" in response:
            raise ProviderError(f"provider error: {response['error']}")
        return response

    def close(self) -> None:
        pass


class SubprocessProvider(_Transport):
    """Talks the protocol to a child process over stdin/stdout lines.

    Each request must be answered within ``timeout`` seconds by exactly one
    line of at most ``MAX_REPLY_BYTES``, and ``close`` gives the child as
    long to exit after its stdin closes before killing it.
    """

    _who, _unit = "provider subprocess", "line"

    def __init__(self, command: Sequence[str], timeout: float = 10.0) -> None:
        self._timeout = timeout
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise ProviderError(f"cannot start provider {list(command)}: {exc}") from exc

    def _exchange(self, data: bytes, deadline: float) -> bytes:
        fd = self._proc.stdout.fileno()
        if self._proc.poll() is not None:
            raise ProviderError("provider subprocess has exited")
        if select.select([fd], [], [], 0)[0]:
            raise ProviderError("provider subprocess sent unrequested output, "
                                "or closed its stdout, before the request")
        self._proc.stdin.write(data + b"\n")
        self._proc.stdin.flush()

        def recv(seconds: float) -> bytes:
            if not select.select([fd], [], [], seconds)[0]:
                raise TimeoutError("timed out")
            return os.read(fd, 65536)

        line, newline, rest = _read_reply(recv, deadline, lambda r: b"\n" in r).partition(b"\n")
        if not newline:
            raise ProviderError("provider subprocess closed its stdout")
        if rest:
            raise ProviderError("provider subprocess sent unrequested output "
                                f"after its reply line: {rest[:200]!r}")
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


def _http_complete(reply: bytes) -> bool:
    """Whether the body holds the bytes its Content-Length announces, so a
    server that keeps the connection open cannot hold the request. A length
    too long to be met is left to end of stream and ``MAX_REPLY_BYTES``."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    length = re.search(rb"(?im)^content-length:[ \t]*(\d{1,15})[ \t]*\r?$", head)
    return bool(sep and length) and len(body) >= int(length[1])


class HttpProvider(_Transport):
    """POSTs protocol payloads to an ``http`` or ``https`` endpoint.

    Each request is one HTTP/1.0 exchange on its own connection. Connecting,
    the TLS handshake, sending, and every read of the reply (at most
    ``MAX_REPLY_BYTES``, head included) wait only the time left to one
    deadline ``timeout`` seconds after the request starts. The addresses a
    name resolves to are tried in turn, each connect given only the time
    left, so together they end by the deadline; name resolution itself is
    not bounded. Redirects are not followed and proxies are not used.
    """

    _unit = "body"

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self._who = f"provider at {url}"
        self._timeout = timeout
        try:
            # A malformed host or port, such as an unclosed IPv6 bracket,
            # raises ValueError here.
            parts = urlsplit(url)
            port = parts.port or (443 if parts.scheme == "https" else 80)
        except ValueError:
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ProviderError(f"provider URL {url!r} is not an http(s) URL with a host")
        self._address = (parts.hostname, port)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._head = (f"POST {target} HTTP/1.0\r\nHost: {parts.netloc.rpartition('@')[2]}\r\n"
                      "Content-Type: application/json\r\nConnection: close\r\n").encode()
        self._tls = None
        if parts.scheme == "https":
            import ssl  # only an https provider needs it

            self._tls = ssl.create_default_context()

    def _connect(self, deadline: float) -> socket.socket:
        """A socket connected to the first address of the host that accepts
        in the time left to ``deadline``; the last address's error if none
        does."""
        host, port = self._address
        error = OSError(f"{host} resolved to no address")
        for family, kind, proto, _, address in socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM):
            left = _time_left(deadline)
            sock = None
            try:
                sock = socket.socket(family, kind, proto)
                sock.settimeout(left)
                sock.connect(address)
                return sock
            except OSError as exc:
                if sock is not None:
                    sock.close()
                error = exc
        raise error

    def _exchange(self, data: bytes, deadline: float) -> bytes:
        def recv(seconds: float) -> bytes:
            sock.settimeout(seconds)
            return sock.recv(65536)

        sock = self._connect(deadline)
        try:
            if self._tls is not None:
                sock.settimeout(_time_left(deadline))
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
            sock.settimeout(_time_left(deadline))
            sock.sendall(self._head + b"Content-Length: %d\r\n\r\n" % len(data) + data)
            reply = _read_reply(recv, deadline, _http_complete)
        finally:
            sock.close()  # the TLS socket once wrapped; wrapping detached the plain one
        head, _, body = reply.partition(b"\r\n\r\n")
        status = head.split(b"\r\n", 1)[0]
        if not re.fullmatch(rb"HTTP/\d\.\d 2\d\d(?: .*)?", status):
            raise ProviderError(f"request to {self._who} failed: {status[:200]!r}")
        if re.search(rb"(?im)^transfer-encoding:", head):
            raise ProviderError(f"{self._who} sent Transfer-Encoding, "
                                "which an HTTP/1.0 reply must not")
        return body


def _text_answer(response: dict, op: str) -> str:
    """The text of a describer or summarizer answer, which must keep a
    token after stopwords are dropped, as every description must."""
    text = response.get("text")
    if not isinstance(text, str) or not language.cached_tokens(text):
        raise ProviderError(f"{op} returned {text!r}, which has no usable tokens")
    return text


@dataclass
class ResolvedProviders:
    """Callables the runner wires in; None means use the reference path."""

    describe_fn: object | None
    ops: LanguageOps


@contextlib.contextmanager
def resolve_providers(cfg: ProvidersConfig) -> Iterator[ResolvedProviders]:
    """Build the describer callable and LanguageOps for a run.

    The scope owns every transport it starts and closes them when it ends,
    also when a later one fails to start or the run raises.
    """
    with contextlib.ExitStack() as stack:

        def start(endpoint: ProviderEndpoint | None):
            if endpoint is None:
                return None
            if endpoint.transport not in ("subprocess", "http"):
                raise ProviderError(f"unknown transport {endpoint.transport!r}")
            transport = (SubprocessProvider(endpoint.command) if endpoint.transport == "subprocess"
                         else HttpProvider(endpoint.url))
            stack.callback(transport.close)
            return transport

        describer, embedder, summarizer = map(
            start, (cfg.describer, cfg.embedder, cfg.summarizer))
        cache: dict[tuple[str, ...], np.ndarray] = {}

        def describe_fn(attributes: PersonAttributes) -> str:
            resp = describer.request({"v": PROTOCOL_VERSION, "op": "describe",
                                      "attributes": attributes.to_dict()})
            return _text_answer(resp, "describer")

        def embed_fn(tokens: Sequence[str]) -> np.ndarray:
            key = tuple(tokens)
            hit = cache.get(key)
            if hit is not None:
                return hit
            resp = embedder.request({"v": PROTOCOL_VERSION, "op": "embed", "tokens": list(key)})
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
            cache[key] = vec
            return vec

        def summarize_fn(texts: list[str]) -> str:
            if not texts:
                return REFERENCE_OPS.summarize(texts)  # raises EmptyClusterError
            resp = summarizer.request({"v": PROTOCOL_VERSION, "op": "summarize", "texts": texts})
            return _text_answer(resp, "summarizer")

        yield ResolvedProviders(
            describe_fn=describe_fn if describer else None,
            ops=LanguageOps(embed=embed_fn if embedder else REFERENCE_OPS.embed,
                            summarize=summarize_fn if summarizer else REFERENCE_OPS.summarize),
        )
