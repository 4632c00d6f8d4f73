import contextlib
import dataclasses
import json
import os
import re
import select
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import swarmreid
from swarmreid.config import (ProviderEndpoint, ProvidersConfig, SimConfig,
                              set_value)
from swarmreid.errors import ProviderError
from swarmreid.language import EMBEDDING_DIM, embed, summarize, tokenize
from swarmreid.perception import canonical_description, sample_attributes
from swarmreid.providers import (MAX_REPLY_BYTES, HttpProvider,
                                 SubprocessProvider, handle_request,
                                 resolve_providers)
from swarmreid.runner import run_experiment

_STUB = (sys.executable, "-m", "swarmreid.provider_stub")
_DATA = os.path.join(os.path.dirname(__file__), "data")
_CERT = os.path.join(_DATA, "loopback_cert.pem")  # for 127.0.0.1; see data/README.md
_ATTRS = sample_attributes(1, np.random.default_rng(3))[0]


class TestHandleRequest:
    def test_describe_matches_reference(self):
        resp = handle_request({"v": 1, "op": "describe",
                               "attributes": _ATTRS.to_dict()})
        assert resp == {"text": canonical_description(_ATTRS)}

    def test_embed_matches_reference(self):
        tokens = tokenize("a woman wearing a red shirt")
        resp = handle_request({"v": 1, "op": "embed", "tokens": tokens})
        assert np.allclose(resp["vector"], embed(tokens))

    def test_summarize_matches_reference(self):
        texts = ["a man wearing a blue shirt and gray pants"] * 3
        resp = handle_request({"v": 1, "op": "summarize", "texts": texts})
        assert resp == {"text": summarize(texts)}

    def test_version_checked(self):
        resp = handle_request({"v": 2, "op": "embed", "tokens": ["red"]})
        assert "unsupported protocol version" in resp["error"]
        assert "error" in handle_request({"op": "embed", "tokens": ["red"]})

    def test_unknown_op(self):
        assert "unknown op" in handle_request({"v": 1, "op": "rank"})["error"]

    def test_bad_attributes_become_error_not_crash(self):
        resp = handle_request({"v": 1, "op": "describe",
                               "attributes": {"noun": "dragon"}})
        assert "error" in resp

    def test_non_object_request(self):
        assert "error" in handle_request([1, 2, 3])


class TestSubprocessProvider:
    def test_round_trips_all_ops(self):
        provider = SubprocessProvider(_STUB)
        try:
            text = provider.request({"v": 1, "op": "describe",
                                     "attributes": _ATTRS.to_dict()})["text"]
            assert text == canonical_description(_ATTRS)
            tokens = tokenize(text)
            vec = provider.request({"v": 1, "op": "embed",
                                    "tokens": tokens})["vector"]
            assert np.allclose(vec, embed(tokens))
            summary = provider.request({"v": 1, "op": "summarize",
                                        "texts": [text, text]})["text"]
            assert summary == summarize([text, text])
        finally:
            provider.close()

    def test_error_response_raises(self):
        provider = SubprocessProvider(_STUB)
        try:
            with pytest.raises(ProviderError, match="unknown op"):
                provider.request({"v": 1, "op": "rank"})
        finally:
            provider.close()

    def test_dead_subprocess_raises(self):
        provider = SubprocessProvider((sys.executable, "-c", "pass"))
        provider._proc.wait(timeout=5)
        with pytest.raises(ProviderError):
            provider.request({"v": 1, "op": "embed", "tokens": ["red"]})
        provider.close()
        assert provider._proc.stdin.closed and provider._proc.stdout.closed


def _stub(tmp_path, body):
    """Command running a throwaway provider script with the given body."""
    script = tmp_path / "stub.py"
    script.write_text(body)
    return (sys.executable, str(script))


_REQUEST = {"v": 1, "op": "embed", "tokens": ["red"]}


class TestMisbehavingSubprocess:
    def test_stalled_reply_times_out(self, tmp_path):
        provider = SubprocessProvider(
            _stub(tmp_path, "import sys, time\nsys.stdin.readline()\ntime.sleep(60)\n"),
            timeout=0.5)
        started = time.monotonic()
        try:
            with pytest.raises(ProviderError, match="did not reply within"):
                provider.request(_REQUEST)
        finally:
            provider.close()
        assert time.monotonic() - started < 10
        assert provider._proc.poll() is not None

    def test_non_json_line_raises_provider_error(self, tmp_path):
        provider = SubprocessProvider(_stub(
            tmp_path, "import sys\nfor line in sys.stdin:\n    print('ok then', flush=True)\n"))
        try:
            with pytest.raises(ProviderError, match="non-JSON"):
                provider.request(_REQUEST)
        finally:
            provider.close()

    def test_reply_past_the_cap_fails_before_the_deadline(self, tmp_path):
        provider = SubprocessProvider(_stub(
            tmp_path, "import sys\nsys.stdin.readline()\n"
                      f"sys.stdout.buffer.write(b'x' * {MAX_REPLY_BYTES + 1})\n"
                      "sys.stdout.flush()\nsys.stdin.read()\n"), timeout=5.0)
        started = time.monotonic()
        try:
            with pytest.raises(ProviderError, match="longer than"):
                provider.request(_REQUEST)
            assert time.monotonic() - started < 2.5
        finally:
            provider.close()

    def test_second_reply_line_is_refused_not_kept_for_the_next_request(self, tmp_path):
        provider = SubprocessProvider(_stub(
            tmp_path, "import sys\nfor line in sys.stdin:\n"
                      "    print('{\"text\": \"first\"}', flush=True)\n"
                      "    print('{\"text\": \"second\"}', flush=True)\n"))
        try:
            # The second line comes in the read of the first reply, or after
            # it; either way it is refused, never taken as the next answer.
            with pytest.raises(ProviderError, match="unrequested output"):
                assert provider.request(_REQUEST) == {"text": "first"}
                select.select([provider._proc.stdout], [], [], 5.0)
                provider.request(_REQUEST)
        finally:
            provider.close()

    def test_child_dying_mid_request_raises(self, tmp_path):
        provider = SubprocessProvider(
            _stub(tmp_path, "import sys\nsys.stdin.readline()\n"), timeout=5.0)
        try:
            with pytest.raises(ProviderError):
                provider.request(_REQUEST)
        finally:
            provider.close()
        assert provider._proc.stdin.closed and provider._proc.stdout.closed

    def test_close_kills_child_that_ignores_eof(self, tmp_path):
        provider = SubprocessProvider(
            _stub(tmp_path, "import time\nwhile True:\n    time.sleep(1)\n"), timeout=0.5)
        started = time.monotonic()
        provider.close()
        assert time.monotonic() - started < 10
        assert provider._proc.poll() is not None

    def test_missing_command_raises_provider_error(self, tmp_path):
        with pytest.raises(ProviderError, match="cannot start"):
            SubprocessProvider((str(tmp_path / "no-such-provider"),))


class _Handler(BaseHTTPRequestHandler):
    # Whether Content-Length comes before Content-Type, not last.
    length_first = False

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        body = json.dumps(handle_request(request)).encode("utf-8")
        self.send_response(200)
        headers = [("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
        for name, value in reversed(headers) if self.length_first else headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_Handler):
    """Answers as _Handler does, then holds the connection open for a next
    request until the client closes it."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        self.close_connection = False


@contextlib.contextmanager
def _serving(handler, tls=None):
    """Base URL of a loopback server of ``handler``, over TLS when given a
    server context."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="module")
def http_url():
    with _serving(_Handler) as url:
        yield url + "/"


# Bodies by path; any other path answers "<html>not json</html>".
_BODIES = {
    "/trickle": b'{"text": "a man wearing a red shirt"}',  # 37 bytes
    "/huge": b'{"text": "' + b"x" * MAX_REPLY_BYTES + b'"}',
}


# A status line and headers of 71 bytes, which /trickle-head sends a byte
# every 0.15 s before a valid body.
_TRICKLED_HEAD = (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                  b"Content-Length: 37\r\n\r\n")


# Status, headers and body by path, each sent at once.
_WHOLE_REPLIES = {
    "/redirect": (302, {"Location": "/trickle", "Content-Length": "0"}, b""),
    "/chunked": (200, {"Transfer-Encoding": "chunked"},
                 b"25\r\n" + _BODIES["/trickle"] + b"\r\n0\r\n\r\n"),
    "/long-length": (200, {"Content-Length": "9" * 5000}, _BODIES["/trickle"]),
}


class _BadHandler(BaseHTTPRequestHandler):
    """Answers by path: /500 fails, /garbage sends non-JSON, /slow stalls,
    /trickle sends its body a byte every 0.15 s, /trickle-head its status
    line and headers, /huge sends more than MAX_REPLY_BYTES, /redirect
    redirects to /trickle, /chunked sends a chunked valid body, /long-length
    a valid body under a 5000-digit Content-Length."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path in _WHOLE_REPLIES:
            status, headers, body = _WHOLE_REPLIES[self.path]
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            return
        if self.path == "/trickle-head":
            try:
                for i in range(len(_TRICKLED_HEAD)):
                    self.wfile.write(_TRICKLED_HEAD[i:i + 1])
                    time.sleep(0.15)
                self.wfile.write(_BODIES["/trickle"])
            except OSError:
                pass  # the client gave up, as it should
            return
        if self.path == "/slow":
            time.sleep(2.0)
        if self.path == "/500":
            self.send_error(500)
            return
        body = _BODIES.get(self.path, b"<html>not json</html>")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            if self.path == "/trickle":
                for i in range(len(body)):
                    self.wfile.write(body[i:i + 1])
                    time.sleep(0.15)
            else:
                self.wfile.write(body)
        except OSError:
            pass  # the client gave up, as it should

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def bad_http_url():
    with _serving(_BadHandler) as url:
        yield url


@pytest.fixture(scope="module")
def https_urls():
    """Base URLs of a well-behaved and a misbehaving loopback HTTPS server."""
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(_CERT, os.path.join(_DATA, "loopback_key.pem"))
    with _serving(_Handler, tls) as good, _serving(_BadHandler, tls) as bad:
        yield good, bad


@pytest.fixture
def trust_loopback_cert(monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", _CERT)


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestMisbehavingHttp:
    def test_http_error_status(self, bad_http_url):
        with pytest.raises(ProviderError, match="500"):
            HttpProvider(bad_http_url + "/500").request(_REQUEST)

    def test_non_json_body(self, bad_http_url):
        with pytest.raises(ProviderError, match="non-JSON"):
            HttpProvider(bad_http_url + "/garbage").request(_REQUEST)

    def test_timeout(self, bad_http_url):
        with pytest.raises(ProviderError, match="timed out"):
            HttpProvider(bad_http_url + "/slow", timeout=0.3).request(_REQUEST)

    def test_trickled_body_ends_at_the_deadline(self, bad_http_url):
        started = time.monotonic()
        with pytest.raises(ProviderError, match="did not reply within"):
            HttpProvider(bad_http_url + "/trickle", timeout=1.0).request(_REQUEST)
        assert time.monotonic() - started < 1.5

    def test_trickled_headers_end_at_the_deadline(self, bad_http_url):
        started = time.monotonic()
        with pytest.raises(ProviderError, match="did not reply within"):
            HttpProvider(bad_http_url + "/trickle-head", timeout=1.0).request(_REQUEST)
        assert time.monotonic() - started < 2.0

    def test_oversized_body(self, bad_http_url):
        with pytest.raises(ProviderError, match="longer than"):
            HttpProvider(bad_http_url + "/huge").request(_REQUEST)

    def test_connection_refused(self):
        url = f"http://127.0.0.1:{_closed_port()}/"
        with pytest.raises(ProviderError, match="failed"):
            HttpProvider(url, timeout=2.0).request(_REQUEST)

    def test_unconnectable_addresses_share_the_deadline(self, monkeypatch):
        """Two resolved addresses whose connect never completes end the
        request by ``timeout``, not once per address."""
        port = _closed_port()
        monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kw: [
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", (ip, port))
            for ip in ("127.0.0.2", "127.0.0.3")])
        given = []

        def stalled_connect(sock, address):
            given.append(sock.gettimeout())
            time.sleep(sock.gettimeout())
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket.socket, "connect", stalled_connect)
        started = time.monotonic()
        with pytest.raises(ProviderError, match="did not reply within 0.5s"):
            HttpProvider(f"http://127.0.0.1:{port}/", timeout=0.5).request(_REQUEST)
        assert time.monotonic() - started < 0.8
        assert given and sum(given) <= 0.5

    def test_refused_address_falls_through_to_the_next(self, http_url, monkeypatch):
        port = int(http_url.rsplit(":", 1)[1].rstrip("/"))
        monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kw: [
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", p))
            for p in (_closed_port(), port)])
        reply = HttpProvider(http_url, timeout=2.0).request(_REQUEST)
        assert np.allclose(reply["vector"], embed(["red"]))

    def test_redirect_is_not_followed(self, bad_http_url):
        with pytest.raises(ProviderError, match="302"):
            HttpProvider(bad_http_url + "/redirect").request(_REQUEST)

    def test_unmeetable_content_length_reads_to_end_of_stream(self, bad_http_url):
        reply = HttpProvider(bad_http_url + "/long-length", timeout=2.0).request(_REQUEST)
        assert reply == json.loads(_BODIES["/trickle"])

    def test_transfer_encoding_refused(self, bad_http_url):
        with pytest.raises(ProviderError, match="Transfer-Encoding"):
            HttpProvider(bad_http_url + "/chunked").request(_REQUEST)

    @pytest.mark.parametrize("url", [
        "ftp://127.0.0.1/", "http:///no-host", "127.0.0.1:8000", "http://127.0.0.1:port/",
        "http://[::1"])
    def test_unusable_url_refused_when_built(self, url):
        with pytest.raises(ProviderError, match=re.escape(repr(url))):
            HttpProvider(url)

    def test_https_trickled_head_ends_at_the_deadline(self, https_urls, trust_loopback_cert):
        provider = HttpProvider(https_urls[1] + "/trickle-head", timeout=1.0)
        started = time.monotonic()
        with pytest.raises(ProviderError, match="did not reply within"):
            provider.request(_REQUEST)
        assert time.monotonic() - started < 2.0

    def test_https_checks_the_certificate(self, https_urls, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        with pytest.raises(ProviderError, match="failed"):
            HttpProvider(https_urls[0] + "/", timeout=2.0).request(_REQUEST)


class TestHttpProvider:
    def test_round_trip(self, http_url):
        provider = HttpProvider(http_url)
        tokens = ["red", "shirt"]
        vec = provider.request({"v": 1, "op": "embed",
                                "tokens": tokens})["vector"]
        assert np.allclose(vec, embed(tokens))

    def test_error_raises(self, http_url):
        with pytest.raises(ProviderError, match="unknown op"):
            HttpProvider(http_url).request({"v": 1, "op": "rank"})

    def test_https_round_trip(self, https_urls, trust_loopback_cert):
        tokens = ["red", "shirt"]
        vec = HttpProvider(https_urls[0] + "/?q=1").request(
            {"v": 1, "op": "embed", "tokens": tokens})["vector"]
        assert np.allclose(vec, embed(tokens))

    def test_environment_proxies_are_not_used(self, http_url, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, f"http://127.0.0.1:{_closed_port()}")
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        tokens = ["red", "shirt"]
        vec = HttpProvider(http_url, timeout=2.0).request(
            {"v": 1, "op": "embed", "tokens": tokens})["vector"]
        assert np.allclose(vec, embed(tokens))

    @pytest.mark.parametrize("length_first", [False, True],
                             ids=["length_last", "length_first"])
    def test_keep_alive_server_is_answered_at_content_length(self, length_first):
        tokens = ["red", "shirt"]
        handler = type("Handler", (_KeepAliveHandler,), {"length_first": length_first})
        with _serving(handler) as url:
            started = time.monotonic()
            vec = HttpProvider(url + "/", timeout=5.0).request(
                {"v": 1, "op": "embed", "tokens": tokens})["vector"]
            assert time.monotonic() - started < 1.0
        assert np.allclose(vec, embed(tokens))

    def test_importing_the_package_loads_no_http_client(self):
        # urllib.request, which pulls these in, is imported by the first
        # HTTP request only.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(os.path.dirname(os.path.dirname(swarmreid.__file__))),
                        env.get("PYTHONPATH")) if p)
        code = ("import sys, swarmreid, swarmreid.cli; "
                "print(sorted({'http.client', 'ssl', 'urllib.request'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"


def _providers_config(**endpoints):
    return ProvidersConfig(**{
        name: ProviderEndpoint(transport="subprocess", command=_STUB)
        for name in endpoints
    })


class TestResolveProviders:
    def test_defaults_use_reference_ops(self):
        with resolve_providers(ProvidersConfig()) as resolved:
            assert resolved.describe_fn is None
            tokens = ["red", "shirt"]
            assert np.array_equal(resolved.ops.embed(tokens), embed(tokens))

    def test_embedder_renormalizes_and_caches(self, http_url):
        config = ProvidersConfig(embedder=ProviderEndpoint(
            transport="http", url=http_url))
        with resolve_providers(config) as resolved:
            tokens = ["green", "jacket"]
            first = resolved.ops.embed(tokens)
            assert abs(float(np.linalg.norm(first)) - 1.0) < 1e-12
            assert not first.flags.writeable
            assert resolved.ops.embed(tokens) is first

    def test_failed_start_closes_started_transports(self, tmp_path, monkeypatch):
        config = ProvidersConfig(
            describer=ProviderEndpoint(transport="subprocess", command=_STUB),
            embedder=ProviderEndpoint(transport="subprocess",
                                      command=(str(tmp_path / "no-such-provider"),)))
        started = []
        real_init = SubprocessProvider.__init__

        def recording_init(self, *args, **kwargs):
            started.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SubprocessProvider, "__init__", recording_init)
        with pytest.raises(ProviderError, match="cannot start"):
            with resolve_providers(config):
                pass
        assert started[0]._proc.poll() is not None

    def test_describer_round_trip(self):
        with resolve_providers(_providers_config(describer=True)) as resolved:
            assert resolved.describe_fn(_ATTRS) == canonical_description(_ATTRS)


class TestProviderRun:
    def test_run_matches_reference_except_fingerprint(self, http_url):
        base = set_value(SimConfig(), "duration_ticks", 300)
        reference = run_experiment(base)

        with_providers = base
        for name, field in (("describer", "providers.describer"),
                            ("summarizer", "providers.summarizer")):
            with_providers = set_value(
                with_providers, f"{field}.transport", "subprocess")
            with_providers = set_value(
                with_providers, f"{field}.command", list(_STUB))
        with_providers = set_value(
            with_providers, "providers.embedder.transport", "http")
        with_providers = set_value(
            with_providers, "providers.embedder.url", http_url)
        remote = run_experiment(with_providers)

        assert remote.fingerprint != reference.fingerprint
        assert [db.to_json() for db in remote.databases] == [
            db.to_json() for db in reference.databases]
        assert remote.events == reference.events
        ref_doc = reference.metrics.to_dict()
        remote_doc = remote.metrics.to_dict()
        ref_doc.pop("config_fingerprint")
        remote_doc.pop("config_fingerprint")
        assert remote_doc == ref_doc


def _answering(tmp_path, response):
    """Endpoint of a stub that answers every request with ``response``."""
    body = ("import sys\nfor line in sys.stdin:\n"
            f"    print({json.dumps(response)!r}, flush=True)\n")
    return ProviderEndpoint(transport="subprocess", command=_stub(tmp_path, body))


class TestProviderRunFailure:
    def test_failed_run_leaves_no_provider_child(self, tmp_path, monkeypatch):
        started = []
        real_init = SubprocessProvider.__init__

        def recording_init(self, *args, **kwargs):
            started.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SubprocessProvider, "__init__", recording_init)
        stub = ProviderEndpoint(transport="subprocess", command=_STUB)
        config = dataclasses.replace(SimConfig(duration_ticks=300), providers=ProvidersConfig(
            describer=_answering(tmp_path, {"text": "the a an"}),
            embedder=stub, summarizer=stub))
        with pytest.raises(ProviderError, match="describer returned 'the a an'"):
            run_experiment(config)
        assert len(started) == 3
        assert all(p._proc.poll() is not None for p in started)


class TestGarbageAnswers:
    @pytest.mark.parametrize("answer, message", [
        ([1, 2], "malformed provider response"),
        ({"vector": [1.0, 2.0, 3.0]}, re.escape("returned shape (3,)")),
        ({"vector": ["red"] * EMBEDDING_DIM}, "non-numeric"),
        ({"text": "no vector here"}, re.escape("returned shape (0,)")),
        ({"vector": [[1.0]] * EMBEDDING_DIM}, re.escape(f"returned shape ({EMBEDDING_DIM}, 1)")),
    ])
    def test_malformed_embedding_rejected(self, tmp_path, answer, message):
        config = ProvidersConfig(embedder=_answering(tmp_path, answer))
        with resolve_providers(config) as resolved:
            with pytest.raises(ProviderError, match=message):
                resolved.ops.embed(["red"])

    def test_non_string_description_rejected(self, tmp_path):
        config = ProvidersConfig(describer=_answering(tmp_path, {"text": 5}))
        with resolve_providers(config) as resolved:
            with pytest.raises(ProviderError, match="describer returned 5"):
                resolved.describe_fn(_ATTRS)

    @pytest.mark.parametrize("first, rest", [
        (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0), (0.0, 0.0)])
    def test_non_finite_or_zero_vector_rejected(self, tmp_path, first, rest):
        vector = [first] + [rest] * (EMBEDDING_DIM - 1)
        config = ProvidersConfig(embedder=_answering(tmp_path, {"vector": vector}))
        with resolve_providers(config) as resolved:
            with pytest.raises(ProviderError, match="embedder returned a vector of norm"):
                resolved.ops.embed(["red"])

    def test_stopword_only_description_rejected(self, tmp_path):
        config = ProvidersConfig(describer=_answering(tmp_path, {"text": "the a an"}))
        with resolve_providers(config) as resolved:
            with pytest.raises(ProviderError, match="describer returned 'the a an'"):
                resolved.describe_fn(_ATTRS)

    def test_stopword_only_summary_rejected(self, tmp_path):
        config = ProvidersConfig(summarizer=_answering(tmp_path, {"text": "the a an"}))
        with resolve_providers(config) as resolved:
            with pytest.raises(ProviderError, match="summarizer returned 'the a an'"):
                resolved.ops.summarize(["a man wearing a blue shirt"])
