import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from swarmreid.config import (ProviderEndpoint, ProvidersConfig, SimConfig,
                              set_value)
from swarmreid.errors import ProviderError
from swarmreid.language import embed, summarize, tokenize
from swarmreid.perception import canonical_description, sample_attributes
from swarmreid.providers import (HttpProvider, SubprocessProvider,
                                 handle_request, resolve_providers)
from swarmreid.runner import run_experiment

_STUB = (sys.executable, "-m", "swarmreid.provider_stub")
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
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        body = json.dumps(handle_request(request)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


class _BadHandler(BaseHTTPRequestHandler):
    """Answers by path: /500 fails, /garbage sends non-JSON, /slow stalls."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/slow":
            time.sleep(2.0)
        if self.path == "/500":
            self.send_error(500)
            return
        body = b"<html>not json</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def bad_http_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _BadHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


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

    def test_connection_refused(self):
        url = f"http://127.0.0.1:{_closed_port()}/"
        with pytest.raises(ProviderError, match="failed"):
            HttpProvider(url, timeout=2.0).request(_REQUEST)


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
            resolve_providers(config)
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
