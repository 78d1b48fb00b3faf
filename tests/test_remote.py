"""The shared HTTP retry path, driven through both remote clients against a
local HTTP server."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable
from urllib.parse import urlsplit

import pytest
import requests

from causeway.embed import EmbedderSpec, EmbedError, RemoteEmbedder
from causeway.reason import LlmClientSpec, LlmError, RemoteChatClient
from causeway.remote import RemoteError


@dataclass(frozen=True)
class ClientKind:
    name: str
    make: Callable[..., object]  # (url, sleep, **spec overrides) -> client
    call: Callable[[object], object]
    error: type[RemoteError]
    label: str


EMBEDDER = ClientKind(
    "embedder",
    lambda url, sleep, **kw: RemoteEmbedder(
        EmbedderSpec(kind="remote", dim=2, endpoint=url + "/embed", model="m", **kw), sleep=sleep
    ),
    lambda client: client.embed_texts(["a"]),
    EmbedError,
    "embedding",
)
CHAT = ClientKind(
    "chat",
    lambda url, sleep, **kw: RemoteChatClient(
        LlmClientSpec(kind="remote", endpoint=url + "/chat", model="m", **kw), sleep=sleep
    ),
    lambda client: client.complete("p"),
    LlmError,
    "LLM",
)
OK_BODY = {"vectors": [[1.0, 0.0]], "content": "<answer>A</answer>"}


@pytest.fixture(params=[EMBEDDER, CHAT], ids=lambda kind: kind.name)
def kind(request) -> ClientKind:
    return request.param


def test_backoff_doubles(kind, fake_server):
    fake_server.set_responder(lambda path, body, headers: (500, {}))
    sleeps: list[float] = []
    client = kind.make(fake_server.url, sleeps.append, max_retries=3, backoff_base=0.5)
    with pytest.raises(kind.error) as err:
        kind.call(client)
    assert sleeps == [0.5, 1.0]
    assert err.value.attempts == 3
    assert len(fake_server.requests) == 3


@pytest.mark.parametrize("body", [{}, {"result": 1}], ids=["empty", "other-key"])
def test_ok_status_without_result_is_retried_then_raises(kind, fake_server, caplog, body):
    fake_server.set_responder(lambda path, request, headers: (200, body))
    client = kind.make(fake_server.url, lambda s: None, max_retries=4)
    with caplog.at_level(logging.WARNING), pytest.raises(kind.error) as err:
        kind.call(client)
    assert isinstance(err.value, RemoteError)
    assert err.value.attempts == 4
    assert len(fake_server.requests) == 4
    assert str(err.value).startswith(f"{kind.label} request failed after 4 attempts: ")
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert [w.split(" failed: ")[0] for w in warnings] == [
        f"{kind.label} request attempt {n}" for n in range(1, 5)
    ]


@pytest.mark.parametrize("body", [[1, 2], "ok", 3, None], ids=["list", "string", "number", "null"])
def test_ok_status_with_a_body_not_an_object_is_retried_then_raises(kind, fake_server, body):
    fake_server.set_responder(lambda path, request, headers: (200, body))
    sleeps: list[float] = []
    client = kind.make(fake_server.url, sleeps.append, max_retries=3, backoff_base=0.5)
    with pytest.raises(kind.error, match="not an object") as err:
        kind.call(client)
    assert err.value.attempts == 3
    assert len(fake_server.requests) == 3
    assert sleeps == [0.5, 1.0]


def test_ok_after_failed_attempts(kind, fake_server):
    calls = []

    def responder(path, body, headers):
        calls.append(path)
        return (200, {}) if len(calls) < 4 else (200, OK_BODY)

    fake_server.set_responder(responder)
    sleeps: list[float] = []
    result = kind.call(kind.make(fake_server.url, sleeps.append, max_retries=4, backoff_base=0.25))
    assert result is not None
    assert sleeps == [0.25, 0.5, 1.0]


def test_vector_count_mismatch_is_retried(fake_server):
    fake_server.set_responder(lambda path, body, headers: (200, {"vectors": [[1.0, 0.0]] * 2}))
    client = EMBEDDER.make(fake_server.url, lambda s: None, max_retries=2)
    with pytest.raises(EmbedError, match="vector count does not match batch size") as err:
        client.embed_texts(["a"])
    assert err.value.attempts == 2
    assert len(fake_server.requests) == 2


@pytest.mark.parametrize("token", ["", None], ids=["empty", "unset"])
def test_no_authorization_without_a_token(kind, fake_server, monkeypatch, token):
    if token is None:
        monkeypatch.delenv("TEST_REMOTE_KEY", raising=False)
    else:
        monkeypatch.setenv("TEST_REMOTE_KEY", token)
    fake_server.set_responder(lambda path, body, headers: (200, OK_BODY))
    kind.call(kind.make(fake_server.url, lambda s: None, auth_env="TEST_REMOTE_KEY"))
    sent = {name.lower() for name in fake_server.requests[0]["headers"]}
    assert "authorization" not in sent



def _netrc_for(url: str, tmp_path, monkeypatch) -> None:
    """Points NETRC at a file that holds a login for url's host."""
    path = tmp_path / "netrc"
    path.write_text(f"machine {urlsplit(url).hostname} login user password pw\n", encoding="utf-8")
    monkeypatch.setenv("NETRC", str(path))


def test_token_wins_over_netrc(kind, fake_server, monkeypatch, tmp_path):
    _netrc_for(fake_server.url, tmp_path, monkeypatch)
    monkeypatch.setenv("TEST_REMOTE_KEY", "sk-123")
    fake_server.set_responder(lambda path, body, headers: (200, OK_BODY))
    kind.call(kind.make(fake_server.url, lambda s: None, auth_env="TEST_REMOTE_KEY"))
    assert fake_server.requests[0]["headers"]["Authorization"] == "Bearer sk-123"


def test_netrc_applies_without_a_token(kind, fake_server, monkeypatch, tmp_path):
    _netrc_for(fake_server.url, tmp_path, monkeypatch)
    monkeypatch.delenv("TEST_REMOTE_KEY", raising=False)
    fake_server.set_responder(lambda path, body, headers: (200, OK_BODY))
    kind.call(kind.make(fake_server.url, lambda s: None, auth_env="TEST_REMOTE_KEY"))
    assert fake_server.requests[0]["headers"]["Authorization"] == "Basic dXNlcjpwdw=="  # user:pw


def test_environment_is_read_once_per_client(kind, fake_server, monkeypatch):
    calls: Counter = Counter()

    def counted(name: str, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        requests.Session, "merge_environment_settings",
        counted("merge_environment_settings", requests.Session.merge_environment_settings),
    )
    monkeypatch.setattr(requests.sessions, "get_netrc_auth", counted("get_netrc_auth", requests.sessions.get_netrc_auth))
    responses = iter([(500, {})] + [(200, OK_BODY)] * 20)
    fake_server.set_responder(lambda path, body, headers: next(responses))
    for _ in range(2):
        client = kind.make(fake_server.url, lambda s: None)
        for _ in range(5):
            kind.call(client)
    assert len(fake_server.requests) == 11  # one retried post
    assert calls == {"merge_environment_settings": 2, "get_netrc_auth": 2}


def test_proxy_set_before_the_client_routes_its_posts(kind, fake_server, monkeypatch):
    for name in ("http_proxy", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", fake_server.url)
    fake_server.set_responder(lambda path, body, headers: (200, OK_BODY))
    client = kind.make(fake_server.url, lambda s: None)
    monkeypatch.delenv("HTTP_PROXY")  # read when the client was made
    kind.call(client)
    kind.call(client)
    # a request through a proxy names the whole URL on its request line
    assert [r["path"] for r in fake_server.requests] == [client.spec.endpoint] * 2


def test_cookie_from_the_endpoint_is_sent_back(kind, fake_server):
    fake_server.set_responder(lambda path, body, headers: (200, OK_BODY, {"Set-Cookie": "sid=abc"}))
    client = kind.make(fake_server.url, lambda s: None)
    kind.call(client)
    kind.call(client)
    assert [r["headers"].get("Cookie") for r in fake_server.requests] == [None, "sid=abc"]


def test_cookie_from_a_failed_attempt_is_sent_on_the_retry(kind, fake_server):
    responses = iter([(500, {}, {"Set-Cookie": "sid=abc"}), (200, OK_BODY)])
    fake_server.set_responder(lambda path, body, headers: next(responses))
    kind.call(kind.make(fake_server.url, lambda s: None, max_retries=2))
    assert [r["headers"].get("Cookie") for r in fake_server.requests] == [None, "sid=abc"]
