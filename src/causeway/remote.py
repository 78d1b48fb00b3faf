"""The one HTTP path of the remote clients: a JSON POST with a bearer token
from the environment, retried with exponential backoff. Also the error of a
client spec that cannot make a client."""

from __future__ import annotations

import logging
import os
import time
from typing import Callable, TypeVar

logger = logging.getLogger(__name__)

T = TypeVar("T")


class ConfigError(ValueError):
    """A client spec that names no usable client: an unknown kind, a remote
    kind without an endpoint, or a dimension that is not positive."""


class RemoteError(RuntimeError):
    """Raised by a remote client; attempts counts the requests it made."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class RemoteClient:
    """Base of the remote clients. A subclass sets the error it raises, the
    label that names its requests in warnings and errors, and the timeout of
    each request in seconds."""

    error: type[RemoteError]
    label: str
    timeout: float

    def __init__(self, spec, sleep: Callable[[float], None] = time.sleep):
        if not spec.endpoint:
            raise ConfigError(f"remote {self.label} client requires an endpoint")
        # imported here, not with the module: only a stage with a remote client pays for it
        import requests

        self.spec = spec
        self.session = requests.Session()
        self._sleep = sleep
        # the token, netrc, proxies and CA bundle are read here once, not per
        # request; the token is set after netrc's Basic auth so that it wins
        self._template = self.session.prepare_request(requests.Request("POST", spec.endpoint))
        token = os.environ.get(spec.auth_env, "") if spec.auth_env else ""
        if token:
            self._template.headers["Authorization"] = f"Bearer {token}"
        self._settings = self.session.merge_environment_settings(self._template.url, {}, None, None, None)

    def _post(self, payload: dict, read: Callable[[dict], T]) -> T:
        """POSTs payload to spec.endpoint with the token and settings the
        client read when it was made, and returns read(response body). A
        transport error, an HTTP error status, a body that is not a JSON
        object or a read that raises KeyError or ValueError uses up one of
        spec.max_retries attempts, and failed attempt n sleeps
        spec.backoff_base * 2**(n-1)."""
        import requests

        spec = self.spec
        last: Exception | None = None
        for attempt in range(1, spec.max_retries + 1):
            try:
                # each attempt sends the cookies the endpoint has set so far
                request = self._template.copy()
                request.prepare_body(None, None, json=payload)
                request.prepare_cookies(self.session.cookies)
                resp = self.session.send(request, timeout=self.timeout, **self._settings)
                resp.raise_for_status()
                body = resp.json()
                if not isinstance(body, dict):
                    raise ValueError(f"response body is a JSON {type(body).__name__}, not an object")
                return read(body)
            except (requests.RequestException, KeyError, ValueError) as exc:
                last = exc
                logger.warning("%s request attempt %d failed: %s", self.label, attempt, exc)
                if attempt < spec.max_retries:
                    self._sleep(spec.backoff_base * (2 ** (attempt - 1)))
        message = f"{self.label} request failed after {spec.max_retries} attempts: {last}"
        raise self.error(message, attempts=spec.max_retries)
