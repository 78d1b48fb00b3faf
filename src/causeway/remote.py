"""The one HTTP path of the remote clients: a JSON POST with a bearer token
from the environment, retried with exponential backoff."""

from __future__ import annotations

import logging
import os
from typing import Callable, TypeVar

import requests

logger = logging.getLogger(__name__)

T = TypeVar("T")


class RemoteError(RuntimeError):
    """Raised by a remote client; attempts counts the requests it made."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


def post_with_retry(
    session: requests.Session, spec, payload: dict, read: Callable[[dict], T], *,
    timeout: float, sleep: Callable[[float], None], error: type[RemoteError], label: str,
) -> T:
    """POSTs payload to spec.endpoint, with a bearer token from the variable
    spec.auth_env names when it is set, and returns read(response body). A
    transport error, an HTTP error status, a body that is not JSON or a read
    that raises KeyError or ValueError uses up one of spec.max_retries
    attempts, and failed attempt n sleeps spec.backoff_base * 2**(n-1).
    label names the request in each warning and in the final error."""
    token = os.environ.get(spec.auth_env, "") if spec.auth_env else ""
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    last: Exception | None = None
    for attempt in range(1, spec.max_retries + 1):
        try:
            resp = session.post(spec.endpoint, json=payload, headers=headers, timeout=timeout)
            resp.raise_for_status()
            return read(resp.json())
        except (requests.RequestException, KeyError, ValueError) as exc:
            last = exc
            logger.warning("%s request attempt %d failed: %s", label, attempt, exc)
            if attempt < spec.max_retries:
                sleep(spec.backoff_base * (2 ** (attempt - 1)))
    raise error(f"{label} request failed after {spec.max_retries} attempts: {last}", attempts=spec.max_retries)
