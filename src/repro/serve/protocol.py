"""The versioned serve wire protocol: requests, responses, and documents.

This module is the request/response surface of the serving subsystem —
every entry point (the programmatic :class:`~repro.serve.gateway.Gateway`
API, the ``python -m repro.run serve`` NDJSON/HTTP front ends, and the
``deploy`` CLI) speaks exactly these shapes:

* :class:`ServeRequest` — one sizing query: the target specification group
  plus routing (``env_id``, ``max_steps``) and gateway knobs (``deadline_ms``
  batching budget, caller-chosen ``request_id``);
* :class:`ServeResponse` — the designed circuit (named ``final_parameters``,
  achieved ``final_specs``, per-spec ``met`` flags), or a structured
  :class:`ServeError`, plus ``timing`` and simulation-``tier`` stats;
* :func:`parse_requests_document` / :func:`load_requests_document` — parse a
  whole request document (the ``deploy``/``serve`` CLI input).

Both dataclasses carry ``schema_version`` (currently ``1``) and round-trip
strictly through ``to_json`` / ``from_json``: unknown fields are rejected
with the known field names listed, and future schema versions fail with a
message naming the version this build speaks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.deployment import DeploymentResult

#: The wire-format version this build speaks.
SCHEMA_VERSION = 1

_REQUEST_FIELDS = (
    "schema_version",
    "target_specs",
    "env_id",
    "max_steps",
    "deadline_ms",
    "request_id",
)
_RESPONSE_FIELDS = (
    "schema_version",
    "request_id",
    "index",
    "env_id",
    "target_specs",
    "success",
    "met",
    "steps",
    "final_specs",
    "final_parameters",
    "timing",
    "tier",
    "error",
)
_ERROR_FIELDS = ("code", "message")


def _check_schema_version(value: Any, kind: str) -> int:
    try:
        version = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} schema_version must be an integer, got {value!r}") from None
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {kind} schema_version {version} "
            f"(this build speaks version {SCHEMA_VERSION})"
        )
    return version


def _check_known_fields(data: Mapping[str, Any], known: Sequence[str], kind: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {kind} field(s) {sorted(unknown)} (known fields: {', '.join(known)})"
        )


def _spec_mapping(value: Any, label: str) -> Dict[str, float]:
    if not isinstance(value, Mapping):
        raise ValueError(f"{label} must be an object of {{spec name: value}} pairs")
    try:
        return {str(name): float(entry) for name, entry in value.items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label} has a non-numeric specification value: {exc}") from exc


def target_error(target_specs: Mapping[str, float]) -> Optional[str]:
    """Why a request's targets cannot be served (None when they can).

    A NaN or infinite target gives NaN spec features to every step's
    observation, so its episode would run its whole step budget on a
    meaningless policy input; the serve front doors answer it with a
    ``bad_request`` error instead of deploying it.
    """
    bad = sorted(name for name, value in target_specs.items() if not math.isfinite(value))
    if bad:
        return f"target_specs has non-finite values for {bad}"
    return None


@dataclass
class ServeRequest:
    """One sizing request: a specification group plus routing and budgets.

    ``env_id`` picks the topology (defaults to the service's default
    environment — usually the one recorded in the checkpoint); ``max_steps``
    overrides the episode step budget.  ``deadline_ms`` is the request's
    batching budget: a gateway may hold the request back, coalescing it with
    others for the same ``(env_id, max_steps)`` group, for at most this long.
    ``request_id`` is echoed verbatim on the response so callers can
    correlate over unordered transports.
    """

    target_specs: Dict[str, float]
    env_id: Optional[str] = None
    max_steps: Optional[int] = None
    deadline_ms: Optional[float] = None
    request_id: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self.schema_version = _check_schema_version(self.schema_version, "request")
        if not self.target_specs:
            raise ValueError("ServeRequest needs a non-empty target_specs mapping")
        self.target_specs = _spec_mapping(self.target_specs, "target_specs")
        if self.max_steps is not None:
            self.max_steps = int(self.max_steps)
            if self.max_steps <= 0:
                raise ValueError("max_steps must be positive")
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
            if self.deadline_ms < 0:
                raise ValueError("deadline_ms must be >= 0")
        if self.request_id is not None:
            self.request_id = str(self.request_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; optional fields are omitted when unset."""
        document: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "target_specs": dict(self.target_specs),
        }
        for name in ("env_id", "max_steps", "deadline_ms", "request_id"):
            value = getattr(self, name)
            if value is not None:
                document[name] = value
        return document

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeRequest":
        if not isinstance(data, Mapping):
            raise ValueError(f"a serve request must be an object, got {type(data).__name__}")
        _check_known_fields(data, _REQUEST_FIELDS, "request")
        if "target_specs" not in data:
            raise ValueError("a serve request needs a 'target_specs' object")
        return cls(
            target_specs=_spec_mapping(data["target_specs"], "target_specs"),
            env_id=data.get("env_id"),
            max_steps=data.get("max_steps"),
            deadline_ms=data.get("deadline_ms"),
            request_id=data.get("request_id"),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "ServeRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request line is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class ServeError:
    """A structured failure attached to a :class:`ServeResponse`.

    ``code`` is machine-readable: ``bad_request`` (unparseable input, or
    targets that cannot be served: :func:`target_error`),
    ``unroutable`` (no policy registered for the requested environment),
    ``checkpoint_error`` (a lazily loaded checkpoint failed or mismatched),
    ``timeout`` (the request's hard budget expired before execution),
    ``shutdown`` (the gateway closed without draining), ``internal``
    (an unexpected exception — the worker survives, the request does not).
    """

    code: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeError":
        if not isinstance(data, Mapping):
            raise ValueError("a response 'error' must be an object")
        _check_known_fields(data, _ERROR_FIELDS, "error")
        return cls(code=str(data["code"]), message=str(data["message"]))


@dataclass
class ServeResponse:
    """The designed circuit for one request — or a structured error.

    ``met`` maps each targeted specification to whether the final design
    satisfies it (``success`` is their conjunction); ``timing`` carries
    ``queue_ms`` / ``serve_ms`` / ``total_ms`` where the serving path can
    attribute them; ``tier`` carries the simulation-tier deltas
    (``surrogate_hits`` etc.) of the batch that answered this request.
    ``result`` keeps the full in-process :class:`DeploymentResult`
    (trajectory included) and never crosses the wire.
    """

    env_id: str
    target_specs: Dict[str, float]
    success: bool
    steps: int
    final_specs: Dict[str, float]
    final_parameters: Dict[str, float]
    met: Dict[str, bool] = field(default_factory=dict)
    index: int = 0
    request_id: Optional[str] = None
    error: Optional[ServeError] = None
    timing: Dict[str, float] = field(default_factory=dict)
    tier: Dict[str, int] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    result: Optional["DeploymentResult"] = None

    def __post_init__(self) -> None:
        self.schema_version = _check_schema_version(self.schema_version, "response")

    @property
    def ok(self) -> bool:
        """True when the request was actually served (no structured error)."""
        return self.error is None

    @classmethod
    def failure(
        cls,
        request: Optional[ServeRequest],
        code: str,
        message: str,
        env_id: str = "",
    ) -> "ServeResponse":
        """Build the structured error response for a failed request."""
        return cls(
            env_id=env_id or (request.env_id if request is not None else None) or "",
            target_specs=dict(request.target_specs) if request is not None else {},
            success=False,
            steps=0,
            final_specs={},
            final_parameters={},
            request_id=request.request_id if request is not None else None,
            error=ServeError(code=code, message=message),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (``result`` is in-process only and dropped)."""
        document: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "index": self.index,
            "env_id": self.env_id,
            "target_specs": dict(self.target_specs),
            "success": self.success,
            "met": dict(self.met),
            "steps": self.steps,
            "final_specs": dict(self.final_specs),
            "final_parameters": dict(self.final_parameters),
            "timing": dict(self.timing),
            "tier": dict(self.tier),
        }
        if self.request_id is not None:
            document["request_id"] = self.request_id
        if self.error is not None:
            document["error"] = self.error.to_dict()
        return document

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeResponse":
        if not isinstance(data, Mapping):
            raise ValueError(f"a serve response must be an object, got {type(data).__name__}")
        _check_known_fields(data, _RESPONSE_FIELDS, "response")
        error = data.get("error")
        return cls(
            env_id=str(data.get("env_id", "")),
            target_specs=_spec_mapping(data.get("target_specs", {}), "target_specs")
            if data.get("target_specs")
            else {},
            success=bool(data.get("success", False)),
            steps=int(data.get("steps", 0)),
            final_specs=_spec_mapping(data.get("final_specs", {}), "final_specs")
            if data.get("final_specs")
            else {},
            final_parameters=_spec_mapping(
                data.get("final_parameters", {}), "final_parameters"
            )
            if data.get("final_parameters")
            else {},
            met={str(k): bool(v) for k, v in dict(data.get("met", {})).items()},
            index=int(data.get("index", 0)),
            request_id=data.get("request_id"),
            error=ServeError.from_dict(error) if error is not None else None,
            timing={str(k): float(v) for k, v in dict(data.get("timing", {})).items()},
            tier={str(k): int(v) for k, v in dict(data.get("tier", {})).items()},
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "ServeResponse":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"response line is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Request documents (the deploy/serve CLI input files)
# ----------------------------------------------------------------------
_DOCUMENT_FIELDS = ("schema_version", "requests", "env_id", "max_steps")


def parse_requests_document(document: Any) -> List[ServeRequest]:
    """Parse a v1 request document.

    The document is an object with a ``requests`` list (each entry a
    :class:`ServeRequest` document) plus optional document-wide ``env_id`` /
    ``max_steps`` defaults and a ``schema_version``.  Anything else —
    including the pre-gateway ``specs.json`` shapes (a ``targets`` object or
    a bare list of spec mappings) — raises a :class:`ValueError` naming the
    v1 shape.
    """
    if not isinstance(document, Mapping) or "requests" not in document:
        raise ValueError(
            "a request document must be an object with a 'requests' list: "
            '{"schema_version": 1, "requests": [{"target_specs": {...}}, ...]}'
        )
    _check_known_fields(document, _DOCUMENT_FIELDS, "request document")
    if "schema_version" in document:
        _check_schema_version(document["schema_version"], "request document")
    requests = document["requests"]
    if not isinstance(requests, Sequence) or isinstance(requests, (str, bytes)):
        raise ValueError("'requests' must be a list of request objects")
    if not requests:
        raise ValueError("the request document contains no requests")
    default_env = document.get("env_id")
    default_max_steps = document.get("max_steps")
    parsed: List[ServeRequest] = []
    for position, entry in enumerate(requests):
        try:
            request = ServeRequest.from_dict(entry)
        except ValueError as exc:
            raise ValueError(f"request #{position}: {exc}") from exc
        if request.env_id is None:
            request.env_id = default_env
        if request.max_steps is None and default_max_steps is not None:
            request.max_steps = int(default_max_steps)
        parsed.append(request)
    return parsed


def load_requests_document(path: Union[str, Path]) -> List[ServeRequest]:
    """Read and parse a v1 request-document JSON file."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return parse_requests_document(document)
