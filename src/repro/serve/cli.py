"""``python -m repro.run deploy`` / ``serve`` — the serving command line.

``deploy`` runs a finite request document to completion::

    python -m repro.run deploy ckpt/latest.npz requests.json
    python -m repro.run deploy ckpt/latest.npz requests.json --batch-size 16
    python -m repro.run deploy ckpt/latest.npz requests.json --output results.json

``serve`` keeps a :class:`~repro.serve.gateway.Gateway` running and speaks
the versioned wire protocol (:mod:`repro.serve.protocol`) over one of two
dependency-free transports::

    python -m repro.run serve ckpt/latest.npz --stdin     # NDJSON in/out
    python -m repro.run serve ckpt/latest.npz --port 8080 # stdlib HTTP

In ``--stdin`` mode every input line is one ``ServeRequest`` JSON object and
every output line one ``ServeResponse`` (responses print in submission
order; malformed lines get a structured ``bad_request`` response without
stopping the loop).  In HTTP mode ``POST /v1/serve`` takes a single request
object or a ``{"requests": [...]}`` document, ``GET /v1/stats`` returns the
gateway stats document, and ``GET /v1/healthz`` answers liveness probes.
Both transports drain cleanly on EOF / Ctrl-C: accepted requests are
answered before exit.

Request-document formats are documented in :mod:`repro.serve.protocol`.
Exit status: 0 when the transport shut down cleanly (designs that miss
their specs are results, not errors), 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import queue
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, Optional, Sequence, TextIO

from repro.agents.checkpoint import CheckpointError, load_checkpoint
from repro.serve.protocol import (
    SCHEMA_VERSION,
    ServeRequest,
    ServeResponse,
    load_requests_document,
    parse_requests_document,
)
from repro.serve.service import DeploymentService
from repro.utils import atomic_write_text


# ----------------------------------------------------------------------
# deploy
# ----------------------------------------------------------------------
def build_deploy_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run deploy",
        description="Deploy a checkpointed policy over a batch of specification targets.",
    )
    parser.add_argument("checkpoint", help="path to a policy checkpoint (.npz)")
    parser.add_argument("specs", help="path to the request-document JSON file")
    parser.add_argument("--batch-size", type=int, default=8, dest="batch_size",
                        help="episodes run lock-step per topology (default 8; "
                             "1 = sequential deployment)")
    parser.add_argument("--env", default=None,
                        help="environment ID override (default: the checkpoint's "
                             "recorded env id)")
    parser.add_argument("--max-steps", type=int, default=None, dest="max_steps",
                        help="episode step budget override for every target")
    parser.add_argument("--surrogate", default=None,
                        help="trained surrogate checkpoint (.npz from "
                             "'repro.run surrogate train'); trusted design steps "
                             "are answered by the learned tier")
    parser.add_argument("--surrogate-dir", default=None, dest="surrogate_dir",
                        help="persistent simulation-corpus directory shared with "
                             "the exact tier")
    parser.add_argument("--output", default=None,
                        help="write per-target results as JSON to this file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-target lines (summary still prints)")
    return parser


def main_deploy(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_deploy_parser()
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.max_steps is not None and args.max_steps < 1:
        print("error: --max-steps must be >= 1", file=sys.stderr)
        return 2
    try:
        requests = load_requests_document(args.specs)
        if args.max_steps is not None:
            for request in requests:
                request.max_steps = int(args.max_steps)
        service = DeploymentService.from_checkpoint(
            args.checkpoint,
            env_id=args.env,
            batch_size=args.batch_size,
            surrogate=args.surrogate,
            surrogate_dir=args.surrogate_dir,
        )
    except (OSError, ValueError, CheckpointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env_ids = ", ".join(service.env_ids)
    print(f"deploy: {len(requests)} targets -> {env_ids} (batch size {args.batch_size})")
    start = time.perf_counter()
    try:
        responses = service.serve(requests)
    except ValueError as exc:  # e.g. a target routed to an unregistered env id
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    if not args.quiet:
        for response in responses:
            status = "MET " if response.success else "miss"
            specs = ", ".join(
                f"{name}={value:.4g}" for name, value in response.target_specs.items()
            )
            print(f"[{response.index:>3d}] {status} in {response.steps:>3d} steps  ({specs})")

    stats = service.stats.snapshot()
    cache = service.cache_stats()
    print()
    print(
        f"served {stats.episodes} episodes in {elapsed:.2f}s "
        f"({stats.episodes / elapsed:.1f} episodes/s, "
        f"{stats.design_steps} design steps) | "
        f"accuracy {stats.accuracy:.2%}, mean steps "
        f"{stats.design_steps / stats.episodes:.1f} | "
        f"simulation cache hit rate {cache.hit_rate:.2%}"
    )
    if stats.surrogate_hits or stats.trust_rejections:
        print(
            f"surrogate tier: {stats.surrogate_hits} answered, "
            f"{stats.trust_rejections} trust-rejected, "
            f"{stats.exact_fallbacks} exact fallbacks"
        )

    if args.output is not None:
        document = {
            "checkpoint": args.checkpoint,
            "batch_size": args.batch_size,
            "accuracy": stats.accuracy,
            "mean_steps": stats.design_steps / stats.episodes,
            "wall_time_s": elapsed,
            "service": service.stats_dict(),
            "results": [response.to_dict() for response in responses],
        }
        atomic_write_text(args.output, json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run serve",
        description="Run the async serving gateway over a checkpoint "
                    "(NDJSON on stdin/stdout, or a stdlib HTTP endpoint).",
    )
    parser.add_argument("checkpoint", help="path to a policy checkpoint (.npz)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stdin", action="store_true",
                      help="NDJSON mode: one ServeRequest JSON object per input "
                           "line, one ServeResponse per output line")
    mode.add_argument("--port", type=int, default=None,
                      help="HTTP mode: listen on this port (0 picks a free one; "
                           "POST /v1/serve, GET /v1/stats, GET /v1/healthz)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind address (default 127.0.0.1)")
    parser.add_argument("--env", default=None,
                        help="environment ID override (default: the checkpoint's "
                             "recorded env id)")
    parser.add_argument("--batch-size", type=int, default=8, dest="batch_size",
                        help="maximum requests coalesced into one lock-step batch "
                             "(default 8)")
    parser.add_argument("--workers", type=int, default=2,
                        help="gateway worker threads; topologies shard over them "
                             "(default 2)")
    parser.add_argument("--max-batch-delay-ms", type=float, default=25.0,
                        dest="max_batch_delay_ms",
                        help="default coalescing budget for requests without their "
                             "own deadline_ms (default 25; 0 disables batching delay)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        dest="request_timeout",
                        help="hard per-request budget in seconds; expired requests "
                             "get a structured timeout error instead of running")
    parser.add_argument("--cache-responses", action="store_true", dest="cache_responses",
                        help="memoize completed responses and answer repeated "
                             "identical requests from the cache (deployment is "
                             "deterministic, so replays are exact)")
    parser.add_argument("--surrogate", default=None,
                        help="trained surrogate checkpoint for the learned "
                             "simulation tier")
    parser.add_argument("--surrogate-dir", default=None, dest="surrogate_dir",
                        help="persistent simulation-corpus directory")
    parser.add_argument("--shards", type=int, default=None,
                        help="process-shard mode: dispatch batches to this many "
                             "persistent worker processes (each holding its own "
                             "service; --surrogate-dir becomes their shared "
                             "on-disk corpus)")
    parser.add_argument("--stats-output", default=None, dest="stats_output",
                        help="write the final gateway stats document as JSON to "
                             "this file on shutdown")
    return parser


def _bad_request_response(message: str) -> ServeResponse:
    return ServeResponse.failure(None, "bad_request", message)


def _serve_stdin(gateway: Any, input_stream: TextIO, output_stream: TextIO) -> int:
    """NDJSON loop: submit as lines arrive, print in submission order.

    Submission (the reader) is decoupled from printing (a thread resolving
    futures in FIFO order), so consecutive lines actually coalesce into
    batches instead of being served one at a time.
    """
    results: "queue.Queue[Optional[Future]]" = queue.Queue()

    def printer() -> None:
        while True:
            future = results.get()
            if future is None:
                return
            response = future.result()
            print(response.to_json(), file=output_stream, flush=True)

    thread = threading.Thread(target=printer, name="gateway-stdout", daemon=True)
    thread.start()
    submitted = 0
    try:
        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            try:
                request = ServeRequest.from_json(line)
            except ValueError as exc:
                gateway.stats.record_error("bad_request")
                failed: Future = Future()
                failed.set_result(_bad_request_response(str(exc)))
                results.put(failed)
                continue
            results.put(gateway.submit(request))
            submitted += 1
    except KeyboardInterrupt:
        pass
    results.put(None)
    gateway.close(drain=True)
    thread.join()
    return submitted


def _build_http_server(host: str, port: int, gateway: Any):
    """The stdlib HTTP front end (no dependencies beyond http.server)."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class GatewayHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *_args: Any) -> None:  # keep stdout/stderr quiet
            pass

        def _send_json(self, status: int, document: Dict[str, Any]) -> None:
            payload = json.dumps(document, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send_error_json(self, status: int, code: str, message: str) -> None:
            gateway.stats.record_error(code)
            self._send_json(
                status,
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": {"code": code, "message": message},
                },
            )

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path == "/v1/stats":
                self._send_json(200, gateway.stats_dict())
            elif self.path == "/v1/healthz":
                self._send_json(200, {"ok": True, "schema_version": SCHEMA_VERSION})
            else:
                self._send_error_json(404, "bad_request", f"unknown path {self.path!r}")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path != "/v1/serve":
                self._send_error_json(404, "bad_request", f"unknown path {self.path!r}")
                return
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length)
            try:
                document = json.loads(body) if body else None
            except json.JSONDecodeError as exc:
                self._send_error_json(400, "bad_request", f"body is not valid JSON: {exc}")
                return
            try:
                if isinstance(document, dict) and "requests" in document:
                    requests = parse_requests_document(document)
                    responses = gateway.serve(requests)
                    self._send_json(
                        200,
                        {
                            "schema_version": SCHEMA_VERSION,
                            "responses": [response.to_dict() for response in responses],
                        },
                    )
                else:
                    request = ServeRequest.from_dict(document)
                    response = gateway.serve([request])[0]
                    self._send_json(200, response.to_dict())
            except (ValueError, TypeError) as exc:
                self._send_error_json(400, "bad_request", str(exc))

    class GatewayHTTPServer(ThreadingHTTPServer):
        daemon_threads = True

    return GatewayHTTPServer((host, port), GatewayHandler)


def main_serve(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2

    from repro.serve.gateway import Gateway, ProcessShardPool

    backend: Any = None
    try:
        if args.shards is not None:
            env_id = args.env or load_checkpoint(args.checkpoint).env_id
            if env_id is None:
                print(
                    "error: the checkpoint does not record an environment ID; "
                    "pass --env to route its requests",
                    file=sys.stderr,
                )
                return 2
            backend = ProcessShardPool(
                {env_id: args.checkpoint},
                shards=args.shards,
                batch_size=args.batch_size,
                cache_dir=args.surrogate_dir,
                surrogates={env_id: args.surrogate} if args.surrogate else None,
            )
        else:
            backend = DeploymentService.from_checkpoint(
                args.checkpoint,
                env_id=args.env,
                batch_size=args.batch_size,
                surrogate=args.surrogate,
                surrogate_dir=args.surrogate_dir,
            )
    except (OSError, ValueError, CheckpointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gateway = Gateway(
        backend,
        num_workers=args.workers,
        max_batch_delay_ms=args.max_batch_delay_ms,
        request_timeout_s=args.request_timeout,
        cache_responses=args.cache_responses,
    )
    mode = f"{args.shards} process shards" if args.shards else "in-process threads"
    env_ids = ", ".join(backend.env_ids)
    print(
        f"gateway: {env_ids} | batch size {args.batch_size}, {args.workers} workers "
        f"({mode}), {args.max_batch_delay_ms:g} ms batching budget",
        file=sys.stderr,
        flush=True,
    )

    try:
        if args.stdin:
            submitted = _serve_stdin(gateway, sys.stdin, sys.stdout)
            print(f"served {submitted} requests; draining done", file=sys.stderr)
        else:
            server = _build_http_server(args.host, args.port, gateway)
            host, port = server.server_address[:2]
            print(
                f"serving on http://{host}:{port} (schema v{SCHEMA_VERSION}); "
                "Ctrl-C drains and exits",
                file=sys.stderr,
                flush=True,
            )
            try:
                server.serve_forever(poll_interval=0.1)
            except KeyboardInterrupt:
                pass
            finally:
                server.server_close()
    finally:
        gateway.close(drain=True)
        if args.stats_output is not None:
            atomic_write_text(
                args.stats_output,
                json.dumps(gateway.stats_dict(), indent=2, sort_keys=True) + "\n",
            )
        if hasattr(backend, "close"):
            backend.close()
    return 0
