"""Prometheus text-format exposition for :class:`ServiceMetrics`.

Two pieces, both dependency-free:

* :func:`render_prometheus` — turn a :class:`~repro.service.metrics.
  ServiceMetrics` into the Prometheus text exposition format (version
  0.0.4).  Counters become ``<ns>_<name>_total``, gauges become
  ``<ns>_<name>``, and the per-operation latency histograms become one
  cumulative ``<ns>_request_latency_seconds`` histogram family with an
  ``op`` label — the native shape for ``histogram_quantile()``.

* :class:`MetricsServer` — a tiny asyncio HTTP/1.0 endpoint serving
  ``GET /metrics`` (and a ``GET /healthz`` liveness probe).  It speaks
  just enough HTTP for a Prometheus scraper or ``curl``: one request per
  connection, ``Connection: close``.  Full HTTP frameworks are exactly
  the dependency this repo avoids.
"""

from __future__ import annotations

import asyncio
import logging
import re
from typing import List, Optional, Tuple

from repro.service.metrics import _BUCKET_BOUNDS, ServiceMetrics

logger = logging.getLogger(__name__)

#: Characters legal in a Prometheus metric name.
_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")


def _fmt(value: float) -> str:
    """Render a sample value: integers bare, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _name(namespace: str, raw: str) -> str:
    return f"{namespace}_{_NAME_SANITISE.sub('_', raw)}"


def render_prometheus(
    metrics: ServiceMetrics, namespace: str = "repro"
) -> str:
    """Render ``metrics`` in the Prometheus text exposition format."""
    lines: List[str] = []

    counters = sorted(metrics.counters.items())
    for raw, value in counters:
        name = _name(namespace, raw) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(float(value))}")

    for raw, value in sorted(metrics.gauges.items()):
        name = _name(namespace, raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(value)}")

    if metrics.latency:
        name = f"{namespace}_request_latency_seconds"
        lines.append(f"# TYPE {name} histogram")
        for op, hist in sorted(metrics.latency.items()):
            cumulative = 0
            for bound, count in zip(_BUCKET_BOUNDS, hist.counts):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{op="{op}",le="{_fmt(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{name}_bucket{{op="{op}",le="+Inf"}} {hist.count}'
            )
            lines.append(f'{name}_sum{{op="{op}"}} {repr(hist.total)}')
            lines.append(f'{name}_count{{op="{op}"}} {hist.count}')

    return "\n".join(lines) + "\n"


_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Minimal asyncio HTTP endpoint: ``GET /metrics`` + ``GET /healthz``."""

    def __init__(
        self,
        metrics: ServiceMetrics,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        namespace: str = "repro",
    ) -> None:
        self.metrics = metrics
        self.host = host
        self.port = port
        self.namespace = namespace
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("metrics server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        host, port = self.address
        logger.info("metrics endpoint on http://%s:%d/metrics", host, port)
        return host, port

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "MetricsServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), 10.0)
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            target = parts[1] if len(parts) > 1 else ""
            # Drain (and ignore) the header block.
            while True:
                line = await asyncio.wait_for(reader.readline(), 10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if method not in ("GET", "HEAD"):
                status, body = "405 Method Not Allowed", "method not allowed\n"
                content_type = "text/plain; charset=utf-8"
            elif target.split("?", 1)[0] == "/metrics":
                status = "200 OK"
                body = render_prometheus(self.metrics, self.namespace)
                content_type = _CONTENT_TYPE
            elif target.split("?", 1)[0] == "/healthz":
                status, body = "200 OK", "ok\n"
                content_type = "text/plain; charset=utf-8"
            else:
                status, body = "404 Not Found", "not found\n"
                content_type = "text/plain; charset=utf-8"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            if method != "HEAD":
                writer.write(payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


__all__ = ["MetricsServer", "render_prometheus"]
