"""Prometheus exposition: rendering rules and the HTTP scrape endpoint."""

import asyncio

import pytest

from repro.service.metrics import _BUCKET_BOUNDS, ServiceMetrics
from repro.service.promhttp import MetricsServer, render_prometheus


@pytest.fixture
def metrics():
    m = ServiceMetrics()
    m.inc("requests_ok", 7)
    m.inc("batches")
    m.set_gauge("epoch", 3.0)
    m.observe("neighbors", 0.004)
    m.observe("neighbors", 0.012)
    m.observe("edge", 0.001)
    return m


class TestRender:
    def test_counters_and_gauges(self, metrics):
        text = render_prometheus(metrics)
        lines = text.splitlines()
        assert "repro_requests_ok_total 7" in lines
        assert "repro_batches_total 1" in lines
        assert "repro_epoch 3" in lines
        assert text.endswith("\n")

    def test_histogram_is_cumulative_with_inf_sum_count(self, metrics):
        text = render_prometheus(metrics)
        lines = text.splitlines()
        assert "# TYPE repro_request_latency_seconds histogram" in lines
        assert (
            'repro_request_latency_seconds_bucket{op="neighbors",le="+Inf"} 2'
            in lines
        )
        assert 'repro_request_latency_seconds_count{op="neighbors"} 2' in lines
        assert 'repro_request_latency_seconds_count{op="edge"} 1' in lines
        # Bucket counts never decrease as le grows (cumulative form).
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith(
                'repro_request_latency_seconds_bucket{op="neighbors"'
            )
        ]
        assert len(buckets) == len(_BUCKET_BOUNDS) + 1
        assert buckets == sorted(buckets)
        assert buckets[-1] == 2

    def test_namespace_and_name_sanitising(self):
        m = ServiceMetrics()
        m.inc("op_shard_query")
        text = render_prometheus(m, namespace="acme")
        assert "acme_op_shard_query_total 1" in text


async def _http_get(host, port, target, method="GET"):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {target} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n")[0].decode()
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.decode().partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body.decode()


class TestMetricsServer:
    def test_scrape_healthz_404_and_405(self, metrics):
        async def go():
            async with MetricsServer(metrics) as server:
                host, port = server.address
                status, headers, body = await _http_get(
                    host, port, "/metrics"
                )
                assert status == "HTTP/1.0 200 OK"
                assert headers["content-type"].startswith(
                    "text/plain; version=0.0.4"
                )
                assert int(headers["content-length"]) == len(
                    body.encode()
                )
                assert body == render_prometheus(metrics)
                assert "repro_requests_ok_total 7" in body

                status, _, body = await _http_get(host, port, "/healthz")
                assert status == "HTTP/1.0 200 OK"
                assert body == "ok\n"

                status, _, _ = await _http_get(host, port, "/nope")
                assert status == "HTTP/1.0 404 Not Found"

                status, _, _ = await _http_get(
                    host, port, "/metrics", method="POST"
                )
                assert status == "HTTP/1.0 405 Method Not Allowed"

        asyncio.run(go())

    def test_head_returns_headers_without_body(self, metrics):
        async def go():
            async with MetricsServer(metrics) as server:
                host, port = server.address
                status, headers, body = await _http_get(
                    host, port, "/metrics", method="HEAD"
                )
                assert status == "HTTP/1.0 200 OK"
                assert int(headers["content-length"]) > 0
                assert body == ""

        asyncio.run(go())

    def test_live_scrape_reflects_metric_changes(self):
        m = ServiceMetrics()

        async def go():
            async with MetricsServer(m) as server:
                host, port = server.address
                _, _, before = await _http_get(host, port, "/metrics")
                assert "repro_failovers_total" not in before
                m.inc("failovers")
                _, _, after = await _http_get(host, port, "/metrics")
                assert "repro_failovers_total 1" in after

        asyncio.run(go())
