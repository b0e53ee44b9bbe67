"""Client for the JSON-lines TCP simulation service.

:class:`ServiceClient` keeps one connection and pipelines: every
message carries a client-side ``id``, a background reader task routes
the (possibly out-of-order) responses back to their waiters, so many
requests can be in flight on a single connection.

.. code-block:: python

    client = await ServiceClient.connect("127.0.0.1", 8642)
    response = await client.submit(SimRequest("C", "557.xz"))
    snapshot = await client.metrics()
    await client.close()

**Reconnect hardening**: a connection that dies mid-exchange (peer
reset, EOF, a service restarting under load) is transparently
re-opened **once** and the affected message resent — for idempotent
verbs only.  Every verb but ``drain`` qualifies: simulations are pure
functions of the canonical request (resending one can at worst hit
the service's cache or in-flight dedup), and metrics/trace/ping/health
are reads.  A resend that fails again, or a verb marked
non-idempotent, surfaces the original ``ConnectionError`` to the
caller.

For scripts that don't want an event loop,
:func:`request_simulations` wraps connect/submit-all/close in one
synchronous call.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Dict, List, Optional, Sequence, Union

from repro.service.request import SimRequest, SimResponse


class ServiceClient:
    """One pipelined connection to a running simulation service.

    Build instances with :meth:`connect`; the constructor only wires
    already-opened streams (and without the *host*/*port* used to open
    them, the reconnect path stays disabled).
    """

    def __init__(self, reader: "asyncio.StreamReader",
                 writer: "asyncio.StreamWriter",
                 host: Optional[str] = None,
                 port: Optional[int] = None) -> None:
        """Wrap an open (reader, writer) stream pair."""
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._generation = 0
        self._reconnect_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 8642) -> "ServiceClient":
        """Open a connection to the service at *host*:*port*."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port)

    async def _read_loop(self) -> None:
        """Route incoming lines to their waiting request futures."""
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except (ConnectionError, OSError):
                    break  # reset mid-read: same as EOF for the waiters
                if not line:
                    break
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("service connection closed"))
            self._pending.clear()

    async def _roundtrip_once(self, message: dict) -> dict:
        """Send one message and await its id-matched reply."""
        if self._reader_task.done():
            # The peer closed on us with a clean EOF: the transport
            # raises nothing on write, so without this check the
            # message would go into the void and wait forever.
            raise ConnectionError("service connection closed")
        msg_id = next(self._ids)
        message["id"] = msg_id
        future: "asyncio.Future[dict]" = \
            asyncio.get_running_loop().create_future()
        self._pending[msg_id] = future
        try:
            self._writer.write(json.dumps(message).encode("utf-8") + b"\n")
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(msg_id, None)
            raise
        return await future

    async def _roundtrip(self, message: dict,
                         idempotent: bool = True) -> dict:
        """One exchange, with a single transparent reconnect+resend.

        The resend happens only for *idempotent* messages on clients
        that know their endpoint (built via :meth:`connect`); anything
        else propagates the original connection error.
        """
        generation = self._generation
        try:
            return await self._roundtrip_once(dict(message))
        except (ConnectionError, OSError):
            if not idempotent or self._host is None or self._closed:
                raise
            await self._reconnect(generation)
            return await self._roundtrip_once(dict(message))

    async def _reconnect(self, seen_generation: int) -> None:
        """Replace the dead connection; serialized and deduplicated.

        Concurrent in-flight messages all fail together when a
        connection dies — the first one through the lock reconnects,
        the rest observe the bumped generation and just resend on the
        new streams.  The generation bumps only on success, so a
        failed reconnect (service really gone) lets the next waiter try
        again — and fail fast with the real connection error.
        """
        assert self._host is not None and self._port is not None
        async with self._reconnect_lock:
            if self._generation != seen_generation or self._closed:
                return  # already reconnected (or shut down) behind us
            # Tear the old connection fully down first: the old read
            # loop must fail its pending futures and stop before the
            # new loop starts, or the two would race on _pending.
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            try:
                self._writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
            reader, writer = await asyncio.open_connection(
                self._host, self._port)
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop())
            self._generation += 1

    async def submit(self, request: Union[SimRequest, dict]) -> SimResponse:
        """Submit one request and await its response.

        Idempotent by construction — a simulation is a pure function
        of its canonical request — so it rides the reconnect path.
        """
        if isinstance(request, dict):
            request = SimRequest.from_dict(request)
        reply = await self._roundtrip(
            {"op": "submit", "request": request.to_dict()})
        if reply.get("op") == "error":
            raise ValueError(reply.get("error", "protocol error"))
        return SimResponse.from_dict(reply)

    async def submit_many(self, requests: Sequence[Union[SimRequest, dict]]
                          ) -> List[SimResponse]:
        """Pipeline *requests* concurrently; responses in request order."""
        return list(await asyncio.gather(
            *(self.submit(request) for request in requests)))

    async def metrics(self) -> dict:
        """Fetch the service's metrics snapshot."""
        reply = await self._roundtrip({"op": "metrics"})
        return reply.get("metrics", {})

    async def metrics_text(self) -> str:
        """Fetch the service's metrics in Prometheus text format."""
        reply = await self._roundtrip({"op": "metrics",
                                       "format": "prometheus"})
        return reply.get("text", "")

    async def trace(self) -> dict:
        """Fetch the service-side tracer's recorded events.

        Returns ``{"enabled", "events", "proc", "origin_unix_s",
        "flight"}`` — ``origin_unix_s`` is the wall-clock time the
        events' timestamps count from, and ``flight`` is the service's
        flight-recorder exemplars.  Events are empty when the service
        runs with tracing off.
        """
        reply = await self._roundtrip({"op": "trace"})
        return {"enabled": reply.get("enabled", False),
                "events": reply.get("events", []),
                "proc": reply.get("proc"),
                "origin_unix_s": reply.get("origin_unix_s"),
                "flight": reply.get("flight")}

    async def ping(self) -> dict:
        """Liveness probe; returns the pong message (with version)."""
        return await self._roundtrip({"op": "ping"})

    async def health(self) -> dict:
        """The service's health verb: admission state, queue depth,
        in-flight count — the cheap signals a supervisor polls."""
        return await self._roundtrip({"op": "health"})

    async def drain(self) -> dict:
        """Ask the service to drain: stop admitting, finish accepted
        work, shut the worker tier down.  Returns when the drain
        completed.  **Not idempotent-retried**: a resent drain against
        a restarted service would stop the replacement too.
        """
        return await self._roundtrip({"op": "drain"}, idempotent=False)

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._closed = True
        try:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        finally:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass


def request_simulations(requests: Sequence[Union[SimRequest, dict]],
                        host: str = "127.0.0.1", port: int = 8642,
                        timeout_s: Optional[float] = None
                        ) -> List[SimResponse]:
    """Synchronous convenience: connect, pipeline *requests*, close.

    Args:
        requests: the requests (SimRequest objects or wire dicts).
        host: service host.
        port: service port.
        timeout_s: overall bound on the whole exchange.

    Returns:
        Responses in request order.
    """
    async def _run() -> List[SimResponse]:
        client = await ServiceClient.connect(host, port)
        try:
            work = client.submit_many(requests)
            if timeout_s is not None:
                return await asyncio.wait_for(work, timeout_s)
            return await work
        finally:
            await client.close()

    return asyncio.run(_run())
