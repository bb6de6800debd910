"""A small blocking client for the query service (stdlib ``http.client``).

Mirrors the server's endpoints one method each; payload/response shapes
are documented on :class:`repro.service.server.QueryService`.  Errors
reported by the server raise :class:`~repro.errors.ServiceError` with
the server's message and HTTP status.

>>> client = ServiceClient("127.0.0.1", 8080)   # doctest: +SKIP
>>> reply = client.run(str(smugglers_system()), bindings=["C", "A"])
>>> stats = ExecutionStats.from_dict(reply["stats"])
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional, Sequence, Union

from ..errors import ServiceError

__all__ = ["ServiceClient"]


class ServiceClient:
    """One service endpoint per method; connections are per-request."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, method: str, path: str, payload: Optional[dict]) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = (
                json.dumps(payload).encode("utf-8")
                if payload is not None
                else None
            )
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8"))
            if response.status != 200:
                raise ServiceError(
                    data.get("error", f"HTTP {response.status}"),
                    status=response.status,
                )
            return data
        finally:
            conn.close()

    def _post(self, path: str, payload: dict) -> dict:
        return self._request("POST", path, payload)

    # -- endpoints -------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health", None)

    def stats(self) -> dict:
        return self._request("GET", "/stats", None)

    def _query_payload(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None],
        **options: Any,
    ) -> dict:
        payload = {"system": system}
        if bindings is not None:
            payload["bindings"] = (
                list(bindings)
                if not isinstance(bindings, dict)
                else bindings
            )
        payload.update(
            {k: v for k, v in options.items() if v is not None}
        )
        return payload

    def run(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None] = None,
        **options: Any,
    ) -> dict:
        """Execute constraint text; options are the uniform Session
        keywords (``mode=``, ``join_strategy=``, ``shards=``,
        ``parallel=``, ``limit=``) plus ``order``/``knn``/``aggregate``
        payloads."""
        return self._post(
            "/run", self._query_payload(system, bindings, **options)
        )

    def explain(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None] = None,
        analyze: bool = False,
        **options: Any,
    ) -> dict:
        return self._post(
            "/explain",
            self._query_payload(
                system, bindings, analyze=analyze or None, **options
            ),
        )

    def bench(
        self,
        system: str,
        bindings: Union[Sequence[str], Dict, None] = None,
        **options: Any,
    ) -> dict:
        return self._post(
            "/bench", self._query_payload(system, bindings, **options)
        )

    def nearest(
        self,
        table: str,
        k: int = 1,
        point: Optional[Sequence[float]] = None,
        box: Any = None,
        access: str = "auto",
    ) -> dict:
        payload: dict = {"table": table, "k": k, "access": access}
        if point is not None:
            payload["point"] = list(point)
        if box is not None:
            payload["box"] = box
        return self._post("/nearest", payload)

    def insert(self, table: str, rows: Sequence[dict]) -> dict:
        """Append rows (``{"oid": ..., "boxes": [[lo, hi], ...]}``);
        returns the post-swap snapshot version."""
        return self._post("/insert", {"table": table, "rows": list(rows)})

    def delete(self, table: str, oids: Sequence[Any]) -> dict:
        """Delete rows by oid (idempotent — non-live oids are counted
        as ``missing``); returns the post-swap snapshot version."""
        return self._post("/delete", {"table": table, "oids": list(oids)})
