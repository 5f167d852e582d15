"""The planning service with every layer wrapped, for service-mix traces.

Usage: ``python3 perfbench/serve_traced.py SPANS.json`` — serves exactly
like ``python -m repro serve --port 0`` (same warm start, same
"listening on" line) and, when stopped with SIGTERM or SIGINT, shuts the
server down as Ctrl-C would and writes its spans to ``SPANS.json``. Each request becomes one ``service.handler`` root span
from the end of header parsing to the end of the response; its op id is
the client's span id from the ``X-Perfbench-Op`` header, which is how
the client nests server work under its own request spans.
"""

import signal
import sys
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import layers
from common import prepare_program
from service_mix import OP_HEADER
from spans import Recorder, write_spans


def _wrap_handler(rec: Recorder) -> None:
    """Open a root span per request on the server's handler threads."""
    parse_request = BaseHTTPRequestHandler.parse_request
    handle_one_request = BaseHTTPRequestHandler.handle_one_request

    def traced_parse_request(self):
        ok = parse_request(self)
        if ok and rec.enabled:
            rec.force_op(int(self.headers.get(OP_HEADER) or 0))
            self._perfbench_span = rec.begin("service.handler")
        return ok

    def traced_handle_one_request(self):
        try:
            handle_one_request(self)
        finally:
            token = self.__dict__.pop("_perfbench_span", None)
            if token is not None:
                rec.end(token)

    BaseHTTPRequestHandler.parse_request = traced_parse_request
    BaseHTTPRequestHandler.handle_one_request = traced_handle_one_request


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    out = Path(argv[0])
    # Both signals end serve_forever the way Ctrl-C does, even when the
    # parent was started with SIGINT ignored.
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    prepare_program()
    rec = Recorder(own_ops=False)
    counts = layers.Counts()
    layers.install(rec, counts)
    _wrap_handler(rec)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", "--port", "0"])
    finally:
        meta = {"counts": dict(counts.values), "route_miss_ids": sorted(counts.route_miss_ids)}
        write_spans(out, list(rec.spans), meta)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
