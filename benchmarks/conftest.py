"""Shared configuration for the paper-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one paper artifact (a Table 1/2 row or
a figure) and asserts its shape; none of them referees performance between
commits — that is ``bench/run.py``.  Two kinds of measurements coexist:

* ``pytest-benchmark`` fixtures time a single representative operation per
  class column (these show up in the ``--benchmark-only`` summary table);
* explicit parameter sweeps (via :mod:`repro.benchharness`) print the
  paper-shaped series — growth rates, crossovers, who-wins — directly to
  stdout, and assert the qualitative shape.

Run with::

    pytest benchmarks/ --benchmark-only -s

Setting ``REPRO_TRACE_OUT=trace.json`` installs a global
:class:`repro.telemetry.tracer.Tracer` for the whole benchmark session and
writes the collected spans as Chrome trace-event JSON (load it at
``chrome://tracing`` or with Perfetto) on teardown; CI's trace-smoke job
validates that file with ``scripts/validate_trace.py``.
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_artifact(name): the paper table/figure a benchmark reproduces"
    )


@pytest.fixture(scope="session", autouse=True)
def _trace_session():
    """Honour ``REPRO_TRACE_OUT``: trace every benchmark in the session."""
    path = os.environ.get("REPRO_TRACE_OUT")
    if not path:
        yield
        return
    from repro.telemetry.export import write_chrome_trace
    from repro.telemetry.tracer import Tracer, set_tracer

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield
    finally:
        set_tracer(previous)
        events = write_chrome_trace(tracer, path)
        print("\n[repro] wrote %d trace event(s) to %s" % (events, path))
