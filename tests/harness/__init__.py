"""Test-side oracles and instance generators.

Code that only tests call lives here, not in ``repro``: reference checks
written straight from a definition (:mod:`tests.harness.oracles`) and
seeded or hand-built instances (:mod:`tests.harness.generators`).  Tests
import them as ``from tests.harness.oracles import …``.
"""
