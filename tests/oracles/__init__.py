"""Reference implementations kept as test oracles.

Production modules carry one implementation per algorithm; the slower,
more literal versions they replaced live here so parity tests and the
benchmarks can check the fast path against them.
"""
