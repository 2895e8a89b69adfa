"""Benchmark harness for latsched: workloads, correctness oracles, tracing."""
