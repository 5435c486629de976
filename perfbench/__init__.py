"""Benchmark of the pathlingam command line: workloads, checks, tracing."""
