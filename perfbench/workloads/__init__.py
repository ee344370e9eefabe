"""The benchmark's workloads, by the names used in BENCHMARK.json."""

from . import certify, cli_cold, paths, surfaces

WORKLOADS = {
    "paths": paths,
    "surfaces": surfaces,
    "certify": certify,
    "cli-cold": cli_cold,
}
