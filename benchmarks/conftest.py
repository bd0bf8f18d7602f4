"""Shared fixtures for the benchmark/experiment harness.

Each benchmark regenerates one paper artifact (table/figure) or validates
one discussion claim, writes the regenerated artifact to
``benchmarks/output/`` and asserts the *shape* of the result (who wins, by
roughly what factor) rather than absolute numbers — see EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def write_artifact(artifact_dir):
    from repro.ioutil import atomic_write_text

    def _write(name: str, text: str) -> None:
        atomic_write_text(artifact_dir / name, text)

    return _write


@pytest.fixture(scope="session")
def reference_dc():
    """One shared 1-day reference simulation used by several benches."""
    from repro.oda import DataCenter

    dc = DataCenter(seed=101, racks=2, nodes_per_rack=8, enable_faults=True,
                    noisy_node_fraction=0.125)
    dc.generate_workload(days=2.0, jobs_per_day=24)
    dc.run(days=2.0)
    return dc
