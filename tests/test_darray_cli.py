"""CLI tests for --engine darray / --transport on components and histogram."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.images import binary_test_image
from repro.images.io import write_pgm


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "img.pgm"
    write_pgm(path, binary_test_image(4, 64))
    return str(path)


class TestComponentsDarray:
    @pytest.mark.parametrize("transport", ["local", "shmem", "mmap"])
    def test_transport_matrix(self, capsys, pgm_path, transport):
        out = run_cli(
            capsys, "components", pgm_path, "-p", "4",
            "--engine", "darray", "--transport", transport,
        )
        assert f"darray/{transport}: 64x64" in out
        assert "components (8-connectivity, binary)" in out
        assert "darray stats:" in out

    def test_matches_sim_engine_count(self, capsys, pgm_path):
        sim = run_cli(capsys, "components", pgm_path, "-p", "4")
        dar = run_cli(
            capsys, "components", pgm_path, "-p", "4", "--engine", "darray"
        )
        n_sim = next(l for l in sim.splitlines() if "components (" in l).split()[0]
        n_dar = next(l for l in dar.splitlines() if "components (" in l).split()[0]
        assert n_sim == n_dar

    def test_mmap_reports_bounded_residency(self, capsys, pgm_path):
        out = run_cli(
            capsys, "components", pgm_path, "-p", "16",
            "--engine", "darray", "--transport", "mmap", "--resident-tiles", "2",
        )
        stats = next(l for l in out.splitlines() if l.startswith("darray stats:"))
        highwater = int(stats.rsplit("resident highwater ", 1)[1])
        assert 0 < highwater <= 2

    def test_spill_dir_option(self, capsys, tmp_path, pgm_path):
        spill = tmp_path / "spill"
        run_cli(
            capsys, "components", pgm_path, "-p", "4",
            "--engine", "darray", "--transport", "mmap",
            "--spill-dir", str(spill),
        )
        assert (spill / "labels.bin").exists()

    def test_pattern_input(self, capsys):
        out = run_cli(
            capsys, "components", "--pattern", "4", "--size", "64", "-p", "4",
            "--engine", "darray", "--transport", "mmap",
        )
        assert "darray/mmap: 64x64" in out

    def test_output_written(self, capsys, tmp_path, pgm_path):
        out_path = tmp_path / "labels.pgm"
        out = run_cli(
            capsys, "components", pgm_path, "-p", "4",
            "--engine", "darray", "-o", str(out_path),
        )
        assert "label map written" in out
        assert out_path.exists()

    def test_runtime_flag_still_works(self, capsys, pgm_path):
        # the legacy flag now names darray over shmem
        out = run_cli(capsys, "components", pgm_path, "-p", "4", "--runtime")
        assert "darray/shmem: 64x64" in out

    def test_trace_export(self, capsys, tmp_path, pgm_path):
        trace = tmp_path / "trace.json"
        run_cli(
            capsys, "components", pgm_path, "-p", "4",
            "--engine", "darray", "--trace-out", str(trace),
        )
        data = json.loads(trace.read_text())
        names = {ev.get("name") for ev in data["traceEvents"]}
        assert "darray:label" in names

    def test_shmem_fault_plan(self, capsys, tmp_path, pgm_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "schema": "repro-faults/v1",
            "seed": 0,
            "faults": [{
                "site": "darray:border", "kind": "corrupt",
                "round": 0, "group": 0, "times": 1,
            }],
        }))
        out = run_cli(
            capsys, "components", pgm_path, "-p", "4",
            "--engine", "darray", "--transport", "shmem",
            "--fault-plan", str(plan),
        )
        assert "fault events:" in out


class TestHistogramDarray:
    @pytest.mark.parametrize("transport", ["local", "mmap"])
    def test_transport_matrix(self, capsys, pgm_path, transport):
        out = run_cli(
            capsys, "histogram", pgm_path, "-p", "4", "-k", "2",
            "--engine", "darray", "--transport", transport,
        )
        assert f"histogram k=2 via darray/{transport}" in out
        assert "occupied levels: 2/2" in out

    def test_matches_sim_engine(self, capsys, pgm_path):
        sim = run_cli(capsys, "histogram", pgm_path, "-p", "4", "-k", "2")
        dar = run_cli(
            capsys, "histogram", pgm_path, "-p", "4", "-k", "2",
            "--engine", "darray",
        )
        def levels(out):
            return sorted(l.strip() for l in out.splitlines() if l.startswith("  level"))
        assert levels(sim) == levels(dar)
