"""Tests for the top-level ``python -m repro`` partitioning CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main, write_assignments, write_partition_files
from repro.graph.generators import holme_kim
from repro.graph.io import read_edge_list, write_edge_list
from repro.partitioning.assignment import EdgePartition


@pytest.fixture
def edge_file(tmp_path):
    graph = holme_kim(120, 3, 0.5, seed=4)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


class TestMain:
    def test_basic_run(self, edge_file, capsys):
        path, _ = edge_file
        assert main([str(path), "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "replication factor" in out

    def test_detail_flag(self, edge_file, capsys):
        path, _ = edge_file
        assert main([str(path), "-p", "4", "--detail"]) == 0
        assert "modularity" in capsys.readouterr().out

    def test_algorithm_selection(self, edge_file, capsys):
        path, _ = edge_file
        assert main([str(path), "-p", "4", "--algorithm", "DBH"]) == 0
        assert "DBH" in capsys.readouterr().out

    def test_parameterised_algorithm(self, edge_file):
        path, _ = edge_file
        assert main([str(path), "-p", "4", "--algorithm", "TLP_R:0.3"]) == 0

    def test_window_below_capacity_is_an_error_line(self, edge_file, capsys):
        path, graph = edge_file
        capacity = -(-graph.num_edges // 3)
        assert main([str(path), "-p", "3", "--algorithm", "TLP-W:50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: cannot partition {path}: window_size=50 is smaller than "
            f"the partition capacity C={capacity}"
        )
        assert "Traceback" not in err

    def test_unknown_algorithm_fails(self, edge_file, capsys):
        path, _ = edge_file
        assert main([str(path), "-p", "4", "--algorithm", "Nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_algorithm_is_named_before_the_input_is_read(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nothing.txt"
        assert main([str(missing), "-p", "2", "--algorithm", "Nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown partitioner" in err
        assert "cannot read" not in err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "nothing.txt"), "-p", "2"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_p_fails(self, edge_file, capsys):
        path, _ = edge_file
        assert main([str(path), "-p", "0"]) == 2

    def test_assignments_output(self, edge_file, tmp_path):
        path, graph = edge_file
        out = tmp_path / "assign.tsv"
        assert main([str(path), "-p", "4", "--assignments", str(out)]) == 0
        lines = [
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ]
        assert len(lines) == graph.num_edges
        ks = {int(line.split("\t")[2]) for line in lines}
        assert ks <= set(range(4))

    def test_partition_files_output(self, edge_file, tmp_path):
        path, graph = edge_file
        out_dir = tmp_path / "parts"
        assert main([str(path), "-p", "4", "--output-dir", str(out_dir)]) == 0
        files = sorted(out_dir.glob("part_*.edges"))
        assert len(files) == 4
        total = sum(read_edge_list(f).num_edges for f in files)
        assert total == graph.num_edges


class TestSaveBundle:
    def test_save_dir_round_trips(self, edge_file, tmp_path):
        from repro.partitioning.serialization import (
            load_partition,
            partition_metadata,
        )

        path, graph = edge_file
        bundle = tmp_path / "bundle"
        assert main([str(path), "-p", "4", "--save-dir", str(bundle)]) == 0
        loaded = load_partition(bundle)
        loaded.validate_against(graph)
        meta = partition_metadata(bundle)
        assert meta["algorithm"] == "TLP"
        assert meta["num_partitions"] == 4
        assert meta["replication_factor"] >= 1.0

    def test_tlp_command_leaves_numpy_ma_unimported(self, edge_file, tmp_path):
        """The array path sorts instead of taking np.unique's numpy.ma import."""
        path, _ = edge_file
        child = (
            "import sys, numpy\n"
            "if 'numpy.ma' in sys.modules: print('preloaded'); raise SystemExit\n"
            "from repro.__main__ import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('loaded' if 'numpy.ma' in sys.modules else 'clean')\n"
        )
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", child, str(path), "-p", "4",
             "--save-dir", str(tmp_path / "bundle")],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip().splitlines()[-1]
        if out == "preloaded":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert out == "clean"


class TestImportSurface:
    def test_cli_import_skips_bench_runtime_analysis_datasets(self):
        """Every command pays for ``import repro.__main__``; the packages no
        command needs at start-up stay unloaded (``--detail`` imports its
        one analysis module when asked)."""
        child = (
            "import sys\n"
            "import repro.__main__\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        loaded = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        assert "repro.__main__" in loaded
        packages = {"repro.bench", "repro.runtime", "repro.analysis", "repro.datasets"}
        unwanted = [m for m in loaded if ".".join(m.split(".")[:2]) in packages]
        assert unwanted == []


class TestIdsOutsideInt64:
    """An id outside int64 is a named input error, not a traceback."""

    @pytest.fixture
    def huge_id_file(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1 2\n2 3\n1 18446744073709551616\n")
        return path

    def test_partition_names_the_line(self, huge_id_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main([str(huge_id_file), "-p", "2", "--save-dir", str(bundle)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: cannot read {huge_id_file}: {huge_id_file}:3: "
        )
        assert "18446744073709551616" in captured.err
        assert captured.out == "" and not bundle.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--detail"], ["--algorithm", "DBH", "--save-dir"], ["--algorithm", "DBH"]],
        ids=["detail", "dbh-save-dir", "dbh"],
    )
    def test_every_algorithm_and_output_names_the_line(
        self, huge_id_file, tmp_path, capsys, flags
    ):
        bundle = tmp_path / "bundle"
        argv = [str(huge_id_file), "-p", "2", *flags]
        if flags[-1] == "--save-dir":
            argv.append(str(bundle))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: cannot read {huge_id_file}: {huge_id_file}:3: "
            "endpoint outside int64"
        )
        assert captured.out == "" and not bundle.exists()

    def test_partition_stream_names_the_line(self, huge_id_file, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        argv = ["partition-stream", str(huge_id_file), str(bundle), "-p", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {huge_id_file}: {huge_id_file}:3: ")
        assert not bundle.exists()


class TestWriters:
    def test_write_assignments_roundtrip(self, tmp_path):
        part = EdgePartition([[(0, 1)], [(1, 2), (2, 3)]])
        path = tmp_path / "a.tsv"
        write_assignments(part, path)
        rows = [
            line.split("\t")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert ["0", "1", "0"] in rows
        assert ["2", "3", "1"] in rows

    def test_write_partition_files_headers(self, tmp_path):
        part = EdgePartition([[(0, 1)], []])
        paths = write_partition_files(part, tmp_path / "d")
        assert paths[0].read_text().startswith("# partition 0: 1 edges")
        assert "0 edges" in paths[1].read_text()


class TestServeSubcommand:
    def test_missing_bundle_fails(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope")]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_serves_a_saved_bundle(self, edge_file, tmp_path, capsys):
        import threading

        path, graph = edge_file
        bundle = tmp_path / "parts"
        assert main([str(path), "-p", "4", "--save-dir", str(bundle)]) == 0

        # Run the serve subcommand on a thread, talk to it, interrupt it.
        from repro.service.client import SyncServiceClient

        thread = threading.Thread(
            target=main, args=(["serve", str(bundle), "--port", "0"],), daemon=True
        )
        thread.start()
        import re
        import time

        deadline = time.time() + 10.0
        port = None
        output = ""
        while time.time() < deadline and port is None:
            time.sleep(0.05)
            output += capsys.readouterr().out
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", output)
            if match:
                port = int(match.group(1))
        assert port is not None, f"server never reported its port: {output!r}"
        with SyncServiceClient("127.0.0.1", port) as client:
            v = next(iter(graph.vertices()))
            assert set(client.call("neighbors", v=v)["neighbors"]) == graph.neighbors(v)

    @pytest.fixture
    def bundle(self, edge_file, tmp_path):
        path, _ = edge_file
        directory = tmp_path / "parts"
        assert main([str(path), "-p", "4", "--save-dir", str(directory)]) == 0
        return directory

    def test_workers_flag_is_gone(self, bundle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", str(bundle), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_zero_max_queue_exits_2(self, bundle, capsys):
        assert main(["serve", str(bundle), "--max-queue", "0"]) == 2
        assert "max_queue must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--refine-on-compact"], ["--capacity", "100"]]
    )
    def test_ingest_flags_without_wal_exit_2(self, bundle, flags, capsys):
        assert main(["serve", str(bundle), *flags]) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "--wal" in err

    def test_bad_refine_slack_refuses_to_start(self, bundle, capsys):
        argv = ["serve", str(bundle), "--wal", "--refine-on-compact",
                "--refine-slack", "0.5"]
        assert main(argv) == 2
        assert "cannot enable ingest" in capsys.readouterr().err
        assert not (bundle / "ingest.wal").exists()


class TestRefineSubcommand:
    def test_workers_flag_is_gone(self, edge_file, tmp_path, capsys):
        path, _ = edge_file
        bundle = tmp_path / "parts"
        assert main([str(path), "-p", "4", "--save-dir", str(bundle)]) == 0
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        with pytest.raises(SystemExit) as exc:
            main(["refine", str(bundle), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
