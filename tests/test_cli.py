"""Tests for the command-line interface."""

import pytest

from repro.cli import MODELS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "mnist-100-100"
        assert args.optimizer == "dropback"
        assert args.compression == 4.5

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "alexnet"])

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--optimizer", "adam"])

    def test_train_parallel_knobs(self):
        args = build_parser().parse_args(["train"])
        assert args.workers == 1 and args.microbatch is None and args.prefetch == 2
        args = build_parser().parse_args(
            ["train", "--workers", "2", "--microbatch", "16", "--prefetch", "0"]
        )
        assert (args.workers, args.microbatch, args.prefetch) == (2, 16, 0)


class TestCommands:
    def test_info_lists_all_models(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in MODELS:
            assert name in out
        assert "36,479,194" in out  # WRN-28-10 paper-scale count

    def test_energy_output(self, capsys):
        assert main(["energy", "--model", "mnist-100-100", "--compression", "10",
                     "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "saving" in out
        assert "10.0x" in out

    @pytest.mark.parametrize("optimizer", ["sgd", "dropback", "dropback-q8", "magnitude",
                                           "gradual", "dsd"])
    def test_train_every_optimizer_smoke(self, optimizer, capsys):
        code = main([
            "train", "--model", "mnist-100-100", "--optimizer", optimizer,
            "--epochs", "1", "--train-size", "300", "--compression", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best validation error" in out

    def test_train_parallel_smoke(self, capsys):
        code = main([
            "train", "--model", "mnist-100-100", "--optimizer", "dropback",
            "--epochs", "1", "--train-size", "256", "--batch-size", "64",
            "--workers", "2", "--compression", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "data-parallel: 2 workers" in out
        assert "best validation error" in out

    def test_train_conv_model_smoke(self, capsys):
        code = main([
            "train", "--model", "densenet-tiny", "--optimizer", "dropback",
            "--epochs", "1", "--train-size", "200", "--lr", "0.1",
            "--image-size", "16",
        ])
        assert code == 0

    def test_train_with_freeze(self, capsys):
        code = main([
            "train", "--model", "mnist-100-100", "--optimizer", "dropback",
            "--epochs", "2", "--train-size", "300", "--freeze-epoch", "1",
        ])
        assert code == 0


class TestKernelsCommand:
    def test_lists_dispatch_table(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for op in ("matmul", "conv2d_forward", "bn_relu_forward"):
            assert op in out
        assert "reference" in out
        assert "active backend:" in out
        assert "sparse density cutoff:" in out
        assert "REPRO_SPARSE_DENSITY_CUTOFF" in out

    def test_table_shows_per_op_override(self, capsys):
        from repro.tensor.kernels import registry

        registry.set_op_backend("matmul", "sparse")
        try:
            assert main(["kernels"]) == 0
            out = capsys.readouterr().out
            row = next(line for line in out.splitlines() if line.startswith("matmul "))
            # Both the pin and the backend it resolves to are visible.
            assert row.rstrip().endswith("sparse    sparse")
        finally:
            registry.set_op_backend("matmul", None)

    def test_bench_writes_perf_report(self, tmp_path, capsys, monkeypatch):
        from repro.profile import PerfReport

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out_path = tmp_path / "perf_kernels.json"
        assert main(["kernels", "--bench", "--rounds", "2", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "vs reference" in out
        report = PerfReport.load(out_path)
        assert "kernels.matmul.reference" in report.ops
        assert "kernels.conv2d_forward.fast" in report.ops
        for meta_key in ("speedup_conv_gemm", "speedup_bn_relu", "speedup_conv_forward"):
            assert isinstance(report.meta[meta_key], float)
        assert report.meta["rounds"] == 2
        assert report.meta["sparse_density_cutoff"] == 0.25
        assert report.meta["op_overrides"] == {}
        assert report.meta["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
        }
