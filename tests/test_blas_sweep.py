"""``benchmarks/blas_sweep.py`` — one blas block, kernel by kernel."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "blas_sweep", ROOT / "benchmarks" / "blas_sweep.py"
)
blas_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(blas_sweep)


def test_a_short_sweep_times_every_kernel_length_and_precision():
    report = blas_sweep.run(seed=2, utterances=2, repeats=1)
    assert set(report["kernels_us"]) == {"product", "fold", "log_zero_map"}
    assert list(report["block_us"]) == list(blas_sweep.SWEEP_FRAMES)
    assert set(report["precision_us"]) == {"float64", "float32"}
    for timings in (report["kernels_us"], report["block_us"], report["precision_us"]):
        assert all(us > 0.0 for us in timings.values())
    assert report["block_frames"] in blas_sweep.SWEEP_FRAMES

    text = blas_sweep.render(report)
    for phrase in ("product", "fold", "log_zero_map", "K = 128", "float32"):
        assert phrase in text
    assert '"blas_threads"' in text  # the machine fingerprint


def test_the_component_axis_times_each_mixture_count_and_precision():
    report = blas_sweep.run(
        seed=2, utterances=2, repeats=1, components=(2, 3), senones=50, dim=13
    )
    assert report["component_pool"] == {"senones": 50, "dim": 13}
    assert list(report["component_us"]) == [2, 3]
    for by_precision in report["component_us"].values():
        assert list(by_precision) == list(blas_sweep.PRECISIONS)
        for timings in by_precision.values():
            assert set(timings) == {"product", "fold", "log_zero_map", "block"}
            assert all(us > 0.0 for us in timings.values())

    text = blas_sweep.render(report)
    assert "random 50 x M x 13 pools" in text
    assert "    3 float32" in text
