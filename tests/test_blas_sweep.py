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
