"""The benchmark's own code at n = 3: generators, output checks, spans and metrics.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from math import comb

import pytest

import checks
import gen
import run
from rookfft import algebra, cli, rook_reps, transforms
from spans import Tracer

N = 3


def _files(spec):
    return {k: open(p, "rb").read() for k, p in spec["files"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_repeat_exactly_for_a_seed(tmp_path, workload):
    a = gen.write_inputs(workload, 7, tmp_path / "a", n=N)
    b = gen.write_inputs(workload, 7, tmp_path / "b", n=N)
    c = gen.write_inputs(workload, 8, tmp_path / "c", n=N)
    assert _files(a) == _files(b)
    assert a["facts"] == b["facts"] and a.get("reference") == b.get("reference")
    assert _files(a) != _files(c)


def test_generated_elements_are_what_the_program_reads(tmp_path):
    spec = gen.write_inputs("transform_cli_n6", 0, tmp_path, n=N)
    f = algebra.from_json_dict(json.loads(open(spec["files"]["element"]).read()))
    assert f.support() == checks.size(N) == spec["facts"]["support"]
    assert spec["facts"]["support_by_rank"] == [1, 9, 18, 6]


def _transform(tmp_path, seed=0):
    spec = gen.write_inputs("transform_cli_n6", seed, tmp_path, n=N)
    data = {}
    for name, extra in (("stein", ["--convert"]), ("recursive", [])):
        out = tmp_path / f"{name}.json"
        argv = ["transform", "--input", spec["files"]["element"], "--algorithm", name, *extra,
                "--output", str(out)]
        assert cli.main(argv) == 0
        data[name] = json.loads(out.read_text())
    return data


def test_transform_check_passes_on_real_outputs(tmp_path):
    data = _transform(tmp_path)
    residual, problems = checks.check_transform(data["stein"], data["recursive"])
    assert problems == [] and residual < 1e-12


def test_transform_check_flags_a_perturbed_block_entry(tmp_path):
    data = _transform(tmp_path)
    entry = data["stein"]["blocks"][-1]["rows"][0][0]
    entry["re"] += 1e-3
    residual, problems = checks.check_transform(data["stein"], data["recursive"])
    assert problems and residual > checks.TOL


def test_transform_check_flags_a_bound_violation(tmp_path):
    data = _transform(tmp_path)
    data["recursive"]["within_bound"] = False
    assert checks.check_transform(data["stein"], data["recursive"])[1]


def _spectrum(tmp_path, association):
    spec = gen.write_inputs("spectrum_ballots_n5", 0, tmp_path, n=N)
    out = tmp_path / f"{association}.json"
    argv = ["analyze", "--input", spec["files"]["ballots"], "--n", str(N),
            "--association", association, "--output", str(out)]
    assert cli.main(argv) == 0
    return json.loads(out.read_text()), spec["reference"][association]


@pytest.mark.parametrize("association", ("groupoid", "semigroup"))
def test_spectrum_check_passes_on_real_outputs(tmp_path, association):
    report, reference = _spectrum(tmp_path, association)
    residual, problems = checks.check_spectrum(report, N, reference)
    assert problems == [] and residual < 1e-12


@pytest.mark.parametrize("association", ("groupoid", "semigroup"))
def test_spectrum_check_flags_a_dropped_energy(tmp_path, association):
    report, reference = _spectrum(tmp_path, association)
    report["labels"].sort(key=lambda e: e["energy"])
    report["labels"].pop()
    residual, problems = checks.check_spectrum(report, N, reference)
    assert problems and residual > checks.TOL


def test_spectrum_check_flags_a_negative_energy(tmp_path):
    report, reference = _spectrum(tmp_path, "groupoid")
    first, second = report["labels"][:2]
    second["energy"] += first["energy"] + 1e-3 * reference  # the sum still holds
    first["energy"] = -1e-3 * reference
    residual, problems = checks.check_spectrum(report, N, reference)
    assert problems and residual < 1e-12


def _convolution(tmp_path):
    spec = gen.write_inputs("convolve_sparse_n5", 0, tmp_path, n=N)
    f, g = (algebra.from_json_dict(json.loads(open(spec["files"][k]).read())) for k in "fg")
    direct = algebra.convolve_semigroup(f, g)
    F, G = transforms.recursive_fft(f), transforms.recursive_fft(g)
    fourier = algebra.to_semigroup(transforms.fourier_invert(transforms.blockwise_product(F, G)))
    return direct.coeffs, fourier.coeffs, [F.ops.multiply_adds, G.ops.multiply_adds]


def test_convolution_check_passes_on_real_outputs(tmp_path):
    direct, fourier, ops = _convolution(tmp_path)
    residual, problems = checks.check_convolution(direct, fourier, ops, N)
    assert problems == [] and residual < 1e-12


def test_convolution_check_flags_a_changed_term(tmp_path):
    direct, fourier, ops = _convolution(tmp_path)
    s = next(iter(fourier))
    fourier[s] += 1e-6
    residual, problems = checks.check_convolution(direct, fourier, ops, N)
    assert problems and residual > checks.TOL


def test_convolution_check_flags_ops_over_the_bound(tmp_path):
    direct, fourier, ops = _convolution(tmp_path)
    assert checks.check_convolution(direct, fourier, [checks.recursive_bound(N) + 1], N)[1]


def test_tracer_counts_match_cli_ops_and_wrappers_come_off(tmp_path):
    originals = (cli.main, transforms.recursive_fft, rook_reps.HalversonRep.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        root = tracer.begin_op(1)
        data = _transform(tmp_path)
        tracer.end_op(root)
    finally:
        tracer.remove()
    assert (cli.main, transforms.recursive_fft, rook_reps.HalversonRep.evaluate) == originals
    assert tracer.absent == []
    op = tracer.per_op()[1]
    assert tracer.count(1, "transforms.stein_fft_semigroup.multiply_adds") == data["stein"]["ops"]
    assert tracer.count(1, "transforms.recursive_fft.multiply_adds") == data["recursive"]["ops"]
    additions = sum(1 << sum(1 for v in img if v) for img in gen.enumerate_rn(N))
    assert tracer.count(1, "algebra.to_groupoid.additions") == additions
    assert op["spans"]["cli.main"][1] == 2
    # one S_k transform per (range, domain) cell of a full-support element
    assert op["spans"]["symmetric.sn_fft"][1] == sum(comb(N, k) ** 2 for k in range(N + 1))
    assert 0.0 <= op["root_self_s"] <= op["wall_s"]
    own = sum(s for s, _ in op["spans"].values()) + op["root_self_s"]
    assert own == pytest.approx(op["wall_s"], rel=1e-9)


def _fake_run(trace):
    worker = {"attempted": 2, "failed": 0, "residual": 0.0, "output_bytes": [1, 1],
              "problems": [], "absent": [], "setup_s": 1.0, "setup_rep_s": [0.004, 0.004],
              "peak_rss_mb": 1.0}
    if trace:
        op = {"wall_s": 1.0, "root_self_s": 0.1, "spans": {}, "counts": {}}
        worker.update(per_op={"0": op, "1": op}, traced_op_s=[[1.0, 0.004]],
                      untraced_op_s=[[1.0, 0.004]])
    else:
        worker["op_s"] = [[1.0, 0.004]]
    facts = {"support": 1, "support_by_rank": [1, 0], "bytes": 1}
    return {"spec": {"facts": facts}, "workers": [worker]}


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, _ = (run.per_layer if trace else run.end_to_end)(_fake_run(trace))
        assert [(k, u) for k, (_, u) in metrics.items()] == [
            (m["name"], m["unit"]) for m in declared[key]
        ]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_without_the_source(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "convolve_sparse_n5", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_block_means_pool_short_operations_and_keep_long_ones():
    ref = run.REF_REP_S
    assert run.block_means([[0.5, ref]] * 9, span=2.0) == [0.5, 0.5]  # 4 + 5 operations
    assert run.block_means([[3.0, ref], [5.0, ref]], span=2.0) == [3.0, 5.0]
    assert run.block_means([[0.5, ref]], span=2.0) == [0.5]


def test_times_are_scaled_by_the_calibration():
    ref = run.REF_REP_S
    # on a host twice as slow both the operations and the kernel take twice as long
    assert run.block_means([[1.0, 2 * ref]] * 4, span=2.0) == [0.5, 0.5]
    assert run.in_reference_s(3.0, ref / 2) == pytest.approx(6.0)


def test_calibration_times_at_least_two_repetitions():
    import worker

    t0 = time.perf_counter()
    rep_s = worker.calibrate(0.0)
    assert 0.0 < rep_s <= (time.perf_counter() - t0) / 2
