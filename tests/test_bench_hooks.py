"""Every name the benchmark's tracer hooks is still defined by the package,
and the commands reach the hooked names."""

from hcat.cli import run


def test_tracer_finds_every_hook_target(load_bench_module):
    tracer = load_bench_module("hcat_bench_tracer", "tracer.py").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == set()


def test_forward_commands_read_heights_through_the_hooks(load_bench_module, tmp_path):
    # the traced `forward` workload reports these counts
    tracer = load_bench_module("hcat_bench_tracer", "tracer.py").Tracer()
    tracer.install()
    try:
        assert run(["verify-appendix", "--grid-points", "10",
                    "--out", str(tmp_path / "a.json")]) == 0
        assert run(["curve", "--H", ".25", "--d", "2", "--rho-max", "6", "--n", "16",
                    "--out", str(tmp_path / "c.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.rep_metrics()
    assert metrics["core.b_inverse.calls"] == 0
    # 12 members x 10 radii, then 15 samples past the neck
    assert metrics["core.lambda_height.calls"] == 12 * 10 + 15
    assert metrics["core.j_remainder.calls"] == 12 * 10
    assert metrics["core.profile.calls"] == 1
