"""Every name the benchmark's tracer hooks is still defined by the package,
the commands reach the hooked names, the hooked `quad` sees every
integrand sample and the hooked `brentq` every Brent solve."""

from hcat import core
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
        assert run(["mesh", "--H", ".25", "--d", "2", "--rho-max", "4", "--n", "5",
                    "--m", "6", "--out", str(tmp_path / "m.obj")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.rep_metrics()
    # the CLI reaches the mesh writer through the names the tracer rebinds
    assert metrics["mesh.revolve.s"] > 0
    assert metrics["mesh.export_obj.bytes"] == (tmp_path / "m.obj").stat().st_size
    assert metrics["core.b_inverse.calls"] == 0
    # 12 members x 10 radii, then 15 curve and 4 mesh samples past the neck
    assert metrics["core.lambda_height.calls"] == 12 * 10 + 15 + 4
    assert metrics["core.j_remainder.calls"] == 12 * 10
    assert metrics["core.profile.calls"] == 2


def test_tracer_counts_every_integrand_sample(load_bench_module, monkeypatch, tmp_path):
    # `core.quad` is the height tables' one integration rule, so the traced
    # evaluations are all the samples of the substituted integrand: 14
    # pieces of 24 on the headline pair
    counted = 0
    substituted = core._substituted

    def counting(*args):
        nonlocal counted
        counted += 1
        return substituted(*args)

    monkeypatch.setattr(core, "_substituted", counting)
    tracer = load_bench_module("hcat_bench_tracer", "tracer.py").Tracer()
    tracer.install()
    try:
        assert run(["disjoint", "--H", ".25", "--d1", "3", "--solve-d0",
                    "--out", str(tmp_path / "cert.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.rep_metrics()
    assert metrics["core.quad.evals"] == 24 * metrics["core.quad.calls"] == counted == 336


def test_tracer_counts_every_brent_solve(load_bench_module, tmp_path):
    # the height tables solve through `core.brentq` by that module name, so
    # the traced headline pipeline sees all 1 483 solves and their 7 618
    # evaluations (`TestEvaluationCounts` in test_core.py counts the same
    # untraced; 3 036 and 14 884 before the busy pieces read inverse
    # series); a table that held the kernel under another name would read
    # 0 here
    tracer = load_bench_module("hcat_bench_tracer", "tracer.py").Tracer()
    tracer.install()
    try:
        cert = str(tmp_path / "cert.json")
        assert run(["disjoint", "--H", ".25", "--d1", "3", "--solve-d0", "--out", cert]) == 0
        assert run(["strips", "--cert", cert, "--out", str(tmp_path / "strips.json"),
                    "--csv", str(tmp_path / "margins.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.rep_metrics()
    assert (metrics["core.brentq.calls"], metrics["core.brentq.evals"]) == (1_483, 7_618)
