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
    # 12 members x 75 nodes (24 per piece and the ends of u in [0, 1], [1,
    # 2] and [2, 4]; 10 radii each while the appendix swept --grid-points),
    # then 15 curve and 4 mesh samples past the neck
    assert metrics["core.lambda_height.calls"] == 12 * 75 + 15 + 4
    assert metrics["core.j_remainder.calls"] == 12 * 75
    assert metrics["core.profile.calls"] == 2


def test_tracer_counts_every_integrand_sample(load_bench_module, monkeypatch, tmp_path):
    # `core.quad` is the height tables' one integration rule, so the traced
    # evaluations are all the samples of the substituted integrand: 6
    # pieces of 24 on the headline pair, each table ending at the far panel
    # u in [2, 4] with one piece u in [0, 1] (12 while the first pieces were
    # 1/4 wide and the far panel u in [4, 8], and 14 before the far field,
    # when each table grew to the piece u in [8, 16])
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
    assert metrics["core.quad.evals"] == 24 * metrics["core.quad.calls"] == counted == 144


def test_tracer_counts_every_brent_solve(load_bench_module, tmp_path):
    # the height tables solve through `core.brentq` by that module name, so
    # the traced headline pipeline sees all 392 solves and their 2 680
    # evaluations (`TestEvaluationCounts` in test_core.py counts the same
    # untraced; 3 036 and 14 884 before the busy pieces read inverse
    # series, 1 483 and 7 618 while a piece was fitted on its 65th
    # height, 715 and 3 822 while d0 was solved by Brent, 1 ulp higher,
    # 715 and 3 824 before heights past t_far came in closed form, and 498
    # and 3 103 while t_far came from the whole tail's bound, 16.88, rather
    # than from the tail less its leading term, 9.38);
    # a table that held the kernel under another name would read 0 here
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
    assert (metrics["core.brentq.calls"], metrics["core.brentq.evals"]) == (392, 2_680)
