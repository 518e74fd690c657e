import csv
import json
import shutil

import numpy as np
import pytest

from gorom.cli import main


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert run("generate", "--kind", "diffusion", "--n", "64", "--d", "2",
               "--l", "5", "--seed", "7", "--out", ws / "bundle") == 0
    cfg = {"max_iter": 3, "enrichment": "full", "schedule": "simultaneous",
           "method": "primal-dual", "train_count": 20, "train_seed": 3}
    (ws / "greedy.json").write_text(json.dumps(cfg))
    assert run("offline", "--bundle", ws / "bundle", "--config",
               ws / "greedy.json", "--out", ws / "spaces") == 0
    assert run("truth", "--bundle", ws / "bundle", "--sample-count", "12",
               "--sample-seed", "11", "--out", ws / "truth.csv") == 0
    return ws


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_generate_layout(workspace):
    bundle = workspace / "bundle"
    assert (bundle / "model.json").is_file()
    assert (bundle / "R_V0.mtx").is_file()
    assert (bundle / "manifest.json").is_file()


def test_offline_outputs(workspace):
    spaces = workspace / "spaces"
    for f in ("V.mtx", "V.json", "WQ.mtx", "WQ.json", "trace.json",
              "manifest.json"):
        assert (spaces / f).is_file()
    trace = json.loads((spaces / "trace.json").read_text())
    assert len(trace["iterations"]) == 3
    assert trace["iterations"][-1]["factorizations"] == 3


def test_eval_and_estimate_and_stats(workspace):
    ws = workspace
    assert run("eval", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "saddle", "--xi-file", ws / "truth.csv",
               "--threads", "2", "--out", ws / "est.csv") == 0
    header, rows = read_csv(ws / "est.csv")
    assert header[:2] == ["xi1", "xi2"]
    assert "wall_time_ms" in header
    assert len(rows) == 12
    assert run("estimate", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "primal-dual", "--xi-file", ws / "truth.csv",
               "--out", ws / "delta.csv") == 0
    assert run("stats", "--est", ws / "delta.csv", "--truth", ws / "truth.csv",
               "--bins", "8", "--out", ws / "report.json") == 0
    report = json.loads((ws / "report.json").read_text())
    assert report["mean"] >= 1.0  # certified estimate on an spd problem
    assert report["included_count"] + report["excluded_count"] == 12
    assert sum(report["histogram"]["counts"]) == report["included_count"]


def test_eval_exact_spaces_consistency(workspace, tmp_path):
    # spaces holding the truth snapshots at the evaluated points: zero error
    ws = workspace
    run("truth", "--bundle", ws / "bundle", "--sample-count", "3",
        "--sample-seed", "21", "--out", tmp_path / "t3.csv")
    import gorom
    model = gorom.load_bundle(ws / "bundle")
    V = gorom.Basis(model.gram_v0, model.n, name="V")
    WQ = gorom.Basis(model.gram_v0, model.n, name="WQ")
    _, rows = read_csv(tmp_path / "t3.csv")
    for row in rows:
        xi = np.array([float(row[0]), float(row[1])])
        u, _ = gorom.truth_solve(model, xi)
        V.append(u)
    spaces = tmp_path / "exact_spaces"
    spaces.mkdir()
    V.save(spaces / "V.mtx")
    WQ.save(spaces / "WQ.mtx")
    run("eval", "--bundle", ws / "bundle", "--spaces", spaces,
        "--method", "primal", "--xi-file", tmp_path / "t3.csv",
        "--out", tmp_path / "e3.csv")
    h_t, r_t = read_csv(tmp_path / "t3.csv")
    h_e, r_e = read_csv(tmp_path / "e3.csv")
    scols = [h_t.index(f"s{j+1}") for j in range(model.l)]
    ecols = [h_e.index(f"s{j+1}") for j in range(model.l)]
    for rt, re_ in zip(r_t, r_e):
        st = np.array([float(rt[c]) for c in scols])
        se = np.array([float(re_[c]) for c in ecols])
        assert np.linalg.norm(st - se, np.inf) <= 1e-9


@pytest.mark.parametrize("method", ["primal", "saddle"])
def test_eval_spd_makes_no_riesz_solves(workspace, tmp_path, monkeypatch, method):
    # on an spd bundle these routes read only blocks of A, b and L restricted
    # to V or T = V + WQ: no block needs an R_V0 solve
    from gorom import FullOrderModel
    calls = []
    original = FullOrderModel.riesz_v0

    def counting(self, X):
        calls.append(np.shape(X))
        return original(self, X)

    monkeypatch.setattr(FullOrderModel, "riesz_v0", counting)
    ws = workspace
    assert run("eval", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", method, "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 0
    assert calls == []


def test_eval_dual_on_precond_spaces_factorizes_nothing(tmp_path, monkeypatch):
    # the dual route never applies the interpolant, so loading it must not
    # factorize its points; the primal route does, once per point
    from gorom import FullOrderModel
    assert run("generate", "--kind", "advection-diffusion", "--n", "49", "--d", "3",
               "--l", "2", "--seed", "5", "--out", tmp_path / "bundle") == 0
    cfg = {"max_iter": 3, "enrichment": "partial", "schedule": "simultaneous",
           "method": "saddle", "train_count": 15, "train_seed": 4,
           "precond_sketch": 30}
    (tmp_path / "greedy.json").write_text(json.dumps(cfg))
    assert run("offline", "--bundle", tmp_path / "bundle", "--config",
               tmp_path / "greedy.json", "--precond",
               "--out", tmp_path / "spaces") == 0
    assert run("truth", "--bundle", tmp_path / "bundle", "--sample-count", "4",
               "--sample-seed", "2", "--out", tmp_path / "truth.csv") == 0
    m = len(json.loads((tmp_path / "spaces" / "precond.json").read_text())["points"])
    assert m > 0
    calls = []
    original = FullOrderModel.factorize_operator

    def counting(self, xi):
        calls.append(tuple(xi))
        return original(self, xi)

    monkeypatch.setattr(FullOrderModel, "factorize_operator", counting)
    for method, expected in (("dual", 0), ("primal", m)):
        calls.clear()
        assert run("eval", "--bundle", tmp_path / "bundle", "--spaces",
                   tmp_path / "spaces", "--method", method, "--xi-file",
                   tmp_path / "truth.csv", "--out", tmp_path / f"{method}.csv") == 0
        assert len(calls) == expected, method


def test_constants_and_compare(workspace):
    ws = workspace
    assert run("constants", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--xi-file", ws / "truth.csv", "--out", ws / "const.csv") == 0
    header, rows = read_csv(ws / "const.csv")
    assert header[-3:] == ["delta_vw", "delta_l", "alpha"]
    for row in rows:
        d, dl, a = map(float, row[-3:])
        assert 0.0 <= d <= 1.0 and dl >= 0.0 and abs(a * a + d * d - 1) < 1e-8
    assert run("compare", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--xi-file", ws / "truth.csv", "--out", ws / "compare.csv") == 0
    header, rows = read_csv(ws / "compare.csv")
    assert [r[0] for r in rows] == ["primal", "dual", "primal-dual", "saddle"]
    errs = {r[0]: float(r[4]) for r in rows}
    assert errs["saddle"] <= errs["primal"]


def _strip_wall_time(path):
    header, rows = read_csv(path)
    idx = header.index("wall_time_ms")
    return [tuple(v for j, v in enumerate(row) if j != idx) for row in rows]


def test_pipeline_determinism(tmp_path):
    outs = []
    for run_id in ("a", "b"):
        root = tmp_path / run_id
        root.mkdir()
        run("generate", "--kind", "advection-diffusion", "--n", "49", "--d", "3",
            "--l", "2", "--seed", "5", "--out", root / "bundle")
        cfg = {"max_iter": 3, "enrichment": "partial", "schedule": "simultaneous",
               "method": "saddle", "train_count": 15, "train_seed": 4,
               "precondition": True, "precond_sketch": 30, "precond_seed": 13}
        (root / "greedy.json").write_text(json.dumps(cfg))
        run("offline", "--bundle", root / "bundle", "--config",
            root / "greedy.json", "--out", root / "spaces")
        run("truth", "--bundle", root / "bundle", "--sample-count", "8",
            "--sample-seed", "2", "--out", root / "truth.csv")
        run("eval", "--bundle", root / "bundle", "--spaces", root / "spaces",
            "--method", "saddle", "--xi-file", root / "truth.csv",
            "--out", root / "est.csv")
        run("estimate", "--bundle", root / "bundle", "--spaces", root / "spaces",
            "--method", "saddle", "--xi-file", root / "truth.csv",
            "--out", root / "delta.csv")
        run("compare", "--bundle", root / "bundle", "--spaces", root / "spaces",
            "--xi-file", root / "truth.csv", "--out", root / "compare.csv")
        outs.append(root)
    a, b = outs
    for rel in ("bundle/model.json", "spaces/trace.json", "spaces/V.mtx",
                "spaces/WQ.mtx", "truth.csv", "delta.csv", "compare.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    # est.csv carries a measured wall time; identical modulo that column
    assert _strip_wall_time(a / "est.csv") == _strip_wall_time(b / "est.csv")
    # concurrent first use of a fresh cache's blocks gives the serial rows
    for method in ("primal", "dual", "primal-dual", "saddle"):
        for threads in (1, 4):
            run("eval", "--bundle", a / "bundle", "--spaces", a / "spaces",
                "--method", method, "--xi-file", a / "truth.csv",
                "--threads", threads, "--out", a / f"est-{method}-{threads}.csv")
        assert _strip_wall_time(a / f"est-{method}-1.csv") \
            == _strip_wall_time(a / f"est-{method}-4.csv"), method


def test_cli_errors(tmp_path, capsys):
    assert run("truth", "--bundle", tmp_path / "nope", "--sample-count", "2",
               "--out", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "model.json" in err


def test_stats_without_usable_errors_exits_with_one_line(workspace, tmp_path, capsys):
    # spaces that reach rounding level leave no error above 1e-14 of |s|
    ws = workspace
    header, rows = read_csv(ws / "truth.csv")
    est = tmp_path / "delta.csv"
    est.write_text("".join(",".join(r) + "\n" for r in
                           [["delta"] + header] + [["1.0"] + row for row in rows]))
    capsys.readouterr()
    assert run("stats", "--est", est, "--truth", ws / "truth.csv",
               "--out", tmp_path / "report.json") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "no usable effectivity samples" in err
    assert not (tmp_path / "report.json").exists()


def test_stats_refuses_an_estimate_file_without_delta(workspace, tmp_path, capsys):
    ws = workspace
    est = tmp_path / "eval-primal.csv"
    assert run("eval", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "primal", "--xi-file", ws / "truth.csv", "--out", est) == 0
    capsys.readouterr()
    assert run("stats", "--est", est, "--truth", ws / "truth.csv",
               "--out", tmp_path / "report.json") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "eval-primal.csv" in err and "delta" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("case", ["other-points", "one-output", "three-outputs",
                                  "non-numeric"])
def test_stats_refuses_a_truth_file_that_does_not_match(workspace, tmp_path, capsys, case):
    # rows are paired in order: the points and the output columns must match,
    # and every cell read must be a number
    ws = workspace
    est = tmp_path / "delta.csv"
    assert run("estimate", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "primal-dual", "--xi-file", ws / "truth.csv", "--out", est) == 0
    truth = tmp_path / "truth.csv"
    if case == "other-points":
        assert run("truth", "--bundle", ws / "bundle", "--sample-count", "12",
                   "--sample-seed", "12", "--out", truth) == 0
    else:
        header, rows = read_csv(ws / "truth.csv")
        keep = {"one-output": 3, "three-outputs": 5}.get(case)  # xi1, xi2, s1..
        if case == "non-numeric":
            rows[4][3] = "n/a"
        truth.write_text("".join(",".join(r[:keep]) + "\n" for r in [header] + rows))
    capsys.readouterr()
    assert run("stats", "--est", est, "--truth", truth,
               "--out", tmp_path / "report.json") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "delta.csv" in err and "truth.csv" in err
    assert not (tmp_path / "report.json").exists()


def test_eval_refuses_spaces_of_another_bundle(workspace, tmp_path, capsys):
    ws = workspace
    assert run("generate", "--kind", "diffusion", "--n", "64", "--d", "2",
               "--l", "5", "--seed", "8", "--out", tmp_path / "other") == 0
    capsys.readouterr()
    assert run("eval", "--bundle", tmp_path / "other", "--spaces", ws / "spaces",
               "--method", "primal", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "another bundle" in err
    assert not (tmp_path / "est.csv").exists()


def test_regenerated_bundle_still_matches_its_spaces(workspace, tmp_path):
    # the bundle hash leaves out the bundle's own (time-stamped) manifest
    ws = workspace
    assert run("generate", "--kind", "diffusion", "--n", "64", "--d", "2",
               "--l", "5", "--seed", "7", "--out", tmp_path / "again") == 0
    assert run("eval", "--bundle", tmp_path / "again", "--spaces", ws / "spaces",
               "--method", "primal", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 0


def test_eval_refuses_interpolant_without_tensors(workspace, tmp_path, capsys):
    ws = workspace
    spaces = tmp_path / "spaces"
    shutil.copytree(ws / "spaces", spaces)
    (spaces / "precond.json").write_text(json.dumps(
        {"sketch_size": 20, "seed": 13, "positivity": True, "points": []}))
    assert run("eval", "--bundle", ws / "bundle", "--spaces", spaces,
               "--method", "primal", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0
    assert "re-run gorom offline" in err


def test_offline_abort_persists_partial_trace(workspace, tmp_path, capsys):
    # a training point far outside the domain aborts estimation; the
    # partial trace lands on disk and the exit code is nonzero
    cfg = {"max_iter": 2, "train_points": [[1.0, 1.0], [1e6, 1e6]]}
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    code = run("offline", "--bundle", workspace / "bundle",
               "--config", tmp_path / "bad.json", "--out", tmp_path / "sp")
    assert code == 1
    assert "outside domain" in capsys.readouterr().err
    trace = json.loads((tmp_path / "sp" / "trace.json").read_text())
    assert trace["aborted"].startswith("iteration 1")


def test_cli_help_covers_flags(capsys):
    import pytest as _pytest
    for cmd in ("generate", "offline", "truth", "eval", "constants",
                "estimate", "stats", "compare"):
        with _pytest.raises(SystemExit) as exc:
            run(cmd, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out


@pytest.mark.parametrize("row", ["1e6,1.0", "nan,1.0"])
@pytest.mark.parametrize("command", ["eval", "estimate"])
def test_online_commands_refuse_points_outside_the_domain(
        workspace, tmp_path, capsys, command, row):
    ws = workspace
    _, rows = read_csv(ws / "truth.csv")
    xi_file = tmp_path / "xi.csv"
    xi_file.write_text("xi1,xi2\n" + ",".join(rows[0][:2]) + "\n" + row + "\n")
    capsys.readouterr()
    assert run(command, "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "primal-dual", "--xi-file", xi_file,
               "--out", tmp_path / "out.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "outside domain" in err
    assert not (tmp_path / "out.csv").exists()


def test_eval_refuses_nonfinite_basis(workspace, tmp_path, capsys):
    ws = workspace
    spaces = tmp_path / "spaces"
    shutil.copytree(ws / "spaces", spaces)
    lines = (spaces / "V.mtx").read_text().splitlines(keepends=True)
    first = next(j for j, line in enumerate(lines) if not line.startswith("%")) + 1
    lines[first + 2] = "nan\n"
    (spaces / "V.mtx").write_text("".join(lines))
    capsys.readouterr()
    assert run("eval", "--bundle", ws / "bundle", "--spaces", spaces,
               "--method", "primal", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0
    assert "re-run gorom offline" in err


def test_spd_saddle_estimate_solves_each_term_image_of_T_once(
        workspace, tmp_path, monkeypatch):
    # A_k^T T = A_k T on an spd model: the Riesz images behind KT (dual
    # factor) and RTT (primal factor) are one set of R_V0 solves
    import gorom
    from gorom import FullOrderModel
    ws = workspace
    model = gorom.load_bundle(ws / "bundle")
    V, WQ, _ = gorom.cli.load_spaces(model, ws / "spaces", ws / "bundle")
    p = gorom.ReducedCache(model, V, WQ).p
    columns = []
    original = FullOrderModel.riesz_v0

    def counting(self, X):
        columns.append(np.shape(X)[1] if np.ndim(X) == 2 else 1)
        return original(self, X)

    monkeypatch.setattr(FullOrderModel, "riesz_v0", counting)
    assert run("estimate", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "saddle", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "delta.csv") == 0
    # A's term images of T, b's terms and L's transposed terms, once each
    expected = model.A.nterms * p + model.b.nterms + model.L.nterms * model.l
    assert sum(columns) == expected


@pytest.mark.parametrize("row", ["1.0,", "1.0,one", "1.0"])
def test_malformed_xi_file_exits_with_one_line(workspace, tmp_path, capsys, row):
    # an empty or non-numeric cell, or a short row, names the file and line
    ws = workspace
    _, rows = read_csv(ws / "truth.csv")
    xi_file = tmp_path / "xi.csv"
    xi_file.write_text("xi1,xi2\n" + ",".join(rows[0][:2]) + "\n" + row + "\n")
    capsys.readouterr()
    assert run("eval", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "primal", "--xi-file", xi_file,
               "--out", tmp_path / "out.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert str(xi_file) in err and "line 3" in err
    assert not (tmp_path / "out.csv").exists()


def test_eval_refuses_spaces_of_another_size(workspace, tmp_path, capsys):
    # without a manifest no bundle hash is checked; the basis size still is
    ws = workspace
    assert run("generate", "--kind", "diffusion", "--n", "81", "--d", "2",
               "--l", "5", "--seed", "7", "--out", tmp_path / "bigger") == 0
    spaces = tmp_path / "spaces"
    shutil.copytree(ws / "spaces", spaces)
    (spaces / "manifest.json").unlink()
    capsys.readouterr()
    assert run("eval", "--bundle", tmp_path / "bigger", "--spaces", spaces,
               "--method", "primal", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0
    assert "size 64" in err and "re-run gorom offline" in err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("command", ["eval", "estimate"])
def test_online_commands_keep_no_point_blocks(workspace, tmp_path, monkeypatch,
                                              command):
    # a solution holds its point's reduced blocks: the commands keep only
    # s_tilde (and the estimate record), so no point's blocks outlive it
    import gc
    import weakref

    from gorom import cli, projectors
    ws = workspace
    points = []
    init = projectors._CachedBlocks.__init__
    write = cli._write_csv

    def tracked(self, cache, xi):
        init(self, cache, xi)
        points.append(weakref.ref(self))

    def checked_write(path, header, rows):
        gc.collect()
        assert points and all(ref() is None for ref in points)
        write(path, header, rows)

    monkeypatch.setattr(projectors._CachedBlocks, "__init__", tracked)
    monkeypatch.setattr(cli, "_write_csv", checked_write)
    assert run(command, "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "saddle", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "out.csv") == 0
