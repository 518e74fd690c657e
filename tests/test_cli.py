import argparse
import csv
import json
import shutil

import numpy as np
import pytest

from gorom.cli import build_parser, main


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


@pytest.mark.one_blas_thread
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
    V, WQ, _, _ = gorom.cli.load_spaces(model, ws / "spaces", ws / "bundle",
                                        gorom.cli._bundle_hash(ws / "bundle"))
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


_ONLINE = {"eval": ["--method", "primal"], "estimate": ["--method", "primal-dual"],
           "compare": []}


@pytest.mark.parametrize("command, flag, value",
                         [(c, "--threads", v) for c in ("truth", "eval", "estimate",
                                                        "compare", "offline")
                          for v in ("0", "-1")]
                         + [("truth", "--sample-count", "-3")])
def test_parser_refuses_counts_out_of_range(workspace, tmp_path, capsys, command, flag,
                                            value):
    ws = workspace
    if command == "offline":
        args = ["--config", ws / "greedy.json"]
    else:
        args = ["--xi-file", ws / "truth.csv"]
        if command in _ONLINE:
            args += ["--spaces", ws / "spaces"] + _ONLINE[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command, "--bundle", ws / "bundle", *args, flag, value,
            "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert f"argument {flag}: expected at least" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_CONFIGS = {"config-json": "{", "config-max-iter": '{"max_iter": 0}',
            "config-method": '{"method": "foo"}', "config-type": '{"max_iter": "x"}',
            "config-max-iter-float": '{"max_iter": 2.5}',
            "config-flag-string": '{"precondition": "false"}',
            "config-sketch": '{"precondition": true, "precond_sketch": -5}',
            "config-threshold": '{"stop_threshold": "x"}',
            "config-threshold-nan": '{"stop_threshold": NaN}',
            "config-train-seed": '{"train_seed": "x"}',
            "config-precond-seed": '{"precondition": true, "precond_seed": "x"}'}


@pytest.mark.parametrize("case", ["generate-n", "generate-l", "generate-d",
                                  "config-missing", *_CONFIGS, "xi-file", "spaces",
                                  "stats-est", "xi-file-empty", "stats-est-empty"])
def test_bad_input_exits_with_one_line(workspace, tmp_path, capsys, case):
    ws = workspace
    config = tmp_path / "greedy.json"
    if case in _CONFIGS:
        config.write_text(_CONFIGS[case])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    online = ["eval", "--bundle", ws / "bundle", "--method", "primal"]
    argv, named = {
        "generate-n": (["generate", "--n", "10"], "n must be at least 16"),
        "generate-l": (["generate", "--l", "500"], "l=500"),
        "generate-d": (["generate", "--d", "0"], "d must be in"),
        "xi-file": (online + ["--spaces", ws / "spaces", "--xi-file",
                              tmp_path / "nope.csv"], "nope.csv"),
        "spaces": (online + ["--spaces", tmp_path / "nope", "--xi-file",
                             ws / "truth.csv"], "nope"),
        "stats-est": (["stats", "--est", tmp_path / "nope.csv", "--truth",
                       ws / "truth.csv"], "nope.csv"),
        "xi-file-empty": (online + ["--spaces", ws / "spaces", "--xi-file", empty],
                          "empty.csv"),
        "stats-est-empty": (["stats", "--est", empty, "--truth", ws / "truth.csv"],
                            "empty.csv"),
    }.get(case, (["offline", "--bundle", ws / "bundle", "--config", config],
                 str(config)))
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert named in err
    assert not (tmp_path / "out").exists()


def test_import_leaves_scipy_optimize_unloaded():
    # only the interpolant fit with positivity needs nnls; the other
    # commands must not pay for importing scipy.optimize
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gorom
    src = str(Path(gorom.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, gorom.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# option -> (type, default, choices, required); "flag" is a store_true switch
# and ">=k" an integer no smaller than k
_OUT = {"--out": (None, None, None, True)}
_POINTS = {"--bundle": (None, None, None, True),
           "--xi-file": (None, None, None, False),
           "--sample-count": (">=0", 0, None, False),
           "--sample-seed": ("int", 0, None, False), **_OUT}
_SPACES = {"--spaces": (None, None, None, True)}
_THREADS = {"--threads": (">=1", None, None, False)}
_CLI_CONTRACT = {
    "generate": {"--kind": (None, "diffusion", ("diffusion", "advection-diffusion"), False),
                 "--n": ("int", 900, None, False), "--d": ("int", 6, None, False),
                 "--l": ("int", 30, None, False), "--seed": ("int", 0, None, False),
                 **_OUT},
    "offline": {"--bundle": (None, None, None, True), "--config": (None, None, None, True),
                "--precond": ("flag", False, None, False), **_THREADS, **_OUT},
    "truth": {**_POINTS, **_THREADS},
    "eval": {**_POINTS, **_SPACES, **_THREADS,
             "--method": (None, None, ("primal", "dual", "primal-dual", "saddle"), True)},
    "constants": {**_POINTS, **_SPACES,
                  "--space": (None, "dual", ("dual", "primal"), False)},
    "estimate": {**_POINTS, **_SPACES, **_THREADS,
                 "--method": (None, None, ("primal-dual", "saddle"), True),
                 "--alpha": (None, "auto", ("auto", "min-theta", "none"), False)},
    "stats": {"--est": (None, None, None, True), "--truth": (None, None, None, True),
              "--bins": ("int", 50, None, False), **_OUT},
    "compare": {**_POINTS, **_SPACES, **_THREADS},
}


def _type_name(action):
    if isinstance(action, argparse._StoreTrueAction):
        return "flag"
    if action.type is None:
        return None
    if action.type is int:
        return "int"

    def accepts(v):
        try:
            action.type(str(v))
            return True
        except argparse.ArgumentTypeError:
            return False
    return f">={min(v for v in range(-2, 3) if accepts(v))}"


def test_cli_contract_pins_every_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_CLI_CONTRACT)
    for name, p in sub.choices.items():
        got = {}
        for action in p._actions:
            if not isinstance(action, argparse._HelpAction):
                assert len(action.option_strings) == 1, (name, action.option_strings)
                got[action.option_strings[0]] = (
                    _type_name(action), action.default,
                    tuple(action.choices) if action.choices else None, action.required)
        assert got == _CLI_CONTRACT[name], name


@pytest.mark.parametrize("command", ["truth", "eval", "estimate"])
def test_header_only_xi_file_gives_header_only_table(workspace, tmp_path, command):
    ws = workspace
    xi_file = tmp_path / "xi.csv"
    xi_file.write_text("xi1,xi2\n")
    extra = {"truth": [], "eval": ["--spaces", ws / "spaces", "--method", "primal"],
             "estimate": ["--spaces", ws / "spaces", "--method", "saddle"]}[command]
    assert run(command, "--bundle", ws / "bundle", *extra, "--xi-file", xi_file,
               "--out", tmp_path / "out.csv") == 0
    header, rows = read_csv(tmp_path / "out.csv")
    assert header[:2] == ["xi1", "xi2"] and rows == []


@pytest.mark.parametrize("where, name", [("spaces", "manifest.json"),
                                         ("spaces", "precond.json"),
                                         ("spaces", "V.json"), ("spaces", "V.mtx"),
                                         ("spaces", "trace.json"),
                                         ("bundle", "A_000.mtx"), ("bundle", "R_V0.mtx")])
def test_unparseable_input_file_exits_with_one_line(workspace, tmp_path, capsys, where,
                                                    name):
    ws = workspace
    for d in ("bundle", "spaces"):
        shutil.copytree(ws / d, tmp_path / d)
    (tmp_path / where / name).write_text("not a gorom file\n")
    command = "compare" if name == "trace.json" else "eval"
    method = [] if command == "compare" else ["--method", "primal"]
    capsys.readouterr()
    assert run(command, "--bundle", tmp_path / "bundle", "--spaces", tmp_path / "spaces",
               *method, "--xi-file", ws / "truth.csv", "--out", tmp_path / "out.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert name in err
    assert not (tmp_path / "out.csv").exists()


def _rewrite_meta(path, edit, edit_stacks=lambda stacks: None):
    """Rewrite the metadata of a blocks file by ``edit(meta)`` and its stacks,
    a dict by name, by ``edit_stacks(stacks)``."""
    from gorom.bundle import read_array, write_arrays
    meta = read_array(path, "meta")
    edit(meta)
    with np.load(path) as entries:
        stacks = {name: entries[name] for name in entries.files if name != "meta"}
    edit_stacks(stacks)
    write_arrays(path, stacks, meta)


# an interpolant record field, and a value of the wrong type or range
_BAD_RECORD = {"sketch_size": "abc", "seed": -1, "positivity": "yes"}


@pytest.mark.parametrize("name, field", [
    *[pytest.param(name, None, id=name)
      for name in ("manifest.json", "V.json", "trace.json", "blocks.npz")],
    pytest.param("blocks.npz", "names", id="blocks.npz-names"),
    pytest.param("blocks.npz", "terms", id="blocks.npz-terms"),
    *[pytest.param("precond.json", field, id=f"precond.json-{field}") for field in _BAD_RECORD]])
def test_wrong_structure_input_file_exits_with_one_line(workspace, tmp_path, capsys, name,
                                                        field):
    # files that parse but lack the fields the commands read, or hold values
    # of another type or range
    from gorom.bundle import write_arrays
    ws = workspace
    spaces = tmp_path / "spaces"
    shutil.copytree(ws / "spaces", spaces)
    if name == "manifest.json":
        (spaces / name).write_text("[]\n")
    elif name == "V.json":
        (spaces / name).write_text(json.dumps({"name": "V", "dim": 3}))
    elif name == "trace.json":
        (spaces / name).write_text(json.dumps({"config": {}}))
    elif name == "precond.json":
        # no stored blocks, whose identity check would refuse the record first
        (spaces / "blocks.npz").unlink()
        (spaces / name).write_text(json.dumps({
            "sketch_size": 30, "seed": 1, "positivity": True, "points": [], "gram": [],
            "h": [], field: _BAD_RECORD[field]}))
    elif field == "names":
        _rewrite_meta(spaces / name,
                      lambda meta: meta["groups"]["WAV"].update(names=["1", "zzz"]))
    elif field == "terms":
        # a stack short of its last operator term, its identity left as written
        _rewrite_meta(spaces / name, lambda meta: None,
                      lambda stacks: stacks.update(WAV=stacks["WAV"][:-1]))
    else:
        write_arrays(spaces / name, {}, {"groups": {}})
    command = ["compare"] if name == "trace.json" else ["eval", "--method", "primal"]
    capsys.readouterr()
    assert run(*command, "--bundle", ws / "bundle", "--spaces", spaces,
               "--xi-file", ws / "truth.csv", "--out", tmp_path / "out.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert name in err
    assert not (tmp_path / "out.csv").exists()


def _offline(bundle, out, *flags, **cfg):
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps({"max_iter": 3, "train_count": 20, "train_seed": 3,
                                  "precond_sketch": 30, **cfg}))
    assert run("offline", "--bundle", bundle, "--config", config, *flags,
               "--out", out) == 0
    return out


@pytest.mark.parametrize("edit", ["copied-blocks", "edited-basis", "edited-dual-basis",
                                  "edited-interpolant", "file-hash-ids"])
def test_foreign_stored_blocks_exit_with_one_line(workspace, tmp_path, capsys, edit):
    # blocks from other spaces of the same bundle, a basis or interpolant
    # edited after the blocks were written, or blocks that record the sha256
    # of each file, as gorom wrote them before it hashed the loaded arrays:
    # the blocks no longer belong to these spaces
    import hashlib

    from gorom import cli
    ws = workspace
    spaces = tmp_path / "spaces"
    if edit == "edited-interpolant":
        _offline(ws / "bundle", spaces, "--precond")
    else:
        shutil.copytree(ws / "spaces", spaces)
    if edit == "copied-blocks":
        other = _offline(ws / "bundle", tmp_path / "other", max_iter=2)
        shutil.copy(other / "blocks.npz", spaces / "blocks.npz")
        named = "blocks.npz"
    elif edit in ("edited-basis", "edited-dual-basis"):
        named = "V.mtx" if edit == "edited-basis" else "WQ.mtx"
        text = (spaces / named).read_text().splitlines()
        text[-1] = repr(float(text[-1]) * (1 + 1e-15) or 1e-300)
        (spaces / named).write_text("\n".join(text) + "\n")
    elif edit == "edited-interpolant":
        # one interpolation point moved by one ulp
        named = "precond.json"
        record = json.loads((spaces / named).read_text())
        record["points"][0][0] = float(np.nextafter(record["points"][0][0], np.inf))
        (spaces / named).write_text(json.dumps(record))
    else:
        ids = {"bundle": cli._bundle_hash(ws / "bundle"),
               **{name: hashlib.sha256((spaces / name).read_bytes()).hexdigest()
                  for name in ("V.mtx", "WQ.mtx")}}
        _rewrite_meta(spaces / "blocks.npz", lambda meta: meta.update(ids=ids))
        named = "V.mtx"
    capsys.readouterr()
    assert run("estimate", "--bundle", ws / "bundle", "--spaces", spaces,
               "--method", "primal-dual", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "out.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert named in err and "re-run gorom offline" in err
    assert not (tmp_path / "out.csv").exists()


def test_offline_and_stored_estimate_read_no_spaces_file_back(workspace, tmp_path,
                                                              monkeypatch):
    # stored blocks are identified by the arrays in memory: offline hashes
    # what it wrote, and an online command what it loaded, without reading
    # a basis or the interpolant's record again
    import pathlib
    original = pathlib.Path.read_bytes

    def refusing(self):
        assert self.name not in ("V.mtx", "WQ.mtx", "precond.json"), f"read {self} back"
        return original(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", refusing)
    ws = workspace
    spaces = _offline(ws / "bundle", tmp_path / "spaces", "--precond", method="primal-dual")
    assert (spaces / "blocks.npz").is_file() and (spaces / "precond.json").is_file()
    assert run("estimate", "--bundle", ws / "bundle", "--spaces", spaces,
               "--method", "primal-dual", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "delta.csv") == 0


def _outputs(path):
    header, rows = read_csv(path)
    cols = [j for j, h in enumerate(header) if h[:1] == "s" and h[1:].isdigit()]
    return np.array([[float(row[j]) for j in cols] for row in rows])


def test_spaces_without_stored_blocks_evaluate_every_route(workspace, tmp_path):
    # spaces written before blocks.npz existed build every block, as then
    ws = workspace
    old = tmp_path / "old"
    shutil.copytree(ws / "spaces", old)
    (old / "blocks.npz").unlink()
    for method in ("primal", "dual", "primal-dual", "saddle"):
        for spaces in (ws / "spaces", old):
            assert run("eval", "--bundle", ws / "bundle", "--spaces", spaces,
                       "--method", method, "--xi-file", ws / "truth.csv",
                       "--out", tmp_path / f"{spaces.name}-{method}.csv") == 0
        stored, built = (_outputs(tmp_path / f"{s}-{method}.csv") for s in ("spaces", "old"))
        assert np.all(np.isfinite(built)) and built.shape == stored.shape == (12, 5)
        assert np.linalg.norm(stored - built) <= 1e-12 * np.linalg.norm(built), method
    assert run("estimate", "--bundle", ws / "bundle", "--spaces", old, "--method",
               "saddle", "--xi-file", ws / "truth.csv", "--out", tmp_path / "d.csv") == 0


def test_eval_on_stored_spaces_hashes_the_bundle_once(workspace, tmp_path, monkeypatch):
    # the spaces' manifest and the stored blocks are checked against one hash
    from gorom import cli
    hashed = []
    original = cli._bundle_hash

    def counting(path):
        hashed.append(path)
        return original(path)

    monkeypatch.setattr(cli, "_bundle_hash", counting)
    ws = workspace
    assert run("eval", "--bundle", ws / "bundle", "--spaces", ws / "spaces",
               "--method", "primal-dual", "--xi-file", ws / "truth.csv",
               "--out", tmp_path / "est.csv") == 0
    assert len(hashed) == 1


@pytest.mark.parametrize("method", ["primal-dual", "saddle"])
def test_stored_spd_blocks_leave_online_commands_no_full_order_solve(
        workspace, tmp_path, monkeypatch, method):
    # with the blocks of a greedy on the route it ran, eval and estimate on
    # that route read every block from the store: no Riesz solve and no
    # solve with any factorization, once the bundle is loaded
    from gorom import FullOrderModel, cli
    from gorom.model import Factorization
    ws = workspace
    spaces = ws / "spaces" if method == "primal-dual" else \
        _offline(ws / "bundle", tmp_path / "spaces", method="saddle")
    counts = {"riesz": 0, "solve": 0, "loaded": False}
    riesz, solve, load = FullOrderModel.riesz_v0, Factorization.solve, cli.load_bundle

    def counting_riesz(self, X):
        counts["riesz"] += counts["loaded"]
        return riesz(self, X)

    def counting_solve(self, B, transpose=False):
        counts["solve"] += counts["loaded"]
        return solve(self, B, transpose)

    def loading(path):
        model = load(path)
        counts["loaded"] = True
        return model

    monkeypatch.setattr(FullOrderModel, "riesz_v0", counting_riesz)
    monkeypatch.setattr(Factorization, "solve", counting_solve)
    monkeypatch.setattr(cli, "load_bundle", loading)
    for command in ("eval", "estimate"):
        counts["loaded"] = False
        assert run(command, "--bundle", ws / "bundle", "--spaces", spaces,
                   "--method", method, "--xi-file", ws / "truth.csv",
                   "--out", tmp_path / f"{command}.csv") == 0
        assert counts["loaded"] and counts["riesz"] == counts["solve"] == 0, command


@pytest.mark.one_blas_thread
def test_offline_threads_write_the_same_blocks(workspace, tmp_path):
    ws = workspace
    files = [_offline(ws / "bundle", tmp_path / f"spaces-{threads}", "--threads", threads,
                      method="saddle", enrichment="partial") / "blocks.npz"
             for threads in (1, 2)]
    assert files[0].read_bytes() == files[1].read_bytes()


@pytest.fixture(scope="module")
def stored(workspace, tmp_path_factory):
    """Spaces whose blocks hold a route: "primal-dual" (the workspace's),
    "saddle" over the workspace bundle, and "precond", a primal-dual greedy
    with the interpolant on an advection-diffusion bundle; each as (bundle,
    spaces)."""
    ws, out = workspace, tmp_path_factory.mktemp("stored")
    adv = out / "adv"
    assert run("generate", "--kind", "advection-diffusion", "--n", "49", "--d", "3",
               "--l", "2", "--seed", "5", "--out", adv) == 0
    return {"primal-dual": (ws / "bundle", ws / "spaces"),
            "saddle": (ws / "bundle", _offline(ws / "bundle", out / "saddle",
                                               method="saddle")),
            "precond": (adv, _offline(adv, out / "precond", "--precond",
                                      method="primal-dual"))}


@pytest.mark.parametrize("spaces, command, method", [
    ("saddle", "eval", "saddle"), ("saddle", "estimate", "saddle"),
    *[("primal-dual", "eval", method) for method in ("primal", "dual", "primal-dual")],
    ("primal-dual", "estimate", "primal-dual"), ("precond", "eval", "primal")])
def test_stored_routes_parse_no_term_or_gram_v0(stored, tmp_path, monkeypatch, spaces,
                                                command, method):
    # a route the blocks hold reads model.json, R_Z and the spaces: no
    # operator, right-hand side or output term and no R_V0 is parsed
    from gorom import bundle
    original = bundle.read_matrix

    def refusing(path, error=bundle.GoromError):
        assert not path.name.startswith(("A_", "b_", "L_", "R_V0")), f"parsed {path}"
        return original(path, error)

    monkeypatch.setattr(bundle, "read_matrix", refusing)
    bundle_dir, spaces_dir = stored[spaces]
    assert run(command, "--bundle", bundle_dir, "--spaces", spaces_dir, "--method", method,
               "--sample-count", "4", "--out", tmp_path / "out.csv") == 0


def test_corrupt_term_body_is_refused_when_a_route_reads_it(workspace, stored, tmp_path,
                                                           capsys):
    # a term file whose header is valid loads; the stored saddle route never
    # parses it, and the dual route, built from the terms, refuses it
    from gorom import cli
    ws = workspace
    bundle, spaces = tmp_path / "bundle", tmp_path / "spaces"
    shutil.copytree(ws / "bundle", bundle)
    shutil.copytree(stored["saddle"][1], spaces)
    term = bundle / "A_001.mtx"
    lines = term.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + ["abc"])
    term.write_text("\n".join(lines) + "\n")
    # the spaces belong to the edited bundle
    new_hash = cli._bundle_hash(bundle)
    manifest = json.loads((spaces / "manifest.json").read_text())
    (spaces / "manifest.json").write_text(json.dumps({**manifest, "bundle_hash": new_hash}))
    _rewrite_meta(spaces / "blocks.npz", lambda meta: meta["ids"].update(bundle=new_hash))
    common = ["--bundle", bundle, "--spaces", spaces, "--xi-file", ws / "truth.csv"]
    assert run("eval", *common, "--method", "saddle", "--out", tmp_path / "saddle.csv") == 0
    capsys.readouterr()
    assert run("eval", *common, "--method", "dual", "--out", tmp_path / "dual.csv") == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0  # single-line diagnostic
    assert "A_001.mtx" in err and "malformed" in err
    assert not (tmp_path / "dual.csv").exists()


def _table(path, command):
    """The bytes of a command's table, without eval's wall_time_ms column."""
    text = path.read_text()
    if command == "eval":
        text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    return text


@pytest.mark.one_blas_thread
def test_lazy_bundle_writes_what_an_eagerly_read_one_writes(stored, tmp_path, monkeypatch):
    # every route and estimate, stored or built from the terms, writes the
    # same bytes whether the bundle's files are parsed on first use or all
    # before the command starts
    from gorom import cli
    load = cli.load_bundle

    def eager(path):
        model = load(path)
        for form in (model.A, model.b, model.L):
            assert form.terms
        assert model.gram_v0 is not None and model.v0_factor is not None
        return model

    runs = [(command, method) for command, methods in (
        ("eval", ("primal", "dual", "primal-dual", "saddle")),
        ("estimate", ("primal-dual", "saddle"))) for method in methods]
    tables = {}
    for reading in ("lazy", "eager"):
        if reading == "eager":
            monkeypatch.setattr(cli, "load_bundle", eager)
        for which, (bundle, spaces) in stored.items():
            for command, method in runs:
                out = tmp_path / f"{reading}-{which}-{command}-{method}.csv"
                assert run(command, "--bundle", bundle, "--spaces", spaces, "--method",
                           method, "--sample-count", "5", "--out", out) == 0
                tables[reading, which, command, method] = _table(out, command)
    for (reading, *case), table in tables.items():
        if reading == "lazy":
            assert table == tables[("eager", *case)], case


@pytest.mark.parametrize("spaces, method", [("saddle", "primal"), ("saddle", "saddle"),
                                            ("precond", "primal"), ("precond", "dual")])
def test_online_command_frees_its_model_without_the_cycle_collector(stored, tmp_path,
                                                                    monkeypatch, spaces,
                                                                    method):
    # pieces left unread (a term, R_V0's factor, the interpolant's sketch)
    # hold no reference back to their owner, so the model and interpolant
    # of a command go when it returns, not at the next cyclic collection
    import gc
    import weakref

    from gorom import InverseInterpolant, cli
    owners, load, init = [], cli.load_bundle, InverseInterpolant.__init__

    def loading(path):
        model = load(path)
        owners.append(weakref.ref(model))
        return model

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        owners.append(weakref.ref(self))

    monkeypatch.setattr(cli, "load_bundle", loading)
    monkeypatch.setattr(InverseInterpolant, "__init__", tracked)
    bundle_dir, spaces_dir = stored[spaces]
    gc.collect()
    gc.disable()
    try:
        assert run("eval", "--bundle", bundle_dir, "--spaces", spaces_dir, "--method",
                   method, "--sample-count", "3", "--out", tmp_path / "out.csv") == 0
        assert owners and all(ref() is None for ref in owners)
    finally:
        gc.enable()
