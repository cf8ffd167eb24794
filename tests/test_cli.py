import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from discinterp import IllConditionedWarning, __version__, cli
from discinterp.cli import (
    _emit,
    _json_text,
    build_parser,
    main,
    read_sigma_file,
    run,
)

MINIMAL = {
    "basis": ["--sigma", "0.5"],
    "bernstein": ["--sigma", "0.5"],
    "pick": ["--nodes", "0", "--values", "1"],
    "cs": ["--coeffs", "1"],
    "quotient": ["--coeffs", "1", "--sigma", "0.5"],
    "carleson": ["--sigma", "0.5"],
    "constant": ["--sigma", "0.5"],
    "bounds": ["--n", "2", "--r", "0.5"],
    "sweep": ["--n-grid", "2", "--r-grid", "0.5"],
}


def reference_safe(value):
    """The JSON cell conversion the writer keeps: numpy scalars to Python,
    every float infinity to "inf" or "-inf" and every NaN to null."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def reference_cell(value):
    """The CSV cell format the writer keeps."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if value != value:
            return ""
        if value in (np.inf, -np.inf):
            return "inf" if value > 0 else "-inf"
        return format(float(value), ".12g")
    return str(value)


def reference_json(columns, rows, meta):
    """The indented dump of dict records, each cell converted on its own."""
    payload = {
        "meta": {k: reference_safe(v) for k, v in meta.items()},
        "columns": list(columns),
        "records": [{c: reference_safe(v) for c, v in zip(columns, row)} for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_csv(columns, rows, meta):
    lines = [f"# discinterp {meta['version']}"]
    lines += [f"# {k}={reference_cell(v)}" for k, v in meta.items() if k != "version"]
    lines.append(",".join(columns))
    lines += [",".join(map(reference_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def emit_both(tmp_path, argv, rows, meta):
    """_emit's CSV and JSON text for these rows, each with the reference text for the same meta."""
    out = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"emit.{fmt}"
        args = build_parser().parse_args(
            argv + ["--format", fmt, "--reproducible", "--output", str(path)])
        _emit(args, rows, meta)
        full_meta = {"version": __version__, "command": args.command, "seed": args.seed, **meta}
        ref = reference_json if fmt == "json" else reference_csv
        out.append((path.read_text(encoding="utf-8"), ref(args.columns, rows, full_meta)))
    return out


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out


def parse_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].strip().partition("=")
                meta[key] = val
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestCommands:
    def test_near_circle_sweep_has_a_witness(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep", "--space", "hardy", "--n-grid", "32", "--r-grid", "0.999"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        witness = float(rows[0]["witness"])
        assert witness == pytest.approx(87.83992641, rel=1e-9)

    def test_bounds_frozen_row(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "b.csv",
            ["bounds", "--space", "hardy", "--p", "2", "--n", "8", "--r", "0.5"],
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[:7] == ["family", "p", "alpha", "beta", "n", "r", "x"]
        assert float(rows[0]["lower"]) == pytest.approx(0.7071067811865476, abs=1e-10)

    def test_bounds_seq_sup_norm(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "b.csv",
            ["bounds", "--space", "seq", "--p", "inf", "--alpha", "2",
             "--n", "2", "--r", "0.5"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        # 1/(1-t)^2 at t = 1 - (1-r)/n = 0.75
        assert float(rows[0]["phi_scale"]) == pytest.approx(16.0, rel=1e-12)

    def test_bounds_dual_weight_peak_out_of_reach(self, tmp_path):
        # r^(1/n) = 1 - 7e-9 puts the l^3_a(3) dual-weight peak near k = 3e8:
        # the evaluation norm diverges, so phi_scale is empty and the bounds stand
        code, out = run_to_file(
            tmp_path, "b.csv",
            ["bounds", "--space", "seq", "--p", "3", "--alpha", "3",
             "--n", "100000000", "--r", "0.5"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0]["phi_scale"] == ""
        assert 0.0 < float(rows[0]["lower"]) < float(rows[0]["upper"]) < math.inf

    def test_cs_golden(self, tmp_path):
        code, out = run_to_file(tmp_path, "cs.csv", ["cs", "--coeffs", "1,1"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.618034, abs=1e-6)

    def test_pick_schwarz(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "p.csv", ["pick", "--nodes", "0,0.5", "--values", "0,0.5"]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-8)

    def test_quotient_with_sigma_option(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "q.csv",
            ["quotient", "--coeffs", "0,1", "--sigma", "0,0"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-8)
        assert rows[0]["mode"] == "toeplitz"

    def test_basis_emits_coefficients(self, tmp_path):
        code, out = run_to_file(tmp_path, "basis.csv", ["basis", "--sigma", "0,0"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["k", "j", "re", "im"]
        table = {(r["k"], r["j"]): float(r["re"]) for r in rows}
        assert table[("1", "0")] == pytest.approx(1.0)
        assert table[("2", "1")] == pytest.approx(-1.0)

    def test_sweep_reports_a_diverging_phi_scale_as_empty(self, tmp_path):
        # every cell of this grid has an l^2_a(3) evaluation norm: the one at
        # (96, 0.999) needs about 2.0e6 of the 2^21 terms
        code, out = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep", "--space", "seq", "--p", "2", "--alpha", "3",
             "--n-grid", "2,6,12,24,48,64,96", "--r-grid", "0,0.3,0.5,0.9,0.99,0.999"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 42
        assert all(0.0 < float(r["phi_scale"]) < math.inf for r in rows)
        assert all(0.0 < float(r["witness"]) < math.inf for r in rows)
        # at t = 1 - 5e-9 the peak of the l^3_a(3) dual weight is out of
        # reach; that cell is left empty and the sweep goes on
        code, out = run_to_file(
            tmp_path, "far.csv",
            ["sweep", "--space", "seq", "--p", "3", "--alpha", "3",
             "--n-grid", "100000000", "--r-grid", "0.5"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [(r["n"], r["phi_scale"], r["witness"]) for r in rows] == [("100000000", "", "")]

    def test_sweep_reports_a_diverging_witness_as_empty(self, tmp_path):
        # at r = 1 - 1e-7 the witness's series needs more than 2^21 terms
        code, out = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep", "--space", "seq", "--p", "2", "--alpha", "3",
             "--n-grid", "2", "--r-grid", "0.5,0.9999999"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r["r"] for r in rows] == ["0.5", "0.9999999"]
        assert 0.0 < float(rows[0]["witness"]) < math.inf
        assert rows[1]["witness"] == ""

    def test_sweep_reports_a_diverging_estimate_as_empty(self, tmp_path):
        # at r = 1 - 1e-7 the Stein Gram of the estimate's basis diverges too
        code, out = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep", "--space", "seq", "--p", "2", "--alpha", "3",
             "--n-grid", "2", "--r-grid", "0.5,0.9999999",
             "--estimate-cap", "2", "--budget", "2"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [(r["r"], r["witness"], r["estimate"]) for r in rows[1:]] == [("0.9999999", "", "")]
        assert all(0.0 < float(rows[0][key]) < math.inf for key in ("witness", "estimate"))

    def test_sweep_reports_a_gram_without_cholesky_factor_as_empty(self, tmp_path):
        # l^2_a(6) at (0.999,)*32: the Stein Gram of the witness's and the
        # estimate's zeros has no Cholesky factor in double precision
        code, out = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep", "--space", "seq", "--p", "2", "--alpha", "6",
             "--n-grid", "32", "--r-grid", "0.999", "--estimate-cap", "32", "--budget", "2"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [(r["n"], r["r"], r["witness"], r["estimate"]) for r in rows] == [
            ("32", "0.999", "", "")]
        assert 0.0 < float(rows[0]["phi_scale"]) < math.inf

    def test_bernstein_near_circle_needs_no_basis(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "bern.csv", ["bernstein", "--sigma", "0.9999,0.9999"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert 0.0 < float(rows[0]["ratio"]) <= float(rows[0]["bound"])

    def test_bernstein_bound_past_the_float_range_is_inf(self, capsys):
        # from order 171, k! alone is past the float range
        assert main(["bernstein", "--sigma", "0,0", "--order", "200", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert (record["ratio"], record["bound"], record["ratio_over_bound"]) == (0.0, "inf", 0.0)

    def test_bernstein_gram_overflow_is_numerical_failure(self, capsys):
        assert main(["bernstein", "--sigma", "0.5", "--order", "200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("discinterp bernstein: numerical failure: ")
        assert "order-200 Gram overflows" in captured.err

    def test_bernstein_random_sweep(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "bern.csv",
            ["bernstein", "--samples", "5", "--max-n", "4", "--max-r", "0.7"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 5
        assert all(float(r["ratio_over_bound"]) <= 1.0 for r in rows)

    def test_constant_and_carleson(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.csv",
            ["constant", "--sigma", "0.8", "--budget", "2"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(5.0 / 3.0, abs=1e-6)

        code, out = run_to_file(
            tmp_path, "carl.csv",
            ["carleson", "--sigma", "0.4", "--budget", "2"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-6)


class TestDeterminismAndFormats:
    SWEEP = [
        "sweep", "--space", "hardy", "--p", "2",
        "--n-grid", "2,4", "--r-grid", "0,0.5",
        "--estimate-cap", "2", "--budget", "4", "--seed", "9",
    ]

    def test_reproducible_runs_byte_identical(self, tmp_path):
        _, out1 = run_to_file(tmp_path, "s1.csv", self.SWEEP + ["--reproducible"])
        _, out2 = run_to_file(tmp_path, "s2.csv", self.SWEEP + ["--reproducible"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_is_the_only_unstable_line(self, tmp_path):
        _, out1 = run_to_file(tmp_path, "t1.csv", self.SWEEP)
        _, out2 = run_to_file(tmp_path, "t2.csv", self.SWEEP)
        strip = lambda p: [
            ln for ln in p.read_text().splitlines() if not ln.startswith("# generated=")
        ]
        assert strip(out1) == strip(out2)

    def test_json_round_trip(self, tmp_path):
        _, out = run_to_file(
            tmp_path, "s.json", self.SWEEP + ["--format", "json", "--reproducible"]
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["meta"]["command"] == "sweep"
        assert payload["meta"]["seed"] == 9
        assert len(payload["records"]) == 4
        redumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert redumped == out.read_text(encoding="utf-8")

    def test_json_writer_matches_indented_dumps_on_basis(self, tmp_path):
        # thousands of records, over several chunks of rows
        sigma = "0.95,0.95,-0.9j,-0.9j,0.5+0.5i,0.3,0.3,-0.7"
        argv = ["basis", "--sigma", sigma, "--format", "json", "--reproducible"]
        _, out = run_to_file(tmp_path, "b.json", argv)
        text = out.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert len(payload["records"]) > 1000
        # compared as one flag: a diff of two 600 kB strings takes pytest a minute
        same = json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        assert same

    def test_json_writer_without_records(self, tmp_path):
        out = tmp_path / "empty.json"
        args = build_parser().parse_args(
            ["basis", "--sigma", "0.5", "--format", "json", "--reproducible", "--output", str(out)]
        )
        _emit(args, [], {"sigma": "0.5"})
        text = out.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["records"] == []
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text

    def test_json_writer_with_braces_and_newlines_in_strings(self, tmp_path):
        # a string's newline is escaped, so its braces never end a record
        out = tmp_path / "strings.json"
        args = build_parser().parse_args(
            ["pick", "--nodes", "0", "--values", "1", "--format", "json", "--reproducible",
             "--output", str(out)]
        )
        rows = [
            (float("inf"), "},\n      {", None),
            (np.float64(0.5), "}, {\n", "a\"b"),
        ]
        _emit(args, rows, {"note": "},\n      {"})
        text = out.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["records"][0]["certificate"] == "},\n      {"
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize(
        "cell",
        [np.float64(0.25), np.int64(7), float("inf"), float("-inf"), float("nan"),
         0.25, 7, True, None, "inf"],
        ids=repr,
    )
    def test_json_records_match_per_cell_conversion(self, cell, tmp_path):
        # the cell in each column of one row in four, against per-cell conversion
        columns = ("idx", "value", "note")
        plain = [(i, 0.5 * i, "n") for i in range(4)]
        for col in range(len(columns)):
            rows = [*plain[:2], plain[2][:col] + (cell,) + plain[2][col + 1 :], plain[3]]
            for meta in ({}, {"cell": cell}):
                assert _json_text(columns, rows, meta) == reference_json(columns, rows, meta)
            for got, want in emit_both(tmp_path, ["pick", "--nodes", "0", "--values", "1"],
                                       rows, {"cell": cell}):
                assert got == want

    @pytest.mark.parametrize(
        "cell",
        [np.float64("inf"), np.float64("-inf"), np.float32(0.1), np.int8(-3), np.float64("nan"),
         -0.0, 1e300, "%s %d {}", "caf\u00e9 \\ \"q\"\t"],
        ids=repr,
    )
    def test_numpy_infinities_and_awkward_strings_match_per_cell_conversion(self, cell, tmp_path):
        # an infinity is written "inf" and a NaN null whether it is a numpy or a Python float
        columns = ("idx", "value", "note")
        rows = [(0, float("inf"), "n"), (1, cell, "n"), (np.int64(2), 0.5, cell)]
        assert _json_text(columns, rows, {}) == reference_json(columns, rows, {})
        for got, want in emit_both(tmp_path, ["carleson", "--sigma", "0.5"], rows, {"m": cell}):
            assert got == want

    def test_non_finite_cells_give_strict_json(self, tmp_path):
        # a bare NaN or Infinity token is not JSON; parse_constant sees only those
        def refuse(token):
            raise ValueError(f"bare {token} in the artifact")

        rows = [(np.float64("inf"), 1, 2), (float("nan"), np.float64("-inf"), np.float64("nan"))]
        path = tmp_path / "strict.json"
        args = build_parser().parse_args(
            ["carleson", "--sigma", "0.5", "--format", "json", "--reproducible", "--output", str(path)])
        _emit(args, rows, {"slope": np.float64("nan"), "cap": float("inf")})
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        assert data["records"] == [
            {"value": "inf", "n": 1, "budget": 2},
            {"value": None, "n": "-inf", "budget": None},
        ]
        assert (data["meta"]["slope"], data["meta"]["cap"]) == (None, "inf")

    def test_empty_containers(self, tmp_path):
        assert _json_text((), [], {}) == '{\n  "columns": [],\n  "meta": {},\n  "records": []\n}\n'
        for rows in ([], [(1, 2.0, "x")]):
            want = reference_json(("a", "b", "c"), rows, {})
            assert _json_text(("a", "b", "c"), rows, {}) == want

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_every_command_matches_the_reference_writer(self, tmp_path, command):
        args = build_parser().parse_args([command] + MINIMAL[command])
        rows, meta = args.run(args)
        assert rows and all(type(row) is tuple and len(row) == len(args.columns) for row in rows)
        for got, want in emit_both(tmp_path, [command] + MINIMAL[command], rows, meta):
            assert got == want

    def test_large_basis_matches_the_reference_writer(self, tmp_path):
        argv = ["basis", "--sigma", "0.99,0.99"]
        args = build_parser().parse_args(argv)
        rows, meta = args.run(args)
        assert len(rows) > 5000
        (csv_got, csv_want), (json_got, json_want) = emit_both(tmp_path, argv, rows, meta)
        # compared as flags: a diff of two large strings takes pytest minutes
        same_csv, same_json = csv_got == csv_want, json_got == json_want
        assert same_csv and same_json
        data_lines = [ln for ln in csv_got.splitlines() if not ln.startswith("#")][1:]
        assert len(json.loads(json_got)["records"]) == len(rows) == len(data_lines)

    def test_meta_text_that_looks_like_a_record_boundary(self, tmp_path):
        rows = [(1, 2, 0.5, -0.25)]
        meta = {"sigma": "},\n      {", "degree": "},\n    {\n      "}
        for got, want in emit_both(tmp_path, ["basis", "--sigma", "0.5"], rows, meta):
            assert got == want

    def test_csv_uses_lf_endings(self, tmp_path):
        _, out = run_to_file(tmp_path, "lf.csv", self.SWEEP + ["--reproducible"])
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    # written out, not read from build_parser(): columns may only be appended
    HEADERS = {
        "basis": "k,j,re,im",
        "bernstein": "idx,n,r,order,ratio,bound,ratio_over_bound",
        "pick": "value,certificate,mode",
        "cs": "value,certificate,mode",
        "quotient": "value,certificate,mode",
        "carleson": "value,n,budget",
        "constant": "value,n,r,budget",
        "bounds": "family,p,alpha,beta,n,r,x,lower,upper,phi_scale,lower_tag,upper_tag",
        "sweep": "family,p,alpha,beta,n,r,x,witness,estimate,"
        "lower,upper,phi_scale,lower_tag,upper_tag",
    }

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_frozen_columns(self, tmp_path, command):
        argv = [command] + MINIMAL[command] + ["--reproducible"]
        code, out = run_to_file(tmp_path, "h.csv", argv)
        assert code == 0
        header = next(
            ln for ln in out.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")
        )
        assert header == self.HEADERS[command]
        code, out = run_to_file(tmp_path, "h.json", argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["columns"] == self.HEADERS[command].split(",")
        assert all(list(rec) == sorted(payload["columns"]) for rec in payload["records"])


class TestRunConfig:
    """The parsed namespace is the run configuration; build_parser() holds every default."""

    BUDGETS = {"carleson": 64, "constant": 32, "sweep": 16}

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_argparse_defaults_reach_run_config(self, command):
        ns = build_parser().parse_args([command] + MINIMAL[command])
        assert ns.command == command
        assert getattr(ns, "budget", None) == self.BUDGETS.get(command)
        assert ns.seed == 0


class TestSharedParser:
    """main parses with one parser per process; no call leaves state for the next."""

    MIXED = [
        ["constant", "--sigma", "0.5,-0.3j", "--budget", "3", "--seed", "4"],
        ["cs", "--coeffs", "1,1", "--format", "json"],
        ["bounds", "--space", "seq", "--p", "inf", "--alpha", "2", "--n", "3", "--r", "0.5"],
        ["constant", "--sigma", "0.5,-0.3j"],
        ["pick", "--nodes", "0,0.5", "--values", "0,0.5", "--format", "json"],
        ["sweep", "--n-grid", "2", "--r-grid", "0.5", "--estimate-cap", "2", "--budget", "2"],
        ["cs", "--coeffs", "1,1"],
        ["bounds", "--n", "3", "--r", "0.5"],
    ] + [[command] + argv for command, argv in sorted(MINIMAL.items())]

    @staticmethod
    def fresh(tmp_path, name, argv):
        out = tmp_path / name
        code = run(build_parser().parse_args(argv + ["--output", str(out)]))
        return code, out.read_bytes()

    @staticmethod
    def shared(tmp_path, name, argv):
        code, out = run_to_file(tmp_path, name, argv)
        return code, out.read_bytes()

    def test_mixed_calls_match_fresh_parsers(self, tmp_path):
        argvs = [argv + ["--reproducible"] for argv in self.MIXED]
        shared = [self.shared(tmp_path, f"s{i}", argv) for i, argv in enumerate(argvs)]
        fresh = [self.fresh(tmp_path, f"f{i}", argv) for i, argv in enumerate(argvs)]
        assert [code for code, _ in shared] == [0] * len(argvs)
        assert shared == fresh

    def test_options_do_not_leak_into_the_next_call(self, tmp_path):
        first = ["constant", "--sigma", "0.5", "--budget", "3", "--seed", "5",
                 "--space", "seq", "--alpha", "2", "--reproducible"]
        assert main(first + ["--format", "json", "--output", str(tmp_path / "a")]) == 0
        code, out = run_to_file(tmp_path, "b.csv", ["constant", "--sigma", "0.5"])
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert rows[0]["budget"] == "32"
        assert (meta["seed"], meta["space"]) == ("0", "H^2")
        assert "generated" in meta

    # one point of multiplicity 12 near the circle: its jet Gram matrix is
    # nearly singular, and the estimator must not depend on it
    REPEATED = ["constant", "--sigma", ",".join(["0.9"] * 12), "--budget", "2",
                "--reproducible"]

    def test_repeated_call_gives_the_same_artifact_and_no_warning(self, capsys):
        outs = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                assert main(self.REPEATED) == 0
                outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert [w for w in caught if issubclass(w.category, IllConditionedWarning)] == []

    def test_repeated_call_in_one_process_writes_the_same_streams(self):
        # pytest captures warnings, so stderr is compared in a plain process
        code = (f"from discinterp.cli import main\n"
                f"for _ in range(2):\n    main({self.REPEATED!r})\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stderr == ""
        half = len(proc.stdout) // 2
        assert proc.stdout[:half] == proc.stdout[half:]
        assert proc.stdout.startswith("# discinterp")

    @pytest.mark.parametrize("bad", [
        ["constant", "--sigma", "0.5", "--space", "seq"],  # CliError, returned
        ["constant", "--sigma", "0.5", "--budget", "many"],  # argparse, SystemExit
        ["cs", "--coeffs", "1,1", "--no-such-flag"],
        ["frobnicate"],
    ])
    def test_validation_error_leaves_next_call_unchanged(self, tmp_path, capsys, bad):
        argv = ["constant", "--sigma", "0.5,-0.3j", "--budget", "3", "--reproducible"]
        try:
            code = main(bad)
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert self.shared(tmp_path, "after", argv) == self.fresh(tmp_path, "fresh", argv)


SIGMA_OPTIONS = {"--sigma": "0.5,-0.2j", "--sigma-file": "nodes.txt"}
SPACE_OPTIONS = {"--space": "bergman", "--p": "3", "--alpha": "2", "--beta": "1"}
OUTPUT_OPTIONS = {"--format": "json", "--output": "out.json", "--reproducible": None, "--seed": "7"}

# every option of each command with a value that parses (None: a flag)
EVERY_OPTION = {
    "basis": {**SIGMA_OPTIONS},
    "bernstein": {**SIGMA_OPTIONS, "--order": "2", "--samples": "3", "--max-n": "4",
                  "--max-r": "0.7"},
    "pick": {"--nodes": "0,0.5", "--values": "0,0.5"},
    "cs": {"--coeffs": "1,1"},
    "quotient": {"--coeffs": "0,1", **SIGMA_OPTIONS},
    "carleson": {**SIGMA_OPTIONS, "--budget": "5"},
    "constant": {**SIGMA_OPTIONS, **SPACE_OPTIONS, "--budget": "5"},
    "bounds": {**SPACE_OPTIONS, "--n": "3", "--r": "0.5"},
    "sweep": {**SPACE_OPTIONS, "--n-grid": "2,4", "--r-grid": "0,0.5", "--budget": "5",
              "--estimate-cap": "2"},
}


def every_option_argvs(command):
    """The command with every option, as ``--opt value`` and as ``--opt=value``."""
    options = {**EVERY_OPTION[command], **OUTPUT_OPTIONS}
    spaced, joined = [command], [command]
    for option, value in options.items():
        spaced += [option] if value is None else [option, value]
        joined += [option if value is None else f"{option}={value}"]
    return spaced, joined


class TestDispatch:
    """main hands an argv that starts with a command to that command's subparser."""

    @staticmethod
    def dispatched(monkeypatch, argv):
        """The namespace main passes to run for ``argv``."""
        seen = []
        monkeypatch.setattr(cli, "run", lambda args: seen.append(args) or 0)
        assert main(argv) == 0
        return seen[0]

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_every_option_is_covered(self, command):
        sub = build_parser().commands[command]
        options = {s for a in sub._actions for s in a.option_strings if s != "-h"}
        assert options - {"--help"} == set(EVERY_OPTION[command]) | set(OUTPUT_OPTIONS)

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_namespace_matches_the_full_parser(self, monkeypatch, command):
        for argv in ([command] + MINIMAL[command], *every_option_argvs(command)):
            assert self.dispatched(monkeypatch, argv) == build_parser().parse_args(argv)

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        argv = ["pick", "--nodes", "0,0.5", "--values", "0,0.5", "--seed", "3"]
        monkeypatch.setattr(sys, "argv", ["discinterp"] + argv)
        assert self.dispatched(monkeypatch, None) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, code, stream, start", [
        ([], 1, "err", "discinterp: error: the following arguments are required: command"),
        (["nosuch"], 1, "err", "discinterp: error: argument command: invalid choice"),
        (["pick", "--nodes", "0,0.5", "--values", "0,0.5", "--bogus"], 1, "err",
         "discinterp pick: error: unrecognized arguments: --bogus"),
        (["--version"], 0, "out", __version__),
        (["pick", "-h"], 0, "out", "usage: discinterp pick"),
    ])
    def test_exit_status_and_message(self, capsys, argv, code, stream, start):
        # the top-level parser still writes the usage, the help and its errors
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert getattr(captured, stream).startswith(start)
        assert getattr(captured, "err" if stream == "out" else "out") == ""

    def test_a_command_skips_the_top_level_parser(self, monkeypatch, capsys):
        top = cli._parser()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return argparse.ArgumentParser.parse_known_args(top, *args, **kwargs)

        monkeypatch.setattr(top, "parse_known_args", counted)
        assert main(["cs", "--coeffs", "1,1"]) == 0
        assert calls == []
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert len(calls) == 1


class TestValidation:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["cs", "--coeffs", "1,1", "--no-such-flag"])
        assert exc.value.code == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_sigma_is_validation_error(self, capsys):
        assert main(["carleson"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_nodes_are_validation_error(self):
        assert main(["pick", "--nodes", "0,0", "--values", "0,1"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # no certified cut within 2^16 columns at r = 0.9999
        code = main(["basis", "--sigma", "0.9999", "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_linalg_error_is_numerical_failure(self, capsys):
        # np.linalg.LinAlgError is a ValueError, yet it must not exit 1
        def failing(args):
            raise np.linalg.LinAlgError("SVD did not converge")

        args = build_parser().parse_args(["cs", "--coeffs", "1"])
        args.run = failing
        assert run(args) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["constant", "--sigma", "nan"],
        ["pick", "--nodes", "0,0.5", "--values", "0,nan"],
        ["cs", "--coeffs", "1,nan"],
        ["quotient", "--coeffs", "1,nan", "--sigma", "0.5"],
        ["basis", "--sigma", "nan"],
    ])
    def test_non_finite_input_is_validation_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"discinterp {argv[0]}: error: cannot parse")

    @pytest.mark.parametrize("weight", [
        ["--space", "seq", "--alpha", "nan"],
        ["--space", "seq", "--alpha", "inf"],
        ["--space", "bergman", "--beta", "nan"],
        ["--space", "bergman", "--beta", "inf"],
    ])
    def test_non_finite_weight_is_validation_error(self, capsys, weight):
        # not a kernel series summed to 2^21 terms and a numerical failure
        assert main(["constant", "--sigma", "0.5"] + weight) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("discinterp constant: error:")
        assert "finite" in captured.err

    @pytest.mark.parametrize("argv", [
        ["constant", "--sigma", "0.5", "--budget", "-3"],
        ["carleson", "--sigma", "0.5", "--budget", "0"],
        ["sweep", "--n-grid", "2", "--r-grid", "0.5", "--budget", "0"],
    ])
    def test_budget_below_one_is_validation_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"discinterp {argv[0]}: error: argument --budget")

    @pytest.mark.parametrize("argv", [
        ["constant", "--sigma", "0.5", "--seed", "-1"],
        ["bernstein", "--samples", "2", "--seed", "-1"],
        ["sweep", "--n-grid", "2", "--r-grid", "0.5", "--estimate-cap", "2", "--seed", "-1"],
        ["sweep", "--n-grid", "2", "--r-grid", "0.5", "--estimate-cap", "-1"],
    ])
    def test_negative_seed_is_validation_error(self, capsys, argv):
        # an argparse error naming the option, not numpy's "expected
        # non-negative integer", and no --estimate-cap -1 run as 0
        option = argv[argv.index("-1") - 1]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"discinterp {argv[0]}: error: argument {option}")

    @pytest.mark.parametrize("argv, option", [
        (["--samples", "2", "--max-n", "0"], "--max-n"),
        (["--samples", "2", "--max-n", "-3"], "--max-n"),
        (["--samples", "-1"], "--samples"),
        (["--sigma", "0.5", "--order", "0"], "--order"),
        (["--samples", "2", "--max-r", "-0.5"], "--max-r"),
        (["--samples", "2", "--max-r", "1"], "--max-r"),
        (["--samples", "2", "--max-r", "1.5"], "--max-r"),
        (["--samples", "2", "--max-r", "nan"], "--max-r"),
    ])
    def test_bernstein_counts_below_range_are_validation_errors(self, capsys, argv, option):
        # not numpy's bare "low >= high", nor --samples -1 taken as no sampling,
        # nor a --max-r outside [0, 1) that fails only when a draw leaves the disc
        with pytest.raises(SystemExit) as exc:
            main(["bernstein"] + argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"discinterp bernstein: error: argument {option}")

    def test_stein_gram_without_cholesky_factor_exit_code(self, capsys):
        argv = ["constant", "--sigma", "0.999,0.999,0.3,0.999,-0.5j", "--space", "seq",
                "--alpha", "6"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Stein Gram" in err and "lambda_max(S) / kappa_0" in err

    def test_sigma_file_multiplicity_and_comments(self, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text(
            "# two nodes, one doubled\n0.5 0.0 2\n-0.25 0.1\n", encoding="utf-8"
        )
        pts = read_sigma_file(str(path))
        assert pts == (0.5 + 0j, 0.5 + 0j, -0.25 + 0.1j)

    @pytest.mark.parametrize("target", ["missing.txt", "."])
    def test_unreadable_sigma_file_is_validation_error(self, tmp_path, target):
        # a missing path and a directory: exit 1 with the one-line diagnostic
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "discinterp", "basis", "--sigma-file",
             str(tmp_path / target)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("discinterp basis: error: cannot read --sigma-file")

    @pytest.mark.parametrize("argv, target", [
        (["basis", "--sigma", "0.5"], "missing/x.csv"),
        (["cs", "--coeffs", "1,1"], "."),
    ])
    def test_unwritable_output_is_validation_error(self, tmp_path, argv, target):
        # a missing directory and a directory: exit 1 with the one-line diagnostic
        src = Path(__file__).resolve().parents[1] / "src"
        path = str(tmp_path / target)
        proc = subprocess.run(
            [sys.executable, "-m", "discinterp", *argv, "--output", path],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(
            f"discinterp {argv[0]}: error: cannot write --output {path!r}: "
        )

    def test_sigma_file_via_quotient(self, tmp_path):
        path = tmp_path / "sigma.txt"
        path.write_text("0.0 0.0 2\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main(
            ["quotient", "--coeffs", "0,1", "--sigma-file", str(path),
             "--output", str(out)]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-8)


SCIPY_FREE = [
    ["cs", "--coeffs", "1,1"],
    ["pick", "--nodes", "0,0.5", "--values", "0,0.5"],
    ["quotient", "--coeffs", "1,2", "--sigma", "0.5,0.5,-0.2j"],
    ["basis", "--sigma", "0.5,-0.2+0.3j"],
    ["bernstein", "--sigma", "0.5,0.5,-0.3j"],  # H^2: no kernel diagonal
    ["constant", "--space", "hardy", "--sigma", "0.5,0.5,-0.3j", "--budget", "4"],
    ["constant", "--space", "bergman", "--beta", "1", "--sigma", "0.5,0.3j,-0.4", "--budget", "2"],
    ["constant", "--space", "seq", "--alpha", "1.5", "--sigma", "0.5,0.5,-0.3j", "--budget", "2"],
    ["carleson", "--sigma", "0.5,-0.3j", "--budget", "4"],
    ["sweep", "--space", "hardy", "--n-grid", "1,3", "--r-grid", "0,0.5", "--estimate-cap", "2",
     "--budget", "2"],
    ["sweep", "--space", "bergman", "--beta", "-0.5", "--n-grid", "1,3", "--r-grid", "0,0.5",
     "--estimate-cap", "2", "--budget", "2"],
    ["bounds", "--space", "bergman", "--beta", "2.5", "--n", "4", "--r", "0.7"],
]


def _fresh_json(code: str):
    """What ``code``, run in a fresh interpreter, prints as JSON."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return json.loads(proc.stdout)


def _loaded_scipy(code: str) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    code += "\nimport json, sys"
    code += "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    return _fresh_json(code)


def test_import_and_light_commands_load_no_scipy():
    # scipy takes most of the import time; only the Gauss-Jacobi rule of the
    # Bergman norms at odd or fractional p imports it, on first use, so no
    # Hilbert-space command loads it
    code = f"""
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
steps = {{}}
import discinterp
steps["import discinterp"] = loaded()
from discinterp import cli
steps["import discinterp.cli"] = loaded()
for argv in {SCIPY_FREE!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        steps[" ".join(argv)] = [cli.main(argv)] + loaded()
print(json.dumps(steps))
"""
    steps = _fresh_json(code)
    assert steps.pop("import discinterp") == []
    assert steps.pop("import discinterp.cli") == []
    assert steps == {" ".join(argv): [0] for argv in SCIPY_FREE}


def test_hilbert_space_library_calls_load_no_scipy():
    code = """
import numpy as np
from discinterp import (CoeffSeries, SigmaSet, bergman_radial, gram_matrix, hardy,
                        min_norm_trace, norm, seq_weighted)
sigma = SigmaSet((0.5, 0.5, -0.3j, 0.7))
for space in (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, -0.5)):
    min_norm_trace(space, sigma, np.arange(1.0, 5.0))
gram_matrix(bergman_radial(2, 1.0), sigma)
norm(bergman_radial(4, 0.5), CoeffSeries([1.0, 2.0, -1.0j]))
"""
    assert _loaded_scipy(code) == []


def test_odd_p_bergman_norm_loads_scipy_special():
    # the one documented use: roots_jacobi in the radial rule of spaces._radial_rule
    code = "from discinterp import CoeffSeries, bergman_radial, norm\n"
    code += "norm(bergman_radial(3, 1.0), CoeffSeries([1.0, 2.0, -1.0j]))"
    assert "scipy.special" in _loaded_scipy(code)
