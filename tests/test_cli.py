import codecs
import contextlib
import copy
import inspect
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import dedact
import dedact.runner as runner
from dedact import cli, errors
from dedact.cli import main
from dedact.core import MOMENT_BLOCK_ROWS, DataMatrix, TargetVector, derive_seed
from dedact.errors import ConfigError, DedactError, MissingTarget, ParseError
from dedact.importance import ImportanceEvaluator
from dedact.runner import RunConfig, ingest_csv, run, run_biomarker_demo, run_census_demo, train_eval_split
from dedact.scm import biomarker_scm, census_scm, sample_scm


class TestIngestCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_target_in_middle(self, tmp_path):
        path = self._write(tmp_path, "a,y,b\n1,2,3\n4,5,6\n")
        data, target = ingest_csv(path, "y")
        assert data.column_names == ("a", "b")
        assert data.values.tolist() == [[1.0, 3.0], [4.0, 6.0]]
        assert target.values.tolist() == [2.0, 5.0]

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\nzz,4\n")
        with pytest.raises(ParseError, match=r"row 3.*'a'"):
            ingest_csv(path, "y")

    def test_nan_cell_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,y\nnan,2\n3,4\n")
        with pytest.raises(ParseError, match="row 2"):
            ingest_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ParseError, match="no header"):
            ingest_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = self._write(tmp_path, "a,y\n")
        with pytest.raises(ParseError, match="no data rows"):
            ingest_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            ingest_csv(path, "y")

    def test_missing_target_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(MissingTarget):
            ingest_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            ingest_csv(tmp_path / "nope.csv", "y")

    def test_rows_parsed_as_read(self, tmp_path):
        # holding every row's text (about 20 n d doubles here) is what
        # set the peak memory of a run on a CSV; parsed as read into one
        # array of doubles, the peak is about two copies of the values
        n, d = 10000, 5
        values = np.random.default_rng(0).standard_normal((n, d))
        path = self._write(tmp_path, ",".join(f"c{i}" for i in range(d)) + "\n"
                           + "".join(",".join(map(repr, row.tolist())) + "\n" for row in values))
        tracemalloc.start()
        try:
            data, target = ingest_csv(path, "c0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(data.values, values[:, 1:]) and np.array_equal(target.values, values[:, 0])
        assert peak < 8 * values.nbytes

    @pytest.mark.parametrize("header,message", [
        ("a,y,y", "header column 3 repeats the name 'y' of column 2"),
        ("y,a,y", "header column 3 repeats the name 'y' of column 1"),
        ("a,a,y", "header column 2 repeats the name 'a' of column 1"),
        ("a,,y", "header column 2 has an empty name"),
        ("a, ,y", "header column 2 has an empty name"),
    ])
    def test_duplicate_or_empty_header_name(self, tmp_path, header, message):
        path = self._write(tmp_path, header + "\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError) as info:
            ingest_csv(path, "y")
        assert str(info.value) == f"{path}: {message}"

    def test_parse_buffer_freed_on_return(self, tmp_path):
        # parsed values go straight into one array of doubles, so the peak
        # is that buffer and the features and target copied out of it
        # (about 2 n d doubles; a list of one float object per value made
        # it about 6). The target is a copy, not a view, so the buffer is
        # freed on return.
        n, d = 10000, 5
        values = np.random.default_rng(1).standard_normal((n, d))
        path = self._write(tmp_path, ",".join(f"c{i}" for i in range(d)) + "\n"
                           + "".join(",".join(map(repr, row.tolist())) + "\n" for row in values))
        tracemalloc.start()
        try:
            data, target = ingest_csv(path, "c2")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(data.values, values[:, [0, 1, 3, 4]]) and np.array_equal(target.values, values[:, 2])
        assert target.values.flags.c_contiguous and target.values.base is None
        assert peak < 3 * values.nbytes
        assert held < 1.2 * values.nbytes

    def test_field_past_the_csv_limit_names_the_row(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n" + "1" * 200_000 + ",2\n3,4\n")
        with pytest.raises(ParseError) as info:
            ingest_csv(path, "y")
        assert str(info.value) == f"{path}: row 3: field larger than field limit (131072)"

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"a,y\n1,2\n3,4\n")
        data, target = ingest_csv(path, "a")
        assert data.column_names == ("y",)
        assert target.values.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("text,row", [
        (b"caf\xe9,y\n1,2\n3,4\n", 1),
        (b"a,y\n1,2\n3,4\n\xe9,5\n", 4),
        # past the first block a text reader decodes ahead of its rows
        (b"a,y\n" + b"1.25,2.5\n" * 3000 + b"3,4\xff\n5,6\n", 3002),
    ], ids=["header", "row", "far-row"])
    def test_undecodable_bytes_name_the_row(self, tmp_path, text, row):
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError) as info:
            ingest_csv(path, "y")
        assert str(info.value).startswith(f"{path}: row {row} is not UTF-8 text")


class TestSimulateCommand:
    def test_round_trip_is_lossless(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--scm", "biomarker", "--n", "50", "--seed", "3",
                     "--include-observed", "--out", str(out)])
        assert code == 0
        data, target = ingest_csv(out, "L")
        ref_data, ref_target = sample_scm(biomarker_scm(), 50, seed=3, include_observed=True)
        assert data.column_names == ref_data.column_names
        assert np.array_equal(data.values, ref_data.values)
        assert np.array_equal(target.values, ref_target.values)

    def test_default_excludes_observed(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scm", "biomarker", "--n", "20", "--seed", "0",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["B", "C", "L"]

    @pytest.mark.parametrize("key,change", [
        ("edges", lambda c: c.pop("edges")),
        ("roles", lambda c: c.pop("roles")),
        ("nodes", lambda c: c.update(nodes="BCPYL")),
        ("noise_std", lambda c: c.update(noise_std=[1.0])),
        ("noise_std", lambda c: c["noise_std"].update(B="x")),
        ("coefficient", lambda c: c["edges"][0].pop("coefficient")),
        ("coefficient", lambda c: c["edges"][0].update(coefficient="x")),
        ("parent", lambda c: c["edges"][0].update(parent=["B"])),
        ("mapping", lambda c: c.clear()),
        ("'B' -> 'L' twice", lambda c: c["edges"].append(dict(c["edges"][0], coefficient=2.0))),
        ("'edgez'", lambda c: c.update(edgez=[])),
        ("unknown key 'weight' in the edge 'B' -> 'L'", lambda c: c["edges"][0].update(weight=5.0)),
        ("'noise_std' names 'Q'", lambda c: c["noise_std"].update(Q=1.0)),
        ("'roles' names 'Q'", lambda c: c["roles"].update(Q="feature")),
    ], ids=["no-edges", "no-roles", "nodes-string", "noise_std-list", "noise_std-string",
            "no-coefficient", "coefficient-string", "parent-list", "not-a-mapping",
            "edge-twice", "unknown-key", "unknown-edge-key", "noise_std-stray-name", "roles-stray-name"])
    def test_malformed_scm_file_exit_3(self, tmp_path, capsys, key, change):
        raw = biomarker_scm().to_config()
        change(raw)
        scm = tmp_path / "scm.yaml"
        scm.write_text(yaml.safe_dump(raw or ["B"]))
        run_config = _config(tmp_path, dict(_BASE, data={"scm": str(scm), "n": 200}))
        for argv in (["simulate", "--scm", str(scm), "--n", "20", "--seed", "0", "--out", str(tmp_path / "o.csv")],
                     ["importance", "--config", str(run_config)]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error") and str(scm) in err and key in err

    # an --n of 10**15 rows is more than any address space holds, so the
    # sampler's matrix is refused before any memory is taken
    @pytest.mark.parametrize("flag,value", [("--n", "-5"), ("--n", "0"), ("--n", "1"), ("--n", str(10**15)),
                                            ("--seed", "-1")])
    def test_bad_flag_exit_2(self, tmp_path, capsys, flag, value):
        argv = {"--scm": "biomarker", "--n": "20", "--seed": "0", "--out": str(tmp_path / "sim.csv")}
        argv[flag] = value
        assert main(["simulate", *(x for item in argv.items() for x in item)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and flag in err and value in err
        assert not (tmp_path / "sim.csv").exists()

    def test_custom_scm_config(self, tmp_path):
        cfg = tmp_path / "scm.yaml"
        cfg.write_text(yaml.safe_dump(biomarker_scm().to_config()))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scm", str(cfg), "--n", "20", "--seed", "0",
                     "--out", str(out)]) == 0
        assert out.exists()


def _config(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def _price_copy_csv(path, seed):
    """400 rows: price of scale 1e4, price_copy an exact copy of it, c,
    and the target y = c + noise."""
    rng = np.random.default_rng(seed)
    price = 1e4 * rng.standard_normal(400)
    c = rng.standard_normal(400)
    y = c + rng.standard_normal(400)
    rows = zip(price.tolist(), price.tolist(), c.tolist(), y.tolist())
    path.write_text("price,price_copy,c,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))


_BASE = {
    "seed": 0,
    "data": {"scm": "biomarker", "n": 2000, "include_observed": True},
    "n_mc": 4,
    "measures": [
        {"name": "pfi_C", "measure": "PFI", "interest": ["C"]},
        {"name": "ai_P", "measure": "AI", "interest": ["P"], "baseline": []},
    ],
    "decompositions": [
        {"name": "pfi_C_sources", "kind": "pfi", "method": "fast", "target": "C"},
    ],
}


class TestRunCommands:
    def test_importance_runs_measures_only(self, tmp_path):
        cfg = _config(tmp_path, _BASE)
        out = tmp_path / "out"
        assert main(["importance", "--config", str(cfg), "--out", str(out)]) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert {e["name"] for e in bundle["estimates"]} == {"pfi_C", "ai_P"}
        assert bundle["tables"] == []

    def test_decompose_runs_tables_only(self, tmp_path):
        cfg = _config(tmp_path, _BASE)
        out = tmp_path / "out"
        assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["estimates"] == []
        assert [t["name"] for t in bundle["tables"]] == ["pfi_C_sources"]
        assert (out / "table_pfi_C_sources.csv").exists()
        assert (out / "estimates.csv").exists()

    def test_stdout_json_when_no_outdir(self, tmp_path, capsys):
        cfg = _config(tmp_path, _BASE)
        assert main(["importance", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 0

    def test_config_error_exit_2(self, tmp_path, capsys):
        overlap = [{"name": "bad", "measure": "DI", "interest": ["C"], "baseline": ["C"]}]
        for raw, key in (
            ({"data": {"scm": "biomarker"}}, "seed"),  # no seed
            (dict(_BASE, seed="abc"), "seed"),
            (dict(_BASE, measures=overlap), "overlaps"),
        ):
            cfg = _config(tmp_path, raw)
            assert main(["importance", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and key in err

    @pytest.mark.parametrize("command,change,block,key", [
        ("decompose", {"decompositions": [{"name": "t", "kind": "pfi", "method": "fast"}]},
         "t", "target"),
        ("decompose", {"decompositions": [{"name": "t", "method": "fast_ordered", "target": "C"}]},
         "t", "order"),
        ("importance", {"measures": [{"name": "m", "measure": "PFI"}]}, "m", "interest"),
        ("importance", {"measures": ["PFI"]}, "measures", "PFI"),
        ("importance", {"n_mc": "abc"}, "config", "n_mc"),
        ("decompose", {"decompositions": [{"name": "t", "method": "shapley", "target": "C",
                                           "n_orders": "x"}]}, "t", "n_orders"),
        # counts below 1
        ("importance", {"n_mc": 0}, "config", "n_mc"),
        ("importance", {"measures": [{"name": "m", "measure": "PFI", "interest": ["C"], "n_mc": 0}]},
         "m", "n_mc"),
        ("importance", {"measures": [{"name": "m", "measure": "SAGE_attribution", "interest": ["C"],
                                      "n_orders": 0}]}, "m", "n_orders"),
        ("importance", {"measures": [{"name": "m", "measure": "SAGE_attribution", "interest": ["C"],
                                      "n_orders": -1}]}, "m", "n_orders"),
        ("decompose", {"decompositions": [{"name": "t", "kind": "sage", "method": "fast", "target": "C",
                                           "n_orders": 0}]}, "t", "n_orders"),
        ("decompose", {"decompositions": [{"name": "t", "method": "shapley", "target": "C",
                                           "n_orders": 0}]}, "t", "n_orders"),
        ("decompose", {"decompositions": [{"name": "t", "kind": "sage", "method": "shapley", "target": "C",
                                           "n_sage_orders": 0}]}, "t", "n_sage_orders"),
        ("decompose", {"decompositions": [{"name": "t", "kind": "sage", "method": "shapley", "target": "C",
                                           "n_decomp_orders": 0}]}, "t", "n_decomp_orders"),
        # a split fraction that is no real strictly between 0 and 1
        *(("importance", {"split_fraction": value}, "config", "split_fraction")
          for value in ("abc", "0.5", None, True, 0.0, 1.0, -0.5, 1.5, float("nan"))),
        # 0.999 of 500 rows leaves no evaluation rows
        ("importance", {"split_fraction": 0.999, "data": dict(_BASE["data"], n=500)}, "config", "split_fraction"),
        # an output block that is no mapping of a string directory and a list of formats
        ("importance", {"output": ["x"]}, "output", "output"),
        ("importance", {"output": None}, "output", "output"),
        ("importance", {"output": {"formats": "json"}}, "output", "formats"),
        ("importance", {"output": {"formats": ["xml"]}}, "output", "formats"),
        ("importance", {"output": {"formats": []}}, "output", "formats"),
        ("importance", {"output": {"directory": 5}}, "output", "directory"),
        # too few rows for two rows on each side of the split
        *(("importance", {"data": dict(_BASE["data"], n=value)}, "data", "'n'")
          for value in (-5, 0, 3, "abc")),
        # unknown enumerated values
        ("importance", {"measures": [{"name": "m", "measure": "DI", "interest": ["C"], "mode": "weird"}]},
         "m", "mode"),
        ("importance", {"measures": [{"name": "m", "measure": "SAGE_value", "interest": ["C"],
                                      "variant": "other"}]}, "m", "variant"),
        ("decompose", {"decompositions": [{"name": "t", "method": "shapley", "target": "C",
                                           "solver": "magic"}]}, "t", "solver"),
        ("importance", {"loss": "foo"}, "config", "loss"),
        # keys of the wrong YAML type: column keys are lists of names,
        # `target` is one name, blocks are mappings, integers are integers
        ("importance", {"measures": [{"name": "m", "measure": "PFI", "interest": 5}]}, "m", "interest"),
        ("importance", {"model": {"support": 5}}, "model", "support"),
        ("importance", {"model": ["B"]}, "model", "model"),
        ("decompose", {"decompositions": [{"name": "t", "method": "fast_ordered", "target": "C",
                                           "order": 3}]}, "t", "order"),
        ("decompose", {"decompositions": [{"name": "t", "target": "C", "sources": "BC"}]}, "t", "sources"),
        ("decompose", {"decompositions": [{"name": "t", "target": ["C"]}]}, "t", "target"),
        ("importance", {"data": 5}, "data", "data"),
        ("importance", {"data": {"csv": 5, "target_column": "L"}}, "data", "csv"),
        ("importance", {"data": {"csv": "x.csv", "target_column": ["L"]}}, "data", "target_column"),
        ("importance", {"measures": [{"name": 5, "measure": "PFI", "interest": ["C"]}]}, "measures", "name"),
        ("importance", {"seed": -1}, "config", "seed"),
        ("importance", {"seed": 1.5}, "config", "seed"),
        ("importance", {"seed": True}, "config", "seed"),
        ("importance", {"measures": [{"name": "m", "measure": "PFI", "interest": ["C"], "seed": -1}]},
         "m", "seed"),
        ("decompose", {"decompositions": [{"name": "t", "target": "C", "seed": -1}]}, "t", "seed"),
        ("importance", {"n_mc": 2.7}, "config", "n_mc"),
        ("importance", {"data": dict(_BASE["data"], n=500.0)}, "data", "'n'"),
        ("importance", {"data": {"scm": 5}}, "data", "scm"),
        ("importance", {"data": {}}, "data", "either 'csv' or 'scm'"),
        # a change given as text is the whole file: no mapping of keys
        ("importance", "", "config", "an empty file"),
        ("importance", "[seed, data]", "config", "a YAML list"),
        # more rows than any address space holds (past numpy's largest
        # dimension at 10**20): the sampler's matrix is never allocated
        *(("importance", {"data": dict(_BASE["data"], n=value)}, "data", "'n'") for value in (10**15, 10**20)),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, command, change, block, key):
        if isinstance(change, str):
            cfg = tmp_path / "run.yaml"
            cfg.write_text(change)
        else:
            cfg = _config(tmp_path, dict(_BASE, **change))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"[{block}]" in err and key in err

    @pytest.mark.parametrize("block", [
        {"kind": "pfi", "method": "shapley", "solver": "exact", "target": "c0"},
        {"kind": "sage", "method": "shapley", "solver": "exact", "target": "c0",
         "pathways": [f"c{i}" for i in range(16)]},
    ], ids=["pfi-every-column", "sage-pathways"])
    def test_exact_solver_past_its_limit_exit_2_before_the_fits(self, tmp_path, capsys, monkeypatch, block):
        names = [f"c{i}" for i in range(16)] + ["y"]
        rows = np.random.default_rng(0).standard_normal((40, len(names))).tolist()
        (tmp_path / "wide.csv").write_text(",".join(names) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        fits = []
        monkeypatch.setattr("dedact.runner.fit_ols", lambda *args: fits.append(args))
        cfg = _config(tmp_path, {"seed": 0, "data": {"csv": str(tmp_path / "wide.csv"), "target_column": "y"},
                                 "decompositions": [dict(block, name="big")]})
        assert main(["decompose", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "[big] 'solver' exact" in err and "got 16" in err
        assert fits == []

    def test_output_path_that_is_a_file_exit_2_before_loading(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        # the data file does not exist: exit 2, not 3, shows the path is checked first
        missing = dict(_BASE, data={"csv": str(tmp_path / "data.csv"), "target_column": "y"})
        cfg = str(_config(tmp_path, missing))
        for argv, path in (
            (["importance", "--config", str(_config(tmp_path, dict(missing, output={"directory": str(afile)}),
                                                    "out.yaml"))], afile),
            (["importance", "--config", cfg, "--out", str(afile)], afile),
            (["decompose", "--config", cfg, "--out", str(afile / "sub")], afile / "sub"),
            (["demo", "biomarker", "--out", str(afile)], afile),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and "[output]" in err and str(path) in err
        assert afile.read_text() == "" and sorted(tmp_path.iterdir()) == [afile, tmp_path / "out.yaml",
                                                                          tmp_path / "run.yaml"]

    def test_every_block_checked_before_the_first_evaluation(self, monkeypatch):
        calls = []
        evaluate = ImportanceEvaluator.evaluate

        def spy(self, spec):
            calls.append(spec)
            return evaluate(self, spec)

        monkeypatch.setattr(ImportanceEvaluator, "evaluate", spy)
        last = {"name": "last", "kind": "pfi", "method": "fast", "target": "nope"}
        with pytest.raises(ConfigError, match=r"\[last\] unknown column 'nope'"):
            run(RunConfig(dict(_BASE, decompositions=_BASE["decompositions"] + [last])))
        assert calls == []

    def test_overlap_found_before_the_first_evaluation(self, monkeypatch):
        calls = []
        evaluate = ImportanceEvaluator.evaluate

        def spy(self, spec):
            calls.append(spec)
            return evaluate(self, spec)

        monkeypatch.setattr(ImportanceEvaluator, "evaluate", spy)
        for kind in ("DI", "AI", "DI_from", "AI_via"):
            bad = {"name": "bad", "measure": kind, "interest": ["C", "P"], "baseline": ["B", "P"], "aux": ["B"]}
            with pytest.raises(ConfigError, match=r"^\[bad\] 'interest' overlaps 'baseline' on P$"):
                run(RunConfig(dict(_BASE, measures=_BASE["measures"] + [bad])))
        assert calls == []

    @staticmethod
    def _table_names_exit_2(tmp_path, capsys, monkeypatch, names):
        """Decompositions with these names exit 2 before the first fit and
        write nothing; returns the error message."""
        fits = []
        monkeypatch.setattr(runner, "fit_gaussian", lambda *args: fits.append(args))
        blocks = [dict(_BASE["decompositions"][0], name=name) for name in names]
        out = tmp_path / "out"
        cfg = _config(tmp_path, dict(_BASE, decompositions=blocks))
        assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 2
        assert fits == [] and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error") and "[decompositions]" in err and "'name'" in err
        return err

    @pytest.mark.parametrize("name", ["a/b", "a\\b", "a\0b", "/"])
    def test_table_name_that_is_no_file_name_exit_2(self, tmp_path, capsys, monkeypatch, name):
        err = self._table_names_exit_2(tmp_path, capsys, monkeypatch, ["ok", name])
        assert f"entry 1: 'name' {name!r} holds a path separator or NUL" in err

    def test_repeated_table_name_exit_2(self, tmp_path, capsys, monkeypatch):
        err = self._table_names_exit_2(tmp_path, capsys, monkeypatch, ["t", "u", "t"])
        assert "entry 2: 'name' 't' repeats entry 0's" in err

    @staticmethod
    def _exit_2_before_the_fit(tmp_path, capsys, monkeypatch, change) -> str:
        """A config of _BASE with the change exits 2 before the model is
        fitted; returns the error message."""
        fits = []
        monkeypatch.setattr(runner, "fit_ols", lambda *args: fits.append(args))
        command = "decompose" if "decompositions" in change else "importance"
        assert main([command, "--config", str(_config(tmp_path, dict(_BASE, **change)))]) == 2
        assert fits == []
        return capsys.readouterr().err

    @pytest.mark.parametrize("change,block,key", [
        ({"n_mcc": 3}, "config", "n_mcc"),
        ({"data": dict(_BASE["data"], rows=500)}, "data", "rows"),
        ({"model": {"suport": ["B"]}}, "model", "suport"),
        ({"output": {"formats": ["json"], "dir": "out"}}, "output", "dir"),
        ({"measures": [{"name": "m", "measure": "PFI", "interest": ["C"], "n_mcc": 1}]}, "m", "n_mcc"),
        ({"measures": [{"measure": "SAGE_attribution", "interest": ["C"], "n_order": 2}]},
         "SAGE_attribution", "n_order"),
        ({"decompositions": [{"name": "t", "kind": "sage", "method": "shapley", "target": "C",
                              "n_sage_order": 2}]}, "t", "n_sage_order"),
    ])
    def test_unknown_key_exit_2(self, tmp_path, capsys, monkeypatch, change, block, key):
        # a misspelt key would leave its default in force without a word
        err = self._exit_2_before_the_fit(tmp_path, capsys, monkeypatch, change)
        assert err.startswith(f"config error: [{block}] unknown key {key!r}")

    @pytest.mark.parametrize("change,block,key,column", [
        ({"measures": [{"name": "m", "measure": "DI", "interest": ["C", "C"]}]}, "m", "interest", "C"),
        ({"measures": [{"name": "m", "measure": "AI", "interest": ["C"], "baseline": ["B", "P", "B"]}]},
         "m", "baseline", "B"),
        ({"measures": [{"name": "m", "measure": "DI_from", "interest": ["C"], "baseline": ["B", "P"],
                        "aux": ["P", "P"]}]}, "m", "aux", "P"),
        ({"model": {"support": ["B", "C", "C"]}}, "model", "support", "C"),
        ({"decompositions": [{"name": "t", "kind": "pfi", "method": "shapley", "target": "C",
                              "sources": ["B", "B", "P"]}]}, "t", "sources", "B"),
        ({"decompositions": [{"name": "t", "kind": "sage", "method": "fast", "target": "C",
                              "pathways": ["P", "B", "P"]}]}, "t", "pathways", "P"),
        ({"decompositions": [{"name": "t", "kind": "pfi", "method": "fast_ordered", "target": "C",
                              "order": ["B", "B", "P"]}]}, "t", "order", "B"),
    ])
    def test_repeated_column_exit_2(self, tmp_path, capsys, monkeypatch, change, block, key, column):
        # a column named twice would lose one of its two components
        err = self._exit_2_before_the_fit(tmp_path, capsys, monkeypatch, change)
        assert err.startswith(f"config error: [{block}] {key!r} names the column {column!r} twice")

    @pytest.mark.parametrize("change,block,reader,key", [
        ({"decompositions": [{"name": "t", "kind": "pfi", "method": "fast", "target": "C", "pathways": ["B"]}]},
         "t", "kind pfi with method fast", "pathways"),
        ({"decompositions": [{"name": "t", "kind": "sage", "method": "shapley", "target": "C", "n_orders": 5}]},
         "t", "kind sage with method shapley", "n_orders"),
        ({"decompositions": [{"name": "t", "kind": "ai", "method": "fast", "target": "C", "solver": "exact"}]},
         "t", "kind ai with method fast", "solver"),
        ({"measures": [{"name": "m", "measure": "PFI", "interest": ["C"], "mode": "marginalized"}]},
         "m", "measure PFI", "mode"),
        ({"measures": [{"name": "m", "measure": "DI", "interest": ["C"], "aux": ["B"]}]}, "m", "measure DI", "aux"),
        ({"measures": [{"name": "m", "measure": "SAGE_value", "interest": ["C"], "n_orders": 4}]},
         "m", "measure SAGE_value", "n_orders"),
    ])
    def test_unread_key_exit_2(self, tmp_path, capsys, monkeypatch, change, block, reader, key):
        # a key of another measure or method would be dropped without a word
        err = self._exit_2_before_the_fit(tmp_path, capsys, monkeypatch, change)
        assert err.startswith(f"config error: [{block}] {reader} does not read {key!r}")

    @pytest.mark.parametrize("kind,method,key", [
        ("pfi", "fast", "sources"), ("pfi", "shapley", "sources"), ("ai", "fast", "pathways"),
        ("sage", "fast", "pathways"), ("pfi", "fast_ordered", "order"),
    ])
    def test_empty_column_list_exit_2(self, tmp_path, capsys, monkeypatch, kind, method, key):
        # an empty sources or pathways list would silently mean every column
        change = {"decompositions": [{"name": "t", "kind": kind, "method": method, "target": "C", key: []}]}
        err = self._exit_2_before_the_fit(tmp_path, capsys, monkeypatch, change)
        assert err.startswith(f"config error: [t] {key!r} is an empty list")

    @pytest.mark.parametrize("defect,names", [
        (("duplicate", 1, 0, None), ["'a'", "'b'"]),  # b duplicates a
        (("constant", 2, None, 2.5), ["'k'"]),
        (("constant", 2, None, 0.0), ["'k'"]),
    ], ids=["duplicate", "constant", "zero"])
    def test_singular_design_names_its_columns(self, tmp_path, capsys, defect, names):
        values = np.random.default_rng(0).standard_normal((40, 4))
        _singular(values, *defect)
        lines = ["a,b,k,y"] + [",".join(map(repr, row)) for row in values.tolist()]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        raw = {"seed": 0, "data": {"csv": str(tmp_path / "data.csv"), "target_column": "y"}}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: [model] Gram matrix is numerically singular")
        assert [name for name in ("'a'", "'b'", "'k'") if name in err] == names

    def test_columns_in_any_units_fit(self, tmp_path):
        # an income in dollars beside unit-scale columns is singular only
        # through its units: it fits, and every estimate equals the one
        # from the same rows with income in units of 1e5
        rng = np.random.default_rng(0)
        z, b, noise = rng.standard_normal((3, 1000))
        income = rng.normal(5e5, 2e5, 1000)
        a = 0.8 * (income - 5e5) / 2e5 + 0.6 * z  # AI of income via a is far from 0
        y = a + 0.5 * b + 2e-6 * income + noise
        measures = [{"name": "ai_income", "measure": "AI", "interest": ["income"], "baseline": [],
                     "mode": "marginalized"},
                    {"name": "di_income", "measure": "DI", "interest": ["income"], "baseline": ["a"],
                     "mode": "marginalized"},
                    {"name": "via_a", "measure": "AI_via", "interest": ["income"], "baseline": [],
                     "aux": ["a"], "mode": "marginalized"}]
        estimates = []
        for unit in (1.0, 1e5):
            rows = zip(a.tolist(), b.tolist(), (income / unit).tolist(), y.tolist())
            path = tmp_path / f"income_{unit:g}.csv"
            path.write_text("a,b,income,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
            raw = {"seed": 0, "data": {"csv": str(path), "target_column": "y"}, "exact_marginalization": True,
                   "measures": measures}
            out = tmp_path / f"out_{unit:g}"
            assert main(["importance", "--config", str(_config(tmp_path, raw)), "--out", str(out)]) == 0
            bundle = json.loads((out / "bundle.json").read_text())
            estimates.append([(e["value"], e["std_error"]) for e in bundle["estimates"]])
        np.testing.assert_allclose(estimates[0], estimates[1], rtol=1e-9, atol=0)
        assert min(value for value, _ in estimates[0]) > 0.1

    def test_nameless_block_named_once(self, tmp_path, capsys):
        # a single-column measure takes exactly one interest column
        for block, count in (({"measure": "PFI"}, 0), ({"measure": "SAGE_attribution", "interest": ["B", "C"]}, 2)):
            cfg = _config(tmp_path, dict(_BASE, measures=[block]))
            assert main(["importance", "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            kind = block["measure"]
            assert f"[{kind}] measure {kind} needs one 'interest' column, got {count}" in err and "[?]" not in err

    def test_output_block_formats(self, tmp_path):
        out = tmp_path / "out"
        raw = dict(_BASE, output={"directory": str(out), "formats": ["json"]})
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["bundle.json", "metadata.json"]

    def test_same_seed_runs_are_identical(self):
        # evaluation rows: a size that is a multiple of no block size
        n_eval = 3 * 8192 + 1000
        raw = dict(_BASE, n_mc=3, data=dict(_BASE["data"], n=2 * n_eval), measures=[
            {"name": "ai_P", "measure": "AI", "interest": ["P"], "baseline": []},
            {"name": "via_C", "measure": "AI_via", "interest": ["P"], "baseline": [], "aux": ["C"]},
            {"name": "pfi_C", "measure": "PFI", "interest": ["C"]},
        ])
        first, second = run(RunConfig(raw)), run(RunConfig(raw))
        assert first.metadata["n_rows"] == 2 * n_eval
        assert all(e["mode"] == "original_f" and e["n_mc"] == 3 for e in first.estimates)
        assert first.estimates == second.estimates
        assert first.tables == second.tables

    @pytest.mark.parametrize("value", ["false", "no", "true", 0, 1])
    @pytest.mark.parametrize("block,key", [("config", "exact_marginalization"), ("data", "include_observed")])
    def test_non_boolean_flag_exit_2(self, tmp_path, capsys, block, key, value):
        raw = dict(_BASE, data=dict(_BASE["data"]))
        (raw if block == "config" else raw["data"])[key] = value
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"[{block}]" in err and key in err

    def test_yaml_booleans_accepted(self, tmp_path):
        text = yaml.safe_dump(_BASE).replace("include_observed: true", "include_observed: yes")
        assert "include_observed: yes" in text
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text + "exact_marginalization: no\n")
        assert main(["importance", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("loss", ["squared_error", "cross_entropy"])
    def test_exact_marginalization_selects_nothing(self, tmp_path, loss):
        # a fitted model is linear, so it is always marginalized in closed
        # form: the key is checked, and either value gives the same estimates
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 3))
        y = x @ [1.0, 0.5, -0.5] + rng.standard_normal(400)
        if loss == "cross_entropy":
            y = (y > 0).astype(float)
        path = tmp_path / "data.csv"
        path.write_text("a,b,c,y\n" + "".join(",".join(map(repr, row)) + "\n"
                                              for row in np.column_stack([x, y]).tolist()))
        measures = [{"name": "ai_a", "measure": "AI", "interest": ["a"], "baseline": [], "mode": "marginalized"},
                    {"name": "sage_a", "measure": "SAGE_attribution", "interest": ["a"], "n_orders": 1},
                    {"name": "pfi_b", "measure": "PFI", "interest": ["b"]}]
        raw = {"seed": 0, "data": {"csv": str(path), "target_column": "y"}, "loss": loss, "n_mc": 4,
               "measures": measures}
        off, on = (run(RunConfig(dict(raw, exact_marginalization=flag))).estimates for flag in (False, True))
        assert off == on
        # the marginalized estimates take no draws: SE 0, and one repetition
        assert [e["std_error"] for e in off[:2]] == [0.0, 0.0] and off[0]["n_mc"] == 1
        assert off[2]["std_error"] > 0.0

    def test_every_error_has_one_exit_code(self):
        # every error derives from exactly one kind, which holds its exit code
        assert set(DedactError.__subclasses__()) == {errors._Config, errors._Data, errors._Numerical}

    @pytest.mark.parametrize("cls,code,label", [
        (errors.ConfigError, 2, "config"),
        (errors.DisjointnessViolation, 2, "config"),
        (errors.ParseError, 3, "data"),
        (errors.MissingTarget, 3, "data"),
        (errors.InvalidTarget, 3, "data"),
        (errors.DimensionMismatch, 3, "data"),
        (errors.SingularDesign, 4, "numerical"),
        (errors.SingularConditioning, 4, "numerical"),
        (errors.InsufficientRows, 4, "numerical"),
        (errors.Overflow, 4, "numerical"),
        (errors.TooManyPlayers, 4, "numerical"),
        (errors.CyclicGraph, 4, "numerical"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_error_class_sets_exit_code_and_label(self, monkeypatch, capsys, cls, code, label):
        def raise_it(args):
            raise cls("x")
        monkeypatch.setattr(cli, "_cmd_report", raise_it)
        assert main(["report", "--bundle", "unread"]) == code
        assert capsys.readouterr().err == f"{label} error: x\n"

    def test_csv_field_past_the_limit_exit_3(self, tmp_path, capsys):
        (tmp_path / "big.csv").write_text("a,y\n" + "1" * 200_000 + ",2\n3,4\n")
        raw = {"seed": 0, "data": {"csv": str(tmp_path / "big.csv"), "target_column": "y"}}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 3
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'big.csv'}: row 2: field larger than field limit (131072)\n")

    @pytest.mark.parametrize("block,key", [
        ({"measure": "DI", "baseline": ["B"]}, "interest"),
        ({"measure": "AI", "interest": [], "baseline": ["B"]}, "interest"),
        ({"measure": "SAGE_value"}, "interest"),
        ({"measure": "DI_from", "baseline": ["B"], "aux": ["C"]}, "interest"),
        ({"measure": "AI_via", "baseline": [], "aux": ["C"]}, "interest"),
        ({"measure": "DI_from", "interest": ["P"], "baseline": ["B"]}, "aux"),
        ({"measure": "AI_via", "interest": ["P"], "baseline": [], "aux": []}, "aux"),
    ])
    def test_measure_without_interest_or_aux_exit_2(self, tmp_path, capsys, block, key):
        # an empty set would make both plans identical: a silent 0.0 +/- 0.0
        cfg = _config(tmp_path, dict(_BASE, measures=[block]))
        assert main(["importance", "--config", str(cfg)]) == 2
        kind = block["measure"]
        assert capsys.readouterr().err == f"config error: [{kind}] measure {kind} needs at least one {key!r} column\n"

    def test_unknown_column_exit_2(self, tmp_path):
        raw = dict(_BASE, measures=[{"name": "bad", "measure": "PFI", "interest": ["nope"]}])
        cfg = _config(tmp_path, raw)
        assert main(["importance", "--config", str(cfg)]) == 2

    def test_missing_csv_exit_3(self, tmp_path):
        raw = {"seed": 0, "data": {"csv": str(tmp_path / "nope.csv"), "target_column": "y"}}
        cfg = _config(tmp_path, raw)
        assert main(["importance", "--config", str(cfg)]) == 3

    def test_missing_config_file_exit_3(self, tmp_path):
        assert main(["importance", "--config", str(tmp_path / "nope.yaml")]) == 3

    def test_numerical_error_exit_4(self, tmp_path, capsys):
        # 4 rows split in half leaves too few fit rows for a 2-feature OLS
        raw = {"seed": 0, "data": {"scm": "biomarker", "n": 4}, "measures": []}
        cfg = _config(tmp_path, raw)
        assert main(["importance", "--config", str(cfg)]) == 4
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 2])
    def test_singular_conditioning_names_its_columns(self, tmp_path, capsys, seed):
        # c's conditional in the second plan is given price and its exact
        # copy; at seed 2 the PSD check, absolute before, failed first
        _price_copy_csv(tmp_path / "data.csv", seed)
        raw = {"seed": 0, "data": {"csv": str(tmp_path / "data.csv"), "target_column": "y"},
               "model": {"support": ["price", "c"]},
               "measures": [{"measure": "PFI", "interest": ["c"]}, {"measure": "PFI", "interest": ["price"]}]}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 0
        raw["measures"].append({"name": "ai_copy", "measure": "AI", "interest": ["price_copy"], "baseline": ["price"]})
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: [ai_copy] conditioning covariance is singular")
        assert "'price'" in err and "'price_copy'" in err

    @pytest.mark.parametrize("text,message", [
        ("y\n1\n2\n3\n4\n5\n", "the header holds only the target column 'y'; at least one feature column"),
        ("a,y\n1,2\n", "one data row; at least 2 are needed"),
    ], ids=["target-only", "one-row"])
    def test_csv_too_small_names_the_file(self, tmp_path, capsys, text, message):
        (tmp_path / "data.csv").write_text(text)
        raw = {"seed": 0, "data": {"csv": str(tmp_path / "data.csv"), "target_column": "y"}}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'data.csv'}: {message}")

    def test_scm_without_data_columns_names_the_source(self, tmp_path, capsys):
        raw = {"nodes": ["latent", "y"], "edges": [{"parent": "latent", "child": "y", "coefficient": 1.0}],
               "noise_std": {"latent": 1.0, "y": 1.0}, "roles": {"latent": "latent", "y": "target"}}
        scm = tmp_path / "scm.yaml"
        scm.write_text(yaml.safe_dump(raw))
        out = tmp_path / "sim.csv"
        simulate = ["simulate", "--scm", str(scm), "--n", "100", "--seed", "0", "--out", str(out)]
        config = _config(tmp_path, {"seed": 0, "data": {"scm": str(scm), "n": 10}})
        for argv in (simulate, ["importance", "--config", str(config)]):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"data error: {scm}: no node has role feature, so the SCM emits no data column\n"
        assert not out.exists()
        # an observed node is a data column once observed columns are emitted
        scm.write_text(yaml.safe_dump(dict(raw, roles={"latent": "observed", "y": "target"})))
        assert main(simulate) == 3
        assert main(simulate + ["--include-observed"]) == 0

    def test_gaussian_fit_with_too_few_rows_names_the_split(self, tmp_path, capsys):
        # OLS on one column fits 6 rows; the Gaussian over 10 columns needs 11
        raw = {"seed": 0, "data": {"scm": "census", "n": 12}, "model": {"support": ["age"]}}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 4
        assert capsys.readouterr().err.startswith(
            "numerical error: [data] the Gaussian fit reads n_fit=6 of the 12 rows (split_fraction 0.5)"
            " and needs n_fit >= d + 1 = 11")

    def test_ols_fit_with_too_few_rows_names_the_split(self, tmp_path, capsys):
        # 5 rows split into 2 fit rows, and the model reads B and C
        raw = {"seed": 0, "data": {"scm": "biomarker", "n": 5}}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 4
        assert capsys.readouterr().err == (
            "numerical error: [model] the OLS fit reads n_fit=2 of the 5 rows (split_fraction 0.5)"
            " and needs n_fit > |support| = 2\n")

    @pytest.mark.parametrize("support", [None, ["b"]], ids=["a-in-support", "a-outside-support"])
    def test_overflowing_squares_name_their_column(self, tmp_path, capsys, support):
        # a's squares overflow float64: the OLS fit names it when the model
        # reads a, the Gaussian fit when it does not
        rng = np.random.default_rng(0)
        rows = zip((1e155 * rng.standard_normal(50)).tolist(), *rng.standard_normal((2, 50)).tolist())
        (tmp_path / "big.csv").write_text("a,b,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        raw = {"seed": 0, "data": {"csv": str(tmp_path / "big.csv"), "target_column": "y"}, "n_mc": 2,
               "measures": [{"measure": "PFI", "interest": ["b"]}]}
        if support is not None:
            raw["model"] = {"support": support}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 4
        block = "model" if support is None else "data"
        assert capsys.readouterr().err == f"numerical error: [{block}] the squares of 'a' overflow float64\n"

    @pytest.mark.parametrize("command", ["simulate", "importance"])
    def test_overflowing_scm_names_its_source_and_node(self, tmp_path, capsys, command):
        # b = 1e200 a is finite, c = 1e200 b is not; `1.0e+200` with its
        # sign, since YAML reads `1.0e200` as a string
        scm = tmp_path / "big.yaml"
        scm.write_text("nodes: [a, b, c]\nedges:\n"
                       "  - {parent: a, child: b, coefficient: 1.0e+200}\n"
                       "  - {parent: b, child: c, coefficient: 1.0e+200}\n"
                       "noise_std: {a: 1.0, b: 1.0, c: 1.0}\nroles: {a: feature, b: feature, c: target}\n")
        if command == "simulate":
            argv = ["simulate", "--scm", str(scm), "--n", "100", "--seed", "0", "--out", str(tmp_path / "sim.csv")]
        else:
            argv = ["importance", "--config", str(_config(tmp_path, {"seed": 0, "data": {"scm": str(scm), "n": 100}}))]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"data error: {scm}: the sampled values of node 'c' overflow float64\n"
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("data,key", [
        ({"csv": "x.csv", "target_column": "y", "n": 100}, "n"),
        ({"csv": "x.csv", "target_column": "y", "include_observed": True}, "include_observed"),
        ({"csv": "x.csv", "target_column": "y", "scm": "census"}, "scm"),
        ({"scm": "census", "n": 100, "target_column": "income"}, "target_column"),
    ], ids=["csv-n", "csv-include_observed", "csv-scm", "scm-target_column"])
    def test_data_key_its_source_does_not_read_exit_2(self, tmp_path, capsys, data, key):
        # the key would otherwise be dropped unread (with both sources, csv won)
        assert main(["importance", "--config", str(_config(tmp_path, {"seed": 0, "data": data}))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [data] ") and f"does not read {key!r}" in err

    @pytest.mark.parametrize("source", ["csv", "scm"])
    def test_cross_entropy_target_outside_unit_interval_exit_3(self, tmp_path, capsys, monkeypatch, source):
        fits, fit_ols = [], runner.fit_ols
        monkeypatch.setattr(runner, "fit_ols", lambda *args: fits.append(args) or fit_ols(*args))
        if source == "csv":
            labels = [0.0, 1.0, 2.5, 1.0, 0.0, 1.0]  # file row 4 holds 2.5
            rows = "".join(f"{i},{i % 3},{label}\n" for i, label in enumerate(labels))
            (tmp_path / "data.csv").write_text("a,b,y\n" + rows)
            data, expected = {"csv": str(tmp_path / "data.csv"), "target_column": "y"}, "row 4, target column 'y' holds 2.5"
        else:  # the census SCM's income is continuous
            data, expected = {"scm": "census", "n": 200}, "sampled row 1, target column 'income' holds "
        raw = {"seed": 0, "data": data, "loss": "cross_entropy", "measures": []}
        assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and expected in err and "[0, 1]" in err
        assert fits == []
        if source == "csv":  # the same file with a label in [0, 1] runs
            (tmp_path / "data.csv").write_text("a,b,y\n" + rows.replace("2.5", "1.0"))
            assert main(["importance", "--config", str(_config(tmp_path, raw))]) == 0
            assert len(fits) == 1

    def test_csv_source_end_to_end(self, tmp_path):
        sim = tmp_path / "sim.csv"
        main(["simulate", "--scm", "biomarker", "--n", "2000", "--seed", "1",
              "--out", str(sim)])
        raw = {
            "seed": 1,
            "data": {"csv": str(sim), "target_column": "L"},
            "n_mc": 3,
            "measures": [{"name": "pfi_C", "measure": "PFI", "interest": ["C"]}],
        }
        out = tmp_path / "out"
        assert main(["importance", "--config", _config(tmp_path, raw).as_posix(),
                     "--out", str(out)]) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["estimates"][0]["value"] > 0

    @pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
    @pytest.mark.parametrize("which", ["config", "scm"])
    def test_yaml_not_utf8_exit_3(self, tmp_path, capsys, which, encoding):
        scm = tmp_path / "scm.yaml"
        scm.write_text(yaml.safe_dump(biomarker_scm().to_config()))
        raw = dict(_BASE, data=dict(_BASE["data"], scm=str(scm)))
        bad = tmp_path / f"{which}.yaml" if which == "config" else scm
        text = yaml.safe_dump(raw) if which == "config" else scm.read_text()
        bad.write_bytes(("# café\n" + text).encode(encoding))
        commands = [["importance", "--config", str(bad)]] if which == "config" else [
            ["importance", "--config", str(_config(tmp_path, raw))],
            ["simulate", "--scm", str(scm), "--n", "20", "--seed", "0", "--out", str(tmp_path / "sim.csv")]]
        for argv in commands:
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error") and f"{bad}: not UTF-8 text" in err

    def test_yaml_byte_order_mark_accepted(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(codecs.BOM_UTF8 + yaml.safe_dump(_BASE).encode())
        assert main(["importance", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_csv_encodings(self, tmp_path, capsys):
        values = np.random.default_rng(2).standard_normal((40, 3))
        text = "a,b,y\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in values)
        path = tmp_path / "data.csv"
        raw = {"seed": 0, "data": {"csv": str(path), "target_column": "y"}, "n_mc": 2,
               "measures": [{"name": "pfi_a", "measure": "PFI", "interest": ["a"]}]}
        cfg = _config(tmp_path, raw)
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert main(["importance", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        path.write_bytes(text.replace("a,b", "caf\xe9,b").encode("latin-1"))
        assert main(["importance", "--config", str(cfg)]) == 3
        assert f"{path}: row 1 is not UTF-8 text" in capsys.readouterr().err

    def test_non_ascii_names_under_an_ascii_locale(self, tmp_path):
        # a column named Ç where the locale's encoding is ASCII: simulate
        # writes UTF-8, the CSV reads back, decompose writes its table
        # files as UTF-8 and report prints the name escaped; all exit 0
        scm = {"nodes": ["a", "b", "Ç", "y"],
               "edges": [{"parent": "a", "child": "Ç", "coefficient": 0.8},
                         {"parent": "Ç", "child": "y", "coefficient": 1.0},
                         {"parent": "b", "child": "y", "coefficient": 0.5}],
               "noise_std": {"a": 1.0, "b": 1.0, "Ç": 0.5, "y": 0.3},
               "roles": {"a": "feature", "b": "feature", "Ç": "feature", "y": "target"}}
        raw = {"seed": 0, "data": {"csv": "data.csv", "target_column": "y"}, "n_mc": 2,
               "decompositions": [{"name": "pfi_Ç", "kind": "pfi", "method": "fast", "target": "Ç"}]}
        for name, doc in (("scm.yaml", scm), ("run.yaml", raw)):
            (tmp_path / name).write_text(yaml.safe_dump(doc, allow_unicode=True), encoding="utf-8")
        package_root = str(Path(dedact.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))

        def dedact_cli(*args):
            proc = subprocess.run([sys.executable, "-m", "dedact.cli", *args], cwd=tmp_path, env=env,
                                  capture_output=True)
            assert (proc.returncode, b"Traceback" in proc.stderr) == (0, False), proc.stderr.decode()
            return proc.stdout

        dedact_cli("simulate", "--scm", "scm.yaml", "--n", "300", "--seed", "1", "--out", "data.csv")
        assert ingest_csv(tmp_path / "data.csv", "y")[0].column_names == ("a", "b", "Ç")
        dedact_cli("decompose", "--config", "run.yaml", "--out", "out")
        table = (tmp_path / "out" / "table_pfi_Ç.csv").read_text(encoding="utf-8")
        assert "fast,Ç," in table
        assert b"[pfi_\\xc7] fast decomposition of \\xc7" in dedact_cli("report", "--bundle", "out")
        # report reads a bundle as UTF-8, also one whose names are not escaped
        bundle = tmp_path / "out" / "bundle.json"
        unescaped = json.dumps(json.loads(bundle.read_text(encoding="utf-8")), ensure_ascii=False)
        bundle.write_text(unescaped, encoding="utf-8")
        assert b"[pfi_\\xc7] fast decomposition of \\xc7" in dedact_cli("report", "--bundle", "out")

    def test_config_echo_round_trip(self, tmp_path):
        cfg = RunConfig(dict(_BASE))
        bundle = run(cfg)
        assert bundle.as_dict()["config"] == _BASE
        assert bundle.metadata["input_hash"] == run(RunConfig(dict(_BASE))).metadata["input_hash"]


# the input hash of a C-ordered matrix, and of a Fortran-ordered matrix with
# a strided target: sha256 over the C-ordered bytes, pinned so that how the
# bytes reach the digest cannot change it
@pytest.mark.parametrize("fortran,digest", [
    (False, "5992ae7a8222aa14198ca96eea199d5710b64057fcb3367d753c529814fd8c09"),
    (True, "7ef4f9a4bd05a00125573eef1ed596ed9c8b31cd2976a86a81349ea0e759d710"),
], ids=["C", "F"])
def test_content_hash_pinned(fortran, digest):
    values = np.arange(1, 13, dtype=float).reshape(4, 3) / 7
    config = {"seed": 1, "data": {"scm": "biomarker", "n": 4}}
    if fortran:
        data, target = DataMatrix(np.asfortranarray(values), ("a", "b", "c")), TargetVector(values[:, 1])
        assert data.values.flags.f_contiguous and not target.values.flags.c_contiguous
    else:
        data, target = DataMatrix(values, ("a", "b", "c")), TargetVector(np.linspace(-1, 1, 4))
    assert runner._content_hash(config, data, target) == digest


def test_run_holds_the_data_once():
    # the sampler computes in place and the split shuffles the loaded rows
    # in place, so no copy of the data is held beside them through set-up
    n = 200_000
    raw = {"seed": 0, "data": {"scm": "biomarker", "n": n, "include_observed": True}, "n_mc": 2,
           "measures": [{"name": "ai_P", "measure": "AI", "interest": ["P"], "baseline": []}]}
    tracemalloc.start()
    try:
        run(RunConfig(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * 8


@pytest.fixture
def first_evaluation(monkeypatch):
    """The evaluator of the first `evaluate` call, and the tracemalloc
    peak at that call: what set-up left behind, and its peak."""
    seen = {}
    evaluate = ImportanceEvaluator.evaluate

    def hooked(self, spec):
        if not seen:
            seen["evaluator"] = self
            seen["peak"] = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else None
        return evaluate(self, spec)

    monkeypatch.setattr(ImportanceEvaluator, "evaluate", hooked)
    return seen


def test_setup_peaks_at_the_data_plus_one_column(first_evaluation):
    # the biomarker's 3 data columns and its target are 4 n doubles; the
    # in-place split adds its 32-bit permutation (0.5 n) and one scratch
    # column, the fits less: about 5.55 n. The split into two gathered
    # copies beside the data peaked at 9.5 n, and an int64 permutation
    # with a rotated copy of it at 6 n. numpy imports numpy.random on
    # first use, and its module state (0.43 n here) is no part of set-up,
    # so it is imported before tracing, whichever test runs first
    n = 200_000
    raw = {"seed": 0, "data": {"scm": "biomarker", "n": n, "include_observed": True}, "n_mc": 2,
           "measures": [{"name": "ai_P", "measure": "AI", "interest": ["P"], "baseline": []}]}
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        run(RunConfig(raw))
    finally:
        tracemalloc.stop()
    assert first_evaluation["peak"] < 5.75 * n * 8


@pytest.fixture
def after_split(monkeypatch):
    """The ids of the row buffers that the split shuffles, and the traced
    memory just after it; when tracing, the hook then resets the peak.
    It keeps no reference to the buffers."""
    seen = {}
    shuffle_split = runner._shuffle_split

    def hooked(x, y, *args):
        seen["ids"] = id(x), id(y)
        parts = shuffle_split(x, y, *args)
        if tracemalloc.is_tracing():
            seen["traced"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return parts

    monkeypatch.setattr(runner, "_shuffle_split", hooked)
    return seen


def test_fits_hold_no_copy_of_the_rows(first_evaluation, after_split):
    # the fits read the rows through one block buffer, and the buffers
    # then shrink in place to the evaluation rows: from the split to the
    # first evaluation, traced memory rises by less than a tenth of a
    # column. The OLS design and the np.cov copy rose by more than n
    n = 200_000
    raw = {"seed": 0, "data": {"scm": "biomarker", "n": n, "include_observed": True}, "n_mc": 2,
           "measures": [{"name": "ai_P", "measure": "AI", "interest": ["P"], "baseline": []}]}
    tracemalloc.start()
    try:
        run(RunConfig(raw))
    finally:
        tracemalloc.stop()
    assert first_evaluation["peak"] - after_split["traced"] < 0.1 * n * 8


def test_first_moment_form_evaluation_copies_no_rows(monkeypatch):
    # the evaluator's moments are `centred_moments` of its rows, read in
    # place a block at a time: the first moment-form evaluation raises
    # traced memory by less than a quarter of a column. A gathered,
    # centred copy of the rows and target rose by 4 n
    n_eval = 100_000
    rises = []
    evaluate = ImportanceEvaluator.evaluate

    def hooked(self, spec):
        if rises:
            return evaluate(self, spec)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = evaluate(self, spec)
        rises.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(ImportanceEvaluator, "evaluate", hooked)
    raw = {"seed": 0, "data": {"scm": "biomarker", "n": 2 * n_eval, "include_observed": True}, "n_mc": 2,
           "measures": [{"name": "pfi_C", "measure": "PFI", "interest": ["C"]}]}
    tracemalloc.start()
    try:
        run(RunConfig(raw))
    finally:
        tracemalloc.stop()
    assert rises[0] < 0.25 * n_eval * 8


def test_evaluator_reads_the_shrunk_buffer_or_a_copy(monkeypatch, first_evaluation, after_split):
    # a plain run hands the evaluator the loaded buffers, shrunk in place
    run(RunConfig(dict(_BASE)))
    evaluator = first_evaluation["evaluator"]
    assert (id(evaluator.data.values), id(evaluator.target.values)) == after_split["ids"]
    rows = evaluator.data.values.tobytes(), evaluator.target.values.tobytes()
    # a hooked fit that keeps its views of the fit rows makes numpy refuse
    # the shrink: the evaluation rows are copied out, the same bytes
    first_evaluation.clear()
    held, fit_ols = [], runner.fit_ols
    monkeypatch.setattr(runner, "fit_ols", lambda *args: held.append(args) or fit_ols(*args))
    run(RunConfig(dict(_BASE)))
    evaluator = first_evaluation["evaluator"]
    assert held and id(evaluator.data.values) != after_split["ids"][0]
    assert (evaluator.data.values.tobytes(), evaluator.target.values.tobytes()) == rows


def test_evaluator_rows_own_their_buffer(first_evaluation):
    # the evaluation rows are copied out of the shuffled buffer, so the fit
    # rows beside them are freed before the first evaluation
    run(RunConfig(dict(_BASE)))
    evaluator = first_evaluation["evaluator"]
    assert evaluator.data.values.base is None and evaluator.target.values.base is None


def test_every_measure_block_writes_its_library_estimate(first_evaluation):
    # a block of each measure kind writes what its library call returns on
    # a fresh evaluator of the run's rows: value, SE, n_mc, mode, sets, seed
    blocks = [
        {"name": "di", "measure": "DI", "interest": ["C"], "baseline": ["B"], "mode": "marginalized"},
        {"name": "ai", "measure": "AI", "interest": ["P"], "baseline": ["B"], "n_mc": 3, "seed": 5},
        {"name": "di_from", "measure": "DI_from", "interest": ["C"], "baseline": ["B"], "aux": ["P", "B"]},
        {"name": "ai_via", "measure": "AI_via", "interest": ["P"], "baseline": [], "aux": ["C"],
         "mode": "marginalized"},
        {"name": "pfi", "measure": "PFI", "interest": ["C"]},
        {"name": "cfi", "measure": "conditional_FI", "interest": ["B"]},
        {"name": "sage", "measure": "SAGE_value", "interest": ["B", "C"], "variant": "marginal"},
    ]
    bundle = run(RunConfig(dict(_BASE, measures=blocks, decompositions=[])))
    ev = first_evaluation["evaluator"]
    fresh = ImportanceEvaluator(ev.data, ev.target, ev.predictor, ev.gaussian, ev.loss, ev.n_mc, ev.seed,
                                ev.n_integration)
    b, c, p = (ev.data.column_names.index(name) for name in "BCP")
    expected = runner.ResultBundle({})
    for name, est in zip([block["name"] for block in blocks], [
        fresh.direct_importance([c], [b], mode="marginalized"),
        fresh.associative_importance([p], [b], n_mc=3, seed=5),
        fresh.di_from([c], [b], [p, b]),
        fresh.ai_via([p], [], [c], mode="marginalized"),
        fresh.pfi(c),
        fresh.conditional_fi(b),
        fresh.sage_value([b, c], variant="marginal"),
    ]):
        expected.add_estimate(name, est)
    assert bundle.estimates == expected.estimates
    assert all(e["value"] != 0.0 for e in bundle.estimates)


def _census_csv(tmp_path, n):
    """`dedact simulate` of the census SCM with the rows a `data: {scm:
    census, n}` block at seed 1 samples."""
    path = tmp_path / "census.csv"
    assert main(["simulate", "--scm", "census", "--n", str(n), "--seed", str(derive_seed(1, 1)),
                 "--out", str(path)]) == 0
    return path


def test_input_hash_reads_csv_features_in_place(tmp_path):
    # the features are C-ordered, so sha256 reads their bytes where they
    # lie; Fortran-ordered, they were copied whole first
    data, target = ingest_csv(_census_csv(tmp_path, 20_000), "income")
    tracemalloc.start()
    try:
        runner._content_hash({"seed": 1}, data, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * data.values.nbytes
    assert data.values.flags.c_contiguous


@pytest.mark.parametrize("source", ["scm", "csv"])
def test_run_splits_rows_as_a_gather_does(tmp_path, monkeypatch, first_evaluation, source):
    # the rows the fits and the evaluator read are, bit for bit, those a
    # fancy index of the loaded rows at the split's permutation gathers
    n, seed, fraction = 1001, 1, 0.4
    if source == "scm":
        block = {"scm": "census", "n": n}
        _, data, target = runner.simulate("census", n, derive_seed(seed, 1))
    else:
        block = {"csv": str(_census_csv(tmp_path, n)), "target_column": "income"}
        data, target = ingest_csv(block["csv"], "income")
    fits = {}
    fit_ols = runner.fit_ols

    def hooked(x, y, support):
        fits["rows"] = x, y
        return fit_ols(x, y, support)

    monkeypatch.setattr(runner, "fit_ols", hooked)
    run(RunConfig({"seed": seed, "data": block, "split_fraction": fraction, "n_mc": 2,
                   "measures": [{"name": "pfi", "measure": "PFI", "interest": ["age"]}]}))
    perm = np.random.default_rng(derive_seed(seed, 90)).permutation(n)
    n_fit = int(round(n * fraction))
    evaluator = first_evaluation["evaluator"]
    for (x, y), rows in ((fits["rows"], perm[:n_fit]), ((evaluator.data, evaluator.target), perm[n_fit:])):
        assert x.values.flags.c_contiguous and x.values.shape == (len(rows), data.n_cols)
        assert x.values.tobytes() == data.values[rows].tobytes()
        assert y.values.tobytes() == target.values[rows].tobytes()


def test_csv_and_scm_sources_agree(tmp_path):
    # a CSV written by `dedact simulate` at the seed an scm block samples
    # with holds the same rows, so every estimate and table is equal
    blocks = {
        "seed": 1,
        "n_mc": 3,
        "measures": [{"name": "PFI_nr_educ", "measure": "PFI", "interest": ["nr_educ"]},
                     {"name": "AI_race", "measure": "AI", "interest": ["race"], "baseline": []}],
        "decompositions": [{"name": "sage_race", "kind": "sage", "method": "fast", "target": "race",
                            "pathways": ["marriage_status", "occupation"], "n_orders": 2}],
    }
    path = _census_csv(tmp_path, 4000)
    from_scm = run(RunConfig({**blocks, "data": {"scm": "census", "n": 4000}}))
    from_csv = run(RunConfig({**blocks, "data": {"csv": str(path), "target_column": "income"}}))
    assert from_csv.estimates == from_scm.estimates and from_csv.tables == from_scm.tables


# every key of a valid run config, and of the SCM file it can read, gets
# swapped for each of these values
_FUZZ_VALUES = (None, True, -1, 0, 1.5, "x", [], ["nope"], {"a": 1})
_FUZZ_CONFIG = {
    "seed": 0,
    "data": {"scm": "biomarker", "n": 200, "include_observed": True},
    "n_mc": 2,
    "split_fraction": 0.5,
    "loss": "squared_error",
    "exact_marginalization": False,
    "model": {"support": ["B", "C"]},
    "output": {"directory": "out", "formats": ["json"]},
    "measures": [
        {"name": "di", "measure": "DI", "interest": ["C"], "baseline": ["B"], "mode": "original_f",
         "n_mc": 2, "seed": 1},
        {"name": "via", "measure": "AI_via", "interest": ["P"], "baseline": [], "aux": ["C"]},
        {"name": "sage", "measure": "SAGE_attribution", "interest": ["C"], "variant": "conditional",
         "n_orders": 2},
    ],
    "decompositions": [
        {"name": "pfi", "kind": "pfi", "method": "shapley", "target": "C", "sources": ["B", "P"],
         "solver": "exact", "n_orders": 2},
        {"name": "sage_P", "kind": "sage", "method": "shapley", "target": "P", "pathways": ["B", "C"],
         "n_sage_orders": 2, "n_decomp_orders": 2},
        {"name": "ordered", "kind": "pfi", "method": "fast_ordered", "target": "C", "order": ["B", "P"],
         "seed": 3},
    ],
}


def _key_paths(node, prefix=()):
    """The path to every mapping value and list entry below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _swapped(raw, path, value):
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


_FUZZ_CASES = ([("run", path) for path in _key_paths(_FUZZ_CONFIG)]
               + [("scm", path) for path in _key_paths(biomarker_scm().to_config())])

# byte-level mutations of a file's UTF-8 text: each takes the bytes and a
# position, and the fuzz tests below apply one to the CSV, config or SCM
# file they write
_BYTE_MUTATIONS = {
    "none": lambda b, at: b,
    "bom": lambda b, at: codecs.BOM_UTF8 + b,
    "invalid_byte": lambda b, at: b[:at] + b"\xe9" + b[at:],  # a latin-1 e-acute
    "utf16": lambda b, at: b.decode().encode("utf-16"),
}
_BYTE_FUZZ = st.tuples(st.sampled_from(sorted(_BYTE_MUTATIONS)), st.integers(0, 400))


def _mutated(text: str, mutation) -> bytes:
    name, at = mutation
    return _BYTE_MUTATIONS[name](text.encode(), at)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(_FUZZ_CASES), value=st.sampled_from(_FUZZ_VALUES),
       damaged=st.sampled_from(["run.yaml", "scm.yaml"]), mutation=_BYTE_FUZZ)
def test_fuzzed_config_exits_with_a_documented_code(case, value, damaged, mutation):
    which, path = case
    config, scm = _FUZZ_CONFIG, biomarker_scm().to_config()
    if which == "run":
        config = _swapped(config, path, value)
    else:
        scm = _swapped(scm, path, value)
        config = dict(config, data=dict(config["data"], scm="scm.yaml"))
    argv = [["decompose" if path[0] == "decompositions" else "importance", "--config", "run.yaml"]]
    if which == "scm":
        argv.append(["simulate", "--scm", "scm.yaml", "--n", "20", "--seed", "0", "--out", "sim.csv"])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # the config's relative paths land in workdir
        try:
            for name, raw in (("scm.yaml", scm), ("run.yaml", config)):
                text = yaml.safe_dump(raw)
                Path(name).write_bytes(_mutated(text, mutation) if name == damaged else text.encode())
            for args in argv:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(args)
                assert code in (0, 2, 3, 4)
                assert "Traceback" not in err.getvalue()
        finally:
            os.chdir(cwd)


# a small valid CSV (columns a, b and the target y) and one mutation of
# it per name: each takes the header, the rows, a row and a column index
_CSV_MUTATIONS = {
    "none": lambda h, rows, i, j: None,
    "short_row": lambda h, rows, i, j: rows[i].pop(),
    "long_row": lambda h, rows, i, j: rows[i].append("1.0"),
    "blank_row": lambda h, rows, i, j: rows.insert(i, []),
    "empty_cell": lambda h, rows, i, j: rows[i].__setitem__(j, ""),
    "nan_cell": lambda h, rows, i, j: rows[i].__setitem__(j, "nan"),
    "inf_cell": lambda h, rows, i, j: rows[i].__setitem__(j, "-inf"),
    "text_cell": lambda h, rows, i, j: rows[i].__setitem__(j, "x"),
    "duplicate_name": lambda h, rows, i, j: h.__setitem__(j, h[j - 1]),
    "empty_name": lambda h, rows, i, j: h.__setitem__(j, ""),
    "renamed_column": lambda h, rows, i, j: h.__setitem__(j, "z"),
    "header_only": lambda h, rows, i, j: rows.clear(),
    "no_header": lambda h, rows, i, j: h.clear(),
}
_CSV_RUN = {
    "seed": 0,
    "data": {"csv": "data.csv", "target_column": "y"},
    "n_mc": 2,
    "measures": [{"name": "pfi_a", "measure": "PFI", "interest": ["a"]}],
}


def _singular(values, kind, col, partner, scale):
    """Make column col of the values a duplicate of column partner, a
    constant (scale; 0 makes it all-zero), or partner's values times
    scale plus noise of scale 1e-10. Each is a design that OLS cannot fit
    when both are features, except a collinear column of scale 0: that
    is pure 1e-10 noise, collinear with nothing, which fits."""
    if kind == "duplicate":
        values[:, col] = values[:, partner]
    elif kind == "constant":
        values[:, col] = scale
    else:
        noise = np.random.default_rng(1).standard_normal(len(values))
        values[:, col] = scale * values[:, partner] + 1e-10 * noise


_SINGULAR = st.tuples(st.sampled_from(["duplicate", "constant", "collinear"]), st.integers(0, 3),
                      st.integers(0, 3), st.sampled_from([-3.0, 0.0, 0.5, 2.0, 1e3])).filter(
    lambda defect: defect[0] != "collinear" or defect[3] != 0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutations=st.lists(st.tuples(st.sampled_from(sorted(_CSV_MUTATIONS)), st.integers(0, 11),
                                    st.integers(0, 2)), min_size=1, max_size=3),
       byte_mutation=_BYTE_FUZZ, defect=st.none() | _SINGULAR)
def test_fuzzed_csv_exits_with_a_documented_code(mutations, byte_mutation, defect):
    values = np.random.default_rng(0).standard_normal((12, 3))
    if defect is not None:  # columns a, b or the target y
        kind, col, partner, scale = defect
        _singular(values, kind, col % 3, partner % 3, scale)
    header, rows = ["a", "b", "y"], [[repr(float(v)) for v in row] for row in values]
    for name, i, j in mutations:
        try:
            _CSV_MUTATIONS[name](header, rows, i, j)
        except IndexError:
            pass  # an earlier mutation removed the row or cell this one changes
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    cwd, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # the config's relative CSV path lands in workdir
        try:
            Path("data.csv").write_bytes(_mutated(text, byte_mutation))
            Path("run.yaml").write_text(yaml.safe_dump(_CSV_RUN))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["importance", "--config", "run.yaml"])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(defect=_SINGULAR, n_cols=st.integers(2, 4))
def test_fuzzed_singular_design_exits_4_naming_a_column(defect, n_cols):
    kind, col, partner, scale = defect
    col, partner = col % n_cols, partner % n_cols
    if partner == col and kind != "constant":
        partner = (col + 1) % n_cols
    values = np.random.default_rng(0).standard_normal((24, n_cols + 1))
    _singular(values, kind, col, partner, scale)
    lines = [",".join([f"f{c}" for c in range(n_cols)] + ["y"])] + [",".join(map(repr, row)) for row in values.tolist()]
    cwd, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            Path("data.csv").write_text("\n".join(lines) + "\n")
            Path("run.yaml").write_text(yaml.safe_dump({"seed": 0, "data": {"csv": "data.csv", "target_column": "y"}}))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["importance", "--config", "run.yaml"])
        finally:
            os.chdir(cwd)
    message = err.getvalue()
    assert code == 4 and message.startswith("numerical error: [model] Gram matrix is numerically singular")
    offending = {col} if kind == "constant" else {col, partner}
    assert any(f"'f{c}'" in message for c in offending), message


# a small valid bundle, as `ResultBundle.write` lays it out
_REPORT_BUNDLE = {
    "config": {"seed": 0},
    "estimates": [{"name": "pfi_a", "value": 0.5, "std_error": 0.01, "n_mc": 2, "mode": "original_f",
                   "sets": {"measure": "DI", "interest": [0], "baseline": [1], "aux": []}, "seed": 0}],
    "tables": [{"name": "pfi_a_sources", "target": "a", "method": "fast", "total": 0.5, "total_se": 0.01,
                "components": {"b": {"value": 0.3, "se": 0.02}}, "remainder": 0.2, "order_log": []}],
    "metadata": {"engine": {"evaluations": 3, "terms_computed": 4, "terms_reused": 2},
                 "versions": {"dedact": "0.1.0", "numpy": "2.0", "python": "3.11"}},
}


def _without(raw, path):
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return raw


@pytest.mark.parametrize("text,key", [
    ("{}", "estimates"),
    ("[]", "not a mapping"),
    (json.dumps(_without(_REPORT_BUNDLE, ("estimates", 0, "value"))), "'value'"),
    ("not json", "not a JSON bundle"),
])
def test_malformed_bundle_report_exit_3(tmp_path, capsys, text, key):
    (tmp_path / "bundle.json").write_text(text)
    assert main(["report", "--bundle", str(tmp_path)]) == 3
    message = capsys.readouterr().err
    assert str(tmp_path / "bundle.json") in message and key in message


@settings(max_examples=200, deadline=None, derandomize=True)
@given(path=st.sampled_from(list(_key_paths(_REPORT_BUNDLE))), drop=st.booleans(),
       value=st.sampled_from(_FUZZ_VALUES), cut=st.none() | st.integers(0, 600))
def test_fuzzed_bundle_report_exits_0_or_3(path, drop, value, cut):
    bundle = _without(_REPORT_BUNDLE, path) if drop else _swapped(_REPORT_BUNDLE, path, value)
    text = json.dumps(bundle, indent=2)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "bundle.json").write_text(text if cut is None else text[:cut])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["report", "--bundle", workdir])
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()


class TestDemoAndReport:
    def test_every_command_runs_without_networkx(self, tmp_path):
        # `sys.modules["networkx"] = None` makes any import of it fail
        csv = tmp_path / "census.csv"
        cfg = _config(tmp_path, {
            "seed": 0, "data": {"csv": str(csv), "target_column": "income"}, "n_mc": 2,
            "measures": [{"name": "pfi_age", "measure": "PFI", "interest": ["age"]}],
            "decompositions": [{"name": "sage_race", "kind": "sage", "method": "shapley", "target": "race",
                                "n_sage_orders": 2}],
        })
        commands = [
            ["demo", "biomarker", "--n", "2000", "--out", str(tmp_path / "biomarker")],
            ["demo", "census", "--n", "2000", "--sage-orders", "2", "--out", str(tmp_path / "census")],
            ["simulate", "--scm", "census", "--n", "2000", "--seed", "1", "--out", str(csv)],
            ["importance", "--config", str(cfg), "--out", str(tmp_path / "importance")],
            ["decompose", "--config", str(cfg), "--out", str(tmp_path / "decompose")],
            ["report", "--bundle", str(tmp_path / "decompose")],
        ]
        code = (f"import sys\nsys.modules['networkx'] = None\nfrom dedact.cli import main\n"
                f"for argv in {commands!r}:\n    assert main(argv) == 0, argv\n"
                f"assert sys.modules['networkx'] is None")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONWARNINGS": "error"})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "decompose" / "table_sage_race.csv").exists()

    def test_biomarker_demo_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(a)]) == 0
        assert main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(b)]) == 0
        assert (a / "bundle.json").read_bytes() == (b / "bundle.json").read_bytes()

    @pytest.mark.parametrize("flags,named", [
        (["--sage-orders", "0"], "--sage-orders"),
        (["--sage-orders", "25"], "--sage-orders"),
    ])
    def test_biomarker_demo_rejects_the_census_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "demo"
        assert main(["demo", "biomarker", "--n", "2000", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named} applies to the census demo only")
        assert not out.exists()

    def test_census_demo_has_no_decomp_orders_flag(self, tmp_path, capsys):
        # the demo's pathway games are solved in closed form and read no player orders
        out = tmp_path / "demo"
        with pytest.raises(SystemExit) as exit_:
            main(["demo", "census", "--decomp-orders", "2", "--out", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --decomp-orders 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which,flags,message", [
        ("biomarker", ["--n", "3"], "--n must be at least 4, got 3"),
        ("biomarker", ["--seed", "-1"], "--seed must be at least 0, got -1"),
        ("census", ["--sage-orders", "0"], "--sage-orders must be at least 1, got 0"),
    ])
    def test_demo_flag_errors_name_the_flag(self, tmp_path, capsys, which, flags, message):
        out = tmp_path / "demo"
        assert main(["demo", which, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_census_demo_flags_keep_their_defaults(self, tmp_path, monkeypatch):
        calls = []

        def record(**kwargs):
            bound = inspect.signature(runner.run_census_demo).bind(**kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments["n_sage_orders"], bound.arguments["n_decomp_orders"]))

        monkeypatch.setattr(cli, "run_census_demo", record)
        assert main(["demo", "census", "--out", str(tmp_path)]) == 0
        assert main(["demo", "census", "--sage-orders", "3", "--out", str(tmp_path)]) == 0
        assert calls == [(60, 25), (3, 25)]

    def test_biomarker_demo_numbers_pinned(self):
        # the demo's numbers at seed 0, n = 2000; any change to its draws moves them
        bundle = run_biomarker_demo(seed=0, n=2000)
        got = {}
        for e in bundle.estimates:
            got[e["name"]], got[e["name"] + "/se"] = e["value"], e["std_error"]
        for t in bundle.tables:
            got[t["name"]], got[t["name"] + "/se"] = t["total"], t["total_se"]
            for source, comp in t["components"].items():
                got[f"{t['name']}/{source}"], got[f"{t['name']}/{source}/se"] = comp["value"], comp["se"]
        ai = (2.121075980054713, 0.019173108989524783)
        via_b = (0.19698601488353615, 0.0020783032588951806)
        via_c = (2.0948334316966415, 0.018781179959354386)
        pfi = (2.0727279817137796, 0.017735946568842188)
        pinned = {}
        for name, (value, se) in {
            "AI_PSA": ai, "AI_PSA_via_B": via_b, "AI_PSA_via_C": via_c, "PFI_cycling": pfi,
            "AI_PSA_pathways": ai, "AI_PSA_pathways/B": via_b, "AI_PSA_pathways/C": via_c,
            "PFI_cycling_sources": pfi, "PFI_cycling_sources/C": pfi,
            "PFI_cycling_sources/B": (-0.0065241088195024275, 0.0007158830993135349),
            "PFI_cycling_sources/P": (2.0084771195431097, 0.010151107679058708),
        }.items():
            pinned[name], pinned[name + "/se"] = value, se
        assert got == pytest.approx(pinned, rel=1e-9)

    def test_report_prints_tables(self, tmp_path, capsys):
        out = tmp_path / "demo"
        main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--bundle", str(out)]) == 0
        text = capsys.readouterr().out
        assert "AI_PSA" in text
        assert "PFI_cycling_sources" in text
        assert "(remainder)" in text

    def test_report_prints_engine_counters_when_present(self, tmp_path, capsys):
        out = tmp_path / "demo"
        main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(out)])
        bundle = json.loads((out / "bundle.json").read_text())
        engine = bundle["metadata"]["engine"]
        capsys.readouterr()
        assert main(["report", "--bundle", str(out)]) == 0
        assert (f"engine: {engine['evaluations']} evaluations, {engine['terms_computed']} plan terms"
                f" computed, {engine['terms_reused']} reused") in capsys.readouterr().out
        # bundles written before the counters existed still read
        del bundle["metadata"]["engine"]
        (out / "bundle.json").write_text(json.dumps(bundle))
        assert main(["report", "--bundle", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PFI_cycling_sources" in text and "engine:" not in text

    def test_report_prints_versions(self, tmp_path, capsys):
        out = tmp_path / "demo"
        main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(out)])
        bundle = json.loads((out / "bundle.json").read_text())
        versions = bundle["metadata"]["versions"]
        assert versions == {"dedact": dedact.__version__, "numpy": np.__version__,
                            "python": platform.python_version()}
        assert json.loads((out / "metadata.json").read_text())["versions"] == versions
        capsys.readouterr()
        assert main(["report", "--bundle", str(out)]) == 0
        assert (f"versions: dedact {dedact.__version__}, numpy {np.__version__},"
                f" Python {platform.python_version()}") in capsys.readouterr().out
        # bundles written before the versions were recorded still read
        del bundle["metadata"]["versions"]
        (out / "bundle.json").write_text(json.dumps(bundle))
        assert main(["report", "--bundle", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PFI_cycling_sources" in text and "versions:" not in text

    def test_engine_counters_in_metadata(self):
        bundle = run_biomarker_demo(seed=0, n=2000)
        engine = bundle.metadata["engine"]
        # four measures, the ai table (AI plus two AI-vias) and the pfi
        # table (PFI plus three DI-froms)
        assert engine["evaluations"] == 4 + 3 + 4
        # two terms in each of 20 repetitions per evaluation; the tables
        # repeat the measures' plans, so some of those terms are reused
        assert engine["terms_computed"] + engine["terms_reused"] == 2 * 20 * engine["evaluations"]
        assert engine["terms_reused"] > 0

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "dedact.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


def test_every_evaluation_enters_through_a_one_argument_evaluate(tmp_path, monkeypatch):
    # the benchmark marks the start of compute by swapping `evaluate` for a
    # one-shot `(self, spec)` hook: a second argument would fail there, and
    # engine work outside `evaluate` would count as set-up. The guard also
    # takes the spec by position only, so that no keyword is relied on
    depth, guarded = [0], []
    evaluate, plan_pairs = ImportanceEvaluator.evaluate, ImportanceEvaluator._plan_pairs

    def one_argument(self, spec, /):
        depth[0] += 1
        try:
            return evaluate(self, spec)
        finally:
            depth[0] -= 1

    def inside_evaluate(self, *args):
        assert depth[0] == 1, "_plan_pairs ran outside evaluate"
        guarded.append(args)
        return plan_pairs(self, *args)

    monkeypatch.setattr(ImportanceEvaluator, "evaluate", one_argument)
    monkeypatch.setattr(ImportanceEvaluator, "_plan_pairs", inside_evaluate)
    run_census_demo(seed=0, n=2000, n_sage_orders=2, n_decomp_orders=2)
    run_biomarker_demo(seed=0, n=2000)
    demos = len(guarded)
    census = tmp_path / "census.csv"
    assert main(["simulate", "--scm", "census", "--n", "1000", "--seed", "1", "--out", str(census)]) == 0
    rows = census.read_text().splitlines()
    i = rows[0].split(",").index("income")
    binary = [r.split(",") for r in rows[1:]]
    (tmp_path / "census01.csv").write_text(
        "\n".join([rows[0]] + [",".join(r[:i] + [str(int(float(r[i]) > 0))] + r[i + 1:]) for r in binary]) + "\n")
    raw = {
        "seed": 1,
        "data": {"csv": str(tmp_path / "census01.csv"), "target_column": "income"},
        "loss": "cross_entropy",
        "exact_marginalization": False,
        "n_mc": 2,
        "measures": [
            {"name": "SAGE_age", "measure": "SAGE_attribution", "interest": ["age"], "n_orders": 2, "n_mc": 1},
            {"name": "PFI_nr_educ", "measure": "PFI", "interest": ["nr_educ"]},
        ],
        "decompositions": [
            {"name": "sage_race", "kind": "sage", "method": "fast", "target": "race",
             "pathways": ["race", "marriage_status"], "n_orders": 2, "n_mc": 1},
        ],
    }
    run(RunConfig.from_file(_config(tmp_path, raw)))
    assert demos > 0 and len(guarded) > demos


class TestTrainEvalSplit:
    def test_disjoint_and_exhaustive(self):
        data, target = sample_scm(biomarker_scm(), 101, seed=0)
        fx, fy, ex, ey = train_eval_split(data, target, 0.5, seed=0)
        assert fx.n_rows + ex.n_rows == 101
        joined = np.vstack([fx.values, ex.values])
        assert np.array_equal(np.sort(joined, axis=0), np.sort(data.values, axis=0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_untouched(self, order):
        data, target = sample_scm(biomarker_scm(), 101, seed=0)
        data = DataMatrix(np.asarray(data.values, order=order), data.column_names)
        values, y = data.values.copy(), target.values.copy()
        parts = train_eval_split(data, target, 0.5, seed=0)
        assert np.array_equal(data.values, values) and np.array_equal(target.values, y)
        for part in parts:
            assert not np.shares_memory(part.values, data.values)
            assert not np.shares_memory(part.values, target.values)
        perm = np.random.default_rng(derive_seed(0, 90)).permutation(101)
        assert parts[0].values.tobytes() == values[perm[:50]].tobytes()
        assert parts[3].values.tobytes() == y[perm[50:]].tobytes()

    # the split gathers MOMENT_BLOCK_ROWS indices at a time: sizes at the
    # edges of those blocks, and fractions that cut a block
    @pytest.mark.parametrize("n", [MOMENT_BLOCK_ROWS - 1, MOMENT_BLOCK_ROWS, MOMENT_BLOCK_ROWS + 1,
                                   3 * MOMENT_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("scm, include_observed", [(biomarker_scm, False), (biomarker_scm, True),
                                                       (census_scm, False)])
    @pytest.mark.parametrize("fraction", [0.5, 0.3])
    def test_block_edges_gather_as_a_fancy_index(self, n, scm, include_observed, fraction):
        data, target = sample_scm(scm(), n, seed=2, include_observed=include_observed)
        parts = train_eval_split(data, target, fraction, seed=5)
        perm = np.random.default_rng(derive_seed(5, 90)).permutation(n)
        n_fit = int(round(n * fraction))
        for part, source, rows in zip(parts, (data, target) * 2, (perm[:n_fit],) * 2 + (perm[n_fit:],) * 2):
            assert part.values.tobytes() == source.values[rows].tobytes()

    @pytest.mark.parametrize("n", [1, 2, MOMENT_BLOCK_ROWS + 1, 1_000_003])
    @pytest.mark.parametrize("seed", [0, 90])
    def test_shuffled_int32_range_is_the_permutation(self, n, seed):
        # the split shuffles a 32-bit arange where permutation(n) would
        # shuffle a 64-bit one: the same draws give the same order
        perm = np.arange(n, dtype=np.int32)
        np.random.default_rng(seed).shuffle(perm)
        assert np.array_equal(perm, np.random.default_rng(seed).permutation(n))
