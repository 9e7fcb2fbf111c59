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
from dedact import cli
from dedact.cli import main
from dedact.core import DataMatrix, TargetVector
from dedact.errors import ConfigError, DedactError, MissingTarget, ParseError
from dedact.importance import ImportanceEvaluator
from dedact.runner import RunConfig, ingest_csv, run, run_biomarker_demo, run_census_demo, train_eval_split
from dedact.scm import biomarker_scm, sample_scm


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
        # set the peak memory of a run on a CSV; parsed as read, the peak
        # is one float object per value and two copies of the values
        # (about 6 n d doubles)
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
        # every 8192 parsed values become a numpy block, so the peak is the
        # blocks and their join, then the joined buffer and the features
        # and target copied out of it (about 2 n d doubles; a list of one
        # float object per value made it about 6). The target is a copy,
        # not a view, so the buffer is freed on return.
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
    ], ids=["no-edges", "no-roles", "nodes-string", "noise_std-list", "noise_std-string",
            "no-coefficient", "coefficient-string", "parent-list", "not-a-mapping"])
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

    @pytest.mark.parametrize("flag,value", [("--n", "-5"), ("--n", "0"), ("--n", "1"), ("--seed", "-1")])
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
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, command, change, block, key):
        cfg = _config(tmp_path, dict(_BASE, **change))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"[{block}]" in err and key in err

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

    def test_every_error_has_one_exit_code(self):
        groups = (cli._CONFIG_ERRORS, cli._DATA_ERRORS, cli._NUMERICAL_ERRORS)
        for cls in DedactError.__subclasses__():
            assert sum(cls in group for group in groups) == 1, cls

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
    # the full data are dropped right after the split, and the sampler
    # computes in place, so set-up peaks at the split: the full data, the
    # permutation and both copies
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
    constant (scale), or partner's values times scale plus noise of scale
    1e-10: each a design that OLS cannot fit when both are features."""
    if kind == "duplicate":
        values[:, col] = values[:, partner]
    elif kind == "constant":
        values[:, col] = scale
    else:
        noise = np.random.default_rng(1).standard_normal(len(values))
        values[:, col] = scale * values[:, partner] + 1e-10 * noise


_SINGULAR = st.tuples(st.sampled_from(["duplicate", "constant", "collinear"]), st.integers(0, 3),
                      st.integers(0, 3), st.sampled_from([-3.0, 0.0, 0.5, 2.0, 1e3]))


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
    def test_biomarker_demo_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(a)]) == 0
        assert main(["demo", "biomarker", "--n", "2000", "--seed", "0", "--out", str(b)]) == 0
        assert (a / "bundle.json").read_bytes() == (b / "bundle.json").read_bytes()

    @pytest.mark.parametrize("flags,named", [
        (["--sage-orders", "0", "--decomp-orders", "-3"], "--sage-orders"),
        (["--decomp-orders", "25"], "--decomp-orders"),
    ])
    def test_biomarker_demo_rejects_the_census_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "demo"
        assert main(["demo", "biomarker", "--n", "2000", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named} applies to the census demo only")
        assert not out.exists()

    def test_census_demo_flags_keep_their_defaults(self, tmp_path, monkeypatch):
        calls = []

        def record(**kwargs):
            bound = inspect.signature(runner.run_census_demo).bind(**kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments["n_sage_orders"], bound.arguments["n_decomp_orders"]))

        monkeypatch.setattr(cli, "run_census_demo", record)
        assert main(["demo", "census", "--out", str(tmp_path)]) == 0
        assert main(["demo", "census", "--decomp-orders", "3", "--out", str(tmp_path)]) == 0
        assert calls == [(60, 25), (60, 3)]

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
