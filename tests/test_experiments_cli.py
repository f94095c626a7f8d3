"""Tests for the experiments library/CLI (quick scales)."""

import re

import pytest

from repro.experiments import EXPERIMENTS, figure7, section76
from repro.experiments.__main__ import _render, main


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"fig5", "fig7", "tpce", "sec76"}

    def test_section76_rows(self):
        headers, rows = section76(scale=0.1)
        assert headers[0] == "mix"
        assert len(rows) == 5
        # endpoints of the crossover
        assert rows[0][1].startswith("0")
        assert rows[-1][2].startswith("0")

    @pytest.mark.slow
    def test_figure7_registers_five_benchmarks_and_sim_column(self):
        headers, rows = figure7(scale=0.01, show_cluster=True)
        assert headers == ["benchmark", "JECB", "Schism 50%", "JECB sim"]
        assert [row[0] for row in rows] == [
            "tpcc", "tatp", "tpce", "seats", "auctionmark"
        ]
        for row in rows:
            assert "units/txn" in row[3]


class TestCli:
    def test_render(self):
        text = _render(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "longer" in lines[3]

    def test_main_single_experiment(self, capsys):
        assert main(["sec76", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "sec76" in out
        assert "schema-respecting" in out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_seed_override(self, capsys):
        assert main(["sec76", "--scale", "0.1", "--seed", "123"]) == 0

    def test_no_cluster_flag_accepted(self, capsys):
        assert main(["sec76", "--scale", "0.1", "--no-cluster"]) == 0

    def test_profile_prints_every_class_in_name_order(self, capsys):
        argv = ["tpce", "--scale", "0.05", "--no-routing", "--no-cluster"]
        assert main(argv + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "[profile] top cProfile entries (cumulative):" in out
        searched = int(re.search(r"classes_searched=(\d+)", out).group(1))
        block = out.split("per_class:\n", 1)[1].split("[profile]", 1)[0]
        names = re.findall(r"^ {6}(\S+): wall_seconds=", block, re.MULTILINE)
        assert len(names) == searched > 3
        assert names == sorted(names)
