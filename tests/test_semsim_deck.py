"""Tests for the SEMSIM input-format parser and writer."""

import pytest

from repro.constants import EV
from repro.errors import NetlistError
from repro.netlist import parse_semsim, write_semsim

#: Example Input File 1 from the paper, verbatim semantics
PAPER_DECK = """
#SET component definitions
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0

#Input source information
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1

#Overall node information
num j 2
num ext 3
num nodes 4

#Simulation specific information
temp 5
cotunnel
record 1 2 2
jumps 100000 1
sweep 2 0.02 0.00005
"""


class TestParsePaperDeck:
    @pytest.fixture(scope="class")
    def deck(self):
        return parse_semsim(PAPER_DECK)

    def test_junctions(self, deck):
        assert len(deck.junctions) == 2
        name, a, b, conductance, capacitance = deck.junctions[0]
        assert (a, b) == ("1", "4")
        assert conductance == 1e-6  # siemens -> 1 MOhm
        assert capacitance == 1e-18

    def test_sources_and_symmetry(self, deck):
        assert deck.sources == [("1", 0.02), ("2", -0.02), ("3", 0.0)]
        assert deck.symmetric_node == "1"

    def test_simulation_directives(self, deck):
        assert deck.temperature == 5.0
        assert deck.cotunnel
        assert deck.jumps == 100000
        assert deck.record.first_junction == 1
        assert deck.record.last_junction == 2
        assert deck.sweep.node == "2"
        assert deck.sweep.maximum == 0.02

    def test_declared_counts_checked(self, deck):
        assert deck.declared_junctions == 2
        assert deck.declared_external == 3
        assert deck.declared_nodes == 4

    def test_build_circuit(self, deck):
        circuit = deck.build_circuit()
        assert circuit.n_junctions == 2
        assert circuit.n_islands == 1
        assert circuit.junctions[0].resistance == pytest.approx(1e6)

    def test_config(self, deck):
        config = deck.config()
        assert config.temperature == 5.0
        assert config.include_cotunneling

    def test_sweep_values_cover_plus_minus_max(self, deck):
        values = deck.sweep.values()
        assert values[0] == pytest.approx(-0.02)
        assert values[-1] == pytest.approx(+0.02)


class TestValidation:
    def test_wrong_junction_count_rejected(self):
        bad = PAPER_DECK.replace("num j 2", "num j 3")
        with pytest.raises(NetlistError):
            parse_semsim(bad)

    def test_wrong_source_count_rejected(self):
        bad = PAPER_DECK.replace("num ext 3", "num ext 5")
        with pytest.raises(NetlistError):
            parse_semsim(bad)

    def test_wrong_node_count_rejected(self):
        bad = PAPER_DECK.replace("num nodes 4", "num nodes 9")
        with pytest.raises(NetlistError):
            parse_semsim(bad)

    def test_unknown_directive_reports_line(self):
        with pytest.raises(NetlistError) as excinfo:
            parse_semsim("junc 1 1 2 1e-6 1e-18\nfrobnicate 3")
        assert "line 2" in str(excinfo.value)

    def test_negative_conductance_rejected(self):
        with pytest.raises(NetlistError):
            parse_semsim("junc 1 1 2 -1e-6 1e-18\nvdc 1 0.0")

    def test_empty_deck_rejected(self):
        with pytest.raises(NetlistError):
            parse_semsim("# nothing here\n")

    def test_count_mismatch_error_carries_directive_line(self):
        bad = PAPER_DECK.replace("num j 2", "num j 3")
        with pytest.raises(NetlistError) as excinfo:
            parse_semsim(bad)
        lines = bad.splitlines()
        expected = next(
            i for i, l in enumerate(lines, start=1) if l.startswith("num j")
        )
        assert excinfo.value.line_number == expected

    def test_bad_directive_error_carries_its_line(self):
        with pytest.raises(NetlistError) as excinfo:
            parse_semsim("junc 1 1 2 1e-6 1e-18\nvdc 1 0.0\njunc 2 2 3 -1 1e-18\n")
        assert excinfo.value.line_number == 3

    def test_directive_lines_recorded(self):
        deck = parse_semsim(PAPER_DECK)
        lines = PAPER_DECK.splitlines()
        assert lines[deck.line_of("junc 1") - 1].startswith("junc 1")
        assert lines[deck.line_of("cap 1") - 1].startswith("cap")
        assert lines[deck.line_of("sweep") - 1].startswith("sweep")

    def test_validate_false_defers_count_checks(self):
        bad = PAPER_DECK.replace("num j 2", "num j 3")
        deck = parse_semsim(bad, validate=False)  # does not raise
        problems = deck.validation_problems()
        assert any("num j 3" in message for message, _line in problems)

    def test_superconductor_directive(self):
        deck = parse_semsim(
            "junc 1 1 2 1e-6 1e-18\ncap 2 0 3e-18\nvdc 1 0.01\n"
            "super 0.0002 1.2\n"
        )
        assert deck.superconductor is not None
        assert deck.superconductor.delta0 == pytest.approx(0.0002 * EV)
        assert deck.superconductor.tc == 1.2


class TestRoundTrip:
    def test_write_then_parse_preserves_deck(self):
        deck = parse_semsim(PAPER_DECK)
        text = write_semsim(deck)
        again = parse_semsim(text)
        assert again.junctions == deck.junctions
        assert again.capacitors == deck.capacitors
        assert again.sources == deck.sources
        assert again.symmetric_node == deck.symmetric_node
        assert again.temperature == deck.temperature
        assert again.cotunnel == deck.cotunnel
        assert again.jumps == deck.jumps
        assert again.sweep == deck.sweep
        assert again.record == deck.record


class TestDeckExecution:
    def test_single_point_run(self):
        deck = parse_semsim(
            "junc 1 1 3 1e-6 1e-18\njunc 2 2 3 1e-6 1e-18\ncap 4 3 3e-18\n"
            "vdc 1 0.02\nvdc 2 -0.02\nvdc 4 0.0\ntemp 5\njumps 4000\nrecord 1 2 1\n"
        )
        curve = deck.run(solver="nonadaptive", seed=3)
        assert len(curve.currents) == 1
        assert curve.currents[0] > 1e-10  # conducting above threshold


#: the paper's SET at T = 0 swept inside its Coulomb gap: every rate is
#: zero at every sweep point, so the circuit is frozen
FROZEN_DECK = """
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.002
vdc 2 -0.002
vdc 3 0.0
symm 1
temp 0
record 1 2 2
jumps 400 1
sweep 2 0.002 0.001
"""


class TestFrozenSweepPoints:
    def test_frozen_points_record_zero_current(self):
        deck = parse_semsim(FROZEN_DECK)
        for curve in (deck.run(), deck.run(chunks=2)):
            assert len(curve.currents) == 5
            assert all(current == 0.0 for current in curve.currents)

    def test_frozen_operating_point_records_zero_current(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        text = FROZEN_DECK.replace("sweep 2 0.002 0.001\n", "")
        assert parse_semsim(text).run().currents.tolist() == [0.0]
        deck_file = tmp_path / "frozen_point.deck"
        deck_file.write_text(text)
        assert cli_main(["run", str(deck_file)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [0.0]

    def test_cli_run_of_frozen_sweep_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        deck_file = tmp_path / "frozen.deck"
        deck_file.write_text(FROZEN_DECK)
        assert cli_main(["run", str(deck_file)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)
