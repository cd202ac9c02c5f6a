"""A value of the wrong kind anywhere in a scenario file is reported at its line."""

import pytest
import yaml

from spinsplit.scenario import ScenarioFileError, bundled_scenario_path, parse_scenario_text

# fig2 with an outputs block: a file with every level of mapping and every
# kind of value a scenario reads
FULL = bundled_scenario_path("fig2").read_text() + (
    "outputs:\n  format: csv\n  timeseries: series.csv\n  snapshots: snaps\n")


def _keys(text: str) -> list:
    """(path, 0-based row, column) of every mapping key of text."""
    keys = []

    def visit(node, path):
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                child = f"{path}.{key.value}" if path else key.value
                keys.append((child, key.start_mark.line, key.start_mark.column))
                visit(value, child)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                visit(item, f"{path}[{i}]")

    visit(yaml.compose(text), "")
    return keys


def _replaced(text: str, row: int, column: int, value: str) -> str:
    """text with the key at (row, column) given value on the key's row; the
    rows of a block value, indented deeper than the key, go with it."""
    rows = text.splitlines(keepends=True)
    end = row + 1
    while end < len(rows) and (not rows[end].strip()
                               or len(rows[end]) - len(rows[end].lstrip(" ")) > column):
        end += 1
    key = rows[row][column:].partition(":")[0]
    return "".join(rows[:row] + [f"{rows[row][:column]}{key}: {value}\n"] + rows[end:])


@pytest.mark.parametrize("value", ["[x]", "{x: 1}", "true"], ids=["list", "mapping", "boolean"])
def test_wrong_kind_reported_at_its_line(value):
    # units.time and units.length used to raise TypeError (unhashable
    # type), and both labels and both output file names took the str() of
    # any value; each key must give a ScenarioFileError (any other
    # exception fails the test) with an error at its own line that names it
    wrong = []
    for path, row, column in _keys(FULL):
        key = path.rpartition(".")[2].partition("[")[0]
        try:
            parse_scenario_text(_replaced(FULL, row, column, value))
        except ScenarioFileError as err:
            if not any(e.startswith(f"line {row + 1}: ") and key in e.split(": ")[1]
                       for e in err.errors):
                wrong.append((path, err.errors))
        else:
            wrong.append((path, "accepted"))
    assert len(_keys(FULL)) == 49
    assert wrong == []
