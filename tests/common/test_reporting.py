"""The shared text-table renderer."""

from repro.common.reporting import format_table


def test_format_table_alignment():
    table = format_table(["a", "bbbb"], [[1, 2.5], ["xx", "y"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "2.50" in table
