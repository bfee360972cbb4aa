"""AgentTable memory accounting: the column constant is what the table holds."""

import pytest

from repro.world.columnar import BYTES_PER_AGENT_COLUMNS, AgentTable


@pytest.mark.parametrize("n_agents", [1, 1000])
def test_bytes_per_agent_is_the_column_constant(n_agents):
    table = AgentTable(n_agents)
    columns = [getattr(table, name) for name in AgentTable.__slots__]
    assert [len(column) for column in columns] == [n_agents] * len(columns)
    # nbytes counts every column the table allocates, and the constant
    # is their per-row width.
    assert table.nbytes == sum(column.nbytes for column in columns)
    assert table.bytes_per_agent == BYTES_PER_AGENT_COLUMNS


def test_empty_table_reports_zero_bytes_per_agent():
    assert AgentTable(0).bytes_per_agent == 0.0
