"""A node log's CSV bytes, rendered apart from the simulator's writer.

``run_node(..., log_path=...)`` writes each record as the run makes it, with
the fields formatted by hand.  This reference renders the records a detailed
run keeps in memory through ``csv.writer``, floats by ``repr``, so a test
that compares a streamed file with it checks the writer against a second
formatter.
"""

import csv
import io

HEADER = ("time_s", "node_id", "voltage_v", "lux", "qos", "action", "packets")


def expected_log_bytes(node_id, records) -> bytes:
    """The bytes of ``node_id``'s log holding ``records`` (``LogRecord``s)."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(HEADER)
    for rec in records:
        writer.writerow(
            [repr(rec.time_s), node_id, repr(rec.voltage_v), repr(rec.lux), rec.qos, rec.action, rec.packets]
        )
    return out.getvalue().encode("utf-8")
