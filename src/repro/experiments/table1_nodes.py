"""Table 1 — nodes added to the PlanetLab slice.

The paper's Table 1 lists the 25 PlanetLab hostnames forming the slice;
this module regenerates that catalog from the testbed model, annotated
with the region/country resolution and the SC role assignment of §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.report import render_table
from repro.simnet.planetlab import (
    SIMPLECLIENTS,
    TABLE1_HOSTNAMES,
    build_testbed,
)

__all__ = ["Table1Result", "run"]


@dataclass(frozen=True)
class Table1Result:
    """The regenerated slice catalog."""

    rows: Tuple[Tuple[str, str, str, str], ...]  # hostname, region, country, role

    def table(self) -> str:
        """Render as text."""
        return render_table(
            ("hostname", "region", "country", "role"),
            self.rows,
            title="Table 1 — nodes added to the PlanetLab slice",
        )


def run() -> Table1Result:
    """Regenerate Table 1 from the testbed model."""
    testbed = build_testbed(include_full_slice=True)
    sc_by_host = {host: label for label, host in SIMPLECLIENTS.items()}
    rows: List[Tuple[str, str, str, str]] = []
    for hostname in TABLE1_HOSTNAMES:
        spec = testbed.topology.node(hostname)
        role = sc_by_host.get(hostname, "slice member")
        rows.append(
            (hostname, spec.site.region.name, spec.site.country, role)
        )
    return Table1Result(rows=tuple(rows))
