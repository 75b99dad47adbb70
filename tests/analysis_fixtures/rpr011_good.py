# repro: module repro.obs.costs
"""RPR011 fixture: the chokepoint itself may read the CPU clock,
and everyone else meters through it."""

import time

from repro.obs.capture import query_context

cpu = time.process_time()


def bill(relation, result) -> None:
    with query_context(relation, 1) as query:
        if query is not None:
            query.finish(result)
