"""Frozen reference of the drivers' domain monitor as it stood before it
moved from a public distance per watched point at every iteration to
row-kernel passes once the run ends.  ``test_domain_monitor`` runs both
drivers with this recorder in place of ``IterateTrace`` and checks that the
real one reports the same ``domain_exit``.  Do not edit ``_first_exit`` to
follow a change in the drivers: it is the reference the change is measured
against."""

from geodescent.descent import IterateTrace
from geodescent.geometry import in_domain


class ReferenceRecorder(IterateTrace):
    """``IterateTrace`` that checks every watched point with ``in_domain``,
    one point at a time, and reports the first iteration k >= 1 at which one
    lies outside."""

    def _first_exit(self, columns=()):
        for k, points in enumerate(zip(self.iterates, *columns)):
            if k and not all(in_domain(self.dom, p) for p in points):
                return k
        return None
