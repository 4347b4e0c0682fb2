"""Frozen reference of the drivers' domain monitor as it stood before it
moved from a public distance per watched point at every iteration to
row-kernel passes once the run ends.  ``test_domain_monitor`` runs both
drivers with this recorder in place of ``_Recorder`` and checks that the
real one reports the same ``domain_exit``.  Do not edit ``record`` to follow
a change in the drivers: it is the reference the change is measured
against."""

from geodescent.descent import _Recorder
from geodescent.geometry import in_domain


class ReferenceRecorder(_Recorder):
    """``_Recorder`` that checks every watched point with ``in_domain`` as
    it is recorded and reports the first iteration k >= 1 at which one lies
    outside."""

    def __init__(self, dom, x0, callback=None):
        super().__init__(dom, x0, callback)
        self.reference_exit = None

    def record(self, x, f, grad_norm, slack=None, extra=None, watch=None):
        k = len(self.xs)
        if k and self.reference_exit is None and not all(
            in_domain(self.dom, p) for p in (watch or (x,))
        ):
            self.reference_exit = k
        super().record(x, f, grad_norm, slack, extra, watch)

    def domain_exit(self):
        return self.reference_exit
