"""Base class for the inherited-method fixture (analyzed, never run)."""


class ProbeBase:
    def _probe(self, machine, A, j):
        return machine.read(A, j)  # j reaches an index sink
