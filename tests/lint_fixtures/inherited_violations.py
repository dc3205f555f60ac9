"""Pass-1 fixture: a payload-derived index reaches a sink in a method
the caller's class only inherits — from a base in this module, which in
turn inherits it from a base in another module."""

from lint_fixtures.inherited_base import ProbeBase


class Middle(ProbeBase):
    pass


class Leaky(Middle):
    def lookup(self, machine, A):
        blk = machine.read(A, 0)
        return self._probe(machine, A, int(blk[0, 1]))  # OBL102 via ProbeBase._probe
