"""The ancilla-free synthesizer against the exact minimum gate count of
every small code.

A breadth-first search from each decoded group (r = 1..N/2 pairs on modes
0..2r-1) over every directed braid, all 2·(C(N,2) + C(N,4)) of them,
reaches every group a braid circuit can decode.  The gate set is closed
under inversion, so a group's search depth is the length of its shortest
decoder.  A group is keyed by its reduced echelon form with phases: the
row-reduced basis on top modes is unique, and so is each row's phase,
since the group is abelian and does not contain -1.
"""

import itertools

import pytest

from braidsynth.majorana import BraidGate, MajoranaString, _conjugate_raw, _multiply_raw
from braidsynth.synth import synthesize_ancilla_free
from braidsynth.tableau import DecodedTarget, StabilizerCode


def echelon(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The group's reduced echelon form: each row's top mode lies in that
    row alone, and the rows come in ascending order of top."""
    rows, done = list(rows), []
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        top = 1 << pivot[0].bit_length() - 1
        rows = [_multiply_raw(*row, *pivot) if row[0] & top else row for row in rows]
        done = [_multiply_raw(*row, *pivot) if row[0] & top else row for row in done]
        done.append(pivot)
    return tuple(reversed(done))


def minimum_depths(n: int) -> dict[tuple[tuple[int, int], ...], int]:
    """The shortest decoder length of every group on n modes with at least
    one generator, keyed by its echelon form."""
    moves = [
        (g.support_mask, g.generator_phase)
        for kind, weight in (("braid2", 2), ("braid4", 4))
        for modes in itertools.combinations(range(n), weight)
        for g in (BraidGate(kind, modes, 1), BraidGate(kind, modes, -1))
    ]
    depth = {}
    for r in range(1, n // 2 + 1):
        start = echelon([(g.bits, g.phase_r) for g in DecodedTarget(n, 0, r).generators()])
        depth[start] = 0
        frontier = [start]
        while frontier:
            reached = []
            for group in frontier:
                for mask, gen_phase in moves:
                    image = echelon([_conjugate_raw(mask, gen_phase, *row) for row in group])
                    if image not in depth:
                        depth[image] = depth[group] + 1
                        reached.append(image)
            frontier = reached
    return depth


# (groups, synthesized total, minimum total, worst excess of one group),
# recorded when each sweep column's last braid began to take the direction
# that lands its generator at +i (before: 34 and 1,490 gates, worst 2 and 7
# over), and N = 6 again when the shrink began to keep a set slot, so that
# each column emits the fewest gates its row needs (before: 920 gates,
# worst 4 over).  A change to the gate counts on purpose updates these.
@pytest.mark.parametrize("n, record", [(4, (18, 20, 20, 0)), (6, (360, 832, 742, 2))])
def test_no_decoder_is_shorter_than_its_groups_minimum(n, record):
    synthesized = minimum = worst = 0
    depths = minimum_depths(n)
    for group, depth in depths.items():
        code = StabilizerCode(n, tuple(MajoranaString(n, bits, ph) for bits, ph in group))
        length = len(synthesize_ancilla_free(code).decoder)
        assert length >= depth, group
        synthesized += length
        minimum += depth
        worst = max(worst, length - depth)
    assert (len(depths), synthesized, minimum, worst) == record
