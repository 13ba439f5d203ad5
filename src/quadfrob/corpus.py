"""Named planar-diagram corpus used by the experiments and the test suite.

All diagrams were traced by hand and are re-checked by the PD validator:
arcs occur exactly twice and the declared signs orient every arc
consistently.
"""

import json
import os

from .linkhom import PDCode

_CORPUS = {
    # crossingless round unknot
    "unknot0": ((), (), 1),
    # one positive kink
    "unknot_r1plus": (((1, 1, 2, 2),), (1,), 0),
    # one negative kink
    "unknot_r1minus": (((2, 1, 1, 2),), (-1,), 0),
    # a strand poked under an adjacent strand of the same unknot
    "unknot_r2pair": (((1, 4, 2, 1), (2, 4, 3, 3)), (-1, 1), 0),
    # positive Hopf link (closure of two positive half-twists)
    "hopf": (((1, 3, 4, 2), (3, 1, 2, 4)), (1, 1), 0),
    # right-handed trefoil (closure of three positive half-twists)
    "trefoil": (((1, 3, 4, 2), (3, 5, 6, 4), (5, 1, 2, 6)), (1, 1, 1), 0),
    # figure eight (closure of the alternating 3-strand braid word)
    "figure8": (
        ((1, 4, 5, 2), (3, 5, 6, 7), (4, 1, 8, 6), (7, 8, 2, 3)),
        (1, -1, 1, -1),
        0,
    ),
}


def braid_closure(word, strands):
    """PD code of the closure of a braid word; planar by construction.

    ``word`` is a sequence of nonzero ints, +i for s_i and -i for s_i^-1.
    Strands run upward; at a generator on positions i, i+1 with incoming
    arcs a (left) and b (right) and fresh outgoing arcs TL, TR, s_i gives
    the crossing (b, TR, TL, a) with sign +1 and s_i^-1 gives (a, b, TR, TL)
    with sign -1.  The closure identifies the top arc at each position with
    the bottom one, and a strand that no generator touches is a loop.  Arcs
    are renumbered 1, 2, ... in order of first appearance.
    """
    labels = list(range(1, strands + 1))
    fresh = strands + 1
    crossings = []
    signs = []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"generator {g} out of range for {strands} strands")
        a, b = labels[i], labels[i + 1]
        tl, tr = fresh, fresh + 1
        fresh += 2
        crossings.append((b, tr, tl, a) if g > 0 else (a, b, tr, tl))
        signs.append(1 if g > 0 else -1)
        labels[i], labels[i + 1] = tl, tr
    close = {top: bottom for bottom, top in enumerate(labels, start=1)}
    crossings = [tuple(close.get(x, x) for x in cr) for cr in crossings]
    used = {x for cr in crossings for x in cr}
    loops = sum(1 for p in range(1, strands + 1) if p not in used)
    rename = {}
    for cr in crossings:
        for x in cr:
            rename.setdefault(x, len(rename) + 1)
    crossings = tuple(tuple(rename[x] for x in cr) for cr in crossings)
    return PDCode(crossings=crossings, signs=tuple(signs), loops=loops)


def names():
    return sorted(_CORPUS)


def diagram(name):
    try:
        crossings, signs, loops = _CORPUS[name]
    except KeyError:
        raise KeyError(f"unknown diagram {name!r}; known: {', '.join(names())}") from None
    return PDCode(crossings=crossings, signs=signs, loops=loops)


def write_corpus(directory):
    """Writes one <name>.json per diagram; returns the file paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in names():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(diagram(name).to_json(), fh, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths
