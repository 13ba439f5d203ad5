"""Benchmark inputs: PD codes of torus links and braid closures.

Braid convention (the repo's): strands run upward; at a generator on
positions i, i+1 with incoming arcs a (left) and b (right) and fresh
outgoing arcs TL (left) and TR (right),

    s_i      gives the crossing (b, TR, TL, a) with sign +1,
    s_i^-1   gives the crossing (a, b, TR, TL) with sign -1,

and the closure identifies each top arc with the bottom arc of its
position.  A strand that no generator touches becomes a crossing-free loop.

A word is a tuple of nonzero ints: +i is s_i, -i is s_i^-1.
"""

from __future__ import annotations

import itertools
import random


def braid_closure(word, strands):
    """(crossings, signs, loops) of the closure of ``word`` on ``strands``."""
    labels = list(range(1, strands + 1))
    nxt = strands + 1
    crossings = []
    signs = []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"generator {g} out of range for {strands} strands")
        a, b = labels[i], labels[i + 1]
        tl, tr = nxt, nxt + 1
        nxt += 2
        if g > 0:
            crossings.append([b, tr, tl, a])
            signs.append(1)
        else:
            crossings.append([a, b, tr, tl])
            signs.append(-1)
        labels[i], labels[i + 1] = tl, tr
    # close: the top arc at each position is the bottom arc there
    close = {top: bottom for bottom, top in zip(range(1, strands + 1), labels)}
    crossings = [[close.get(x, x) for x in cr] for cr in crossings]
    used = {x for cr in crossings for x in cr}
    loops = sum(1 for p in range(1, strands + 1) if p not in used)
    # compact labels 1..2k in order of first appearance
    rename = {}
    for cr in crossings:
        for x in cr:
            rename.setdefault(x, len(rename) + 1)
    crossings = [[rename[x] for x in cr] for cr in crossings]
    return {"crossings": crossings, "signs": signs, "loops": loops}


def torus_2n(n):
    return braid_closure((1,) * n, 2)


def word_name(word):
    return "b" + "".join(("" if g > 0 else "-") + str(abs(g)) for g in word)


def parse_word_name(name):
    """Inverse of ``word_name`` (generators are single digits)."""
    word, sign = [], 1
    for ch in name[1:]:
        if ch == "-":
            sign = -1
        else:
            word.append(sign * int(ch))
            sign = 1
    return tuple(word)


def mixed_words(length, strands=3):
    """Every word of ``length`` that uses every generator and both signs,
    one per rotation class (closures of rotated words are the same diagram)."""
    gens = [g for i in range(1, strands) for g in (i, -i)]
    seen = set()
    out = []
    for w in itertools.product(gens, repeat=length):
        if {abs(g) for g in w} != set(range(1, strands)):
            continue
        if all(g > 0 for g in w) or all(g < 0 for g in w):
            continue
        rot = min(w[k:] + w[:k] for k in range(length))
        if rot in seen:
            continue
        seen.add(rot)
        out.append(rot)
    return out


def pool(length, size, pool_seed):
    """A fixed sample of rotation classes of mixed-sign 3-braids; the
    benchmark's seed picks jobs from it, so every pool word has golden data."""
    return sorted(random.Random(pool_seed).sample(mixed_words(length), size))


def pick(items, k, seed, salt):
    """``k`` distinct items chosen by ``seed``; ``salt`` keeps draws from
    different strata independent."""
    return sorted(random.Random(f"{salt}:{seed}").sample(sorted(items), k))
