"""The machinery behind polymat.modified_smith and its certificate.

Over Q the entries of the elimination swell far beyond the size of the
factors before they cancel, so the elimination runs over Z/p for the 512-bit
primes p of a fixed table of 128, and the exact factors are rebuilt from the
images by Chinese remaindering to the symmetric range and rational
reconstruction over shared denominators.  A matrix that needs more primes
than the table holds stops with CapExceededError.  The certificate compares
the values of the product of the factors with those of the matrix at as many
integer points as decide equality exactly.  Polynomials here are lists of
integers, constant term first; a rational polynomial is a pair (den,
numerators).
"""

import math
from collections import Counter

from .errors import CapExceededError, InvariantError

PRIME_BITS = 512
# the 128 smallest odd c for which 2**512 - c is prime, in order: the primes
# one factorization may draw, so their 65,536 bits are its cap
PRIME_OFFSETS = (
    569, 629, 875, 975, 1695, 1827, 2529, 2807, 2967, 3143, 3459, 3669, 3893,
    4005, 4475, 4653, 4893, 5487, 5663, 5993, 6005, 6429, 6485, 6579, 7589,
    7905, 8889, 9989, 11819, 11957, 12035, 12057, 12087, 12545, 13247, 13265,
    13595, 14273, 14363, 14769, 14897, 15647, 15959, 16347, 16665, 17057,
    17177, 17237, 17759, 17789, 18237, 19679, 21635, 21765, 21807, 21833,
    22217, 23585, 23625, 23673, 23813, 24407, 24689, 24843, 24983, 25353,
    25475, 25839, 25973, 26057, 26405, 26699, 27305, 27585, 28157, 28253,
    28367, 28815, 28887, 29007, 29255, 29555, 29643, 30297, 30323, 30665,
    30939, 31127, 31263, 31683, 31809, 31949, 32115, 32445, 32669, 33623,
    33819, 33837, 34625, 34653, 34727, 35087, 35535, 35547, 35609, 35715,
    35979, 36017, 36023, 36753, 36833, 36839, 36905, 37047, 37649, 38117,
    38145, 38349, 38685, 38717, 38799, 39173, 39383, 39437, 39677, 39959,
    40983, 41057)
# bits of slack demanded of a reconstruction, against accepting too early
MARGIN = 48


def primes():
    """The elimination primes 2**512 - c for c in PRIME_OFFSETS, in order."""
    top = 1 << PRIME_BITS
    return (top - c for c in PRIME_OFFSETS)


def factorizations(start):
    """The exact levels of the elimination of modified_smith on the matrix
    start (entries (den, numerators)); see reconstruct for their form, and
    compose for U and V.  There is one level per nonzero pivot; a level
    whose pivot is already alone in its row and column carries no factors,
    so a matrix that needs no elimination takes the same path as any other.

    Each prime's images are grouped with those of equal traces.  Once the
    largest group has enough primes, reconstruct rebuilds the levels they
    determine; those are kept, and the elimination resumes from the block
    the last of them leaves, with every image cut to the levels after it.
    A round that leaves levels open asks for a quarter more primes, plus
    one, in the group of the next.

    Each further candidate requested means the previous one failed its
    certificate; the elimination then starts over with further primes.
    Raises CapExceededError once every prime of the table is drawn: their
    bits are the cap.
    """
    n = len(start)
    everything = tuple(range(n))
    done = []                   # exact levels, in order
    block, rows, cols = start, everything, everything
    images = []                 # (prime, images of the levels from block on)
    attempt = 1
    for p in primes():
        image = smith_image(block, rows, cols, p)
        if image is None:
            continue
        images.append((p, image))
        counts = Counter(_traces(levels) for _, levels in images)
        key = _traces(image)
        if counts[key] < attempt or counts[key] < max(counts.values()):
            continue
        group = [(q, levels) for q, levels in images if _traces(levels) == key]
        levels = reconstruct(group)
        done += levels
        if len(levels) < len(image):
            if levels:
                # resume from the block the last exact level leaves
                next_rows, next_cols, end = levels[-1][6], levels[-1][7], levels[-1][5]
                block = [[None] * n for _ in range(n)]
                for i, row in zip(next_rows, end):
                    for j, f in zip(next_cols, row):
                        block[i][j] = f
                rows, cols = next_rows, next_cols
                images = [(q, old[len(levels):]) for q, old in images]
            attempt = counts[key] + 1 + counts[key] // 4
            continue
        images = group = None
        yield done
        # a level was accepted too early: start over with further primes
        done, block, rows, cols, images = [], start, everything, everything, []
    cap = PRIME_BITS * len(PRIME_OFFSETS)
    raise CapExceededError(f"smith: the primes in use reached {cap} bits; "
                           f"one more would pass the cap of {cap} bits")


def _traces(levels):
    return tuple(level[0] for level in levels)


# -- the elimination over Z/p ------------------------------------------------------
#
# Polynomials are lists of residues, constant term first, with no trailing
# zeros; products are summed unreduced and reduced once per coefficient.


def smith_image(start, rows, cols, p):
    """The elimination of modified_smith over Z/p, from the exact block of
    start (entries (den, numerators)) on rows x cols.

    Returns one tuple per deflation level: (trace, rows, cols, left, right,
    pivot, end) with the pivot measures and deflation flags of the level,
    its active rows and columns, its factors (None when its first pivot is
    alone in its row and column), the deflated pivot as (row, column,
    polynomial) and the block left for the next level.  The levels end
    where that block is empty or zero.  None when p divides a denominator.
    """
    n = len(start)
    cur = [[None] * n for _ in range(n)]
    for i in rows:
        for j in cols:
            den, nums = start[i][j]
            if den % p == 0:
                return None
            inv = pow(int(den), -1, p)
            cur[i][j] = reduced([int(c) * inv for c in nums], p)
    rows, cols = list(rows), list(cols)
    levels = []
    while rows:
        found = pivot(cur, rows, cols)
        if found is None:
            break
        level_rows, level_cols = tuple(rows), tuple(cols)
        left = right = None
        trace = []
        prev = None
        while True:
            best, i0, j0 = found
            clear = (not any(cur[i0][c] for c in cols if c != j0)
                     and not any(cur[r][j0] for r in rows if r != i0))
            if prev is not None:
                if best > prev:
                    raise InvariantError("smith elimination", "pivot measure increased")
                if best == prev and not clear:
                    raise InvariantError("smith elimination",
                                         "pivot measure stalled without clearing")
            trace.append((best, clear))
            if clear:
                break
            if left is None:
                left, right = identity(len(rows)), identity(len(cols))
            eliminate(cur, rows, cols, i0, j0, left, right, p)
            prev = best
            # the pivot entry is never changed, so the block stays nonzero
            found = pivot(cur, rows, cols)
        rows.remove(i0)
        cols.remove(j0)
        end = [[cur[i][j] for j in cols] for i in rows]
        levels.append((tuple(trace), level_rows, level_cols, left, right,
                       (i0, j0, cur[i0][j0]), end))
    return levels


def pivot(cur, rows, cols):
    """(measure, row, column) of the pivot of cur on rows x cols, None when
    the block is zero: the nonzero entry minimizing (degree, n - row,
    column), with the measure kept as (degree + 1, -row, column).  cur
    holds coefficient sequences; polymat._pivot_position uses this too."""
    best = None
    for i in rows:
        for j in cols:
            if cur[i][j]:
                key = (len(cur[i][j]), -i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return best


def eliminate(cur, rows, cols, i0, j0, left, right, p):
    """smith_elimination_step over Z/p on the active rows and columns, with
    the inverse factors accumulated into left (column i0) and right (row j0);
    the inverses of U0 and V0 are 2I - U0 and 2I - V0."""
    pivot = cur[i0][j0]
    inv = pow(pivot[-1], -1, p)
    row_qs = [(k, q) for k in rows if k != i0
              for q in [quotient(cur[k][j0], pivot, inv, p, k > i0)] if q]
    col_qs = [(l, q) for l in cols if l != j0
              for q in [quotient(cur[i0][l], pivot, inv, p, l < j0)] if q]
    for k, q in row_qs:
        neg = [p - c if c else 0 for c in q]
        cur[k] = [mulsum(a, [(neg, b)], p) if c in cols else a
                  for c, (a, b) in enumerate(zip(cur[k], cur[i0]))]
    for l, q in col_qs:
        neg = [p - c if c else 0 for c in q]
        for r in rows:
            cur[r][l] = mulsum(cur[r][l], [(neg, cur[r][j0])], p)
    at_row = {k: a for a, k in enumerate(rows)}
    at_col = {l: b for b, l in enumerate(cols)}
    a0, b0 = at_row[i0], at_col[j0]
    for a, lrow in enumerate(left):
        lrow[a0] = mulsum(lrow[a0], [(q, lrow[at_row[k]]) for k, q in row_qs], p)
    right[b0] = [mulsum(x, [(q, right[at_col[l]][c]) for l, q in col_qs], p)
                 for c, x in enumerate(right[b0])]


def identity(n):
    return [[[1] if i == j else [] for j in range(n)] for i in range(n)]


def reduced(acc, p=None):
    """The coefficients mod p (as they are when p is None), without trailing
    zeros."""
    if p:
        acc = [c % p for c in acc]
    while acc and not acc[-1]:
        acc.pop()
    return acc


def mulsum(base, pairs, p=None):
    """base + sum of x * y over the pairs, over Z/p, or over Z when p is
    None."""
    pairs = [(x, y) for x, y in pairs if x and y]
    if not pairs:
        return base
    acc = list(base)
    for x, y in pairs:
        if len(acc) < len(x) + len(y) - 1:
            acc.extend([0] * (len(x) + len(y) - 1 - len(acc)))
        for i, c in enumerate(x):
            if c:
                for j, e in enumerate(y, i):
                    acc[j] += c * e
    return reduced(acc, p)


def quotient(a, b, inv, p, drop_constant):
    """Quotient of a by b over Z/p (inv is the inverse of b's leading
    coefficient), with its constant term zeroed when drop_constant."""
    db = len(b) - 1
    if len(a) <= db:
        return []
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] % p * inv % p
        if c:
            q[i] = c
            for j in range(db):
                r[i + j] -= c * b[j]
    if drop_constant:
        q[0] = 0
    while q and not q[-1]:
        q.pop()
    return q


# -- rebuilding exact values from their images --------------------------------------


def reconstruct(group):
    """Exact levels from the images in group: pairs of a prime and its
    level images, all with the same traces.

    Returns the exact levels rebuilt before the first one the primes do not
    determine yet, each as (rows, cols, left, right, pivot, end, next rows,
    next cols) with left and right as (den, numerators) (None when the
    level eliminated nothing), pivot as (row, column, (den, numerators))
    and end a matrix of (den, numerators).  Each call rebuilds from the
    first level of group, so a level that failed before is tried again in
    full once more primes are in."""
    lift = Lift([p for p, _ in group])
    exact = []
    for k, (_, rows, cols, left, _, pivot, _) in enumerate(group[0][1]):
        images = [levels[k] for _, levels in group]
        parts = {}
        if left is not None:
            parts["left"] = [[f for row in img[3] for f in row] for img in images]
            parts["right"] = [[f for row in img[4] for f in row] for img in images]
        parts["rest"] = [[img[5][2]] + [f for row in img[6] for f in row] for img in images]
        built = {}
        for name, part in parts.items():
            built[name] = rebuild(part, lift)
            if built[name] is None:
                return exact
        i0, j0 = pivot[0], pivot[1]
        den, nums = built["rest"]
        polys = [(den, f) for f in nums]
        next_rows = tuple(i for i in rows if i != i0)
        next_cols = tuple(j for j in cols if j != j0)
        width = len(next_cols)
        exact.append((rows, cols, built.get("left"), built.get("right"), (i0, j0, polys[0]),
                      [polys[1 + a * width:1 + (a + 1) * width] for a in range(len(next_rows))],
                      next_rows, next_cols))
    return exact


class Lift:
    """Chinese remaindering to the symmetric range over a fixed list of
    primes, in mixed radix so that a small value shows after a few primes."""

    def __init__(self, primes):
        self.primes = primes
        self.radix = []
        self.inverse = []
        modulus = 1
        for p in primes:
            self.radix.append(modulus)
            self.inverse.append(pow(modulus % p, -1, p))
            modulus *= p
        self.modulus = modulus

    def __call__(self, residues):
        """(value, settled): settled when a vanishing mixed-radix digit
        confirmed the value before the primes ran out."""
        value = 0
        for t, (r, p) in enumerate(zip(residues, self.primes)):
            digit = (r - value) % p * self.inverse[t] % p
            if not digit and t:
                return value, True
            if digit > p >> 1:
                digit -= p
            value += digit * self.radix[t]
        return value, False


def rebuild(images, lift):
    """Exact polynomials from their images (one list of residue polynomials
    per prime) as (den, numerators): integer coefficient lists over one
    shared denominator, which rational reconstruction extends whenever a
    coefficient needs it.  None when the primes do not determine them yet."""
    primes = lift.primes
    limit = lift.modulus.bit_length() - MARGIN
    den = 1
    den_res = [1] * len(primes)
    polys = []
    for entry in zip(*images):
        nums = []
        for k in range(max(map(len, entry))):
            value, settled = lift([f[k] * s % p if k < len(f) else 0
                                   for f, s, p in zip(entry, den_res, primes)])
            if not settled and abs(value).bit_length() > limit:
                frac = rational(value, lift.modulus)
                if frac is None:
                    return None
                value, extra = frac
                den *= extra
                den_res = [den % p for p in primes]
                nums = [c * extra for c in nums]
            nums.append(value)
        polys.append((den, nums))
    return den, [[c * (den // d) for c in nums] if d != den else nums for d, nums in polys]


def rational(value, modulus):
    """Rational reconstruction: a/b = value mod modulus from the Euclidean
    remainder sequence of (modulus, value).  A quotient q after the pair
    (a, b) bounds |a| * b by modulus / q, so the first quotient above
    2**MARGIN marks the fraction that maximal-quotient reconstruction
    (Monagan 2004) would pick; None if there is none."""
    r0, r1 = modulus, value % modulus
    t0, t1 = 0, 1
    top = 1 << MARGIN
    while r1:
        q, r = divmod(r0, r1)
        if q > top:
            a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
            return (a, b) if math.gcd(b, modulus) == 1 else None
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    return None


def compose(levels, n, side):
    """(den, numerators) of U = L_1 * L_2 * ... (side 2) or of
    V = ... * R_2 * R_1 (side 3) from the exact levels, each level's factor
    acting on its rows resp. columns and the identity elsewhere, as in the
    recursion of the exact elimination.  V is built as the transpose of the
    product of the transposed R, in the same order as U.  The products are
    taken from the last level up, so that the large factors of the last
    levels meet the small ones of the first."""
    # x stays the identity outside the rows (columns) of the level last applied
    den, x = 1, identity(n)
    for level in reversed(levels):
        if level[side] is None:
            continue
        at = level[side - 2]
        na = len(at)
        s, flat = level[side]
        if side == 3:
            flat = [flat[b * na + a] for a in range(na) for b in range(na)]
        block = {at[a]: [mulsum([], zip(flat[a * na:(a + 1) * na], [x[i][c] for i in at]))
                         if c in at else [] for c in range(n)] for a in range(na)}
        x = [block.get(r) or [[c * s for c in f] for f in x[r]] for r in range(n)]
        den *= s
    return den, x if side == 2 else [list(col) for col in zip(*x)]


# -- the certificate: the product of the factors against M, by values --------------


def product_equals(u, d, sigma, v, m):
    """Whether U * D * P_sigma * V equals M, from U, V and M as matrices and
    D as the list of its diagonal entries, each entry (den, numerators).

    Entry (i, j) of the product is the sum over k of
    U[i][k] * D[k][k] * V[sigma(k)][j].  Over the least common denominator L
    of its terms it is an integer polynomial of degree at most K, so it
    equals M[i][j] exactly when L times each agree at 0, 1, ...,
    max(K, deg M[i][j]): two polynomials of degree at most K' that agree at
    K' + 1 points are equal.  The values are products of integers no larger
    than the factors' coefficients, where multiplying out the polynomials
    would build the large terms that cancel in the sum."""
    n = len(d)
    # column k of U and row sigma(k) of V, each over one denominator as
    # (den, [(multiplier, numerators)])
    ucols = [over_common([u[i][k] for i in range(n)]) for k in range(n)]
    vrows = [over_common(v[sigma[k]]) for k in range(n)]
    ks = [k for k in range(n) if d[k][1]]
    dens = {k: ucols[k][0] * d[k][0] * vrows[k][0] for k in ks}
    den = math.lcm(*dens.values())
    scales = {k: den // x for k, x in dens.items()}
    counts = [[max(len(m[i][j][1]),
                   1 + max((len(ucols[k][1][i][1]) + len(d[k][1]) + len(vrows[k][1][j][1]) - 3
                            for k in ks if ucols[k][1][i][1] and vrows[k][1][j][1]), default=-1))
               for j in range(n)] for i in range(n)]

    for t in range(max(max(row) for row in counts)):
        # the values at t of the entries still compared
        sums = [[0] * n for _ in range(n)]
        live_i = [i for i in range(n) if any(t < c for c in counts[i])]
        live_j = [j for j in range(n) if any(t < counts[i][j] for i in range(n))]
        for k in ks:
            scale = horner(d[k][1], t) * scales[k]
            col = {i: horner(f, t) * c for i in live_i for c, f in [ucols[k][1][i]] if f}
            row = {j: horner(f, t) * c * scale for j in live_j for c, f in [vrows[k][1][j]] if f}
            for i, a in col.items():
                if a:
                    for j, b in row.items():
                        if b and t < counts[i][j]:
                            sums[i][j] += a * b
        for i, row in enumerate(sums):
            for j, value in enumerate(row):
                if t < counts[i][j] and value * m[i][j][0] != den * horner(m[i][j][1], t):
                    return False
    return True


def over_common(polys):
    """(den, [(multiplier, numerators)]): the polynomials over their least
    common denominator."""
    den = math.lcm(*(d for d, nums in polys if nums))
    return den, [(den // d, nums) for d, nums in polys]


def horner(nums, t):
    acc = 0
    for c in reversed(nums):
        acc = acc * t + c
    return acc
