"""Fixed-point kernel for the nested power series at argument 1/2.

Coefficient arrays represent g(u; z) = I(0; u; z) = sum c_n z^n, with
|c_n| <= 1, tapered: C[n] ~ c_n 2^(S-n), S = F + G, G = M.bit_length() + 2.
At z = 1/2 the term c_n weighs 2^-n, so C[n] carries the bits it needs
and the value g(u; 1/2) 2^F is the plain sum(C) >> G.  Error, in ulps of
each entry's own scale, after j letters (g_init is the first): at most j.
g_init floors once (< 1).  Letter 0 floors C[n] / n (adds < 1).  Letter 1
keeps s = (s >> 1) + C[m] ~ (c_1 + ... + c_m) 2^(S-m) within 1 + 2e when
the entries are within e >= 1, so D[m+1] = -(s // (2(m+1))) is within
e/2 + 5/4 <= e + 1.  g_value is within M j / 2^G + 1 <= j/4 + 1 ulps of
2^-F, inside the j + tail budget numerics charges a factor of j letters.

numerics calls these functions through the module (series.g_init(...)),
so a wrapper bound here sees every call.
"""

KERNEL = "python"


def g_init(M: int, F: int) -> list[int]:
    """Coefficients of g('1'; z) = log(1 - z): c_n = -1/n."""
    S = F + M.bit_length() + 2
    return [0] + [-((1 << (S - n)) // n) if S > n else 0 for n in range(1, M + 1)]


def g_append(C: list[int], bit: int, M: int, F: int) -> list[int]:
    """Append one letter at the outer end: c_n/n, or -(c_1 + ... + c_m)/(m+1)."""
    if bit == 0:
        return [0] + [C[n] // n for n in range(1, M + 1)]
    D = [0, 0]
    s = 0
    for m in range(1, M):
        s = (s >> 1) + C[m]
        D.append(-(s // (2 * m + 2)))
    return D


def g_value(C: list[int], M: int, F: int) -> int:
    """g(1/2) 2^F: the tapered scale already weighs c_n by 2^-n."""
    return sum(C) >> (M.bit_length() + 2)
