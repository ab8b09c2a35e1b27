"""Fixed-point kernel for the nested power series at argument 1/2.

Coefficient arrays represent g(u; z) = I(0; u; z) as sum c_n z^n with
c_n stored as integers scaled by 2^F.  All |c_n| <= 1, so one floor
division per transform keeps every entry within one extra ulp per
appended letter.

numerics calls these functions through the module (series.g_init(...)),
so a wrapper bound here sees every call.
"""

KERNEL = "python"


def g_init(M: int, F: int) -> list[int]:
    """Coefficients of g('1'; z) = log(1 - z): c_n = -1/n."""
    one = 1 << F
    C = [0] * (M + 1)
    for n in range(1, M + 1):
        C[n] = -(one // n)
    return C


def g_append(C: list[int], bit: int, M: int, F: int) -> list[int]:
    """Append one letter at the outer end of the word.

    Letter 0 maps c_n to c_n/n; letter 1 maps c to the running-sum
    transform d_{m+1} = -(c_1 + ... + c_m)/(m+1).
    """
    D = [0] * (M + 1)
    if bit == 0:
        for n in range(1, M + 1):
            D[n] = C[n] // n
        return D
    s = 0
    for m in range(1, M):
        s += C[m]
        D[m + 1] = -(s // (m + 1))
    return D


def g_value(C: list[int], M: int, F: int) -> int:
    """sum_n c_n 2^-n by Horner; result scaled by 2^F."""
    v = 0
    for n in range(M, 0, -1):
        v = C[n] + (v >> 1)
    return v >> 1
