/* Compiled scan kernel: fixed points and proper 3-cycles of the
 * successor-inverse map t(a) = -(a+1)^-1 restricted to the core mod p^k.
 *
 * Same algorithm as the pure twin in _kernel_py.py: walk the core once
 * into a table keyed by residue class, keep the FLT-pair members
 * S = {a in core : a + 1 in core}, and invert only on S.
 *
 * The core, the image of n -> n^(p^(k-1)), is fixed by n mod p, so any
 * primitive root g mod p gives its generator h = g^(p^(k-1)) mod p^k. It
 * is cyclic of order p - 1 and holds -1 = h^((p-1)/2), so the
 * second half of the powers h^0, ..., h^(p-2) mirrors the first:
 * h^(i + (p-1)/2) = m - h^i, in class p - (h^i mod p). The walk therefore
 * covers only h^0, ..., h^((p-3)/2) and fills each mirror class with one
 * subtraction. That half walk is nearly all of the work. Each step is a
 * Montgomery product (P. L. Montgomery, "Modular multiplication without
 * trial division", Math. Comp. 44, 1985) with R = 2^64, which needs an
 * odd modulus: with hr = h * R mod m, REDC(e * hr) = e * h mod m in three
 * multiplies and no division. Moduli stay below 2^63 so that
 * e * hr + u * m < 2^128 and one conditional subtract brings the result
 * below m. Four chains of q = ceil((p-1)/8) steps, started q powers
 * apart, step in one loop so that their multiply latencies overlap; the
 * up to three powers the last one walks past h^((p-3)/2) are mirrors of
 * walked ones, so they rewrite entries with the values they hold. The
 * class x mod p comes from a multiply by floor((2^64 - 1) / p) instead
 * of a division. Eight chains measured no faster (2-vCPU x86-64, gcc -O3),
 * and a uint32 table of (e - class) / p at k = 2 measured slower.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

#ifndef __SIZEOF_INT128__
#error "the scan kernel needs a compiler with unsigned __int128"
#endif

typedef uint64_t u64;
typedef int64_t i64;
typedef unsigned __int128 u128;

static u64 mulmod(u64 a, u64 b, u64 m) { return (u64)((u128)a * b % m); }

/* -m^-1 mod 2^64 for odd m: m * m = 1 mod 8 gives 3 bits, and each
 * Newton step doubles them, 3 -> 96 in five */
static u64 neg_inv64(u64 m) {
    u64 x = m;
    int i;
    for (i = 0; i < 5; i++) x *= 2 - m * x;
    return -x;
}

/* a * b / 2^64 mod m for odd m < 2^63 and a, b < m; mp = neg_inv64(m) */
static inline u64 redc_mul(u64 a, u64 b, u64 m, u64 mp) {
    u128 t = (u128)a * b;
    u64 u = (u64)t * mp;  /* t + u * m = 0 mod 2^64 and < 2^128 */
    u64 r = (u64)((t + (u128)u * m) >> 64);
    return r >= m ? r - m : r;
}

/* x mod p for any x < 2^64, with pinv = floor((2^64 - 1) / p): the
 * quotient estimate is short by at most one */
static inline u64 class_of(u64 x, u64 p, u64 pinv) {
    u64 r = x - (u64)(((u128)x * pinv) >> 64) * p;
    return r >= p ? r - p : r;
}

static u64 powmod(u64 base, u64 e, u64 m) {
    u64 r = 1 % m;
    base %= m;
    for (; e; e >>= 1) {
        if (e & 1) r = mulmod(r, base, m);
        base = mulmod(base, base, m);
    }
    return r;
}

/* extended Euclid; a must be a unit mod m < 2^63 */
static u64 invmod(u64 a, u64 m) {
    i64 t = 0, newt = 1, r = (i64)m, newr = (i64)a, q, tmp;
    while (newr != 0) {
        q = r / newr;
        tmp = t - q * newt; t = newt; newt = tmp;
        tmp = r - q * newr; r = newr; newr = tmp;
    }
    return (u64)(t < 0 ? t + (i64)m : t);
}

/* Smallest primitive root mod p, as residues._smallest_primitive_root;
 * 0 when p is not prime. The first g passing the order test must also
 * have g^(p-1) = 1 mod p: by Lucas' test that holds for some g exactly
 * when p is prime. Kept here because callers pass only (p, k). */
static u64 primroot(u64 p) {
    u64 factors[16], n = p - 1, g, q;  /* p - 1 < 2^63 has at most 15 */
    int nf = 0, i;
    for (q = 2; q * q <= n; q++)
        if (n % q == 0) {
            factors[nf++] = q;
            while (n % q == 0) n /= q;
        }
    if (n > 1) factors[nf++] = n;
    for (g = 2; g < p; g++) {
        for (i = 0; i < nf && powmod(g, (p - 1) / factors[i], p) != 1; i++) {}
        if (i == nf) break;
    }
    return g == p || powmod(g, p - 1, p) != 1 ? 0 : g;
}

/* t(a) if it lies in the core, else 0 with AssertionError set */
static u64 t_in_core(u64 a, u64 p, u64 pinv, u64 m, const u64 *by_class) {
    u64 b = m - invmod(a + 1, m);
    if (by_class[class_of(b, p, pinv)] == b) return b;
    PyErr_Format(PyExc_AssertionError, "t(%llu) = %llu left the core mod %llu",
                 (unsigned long long)a, (unsigned long long)b, (unsigned long long)m);
    return 0;
}

static int append_new(PyObject *list, PyObject *item) {
    int rc = item ? PyList_Append(list, item) : -1;
    Py_XDECREF(item);
    return rc;
}

static PyObject *scan_core_triplets(PyObject *self, PyObject *args) {
    long long p_in;
    int k, i;
    if (!PyArg_ParseTuple(args, "Li", &p_in, &k)) return NULL;
    if (p_in < 3 || k < 1) return PyErr_Format(PyExc_ValueError, "need p >= 3 and k >= 1");
    u64 p = (u64)p_in, m = 1, pk1 = 1;
    for (i = 0; i < k; i++) {
        if (m > ((u64)1 << 63) / p) return PyErr_Format(PyExc_OverflowError,
                                                        "%lld^%d exceeds 2^63", p_in, k);
        m *= p;
    }
    u64 g = p % 2 ? primroot(p) : 0;  /* even p: Montgomery needs an odd m */
    if (g == 0) return PyErr_Format(PyExc_ValueError, "%lld is not prime", p_in);
    for (i = 1; i < k; i++) pk1 *= p;
    u64 h = powmod(g, pk1, m), r, a, b, c;
    u64 *by_class = calloc(p, sizeof(u64));  /* class 0 holds no unit */
    if (by_class == NULL) return PyErr_NoMemory();
    /* the walk stores each element e = h^i, of class x, with its mirror
     * m - e = h^(i + half), of class p - x. Chain j walks h^(j*q), ...,
     * h^(j*q + q - 1), so the four cover h^0, ..., h^(half - 1) */
    u64 pinv = UINT64_MAX / p, mp = neg_inv64(m), hr = (u64)(((u128)h << 64) % m);
    u64 half = (p - 1) / 2, q = (half + 3) / 4, e[4], step, x;
    e[0] = 1;
    e[1] = powmod(h, q, m);
    e[2] = mulmod(e[1], e[1], m);
    e[3] = mulmod(e[2], e[1], m);
    for (step = 0; step < q; step++)
        for (i = 0; i < 4; i++) {
            x = class_of(e[i], p, pinv);
            by_class[x] = e[i];
            by_class[p - x] = m - e[i];
            e[i] = redc_mul(e[i], hr, m, mp);
        }
    PyObject *fixed = PyList_New(0), *triplets = PyList_New(0), *out = NULL;
    if (fixed == NULL || triplets == NULL) goto done;
    for (r = 1; r + 1 < p; r++) {
        a = by_class[r];
        if (by_class[r + 1] != a + 1) continue;  /* a is not in S */
        if ((b = t_in_core(a, p, pinv, m, by_class)) == 0) goto done;
        if (b == a) {
            if (append_new(fixed, PyLong_FromUnsignedLongLong(a)) < 0) goto done;
            continue;
        }
        if ((c = t_in_core(b, p, pinv, m, by_class)) == 0) goto done;
        if (a < b && a < c &&
            append_new(triplets, Py_BuildValue("(KKK)", (unsigned long long)a,
                                               (unsigned long long)b, (unsigned long long)c)) < 0)
            goto done;
    }
    if (PyList_Sort(fixed) == 0 && PyList_Sort(triplets) == 0)
        out = PyTuple_Pack(2, fixed, triplets);
done:
    free(by_class);
    Py_XDECREF(fixed);
    Py_XDECREF(triplets);
    return out;
}

static PyMethodDef methods[] = {
    {"scan_core_triplets", scan_core_triplets, METH_VARARGS,
     "scan_core_triplets(p, k)\n--\n\n"
     "Fixed points and proper 3-cycles of a -> -(a+1)^-1 on the core mod p^k.\n\n"
     "Returns (sorted fixed-point values, sorted canonical triplet tuples);\n"
     "a triplet is canonical when its leading member is the cycle minimum."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernel", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernel(void) { return PyModule_Create(&module); }
