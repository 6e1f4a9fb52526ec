/* Compiled bounded-variable simplex kernel.
 *
 * run_phase mirrors _simplex_py.run_phase operation for operation; the
 * contract, the state arrays and the status codes are documented there.
 * Every floating-point update is the same mul-then-sub or divide sequence
 * (built with -ffp-contract=off, so no fused multiply-add), reductions run
 * sequentially in row order, and ties break by strict inequality and lowest
 * index, which keeps the two kernels bitwise interchangeable.
 *
 * The arrays arrive through the buffer protocol.  Their dtype, layout and
 * lengths, and the basis indices, are checked before any raw pointer is
 * read: a wrong argument raises ValueError or BufferError and leaves every
 * array as it was.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OPTIMAL, REACHED_STOP, UNBOUNDED, TINY_PIVOT, ITER_LIMIT };

typedef struct {
    double *T, *z, *xB, *lo, *hi;
    int64_t *basis, *vstat;
    Py_ssize_t m, n, n_art_start;
} State;

static double infeasibility(const State *s)
{
    double sum = 0.0;
    for (Py_ssize_t i = 0; i < s->m; i++)
        if (s->basis[i] >= s->n_art_start)
            sum += s->xB[i];
    return sum;
}

static int run(const State *s, char *banned, int phase1, double stop_sum,
               long long dantzig_limit, long long max_iter, double opt_tol,
               double tiny, long long *iters_out)
{
    double *T = s->T, *z = s->z, *xB = s->xB, *lo = s->lo, *hi = s->hi;
    int64_t *basis = s->basis, *vstat = s->vstat;
    const Py_ssize_t m = s->m, n = s->n;
    long long iters = 0;
    Py_ssize_t q, r, i, j;
    double d, t_limit;

    for (;; iters++) {
        *iters_out = iters;
        if (phase1 && infeasibility(s) <= stop_sum)
            return REACHED_STOP;
        if (iters >= max_iter)
            return ITER_LIMIT;

        const int bland = iters >= dantzig_limit;
        int banned_any = 0;
        memset(banned, 0, (size_t)n);

        for (;;) {
            /* ---- pricing ---- */
            q = -1;
            double best = opt_tol;
            for (j = 0; j < n; j++) {
                if (vstat[j] == 0 || banned[j] || lo[j] == hi[j])
                    continue;
                const double zj = z[j];
                double score;
                if ((vstat[j] == 1 || vstat[j] == 3) && zj < -opt_tol)
                    score = -zj;
                else if ((vstat[j] == 2 || vstat[j] == 3) && zj > opt_tol)
                    score = zj;
                else
                    continue;
                if (bland) { /* first eligible column */
                    q = j;
                    break;
                }
                if (score > best) {
                    best = score;
                    q = j;
                }
            }
            if (q < 0)
                return banned_any ? TINY_PIVOT : OPTIMAL;
            d = (vstat[q] == 1 || (vstat[q] == 3 && z[q] < 0.0)) ? 1.0 : -1.0;

            /* ---- ratio test ---- */
            t_limit = hi[q] - lo[q];
            r = -1;
            for (i = 0; i < m; i++) {
                const double a = d * T[i * n + q];
                double bound;
                if (a > tiny) {
                    bound = lo[basis[i]];
                    if (!(bound > -INFINITY))
                        continue;
                } else if (a < -tiny) {
                    bound = hi[basis[i]];
                    if (!(bound < INFINITY))
                        continue;
                } else {
                    continue;
                }
                double t = (xB[i] - bound) / a;
                if (t < 0.0)
                    t = 0.0;
                if (t < t_limit) {
                    t_limit = t;
                    r = i;
                } else if (bland && r >= 0 && t == t_limit && basis[i] < basis[r]) {
                    r = i;
                }
            }

            if (t_limit == INFINITY) {
                /* a row with a sub-tiny nonzero coefficient may still block;
                 * never report unbounded over an ignored tiny pivot */
                int skipped = 0;
                for (i = 0; i < m && !skipped; i++) {
                    const double a = d * T[i * n + q];
                    skipped = (a > 0.0 && a <= tiny && lo[basis[i]] > -INFINITY)
                              || (a < 0.0 && a >= -tiny && hi[basis[i]] < INFINITY);
                }
                if (!skipped)
                    return UNBOUNDED;
                banned[q] = 1;
                banned_any = 1;
                continue;
            }
            break;
        }

        const double tstep = d * t_limit;
        if (r < 0) {
            /* ---- bound flip ---- */
            for (i = 0; i < m; i++)
                xB[i] -= tstep * T[i * n + q];
            vstat[q] = d > 0.0 ? 2 : 1;
            continue;
        }
        /* ---- pivot ---- */
        const int64_t leaving = basis[r];
        const int64_t leave_to = d * T[r * n + q] > 0.0 ? 1 : 2;
        const double vq = vstat[q] == 1 ? lo[q] : vstat[q] == 2 ? hi[q] : 0.0;
        for (i = 0; i < m; i++)
            xB[i] -= tstep * T[i * n + q];
        xB[r] = vq + d * t_limit;
        double *row = T + r * n;
        const double piv = row[q];
        for (j = 0; j < n; j++)
            row[j] /= piv;
        const double zq = z[q];
        for (j = 0; j < n; j++)
            z[j] -= zq * row[j];
        /* The NumPy kernel subtracts one outer product with row r's factor
         * masked to 0, so every row sees the divided row r before r's own
         * update, which turns its -0.0 entries into +0.0: update r last. */
        for (i = 0; i < m; i++) {
            if (i == r)
                continue;
            const double fac = T[i * n + q];
            for (j = 0; j < n; j++)
                T[i * n + j] -= fac * row[j];
        }
        for (j = 0; j < n; j++)
            row[j] -= 0.0 * row[j];
        basis[r] = q;
        vstat[q] = 0;
        vstat[leaving] = leave_to;
        if (leaving >= s->n_art_start) {
            lo[leaving] = 0.0;
            hi[leaving] = 0.0;
        }
    }
}

/* Take a writable C-contiguous buffer of `ndim` dimensions whose 8-byte
 * items have one of the struct format `codes`; on failure set an exception,
 * hold no buffer and return -1. */
static int get_buffer(PyObject *obj, Py_buffer *view, const char *name,
                      int ndim, const char *codes)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return -1;
    const char *f = view->format ? view->format : "B";
    if (*f == '@' || *f == '=')
        f++;
    if (view->ndim != ndim || view->itemsize != 8 || f[0] == '\0' || f[1] != '\0'
        || strchr(codes, f[0]) == NULL) {
        PyErr_Format(PyExc_ValueError, "%s must be a %d-D C-contiguous %s array",
                     name, ndim, codes[0] == 'd' ? "float64" : "int64");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

enum { NBUF = 7 };
static const char *const names[NBUF] = {"T", "z", "xB", "basis", "vstat", "lo", "hi"};

/* Check the lengths and the basis indices of the acquired buffers, then run. */
static PyObject *run_views(Py_buffer *view, Py_ssize_t n_art_start, int phase1,
                           double stop_sum, long long dantzig_limit,
                           long long max_iter, double opt_tol, double tiny)
{
    const Py_ssize_t m = view[0].shape[0], n = view[0].shape[1];
    const Py_ssize_t expect[NBUF] = {0, n, m, m, n, n, n};
    for (int k = 1; k < NBUF; k++)
        if (view[k].shape[0] != expect[k])
            return PyErr_Format(PyExc_ValueError, "%s has length %zd, T.shape gives %zd",
                                names[k], view[k].shape[0], expect[k]);
    const State s = {.T = view[0].buf, .z = view[1].buf, .xB = view[2].buf,
                     .basis = view[3].buf, .vstat = view[4].buf,
                     .lo = view[5].buf, .hi = view[6].buf,
                     .m = m, .n = n, .n_art_start = n_art_start};
    for (Py_ssize_t i = 0; i < m; i++)
        if (s.basis[i] < 0 || s.basis[i] >= n)
            return PyErr_Format(PyExc_ValueError, "basis[%zd] = %lld is not a column of T",
                                i, (long long)s.basis[i]);

    char *banned = malloc((size_t)n + 1);
    if (banned == NULL)
        return PyErr_NoMemory();
    long long iters = 0;
    const int status = run(&s, banned, phase1, stop_sum, dantzig_limit, max_iter,
                           opt_tol, tiny, &iters);
    free(banned);
    return Py_BuildValue("(iL)", status, iters);
}

static PyObject *run_phase(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *obj[NBUF];
    Py_ssize_t n_art_start;
    int phase1;
    double stop_sum, opt_tol, tiny;
    long long dantzig_limit, max_iter;
    if (!PyArg_ParseTuple(args, "OOOOOOOnidLLdd:run_phase", &obj[0], &obj[1],
                          &obj[2], &obj[3], &obj[4], &obj[5], &obj[6],
                          &n_art_start, &phase1, &stop_sum, &dantzig_limit,
                          &max_iter, &opt_tol, &tiny))
        return NULL;

    Py_buffer view[NBUF];
    PyObject *result = NULL;
    int held = 0;
    while (held < NBUF) {
        const int is_index = held == 3 || held == 4;
        if (get_buffer(obj[held], &view[held], names[held], held == 0 ? 2 : 1,
                       is_index ? "lq" : "d") < 0)
            break;
        held++;
    }
    if (held == NBUF)
        result = run_views(view, n_art_start, phase1, stop_sum, dantzig_limit,
                           max_iter, opt_tol, tiny);
    while (held > 0)
        PyBuffer_Release(&view[--held]);
    return result;
}

static PyMethodDef methods[] = {
    {"run_phase", run_phase, METH_VARARGS,
     "Drop-in replacement for _simplex_py.run_phase; returns (status, iters)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_simplex_c", "Compiled bounded-variable simplex kernel.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__simplex_c(void)
{
    return PyModule_Create(&module);
}
