/* Compiled bounded-variable simplex kernel: a dual phase 1, a primal phase 2.
 *
 * run_phase mirrors _simplex_py.run_phase operation for operation; the
 * contract, the state arrays and the status codes are documented there.
 * The tableau D holds only the nonbasic columns, nb naming the variable of
 * each; a pivot hands the entering variable's column to the leaving one as
 * e_r before the row division and the rank-1 update.  Phase 1 is the dual
 * simplex at zero cost: the most violated basic variable leaves at the
 * bound it violates, the column of the largest |D[r, j]| that repairs its
 * row enters, and a violated row that no column repairs proves the LP
 * infeasible.  Phase 2 is the primal simplex.  Every floating-point update
 * is the same mul-then-sub or divide sequence (built with
 * -ffp-contract=off, so no fused multiply-add), and both phases pick by one
 * rule (pick), ties going to the lowest variable id, which keeps the two
 * kernels bitwise interchangeable.
 *
 * The arrays arrive through the buffer protocol.  Their dtype, layout and
 * lengths, and the basis and nb indices, are checked before any raw pointer
 * is read: a wrong argument raises ValueError or BufferError and leaves
 * every array as it was.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OPTIMAL, INFEASIBLE, UNBOUNDED, TINY_PIVOT, ITER_LIMIT };

/* how a nonbasic column may move, numbered like its variable's vstat:
 * its score is none, -v, v or |v| for its pricing value v */
enum { CLOSED, INC, DEC, FREE };

typedef struct {
    double *D, *z, *xB, *lo, *hi;
    int64_t *basis, *nb, *vstat;
    Py_ssize_t m, w;
} State;

/* per-call work space: a kind and a ban flag per column, a score per
 * column or row */
typedef struct {
    char *kind, *banned;
    double *score;
} Work;

/* the column's kind from its variable's status and bounds */
static char kind_of(const State *s, int64_t v)
{
    const int64_t st = s->vstat[v];
    return s->lo[v] == s->hi[v] || st < INC || st > FREE ? CLOSED : (char)st;
}

/* Index of the largest score above thresh, the lowest id on ties; under
 * Bland's rule the lowest id of all above it; -1 when none is. */
static Py_ssize_t pick(const double *score, const int64_t *ids, Py_ssize_t n,
                       double thresh, int bland)
{
    Py_ssize_t best = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!(score[i] > thresh))
            continue;
        if (best < 0
            || (bland ? ids[i] < ids[best]
                      : score[i] > score[best] || (score[i] == score[best] && ids[i] < ids[best])))
            best = i;
    }
    return best;
}

/* Score every column for the pricing values sign * v[j]: 0 when closed or
 * banned. */
static void score_columns(const State *s, const Work *wk, const double *v, double sign)
{
    for (Py_ssize_t j = 0; j < s->w; j++) {
        const double vj = sign * v[j];
        const char k = wk->banned[j] ? CLOSED : wk->kind[j];
        wk->score[j] = k == INC ? -vj : k == DEC ? vj : k == FREE ? fabs(vj) : 0.0;
    }
}

static int run(const State *s, const Work *wk, int phase, double viol_tol,
               long long dantzig_limit, long long max_iter, double opt_tol,
               double tiny, long long *iters_out)
{
    double *D = s->D, *z = s->z, *xB = s->xB, *lo = s->lo, *hi = s->hi;
    int64_t *basis = s->basis, *nb = s->nb, *vstat = s->vstat;
    char *kind = wk->kind;
    const Py_ssize_t m = s->m, w = s->w;
    long long iters = 0;
    Py_ssize_t p, r, i, j;
    int64_t q, leave_to;
    double d, t_limit;

    for (p = 0; p < w; p++)
        kind[p] = kind_of(s, nb[p]);
    memset(wk->banned, 0, (size_t)w); /* only phase 2 bans */

    for (;; iters++) {
        *iters_out = iters;
        if (iters >= max_iter)
            return ITER_LIMIT;
        const int bland = iters >= dantzig_limit;

        if (phase == 1) {
            /* ---- dual: the most violated basic variable leaves ---- */
            for (i = 0; i < m; i++) {
                const double below = lo[basis[i]] - xB[i], above = xB[i] - hi[basis[i]];
                wk->score[i] = below > above ? below : above;
            }
            r = pick(wk->score, basis, m, viol_tol, bland);
            if (r < 0)
                return OPTIMAL;
            const int up = xB[r] < lo[basis[r]];
            /* ---- the column that repairs row r with the largest |D[r, j]| ---- */
            const double *row = D + r * w;
            const double sign = up ? 1.0 : -1.0;
            score_columns(s, wk, row, sign);
            p = pick(wk->score, nb, w, tiny, bland);
            if (p < 0)
                return INFEASIBLE;
            q = nb[p];
            d = (vstat[q] == 1 || (vstat[q] == 3 && sign * row[p] < 0.0)) ? 1.0 : -1.0;
            t_limit = (xB[r] - (up ? lo[basis[r]] : hi[basis[r]])) / (d * row[p]);
            leave_to = up ? 1 : 2;
        } else {
            int banned_any = 0;
            memset(wk->banned, 0, (size_t)w);
            for (;;) {
                /* ---- primal pricing: score > opt_tol is eligible ---- */
                score_columns(s, wk, z, 1.0);
                p = pick(wk->score, nb, w, opt_tol, bland);
                if (p < 0)
                    return banned_any ? TINY_PIVOT : OPTIMAL;
                q = nb[p];
                d = (vstat[q] == 1 || (vstat[q] == 3 && z[p] < 0.0)) ? 1.0 : -1.0;

                /* ---- ratio test ---- */
                t_limit = hi[q] - lo[q];
                r = -1;
                for (i = 0; i < m; i++) {
                    const double a = d * D[i * w + p];
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
                        const double a = d * D[i * w + p];
                        skipped = (a > 0.0 && a <= tiny && lo[basis[i]] > -INFINITY)
                                  || (a < 0.0 && a >= -tiny && hi[basis[i]] < INFINITY);
                    }
                    if (!skipped)
                        return UNBOUNDED;
                    wk->banned[p] = 1;
                    banned_any = 1;
                    continue;
                }
                break;
            }
            leave_to = r >= 0 && d * D[r * w + p] > 0.0 ? 1 : 2;
        }

        const double tstep = d * t_limit;
        if (r < 0) {
            /* ---- bound flip ---- */
            for (i = 0; i < m; i++)
                xB[i] -= tstep * D[i * w + p];
            vstat[q] = d > 0.0 ? 2 : 1;
            kind[p] = d > 0.0 ? DEC : INC;
            continue;
        }
        /* ---- pivot: the leaving variable takes column p as e_r ---- */
        const int64_t leaving = basis[r];
        const double vq = vstat[q] == 1 ? lo[q] : vstat[q] == 2 ? hi[q] : 0.0;
        for (i = 0; i < m; i++)
            xB[i] -= tstep * D[i * w + p];
        xB[r] = vq + d * t_limit;
        double *row = D + r * w;
        const double piv = row[p];
        row[p] = 1.0;
        for (j = 0; j < w; j++)
            row[j] /= piv;
        if (phase != 1) {
            const double zq = z[p];
            z[p] = 0.0;
            for (j = 0; j < w; j++)
                z[j] -= zq * row[j];
        }
        /* The NumPy kernel subtracts one outer product with row r's factor
         * masked to 0, so every row sees the divided row r before r's own
         * update, which turns its -0.0 entries into +0.0: update r last. */
        for (i = 0; i < m; i++) {
            if (i == r)
                continue;
            double *di = D + i * w;
            const double fac = di[p];
            di[p] = 0.0;
            for (j = 0; j < w; j++)
                di[j] -= fac * row[j];
        }
        for (j = 0; j < w; j++)
            row[j] -= 0.0 * row[j];
        basis[r] = q;
        nb[p] = leaving;
        vstat[q] = 0;
        vstat[leaving] = leave_to;
        kind[p] = kind_of(s, leaving);
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

enum { NBUF = 8 };
static const char *const names[NBUF] = {"D", "z", "xB", "basis", "nb", "vstat", "lo", "hi"};

/* Check the lengths and the basis and nb indices of the acquired buffers,
 * then run. */
static PyObject *run_views(Py_buffer *view, int phase, double viol_tol,
                           long long dantzig_limit, long long max_iter,
                           double opt_tol, double tiny)
{
    const Py_ssize_t m = view[0].shape[0], w = view[0].shape[1], n = w + m;
    const Py_ssize_t expect[NBUF] = {0, w, m, m, w, n, n, n};
    for (int k = 1; k < NBUF; k++)
        if (view[k].shape[0] != expect[k])
            return PyErr_Format(PyExc_ValueError, "%s has length %zd, D.shape gives %zd",
                                names[k], view[k].shape[0], expect[k]);
    const State s = {.D = view[0].buf, .z = view[1].buf, .xB = view[2].buf,
                     .basis = view[3].buf, .nb = view[4].buf, .vstat = view[5].buf,
                     .lo = view[6].buf, .hi = view[7].buf,
                     .m = m, .w = w};
    for (Py_ssize_t i = 0; i < m; i++)
        if (s.basis[i] < 0 || s.basis[i] >= n)
            return PyErr_Format(PyExc_ValueError, "basis[%zd] = %lld is not a variable",
                                i, (long long)s.basis[i]);
    for (Py_ssize_t p = 0; p < w; p++)
        if (s.nb[p] < 0 || s.nb[p] >= n)
            return PyErr_Format(PyExc_ValueError, "nb[%zd] = %lld is not a variable",
                                p, (long long)s.nb[p]);

    const Py_ssize_t k = m > w ? m : w;
    double *score = malloc(((size_t)k + 1) * sizeof(double));
    char *flags = malloc(2 * (size_t)w + 1);
    if (score == NULL || flags == NULL) {
        free(score);
        free(flags);
        return PyErr_NoMemory();
    }
    const Work wk = {.kind = flags, .banned = flags + w, .score = score};
    long long iters = 0;
    const int status = run(&s, &wk, phase, viol_tol, dantzig_limit, max_iter,
                           opt_tol, tiny, &iters);
    free(score);
    free(flags);
    return Py_BuildValue("(iL)", status, iters);
}

static PyObject *run_phase(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *obj[NBUF];
    int phase;
    double viol_tol, opt_tol, tiny;
    long long dantzig_limit, max_iter;
    if (!PyArg_ParseTuple(args, "OOOOOOOOidLLdd:run_phase", &obj[0], &obj[1],
                          &obj[2], &obj[3], &obj[4], &obj[5], &obj[6], &obj[7],
                          &phase, &viol_tol, &dantzig_limit, &max_iter, &opt_tol,
                          &tiny))
        return NULL;

    Py_buffer view[NBUF];
    PyObject *result = NULL;
    int held = 0;
    while (held < NBUF) {
        const int is_index = held >= 3 && held <= 5;
        if (get_buffer(obj[held], &view[held], names[held], held == 0 ? 2 : 1,
                       is_index ? "lq" : "d") < 0)
            break;
        held++;
    }
    if (held == NBUF)
        result = run_views(view, phase, viol_tol, dantzig_limit, max_iter,
                           opt_tol, tiny);
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
