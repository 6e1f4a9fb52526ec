/* Compiled dual phase 1 of the bounded-variable simplex kernel.
 *
 * dual_phase mirrors _simplex_py.dual_phase operation for operation, with
 * the same signature; the state arrays and the status codes are documented
 * there.  Phase 2, the primal simplex, is _simplex_py.primal_phase alone:
 * the branch-and-bound nodes run phase 1 alone, and the witness polish's
 * rare phase 2 continues from this phase's state with the same bits.
 *
 * The tableau D holds only the nonbasic columns, nb naming the variable of
 * each; a pivot hands the entering variable's column to the leaving one as
 * e_r before the row division and the rank-1 update.  The phase is the dual
 * simplex at zero cost: the most violated basic variable leaves at the
 * bound it violates, the column of the largest |D[r, j]| that repairs its
 * row enters, and a violated row that no column repairs proves the LP
 * infeasible; that row goes back to the caller in `dead`, a one-element
 * int64 array (-1 on every other outcome).  Every floating-point update is
 * the same mul-then-sub or divide sequence (built with -ffp-contract=off,
 * so no fused multiply-add), and both picks use one rule (pick), ties going
 * to the lowest variable id, which keeps the two kernels bitwise
 * interchangeable.
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
 * its score is none, -v, v or |v| for its row entry v */
enum { CLOSED, INC, DEC, FREE };

typedef struct {
    double *D, *xB, *lo, *hi;
    int64_t *basis, *nb, *vstat, *dead;
    Py_ssize_t m, w;
} State;

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

/* The dual phase; `kind` holds a column kind per column of D and `score` a
 * score per column or row. */
static int run(const State *s, char *kind, double *score, double viol_tol,
               long long dantzig_limit, long long max_iter, double tiny,
               long long *iters_out)
{
    double *D = s->D, *xB = s->xB, *lo = s->lo, *hi = s->hi;
    int64_t *basis = s->basis, *nb = s->nb, *vstat = s->vstat;
    const Py_ssize_t m = s->m, w = s->w;
    long long iters = 0;
    Py_ssize_t p, r, i, j;

    for (p = 0; p < w; p++)
        kind[p] = kind_of(s, nb[p]);
    s->dead[0] = -1;

    for (;; iters++) {
        *iters_out = iters;
        if (iters >= max_iter)
            return ITER_LIMIT;
        const int bland = iters >= dantzig_limit;

        /* ---- the most violated basic variable leaves ---- */
        for (i = 0; i < m; i++) {
            const double below = lo[basis[i]] - xB[i], above = xB[i] - hi[basis[i]];
            score[i] = below > above ? below : above;
        }
        r = pick(score, basis, m, viol_tol, bland);
        if (r < 0)
            return OPTIMAL;
        const int up = xB[r] < lo[basis[r]];
        /* ---- the column that repairs row r with the largest |D[r, j]| ---- */
        double *row = D + r * w;
        const double sign = up ? 1.0 : -1.0;
        for (j = 0; j < w; j++) {
            const double v = sign * row[j];
            score[j] = kind[j] == INC ? -v : kind[j] == DEC ? v : kind[j] == FREE ? fabs(v) : 0.0;
        }
        p = pick(score, nb, w, tiny, bland);
        if (p < 0) {
            s->dead[0] = r;
            return INFEASIBLE;
        }
        const int64_t q = nb[p];
        const double d = (vstat[q] == 1 || (vstat[q] == 3 && sign * row[p] < 0.0)) ? 1.0 : -1.0;
        const double t = (xB[r] - (up ? lo[basis[r]] : hi[basis[r]])) / (d * row[p]);

        /* ---- pivot: the leaving variable takes column p as e_r ---- */
        const double tstep = d * t;
        const int64_t leaving = basis[r];
        const double vq = vstat[q] == 1 ? lo[q] : vstat[q] == 2 ? hi[q] : 0.0;
        for (i = 0; i < m; i++)
            xB[i] -= tstep * D[i * w + p];
        xB[r] = vq + tstep;
        const double piv = row[p];
        row[p] = 1.0;
        for (j = 0; j < w; j++)
            row[j] /= piv;
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
        vstat[leaving] = up ? 1 : 2;
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
static const char *const names[NBUF] = {"D", "xB", "basis", "nb", "vstat", "lo", "hi", "dead"};

/* Check the lengths and the basis and nb indices of the acquired buffers,
 * then run. */
static PyObject *run_views(Py_buffer *view, double viol_tol, long long dantzig_limit,
                           long long max_iter, double tiny)
{
    const Py_ssize_t m = view[0].shape[0], w = view[0].shape[1], n = w + m;
    const Py_ssize_t expect[NBUF] = {0, m, m, w, n, n, n, 1};
    for (int k = 1; k < NBUF; k++)
        if (view[k].shape[0] != expect[k])
            return PyErr_Format(PyExc_ValueError, "%s has length %zd, D.shape gives %zd",
                                names[k], view[k].shape[0], expect[k]);
    const State s = {.D = view[0].buf, .xB = view[1].buf, .basis = view[2].buf,
                     .nb = view[3].buf, .vstat = view[4].buf, .lo = view[5].buf,
                     .hi = view[6].buf, .dead = view[7].buf, .m = m, .w = w};
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
    char *kind = malloc((size_t)w + 1);
    if (score == NULL || kind == NULL) {
        free(score);
        free(kind);
        return PyErr_NoMemory();
    }
    long long iters = 0;
    const int status = run(&s, kind, score, viol_tol, dantzig_limit, max_iter, tiny, &iters);
    free(score);
    free(kind);
    return Py_BuildValue("(iL)", status, iters);
}

static PyObject *dual_phase(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *obj[NBUF];
    double viol_tol, tiny;
    long long dantzig_limit, max_iter;
    if (!PyArg_ParseTuple(args, "OOOOOOOdLLdO:dual_phase", &obj[0], &obj[1], &obj[2],
                          &obj[3], &obj[4], &obj[5], &obj[6], &viol_tol, &dantzig_limit,
                          &max_iter, &tiny, &obj[7]))
        return NULL;

    Py_buffer view[NBUF];
    PyObject *result = NULL;
    int held = 0;
    while (held < NBUF) {
        const int is_index = (held >= 2 && held <= 4) || held == 7;
        if (get_buffer(obj[held], &view[held], names[held], held == 0 ? 2 : 1,
                       is_index ? "lq" : "d") < 0)
            break;
        held++;
    }
    if (held == NBUF)
        result = run_views(view, viol_tol, dantzig_limit, max_iter, tiny);
    while (held > 0)
        PyBuffer_Release(&view[--held]);
    return result;
}

static PyMethodDef methods[] = {
    {"dual_phase", dual_phase, METH_VARARGS,
     "dual_phase(D, xB, basis, nb, vstat, lo, hi, viol_tol, dantzig_limit, max_iter,\n"
     "tiny, dead): _simplex_py.dual_phase, compiled; returns (status, iters)\n"
     "and puts the row that proves it INFEASIBLE in dead[0]."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_simplex_c", "Compiled dual phase of the simplex kernel.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__simplex_c(void)
{
    return PyModule_Create(&module);
}
