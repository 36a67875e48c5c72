/* Native kernels for the fluid engine's batch loop.
 *
 * Three entry points share the code below:
 *
 * - fused_step: one engine event — recompute the bandwidth rates from
 *   the remaining-work arrays (the fused rate modes), find the next
 *   event time (min over per-instance completion times, clamped by the
 *   wakeup/timeline boundary), drain the fluid work, and report the
 *   finished positions;
 * - camdn_advance: one CaMDN layer completion — Algorithm 1's
 *   end-of-layer predictor update plus the next layer's selection;
 * - camdn_batch: the batch loop itself for the CaMDN policies — the
 *   fused step of every event plus the completion chain of every
 *   non-final layer completion, until the loop must hand back to
 *   Python.
 *
 * Bit-identity contract
 * ---------------------
 * Every arithmetic expression below transcribes the exact shape and
 * evaluation order of the Python reference path:
 *
 *   demand   = (rem_d if rem_d > 1.0 else 1.0)
 *              / (t if (t := rem_c / freq) > 1e-9 else 1e-9)
 *   total    = left_sum(demands)               # left-to-right
 *   share    = base + remaining * (demand / total)
 *   rate_d   = r if (r := total_bw * share * eff) > 1e-6 else 1e-6
 *   t_i      = max(rem_c / rate_c, rem_d / rate_d)
 *   dt       = min(t_i, wait_dt)
 *   rem'     = max(rem - dt * rate, 0.0)
 *   finished = rem_c' <= 1e-9 and rem_d' <= 1e-9
 *
 * (see CaMDNSchedulerBase.bandwidth_shares,
 * MultiTenantEngine._recompute_rates and RunningKernel.step).  All
 * operations are IEEE-754 binary64 with correctly-rounded results, so
 * compiling without FP contraction (-ffp-contract=off) and without
 * value-changing optimisations makes the C results identical to
 * CPython's on any conforming host.  The only reduction besides the
 * left-to-right demand total is the event-time min, which is exact in
 * any order.  The Python paths take their totals with
 * repro.numeric.left_sum rather than ``sum()`` (which compensates from
 * Python 3.12 on), so the paths agree on every Python version.
 *
 * The functions are deliberately conservative: any input they are not
 * certain about (a non-float list item, a non-positive demand total)
 * makes them return None, telling the engine to take the pure-Python
 * path for that event or completion.  The Python and C paths are
 * interchangeable mid-run.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>

#define MODE_STATIC 0
#define MODE_DEMAND_PROP 1
#define MODE_SLACK_WEIGHTED 2
#define MODE_SLACK_THROTTLED 3

/* Stack buffers cover every realistic running-set width; wider sets
 * take one heap allocation per call. */
#define STACK_WIDTH 96

/* Per-position doubles of a step: rem_c, rem_d, rate_c, rate_d,
 * weights and the four slack inputs. */
#define STEP_ARRAYS 9

#define FINISH_EPS 1e-9

/* MultiTenantEngine's "a waiter / timeline event is due" tolerance. */
#define WAKE_EPS 1e-12

static int
read_doubles(PyObject *list, double *out, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (!PyFloat_CheckExact(item)) {
            return -1;
        }
        out[i] = PyFloat_AS_DOUBLE(item);
    }
    return 0;
}

static int
write_doubles(PyObject *list, const double *v, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        if (f == NULL) {
            return -1;
        }
        PyList_SetItem(list, i, f);
    }
    return 0;
}

/* One step's per-position scratch: STEP_ARRAYS doubles and one index
 * per position, on the stack up to STACK_WIDTH. */
typedef struct {
    double stack_d[STEP_ARRAYS * STACK_WIDTH];
    Py_ssize_t stack_i[STACK_WIDTH];
    double *d;
    Py_ssize_t *fin;
} step_buf;

static int
step_buf_init(step_buf *b, Py_ssize_t n)
{
    b->d = b->stack_d;
    b->fin = b->stack_i;
    if (n > STACK_WIDTH) {
        b->d = PyMem_Malloc((size_t)(STEP_ARRAYS * n) * sizeof(double));
        b->fin = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
        if (b->d == NULL || b->fin == NULL) {
            PyMem_Free(b->d);
            PyMem_Free(b->fin);
            b->d = NULL;
            b->fin = NULL;
            PyErr_NoMemory();
            return -1;
        }
    }
    return 0;
}

static void
step_buf_free(step_buf *b)
{
    if (b->d != b->stack_d) {
        PyMem_Free(b->d);
        PyMem_Free(b->fin);
    }
}

/* Rates of the fused modes into rc/rd (compute rate == freq for every
 * instance); -1 when the demand total is not positive, which the
 * Python fallback owns.
 *
 * MODE_DEMAND_PROP weighs instances by demand alone
 * (CaMDNSchedulerBase.bandwidth_shares /
 * MoCAScheduler.bandwidth_shares, no-deadline branch).  The slack
 * modes read the per-instance slack inputs (arrival time, QoS target,
 * estimated isolated latency, layer progress; slack transcribes
 * SchedulerPolicy.slack_of): MODE_SLACK_WEIGHTED is AuRORA's
 * exponential slack weighting (SlackWeightedPolicy.allocate),
 * MODE_SLACK_THROTTLED is MoCA's halve-when-comfortable throttle
 * feeding the demand-proportional split
 * (MoCAScheduler.bandwidth_shares, deadline branch). */
static int
fused_rates(long mode, Py_ssize_t n, const double *c, const double *d,
            const double *sa, const double *sq, const double *se,
            const double *sp, double now_t, double urgency,
            double freq, double total_bw, double eff, double fl,
            double *rc, double *rd, double *dem)
{
    double total = 0.0;
    double floor_total, base, remaining;
    Py_ssize_t i;

    for (i = 0; i < n; i++) {
        double t = c[i] / freq;
        double den = t > 1e-9 ? t : 1e-9;
        double num = d[i] > 1.0 ? d[i] : 1.0;
        double w = num / den;
        if (mode != MODE_DEMAND_PROP) {
            double q = sq[i];
            double slack;
            if (isinf(q)) {
                /* No deadline: slack_of's early return. */
                slack = 1.0;
            }
            else {
                double a = sa[i];
                double ef = a + (se[i] * (1.0 - sp[i])) + (now_t - a);
                slack = ((a + q) - ef) / q;
            }
            if (mode == MODE_SLACK_THROTTLED) {
                /* MoCA: halve the demand of tasks more than 50 %
                 * ahead of their deadline. */
                if (slack > 0.5) {
                    w *= 0.5;
                }
            }
            else {
                /* AuRORA: clamp slack, weigh exponentially. */
                double s2 = slack > -20.0 ? slack : -20.0;
                s2 = s2 < 20.0 ? s2 : 20.0;
                w = (w > 1.0 ? w : 1.0) * exp(-urgency * s2);
            }
        }
        dem[i] = w;
        total += w;
    }
    if (n > 0 && !(total > 0.0)) {
        /* Unreachable with positive work, but the Python fallback
         * (DemandProportionalPolicy.allocate) owns this case. */
        return -1;
    }
    /* Share constants (DemandProportionalPolicy.allocate:
     * floor_total, base, remaining — same floats for any n). */
    floor_total = fl * (double)n;
    if (!(floor_total < 1.0)) {
        floor_total = 0.0;
    }
    base = floor_total != 0.0 ? fl : 0.0;
    remaining = 1.0 - floor_total;
    for (i = 0; i < n; i++) {
        /* The policies group the share expression differently; both
         * shapes are preserved.  Then the engine's rate install:
         * r = total_bw * share * eff, clamped above 1e-6. */
        double share, r;
        if (mode == MODE_SLACK_WEIGHTED) {
            share = base + remaining * dem[i] / total;
        }
        else {
            share = base + remaining * (dem[i] / total);
        }
        r = total_bw * share * eff;
        rc[i] = freq;
        rd[i] = r > 1e-6 ? r : 1e-6;
    }
    return 0;
}

/* Min event time clamped by wait_dt (RunningKernel.step). */
static double
event_dt(Py_ssize_t n, const double *c, const double *d,
         const double *rc, const double *rd, double wait_dt)
{
    double dt = Py_HUGE_VAL;
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        double t_c = c[i] / rc[i];
        double t_d = d[i] / rd[i];
        double t = t_c >= t_d ? t_c : t_d;
        if (t < dt) {
            dt = t;
        }
    }
    if (wait_dt < dt) {
        dt = wait_dt;
    }
    return dt;
}

/* Drain dt of fluid work and list the finished positions in insertion
 * order (the drain half of RunningKernel.step); returns their count. */
static Py_ssize_t
drain(Py_ssize_t n, double *c, double *d, const double *rc,
      const double *rd, double dt, Py_ssize_t *fin)
{
    Py_ssize_t i, nfin = 0;
    for (i = 0; i < n; i++) {
        double nc = c[i] - dt * rc[i];
        double nd;
        if (nc < 0.0) {
            nc = 0.0;
        }
        nd = d[i] - dt * rd[i];
        if (nd < 0.0) {
            nd = 0.0;
        }
        c[i] = nc;
        d[i] = nd;
        if (nc <= FINISH_EPS && nd <= FINISH_EPS) {
            fin[nfin++] = i;
        }
    }
    return nfin;
}

static PyObject *
positions_list(const Py_ssize_t *pos, Py_ssize_t count)
{
    PyObject *list = PyList_New(count);
    Py_ssize_t k;
    if (list == NULL) {
        return NULL;
    }
    for (k = 0; k < count; k++) {
        PyObject *p = PyLong_FromSsize_t(pos[k]);
        if (p == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, k, p);
    }
    return list;
}

/* fused_step(rem_c, rem_d, rate_c, rate_d, wait_dt, mode,
 *            freq, total_bw, eff, floor
 *            [, sl_arrival, sl_qos, sl_est, sl_progress, now, urgency])
 *   -> (dt, finished_list_or_None) | None
 *
 * rem_c/rem_d are updated in place.  rate_c/rate_d are read only in
 * MODE_STATIC; the fused modes derive rates from the remaining work
 * (fused_rates) and do not write them back — the Python engine
 * recomputes rates whenever it leaves the fused path, so the lists
 * never leak stale values.  The slack modes take the 16-argument form.
 *
 * Returns None when the inputs fall outside the fast path (non-float
 * items, non-positive demand total); the caller then runs the exact
 * Python equivalent for this event.  dt may be +inf (nothing running,
 * nobody waking: the caller reports the deadlock) or negative (the
 * caller raises, mirroring RunningKernel.step).
 */
static PyObject *
fused_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *rem_c_l, *rem_d_l, *rate_c_l, *rate_d_l;
    PyObject *sl_l[4] = {NULL, NULL, NULL, NULL};
    double wait_dt, freq, total_bw, eff, fl;
    double now_t = 0.0, urgency = 0.0;
    long mode;
    int slack;
    step_buf buf;
    double *c, *d, *rc, *rd, *dem, *sl;
    double dt;
    Py_ssize_t n, nfin, k;
    PyObject *finished, *result;

    if (nargs != 10 && nargs != 16) {
        PyErr_SetString(PyExc_TypeError,
                        "fused_step expects 10 or 16 arguments");
        return NULL;
    }
    rem_c_l = args[0];
    rem_d_l = args[1];
    rate_c_l = args[2];
    rate_d_l = args[3];
    if (!PyList_CheckExact(rem_c_l) || !PyList_CheckExact(rem_d_l) ||
        !PyList_CheckExact(rate_c_l) || !PyList_CheckExact(rate_d_l)) {
        Py_RETURN_NONE;
    }
    wait_dt = PyFloat_AsDouble(args[4]);
    if (wait_dt == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    mode = PyLong_AsLong(args[5]);
    if (mode == -1 && PyErr_Occurred()) {
        return NULL;
    }
    freq = PyFloat_AsDouble(args[6]);
    total_bw = PyFloat_AsDouble(args[7]);
    eff = PyFloat_AsDouble(args[8]);
    fl = PyFloat_AsDouble(args[9]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (nargs == 16) {
        for (k = 0; k < 4; k++) {
            sl_l[k] = args[10 + k];
            if (!PyList_CheckExact(sl_l[k])) {
                Py_RETURN_NONE;
            }
        }
        now_t = PyFloat_AsDouble(args[14]);
        urgency = PyFloat_AsDouble(args[15]);
        if (PyErr_Occurred()) {
            return NULL;
        }
    }

    n = PyList_GET_SIZE(rem_c_l);
    if (PyList_GET_SIZE(rem_d_l) != n ||
        (mode == MODE_STATIC &&
         (PyList_GET_SIZE(rate_c_l) != n ||
          PyList_GET_SIZE(rate_d_l) != n))) {
        Py_RETURN_NONE;
    }
    slack = mode == MODE_SLACK_WEIGHTED || mode == MODE_SLACK_THROTTLED;
    if (slack) {
        if (nargs != 16) {
            Py_RETURN_NONE;
        }
        for (k = 0; k < 4; k++) {
            if (PyList_GET_SIZE(sl_l[k]) != n) {
                Py_RETURN_NONE;
            }
        }
    }
    if (step_buf_init(&buf, n) < 0) {
        return NULL;
    }
    c = buf.d;
    d = c + n;
    rc = d + n;
    rd = rc + n;
    dem = rd + n;
    sl = dem + n;

    if (read_doubles(rem_c_l, c, n) < 0 ||
        read_doubles(rem_d_l, d, n) < 0) {
        goto bail_none;
    }
    if (slack) {
        for (k = 0; k < 4; k++) {
            if (read_doubles(sl_l[k], sl + k * n, n) < 0) {
                goto bail_none;
            }
        }
    }
    if (mode == MODE_DEMAND_PROP || slack) {
        if (fused_rates(mode, n, c, d, sl, sl + n, sl + 2 * n,
                        sl + 3 * n, now_t, urgency, freq, total_bw, eff,
                        fl, rc, rd, dem) < 0) {
            goto bail_none;
        }
    }
    else if (read_doubles(rate_c_l, rc, n) < 0 ||
             read_doubles(rate_d_l, rd, n) < 0) {
        goto bail_none;
    }

    dt = event_dt(n, c, d, rc, rd, wait_dt);
    if (dt == Py_HUGE_VAL || dt < 0.0) {
        /* inf: idle/deadlock; negative: corrupt state.  Both are the
         * caller's to report; no state was touched. */
        step_buf_free(&buf);
        return Py_BuildValue("(dO)", dt, Py_None);
    }
    nfin = drain(n, c, d, rc, rd, dt, buf.fin);
    finished = nfin ? positions_list(buf.fin, nfin) : Py_NewRef(Py_None);
    if (finished == NULL) {
        step_buf_free(&buf);
        return NULL;
    }
    /* Write the drained work back (the lists stay authoritative). */
    if (write_doubles(rem_c_l, c, n) < 0 ||
        write_doubles(rem_d_l, d, n) < 0) {
        Py_DECREF(finished);
        step_buf_free(&buf);
        return NULL;
    }
    result = Py_BuildValue("(dO)", dt, finished);
    Py_DECREF(finished);
    step_buf_free(&buf);
    return result;

bail_none:
    step_buf_free(&buf);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* CaMDN layer completion                                              */
/* ------------------------------------------------------------------ */

/* Read a list item as a C long (exact-int items only). */
static int
list_long(PyObject *list, Py_ssize_t i, long *out)
{
    PyObject *item = PyList_GET_ITEM(list, i);
    if (!PyLong_CheckExact(item)) {
        return -1;
    }
    *out = PyLong_AsLong(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* Read a tuple item as a C long (exact-int items only). */
static int
tuple_long(PyObject *tup, Py_ssize_t i, long *out)
{
    PyObject *item = PyTuple_GET_ITEM(tup, i);
    if (!PyLong_CheckExact(item)) {
        return -1;
    }
    *out = PyLong_AsLong(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* bisect.bisect_right over a tuple of ints (exact transcription:
 * ``if x < a[mid]: hi = mid else: lo = mid + 1``). */
static Py_ssize_t
bisect_right_tup(PyObject *tup, long x, int *err)
{
    Py_ssize_t lo = 0, hi = PyTuple_GET_SIZE(tup);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long v;
        if (tuple_long(tup, mid, &v) < 0) {
            *err = 1;
            return 0;
        }
        if (x < v) {
            hi = mid;
        }
        else {
            lo = mid + 1;
        }
    }
    return lo;
}

/* DynamicCacheAllocator._pred_avail: sum every task's predicted free
 * pages, then compensate the excluded slot.  Pure integer arithmetic
 * on the live predictor lists; -1 on any non-exact-typed item. */
static int
pred_avail(PyObject *tnext_l, PyObject *pnext_l, PyObject *palloc_l,
           double t_ahead, Py_ssize_t skip, long total_pages,
           long palloc_sum, long *out)
{
    Py_ssize_t n = PyList_GET_SIZE(tnext_l), i;
    long p_ahead = total_pages - palloc_sum;

    for (i = 0; i < n; i++) {
        PyObject *t = PyList_GET_ITEM(tnext_l, i);
        if (!PyFloat_CheckExact(t)) {
            return -1;
        }
        if (PyFloat_AS_DOUBLE(t) < t_ahead) {
            long pa, pn;
            if (list_long(palloc_l, i, &pa) < 0 ||
                list_long(pnext_l, i, &pn) < 0) {
                return -1;
            }
            p_ahead += pa - pn;
        }
    }
    if (skip >= 0 && skip < n) {
        PyObject *t = PyList_GET_ITEM(tnext_l, skip);
        if (PyFloat_AS_DOUBLE(t) < t_ahead) {
            long pa, pn;
            if (list_long(palloc_l, skip, &pa) < 0 ||
                list_long(pnext_l, skip, &pn) < 0) {
                return -1;
            }
            p_ahead -= pa - pn;
        }
    }
    *out = p_ahead;
    return 0;
}

/* Per-layer geometry row indices (built by
 * CaMDNSchedulerBase._build_fast_file). */
#define ROW_LBM_PAGES 0
#define ROW_HEAD 1
#define ROW_BLOCK_START 2
#define ROW_BLOCK_END 3
#define ROW_HEAD_TIMEOUT 4
#define ROW_EST 5
#define ROW_LWM_TIMEOUT 6
#define ROW_SINGLE_LEVEL 7
#define ROW_IS_SORTED 8
#define ROW_TRIVIAL 9
#define ROW_UNIQUE 10
#define ROW_FIRST_OF 11
#define ROW_LAST_OF 12
#define ROW_LWM 13
#define ROW_WIDTH 14

/* One completion's inputs: the allocator's predictor lists, the task's
 * slot, LBM block (-1/-1 for none) and region size, the layer that
 * just ended, and ``row``, the *next* layer's precomputed geometry. */
typedef struct {
    PyObject *tnext_l, *pnext_l, *palloc_l, *row;
    long slot, total_pages, palloc_sum, lbm_s, lbm_e, layer_index;
    long region_pages, hw_mode, share;
    double now;
} camdn_query;

/* The completion's outcome: the selection code, the task's LBM block
 * after the end-of-block clear and any new enablement, and the slot's
 * new tnext/pnext predictions. */
typedef struct {
    long code, lbm_s, lbm_e, pnext;
    double tnext;
} camdn_choice;

/* One CaMDN layer completion, decided: Algorithm 1's end-of-layer
 * predictor update (DynamicCacheAllocator.end_layer_prepared) plus the
 * next layer's candidate selection (select_prepared, or the HW-only
 * static-split walk) plus the no-resize grant check
 * (CaMDNSystem._try_grant when the selected footprint equals the
 * task's current region).
 *
 * Pure: returns 0 with *out filled, or 1 (nothing written, no Python
 * error set) when the completion needs the Python chain (type
 * mismatch, a selection whose footprint differs from the current
 * region, anything touching the resize/denial machinery).
 * Selection codes — full mode: 0 = sticky LBM, 1 = enable LBM at a
 * block head, 2 = single-level lwm[0], 3+i = lwm[i]; HW-only mode:
 * 0 = "hw_lbm_on", 1 = "hw_lbm_keep", 2+i = lwm[i]. */
static int
camdn_select(const camdn_query *q, camdn_choice *out)
{
    PyObject *row = q->row;
    PyObject *unique, *first_of, *last_of, *lwm;
    double head_timeout, est, lwm_timeout;
    long lbm_s = q->lbm_s, lbm_e = q->lbm_e;
    long lbm_pages, head, blk_s, blk_e;
    long single_level, is_sorted, trivial;
    long palloc_slot, new_pnext, code, pages, sel_enables = 0;
    long m;
    Py_ssize_t n;

    if (!PyList_CheckExact(q->tnext_l) || !PyList_CheckExact(q->pnext_l) ||
        !PyList_CheckExact(q->palloc_l) || !PyTuple_CheckExact(row) ||
        PyTuple_GET_SIZE(row) != ROW_WIDTH) {
        return 1;
    }
    n = PyList_GET_SIZE(q->tnext_l);
    if (PyList_GET_SIZE(q->pnext_l) != n ||
        PyList_GET_SIZE(q->palloc_l) != n ||
        q->slot < 0 || q->slot >= n) {
        return 1;
    }

    if (tuple_long(row, ROW_LBM_PAGES, &lbm_pages) < 0 ||
        tuple_long(row, ROW_HEAD, &head) < 0 ||
        tuple_long(row, ROW_BLOCK_START, &blk_s) < 0 ||
        tuple_long(row, ROW_BLOCK_END, &blk_e) < 0 ||
        tuple_long(row, ROW_SINGLE_LEVEL, &single_level) < 0 ||
        tuple_long(row, ROW_IS_SORTED, &is_sorted) < 0 ||
        tuple_long(row, ROW_TRIVIAL, &trivial) < 0) {
        return 1;
    }
    {
        PyObject *iht = PyTuple_GET_ITEM(row, ROW_HEAD_TIMEOUT);
        PyObject *ie = PyTuple_GET_ITEM(row, ROW_EST);
        PyObject *ilt = PyTuple_GET_ITEM(row, ROW_LWM_TIMEOUT);
        if (!PyFloat_CheckExact(iht) || !PyFloat_CheckExact(ie) ||
            !PyFloat_CheckExact(ilt)) {
            return 1;
        }
        head_timeout = PyFloat_AS_DOUBLE(iht);
        est = PyFloat_AS_DOUBLE(ie);
        lwm_timeout = PyFloat_AS_DOUBLE(ilt);
    }
    unique = PyTuple_GET_ITEM(row, ROW_UNIQUE);
    first_of = PyTuple_GET_ITEM(row, ROW_FIRST_OF);
    last_of = PyTuple_GET_ITEM(row, ROW_LAST_OF);
    lwm = PyTuple_GET_ITEM(row, ROW_LWM);
    if (!PyTuple_CheckExact(unique) || !PyTuple_CheckExact(first_of) ||
        !PyTuple_CheckExact(last_of) || !PyTuple_CheckExact(lwm) ||
        PyTuple_GET_SIZE(lwm) < 1) {
        return 1;
    }

    if (list_long(q->palloc_l, q->slot, &palloc_slot) < 0) {
        return 1;
    }
    /* _try_grant's no-resize fast path requires the allocator and the
     * region to agree on the task's holding (true between layers). */
    if (palloc_slot != q->region_pages) {
        return 1;
    }

    m = q->layer_index + 1;  /* the layer being selected (row) */

    /* --- end_layer_prepared for the next layer. --- */
    if (lbm_s >= 0 && lbm_pages >= 0 && lbm_s <= m && m < lbm_e) {
        new_pnext = lbm_pages;
    }
    else if (single_level) {
        if (PyTuple_GET_SIZE(unique) > 0) {
            long u0;
            if (tuple_long(unique, 0, &u0) < 0) {
                return 1;
            }
            new_pnext = u0 <= palloc_slot ? u0 : 0;
        }
        else {
            new_pnext = 0;
        }
    }
    else {
        int err = 0;
        Py_ssize_t k = bisect_right_tup(unique, palloc_slot, &err) - 1;
        long uk = 0;
        if (err || (k >= 0 && tuple_long(unique, k, &uk) < 0)) {
            return 1;
        }
        new_pnext = k >= 0 ? uk : 0;
    }
    /* End-of-block clear (after the pnext prediction, as in Python). */
    if (lbm_s >= 0 && q->layer_index >= lbm_e - 1) {
        lbm_s = -1;
        lbm_e = -1;
    }

    /* --- candidate selection for layer m.  predAvailPages excludes
     * this task's slot, so its pending tnext/pnext writes cannot
     * affect it. --- */
    if (q->hw_mode) {
        /* CaMDNSystem._hw_only_decision: equal static split. */
        long share = q->share;
        if (lbm_pages < 0 && trivial) {
            code = 2;
            if (tuple_long(lwm, 0, &pages) < 0) {
                return 1;
            }
        }
        else if (lbm_pages >= 0 && lbm_pages <= share) {
            int covers = lbm_s >= 0 && lbm_s <= m && m < lbm_e;
            code = covers ? 1 : 0;
            sel_enables = !covers;
            pages = lbm_pages;
        }
        else {
            /* MCTGeometry.last_fitting_index(share). */
            long i;
            int err = 0;
            if (is_sorted) {
                Py_ssize_t k = bisect_right_tup(lwm, share, &err) - 1;
                if (err) {
                    return 1;
                }
                i = k >= 0 ? (long)k : 0;
            }
            else {
                Py_ssize_t k = bisect_right_tup(unique, share, &err) - 1;
                if (err) {
                    return 1;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    Py_ssize_t j;
                    long best = 0, v;
                    if (k >= PyTuple_GET_SIZE(last_of)) {
                        return 1;
                    }
                    for (j = 0; j <= k; j++) {
                        if (tuple_long(last_of, j, &v) < 0) {
                            return 1;
                        }
                        if (j == 0 || v > best) {
                            best = v;
                        }
                    }
                    i = best;
                }
            }
            if (i >= PyTuple_GET_SIZE(lwm) ||
                tuple_long(lwm, i, &pages) < 0) {
                return 1;
            }
            code = 2 + i;
        }
    }
    else {
        int done = 0;
        code = 0;
        pages = 0;
        if (lbm_pages >= 0) {
            if (lbm_s >= 0 && lbm_s <= m && m < lbm_e) {
                /* Lines 7-9: LBM already enabled (sticky). */
                code = 0;
                pages = lbm_pages;
                done = 1;
            }
            else if (head) {
                /* Lines 10-15: try to enable LBM at the block head. */
                long pa;
                if (pred_avail(q->tnext_l, q->pnext_l, q->palloc_l,
                               q->now + head_timeout, q->slot,
                               q->total_pages, q->palloc_sum, &pa) < 0) {
                    return 1;
                }
                pa = pa + palloc_slot;
                if (lbm_pages < pa) {
                    code = 1;
                    pages = lbm_pages;
                    sel_enables = 1;
                    done = 1;
                }
            }
        }
        if (!done) {
            /* Lines 16-22: largest LWM candidate in the prediction. */
            if (single_level) {
                code = 2;
                if (tuple_long(lwm, 0, &pages) < 0) {
                    return 1;
                }
            }
            else {
                long budget, i;
                int err = 0;
                Py_ssize_t k;
                if (pred_avail(q->tnext_l, q->pnext_l, q->palloc_l,
                               q->now + lwm_timeout, q->slot,
                               q->total_pages, q->palloc_sum,
                               &budget) < 0) {
                    return 1;
                }
                budget = budget + palloc_slot;
                /* MCTGeometry.select_index(budget). */
                k = bisect_right_tup(unique, budget, &err) - 1;
                if (err) {
                    return 1;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    long uk, l0, fk;
                    if (tuple_long(unique, k, &uk) < 0 ||
                        tuple_long(lwm, 0, &l0) < 0) {
                        return 1;
                    }
                    if (uk <= l0) {
                        i = 0;
                    }
                    else {
                        if (k >= PyTuple_GET_SIZE(first_of) ||
                            tuple_long(first_of, k, &fk) < 0) {
                            return 1;
                        }
                        i = fk;
                    }
                }
                if (i >= PyTuple_GET_SIZE(lwm) ||
                    tuple_long(lwm, i, &pages) < 0) {
                    return 1;
                }
                code = 3 + i;
            }
        }
    }

    /* _try_grant: only the no-resize grant is provably equivalent
     * here; anything needing the region machinery goes to Python. */
    if (pages != q->region_pages) {
        return 1;
    }
    if (sel_enables) {
        if (blk_s < 0) {
            /* block_of() would return None for an enabling decision —
             * inconsistent table; let Python handle it. */
            return 1;
        }
        lbm_s = blk_s;
        lbm_e = blk_e;
    }
    out->code = code;
    out->lbm_s = lbm_s;
    out->lbm_e = lbm_e;
    out->pnext = new_pnext;
    out->tnext = q->now + est;
    return 0;
}

/* Write a decided completion's tnext/pnext predictions.  palloc is
 * unchanged by construction, exactly the skipped write in _try_grant. */
static int
camdn_commit(const camdn_query *q, const camdn_choice *ch)
{
    PyObject *ftn = PyFloat_FromDouble(ch->tnext);
    PyObject *fpn;
    if (ftn == NULL) {
        return -1;
    }
    fpn = PyLong_FromLong(ch->pnext);
    if (fpn == NULL) {
        Py_DECREF(ftn);
        return -1;
    }
    PyList_SetItem(q->tnext_l, q->slot, ftn);
    PyList_SetItem(q->pnext_l, q->slot, fpn);
    return 0;
}

/* camdn_advance(tnext, pnext, palloc, slot, now, total_pages,
 *               palloc_sum, lbm_start, lbm_end, layer_index,
 *               region_pages, row, hw_mode, share)
 *   -> (code, new_lbm_start, new_lbm_end) | None
 *
 * camdn_select plus its commit, for CaMDNSchedulerBase.advance_layer.
 * None means nothing was mutated and the Python chain owns the
 * completion.
 */
static PyObject *
camdn_advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    camdn_query q;
    camdn_choice ch;

    if (nargs != 14) {
        PyErr_SetString(PyExc_TypeError,
                        "camdn_advance expects exactly 14 arguments");
        return NULL;
    }
    q.tnext_l = args[0];
    q.pnext_l = args[1];
    q.palloc_l = args[2];
    q.slot = PyLong_AsLong(args[3]);
    if (q.slot == -1 && PyErr_Occurred()) {
        return NULL;
    }
    q.now = PyFloat_AsDouble(args[4]);
    q.total_pages = PyLong_AsLong(args[5]);
    q.palloc_sum = PyLong_AsLong(args[6]);
    q.lbm_s = PyLong_AsLong(args[7]);
    q.lbm_e = PyLong_AsLong(args[8]);
    q.layer_index = PyLong_AsLong(args[9]);
    q.region_pages = PyLong_AsLong(args[10]);
    q.row = args[11];
    q.hw_mode = PyLong_AsLong(args[12]);
    q.share = PyLong_AsLong(args[13]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (camdn_select(&q, &ch)) {
        Py_RETURN_NONE;
    }
    if (camdn_commit(&q, &ch) < 0) {
        return NULL;
    }
    return Py_BuildValue("(lll)", ch.code, ch.lbm_s, ch.lbm_e);
}

/* ------------------------------------------------------------------ */
/* CaMDN batch loop                                                    */
/* ------------------------------------------------------------------ */

/* Attribute names the completion chain reads and writes (interned at
 * module init). */
static PyObject *s_layer_index, *s_graph, *s_layers, *s_sched_ctx;
static PyObject *s_mapping_file, *s_lbm_block, *s_slot, *s_pcpns;
static PyObject *s_cores, *s_work, *s_compute_cycles, *s_dram_bytes;
static PyObject *s_hit_bytes, *s_access_bytes, *s_dram_bytes_total;
static PyObject *s_hit_bytes_total, *s_access_bytes_total;
static PyObject *s_layers_executed, *s_sched_scratch;
static PyObject *s_rem_compute_cycles, *s_rem_dram_bytes, *s_block_of;

#define HANDLED 0
#define DECLINE 1

/* obj.name, new reference; NULL (error cleared) when missing. */
static PyObject *
get_attr(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        PyErr_Clear();
    }
    return v;
}

/* obj.name as a double (exact floats only): 0, or -1 to decline. */
static int
attr_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *v = get_attr(obj, name);
    int ok = v != NULL && PyFloat_CheckExact(v);
    if (ok) {
        *out = PyFloat_AS_DOUBLE(v);
    }
    Py_XDECREF(v);
    return ok ? 0 : -1;
}

/* obj.name as a C long (exact ints only): 0, or -1 to decline. */
static int
attr_long(PyObject *obj, PyObject *name, long *out)
{
    PyObject *v = get_attr(obj, name);
    int ok = v != NULL && PyLong_CheckExact(v);
    if (ok) {
        *out = PyLong_AsLong(v);
        if (*out == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            ok = 0;
        }
    }
    Py_XDECREF(v);
    return ok ? 0 : -1;
}

/* obj.name = v (a new float or int object); -1 on error. */
static int
set_double(PyObject *obj, PyObject *name, double v)
{
    PyObject *f = PyFloat_FromDouble(v);
    int rc;
    if (f == NULL) {
        return -1;
    }
    rc = PyObject_SetAttr(obj, name, f);
    Py_DECREF(f);
    return rc;
}

static int
set_long(PyObject *obj, PyObject *name, long v)
{
    PyObject *i = PyLong_FromLong(v);
    int rc;
    if (i == NULL) {
        return -1;
    }
    rc = PyObject_SetAttr(obj, name, i);
    Py_DECREF(i);
    return rc;
}

/* The scheduler side of a batch (CaMDNSchedulerBase.native_batch_args):
 * the allocator's predictor lists and page totals, the HW-only share,
 * and the per-mapping-file tables of the completion handler. */
typedef struct {
    PyObject *tnext_l, *pnext_l, *palloc_l, *fast_files;
    long total_pages, palloc_sum, share, hw_mode;
} camdn_sched;

/* A layer's work as the chain reads it: the LayerWork, its compute
 * cycles and DRAM bytes (the very float objects _apply_grant copies
 * onto the instance) and its traffic for account_layer. */
typedef struct {
    PyObject *work, *cycles, *dram;   /* owned */
    double dram_bytes, hit_bytes, access_bytes;
} work_view;

/* One running instance as the completion chain sees it.  Loaded from
 * its Python objects at its first completion of a call; handled
 * completions update the view, and flush_view writes the instance
 * fields back before the call returns.  Region size, task slot, core
 * count and tables cannot change inside a call: only the Python chain
 * resizes, registers or retires. */
typedef struct {
    PyObject *inst;                    /* borrowed from insts */
    PyObject *state, *mf, *rows, *pairs, *grant;   /* owned */
    work_view w;
    long layer, n_layers, slot, cores, region_pages, lbm_s, lbm_e;
    long executed;
    double dram_total, hit_total, access_total;
    int loaded, dirty;
} inst_view;

static void
release_work(work_view *w)
{
    Py_CLEAR(w->work);
    Py_CLEAR(w->cycles);
    Py_CLEAR(w->dram);
}

/* Read a LayerWork (exact-float fields only): 0, or -1 to decline. */
static int
load_work(PyObject *work, work_view *w)
{
    w->work = Py_NewRef(work);
    w->cycles = get_attr(work, s_compute_cycles);
    w->dram = get_attr(work, s_dram_bytes);
    if (w->cycles == NULL || w->dram == NULL ||
        !PyFloat_CheckExact(w->cycles) || !PyFloat_CheckExact(w->dram) ||
        attr_double(work, s_hit_bytes, &w->hit_bytes) < 0 ||
        attr_double(work, s_access_bytes, &w->access_bytes) < 0) {
        release_work(w);
        return -1;
    }
    w->dram_bytes = PyFloat_AS_DOUBLE(w->dram);
    return 0;
}

static void
release_view(inst_view *v)
{
    Py_CLEAR(v->state);
    Py_CLEAR(v->mf);
    Py_CLEAR(v->rows);
    Py_CLEAR(v->pairs);
    Py_CLEAR(v->grant);
    release_work(&v->w);
    v->loaded = 0;
}

/* Resolve ``inst`` the way advance_layer does (sched_ctx -> task
 * state and region, mapping file -> _fast_files tables): 0, DECLINE
 * when anything is missing or unexpectedly typed (nothing kept), -1 on
 * a Python error. */
static int
load_view(const camdn_sched *sc, PyObject *inst, inst_view *v)
{
    PyObject *graph = NULL, *layers = NULL, *ctx = NULL, *key = NULL;
    PyObject *block = NULL, *pcpns = NULL, *work = NULL, *ft;
    int rc = DECLINE;

    v->inst = inst;
    if (attr_long(inst, s_layer_index, &v->layer) < 0 ||
        attr_long(inst, s_cores, &v->cores) < 0 ||
        attr_long(inst, s_layers_executed, &v->executed) < 0 ||
        attr_double(inst, s_dram_bytes_total, &v->dram_total) < 0 ||
        attr_double(inst, s_hit_bytes_total, &v->hit_total) < 0 ||
        attr_double(inst, s_access_bytes_total, &v->access_total) < 0) {
        goto out;
    }
    graph = get_attr(inst, s_graph);
    layers = graph ? get_attr(graph, s_layers) : NULL;
    if (layers == NULL ||
        !(PyTuple_CheckExact(layers) || PyList_CheckExact(layers))) {
        goto out;
    }
    v->n_layers = (long)Py_SIZE(layers);
    ctx = get_attr(inst, s_sched_ctx);
    if (ctx == NULL || !PyTuple_CheckExact(ctx) ||
        PyTuple_GET_SIZE(ctx) != 2) {
        goto out;
    }
    v->state = Py_NewRef(PyTuple_GET_ITEM(ctx, 0));
    pcpns = get_attr(PyTuple_GET_ITEM(ctx, 1), s_pcpns);
    if (pcpns == NULL || !PyList_CheckExact(pcpns) ||
        attr_long(v->state, s_slot, &v->slot) < 0) {
        goto out;
    }
    v->region_pages = (long)PyList_GET_SIZE(pcpns);
    block = get_attr(v->state, s_lbm_block);
    if (block == Py_None) {
        v->lbm_s = v->lbm_e = -1;
    }
    else if (block == NULL || !PyTuple_CheckExact(block) ||
             PyTuple_GET_SIZE(block) != 2 ||
             tuple_long(block, 0, &v->lbm_s) < 0 ||
             tuple_long(block, 1, &v->lbm_e) < 0) {
        goto out;
    }
    v->mf = get_attr(v->state, s_mapping_file);
    if (v->mf == NULL) {
        goto out;
    }
    /* _fast_files is keyed by id(mapping_file); the entry holds the
     * file, so a recycled id never matches. */
    key = PyLong_FromVoidPtr(v->mf);
    if (key == NULL) {
        rc = -1;
        goto out;
    }
    ft = PyDict_GetItemWithError(sc->fast_files, key);
    if (ft == NULL) {
        if (PyErr_Occurred()) {
            rc = -1;
        }
        goto out;
    }
    if (!PyTuple_CheckExact(ft) || PyTuple_GET_SIZE(ft) != 3 ||
        PyTuple_GET_ITEM(ft, 0) != v->mf ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 1)) ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 2))) {
        goto out;
    }
    v->rows = Py_NewRef(PyTuple_GET_ITEM(ft, 1));
    v->pairs = Py_NewRef(PyTuple_GET_ITEM(ft, 2));
    work = get_attr(inst, s_work);
    if (work == NULL || load_work(work, &v->w) < 0) {
        goto out;
    }
    v->loaded = 1;
    rc = 0;

out:
    if (rc != 0) {
        release_view(v);
    }
    Py_XDECREF(graph);
    Py_XDECREF(layers);
    Py_XDECREF(ctx);
    Py_XDECREF(key);
    Py_XDECREF(block);
    Py_XDECREF(pcpns);
    Py_XDECREF(work);
    return rc;
}

/* Write a view's handled completions back to its instance: the fields
 * account_layer, advance_layer and _apply_grant set (state and
 * wake_time already hold RUNNING and inf). */
static int
flush_view(inst_view *v)
{
    PyObject *inst = v->inst;
    if (set_double(inst, s_dram_bytes_total, v->dram_total) < 0 ||
        set_double(inst, s_hit_bytes_total, v->hit_total) < 0 ||
        set_double(inst, s_access_bytes_total, v->access_total) < 0 ||
        set_long(inst, s_layers_executed, v->executed) < 0 ||
        set_long(inst, s_layer_index, v->layer) < 0 ||
        PyObject_SetAttr(inst, s_sched_scratch, v->grant) < 0 ||
        PyObject_SetAttr(inst, s_work, v->w.work) < 0 ||
        PyObject_SetAttr(inst, s_rem_compute_cycles, v->w.cycles) < 0 ||
        PyObject_SetAttr(inst, s_rem_dram_bytes, v->w.dram) < 0) {
        return -1;
    }
    v->dirty = 0;
    return 0;
}

/* One non-final layer completion of a loaded instance at ``now``,
 * handled exactly as MultiTenantEngine._process_completions ->
 * CaMDNSchedulerBase.advance_layer (native branch, memo hit) ->
 * MultiTenantEngine._apply_grant would: account the finished layer,
 * decide the next one (camdn_select), take the memoized
 * ``(grant, (work, 0.0), is_lbm)`` entry and install its work.
 *
 * Returns HANDLED with the new work in c_i and d_i and the new layer
 * progress in prog_i; DECLINE with nothing changed when the Python
 * chain must handle the completion (last layer, resize or denial, memo
 * miss, unexpected types); -1 on a Python error. */
static int
handle_completion(const camdn_sched *sc, inst_view *v, double now,
                  double *c_i, double *d_i, double *prog_i, long *lbm)
{
    PyObject *memo, *key, *entry, *pair, *is_lbm, *grant;
    PyObject *new_block = NULL;
    long nxt = v->layer + 1;
    camdn_query q;
    camdn_choice ch;
    work_view nw = {NULL, NULL, NULL, 0.0, 0.0, 0.0};

    if (nxt >= v->n_layers) {
        return DECLINE;  /* last layer: the task ends in Python */
    }
    if (nxt >= PyList_GET_SIZE(v->rows) ||
        nxt >= PyList_GET_SIZE(v->pairs)) {
        return DECLINE;
    }
    memo = PyList_GET_ITEM(v->pairs, nxt);
    if (!PyDict_CheckExact(memo)) {
        return DECLINE;
    }
    q.tnext_l = sc->tnext_l;
    q.pnext_l = sc->pnext_l;
    q.palloc_l = sc->palloc_l;
    q.row = PyList_GET_ITEM(v->rows, nxt);
    q.slot = v->slot;
    q.total_pages = sc->total_pages;
    q.palloc_sum = sc->palloc_sum;
    q.lbm_s = v->lbm_s;
    q.lbm_e = v->lbm_e;
    q.layer_index = v->layer;
    q.region_pages = v->region_pages;
    q.hw_mode = sc->hw_mode;
    q.share = sc->share;
    q.now = now;
    if (camdn_select(&q, &ch)) {
        return DECLINE;
    }
    /* cores is capped at 2 (cores_for), so packing the code above it
     * never collides. */
    key = PyLong_FromLong(ch.code * 64 + v->cores);
    if (key == NULL) {
        return -1;
    }
    entry = PyDict_GetItemWithError(memo, key);
    Py_DECREF(key);
    if (entry == NULL) {
        return PyErr_Occurred() ? -1 : DECLINE;
    }
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 3) {
        return DECLINE;
    }
    pair = PyTuple_GET_ITEM(entry, 1);
    is_lbm = PyTuple_GET_ITEM(entry, 2);
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2 ||
        (is_lbm != Py_True && is_lbm != Py_False) ||
        load_work(PyTuple_GET_ITEM(pair, 0), &nw) < 0) {
        return DECLINE;
    }
    /* The grant is installed after block_of may have run Python code. */
    grant = Py_NewRef(PyTuple_GET_ITEM(entry, 0));
    if (ch.lbm_s != v->lbm_s || ch.lbm_e != v->lbm_e) {
        /* block_of returns the mapping file's canonical block tuple,
         * the very object the Python chain installs (snapshot bytes
         * stay identical across paths). */
        if (ch.lbm_s < 0) {
            new_block = Py_NewRef(Py_None);
        }
        else {
            PyObject *arg = PyLong_FromLong(nxt);
            if (arg != NULL) {
                new_block = PyObject_CallMethodOneArg(v->mf, s_block_of,
                                                      arg);
                Py_DECREF(arg);
            }
            if (new_block == NULL) {
                Py_DECREF(grant);
                release_work(&nw);
                return -1;
            }
        }
    }

    /* --- commit --- */
    if (camdn_commit(&q, &ch) < 0 ||
        (new_block != NULL &&
         PyObject_SetAttr(v->state, s_lbm_block, new_block) < 0)) {
        Py_XDECREF(new_block);
        Py_DECREF(grant);
        release_work(&nw);
        return -1;
    }
    Py_XDECREF(new_block);
    v->lbm_s = ch.lbm_s;
    v->lbm_e = ch.lbm_e;
    /* Inlined account_layer, then advance_layer's and _apply_grant's
     * writes, held in the view until flush_view. */
    v->dram_total += v->w.dram_bytes;
    v->hit_total += v->w.hit_bytes;
    v->access_total += v->w.access_bytes;
    v->executed += 1;
    v->layer = nxt;
    Py_XSETREF(v->grant, grant);
    release_work(&v->w);
    v->w = nw;
    v->dirty = 1;
    if (is_lbm == Py_True) {
        (*lbm)++;
    }
    *c_i = PyFloat_AS_DOUBLE(nw.cycles);
    *d_i = nw.dram_bytes;
    /* RunningKernel.set_work's slack progress:
     * layer_index / max(num_layers, 1) (int true division of values
     * below 2**53 is the correctly-rounded double quotient). */
    *prog_i = (double)nxt / (double)(v->n_layers > 1 ? v->n_layers : 1);
    return HANDLED;
}

static int
parse_sched(PyObject *tup, camdn_sched *sc)
{
    if (!PyTuple_CheckExact(tup) || PyTuple_GET_SIZE(tup) != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "camdn_batch expects an 8-tuple of scheduler "
                        "arguments");
        return -1;
    }
    sc->tnext_l = PyTuple_GET_ITEM(tup, 0);
    sc->pnext_l = PyTuple_GET_ITEM(tup, 1);
    sc->palloc_l = PyTuple_GET_ITEM(tup, 2);
    sc->total_pages = PyLong_AsLong(PyTuple_GET_ITEM(tup, 3));
    sc->palloc_sum = PyLong_AsLong(PyTuple_GET_ITEM(tup, 4));
    sc->share = PyLong_AsLong(PyTuple_GET_ITEM(tup, 5));
    sc->hw_mode = PyLong_AsLong(PyTuple_GET_ITEM(tup, 6));
    sc->fast_files = PyTuple_GET_ITEM(tup, 7);
    if (PyErr_Occurred()) {
        return -1;
    }
    if (!PyDict_CheckExact(sc->fast_files)) {
        PyErr_SetString(PyExc_TypeError,
                        "camdn_batch: fast-file tables must be a dict");
        return -1;
    }
    return 0;
}

/* camdn_batch(insts, rem_c, rem_d, sl_arrival, sl_qos, sl_est,
 *             sl_progress, mode, freq, total_bw, eff, floor, urgency,
 *             now, wake_s, timeline_s, fault_s, events, max_events,
 *             queued, waiting, sched)
 *   -> (handled, now, lbm_layers, rest) | None
 *
 * The body of MultiTenantEngine._batch_run for a CaMDN policy in fused
 * mode 1 (demand_prop) or 2 (slack_weighted): every event is the fused
 * step, and every layer completion is handled here (handle_completion)
 * until the loop must hand back.  ``wake_s``, ``timeline_s`` and
 * ``fault_s`` are the absolute next wakeup, timeline and fault instants
 * (inf when none); they stay fixed because only Python changes them.
 * ``queued``/``waiting`` are the engine's dispatch queue and waiting
 * set (truth-tested): with a queue the loop stops after any event with
 * completions, with waiters it declines every completion, since both
 * need the Python machinery.  ``sched`` is
 * CaMDNSchedulerBase.native_batch_args().
 *
 * ``handled`` events were stepped, and ``now`` is the time after the
 * last of them; ``lbm_layers`` counts the handled completions that ran
 * an LBM candidate.  ``rest`` says why the loop stopped:
 *
 * - None: after the last event the engine's batch must end (a wakeup,
 *   timeline or fault instant is due, the event cap is reached, or the
 *   queue waits for a completion);
 * - a list: the last event's completions from the first declined one
 *   on, untouched, for the Python chain, in order;
 * - an empty list: the next event needs the per-event path (fused-step
 *   bail, idle or negative step).
 *
 * None (the whole call) means that happened before the first event:
 * nothing was touched.  The loop keeps no state between calls: each
 * call leaves the fluid lists, slack progress, instances, tasks and
 * predictor lists exactly as the per-event Python loop would.
 */
static PyObject *
camdn_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *insts, *rem_c_l, *rem_d_l, *sl_l[4];
    PyObject *rest = NULL, *result = NULL;
    camdn_sched sc;
    long mode, lbm = 0;
    long long events, max_events;
    double freq, total_bw, eff, fl, urgency, now, wake, timeline, fault;
    int queued, waiting, bailed = 0;
    step_buf buf;
    inst_view *views = NULL;
    double *c, *d, *rc, *rd, *dem, *sl;
    Py_ssize_t n, k, handled = 0;

    if (nargs != 22) {
        PyErr_SetString(PyExc_TypeError,
                        "camdn_batch expects exactly 22 arguments");
        return NULL;
    }
    insts = args[0];
    rem_c_l = args[1];
    rem_d_l = args[2];
    for (k = 0; k < 4; k++) {
        sl_l[k] = args[3 + k];
    }
    mode = PyLong_AsLong(args[7]);
    freq = PyFloat_AsDouble(args[8]);
    total_bw = PyFloat_AsDouble(args[9]);
    eff = PyFloat_AsDouble(args[10]);
    fl = PyFloat_AsDouble(args[11]);
    urgency = PyFloat_AsDouble(args[12]);
    now = PyFloat_AsDouble(args[13]);
    wake = PyFloat_AsDouble(args[14]);
    timeline = PyFloat_AsDouble(args[15]);
    fault = PyFloat_AsDouble(args[16]);
    events = PyLong_AsLongLong(args[17]);
    max_events = PyLong_AsLongLong(args[18]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    queued = PyObject_IsTrue(args[19]);
    waiting = PyObject_IsTrue(args[20]);
    if (queued < 0 || waiting < 0 || parse_sched(args[21], &sc) < 0) {
        return NULL;
    }
    if (mode != MODE_DEMAND_PROP && mode != MODE_SLACK_WEIGHTED) {
        Py_RETURN_NONE;
    }
    if (!PyList_CheckExact(insts) || !PyList_CheckExact(rem_c_l) ||
        !PyList_CheckExact(rem_d_l)) {
        Py_RETURN_NONE;
    }
    n = PyList_GET_SIZE(insts);
    if (n == 0 || PyList_GET_SIZE(rem_c_l) != n ||
        PyList_GET_SIZE(rem_d_l) != n) {
        Py_RETURN_NONE;
    }
    if (mode == MODE_SLACK_WEIGHTED) {
        for (k = 0; k < 4; k++) {
            if (!PyList_CheckExact(sl_l[k]) ||
                PyList_GET_SIZE(sl_l[k]) != n) {
                Py_RETURN_NONE;
            }
        }
    }
    if (step_buf_init(&buf, n) < 0) {
        return NULL;
    }
    c = buf.d;
    d = c + n;
    rc = d + n;
    rd = rc + n;
    dem = rd + n;
    sl = dem + n;
    if (read_doubles(rem_c_l, c, n) < 0 ||
        read_doubles(rem_d_l, d, n) < 0) {
        goto bail_none;
    }
    if (mode == MODE_SLACK_WEIGHTED) {
        for (k = 0; k < 4; k++) {
            if (read_doubles(sl_l[k], sl + k * n, n) < 0) {
                goto bail_none;
            }
        }
    }
    views = PyMem_Calloc((size_t)n, sizeof(inst_view));
    if (views == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    for (;;) {
        double wait_dt = Py_HUGE_VAL, t, dt;
        Py_ssize_t nfin;

        /* The engine's wait_dt: next wakeup, then timeline, then
         * fault instant, each clamped at zero. */
        t = wake - now;
        if (t < wait_dt) {
            wait_dt = t;
            if (wait_dt < 0.0) {
                wait_dt = 0.0;
            }
        }
        t = timeline - now;
        if (t < wait_dt) {
            wait_dt = t;
            if (wait_dt < 0.0) {
                wait_dt = 0.0;
            }
        }
        t = fault - now;
        if (t < wait_dt) {
            wait_dt = t;
            if (wait_dt < 0.0) {
                wait_dt = 0.0;
            }
        }
        if (fused_rates(mode, n, c, d, sl, sl + n, sl + 2 * n, sl + 3 * n,
                        now, urgency, freq, total_bw, eff, fl, rc, rd,
                        dem) < 0) {
            bailed = 1;
            break;
        }
        dt = event_dt(n, c, d, rc, rd, wait_dt);
        if (dt == Py_HUGE_VAL || dt < 0.0) {
            /* Idle or corrupt: the per-event path reports it. */
            bailed = 1;
            break;
        }
        nfin = drain(n, c, d, rc, rd, dt, buf.fin);
        now += dt;
        events++;
        handled++;
        for (k = 0; k < nfin; k++) {
            Py_ssize_t i = buf.fin[k];
            int r = DECLINE;
            if (!waiting) {
                r = views[i].loaded ? 0
                    : load_view(&sc, PyList_GET_ITEM(insts, i), &views[i]);
                if (r == 0) {
                    r = handle_completion(&sc, &views[i], now, c + i, d + i,
                                          sl + 3 * n + i, &lbm);
                }
                if (r < 0) {
                    goto done;
                }
            }
            if (r == DECLINE) {
                rest = positions_list(buf.fin + k, nfin - k);
                if (rest == NULL) {
                    goto done;
                }
                break;
            }
        }
        if (rest != NULL || (nfin && queued)) {
            break;
        }
        if (wake - now <= WAKE_EPS || timeline - now <= WAKE_EPS ||
            fault - now <= WAKE_EPS || events >= max_events) {
            break;
        }
    }
    if (handled == 0) {
        PyMem_Free(views);
        goto bail_none;
    }
    if (bailed) {
        rest = PyList_New(0);
        if (rest == NULL) {
            goto done;
        }
    }
    for (k = 0; k < n; k++) {
        if (views[k].dirty && flush_view(&views[k]) < 0) {
            goto done;
        }
    }
    /* Write the fluid state back (the lists stay authoritative). */
    if (write_doubles(rem_c_l, c, n) < 0 ||
        write_doubles(rem_d_l, d, n) < 0 ||
        (mode == MODE_SLACK_WEIGHTED &&
         write_doubles(sl_l[3], sl + 3 * n, n) < 0)) {
        goto done;
    }
    result = Py_BuildValue("(ndlO)", handled, now, lbm,
                           rest != NULL ? rest : Py_None);

done:
    Py_XDECREF(rest);
    if (views != NULL) {
        for (k = 0; k < n; k++) {
            release_view(&views[k]);
        }
        PyMem_Free(views);
    }
    step_buf_free(&buf);
    return result;

bail_none:
    step_buf_free(&buf);
    Py_RETURN_NONE;
}

static PyMethodDef batchstep_methods[] = {
    {"fused_step", (PyCFunction)(void (*)(void))fused_step,
     METH_FASTCALL,
     "Fused rates-recompute + min-dt + advance for one engine event."},
    {"camdn_advance", (PyCFunction)(void (*)(void))camdn_advance,
     METH_FASTCALL,
     "Fused CaMDN end-of-layer update + next-layer selection + grant."},
    {"camdn_batch", (PyCFunction)(void (*)(void))camdn_batch,
     METH_FASTCALL,
     "The engine batch loop for CaMDN policies, completions included."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef batchstep_module = {
    PyModuleDef_HEAD_INIT,
    "_batchstep",
    "Native kernels for the fluid engine batch loop.",
    -1,
    batchstep_methods,
};

static int
intern_names(void)
{
    static const struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&s_layer_index, "layer_index"},
        {&s_graph, "graph"},
        {&s_layers, "layers"},
        {&s_sched_ctx, "sched_ctx"},
        {&s_mapping_file, "mapping_file"},
        {&s_lbm_block, "lbm_block"},
        {&s_slot, "_slot"},
        {&s_pcpns, "pcpns"},
        {&s_cores, "cores"},
        {&s_work, "work"},
        {&s_compute_cycles, "compute_cycles"},
        {&s_dram_bytes, "dram_bytes"},
        {&s_hit_bytes, "hit_bytes"},
        {&s_access_bytes, "access_bytes"},
        {&s_dram_bytes_total, "dram_bytes_total"},
        {&s_hit_bytes_total, "hit_bytes_total"},
        {&s_access_bytes_total, "access_bytes_total"},
        {&s_layers_executed, "layers_executed"},
        {&s_sched_scratch, "sched_scratch"},
        {&s_rem_compute_cycles, "rem_compute_cycles"},
        {&s_rem_dram_bytes, "rem_dram_bytes"},
        {&s_block_of, "block_of"},
    };
    size_t i;
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if (*names[i].slot == NULL) {
            *names[i].slot = PyUnicode_InternFromString(names[i].name);
            if (*names[i].slot == NULL) {
                return -1;
            }
        }
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__batchstep(void)
{
    if (intern_names() < 0) {
        return NULL;
    }
    return PyModule_Create(&batchstep_module);
}
