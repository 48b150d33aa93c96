//! In-memory span recording and the transparent stage wrappers of the
//! traced run.
//!
//! Each wrapper owns one library stage (`CoarsenScheme`,
//! `InitialPartitioner`, `Refiner` + `Bisector`, `NetlistRefiner`),
//! forwards every trait method to it unchanged — including the
//! projected-cache protocol — and records one span per call plus a few
//! counters. The engines therefore run exactly the code they run
//! untraced; `tests/selftest.rs` pins identical sides and work
//! counts for every pipeline configuration the benchmark uses.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use bisect_core::bisector::{Bisector, Refiner};
use bisect_core::error::BisectError;
use bisect_core::netlist::{NetlistBisection, NetlistRefiner};
use bisect_core::partition::Bisection;
use bisect_core::pipeline::{CoarsenScheme, InitialPartitioner};
use bisect_core::workspace::Workspace;
use bisect_graph::contraction::Contraction;
use bisect_graph::hypergraph::Netlist;
use bisect_graph::Graph;
use rand::RngCore;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`"coarsen"`, `"kl"`, `"netlist.engine"`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job execution the span belongs to.
    pub job: u64,
}

impl Span {
    /// Span length in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
    counters: BTreeMap<(&'static str, &'static str), f64>,
}

/// Collects spans and counters for the traced run. Spans stay in
/// memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            // lint: allow(determinism-time) — span clock of the benchmark's traced run
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // A poisoned lock only means a traced stage panicked; the
        // recorded spans are still well-formed.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&self, job: u64) {
        self.state().job = job;
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&self, name: &'static str) -> usize {
        let mut s = self.state();
        let parent = s.open.last().copied();
        let id = s.spans.len();
        let job = s.job;
        let t = self.now_ns();
        s.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            job,
        });
        s.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn close(&self, id: usize) {
        let t = self.now_ns();
        let mut s = self.state();
        if s.open.last() == Some(&id) {
            s.open.pop();
        }
        if let Some(span) = s.spans.get_mut(id) {
            span.end_ns = t;
        }
    }

    /// Closes every span left open by a stage that unwound.
    pub fn close_all(&self) {
        let t = self.now_ns();
        let mut s = self.state();
        while let Some(id) = s.open.pop() {
            s.spans[id].end_ns = t;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `by` to counter `layer.key`.
    pub fn add(&self, layer: &'static str, key: &'static str, by: f64) {
        *self.state().counters.entry((layer, key)).or_insert(0.0) += by;
    }

    /// Counter `layer.key` (0 if never touched).
    pub fn counter(&self, layer: &'static str, key: &'static str) -> f64 {
        self.state()
            .counters
            .get(&(layer, key))
            .copied()
            .unwrap_or(0.0)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Per-layer totals of a span set: `(busy, self)` seconds, where self
/// time is a span's length minus the length of its direct children.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.seconds();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_insert((0.0, 0.0));
        e.0 += s.seconds();
        e.1 += s.seconds() - child[i];
    }
    out
}

/// A transparent [`CoarsenScheme`] recording `coarsen` spans, the
/// number of levels built and the summed coarse ÷ fine vertex ratio.
pub struct TracedCoarsen<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C> TracedCoarsen<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, tracer: Arc<Tracer>) -> TracedCoarsen<C> {
        TracedCoarsen { inner, tracer }
    }
}

impl<C: CoarsenScheme> CoarsenScheme for TracedCoarsen<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn coarsen(&self, g: &Graph, rng: &mut dyn RngCore) -> Option<Contraction> {
        let out = self.tracer.span("coarsen", || self.inner.coarsen(g, rng));
        if let Some(c) = &out {
            self.tracer.add("coarsen", "levels", 1.0);
            let ratio = c.coarse().num_vertices() as f64 / g.num_vertices().max(1) as f64;
            self.tracer.add("coarsen", "shrink_sum", ratio);
        }
        out
    }
}

/// A transparent [`InitialPartitioner`] recording `initial` spans.
pub struct TracedInitial<I> {
    inner: I,
    tracer: Arc<Tracer>,
}

impl<I> TracedInitial<I> {
    /// Wraps `inner`.
    pub fn new(inner: I, tracer: Arc<Tracer>) -> TracedInitial<I> {
        TracedInitial { inner, tracer }
    }
}

impl<I: InitialPartitioner> InitialPartitioner for TracedInitial<I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn partition(&self, g: &Graph, rng: &mut dyn RngCore) -> Result<Bisection, BisectError> {
        self.tracer.span("initial", || self.inner.partition(g, rng))
    }
}

/// A transparent graph [`Refiner`] (and [`Bisector`]) recording spans
/// under `layer`, plus `calls`, `work` (the summed `*_counted` count)
/// and `idle` (refine calls that returned their input cut unchanged).
pub struct TracedRefiner<R> {
    inner: R,
    layer: &'static str,
    tracer: Arc<Tracer>,
}

impl<R> TracedRefiner<R> {
    /// Wraps `inner`, recording under `layer`.
    pub fn new(inner: R, layer: &'static str, tracer: Arc<Tracer>) -> TracedRefiner<R> {
        TracedRefiner {
            inner,
            layer,
            tracer,
        }
    }

    fn counted(
        &self,
        cut_in: Option<u64>,
        f: impl FnOnce() -> (Bisection, u64),
    ) -> (Bisection, u64) {
        let (p, work) = self.tracer.span(self.layer, f);
        self.tracer.add(self.layer, "calls", 1.0);
        self.tracer.add(self.layer, "work", work as f64);
        if let Some(before) = cut_in {
            self.tracer.add(self.layer, "refines", 1.0);
            if p.cut() == before {
                self.tracer.add(self.layer, "idle", 1.0);
            }
        }
        (p, work)
    }
}

impl<R: Refiner> Bisector for TracedRefiner<R> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn bisect(&self, g: &Graph, rng: &mut dyn RngCore) -> Bisection {
        self.counted(None, || (self.inner.bisect(g, rng), 0)).0
    }

    fn bisect_in(&self, g: &Graph, rng: &mut dyn RngCore, ws: &mut Workspace) -> Bisection {
        self.counted(None, || (self.inner.bisect_in(g, rng, ws), 0))
            .0
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        self.counted(None, || self.inner.bisect_counted(g, rng, ws))
    }
}

impl<R: Refiner> Refiner for TracedRefiner<R> {
    fn refine(&self, g: &Graph, init: Bisection, rng: &mut dyn RngCore) -> Bisection {
        let before = init.cut();
        self.counted(Some(before), || (self.inner.refine(g, init, rng), 0))
            .0
    }

    fn refine_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let before = init.cut();
        self.counted(Some(before), || self.inner.refine_counted(g, init, rng, ws))
    }

    fn wants_projected_cache(&self) -> bool {
        self.inner.wants_projected_cache()
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let before = init.cut();
        self.counted(Some(before), || {
            self.inner.refine_projected_counted(g, init, rng, ws)
        })
    }
}

/// A transparent [`NetlistRefiner`] recording spans under `layer`, the
/// same counters as [`TracedRefiner`], and `starts`: calls made outside
/// the projected-cache protocol, i.e. the coarsest-level start of each
/// ladder (one per bisection when the refiner wants the projected
/// cache).
pub struct TracedNetlistRefiner<R> {
    inner: R,
    layer: &'static str,
    tracer: Arc<Tracer>,
}

impl<R> TracedNetlistRefiner<R> {
    /// Wraps `inner`, recording under `layer`.
    pub fn new(inner: R, layer: &'static str, tracer: Arc<Tracer>) -> TracedNetlistRefiner<R> {
        TracedNetlistRefiner {
            inner,
            layer,
            tracer,
        }
    }

    fn counted(
        &self,
        before: u64,
        f: impl FnOnce() -> (NetlistBisection, u64),
    ) -> (NetlistBisection, u64) {
        let (p, work) = self.tracer.span(self.layer, f);
        self.tracer.add(self.layer, "calls", 1.0);
        self.tracer.add(self.layer, "refines", 1.0);
        self.tracer.add(self.layer, "work", work as f64);
        if p.cut() == before {
            self.tracer.add(self.layer, "idle", 1.0);
        }
        (p, work)
    }
}

impl<R: NetlistRefiner> NetlistRefiner for TracedNetlistRefiner<R> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn refine_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        init: NetlistBisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        self.tracer.add(self.layer, "starts", 1.0);
        let before = init.cut();
        self.counted(before, || {
            self.inner.refine_counted(nl, fixed, init, rng, ws)
        })
    }

    fn wants_projected_cache(&self) -> bool {
        self.inner.wants_projected_cache()
    }

    fn refine_projected_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        init: NetlistBisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        let before = init.cut();
        self.counted(before, || {
            self.inner
                .refine_projected_counted(nl, fixed, init, rng, ws)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "job",
                start_ns: 0,
                end_ns: 1_000,
                parent: None,
                job: 0,
            },
            Span {
                name: "engine",
                start_ns: 100,
                end_ns: 900,
                parent: Some(0),
                job: 0,
            },
            Span {
                name: "kl",
                start_ns: 200,
                end_ns: 500,
                parent: Some(1),
                job: 0,
            },
        ];
        let t = layer_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t["job"].1, 200e-9));
        assert!(close(t["engine"].1, 500e-9));
        assert!(close(t["kl"].0, 300e-9) && close(t["kl"].1, 300e-9));
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let tr = Tracer::new();
        tr.set_job(3);
        let outer = tr.open("job");
        tr.span("engine", || tr.add("kl", "calls", 2.0));
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tr.counter("kl", "calls"), 2.0);
        assert_eq!(tr.counter("kl", "work"), 0.0);
    }
}
