//! Minimal `rayon` stand-in built on `std::thread::scope`.
//!
//! The execution model is deliberately simple and *order-preserving*: a
//! pipeline materializes its input items, splits them into contiguous
//! chunks (one per available core), maps each chunk on its own scoped
//! thread, and re-concatenates chunk outputs in input order. `reduce` then
//! folds the mapped results sequentially, left to right, starting from
//! `identity()`.
//!
//! That makes every `map`/`collect`/`reduce` in this workspace bitwise
//! deterministic and identical to serial execution whenever the reduce
//! operator is associative — which the render/composite call sites are.
//! Real rayon only promises this for `collect`; do not port code here that
//! relies on rayon's work-stealing reduction shapes.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`]; applies
    /// to parallel regions started from the calling thread (not to nested
    /// regions launched from inside workers).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads a parallel region will use.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Stand-in for rayon's pool builder: the only supported knob is the
/// thread count, applied scoped via [`ThreadPool::install`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(current_num_threads),
        })
    }
}

/// A fixed thread-count scope (see [`ThreadPoolBuilder`]).
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with parallel regions capped at this pool's thread count.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(self.num_threads)));
        let out = f();
        THREAD_OVERRIDE.with(|c| c.set(prev));
        out
    }
}

/// Run both closures, potentially in parallel, and return both results.
/// Panics from either closure propagate to the caller.
pub fn join<A, RA, B, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let b = s.spawn(oper_b);
        let ra = oper_a();
        match b.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Map `f` over `items` on scoped threads, preserving item order.
fn execute<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut out: Vec<Option<Vec<U>>> = (0..chunks.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, chunk) in out.iter_mut().zip(chunks) {
            s.spawn(move || {
                *slot = Some(chunk.into_iter().map(f).collect());
            });
        }
    });
    out.into_iter().flatten().flatten().collect()
}

/// A materialized parallel iterator: items are collected up front, the
/// heavy lifting happens at the `map`/`collect`/`reduce` boundary.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Pair up with another parallel iterator, item by item (both sides
    /// are already materialized, so this is a plain zip of the inputs).
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Run `f` over every item on the worker threads; no results.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        execute(self.items, &|t| f(t));
    }

    /// Like `map`, but each worker thread builds one `init()` value and
    /// threads it mutably through its chunk of items — the rayon idiom
    /// for reusable per-thread scratch buffers.
    pub fn map_init<S, U, INIT, F>(self, init: INIT, f: F) -> ParMapInit<T, S, U, INIT, F>
    where
        U: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> U + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
            _marker: PhantomData,
        }
    }

    pub fn map<U, F>(self, f: F) -> ParMap<T, U, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
            _marker: PhantomData,
        }
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// A parallel iterator with a pending map stage.
pub struct ParMap<T, U, F> {
    items: Vec<T>,
    f: F,
    _marker: PhantomData<fn() -> U>,
}

impl<T, U, F> ParMap<T, U, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    pub fn map<V, G>(self, g: G) -> ParMap<T, V, impl Fn(T) -> V + Sync>
    where
        V: Send,
        G: Fn(U) -> V + Sync,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |t| g(f(t)),
            _marker: PhantomData,
        }
    }

    pub fn collect<C: FromIterator<U>>(self) -> C {
        execute(self.items, &self.f).into_iter().collect()
    }

    /// Map in parallel, then fold the results sequentially in input order
    /// starting from `identity()`. Deterministic for any operator; equal to
    /// rayon's result when the operator is associative.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> U
    where
        ID: Fn() -> U + Sync + Send,
        OP: Fn(U, U) -> U + Sync + Send,
    {
        let mapped = execute(self.items, &self.f);
        mapped.into_iter().fold(identity(), op)
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<U>,
    {
        execute(self.items, &self.f).into_iter().sum()
    }
}

/// A parallel iterator with a pending stateful map stage (see
/// [`ParIter::map_init`]).
pub struct ParMapInit<T, S, U, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
    _marker: PhantomData<fn(S) -> U>,
}

impl<T, S, U, INIT, F> ParMapInit<T, S, U, INIT, F>
where
    T: Send,
    U: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let n = self.items.len();
        let threads = current_num_threads().min(n);
        if threads <= 1 {
            let mut state = (self.init)();
            return self.items.into_iter().map(|t| (self.f)(&mut state, t)).collect();
        }
        let chunk_size = n.div_ceil(threads);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
        let mut it = self.items.into_iter();
        loop {
            let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let mut out: Vec<Option<Vec<U>>> = (0..chunks.len()).map(|_| None).collect();
        let init = &self.init;
        let f = &self.f;
        std::thread::scope(|s| {
            for (slot, chunk) in out.iter_mut().zip(chunks) {
                s.spawn(move || {
                    let mut state = init();
                    *slot = Some(chunk.into_iter().map(|t| f(&mut state, t)).collect());
                });
            }
        });
        out.into_iter().flatten().flatten().collect()
    }
}

/// `par_iter`/`par_chunks` on slices.
///
/// `par_iter` materializes one heap item per *element* (a `Vec<&T>`, and
/// `enumerate`/`zip` each rebuild it as a `Vec` of tuples) before any work
/// starts — 8–16 bytes written and read back per element. Loops over
/// particles or vertices should take `par_chunks` of one slice per worker
/// and iterate the slice themselves; `par_iter` is for coarse items
/// (tiles, blocks, design points).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParIter<&T>;
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "par_chunks requires chunk_size > 0");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// `par_chunks_mut` on mutable slices: disjoint `&mut` chunks are the
/// cheap way to parallel-fill a large buffer — the pipeline materializes
/// one item per *chunk*, not per element, so per-element overhead stays
/// off the hot path.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "par_chunks_mut requires chunk_size > 0");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// `into_par_iter` on owned collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_matches_serial() {
        let v = [10, 20, 30, 40];
        let out: Vec<(usize, i32)> = v.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn chunked_reduce_is_in_order() {
        // A deliberately non-commutative operator: string concatenation.
        let v: Vec<usize> = (0..100).collect();
        let s = v
            .par_chunks(7)
            .map(|c| c.iter().map(|x| format!("{x},")).collect::<String>())
            .reduce(String::new, |a, b| a + &b);
        let want: String = (0..100).map(|x| format!("{x},")).collect();
        assert_eq!(s, want);
    }

    #[test]
    fn range_into_par_iter() {
        let rows: Vec<usize> = (0..64usize).into_par_iter().map(|r| r * r).collect();
        assert_eq!(rows[63], 63 * 63);
    }

    #[test]
    fn zip_pairs_in_order() {
        let a = [1, 2, 3];
        let b = ["x", "y", "z"];
        let out: Vec<(i32, &str)> = a
            .par_iter()
            .zip(b.par_iter())
            .map(|(&x, &s)| (x, s))
            .collect();
        assert_eq!(out, vec![(1, "x"), (2, "y"), (3, "z")]);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        let v: Vec<usize> = (0..1000).collect();
        v.par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn map_init_reuses_state_within_a_worker() {
        // The scratch starts fresh per worker and mutates across its
        // chunk; output order still matches input order.
        let v: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = v
            .par_iter()
            .map_init(Vec::<usize>::new, |scratch, &x| {
                scratch.push(x);
                x * 2
            })
            .collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_fills_disjoint_ranges() {
        let mut v = vec![0usize; 1000];
        v.par_chunks_mut(64).enumerate().for_each(|(ci, chunk)| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = ci * 64 + i;
            }
        });
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn thread_pool_override_is_scoped() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let inside = pool.install(crate::current_num_threads);
        assert_eq!(inside, 1);
        // restored after install returns
        assert!(crate::current_num_threads() >= 1);
        // results identical under the override
        let v: Vec<usize> = (0..5000).collect();
        let wide: Vec<usize> = v.par_iter().map(|&x| x * 3).collect();
        let narrow: Vec<usize> = pool.install(|| v.par_iter().map(|&x| x * 3).collect());
        assert_eq!(wide, narrow);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = crate::join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn join_propagates_panic() {
        let r = std::panic::catch_unwind(|| {
            crate::join(|| 1, || panic!("boom"));
        });
        assert!(r.is_err());
    }
}
