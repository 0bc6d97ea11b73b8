//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and the id of the op it
//! belongs to; every span of one op shares that id. Spans are kept in
//! memory and written out once, when the run ends. A layer's self time is
//! its span's duration minus the time its child spans cover (children run
//! on the parent's thread, one after another, so they never overlap).
//!
//! Whether an op is traced is decided at its root span; an untraced root
//! costs one thread-local push, which is what lets the traced run
//! interleave traced and untraced ops to measure the tracing overhead.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// Id of the enclosing span, 0 for an op's root.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Clone, Copy)]
struct Frame {
    id: u64,
    op: u64,
    traced: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as the root span `name` of a new op, recorded when the
    /// tracer is enabled and `traced` holds.
    pub fn op<T>(&self, traced: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let traced = traced && self.enabled;
        self.run(Frame { id: 0, op, traced }, 0, name, f)
    }

    /// Runs `f` as a child span of the current span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let top = STACK.with(|s| s.borrow().last().copied());
        match top {
            Some(parent) if parent.traced => self.run(
                Frame {
                    id: 0,
                    op: parent.op,
                    traced: true,
                },
                parent.id,
                name,
                f,
            ),
            _ => f(),
        }
    }

    fn run<T>(
        &self,
        mut frame: Frame,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !frame.traced {
            STACK.with(|s| s.borrow_mut().push(frame));
            let out = f();
            STACK.with(|s| s.borrow_mut().pop());
            return out;
        }
        frame.id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(frame));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let rec = SpanRec {
            id: frame.id,
            parent,
            op: frame.op,
            name,
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span store").push(rec);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store").clone()
    }

    /// Count, total time and self time of every span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let st = out.entry(s.name).or_default();
            st.count += 1;
            st.total_ns += dur;
            st.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// The spans as a JSON array, in recording order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn self_time_excludes_children_and_ops_share_ids() {
        let t = Tracer::new(true);
        t.op(true, "op", || {
            spin(200);
            t.span("child", || spin(500));
            t.span("child", || spin(500));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == spans[0].op));
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "child")
            .all(|s| s.parent == root.id));
        let st = t.stats();
        assert_eq!(st["child"].count, 2);
        assert_eq!(st["op"].self_ns, st["op"].total_ns - st["child"].total_ns);
    }

    #[test]
    fn untraced_ops_and_disabled_tracers_record_nothing() {
        let t = Tracer::new(true);
        t.op(false, "op", || t.span("child", || ()));
        assert!(t.spans().is_empty());
        let off = Tracer::new(false);
        off.op(true, "op", || off.span("child", || ()));
        assert!(off.spans().is_empty());
    }
}
