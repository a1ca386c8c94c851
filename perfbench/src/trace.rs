//! The traced run's spans, recorded from the benchmark around each public
//! call: one span per action (identified by its action id) with a child per
//! call, kept in memory and written once as a Chrome trace that Perfetto
//! opens. Spans inside the program are not recorded here.

use crate::alloc::allocs;
use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The public calls a workload makes, each timed as its own span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Client::begin`.
    Begin,
    /// First-touch `Tx::invoke`: auto-activation (bind through Sv/St,
    /// load or join the replica group) plus the operation.
    Activate,
    /// Repeat-touch `Tx::invoke` on an object already activated.
    Invoke,
    /// `Tx::commit`: the store two-phase commit.
    Commit,
    /// `Tx::abort` after a refused or failed invoke.
    Abort,
    /// `System::try_passivate` after an action.
    Passivate,
    /// `RecoveryManager::recover_node` in the fault schedule.
    Recover,
}

impl Call {
    /// Every call kind, in `index` order.
    pub const ALL: [Call; 7] = [
        Call::Begin,
        Call::Activate,
        Call::Invoke,
        Call::Commit,
        Call::Abort,
        Call::Passivate,
        Call::Recover,
    ];

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "begin",
            Call::Activate => "invoke_first_touch",
            Call::Invoke => "invoke_repeat",
            Call::Commit => "commit",
            Call::Abort => "abort",
            Call::Passivate => "try_passivate",
            Call::Recover => "recover_node",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Wall time and allocations summed over every traced call of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    pub count: u64,
    pub ns: u64,
    pub allocs: u64,
}

/// One recorded span; `parent` is 0 for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// The action id, on action spans only.
    pub action: Option<u64>,
    /// Trace track: 0 for the fault schedule, `client + 1` otherwise.
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans and per-call totals while `on`; when off, `call` is a
/// plain function call.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    next_id: u64,
    totals: [CallTotals; Call::ALL.len()],
}

impl Tracer {
    /// A tracer keeping at most `cap` spans for the trace file; totals
    /// keep counting past the cap.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            next_id: 1,
            totals: [CallTotals::default(); Call::ALL.len()],
        }
    }

    /// Reserves a span id (an action's span is recorded when it ends).
    pub fn span_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Runs `f` as one public call, a child of span `parent`.
    pub fn call<R>(&mut self, call: Call, parent: u64, track: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = allocs();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let a1 = allocs();
        let t = &mut self.totals[call.index()];
        t.count += 1;
        t.ns += (t1 - t0).as_nanos() as u64;
        t.allocs += a1 - a0;
        let span = Span {
            id: self.span_id(),
            parent,
            name: call.name(),
            action: None,
            track,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        };
        self.push(span);
        out
    }

    /// Records the span of a finished action.
    pub fn action(&mut self, id: u64, action: u64, track: u32, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                id,
                parent: 0,
                name: "action",
                action: Some(action),
                track,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.push(span);
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        }
    }

    /// Totals of one call kind.
    pub fn totals(&self, call: Call) -> CallTotals {
        self.totals[call.index()]
    }

    /// Writes the kept spans as a Chrome trace (`ph: "X"` events, one track
    /// per client), each with its parent and self time in `args`.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let own = self_times(&self.spans);
        let mut out = BufWriter::new(fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut first = true;
        for t in tracks {
            let name = if t == 0 {
                "faults".to_string()
            } else {
                format!("client {}", t - 1)
            };
            sep(&mut out, &mut first)?;
            write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for (s, self_ns) in self.spans.iter().zip(own) {
            sep(&mut out, &mut first)?;
            write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                self_ns as f64 / 1e3,
            )?;
            if let Some(a) = s.action {
                write!(out, ",\"action\":{a}")?;
            }
            write!(out, "}}}}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

fn sep(out: &mut impl Write, first: &mut bool) -> io::Result<()> {
    if !*first {
        out.write_all(b",\n")?;
    }
    *first = false;
    Ok(())
}

/// Self time of each span: its duration minus the durations of its
/// children (children never overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            action: None,
            track: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 90),
            span(4, 0, 100, 120),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50, 20]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(10);
        assert_eq!(t.call(Call::Begin, 0, 1, || 7), 7);
        assert_eq!(t.totals(Call::Begin), CallTotals::default());
        t.on = true;
        let parent = t.span_id();
        t.call(Call::Invoke, parent, 1, || ());
        assert_eq!(t.totals(Call::Invoke).count, 1);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].parent, parent);
    }

    #[test]
    fn span_buffer_stops_at_cap_but_totals_do_not() {
        let mut t = Tracer::new(2);
        t.on = true;
        for _ in 0..5 {
            t.call(Call::Commit, 0, 1, || ());
        }
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.totals(Call::Commit).count, 5);
    }
}
