//! In-memory spans around the harness's calls into each layer.
//!
//! One `cycle` root per cycle, a `tts` child covering `T_obs` → last ACK,
//! and one child per call into a layer, named `<crate>.<what>`. Spans are
//! recorded by the harness only — nothing inside the program is
//! instrumented — and every per-layer number is derived from self times
//! (a span's duration minus what its children cover).

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub cycle: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the root span of `cycle`; later spans carry its identifier.
    pub fn open_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.open("cycle");
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cycle: self.cycle,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Record `f` as one child span of the innermost open span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per cycle in `cycles`, the summed self time (seconds) of the spans
    /// called `name`; cycles without such a span are left out.
    pub fn self_seconds(&self, name: &str, cycles: std::ops::Range<u64>) -> Vec<f64> {
        let own = self.self_times_ns();
        let mut per_cycle: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name && cycles.contains(&s.cycle) {
                *per_cycle.entry(s.cycle).or_insert(0) += ns;
            }
        }
        per_cycle.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Per cycle in `cycles`, the summed self time (seconds) of the spans
    /// under `tts` whose name starts with `layer` + `.`, divided by
    /// `tts_seconds[cycle]`.
    pub fn layer_shares(&self, layer: &str, tts_seconds: &BTreeMap<u64, f64>) -> Vec<f64> {
        let own = self.self_times_ns();
        let mut per_cycle: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let in_layer = s
                .name
                .strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'));
            let under_tts = s.parent.is_some_and(|p| self.spans[p].name == "tts");
            if in_layer && under_tts && tts_seconds.contains_key(&s.cycle) {
                *per_cycle.entry(s.cycle).or_insert(0) += ns;
            }
        }
        tts_seconds
            .iter()
            .map(|(c, tts)| per_cycle.get(c).copied().unwrap_or(0) as f64 * 1e-9 / tts)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::Num(s.start_ns as f64)),
                        ("end_ns".into(), Value::Num(s.end_ns as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("cycle".into(), Value::Num(s.cycle as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// cycle [0, 100) ⊃ tts [10, 90) ⊃ { a.x [20, 50), b.y [50, 80) }.
    fn nested() -> Tracer {
        let mut t = Tracer::new(true);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            cycle: 3,
        };
        t.spans = vec![
            span("cycle", 0, 100, None),
            span("tts", 10, 90, Some(0)),
            span("a.x", 20, 50, Some(1)),
            span("b.y", 50, 80, Some(1)),
        ];
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(nested().self_times_ns(), vec![20, 20, 30, 30]);
    }

    #[test]
    fn per_cycle_sums_and_layer_shares() {
        let t = nested();
        assert_eq!(t.self_seconds("a.x", 0..10), vec![30.0 * 1e-9]);
        assert!(t.self_seconds("a.x", 0..3).is_empty());
        let tts = BTreeMap::from([(3u64, 80e-9)]);
        let share = t.layer_shares("a", &tts);
        assert!(share.len() == 1 && (share[0] - 30.0 / 80.0).abs() < 1e-12);
        // `a` must match the whole layer name, not a prefix of it.
        assert_eq!(t.layer_shares("a.x", &tts), vec![0.0]);
    }

    #[test]
    fn open_close_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.open_cycle(7);
        t.open("tts");
        assert_eq!(t.leaf("a.x", || 5), 5);
        t.close();
        t.close();
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(t
            .spans
            .iter()
            .all(|s| s.cycle == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        off.open_cycle(0);
        assert_eq!(off.leaf("a.x", || 1), 1);
        off.close();
        assert!(off.spans.is_empty());
    }
}
