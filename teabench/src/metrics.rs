//! Every metric the benchmark reports, with the end-to-end metric and
//! workloads each per-layer metric should move. `BENCHMARK.json` lists
//! the same names; the self-tests keep the two in step.

use tea_exp::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `better` value of `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, reported by every untraced run.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// A per-layer metric, reported by every traced run, with the
/// end-to-end metrics and workloads a change to its layer should move.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name; the prefix names the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics it should move; for an exact work count, the
    /// metric it explains.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &["suite-ref", "seed-matrix", "sim-only"];
const PROFILED: &[&str] = &["suite-ref", "seed-matrix"];

/// The end-to-end metrics, in output order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
    },
    EndToEnd {
        name: "tea_error_pct",
        unit: "%",
        better: Better::Lower,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in output order.
pub const PER_LAYER: [PerLayer; 22] = [
    layer("workloads.build_s", "s", Lower, &["setup_s"], ALL),
    layer(
        "isa.interp_s",
        "s",
        Lower,
        &["wall_s"],
        &["sim-only", "suite-ref"],
    ),
    layer("isa.insts", "count", Lower, &["cycles_per_s"], ALL),
    layer("isa.capture_s", "s", Lower, &["wall_s"], PROFILED),
    layer("isa.decode_s", "s", Lower, &["wall_s"], &["seed-matrix"]),
    layer(
        "isa.trace_bytes",
        "bytes",
        Lower,
        &["peak_rss_mb"],
        PROFILED,
    ),
    layer("sim.run_s", "s", Lower, &["wall_s", "cycles_per_s"], ALL),
    layer(
        "sim.replay_run_s",
        "s",
        Lower,
        &["wall_s", "cycles_per_s"],
        PROFILED,
    ),
    layer("sim.cycles", "count", Lower, &["cycles_per_s"], ALL),
    layer("sim.active_cycles", "count", Lower, &["cycles_per_s"], ALL),
    layer(
        "sim.skipped_cycles",
        "count",
        Higher,
        &["cycles_per_s"],
        ALL,
    ),
    layer(
        "sim.ns_per_active_cycle",
        "ns",
        Lower,
        &["cycles_per_s"],
        &["sim-only"],
    ),
    layer("core.golden_s", "s", Lower, &["wall_s"], PROFILED),
    layer("core.sampling_s", "s", Lower, &["wall_s"], PROFILED),
    layer("core.samples", "count", Higher, &["wall_s"], PROFILED),
    layer("exp.cell_s", "s", Lower, &["wall_s"], ALL),
    layer("exp.overhead_s", "s", Lower, &["wall_s"], ALL),
    layer(
        "exp.trace_cache.hits",
        "count",
        Higher,
        &["wall_s"],
        PROFILED,
    ),
    layer(
        "exp.trace_cache.misses",
        "count",
        Lower,
        &["wall_s"],
        PROFILED,
    ),
    layer(
        "exp.trace_cache.resident_bytes",
        "bytes",
        Lower,
        &["peak_rss_mb"],
        PROFILED,
    ),
    layer("exp.artifact_s", "s", Lower, &["wall_s"], ALL),
    layer(
        "trace.unaccounted_frac",
        "fraction",
        Lower,
        &["wall_s"],
        ALL,
    ),
];

/// Values measured by one run, in report order.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Adds one end-to-end metric's value.
    ///
    /// # Panics
    ///
    /// If `name` is not an end-to-end metric (a bug in the benchmark).
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("end-to-end metric is listed");
        self.values.push((m.name, m.unit, value));
    }

    /// Adds one per-layer metric's value.
    ///
    /// # Panics
    ///
    /// If `name` is not a per-layer metric (a bug in the benchmark).
    pub fn per_layer(&mut self, name: &'static str, value: f64) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .expect("per-layer metric is listed");
        self.values.push((m.name, m.unit, value));
    }

    /// The reported `(name, value)` pairs.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|&(n, _, v)| (n, v))
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    #[must_use]
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics = self
            .values
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::UInt(attempted)),
            ("failed", Json::UInt(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// If `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
