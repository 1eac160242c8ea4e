//! The output check: every cell's deterministic outputs against values
//! recorded beside the benchmark (`expected.json`).
//!
//! A cell's outputs are its `RunResult::deterministic_json` object:
//! cycles, instructions, commit-state cycles, squash counts, samples per
//! scheme and errors per scheme. A speed-only change leaves every one of
//! them identical, so the comparison is exact. On top of that the check
//! asserts that every cell completed and that the golden reference
//! attributed every cycle exactly once.

use std::collections::BTreeMap;

use tea_exp::json::{self, Json};
use tea_exp::{CellOutcome, RunResult};

/// Schema tag of the expected-values file.
const SCHEMA: &str = "teabench-expected/v1";

/// Keys a cell's artifact object carries that depend on the host clock.
const TIMING_KEYS: [&str; 3] = ["wall_seconds", "sim_mips", "threads"];

/// Recorded outputs: cell sets by name, each mapping a cell key
/// (`<kernel>/<jitter seed>`) to its compact deterministic JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected {
    sets: BTreeMap<String, BTreeMap<String, String>>,
}

/// The key a cell is recorded under.
#[must_use]
pub fn cell_key(outcome: &CellOutcome) -> String {
    format!("{}/{}", outcome.spec.workload, outcome.spec.seed)
}

/// A cell's deterministic artifact object, rendered compactly.
#[must_use]
pub fn cell_outputs(outcome: &CellOutcome) -> String {
    outcome.to_json().without_keys(&TIMING_KEYS).render()
}

impl Expected {
    /// Parses an expected-values file.
    ///
    /// # Errors
    ///
    /// A message when the text is not JSON or not of this schema.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("expected values must have schema {SCHEMA}"));
        }
        let sets = doc
            .get("sets")
            .and_then(Json::as_obj)
            .ok_or("expected values lack a `sets` object")?;
        let mut out = Expected::default();
        for (name, cells) in sets {
            let cells = cells
                .as_obj()
                .ok_or_else(|| format!("set {name} is not an object"))?;
            out.sets.insert(
                name.clone(),
                cells.iter().map(|(k, v)| (k.clone(), v.render())).collect(),
            );
        }
        Ok(out)
    }

    /// Renders the file [`Expected::parse`] reads.
    ///
    /// # Panics
    ///
    /// Never for values built by [`Expected::record`]: they are JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let sets = self
            .sets
            .iter()
            .map(|(name, cells)| {
                let cells = cells
                    .iter()
                    .map(|(k, v)| (k.clone(), json::parse(v).expect("recorded cells are JSON")))
                    .collect();
                (name.clone(), Json::Obj(cells))
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("sets".to_string(), Json::Obj(sets)),
        ])
        .render_pretty()
    }

    /// Records every cell of `run` as the expected outputs of `set`.
    pub fn record(&mut self, set: &str, run: &RunResult) {
        let cells = self.sets.entry(set.to_string()).or_default();
        cells.clear();
        for c in &run.cells {
            cells.insert(cell_key(c), cell_outputs(c));
        }
    }

    /// The recorded outputs of one cell.
    #[must_use]
    pub fn cell(&self, set: &str, key: &str) -> Option<Json> {
        json::parse(self.sets.get(set)?.get(key)?).ok()
    }

    /// The recorded outputs of one cell, for tests that perturb them.
    pub fn cell_mut(&mut self, set: &str, key: &str) -> Option<&mut String> {
        self.sets.get_mut(set)?.get_mut(key)
    }

    /// Checks `run` against the outputs recorded for `set`. Returns one
    /// message per failed cell (empty when every cell passed); a cell
    /// fails when it did not complete, when golden did not attribute
    /// each of its cycles exactly once, or when any output differs.
    #[must_use]
    pub fn check(&self, set: &str, run: &RunResult) -> Vec<String> {
        let Some(cells) = self.sets.get(set) else {
            return vec![format!("no expected outputs recorded for {set}")];
        };
        let mut failures: Vec<String> = run
            .cells
            .iter()
            .filter_map(|c| check_cell(cells, c).err())
            .collect();
        if run.cells.len() != cells.len() {
            failures.push(format!(
                "{set}: ran {} cells, {} recorded",
                run.cells.len(),
                cells.len()
            ));
        }
        failures
    }
}

fn check_cell(expected: &BTreeMap<String, String>, c: &CellOutcome) -> Result<(), String> {
    let key = cell_key(c);
    if !c.is_ok() {
        return Err(format!("{key}: status {}", c.status.name()));
    }
    if let Some((r, g)) = c.result().and_then(|r| Some((r, r.golden.as_ref()?))) {
        // The u64 counter is exact; the PICS total sums fractional
        // shares, so it matches up to floating-point rounding.
        let total = g.pics().total();
        let cycles = r.stats.cycles as f64;
        if g.total_cycles() != r.stats.cycles || (total - cycles).abs() > 1e-9 * cycles {
            return Err(format!(
                "{key}: golden attributed {} cycles (PICS total {total}) of {}",
                g.total_cycles(),
                r.stats.cycles
            ));
        }
    }
    let got = cell_outputs(c);
    match expected.get(&key) {
        None => Err(format!("{key}: no recorded outputs")),
        Some(want) if *want != got => Err(format!("{key}: {}", first_difference(want, &got))),
        Some(_) => Ok(()),
    }
}

/// Names the first top-level field in which two rendered cells differ.
fn first_difference(want: &str, got: &str) -> String {
    let (Ok(Json::Obj(w)), Ok(Json::Obj(g))) = (json::parse(want), json::parse(got)) else {
        return "outputs differ".to_string();
    };
    let got: BTreeMap<_, _> = g.into_iter().collect();
    for (k, v) in w {
        match got.get(&k) {
            Some(g) if *g == v => {}
            Some(g) => return format!("{k} is {}, recorded {}", g.render(), v.render()),
            None => return format!("{k} missing"),
        }
    }
    "outputs carry unrecorded fields".to_string()
}
