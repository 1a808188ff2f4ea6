//! The scenario/budget vocabulary in one place: one table of scenario
//! axes ([`AXES`]) and one of budget fields ([`BUDGET`]), each row a
//! name and a text parser.
//!
//! `busnet sim`, `busnet sweep` and the serve protocol are thin
//! adapters over the two tables. The CLI flag `--x-y` reads row `x_y`
//! ([`Flags::spec`]); a serve request's `scenario` and `budget` members
//! name rows, with JSON numbers and strings passed through as text. So
//! every door accepts the same grammar and applies the same rules:
//!
//! * an axis value is a comma list (`2,6,10`), an inclusive range
//!   (`2..64`) or a stepped range (`2..16:2`) where the row takes one;
//! * two rows may not set the same grid axis (`buffering` and
//!   `buffer_depth`, or two workload rows);
//! * a one-point door (`sim`, serve) rejects a spec that expands to
//!   more than one point;
//! * [`SimBudget::validate`] is the one budget rule.
//!
//! Defaults come only from [`ScenarioGrid::new`] and the [`SimBudget`]
//! presets. The cache fingerprint ([`crate::cache::scenario_fingerprint`])
//! stays outside the tables on purpose: its grammar is a persisted
//! format.

use std::collections::HashSet;
use std::str::FromStr;

use busnet_sim::event::EngineKind;

use super::{Scenario, ScenarioGrid, SimBudget, Stopping};
use crate::error::CoreError;
use crate::params::{ArbitrationKind, Buffering, BusPolicy, Workload};

/// Most values one axis range may expand to. The length is computed
/// from the bounds, so an oversized range is rejected before anything
/// is allocated.
const MAX_AXIS_VALUES: u64 = 1 << 16;

/// Most points one grid may expand to, checked before the grid is
/// materialized.
pub const MAX_SWEEP_POINTS: usize = 1 << 22;

/// Most replications (and adaptive `max_reps` multiples) one budget
/// may ask for: the sweep plan allocates per replication, so the cap
/// bounds the work one request or flag can schedule.
pub const MAX_REPLICATIONS: u32 = 1024;

/// One table row: a field name and how its text applies to a `T`.
pub struct Row<T> {
    /// The row's name: the serve field, and the CLI flag with `_`
    /// spelled `-`.
    pub name: &'static str,
    /// What the row sets; two given rows that share a slot conflict.
    slot: &'static str,
    apply: fn(T, &str) -> Result<T, String>,
}

/// The scenario axes, applied to a [`ScenarioGrid`].
pub const AXES: [Row<ScenarioGrid>; 14] = [
    Row { name: "n", slot: "n", apply: |g, v| Ok(g.n_values(u32_spec(v)?)) },
    Row { name: "m", slot: "m", apply: |g, v| Ok(g.m_values(u32_spec(v)?)) },
    Row { name: "r", slot: "r", apply: |g, v| Ok(g.r_values(u32_spec(v)?)) },
    Row { name: "p", slot: "p", apply: |g, v| Ok(g.p_values(list(v, number)?)) },
    Row {
        name: "policy",
        slot: "policy",
        apply: |g, v| {
            Ok(g.policies(match v {
                "both" => vec![BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority],
                v => list(v, named("proc|mem|both", BusPolicy::from_name))?,
            }))
        },
    },
    Row {
        name: "buffering",
        slot: "buffering",
        apply: |g, v| {
            Ok(g.bufferings(match v {
                "both" => vec![Buffering::Unbuffered, Buffering::Buffered],
                v => list(
                    v,
                    named("unbuffered|buffered|depthK|infinite|both", Buffering::from_name),
                )?,
            }))
        },
    },
    Row {
        name: "buffer_depth",
        slot: "buffering",
        apply: |g, v| {
            Ok(g.bufferings(list(
                v,
                named("an integer or inf", |k| match k {
                    "inf" | "infinite" => Some(Buffering::Infinite),
                    k => k.parse().ok().map(Buffering::Depth),
                }),
            )?))
        },
    },
    Row {
        name: "arbitration",
        slot: "arbitration",
        apply: |g, v| {
            Ok(g.arbitrations(match v {
                "all" => ArbitrationKind::ALL.to_vec(),
                v => list(
                    v,
                    named("random|round-robin|lru|priority|all", ArbitrationKind::from_name),
                )?,
            }))
        },
    },
    Row { name: "buses", slot: "buses", apply: |g, v| Ok(g.buses_values(u32_spec(v)?)) },
    Row { name: "hot_spot", slot: "workload", apply: |g, v| Ok(g.workloads(list(v, hot_spot)?)) },
    Row {
        name: "module_weights",
        slot: "workload",
        apply: |g, v| workload(g, Workload::weighted(numbers(v)?)),
    },
    Row {
        name: "think_probs",
        slot: "workload",
        apply: |g, v| workload(g, Workload::heterogeneous(numbers(v)?)),
    },
    Row { name: "burst", slot: "workload", apply: |g, v| workload(g, burst(v)) },
    Row {
        name: "workload",
        slot: "workload",
        apply: |g, v| match v {
            "uniform" => Ok(g.workloads([Workload::Uniform])),
            _ => Err("expected uniform (other workloads have their own fields)".to_owned()),
        },
    },
];

/// The budget fields, applied to a [`SimBudget`] in table order (so
/// `ci_width` sees the final `replications`, and `max_reps` sees
/// `ci_width`).
pub const BUDGET: [Row<SimBudget>; 7] = [
    Row {
        name: "replications",
        slot: "replications",
        apply: |b, v| Ok(SimBudget { replications: number(v)?, ..b }),
    },
    Row {
        name: "cycles",
        slot: "cycles",
        apply: |b, v| Ok(SimBudget { measure: number(v)?, ..b }),
    },
    Row { name: "warmup", slot: "warmup", apply: |b, v| Ok(SimBudget { warmup: number(v)?, ..b }) },
    Row {
        name: "seed",
        slot: "seed",
        apply: |b, v| Ok(SimBudget { master_seed: number(v)?, ..b }),
    },
    Row {
        name: "engine",
        slot: "engine",
        apply: |b, v| {
            let engine = EngineKind::from_name(v).ok_or("expected cycle|event")?;
            Ok(b.with_engine(engine))
        },
    },
    // `max_reps` defaults to `replications`, so adaptive stopping never
    // costs more than the fixed scheme it replaces.
    Row {
        name: "ci_width",
        slot: "ci_width",
        apply: |b, v| Ok(b.with_ci_width(number(v)?, b.replications)),
    },
    Row {
        name: "max_reps",
        slot: "max_reps",
        apply: |b, v| match b.stopping {
            Stopping::Adaptive { ci_width, .. } => Ok(b.with_ci_width(ci_width, number(v)?)),
            Stopping::Fixed => Err("max_reps needs ci_width".to_owned()),
        },
    },
];

/// The grid `fields` name: each `(row, text)` pair applied to
/// [`ScenarioGrid::new`], and the expansion bounded by
/// [`MAX_SWEEP_POINTS`].
///
/// # Errors
///
/// An unknown row, two rows setting one axis, an unparsable value, or
/// an oversized grid.
pub fn grid(fields: &[(&str, impl AsRef<str>)]) -> Result<ScenarioGrid, String> {
    let grid = apply(&AXES, "scenario", ScenarioGrid::new(), fields)?;
    if grid.len() > MAX_SWEEP_POINTS {
        return Err(format!(
            "grid too large: more than {MAX_SWEEP_POINTS} points (narrow an axis)"
        ));
    }
    Ok(grid)
}

/// The one scenario `fields` name (`busnet sim` and the serve
/// protocol): a grid that must expand to exactly one valid point.
///
/// # Errors
///
/// As [`grid`], for a spec naming any number of points but one, and
/// for a point that fails validation.
pub fn point(fields: &[(&str, impl AsRef<str>)]) -> Result<Scenario, String> {
    let grid = apply(&AXES, "scenario", ScenarioGrid::new(), fields)?;
    if grid.len() != 1 {
        return Err(format!(
            "the scenario expands to {} points; one is expected (lists and ranges are for sweep)",
            grid.len()
        ));
    }
    let mut points = grid.scenarios().map_err(|e| e.to_string())?;
    Ok(points.pop().expect("a one-point grid"))
}

/// The serve protocol's scenario: [`point`], with `n`, `m` and `r`
/// required rather than defaulted.
///
/// # Errors
///
/// As [`point`], plus a missing size field.
pub(crate) fn request_point(fields: &[(&str, impl AsRef<str>)]) -> Result<Scenario, String> {
    for required in ["n", "m", "r"] {
        if !fields.iter().any(|(name, _)| *name == required) {
            return Err(format!("missing scenario field \"{required}\""));
        }
    }
    point(fields)
}

/// `preset` under the budget `fields`, checked by
/// [`SimBudget::validate`].
///
/// # Errors
///
/// An unknown or repeated field, an unparsable value, or a budget the
/// rule rejects.
pub fn budget(preset: SimBudget, fields: &[(&str, impl AsRef<str>)]) -> Result<SimBudget, String> {
    let budget = apply(&BUDGET, "budget", preset, fields)?;
    budget.validate().map_err(|e| e.to_string())?;
    Ok(budget)
}

/// The `busnet sim` budget: [`SimBudget::single_run`] under `fields`,
/// with the warmup a tenth of the measured window unless given. One
/// run has no replication count, so `replications` is refused.
///
/// # Errors
///
/// As [`budget`], plus a `replications` field.
pub fn single_run_budget(fields: &[(&str, impl AsRef<str>)]) -> Result<SimBudget, String> {
    let given = |row: &str| fields.iter().any(|(name, _)| *name == row);
    if given("replications") {
        return Err("busnet sim runs one replication (replications is for sweep)".to_owned());
    }
    let mut budget = budget(SimBudget::single_run(), fields)?;
    if !given("warmup") {
        budget.warmup = budget.measure / 10;
    }
    Ok(budget)
}

impl SimBudget {
    /// The one budget rule every front door applies: at least one
    /// measured cycle, `1 ..= MAX_REPLICATIONS` replications, and
    /// under adaptive stopping a positive finite `ci_width` and
    /// `1 ..= MAX_REPLICATIONS` for `max_reps`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        let reps = 1..=MAX_REPLICATIONS;
        let invalid = |name, value: String, constraint| {
            Err(CoreError::InvalidParameter { name, value, constraint })
        };
        if self.measure == 0 {
            return invalid("cycles", "0".to_owned(), "cycles >= 1");
        }
        if !reps.contains(&self.replications) {
            let value = self.replications.to_string();
            return invalid("replications", value, "1 <= replications <= 1024");
        }
        if let Stopping::Adaptive { ci_width, max_reps } = self.stopping {
            if !(ci_width.is_finite() && ci_width > 0.0) {
                return invalid("ci_width", ci_width.to_string(), "a positive finite width");
            }
            if !reps.contains(&max_reps) {
                return invalid("max_reps", max_reps.to_string(), "1 <= max_reps <= 1024");
            }
        }
        Ok(())
    }
}

/// Strict command-line flag cursor: every flag must be known, every
/// value must parse, and leftovers are an error. [`Flags::spec`] is the
/// CLI adapter over the tables.
pub struct Flags<'a> {
    args: &'a [String],
    used: HashSet<usize>,
    errors: Vec<String>,
}

/// The `(row, text)` pairs a front door read, per table.
pub type Fields<'a> = Vec<(&'static str, &'a str)>;

impl<'a> Flags<'a> {
    /// A cursor over `args` (the arguments after the subcommand).
    pub fn new(args: &'a [String]) -> Self {
        Flags { args, used: HashSet::new(), errors: Vec::new() }
    }

    /// Consumes a boolean flag, returning whether it was present.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut present = false;
        for (i, a) in self.args.iter().enumerate() {
            if a == name {
                self.used.insert(i);
                present = true;
            }
        }
        present
    }

    /// Consumes `name VALUE`, returning the raw value if present.
    pub fn value(&mut self, name: &str) -> Option<&'a str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.used.insert(i);
        match self.args.get(i + 1) {
            Some(v) => {
                self.used.insert(i + 1);
                Some(v)
            }
            None => {
                self.errors.push(format!("flag {name} expects a value"));
                None
            }
        }
    }

    /// Consumes and parses `name VALUE`, with a default.
    pub fn parse<T: FromStr>(&mut self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                self.errors.push(format!("bad value for {name}: {raw}"));
                default
            }),
            None => default,
        }
    }

    /// Consumes the flag of every axis and budget row (`--x-y` for row
    /// `x_y`), returning the `(row, text)` pairs given.
    pub fn spec(&mut self) -> (Fields<'a>, Fields<'a>) {
        (self.rows(&AXES), self.rows(&BUDGET))
    }

    fn rows<T>(&mut self, rows: &[Row<T>]) -> Fields<'a> {
        rows.iter().filter_map(|row| Some((row.name, self.value(&flag(row.name))?))).collect()
    }

    /// Fails on any unconsumed argument or accumulated error.
    ///
    /// # Errors
    ///
    /// Every problem found, one per line.
    pub fn finish(self) -> Result<(), String> {
        let mut errors = self.errors;
        for (i, a) in self.args.iter().enumerate() {
            if !self.used.contains(&i) {
                errors.push(format!("unknown flag or stray argument: {a}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(format!("{}\nrun `busnet` without arguments for usage", errors.join("\n")))
        }
    }
}

/// The CLI spelling of row `name`: `--x-y` for `x_y`.
pub fn flag(name: &str) -> String {
    format!("--{}", name.replace('_', "-"))
}

/// Applies `fields` to `value`, each row at most once, in table order.
fn apply<T>(
    rows: &[Row<T>],
    what: &str,
    mut value: T,
    fields: &[(&str, impl AsRef<str>)],
) -> Result<T, String> {
    // Each given row occupies its slot; the table is small, so the
    // scan is bounded even for a field list as long as a request line.
    let mut given: Vec<(&Row<T>, &str)> = Vec::new();
    for (name, text) in fields {
        let row = rows
            .iter()
            .find(|row| row.name == *name)
            .ok_or_else(|| format!("unknown {what} field `{name}`"))?;
        if let Some((other, _)) = given.iter().find(|(other, _)| other.slot == row.slot) {
            return Err(if other.name == row.name {
                format!("{what} field `{name}` is given twice")
            } else {
                format!("`{}` and `{name}` both set the {} axis", other.name, row.slot)
            });
        }
        given.push((row, text.as_ref()));
    }
    for row in rows {
        if let Some(&(_, text)) = given.iter().find(|(r, _)| std::ptr::eq(*r, row)) {
            value =
                (row.apply)(value, text).map_err(|e| format!("bad {} `{text}`: {e}", row.name))?;
        }
    }
    Ok(value)
}

/// Parses one number of type `T`.
fn number<T: FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("expected {}", std::any::type_name::<T>()))
}

/// Parses an axis value list item by item. Its length is capped like a
/// range's, since expanding the grid compares each value with the
/// distinct values before it.
fn list<T>(spec: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let len = spec.split(',').count();
    if len as u64 > MAX_AXIS_VALUES {
        return Err(format!("lists {len} values (at most {MAX_AXIS_VALUES})"));
    }
    spec.split(',').map(item).collect()
}

/// A list item parsed by `parse`, or an error naming what was expected.
fn named<T>(
    expected: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> impl Fn(&str) -> Result<T, String> {
    move |v| parse(v).ok_or_else(|| format!("expected {expected}, got `{v}`"))
}

/// The comma-separated numbers of one workload (one value per module
/// or processor, so not capped like an axis list).
fn numbers(spec: &str) -> Result<Vec<f64>, String> {
    spec.split(',').map(number).collect()
}

/// Sets a one-workload axis.
fn workload(
    grid: ScenarioGrid,
    workload: Result<Workload, impl ToString>,
) -> Result<ScenarioGrid, String> {
    Ok(grid.workloads([workload.map_err(|e| e.to_string())?]))
}

/// Parses an axis spec: `2,6,10`, `2..64` (inclusive), or `2..16:2`.
fn u32_spec(spec: &str) -> Result<Vec<u32>, String> {
    let (range, step) = match spec.split_once(':') {
        None => (spec, 1),
        Some((range, step)) => match step.parse::<u32>() {
            Ok(0) | Err(_) => return Err("step must be a positive integer".to_owned()),
            Ok(_) if !range.contains("..") => {
                return Err("a step requires a LO..HI range".to_owned())
            }
            Ok(step) => (range, step),
        },
    };
    let Some((lo, hi)) = range.split_once("..") else {
        return list(spec, number);
    };
    let (Ok(lo), Ok(hi)) = (lo.parse::<u32>(), hi.parse::<u32>()) else {
        return Err("expected integers around `..`".to_owned());
    };
    if lo > hi {
        return Err("range is empty".to_owned());
    }
    let len = u64::from(hi - lo) / u64::from(step) + 1;
    if len > MAX_AXIS_VALUES {
        return Err(format!("expands to {len} values (at most {MAX_AXIS_VALUES})"));
    }
    Ok((lo..=hi).step_by(step as usize).collect())
}

/// Parses one hot-spot item: `FRAC` or `FRAC@MODULE`.
fn hot_spot(item: &str) -> Result<Workload, String> {
    let (frac, module) = item.split_once('@').unwrap_or((item, "0"));
    let (Ok(frac), Ok(module)) = (frac.parse(), module.parse()) else {
        return Err(format!("expected FRAC or FRAC@MODULE, got `{item}`"));
    };
    Workload::hot_spot(frac, module).map_err(|e| e.to_string())
}

/// Parses a burst spec: `ONP:OFFP:STAY:DWELL[:FRAC@MODULE]` — an on/off
/// MMPP with per-phase think probabilities `ONP`/`OFFP`, phase
/// self-transition probability `STAY`, a dwell of `DWELL` cycles
/// between phase-transition draws, and an optional on-phase hot spot.
fn burst(spec: &str) -> Result<Workload, String> {
    let bad = || "expected ONP:OFFP:STAY:DWELL[:FRAC@MODULE]".to_owned();
    let parts: Vec<&str> = spec.split(':').collect();
    let (&[on, off, stay, dwell], hot) = (match parts.as_slice() {
        [head @ .., hot] if parts.len() == 5 => (head, Some(hot.split_once('@').ok_or_else(bad)?)),
        all => (all, None),
    }) else {
        return Err(bad());
    };
    let hot = match hot {
        None => None,
        Some((frac, module)) => Some((number(frac)?, number(module)?)),
    };
    let (on, off, stay, dwell) = (number(on)?, number(off)?, number(stay)?, number(dwell)?);
    Workload::on_off_burst(on, off, stay, dwell, hot).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sharing_an_axis_conflict() {
        let err = grid(&[("buffering", "both"), ("buffer_depth", "1")]).unwrap_err();
        assert!(err.contains("both set the buffering axis"), "{err}");
        let err = grid(&[("hot_spot", "0.1"), ("think_probs", "1,1")]).unwrap_err();
        assert!(err.contains("both set the workload axis"), "{err}");
        let err = grid(&[("n", "4"), ("n", "8")]).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        assert!(grid(&[("nodes", "4")]).unwrap_err().contains("unknown scenario field"));
    }

    #[test]
    fn axis_lists_are_capped_like_ranges() {
        let long = vec!["1"; MAX_AXIS_VALUES as usize + 1].join(",");
        let err = grid(&[("n", long.as_str())]).unwrap_err();
        assert!(err.contains("at most 65536"), "{err}");
        assert!(grid(&[("n", "1..65537")]).unwrap_err().contains("at most 65536"));
    }

    #[test]
    fn one_point_doors_refuse_lists() {
        assert!(point(&[("n", "4,8")]).unwrap_err().contains("expands to 2 points"));
        // Repeated values name one point.
        assert_eq!(point(&[("n", "4,4")]).unwrap().params.n(), 4);
        assert!(request_point(&[("n", "4"), ("m", "4")]).unwrap_err().contains("\"r\""));
    }

    #[test]
    fn budget_rows_apply_in_table_order() {
        // `max_reps` defaults to `replications` whatever the input order.
        let b = budget(SimBudget::sweep(), &[("ci_width", "0.1"), ("replications", "3")]).unwrap();
        assert_eq!(b.stopping, Stopping::Adaptive { ci_width: 0.1, max_reps: 3 });
        let err = budget(SimBudget::sweep(), &[("max_reps", "3")]).unwrap_err();
        assert!(err.contains("max_reps needs ci_width"), "{err}");
    }

    #[test]
    fn the_budget_rule_bounds_every_door() {
        for (field, text) in [
            ("cycles", "0"),
            ("replications", "0"),
            ("replications", "1025"),
            ("ci_width", "0"),
            ("ci_width", "NaN"),
        ] {
            let err = budget(SimBudget::sweep(), &[(field, text)]).unwrap_err();
            assert!(err.contains(field), "{field}={text}: {err}");
        }
        let capped = [("ci_width", "0.1"), ("max_reps", "1025")];
        assert!(budget(SimBudget::sweep(), &capped).unwrap_err().contains("max_reps"));
        assert!(budget(SimBudget::sweep(), &[("replications", "1024")]).is_ok());
    }

    #[test]
    fn single_run_warmup_follows_the_measured_window() {
        let b = single_run_budget(&[("cycles", "5000")]).unwrap();
        assert_eq!((b.measure, b.warmup, b.master_seed), (5000, 500, 42));
        assert_eq!(single_run_budget(&[("cycles", "5000"), ("warmup", "7")]).unwrap().warmup, 7);
        assert!(single_run_budget(&[("replications", "2")]).is_err());
    }

    #[test]
    fn flags_read_every_row_by_its_dashed_name() {
        let args: Vec<String> =
            ["--buffer-depth", "2", "--max-reps", "4", "--serial"].map(String::from).to_vec();
        let mut flags = Flags::new(&args);
        let (axes, budget) = flags.spec();
        assert!(flags.switch("--serial"));
        flags.finish().unwrap();
        assert_eq!(axes, [("buffer_depth", "2")]);
        assert_eq!(budget, [("max_reps", "4")]);
    }
}
