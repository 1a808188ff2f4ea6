//! Runners that regenerate every table and figure of the paper.
//!
//! Every runner is a *declaration*: a [`ScenarioGrid`] (or scenario
//! list) plus the [`Evaluator`]s to fan it out across. No experiment
//! constructs a simulator or analytic model directly — the scenario
//! engine in `busnet_core::scenario` owns that wiring, so adding a
//! workload here is a data change, not new plumbing.
//!
//! Each runner returns structured data ([`Grid`] or [`Chart`]) that
//! renders to text in the paper's layout; where the paper prints
//! reference numbers, the runner also returns the embedded [`paper`]
//! grid for side-by-side comparison.
//!
//! [`Grid`]: crate::table::Grid
//! [`Chart`]: crate::chart::Chart
//! [`paper`]: crate::paper

use busnet_core::analytic::pfqn::pfqn_ebw_deterministic;
use busnet_core::params::{ArbitrationKind, Buffering, BusPolicy, SystemParams, Workload};
use busnet_core::scenario::{
    run_sweep, run_sweep_with, ApproxEval, BusSimEval, CrossbarExactEval, CrossbarSimEval,
    Evaluation, Evaluator, ExactChainEval, FluidEval, OnFailure, PfqnAlgorithm, PfqnEval,
    ReducedChainEval, Scenario, ScenarioGrid, SimBudget, Supervisor, SweepOptions, SweepRecord,
    UnitStatus,
};
use busnet_core::CoreError;
use busnet_sim::event::EngineKind;
use busnet_sim::exec::ExecutionMode;
use busnet_sim::fault::{FaultPlan, FaultStats};

use crate::chart::{Chart, Series};
use crate::paper;
use crate::table::Grid;

use busnet_core::analytic::approx::ApproxVariant;

/// Simulation budget per experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Effort {
    /// Small budget for tests and smoke runs (2 replications × 20 000
    /// measured cycles).
    Quick,
    /// Paper-grade budget (6 replications × 200 000 measured cycles).
    #[default]
    Paper,
}

impl Effort {
    /// The scenario-engine budget this effort level maps to.
    pub fn budget(self) -> SimBudget {
        match self {
            Effort::Quick => SimBudget::quick(),
            Effort::Paper => SimBudget::paper(),
        }
    }
}

/// The bus simulator at this effort level.
fn sim_eval(effort: Effort) -> BusSimEval {
    BusSimEval::new(effort.budget())
}

/// The crossbar simulator at this effort level.
fn crossbar_sim_eval(effort: Effort) -> CrossbarSimEval {
    CrossbarSimEval::new(effort.budget())
}

/// Runs `evaluators` over `scenarios` (scenario-major order) and
/// collects the evaluations, propagating the first failure. Everything
/// runs on the calling thread: the sweep schedules each replication as
/// its own work unit and never calls [`Evaluator::evaluate`].
fn evaluate_all(
    scenarios: &[Scenario],
    evaluators: &[&dyn Evaluator],
) -> Result<Vec<Evaluation>, CoreError> {
    run_sweep(scenarios, evaluators, ExecutionMode::Serial, |_, _, _| {})
        .into_iter()
        .map(|record| record.result)
        .collect()
}

/// Evaluates one scenario with one evaluator and returns the EBW.
fn ebw_of(evaluator: &dyn Evaluator, scenario: Scenario) -> Result<f64, CoreError> {
    Ok(evaluator.evaluate(&scenario)?.ebw())
}

/// Fills `grid` from `evaluations`, locating each cell by
/// `key(scenario) = (row_label, col_label)`.
fn fill_grid(grid: &mut Grid, evaluations: &[Evaluation], key: impl Fn(&Scenario) -> (u32, u32)) {
    for e in evaluations {
        let (row, col) = key(&e.scenario);
        let i = grid
            .row_labels()
            .iter()
            .position(|&l| l == row)
            .expect("scenario row outside grid labels");
        let j = grid
            .col_labels()
            .iter()
            .position(|&l| l == col)
            .expect("scenario column outside grid labels");
        grid.set(i, j, e.ebw());
    }
}

/// The Table 1/2 scenario grid: `n × m` over the paper's sizes,
/// `r = min(n, m) + 7`, priority to memories.
fn table12_scenarios() -> Result<Vec<Scenario>, CoreError> {
    ScenarioGrid::new()
        .n_values(paper::TABLE_1_2_NM)
        .m_values(paper::TABLE_1_2_NM)
        .r_min_nm_plus(7)
        .policies([BusPolicy::MemoryPriority])
        .scenarios()
}

/// The Table 3 scenario grid: `m × r` at `n = 8`, priority to
/// processors.
fn table3_scenarios(buffering: Buffering) -> Result<Vec<Scenario>, CoreError> {
    ScenarioGrid::new()
        .n_values([8])
        .m_values(paper::TABLE_3_M)
        .r_values(paper::TABLE_3_R)
        .bufferings([buffering])
        .scenarios()
}

/// Table 1 — exact chain, priority to memories, `r = min(n,m)+7`.
///
/// # Errors
///
/// Propagates analytic-model failures.
pub fn table1() -> Result<Grid, CoreError> {
    let labels = paper::TABLE_1_2_NM.to_vec();
    let mut grid = Grid::new(
        "Table 1: EBW, exact chain, priority to memories, r = min(n,m)+7",
        "n",
        "m",
        labels.clone(),
        labels,
    );
    let evaluations = evaluate_all(&table12_scenarios()?, &[&ExactChainEval])?;
    fill_grid(&mut grid, &evaluations, |s| (s.params.n(), s.params.m()));
    Ok(grid)
}

/// The paper's printed Table 1 as a grid.
pub fn table1_paper() -> Grid {
    let labels = paper::TABLE_1_2_NM.to_vec();
    let mut grid = Grid::new("Table 1 (paper)", "n", "m", labels.clone(), labels);
    for i in 0..4 {
        for j in 0..4 {
            grid.set(i, j, paper::TABLE_1[i][j]);
        }
    }
    grid
}

/// Table 2 — plain combinational approximation, `r = min(n,m)+7`.
///
/// # Errors
///
/// Propagates parameter-validation failures.
pub fn table2() -> Result<Grid, CoreError> {
    let labels = paper::TABLE_1_2_NM.to_vec();
    let mut grid = Grid::new(
        "Table 2: EBW, approximate combinational model, r = min(n,m)+7",
        "n",
        "m",
        labels.clone(),
        labels,
    );
    let approx = ApproxEval { variant: ApproxVariant::Plain };
    let evaluations = evaluate_all(&table12_scenarios()?, &[&approx])?;
    fill_grid(&mut grid, &evaluations, |s| (s.params.n(), s.params.m()));
    Ok(grid)
}

/// The paper's printed Table 2 as a grid.
pub fn table2_paper() -> Grid {
    let labels = paper::TABLE_1_2_NM.to_vec();
    let mut grid = Grid::new("Table 2 (paper)", "n", "m", labels.clone(), labels);
    for i in 0..4 {
        for j in 0..4 {
            grid.set(i, j, paper::TABLE_2[i][j]);
        }
    }
    grid
}

/// Table 3 results: simulation (a) and reduced chain (b), `n = 8`,
/// priority to processors.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// Our simulation of Table 3a.
    pub sim: Grid,
    /// Our reduced-chain reproduction of Table 3b.
    pub model: Grid,
    /// The paper's printed Table 3a.
    pub paper_sim: Grid,
    /// The paper's printed Table 3b.
    pub paper_model: Grid,
}

/// Table 3 — both halves, from one sweep over the shared grid.
///
/// # Errors
///
/// Propagates model failures.
pub fn table3(effort: Effort) -> Result<Table3, CoreError> {
    let rows = paper::TABLE_3_M.to_vec();
    let cols = paper::TABLE_3_R.to_vec();
    let mut sim = Grid::new(
        "Table 3a: EBW by simulation, priority to processors, n = 8",
        "m",
        "r",
        rows.clone(),
        cols.clone(),
    );
    let mut model = Grid::new(
        "Table 3b: EBW by reduced chain, priority to processors, n = 8",
        "m",
        "r",
        rows.clone(),
        cols.clone(),
    );
    let bus_sim = sim_eval(effort);
    let evaluations =
        evaluate_all(&table3_scenarios(Buffering::Unbuffered)?, &[&bus_sim, &ReducedChainEval])?;
    let key = |s: &Scenario| (s.params.m(), s.params.r());
    let (sim_evals, model_evals): (Vec<Evaluation>, Vec<Evaluation>) =
        evaluations.into_iter().partition(|e| e.evaluator == "sim");
    fill_grid(&mut sim, &sim_evals, key);
    fill_grid(&mut model, &model_evals, key);

    let mut paper_sim = Grid::new("Table 3a (paper)", "m", "r", rows.clone(), cols.clone());
    let mut paper_model = Grid::new("Table 3b (paper)", "m", "r", rows, cols);
    for i in 0..paper::TABLE_3_M.len() {
        for j in 0..paper::TABLE_3_R.len() {
            paper_sim.set(i, j, paper::TABLE_3A[i][j]);
            if let Some(v) = paper::TABLE_3B[i][j] {
                paper_model.set(i, j, v);
            }
        }
    }
    Ok(Table3 { sim, model, paper_sim, paper_model })
}

/// Table 4 results: buffered simulation vs the paper's print.
#[derive(Clone, Debug)]
pub struct Table4 {
    /// Our buffered simulation.
    pub sim: Grid,
    /// The paper's printed Table 4.
    pub paper: Grid,
}

/// Table 4 — buffered modules, priority to processors, `n = 8`.
///
/// # Errors
///
/// Propagates parameter failures.
pub fn table4(effort: Effort) -> Result<Table4, CoreError> {
    let rows = paper::TABLE_4_M.to_vec();
    let cols = paper::TABLE_4_R.to_vec();
    let mut sim = Grid::new(
        "Table 4: EBW by simulation, buffered modules, priority to processors, n = 8",
        "m",
        "r",
        rows.clone(),
        cols.clone(),
    );
    let scenarios = ScenarioGrid::new()
        .n_values([8])
        .m_values(paper::TABLE_4_M)
        .r_values(paper::TABLE_4_R)
        .bufferings([Buffering::Buffered])
        .scenarios()?;
    let bus_sim = sim_eval(effort);
    let evaluations = evaluate_all(&scenarios, &[&bus_sim])?;
    fill_grid(&mut sim, &evaluations, |s| (s.params.m(), s.params.r()));

    let mut paper_grid = Grid::new("Table 4 (paper)", "m", "r", rows, cols);
    for i in 0..paper::TABLE_4_M.len() {
        for j in 0..paper::TABLE_4_R.len() {
            paper_grid.set(i, j, paper::TABLE_4[i][j]);
        }
    }
    Ok(Table4 { sim, paper: paper_grid })
}

/// The `r` values the figure sweeps share.
fn fig_r_values() -> Vec<u32> {
    (1..=12).map(|k| 2 * k).collect()
}

/// Fig 2 — EBW vs `r` for representative systems under both priorities,
/// with crossbar reference lines, `p = 1`.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig2(effort: Effort) -> Result<Chart, CoreError> {
    let mut chart = Chart::new("Fig 2: multiplexed single-bus EBW vs r (p = 1)", "r", "EBW");
    let rs = fig_r_values();
    let bus_sim = sim_eval(effort);
    for (n, m) in [(4u32, 4u32), (8, 8), (16, 16), (8, 4)] {
        for (policy, tag) in [
            (BusPolicy::ProcessorPriority, "priority to processors"),
            (BusPolicy::MemoryPriority, "priority to memories"),
        ] {
            let scenarios = ScenarioGrid::new()
                .n_values([n])
                .m_values([m])
                .r_values(rs.clone())
                .policies([policy])
                .scenarios()?;
            let evaluations = evaluate_all(&scenarios, &[&bus_sim])?;
            let points =
                evaluations.iter().map(|e| (f64::from(e.scenario.params.r()), e.ebw())).collect();
            chart.add(Series::new(format!("{n}x{m} {tag}"), points));
        }
        let xb = ebw_of(&CrossbarExactEval, Scenario::new(SystemParams::new(n, m, 8)?))?;
        chart.add(Series::new(
            format!("{n}x{m} crossbar"),
            rs.iter().map(|&r| (f64::from(r), xb)).collect(),
        ));
    }
    Ok(chart)
}

/// Fig 3 — processor utilization `EBW/(n·p)` vs `p`, unbuffered,
/// `n = 8, m = 16`, with a crossbar reference.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig3(effort: Effort) -> Result<Chart, CoreError> {
    utilization_chart(effort, Buffering::Unbuffered, "Fig 3")
}

/// Fig 6 — the buffered counterpart of Fig 3.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig6(effort: Effort) -> Result<Chart, CoreError> {
    utilization_chart(effort, Buffering::Buffered, "Fig 6")
}

fn utilization_chart(
    effort: Effort,
    buffering: Buffering,
    figure: &str,
) -> Result<Chart, CoreError> {
    let mut chart = Chart::new(
        format!("{figure}: processor utilization EBW/(n*p) vs p, n = 8, m = 16 ({buffering:?})"),
        "p",
        "EBW/(n*p)",
    );
    let ps: Vec<f64> = (1..=10).map(|k| f64::from(k) / 10.0).collect();
    let bus_sim = sim_eval(effort);
    for r in [4u32, 8, 12, 16] {
        let scenarios = ScenarioGrid::new()
            .r_values([r])
            .p_values(ps.clone())
            .bufferings([buffering])
            .scenarios()?;
        let evaluations = evaluate_all(&scenarios, &[&bus_sim])?;
        let points = evaluations
            .iter()
            .map(|e| {
                let p = e.scenario.params.p();
                (p, e.ebw() / (8.0 * p))
            })
            .collect();
        chart.add(Series::new(format!("single bus r={r}"), points));
    }
    // Crossbar reference at the same (r+2) basic cycle; its utilization
    // is r-independent, shown once.
    let crossbar = crossbar_sim_eval(effort);
    let mut xb_points = Vec::with_capacity(ps.len());
    for &p in &ps {
        let scenario = Scenario::new(SystemParams::new(8, 16, 8)?.with_request_probability(p)?);
        let ebw = ebw_of(&crossbar, scenario)?;
        xb_points.push((p, ebw / (8.0 * p)));
    }
    chart.add(Series::new("8x16 crossbar", xb_points));
    Ok(chart)
}

/// Fig 5 — EBW vs `r` with and without buffers (`n = 8`,
/// `m ∈ {8, 16}`), with crossbar references.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig5(effort: Effort) -> Result<Chart, CoreError> {
    let mut chart =
        Chart::new("Fig 5: effect of memory-module buffers on EBW (p = 1, n = 8)", "r", "EBW");
    let rs = fig_r_values();
    let bus_sim = sim_eval(effort);
    for m in [8u32, 16] {
        for (buffering, tag) in
            [(Buffering::Buffered, "with buffers"), (Buffering::Unbuffered, "without buffers")]
        {
            let scenarios = ScenarioGrid::new()
                .m_values([m])
                .r_values(rs.clone())
                .bufferings([buffering])
                .scenarios()?;
            let evaluations = evaluate_all(&scenarios, &[&bus_sim])?;
            let points =
                evaluations.iter().map(|e| (f64::from(e.scenario.params.r()), e.ebw())).collect();
            chart.add(Series::new(format!("8x{m} {tag}"), points));
        }
        let xb = ebw_of(&CrossbarExactEval, Scenario::new(SystemParams::new(8, m, 8)?))?;
        chart.add(Series::new(
            format!("8x{m} crossbar"),
            rs.iter().map(|&r| (f64::from(r), xb)).collect(),
        ));
    }
    Ok(chart)
}

/// §5/§6 model-validation summary.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Worst |approx − exact|/exact over the Table 1/2 grid (paper:
    /// "< 9%").
    pub approx_vs_exact_worst: f64,
    /// `(worst, second worst)` |reduced − sim|/sim over the Table 3
    /// grid (paper: "< 5% in almost any case" — hence the runner-up).
    pub reduced_vs_sim: (f64, f64),
    /// Worst (sim − MVA)/sim over a buffered sweep: the exponential
    /// model's pessimism (paper: "> 25%"; we measure ≈ 15–16%, see
    /// EXPERIMENTS.md).
    pub exponential_gap_worst: f64,
    /// Largest |MVA − Buzen| relative throughput difference (the two
    /// classic algorithms must agree).
    pub mva_vs_buzen_worst: f64,
    /// Worst |sim − exact chain|/chain for memory priority (our DES vs
    /// the §3.1.1 model).
    pub sim_vs_exact_chain_worst: f64,
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Model validation (worst relative deviations):")?;
        writeln!(
            f,
            "  approximate vs exact chain (Tables 1-2 grid): {:.2}%  [paper: < 9%]",
            self.approx_vs_exact_worst * 100.0
        )?;
        writeln!(
            f,
            "  reduced chain vs simulation (Table 3 grid): worst {:.2}%, runner-up {:.2}%  [paper: < 5% almost everywhere]",
            self.reduced_vs_sim.0 * 100.0,
            self.reduced_vs_sim.1 * 100.0
        )?;
        writeln!(
            f,
            "  exponential model vs constant-service sim: {:.2}% pessimistic  [paper: > 25%]",
            self.exponential_gap_worst * 100.0
        )?;
        writeln!(
            f,
            "  MVA vs Buzen convolution: {:.2e}  [same product-form model]",
            self.mva_vs_buzen_worst
        )?;
        writeln!(
            f,
            "  DES vs exact chain (memory priority): {:.2}%",
            self.sim_vs_exact_chain_worst * 100.0
        )
    }
}

/// Runs the §5/§6 validation suite: four evaluator-agreement sweeps
/// over shared scenario lists.
///
/// # Errors
///
/// Propagates model failures.
pub fn model_validation(effort: Effort) -> Result<ValidationReport, CoreError> {
    let bus_sim = sim_eval(effort);

    // Approximate vs exact over the Table 1/2 grid.
    let approx = ApproxEval { variant: ApproxVariant::Plain };
    let mut approx_worst: f64 = 0.0;
    for pair in evaluate_all(&table12_scenarios()?, &[&ExactChainEval, &approx])?.chunks(2) {
        let (exact, approx) = (pair[0].ebw(), pair[1].ebw());
        approx_worst = approx_worst.max(((approx - exact) / exact).abs());
    }

    // Reduced chain vs our simulation over the Table 3 grid.
    let mut devs: Vec<f64> = Vec::new();
    for pair in
        evaluate_all(&table3_scenarios(Buffering::Unbuffered)?, &[&bus_sim, &ReducedChainEval])?
            .chunks(2)
    {
        let (sim, model) = (pair[0].ebw(), pair[1].ebw());
        devs.push(((model - sim) / sim).abs());
    }
    devs.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let reduced_vs_sim = (devs[0], devs[1]);

    // Exponential model pessimism over a buffered sweep; MVA/Buzen
    // cross-check on the same networks.
    let buffered: Vec<Scenario> = [(8u32, 4u32, 8u32), (8, 8, 8), (12, 16, 16), (16, 8, 12)]
        .into_iter()
        .map(|(n, m, r)| {
            Ok(Scenario::new(SystemParams::new(n, m, r)?).with_buffering(Buffering::Buffered))
        })
        .collect::<Result<_, CoreError>>()?;
    let mva = PfqnEval { algorithm: PfqnAlgorithm::Mva };
    let buzen = PfqnEval { algorithm: PfqnAlgorithm::Buzen };
    let mut exp_gap: f64 = 0.0;
    let mut mva_buzen: f64 = 0.0;
    for triple in evaluate_all(&buffered, &[&mva, &buzen, &bus_sim])?.chunks(3) {
        let (mva, buzen, sim) = (triple[0].ebw(), triple[1].ebw(), triple[2].ebw());
        mva_buzen = mva_buzen.max(((mva - buzen) / mva).abs());
        exp_gap = exp_gap.max((sim - mva) / sim);
    }

    // DES vs exact chain (memory priority).
    let memory: Vec<Scenario> = [(4u32, 4u32), (8, 8), (8, 4)]
        .into_iter()
        .map(|(n, m)| {
            Ok(Scenario::new(SystemParams::new(n, m, n.min(m) + 7)?)
                .with_policy(BusPolicy::MemoryPriority))
        })
        .collect::<Result<_, CoreError>>()?;
    let mut chain_worst: f64 = 0.0;
    for pair in evaluate_all(&memory, &[&ExactChainEval, &bus_sim])?.chunks(2) {
        let (exact, sim) = (pair[0].ebw(), pair[1].ebw());
        chain_worst = chain_worst.max(((sim - exact) / exact).abs());
    }

    Ok(ValidationReport {
        approx_vs_exact_worst: approx_worst,
        reduced_vs_sim,
        exponential_gap_worst: exp_gap,
        mva_vs_buzen_worst: mva_buzen,
        sim_vs_exact_chain_worst: chain_worst,
    })
}

/// §7 design-space findings.
#[derive(Clone, Debug)]
pub struct DesignSpaceReport {
    /// Exact 8×8 crossbar EBW (the target the paper designs against).
    pub crossbar_8x8: f64,
    /// Smallest `m` such that the unbuffered 8×m bus at `r = 8` comes
    /// within 1% of the 8×8 crossbar (paper: m = 14).
    pub m_matching_crossbar_at_r8: Option<u32>,
    /// Relative shortfall of the 8×10 system at `r = 8` against the 8×8
    /// crossbar (paper: "only a 5% degradation").
    pub degradation_8x10_r8: f64,
    /// Buffered 16×16 at `r = 18` vs the 16×16 crossbar (paper:
    /// "performs like a 16×16 crossbar").
    pub buffered_16x16_r18_vs_crossbar: (f64, f64),
    /// Largest `r` at which the buffered 8×16 system stays within 2% of
    /// the saturation ceiling `(r+2)/2` (paper: saturation until
    /// `r ≈ min(n,m)`).
    pub buffered_saturation_r: u32,
    /// Smallest `p` (on the 0.1 grid) at which the unbuffered 8×16 bus
    /// at `r = 8` still matches or exceeds the 8×8 crossbar at equal
    /// `p` (paper: `p > 0.4` suffices).
    pub crossover_p_vs_8x8_crossbar: f64,
    /// Buffered 8×16 at `r = 12, p = 0.3` vs the 8×16 crossbar at the
    /// same load (paper: "equal or better").
    pub buffered_p03_r12_vs_crossbar: (f64, f64),
}

impl std::fmt::Display for DesignSpaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Design-space findings (paper section 7):")?;
        writeln!(f, "  8x8 crossbar EBW: {:.3}", self.crossbar_8x8)?;
        match self.m_matching_crossbar_at_r8 {
            Some(m) => {
                writeln!(f, "  single bus r=8 matches it (within 1%) at m = {m}  [paper: m = 14]")?
            }
            None => writeln!(f, "  single bus r=8 never matches it up to m = 16")?,
        }
        writeln!(
            f,
            "  8x10 at r=8: {:.1}% below the 8x8 crossbar  [paper: ~5%]",
            self.degradation_8x10_r8 * 100.0
        )?;
        writeln!(
            f,
            "  buffered 16x16 r=18: {:.3} vs 16x16 crossbar {:.3}  [paper: equal]",
            self.buffered_16x16_r18_vs_crossbar.0, self.buffered_16x16_r18_vs_crossbar.1
        )?;
        writeln!(
            f,
            "  buffered 8x16 saturated (within 2% of (r+2)/2) up to r = {}  [paper: r ~ min(n,m)]",
            self.buffered_saturation_r
        )?;
        writeln!(
            f,
            "  unbuffered 8x16 r=8 matches/exceeds the 8x8 crossbar down to p = {:.1}  [paper: p > 0.4]",
            self.crossover_p_vs_8x8_crossbar
        )?;
        writeln!(
            f,
            "  buffered 8x16 r=12 p=0.3: {:.3} vs crossbar {:.3}  [paper: equal or better]",
            self.buffered_p03_r12_vs_crossbar.0, self.buffered_p03_r12_vs_crossbar.1
        )
    }
}

/// Runs the §7 design-space study.
///
/// # Errors
///
/// Propagates model failures.
pub fn design_space(effort: Effort) -> Result<DesignSpaceReport, CoreError> {
    let bus_sim = sim_eval(effort);
    let crossbar_sim = crossbar_sim_eval(effort);
    let crossbar_8x8 = ebw_of(&CrossbarExactEval, Scenario::new(SystemParams::new(8, 8, 8)?))?;

    let mut m_matching = None;
    for m in [10u32, 12, 14, 16] {
        let ebw = ebw_of(&bus_sim, Scenario::new(SystemParams::new(8, m, 8)?))?;
        if ebw >= crossbar_8x8 * 0.99 {
            m_matching = Some(m);
            break;
        }
    }

    let ebw_8x10 = ebw_of(&bus_sim, Scenario::new(SystemParams::new(8, 10, 8)?))?;
    let degradation_8x10_r8 = (crossbar_8x8 - ebw_8x10) / crossbar_8x8;

    let xb16 = ebw_of(&CrossbarExactEval, Scenario::new(SystemParams::new(16, 16, 18)?))?;
    let buf16 = ebw_of(
        &bus_sim,
        Scenario::new(SystemParams::new(16, 16, 18)?).with_buffering(Buffering::Buffered),
    )?;

    let mut buffered_saturation_r = 0;
    for r in (2..=16).step_by(2) {
        let scenario =
            Scenario::new(SystemParams::new(8, 16, r)?).with_buffering(Buffering::Buffered);
        let ebw = ebw_of(&bus_sim, scenario.clone())?;
        if ebw >= scenario.params.max_ebw() * 0.98 {
            buffered_saturation_r = r;
        }
    }

    let mut crossover = 1.0;
    for tenth in (1..=10).rev() {
        let p = f64::from(tenth) / 10.0;
        let bus = ebw_of(
            &bus_sim,
            Scenario::new(SystemParams::new(8, 16, 8)?.with_request_probability(p)?),
        )?;
        let xbar = ebw_of(
            &crossbar_sim,
            Scenario::new(SystemParams::new(8, 8, 8)?.with_request_probability(p)?),
        )?;
        if bus >= xbar * 0.995 {
            crossover = p;
        } else {
            break;
        }
    }

    let p03 = SystemParams::new(8, 16, 12)?.with_request_probability(0.3)?;
    let buf_p03 = ebw_of(&bus_sim, Scenario::new(p03).with_buffering(Buffering::Buffered))?;
    let xb_p03 = ebw_of(&crossbar_sim, Scenario::new(p03))?;

    Ok(DesignSpaceReport {
        crossbar_8x8,
        m_matching_crossbar_at_r8: m_matching,
        degradation_8x10_r8,
        buffered_16x16_r18_vs_crossbar: (buf16, xb16),
        buffered_saturation_r,
        crossover_p_vs_8x8_crossbar: crossover,
        buffered_p03_r12_vs_crossbar: (buf_p03, xb_p03),
    })
}

/// One row of the arbitration-fairness study: an operating point, an
/// arbitration kind, and the measured throughput/fairness outcomes.
#[derive(Clone, Debug)]
pub struct FairnessRow {
    /// The evaluated scenario (Table 3/4 operating point × kind).
    pub scenario: Scenario,
    /// Mean EBW over replications.
    pub ebw: f64,
    /// Jain's fairness index over per-processor EBW.
    pub fairness: f64,
    /// Per-processor EBW spread `max − min`.
    pub spread: f64,
}

/// Arbitration-fairness study: per-processor EBW spread under every
/// [`ArbitrationKind`] at Table 3–4 operating points.
#[derive(Clone, Debug)]
pub struct ArbitrationReport {
    /// One row per (operating point, arbitration kind), point-major.
    pub rows: Vec<FairnessRow>,
}

impl std::fmt::Display for ArbitrationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Arbitration fairness at the Table 3-4 operating points (event engine):")?;
        writeln!(
            f,
            "  {:<28} {:>12} {:>8} {:>9} {:>10}",
            "operating point", "arbitration", "EBW", "Jain", "spread"
        )?;
        for row in &self.rows {
            let s = &row.scenario;
            let point = format!(
                "n={} m={} r={} {}",
                s.params.n(),
                s.params.m(),
                s.params.r(),
                s.buffering.name()
            );
            writeln!(
                f,
                "  {:<28} {:>12} {:>8.3} {:>9.4} {:>10.5}",
                point,
                s.arbitration.name(),
                row.ebw,
                row.fairness,
                row.spread
            )?;
        }
        Ok(())
    }
}

/// Runs the arbitration-fairness study: every [`ArbitrationKind`] over
/// Table 3 (unbuffered) and Table 4 (buffered) corner points at
/// `n = 8`, measured with the event engine (differentially validated
/// against the cycle engine in the test suite).
///
/// # Errors
///
/// Propagates parameter/simulation failures.
pub fn arbitration_fairness(effort: Effort) -> Result<ArbitrationReport, CoreError> {
    // Corners of the Table 3 and Table 4 grids: low/high module count
    // at a shared mid-range r, one high-r buffered point.
    let points = [
        (4u32, 6u32, Buffering::Unbuffered),
        (16, 6, Buffering::Unbuffered),
        (4, 10, Buffering::Buffered),
        (16, 10, Buffering::Buffered),
    ];
    let scenarios = points
        .into_iter()
        .flat_map(|(m, r, buffering)| {
            ArbitrationKind::ALL.into_iter().map(move |kind| (m, r, buffering, kind))
        })
        .map(|(m, r, buffering, kind)| {
            Ok(Scenario::new(SystemParams::new(8, m, r)?)
                .with_buffering(buffering)
                .with_arbitration(kind))
        })
        .collect::<Result<Vec<Scenario>, CoreError>>()?;
    let sim = BusSimEval::new(effort.budget().with_engine(EngineKind::Event));
    let evaluations = evaluate_all(&scenarios, &[&sim])?;
    let rows = evaluations
        .into_iter()
        .map(|e| FairnessRow {
            scenario: e.scenario.clone(),
            ebw: e.ebw(),
            fairness: e.fairness_index().expect("simulation reports per-processor EBW"),
            spread: e.ebw_spread().expect("simulation reports per-processor EBW"),
        })
        .collect();
    Ok(ArbitrationReport { rows })
}

/// The buffer depths the buffering study sweeps: the paper's two
/// schemes (k = 0, 1) plus deeper finite buffers and the unbounded
/// limit.
pub const BUFFERING_DEPTHS: [Buffering; 6] = [
    Buffering::Unbuffered,
    Buffering::Buffered,
    Buffering::Depth(2),
    Buffering::Depth(4),
    Buffering::Depth(8),
    Buffering::Infinite,
];

/// One row of the buffering study: a buffer depth at one operating
/// point, with throughput and occupancy outcomes.
#[derive(Clone, Debug)]
pub struct BufferingRow {
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// Mean EBW over replications.
    pub ebw: f64,
    /// Half width of the EBW 95% confidence interval.
    pub half_width_95: f64,
    /// Depth-aware approximation ([`busnet_core::analytic::approx::depth_aware_ebw`]).
    pub model_ebw: f64,
    /// Mean input-FIFO length over all module-cycles.
    pub mean_input_queue: f64,
    /// Fraction of module-cycles the input FIFO sat full.
    pub input_full_fraction: f64,
    /// Completed services blocked on a full output FIFO.
    pub blocked_completions: u64,
}

/// One operating point of the buffering study: the crossbar reference
/// and one row per swept depth.
#[derive(Clone, Debug)]
pub struct BufferingPoint {
    /// Modules `m` (at `n = 8`).
    pub m: u32,
    /// Memory cycle ratio `r`.
    pub r: u32,
    /// Exact crossbar EBW — the limit the paper designs against.
    pub crossbar_ebw: f64,
    /// One row per depth, in [`BUFFERING_DEPTHS`] order.
    pub rows: Vec<BufferingRow>,
}

/// The §6 buffer-sizing study: EBW and buffer-occupancy telemetry as a
/// function of FIFO depth `k`.
#[derive(Clone, Debug)]
pub struct BufferingReport {
    /// One entry per operating point.
    pub points: Vec<BufferingPoint>,
}

impl std::fmt::Display for BufferingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Buffer-depth study at Table 3-4 operating points (n = 8, event engine):")?;
        writeln!(f, "  k = FIFO depth; paper's schemes are k=0 (tables 1-3) and k=1 (table 4).")?;
        for point in &self.points {
            writeln!(
                f,
                "\n  n=8 m={} r={}   (exact crossbar EBW {:.3}, bus ceiling {:.1})",
                point.m,
                point.r,
                point.crossbar_ebw,
                f64::from(point.r + 2) / 2.0
            )?;
            writeln!(
                f,
                "  {:>5} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8} {:>9}",
                "k", "EBW", "95% ci", "model", "mean queue", "P(full)", "blocked", "vs xbar"
            )?;
            for row in &point.rows {
                writeln!(
                    f,
                    "  {:>5} {:>8.3} {:>8.3} {:>8.3} {:>10.3} {:>8.3} {:>8} {:>8.1}%",
                    row.scenario.buffering.depth_label(),
                    row.ebw,
                    row.half_width_95,
                    row.model_ebw,
                    row.mean_input_queue,
                    row.input_full_fraction,
                    row.blocked_completions,
                    (row.ebw / point.crossbar_ebw - 1.0) * 100.0,
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the buffer-sizing study: every depth in [`BUFFERING_DEPTHS`]
/// over Table 3–4 operating points at `n = 8` where the paper shows
/// the buffered bus approaching the crossbar, measured with the event
/// engine alongside the depth-aware approximation and the exact
/// crossbar reference.
///
/// # Errors
///
/// Propagates parameter/simulation/model failures.
pub fn buffering_depths(effort: Effort) -> Result<BufferingReport, CoreError> {
    // Table 4 corners with r comfortably past min(n, m): the regime
    // where §6 shows the buffered bus performing like the crossbar. At
    // m = 16 the two crossbar flavors coincide and the k = ∞ bus lands
    // on the exact crossbar value; at m ≤ 8 the limit is the *queueing*
    // crossbar, a few percent above the resubmission chain (the same
    // excess the paper's own Table 4 prints, e.g. 3.499 vs 3.27 on
    // 8×4) — the Δ column makes that visible.
    let points = [(4u32, 24u32), (8, 16), (16, 12)];
    let sim = BusSimEval::new(effort.budget().with_engine(EngineKind::Event));
    let mut out = Vec::with_capacity(points.len());
    for (m, r) in points {
        let base = Scenario::new(SystemParams::new(8, m, r)?);
        let crossbar_ebw = ebw_of(&CrossbarExactEval, base.clone())?;
        // The model's anchors depend only on the operating point, not
        // the depth: solve them once for all six rows.
        let model = busnet_core::analytic::approx::DepthAwareApprox::new(&base.params)?;
        let scenarios: Vec<Scenario> =
            BUFFERING_DEPTHS.iter().map(|&b| base.clone().with_buffering(b)).collect();
        let rows = evaluate_all(&scenarios, &[&sim])?
            .into_iter()
            .map(|e| {
                let occupancy =
                    e.occupancy.as_ref().expect("simulation reports occupancy telemetry");
                let depth = e.scenario.buffering.effective_depth(e.scenario.params.n());
                BufferingRow {
                    scenario: e.scenario.clone(),
                    ebw: e.ebw(),
                    half_width_95: e.half_width_95,
                    model_ebw: model.ebw_at(depth),
                    mean_input_queue: occupancy.mean_input_queue,
                    input_full_fraction: occupancy.input_full_fraction,
                    blocked_completions: occupancy.blocked_completions,
                }
            })
            .collect();
        out.push(BufferingPoint { m, r, crossbar_ebw, rows });
    }
    Ok(BufferingReport { points: out })
}

/// The hot-spot fractions the workload study sweeps (0 is the paper's
/// uniform hypothesis *e*).
pub const HOTSPOT_FRACTIONS: [f64; 6] = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8];

/// One row of the hot-spot study: a hot fraction at one buffer depth,
/// with throughput collapse and hot-module telemetry.
#[derive(Clone, Debug)]
pub struct HotspotRow {
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// Hot-spot fraction of the row's workload.
    pub fraction: f64,
    /// Mean EBW over replications.
    pub ebw: f64,
    /// Half width of the EBW 95% confidence interval.
    pub half_width_95: f64,
    /// Deterministic-service AMVA with non-uniform visit ratios
    /// ([`pfqn_ebw_deterministic`]); `None` for unbuffered
    /// rows (the product-form model queues at the modules).
    pub model_ebw: Option<f64>,
    /// The hot module's share of granted requests.
    pub hot_share: f64,
    /// The hot module's service utilization (→ 1 at saturation).
    pub hot_utilization: f64,
    /// The hot module's own mean input-queue length.
    pub hot_mean_queue: f64,
}

/// One buffer depth of the hot-spot study.
#[derive(Clone, Debug)]
pub struct HotspotPoint {
    /// The swept buffering scheme.
    pub buffering: Buffering,
    /// One row per fraction, in [`HOTSPOT_FRACTIONS`] order.
    pub rows: Vec<HotspotRow>,
}

/// The hot-spot workload study: EBW collapse and hot-module queue
/// growth as the hot fraction rises, across buffer depths.
#[derive(Clone, Debug)]
pub struct HotspotReport {
    /// Modules `m` (at `n = 8`).
    pub m: u32,
    /// Memory cycle ratio `r`.
    pub r: u32,
    /// One entry per buffer depth.
    pub points: Vec<HotspotPoint>,
}

impl std::fmt::Display for HotspotReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Hot-spot workload study at n=8 m={} r={} (event engine):", self.m, self.r)?;
        writeln!(
            f,
            "  Each reference hits the hot module with extra probability `frac`; the rest\n  \
             spread uniformly. Buffers delay, but cannot prevent, the EBW collapse — the\n  \
             hot module saturates (util -> 1) and its input queue fills."
        )?;
        for point in &self.points {
            writeln!(f, "\n  buffer depth k = {}", point.buffering.depth_label())?;
            writeln!(
                f,
                "  {:>5} {:>8} {:>8} {:>8} {:>10} {:>9} {:>10}",
                "frac", "EBW", "95% ci", "model", "hot share", "hot util", "hot queue"
            )?;
            for row in &point.rows {
                let model = row.model_ebw.map_or_else(|| "-".to_owned(), |v| format!("{v:.3}"));
                writeln!(
                    f,
                    "  {:>5} {:>8.3} {:>8.3} {:>8} {:>10.3} {:>9.3} {:>10.3}",
                    row.fraction,
                    row.ebw,
                    row.half_width_95,
                    model,
                    row.hot_share,
                    row.hot_utilization,
                    row.hot_mean_queue,
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the hot-spot workload study: [`HOTSPOT_FRACTIONS`] ×
/// buffer depths {0, 1, 4} at `n = 8, m = 8, r = 8`, measured with the
/// event engine; buffered rows carry the deterministic-AMVA
/// visit-ratio model alongside.
///
/// # Errors
///
/// Propagates parameter/simulation/model failures.
pub fn hotspot_workloads(effort: Effort) -> Result<HotspotReport, CoreError> {
    let (m, r) = (8u32, 8u32);
    let params = SystemParams::new(8, m, r)?;
    let sim = BusSimEval::new(effort.budget().with_engine(EngineKind::Event));
    let workloads: Vec<Workload> = HOTSPOT_FRACTIONS
        .iter()
        .map(|&fraction| Workload::hot_spot(fraction, 0))
        .collect::<Result<_, CoreError>>()?;
    let mut points = Vec::new();
    for buffering in [Buffering::Unbuffered, Buffering::Buffered, Buffering::Depth(4)] {
        let scenarios: Vec<Scenario> = workloads
            .iter()
            .map(|w| Scenario::new(params).with_buffering(buffering).with_workload(w.clone()))
            .collect();
        let rows = evaluate_all(&scenarios, &[&sim])?
            .into_iter()
            .zip(&HOTSPOT_FRACTIONS)
            .map(|(e, &fraction)| {
                let hot = e.hot_module.clone().expect("simulation reports module telemetry");
                let model_ebw = buffering
                    .is_buffered()
                    .then(|| pfqn_ebw_deterministic(&params, &e.scenario.workload))
                    .transpose()?;
                Ok(HotspotRow {
                    scenario: e.scenario.clone(),
                    fraction,
                    ebw: e.ebw(),
                    half_width_95: e.half_width_95,
                    model_ebw,
                    hot_share: hot.reference_share,
                    hot_utilization: hot.utilization,
                    hot_mean_queue: hot.mean_input_queue,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        points.push(HotspotPoint { buffering, rows });
    }
    Ok(HotspotReport { m, r, points })
}

/// The system sizes the fluid scale study sweeps — two to five orders
/// of magnitude beyond the analytic chain's reach.
pub const SCALE_SIZES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// One point of the fluid scale study: a system size/shape evaluated
/// by the mean-field ODE, with solver telemetry.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Processors `n`.
    pub n: u32,
    /// Memory modules `m`.
    pub m: u32,
    /// Request probability `p`.
    pub p: f64,
    /// The buffering scheme.
    pub buffering: Buffering,
    /// Fluid EBW estimate.
    pub ebw: f64,
    /// EBW as a fraction of the `(r + 2) / 2` bus ceiling.
    pub utilization: f64,
    /// Mean input-queue length per module.
    pub mean_input_queue: f64,
    /// Fraction of processors blocked waiting for the bus.
    pub waiting: f64,
    /// RK4 steps to steady state.
    pub steps: u32,
}

/// The fluid scale study: million-processor scenario points evaluated
/// in milliseconds by the mean-field ODE evaluator.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Memory cycle ratio `r`.
    pub r: u32,
    /// One row per `(n, m, p, k)` combination.
    pub rows: Vec<ScaleRow>,
}

impl std::fmt::Display for ScaleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fluid scale study at r={} (mean-field ODE evaluator):", self.r)?;
        writeln!(
            f,
            "  Each point is one fluid solve — no simulation. The analytic warm start\n  \
             makes the solve cost independent of n, so million-processor systems\n  \
             evaluate in milliseconds. At these scales the single multiplexed bus\n  \
             saturates (util -> 1) for every shape: nearly all processors sit in the\n  \
             waiting class, and the per-module queues stay empty because m modules\n  \
             share one bus-limited request stream."
        )?;
        writeln!(
            f,
            "  {:>9} {:>9} {:>5} {:>4} {:>9} {:>7} {:>10} {:>8} {:>7}",
            "n", "m", "p", "k", "EBW", "util", "mean queue", "waiting", "steps"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:>9} {:>9} {:>5} {:>4} {:>9.3} {:>7.3} {:>10.3} {:>8.3} {:>7}",
                row.n,
                row.m,
                row.p,
                row.buffering.depth_label(),
                row.ebw,
                row.utilization,
                row.mean_input_queue,
                row.waiting,
                row.steps,
            )?;
        }
        Ok(())
    }
}

/// Runs the fluid scale study: [`SCALE_SIZES`] × `m ∈ {n, 2n}` ×
/// `p ∈ {1, 0.2}` × buffer depths `{0, 4}` at `r = 8`, every point
/// evaluated by the mean-field ODE.
///
/// # Errors
///
/// Propagates parameter/model failures.
pub fn scale_study() -> Result<ScaleReport, CoreError> {
    let r = 8u32;
    let fluid = FluidEval::default();
    let mut rows = Vec::new();
    for &n in &SCALE_SIZES {
        for m in [n, 2 * n] {
            for p in [1.0, 0.2] {
                for buffering in [Buffering::Unbuffered, Buffering::Depth(4)] {
                    let params = SystemParams::new(n, m, r)?.with_request_probability(p)?;
                    let scenario = Scenario::new(params).with_buffering(buffering);
                    let solution = fluid.solve(&scenario)?;
                    rows.push(ScaleRow {
                        n,
                        m,
                        p,
                        buffering,
                        ebw: solution.ebw,
                        utilization: solution.ebw / params.max_ebw(),
                        mean_input_queue: solution.mean_input_queue,
                        waiting: solution.waiting_mass / f64::from(n),
                        steps: solution.steps,
                    });
                }
            }
        }
    }
    Ok(ScaleReport { r, rows })
}

/// The buffer depths the bursty drain study compares: the paper's
/// single-buffer scheme and a deeper FIFO.
pub const BURSTY_DEPTHS: [u32; 2] = [1, 4];

/// One telemetry window of the bursty study.
#[derive(Clone, Debug)]
pub struct BurstyWindow {
    /// Cycle the window starts at.
    pub start: u64,
    /// Phase the chain occupied for the whole window (0 = on,
    /// 1 = off; `None` when a transition split the window).
    pub phase: Option<u32>,
    /// EBW over this window alone.
    pub ebw: f64,
    /// Mean input-FIFO length per module over this window.
    pub mean_input_queue: f64,
}

/// One buffer depth of the bursty study.
#[derive(Clone, Debug)]
pub struct BurstyPoint {
    /// FIFO depth k.
    pub depth: u32,
    /// Whole-run mean EBW.
    pub ebw: f64,
    /// Half width of the EBW 95% confidence interval.
    pub half_width_95: f64,
    /// Conditional EBW over on-phase windows.
    pub on_ebw: f64,
    /// Conditional EBW over off-phase windows.
    pub off_ebw: f64,
    /// Mean input queue by dwell position since the burst ended,
    /// averaged across off-phase sojourns — the drain profile.
    pub drain: Vec<f64>,
    /// The full window trajectory.
    pub windows: Vec<BurstyWindow>,
}

/// The bursty MMPP drain study: windowed EBW and queue trajectories
/// under an on/off burst, across buffer depths.
#[derive(Clone, Debug)]
pub struct BurstyReport {
    /// Modules `m` (at `n = 8`).
    pub m: u32,
    /// Memory cycle ratio `r`.
    pub r: u32,
    /// On-phase think probability.
    pub on_p: f64,
    /// Off-phase think probability.
    pub off_p: f64,
    /// Phase self-transition probability.
    pub stay: f64,
    /// Cycles between phase-transition draws (= window width).
    pub dwell: u64,
    /// One entry per depth in [`BURSTY_DEPTHS`] order.
    pub points: Vec<BurstyPoint>,
}

impl std::fmt::Display for BurstyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Bursty MMPP drain study at n=8 m={} r={} (event engine):", self.m, self.r)?;
        writeln!(
            f,
            "  On/off burst: think p = {} in the on phase, {} off; the chain re-draws\n  \
             its phase every {} cycles (stay {}) and the counters cut one telemetry\n  \
             window per dwell. Buffers absorb the on-phase burst; off-phase windows\n  \
             drain it — deeper FIFOs hold more burst and drain it over more dwells.",
            self.on_p, self.off_p, self.dwell, self.stay
        )?;
        for point in &self.points {
            writeln!(f, "\n  buffer depth k = {}", point.depth)?;
            writeln!(
                f,
                "  EBW {:.3} (95% ci {:.3}); on-phase EBW {:.3}, off-phase {:.3}",
                point.ebw, point.half_width_95, point.on_ebw, point.off_ebw
            )?;
            write!(f, "  off-phase drain (mean input queue by dwell since the burst):\n   ")?;
            for q in point.drain.iter().take(8) {
                write!(f, " {q:.3}")?;
            }
            writeln!(f)?;
            let shown = point.windows.len().min(12);
            writeln!(f, "  window trajectory (first {shown} of {}):", point.windows.len())?;
            writeln!(f, "  {:>7} {:>5} {:>8} {:>8}", "start", "phase", "EBW", "queue")?;
            for w in point.windows.iter().take(shown) {
                let phase = w.phase.map_or("-", |p| if p == 0 { "on" } else { "off" });
                writeln!(
                    f,
                    "  {:>7} {:>5} {:>8.3} {:>8.3}",
                    w.start, phase, w.ebw, w.mean_input_queue
                )?;
            }
        }
        Ok(())
    }
}

/// Averages the mean input queue by position within each off-phase
/// sojourn: element `j` pools window `j` of every uninterrupted run of
/// off-tagged windows. Monotone decay across positions is the drain.
fn off_phase_drain(windows: &[BurstyWindow]) -> Vec<f64> {
    let mut sums: Vec<(f64, u32)> = Vec::new();
    let mut pos = 0usize;
    for w in windows {
        if w.phase == Some(1) {
            if sums.len() <= pos {
                sums.push((0.0, 0));
            }
            sums[pos].0 += w.mean_input_queue;
            sums[pos].1 += 1;
            pos += 1;
        } else {
            pos = 0;
        }
    }
    sums.into_iter().map(|(s, c)| s / f64::from(c)).collect()
}

/// Runs the bursty MMPP drain study: an on/off burst (think `p` 1.0
/// on, 0.05 off, stay 0.9, dwell 120) at `n = 8, m = 8, r = 8` over
/// [`BURSTY_DEPTHS`], one telemetry window per dwell on the event
/// engine. A single replication keeps the window phase tags exact —
/// pooling across independent chains would blur them to `None`.
///
/// # Errors
///
/// Propagates parameter/simulation failures.
pub fn bursty_draining(effort: Effort) -> Result<BurstyReport, CoreError> {
    // A slow memory (r = 24) under an on-phase hot spot: the burst
    // piles the hot module's FIFO to depth k, and the off phase needs
    // ~k * (r + 2) cycles — several dwells — to serve it down.
    let (m, r) = (8u32, 24u32);
    let (on_p, off_p, stay, dwell) = (1.0, 0.02, 0.9, 60u64);
    let params = SystemParams::new(8, m, r)?;
    let workload = Workload::on_off_burst(on_p, off_p, stay, dwell, Some((0.9, 0)))?;
    let budget = SimBudget { replications: 1, ..effort.budget().with_engine(EngineKind::Event) };
    let sim = BusSimEval::new(budget);
    let rc = r + 2;
    let mut points = Vec::with_capacity(BURSTY_DEPTHS.len());
    for depth in BURSTY_DEPTHS {
        let scenario = Scenario::new(params)
            .with_buffering(Buffering::Depth(depth))
            .with_workload(workload.clone());
        let e = sim.evaluate(&scenario)?;
        let series = e.windows.as_ref().expect("MMPP runs carry window telemetry");
        let windows: Vec<BurstyWindow> = series
            .windows
            .iter()
            .map(|w| BurstyWindow {
                start: w.start,
                phase: w.phase,
                ebw: w.ebw(rc),
                mean_input_queue: w.mean_input_queue(m),
            })
            .collect();
        let phase_ebw = |phase: u32| {
            let (returns, cycles) = series
                .windows
                .iter()
                .filter(|w| w.phase == Some(phase))
                .fold((0u64, 0u64), |(a, c), w| (a + w.returns, c + w.cycles));
            if cycles == 0 {
                0.0
            } else {
                returns as f64 * f64::from(rc) / cycles as f64
            }
        };
        points.push(BurstyPoint {
            depth,
            ebw: e.ebw(),
            half_width_95: e.half_width_95,
            on_ebw: phase_ebw(0),
            off_ebw: phase_ebw(1),
            drain: off_phase_drain(&windows),
            windows,
        });
    }
    Ok(BurstyReport { m, r, on_p, off_p, stay, dwell, points })
}

/// The chaos report: one supervised sweep run fault-free and once under
/// a deterministic [`FaultPlan`], with the survivors compared bit for
/// bit.
#[derive(Clone, Debug)]
pub struct FaultsReport {
    /// The fault plan's canonical spec string.
    pub plan: String,
    /// `(scenario, evaluator)` pairs in the grid.
    pub pairs: usize,
    /// Injection counters accumulated by the chaos run.
    pub injected: FaultStats,
    /// Pairs that needed more than one attempt but still produced
    /// their own result.
    pub recovered: usize,
    /// Pairs that fell back to the fluid/analytic anchor.
    pub degraded: usize,
    /// Pairs that produced a structured failure record.
    pub failed: usize,
    /// Whether every surviving (status `ok`) chaos pair is bit-identical
    /// to the fault-free run.
    pub survivors_identical: bool,
}

impl std::fmt::Display for FaultsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Chaos study: supervised sweep under fault plan {}:", self.plan)?;
        writeln!(f, "  pairs                 {}", self.pairs)?;
        writeln!(
            f,
            "  injected faults       {} ({} panics, {} delays, {} append, {} load)",
            self.injected.total(),
            self.injected.panics,
            self.injected.delays,
            self.injected.append_errors,
            self.injected.load_errors
        )?;
        writeln!(f, "  recovered by retry    {}", self.recovered)?;
        writeln!(f, "  degraded to anchor    {}", self.degraded)?;
        writeln!(f, "  failed                {}", self.failed)?;
        writeln!(
            f,
            "  survivors bit-identical to fault-free run: {}",
            if self.survivors_identical { "yes" } else { "NO" }
        )
    }
}

/// Bitwise equality of the metric vector two sweep records carry; used
/// by the chaos study to prove survivors are unaffected by injection.
fn records_bit_identical(a: &SweepRecord, b: &SweepRecord) -> bool {
    match (&a.result, &b.result) {
        (Ok(x), Ok(y)) => {
            let bits = |e: &Evaluation| {
                [
                    e.metrics.ebw.to_bits(),
                    e.metrics.bus_utilization.to_bits(),
                    e.metrics.memory_utilization.to_bits(),
                    e.metrics.processor_efficiency.to_bits(),
                    e.half_width_95.to_bits(),
                    u64::from(e.replications),
                ]
            };
            bits(x) == bits(y) && x.evaluator == y.evaluator
        }
        _ => false,
    }
}

/// Runs the chaos study: a Table 3/4-style smoke grid swept twice under
/// supervision — once fault-free, once under a seeded [`FaultPlan`]
/// that kills well over 20 % of first attempts — then checks that every
/// surviving point is bit-identical and every casualty is accounted for
/// (recovered, degraded to its analytic anchor, or a structured
/// failure).
///
/// # Errors
///
/// Propagates parameter failures; injected faults never surface as
/// errors.
pub fn faults_chaos(effort: Effort) -> Result<FaultsReport, CoreError> {
    busnet_sim::fault::silence_injected_panics();
    let grid = ScenarioGrid::new()
        .n_values([4, 8, 16])
        .m_values([16])
        .r_values([8])
        .p_values([0.5, 1.0])
        .policies([BusPolicy::ProcessorPriority, BusPolicy::MemoryPriority]);
    let scenarios = grid.scenarios()?;
    let budget = effort.budget();
    let sim = BusSimEval::new(budget);
    let exact = ExactChainEval;
    let evaluators: [&dyn Evaluator; 2] = [&sim, &exact];

    let supervisor = Supervisor { on_failure: OnFailure::Degrade, ..Supervisor::default() };
    let mut baseline_options = SweepOptions::new(ExecutionMode::Parallel);
    baseline_options.supervise = Some(&supervisor);
    let baseline = run_sweep_with(&scenarios, &evaluators, &baseline_options, |_, _, _| {});

    let plan = FaultPlan::new(0x1985_0414, 0.35)
        .map_err(|value| CoreError::InvalidParameter {
            name: "fault rate",
            value,
            constraint: "0 <= rate <= 1",
        })?
        .with_delay_ms(1);
    let mut chaos_options = SweepOptions::new(ExecutionMode::Parallel);
    chaos_options.supervise = Some(&supervisor);
    chaos_options.faults = Some(&plan);
    let chaos = run_sweep_with(&scenarios, &evaluators, &chaos_options, |_, _, _| {});

    let survivors_identical = baseline.len() == chaos.len()
        && baseline
            .iter()
            .zip(&chaos)
            .filter(|(_, c)| c.status == UnitStatus::Ok && c.result.is_ok())
            .all(|(b, c)| records_bit_identical(b, c));
    let recovered = chaos.iter().filter(|r| r.status == UnitStatus::Ok && r.attempts > 1).count();
    let degraded = chaos.iter().filter(|r| r.status == UnitStatus::Degraded).count();
    let failed = chaos.iter().filter(|r| r.status == UnitStatus::Failed).count();
    Ok(FaultsReport {
        plan: plan.spec(),
        pairs: chaos.len(),
        injected: plan.stats(),
        recovered,
        degraded,
        failed,
        survivors_identical,
    })
}

/// Identifiers for every reproducible experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1.
    Table1,
    /// Table 2.
    Table2,
    /// Table 3 (both halves).
    Table3,
    /// Table 4.
    Table4,
    /// Figure 2.
    Fig2,
    /// Figure 3.
    Fig3,
    /// Figure 5.
    Fig5,
    /// Figure 6.
    Fig6,
    /// §5/§6 validation claims.
    ModelValidation,
    /// §7 design-space claims.
    DesignSpace,
    /// Arbitration-fairness study (hypothesis *h* relaxations).
    Arbitration,
    /// Buffer-sizing study (§6 generalized to depth k).
    Buffering,
    /// Hot-spot workload study (hypothesis *e*/*f* relaxations).
    Hotspot,
    /// Bursty MMPP drain study (hypothesis *d* relaxation: non-
    /// stationary request streams with windowed telemetry).
    Bursty,
    /// Fluid scale study (million-processor points via the ODE model).
    Scale,
    /// Chaos study (supervised sweep under deterministic fault
    /// injection).
    Faults,
}

/// All experiments, in paper order.
pub const ALL_EXPERIMENTS: [ExperimentId; 16] = [
    ExperimentId::Table1,
    ExperimentId::Table2,
    ExperimentId::Table3,
    ExperimentId::Table4,
    ExperimentId::Fig2,
    ExperimentId::Fig3,
    ExperimentId::Fig5,
    ExperimentId::Fig6,
    ExperimentId::ModelValidation,
    ExperimentId::DesignSpace,
    ExperimentId::Arbitration,
    ExperimentId::Buffering,
    ExperimentId::Hotspot,
    ExperimentId::Bursty,
    ExperimentId::Scale,
    ExperimentId::Faults,
];

impl ExperimentId {
    /// Stable textual id (`table1`, `fig2`, …).
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Table4 => "table4",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::ModelValidation => "validation",
            ExperimentId::DesignSpace => "design-space",
            ExperimentId::Arbitration => "arbitration",
            ExperimentId::Buffering => "buffering",
            ExperimentId::Hotspot => "hotspot",
            ExperimentId::Bursty => "bursty",
            ExperimentId::Scale => "scale",
            ExperimentId::Faults => "faults",
        }
    }

    /// Parses a textual id.
    pub fn from_name(name: &str) -> Option<ExperimentId> {
        ALL_EXPERIMENTS.iter().copied().find(|e| e.name() == name)
    }

    /// Runs the experiment and renders its results as text (tables in
    /// the paper's layout, figures as ASCII charts, with deviations
    /// against the paper where it prints numbers).
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn run_rendered(&self, effort: Effort) -> Result<String, CoreError> {
        Ok(match self {
            ExperimentId::Table1 => {
                let ours = table1()?;
                format!("{}\n{}", ours.render(), ours.render_vs(&table1_paper()))
            }
            ExperimentId::Table2 => {
                let ours = table2()?;
                format!("{}\n{}", ours.render(), ours.render_vs(&table2_paper()))
            }
            ExperimentId::Table3 => {
                let t = table3(effort)?;
                format!(
                    "{}\n{}\n{}\n{}",
                    t.sim.render(),
                    t.sim.render_vs(&t.paper_sim),
                    t.model.render(),
                    t.model.render_vs(&t.paper_model)
                )
            }
            ExperimentId::Table4 => {
                let t = table4(effort)?;
                format!("{}\n{}", t.sim.render(), t.sim.render_vs(&t.paper))
            }
            ExperimentId::Fig2 => fig2(effort)?.render(64, 20),
            ExperimentId::Fig3 => fig3(effort)?.render(64, 20),
            ExperimentId::Fig5 => fig5(effort)?.render(64, 20),
            ExperimentId::Fig6 => fig6(effort)?.render(64, 20),
            ExperimentId::ModelValidation => model_validation(effort)?.to_string(),
            ExperimentId::DesignSpace => design_space(effort)?.to_string(),
            ExperimentId::Arbitration => arbitration_fairness(effort)?.to_string(),
            ExperimentId::Buffering => buffering_depths(effort)?.to_string(),
            ExperimentId::Hotspot => hotspot_workloads(effort)?.to_string(),
            ExperimentId::Bursty => bursty_draining(effort)?.to_string(),
            ExperimentId::Scale => scale_study()?.to_string(),
            ExperimentId::Faults => faults_chaos(effort)?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_everywhere() {
        let ours = table1().unwrap();
        let theirs = table1_paper();
        assert!(ours.worst_relative_deviation(&theirs) < 5e-4);
    }

    #[test]
    fn table2_matches_paper_everywhere() {
        let ours = table2().unwrap();
        let theirs = table2_paper();
        assert!(ours.worst_relative_deviation(&theirs) < 5e-4);
    }

    #[test]
    fn table4_quick_reproduces_shape() {
        let t = table4(Effort::Quick).unwrap();
        assert!(t.sim.worst_relative_deviation(&t.paper) < 0.05);
    }

    #[test]
    fn experiment_names_unique_and_parse() {
        let mut names: Vec<&str> = ALL_EXPERIMENTS.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_EXPERIMENTS.len());
        for id in ALL_EXPERIMENTS {
            assert_eq!(ExperimentId::from_name(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::from_name("nope"), None);
    }

    #[test]
    fn analytic_experiments_render() {
        for id in [ExperimentId::Table1, ExperimentId::Table2] {
            let text = id.run_rendered(Effort::Quick).unwrap();
            assert!(text.contains("EBW"), "{}", id.name());
        }
    }

    #[test]
    fn efforts_map_to_budgets() {
        assert_eq!(Effort::Quick.budget().replications, 2);
        assert_eq!(Effort::Paper.budget().replications, 6);
        assert!(Effort::Paper.budget().measure > Effort::Quick.budget().measure);
    }
}
