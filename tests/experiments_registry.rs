//! The experiment registry end to end (quick effort).

use busnet::report::experiments::{self, Effort, ExperimentId};

#[test]
fn tables_render_with_paper_comparison() {
    let text = ExperimentId::Table1.run_rendered(Effort::Quick).unwrap();
    assert!(text.contains("Table 1"));
    assert!(text.contains('%'), "comparison section missing");
}

/// Report output is reproducible: the scale study prints no wall-clock
/// column, so two renders are the same string.
#[test]
fn scale_study_renders_identically_twice() {
    let first = ExperimentId::Scale.run_rendered(Effort::Quick).unwrap();
    assert_eq!(first, ExperimentId::Scale.run_rendered(Effort::Quick).unwrap());
    assert!(first.contains("steps") && !first.contains(" ms"), "{first}");
}

#[test]
fn table3_quick_close_to_paper_sim() {
    let t = experiments::table3(Effort::Quick).unwrap();
    let dev = t.sim.worst_relative_deviation(&t.paper_sim);
    assert!(dev < 0.06, "worst deviation {dev:.3}");
    // And the model grid mirrors Table 3b within the documented bound.
    let model_dev = t.model.worst_relative_deviation(&t.paper_model);
    assert!(model_dev < 0.09, "model deviation {model_dev:.3}");
}

#[test]
fn table4_quick_close_to_paper() {
    let t = experiments::table4(Effort::Quick).unwrap();
    let dev = t.sim.worst_relative_deviation(&t.paper);
    assert!(dev < 0.05, "worst deviation {dev:.3}");
}

#[test]
fn fig5_shows_buffering_ordering() {
    let chart = experiments::fig5(Effort::Quick).unwrap();
    // For each m, the buffered series dominates the unbuffered one.
    let find = |label: &str| {
        chart
            .series()
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
    };
    for m in [8, 16] {
        let buffered = find(&format!("8x{m} with buffers"));
        let plain = find(&format!("8x{m} without buffers"));
        for (b, p) in buffered.points.iter().zip(&plain.points) {
            assert!(b.1 >= p.1 - 0.05, "m={m}, r={}: {} < {}", b.0, b.1, p.1);
        }
    }
}

#[test]
fn fig3_utilization_decreases_with_load() {
    let chart = experiments::fig3(Effort::Quick).unwrap();
    for series in chart.series() {
        let first = series.points.first().unwrap().1;
        let last = series.points.last().unwrap().1;
        assert!(
            first >= last - 0.03,
            "{}: utilization should fall with p ({first:.3} -> {last:.3})",
            series.label
        );
        for &(_, u) in &series.points {
            assert!(u <= 1.0 + 0.05, "{}: utilization {u} above 1", series.label);
        }
    }
}

#[test]
fn validation_report_reproduces_paper_bounds() {
    let v = experiments::model_validation(Effort::Quick).unwrap();
    assert!(v.approx_vs_exact_worst < 0.09, "approx worst {}", v.approx_vs_exact_worst);
    assert!(v.reduced_vs_sim.1 < 0.075, "reduced runner-up {}", v.reduced_vs_sim.1);
    assert!(v.exponential_gap_worst > 0.10, "exp gap {}", v.exponential_gap_worst);
    assert!(v.mva_vs_buzen_worst < 1e-8, "mva/buzen {}", v.mva_vs_buzen_worst);
    assert!(v.sim_vs_exact_chain_worst < 0.03, "chain {}", v.sim_vs_exact_chain_worst);
}

#[test]
fn design_space_reproduces_section7() {
    let d = experiments::design_space(Effort::Quick).unwrap();
    assert!((d.crossbar_8x8 - 4.94).abs() < 0.02);
    // The paper says m = 14 at r = 8; quick-effort noise may land on a
    // neighboring even m.
    let m = d.m_matching_crossbar_at_r8.expect("some m matches");
    assert!((12..=16).contains(&m), "m = {m}");
    assert!(d.degradation_8x10_r8 > 0.01 && d.degradation_8x10_r8 < 0.08);
    let (buf, xb) = d.buffered_16x16_r18_vs_crossbar;
    assert!((buf - xb).abs() / xb < 0.03);
    assert!(d.buffered_saturation_r >= 6, "saturation r {}", d.buffered_saturation_r);
    assert!(d.crossover_p_vs_8x8_crossbar <= 0.5);
    let (bp, xp) = d.buffered_p03_r12_vs_crossbar;
    assert!(bp >= xp - 0.08, "p=0.3 r=12: {bp} vs {xp}");
}
