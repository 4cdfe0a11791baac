//! The offline DVFS search: one scenario × its own policy × candidate
//! frequencies, expanded ([`expand_cells`]) and lowered ([`lower_cell`])
//! as matrix cells and all simulated as one [`run_systems`] batch.

use sara_sim::experiment::DvfsPoint;
use sara_sim::ScreenVerdict;
use sara_types::ConfigError;

use crate::matrix::{expand_cells, lower_cell, LoweredCell, MatrixSpec, ScreenMode};
use crate::ordered::run_systems;
use crate::scenario::Scenario;

/// The outcome of one scenario's search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Scenario name.
    pub scenario: String,
    /// One evaluated point per simulated candidate, in input order.
    pub points: Vec<DvfsPoint>,
    /// Index of the chosen point (lowest passing frequency), if any
    /// candidate passed.
    pub chosen: Option<usize>,
    /// Candidates the screener dropped before simulation, in input order,
    /// each with the screener's reason.
    pub screened_out: Vec<(u32, String)>,
}

impl SearchOutcome {
    /// The chosen frequency in MHz, if any candidate passed.
    pub fn chosen_mhz(&self) -> Option<u32> {
        self.chosen.map(|i| self.points[i].freq.as_u32())
    }
}

/// Runs `scenario` statically at each candidate DRAM frequency (its own
/// policy, frame period, seed and channels; only the frequency varies)
/// as one [`run_systems`] batch on the default worker count, and picks the
/// lowest one at which *every* core still meets its target — the
/// energy-saving reading of the paper's Fig. 7: the adaptation absorbs
/// frequency loss until capacity truly runs out. This is the *planning*
/// counterpart of `sara-governor`'s online loop.
///
/// `duration_ms` overrides the scenario's nominal run length. With
/// `screen`, candidates the closed-form bound proves infeasible are
/// dropped before simulating ([`SearchOutcome::screened_out`]) — sound
/// because such a candidate can never be the lowest passing frequency;
/// if that drops every candidate the outcome has no points.
///
/// # Examples
///
/// ```no_run
/// use sara_scenarios::{catalog, dvfs_search};
///
/// let adas = catalog::by_name("adas").unwrap();
/// let outcome = dvfs_search(&adas, &[1120, 1360, 1600], None, false)?;
/// if let Some(freq) = outcome.chosen_mhz() {
///     println!("lowest passing frequency: {freq} MHz");
/// }
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
///
/// # Errors
///
/// Returns [`ConfigError`] on an empty candidate list, else that of the
/// first candidate that fails to lower, else that of the first that fails
/// to build.
pub fn dvfs_search(
    scenario: &Scenario,
    freqs_mhz: &[u32],
    duration_ms: Option<f64>,
    screen: bool,
) -> Result<SearchOutcome, ConfigError> {
    if freqs_mhz.is_empty() {
        return Err(ConfigError::new("DVFS search needs at least one candidate"));
    }
    // The matrix of the scenario's own policy × the candidates. Screening
    // never prunes here: a provably met candidate still needs its point.
    let spec = MatrixSpec {
        policies: vec![scenario.policy],
        freqs_mhz: freqs_mhz.to_vec(),
        duration_ms,
        screen: if screen {
            ScreenMode::Verify
        } else {
            ScreenMode::Off
        },
        ..MatrixSpec::default()
    };
    let (mut runs, mut screened_out) = (Vec::new(), Vec::new());
    for cell in expand_cells(std::slice::from_ref(scenario), &spec)? {
        match lower_cell(scenario, &cell, spec.screen)? {
            LoweredCell::Run(_, Some(a)) if a.verdict == ScreenVerdict::ProvablyInfeasible => {
                screened_out.push((cell.freq.as_u32(), a.reason));
            }
            LoweredCell::Run(system, _) => runs.push((*system, cell.duration_ms)),
            LoweredCell::Pruned(_) => unreachable!("verify prunes no cell"),
        }
    }
    let points: Vec<DvfsPoint> = run_systems(&runs, spec.threads)?
        .iter()
        .map(|(report, _)| DvfsPoint::from_report(report))
        .collect();
    let chosen = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.all_met)
        .min_by_key(|(_, p)| p.freq.as_u32())
        .map(|(i, _)| i);
    Ok(SearchOutcome {
        scenario: scenario.name.clone(),
        points,
        chosen,
        screened_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::matrix::{expand_cells, run_cell, run_matrix};

    fn rows(points: &[DvfsPoint]) -> Vec<String> {
        points.iter().map(DvfsPoint::csv_row).collect()
    }

    #[test]
    fn search_generalises_beyond_the_camcorder() {
        // The AR headset passes at its nominal 1866 MHz but cannot live at
        // a crawl: the search must pick the nominal rung.
        let s = catalog::by_name("ar-headset").unwrap();
        let outcome = dvfs_search(&s, &[400, 1866], Some(1.2), false).unwrap();
        assert_eq!(outcome.points.len(), 2);
        assert!(!outcome.points[0].all_met, "400 MHz cannot carry AR");
        assert!(outcome.points[1].all_met);
        assert_eq!(outcome.chosen_mhz(), Some(1866));
        assert!(outcome.points[1].energy_mj > 0.0);
    }

    #[test]
    fn empty_candidate_list_is_rejected() {
        let s = catalog::by_name("adas").unwrap();
        assert!(dvfs_search(&s, &[], None, false).is_err());
    }

    #[test]
    fn search_picks_lowest_passing_frequency() {
        // Case B at a short window: 1700 passes, an absurdly low clock fails.
        let outcome = dvfs_search(
            &catalog::by_name("camcorder-b").unwrap(),
            &[600, 1700],
            Some(1.5),
            false,
        )
        .unwrap();
        let (points, chosen) = (&outcome.points, outcome.chosen);
        assert_eq!(points.len(), 2);
        assert!(!points[0].all_met, "600 MHz cannot carry the camcorder");
        assert!(points[1].all_met);
        assert_eq!(chosen, Some(1));
        assert!(points[1].energy_mj > 0.0);
    }

    #[test]
    fn outcome_is_thread_count_invariant_and_equals_run_cell_per_candidate() {
        // The search runs at the host's default worker count; the same
        // cells at explicit 1 and 4 workers, and one at a time through
        // `run_cell`, must give the same points byte for byte.
        let s = [catalog::by_name("adas").unwrap()];
        let outcome = dvfs_search(&s[0], &[400, 1120, 1866], Some(0.2), false).unwrap();
        let csv = rows(&outcome.points);
        assert_eq!(csv.len(), 3);
        let mut spec = MatrixSpec {
            policies: vec![s[0].policy],
            freqs_mhz: vec![400, 1120, 1866],
            duration_ms: Some(0.2),
            ..MatrixSpec::default()
        };
        for threads in [1, 4] {
            spec.threads = threads;
            let summary = run_matrix(&s, &spec).unwrap();
            let reports = summary.cells.iter().filter_map(|c| c.report());
            let points: Vec<_> = reports.map(DvfsPoint::from_report).collect();
            assert_eq!(rows(&points), csv, "{threads} threads");
        }
        let cells = expand_cells(&s, &spec).unwrap();
        let per_cell = cells.iter().map(|c| run_cell(&s[0], c).unwrap());
        let points: Vec<_> = per_cell.map(|r| DvfsPoint::from_report(&r)).collect();
        assert_eq!(rows(&points), csv);
    }

    #[test]
    fn screening_drops_only_provably_infeasible_candidates() {
        // 400 MHz is provably infeasible for the AR headset: screening
        // drops exactly that rung and leaves the other's point untouched.
        let s = catalog::by_name("ar-headset").unwrap();
        let plain = dvfs_search(&s, &[400, 1866], Some(0.2), false).unwrap();
        let screened = dvfs_search(&s, &[400, 1866], Some(0.2), true).unwrap();
        assert!(plain.screened_out.is_empty());
        assert_eq!(screened.screened_out.len(), 1);
        assert_eq!(screened.screened_out[0].0, 400);
        assert_eq!(rows(&screened.points), rows(&plain.points[1..]));
        // Every rung infeasible: an empty outcome, not an error.
        let none = dvfs_search(&s, &[400], Some(0.2), true).unwrap();
        assert!(none.points.is_empty());
        assert_eq!(none.chosen_mhz(), None);
    }
}
