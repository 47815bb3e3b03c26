//! Statistics of a Bosphorus preprocessing run.

use std::fmt;
use std::time::Duration;

use bosphorus_anf::Revision;
use bosphorus_gf2::{GaussStats, PresolveStats};
use bosphorus_sat::SolverStats;

use crate::pipeline::PassOutcome;

/// One pipeline event: a single pass execution (or skip) within one driver
/// iteration, in chronological order.
///
/// The per-pass totals ([`PassStats`]) answer *how much* each technique
/// contributed; the timeline answers *when* — which iteration learnt the
/// facts, at which database revision, and how long each step took. The CLI
/// serialises it under `"timeline"` in `--stats-json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// 1-based driver iteration the event belongs to.
    pub iteration: usize,
    /// Name of the pass that ran (or skipped).
    pub pass: String,
    /// Database revision observed right after the pass's facts were
    /// committed (or at the skip decision).
    pub revision: Revision,
    /// Facts this execution contributed (after the retainability filter,
    /// and only those the database did not already hold or imply).
    pub facts: usize,
    /// `true` when the pass skipped because nothing it reads changed.
    pub skipped: bool,
    /// `true` when the pass's `run` panicked during this execution; the
    /// driver marked it poisoned and it is skipped for the rest of the run.
    pub poisoned: bool,
    /// Wall-clock time of this execution.
    pub time: Duration,
    /// The subsample size `M` of XL and ElimLin this execution ran with.
    pub subsample_m: u32,
    /// The SAT conflict budget `C` this execution ran with.
    pub sat_budget: u64,
}

/// Per-pass counters, recorded uniformly for every pipeline pass.
///
/// One entry exists per distinct pass name that appeared in the pipeline;
/// entries are created lazily in run order the first time a pass executes
/// (or skips).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassStats {
    /// The pass's stable name (`"xl"`, `"elimlin"`, `"sat"`, ...).
    pub name: String,
    /// Number of times the pass actually executed.
    pub runs: usize,
    /// Number of times the pass skipped because nothing it reads changed.
    pub skips: usize,
    /// Facts contributed by the pass: those that pass the retainability
    /// filter and that the master copy did not already hold or imply (see
    /// [`AnfDatabase::push_unique`](bosphorus_anf::AnfDatabase::push_unique)).
    pub facts: usize,
    /// Retainable facts the pass returned that the master copy already held
    /// or implied — re-derivations of known rows, values or equivalences,
    /// which are not committed.
    pub known_facts: usize,
    /// Cumulative GF(2) elimination work performed by the pass.
    pub gauss: GaussStats,
    /// Cumulative sparse-presolve reductions performed ahead of the pass's
    /// dense eliminations (all-zero for passes without a GF(2) stage).
    pub presolve: PresolveStats,
    /// Cumulative SAT conflicts spent by the pass.
    pub sat_conflicts: u64,
    /// Cumulative clauses learnt by the pass's SAT solving (deleted ones
    /// included).
    pub sat_learnt: u64,
    /// Cumulative learnt clauses deleted by SAT database reductions.
    pub sat_removed: u64,
    /// Cumulative literals removed from SAT conflict clauses by CCMin.
    pub sat_minimized_lits: u64,
    /// Cumulative SAT restarts performed by the pass.
    pub sat_restarts: u64,
    /// Value assignments recorded by the pass (propagation only).
    pub propagated_assignments: usize,
    /// Equivalences recorded by the pass (propagation only).
    pub propagated_equivalences: usize,
    /// Total wall-clock time spent inside the pass (skips included; their
    /// cost is the skip check itself).
    pub time: Duration,
}

/// The final SAT call of [`Bosphorus::solve`](crate::Bosphorus::solve): the
/// unbounded search on the processed CNF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalSolveStats {
    /// The solver's counters at the end of the search.
    pub solver: SolverStats,
    /// Wall-clock time of the search.
    pub time: Duration,
}

/// Counters describing what the fact-learning loop did.
///
/// Returned by [`Bosphorus::stats`](crate::Bosphorus::stats) and printed by
/// the benchmark harness next to each PAR-2 row. The flat fields are totals
/// over the whole loop; [`EngineStats::passes`] breaks the work and the
/// facts down per pipeline pass (including custom orders).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Number of pipeline iterations executed.
    pub iterations: usize,
    /// Value assignments made by ANF propagation (driver-level and explicit
    /// propagation passes combined).
    pub propagated_assignments: usize,
    /// Equivalences recorded by ANF propagation.
    pub propagated_equivalences: usize,
    /// Total SAT conflicts spent across all SAT steps.
    pub sat_conflicts: u64,
    /// Total row XOR operations performed by the GF(2) elimination kernel
    /// across all XL and ElimLin rounds — the dominant cost of the loop.
    pub gauss_row_xors: u64,
    /// `true` if preprocessing alone decided the instance.
    pub decided_during_preprocessing: bool,
    /// `true` when the run observed cancellation (deadline, SIGINT/SIGTERM
    /// or an explicit cancel) and stopped early with a consistent partial result.
    pub interrupted: bool,
    /// Names of passes whose `run` panicked; each was isolated by the
    /// driver's `catch_unwind` and skipped for the rest of the run.
    pub poisoned_passes: Vec<String>,
    /// Uniform per-pass breakdown (work, facts, skips, timing), in the
    /// order the passes first appeared in the pipeline.
    pub passes: Vec<PassStats>,
    /// Chronological record of every pass execution across all iterations
    /// (see [`TimelineEntry`]). Bounded by the iteration cap times the
    /// pipeline length.
    pub timeline: Vec<TimelineEntry>,
    /// The final SAT call of [`Bosphorus::solve`](crate::Bosphorus::solve);
    /// `None` when none ran.
    pub final_solve: Option<FinalSolveStats>,
}

impl EngineStats {
    /// Total number of learnt facts across all passes.
    pub fn total_facts(&self) -> usize {
        self.passes.iter().map(|p| p.facts).sum()
    }

    /// Facts contributed by the pass `name` (0 if it never ran).
    pub fn facts_from(&self, name: &str) -> usize {
        self.pass(name).map_or(0, |p| p.facts)
    }

    /// The per-pass entry for `name`, if that pass appeared in the pipeline.
    pub fn pass(&self, name: &str) -> Option<&PassStats> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Folds one pass run (or skip) into the per-pass entry for `name` and
    /// into the flat aggregate counters.
    pub(crate) fn record_pass(&mut self, name: &str, outcome: &PassOutcome, elapsed: Duration) {
        use crate::pipeline::PassStatus;
        self.gauss_row_xors += outcome.gauss.row_xors as u64;
        self.sat_conflicts += outcome.sat_conflicts;
        self.propagated_assignments += outcome.new_assignments;
        self.propagated_equivalences += outcome.new_equivalences;
        let entry = self.entry_mut(name);
        entry.time += elapsed;
        if outcome.status == PassStatus::Skipped {
            entry.skips += 1;
        } else {
            entry.runs += 1;
        }
        entry.gauss.merge(outcome.gauss);
        entry.presolve.merge(outcome.presolve);
        entry.sat_conflicts += outcome.sat_conflicts;
        entry.sat_learnt += outcome.sat_learnt;
        entry.sat_removed += outcome.sat_removed;
        entry.sat_minimized_lits += outcome.sat_minimized_lits;
        entry.sat_restarts += outcome.sat_restarts;
        entry.propagated_assignments += outcome.new_assignments;
        entry.propagated_equivalences += outcome.new_equivalences;
    }

    /// Records `added` committed facts for the pass `name`.
    pub(crate) fn record_facts(&mut self, name: &str, added: usize) {
        self.entry_mut(name).facts += added;
    }

    /// Records `known` returned facts of the pass `name` that the master
    /// copy already held or implied.
    pub(crate) fn record_known_facts(&mut self, name: &str, known: usize) {
        self.entry_mut(name).known_facts += known;
    }

    /// Appends one pass execution to the chronological timeline.
    pub(crate) fn record_timeline(&mut self, entry: TimelineEntry) {
        self.timeline.push(entry);
    }

    /// Records that the pass `name` panicked and was poisoned. Also counts
    /// the aborted execution's wall-clock time against the pass.
    pub(crate) fn record_poisoned(&mut self, name: &str, elapsed: Duration) {
        let entry = self.entry_mut(name);
        entry.time += elapsed;
        entry.runs += 1;
        if !self.poisoned_passes.iter().any(|p| p == name) {
            self.poisoned_passes.push(name.to_string());
        }
    }

    /// Folds driver-level propagation (runs outside any pass) into the
    /// aggregate counters.
    pub(crate) fn record_driver_propagation(&mut self, assignments: usize, equivalences: usize) {
        self.propagated_assignments += assignments;
        self.propagated_equivalences += equivalences;
    }

    fn entry_mut(&mut self, name: &str) -> &mut PassStats {
        if let Some(idx) = self.passes.iter().position(|p| p.name == name) {
            &mut self.passes[idx]
        } else {
            self.passes.push(PassStats {
                name: name.to_string(),
                ..PassStats::default()
            });
            self.passes.last_mut().expect("just pushed")
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iterations={} facts(xl={}, elimlin={}, sat={}) propagation(values={}, equivalences={}) conflicts={} gauss_row_xors={}",
            self.iterations,
            self.facts_from("xl"),
            self.facts_from("elimlin"),
            self.facts_from("sat"),
            self.propagated_assignments,
            self.propagated_equivalences,
            self.sat_conflicts,
            self.gauss_row_xors
        )?;
        let groebner = self.facts_from("groebner");
        if groebner > 0 {
            write!(f, " facts_groebner={groebner}")?;
        }
        if self.interrupted {
            write!(f, " interrupted=true")?;
        }
        if !self.poisoned_passes.is_empty() {
            write!(f, " poisoned={}", self.poisoned_passes.join(","))?;
        }
        for pass in &self.passes {
            write!(
                f,
                " {}(runs={}, skips={}, facts={}, ms={:.3})",
                pass.name,
                pass.runs,
                pass.skips,
                pass.facts,
                pass.time.as_secs_f64() * 1e3
            )?;
        }
        if let Some(last) = &self.final_solve {
            let ms = last.time.as_secs_f64() * 1e3;
            write!(f, " final_solve({} ms={ms:.3})", last.solver)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PassOutcome, PassStatus};

    #[test]
    fn totals_add_up() {
        let mut stats = EngineStats::default();
        stats.record_facts("xl", 2);
        stats.record_facts("elimlin", 3);
        stats.record_facts("sat", 4);
        assert_eq!(stats.total_facts(), 9);
        assert!(stats.to_string().contains("facts(xl=2, elimlin=3, sat=4)"));
    }

    #[test]
    fn groebner_facts_count_towards_the_total() {
        let mut stats = EngineStats::default();
        stats.record_facts("xl", 1);
        stats.record_facts("groebner", 5);
        assert_eq!(stats.total_facts(), 6);
        assert!(stats.to_string().contains("facts_groebner=5"));
    }

    #[test]
    fn record_pass_accumulates_runs_skips_and_work() {
        let mut stats = EngineStats::default();
        let mut ran = PassOutcome::ran();
        ran.gauss.row_xors = 7;
        ran.presolve.rows_eliminated = 5;
        ran.presolve.singleton_rows = 2;
        ran.sat_conflicts = 3;
        ran.sat_learnt = 11;
        ran.sat_removed = 4;
        ran.sat_minimized_lits = 9;
        ran.sat_restarts = 2;
        stats.record_pass("xl", &ran, Duration::from_millis(2));
        let skipped = PassOutcome::skipped();
        stats.record_pass("xl", &skipped, Duration::from_millis(1));
        stats.record_facts("xl", 4);

        let xl = stats.pass("xl").expect("entry exists");
        assert_eq!(xl.runs, 1);
        assert_eq!(xl.skips, 1);
        assert_eq!(xl.facts, 4);
        assert_eq!(xl.gauss.row_xors, 7);
        assert_eq!(xl.presolve.rows_eliminated, 5);
        assert_eq!(xl.presolve.singleton_rows, 2);
        assert_eq!(xl.sat_learnt, 11);
        assert_eq!(xl.sat_removed, 4);
        assert_eq!(xl.sat_minimized_lits, 9);
        assert_eq!(xl.sat_restarts, 2);
        assert!(
            stats
                .to_string()
                .contains(" xl(runs=1, skips=1, facts=4, ms=3.000)"),
            "{stats}"
        );
        assert_eq!(xl.time, Duration::from_millis(3));
        assert_eq!(stats.gauss_row_xors, 7);
        assert_eq!(stats.sat_conflicts, 3);
        assert_eq!(ran.status, PassStatus::Ran);
    }

    #[test]
    fn known_facts_are_counted_per_pass_but_not_as_facts() {
        let mut stats = EngineStats::default();
        stats.record_facts("sat", 0);
        stats.record_known_facts("sat", 3);
        let sat = stats.pass("sat").expect("entry");
        assert_eq!((sat.facts, sat.known_facts), (0, 3));
        assert_eq!(stats.total_facts(), 0);
    }

    #[test]
    fn unknown_pass_names_get_entries_but_no_flat_counter() {
        let mut stats = EngineStats::default();
        stats.record_facts("custom", 2);
        assert_eq!(stats.pass("custom").expect("entry").facts, 2);
        assert_eq!(stats.facts_from("custom"), 2);
        assert_eq!(stats.total_facts(), 2, "the total sums every pass");
    }
}
