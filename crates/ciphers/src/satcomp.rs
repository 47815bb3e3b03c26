//! A synthetic CNF suite standing in for the SAT Competition 2017 instances
//! (Appendix D of the paper).
//!
//! The original evaluation uses 310 competition CNFs plus a 219-instance
//! "hard" subset. Those files are not redistributable here, so this module
//! generates a qualitatively similar spread of satisfiable and unsatisfiable,
//! random and structured formulas:
//!
//! * random 3-SAT at a configurable clause/variable ratio,
//! * pigeonhole principle instances (canonically unsatisfiable),
//! * XOR / parity chains (hard for resolution, easy with GF(2) reasoning —
//!   the kind of structure Bosphorus's ANF detour can exploit),
//! * random graph k-colouring,
//! * bounded-model-checking style unrollings of a small counter circuit.

use bosphorus_cnf::{CnfFormula, Lit};
use rand::seq::SliceRandom;
use rand::Rng;

/// The CNF benchmark families of the synthetic suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnfFamily {
    /// Random 3-SAT with the given number of variables and a clause/variable
    /// ratio near the phase transition.
    Random3Sat {
        /// Number of variables.
        vars: usize,
        /// Number of clauses.
        clauses: usize,
    },
    /// `pigeons` pigeons into `pigeons - 1` holes (unsatisfiable).
    Pigeonhole {
        /// Number of pigeons.
        pigeons: usize,
    },
    /// A chain of XOR constraints with a parity contradiction toggle.
    XorChain {
        /// Number of variables in the chain.
        length: usize,
        /// When `true` the chain's total parity is contradictory (UNSAT).
        contradictory: bool,
    },
    /// Random graph k-colouring.
    GraphColouring {
        /// Number of graph vertices.
        vertices: usize,
        /// Number of edges.
        edges: usize,
        /// Number of colours.
        colours: usize,
    },
    /// Bounded model checking of a width-bit counter: asserts the counter
    /// reaches its maximum value within `steps` steps.
    CounterBmc {
        /// Counter width in bits.
        width: usize,
        /// Number of unrolled transition steps.
        steps: usize,
    },
}

/// Generates one CNF instance of the given family.
pub fn generate<R: Rng>(family: CnfFamily, rng: &mut R) -> CnfFormula {
    match family {
        CnfFamily::Random3Sat { vars, clauses } => random_3sat(vars, clauses, rng),
        CnfFamily::Pigeonhole { pigeons } => pigeonhole(pigeons),
        CnfFamily::XorChain {
            length,
            contradictory,
        } => xor_chain(length, contradictory, rng),
        CnfFamily::GraphColouring {
            vertices,
            edges,
            colours,
        } => graph_colouring(vertices, edges, colours, rng),
        CnfFamily::CounterBmc { width, steps } => counter_bmc(width, steps),
    }
}

/// A balanced default suite: a mix of satisfiable and unsatisfiable,
/// structured and random instances, sized by `scale` (1 = tiny).
pub fn default_suite(scale: usize) -> Vec<CnfFamily> {
    let scale = scale.max(1);
    vec![
        CnfFamily::Random3Sat {
            vars: 20 * scale,
            clauses: 80 * scale,
        },
        CnfFamily::Random3Sat {
            vars: 20 * scale,
            clauses: 91 * scale,
        },
        CnfFamily::Pigeonhole { pigeons: 4 + scale },
        CnfFamily::XorChain {
            length: 24 * scale,
            contradictory: false,
        },
        CnfFamily::XorChain {
            length: 24 * scale,
            contradictory: true,
        },
        CnfFamily::GraphColouring {
            vertices: 10 * scale,
            edges: 20 * scale,
            colours: 3,
        },
        CnfFamily::CounterBmc {
            width: 3 + scale,
            steps: 4 * scale,
        },
    ]
}

fn random_3sat<R: Rng>(vars: usize, clauses: usize, rng: &mut R) -> CnfFormula {
    assert!(vars >= 3, "need at least three variables");
    let mut cnf = CnfFormula::new(vars);
    for _ in 0..clauses {
        let mut chosen: Vec<u32> = (0..vars as u32).collect();
        chosen.shuffle(rng);
        cnf.add_clause(chosen[..3].iter().map(|&v| Lit::new(v, rng.gen())));
    }
    cnf
}

fn pigeonhole(pigeons: usize) -> CnfFormula {
    assert!(pigeons >= 2, "need at least two pigeons");
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| (p * holes + h) as u32;
    let mut cnf = CnfFormula::new(pigeons * holes);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
            }
        }
    }
    cnf
}

fn xor_chain<R: Rng>(length: usize, contradictory: bool, rng: &mut R) -> CnfFormula {
    assert!(length >= 3, "need at least three variables");
    let mut cnf = CnfFormula::new(length);
    // x_i ⊕ x_{i+1} = c_i encoded as two binary clauses each.
    let mut total = false;
    for i in 0..length - 1 {
        let c: bool = rng.gen();
        total ^= c;
        let (a, b) = (i as u32, (i + 1) as u32);
        if c {
            cnf.add_clause([Lit::positive(a), Lit::positive(b)]);
            cnf.add_clause([Lit::negative(a), Lit::negative(b)]);
        } else {
            cnf.add_clause([Lit::positive(a), Lit::negative(b)]);
            cnf.add_clause([Lit::negative(a), Lit::positive(b)]);
        }
    }
    // Close the chain: x_0 ⊕ x_{last} must equal `total` for consistency;
    // flip it to make the instance contradictory.
    let closing = total ^ contradictory;
    let (a, b) = (0u32, (length - 1) as u32);
    if closing {
        cnf.add_clause([Lit::positive(a), Lit::positive(b)]);
        cnf.add_clause([Lit::negative(a), Lit::negative(b)]);
    } else {
        cnf.add_clause([Lit::positive(a), Lit::negative(b)]);
        cnf.add_clause([Lit::negative(a), Lit::positive(b)]);
    }
    cnf
}

fn graph_colouring<R: Rng>(
    vertices: usize,
    edges: usize,
    colours: usize,
    rng: &mut R,
) -> CnfFormula {
    assert!(vertices >= 2 && colours >= 2);
    let var = |v: usize, c: usize| (v * colours + c) as u32;
    let mut cnf = CnfFormula::new(vertices * colours);
    for v in 0..vertices {
        cnf.add_clause((0..colours).map(|c| Lit::positive(var(v, c))));
        for c1 in 0..colours {
            for c2 in (c1 + 1)..colours {
                cnf.add_clause([Lit::negative(var(v, c1)), Lit::negative(var(v, c2))]);
            }
        }
    }
    for _ in 0..edges {
        let a = rng.gen_range(0..vertices);
        let mut b = rng.gen_range(0..vertices);
        if a == b {
            b = (b + 1) % vertices;
        }
        for c in 0..colours {
            cnf.add_clause([Lit::negative(var(a, c)), Lit::negative(var(b, c))]);
        }
    }
    cnf
}

/// A `width`-bit counter incremented each step; the property asserts that the
/// all-ones value is reached by step `steps`. Satisfiable exactly when
/// `steps + 1 >= 2^width` is not required — the instance asks the solver to
/// find an initial value from which the all-ones state is reached, which is
/// always possible, so these instances are satisfiable but require real
/// propagation through the unrolled circuit.
fn counter_bmc(width: usize, steps: usize) -> CnfFormula {
    assert!(width >= 1 && steps >= 1);
    // Variable layout: state bit b at time t is  t*width + b; carry bits are
    // appended after all state variables.
    let state = |t: usize, b: usize| (t * width + b) as u32;
    let mut cnf = CnfFormula::new((steps + 1) * width);
    let mut carry_var = ((steps + 1) * width) as u32;
    for t in 0..steps {
        // next = state + 1 (ripple carry); carry_0 = 1 conceptually.
        let mut carry_lit: Option<Lit> = None; // None means constant 1
        for b in 0..width {
            let x = state(t, b);
            let y = state(t + 1, b);
            match carry_lit {
                None => {
                    // y = x ⊕ 1  -> y ↔ ¬x.
                    cnf.add_clause([Lit::positive(y), Lit::positive(x)]);
                    cnf.add_clause([Lit::negative(y), Lit::negative(x)]);
                    if b + 1 < width {
                        // next carry = x.
                        carry_lit = Some(Lit::positive(x));
                    }
                }
                Some(c) => {
                    // y = x ⊕ c: four clauses of the XOR relation.
                    cnf.add_clause([Lit::negative(y), Lit::positive(x), c]);
                    cnf.add_clause([Lit::negative(y), Lit::negative(x), !c]);
                    cnf.add_clause([Lit::positive(y), Lit::negative(x), c]);
                    cnf.add_clause([Lit::positive(y), Lit::positive(x), !c]);
                    if b + 1 < width {
                        // new carry z ↔ x ∧ c.
                        let z = carry_var;
                        carry_var += 1;
                        cnf.ensure_num_vars(z as usize + 1);
                        cnf.add_clause([Lit::negative(z), Lit::positive(x)]);
                        cnf.add_clause([Lit::negative(z), c]);
                        cnf.add_clause([Lit::positive(z), Lit::negative(x), !c]);
                        carry_lit = Some(Lit::positive(z));
                    }
                }
            }
        }
    }
    // Property: the final state is all ones.
    for b in 0..width {
        cnf.add_clause([Lit::positive(state(steps, b))]);
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosphorus_sat::{SolveResult, Solver, SolverConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solve(cnf: &CnfFormula) -> SolveResult {
        let mut solver = Solver::from_formula(SolverConfig::aggressive(), cnf);
        solver.solve()
    }

    #[test]
    fn pigeonhole_is_unsat() {
        assert_eq!(solve(&pigeonhole(4)), SolveResult::Unsat);
        assert_eq!(solve(&pigeonhole(5)), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_satisfiability_matches_parity() {
        let mut rng = StdRng::seed_from_u64(5);
        let sat = xor_chain(12, false, &mut rng);
        let unsat = xor_chain(12, true, &mut rng);
        assert_eq!(solve(&sat), SolveResult::Sat);
        assert_eq!(solve(&unsat), SolveResult::Unsat);
    }

    #[test]
    fn counter_bmc_is_satisfiable_and_constrained() {
        let cnf = counter_bmc(3, 4);
        let mut solver = Solver::from_formula(SolverConfig::aggressive(), &cnf);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let model = solver.model().expect("model").to_vec();
        // The final state must be all ones.
        for b in 0..3 {
            assert!(model[4 * 3 + b]);
        }
        // Each step increments the counter by one modulo 8.
        let value = |t: usize| (0..3).fold(0u32, |acc, b| acc | (u32::from(model[t * 3 + b]) << b));
        for t in 0..4 {
            assert_eq!((value(t) + 1) % 8, value(t + 1) % 8, "step {t}");
        }
    }

    #[test]
    fn random_3sat_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let cnf = random_3sat(30, 100, &mut rng);
        assert_eq!(cnf.num_vars(), 30);
        assert_eq!(cnf.num_clauses(), 100);
        assert!(cnf.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn graph_colouring_with_no_edges_is_sat() {
        let mut rng = StdRng::seed_from_u64(2);
        let cnf = graph_colouring(6, 0, 3, &mut rng);
        assert_eq!(solve(&cnf), SolveResult::Sat);
    }

    #[test]
    fn default_suite_is_diverse() {
        let suite = default_suite(1);
        assert!(suite.len() >= 6);
        let mut rng = StdRng::seed_from_u64(3);
        for family in suite {
            let cnf = generate(family, &mut rng);
            assert!(cnf.num_clauses() > 0);
            assert!(cnf.num_vars() > 0);
        }
    }
}
