//! ANF → CNF conversion (Section III-C of the paper).
//!
//! Every ANF monomial gets (at most) one auxiliary CNF variable, tracked in a
//! bidirectional map. Determined variables become unit clauses, equivalences
//! become two binary clauses, and each polynomial is either converted through
//! the Karnaugh-map minimiser (when its support has at most `K` variables) or
//! through an XOR/Tseitin encoding: monomials are replaced by their auxiliary
//! variables, the resulting XOR is cut into pieces of at most `L` terms
//! ([`XOR_CUT_LENGTH`]), and each piece is expanded into its 2^(l−1)
//! clauses.
//!
//! Every XOR piece — a cut piece, or a linear polynomial on the Karnaugh
//! path — is also recorded as one native constraint with the range of its
//! clause block. A solver with XOR reasoning takes the constraint in place
//! of the block ([`CnfConversion::solver`]); the CNF itself is the paper's.

use std::collections::BTreeMap;
use std::ops::Range;

use bosphorus_anf::{Monomial, MonomialInterner, Polynomial, PolynomialSystem, Var};
use bosphorus_cnf::{CnfFormula, CnfVar, Lit};
use bosphorus_sat::{Solver, SolverConfig, XorConstraint};

use crate::minimize::KarnaughCache;
use crate::{BosphorusConfig, XOR_CUT_LENGTH};
use bosphorus_anf::{AnfPropagator, VarKnowledge};

/// The product of an ANF → CNF conversion.
///
/// Besides the formula itself, the conversion records which ANF monomial
/// each CNF variable stands for (the CNF → ANF half of the bidirectional map
/// of Section III-C), so that facts learnt on the CNF side can be translated
/// back into ANF.
#[derive(Debug, Clone)]
pub struct CnfConversion {
    /// The CNF formula.
    pub cnf: CnfFormula,
    /// Monomial represented by each CNF variable that has an ANF meaning.
    /// CNF variables introduced purely for XOR cutting do not appear here
    /// (the paper: auxiliary variables "do not participate in learnt facts").
    pub monomial_of_var: BTreeMap<CnfVar, Monomial>,
    /// The XOR pieces of the encoding, in clause order. Always recorded;
    /// [`CnfConversion::solver`] hands them over, in place of their clause
    /// blocks, only when the solver configuration enables XOR reasoning.
    pub xors: Vec<XorPiece>,
    /// Number of clauses produced through the Karnaugh-map path.
    pub karnaugh_clauses: usize,
    /// Number of clauses produced through the Tseitin/XOR path.
    pub tseitin_clauses: usize,
}

/// One XOR piece of an encoding: `⊕ vars = rhs` with n ≥ 1 variables, and
/// the 2^(n−1) clauses that spell it out in the CNF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorPiece {
    /// The piece as a native constraint.
    pub xor: XorConstraint,
    /// Its clause block, as indices into [`CnfConversion::cnf`]'s clauses.
    pub clauses: Range<usize>,
}

impl CnfConversion {
    /// A solver loaded with the encoding. With XOR reasoning enabled it
    /// receives each XOR piece as one native constraint instead of its
    /// clause block, so no piece is encoded twice; otherwise it receives
    /// the CNF as is. This is the one place that decides which XORs a
    /// solver receives.
    pub fn solver(&self, solver_config: &SolverConfig) -> Solver {
        if !solver_config.xor_reasoning {
            return Solver::from_formula(solver_config.clone(), &self.cnf);
        }
        let mut solver = Solver::new(solver_config.clone());
        solver.new_vars(self.cnf.num_vars());
        let clauses = self.cnf.clauses();
        let mut next = 0;
        for piece in &self.xors {
            for clause in &clauses[next..piece.clauses.start] {
                solver.add_clause(clause.iter().copied());
            }
            solver.add_xor(piece.xor.clone());
            next = piece.clauses.end;
        }
        for clause in &clauses[next..] {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// The ANF monomial behind a CNF variable, if it has one.
    pub fn monomial(&self, var: CnfVar) -> Option<&Monomial> {
        self.monomial_of_var.get(&var)
    }

    /// Translates a CNF literal into the ANF fact it asserts, when the
    /// literal's variable has an ANF meaning: `m ⊕ 1` for a positive literal
    /// (the monomial is 1) and `m` for a negative literal (the monomial
    /// is 0).
    pub fn literal_fact(&self, lit: Lit) -> Option<Polynomial> {
        let monomial = self.monomial(lit.var())?.clone();
        let mut fact = Polynomial::from_monomial(monomial);
        if lit.is_positive() {
            fact += &Polynomial::one();
        }
        Some(fact)
    }
}

/// Converts a (propagated) polynomial system to CNF.
///
/// `propagator` supplies the determined variables and equivalence literals
/// accumulated so far; they are encoded as unit and binary clauses exactly as
/// described in the paper. Pass a fresh propagator when no such knowledge
/// exists.
pub fn anf_to_cnf(
    system: &PolynomialSystem,
    propagator: &AnfPropagator,
    config: &BosphorusConfig,
) -> CnfConversion {
    let mut converter = Converter::new(system.num_vars(), config.karnaugh_vars);
    for var in 0..system.num_vars() as Var {
        converter.encode_knowledge(var, propagator.knowledge(var));
    }
    for poly in system.iter() {
        converter.convert_polynomial(poly);
    }
    converter.finish()
}

/// The encoding engine behind [`anf_to_cnf`], finished into a
/// [`CnfConversion`].
struct Converter {
    cnf: CnfFormula,
    karnaugh_vars: usize,
    /// Monomial → dense id (each distinct monomial stored once); the hot
    /// lookup of the conversion. The public `BTreeMap` of
    /// [`CnfConversion`] is materialised once in [`Converter::finish`].
    interner: MonomialInterner,
    /// Interner id → the CNF variable standing for that monomial.
    var_of_id: Vec<CnfVar>,
    xors: Vec<XorPiece>,
    /// Karnaugh covers chosen so far, by truth table.
    covers: KarnaughCache,
    karnaugh_clauses: usize,
    tseitin_clauses: usize,
}

impl Converter {
    fn new(num_anf_vars: usize, karnaugh_vars: usize) -> Self {
        let mut interner = MonomialInterner::with_capacity(num_anf_vars * 2);
        let mut var_of_id = Vec::with_capacity(num_anf_vars);
        // ANF variable x_i is CNF variable i; record the identity mapping so
        // facts about plain variables translate back.
        for v in 0..num_anf_vars as Var {
            let id = interner.intern(&Monomial::variable(v));
            debug_assert_eq!(id as usize, var_of_id.len());
            var_of_id.push(v as CnfVar);
        }
        Converter {
            cnf: CnfFormula::new(num_anf_vars),
            karnaugh_vars,
            interner,
            var_of_id,
            xors: Vec::new(),
            covers: KarnaughCache::default(),
            karnaugh_clauses: 0,
            tseitin_clauses: 0,
        }
    }

    /// Encodes one variable's propagation knowledge: determined variables
    /// become unit clauses, equivalences two binary clauses — (x ∨ y)(¬x ∨ ¬y)
    /// for x = ¬y, (x ∨ ¬y)(¬x ∨ y) for x = y.
    fn encode_knowledge(&mut self, var: Var, knowledge: VarKnowledge) {
        match knowledge {
            VarKnowledge::Free => {}
            VarKnowledge::Value(value) => {
                self.cnf.add_clause([Lit::new(var, !value)]);
            }
            VarKnowledge::Equivalent { other, negated } => {
                self.cnf
                    .add_clause([Lit::positive(var), Lit::new(other, !negated)]);
                self.cnf
                    .add_clause([Lit::negative(var), Lit::new(other, negated)]);
            }
        }
    }

    /// The CNF variable standing for a monomial, creating it (together with
    /// its AND-definition clauses) on first use.
    fn monomial_var(&mut self, monomial: &Monomial) -> CnfVar {
        let id = self.interner.intern(monomial) as usize;
        if id < self.var_of_id.len() {
            return self.var_of_id[id];
        }
        debug_assert!(monomial.degree() >= 2, "degree-1 monomials are pre-mapped");
        let aux = self.cnf.new_var();
        // aux ↔ x_{i1} ∧ … ∧ x_{ip}
        for &v in monomial.vars() {
            self.cnf
                .add_clause([Lit::negative(aux), Lit::positive(v as CnfVar)]);
        }
        let mut long: Vec<Lit> = monomial
            .vars()
            .iter()
            .map(|&v| Lit::negative(v as CnfVar))
            .collect();
        long.push(Lit::positive(aux));
        self.cnf.add_clause(long);
        debug_assert_eq!(id, self.var_of_id.len(), "ids are assigned densely");
        self.var_of_id.push(aux);
        aux
    }

    fn convert_polynomial(&mut self, poly: &Polynomial) {
        if poly.is_zero() {
            return;
        }
        if poly.is_one() {
            self.cnf.push_clause(bosphorus_cnf::Clause::empty());
            return;
        }
        // Karnaugh path: small support, no auxiliary variables.
        if let Some(clauses) = self.covers.clauses(poly, self.karnaugh_vars) {
            self.karnaugh_clauses += clauses.len();
            let start = self.cnf.num_clauses();
            for c in clauses {
                self.cnf.push_clause(c);
            }
            // A parity function has no two adjacent minterms, so the cover
            // of a linear polynomial is exactly its XOR block.
            if let Some((vars, constant)) = poly.as_linear() {
                let xor = XorConstraint::new(vars.iter().map(|&v| v as CnfVar), constant);
                let clauses = start..self.cnf.num_clauses();
                debug_assert_eq!(clauses.len(), 1 << (xor.len() - 1));
                self.xors.push(XorPiece { xor, clauses });
            }
            return;
        }
        // Tseitin path: replace monomials by their CNF variables, then cut
        // the XOR into pieces of at most L terms.
        let mut terms: Vec<CnfVar> = Vec::new();
        let mut constant = false;
        for m in poly.monomials() {
            if m.is_one() {
                constant = !constant;
            } else if m.degree() == 1 {
                terms.push(m.vars()[0] as CnfVar);
            } else {
                let v = self.monomial_var(m);
                terms.push(v);
            }
        }
        self.encode_xor(terms, constant);
    }

    /// Encodes `t_1 ⊕ … ⊕ t_n = constant` (over CNF variables), cutting into
    /// chunks of at most `L` terms with fresh auxiliary variables.
    fn encode_xor(&mut self, mut terms: Vec<CnfVar>, constant: bool) {
        while terms.len() > XOR_CUT_LENGTH {
            // Take (L - 1) terms plus a fresh auxiliary output variable:
            // t_1 ⊕ … ⊕ t_{L-1} ⊕ aux = 0, and aux replaces them.
            let chunk: Vec<CnfVar> = terms.drain(..XOR_CUT_LENGTH - 1).collect();
            let aux = self.cnf.new_var();
            let mut piece = chunk.clone();
            piece.push(aux);
            self.emit_xor_clauses(&piece, false);
            terms.insert(0, aux);
        }
        self.emit_xor_clauses(&terms, constant);
    }

    /// Emits the 2^(n−1) CNF clauses of `v_1 ⊕ … ⊕ v_n = rhs`.
    fn emit_xor_clauses(&mut self, vars: &[CnfVar], rhs: bool) {
        if vars.is_empty() {
            if rhs {
                self.cnf.push_clause(bosphorus_cnf::Clause::empty());
            }
            return;
        }
        let start = self.cnf.num_clauses();
        let n = vars.len();
        for pattern in 0u32..(1 << n) {
            // Forbid every assignment whose parity differs from rhs.
            let parity = (pattern.count_ones() % 2 == 1) != rhs;
            if !parity {
                continue;
            }
            let clause = bosphorus_cnf::Clause::from_lits(
                (0..n).map(|i| Lit::new(vars[i], (pattern >> i) & 1 == 1)),
            );
            self.tseitin_clauses += 1;
            self.cnf.push_clause(clause);
        }
        self.xors.push(XorPiece {
            xor: XorConstraint::new(vars.iter().copied(), rhs),
            clauses: start..self.cnf.num_clauses(),
        });
    }

    fn finish(self) -> CnfConversion {
        // Materialise the public map from the interner: one pass, one clone
        // per distinct monomial.
        let mut monomial_of_var = BTreeMap::new();
        for (id, monomial) in self.interner.monomials().iter().enumerate() {
            monomial_of_var.insert(self.var_of_id[id], monomial.clone());
        }
        CnfConversion {
            cnf: self.cnf,
            monomial_of_var,
            xors: self.xors,
            karnaugh_clauses: self.karnaugh_clauses,
            tseitin_clauses: self.tseitin_clauses,
        }
    }
}

/// Counts the clauses a pure Tseitin-style conversion of `poly` would
/// produce, without the Karnaugh-map path. Used by the Fig. 2 reproduction to
/// compare the two approaches on the same polynomial.
pub fn tseitin_clause_count(poly: &Polynomial) -> usize {
    let num_vars = PolynomialSystem::from_polynomials([poly.clone()]).num_vars();
    // K = 0 disables the Karnaugh route.
    let mut converter = Converter::new(num_vars, 0);
    converter.convert_polynomial(poly);
    converter.finish().cnf.num_clauses()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosphorus_sat::SolveResult;

    fn config() -> BosphorusConfig {
        BosphorusConfig::default()
    }

    fn convert(text: &str) -> (PolynomialSystem, CnfConversion) {
        let system = PolynomialSystem::parse(text).expect("test system parses");
        let propagator = AnfPropagator::new(system.num_vars());
        let conversion = anf_to_cnf(&system, &propagator, &config());
        (system, conversion)
    }

    /// The CNF variable standing for `monomial`.
    fn var_of(conversion: &CnfConversion, monomial: &Monomial) -> CnfVar {
        conversion
            .monomial_of_var
            .iter()
            .find(|(_, m)| *m == monomial)
            .map(|(&var, _)| var)
            .expect("the monomial has a CNF variable")
    }

    /// Exhaustively checks that the CNF is equisatisfiable with the ANF and
    /// model-preserving on the original variables.
    fn assert_faithful(system: &PolynomialSystem, conversion: &CnfConversion) {
        let n = system.num_vars();
        let cnf = &conversion.cnf;
        for bits in 0u64..(1 << n) {
            let anf_assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
            let anf_ok = system
                .iter()
                .all(|p| !p.evaluate(|v| anf_assign[v as usize]));
            // Extend to the CNF variables: monomial variables take the value
            // of their monomial; cutting auxiliaries are searched over.
            let mut forced: Vec<Option<bool>> = vec![None; cnf.num_vars()];
            for (i, &b) in anf_assign.iter().enumerate() {
                forced[i] = Some(b);
            }
            for (&v, m) in &conversion.monomial_of_var {
                forced[v as usize] = Some(m.evaluate(|w| anf_assign[w as usize]));
            }
            let free: Vec<usize> = (0..cnf.num_vars())
                .filter(|&i| forced[i].is_none())
                .collect();
            let mut cnf_ok = false;
            for aux_bits in 0u64..(1 << free.len()) {
                let mut full: Vec<bool> = forced.iter().map(|o| o.unwrap_or(false)).collect();
                for (j, &idx) in free.iter().enumerate() {
                    full[idx] = (aux_bits >> j) & 1 == 1;
                }
                if cnf.evaluate(&full) == Ok(true) {
                    cnf_ok = true;
                    break;
                }
            }
            assert_eq!(
                anf_ok, cnf_ok,
                "ANF/CNF disagree on assignment {bits:b} of {system:?}"
            );
        }
    }

    /// Converts `system` like [`anf_to_cnf`] but with a fresh cover memo
    /// for every polynomial — the reference the memoised conversion must
    /// reproduce.
    fn convert_without_memo(system: &PolynomialSystem, karnaugh_vars: usize) -> CnfConversion {
        let mut converter = Converter::new(system.num_vars(), karnaugh_vars);
        for poly in system.iter() {
            converter.covers = KarnaughCache::default();
            converter.convert_polynomial(poly);
        }
        converter.finish()
    }

    #[test]
    fn memoised_covers_convert_clause_for_clause() {
        use bosphorus_ciphers::{aes, bitcoin, simon};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(2019);
        let simon_params = simon::SimonParams {
            num_plaintexts: 2,
            rounds: 4,
        };
        let bitcoin_params = bitcoin::BitcoinParams {
            difficulty: 8,
            rounds: 16,
        };
        for (name, system) in [
            (
                "Simon-[2,4]",
                simon::generate(simon_params, &mut rng).system,
            ),
            (
                "SR-[1,2,2,4]",
                aes::generate(aes::AesParams::small(1), &mut rng).system,
            ),
            (
                "Bitcoin-[8,16]",
                bitcoin::generate(bitcoin_params, &mut rng).system,
            ),
        ] {
            let config = config();
            let propagator = AnfPropagator::new(system.num_vars());
            let memo = anf_to_cnf(&system, &propagator, &config);
            let mut converter = Converter::new(system.num_vars(), config.karnaugh_vars);
            for poly in system.iter() {
                converter.convert_polynomial(poly);
            }
            let karnaugh_polys = system
                .iter()
                .filter(|p| p.variables().len() <= config.karnaugh_vars)
                .count();
            assert!(
                converter.covers.tables() < karnaugh_polys,
                "{name}: the memo is hit ({} tables, {karnaugh_polys} polynomials)",
                converter.covers.tables()
            );
            let fresh = convert_without_memo(&system, config.karnaugh_vars);
            assert!(memo.karnaugh_clauses > 0, "{name}");
            assert_eq!(memo.cnf, fresh.cnf, "{name}: clauses differ");
            assert_eq!(memo.xors, fresh.xors, "{name}: XORs differ");
            assert_eq!(memo.karnaugh_clauses, fresh.karnaugh_clauses, "{name}");
            assert_eq!(memo.tseitin_clauses, fresh.tseitin_clauses, "{name}");
        }
    }

    #[test]
    fn small_polynomials_use_karnaugh_and_are_faithful() {
        let (system, conversion) = convert("x0*x1 + x2 + 1; x0 + x2;");
        assert!(conversion.karnaugh_clauses > 0);
        assert_eq!(conversion.tseitin_clauses, 0);
        assert_faithful(&system, &conversion);
    }

    #[test]
    fn wide_xor_uses_tseitin_and_is_faithful() {
        // Eleven variables exceed K = 8, forcing the XOR path with cutting.
        let (system, conversion) =
            convert("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + 1;");
        assert!(conversion.tseitin_clauses > 0);
        assert!(
            conversion.cnf.num_vars() > system.num_vars(),
            "XOR cutting introduces auxiliary variables"
        );
        assert_faithful(&system, &conversion);
    }

    #[test]
    fn high_degree_monomials_get_auxiliary_variables() {
        // Ten distinct variables in one polynomial forces the Tseitin path;
        // the degree-3 monomial gets a definition variable.
        let (system, conversion) = convert("x0*x1*x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9;");
        let m = Monomial::from_vars([0, 1, 2]);
        let v = var_of(&conversion, &m);
        assert_eq!(conversion.monomial(v), Some(&m));
        assert_faithful(&system, &conversion);
    }

    #[test]
    fn determined_variables_and_equivalences_become_clauses() {
        let system = PolynomialSystem::parse("x0*x3 + x1;").expect("parses");
        let mut propagator = AnfPropagator::new(system.num_vars());
        propagator.assign(2, true);
        propagator.equate(0, 1, true);
        let conversion = anf_to_cnf(&system, &propagator, &config());
        // x2 = 1 appears as a unit clause.
        assert!(conversion
            .cnf
            .clauses()
            .iter()
            .any(|c| c.is_unit() && c.contains(Lit::positive(2))));
        // The equivalence contributes two binary clauses.
        assert!(
            conversion
                .cnf
                .clauses()
                .iter()
                .filter(|c| c.is_binary())
                .count()
                >= 2
        );
    }

    #[test]
    fn fig2_karnaugh_beats_tseitin() {
        let poly: Polynomial = "x1*x3 + x1 + x2 + x4 + 1".parse().expect("parses");
        let system = PolynomialSystem::from_polynomials([poly.clone()]);
        let propagator = AnfPropagator::new(system.num_vars());
        let karnaugh = anf_to_cnf(&system, &propagator, &config());
        let tseitin_count = tseitin_clause_count(&poly);
        assert_eq!(karnaugh.cnf.num_clauses(), 6, "Fig. 2 left-hand side");
        assert_eq!(tseitin_count, 11, "Fig. 2 right-hand side");
        assert!(karnaugh.cnf.num_clauses() < tseitin_count);
    }

    #[test]
    fn literal_fact_translation() {
        let (_, conversion) = convert("x0*x1*x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9;");
        let m = Monomial::from_vars([0, 1, 2]);
        let v = var_of(&conversion, &m);
        assert_eq!(
            conversion.literal_fact(Lit::positive(v)),
            Some("x0*x1*x2 + 1".parse().expect("parses"))
        );
        assert_eq!(
            conversion.literal_fact(Lit::negative(v)),
            Some("x0*x1*x2".parse().expect("parses"))
        );
        assert_eq!(
            conversion.literal_fact(Lit::positive(3)),
            Some("x3 + 1".parse().expect("parses"))
        );
    }

    #[test]
    fn contradiction_produces_empty_clause() {
        let (_, conversion) = convert("1;");
        assert!(conversion.cnf.has_empty_clause());
    }

    #[test]
    fn xor_constraints_emitted_when_requested() {
        // The default conversion records the XOR pieces of a long linear
        // equation; a solver receives them exactly when its configuration
        // asks for XOR reasoning.
        let (system, conversion) = convert("x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + 1;");
        assert!(!conversion.xors.is_empty());
        for (solver_config, delivered) in [
            (SolverConfig::xor_gauss(), true),
            (SolverConfig::aggressive(), false),
        ] {
            let mut solver = conversion.solver(&solver_config);
            assert_eq!(solver.solve(), SolveResult::Sat);
            assert_eq!(solver.stats().xor_gauss_rounds > 0, delivered);
            let model = solver.model().expect("model");
            assert!(system.iter().all(|p| !p.evaluate(|v| model[v as usize])));
        }
    }

    #[test]
    fn an_xor_solver_takes_each_piece_instead_of_its_clause_block() {
        // A long XOR (Tseitin pieces of at most L terms), a nonlinear
        // polynomial (Karnaugh, no piece) and a 2-variable linear one
        // (Karnaugh, one piece). No clause is a unit, so the solver keeps
        // every clause it is given.
        let (_, conversion) = convert(
            "x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + 1;
             x0*x1 + x2 + x3;
             x1 + x4 + 1;",
        );
        let lengths: Vec<usize> = conversion.xors.iter().map(|p| p.xor.len()).collect();
        assert!(
            lengths.len() > 2 && lengths.contains(&2),
            "pieces {lengths:?}"
        );
        let mut next = 0;
        for piece in &conversion.xors {
            assert!(piece.clauses.start >= next, "blocks in clause order");
            assert_eq!(piece.clauses.len(), 1 << (piece.xor.len() - 1));
            next = piece.clauses.end;
        }
        let block_clauses: usize = conversion.xors.iter().map(|p| p.clauses.len()).sum();
        let cnf_clauses = conversion.cnf.num_clauses();
        assert!(conversion.cnf.clauses().iter().all(|c| c.len() >= 2));

        let solver = conversion.solver(&SolverConfig::xor_gauss());
        assert_eq!(solver.num_clauses(), cnf_clauses - block_clauses);
        assert_eq!(solver.num_xors(), conversion.xors.len());
        let solver = conversion.solver(&SolverConfig::aggressive());
        assert_eq!(solver.num_clauses(), cnf_clauses);
        assert_eq!(solver.num_xors(), 0);
    }

    #[test]
    fn converted_instance_is_solvable_end_to_end() {
        // The Section II-E system converted to CNF must be satisfiable, and
        // the model restricted to the original variables must satisfy the ANF.
        let (system, conversion) = convert(
            "x1*x2 + x3 + x4 + 1;
             x1*x2*x3 + x1 + x3 + 1;
             x1*x3 + x3*x4*x5 + x3;
             x2*x3 + x3*x5 + 1;
             x2*x3 + x5 + 1;",
        );
        let mut solver = Solver::from_formula(SolverConfig::aggressive(), &conversion.cnf);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let model = solver.model().expect("model");
        let anf_satisfied = system.iter().all(|p| !p.evaluate(|v| model[v as usize]));
        assert!(anf_satisfied);
        // The paper's unique solution: x1..x4 = 1, x5 = 0.
        assert!(model[1] && model[2] && model[3] && model[4] && !model[5]);
    }
}
