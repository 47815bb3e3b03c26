//! The three workloads: instance generation from the seed, serialised to the
//! text the programs under test receive, plus the ground truth the answer
//! check needs.

use bosphorus_anf::Assignment;
use bosphorus_ciphers::{aes, bitcoin, satcomp, simon};
use bosphorus_cnf::CnfFormula;
use bosphorus_sat::{SolveResult, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const WORKLOADS: [&str; 3] = ["loop-simon28", "table2-mix", "small-mix"];

/// An input as the program under test receives it.
pub enum Source {
    Anf(String),
    Cnf(String),
}

/// How a job runs its instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Table II "w/o": convert straight to CNF and run the capped solve.
    Direct,
    /// Table II "w": preprocess, convert the result and run the capped solve.
    With,
    /// Preprocess to the fixed point and emit the processed CNF; no solve.
    Preprocess,
}

pub struct Instance {
    pub family: String,
    pub source: Source,
    /// The known answer: the cipher instances are satisfiable by
    /// construction, the CNF families state theirs.
    pub satisfiable: bool,
    /// A satisfying assignment from the generator, which every learnt fact
    /// must vanish on.
    pub witness: Option<Assignment>,
}

pub struct Workload {
    pub instances: Vec<Instance>,
    /// `(instance index, arm)` in run order.
    pub jobs: Vec<(usize, Arm)>,
}

impl Workload {
    /// Everything a run's inputs consist of, to compare two set-ups.
    pub fn digest(&self) -> Vec<u8> {
        let mut digest = Vec::new();
        for instance in &self.instances {
            let (Source::Anf(text) | Source::Cnf(text)) = &instance.source;
            digest.extend_from_slice(text.as_bytes());
            digest.push(u8::from(instance.satisfiable));
        }
        digest
    }
}

/// Generates `name` from `seed`. `smoke` selects the reduced-size variant.
pub fn generate(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instances = Vec::new();
    let arms: &[Arm] = match name {
        "loop-simon28" => {
            let rounds = if smoke { 4 } else { 8 };
            for index in 0..if smoke { 1 } else { 3 } {
                let instance = simon::generate(simon_params(2, rounds), &mut rng);
                let mut text = instance.system.to_string();
                if index == 0 {
                    // The header matches `examples/dump_simon.rs`, so the first
                    // instance of seed 7 is `examples/instances/simon_2_8.anf`
                    // byte for byte.
                    text = format!(
                        "# Simon-[2,{rounds}] (seed {seed}): {} equations over {} variables\n{text}",
                        instance.system.len(),
                        instance.system.num_vars(),
                    );
                }
                instances.push(anf(format!("Simon-[2,{rounds}]"), text, instance.witness));
            }
            &[Arm::Preprocess]
        }
        "table2-mix" => {
            let copies = if smoke { 1 } else { 3 };
            for copy in 0..copies {
                for _ in 0..if smoke { 1 } else { 28 } {
                    instances.push(simon_instance(4, 5, &mut rng));
                }
                for _ in 0..2 {
                    instances.push(sr_instance(1, &mut rng));
                }
                // One Bitcoin instance only: its two arms take 0.1 s to 1.2 s
                // between seeds, more than any other instance of the mix.
                if copy == 0 {
                    instances.push(bitcoin_instance(&mut rng));
                }
                push_satcomp(&mut instances, 1, &mut rng);
            }
            &[Arm::Direct, Arm::With]
        }
        "small-mix" => {
            for _ in 0..if smoke { 1 } else { 5 } {
                for _ in 0..14 {
                    instances.push(sr_instance(1, &mut rng));
                }
                for rounds in 3..=5 {
                    instances.push(simon_instance(2, rounds, &mut rng));
                }
                push_satcomp(&mut instances, 1, &mut rng);
            }
            &[Arm::With]
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let jobs = (0..instances.len())
        .flat_map(|index| arms.iter().map(move |&arm| (index, arm)))
        .collect();
    Ok(Workload { instances, jobs })
}

fn simon_params(num_plaintexts: usize, rounds: usize) -> simon::SimonParams {
    simon::SimonParams {
        num_plaintexts,
        rounds,
    }
}

fn anf(family: String, text: String, witness: Assignment) -> Instance {
    Instance {
        family,
        source: Source::Anf(text),
        satisfiable: true,
        witness: Some(witness),
    }
}

fn simon_instance(num_plaintexts: usize, rounds: usize, rng: &mut StdRng) -> Instance {
    let instance = simon::generate(simon_params(num_plaintexts, rounds), rng);
    let label = format!("Simon-[{num_plaintexts},{rounds}]");
    anf(label, instance.system.to_string(), instance.witness)
}

fn sr_instance(rounds: usize, rng: &mut StdRng) -> Instance {
    let instance = aes::generate(aes::AesParams::small(rounds), rng);
    anf(
        format!("SR-[{rounds},2,2,4]"),
        instance.system.to_string(),
        instance.witness,
    )
}

/// Bitcoin-[8] over 16 SHA-256 rounds.
fn bitcoin_instance(rng: &mut StdRng) -> Instance {
    let params = bitcoin::BitcoinParams {
        difficulty: 8,
        rounds: 16,
    };
    let instance = bitcoin::generate(params, rng);
    anf(
        "Bitcoin-[8,16]".to_string(),
        instance.system.to_string(),
        instance.encoding.witness,
    )
}

/// Appends the synthetic SAT-competition suite at `scale` as DIMACS text.
fn push_satcomp(instances: &mut Vec<Instance>, scale: usize, rng: &mut StdRng) {
    for family in satcomp::default_suite(scale) {
        let cnf = satcomp::generate(family, rng);
        instances.push(Instance {
            family: satcomp_label(family).to_string(),
            source: Source::Cnf(cnf.to_dimacs()),
            satisfiable: satcomp_answer(family, &cnf),
            witness: None,
        });
    }
}

fn satcomp_label(family: satcomp::CnfFamily) -> &'static str {
    match family {
        satcomp::CnfFamily::Random3Sat { .. } => "random-3sat",
        satcomp::CnfFamily::Pigeonhole { .. } => "pigeonhole",
        satcomp::CnfFamily::XorChain { .. } => "xor-chain",
        satcomp::CnfFamily::GraphColouring { .. } => "graph-colouring",
        satcomp::CnfFamily::CounterBmc { .. } => "counter-bmc",
    }
}

/// The answer each family states; the random families state none, so an
/// uncapped reference solve of the generated formula decides them.
fn satcomp_answer(family: satcomp::CnfFamily, cnf: &CnfFormula) -> bool {
    match family {
        satcomp::CnfFamily::Pigeonhole { .. } => false,
        satcomp::CnfFamily::XorChain { contradictory, .. } => !contradictory,
        satcomp::CnfFamily::CounterBmc { .. } => true,
        satcomp::CnfFamily::Random3Sat { .. } | satcomp::CnfFamily::GraphColouring { .. } => {
            let mut solver = Solver::from_formula(SolverConfig::minimal(), cnf);
            match solver.solve() {
                SolveResult::Sat => true,
                SolveResult::Unsat => false,
                SolveResult::Unknown => unreachable!("an uncapped solve always decides"),
            }
        }
    }
}
