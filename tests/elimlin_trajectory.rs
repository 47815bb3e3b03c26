//! Pins the ElimLin trajectory: rounds, eliminations and the exact fact
//! stream on fixed cipher systems.
//!
//! Every value below was recorded with the ElimLin that rescanned the
//! remaining polynomials for each victim choice, and re-checked after
//! step (3) moved to a per-round occurrence index. The victim order decides
//! every later round, so any change here means ElimLin itself changed, not
//! just how fast it runs.

use bosphorus_repro::anf::{Polynomial, PolynomialSystem};
use bosphorus_repro::ciphers::simon;
use bosphorus_repro::core::{elimlin_on, CancelToken};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the facts' `Display` text, one fact per line, in order.
fn fact_stream_hash(facts: &[Polynomial]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in facts.iter().flat_map(|f| format!("{f}\n").into_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn assert_trajectory(
    name: &str,
    system: &PolynomialSystem,
    rounds: usize,
    eliminated_vars: usize,
    facts: usize,
    hash: u64,
) {
    let outcome = elimlin_on(system.polynomials().to_vec(), &CancelToken::never());
    assert!(!outcome.contradiction, "{name}: the system is satisfiable");
    assert_eq!(
        (
            outcome.rounds,
            outcome.eliminated_vars,
            outcome.facts.len(),
            fact_stream_hash(&outcome.facts),
        ),
        (rounds, eliminated_vars, facts, hash),
        "{name}: (rounds, eliminated_vars, facts, fact stream hash)"
    );
}

#[test]
fn elimlin_on_a_seeded_simon_2_4_is_pinned() {
    let mut rng = StdRng::seed_from_u64(14);
    let instance = simon::generate(
        simon::SimonParams {
            num_plaintexts: 2,
            rounds: 4,
        },
        &mut rng,
    );
    assert_trajectory(
        "Simon-[2,4] seed 14",
        &instance.system,
        5,
        114,
        114,
        0x5720_1a66_f410_56d2,
    );
}

#[test]
fn elimlin_on_the_committed_simon_2_8_is_pinned() {
    let path = format!(
        "{}/examples/instances/simon_2_8.anf",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let system = PolynomialSystem::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    assert_trajectory("simon_2_8.anf", &system, 6, 161, 161, 0xf6c6_d16f_35fb_e03f);
}
