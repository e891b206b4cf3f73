//! A warm emission is lookups only. Every registry workload under the full
//! and the naive options is compiled and emitted twice on one thread —
//! local boxes per array, all four communication entry points per set,
//! computation code per statement. The second round must emit the same
//! bytes as the first without computing a single scan or lexicographic
//! optimum (no `scan_bounds` or `lexopt` miss), and each round's text must
//! be the one the code emitted before those two queries were memoized
//! (its FNV-1a fingerprint, recorded then).

use dmc_bench::workloads;
use dmc_codegen::{
    bounding_box, computation_code, recv_code, recv_code_aggregated, render, send_code,
    send_code_aggregated,
};
use dmc_core::{compile, CompileInput, Options};
use dmc_polyhedra::stats;

/// FNV-1a, 64 bits.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One round: compile, then every emission entry point, rendered in
/// emission order into one text.
fn round(input: CompileInput, options: Options) -> String {
    let compiled = compile(input, options).expect("compiles");
    let program = &compiled.input.program;
    let stmts = program.statements();
    let uses: Vec<_> = stmts
        .iter()
        .map(|s| (s, &compiled.input.comps[&s.id]))
        .collect();
    let mut text = String::new();
    for decl in &program.arrays {
        if let Some(local) = bounding_box(program, &decl.name, &uses).expect("box") {
            for (lo, hi) in &local.dims {
                text.push_str(&format!("local {}[{lo} .. {hi}]\n", local.array));
            }
        }
    }
    for (id, cs) in compiled.comm.iter().enumerate() {
        for code in [
            send_code(cs, id),
            recv_code(cs, id),
            send_code_aggregated(cs, id),
            recv_code_aggregated(cs, id),
        ] {
            text.push_str(&render(&code.expect("comm code")));
        }
    }
    for (info, comp) in &uses {
        text.push_str(&render(
            &computation_code(program, info, comp).expect("computation code"),
        ));
    }
    text
}

/// FNV-1a of one round's text per workload and options, as the code
/// emitted it before scans and lexicographic optima were memoized whole.
const FINGERPRINTS: [(&str, &str, u64); 8] = [
    ("lu", "full", 0x73df_eeb3_bce0_e00b),
    ("lu", "naive", 0x960c_9242_c398_6711),
    ("stencil", "full", 0x1dc8_b602_e154_c922),
    ("stencil", "naive", 0xf617_2666_0aec_c426),
    ("figure2", "full", 0xf207_06c7_3dbd_4c4d),
    ("figure2", "naive", 0x525a_a88e_a68e_3ad9),
    ("xy", "full", 0xbfde_8eda_fc00_51b3),
    ("xy", "naive", 0x8363_ba50_c271_f6b4),
];

#[test]
fn warm_emission_is_lookups_only() {
    let mut expected = FINGERPRINTS.iter();
    for w in workloads() {
        for (label, options) in [("full", Options::full()), ("naive", Options::naive())] {
            let cold = round((w.input)(w.nproc), options);
            let before = stats::snapshot();
            let warm = round((w.input)(w.nproc), options);
            let d = stats::snapshot().since(&before);
            assert_eq!(cold, warm, "{} / {label}: warm text differs", w.name);
            assert_eq!(
                (d.scan_cache_misses, d.lex_cache_misses),
                (0, 0),
                "{} / {label}: the warm round computed a scan or a lexopt",
                w.name
            );
            assert!(d.scan_cache_hits > 0 && d.lex_cache_hits > 0);
            let want = expected.next().expect("a fingerprint per round");
            assert_eq!(
                (w.name, label, fnv(&cold)),
                *want,
                "{} / {label}: emitted text moved",
                w.name
            );
        }
    }
    assert!(expected.next().is_none(), "a round per fingerprint");
}
