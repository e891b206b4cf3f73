//! Stable fingerprints: FNV-1a/128 over the artifact codec's bytes.
//!
//! A [`Fingerprint`] is the 128-bit hash of bytes a
//! [`dmc_polyhedra::codec::Enc`] wrote. A compilation-session key writes
//! one key-kind byte, then its inputs through their `Codec` impls (the
//! IR's in [`crate::codec`]; [`skeleton`] for the part of a program a
//! Last Write Tree reads), so the key of a stage is the same encoding the
//! store persists its artifacts in. The codec writes one canonical,
//! self-delimiting encoding per value — fixed field order, length
//! prefixes, name-sorted affine terms without zero coefficients — so two
//! values that mean the same thing write the same bytes however they were
//! built, any semantic edit writes different ones, and concatenated
//! inputs cannot run into each other (`["ab", "c"]` vs `["a", "bc"]`).
//!
//! FNV-1a is hand-rolled, so a fingerprint is stable across processes,
//! hosts and Rust versions — unlike
//! `std::collections::hash_map::DefaultHasher`, whose output is
//! deliberately randomized per process. Stage keys are compared across
//! processes through the persistent store; a per-process seed would
//! defeat every lookup.

use std::fmt;

use dmc_polyhedra::codec::{Codec, Enc};

use crate::program::{Node, Program};

/// A 128-bit content hash. Displayed as 32 hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint of what `e` wrote.
    pub fn of(e: Enc) -> Self {
        Fingerprint(fnv1a128(FNV_OFFSET, &e.into_bytes()))
    }

    /// Writes this fingerprint into a key that chains on it: its low and
    /// high 64 bits.
    pub fn encode(&self, e: &mut Enc) {
        e.u64(self.0 as u64);
        e.u64((self.0 >> 64) as u64);
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The FNV-1a/128 offset basis: the state a hash starts from.
pub const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a/128 of `bytes`, continued from `state` ([`FNV_OFFSET`] for a
/// fresh hash): the one byte-level hash under every [`Fingerprint`], stage
/// keys and the artifact store's payload fingerprints alike.
pub fn fnv1a128(state: u128, bytes: &[u8]) -> u128 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u128::from(b)).wrapping_mul(FNV_PRIME))
}

/// Writes the *dataflow skeleton* of a program: everything Last Write
/// Tree analysis depends on — parameters, array declarations, the loop
/// structure (variables, bounds, textual positions) and every statement's
/// **written** access — but *not* the statements' right-hand sides. It is
/// [`Program`]'s encoding with each statement cut to its write.
///
/// Editing one read of one statement therefore leaves the skeleton (and
/// with it every other read's analysis key) unchanged, which is what lets
/// a compilation session re-run only the edited read's stage chain.
pub fn skeleton(program: &Program, e: &mut Enc) {
    fn body(nodes: &[Node], e: &mut Enc) {
        e.usize(nodes.len());
        for node in nodes {
            match node {
                Node::Loop(l) => {
                    e.u8(0);
                    e.str(&l.var);
                    l.lower.encode(e);
                    l.upper.encode(e);
                    body(&l.body, e);
                }
                Node::Stmt(s) => {
                    e.u8(1);
                    s.write.encode(e);
                }
            }
        }
    }
    program.params.encode(e);
    program.arrays.encode(e);
    body(&program.body, e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Aff};

    fn fingerprint_of<T: Codec>(v: &T) -> Fingerprint {
        let mut e = Enc::new();
        v.encode(&mut e);
        Fingerprint::of(e)
    }

    fn skeleton_of(src: &str) -> Fingerprint {
        let mut e = Enc::new();
        skeleton(&parse(src).unwrap(), &mut e);
        Fingerprint::of(e)
    }

    fn fig2() -> Program {
        parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap()
    }

    #[test]
    fn fingerprints_are_stable_across_construction_order() {
        // Same affine expression built in two different term orders.
        let a = Aff::var("i") + Aff::var("j") * 2;
        let b = Aff::var("j") * 2 + Aff::var("i");
        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
        // Zero coefficients are semantically absent.
        let c = Aff::var("i") + Aff::var("j") * 2 + (Aff::var("k") - Aff::var("k"));
        assert_eq!(fingerprint_of(&a), fingerprint_of(&c));
    }

    #[test]
    fn semantic_edits_change_the_fingerprint() {
        let base = fingerprint_of(&fig2());
        let edited = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 2]; } }",
        )
        .unwrap();
        assert_ne!(
            base,
            fingerprint_of(&edited),
            "a changed read offset must change the hash"
        );
        let bound = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 2 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        assert_ne!(
            base,
            fingerprint_of(&bound),
            "a changed loop bound must change the hash"
        );
    }

    #[test]
    fn skeleton_ignores_reads_but_sees_writes_and_bounds() {
        let base = skeleton_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        );
        let read_edit = skeleton_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 2]; } }",
        );
        assert_eq!(
            base, read_edit,
            "the skeleton must not depend on read accesses"
        );
        let write_edit = skeleton_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i - 1] = X[i - 3]; } }",
        );
        assert_ne!(base, write_edit, "the skeleton must see write accesses");
        let bound_edit = skeleton_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 4 to N { X[i] = X[i - 3]; } }",
        );
        assert_ne!(base, bound_edit, "the skeleton must see loop bounds");
    }

    #[test]
    fn sequences_do_not_collide_on_concatenation() {
        let a = vec!["ab".to_string(), "c".to_string()];
        let b = vec!["a".to_string(), "bc".to_string()];
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
    }

    #[test]
    fn display_is_hex() {
        let f = fingerprint_of(&fig2());
        assert_eq!(f.to_string().len(), 32);
    }
}
