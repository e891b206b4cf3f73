//! Stable structural fingerprints for compilation-session reuse.
//!
//! A [`Fingerprint`] is a content-addressed 128-bit hash of a value's
//! *semantic* structure: two values that mean the same thing hash the same
//! even when they were built differently (map insertion order, zero
//! coefficients, capacity), and any semantic edit — a changed subscript,
//! bound, block size, parameter name — changes the hash.
//!
//! The hash is a hand-rolled FNV-1a over a tagged byte stream, so it is
//! stable across processes, hosts and Rust versions — unlike
//! `std::collections::hash_map::DefaultHasher`, whose output is
//! deliberately randomized per process. Stability matters because stage
//! fingerprints are compared across compilations (and may be persisted in
//! reports); a per-process seed would defeat every cross-compilation
//! lookup.
//!
//! Every write is prefixed with a type tag byte, and every sequence with
//! its length, so concatenation ambiguities (`["ab", "c"]` vs
//! `["a", "bc"]`) cannot collide structurally.

use std::fmt;

use crate::program::{
    ArrayDecl, ArrayRef, BinOp, Loop, LoopMeta, Node, Program, ScalarExpr, Statement, StmtInfo,
};
use crate::Aff;

/// A 128-bit structural hash. Displayed as 32 hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

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
/// fresh hash): the one byte-level hash under [`Fp`]'s tagged stream and
/// the artifact store's payload fingerprints.
pub fn fnv1a128(state: u128, bytes: &[u8]) -> u128 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u128::from(b)).wrapping_mul(FNV_PRIME))
}

/// The incremental fingerprint hasher (FNV-1a/128 over tagged bytes).
#[derive(Clone, Debug)]
pub struct Fp {
    state: u128,
}

impl Default for Fp {
    fn default() -> Self {
        Fp::new()
    }
}

impl Fp {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fp { state: FNV_OFFSET }
    }

    /// Finishes the hash.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }

    fn byte(&mut self, b: u8) {
        self.raw_bytes(&[b]);
    }

    fn raw_bytes(&mut self, bytes: &[u8]) {
        self.state = fnv1a128(self.state, bytes);
    }

    /// Hashes a type/variant tag. Use a distinct tag per enum variant or
    /// struct field position so reordered streams cannot collide.
    pub fn tag(&mut self, t: u8) {
        self.byte(0x01);
        self.byte(t);
    }

    /// Hashes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.byte(0x02);
        self.raw_bytes(&v.to_le_bytes());
    }

    /// Hashes a `usize` (as u64, so 32/64-bit hosts agree).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Hashes a signed 128-bit integer.
    pub fn i128(&mut self, v: i128) {
        self.byte(0x03);
        self.raw_bytes(&v.to_le_bytes());
    }

    /// Hashes a boolean.
    pub fn bool(&mut self, v: bool) {
        self.byte(0x04);
        self.byte(u8::from(v));
    }

    /// Hashes a string (length-prefixed).
    pub fn str(&mut self, s: &str) {
        self.byte(0x05);
        self.raw_bytes(&(s.len() as u64).to_le_bytes());
        self.raw_bytes(s.as_bytes());
    }

    /// Hashes an `f64` by its bit pattern (length-tagged like a scalar).
    pub fn f64(&mut self, v: f64) {
        self.byte(0x06);
        self.raw_bytes(&v.to_bits().to_le_bytes());
    }

    /// Hashes a length-prefixed sequence of fingerprintable items.
    pub fn seq<T: Fingerprintable>(&mut self, items: &[T]) {
        self.byte(0x07);
        self.raw_bytes(&(items.len() as u64).to_le_bytes());
        for item in items {
            item.fp(self);
        }
    }

    /// Hashes another, already-finished fingerprint.
    pub fn fingerprint(&mut self, f: Fingerprint) {
        self.byte(0x08);
        self.raw_bytes(&f.0.to_le_bytes());
    }
}

/// Types with a stable structural fingerprint.
pub trait Fingerprintable {
    /// Feeds the value's semantic structure into the hasher.
    fn fp(&self, h: &mut Fp);

    /// The standalone fingerprint of this value.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = Fp::new();
        self.fp(&mut h);
        h.finish()
    }
}

impl<T: Fingerprintable + ?Sized> Fingerprintable for &T {
    fn fp(&self, h: &mut Fp) {
        (*self).fp(h);
    }
}

impl Fingerprintable for str {
    fn fp(&self, h: &mut Fp) {
        h.str(self);
    }
}

impl Fingerprintable for String {
    fn fp(&self, h: &mut Fp) {
        h.str(self);
    }
}

impl Fingerprintable for i128 {
    fn fp(&self, h: &mut Fp) {
        h.i128(*self);
    }
}

impl Fingerprintable for usize {
    fn fp(&self, h: &mut Fp) {
        h.usize(*self);
    }
}

impl<T: Fingerprintable> Fingerprintable for Vec<T> {
    fn fp(&self, h: &mut Fp) {
        h.seq(self);
    }
}

impl<T: Fingerprintable> Fingerprintable for Option<T> {
    fn fp(&self, h: &mut Fp) {
        match self {
            None => h.tag(0),
            Some(v) => {
                h.tag(1);
                v.fp(h);
            }
        }
    }
}

impl Fingerprintable for Aff {
    fn fp(&self, h: &mut Fp) {
        h.tag(10);
        h.i128(self.constant_term());
        // Terms are already name-sorted (BTreeMap); zero coefficients are
        // skipped so `i + 0·j` and `i` fingerprint identically.
        let terms: Vec<(&str, i128)> = self.terms().filter(|(_, c)| *c != 0).collect();
        h.usize(terms.len());
        for (v, c) in terms {
            h.str(v);
            h.i128(c);
        }
    }
}

impl Fingerprintable for BinOp {
    fn fp(&self, h: &mut Fp) {
        h.tag(match self {
            BinOp::Add => 11,
            BinOp::Sub => 12,
            BinOp::Mul => 13,
            BinOp::Div => 14,
        });
    }
}

impl Fingerprintable for ArrayRef {
    fn fp(&self, h: &mut Fp) {
        h.tag(15);
        h.str(&self.array);
        h.seq(&self.idx);
    }
}

impl Fingerprintable for ScalarExpr {
    fn fp(&self, h: &mut Fp) {
        match self {
            ScalarExpr::Lit(v) => {
                h.tag(16);
                h.f64(*v);
            }
            ScalarExpr::Read(r) => {
                h.tag(17);
                r.fp(h);
            }
            ScalarExpr::Bin(op, a, b) => {
                h.tag(18);
                op.fp(h);
                a.fp(h);
                b.fp(h);
            }
            ScalarExpr::Neg(a) => {
                h.tag(19);
                a.fp(h);
            }
            ScalarExpr::Call(name, args) => {
                h.tag(20);
                h.str(name);
                h.seq(args);
            }
        }
    }
}

impl Fingerprintable for Statement {
    fn fp(&self, h: &mut Fp) {
        h.tag(21);
        self.write.fp(h);
        self.rhs.fp(h);
    }
}

impl Fingerprintable for Loop {
    fn fp(&self, h: &mut Fp) {
        h.tag(22);
        h.str(&self.var);
        self.lower.fp(h);
        self.upper.fp(h);
        h.seq(&self.body);
    }
}

impl Fingerprintable for Node {
    fn fp(&self, h: &mut Fp) {
        match self {
            Node::Loop(l) => {
                h.tag(23);
                l.fp(h);
            }
            Node::Stmt(s) => {
                h.tag(24);
                s.fp(h);
            }
        }
    }
}

impl Fingerprintable for ArrayDecl {
    fn fp(&self, h: &mut Fp) {
        h.tag(25);
        h.str(&self.name);
        h.seq(&self.extents);
    }
}

impl Fingerprintable for Program {
    fn fp(&self, h: &mut Fp) {
        h.tag(26);
        h.seq(&self.params);
        h.seq(&self.arrays);
        h.seq(&self.body);
    }
}

impl Fingerprintable for LoopMeta {
    fn fp(&self, h: &mut Fp) {
        h.tag(27);
        h.usize(self.id);
        h.str(&self.var);
        self.lower.fp(h);
        self.upper.fp(h);
    }
}

impl Fingerprintable for StmtInfo {
    fn fp(&self, h: &mut Fp) {
        h.tag(28);
        h.usize(self.id);
        h.seq(&self.loops);
        h.seq(&self.position);
        self.stmt.fp(h);
    }
}

/// The *dataflow skeleton* of a program: everything Last Write Tree
/// analysis depends on — parameters, array declarations, the loop
/// structure (variables, bounds, textual positions) and every statement's
/// **written** access — but *not* the statements' right-hand sides.
///
/// Editing one read of one statement therefore leaves the skeleton (and
/// with it every other read's analysis fingerprint) unchanged, which is
/// what lets a compilation session re-run only the edited read's stage
/// chain.
pub fn skeleton_fp(program: &Program, h: &mut Fp) {
    h.tag(29);
    h.seq(&program.params);
    h.seq(&program.arrays);
    fn walk(nodes: &[Node], h: &mut Fp) {
        h.usize(nodes.len());
        for node in nodes {
            match node {
                Node::Stmt(s) => {
                    h.tag(30);
                    s.write.fp(h);
                }
                Node::Loop(l) => {
                    h.tag(31);
                    h.str(&l.var);
                    l.lower.fp(h);
                    l.upper.fp(h);
                    walk(&l.body, h);
                }
            }
        }
    }
    walk(&program.body, h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

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
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Zero coefficients are semantically absent.
        let c = Aff::var("i") + Aff::var("j") * 2 + (Aff::var("k") - Aff::var("k"));
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn semantic_edits_change_the_fingerprint() {
        let p = fig2();
        let base = p.fingerprint();
        let edited = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 2]; } }",
        )
        .unwrap();
        assert_ne!(
            base,
            edited.fingerprint(),
            "a changed read offset must change the hash"
        );
        let bound = parse(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 2 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        assert_ne!(
            base,
            bound.fingerprint(),
            "a changed loop bound must change the hash"
        );
    }

    #[test]
    fn skeleton_ignores_reads_but_sees_writes_and_bounds() {
        let fp_of = |src: &str| {
            let mut h = Fp::new();
            skeleton_fp(&parse(src).unwrap(), &mut h);
            h.finish()
        };
        let base = fp_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        );
        let read_edit = fp_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i] = X[i - 2]; } }",
        );
        assert_eq!(
            base, read_edit,
            "the skeleton must not depend on read accesses"
        );
        let write_edit = fp_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 3 to N { X[i - 1] = X[i - 3]; } }",
        );
        assert_ne!(base, write_edit, "the skeleton must see write accesses");
        let bound_edit = fp_of(
            "param T, N; array X[N + 1];
             for t = 0 to T { for i = 4 to N { X[i] = X[i - 3]; } }",
        );
        assert_ne!(base, bound_edit, "the skeleton must see loop bounds");
    }

    #[test]
    fn sequences_do_not_collide_on_concatenation() {
        let a = vec!["ab".to_string(), "c".to_string()];
        let b = vec!["a".to_string(), "bc".to_string()];
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn display_is_hex() {
        let f = fig2().fingerprint();
        assert_eq!(f.to_string().len(), 32);
    }
}
