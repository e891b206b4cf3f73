//! [`Codec`] impls for the IR: programs and their statements, what the
//! `parse` stage persists.
//!
//! See `dmc_polyhedra::codec` for the encoding discipline (fixed field
//! order, length prefixes, varint integers, canonical decoding). Every
//! impl here follows struct declaration order; enums write a `u8`
//! discriminant first.

use std::collections::BTreeMap;

use dmc_polyhedra::codec::{Codec, CodecError, Dec, Enc};

use crate::aff::Aff;
use crate::program::{ArrayDecl, ArrayRef, BinOp, Loop, Node, Program, ScalarExpr, Statement};

impl Codec for Aff {
    fn encode(&self, e: &mut Enc) {
        let terms: Vec<(&str, i128)> = self.terms().collect();
        e.usize(terms.len());
        // `terms()` iterates the underlying BTreeMap — already sorted by
        // variable name, so the encoding is canonical.
        for (v, c) in terms {
            e.str(v);
            e.i128(c);
        }
        e.i128(self.constant_term());
    }
    /// Accepts only what `encode` writes: terms in strictly increasing
    /// name order with nonzero coefficients. Anything else would decode
    /// to an `Aff` that re-encodes differently, or sum coefficients that
    /// can overflow.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.seq_len()?;
        let mut terms = BTreeMap::new();
        for _ in 0..n {
            let v = d.str()?;
            let c = d.i128()?;
            if c == 0 {
                return Err(CodecError::Invalid("zero Aff coefficient"));
            }
            if terms.last_key_value().is_some_and(|(last, _)| *last >= v) {
                return Err(CodecError::Invalid("Aff terms out of name order"));
            }
            terms.insert(v, c);
        }
        Ok(Aff::from_terms(terms, d.i128()?))
    }
}

impl Codec for ArrayRef {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.array);
        self.idx.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ArrayRef {
            array: d.str()?,
            idx: Vec::<Aff>::decode(d)?,
        })
    }
}

impl Codec for BinOp {
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
        });
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            _ => return Err(CodecError::Invalid("BinOp tag out of range")),
        })
    }
}

impl Codec for ScalarExpr {
    fn encode(&self, e: &mut Enc) {
        match self {
            ScalarExpr::Lit(v) => {
                e.u8(0);
                e.f64(*v);
            }
            ScalarExpr::Read(r) => {
                e.u8(1);
                r.encode(e);
            }
            ScalarExpr::Bin(op, a, b) => {
                e.u8(2);
                op.encode(e);
                a.encode(e);
                b.encode(e);
            }
            ScalarExpr::Neg(a) => {
                e.u8(3);
                a.encode(e);
            }
            ScalarExpr::Call(f, args) => {
                e.u8(4);
                e.str(f);
                args.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => ScalarExpr::Lit(d.f64()?),
            1 => ScalarExpr::Read(ArrayRef::decode(d)?),
            2 => ScalarExpr::Bin(
                BinOp::decode(d)?,
                Box::new(ScalarExpr::decode(d)?),
                Box::new(ScalarExpr::decode(d)?),
            ),
            3 => ScalarExpr::Neg(Box::new(ScalarExpr::decode(d)?)),
            4 => ScalarExpr::Call(d.str()?, Vec::<ScalarExpr>::decode(d)?),
            _ => return Err(CodecError::Invalid("ScalarExpr tag out of range")),
        })
    }
}

impl Codec for Statement {
    fn encode(&self, e: &mut Enc) {
        self.write.encode(e);
        self.rhs.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Statement {
            write: ArrayRef::decode(d)?,
            rhs: ScalarExpr::decode(d)?,
        })
    }
}

impl Codec for Loop {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.var);
        self.lower.encode(e);
        self.upper.encode(e);
        self.body.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Loop {
            var: d.str()?,
            lower: Aff::decode(d)?,
            upper: Aff::decode(d)?,
            body: Vec::<Node>::decode(d)?,
        })
    }
}

impl Codec for Node {
    fn encode(&self, e: &mut Enc) {
        match self {
            Node::Loop(l) => {
                e.u8(0);
                l.encode(e);
            }
            Node::Stmt(s) => {
                e.u8(1);
                s.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => Node::Loop(Loop::decode(d)?),
            1 => Node::Stmt(Statement::decode(d)?),
            _ => return Err(CodecError::Invalid("Node tag out of range")),
        })
    }
}

impl Codec for ArrayDecl {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.name);
        self.extents.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ArrayDecl {
            name: d.str()?,
            extents: Vec::<Aff>::decode(d)?,
        })
    }
}

impl Codec for Program {
    fn encode(&self, e: &mut Enc) {
        self.params.encode(e);
        self.arrays.encode(e);
        self.body.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Program {
            params: Vec::<String>::decode(d)?,
            arrays: Vec::<ArrayDecl>::decode(d)?,
            body: Vec::<Node>::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use dmc_polyhedra::codec::{decode_from_slice, encode_to_vec};

    use super::*;

    /// xorshift64* — the repo's dependency-free test PRNG.
    struct XorShift(u64);

    impl XorShift {
        fn new(seed: u64) -> Self {
            XorShift(seed.max(1))
        }
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn random_aff(rng: &mut XorShift, vars: &[&str]) -> Aff {
        let mut a = Aff::constant(rng.below(21) as i128 - 10);
        for v in vars {
            if rng.below(2) == 0 {
                a = a + Aff::var(*v) * (rng.below(7) as i128 - 3);
            }
        }
        a
    }

    fn random_expr(rng: &mut XorShift, vars: &[&str], depth: u64) -> ScalarExpr {
        let read = |rng: &mut XorShift| {
            ScalarExpr::Read(ArrayRef {
                array: format!("A{}", rng.below(3)),
                idx: vec![random_aff(rng, vars)],
            })
        };
        if depth == 0 {
            return match rng.below(2) {
                0 => ScalarExpr::Lit(rng.below(100) as f64 / 4.0),
                _ => read(rng),
            };
        }
        match rng.below(5) {
            0 => ScalarExpr::Lit(rng.below(100) as f64 / 4.0),
            1 => read(rng),
            2 => ScalarExpr::Bin(
                [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.below(4) as usize],
                Box::new(random_expr(rng, vars, depth - 1)),
                Box::new(random_expr(rng, vars, depth - 1)),
            ),
            3 => ScalarExpr::Neg(Box::new(random_expr(rng, vars, depth - 1))),
            _ => {
                let n = rng.below(3) as usize + 1;
                ScalarExpr::Call(
                    format!("f{}", rng.below(2)),
                    (0..n).map(|_| random_expr(rng, vars, depth - 1)).collect(),
                )
            }
        }
    }

    fn random_body(rng: &mut XorShift, vars: &mut Vec<String>, depth: u64) -> Vec<Node> {
        let n = rng.below(3) as usize + 1;
        (0..n)
            .map(|_| {
                let names: Vec<&str> = vars.iter().map(String::as_str).collect();
                if depth > 0 && rng.below(2) == 0 {
                    let var = format!("i{}", vars.len());
                    let lower = random_aff(rng, &names);
                    let upper = random_aff(rng, &names);
                    vars.push(var.clone());
                    let body = random_body(rng, vars, depth - 1);
                    vars.pop();
                    Node::Loop(Loop {
                        var,
                        lower,
                        upper,
                        body,
                    })
                } else {
                    Node::Stmt(Statement {
                        write: ArrayRef {
                            array: format!("A{}", rng.below(3)),
                            idx: vec![random_aff(rng, &names)],
                        },
                        rhs: random_expr(rng, &names, 2),
                    })
                }
            })
            .collect()
    }

    fn random_program(rng: &mut XorShift) -> Program {
        let mut vars = Vec::new();
        Program {
            params: vec!["N".to_owned(), "T".to_owned()],
            arrays: (0..3)
                .map(|k| ArrayDecl {
                    name: format!("A{k}"),
                    extents: vec![Aff::var("N") + Aff::constant(1)],
                })
                .collect(),
            body: random_body(rng, &mut vars, 3),
        }
    }

    /// Random nested programs: encode → decode → re-encode is the
    /// identity on bytes and values.
    #[test]
    fn program_round_trips() {
        let mut rng = XorShift::new(0xA11CE);
        for _ in 0..60 {
            let p = random_program(&mut rng);
            let bytes = encode_to_vec(&p);
            let back: Program = decode_from_slice(&bytes).expect("program decodes");
            assert_eq!(back, p);
            assert_eq!(encode_to_vec(&back), bytes, "byte-identical re-encode");
        }
    }

    /// Every strict prefix of an encoded program fails to decode.
    #[test]
    fn truncation_always_detected() {
        let mut rng = XorShift::new(0xCAFE);
        let p = random_program(&mut rng);
        let bytes = encode_to_vec(&p);
        for cut in 0..bytes.len().min(400) {
            assert!(
                decode_from_slice::<Program>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    /// A term repeated, out of order or with a zero coefficient is not
    /// what `encode` writes: the payload is refused, and a repeated term
    /// is never summed (here the sum overflows `i128`).
    #[test]
    fn non_canonical_aff_terms_are_invalid() {
        let payload = |terms: &[(&str, i128)]| {
            let mut e = Enc::new();
            e.usize(terms.len());
            for &(v, c) in terms {
                e.str(v);
                e.i128(c);
            }
            e.i128(0);
            e.into_bytes()
        };
        for terms in [
            &[("x", i128::MAX), ("x", 1)][..],
            &[("y", 1), ("x", 1)],
            &[("x", 0)],
        ] {
            assert!(
                matches!(
                    decode_from_slice::<Aff>(&payload(terms)),
                    Err(CodecError::Invalid(_))
                ),
                "{terms:?} decoded"
            );
        }
        let ok: Aff = decode_from_slice(&payload(&[("x", i128::MAX), ("y", -1)])).unwrap();
        assert_eq!(ok, Aff::var("x") * i128::MAX - Aff::var("y"));
    }

    /// Parsed paper programs (with their f64 literals) survive the codec
    /// bit-exactly.
    #[test]
    fn parsed_program_round_trips() {
        let p = crate::parse(
            "param T, N; array X[N + 1];
             for t = 0 to T {
               for i = 1 to N - 1 { X[i] = 0.25 * (X[i] + X[i - 1] + X[i + 1]); }
             }",
        )
        .expect("parses");
        let bytes = encode_to_vec(&p);
        let back: Program = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, p);
        assert_eq!(encode_to_vec(&back), bytes);
    }
}
