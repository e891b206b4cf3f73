//! [`Codec`] impls for communication artifacts: the per-read
//! [`CommSet`]s with their §6 provenance trails. Encoding discipline as
//! in `dmc_polyhedra::codec`.
//!
//! [`CommSet::steps`] holds `&'static str` pass names; decoding interns
//! the stored names against [`KNOWN_STEPS`] — the closed set of §6 pass
//! names — so the round-trip restores the same static references and an
//! unknown name in a (corrupt or future-version) payload is a decode
//! error, never a leaked allocation.

use dmc_dataflow::DepLevel;
use dmc_polyhedra::codec::{Codec, CodecError, Dec, Enc};
use dmc_polyhedra::Polyhedron;

use crate::commset::{CommDims, CommSet, SenderKind};

/// The closed set of §6 pass names a provenance trail can carry, in
/// pipeline order. Kept in sync with the pass list in `dmc-core`'s
/// `passes` module (each pass stamps its own name via `prov_mark`); a
/// unit test there fails when the two differ.
pub const KNOWN_STEPS: &[&str] = &[
    "self_reuse",
    "cross_set_reuse",
    "unique_sender",
    "fold_receivers",
    "already_local",
];

fn intern_step(name: &str) -> Option<&'static str> {
    KNOWN_STEPS.iter().find(|k| **k == name).copied()
}

impl Codec for CommDims {
    fn encode(&self, e: &mut Enc) {
        self.r_iter.encode(e);
        self.pr.encode(e);
        self.s_iter.encode(e);
        self.ps.encode(e);
        self.arr.encode(e);
        self.params.encode(e);
        self.aux.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(CommDims {
            r_iter: Vec::<usize>::decode(d)?,
            pr: Vec::<usize>::decode(d)?,
            s_iter: Vec::<usize>::decode(d)?,
            ps: Vec::<usize>::decode(d)?,
            arr: Vec::<usize>::decode(d)?,
            params: Vec::<usize>::decode(d)?,
            aux: Vec::<usize>::decode(d)?,
        })
    }
}

impl Codec for SenderKind {
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            SenderKind::Producer => 0,
            SenderKind::InitialOwner => 1,
        });
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => SenderKind::Producer,
            1 => SenderKind::InitialOwner,
            _ => return Err(CodecError::Invalid("SenderKind tag out of range")),
        })
    }
}

impl Codec for CommSet {
    fn encode(&self, e: &mut Enc) {
        self.poly.encode(e);
        self.dims.encode(e);
        e.str(&self.array);
        e.usize(self.read_stmt);
        e.usize(self.read_no);
        self.write_stmt.encode(e);
        self.sender.encode(e);
        self.level.encode(e);
        e.usize(self.prefix_len);
        e.usize(self.refetch_outer);
        e.usize(self.steps.len());
        for s in &self.steps {
            e.str(s);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let poly = Polyhedron::decode(d)?;
        let dims = CommDims::decode(d)?;
        let array = d.str()?;
        let read_stmt = d.usize()?;
        let read_no = d.usize()?;
        let write_stmt = Option::<usize>::decode(d)?;
        let sender = SenderKind::decode(d)?;
        let level = Option::<DepLevel>::decode(d)?;
        let prefix_len = d.usize()?;
        let refetch_outer = d.usize()?;
        let n = d.seq_len()?;
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            let name = d.str()?;
            steps.push(
                intern_step(&name).ok_or(CodecError::Invalid("unknown §6 pass name in steps"))?,
            );
        }
        Ok(CommSet {
            poly,
            dims,
            array,
            read_stmt,
            read_no,
            write_stmt,
            sender,
            level,
            prefix_len,
            refetch_outer,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use dmc_polyhedra::codec::{decode_from_slice, encode_to_vec};
    use dmc_polyhedra::{DimKind, Space};

    use super::*;

    fn sample_set(steps: Vec<&'static str>) -> CommSet {
        let space = Space::from_dims([("i", DimKind::Index), ("p", DimKind::Proc)]);
        CommSet {
            poly: Polyhedron::universe(space),
            dims: CommDims {
                r_iter: vec![0],
                pr: vec![1],
                ..CommDims::default()
            },
            array: "X".to_owned(),
            read_stmt: 0,
            read_no: 1,
            write_stmt: Some(0),
            sender: SenderKind::Producer,
            level: Some(DepLevel::Carried(1)),
            prefix_len: 1,
            refetch_outer: 0,
            steps,
        }
    }

    /// Provenance steps survive the round-trip as the *same* static
    /// references, byte-identically.
    #[test]
    fn commset_steps_intern() {
        let cs = sample_set(vec!["self_reuse", "fold_receivers"]);
        let bytes = encode_to_vec(&cs);
        let back: CommSet = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, cs);
        assert_eq!(encode_to_vec(&back), bytes);
        assert_eq!(back.steps, ["self_reuse", "fold_receivers"]);
    }

    /// A provenance trail naming a pass outside the closed §6 set is a
    /// decode error — corrupt payloads cannot mint pass names.
    #[test]
    fn unknown_step_rejected() {
        let cs = sample_set(vec!["self_reuse"]);
        let mut bytes = encode_to_vec(&cs);
        // The step string "self_reuse" is the payload tail; corrupt it.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(decode_from_slice::<CommSet>(&bytes).is_err());
    }
}
