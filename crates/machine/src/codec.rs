//! [`Codec`] impls for machine artifacts: the legality-refined
//! [`Schedule`] (per-processor action lists plus the message table, with
//! each values-mode [`Payload`] as its array, writer, width and flat rows)
//! the `schedule` stage caches. Encoding discipline as in
//! `dmc_polyhedra::codec`; `flops` encodes as its IEEE bit pattern, so
//! schedules round-trip bit-exactly.

use dmc_polyhedra::codec::{Codec, CodecError, Dec, Enc};

use crate::schedule::{Action, MessageSpec, Payload, Schedule};

impl Codec for Payload {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.array);
        self.writer.encode(e);
        e.usize(self.width);
        self.rows.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Payload {
            array: d.str()?,
            writer: Option::<usize>::decode(d)?,
            width: d.usize()?,
            rows: Vec::<i128>::decode(d)?,
        })
    }
}

impl Codec for MessageSpec {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.sender);
        self.receivers.encode(e);
        e.u64(self.words);
        self.payload.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(MessageSpec {
            sender: d.usize()?,
            receivers: Vec::<usize>::decode(d)?,
            words: d.u64()?,
            payload: Option::<Payload>::decode(d)?,
        })
    }
}

impl Codec for Action {
    fn encode(&self, e: &mut Enc) {
        match self {
            Action::Block {
                stmt,
                prefix,
                inner_range,
                flops,
            } => {
                e.u8(0);
                e.usize(*stmt);
                prefix.encode(e);
                inner_range.encode(e);
                e.f64(*flops);
            }
            Action::Send { msg } => {
                e.u8(1);
                e.usize(*msg);
            }
            Action::Recv { msg } => {
                e.u8(2);
                e.usize(*msg);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => Action::Block {
                stmt: d.usize()?,
                prefix: Vec::<i128>::decode(d)?,
                inner_range: Option::<(i128, i128)>::decode(d)?,
                flops: d.f64()?,
            },
            1 => Action::Send { msg: d.usize()? },
            2 => Action::Recv { msg: d.usize()? },
            _ => return Err(CodecError::Invalid("Action tag out of range")),
        })
    }
}

impl Codec for Schedule {
    fn encode(&self, e: &mut Enc) {
        self.procs.encode(e);
        self.messages.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Schedule {
            procs: Vec::<Vec<Action>>::decode(d)?,
            messages: Vec::<MessageSpec>::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use dmc_polyhedra::codec::{decode_from_slice, encode_to_vec};

    use super::*;

    /// A schedule with every action kind (and a fractional flop count)
    /// round-trips byte-identically.
    #[test]
    fn schedule_round_trips() {
        let s = Schedule {
            procs: vec![
                vec![
                    Action::Block {
                        stmt: 0,
                        prefix: vec![1, -2],
                        inner_range: Some((0, 31)),
                        flops: 96.5,
                    },
                    Action::Send { msg: 0 },
                ],
                vec![Action::Recv { msg: 0 }],
            ],
            messages: vec![MessageSpec {
                sender: 0,
                receivers: vec![1],
                words: 32,
                payload: Some(Payload {
                    array: "X".to_owned(),
                    writer: Some(0),
                    width: 2,
                    rows: vec![-3, 4, 7, 5],
                }),
            }],
        };
        let bytes = encode_to_vec(&s);
        let back: Schedule = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(encode_to_vec(&back), bytes);
        for cut in [0, 7, bytes.len() - 1] {
            assert!(decode_from_slice::<Schedule>(&bytes[..cut]).is_err());
        }
    }
}
