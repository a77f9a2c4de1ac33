//! Minimal hand-rolled binary serialization for [`CostLedger`] records.
//!
//! Wire format rules, chosen for auditability over generality:
//!
//! * all integers are little-endian `u64` (even `usize` fields — 8 bytes of
//!   width buys platform independence for free at these sizes);
//! * variable-width data (`String`, `Vec`, maps) is length-prefixed;
//! * structs encode fields in declaration order, **destructured** so adding
//!   a field without extending the codec is a compile error.
//!
//! Decoding is *total*: any malformed input yields `None`, never a panic —
//! the [`store`](crate::store) layer turns that into a cache miss. There is
//! no in-band type information; the format version in the store's record
//! header changes whenever any `Codec` impl here changes shape.

use mobidist_net::ledger::CostLedger;
use std::collections::BTreeMap;

/// A cursor over an encoded record.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed — decoders should check this at
    /// the top level so trailing garbage is rejected.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next 8 bytes as a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Consumes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(bytes)
    }
}

/// A value that can be stored in and recovered from a cache record.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value, advancing `r`; `None` on any malformation.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::try_from(r.u64()?).ok()
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        String::from_utf8(r.bytes(len)?.to_vec()).ok()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        // Cap the pre-allocation by what the buffer could possibly hold
        // (1 byte per element minimum) so a corrupted length cannot OOM.
        if len > r.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
}

impl Codec for BTreeMap<String, u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return None;
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = String::decode(r)?;
            let v = u64::decode(r)?;
            out.insert(k, v);
        }
        Some(out)
    }
}

impl Codec for CostLedger {
    fn encode(&self, out: &mut Vec<u8>) {
        let CostLedger {
            fixed_msgs,
            wireless_msgs,
            searches,
            re_searches,
            search_failures,
            fixed_cost,
            wireless_cost,
            search_cost,
            mh_tx,
            mh_rx,
            mh_energy,
            doze_interruptions,
            moves,
            handoffs,
            disconnects,
            reconnects,
            wireless_losses,
            custom,
        } = self;
        fixed_msgs.encode(out);
        wireless_msgs.encode(out);
        searches.encode(out);
        re_searches.encode(out);
        search_failures.encode(out);
        fixed_cost.encode(out);
        wireless_cost.encode(out);
        search_cost.encode(out);
        mh_tx.encode(out);
        mh_rx.encode(out);
        mh_energy.encode(out);
        doze_interruptions.encode(out);
        moves.encode(out);
        handoffs.encode(out);
        disconnects.encode(out);
        reconnects.encode(out);
        wireless_losses.encode(out);
        custom.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(CostLedger {
            fixed_msgs: Codec::decode(r)?,
            wireless_msgs: Codec::decode(r)?,
            searches: Codec::decode(r)?,
            re_searches: Codec::decode(r)?,
            search_failures: Codec::decode(r)?,
            fixed_cost: Codec::decode(r)?,
            wireless_cost: Codec::decode(r)?,
            search_cost: Codec::decode(r)?,
            mh_tx: Codec::decode(r)?,
            mh_rx: Codec::decode(r)?,
            mh_energy: Codec::decode(r)?,
            doze_interruptions: Codec::decode(r)?,
            moves: Codec::decode(r)?,
            handoffs: Codec::decode(r)?,
            disconnects: Codec::decode(r)?,
            reconnects: Codec::decode(r)?,
            wireless_losses: Codec::decode(r)?,
            custom: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r), Some(v));
        assert!(r.is_empty(), "decoder left trailing bytes");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(String::from("mean_wait"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(BTreeMap::from([(String::from("k"), 9u64)]));
    }

    #[test]
    fn cost_ledger_round_trips_with_every_field_set() {
        let mut l = CostLedger::new(3);
        l.fixed_msgs = 1;
        l.wireless_msgs = 2;
        l.searches = 3;
        l.re_searches = 4;
        l.search_failures = 5;
        l.fixed_cost = 6;
        l.wireless_cost = 7;
        l.search_cost = 8;
        l.mh_tx = vec![1, 0, 2];
        l.mh_rx = vec![0, 1, 0];
        l.mh_energy = vec![9, 9, 9];
        l.doze_interruptions = 9;
        l.moves = 10;
        l.handoffs = 11;
        l.disconnects = 12;
        l.reconnects = 13;
        l.wireless_losses = 14;
        l.custom.insert("location_updates".into(), 15);
        round_trip(l);
    }

    #[test]
    fn malformed_input_yields_none_not_panic() {
        assert_eq!(u64::decode(&mut Reader::new(&[1, 2, 3])), None);
        assert_eq!(
            String::decode(&mut Reader::new(&1000u64.to_le_bytes())),
            None
        );
        // A huge claimed Vec length is bounded by the buffer, not allocated.
        assert_eq!(
            Vec::<u64>::decode(&mut Reader::new(&u64::MAX.to_le_bytes())),
            None
        );
        assert_eq!(CostLedger::decode(&mut Reader::new(&[0u8; 16])), None);
        // Invalid UTF-8 in a String.
        let mut bytes = Vec::new();
        2usize.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::decode(&mut Reader::new(&bytes)), None);
    }
}
