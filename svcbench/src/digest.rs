//! Body digests: the client reads every body and hashes it instead of
//! parsing it, which would cost tens of milliseconds of CPU per large
//! body on the cores the server runs on.

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest and length of a response body with its `"hot_path"` block
/// left out. That block holds the simulator's work counters, and its
/// speculation counts depend on how many threads were free during the
/// run; everything else in a body is a pure function of the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyDigest {
    pub hash: u64,
    pub len: usize,
}

const HOT_PATH_KEY: &str = "\"hot_path\": {";

pub fn body_digest(body: &[u8]) -> BodyDigest {
    // Bodies are JSON; one that is not UTF-8 is digested whole and fails
    // its comparison.
    let start = std::str::from_utf8(body)
        .ok()
        .and_then(|text| text.find(HOT_PATH_KEY));
    // `HotPathStats` is flat: its block ends at the first `}`.
    let block = start.and_then(|s| {
        body[s..]
            .iter()
            .position(|&b| b == b'}')
            .map(|e| s..s + e + 1)
    });
    let (head, tail) = match block {
        Some(r) => (&body[..r.start], &body[r.end..]),
        None => (body, &body[body.len()..]),
    };
    let mut h = Fnv::new();
    h.write(head);
    h.write(tail);
    BodyDigest {
        hash: h.finish(),
        len: head.len() + tail.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_block_is_ignored() {
        let a = br#"{"outcome": {"x": 1, "hot_path": {"events": 5, "spec_hits": 10}}, "y": 2}"#;
        let b = br#"{"outcome": {"x": 1, "hot_path": {"events": 5, "spec_hits": 7}}, "y": 2}"#;
        let c = br#"{"outcome": {"x": 2, "hot_path": {"events": 5, "spec_hits": 7}}, "y": 2}"#;
        assert_eq!(body_digest(a), body_digest(b));
        assert_ne!(body_digest(b), body_digest(c));
        assert_eq!(body_digest(b"{}").len, 2);
    }
}
