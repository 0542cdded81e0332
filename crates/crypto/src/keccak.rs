//! Keccak-256 as used by Ethereum (the original Keccak padding `0x01`,
//! *not* NIST SHA3's `0x06`).
//!
//! The paper instantiates its hash function / random oracle with
//! `keccak256`, matching the EVM's native hash; implementing it here keeps
//! the gas model (`dragoon-chain`) and the Fiat–Shamir transcripts
//! byte-compatible with what the deployed contract would compute.

const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// The Keccak-f\[1600\] permutation over a 25-lane state.
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for rc in RC {
        // θ
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // χ
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ ((!row[(x + 1) % 5]) & row[(x + 2) % 5]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

/// Incremental Keccak-256 hasher (rate 1088 bits / 136 bytes).
#[derive(Clone)]
pub struct Keccak256 {
    state: [u64; 25],
    buf: [u8; 136],
    buf_len: usize,
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Keccak256 {
    const RATE: usize = 136;

    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: [0; 25],
            buf: [0; 136],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the sponge.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        while !data.is_empty() {
            let take = (Self::RATE - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == Self::RATE {
                self.absorb_block();
            }
        }
        self
    }

    fn absorb_block(&mut self) {
        for i in 0..Self::RATE / 8 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&self.buf[8 * i..8 * i + 8]);
            self.state[i] ^= u64::from_le_bytes(w);
        }
        keccak_f1600(&mut self.state);
        self.buf_len = 0;
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        // Keccak (pre-NIST) pad10*1 with domain byte 0x01.
        self.finalize_with(0x01)
    }

    /// pad10*1 behind `domain`, one last permutation, squeeze 32 bytes.
    /// The sponge is the same for every domain byte: `0x06` is SHA3-256,
    /// which is how the tests check it against other implementations.
    fn finalize_with(mut self, domain: u8) -> [u8; 32] {
        self.buf[self.buf_len..].fill(0);
        self.buf[self.buf_len] = domain;
        self.buf[Self::RATE - 1] |= 0x80;
        self.absorb_block();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.state[i].to_le_bytes());
        }
        out
    }
}

/// One-shot Keccak-256.
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    let mut h = Keccak256::new();
    h.update(data);
    h.finalize()
}

/// Convenience: hash the concatenation of several byte slices, as the
/// paper's `H(a ‖ b ‖ …)` notation.
pub fn keccak256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Keccak256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_input() {
        // Well-known Ethereum constant: keccak256("") =
        // c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc() {
        // keccak256("abc") — classic test vector.
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn ethereum_function_selector() {
        // keccak256("transfer(address,uint256)") starts with a9059cbb —
        // the ubiquitous ERC-20 selector.
        let d = keccak256(b"transfer(address,uint256)");
        assert_eq!(hex(&d[..4]), "a9059cbb");
    }

    #[test]
    fn known_ethereum_vectors() {
        // keccak256("testing") — widely used Solidity test vector.
        assert_eq!(
            hex(&keccak256(b"testing")),
            "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"
        );
        // keccak256("hello") — another ubiquitous vector.
        assert_eq!(
            hex(&keccak256(b"hello")),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = keccak256(&data);
        let mut h = Keccak256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
        assert_eq!(keccak256_concat(&[&data[..100], &data[100..]]), oneshot);
    }

    /// The permutation and the absorb loop against a second
    /// implementation: with domain byte `0x06` the same sponge is
    /// SHA3-256. Inputs are `bytes(i % 251 for i in range(n))` around
    /// the 136-byte rate and beyond it; each digest was derived on the
    /// build box by two routes that agreed, never typed from a spec:
    ///
    /// ```sh
    /// python3 -c "import hashlib; print(hashlib.sha3_256(bytes(i % 251 for i in range($n))).hexdigest())"
    /// python3 -c "import sys; sys.stdout.buffer.write(bytes(i % 251 for i in range($n)))" | openssl dgst -sha3-256
    /// ```
    #[test]
    fn sha3_256_domain_matches_hashlib_and_openssl() {
        for (n, digest) in [
            (
                0u32,
                "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
            ),
            (
                135,
                "fded8fd9d6551c601eeb3b7c6bc5e5cfd8aad1d015b7e9aaa9c9b9475231d5e2",
            ),
            (
                136,
                "cf3ccff92480a29160c2d38317c430e14749bfee1788106957dfe73f8c4930e5",
            ),
            (
                137,
                "ce9d7dc90913ee5d92745019479a5352c6d6279bef18ed07dc0a83ee8084daca",
            ),
            (
                272,
                "b7ccd55b6c2c3fa144c9e0624059294975a348b02f321abe289701d3012f7794",
            ),
            (
                1_000,
                "48e66a01861d0eadaacdb7a6ae7db6b9ac79242ecced4154a9fbb33c4e3cc571",
            ),
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let mut h = Keccak256::new();
            h.update(&data);
            assert_eq!(hex(&h.finalize_with(0x06)), digest, "{n} bytes");
        }
    }

    #[test]
    fn rate_boundary_lengths() {
        // Hash inputs of length 135, 136, 137 — around the sponge rate.
        for len in [135usize, 136, 137, 272] {
            let data = vec![0x5au8; len];
            let a = keccak256(&data);
            let mut h = Keccak256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), a, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(keccak256(b"dragoon"), keccak256(b"dragooN"));
        assert_ne!(keccak256(b""), keccak256(b"\x00"));
    }
}
