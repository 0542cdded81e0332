//! Content-addressed off-chain storage — the stand-in for Swarm (§VI).
//!
//! The paper stores each task's question set in Swarm and commits only
//! the digest on-chain ("to ensure integrity of HIT questions, the digest
//! of the questions is committed in the contract, which significantly
//! reduces on-chain cost"). This module reproduces that split: blobs live
//! off-chain, addressed by their Keccak-256 digest; readers verify
//! integrity by re-hashing.

use dragoon_crypto::keccak256;
use std::collections::HashMap;

/// A content digest (the on-chain anchor).
pub type Digest = [u8; 32];

/// An in-process content-addressed store.
#[derive(Clone, Debug, Default)]
pub struct ContentStore {
    blobs: HashMap<Digest, Vec<u8>>,
}

impl ContentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a blob and returns its digest.
    pub fn put(&mut self, bytes: Vec<u8>) -> Digest {
        let digest = keccak256(&bytes);
        self.blobs.insert(digest, bytes);
        digest
    }

    /// Fetches a blob, verifying its integrity against the digest.
    ///
    /// Returns `None` when missing *or* when the stored bytes fail the
    /// integrity check (a malicious storage node served tampered data).
    pub fn get(&self, digest: &Digest) -> Option<&[u8]> {
        let bytes = self.blobs.get(digest)?;
        (keccak256(bytes) == *digest).then_some(bytes.as_slice())
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Test hook: corrupt the blob stored under `digest` (models a
    /// malicious storage provider).
    pub fn tamper(&mut self, digest: &Digest) {
        if let Some(bytes) = self.blobs.get_mut(digest) {
            if let Some(b) = bytes.first_mut() {
                *b ^= 0xff;
            }
        }
    }
}

/// Serializes a question set for off-chain storage.
pub fn encode_questions(questions: &[dragoon_core::Question]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(questions.len() as u64).to_le_bytes());
    for q in questions {
        let p = q.prompt.as_bytes();
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(p);
        out.extend_from_slice(&(q.options.len() as u64).to_le_bytes());
        for o in &q.options {
            let ob = o.as_bytes();
            out.extend_from_slice(&(ob.len() as u64).to_le_bytes());
            out.extend_from_slice(ob);
        }
    }
    out
}

/// Parses a stored question set. The bytes come from untrusted storage,
/// so every length read from them is checked against the input before
/// it is used: a hostile prefix yields `None`, never a panic or an
/// allocation the input cannot back.
pub fn decode_questions(bytes: &[u8]) -> Option<Vec<dragoon_core::Question>> {
    let mut pos = 0usize;
    let read_u64 = |pos: &mut usize| -> Option<u64> {
        let end = pos.checked_add(8)?;
        let v = u64::from_le_bytes(bytes.get(*pos..end)?.try_into().ok()?);
        *pos = end;
        Some(v)
    };
    let read_str = |pos: &mut usize| -> Option<String> {
        let len = usize::try_from(read_u64(pos)?).ok()?;
        let end = pos.checked_add(len)?;
        let s = String::from_utf8(bytes.get(*pos..end)?.to_vec()).ok()?;
        *pos = end;
        Some(s)
    };
    // Reserve no more entries than the remaining bytes can hold: a
    // question takes at least 16 of them (two lengths), an option 8.
    let reserve = |count: u64, pos: usize, min_bytes: usize| -> usize {
        usize::try_from(count).map_or(0, |c| c.min((bytes.len() - pos) / min_bytes))
    };
    let n = read_u64(&mut pos)?;
    let mut questions = Vec::with_capacity(reserve(n, pos, 16));
    for _ in 0..n {
        let prompt = read_str(&mut pos)?;
        let n_opts = read_u64(&mut pos)?;
        let mut options = Vec::with_capacity(reserve(n_opts, pos, 8));
        for _ in 0..n_opts {
            options.push(read_str(&mut pos)?);
        }
        questions.push(dragoon_core::Question { prompt, options });
    }
    (pos == bytes.len()).then_some(questions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragoon_core::Question;

    fn questions() -> Vec<Question> {
        vec![
            Question {
                prompt: "Does the image contain a cat?".into(),
                options: vec!["no".into(), "yes".into()],
            },
            Question {
                prompt: "Is the street parking available?".into(),
                options: vec!["no".into(), "yes".into(), "unknown".into()],
            },
        ]
    }

    #[test]
    fn put_get_round_trip() {
        let mut store = ContentStore::new();
        let digest = store.put(b"hello".to_vec());
        assert_eq!(store.get(&digest), Some(&b"hello"[..]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn missing_digest_is_none() {
        let store = ContentStore::new();
        assert!(store.get(&[0u8; 32]).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn tampered_blob_fails_integrity() {
        let mut store = ContentStore::new();
        let digest = store.put(b"sensitive task data".to_vec());
        store.tamper(&digest);
        assert!(
            store.get(&digest).is_none(),
            "tampered content must not verify"
        );
    }

    #[test]
    fn questions_round_trip() {
        let qs = questions();
        let encoded = encode_questions(&qs);
        assert_eq!(decode_questions(&encoded).unwrap(), qs);
    }

    #[test]
    fn question_decode_rejects_truncation() {
        let encoded = encode_questions(&questions());
        assert!(decode_questions(&encoded[..encoded.len() - 1]).is_none());
        assert!(decode_questions(&[]).is_none());
        // A count no input could back: 2^62 questions in 8 bytes.
        assert!(decode_questions(&(1u64 << 62).to_le_bytes()).is_none());
        // Lengths whose end offset overflows, for a prompt and an option.
        let mut huge_prompt = 1u64.to_le_bytes().to_vec();
        huge_prompt.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_questions(&huge_prompt).is_none());
        let mut huge_options = 1u64.to_le_bytes().to_vec();
        huge_options.extend_from_slice(&0u64.to_le_bytes());
        huge_options.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_questions(&huge_options).is_none());
        let mut huge_option = huge_options[..16].to_vec();
        huge_option.extend_from_slice(&1u64.to_le_bytes());
        huge_option.extend_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(decode_questions(&huge_option).is_none());
        // Every single-bit flip decodes or is rejected, without a panic.
        let mut flipped = encoded.clone();
        for bit in 0..encoded.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_questions(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn full_flow_store_questions() {
        let mut store = ContentStore::new();
        let qs = questions();
        let digest = store.put(encode_questions(&qs));
        let fetched = decode_questions(store.get(&digest).unwrap()).unwrap();
        assert_eq!(fetched, qs);
    }
}
