//! Minimal in-tree `serde` stand-in (see `crates/compat/README.md`).
//!
//! The workspace uses `#[derive(Serialize, Deserialize)]` as
//! declaration-site markers (the derives are no-ops) plus a handful of
//! *manual* byte-oriented impls in `dragoon-crypto`. This crate provides
//! just enough of the serde data model — `Serialize` / `Deserialize`,
//! a bytes-only `Serializer` / `Deserializer` pair and `de::Error` — for
//! those manual impls to compile unchanged against the real serde later.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Deserialization-side machinery.
pub mod de {
    use std::fmt::Display;

    /// The error contract deserializers expose (`Error::custom`).
    pub trait Error: Sized {
        /// Builds an error from any displayable message.
        fn custom<T: Display>(msg: T) -> Self;
    }
}

/// A type that can serialize itself through a [`Serializer`].
pub trait Serialize {
    /// Serializes `self`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A type that can deserialize itself through a [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes a value.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// The (bytes-only) serializer contract.
pub trait Serializer: Sized {
    /// Successful output.
    type Ok;
    /// Error type.
    type Error;

    /// Serializes a byte string.
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
}

/// The (bytes-only) deserializer contract.
pub trait Deserializer<'de>: Sized {
    /// Error type, constructible from custom messages.
    type Error: de::Error;

    /// Produces an owned byte buffer.
    fn deserialize_byte_buf(self) -> Result<Vec<u8>, Self::Error>;
}

impl Serialize for Vec<u8> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self)
    }
}

impl<'de> Deserialize<'de> for Vec<u8> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_byte_buf()
    }
}
