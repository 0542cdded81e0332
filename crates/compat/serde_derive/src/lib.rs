//! No-op `Serialize`/`Deserialize` derive macros (see
//! `crates/compat/README.md`): the workspace uses the derives only as
//! declaration-site markers, so they expand to nothing.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// Expands to nothing; accepts (and ignores) `#[serde(...)]` attributes.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; accepts (and ignores) `#[serde(...)]` attributes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
